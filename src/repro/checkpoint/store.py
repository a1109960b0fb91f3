"""Checkpoint trains: their cache key, their encoding, and a memo.

A train is one entry of the experiment engine's result cache
(:class:`~repro.harness.experiment.ResultCache`), keyed by
:func:`train_key`, so the cache's format stamp, temp sweep and gc cover
trains too.  Grid cells that share a benchmark fast-forward once: the
first captures and stores the train, every later cell -- in the same
process or a later one -- restores it.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Optional

from .arch import ArchCheckpoint


def train_key(program_digest: str, every: int, warm: bool) -> str:
    """Content hash identifying one checkpoint train.

    Covers the program's content digest (not its name -- two identically
    built programs share a train), the capture interval, and whether warm
    capsules were collected.
    """
    canonical = json.dumps(
        {"program": program_digest, "every": every, "warm": warm},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _decode(payload: Optional[dict]) -> Optional[dict]:
    """The train in a cache entry; None for no entry or a bad one."""
    if payload is None:
        return None
    try:
        train = {"checkpoints": [ArchCheckpoint.from_dict(entry)
                                 for entry in payload["checkpoints"]],
                 "total_instructions": int(payload["total_instructions"]),
                 "complete": bool(payload["complete"]),
                 "stride": int(payload["stride"])}
    except (AttributeError, KeyError, TypeError, ValueError):
        return None
    if not train["checkpoints"] or train["stride"] < 1:
        return None
    return train


class CheckpointStore:
    """Checkpoint trains, memoized in-process over an optional cache:
    anything with ``load(key)`` and ``store(key, payload)``, such as the
    engine's result cache.  A cached train is decoded at most once per
    process."""

    def __init__(self, cache=None):
        self.cache = cache
        self._memo: Dict[str, dict] = {}

    def load(self, key: str) -> Optional[dict]:
        """The train under ``key``: ``{"checkpoints": [ArchCheckpoint,
        ...], "total_instructions": int, "complete": bool, "stride":
        int}``; None on a miss or an entry that does not decode.

        ``complete`` is True when the capture ran the program to halt;
        an incomplete train covers exactly ``total_instructions``
        retired instructions and can be *extended in place* by resuming
        from its last checkpoint (see
        :func:`repro.checkpoint.sampling.ensure_train`).  ``stride`` is
        the capture interval in effect at the end of the train (it grows
        past ``every`` whenever the train was thinned).
        """
        train = self._memo.get(key)
        if train is None and self.cache is not None:
            train = _decode(self.cache.load(key))
            if train is not None:
                self._memo[key] = train
        return train

    def store(self, key: str, train: dict) -> None:
        """Keep ``train`` (shaped as :meth:`load` returns it) under
        ``key``, in the cache and then in the memo."""
        if self.cache is not None:
            self.cache.store(key, {
                "total_instructions": train["total_instructions"],
                "complete": train["complete"],
                "stride": train["stride"],
                "checkpoints": [checkpoint.to_dict()
                                for checkpoint in train["checkpoints"]]})
        self._memo[key] = train
