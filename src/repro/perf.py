"""The bit-exactness gate: a digest over a runner's result manifest.

``manifest_digest`` is a SHA-256 over the runner's canonical result
manifest (config + cycles + IPC + every counter).  Two simulator builds
that disagree on *any* architected outcome produce different digests,
so an optimization pass is accepted only when the digest is unchanged
(see DESIGN.md, "Hot-path optimization methodology").
``scripts/check_digest.py`` pins it over the Figure 5/6 grids and over
one grid per subsystem or policy variant outside them, and the
end-to-end benchmark (``benchmarks/e2e``) checks every timed cell
against it.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable

#: Manifest fields that must be bit-exact across optimization passes.
_MANIFEST_FIELDS = ("benchmark", "config_name", "config", "scale",
                    "cycles", "instructions", "ipc", "counters")


def manifest_digest(manifest: Iterable[dict]) -> str:
    """SHA-256 over the canonical JSON of a runner's result manifest.

    Only the architected-outcome fields participate (wall-clock and
    cache-hit bookkeeping vary run to run); any change to a counter,
    cycle count, or IPC changes the digest.
    """
    canonical = [
        {field: entry[field] for field in _MANIFEST_FIELDS}
        for entry in manifest
    ]
    text = json.dumps(canonical, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()
