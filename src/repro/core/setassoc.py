"""Way accounting shared by the SFC and the MDT.

Both tables are address-indexed and set-associative: a set is a list of
ways, each carrying a ``tag``, and ``None`` stands for a set no access
has filled yet.  An access that spans several tags (a store straddling
two SFC words, a load or store covering two MDT granules) must take all
of its ways or none, so a replayed access leaves no partial state
behind.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence


def has_room(sets: Sequence[Optional[list]], set_mask: int, assoc: int,
             first: int, last: int, scrub: Callable[[list, int], None],
             watermark: int) -> bool:
    """Can every tag in ``first..last`` find or take a way?

    Each set the tags map to must hold a way for every tag it lacks, on
    top of the ways it holds.  A set short of room is scrubbed with
    ``scrub(ways, watermark)`` and counted again: the scrub may drop a
    dead way that one of the tags matched, which then needs a way too.
    Nothing is allocated, and untouched (``None``) sets stay untouched.
    """
    by_set: Dict[int, List[int]] = {}
    for tag in range(first, last + 1):
        by_set.setdefault(tag & set_mask, []).append(tag)
    for index, tags in by_set.items():
        ways = sets[index]
        if ways is None:
            if len(tags) > assoc:
                return False
        elif len(ways) + _missing(ways, tags) > assoc:
            scrub(ways, watermark)
            if len(ways) + _missing(ways, tags) > assoc:
                return False
    return True


def _missing(ways: list, tags: List[int]) -> int:
    """How many of ``tags`` have no way in ``ways``."""
    return sum(1 for tag in tags if all(way.tag != tag for way in ways))
