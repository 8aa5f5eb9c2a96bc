"""Element sets as integer bitmasks.

Every set of element ids in this package is a plain Python ``int`` whose
bit ``e`` is set iff element ``e`` is a member.  Python integers are
arbitrary precision, so the same representation covers ground sets of any
size; all hot-path operations (union, intersection, membership) are single
word operations for n <= 64 and stay cheap beyond.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np


def mask_of(ids: Iterable[int]) -> int:
    """Build a mask from an iterable of element ids."""
    m = 0
    for e in ids:
        if e < 0:
            raise ValueError(f"element ids must be non-negative, got {e}")
        m |= 1 << e
    return m


def full_mask(n: int) -> int:
    """Mask of the dense ground set {0, ..., n-1}."""
    return (1 << n) - 1


def ids_of(mask: int) -> list[int]:
    """Sorted list of element ids in ``mask``."""
    return list(iter_ids(mask))


def iter_ids(mask: int) -> Iterator[int]:
    """Yield element ids of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bits_of(mask: int, n: int) -> np.ndarray:
    """Bool membership vector of ``mask`` over ids 0..n-1, at any width."""
    raw = np.frombuffer(mask.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little").view(bool)


def submasks(mask: int) -> Iterator[int]:
    """Yield all 2^|mask| subsets of ``mask``, ending with ``mask`` itself.

    Standard descending-submask walk, reordered to start from the empty set.
    """
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask
