"""Product-distribution sampling and exact small-instance probabilities.

The activation law D(x) includes each element e independently with
probability x_e.  Marginal vectors are float64 numpy arrays indexed by
element id; realizations are bitmasks.

Randomness comes from counter-based Philox streams keyed by
``(seed, stream)``: trial i uses stream id i, so its draws do not depend
on any other trial.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .bitset import iter_ids
from .matroids import Matroid

_MASK64 = (1 << 64) - 1

#: Largest ground set for exact 2^n enumeration.
EXACT_ENUM_MAX = 20


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible random stream.

    The same ``(seed, stream)`` pair always yields the identical draw
    sequence, independent of any other stream.
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        # A uint64 array: a Python list would pass values >= 2^63 through
        # float64, so distinct keys could collide.
        key = np.array([self.seed & _MASK64, self.stream & _MASK64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def substream(self, i: int) -> "RngStream":
        """Derived stream; used to give trial i its own independent stream."""
        return RngStream(self.seed, self.stream * 0x9E3779B97F4A7C15 + i + 1)


def as_marginals(values: Sequence[float]) -> np.ndarray:
    """Validate and convert per-element activation probabilities."""
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("marginal vector must be one-dimensional")
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ValueError("marginal probabilities must lie in [0, 1]")
    return x


def scale(x: np.ndarray, lam: float) -> np.ndarray:
    """Componentwise λ·x; sampling D(x) then thinning by λ realizes D(λx)."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"scale factor must lie in [0, 1], got {lam}")
    return as_marginals(x) * lam


def sample_active_set(x: np.ndarray, rng: np.random.Generator) -> int:
    """One realization of D(x) as a bitmask."""
    bits = rng.random(len(x)) < x
    return _pack_bits(bits)


def _pack_bits(bits: np.ndarray) -> int:
    mask = 0
    for e in np.flatnonzero(bits):
        mask |= 1 << int(e)
    return mask


def realization_weights(x: np.ndarray) -> np.ndarray:
    """Pr[R(x) = m] for every mask m in [0, 2^n); index bit e <-> element e."""
    n = len(x)
    if n > EXACT_ENUM_MAX:
        raise ValueError(f"exact enumeration is limited to n <= {EXACT_ENUM_MAX}, got {n}")
    w = np.ones(1, dtype=np.float64)
    for e in range(n):
        w = np.concatenate([w * (1.0 - x[e]), w * x[e]])
    return w


def exact_event_probability(x: np.ndarray, predicate: Callable[[int], bool]) -> float:
    """Pr over D(x) of a predicate on the realization, by full enumeration.

    The sum over up to 2^20 terms of mixed magnitude is accumulated with
    ``math.fsum`` (exact compensated summation).
    """
    x = as_marginals(x)
    w = realization_weights(x)
    return math.fsum(w[m] for m in range(len(w)) if predicate(m))


def filter_actives(active_mask: int, lam: float, rng: np.random.Generator) -> int:
    """Independently keep each active element with probability λ."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"keep probability must lie in [0, 1], got {lam}")
    kept = 0
    for e in iter_ids(active_mask):
        if rng.random() < lam:
            kept |= 1 << e
    return kept


def in_scaled_polytope(m: Matroid, x: np.ndarray, lam: float) -> bool:
    """Brute-force test of x ∈ λ·P_M: sum_{e in S} x_e <= λ·rank(S) for all S.

    Only the ground set of ``m`` participates; entries of x outside it must
    be zero.
    """
    n = m.n_universe
    if n > EXACT_ENUM_MAX:
        raise ValueError(f"polytope check is limited to n <= {EXACT_ENUM_MAX}, got {n}")
    x = as_marginals(x)
    if len(x) != n:
        raise ValueError("marginal vector length must match the universe size")
    outside = [e for e in range(n) if x[e] > 0.0 and not (m.ground_mask >> e) & 1]
    if outside:
        raise ValueError(f"positive marginals outside the ground set: {outside}")
    sums = _subset_sums(x)
    rank_t = m.rank_table()
    # 1e-12 slack absorbs float rounding on boundary points like 3 * (1/6).
    return bool(np.all(sums <= lam * rank_t + 1e-12))


def _subset_sums(x: np.ndarray) -> np.ndarray:
    n = len(x)
    sums = np.zeros(1 << n, dtype=np.float64)
    for e in range(n):
        bit = 1 << e
        sums[bit : bit << 1] = sums[:bit] + x[e]
    return sums
