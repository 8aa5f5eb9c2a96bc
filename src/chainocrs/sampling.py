"""Product-distribution sampling and the spanning-probability oracle.

The activation law D(x) includes each element e independently with
probability x_e.  Marginal vectors are float64 numpy arrays indexed by
element id; realizations are bitmasks.

``span_probabilities`` is the one oracle for Pr[e ∈ span(B ∪ R(x))]:
exact over all 2^n realizations up to ``EXACT_ENUM_MAX`` elements, and a
frequency over sample rows, counted by the matroid's span kernel, beyond.

Randomness comes from counter-based Philox streams keyed by
``(seed, stream)``: trial i uses stream id i, so its draws do not depend
on any other trial.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .bitset import bits_of, iter_ids
from .matroids import ROW_BLOCK_VALUES, Matroid

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


def universe_marginals(m: Matroid, values: Sequence[float]) -> np.ndarray:
    """``as_marginals``, also rejecting a vector whose length is not ``m.n_universe``."""
    x = as_marginals(values)
    if len(x) != m.n_universe:
        raise ValueError("marginal vector length must match the universe size")
    return x


def span_probabilities(
    m: Matroid,
    x: np.ndarray,
    base: int,
    rng: np.random.Generator | None = None,
    samples: int | None = None,
) -> np.ndarray:
    """Pr[e ∈ span(base ∪ R(x))] for every universe id e; 0 off the ground set.

    Up to ``EXACT_ENUM_MAX`` elements the probabilities are exact, summed
    over all 2^n realizations.  Beyond, they are frequencies over
    ``samples`` rows of D(x) drawn from ``rng``, which must then be given.
    Only the ground set of ``m`` counts: R(x) is read as R(x) ∩ ground.
    """
    x = universe_marginals(m, x)
    if base & ~m.ground_mask:
        raise ValueError("base set outside the ground set")
    if m.n_universe > EXACT_ENUM_MAX:
        if rng is None or samples is None or samples < 1:
            raise ValueError(
                f"beyond n = {EXACT_ENUM_MAX} the oracle samples: pass rng and samples"
            )
        return _sampled_span_probabilities(m, x, base, rng, samples)
    w = realization_weights(x)
    spans = m.span_lookup()(np.arange(len(w), dtype=np.int64) | np.int64(base))
    probs = np.zeros(m.n_universe)
    for e in iter_ids(m.ground_mask):
        probs[e] = spanned_weight(w, spans, e)
    return probs


def spanned_weight(w: np.ndarray, spans: np.ndarray, e: int) -> float:
    """Exact Pr[e ∈ span]: weights ``w[r]`` of the realizations r with e in ``spans[r]``."""
    return float(w @ ((spans >> np.int64(e)) & 1))


def _sampled_span_probabilities(
    m: Matroid, x: np.ndarray, base: int, rng: np.random.Generator, samples: int
) -> np.ndarray:
    # Elements of the base are spanned by every row, so only the others
    # are drawn; rows come in blocks of at most ROW_BLOCK_VALUES values.
    sup = np.array([e for e in iter_ids(m.ground_mask & ~base) if x[e] > 0.0], dtype=np.int64)
    if not len(sup):
        return bits_of(m.span(base), m.n_universe).astype(np.float64)
    values = np.empty((min(samples, max(1, ROW_BLOCK_VALUES // len(sup))), len(sup)))
    active = np.empty(values.shape, dtype=bool)
    counts = count_sample_rows(m.span_counter(sup), x[sup], base, rng, samples, values, active)
    return counts / samples


def count_sample_rows(count, x_cols, a_mask, rng, total, values, active) -> np.ndarray:
    """Counts of the ``Matroid.span_counter`` kernel ``count`` over ``total``
    rows of D(x_cols) from ``rng``, drawn in blocks of ``len(values)`` rows
    into ``values`` and flagged in ``active``: the stream of one
    ``rng.random((total, s))`` call."""
    counts = None
    for start in range(0, total, len(values)):
        b = min(len(values), total - start)
        rng.random(out=values[:b])
        block = count(np.less(values[:b], x_cols, out=active[:b]), a_mask)
        counts = block if counts is None else np.add(counts, block, out=counts)
    return counts


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
