"""Product-distribution sampling and the spanning-probability oracle.

The activation law D(x) includes each element e independently with
probability x_e.  Marginal vectors are float64 numpy arrays indexed by
element id; realizations are bitmasks.

``span_probabilities`` is the one oracle for Pr[e ∈ span(B ∪ R(x))]:
exact over all 2^n realizations up to ``SPAN_TABLE_MAX`` elements, and a
frequency over sample rows, counted by the matroid's span kernel, beyond.

Randomness comes from counter-based Philox streams keyed by
``(seed, stream)``: trial i uses stream id i, so its draws do not depend
on any other trial.  ``RngStream.rekey`` moves an existing generator to the
start of a stream, so a loop over trials builds one generator, not one per
trial.  Only this module knows Philox's word layout: ``draw_rows`` draws
every block of sample rows as raw 64-bit words and ``skip_doubles`` moves a
generator by a counter jump, and both refuse any other bit generator.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .bitset import bits_of, iter_ids
from .matroids import ROW_BLOCK_VALUES, SPAN_TABLE_MAX, Matroid

_MASK64 = (1 << 64) - 1

#: The counter and buffer of a Philox at the start of a stream; the state
#: setter copies them, so one read-only array serves every call.
_PHILOX_ZEROS = np.zeros(4, dtype=np.uint64)
_PHILOX_ZEROS.flags.writeable = False

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
        # A fixed seed: an unseeded Philox draws OS entropy that rekey replaces.
        return self.rekey(np.random.Generator(np.random.Philox(0)))

    def rekey(self, gen: np.random.Generator) -> np.random.Generator:
        """Move the Philox generator ``gen``, wherever it stands, to the start
        of this stream, and return it.

        Setting the state costs a few microseconds; building a Philox costs
        several times that, because it hashes a seed into a seed sequence
        that the key then replaces.
        """
        gen.bit_generator.state = {
            "bit_generator": "Philox",
            # A uint64 array: a Python list would pass values >= 2^63 through
            # float64, so distinct keys could collide.
            "state": {
                "counter": _PHILOX_ZEROS,
                "key": np.array([self.seed & _MASK64, self.stream & _MASK64], dtype=np.uint64),
            },
            "buffer": _PHILOX_ZEROS,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return gen

    def substream(self, i: int) -> "RngStream":
        """Derived stream; used to give trial i its own independent stream."""
        return RngStream(self.seed, self.stream * 0x9E3779B97F4A7C15 + i + 1)


def _philox(gen: np.random.Generator) -> np.random.Philox:
    """The bit generator of ``gen``, which must be a Philox."""
    bg = gen.bit_generator
    if not isinstance(bg, np.random.Philox):
        raise TypeError(f"a Philox generator is required, got {type(bg).__name__}")
    return bg


def skip_doubles(gen: np.random.Generator, d: int) -> None:
    """Move the Philox generator ``gen``, state and all, as d ``gen.random()``
    calls would.

    Philox makes 4 values per counter step and buffers them.  ``advance``
    moves the counter by whole steps past the buffered values, but drops
    the buffer and the saved 32-bit half-word, so it stops short of the
    last 1-4 values, which are drawn to fill the buffer, and the half-word
    is put back.
    """
    bg = _philox(gen)
    if not d:
        return
    state = bg.state
    buffered = 4 - state["buffer_pos"]
    if d > buffered:
        steps = (d - buffered - 1) // 4
        bg.advance(steps)
        d -= buffered + 4 * steps
        if state["has_uint32"]:
            after = bg.state
            after["has_uint32"], after["uinteger"] = 1, state["uinteger"]
            bg.state = after
    gen.random(d)


def philox_copy(gen: np.random.Generator) -> np.random.Generator:
    """A new generator at the state of the Philox generator ``gen``."""
    # A fixed seed: an unseeded Philox draws OS entropy that the state replaces.
    out = np.random.Generator(np.random.Philox(0))
    out.bit_generator.state = _philox(gen).state
    return out


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


class RowLaw:
    """Marginals x of s row columns, prepared once for ``draw_rows``.

    ``below`` holds the 64-bit word thresholds ceil(x * 2^53) * 2^11 in
    ``rows`` equal rows, and ``ones`` flags the columns with x = 1, or is
    None when there are none.  A draw of at most ``rows`` rows compares its
    words with as many rows of ``below``, element by element, which numpy
    does faster than broadcasting one row; a larger draw broadcasts it.
    """

    __slots__ = ("below", "ones")

    def __init__(self, x: np.ndarray, rows: int = 1):
        # ceil(x * 2^53) * 2^11 wraps to 0 at x = 1 only; draw_rows sets
        # those columns after the compare.
        below = np.ceil(np.multiply(x, 2.0**53)).astype(np.uint64) << np.uint64(11)
        self.below = np.tile(below, (rows, 1))
        ones = np.equal(x, 1.0)
        self.ones = ones if ones.any() else None


def draw_rows(
    rng: np.random.Generator, law: RowLaw, shape: tuple, out: np.ndarray | None = None
) -> np.ndarray:
    """Row flags ``rng.random(shape) < x`` for the marginals x of ``law``,
    with the same generator state after, from the Philox generator ``rng``.
    A caller that draws repeatedly builds the law once.

    ``random()`` returns k * 2^-53 for the integer k = ``next_uint64 >> 11``,
    and k * 2^-53 < x iff k < ceil(x * 2^53), so the raw words w are drawn
    and compared with the law's thresholds without a float block: for
    x < 1, w >> 11 < t iff w < t * 2^11, which fits in 64 bits; x = 1 flags
    every row.  ``out`` takes the flags.
    """
    bg = _philox(rng)
    rows = math.prod(shape[:-1])
    below = law.below[:rows].reshape(shape) if rows <= len(law.below) else law.below[0]
    flags = np.less(bg.random_raw(shape), below, out=out)
    if law.ones is not None:
        np.logical_or(flags, law.ones, out=flags)
    return flags


def _pack_bits(bits: np.ndarray) -> int:
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def realization_weights(x: np.ndarray) -> np.ndarray:
    """Pr[R(x) = m] for every mask m in [0, 2^n); index bit e <-> element e."""
    n = len(x)
    if n > SPAN_TABLE_MAX:
        raise ValueError(f"exact enumeration is limited to n <= {SPAN_TABLE_MAX}, got {n}")
    return realization_products(1.0 - x, x)


def realization_products(off: np.ndarray, on: np.ndarray) -> np.ndarray:
    """For every mask m in [0, 2^n), the product over elements e of ``on[e]``
    if bit e of m is set, else ``off[e]``.

    The one loop that builds realization weights: float64 factors
    (1 - x_e, x_e) give ``realization_weights``, and integer numerators
    in an object array give the exact weights of the ``T_alpha`` oracle.
    """
    w = np.ones(1, dtype=off.dtype)
    for f_off, f_on in zip(off, on):
        w = np.concatenate([w * f_off, w * f_on])
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

    Up to ``SPAN_TABLE_MAX`` elements the probabilities are exact, summed
    over all 2^n realizations.  Beyond, they are frequencies over
    ``samples`` rows of D(x) drawn from ``rng``, which must then be given,
    as a Philox generator (``draw_rows``).  Only the ground set of ``m``
    counts: R(x) is read as R(x) ∩ ground.
    """
    x = universe_marginals(m, x)
    if base & ~m.ground_mask:
        raise ValueError("base set outside the ground set")
    if m.n_universe > SPAN_TABLE_MAX:
        if rng is None or samples is None or samples < 1:
            raise ValueError(
                f"beyond n = {SPAN_TABLE_MAX} the oracle samples: pass rng and samples"
            )
        return _sampled_span_probabilities(m, x, base, rng, samples)
    w = realization_weights(x)
    spans = m.span_lookup()(np.arange(len(w), dtype=np.int64) | np.int64(base))
    probs = np.zeros(m.n_universe)
    for e in iter_ids(m.ground_mask):
        probs[e] = w @ ((spans >> np.int64(e)) & 1)
    return probs


def _sampled_span_probabilities(
    m: Matroid, x: np.ndarray, base: int, rng: np.random.Generator, samples: int
) -> np.ndarray:
    # Elements of the base are spanned by every row, so only the others
    # are drawn; rows come in blocks of at most ROW_BLOCK_VALUES values.
    sup = np.array([e for e in iter_ids(m.ground_mask & ~base) if x[e] > 0.0], dtype=np.int64)
    if not len(sup):
        return bits_of(m.span(base), m.n_universe).astype(np.float64)
    count, law = m.span_counter(sup), RowLaw(x[sup])
    active = np.empty((min(samples, max(1, ROW_BLOCK_VALUES // len(sup))), len(sup)), dtype=bool)
    counts = np.zeros(m.n_universe, dtype=np.int64)
    for start in range(0, samples, len(active)):
        b = min(len(active), samples - start)
        counts += count(draw_rows(rng, law, (b, len(sup)), out=active[:b]), base)
    return counts / samples


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
    if n > SPAN_TABLE_MAX:
        raise ValueError(f"polytope check is limited to n <= {SPAN_TABLE_MAX}, got {n}")
    x = universe_marginals(m, x)
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
