"""Spanning-chain construction from samples.

The sample-based link builder estimates, from q fresh activation samples
per iteration, which elements are likely to be spanned, and truncates the
iteration after a randomized number of steps h̄ drawn from a geometric-like
law on {1, ..., η}.  Iterating the link builder over nested restrictions
yields a spanning chain N = C_0 ⊇ C_1 ⊇ ... ⊇ C_{ζ+1} = ∅.

Only the per-element spanning *counts* over the q samples enter a link
decision, and only through the side of the bar threshold * q each lands
on.  The estimator works on one of three paths: ``empty`` when no element
can activate, ``multinomial`` on small supports, where the counts are
drawn directly from the corresponding multinomial law instead of
materializing every sample (the output distribution is identical and the
draw accounting unchanged), and ``rows`` otherwise, where sample rows are
drawn and the matroid counts them with the kernel of its family.

The known-marginals baseline link (``minimal_link_construction``) and the
freeness of an element at its level (``chain_freeness``) read their
probabilities from the package's one spanning-probability oracle in
``sampling``: the link, whose base differs per element, through the exact
branch's per-element entry ``spanned_weight``.

Seven shortcuts save time without changing any output or the generator
state after a build.  The first three rest on two facts.  numpy draws the
same stream whether values come one call at a time or in one batched call:
``rng.random(k)`` equals k calls of ``rng.random()``,
``rng.multinomial(q, p, size=h)`` equals h calls of ``rng.multinomial(q, p)``,
and ``rng.random(out=block)`` over consecutive row blocks, or over a
(g, q, s) batch, equals that many calls of ``rng.random((q, s))``.  And an
iteration whose set equals A_{h-1} leaves the next iteration where it was,
so only the iterations that change A need a new classification.

* Absorbing tail (``ocrs_chain``): once a link's ground set C holds no
  element with a positive marginal, the link's estimates are
  deterministic; the link is span(∅) of M|C, and every later link, built on
  that set, repeats it.  Only the cutoffs h̄ consume the generator, so they
  are drawn in one call and no estimator or minor is built.
* Multinomial iterations (``_SpanCountEstimator.link_sets``): all h̄ count
  vectors are drawn at once and classified against the current A in one
  product; the builder jumps to the first row whose set differs from A.
* Sample rows (``_SpanCountEstimator.link_sets``): when whole iterations
  fit in a batch of random values, the q x s rows of several iterations
  are drawn by one call and counted by one call of the matroid's span
  counter (``Matroid.span_counter``), which sums each iteration's rows on
  its own; the builder jumps to the first iteration whose set differs from
  A and counts the rest of the batch again under the new A, from the same
  values.  A larger iteration is drawn in reused row blocks and counted
  block by block.  Rows are never copied.
* Compact tail (``BuildTrace``): the absorbing tail is one record, its
  cutoffs and two masks, instead of one ``LinkTrace`` per link;
  ``BuildTrace.link_traces`` expands it only when read.
* Estimator reuse (``_link_estimator``): an estimator holds no generator
  state, only tables fixed by (minor, x, q), so ``single_ocrs_link`` takes
  it from a memo on the base matroid, and every trial of an experiment
  shares its first link's estimator.  ``rows`` estimators are rebuilt per
  link, because their row blocks would otherwise outlive the link.
* Chain plan (``ChainPlan``): everything that depends only on
  (M, x, tau, eps, overrides) -- the checks, rho, zeta, the link
  parameters, the cutoff law, the positive mask and the loops span(∅) --
  is fixed once by ``chain_plan``, and ``ChainPlan.sample`` builds each
  chain from it.  ``ocrs_chain`` is a plan used once.
* Decided row blocks (``_SpanCountEstimator._decided_flags``): an
  iteration drawn from a Philox generator, with more than a k-th of
  ``ROW_BLOCK_VALUES`` values on k CPUs, is cut into blocks that the
  calling thread and one helper thread per extra CPU (``chainocrs.workers``)
  claim in increasing order; numpy fills and compares them without the
  interpreter lock.  Running totals decide an element once its count must
  end above the bar, or cannot, whatever the rows not yet counted hold, and
  once every element is decided no further block is drawn.  The stream is
  unchanged because Philox is counter-based: a worker's own copy of the
  generator jumps to its block's offset in the iteration (``advance`` by
  whole 4-value steps, the rest drawn), so each block holds the values one
  full draw puts there, and the integer totals do not depend on which
  worker summed a row.  The caller's generator then jumps to the end of
  the iteration, so the sets, the accounted draws and the generator state
  are those of counting all q rows.  With one CPU the same loop runs on
  the calling thread.  Another bit generator, or an iteration of at most a
  k-th of a row block, counts all its rows in one sequential loop.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import workers
from .bitset import bits_of, ids_of, iter_ids, mask_of
from .matroids import ROW_BLOCK_VALUES, Matroid, MinorMatroid
from .sampling import (
    EXACT_ENUM_MAX,
    as_marginals,
    count_sample_rows,
    realization_weights,
    span_probabilities,
    spanned_weight,
    universe_marginals,
)

#: Support size up to which link counts are drawn from the exact multinomial.
MULTINOMIAL_MAX_SUPPORT = 12

#: Link estimators kept per base matroid; the oldest is dropped beyond this.
ESTIMATOR_MEMO_MAX = 16

#: Row blocks claimed past the first row that may decide an iteration hold
#: a DECIDE_SPLIT-th of a worker's share of ROW_BLOCK_VALUES.
DECIDE_SPLIT = 8


# ---------------------------------------------------------------------------
# Truncation distribution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruncationDistribution:
    """Law of the randomized iteration cutoff h̄ on {1, ..., eta}.

    Pr[h̄=1] = (1+eps)^(1-eta) and Pr[h̄=h] = eps * Pr[h̄<h] for h >= 2,
    equivalently Pr[h̄<=h] = (1+eps) * Pr[h̄<=h-1].
    """

    eps: float
    rho: int
    eta: int
    pmf: np.ndarray
    _cdf: np.ndarray = field(repr=False)

    def sample(self, rng: np.random.Generator) -> int:
        """Draw h̄; deterministic given the generator state."""
        u = rng.random()
        idx = int(self._cdf.searchsorted(u, side="right"))
        return min(idx + 1, self.eta)

    def sample_many(self, rng: np.random.Generator, k: int) -> list[int]:
        """k cutoffs; the same values and generator state as k ``sample`` calls."""
        idx = self._cdf.searchsorted(rng.random(k), side="right")
        return np.minimum(idx + 1, self.eta).tolist()

    def mean(self) -> float:
        return float(np.dot(self.pmf, np.arange(1, self.eta + 1)))


def formula_eta(eps: float, rho: int) -> int:
    """eta = ceil(1 + log_{1+eps}(ln(rho) / eps^3)), nudged up if float
    rounding ever left Pr[h̄=1] above eps^3/ln(rho)."""
    eta = math.ceil(1.0 + math.log(math.log(rho) / eps**3) / math.log1p(eps))
    while (1.0 + eps) ** (-(eta - 1)) > eps**3 / math.log(rho):
        eta += 1
    return eta


@lru_cache(maxsize=64)
def _truncation_cached(eps: float, rho: int, eta: int) -> TruncationDistribution:
    pmf = np.empty(eta, dtype=np.float64)
    pmf[0] = (1.0 + eps) ** (-(eta - 1))
    # Pr[h̄=h] = eps * Pr[h̄<h] and Pr[h̄<h] = (1+eps)^(h-1-eta) telescope.
    for h in range(2, eta + 1):
        pmf[h - 1] = eps * (1.0 + eps) ** (h - 1 - eta)
    return TruncationDistribution(eps=eps, rho=rho, eta=eta, pmf=pmf, _cdf=np.cumsum(pmf))


def truncation_distribution(
    eps: float, rho: int, eta: int | None = None
) -> TruncationDistribution:
    """Build the cutoff law; ``eta`` may be overridden for smoke runs."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if rho < 3:
        raise ValueError(f"rho must be at least 3, got {rho}")
    if eta is None:
        eta = formula_eta(eps, rho)
    if eta < 1:
        raise ValueError(f"eta must be positive, got {eta}")
    return _truncation_cached(eps, rho, eta)


# ---------------------------------------------------------------------------
# Link parameters and traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParamOverrides:
    """Optional q/eta/zeta substitutes for fast non-conforming smoke runs."""

    q: int | None = None
    eta: int | None = None
    zeta: int | None = None

    @property
    def any_set(self) -> bool:
        return self.q is not None or self.eta is not None or self.zeta is not None


@dataclass(frozen=True)
class LinkParams:
    """Parameters of one link build.

    ``threshold`` is used verbatim in the strict comparison P̂r[...] >
    threshold; callers that follow the chain recipe pass (1-eps)*tau here.
    ``q`` and ``eta`` default to their formula values; ``conforming`` is
    False whenever either was overridden.
    """

    rho: int
    threshold: float
    eps: float
    q: int
    eta: int
    conforming: bool = True

    def __post_init__(self):
        if self.rho < 3:
            raise ValueError(f"rho must be at least 3, got {self.rho}")
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError(f"threshold must lie in (0, 1], got {self.threshold}")
        if not 0.0 < self.eps <= 0.05:
            raise ValueError(f"eps must lie in (0, 1/20], got {self.eps}")
        if self.q < 1 or self.eta < 1:
            raise ValueError("q and eta must be positive")

    @classmethod
    def from_formula(
        cls,
        rho: int,
        threshold: float,
        eps: float,
        overrides: ParamOverrides | None = None,
    ) -> "LinkParams":
        """q = ceil(6/(threshold*eps^2) * ln(ln(rho)/eps)), eta per formula_eta."""
        if rho < 3:
            raise ValueError(f"rho must be at least 3, got {rho}")
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must lie in (0, 1], got {threshold}")
        q = math.ceil(6.0 / (threshold * eps**2) * math.log(math.log(rho) / eps))
        eta = formula_eta(eps, rho)
        conforming = True
        if overrides is not None:
            if overrides.q is not None:
                q, conforming = overrides.q, False
            if overrides.eta is not None:
                eta, conforming = overrides.eta, False
        return cls(rho=rho, threshold=threshold, eps=eps, q=q, eta=eta, conforming=conforming)


@dataclass(frozen=True)
class LinkTrace:
    """Record of one link build: cutoff, intermediate sets, draws used.

    ``a_sets`` holds A_1, ..., A_h̄.  Links of an absorbing tail are not
    stored as ``LinkTrace`` values; ``BuildTrace.link_traces`` expands them
    on read.
    """

    h_bar: int
    a_sets: tuple[int, ...]
    draws: int
    ground_mask: int


@dataclass(frozen=True)
class BuildTrace:
    """Aggregate record of a chain build.

    ``sampled`` holds the links the link builder ran.  An absorbing tail is
    one record: its cutoffs ``tail_h_bars``, the ground set ``tail_ground``
    of its first link, and ``tail``, the set every tail link returns (and
    the ground set of every tail link after the first).  ``link_traces``
    expands the tail into per-link records only when it is read.
    """

    rho: int
    zeta: int
    q: int
    eta: int
    threshold: float
    eps: float
    conforming: bool
    sampled: tuple[LinkTrace, ...]
    tail_h_bars: tuple[int, ...] = ()
    tail_ground: int = 0
    tail: int = 0

    @property
    def h_bars(self) -> tuple[int, ...]:
        """The cutoff h̄ of every link, in chain order."""
        return tuple(lt.h_bar for lt in self.sampled) + self.tail_h_bars

    @property
    def link_traces(self) -> tuple[LinkTrace, ...]:
        """One record per link, the absorbing tail expanded."""
        grounds = [self.tail_ground] + [self.tail] * (len(self.tail_h_bars) - 1)
        return self.sampled + tuple(
            LinkTrace(h_bar=h, a_sets=(self.tail,) * h, draws=h * self.q, ground_mask=g)
            for h, g in zip(self.tail_h_bars, grounds)
        )

    @property
    def draw_count(self) -> int:
        return self.q * sum(self.h_bars)

    @property
    def draw_bound(self) -> int:
        """Hard ceiling zeta * eta * q on the draw count."""
        return self.zeta * self.eta * self.q


# ---------------------------------------------------------------------------
# Spanning chains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpanningChain:
    """Nested links C_0 ⊇ C_1 ⊇ ... ⊇ C_k = ∅ as bitmasks."""

    links: tuple[int, ...]

    def __post_init__(self):
        if len(self.links) < 2:
            raise ValueError("a spanning chain needs at least (N, ∅)")
        if self.links[-1] != 0:
            raise ValueError("the final link must be empty")
        # Equal neighbours are nested, so each run of repeats (an absorbing
        # tail) is checked as one link.
        distinct = [c for c, _ in itertools.groupby(self.links)]
        for a, b in zip(distinct, distinct[1:]):
            if b & ~a:
                raise ValueError("chain links must be nested")

    def __len__(self) -> int:
        return len(self.links)

    @property
    def ground_mask(self) -> int:
        return self.links[0]

    def level_of(self, e: int) -> int:
        """The unique i with e ∈ C_i \\ C_{i+1} (the highest index holding e)."""
        bit = 1 << e
        if not self.links[0] & bit:
            raise ValueError(f"element {e} is not in the chain's ground set")
        for i in range(len(self.links) - 2, -1, -1):
            if self.links[i] & bit:
                return i
        raise AssertionError("unreachable: element in C_0 has a level")

    def to_jsonable(self) -> list[list[int]]:
        return [ids_of(c) for c in self.links]


# ---------------------------------------------------------------------------
# Span-count estimation over q samples
# ---------------------------------------------------------------------------


class _SpanCountEstimator:
    """Per-iteration set of the elements e whose count |{p : e ∈ span(A ∪ S_p)}|
    over q samples exceeds the bar threshold * q.

    The path is fixed per (matroid, marginals) pair at construction:

    * ``empty``       -- no element can activate; counts are q * [e ∈ span(A)].
    * ``multinomial`` -- support <= MULTINOMIAL_MAX_SUPPORT and a dense span
                         table exists: draw outcome counts for the 2^s
                         realizations directly (counts are the sufficient
                         statistic of the q samples).
    * ``rows``        -- draw the q sample rows in reused blocks and count
                         each block with the matroid's ``span_counter``,
                         which picks the kernel for its family, until the
                         counts decide every element.

    ``link_sets`` runs a whole link and is exact against h̄ calls of
    ``next_link_set``: it returns the same sets and leaves the generator in
    the same state.  On the ``multinomial`` path it draws the h̄ count
    vectors in one call, which numpy makes the same stream as h̄ single
    draws, and reclassifies only after an iteration whose set differs from
    A, because an iteration that keeps A leaves the next one unchanged.
    On the ``rows`` path the batches and blocks follow the row-major order
    of ``rng.random((q, s))`` calls, so the stream is that of one full draw
    per iteration, and the rest of a batch is counted again only after an
    iteration whose set differs from A.  The blocks of a larger iteration
    from a Philox generator are drawn and counted on every CPU, each block
    from its own offset in that stream, and drawing stops once the running
    totals decide every element; the generator still ends after the
    iteration's q rows.
    """

    def __init__(self, m: Matroid, x: np.ndarray, q: int):
        self.m = m
        self.q = q
        self.ground = m.ground_mask
        self.ground_ids = np.array(ids_of(self.ground), dtype=np.int64)
        x = np.asarray(x, dtype=np.float64)
        if len(x) != m.n_universe:
            raise ValueError("marginal vector length must match the universe size")
        sup_ids = [e for e in iter_ids(self.ground) if x[e] > 0.0]
        self.sup_ids = np.array(sup_ids, dtype=np.int64)
        self.sup_x = x[sup_ids] if sup_ids else np.empty(0)
        self.lookup = m.span_lookup() if len(sup_ids) <= MULTINOMIAL_MAX_SUPPORT else None
        self._member_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # Reused row blocks and generators, one per worker.
        self._blocks: list[tuple[np.ndarray, np.ndarray] | None] = [None]
        self._gens: list[np.random.Generator] = []
        if not sup_ids:
            self.path = "empty"
        elif self.lookup is not None:
            self.path = "multinomial"
            # Outcome j realizes the support elements of the set bits of j.
            outcomes = np.arange(1 << len(sup_ids), dtype=np.int64)
            self.outcome_masks = ((outcomes[:, None] >> np.arange(len(sup_ids))) & 1) @ (
                np.int64(1) << self.sup_ids
            )
            pvals = realization_weights(self.sup_x)
            self.pvals = pvals / pvals.sum()
        else:
            self.path = "rows"
            self.count = m.span_counter(self.sup_ids)

    def link_sets(self, h_bar: int, threshold: float, rng: np.random.Generator) -> list[int]:
        """A_1, ..., A_h̄ from A_0 = ∅."""
        if self.path == "empty":
            # No element ever activates, so every estimate is deterministic
            # and the iteration reaches its fixed point span(∅) at once.
            return [self.next_link_set(0, threshold, rng)] * h_bar
        if self.path == "rows":
            return self._row_link_sets(h_bar, threshold, rng)
        cnt = rng.multinomial(self.q, self.pvals, size=h_bar)
        bar = threshold * self.q
        a, sets = 0, []
        while len(sets) < h_bar:
            member, in_a = self._member(a)
            a = self._extend(sets, a, cnt[len(sets):] @ member > bar, in_a)
        return sets

    def _extend(self, sets: list[int], a: int, above: np.ndarray, in_a: np.ndarray) -> int:
        """Append the sets of the iterations ``above`` classifies from A = a,
        up to and including the first whose set differs from A; return the
        new A.  Row i of ``above`` flags the ground elements iteration i
        puts in its set, and ``in_a`` flags A's."""
        # The first row that differs from A holds the first differing flag.
        changed = np.flatnonzero(above != in_a)
        if not len(changed):
            sets += [a] * len(above)
            return a
        j = int(changed[0]) // len(in_a)
        sets += [a] * j
        a = self._set_of(above[j])
        sets.append(a)
        return a

    def _row_link_sets(self, h_bar: int, threshold: float, rng: np.random.Generator) -> list[int]:
        """The ``rows`` path of ``link_sets``.

        Whole iterations go in batches of at most a sixteenth of
        ``ROW_BLOCK_VALUES`` random values, drawn by one ``rng.random`` call
        and counted by one kernel call per A that the batch meets: after an
        iteration that changes A, the rest of the batch is counted again
        under the new A from the same values.  An iteration too large for a
        batch is drawn and decided on its own by ``next_link_set``.
        """
        q, s = self.q, len(self.sup_ids)
        per_batch = min(ROW_BLOCK_VALUES // 16 // (q * s), h_bar)
        a, sets = 0, []
        if not per_batch:
            for _ in range(h_bar):
                a = self.next_link_set(a, threshold, rng)
                sets.append(a)
            return sets
        values = np.empty((per_batch, q, s))
        active = np.empty(values.shape, dtype=bool)
        bar = threshold * q
        while len(sets) < h_bar:
            g = min(per_batch, h_bar - len(sets))
            rng.random(out=values[:g])
            first = len(sets)
            while len(sets) < first + g:
                i = len(sets) - first
                rows = np.less(values[i:g], self._x_out(a), out=active[i:g])
                above = self.count(rows, a)[:, self.ground_ids] > bar
                a = self._extend(sets, a, above, self._member_flags(a))
        return sets

    def next_link_set(self, a_mask: int, threshold: float, rng: np.random.Generator) -> int:
        """A_h from A_{h-1}: elements whose estimated spanning frequency
        over q fresh samples strictly exceeds the threshold."""
        bar = threshold * self.q
        if self.path == "empty":
            if threshold >= 1.0:
                return 0
            return self.m.span(a_mask)
        if self.path == "multinomial":
            in_set = rng.multinomial(self.q, self.pvals) @ self._member(a_mask)[0] > bar
        else:
            in_set = self._row_flags(a_mask, bar, rng)
        return self._set_of(in_set)

    def _set_of(self, in_set: np.ndarray) -> int:
        """Mask of the ground elements flagged in ``in_set`` (ground order)."""
        return mask_of(self.ground_ids[in_set].tolist())

    def _member(self, a_mask: int) -> tuple[np.ndarray, np.ndarray]:
        """0/1 matrix (outcome row spans ground column, given A = a_mask),
        and A's membership flags in ground order."""
        cached = self._member_cache.get(a_mask)
        if cached is None:
            spans = self.lookup(self.outcome_masks | np.int64(a_mask))
            member = (spans[:, None] >> self.ground_ids[None, :]) & 1
            cached = member, self._member_flags(a_mask)
            self._member_cache[a_mask] = cached
        return cached

    def _member_flags(self, a_mask: int) -> np.ndarray:
        """A's membership flags in ground order."""
        return bits_of(a_mask, self.m.n_universe)[self.ground_ids]

    def _x_out(self, a_mask: int) -> np.ndarray:
        # Elements of A are spanned by every row whatever it holds, so their
        # columns are drawn with probability 0 and never flagged.
        return np.where(bits_of(a_mask, self.m.n_universe)[self.sup_ids], 0.0, self.sup_x)

    def _block(self, i: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
        """Worker i's reused row block: ``rows`` x s values and their flags."""
        s = len(self.sup_ids)
        block = self._blocks[i]
        if block is None or len(block[0]) != rows:
            block = self._blocks[i] = np.empty((rows, s)), np.empty((rows, s), dtype=bool)
        return block

    def _row_flags(self, a_mask: int, bar: float, rng: np.random.Generator) -> np.ndarray:
        """Flags, in ground order, of the elements spanned in more than
        ``bar`` of q fresh rows given A = a_mask."""
        q, s = self.q, len(self.sup_ids)
        x_out = self._x_out(a_mask)
        if isinstance(rng.bit_generator, np.random.Philox):
            k = workers.cpus()
            if q * s > ROW_BLOCK_VALUES // k:
                return self._decided_flags(a_mask, x_out, bar, rng, k)
        rows = min(q, max(1, ROW_BLOCK_VALUES // s))
        counts = count_sample_rows(self.count, x_out, a_mask, rng, q, *self._block(0, rows))
        return counts[self.ground_ids] > bar

    def _decided_flags(
        self, a_mask: int, x_out: np.ndarray, bar: float, rng: np.random.Generator, k: int
    ) -> np.ndarray:
        """``_row_flags`` from as few rows as decide every element, on k workers.

        Workers claim row blocks in increasing order.  Each moves its own
        copy of ``rng`` to its block's offset in the iteration's stream, so
        every block holds the values one ``rng.random((q, s))`` call puts
        there.  Under the claim lock a worker adds its block's counts to the
        running totals and decides what they settle: after ``done`` rows an
        element is in once its total exceeds ``bar``, and out once its total
        plus the q - done rows not yet counted does not, because its full
        count lies between the two.  A row moves either margin by at most
        one, so no element is decided before ``needed`` rows: blocks up to
        that row hold up to a k-th of ROW_BLOCK_VALUES values, and blocks
        past it a DECIDE_SPLIT-th of that.  Once every element is decided
        no block is claimed, and ``rng`` is moved to the end of the iteration.
        """
        q, s = self.q, len(self.sup_ids)
        in_a = self._member_flags(a_mask)
        if q <= bar:
            # No count can exceed the bar.
            workers.skip_doubles(rng, q * s)
            return np.zeros(len(in_a), dtype=bool)
        rows = max(1, ROW_BLOCK_VALUES // (k * s))
        k = min(k, -(-q // rows))
        small = max(1, rows // DECIDE_SPLIT)
        self._blocks += [None] * (k - len(self._blocks))
        while len(self._gens) < k:
            self._gens.append(np.random.Generator(np.random.Philox(key=0)))
        state = rng.bit_generator.state
        claim = threading.Lock()
        total = np.zeros(self.m.n_universe, dtype=np.int64)
        # Elements of A are spanned by every row, so q > bar puts them in.
        undecided = self.ground_ids[~in_a]
        done = claimed = 0
        needed = min(bar, q - bar)
        failed = False

        def work(i: int) -> None:
            nonlocal undecided, done, claimed, needed, failed
            gen = self._gens[i]
            gen.bit_generator.state = state
            values, active = self._block(i, rows)
            counts = None
            at = 0
            while True:
                with claim:
                    if counts is not None:
                        np.add(total, counts, out=total)
                        done += b
                        t = total[undecided]
                        to_in, to_out = bar - t, t + (q - done) - bar
                        open_ = (to_in >= 0) & (to_out > 0)
                        undecided = undecided[open_]
                        needed = done + np.minimum(to_in, to_out)[open_].max(initial=0)
                    start = claimed
                    if failed or not len(undecided) or start == q:
                        return
                    b = min(max(int(needed) - start, small), rows, q - start)
                    claimed += b
                try:
                    workers.skip_doubles(gen, (start - at) * s)
                    at = start + b
                    gen.random(out=values[:b])
                    counts = self.count(np.less(values[:b], x_out, out=active[:b]), a_mask)
                except BaseException:
                    failed = True
                    raise

        workers.run_workers(k, work)
        workers.skip_doubles(rng, q * s)
        return (total[self.ground_ids] > bar) | in_a


# ---------------------------------------------------------------------------
# Link and chain construction
# ---------------------------------------------------------------------------


def _link_estimator(m: Matroid, x: np.ndarray, q: int) -> _SpanCountEstimator:
    """The estimator for (m, x, q), from the memo on m's base matroid.

    Equal minors of one base share an entry, so the links of every trial
    of an experiment reuse one estimator.  ``rows`` estimators are not
    kept: their row blocks would stay alive with the base matroid.
    """
    base, contracted = (m.base, m.contracted) if isinstance(m, MinorMatroid) else (m, 0)
    memo = base._link_estimators
    key = (m.ground_mask, contracted, x.tobytes(), q)
    est = memo.get(key)
    if est is None:
        est = _SpanCountEstimator(m, x, q)
        if est.path != "rows":
            if len(memo) >= ESTIMATOR_MEMO_MAX:
                del memo[next(iter(memo))]
            memo[key] = est
    return est


def _sample_link(
    m: Matroid,
    x: np.ndarray,
    params: LinkParams,
    trunc: TruncationDistribution,
    rng: np.random.Generator,
) -> tuple[int, LinkTrace]:
    """One link from validated marginals and the cutoff law of ``params``."""
    h_bar = trunc.sample(rng)
    est = _link_estimator(m, x, params.q)
    a_sets = est.link_sets(h_bar, params.threshold, rng)
    return a_sets[-1], LinkTrace(
        h_bar=h_bar, a_sets=tuple(a_sets), draws=h_bar * params.q, ground_mask=m.ground_mask
    )


def single_ocrs_link(
    m: Matroid,
    x: np.ndarray,
    params: LinkParams,
    rng: np.random.Generator,
) -> tuple[int, LinkTrace]:
    """One sample-based link: randomized-cutoff iteration of span estimates.

    Starting from A_0 = ∅, each iteration h draws q fresh samples and sets

        A_h = {e : P̂r[e ∈ span(A_{h-1} ∪ S)] > params.threshold},

    stopping after h̄ ~ truncation law iterations and returning A_h̄.  The
    threshold is applied verbatim; the (1-eps) safety factor is the
    caller's responsibility.
    """
    trunc = truncation_distribution(params.eps, params.rho, params.eta)
    return _sample_link(m, as_marginals(x), params, trunc, rng)


@dataclass(frozen=True, eq=False)
class ChainPlan:
    """What is fixed for every chain of one (M, x, tau, eps, overrides).

    Built once by ``chain_plan``; ``sample`` builds one chain per call.
    rho, q, eta and the threshold (1-eps)*tau are in ``params``.  ``x`` is
    a read-only copy, so a caller that later edits its own array cannot
    change the plan's chains.  ``loops`` is span(∅) of M: the absorbing
    tail on a ground set C is ``loops & C``, span(∅) of M|C.
    """

    m: Matroid
    x: np.ndarray
    zeta: int
    conforming: bool
    params: LinkParams
    trunc: TruncationDistribution
    positive: int
    loops: int

    def sample(self, rng: np.random.Generator) -> tuple[SpanningChain, BuildTrace]:
        """One spanning chain; the links C_1, ..., C_zeta are drawn from ``rng``."""
        m, zeta = self.m, self.zeta
        links = [m.ground_mask]
        sampled: list[LinkTrace] = []
        cur = m.ground_mask
        while len(sampled) < zeta and cur & self.positive:
            cur, lt = _sample_link(m.restrict(cur), self.x, self.params, self.trunc, rng)
            links.append(cur)
            sampled.append(lt)
        tail_h_bars: tuple[int, ...] = ()
        tail_ground = tail = 0
        if len(sampled) < zeta:
            # Absorbing tail: C holds no element with a positive marginal, so
            # this link is span(∅) of M|C (its loops; the threshold (1-eps)*tau
            # is below 1) and every later link, built on that set, repeats it.
            tail_ground, tail = cur, self.loops & cur
            tail_h_bars = tuple(self.trunc.sample_many(rng, zeta - len(sampled)))
            links += [tail] * len(tail_h_bars)
        links.append(0)
        params = self.params
        trace = BuildTrace(
            rho=params.rho,
            zeta=zeta,
            q=params.q,
            eta=params.eta,
            threshold=params.threshold,
            eps=params.eps,
            conforming=self.conforming,
            sampled=tuple(sampled),
            tail_h_bars=tail_h_bars,
            tail_ground=tail_ground,
            tail=tail,
        )
        return SpanningChain(tuple(links)), trace


def chain_plan(
    m: Matroid,
    x: np.ndarray,
    tau: float,
    eps: float,
    overrides: ParamOverrides | None = None,
) -> ChainPlan:
    """Run every input check once and fix what all chains of an experiment share.

    rho = max(rank(M), 3) stays fixed across all links; each link i is built
    on M restricted to C_{i-1} with threshold (1-eps)*tau.  The chain has
    zeta+2 links, with C_0 = N and C_{zeta+1} = ∅ forced.
    """
    if not 0.0 < eps <= 0.05:
        raise ValueError(f"eps must lie in (0, 1/20], got {eps}")
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must lie in (0, 1], got {tau}")
    rho = max(m.full_rank(), 3)
    zeta = math.ceil(math.log(rho / eps) / eps)
    conforming = True
    if overrides is not None and overrides.zeta is not None:
        zeta, conforming = overrides.zeta, False
    params = LinkParams.from_formula(rho, (1.0 - eps) * tau, eps, overrides)

    x = as_marginals(x).copy()
    if len(x) != m.n_universe:
        raise ValueError("marginal vector length must match the universe size")
    x.flags.writeable = False
    return ChainPlan(
        m=m,
        x=x,
        zeta=zeta,
        conforming=conforming and params.conforming,
        params=params,
        trunc=truncation_distribution(params.eps, params.rho, params.eta),
        positive=mask_of(np.flatnonzero(x > 0.0).tolist()),
        loops=m.span(0),
    )


def ocrs_chain(
    m: Matroid,
    x: np.ndarray,
    tau: float,
    eps: float,
    rng: np.random.Generator,
    overrides: ParamOverrides | None = None,
) -> tuple[SpanningChain, BuildTrace]:
    """Sample one spanning chain: ``chain_plan(m, x, tau, eps, overrides).sample(rng)``.

    Callers that build many chains of one experiment build the plan once.
    """
    return chain_plan(m, x, tau, eps, overrides).sample(rng)


def minimal_link_construction(m: Matroid, x: np.ndarray, tau: float) -> int:
    """Known-marginals baseline link: fixed point of the exact iteration

        A_i = {e : Pr[e ∈ span((R(x) ∪ A_{i-1}) \\ {e})] > tau}.

    Uses exact probabilities, so it is limited to small ground sets.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    x = universe_marginals(m, x)
    if m.n_universe > EXACT_ENUM_MAX:
        raise ValueError(f"the minimal link is exact and limited to n <= {EXACT_ENUM_MAX}")
    w = realization_weights(x)
    lookup = m.span_lookup()
    idx = np.arange(len(w), dtype=np.int64)
    a = 0
    while True:
        new = 0
        for e in iter_ids(m.ground_mask):
            # Clearing e's bit reads every realization as (R(x) ∪ A) \ {e}.
            spans = lookup((idx | np.int64(a)) & ~np.int64(1 << e))
            if spanned_weight(w, spans, e) > tau:
                new |= 1 << e
        if new == a:
            return a
        a = new


def chain_freeness(
    m: Matroid,
    x: np.ndarray,
    chain: SpanningChain,
    e: int,
    rng: np.random.Generator | None = None,
    samples: int | None = None,
) -> float:
    """Pr[e ∉ span(((R(x) \\ {e}) ∩ C_i) ∪ C_{i+1})] at e's level i.

    That is 1 - Pr[e ∈ span(C_{i+1} ∪ R(x'))] for x' = x on C_i \\ {e} and
    0 elsewhere, from one ``span_probabilities`` call: exact for n <= 20,
    and beyond from ``samples`` rows drawn from ``rng``.
    """
    i = chain.level_of(e)
    x = universe_marginals(m, x)
    x_level = np.where(bits_of(chain.links[i] & ~(1 << e), len(x)), x, 0.0)
    return 1.0 - float(span_probabilities(m, x_level, chain.links[i + 1], rng, samples)[e])
