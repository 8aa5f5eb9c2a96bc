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
drawn.  On both, the matroid's span counter counts the outcome or sample
rows, by fundamental circuits when the drawn columns are independent after
A, else with the kernel of its family, and alone builds any dense table.

The known-marginals baseline link (``minimal_link_construction``) iterates
the package's one spanning-probability oracle, ``sampling.span_probabilities``:
Pr[e ∈ span(A ∪ R(x))], the probability whose sample frequency the link
builder compares with its bar.  The freeness of an element at its level is
read from the same oracle by ``verify``.

Eight shortcuts save time without changing any output or the generator
state after a build.  The first three rest on two facts.  numpy draws the
same stream whether values come one call at a time or in one batched call:
``rng.random(k)`` equals k calls of ``rng.random()``,
``rng.multinomial(q, p, size=h)`` equals h calls of ``rng.multinomial(q, p)``,
and ``sampling.draw_rows`` over consecutive row blocks, or over a (g, q, s)
batch, flags what that many calls of ``rng.random((q, s)) < x`` flag: it
compares the 53-bit integers k of the doubles k * 2^-53, drawn as Philox's
64-bit words, with ceil(x * 2^53).  And an iteration whose set equals
A_{h-1} leaves the next iteration where it was, so only the iterations that
change A need a new classification.

* Absorbing tail (``ChainPlan.sample``): once a link's ground set C holds no
  element with a positive marginal, the link's estimates are
  deterministic; the link is span(∅) of M|C, and every later link, built on
  that set, repeats it.  Only the cutoffs h̄ consume the generator, so they
  are drawn in one call and no estimator or minor is built.
* Multinomial iterations (``_SpanCountEstimator.link_sets``): all h̄ count
  vectors are drawn at once and classified against the current A in one
  product; the builder jumps to the first row whose set differs from A.
* Sample rows (``_SpanCountEstimator.link_sets``): when whole iterations
  fit in a batch of a ``BATCH_SPLIT``-th of ``ROW_BLOCK_VALUES`` random
  values, the q x s row flags of several iterations are drawn by one call
  against the support's marginals and counted by one call of the matroid's
  span counter (``Matroid.span_counter``), which sums each iteration's rows
  on its own; the builder jumps to the first iteration whose set differs
  from A and counts the rest of the batch again under the new A, from the
  same draws: the counter ignores the columns of A's elements, so rows are
  drawn against the same marginals under every A.  A larger iteration is
  drawn in row blocks and counted block by block.  The estimator builds
  the marginals' ``sampling.RowLaw`` once, the threshold words of a full
  batch and the flags of the columns with x = 1, and every batch and
  block is drawn against it.
* Compact tail (``BuildTrace``): the absorbing tail is one record, its
  cutoffs and two masks, instead of one ``LinkTrace`` per link;
  ``BuildTrace.link_traces`` expands it only when read.
* Chain plan (``ChainPlan``): everything that depends only on
  (M, x, tau, eps, overrides) -- the checks, zeta, the ``LinkParams``
  (rho, q, eta, the threshold and eps, which also fix the cutoff law),
  the positive mask -- is fixed once by ``chain_plan``, and the loops
  span(∅), which only an absorbing tail reads, on first use;
  ``ChainPlan.sample`` builds each chain from it, and ``ChainPlan.link``
  each first link alone; every trace they return holds the plan's
  ``LinkParams``.
* Plan-held first link (``ChainPlan.first_estimator``): every chain's
  first link runs on M itself, so the plan holds its estimator, on every
  path, and every chain built from the plan shares it, across the trials
  of an experiment and, since the CLI keeps its last plan, across
  ``chain`` reports; a chain builds none for it.  An estimator is a value
  fixed by (matroid, x, q): it holds no generator state and no row block,
  only caches that every thread fills alike, so the trials can
  share it on several threads (``workers.map_trials``).  A later link
  builds its estimator per link.
* Decided row blocks (``_SpanCountEstimator._row_flags``): an iteration
  too large for a batch is cut into row blocks, claimed in increasing
  order by the calling thread and, on k CPUs, by one helper thread per
  extra CPU (``chainocrs.workers``); numpy fills and compares them without
  the interpreter lock.  Running totals decide an element once its count
  must end above the bar, or cannot, whatever the rows not yet counted
  hold, and once every element is decided no further block is drawn.  Each
  call gives every worker its own row block, and its own copy of the
  caller's generator (``sampling.philox_copy``), which jumps to its
  block's offset in the iteration (``sampling.skip_doubles``), so each
  block holds the values one full draw puts there, and the integer totals
  do not depend on which worker summed a row.  The caller's generator then
  skips the iteration, so the sets, the accounted draws and the generator
  state are those of counting all q rows.  One CPU, or an iteration of at
  most a k-th of a row block, runs the loop on the calling thread alone.
* Independent rows (``Matroid.span_counter``): when the drawn columns left
  after A are independent in M/A, every count, in a batch, a row block or
  the sampled oracle, is column sums and one matmul against the
  fundamental circuits, planned once per distinct A from one call of the
  family's kernel bound to A, which also finds dependent columns;
  otherwise that kernel, built once per distinct A, counts the rows.
  Basis-indicator marginals, the only kind the CLI takes past n = 20, keep
  them independent in every iteration: an element enters A only with its
  circuit, whose elements every row that spans it holds.  A batch gives the counter its bar, and
  only counts that can exceed it are exact: an element with a circuit C_e
  of two or more is spanned by at most the smallest column sum over C_e,
  so the matmul runs only for the iterations in which every column of
  some such circuit sums above the bar.  The decided row blocks and the
  sampled oracle take exact counts.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import workers
from .bitset import bits_of, ids_of, iter_ids, mask_of
from .matroids import ROW_BLOCK_VALUES, SPAN_TABLE_MAX, Matroid
from .sampling import (
    RngStream,
    RowLaw,
    as_marginals,
    draw_rows,
    philox_copy,
    realization_weights,
    skip_doubles,
    span_probabilities,
    universe_marginals,
)

#: Support size up to which link counts are drawn from the exact multinomial.
MULTINOMIAL_MAX_SUPPORT = 12

#: Row blocks claimed past the first row that may decide an iteration hold
#: a DECIDE_SPLIT-th of a worker's share of ROW_BLOCK_VALUES.
DECIDE_SPLIT = 8

#: Whole iterations are batched in a BATCH_SPLIT-th of ROW_BLOCK_VALUES
#: random values: a smaller batch pays more fixed cost per call, a larger
#: one falls out of the cache.
BATCH_SPLIT = 4


# ---------------------------------------------------------------------------
# Link parameters and traces
# ---------------------------------------------------------------------------


def formula_eta(eps: float, rho: int) -> int:
    """eta = ceil(1 + log_{1+eps}(ln(rho) / eps^3)), nudged up if float
    rounding ever left Pr[h̄=1] above eps^3/ln(rho)."""
    eta = math.ceil(1.0 + math.log(math.log(rho) / eps**3) / math.log1p(eps))
    while (1.0 + eps) ** (-(eta - 1)) > eps**3 / math.log(rho):
        eta += 1
    return eta


@lru_cache(maxsize=64)
def _h_bar_law(eps: float, eta: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only pmf and cdf of the cutoff h̄ on {1, ..., eta}, shared by
    every ``LinkParams`` with this (eps, eta)."""
    pmf = np.empty(eta, dtype=np.float64)
    pmf[0] = (1.0 + eps) ** (-(eta - 1))
    # Pr[h̄=h] = eps * Pr[h̄<h] and Pr[h̄<h] = (1+eps)^(h-1-eta) telescope.
    # One power per h, not a vectorised one, which could move the cdf by an
    # ulp and so change drawn cutoffs.
    for h in range(2, eta + 1):
        pmf[h - 1] = eps * (1.0 + eps) ** (h - 1 - eta)
    cdf = np.cumsum(pmf)
    pmf.flags.writeable = cdf.flags.writeable = False
    return pmf, cdf


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
    """Parameters of one link build, and the law of its cutoff h̄.

    ``threshold`` is used verbatim in the strict comparison P̂r[...] >
    threshold; callers that follow the chain recipe pass (1-eps)*tau here.
    ``q`` and ``eta`` default to their formula values; ``conforming`` is
    False whenever either was overridden.  h̄ lies in {1, ..., eta}, with
    Pr[h̄=1] = (1+eps)^(1-eta) and Pr[h̄=h] = eps * Pr[h̄<h] for h >= 2,
    equivalently Pr[h̄<=h] = (1+eps) * Pr[h̄<=h-1].
    """

    rho: int
    threshold: float
    eps: float
    q: int
    eta: int
    conforming: bool = True

    def __post_init__(self):
        self._check_ranges(self.rho, self.threshold, self.eps)
        if self.q < 1 or self.eta < 1:
            raise ValueError("q and eta must be positive")

    @staticmethod
    def _check_ranges(rho: int, threshold: float, eps: float) -> None:
        if not 0.0 < eps <= 0.05:
            raise ValueError(f"eps must lie in (0, 1/20], got {eps}")
        if rho < 3:
            raise ValueError(f"rho must be at least 3, got {rho}")
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must lie in (0, 1], got {threshold}")

    @classmethod
    def from_formula(
        cls,
        rho: int,
        threshold: float,
        eps: float,
        overrides: ParamOverrides | None = None,
    ) -> "LinkParams":
        """q = ceil(6/(threshold*eps^2) * ln(ln(rho)/eps)), eta per formula_eta."""
        cls._check_ranges(rho, threshold, eps)
        q = math.ceil(6.0 / (threshold * eps**2) * math.log(math.log(rho) / eps))
        eta = formula_eta(eps, rho)
        conforming = True
        if overrides is not None:
            if overrides.q is not None:
                q, conforming = overrides.q, False
            if overrides.eta is not None:
                eta, conforming = overrides.eta, False
        return cls(rho=rho, threshold=threshold, eps=eps, q=q, eta=eta, conforming=conforming)

    @property
    def pmf(self) -> np.ndarray:
        """Pr[h̄=h] at index h-1 (read-only)."""
        return _h_bar_law(self.eps, self.eta)[0]

    @property
    def cdf(self) -> np.ndarray:
        """Pr[h̄<=h] at index h-1 (read-only)."""
        return _h_bar_law(self.eps, self.eta)[1]

    def sample_h_bar(self, rng: np.random.Generator) -> int:
        """Draw h̄ from one ``rng.random()`` value."""
        u = rng.random()
        return min(int(self.cdf.searchsorted(u, side="right")) + 1, self.eta)

    def sample_h_bars(self, rng: np.random.Generator, k: int) -> list[int]:
        """k cutoffs; the same values and generator state as k ``sample_h_bar`` calls."""
        idx = self.cdf.searchsorted(rng.random(k), side="right")
        idx += 1
        return np.minimum(idx, self.eta, out=idx).tolist()


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

    ``params`` is the plan's ``LinkParams`` (rho, q, eta, the threshold and
    eps).  ``sampled`` holds the links the link builder ran.  An absorbing
    tail is one record: its cutoffs ``tail_h_bars``, the ground set
    ``tail_ground`` of its first link, and ``tail``, the set every tail link
    returns (and the ground set of every tail link after the first).
    ``link_traces`` expands the tail into per-link records only when it is
    read.
    """

    params: LinkParams
    zeta: int
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
        q = self.params.q
        grounds = [self.tail_ground] + [self.tail] * (len(self.tail_h_bars) - 1)
        return self.sampled + tuple(
            LinkTrace(h_bar=h, a_sets=(self.tail,) * h, draws=h * q, ground_mask=g)
            for h, g in zip(self.tail_h_bars, grounds)
        )

    @property
    def draw_count(self) -> int:
        return self.params.q * (sum(lt.h_bar for lt in self.sampled) + sum(self.tail_h_bars))

    @property
    def draw_bound(self) -> int:
        """Hard ceiling zeta * eta * q on the draw count."""
        return self.zeta * self.params.eta * self.params.q


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
        """The unique i with e ∈ C_i \\ C_{i+1} (the highest index holding e).

        The links are nested, so the indices holding e are 0, ..., i, and
        a bisection finds i.
        """
        bit, links = 1 << e, self.links
        if not links[0] & bit:
            raise ValueError(f"element {e} is not in the chain's ground set")
        # links[lo] holds e and links[hi] does not; the last link is empty.
        lo, hi = 0, len(links) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if links[mid] & bit:
                lo = mid
            else:
                hi = mid
        return lo

    def to_jsonable(self) -> list[list[int]]:
        # An absorbing tail repeats one set, so ids_of runs once per distinct link.
        ids = {c: ids_of(c) for c in set(self.links)}
        return [ids[c] for c in self.links]


# ---------------------------------------------------------------------------
# Span-count estimation over q samples
# ---------------------------------------------------------------------------


class _SpanCountEstimator:
    """Per-iteration set of the elements e whose count |{p : e ∈ span(A ∪ S_p)}|
    over q samples exceeds the bar threshold * q.

    The path is fixed per (matroid, marginals) pair at construction:

    * ``empty``       -- no element can activate; counts are q * [e ∈ span(A)].
    * ``multinomial`` -- support <= MULTINOMIAL_MAX_SUPPORT and n <=
                         SPAN_TABLE_MAX: draw outcome counts for the 2^s
                         realizations directly (the sufficient statistic of
                         the q samples); ``span_counter`` counts their spans.
    * ``rows``        -- draw the q sample rows in blocks and count each
                         block with the matroid's ``span_counter``
                         (fundamental circuits, or the kernel of its
                         family), until the counts decide every element.

    An estimator is a value fixed by (matroid, x, q): it keeps no
    generator and no row block between calls, only caches that any
    thread fills alike, so several threads may share one.

    ``link_sets`` runs a whole link and is exact against h̄ iterations that
    each draw one multinomial or one (q, s) block of rows and count it in
    full: it returns the same sets and leaves the generator in the same
    state.  On the ``multinomial`` path it draws the h̄ count vectors in one
    call, which numpy makes the same stream as h̄ single draws, and
    reclassifies only after an iteration whose set differs from A, because
    an iteration that keeps A leaves the next one unchanged.  On the
    ``rows`` path the batches and blocks follow the row-major order of
    ``rng.random((q, s))`` calls, so the stream is that of one full draw
    per iteration, and the rest of a batch is counted again only after an
    iteration whose set differs from A.  The blocks of a larger iteration
    are drawn and counted on every CPU, each block from its own offset in
    that stream, and drawing stops once the running totals decide every
    element; the generator still ends after the iteration's q rows.  Rows
    are drawn only from a Philox generator (``sampling.draw_rows``).
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
        # Ground-order columns of a count row; all of them on M itself.
        self._of_ground = self.ground_ids if len(self.ground_ids) < m.n_universe else slice(None)
        self._member_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._a_cache: dict[int, np.ndarray] = {}
        if not sup_ids:
            self.path = "empty"
            return
        self.count = m.span_counter(self.sup_ids)
        if len(sup_ids) <= MULTINOMIAL_MAX_SUPPORT and m.n_universe <= SPAN_TABLE_MAX:
            self.path = "multinomial"
            pvals = realization_weights(self.sup_x)
            self.pvals = pvals / pvals.sum()
        else:
            self.path = "rows"

    @cached_property
    def per_batch(self) -> int:
        """Whole iterations in a batch of at most a ``BATCH_SPLIT``-th of
        ``ROW_BLOCK_VALUES`` random values; 0 when one is larger."""
        return ROW_BLOCK_VALUES // BATCH_SPLIT // max(1, self.q * len(self.sup_ids))

    @cached_property
    def law(self) -> RowLaw:
        """The support's marginals for ``draw_rows``, with thresholds for a
        full batch, which also serve every row block of at most q rows; one
        row when iterations are too large to batch."""
        return RowLaw(self.sup_x, self.per_batch * self.q or 1)

    def link_sets(self, h_bar: int, threshold: float, rng: np.random.Generator) -> list[int]:
        """A_1, ..., A_h̄ from A_0 = ∅."""
        if self.path == "empty":
            # No element ever activates, so every estimate is deterministic
            # and the iteration reaches its fixed point span(∅) at once.
            return [0 if threshold >= 1.0 else self.m.span(0)] * h_bar
        if self.path == "rows":
            return self._row_link_sets(h_bar, threshold, rng)
        # Counts and sums stay below q, exact in float64, whose matmul runs
        # on BLAS where an integer one does not.
        cnt = rng.multinomial(self.q, self.pvals, size=h_bar).astype(np.float64)
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
        puts in its set, and ``in_a`` flags A's; ``above`` is overwritten."""
        # The first row that differs from A holds the first differing flag.
        differs = np.not_equal(above, in_a, out=above)
        first = int(differs.argmax())
        if not differs.flat[first]:
            sets += [a] * len(above)
            return a
        j = first // len(in_a)
        sets += [a] * j
        a = self._set_of(differs[j] != in_a)
        sets.append(a)
        return a

    def _row_link_sets(self, h_bar: int, threshold: float, rng: np.random.Generator) -> list[int]:
        """The ``rows`` path of ``link_sets``.

        Whole iterations go in batches of at most a ``BATCH_SPLIT``-th of
        ``ROW_BLOCK_VALUES`` random values, drawn by one ``draw_rows`` call
        against the support's ``RowLaw`` and counted by one counter call per
        A that the batch meets, with the bar threshold * q, so the counter
        computes no count that cannot exceed it: after an iteration that
        changes A, the rest of the batch is counted again under the new A
        from the same draws, whose flags in A's columns the counter
        ignores.  An iteration too large for a batch is drawn and decided on
        its own by ``_row_flags``.
        """
        q, s = self.q, len(self.sup_ids)
        per_batch = min(self.per_batch, h_bar)
        a, sets = 0, []
        bar = threshold * q
        if not per_batch:
            for _ in range(h_bar):
                a = self._set_of(self._row_flags(a, bar, rng))
                sets.append(a)
            return sets
        drawn = np.empty((per_batch, q, s), dtype=bool)
        while len(sets) < h_bar:
            g = min(per_batch, h_bar - len(sets))
            draw_rows(rng, self.law, (g, q, s), out=drawn[:g])
            first = len(sets)
            while len(sets) < first + g:
                counts = self.count(drawn[len(sets) - first:g], a, bar)
                a = self._extend(sets, a, counts[:, self._of_ground] > bar, self._in_a(a))
        return sets

    def _set_of(self, in_set: np.ndarray) -> int:
        """Mask of the ground elements flagged in ``in_set`` (ground order)."""
        return mask_of(self.ground_ids[in_set].tolist())

    def _member(self, a_mask: int) -> tuple[np.ndarray, np.ndarray]:
        """0/1 matrix (outcome row spans ground column, given A = a_mask),
        and A's membership flags in ground order."""
        cached = self._member_cache.get(a_mask)
        if cached is None:
            # Outcome j, a group of one row, flags the support's set bits of j.
            s = len(self.sup_ids)
            outcomes = (np.arange(1 << s)[:, None, None] >> np.arange(s) & 1).astype(bool)
            member = self.count(outcomes, a_mask)[:, self._of_ground].astype(np.float64)
            cached = member, self._in_a(a_mask)
            self._member_cache[a_mask] = cached
        return cached

    def _in_a(self, a_mask: int) -> np.ndarray:
        """A's membership flags in ground order, memoized: A changes only
        when a link grows."""
        in_a = self._a_cache.get(a_mask)
        if in_a is None:
            in_a = self._a_cache[a_mask] = bits_of(a_mask, self.m.n_universe)[self.ground_ids]
        return in_a

    def _row_flags(self, a_mask: int, bar: float, rng: np.random.Generator) -> np.ndarray:
        """Flags, in ground order, of the elements spanned in more than
        ``bar`` of q fresh rows given A = a_mask, from as few rows as decide
        every element, on one worker per CPU.

        Workers claim row blocks in increasing order, each into a block of its
        own made for this call.  Each worker draws from its own copy of
        ``rng``, which it moves to its block's offset in the iteration, so
        every block flags the values one ``rng.random((q, s))`` call puts
        there.  Under the claim lock a worker adds its block's counts to the
        running totals and decides what they settle: after ``done`` rows an
        element is in once its total exceeds ``bar``, and out once its total
        plus the q - done rows not yet counted does not.  A row moves either
        margin by at most one, so no element is decided before ``needed``
        rows: blocks up to that row hold up to a k-th of ROW_BLOCK_VALUES
        values, and blocks past it a DECIDE_SPLIT-th of that.  Once every
        element is decided no block is claimed, and ``rng`` skips the
        iteration's q rows; after an error it is left where it stood.
        """
        q, s = self.q, len(self.sup_ids)
        in_a = self._in_a(a_mask)
        if q <= bar:
            # No count can exceed the bar.
            skip_doubles(rng, q * s)
            return np.zeros(len(in_a), dtype=bool)
        k = workers.cpus()
        rows = max(1, ROW_BLOCK_VALUES // (k * s))
        k = min(k, -(-q // rows))
        small = max(1, rows // DECIDE_SPLIT)
        claim = threading.Lock()
        total = np.zeros(self.m.n_universe, dtype=np.int64)
        # Elements of A are spanned by every row, so q > bar puts them in.
        undecided = self.ground_ids[~in_a]
        done = claimed = 0
        needed = min(bar, q - bar)
        failed = False

        def work(_: int) -> None:
            nonlocal undecided, done, claimed, needed, failed
            gen = philox_copy(rng)
            active = np.empty((rows, s), dtype=bool)
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
                    skip_doubles(gen, (start - at) * s)
                    at = start + b
                    counts = self.count(draw_rows(gen, self.law, (b, s), out=active[:b]), a_mask)
                except BaseException:
                    failed = True
                    raise

        workers.run_workers(k, work)
        skip_doubles(rng, q * s)
        return (total[self.ground_ids] > bar) | in_a


# ---------------------------------------------------------------------------
# Link and chain construction
# ---------------------------------------------------------------------------


def _sample_link(
    m: Matroid,
    x: np.ndarray,
    params: LinkParams,
    rng: np.random.Generator,
    est: _SpanCountEstimator | None = None,
) -> tuple[int, LinkTrace]:
    """One link from validated marginals and ``params``, with ``est`` or
    else a new estimator for (m, x, q)."""
    h_bar = params.sample_h_bar(rng)
    if est is None:
        est = _SpanCountEstimator(m, x, params.q)
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

    stopping after h̄ iterations, drawn from the cutoff law of ``params``,
    and returning A_h̄.  The threshold is applied verbatim; the (1-eps)
    safety factor is the caller's responsibility.

    The package builds its links with ``ChainPlan.link``; this entry stays
    only because the benchmark's tracer looks it up by name.
    """
    return _sample_link(m, as_marginals(x), params, rng)


@dataclass(frozen=True, eq=False)
class ChainPlan:
    """What is fixed for every chain of one (M, x, tau, eps, overrides).

    Built by ``chain_plan`` and valid for as long as it is kept: for one
    experiment, or, in the CLI, for every ``chain`` report on the same
    instance until another one runs.  ``sample`` builds one chain per call
    and ``link`` one first link.
    rho, q, eta, the threshold (1-eps)*tau and the cutoff law are in
    ``params``.  ``x`` is a read-only copy, so a caller that later edits
    its own array cannot change the plan's chains.  Every chain's first
    link runs on ``m`` with ``first_estimator``, its estimator, which every
    chain of the plan shares.
    """

    m: Matroid
    x: np.ndarray
    zeta: int
    conforming: bool
    params: LinkParams
    positive: int
    first_estimator: _SpanCountEstimator
    _loops: list[int] = field(default_factory=list, init=False, repr=False)
    _loops_lock: threading.Lock = field(default_factory=threading.Lock, init=False, repr=False)

    @property
    def loops(self) -> int:
        """span(∅) of M: the absorbing tail on a ground set C is ``loops & C``,
        span(∅) of M|C.  Only an absorbing tail reads it, so it is computed
        on first use, once for all threads."""
        if not self._loops:
            with self._loops_lock:
                if not self._loops:
                    self._loops.append(self.m.span(0))
        return self._loops[0]

    def sample(self, rng: np.random.Generator) -> tuple[SpanningChain, BuildTrace]:
        """One spanning chain; the links C_1, ..., C_zeta are drawn from
        ``rng``, a Philox generator wherever a link draws sample rows
        (``sampling.draw_rows`` raises ``TypeError`` for any other)."""
        m, zeta, params = self.m, self.zeta, self.params
        links = [m.ground_mask]
        sampled: list[LinkTrace] = []
        cur = m.ground_mask
        while len(sampled) < zeta and cur & self.positive:
            if sampled:
                cur, lt = _sample_link(m.restrict(cur), self.x, params, rng)
            else:
                cur, lt = self.link(rng)
            links.append(cur)
            sampled.append(lt)
        tail_h_bars: tuple[int, ...] = ()
        tail_ground = tail = 0
        if len(sampled) < zeta:
            # Absorbing tail: C holds no element with a positive marginal, so
            # this link is span(∅) of M|C (its loops; the threshold (1-eps)*tau
            # is below 1) and every later link, built on that set, repeats it.
            tail_ground, tail = cur, self.loops & cur
            tail_h_bars = tuple(params.sample_h_bars(rng, zeta - len(sampled)))
            links += [tail] * len(tail_h_bars)
        links.append(0)
        trace = BuildTrace(
            params=params,
            zeta=zeta,
            conforming=self.conforming,
            sampled=tuple(sampled),
            tail_h_bars=tail_h_bars,
            tail_ground=tail_ground,
            tail=tail,
        )
        return SpanningChain(tuple(links)), trace

    def link(self, rng: np.random.Generator) -> tuple[int, LinkTrace]:
        """The first link C_1, on ``m`` with ``first_estimator``, drawn from
        ``rng``."""
        return _sample_link(self.m, self.x, self.params, rng, self.first_estimator)

    def sample_trials(
        self, trials: int, stream: RngStream
    ) -> list[tuple[SpanningChain, BuildTrace]]:
        """``sample`` on substream t of ``stream``, for t < trials, in trial
        order; the trials run on every CPU (``workers.map_trials``)."""
        return workers.map_trials(trials, stream, lambda t, rng: self.sample(rng))


def chain_plan(
    m: Matroid,
    x: np.ndarray,
    tau: float,
    eps: float,
    overrides: ParamOverrides | None = None,
) -> ChainPlan:
    """Run every input check once and fix what all chains of (M, x, tau,
    eps, overrides) share, the first link's estimator among them.

    No other code derives rho or the link parameters: the CLI, the
    selection trials and the verify checks read them from a plan.
    rho = max(rank(M), 3) stays fixed across all links; each link i is built
    on M restricted to C_{i-1} with threshold (1-eps)*tau.  The chain has
    zeta+2 links, with C_0 = N and C_{zeta+1} = ∅ forced.
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must lie in (0, 1], got {tau}")
    # LinkParams checks eps, so it is built before zeta divides by eps.
    params = LinkParams.from_formula(max(m.full_rank(), 3), (1.0 - eps) * tau, eps, overrides)
    zeta = math.ceil(math.log(params.rho / eps) / eps)
    conforming = True
    if overrides is not None and overrides.zeta is not None:
        zeta, conforming = overrides.zeta, False
        if zeta < 1:
            raise ValueError(f"zeta must be positive, got {zeta}")

    x = universe_marginals(m, x).copy()
    x.flags.writeable = False
    positive = mask_of(np.flatnonzero(x > 0.0).tolist())
    return ChainPlan(
        m=m,
        x=x,
        zeta=zeta,
        conforming=conforming and params.conforming,
        params=params,
        positive=positive,
        first_estimator=_SpanCountEstimator(m, x, params.q),
    )


def scheme_plan(
    m: Matroid,
    x: np.ndarray,
    lam: float,
    eps: float,
    overrides: ParamOverrides | None = None,
) -> ChainPlan:
    """The chain plan of the full scheme at thinning level lam, for marginals
    ``x`` in lam * P_M: ``chain_plan`` with tau = lam + 4*eps, once lam is
    checked to lie in (0, 1-4*eps]."""
    if not 0.0 < lam <= 1.0 - 4.0 * eps:
        raise ValueError(f"lambda must lie in (0, 1-4*eps], got {lam}")
    return chain_plan(m, x, lam + 4.0 * eps, eps, overrides)


def ocrs_chain(
    m: Matroid,
    x: np.ndarray,
    tau: float,
    eps: float,
    rng: np.random.Generator,
    overrides: ParamOverrides | None = None,
) -> tuple[SpanningChain, BuildTrace]:
    """Sample one spanning chain: ``chain_plan(m, x, tau, eps, overrides).sample(rng)``.

    The package builds its chains from a plan; this entry stays only
    because the benchmark's tracer looks it up by name.
    """
    return chain_plan(m, x, tau, eps, overrides).sample(rng)


def minimal_link_construction(m: Matroid, x: np.ndarray, tau: float) -> int:
    """Known-marginals baseline link: the exact counterpart of the sampled
    link, iterated from A_0 = ∅ until the set repeats,

        A_i = {e : Pr[e ∈ span(A_{i-1} ∪ R(x))] > tau}.

    Every realization spans A_{i-1}, so the sets grow to a fixed point.  The
    probabilities are exact (``span_probabilities``), so it is limited to
    small ground sets.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    x = universe_marginals(m, x)
    if m.n_universe > SPAN_TABLE_MAX:
        raise ValueError(f"the minimal link is exact and limited to n <= {SPAN_TABLE_MAX}")
    a = 0
    while True:
        new = mask_of(np.flatnonzero(span_probabilities(m, x, a) > tau).tolist())
        if new == a:
            return a
        a = new
