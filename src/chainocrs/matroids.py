"""Finite matroids as rank oracles over integer bitmasks.

A matroid lives on a *universe* of element ids ``[0, n_universe)`` and
exposes a ground set that is a subset of the universe (a proper subset for
minors).  The minors are restrictions: M|C is a lightweight view on ground
set C that delegates to the base oracle,

    rank(S) = rank_base(S),     span(S) = span_base(S) ∩ C,

and a restriction of a view is a view of the same base.  A chain builds
link i on M|C_{i-1}; the level minor (M|C_i)/C_{i+1} of selection and
freeness is never built, its tests condition on C_{i+1} in M instead.

All set arguments are bitmasks, see :mod:`chainocrs.bitset`.
"""

from __future__ import annotations

import itertools
import math
import threading
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .bitset import bits_of, full_mask, ids_of, iter_ids, mask_of, submasks

#: Largest universe for which dense rank/span tables are built: by the exact
#: 2^n enumerations and for dependent sample rows (``_build_row_tables``).
SPAN_TABLE_MAX = 20

#: Largest universe on which exhaustive axiom validation is allowed.
AXIOM_CHECK_MAX = 12

#: Values per block of sample rows (1 MiB of 64-bit draws): large enough that
#: per-block call overhead is small, small enough that a block never holds
#: a full q x rank matrix.  The estimator draws the rows of one iteration
#: in blocks of this many random values, shared by the workers that fill
#: them (k workers hold a k-th of it each), and whole iterations in batches
#: of a quarter of it; the graphic span kernel labels at most this many
#: vertices (and compares as many edge endpoints) at once.
ROW_BLOCK_VALUES = 1 << 17


class Matroid:
    """Base class: a rank oracle over a fixed ground set.

    Instances are immutable after construction and safe to share across
    concurrent workers; every operation is read-only.
    """

    def __init__(self, n_universe: int, ground_mask: int):
        self.n_universe = n_universe
        self.ground_mask = ground_mask
        self._rank_full: int | None = None
        self._tables: tuple[np.ndarray, np.ndarray] | None = None
        # Trial threads may reach the tables at once: one of them builds.
        self._tables_lock = threading.Lock()

    # -- oracle interface ------------------------------------------------

    def _rank_masked(self, mask: int) -> int:
        """Rank of ``mask``, guaranteed to be a subset of the ground set."""
        raise NotImplementedError

    def rank(self, mask: int) -> int:
        """Largest cardinality of an independent subset of ``mask``; read
        from the dense rank table once it is built, never building it."""
        self._check_ground(mask)
        tables = self._tables
        if tables is not None:
            return int(tables[0][mask])
        return self._rank_masked(mask)

    def _check_ground(self, mask: int) -> None:
        if mask & ~self.ground_mask:
            raise ValueError(
                f"set {ids_of(mask & ~self.ground_mask)} lies outside the ground set"
            )

    def is_independent(self, mask: int) -> bool:
        """True iff ``mask`` is independent, i.e. rank(mask) == |mask|."""
        return self.rank(mask) == mask.bit_count()

    def span(self, mask: int) -> int:
        """All elements whose addition to ``mask`` does not raise its rank;
        read from the dense span table once it is built, never building it."""
        self._check_ground(mask)
        tables = self._tables
        if tables is not None:
            return int(tables[1][mask])
        return self._span_masked(mask)

    def _span_masked(self, mask: int) -> int:
        """Span of ``mask``, a subset of the ground set: one rank query per
        element outside it."""
        r = self._rank_masked(mask)
        out = mask
        rest = self.ground_mask & ~mask
        for e in iter_ids(rest):
            if self._rank_masked(mask | (1 << e)) == r:
                out |= 1 << e
        return out

    def full_rank(self) -> int:
        """Rank of the whole ground set."""
        if self._rank_full is None:
            self._rank_full = self._rank_masked(self.ground_mask)
        return self._rank_full

    def greedy_basis(self) -> int:
        """The basis that keeps, in id order, each ground element that is
        independent of the elements kept before it; its size is stored as
        the full rank."""
        basis = 0
        for e in iter_ids(self.ground_mask):
            if self.is_independent(basis | (1 << e)):
                basis |= 1 << e
        self._rank_full = basis.bit_count()
        return basis

    # -- minors ----------------------------------------------------------

    def restrict(self, keep_mask: int) -> "Matroid":
        """Matroid induced on ``keep_mask`` (same ranks on its subsets)."""
        if keep_mask & ~self.ground_mask:
            raise ValueError("restriction set outside the ground set")
        return MinorMatroid(self, keep_mask)

    # -- fast-path hooks ---------------------------------------------------

    def span_counter(self, cols: np.ndarray):
        """Batched span counts over groups of sample rows, as a callable.

        ``count(rows, a_mask)`` takes a bool array of shape (..., q, s) whose
        last axis flags element ``cols[j]`` in column j, and returns int64
        counts of shape (..., n): per group of q rows and universe id e, the
        number of rows r with e ∈ span(A ∪ S_r), S_r the set row r flags;
        ids off the ground set count 0.  A (q, s) matrix gives the (n,)
        counts of its rows, and (g, q, s) gives one count vector per group.
        Columns of A's elements are ignored.  ``count(rows, a_mask, bar)``
        computes only what decides ``count > bar``: its counts are exact
        wherever they can exceed the bar, and elsewhere at most the bar.

        One counter serves every family.  Let D be ``cols`` minus A.  When D
        is independent in M/A, a row spans e iff it holds the fundamental
        circuit C_e = {d ∈ D : e ∉ span(A ∪ D - d)} of every e ∈ span(A ∪ D)
        (C_e = ∅ on span(A), {e} on D), so a count is column sums, one
        matmul of the rows against the distinct larger C_e, and q
        (``_circuit_plan``).  Otherwise the family's kernel bound to A
        (``_span_kernel``) counts the rows exactly, whatever the bar.  Per
        distinct A the counter builds that kernel once, hands it to the
        circuit plan, and keeps the plan, or, when D is dependent, the kernel,
        bound again to read the dense tables if ``_build_row_tables`` builds them.
        """
        cols = np.asarray(cols, dtype=np.int64)
        plans: dict = {}
        building = threading.Lock()

        def count(rows: np.ndarray, a_mask: int, bar: float | None = None) -> np.ndarray:
            plan = plans.get(a_mask)
            if plan is None:
                # Workers may count under a new A at once: one builds its plan.
                with building:
                    plan = plans.get(a_mask)
                    if plan is None:
                        kernel = self._span_kernel(cols, a_mask)
                        plan = self._circuit_plan(cols, a_mask, kernel) or (
                            self._span_kernel(cols, a_mask) if self._build_row_tables() else kernel
                        )
                        plans[a_mask] = plan
            return plan(rows, bar)

        return count

    def _circuit_plan(self, cols: np.ndarray, a_mask: int, kernel):
        """``(rows, bar) -> counts`` under A from the fundamental circuits of
        the columns left after A, or None when they are dependent in M/A.

        One call of ``kernel``, the family's kernel bound to A, on |D| + 1
        one-row groups, the rows D - d for every d ∈ D and then D, gives
        span(A ∪ D - d) and span(A ∪ D).  It also decides D: D is
        independent in M/A iff no d ∈ D is in span(A ∪ D - d).  Counts read
        only D's columns, so A's are ignored.

        A count then gathers into a row of int counts each element's column
        sum where |C_e| = 1, the rows that hold C_e where |C_e| ≥ 2, and q
        on span(A).  With a ``bar`` the plan counts the rows that hold a
        larger circuit only in the groups where it can matter: such an e is
        spanned by at most the smallest column sum over C_e, so in a group
        where each larger circuit has a column that sums to at most the bar
        no such e is above it.  Such a group counts 0 for them; every other
        count is exact.
        """
        n, s = self.n_universe, len(cols)
        d_pos = np.flatnonzero(~bits_of(a_mask, n)[cols])
        rows = np.zeros((len(d_pos) + 1, 1, s), dtype=bool)
        rows[:, 0, d_pos] = ~np.eye(len(d_pos) + 1, len(d_pos), dtype=bool)
        spans = kernel(rows) > 0
        # in_circuit[i, e]: d_i ∈ C_e, that is e ∉ span(A ∪ D - d_i).
        in_circuit, spanned = ~spans[:-1], spans[-1]
        if not in_circuit[np.arange(len(d_pos)), cols[d_pos]].all():
            return None
        sizes = in_circuit.sum(axis=0)
        # Elements with the same C_e of two or more share one circuit column.
        multi = np.flatnonzero(spanned & (sizes > 1))
        group = first = multi
        if len(multi):
            keys = np.packbits(in_circuit[:, multi], axis=0).T.copy()
            _, first, group = np.unique(
                keys.view(f"V{keys.shape[1]}").ravel(), return_index=True, return_inverse=True
            )
        circuits = in_circuit[:, multi[first]]
        g = circuits.shape[1]
        members = np.zeros((s, g), dtype=np.float32)
        members[d_pos] = circuits
        # A row holds C_e iff its matmul entry reaches |C_e|, never above.
        misses = 1 - circuits.sum(axis=0, dtype=np.float32)
        single = np.flatnonzero(spanned & (sizes == 1))
        single_src = d_pos[in_circuit[:, single].argmax(axis=0)] if len(single) else single
        in_span_a = np.flatnonzero(spanned & (sizes == 0))
        group = group.reshape(-1)

        def circuit_counts(flags: np.ndarray, ones: np.ndarray) -> np.ndarray:
            held = flags @ members
            held += misses
            return (ones @ np.maximum(held, 0, out=held))[..., group]

        # Column sums are one matmul with a ones vector, kept at the longest
        # needed; sums of 0/1 values in float32 are exact below 2^24 rows.
        kept = np.ones(0, dtype=np.float32)

        def count(rows: np.ndarray, bar: float | None) -> np.ndarray:
            nonlocal kept
            q = rows.shape[-2]
            ones = kept[:q]
            if len(ones) < q:
                kept = ones = np.ones(q, dtype=np.float32 if q < 1 << 24 else np.float64)
            flags = rows.astype(ones.dtype)
            sums = ones @ flags
            counts = np.zeros(sums.shape[:-1] + (n,), dtype=np.int64)
            counts[..., single] = sums.take(single_src, axis=-1)
            if g and bar is None:
                counts[..., multi] = circuit_counts(flags, ones)
            elif g and sums.max(initial=0) > math.floor(bar):
                # A circuit with a column summing to at most the bar counts
                # at most the bar.  Where every circuit has one, the group
                # keeps 0 for them, which is at most the bar.  Sums are
                # integers, so floor(bar) decides them and is exact here.
                sums = sums.reshape(-1, s)
                low = (sums <= math.floor(bar)).astype(flags.dtype) @ members
                counted = np.flatnonzero((low == 0).any(axis=1))
                if len(counted):
                    groups = flags.reshape(-1, q, s)[counted]
                    counts.reshape(-1, n)[counted[:, None], multi] = circuit_counts(groups, ones)
            if len(in_span_a):
                counts[..., in_span_a] = q
            return counts

        return count

    def _span_kernel(self, cols: np.ndarray, a_mask: int):
        """The family's ``count(rows, bar=None)`` bound to A = ``a_mask`` (see
        ``span_counter``), exact at any bar.  The dense span table does the
        lookup if built (never here), else each row costs one ``span`` call.
        Families override this with a kernel for all rows at once: the
        cardinality rule (uniform) and component labels (graphic, no table).
        """
        n = self.n_universe
        if self._tables is not None:
            span_t = self._tables[1]
            weights = np.int64(1) << cols
            ids = np.arange(n, dtype=np.int64)
            a = np.int64(a_mask)

            def count(rows: np.ndarray, bar: float | None = None) -> np.ndarray:
                spans = span_t[rows @ weights | a]
                return ((spans[..., None] >> ids) & 1).sum(axis=-2)

            return count
        pow2 = [1 << int(e) for e in cols]

        def count(rows: np.ndarray, bar: float | None = None) -> np.ndarray:
            groups = rows.reshape((math.prod(rows.shape[:-2]),) + rows.shape[-2:])
            out = np.zeros((len(groups), n), dtype=np.int64)
            for group, group_rows in zip(out, groups):
                counts = [0] * n
                for row in group_rows:
                    s_mask = a_mask
                    for j in np.flatnonzero(row).tolist():
                        s_mask |= pow2[j]
                    for e in iter_ids(self.span(s_mask)):
                        counts[e] += 1
                group[:] = counts
            return out.reshape(rows.shape[:-2] + (n,))

        return count

    def _build_row_tables(self) -> bool:
        """Build the dense tables if dependent rows are counted from them; True if so."""
        if self.n_universe <= SPAN_TABLE_MAX:
            self._dense_tables()
        return self._tables is not None

    def span_lookup(self):
        """Vectorized span oracle, or None when the universe is too large.

        Returns a callable mapping an ``np.ndarray`` of masks (int64) to the
        array of their span masks.  Entries are interpreted modulo the ground
        set: ``lookup(m) == span(m & ground_mask)``.
        """
        if self.n_universe > SPAN_TABLE_MAX:
            return None
        span_t = self._dense_tables()[1]

        def lookup(masks: np.ndarray) -> np.ndarray:
            return span_t[masks]

        return lookup

    def rank_table(self) -> np.ndarray:
        """Dense table rank(m & ground) for every universe mask m (n <= 20)."""
        if self.n_universe > SPAN_TABLE_MAX:
            raise ValueError(
                f"dense tables need n <= {SPAN_TABLE_MAX}, got {self.n_universe}"
            )
        return self._dense_tables()[0]

    def _dense_tables(self) -> tuple[np.ndarray, np.ndarray]:
        with self._tables_lock:
            if self._tables is None:
                n = self.n_universe
                g = self.ground_mask
                size = 1 << n
                rank_t = np.zeros(size, dtype=np.int64)
                for m in range(size):
                    rank_t[m] = self._rank_masked(m & g)
                masks = np.arange(size, dtype=np.int64)
                span_t = masks & g
                for e in iter_ids(g):
                    bit = np.int64(1 << e)
                    spanned = rank_t[masks | bit] == rank_t
                    span_t = np.where(spanned, span_t | bit, span_t)
                self._tables = (rank_t, span_t)
        return self._tables


class UniformMatroid(Matroid):
    """U_{k,n}: every set of at most k elements is independent."""

    def __init__(self, k: int, n: int):
        if not 0 <= k <= n:
            raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
        super().__init__(n, full_mask(n))
        self.k = k

    def _rank_masked(self, mask: int) -> int:
        return min(mask.bit_count(), self.k)

    def _span_masked(self, mask: int) -> int:
        return self.ground_mask if mask.bit_count() >= self.k else mask

    def _span_kernel(self, cols: np.ndarray, a_mask: int):
        # A row whose elements outside A bring |A ∪ S_r| to k spans
        # everything; any other row spans exactly A ∪ S_r.
        in_a = bits_of(a_mask, self.n_universe)
        # Row sums over the columns outside A, exact in float32.
        outside = (~in_a[cols]).astype(np.float32)
        need = self.k - a_mask.bit_count()

        def count(rows: np.ndarray, bar: float | None = None) -> np.ndarray:
            flags = rows.view(np.uint8)
            full = rows @ outside >= need
            n_full = np.count_nonzero(full, axis=-1)
            counts = np.empty(rows.shape[:-2] + (self.n_universe,), dtype=np.int64)
            counts[...] = n_full[..., None]
            active = np.add.reduce(flags, axis=-2, dtype=np.int64)
            if n_full.any():
                # Full rows are already counted in every column.
                active -= np.add.reduce(flags, axis=-2, dtype=np.int64, where=full[..., None])
            counts[..., cols] += active
            counts[..., in_a] = rows.shape[-2]
            return counts

        return count

    def _build_row_tables(self) -> bool:
        return False

    def __repr__(self):
        return f"UniformMatroid(k={self.k}, n={self.n_universe})"


class PartitionMatroid(Matroid):
    """At most ``capacities[j]`` elements from each block of a partition."""

    def __init__(self, blocks: list[Iterable], capacities: list[int]):
        block_masks = [mask_of(b) for b in blocks]
        if len(block_masks) != len(capacities):
            raise ValueError("one capacity per block required")
        union = 0
        for bm in block_masks:
            if bm & union:
                raise ValueError("blocks must be disjoint")
            union |= bm
        if any(c < 0 for c in capacities):
            raise ValueError("capacities must be non-negative")
        super().__init__(union.bit_length(), union)
        self.block_masks = block_masks
        self.capacities = list(capacities)

    def _rank_masked(self, mask: int) -> int:
        return sum(
            min((mask & bm).bit_count(), c)
            for bm, c in zip(self.block_masks, self.capacities)
        )

    def __repr__(self):
        return f"PartitionMatroid(blocks={[ids_of(b) for b in self.block_masks]}, capacities={self.capacities})"


class GraphicMatroid(Matroid):
    """Forests of a multigraph; element e is the edge ``edges[e]``.

    A single rank or span query runs one union-find over the set's edges;
    an edge outside the set is spanned iff its ends share a root.  Span counts
    over sample rows (``span_counter``) whose drawn edges are independent
    after A, as those of basis-indicator marginals stay, come from their
    fundamental circuits.  Other rows use the dense table once built, else
    they label the connected components of every row's graph S_r,
    contracted by A, at once in numpy, and edge (u, v) is spanned in a row
    iff the A-components of u and v share a label there.
    """

    def __init__(self, n_vertices: int, edges: list[tuple[int, int]]):
        if any(not (0 <= u < n_vertices and 0 <= v < n_vertices) for u, v in edges):
            raise ValueError("edge endpoint outside vertex range")
        super().__init__(len(edges), full_mask(len(edges)))
        self.n_vertices = n_vertices
        self.edges = [(int(u), int(v)) for u, v in edges]
        self._ends = np.array(self.edges, dtype=np.int64).reshape(-1, 2).T

    def _forest(self, mask: int):
        """Union-find over the edges of ``mask`` in id order: its ``find``
        and the mask of the edges that joined two components."""
        parent = list(range(self.n_vertices))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        forest = 0
        for e in iter_ids(mask):
            u, v = self.edges[e]
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                forest |= 1 << e
        return find, forest

    def _rank_masked(self, mask: int) -> int:
        return self._forest(mask)[1].bit_count()

    def greedy_basis(self) -> int:
        # An edge is independent of the edges kept before it iff it joins
        # two of their components.
        basis = self._forest(self.ground_mask)[1]
        self._rank_full = basis.bit_count()
        return basis

    def _span_masked(self, mask: int) -> int:
        find = self._forest(mask)[0]
        out = mask
        for e in iter_ids(self.ground_mask & ~mask):
            u, v = self.edges[e]
            if find(u) == find(v):
                out |= 1 << e
        return out

    def _span_kernel(self, cols: np.ndarray, a_mask: int):
        if self._tables is not None:
            return super()._span_kernel(cols, a_mask)
        nv, n = self.n_vertices, self.n_universe
        tail, head = self._ends
        max_chunk = max(1, ROW_BLOCK_VALUES // max(nv, n))
        # Every row's graph is contracted by A: each vertex stands for the
        # least vertex of its component in A, so the rows' labels start
        # apart and the only links are edges, which every round of the
        # labelling sees again.  An edge of A joins one component to itself.
        a_ids = bits_of(a_mask, n)
        root = _component_labels(nv, tail[a_ids], head[a_ids])
        row_tail, row_head = root[tail[cols]], root[head[cols]]
        edge_tail, edge_head = root[tail], root[head]

        def count(rows: np.ndarray, bar: float | None = None) -> np.ndarray:
            q = rows.shape[-2]
            flat = rows.reshape(math.prod(rows.shape[:-1]), rows.shape[-1])
            counts = np.zeros((math.prod(rows.shape[:-2]), n), dtype=np.int64)
            # Equal chunks: a short remainder chunk would cost nearly as
            # many labelling rounds as a full one.
            parts = -(-len(flat) // max_chunk)
            chunk = -(-len(flat) // parts) if parts else 1
            for start in range(0, len(flat), chunk):
                block = flat[start:start + chunk]
                b = len(block)
                # Vertex w of row r sits at w*b + r, so the ends of an edge
                # in all rows of the chunk are two contiguous runs.
                r, j = np.divmod(np.flatnonzero(block), block.shape[1])
                labels = _component_labels(
                    nv * b, row_tail[j] * b + r, row_head[j] * b + r
                ).reshape(nv, b)
                spanned = labels.take(edge_tail, axis=0) == labels.take(edge_head, axis=0)
                # Sum the rows of each group; a chunk may start or end
                # inside a group.
                first = start // q
                cuts = np.arange(first * q, start + b, q)
                cuts[0] = start
                counts[first:first + len(cuts)] += np.add.reduceat(
                    spanned, cuts - start, axis=1, dtype=np.int64
                ).T
            return counts.reshape(rows.shape[:-2] + (n,))

        return count

    def __repr__(self):
        return f"GraphicMatroid(n_vertices={self.n_vertices}, edges={self.edges})"


def _component_labels(size: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Connected components of the edges (u[i], v[i]) on vertices 0..size-1.

    Returns a parent array that labels each component by its least vertex.
    Every vertex starts on its own label.  Each round hooks the label of
    every edge end at the smaller label of the two ends (``np.minimum.at``),
    then jumps every pointer once; pointers only move to a smaller vertex of
    the same component.  Once both ends of every edge share a label, jumping
    until no pointer moves finishes the labelling.  Every link between two
    vertices is an edge that each round sees again: a pointer given from
    outside, not backed by an edge, could be dropped by a later hook.
    Self-loops, parallel edges and isolated vertices need no special case.
    """
    labels = np.arange(size, dtype=np.int32)
    while True:
        lu, lv = labels.take(u), labels.take(v)
        if np.array_equal(lu, lv):
            break
        low = np.minimum(lu, lv)
        np.minimum.at(labels, lu, low)
        np.minimum.at(labels, lv, low)
        labels = labels.take(labels)
    while True:
        jumped = labels.take(labels)
        if np.array_equal(jumped, labels):
            return labels
        labels = jumped


class LaminarMatroid(Matroid):
    """|S ∩ F| <= capacity(F) for every set F of a laminar family."""

    def __init__(self, n: int, sets: list[Iterable], capacities: list[int]):
        family = [mask_of(s) for s in sets]
        if len(family) != len(capacities):
            raise ValueError("one capacity per family set required")
        ground = full_mask(n)
        for fm in family:
            if fm & ~ground:
                raise ValueError("family set outside the ground set")
        for a, b in itertools.combinations(family, 2):
            inter = a & b
            if inter and inter != a and inter != b:
                raise ValueError("family is not laminar")
        if any(c < 0 for c in capacities):
            raise ValueError("capacities must be non-negative")
        super().__init__(n, ground)
        # The whole ground set is implicitly unconstrained unless listed.
        self.family = family
        self.capacities = list(capacities)

    def is_independent(self, mask: int) -> bool:
        if mask & ~self.ground_mask:
            raise ValueError("set outside the ground set")
        return all(
            (mask & fm).bit_count() <= c
            for fm, c in zip(self.family, self.capacities)
        )

    def _rank_masked(self, mask: int) -> int:
        # Greedy augmentation yields a basis of `mask` in any matroid.
        counts = [0] * len(self.family)
        r = 0
        for e in iter_ids(mask):
            bit = 1 << e
            touching = [j for j, fm in enumerate(self.family) if fm & bit]
            if all(counts[j] < self.capacities[j] for j in touching):
                for j in touching:
                    counts[j] += 1
                r += 1
        return r

    def __repr__(self):
        return (
            f"LaminarMatroid(n={self.n_universe}, "
            f"sets={[ids_of(f) for f in self.family]}, capacities={self.capacities})"
        )


class ExplicitMatroid(Matroid):
    """Matroid given by the full list of its independent sets.

    Construction validates the matroid axioms exhaustively; ground sets
    larger than ``AXIOM_CHECK_MAX`` are rejected outright, since an
    unvalidated explicit family is a corpus hazard.  ``validate=False``
    skips the check so that deliberately broken families can be fed to
    :func:`validate_axioms` in tests.
    """

    def __init__(self, n: int, independent_sets: list[Iterable], validate: bool = True):
        if n > AXIOM_CHECK_MAX:
            raise ValueError(
                f"explicit matroids are limited to n <= {AXIOM_CHECK_MAX}, got {n}"
            )
        super().__init__(n, full_mask(n))
        self.independent = sorted({mask_of(s) for s in independent_sets})
        if not self.independent:
            raise ValueError("independent-set family must be nonempty")
        if validate:
            report = validate_axioms(self)
            if not report.passed:
                raise ValueError(f"not a matroid: {'; '.join(report.failures)}")

    def _rank_masked(self, mask: int) -> int:
        return _family_rank(mask, self.independent)

    def is_independent(self, mask: int) -> bool:
        if mask & ~self.ground_mask:
            raise ValueError("set outside the ground set")
        return mask in self.independent

    def __repr__(self):
        return f"ExplicitMatroid(n={self.n_universe}, {len(self.independent)} independent sets)"


class MinorMatroid(Matroid):
    """Restriction view M|C over a base matroid M: ground set C, the base's
    ranks, and spans cut to C."""

    def __init__(self, base: Matroid, restricted_to: int):
        super().__init__(base.n_universe, restricted_to)
        self.base = base

    def _rank_masked(self, mask: int) -> int:
        return self.base._rank_masked(mask)

    def restrict(self, keep_mask: int) -> "Matroid":
        if keep_mask & ~self.ground_mask:
            raise ValueError("restriction set outside the ground set")
        return MinorMatroid(self.base, keep_mask)

    def span(self, mask: int) -> int:
        # span_{M|C}(S) = span_M(S) ∩ C
        if mask & ~self.ground_mask:
            raise ValueError("set outside the ground set")
        return self.base.span(mask) & self.ground_mask

    def _span_kernel(self, cols: np.ndarray, a_mask: int):
        # Same identity as span: count in the base, then zero the columns
        # off this minor's ground set.
        base_count = self.base._span_kernel(cols, a_mask)
        off = np.flatnonzero(~bits_of(self.ground_mask, self.n_universe))

        def count(rows: np.ndarray, bar: float | None = None) -> np.ndarray:
            counts = base_count(rows)
            counts[..., off] = 0
            return counts

        return count

    def _build_row_tables(self) -> bool:
        return self.base._build_row_tables()

    def __repr__(self):
        return f"MinorMatroid({self.base!r}, restricted_to={ids_of(self.ground_mask)})"


# ---------------------------------------------------------------------------
# Axiom validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of an exhaustive matroid-axiom check."""

    n: int
    independent_count: int
    downward_closed: bool
    exchange: bool
    rank_monotone: bool
    rank_cardinality_bounded: bool
    rank_submodular: bool
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def validate_axioms(m: Matroid) -> ValidationReport:
    """Exhaustively check the independence axioms and rank properties.

    Refuses ground sets larger than ``AXIOM_CHECK_MAX`` rather than
    silently truncating the check.
    """
    n = m.n_universe
    if n > AXIOM_CHECK_MAX:
        raise ValueError(f"axiom validation is limited to n <= {AXIOM_CHECK_MAX}, got {n}")
    failures: list[str] = []
    g = m.ground_mask

    independents = [s for s in submasks(g) if m.is_independent(s)]
    indep_set = set(independents)
    if 0 not in indep_set:
        failures.append("empty set is not independent")

    down_ok = True
    for s in independents:
        for e in iter_ids(s):
            if s ^ (1 << e) not in indep_set:
                down_ok = False
                failures.append(
                    f"downward closure: {ids_of(s)} independent but {ids_of(s ^ (1 << e))} is not"
                )
                break
        if not down_ok:
            break

    exch_ok = True
    by_size: dict[int, list[int]] = {}
    for s in independents:
        by_size.setdefault(s.bit_count(), []).append(s)
    for size, smaller in sorted(by_size.items()):
        larger = by_size.get(size + 1, [])
        for i_set in smaller:
            for j_set in larger:
                extra = j_set & ~i_set
                if not any(i_set | (1 << e) in indep_set for e in iter_ids(extra)):
                    exch_ok = False
                    failures.append(
                        f"exchange: no augmenting element from {ids_of(j_set)} into {ids_of(i_set)}"
                    )
                    break
            if not exch_ok:
                break
        if not exch_ok:
            break

    # Rank properties of the induced rank function, vectorized over all masks.
    size = 1 << n
    masks = np.arange(size, dtype=np.int64)
    rank_t = np.zeros(size, dtype=np.int64)
    for s in range(size):
        rank_t[s] = _family_rank(s & g, independents)
    card = np.array([int(s).bit_count() for s in range(size)], dtype=np.int64)

    bounded = bool(np.all(rank_t <= card))
    if not bounded:
        failures.append("rank exceeds cardinality")
    monotone = True
    for e in range(n):
        bit = np.int64(1 << e)
        if not np.all(rank_t[masks | bit] >= rank_t):
            monotone = False
            failures.append("rank is not monotone")
            break
    # Submodularity in its local form r(S+e) + r(S+f) >= r(S+e+f) + r(S)
    # over S avoiding e and f, which is equivalent and needs O(2^n) memory.
    submodular = True
    for e, f in itertools.combinations(range(n), 2):
        be, bf = np.int64(1 << e), np.int64(1 << f)
        s = masks[(masks & (be | bf)) == 0]
        if np.any(rank_t[s | be] + rank_t[s | bf] < rank_t[s | be | bf] + rank_t[s]):
            submodular = False
            failures.append("rank is not submodular")
            break

    return ValidationReport(
        n=n,
        independent_count=len(independents),
        downward_closed=down_ok,
        exchange=exch_ok,
        rank_monotone=monotone,
        rank_cardinality_bounded=bounded,
        rank_submodular=submodular,
        failures=failures,
    )


def _family_rank(mask: int, independents: list[int]) -> int:
    return max((i.bit_count() for i in independents if not i & ~mask), default=0)


# ---------------------------------------------------------------------------
# JSON descriptors
# ---------------------------------------------------------------------------

# Field names follow schemas/matroid_descriptor.schema.json.


def matroid_from_descriptor(desc: dict) -> Matroid:
    """Build a matroid from its JSON descriptor (see the schema file)."""
    try:
        family = desc["family"]
    except (TypeError, KeyError):
        raise ValueError("matroid descriptor must be an object with a 'family' field")
    if family == "uniform":
        return UniformMatroid(int(desc["k"]), int(desc["n"]))
    if family == "partition":
        return PartitionMatroid(desc["blocks"], [int(c) for c in desc["capacities"]])
    if family == "graphic":
        return GraphicMatroid(
            int(desc["n_vertices"]), [tuple(e) for e in desc["edges"]]
        )
    if family == "laminar":
        return LaminarMatroid(
            int(desc["n"]), desc["sets"], [int(c) for c in desc["capacities"]]
        )
    if family == "explicit":
        return ExplicitMatroid(int(desc["n"]), desc["independent"])
    raise ValueError(f"unknown matroid family {family!r}")
