import dataclasses
import itertools
import math
import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainocrs import (
    GraphicMatroid,
    LaminarMatroid,
    LinkParams,
    LinkTrace,
    ParamOverrides,
    PartitionMatroid,
    RngStream,
    SpanningChain,
    UniformMatroid,
    as_marginals,
    chain_plan,
    minimal_link_construction,
    ocrs_chain,
    selectability_experiment,
    single_ocrs_link,
)
from chainocrs import chains, cli, matroids, workers
from chainocrs.bitset import full_mask, ids_of, iter_ids, mask_of
from chainocrs.chains import _SpanCountEstimator
from chainocrs.matroids import Matroid, MinorMatroid
from chainocrs.sampling import (
    RowLaw,
    draw_rows,
    realization_weights,
    skip_doubles,
    span_probabilities,
)
from chainocrs.stats import bonferroni_z
from chainocrs.verify import verify_in_link_loss, verify_progress
from conftest import chain_freeness, explicit_corpus, random_explicit_matroid, small_corpus

FAST = ParamOverrides(q=150, eta=8, zeta=6)


# -- cutoff law ------------------------------------------------------------


def _law(eps, rho, eta=None):
    """The cutoff law of the link parameters at (eps, rho), eta overridable."""
    return LinkParams.from_formula(rho, 0.5, eps, ParamOverrides(eta=eta))


def test_truncation_known_values():
    td = _law(0.05, 3)
    assert td.eta == 188
    assert td.pmf.sum() == pytest.approx(1.0, abs=1e-12)
    assert td.pmf[0] <= 0.05**3 / math.log(3)
    assert td.pmf[0] == pytest.approx(1.05 ** (-187))


def test_truncation_recurrence():
    td = _law(0.04, 10)
    cdf = np.cumsum(td.pmf)
    for h in range(2, td.eta + 1):
        assert cdf[h - 1] == pytest.approx(1.04 * cdf[h - 2], abs=1e-12)
        assert td.pmf[h - 1] == pytest.approx(0.04 * cdf[h - 2], abs=1e-12)


def test_truncation_domain_errors():
    with pytest.raises(ValueError):
        _law(0.05, 2)
    with pytest.raises(ValueError):
        _law(0.0, 3)
    with pytest.raises(ValueError):
        _law(1.0, 3)


def test_truncation_sampling_matches_pmf():
    td = _law(0.05, 3, eta=12)
    rng = RngStream(3).generator()
    trials = 50_000
    counts = np.zeros(td.eta)
    for _ in range(trials):
        counts[td.sample_h_bar(rng) - 1] += 1
    freq = counts / trials
    sigma = np.sqrt(td.pmf * (1 - td.pmf) / trials)
    assert np.all(np.abs(freq - td.pmf) <= 4 * sigma + 1e-9)


@pytest.mark.parametrize("eta", [None, 12])
def test_cutoff_law_matches_the_closed_form_loop_bytewise(eta):
    # Criterion 2's (eps, rho) grid: the law is the closed form, one power
    # per h, and its cumulative sum, to the last bit, since one ulp of the
    # cdf can move a drawn cutoff.
    for eps in (0.05, 0.04, 0.02):
        for rho in (3, 10, 100):
            td = _law(eps, rho, eta)
            pmf = [(1.0 + eps) ** (-(td.eta - 1))]
            pmf += [eps * (1.0 + eps) ** (h - 1 - td.eta) for h in range(2, td.eta + 1)]
            assert td.pmf.tobytes() == np.array(pmf).tobytes()
            assert td.cdf.tobytes() == np.cumsum(pmf).tobytes()


def test_cutoff_law_is_read_only():
    # Every LinkParams with this (eps, eta) shares the cached arrays.
    td = _law(0.05, 3, eta=12)
    for arr in (td.pmf, td.cdf):
        with pytest.raises(ValueError):
            arr[0] = 1.0


# -- link parameters -------------------------------------------------------


def test_link_params_formula_values():
    p = LinkParams.from_formula(3, (1 - 0.05) * 0.7, 0.05)
    assert p.q == math.ceil(6 / (0.665 * 0.05**2) * math.log(math.log(3) / 0.05))
    assert p.eta == 188
    # A plan without overrides, or with none set, is conforming.
    u24 = UniformMatroid(2, 4)
    assert chain_plan(u24, np.zeros(4), 0.7, 0.05).conforming
    assert chain_plan(u24, np.zeros(4), 0.7, 0.05, ParamOverrides()).conforming


def test_link_params_overrides_flag():
    p = LinkParams.from_formula(3, 0.5, 0.05, ParamOverrides(q=10))
    assert p.q == 10
    # Overriding any one of q, eta and zeta makes a plan non-conforming.
    for overrides in (ParamOverrides(q=10), ParamOverrides(eta=5), ParamOverrides(zeta=2)):
        assert not chain_plan(UniformMatroid(2, 4), np.zeros(4), 0.7, 0.05, overrides).conforming
    with pytest.raises(ValueError):
        LinkParams.from_formula(2, 0.5, 0.05)
    with pytest.raises(ValueError):
        LinkParams.from_formula(3, 1.5, 0.05)
    with pytest.raises(ValueError):
        LinkParams(rho=3, threshold=0.5, eps=0.2, q=5, eta=5)
    # eps is checked before q divides by it or takes its logarithm.
    for eps in (0.0, -0.1):
        with pytest.raises(ValueError) as exc:
            LinkParams.from_formula(3, 0.5, eps)
        assert str(exc.value) == f"eps must lie in (0, 1/20], got {eps}"


# -- single link ------------------------------------------------------------


def test_single_link_all_zero_marginals(k4):
    params = LinkParams.from_formula(3, 0.5, 0.05, FAST)
    a, trace = single_ocrs_link(k4, np.zeros(6), params, RngStream(1).generator())
    assert a == 0
    assert all(s == 0 for s in trace.a_sets)
    assert trace.draws == trace.h_bar * params.q


def test_single_link_certain_span(u12):
    params = LinkParams.from_formula(3, 0.5, 0.05, FAST)
    a, trace = single_ocrs_link(u12, as_marginals([1.0, 1.0]), params, RngStream(2).generator())
    assert a == 0b11
    assert trace.a_sets[0] == 0b11


def test_single_link_traces_monotone(u24, k4):
    params = LinkParams.from_formula(3, 0.4, 0.05, ParamOverrides(q=60, eta=10))
    for m, x in [(u24, [0.4] * 4), (k4, [0.5, 0.5, 0.5, 0.2, 0.2, 0.2])]:
        for t in range(20):
            _, trace = single_ocrs_link(m, as_marginals(x), params, RngStream(9, t).generator())
            for prev, cur in zip(trace.a_sets, trace.a_sets[1:]):
                assert prev & ~cur == 0


def test_single_link_deterministic(u24):
    params = LinkParams.from_formula(3, 0.5, 0.05, FAST)
    x = as_marginals([0.3] * 4)
    a1, t1 = single_ocrs_link(u24, x, params, RngStream(11, 5).generator())
    a2, t2 = single_ocrs_link(u24, x, params, RngStream(11, 5).generator())
    assert a1 == a2 and t1 == t2


def test_estimator_paths_agree_in_distribution(u24):
    # Same A_1 law whether counts come from the multinomial or from sample
    # rows counted by the matroid's span counter.
    x = as_marginals([0.3] * 4)
    q, trials, thr = 40, 3000, 0.5
    hist = {}
    for path in ("multinomial", "rows"):
        counts = np.zeros(16)
        for t in range(trials):
            rng = RngStream(123, t).generator()
            est = _SpanCountEstimator(u24, x, q)
            assert est.path == "multinomial"
            if path == "rows":
                est.path, est.count = "rows", u24.span_counter(est.sup_ids)
            counts[est.link_sets(1, thr, rng)[0]] += 1
        hist[path] = counts / trials
    base = hist["multinomial"]
    for mask in range(16):
        p = base[mask]
        sigma = math.sqrt(max(p * (1 - p), 1e-6) * 2 / trials)
        assert abs(hist["rows"][mask] - p) <= 4 * sigma


def _span_reference(m, cols, rows, a_mask):
    """Per-universe-id span counts from one ``m.span`` call per row."""
    counts = np.zeros(m.n_universe, dtype=np.int64)
    for row in rows:
        for e in iter_ids(m.span(a_mask | mask_of(cols[row].tolist()))):
            counts[e] += 1
    return counts


def _multigraph():
    """A multigraph on 30 vertices, 25-29 isolated, with self-loops (ids 0-2)
    and parallel edges (ids 3-6), n = 45."""
    g_rng = np.random.default_rng(17)
    return GraphicMatroid(
        30,
        [(4, 4), (9, 9), (20, 20), (1, 2), (2, 1), (1, 2), (7, 8)]
        + [tuple(int(v) for v in g_rng.integers(25, size=2)) for _ in range(38)],
    )


def _laminar():
    return LaminarMatroid(24, [list(range(24)), list(range(10)), [0, 1, 2]], [9, 4, 1])


def test_span_counter_kernels_match_span_reference(monkeypatch):
    k5 = GraphicMatroid(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    # Theta graph: edge (0, 1) plus 19 two-edge 0-1 paths, n = 39.
    theta = GraphicMatroid(21, [(0, 1)] + [e for w in range(2, 21) for e in ((0, w), (w, 1))])
    multi = _multigraph()
    u = UniformMatroid(6, 30)
    lam = _laminar()
    keep = full_mask(24) & ~0b111
    cases = [
        (u, "uniform"),
        (u.restrict(full_mask(30) & ~0b111), "uniform"),
        (k5, "table"),
        (k5.restrict(0b1111110), "table"),
        (theta, "labels"),
        (theta.restrict(full_mask(39) & ~0b110), "labels"),
        (multi, "labels"),
        (multi.restrict(mask_of(range(0, 45, 3)) | 0b11110), "labels"),
        (lam, "span"),
        (lam.restrict(keep).restrict(keep & ~mask_of([5, 17])), "span"),
    ]
    calls = []
    real_span = Matroid.span
    monkeypatch.setattr(Matroid, "span", lambda self, s: calls.append(s) or real_span(self, s))
    labellings = []
    real_labels = matroids._component_labels
    monkeypatch.setattr(
        matroids, "_component_labels", lambda *a: labellings.append(1) or real_labels(*a)
    )
    # Small label chunks, so 41 rows span several of them, and chunks of 6
    # or 7 rows cut across groups of 13.
    monkeypatch.setattr(matroids, "ROW_BLOCK_VALUES", 300)
    rng = np.random.default_rng(5)
    group_rng = np.random.default_rng(6)
    a_flagged = fallbacks = 0
    minor_kernels_with_a = set()
    for m, kernel in cases:
        assert (m.span_lookup() is not None) == (kernel == "table")
        ground = ids_of(m.ground_mask)
        for t in range(6):
            a_mask = mask_of(e for e in ground if rng.random() < 0.1 * t)
            # The columns hold elements of A too, which rows flag at random
            # and every kernel ignores.
            cols = np.array([e for e in ground if rng.random() < 0.8], dtype=np.int64)
            rows = rng.random((41, len(cols))) < 0.3
            rows[0], rows[1] = False, True
            a_flagged += bool(rows[:, (a_mask >> cols) & 1 == 1].any())
            if a_mask and isinstance(m, MinorMatroid):
                minor_kernels_with_a.add(kernel)
            expected = _span_reference(m, cols, rows, a_mask)
            # Only the per-row kernel makes span() calls, one per row: |D| + 1
            # for the circuit plan's one-row groups, and, when D is dependent
            # in M/A, one per counted row in the fallback.  Only the label
            # kernel labels components.
            d_mask = mask_of(cols.tolist()) & ~a_mask
            plan_spans = d_mask.bit_count() + 1 if kernel == "span" else 0
            dependent = m.rank(a_mask | d_mask) - m.rank(a_mask) < d_mask.bit_count()
            per_row = kernel == "span" and dependent
            fallbacks += per_row
            calls.clear()
            labellings.clear()
            got = m.span_counter(cols)(rows, a_mask)
            assert got.tolist() == expected.tolist()
            assert len(calls) == plan_spans + (len(rows) if per_row else 0)
            assert bool(labellings) == (kernel == "labels")
            _check_bar_counts(m.span_counter(cols)(rows, a_mask, 12.5), expected, 12.5)
            # A (g, q, s) input gives one count vector per group of q rows.
            groups = group_rng.random((3, 13, len(cols))) < 0.3
            groups[0, 0], groups[2, 12] = False, True
            expected = [_span_reference(m, cols, g, a_mask).tolist() for g in groups]
            calls.clear()
            labellings.clear()
            got = m.span_counter(cols)(groups, a_mask)
            assert got.tolist() == expected
            assert len(calls) == plan_spans + (3 * 13 if per_row else 0)
            assert bool(labellings) == (kernel == "labels")
            _check_bar_counts(m.span_counter(cols)(groups, a_mask, 4.0), expected, 4.0)
    assert a_flagged > len(cases)
    assert fallbacks > 0
    # Every kernel kind counts a restriction under some A ≠ ∅.
    assert minor_kernels_with_a == {"uniform", "table", "labels", "span"}


def _check_bar_counts(got, counts, bar):
    """``got``, counted with ``bar``, equals the exact ``counts`` wherever
    they exceed it, and elsewhere is them or 0."""
    got, counts = np.asarray(got), np.asarray(counts)
    assert ((got == counts) | (got == 0) & (counts <= bar)).all()


def _independent_after(m, a_mask, rng):
    """Random ground elements outside A that are independent in M/A."""
    d, r_a = 0, m.rank(a_mask)
    for e in rng.permutation(ids_of(m.ground_mask & ~a_mask)).tolist():
        if rng.random() < 0.8 and m.rank(a_mask | d | 1 << e) == r_a + d.bit_count() + 1:
            d |= 1 << e
    return d


def test_circuit_counter_matches_span_reference(monkeypatch):
    # Columns D independent in M/A are counted from fundamental circuits, in
    # every family and minor; columns dependent in M/A fall back to the
    # family kernel.  The columns also hold elements of A, which rows flag
    # at random and the counter ignores, with or without a bar; on U_{20,30}
    # a flagged column of A would make a row full that is not.  One column
    # is flagged in every row (x_e = 1), and one case per matroid has
    # D = ∅.  Loops, parallel edges and A's spans put elements in
    # span(A) \ A.  A plan is built by one call of the family's kernel, so
    # past n = 20 a graphic plan makes no span() call.
    multi, lam = _multigraph(), _laminar()
    u = UniformMatroid(6, 30)
    part = PartitionMatroid([range(0, 5), range(5, 14), range(14, 24)], [2, 4, 1])
    k5 = GraphicMatroid(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    explicit = random_explicit_matroid(np.random.default_rng(3), 8)
    cases = [
        u, u.restrict(full_mask(30) & ~0b111), UniformMatroid(20, 30),
        part, part.restrict(full_mask(24) & ~mask_of([0, 5, 6, 14])),
        lam, lam.restrict(full_mask(24) & ~mask_of([5, 17])),
        multi, multi.restrict(mask_of(range(0, 45, 3)) | 0b11110),
        _theta(19), _theta(19).restrict(full_mask(39) & ~0b110),
        k5, k5.restrict(0b1111110), explicit, explicit.restrict(0b11101110),
    ]
    built, planning, plan_spans = [], [], []
    real_plan, real_span = Matroid._circuit_plan, Matroid.span

    def plan(*args):
        planning.append(1)
        try:
            built.append(real_plan(*args))
        finally:
            planning.pop()
        return built[-1]

    def span(self, mask):
        if planning:
            plan_spans.append(mask)
        return real_span(self, mask)

    monkeypatch.setattr(Matroid, "_circuit_plan", plan)
    monkeypatch.setattr(Matroid, "span", span)
    rng = np.random.default_rng(8)
    seen = {
        "span(A) beyond A": 0, "D empty": 0, "circuits of 2+": 0, "fallback": 0, "A flagged": 0
    }
    for m in cases:
        ground = ids_of(m.ground_mask)
        for t in range(7):
            a_mask = mask_of(e for e in ground if rng.random() < 0.08 * (t % 5))
            if t == 5:
                d_mask = 0
            elif t == 6:
                d_mask = m.ground_mask & ~a_mask  # dependent unless M/A is free
            else:
                d_mask = _independent_after(m, a_mask, rng)
            dependent = m.rank(a_mask | d_mask) - m.rank(a_mask) != d_mask.bit_count()
            cols = rng.permutation(np.array(ids_of(d_mask) + ids_of(a_mask)[:3], dtype=np.int64))
            rows = rng.random((3, 13, len(cols))) < rng.uniform(0.2, 0.8)
            d_cols = np.flatnonzero((d_mask >> cols) & 1)
            if len(d_cols):
                rows[..., d_cols[0]] = True
            expected = [_span_reference(m, cols, g, a_mask).tolist() for g in rows]
            built.clear()
            plan_spans.clear()
            count = m.span_counter(cols)
            assert count(rows, a_mask).tolist() == expected
            assert count(rows[1], a_mask).tolist() == expected[1]
            _check_bar_counts(count(rows, a_mask, 6.5), expected, 6.5)
            assert len(built) == 1 and (built[0] is None) == dependent
            graphic = isinstance(getattr(m, "base", m), GraphicMatroid)
            assert not (graphic and m.n_universe > 20 and plan_spans)
            spanned_by_a = m.span(a_mask) & ~a_mask
            seen["span(A) beyond A"] += not dependent and bool(spanned_by_a)
            seen["D empty"] += not d_mask
            seen["fallback"] += dependent
            seen["A flagged"] += bool(rows[..., (a_mask >> cols) & 1 == 1].any())
            if not dependent:
                closures = [m.span(a_mask | d_mask & ~(1 << d)) for d in iter_ids(d_mask)]
                seen["circuits of 2+"] += any(
                    sum(not c >> e & 1 for c in closures) > 1
                    for e in iter_ids(m.span(a_mask | d_mask))
                )
    assert all(seen.values()), seen


def test_circuit_plans_are_built_once_per_a_across_threads(monkeypatch):
    # Workers that count under a new A at once build its kernel and its
    # plan once.  Short switch intervals make the threads interleave, and a
    # build that sleeps lets every other thread reach the same A while it
    # runs.
    lam = _laminar()
    real_plan, real_kernel = Matroid._circuit_plan, Matroid._span_kernel
    built, kernels = [], []

    def plan(self, cols, a_mask, kernel):
        built.append(a_mask)
        time.sleep(0.005)
        return real_plan(self, cols, a_mask, kernel)

    def span_kernel(self, cols, a_mask):
        kernels.append(a_mask)
        return real_kernel(self, cols, a_mask)

    monkeypatch.setattr(Matroid, "_circuit_plan", plan)
    monkeypatch.setattr(Matroid, "_span_kernel", span_kernel)
    rng = np.random.default_rng(4)
    a_masks = [0, 0b1, 0b1000, 0b1, mask_of([12, 13]), 0]
    d_mask = _independent_after(lam, 0, rng)
    cols = np.array(ids_of(d_mask), dtype=np.int64)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for k in (2, 3):
            count = lam.span_counter(cols)
            rows = rng.random((k, 20, len(cols))) < 0.4
            got = [[] for _ in range(k)]
            start = threading.Barrier(k)

            def work(i):
                start.wait()
                for a_mask in a_masks:
                    flagged = rows[i] & ~((a_mask >> cols) & 1).astype(bool)
                    got[i].append((count(flagged, a_mask), flagged))

            built.clear()
            kernels.clear()
            threads = [threading.Thread(target=work, args=(i,)) for i in range(k)]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
            assert sorted(built) == sorted(kernels) == sorted(set(a_masks))
            for i in range(k):
                for a_mask, (counts, flagged) in zip(a_masks, got[i]):
                    expected = _span_reference(lam, cols, flagged, a_mask)
                    assert counts.tolist() == expected.tolist()
    finally:
        sys.setswitchinterval(interval)


class _MatmulLog(np.ndarray):
    """Sample rows that log the operand shapes of every matmul they, or
    arrays cast or cut from them, take part in; results are plain arrays."""

    log: list[tuple[tuple[int, ...], ...]] = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [np.asarray(v) if isinstance(v, _MatmulLog) else v for v in inputs]
        if "out" in kwargs:
            kwargs["out"] = tuple(np.asarray(v) for v in kwargs["out"])
        if ufunc is np.matmul:
            _MatmulLog.log.append(tuple(np.shape(v) for v in plain))
        return getattr(ufunc, method)(*plain, **kwargs)


def _circuit_counted_groups():
    """Groups of rows, per logged call, multiplied against the circuits:
    the leading size of each 3-axis first operand."""
    return [shapes[0][0] for shapes in _MatmulLog.log if len(shapes[0]) == 3]


def _wheel(k):
    """Hub 0 and rim 1..k: spokes (0, i) first, then rim edges, n = 2k."""
    rim = [(i, i % k + 1) for i in range(1, k + 1)]
    return GraphicMatroid(k + 1, [(0, i) for i in range(1, k + 1)] + rim)


def test_bar_counter_is_exact_above_the_bar():
    # count(rows, a, bar) > bar is exactly count(rows, a) > bar, at bars on
    # both sides of every count and one ulp below it (a Python float that
    # float32 would round up to the count), on every family, on minors,
    # with A = ∅ and A ≠ ∅, and with rows whose columns are all equal: a
    # count differs only where it is 0 and the exact count at most the bar.
    # With independent columns the circuit matmul runs on exactly the
    # groups where every column of some circuit of two or more elements
    # sums above the bar, and both the skipped and the counted branch run.
    # Dependent columns fall back to the family kernel, whose counts are
    # exact.
    u = UniformMatroid(6, 30)
    part = PartitionMatroid([range(0, 5), range(5, 14), range(14, 24)], [2, 4, 1])
    wheel, theta = _wheel(8), _theta(19)
    cases = [
        u, u.restrict(full_mask(30) & ~0b1011), part,
        part.restrict(full_mask(24) & ~mask_of([0, 5, 6, 14])), _laminar(),
        theta, theta.restrict(full_mask(39) & ~0b110), wheel,
        wheel.restrict(wheel.ground_mask & ~mask_of([0, 9])),
    ]
    rng = np.random.default_rng(21)
    seen = {"A empty": 0, "A nonempty": 0, "skipped": 0, "counted": 0, "fallback": 0}
    for m in cases:
        ground = ids_of(m.ground_mask)
        for t in range(4):
            a_mask = 0 if t % 2 == 0 else mask_of(e for e in ground if rng.random() < 0.15)
            if t == 3:
                d_mask = m.ground_mask & ~a_mask
            else:
                d_mask = _independent_after(m, a_mask, rng)
            dependent = m.rank(a_mask | d_mask) - m.rank(a_mask) != d_mask.bit_count()
            cols = np.array(ids_of(d_mask), dtype=np.int64)
            rows = rng.random((5, 12, len(cols))) < rng.uniform(0.2, 0.8)
            if t == 2:
                # Equal columns: a circuit's count is each of its column sums.
                rows[:] = rows[:, :, :1]
            count = m.span_counter(cols)
            counts = count(rows, a_mask)
            assert counts.tolist() == [_span_reference(m, cols, g, a_mask).tolist() for g in rows]
            # The column positions of each circuit of two or more, as in
            # test_circuit_counter_matches_span_reference.
            closures = {d: m.span(a_mask | d_mask & ~(1 << d)) for d in iter_ids(d_mask)}
            circuits = []
            for e in iter_ids(m.span(a_mask | d_mask) & ~d_mask):
                c_e = [j for j, d in enumerate(cols.tolist()) if not closures[d] >> e & 1]
                if len(c_e) > 1:
                    circuits.append(c_e)
            # In each group, a circuit's count is at most its smallest
            # column sum there.
            lows = np.array([rows[:, :, c].sum(axis=1).min(axis=1) for c in circuits])
            bars = {-1.0} | {c + d for c in np.unique(counts).tolist() for d in (-0.5, 0, 0.5)}
            bars |= {float(np.nextafter(c, -np.inf)) for c in np.unique(counts).tolist()}
            for bar in sorted(bars):
                _MatmulLog.log.clear()
                got = count(rows.view(_MatmulLog), a_mask, bar)
                assert got.dtype == np.int64 and (got > bar).tolist() == (counts > bar).tolist()
                assert ((got == counts) | (got == 0) & (counts <= bar)).all()
                assert (count(rows[2], a_mask, bar) > bar).tolist() == (counts[2] > bar).tolist()
                if dependent:
                    assert got.tolist() == counts.tolist()
                else:
                    crossing = int((lows > bar).any(axis=0).sum()) if circuits else 0
                    assert _circuit_counted_groups() == ([crossing] if crossing else [])
                    seen["skipped"] += bool(circuits) and crossing < len(rows)
                    seen["counted"] += crossing > 0
            seen["fallback"] += dependent
            seen["A empty" if not a_mask else "A nonempty"] += 1
    assert all(seen.values()), seen


def test_graphic_labels_keep_the_components_of_a():
    # A = {(6, 2), (3, 4), (5, 6)} and the row S = {(3, 6), (1, 5), (7, 4),
    # (0, 7)} connect all eight vertices, so every edge is spanned, A's
    # first.  Labels that start each row from pointers at A's component
    # roots, instead of from A contracted, lose a pointer of A to a later
    # hook here and count edges 0 and 1 of A as not spanned.
    edges = [(6, 2), (3, 4), (5, 6), (3, 6), (1, 5), (7, 4), (0, 7)] + [(0, 0)] * 14
    m = GraphicMatroid(8, edges)
    assert m.span(full_mask(7)) == full_mask(21)
    rows = np.ones((1, 4), dtype=bool)
    assert m.span_counter(np.arange(3, 7))(rows, 0b111).tolist() == [1] * 21


def test_graphic_span_matches_rank_span(monkeypatch):
    # GraphicMatroid.span runs one union-find over the mask; the reference
    # is the generic span, one rank query per element outside the mask, on
    # the matroid itself and on minors built over it.
    theta = _theta(19)
    multi = _multigraph()
    graphs = [m for m in small_corpus() if isinstance(m, GraphicMatroid)]
    k5 = GraphicMatroid(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    graphs += [k5, theta, multi]
    minors = [
        theta.restrict(full_mask(39) & ~0b110),
        theta.restrict(full_mask(39) & ~0b1011),
        multi.restrict(full_mask(45) & ~mask_of([0, 3, 7, 11, 30])),
        multi.restrict(mask_of(range(0, 45, 3)) | 0b11110).restrict(mask_of(range(0, 45, 3))),
    ]
    rng = np.random.default_rng(11)
    for m in graphs + minors:
        ground = ids_of(m.ground_mask)
        for _ in range(120):
            p = rng.random()
            mask = mask_of(e for e in ground if rng.random() < p)
            assert m.span(mask) == Matroid._span_masked(m, mask)
    # One union-find per query: no rank query per element.
    minor = theta.restrict(full_mask(39) & ~0b1)
    monkeypatch.setattr(GraphicMatroid, "_rank_masked", lambda *a: pytest.fail("rank query"))
    assert theta.span(0b111) == 0b111
    assert multi.span(0) == mask_of(e for e, (u, v) in enumerate(multi.edges) if u == v)
    assert minor.span(0b1110) == 0b11110
    with pytest.raises(ValueError, match="outside the ground set"):
        theta.span(1 << 39)
    with pytest.raises(ValueError):
        minor.span(0b1)


def _reference_row_counts(est, a_mask, rng, full_rows):
    """The rows path on one materialized (q, s) draw, one span() call per
    row; records how many rows span the whole ground set."""
    rows = rng.random((est.q, len(est.sup_ids))) < est.sup_x
    spans = [est.m.span(a_mask | mask_of(est.sup_ids[row].tolist())) for row in rows]
    full_rows.append((a_mask, spans.count(est.ground), est.q))
    return np.array([sum((sp >> e) & 1 for sp in spans) for e in est.ground_ids.tolist()])


def _reference_link(m, x, params, rng, full_rows=None):
    """The link builder one iteration at a time: h̄, then h̄ iterations, each
    from one multinomial draw of the outcome counts or from all q rows of
    one draw counted through span() calls (recorded in ``full_rows``)."""
    h_bar = params.sample_h_bar(rng)
    est = _SpanCountEstimator(m, as_marginals(x), params.q)
    bar = params.threshold * params.q
    full_rows = [] if full_rows is None else full_rows
    a, sets = 0, []
    for _ in range(h_bar):
        if est.path == "empty":
            # No element activates: every count is q * [e in span(A)].
            spanned = m.span(a)
            counts = np.array([params.q * ((spanned >> e) & 1) for e in est.ground_ids.tolist()])
        elif est.path == "multinomial":
            counts = rng.multinomial(params.q, est.pvals) @ est._member(a)[0]
        else:
            counts = _reference_row_counts(est, a, rng, full_rows)
        a = mask_of(est.ground_ids[counts > bar].tolist())
        sets.append(a)
    return a, LinkTrace(h_bar, tuple(sets), h_bar * params.q, m.ground_mask)


def _reference_chain(m, x, tau, eps, rng, overrides=None, full_rows=None):
    """ocrs_chain with a full reference link build for every link."""
    rho = max(m.full_rank(), 3)
    zeta = math.ceil(math.log(rho / eps) / eps)
    if overrides is not None and overrides.zeta is not None:
        zeta = overrides.zeta
    params = LinkParams.from_formula(rho, (1 - eps) * tau, eps, overrides)
    links, traces = [m.ground_mask], []
    for _ in range(zeta):
        a, lt = _reference_link(m.restrict(links[-1]), x, params, rng, full_rows)
        links.append(a)
        traces.append(lt)
    return tuple(links) + (0,), tuple(traces)


def _assert_chain_matches(m, x, tau, seed, overrides=None, full_rows=None):
    rng, ref_rng = RngStream(seed).generator(), RngStream(seed).generator()
    chain, trace = ocrs_chain(m, x, tau, 0.05, rng, overrides)
    links, traces = _reference_chain(m, x, tau, 0.05, ref_rng, overrides, full_rows)
    assert chain.links == links
    assert trace.link_traces == traces
    assert rng.random() == ref_rng.random()
    return traces


def _assert_link_matches(m, x, params, seed):
    rng, ref_rng = RngStream(seed).generator(), RngStream(seed).generator()
    assert single_ocrs_link(m, x, params, rng) == _reference_link(m, x, params, ref_rng)
    assert rng.random() == ref_rng.random()


def _absorbing(x, ground):
    return not any(x[e] > 0 for e in range(len(x)) if (ground >> e) & 1)


def _grows_mid_link(lt):
    return any(a != b for a, b in zip(lt.a_sets, lt.a_sets[1:]))


def test_fast_paths_match_sequential_reference(k3, u24, k4, monkeypatch):
    # K3 at the criterion-8 marginals: one multinomial link, then 81
    # absorbing links.
    x_k3 = as_marginals([1 / 6] * 3)
    for seed in range(4):
        traces = _assert_chain_matches(k3, x_k3, 0.7, seed)
        assert sum(_absorbing(x_k3, lt.ground_mask) for lt in traces) >= 80

    # U_{2,4} near the spanning probability 0.367: links grow mid-iteration,
    # so the multinomial path jumps and reclassifies.
    x_u24 = as_marginals([0.25] * 4)
    small = ParamOverrides(q=60, eta=20, zeta=6)
    grown = 0
    for seed in range(6):
        traces = _assert_chain_matches(u24, x_u24, 0.37, seed, small)
        grown += sum(_grows_mid_link(lt) for lt in traces)
    for threshold in (0.35, 1.0):
        params = LinkParams(rho=3, threshold=threshold, eps=0.05, q=60, eta=20)
        for seed in range(6):
            _assert_link_matches(u24, x_u24, params, seed)
            _assert_link_matches(u24, np.zeros(4), params, seed)
            _, lt = _reference_link(u24, x_u24, params, RngStream(seed).generator())
            grown += _grows_mid_link(lt)
    assert grown > 0

    # A self-loop edge: the absorbing tail is the loop, not ∅.
    looped = GraphicMatroid(3, [(0, 1), (1, 2), (2, 2)])
    for x in ([0.3, 0.3, 0.0], [0.0, 0.0, 0.0]):
        for seed in range(3):
            traces = _assert_chain_matches(looped, as_marginals(x), 0.7, seed, small)
            assert traces[-1].a_sets[-1] == 0b100

    # A restriction of K4 plus a loop (3, 3), without edges (0, 1) and
    # (1, 2): every link is a restriction of a restriction, and the
    # absorbing tail is the loop.
    k4_looped = GraphicMatroid(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 3)])
    minor = k4_looped.restrict(0b1110110)
    assert isinstance(minor, MinorMatroid)
    x_minor = as_marginals([0.0, 0.0, 0.3, 0.0, 0.3, 0.0, 0.0])
    for seed in range(3):
        traces = _assert_chain_matches(minor, x_minor, 0.7, seed, small)
        assert traces[-1].a_sets[-1] == 0b1000000

    # Rows path through the cardinality kernel, in small row blocks so a
    # draw spans several of them.  The likely elements enter A and the rest
    # do not, so later iterations run with a proper nonempty A and a share
    # of full rows; in U_{40,80} A holds ids past 63.  The sets sit far from
    # the threshold, so for every A the chains met, the set is also compared
    # at a bar on each side of every count the reference gives, with the
    # generator state after it.
    monkeypatch.setattr(chains, "ROW_BLOCK_VALUES", 7 * 30)
    for m, x in (
        (UniformMatroid(4, 30), [0.9] * 2 + [0.05] * 28),
        (UniformMatroid(40, 80), [0.3] * 64 + [0.95] * 16),
    ):
        x = as_marginals(x)
        full_rows = []
        overrides = ParamOverrides(q=150, eta=30, zeta=2)
        for seed in range(4):
            _assert_chain_matches(m, x, 0.7, seed, overrides, full_rows)
        assert any(a and 0 < n_full < q for a, n_full, q in full_rows)
        est = _SpanCountEstimator(m, x, 150)
        for seed, a in enumerate(sorted({a for a, _, _ in full_rows})):
            ref_rng = RngStream(seed).generator()
            counts = _reference_row_counts(est, a, ref_rng, [])
            for bar in sorted({c + d for c in counts.tolist() for d in (-0.5, 0.0)}):
                rng = RngStream(seed).generator()
                assert est._row_flags(a, bar, rng).tolist() == (counts > bar).tolist()
                assert _state_of(rng) == _state_of(ref_rng)


def test_batched_row_iterations_match_sequential_reference(monkeypatch):
    # The rows path with three iterations per batch of random values (a
    # BATCH_SPLIT-th of ROW_BLOCK_VALUES): near the threshold, links grow
    # in the middle of a batch and at its last iteration, and h̄ often
    # leaves a partial last batch; label chunks of a few rows cut across a
    # batch's iterations.  Every link matches the one-iteration-at-a-time
    # reference in its sets, its trace and the next draw, and every batch
    # takes one kernel call, plus one for the rest of the batch after each
    # change of A.  On theta the circuit matmul is skipped for some groups
    # of a batch and run for others.  One case has a support column at
    # x = 1, whose threshold word wraps to 0 and is flagged after the
    # compare.
    theta = _theta(19)
    x_theta = np.zeros(39)
    x_theta[[0] + list(range(1, 39, 2))] = 0.3  # on a spanning tree
    k6 = GraphicMatroid(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])
    cases = [
        (UniformMatroid(4, 30), [0.5] * 2 + [0.1] * 28, 0.7, 40),  # cardinality
        (k6, [1 / 6] * 15, 0.3, 40),  # span table
        (theta, x_theta, 0.28, 40),  # circuits
        (_multigraph(), [0.2] * 45, 0.3, 40),  # labels: dependent columns
        (theta.restrict(full_mask(39) - 1), np.r_[0.0, x_theta[1:]], 0.28, 40),  # circuits, minor
        (theta, x_theta, 0.29, 100),  # circuits, bar 28.999999999999996
        (_laminar(), [0.3] * 24, 0.6, 20),  # one span() call per row
        (UniformMatroid(4, 30), [1.0] + [0.5] + [0.1] * 28, 0.7, 40),  # x = 1
    ]
    per_batch = 3
    batch_calls, counted_groups, batch_groups = [], [], []
    real_init = _SpanCountEstimator.__init__

    def init(self, *args):
        real_init(self, *args)
        if self.path == "rows":
            count = self.count

            def counted(rows, a_mask, bar=None):
                if rows.ndim == 3:
                    batch_calls.append(len(rows))
                    _MatmulLog.log.clear()
                    counts = count(rows.view(_MatmulLog), a_mask, bar)
                    counted_groups.extend(_circuit_counted_groups() or [0])
                    batch_groups.append(len(rows))
                    return counts
                return count(rows, a_mask, bar)

            self.count = counted

    monkeypatch.setattr(_SpanCountEstimator, "__init__", init)
    monkeypatch.setattr(matroids, "ROW_BLOCK_VALUES", 250)
    for m, x, threshold, q in cases:
        x = as_marginals(x)
        s = sum(x[e] > 0 for e in iter_ids(m.ground_mask))
        monkeypatch.setattr(chains, "ROW_BLOCK_VALUES", chains.BATCH_SPLIT * per_batch * q * s)
        assert _SpanCountEstimator(m, x, q).path == "rows"
        params = LinkParams(rho=3, threshold=threshold, eps=0.05, q=q, eta=10)
        seen = set()
        counted_groups.clear()
        batch_groups.clear()
        for seed in range(8):
            rng, ref_rng = RngStream(seed).generator(), RngStream(seed).generator()
            batch_calls.clear()
            link = single_ocrs_link(m, x, params, rng)
            calls = list(batch_calls)
            assert link == _reference_link(m, x, params, ref_rng)
            assert rng.random() == ref_rng.random()
            lt = link[1]
            grows = [i for i, (a, b) in enumerate(zip((0,) + lt.a_sets, lt.a_sets)) if a != b]
            expected = []
            for first in range(0, lt.h_bar, per_batch):
                end = min(first + per_batch, lt.h_bar)
                expected.append(end - first)
                expected += [end - i - 1 for i in grows if first <= i < end - 1]
            assert calls == expected
            seen |= {"last" if i % per_batch == per_batch - 1 else "mid" for i in grows}
            seen |= {"partial"} if lt.h_bar % per_batch else set()
        assert seen == {"mid", "last", "partial"}
        if m is theta:
            # Groups skipped and groups counted, within one batch.
            assert any(0 < k < g for k, g in zip(counted_groups, batch_groups))


def test_k6_link_counts_rows_through_the_span_table(monkeypatch):
    # K6 at uniform-scaled marginals: all 15 edges are in the support, too
    # many for the multinomial, and n <= 20, so the rows path counts through
    # the dense span table and makes no span() call.  Near the spanning
    # probability (~0.28) links grow over several iterations.
    k6 = GraphicMatroid(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])
    x = as_marginals([0.5 * k6.full_rank() / 15] * 15)
    assert _SpanCountEstimator(k6, x, 100).path == "rows"
    params = LinkParams(rho=5, threshold=0.35, eps=0.05, q=100, eta=12)
    calls = []
    real_span = Matroid.span
    monkeypatch.setattr(Matroid, "span", lambda self, s: calls.append(s) or real_span(self, s))
    grown = 0
    for seed in range(6):
        rng, ref_rng = RngStream(seed).generator(), RngStream(seed).generator()
        calls.clear()
        link = single_ocrs_link(k6, x, params, rng)
        assert not calls
        assert link == _reference_link(k6, x, params, ref_rng)
        assert rng.random() == ref_rng.random()
        grown += _grows_mid_link(link[1])
    assert grown > 0


def _spy_plan_builds(monkeypatch, planning):
    """Keep ``planning`` non-empty while a counter builds a plan: while the
    graphic kernel is bound to A, which labels A's components past n = 20,
    and while the circuit plan runs."""
    real_kernel, real_plan = GraphicMatroid._span_kernel, Matroid._circuit_plan

    def building(real):
        def build(*args):
            planning.append(1)
            try:
                return real(*args)
            finally:
                planning.pop()

        return build

    monkeypatch.setattr(GraphicMatroid, "_span_kernel", building(real_kernel))
    monkeypatch.setattr(Matroid, "_circuit_plan", building(real_plan))


def test_graphic_labels_of_a_once_per_a_mask(monkeypatch):
    # One counter (one link) labels A's components once per distinct A,
    # when it builds A's kernel, and every block of rows once.  The columns
    # are dependent, so each distinct A's circuit plan labels its 37
    # one-row groups in 6 blocks once, finds them dependent, and leaves the
    # rows to the same kernel.
    theta = GraphicMatroid(21, [(0, 1)] + [e for w in range(2, 21) for e in ((0, w), (w, 1))])
    labellings, planning = {False: 0, True: 0}, []
    real_labels = matroids._component_labels

    def labels(*args):
        labellings[bool(planning)] += 1
        return real_labels(*args)

    monkeypatch.setattr(matroids, "_component_labels", labels)
    _spy_plan_builds(monkeypatch, planning)
    monkeypatch.setattr(matroids, "ROW_BLOCK_VALUES", 300)  # 7 rows per block
    cols = np.arange(3, 39, dtype=np.int64)
    rows = np.random.default_rng(2).random((20, len(cols))) < 0.3
    count = theta.span_counter(cols)
    a_masks = [0, 0, 0b110, 0, 0b110, 0b110]
    for a_mask in a_masks:
        expected = _span_reference(theta, cols, rows, a_mask)
        assert count(rows, a_mask).tolist() == expected.tolist()
    assert labellings == {False: 3 * len(a_masks), True: 2 * (1 + 6)}


def test_graphic_label_chunks_are_equal(monkeypatch):
    # 15 rows under a bound of 7 rows per label chunk are labelled as three
    # chunks of 5 rows, not 7 + 7 + 1; 14 rows as two chunks of 7.
    theta = _theta(19)
    sizes = []
    real_labels = matroids._component_labels
    monkeypatch.setattr(
        matroids, "_component_labels", lambda size, *a: sizes.append(size) or real_labels(size, *a)
    )
    monkeypatch.setattr(matroids, "ROW_BLOCK_VALUES", 300)  # 300 // 39 = 7 rows
    cols = np.arange(3, 39, dtype=np.int64)
    count = theta.span_counter(cols)
    count(np.zeros((1, len(cols)), dtype=bool), 0)  # labels A = ∅ once
    for q, chunks in ((15, [5, 5, 5]), (14, [7, 7]), (3, [3])):
        rows = np.random.default_rng(q).random((q, len(cols))) < 0.3
        sizes.clear()
        assert count(rows, 0).tolist() == _span_reference(theta, cols, rows, 0).tolist()
        assert sizes == [21 * b for b in chunks]


# -- decided row blocks -------------------------------------------------------


def _state_of(rng):
    """The bit generator's state, arrays as lists, so states compare with ==."""

    def plain(v):
        if isinstance(v, dict):
            return {key: plain(val) for key, val in v.items()}
        return v.tolist() if isinstance(v, np.ndarray) else v

    return plain(rng.bit_generator.state)


def _at_buffer_position(rng, pre):
    """``rng`` after 0-3 doubles, or after one 32-bit draw ("u32")."""
    if pre == "u32":
        rng.integers(7, dtype=np.int32)
    else:
        rng.random(int(pre))
    return rng


def _record_runs(monkeypatch):
    """Record every worker run's (workers asked, workers run)."""
    runs = []
    real_run = workers.run_workers

    def run(k, work):
        results = real_run(k, work)
        runs.append((k, len(results)))
        return results

    monkeypatch.setattr(workers, "run_workers", run)
    return runs


def _full_count_flags(est, a_mask, bar, rng):
    """The set of one iteration from all q rows of ``rng``, counted at once."""
    rows = rng.random((est.q, len(est.sup_ids))) < est.sup_x
    return est.count(rows, a_mask)[est.ground_ids] > bar


def test_parallel_row_blocks_match_sequential_loop(monkeypatch):
    # Iterations of 41 rows in blocks of at most 12, 6 or 4 rows for 1, 2 or
    # 3 workers, one-row blocks once a row may decide the iteration, and
    # label chunks of a few rows.  From every Philox buffer position (and
    # with a saved 32-bit half-word), the link, its trace and the generator
    # state after it equal the reference's, which counts every row of every
    # iteration through span() calls; every iteration runs the block loop
    # on all the workers asked for, and near the threshold A changes
    # between iterations.  Only the multigraph's dependent columns reach
    # the graphic label kernel; theta's independent ones count by circuits,
    # and label components only to plan them.
    theta = _theta(19)
    x_theta = np.zeros(39)
    x_theta[[0] + list(range(1, 39, 2))] = 0.3
    k6 = GraphicMatroid(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])
    multigraph = _multigraph()
    cases = [
        (UniformMatroid(4, 30), [0.5] * 2 + [0.1] * 28, 0.7),  # cardinality
        (k6, [1 / 6] * 15, 0.3),  # span table
        (theta, x_theta, 0.28),  # circuits
        (theta.restrict(full_mask(39) - 1), np.r_[0.0, x_theta[1:]], 0.28),  # circuits, minor
        (multigraph, [0.2] * 45, 0.3),  # labels: dependent columns
        (_laminar(), [0.3] * 24, 0.6),  # one span() call per row
    ]
    q = 41
    runs = _record_runs(monkeypatch)
    labellings, planning = [], []
    real_labels = matroids._component_labels

    def labels(*args):
        if not planning:
            labellings.append(1)
        return real_labels(*args)

    monkeypatch.setattr(matroids, "_component_labels", labels)
    _spy_plan_builds(monkeypatch, planning)
    monkeypatch.setattr(matroids, "ROW_BLOCK_VALUES", 250)
    for m, x, threshold in cases:
        labellings.clear()
        x = as_marginals(x)
        s = int(sum(x[e] > 0 for e in iter_ids(m.ground_mask)))
        monkeypatch.setattr(chains, "ROW_BLOCK_VALUES", 12 * s + 1)
        assert _SpanCountEstimator(m, x, q).path == "rows"
        params = LinkParams(rho=3, threshold=threshold, eps=0.05, q=q, eta=10)
        grown = 0
        for seed, pre in itertools.product(range(2), ("0", "1", "2", "3", "u32")):
            ref_rng = _at_buffer_position(RngStream(seed).generator(), pre)
            ref = _reference_link(m, x, params, ref_rng)
            for cpus in (1, 2, 3):
                monkeypatch.setattr(workers, "cpus", lambda: cpus)
                rng = _at_buffer_position(RngStream(seed).generator(), pre)
                runs.clear()
                assert single_ocrs_link(m, x, params, rng) == ref
                assert _state_of(rng) == _state_of(ref_rng)
                assert runs == [(cpus, cpus)] * ref[1].h_bar
            grown += _grows_mid_link(ref[1])
        assert grown > 0
        assert bool(labellings) == (m is multigraph)


def test_decided_rows_stop_at_the_first_deciding_row(monkeypatch):
    # One-row blocks.  An element is in once its count exceeds the bar and
    # out once its count plus the rows left does not; with an integer bar
    # every out decision lands on equality.  One worker counts exactly the
    # leading rows up to the first row that decides every element outside
    # A, and several workers at least those.  Far from the threshold that is
    # well short of q, also where every element ends out (bar 320) and the
    # last decision is an equality; at an element whose full count is the
    # bar and whose last row does not span it, all q rows are counted.  The
    # set and the generator state equal those of the full count.
    m = UniformMatroid(4, 30)
    x = as_marginals([0.5] * 2 + [0.1] * 28)
    q = 400
    monkeypatch.setattr(chains, "ROW_BLOCK_VALUES", 30)
    est = _SpanCountEstimator(m, x, q)
    real_count = est.count
    drawn = []
    est.count = lambda rows, a_mask: drawn.append(len(rows)) or real_count(rows, a_mask)
    at_threshold = 0
    cases = [(0, 0, 200.0), (1, 0b1, 150.0), (2, 0b101, 250.0), (4, 0, 320.0), (5, 0, None)]
    for seed, a_mask, bar in cases:
        ref_rng = RngStream(seed).generator()
        rows = ref_rng.random((q, 30)) < est.sup_x
        spanned = np.array([real_count(rows[r : r + 1], a_mask)[est.ground_ids] for r in range(q)])
        totals = np.cumsum(spanned, axis=0)
        in_a = est._in_a(a_mask)
        if bar is None:
            e = int(np.flatnonzero(~in_a & (spanned[-1] == 0))[0])
            bar = float(totals[-1, e])
        left = q - np.arange(1, q + 1)[:, None]
        decided = ((totals > bar) | (totals + left <= bar) | in_a).all(axis=1)
        first = int(np.argmax(decided)) + 1
        for cpus in (1, 2, 3):
            monkeypatch.setattr(workers, "cpus", lambda: cpus)
            rng = RngStream(seed).generator()
            drawn.clear()
            flags = est._row_flags(a_mask, bar, rng)
            assert flags.tolist() == ((totals[-1] > bar) | in_a).tolist()
            assert _state_of(rng) == _state_of(ref_rng)
            assert set(drawn) == {1}
            assert len(drawn) == first if cpus == 1 else first <= len(drawn) <= q
        at_threshold += first == q
        assert first < 0.9 * q or seed == 5
    assert at_threshold == 1


def test_block_loop_runs_on_the_calling_thread_without_a_second_cpu(monkeypatch):
    # An iteration of at most a k-th of ROW_BLOCK_VALUES values on k CPUs,
    # and any iteration on one CPU, run the block loop on this thread
    # alone, starting no thread; on one CPU an iteration spans many row
    # blocks.  A larger iteration on two CPUs runs on both even when it
    # fits in one row block, as criterion 10's rho = 8 iterations (0.82 of
    # one) do.  Every set and generator state is the full count's, and far
    # from the threshold (every element is spanned by about 0.57 or 0.71 of
    # the rows, the bar is 0.3) fewer than q rows are counted.
    m = UniformMatroid(4, 30)
    x = as_marginals([0.5] * 2 + [0.1] * 28)
    runs = _record_runs(monkeypatch)

    def check(q, cpus, block_rows):
        monkeypatch.setattr(workers, "cpus", lambda: cpus)
        monkeypatch.setattr(chains, "ROW_BLOCK_VALUES", block_rows * 30)
        est = _SpanCountEstimator(m, x, q)
        real_count, drawn = est.count, []
        est.count = lambda rows, a_mask: drawn.append(len(rows)) or real_count(rows, a_mask)
        rng, ref_rng = RngStream(0).generator(), RngStream(0).generator()
        flags = est._row_flags(0, 0.3 * q, rng)
        est.count = real_count
        assert flags.tolist() == _full_count_flags(est, 0, 0.3 * q, ref_rng).tolist()
        assert _state_of(rng) == _state_of(ref_rng)
        assert sum(drawn) < q
        return drawn

    threads = threading.active_count()
    assert len(check(400, 1, 24)) > 2
    check(400, 2, 800)
    check(41, 1, 24)
    assert runs == [(1, 1)] * 3
    assert threading.active_count() == threads
    runs.clear()
    check(400, 2, 480)
    assert runs == [(2, 2)]
    # Pinned to one CPU (this thread only, restored after).
    if not hasattr(os, "sched_setaffinity"):
        return
    monkeypatch.undo()
    runs = _record_runs(monkeypatch)
    monkeypatch.setattr(chains, "ROW_BLOCK_VALUES", 24 * 30)
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        assert workers.cpus() == 1
        _SpanCountEstimator(m, x, 41)._row_flags(0, 20.5, RngStream(0).generator())
    finally:
        os.sched_setaffinity(0, cpus)
    assert runs == [(1, 1)]


@pytest.mark.parametrize("pre", ["0", "1", "3", "u32"])
@pytest.mark.parametrize(
    "bit_generator", [np.random.PCG64, np.random.MT19937, np.random.SFC64, np.random.Philox]
)
def test_skip_doubles_matches_single_draws(bit_generator, pre):
    # From any Philox buffer position, and with a saved 32-bit half-word,
    # skipping d doubles leaves the generator as d random() calls do, also
    # for d past 2^16.  The skip rests on Philox's counter, so every other
    # bit generator is refused by name and left where it stood.
    for d in (0, 1, 5, (1 << 16) + 7):
        rng = _at_buffer_position(np.random.Generator(bit_generator(3)), pre)
        ref_rng = _at_buffer_position(np.random.Generator(bit_generator(3)), pre)
        if bit_generator is not np.random.Philox:
            with pytest.raises(TypeError, match=bit_generator.__name__):
                skip_doubles(rng, d)
            assert _state_of(rng) == _state_of(ref_rng)
            continue
        skip_doubles(rng, d)
        for _ in range(d):
            ref_rng.random()
        assert _state_of(rng) == _state_of(ref_rng)
        assert rng.random(3).tolist() == ref_rng.random(3).tolist()


@pytest.mark.parametrize("pre", ["0", "1", "3", "u32"])
@pytest.mark.parametrize(
    "bit_generator",
    [np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64, np.random.Philox, np.random.MT19937],
)
def test_draw_rows_matches_double_draws(bit_generator, pre):
    # Rows drawn as 53-bit integers flag what rng.random(shape) < x flags
    # and leave the generator where it leaves it, from any buffer position
    # and with a saved 32-bit half-word.  The thresholds include 0, 1 and
    # the steps next to them, and, for the last columns, a value drawn in
    # the column itself, its neighbours k * 2^-53 on either side, and the
    # point halfway to the next one.  Each is drawn against a RowLaw of one
    # threshold row, which the compare broadcasts, and of as many rows as
    # the draw or more, a prefix of which the compare reads.  The words are
    # Philox's, so every other bit generator is refused by name and left
    # where it stood.
    step = 2.0**-53
    fixed = [0.0, step, 0.25, 1 / 3, 1 - step, 1.0]
    shape = (2, 9, len(fixed) + 8)

    def fresh():
        return _at_buffer_position(np.random.Generator(bit_generator(11)), pre)

    if bit_generator is not np.random.Philox:
        rng, ref = fresh(), fresh()
        with pytest.raises(TypeError, match=bit_generator.__name__):
            draw_rows(rng, RowLaw(np.array(fixed)), (3, len(fixed)))
        assert _state_of(rng) == _state_of(ref)
        return

    drawn = fresh().random(shape)
    # Below 1/2, k + 1/2 steps is a double.
    low = [drawn[..., c][drawn[..., c] < 0.5][0] for c in range(len(fixed), shape[-1])]
    x = np.array(fixed + low)
    x[len(fixed):] += np.repeat([0.0, -step, step, step / 2], 2)
    rows = math.prod(shape[:-1])
    for law_rows in (1, rows, rows + 3):
        rng, ref = fresh(), fresh()
        out = np.empty(shape, dtype=bool)
        flags = draw_rows(rng, RowLaw(x, law_rows), shape, out=out)
        expected = ref.random(shape) < x
        assert flags is out and flags.tolist() == expected.tolist()
        assert _state_of(rng) == _state_of(ref)
        assert expected[..., 6:].any() and not expected[..., 6:].all()
        flags = draw_rows(rng, RowLaw(x[:6], law_rows), (5, 6))
        assert flags.tolist() == (ref.random((5, 6)) < x[:6]).tolist()
        assert _state_of(rng) == _state_of(ref)


@pytest.mark.parametrize(
    "bit_generator", [np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64, np.random.MT19937]
)
def test_row_draws_refuse_other_bit_generators(bit_generator, monkeypatch):
    # Sample rows come only from Philox words: a rows-path first link on
    # theta-39 with marginals on a spanning tree, whether its iterations
    # are batched or drawn in decided row blocks, and the sampled branch of
    # the oracle raise TypeError naming the bit generator.
    theta = _theta(19)
    x = np.zeros(39)
    x[[0] + list(range(1, 39, 2))] = 0.3
    for row_block_values in (chains.ROW_BLOCK_VALUES, 40 * 20):
        monkeypatch.setattr(chains, "ROW_BLOCK_VALUES", row_block_values)
        plan = chain_plan(theta, x, 0.5, 0.05, ParamOverrides(q=40, eta=4, zeta=3))
        assert plan.first_estimator.path == "rows"
        with pytest.raises(TypeError, match=bit_generator.__name__):
            plan.link(np.random.Generator(bit_generator(5)))
    with pytest.raises(TypeError, match=bit_generator.__name__):
        span_probabilities(theta, x, 0, np.random.Generator(bit_generator(5)), 100)


def test_parallel_row_blocks_under_thread_switching(monkeypatch):
    # Six workers, more than this machine may have cores, on one-row blocks
    # with a short switch interval: the rows counted are leading rows of the
    # iteration, each counted once, and fewer than q; the set and the
    # generator state equal those of the full count.
    m = UniformMatroid(4, 30)
    x = as_marginals([0.5] * 2 + [0.1] * 28)
    monkeypatch.setattr(chains, "ROW_BLOCK_VALUES", 6 * 30)
    monkeypatch.setattr(workers, "cpus", lambda: 6)
    est = _SpanCountEstimator(m, x, 600)
    real_count = est.count
    counted = []

    def recording(rows, a_mask):
        counted.append(rows.copy())
        return real_count(rows, a_mask)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(3):
            rng, ref_rng = RngStream(seed).generator(), RngStream(seed).generator()
            counted.clear()
            est.count = recording
            flags = est._row_flags(0b1, 300.0, rng)
            est.count = real_count
            ref_rows = ref_rng.random((600, 30)) < est.sup_x
            assert flags.tolist() == (real_count(ref_rows, 0b1)[est.ground_ids] > 300).tolist()
            assert _state_of(rng) == _state_of(ref_rng)
            n = len(counted)
            assert {len(rows) for rows in counted} == {1} and n < 600
            assert sorted(rows.tobytes() for rows in counted) == sorted(
                rows.tobytes() for rows in ref_rows[:n]
            )
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("raiser", ["helper", "caller"])
def test_parallel_row_block_error_reaches_the_caller(monkeypatch, raiser):
    # A count that raises on a helper thread or on the calling thread: the
    # error reaches the caller after every claimed block has returned, no
    # block is claimed after it, and the next iteration runs normally.
    m = UniformMatroid(4, 30)
    x = as_marginals([0.5] * 2 + [0.1] * 28)
    monkeypatch.setattr(chains, "ROW_BLOCK_VALUES", 4 * 30)
    monkeypatch.setattr(workers, "cpus", lambda: 3)
    est = _SpanCountEstimator(m, x, 200)  # 200 blocks of one row
    real_count = est.count
    lock = threading.Lock()
    calls, running = [], [0]

    def count(rows, a_mask):
        on_caller = threading.current_thread() is threading.main_thread()
        with lock:
            calls.append(on_caller)
            running[0] += 1
        try:
            time.sleep(0.002)
            if on_caller == (raiser == "caller"):
                raise KeyError("count failed")
            return real_count(rows, a_mask)
        finally:
            with lock:
                running[0] -= 1

    est.count = count
    with pytest.raises(KeyError, match="count failed"):
        est._row_flags(0, 100.0, RngStream(0).generator())
    assert running[0] == 0
    n_calls = len(calls)
    assert n_calls < 100
    time.sleep(0.02)
    assert len(calls) == n_calls
    est.count = real_count
    rng, ref_rng = RngStream(1).generator(), RngStream(1).generator()
    flags = est._row_flags(0b11, 100.0, rng)
    assert flags.tolist() == _full_count_flags(est, 0b11, 100.0, ref_rng).tolist()
    assert _state_of(rng) == _state_of(ref_rng)


# -- trial map ----------------------------------------------------------------


def test_map_trials_returns_results_in_trial_order(monkeypatch):
    # Six workers, more than this machine may have cores, on trials of
    # uneven length under a short switch interval: each trial runs once and
    # its result lands at its index, whatever thread ran it.
    monkeypatch.setattr(workers, "cpus", lambda: 6)
    ran = []

    def trial(t, rng):
        ran.append(t)
        time.sleep(0.001 * (t % 3))
        return t, threading.current_thread().name, rng.random(3).tolist()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = workers.map_trials(60, RngStream(8, 2), trial)
    finally:
        sys.setswitchinterval(interval)
    assert [t for t, _, _ in got] == list(range(60)) and sorted(ran) == list(range(60))
    assert len({name for _, name, _ in got}) > 1
    # Each trial's generator starts at its own substream, whichever worker
    # re-keyed it and whatever that worker drew before.
    for t, _, draws in got:
        assert draws == RngStream(8, 2).substream(t).generator().random(3).tolist()


def test_map_trials_runs_inline_for_one_trial_or_one_cpu(monkeypatch):
    # One trial, no trial, or one CPU: the trials run on the calling thread
    # and no helper starts.  Two trials on two CPUs would start one.
    class NoHelper:
        def __init__(self, i):
            raise AssertionError("a helper was started")

    monkeypatch.setattr(workers, "_Helper", NoHelper)
    monkeypatch.setattr(workers, "_helpers", [])
    caller = threading.current_thread()
    for cpus, trials in ((3, 1), (3, 0), (1, 5)):
        monkeypatch.setattr(workers, "cpus", lambda: cpus)
        got = workers.map_trials(
            trials, RngStream(0), lambda t, rng: (t, threading.current_thread() is caller)
        )
        assert got == [(t, True) for t in range(trials)]
    monkeypatch.setattr(workers, "cpus", lambda: 2)
    with pytest.raises(AssertionError, match="a helper was started"):
        workers.map_trials(2, RngStream(0), lambda t, rng: t)


# -- estimator reuse ----------------------------------------------------------


def _count_estimators(monkeypatch):
    built = []
    real_init = _SpanCountEstimator.__init__

    def init(self, *args):
        real_init(self, *args)
        built.append(self.path)

    monkeypatch.setattr(_SpanCountEstimator, "__init__", init)
    return built


def test_selectability_builds_one_link_estimator(monkeypatch):
    # Criterion 8's instance: every trial's first link is built on K3 with
    # the same marginals, so the 100 trials of an experiment share its
    # plan's multinomial estimator, and a second experiment builds its own
    # with the same report.
    k3 = GraphicMatroid(3, [(0, 1), (1, 2), (2, 0)])
    x = as_marginals([1 / 3] * 3)
    built = _count_estimators(monkeypatch)
    first = selectability_experiment(k3, x, 0.5, 0.05, 100, "element-last", RngStream(3))
    assert built == ["multinomial"]
    again = selectability_experiment(k3, x, 0.5, 0.05, 100, "element-last", RngStream(3))
    assert built == ["multinomial"] * 2
    assert again.to_jsonable() == first.to_jsonable()


def _arrays_in(value):
    """The numpy arrays in ``value``, looking into dicts, lists and tuples."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [a for v in value for a in _arrays_in(v)]
    return []


def test_plan_shares_its_rows_estimator(monkeypatch):
    # U_{70,140} has 140 elements in the support: its first link runs the
    # rows path, and the plan holds that estimator as on any other path, so
    # the first link builds none and each later link builds its own.
    m = UniformMatroid(70, 140)
    built = _count_estimators(monkeypatch)
    plan = chain_plan(m, as_marginals([0.25] * 140), 0.7, 0.05, ParamOverrides(q=50, eta=4, zeta=3))
    assert built == ["rows"] and plan.first_estimator.path == "rows"
    plan.link(RngStream(0).generator())
    assert built == ["rows"]
    _, trace = plan.sample(RngStream(1).generator())
    assert len(built) == len(trace.sampled)

    # The theta-39 path instance of the report pins: sampling its chains
    # from the one shared estimator, on several threads under a short
    # switch interval, gives the chains, traces and generator states of a
    # fresh estimator per chain.  Whole iterations go in batches, or, with
    # smaller row blocks, in decided row blocks, on two workers when a
    # single trial leaves the helpers free.
    theta = _theta(19)
    x = np.full(39, 0.263)
    x[0] = 0.0
    states = {}
    real_map = workers.map_trials

    def map_trials(trials, stream, fn):
        def traced(t, rng):
            out = fn(t, rng)
            states[t] = _state_of(rng)
            return out

        return real_map(trials, stream, traced)

    monkeypatch.setattr(workers, "map_trials", map_trials)
    stream = RngStream(7)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for block_values in (chains.ROW_BLOCK_VALUES, 38 * 300):
            monkeypatch.setattr(chains, "ROW_BLOCK_VALUES", block_values)
            plan = chain_plan(theta, x, 0.7, 0.05, ParamOverrides(q=200))
            est = plan.first_estimator
            expected = []
            for t in range(3):
                fresh = dataclasses.replace(
                    plan, first_estimator=_SpanCountEstimator(theta, plan.x, 200)
                )
                rng = stream.substream(t).generator()
                expected.append((fresh.sample(rng), _state_of(rng)))
            for cpus, trials in ((1, 3), (2, 3), (3, 3), (3, 1)):
                monkeypatch.setattr(workers, "cpus", lambda: cpus)
                states.clear()
                got = plan.sample_trials(trials, stream)
                assert list(zip(got, [states[t] for t in range(trials)])) == expected[:trials]
            assert plan.first_estimator is est and est.path == "rows"
            # No row block or other q x s array outlives a call.
            held = [a.size for key, v in vars(est).items() if key != "law" for a in _arrays_in(v)]
            assert max(held) < 200 * 38
    finally:
        sys.setswitchinterval(interval)


def test_plan_without_support_builds_no_span_table():
    # With no element able to activate, the plan's estimator is on the
    # empty path, which reads span(∅) only: no dense table is built.
    m = UniformMatroid(2, 4)
    plan = chain_plan(m, np.zeros(4), 0.7, 0.05, FAST)
    assert plan.first_estimator.path == "empty" and m._tables is None
    chain, _ = plan.sample(RngStream(0).generator())
    assert chain.links == (0b1111,) + (0,) * (FAST.zeta + 1) and m._tables is None


def test_outcome_membership_matches_the_span_table():
    # The multinomial path classifies by the span counter's counts of the
    # 2^s outcome rows, built with no table; the dense span table read at
    # outcome | A gives the same 0/1 membership, on every corpus matroid,
    # on K6 at s = 12, and on a minor of each, under A = ∅ and two more.
    rng = np.random.default_rng(9)
    k6 = GraphicMatroid(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])
    for base in small_corpus() + explicit_corpus() + [k6]:
        for m in (base, base.restrict(base.ground_mask & ~(1 << ids_of(base.ground_mask)[-1]))):
            ids = ids_of(m.ground_mask)
            x = np.zeros(m.n_universe)
            x[ids[:12]] = rng.uniform(0.1, 0.9, len(ids[:12]))
            est = _SpanCountEstimator(m, x, 50)
            assert est.path == "multinomial"
            a_masks = [0, 1 << ids[0], mask_of(e for e in ids if rng.random() < 0.5) | 1 << ids[-1]]
            got = [est._member(a) for a in a_masks]
            s = len(est.sup_ids)
            outcome_masks = ((np.arange(1 << s)[:, None] >> np.arange(s)) & 1) @ (
                np.int64(1) << est.sup_ids
            )
            lookup = m.span_lookup()
            for a, (member, in_a) in zip(a_masks, got):
                spans = lookup(outcome_masks | np.int64(a))
                expected = (spans[:, None] >> est.ground_ids[None, :]) & 1
                assert member.tolist() == expected.tolist(), (m, a)
                assert in_a.tolist() == [bool(a >> e & 1) for e in ids]


def test_dependent_rows_build_the_tables_once(monkeypatch):
    # A direct-API chain with custom marginals on seven pairs at capacity 1
    # (s = 14, the rows path) and no polytope check: the drawn pairs are
    # dependent, so the counter builds the dense tables once, on the base,
    # and every later link's minor reads them.  Rows are counted from the
    # tables: the only span() calls are the 15 one-row groups of the first
    # circuit plan, built before them, and a few outside the counter,
    # where counting by span() would make one per row, q per iteration.
    # A restriction of U_{3,16} counts its dependent rows by cardinality
    # and builds none.
    builds, spans = [], []
    real, real_span = Matroid._dense_tables, Matroid.span

    def dense_tables(self):
        builds.append((self, self._tables is None))
        return real(self)

    monkeypatch.setattr(Matroid, "_dense_tables", dense_tables)
    monkeypatch.setattr(Matroid, "span", lambda self, s: spans.append(s) or real_span(self, s))
    pairs = PartitionMatroid([[2 * i, 2 * i + 1] for i in range(7)], [1] * 7)
    plan = chain_plan(pairs, as_marginals([0.4] * 14), 0.6, 0.05, FAST)
    assert plan.first_estimator.path == "rows"
    chain, trace = plan.sample(RngStream(0).generator())
    assert len(set(chain.links)) > 2
    assert [m for m, built in builds if built] == [pairs]
    assert len(builds) > 1
    assert len(spans) < FAST.q < trace.draw_count
    builds.clear()
    u = UniformMatroid(3, 16).restrict(full_mask(16) & ~0b11)
    plan = chain_plan(u, as_marginals([0.0, 0.0] + [0.15] * 14), 0.6, 0.05, FAST)
    assert plan.first_estimator.path == "rows"
    plan.sample(RngStream(0).generator())
    assert not builds


# -- chain plan ---------------------------------------------------------------


def _theta(paths):
    """Edge (0, 1) plus ``paths`` two-edge 0-1 paths through 2, 3, ..."""
    edges = [(0, 1)] + [e for w in range(2, paths + 2) for e in ((0, w), (w, 1))]
    return GraphicMatroid(paths + 2, edges)


def test_chain_plan_samples_match_ocrs_chain(k3, u24, k4):
    # One plan sampled on several streams in a row gives, on each, the chain,
    # the trace and the generator state of a fresh ocrs_chain call, and the
    # links of the sequential reference builder.
    theta = _theta(19)
    x_theta = np.zeros(39)
    x_theta[[0] + list(range(1, 39, 2))] = 0.1  # 0.1 on a spanning tree
    # The reference builds every absorbing link with one span() call per
    # iteration, seconds per chain on theta-39, so theta skips it.
    cases = [
        (k3, [1 / 6] * 3, 0.7, None, True),
        (u24, [0.25] * 4, 0.37, ParamOverrides(q=60, eta=20, zeta=6), True),
        (k4.restrict(0b110110), [0.0, 0.3, 0.3, 0.0, 0.3, 0.0], 0.7, FAST, True),
        (theta, x_theta, 0.3, ParamOverrides(q=100), False),
    ]
    for m, x, tau, overrides, reference in cases:
        x = as_marginals(x)
        plan = chain_plan(m, x, tau, 0.05, overrides)
        for seed in range(3):
            rngs = [RngStream(seed).generator() for _ in range(2 + reference)]
            chain, trace = plan.sample(rngs[0])
            assert trace.params is plan.params
            assert (chain, trace) == ocrs_chain(m, x, tau, 0.05, rngs[1], overrides)
            assert plan.link(RngStream(seed).generator()) == (chain.links[1], trace.sampled[0])
            if reference:
                links, traces = _reference_chain(m, x, tau, 0.05, rngs[2], overrides)
                assert chain.links == links and trace.link_traces == traces
            assert len({rng.random() for rng in rngs}) == 1


def test_chain_plan_keeps_its_own_marginals(k4):
    x = as_marginals([0.25] * 6)
    plan = chain_plan(k4, x, 0.7, 0.05, FAST)
    x[:] = 0.0
    assert not plan.x.flags.writeable
    assert plan.positive == k4.ground_mask
    chain, _ = plan.sample(RngStream(0).generator())
    assert chain == ocrs_chain(k4, [0.25] * 6, 0.7, 0.05, RngStream(0).generator(), FAST)[0]


def test_chain_plan_runs_the_chain_checks(k4):
    # Every input check of a chain build fails at plan time, before a draw.
    for args, message in (
        ((np.zeros(6), 0.0, 0.05), "tau must lie in (0, 1], got 0.0"),
        ((np.zeros(6), 0.7, 0.2), "eps must lie in (0, 1/20], got 0.2"),
        ((np.zeros(5), 0.7, 0.05), "marginal vector length must match the universe size"),
        (([1.5] * 6, 0.7, 0.05), "marginal probabilities must lie in [0, 1]"),
        ((np.zeros(6), 0.7, 0.05, ParamOverrides(q=0)), "q and eta must be positive"),
        ((np.zeros(6), 0.7, 0.05, ParamOverrides(zeta=-1)), "zeta must be positive, got -1"),
        ((np.zeros(6), 0.7, 0.05, ParamOverrides(zeta=0)), "zeta must be positive, got 0"),
    ):
        with pytest.raises(ValueError) as exc:
            chain_plan(k4, *args)
        assert str(exc.value) == message


def test_selectability_computes_the_loops_once(monkeypatch):
    # 100 K3 trials, each with an 81-link absorbing tail, read the loops of
    # K3 from one plan: the chain builder computes span(∅) once per
    # experiment.  (The greedy rule's own span calls are not counted.)
    # Checks that build only first links, and so reach no absorbing tail,
    # never compute it.
    k3 = GraphicMatroid(3, [(0, 1), (1, 2), (2, 0)])
    u24 = UniformMatroid(2, 4)
    empty_spans = []
    real_span = Matroid.span

    def span(self, mask):
        if mask == 0 and sys._getframe(1).f_globals["__name__"] == chains.__name__:
            empty_spans.append(self)
        return real_span(self, mask)

    monkeypatch.setattr(Matroid, "span", span)
    x = as_marginals([0.25] * 4)
    verify_in_link_loss(u24, x, 0.54, 0.05, 20, RngStream(4), overrides=FAST)
    verify_progress(u24, x, 0.5, 0.54, 0.05, 20, RngStream(5), overrides=FAST)
    assert not empty_spans
    report = selectability_experiment(
        k3, as_marginals([1 / 3] * 3), 0.5, 0.05, 100, "element-last", RngStream(3)
    )
    assert report.trials == 100
    assert empty_spans == [k3]


def test_plan_loops_are_computed_once_across_threads(monkeypatch):
    # Four threads, more than the cores, read a new plan's loops at once;
    # a span(∅) that sleeps lets them all arrive while it runs.
    multi = _multigraph()
    plan = chain_plan(multi, np.zeros(45), 0.5, 0.05)
    loops = multi.span(0)
    empty_spans = []
    real_span = Matroid.span

    def span(self, mask):
        if mask == 0:
            empty_spans.append(self)
            time.sleep(0.005)
        return real_span(self, mask)

    monkeypatch.setattr(Matroid, "span", span)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start = threading.Barrier(4)
        got = []

        def work():
            start.wait(timeout=10)
            got.append(plan.loops)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=10)
        assert not any(th.is_alive() for th in threads)
    finally:
        sys.setswitchinterval(interval)
    assert empty_spans == [multi]
    assert got == [loops] * 4


def test_basis_indicator_chain_reads_the_rank_from_the_greedy_basis(monkeypatch):
    # The CLI's basis-indicator marginals come from a greedy basis, whose
    # size is the full rank, so the chain plan's rho needs no rank call on
    # the whole ground set of theta-39.
    full_rank_calls = []
    real_rank = GraphicMatroid._rank_masked

    def rank_masked(self, mask):
        if mask == self.ground_mask:
            full_rank_calls.append(mask)
        return real_rank(self, mask)

    monkeypatch.setattr(GraphicMatroid, "_rank_masked", rank_masked)
    theta = {"family": "graphic", "n_vertices": 21, "edges": [[0, 1]] + [
        e for w in range(2, 21) for e in ([0, w], [w, 1])
    ]}
    config = cli.parse_config({
        "mode": "chain", "matroid": theta, "lambda": 0.1, "trials": 1,
        "marginal": {"kind": "basis-indicator-scaled"}, "overrides": {"q": 100},
    })
    _, code = cli.run(config)
    assert code == 0
    assert full_rank_calls == []


def test_one_matroid_runs_experiments_like_fresh_ones():
    # Two experiments in a row on one matroid object, with different x, tau
    # and overrides, report what each reports on a fresh matroid: nothing
    # fixed for the first experiment leaks into the second.
    def k4():
        return GraphicMatroid(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])

    runs = [
        (as_marginals([0.3] * 6), 0.5, FAST),
        (as_marginals([0.2, 0.1, 0.0, 0.3, 0.2, 0.1]), 0.4, ParamOverrides(q=80, eta=5, zeta=4)),
    ]
    shared = k4()
    for x, lam, overrides in runs:
        args = (x, lam, 0.05, 40, "element-last", RngStream(8), overrides)
        reused = selectability_experiment(shared, *args).to_jsonable()
        assert reused == selectability_experiment(k4(), *args).to_jsonable()


# -- chain construction -----------------------------------------------------


def test_chain_zeta_value(k4):
    x = np.zeros(6)
    chain, trace = ocrs_chain(k4, x, 0.7, 0.05, RngStream(0).generator())
    assert trace.zeta == 82  # ceil(20 * ln(60)) with rho = 3
    assert len(chain) == trace.zeta + 2


def test_compact_tail_views_match_expanded_links(k3):
    # Criterion 8's chain: one sampled link, then an 81-link absorbing tail
    # kept as one record; its views agree with the expanded per-link records.
    chain, trace = ocrs_chain(k3, as_marginals([1 / 6] * 3), 0.7, 0.05, RngStream(2).generator())
    links = trace.link_traces
    assert len(trace.sampled) == 1 and len(trace.tail_h_bars) == trace.zeta - 1
    assert len(links) == trace.zeta
    assert trace.h_bars == tuple(lt.h_bar for lt in links)
    assert trace.draw_count == sum(lt.draws for lt in links)
    assert [lt.ground_mask for lt in links] == list(chain.links[:-2])
    assert all(lt.a_sets == (chain.links[i + 1],) * lt.h_bar for i, lt in enumerate(links))


def test_chain_nesting_and_bounds(k4):
    x = as_marginals([0.25] * 6)
    for t in range(10):
        chain, trace = ocrs_chain(
            k4, x, 0.7, 0.05, RngStream(21, t).generator(), FAST
        )
        assert chain.links[0] == k4.ground_mask
        assert chain.links[-1] == 0
        for hi, lo in zip(chain.links, chain.links[1:]):
            assert lo & ~hi == 0
        assert trace.draw_count <= trace.draw_bound
        assert not trace.conforming


def test_chain_all_zero_marginals(k4):
    chain, trace = ocrs_chain(k4, np.zeros(6), 0.7, 0.05, RngStream(4).generator(), FAST)
    assert all(c == 0 for c in chain.links[1:])


def test_chain_deterministic(k4):
    x = as_marginals([0.25] * 6)
    c1, t1 = ocrs_chain(k4, x, 0.7, 0.05, RngStream(33, 0).generator(), FAST)
    c2, t2 = ocrs_chain(k4, x, 0.7, 0.05, RngStream(33, 0).generator(), FAST)
    assert c1 == c2
    assert t1.draw_count == t2.draw_count


def test_chain_domain_errors(k4):
    with pytest.raises(ValueError):
        ocrs_chain(k4, np.zeros(6), 0.0, 0.05, RngStream(0).generator())
    with pytest.raises(ValueError):
        ocrs_chain(k4, np.zeros(6), 0.7, 0.2, RngStream(0).generator())


def test_spanning_chain_validation():
    with pytest.raises(ValueError):
        SpanningChain((0b11, 0b01))  # last link not empty
    with pytest.raises(ValueError):
        SpanningChain((0b01, 0b10, 0))  # not nested
    chain = SpanningChain((0b11, 0b10, 0))
    assert chain.level_of(1) == 1
    assert chain.level_of(0) == 0
    with pytest.raises(ValueError):
        chain.level_of(5)


def test_spanning_chain_nesting_checked_across_repeats():
    # Runs of equal links are checked as one link; a pair that is not
    # nested still fails when it sits right after or before a long run.
    SpanningChain((0b111,) * 40 + (0b011,) * 40 + (0,) * 3)
    for links in (
        (0b111,) * 40 + (0b1000,) + (0,) * 3,
        (0b011,) + (0b001,) * 40 + (0b010,) * 2 + (0,),
        (0b011,) * 2 + (0b001,) * 30 + (0b011,) * 30 + (0,),
    ):
        with pytest.raises(ValueError, match="nested"):
            SpanningChain(links)


def test_level_of_picks_highest_repeated_index():
    chain = SpanningChain((0b11, 0b11, 0b10, 0b10, 0))
    assert chain.level_of(0) == 1
    assert chain.level_of(1) == 3


# -- known-marginals baseline ------------------------------------------------


def test_minimal_link_zero_marginals(k4):
    assert minimal_link_construction(k4, np.zeros(6), 0.5) == 0


def test_minimal_link_rejects_large_and_wrong_length(u24):
    with pytest.raises(ValueError, match="minimal link is exact"):
        minimal_link_construction(UniformMatroid(2, 21), np.full(21, 0.1), 0.5)
    with pytest.raises(ValueError, match="universe size"):
        minimal_link_construction(u24, np.full(3, 0.1), 0.5)


def test_minimal_link_u12_example(u12):
    out = minimal_link_construction(u12, as_marginals([0.6, 0.6]), 0.5)
    assert out == 0b11


def test_minimal_link_fixed_point_and_monotone_iteration(u24, k3):
    w_cases = [
        (u24, as_marginals([0.45, 0.55, 0.65, 0.35]), 0.4),
        (k3, as_marginals([0.7, 0.7, 0.7]), 0.55),
    ]
    for m, x, tau in w_cases:
        out = minimal_link_construction(m, x, tau)
        # Re-derive the iteration over every realization r, with weight w[r]:
        # A grows monotonically and out is its limit.
        w = realization_weights(x)

        def step(a_mask):
            new = 0
            for e in iter_ids(m.ground_mask):
                p = sum(w[r] for r in range(len(w)) if (m.span(r | a_mask) >> e) & 1)
                if p > tau:
                    new |= 1 << e
            return new

        seen = 0
        while True:
            nxt = step(seen)
            assert seen & ~nxt == 0  # A_{i-1} ⊆ A_i
            assert nxt & ~out == 0  # every iterate stays inside the output
            if nxt == seen:
                break
            seen = nxt
        assert seen == out
        assert step(out) == out  # stabilized set is a fixed point


def test_minimal_link_counts_active_elements_as_spanned(u24):
    # On U_{2,4} at x = 0.25, Pr[e ∈ span(R)] = 0.3671875, and 0.578125
    # once A holds another element; e counts as spanned whenever it is
    # active, as in the sampled link.  So the link is N at tau = 0.36 and ∅
    # at tau = 0.37; Pr[e ∈ span(R \ {e})] = 0.15625 would give ∅ at both.
    x = as_marginals([0.25] * 4)
    assert span_probabilities(u24, x, 0).tolist() == [0.3671875] * 4
    assert span_probabilities(u24, x, 0b1)[1:].tolist() == [0.578125] * 3
    assert minimal_link_construction(u24, x, 0.36) == 0b1111
    assert minimal_link_construction(u24, x, 0.37) == 0


# -- freeness ----------------------------------------------------------------


def test_freeness_two_link_chain(u12):
    chain = SpanningChain((0b11, 0))
    for e in range(2):
        assert chain_freeness(u12, [0.3, 0.3], chain, e) == pytest.approx(0.7)


def test_freeness_zero_marginals(k3):
    chain = SpanningChain((0b111, 0))
    for e in range(3):
        assert chain_freeness(k3, np.zeros(3), chain, e) == pytest.approx(1.0)


def test_freeness_spanned_by_next_link(k3):
    # C_1 = {edges 1, 2} spans edge 0 deterministically
    chain = SpanningChain((0b111, 0b110, 0))
    assert chain_freeness(k3, [0.5, 0.5, 0.5], chain, 0) == pytest.approx(0.0)


def test_freeness_theta39_closed_forms():
    # n = 39 > 20, so freeness is sampled.  On the trivial chain (N, ∅) the
    # path edge e is not free iff its sibling and another path are active;
    # with C_1 = {f}, iff its sibling is active.
    theta, xv, samples = _theta(19), 0.3, 40_000
    x = np.full(39, xv)
    x[0] = 0.0
    n_mask = full_mask(39)
    cases = [
        (SpanningChain((n_mask, 0)), 0, (1 - xv**2) ** 19),
        (SpanningChain((n_mask, 0)), 1, 1 - xv * (1 - (1 - xv**2) ** 18)),
        (SpanningChain((n_mask, 0b1, 0)), 1, 1 - xv),
        (SpanningChain((n_mask, 0b1, 0)), 38, 1 - xv),
    ]
    z = bonferroni_z(len(cases))
    for k, (chain, e, p) in enumerate(cases):
        got = chain_freeness(theta, x, chain, e, RngStream(40, k).generator(), samples)
        assert abs(got - p) <= z * math.sqrt(p * (1 - p) / samples), (chain, e)
    with pytest.raises(ValueError, match="pass rng and samples"):
        chain_freeness(theta, x, cases[0][0], 0)


def test_freeness_counts_an_always_active_neighbour(u12):
    # x_e = 1 on e itself does not enter e's freeness; a sure neighbour spans e.
    chain = SpanningChain((0b11, 0))
    assert chain_freeness(u12, [1.0, 0.0], chain, 0) == pytest.approx(1.0)
    assert chain_freeness(u12, [1.0, 0.0], chain, 1) == pytest.approx(0.0)


# -- balancedness -------------------------------------------------------------


def test_balancedness_degenerate_sampler(u12):
    # a chain distribution with one point (N, ∅): balancedness is that
    # chain's freeness, 0.7 per element, with no spread over the trials
    chain, x, trials = SpanningChain((0b11, 0)), as_marginals([0.3, 0.3]), 50
    free = np.array(
        [[chain_freeness(u12, x, chain, e) for e in range(2)] for _ in range(trials)]
    )
    means = free.mean(axis=0)
    stderrs = free.std(axis=0, ddof=1) / math.sqrt(trials)
    assert np.allclose(means, [0.7, 0.7])
    assert np.allclose(stderrs, 0.0)


def test_balancedness_distribution_floor(u12):
    # chain distribution from the sample-based builder must be
    # (1 - lambda - 8 eps)-balanced for x in lambda * P_M
    lam, eps, trials = 0.5, 0.05, 200
    x = as_marginals([0.25, 0.25])  # in 0.5 * P_M
    rng = RngStream(5).generator()
    free = np.empty((trials, 2))
    for t in range(trials):
        chain, _ = ocrs_chain(u12, x, lam + 4 * eps, eps, rng)
        free[t] = [chain_freeness(u12, x, chain, e) for e in range(2)]
    means = free.mean(axis=0)
    stderrs = free.std(axis=0, ddof=1) / math.sqrt(trials)
    floor = 1 - lam - 8 * eps
    for mean, se in zip(means, stderrs):
        assert mean >= floor - 3 * se
    # dominant chain shape is (N, ∅, ..., ∅): freeness 0.75 per element
    assert means.min() >= 0.7 - 3 * stderrs.max()


# -- chain levels ---------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_level_of_bisection_matches_the_linear_scan(data):
    # Element e has level levels[e] (-1: off the ground set), so link i
    # holds the elements of level >= i; each link repeats 1-4 times, which
    # gives repeated absorbing tails and repeated empty links.
    n = data.draw(st.integers(1, 10))
    depth = data.draw(st.integers(1, 8))
    levels = data.draw(st.lists(st.integers(-1, depth - 1), min_size=n, max_size=n))
    repeats = data.draw(st.lists(st.integers(1, 4), min_size=depth, max_size=depth))
    links = []
    for i, r in enumerate(repeats):
        links += [mask_of(e for e in range(n) if levels[e] >= i)] * r
    chain = SpanningChain(tuple(links) + (0,))
    for e in range(n + 1):
        if e < n and levels[e] >= 0:
            scan = max(i for i, c in enumerate(chain.links) if (c >> e) & 1)
            assert chain.level_of(e) == scan
        else:
            with pytest.raises(ValueError):
                chain.level_of(e)
