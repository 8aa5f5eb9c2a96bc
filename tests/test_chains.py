import functools
import math
import sys

import numpy as np
import pytest

from chainocrs import (
    GraphicMatroid,
    LaminarMatroid,
    LinkParams,
    LinkTrace,
    ParamOverrides,
    RngStream,
    SpanningChain,
    UniformMatroid,
    as_marginals,
    balancedness_estimate,
    chain_freeness,
    chain_plan,
    minimal_link_construction,
    ocrs_chain,
    selectability_experiment,
    single_ocrs_link,
    truncation_distribution,
)
from chainocrs import chains, matroids
from chainocrs.bitset import full_mask, ids_of, iter_ids, mask_of
from chainocrs.chains import _SpanCountEstimator
from chainocrs.matroids import Matroid, MinorMatroid
from chainocrs.sampling import realization_weights

FAST = ParamOverrides(q=150, eta=8, zeta=6)


# -- truncation distribution ----------------------------------------------


def test_truncation_known_values():
    td = truncation_distribution(0.05, 3)
    assert td.eta == 188
    assert td.pmf.sum() == pytest.approx(1.0, abs=1e-12)
    assert td.pmf[0] <= 0.05**3 / math.log(3)
    assert td.pmf[0] == pytest.approx(1.05 ** (-187))


def test_truncation_recurrence():
    td = truncation_distribution(0.04, 10)
    cdf = np.cumsum(td.pmf)
    for h in range(2, td.eta + 1):
        assert cdf[h - 1] == pytest.approx(1.04 * cdf[h - 2], abs=1e-12)
        assert td.pmf[h - 1] == pytest.approx(0.04 * cdf[h - 2], abs=1e-12)


def test_truncation_domain_errors():
    with pytest.raises(ValueError):
        truncation_distribution(0.05, 2)
    with pytest.raises(ValueError):
        truncation_distribution(0.0, 3)
    with pytest.raises(ValueError):
        truncation_distribution(1.0, 3)


def test_truncation_sampling_matches_pmf():
    td = truncation_distribution(0.05, 3, eta=12)
    rng = RngStream(3).generator()
    trials = 50_000
    counts = np.zeros(td.eta)
    for _ in range(trials):
        counts[td.sample(rng) - 1] += 1
    freq = counts / trials
    sigma = np.sqrt(td.pmf * (1 - td.pmf) / trials)
    assert np.all(np.abs(freq - td.pmf) <= 4 * sigma + 1e-9)


# -- link parameters -------------------------------------------------------


def test_link_params_formula_values():
    p = LinkParams.from_formula(3, (1 - 0.05) * 0.7, 0.05)
    assert p.q == math.ceil(6 / (0.665 * 0.05**2) * math.log(math.log(3) / 0.05))
    assert p.eta == 188
    assert p.conforming


def test_link_params_overrides_flag():
    p = LinkParams.from_formula(3, 0.5, 0.05, ParamOverrides(q=10))
    assert p.q == 10 and not p.conforming
    with pytest.raises(ValueError):
        LinkParams.from_formula(2, 0.5, 0.05)
    with pytest.raises(ValueError):
        LinkParams.from_formula(3, 1.5, 0.05)
    with pytest.raises(ValueError):
        LinkParams(rho=3, threshold=0.5, eps=0.2, q=5, eta=5)


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
            counts[est.next_link_set(0, thr, rng)] += 1
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
    cases = [
        (u, "uniform"),
        (u.restrict(full_mask(30) & ~0b111), "uniform"),
        (u.contract(0b1011), "uniform"),
        (u.contract(full_mask(8)), "uniform"),
        (k5, "table"),
        (k5.contract(0b11), "table"),
        (k5.restrict(0b1111110), "table"),
        (theta, "labels"),
        (theta.contract(0b110), "labels"),
        (multi, "labels"),
        (multi.restrict(mask_of(range(0, 45, 3)) | 0b11110), "labels"),
        (multi.contract(mask_of([3, 7, 11, 30])), "labels"),
        (lam, "span"),
        (lam.restrict(full_mask(24) & ~mask_of([5, 17])).contract(mask_of([0, 12])), "span"),
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
    for m, kernel in cases:
        assert (m.span_lookup() is not None) == (kernel == "table")
        ground = ids_of(m.ground_mask)
        for t in range(6):
            a_mask = mask_of(e for e in ground if rng.random() < 0.1 * t)
            cols = np.array(
                [e for e in ground if not (a_mask >> e) & 1 and rng.random() < 0.8],
                dtype=np.int64,
            )
            rows = rng.random((41, len(cols))) < 0.3
            rows[0], rows[1] = False, True
            expected = _span_reference(m, cols, rows, a_mask)
            # Only the fallback makes span() calls, one per row, and only
            # the label kernel labels components.
            calls.clear()
            labellings.clear()
            got = m.span_counter(cols)(rows, a_mask)
            assert got.tolist() == expected.tolist()
            assert len(calls) == (len(rows) if kernel == "span" else 0)
            assert bool(labellings) == (kernel == "labels")
            # A (g, q, s) input gives one count vector per group of q rows.
            groups = group_rng.random((3, 13, len(cols))) < 0.3
            groups[0, 0], groups[2, 12] = False, True
            expected = [_span_reference(m, cols, g, a_mask).tolist() for g in groups]
            calls.clear()
            labellings.clear()
            got = m.span_counter(cols)(groups, a_mask)
            assert got.tolist() == expected
            assert len(calls) == (3 * 13 if kernel == "span" else 0)
            assert bool(labellings) == (kernel == "labels")


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


def _reference_row_counts(est, a_mask, rng, full_rows):
    """The rows path on one materialized (q, s) draw, one span() call per
    row; records how many rows span the whole ground set."""
    rows = rng.random((est.q, len(est.sup_ids))) < est.sup_x
    spans = [est.m.span(a_mask | mask_of(est.sup_ids[row].tolist())) for row in rows]
    full_rows.append((a_mask, spans.count(est.ground), est.q))
    return np.array([sum((sp >> e) & 1 for sp in spans) for e in est.ground_ids.tolist()])


def _reference_link(m, x, params, rng, full_rows=None):
    """The link builder one iteration at a time: h̄, then h̄ next_link_set
    calls; with ``full_rows``, the rows path counts through span() calls."""
    h_bar = truncation_distribution(params.eps, params.rho, params.eta).sample(rng)
    est = _SpanCountEstimator(m, as_marginals(x), params.q)
    if full_rows is not None:
        est._row_counts = functools.partial(_reference_row_counts, est, full_rows=full_rows)
    a, sets = 0, []
    for _ in range(h_bar):
        a = est.next_link_set(a, params.threshold, rng)
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

    # A minor with a contraction: contracting edges (0,1) and (1,2) of K4
    # turns edge (0,2) into a loop and leaves parallel pairs.
    minor = k4.contract(0b1001)
    assert isinstance(minor, MinorMatroid)
    x_minor = as_marginals([0.0, 0.0, 0.3, 0.0, 0.3, 0.0])
    for seed in range(3):
        traces = _assert_chain_matches(minor, x_minor, 0.7, seed, small)
        assert traces[-1].a_sets[-1] == 0b10

    # Rows path through the cardinality kernel, in small row blocks so a
    # draw spans several of them.  The likely elements enter A and the rest
    # do not, so later iterations run with a proper nonempty A and a share
    # of full rows; in U_{40,80} A holds ids past 63.  The sets sit far from
    # the threshold, so the counts behind them are compared too, for every
    # A the chains met.
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
            rng, ref_rng = RngStream(seed).generator(), RngStream(seed).generator()
            counts = est._row_counts(a, rng)
            assert counts.tolist() == _reference_row_counts(est, a, ref_rng, []).tolist()
            assert rng.random() == ref_rng.random()


def test_batched_row_iterations_match_sequential_reference(monkeypatch):
    # The rows path with three iterations per batch of random values (a
    # sixteenth of ROW_BLOCK_VALUES): near the threshold, links grow in the
    # middle of a batch and at its last iteration, and h̄ often leaves a
    # partial last batch; label chunks of a few rows cut across a batch's
    # iterations.  Every link matches the one-iteration-at-a-time reference
    # in its sets, its trace and the next draw, and every batch takes one
    # kernel call, plus one for the rest of the batch after each change of A.
    theta = _theta(19)
    x_theta = np.zeros(39)
    x_theta[[0] + list(range(1, 39, 2))] = 0.3  # on a spanning tree
    k6 = GraphicMatroid(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])
    cases = [
        (UniformMatroid(4, 30), [0.5] * 2 + [0.1] * 28, 0.7, 40),  # cardinality
        (k6, [1 / 6] * 15, 0.3, 40),  # span table
        (theta, x_theta, 0.28, 40),  # labels
        (_multigraph(), [0.2] * 45, 0.3, 40),  # labels
        (theta.contract(0b1), np.r_[0.0, x_theta[1:]], 0.28, 40),  # labels, minor
        (_laminar(), [0.3] * 24, 0.6, 20),  # one span() call per row
    ]
    per_batch = 3
    batch_calls = []
    real_init = _SpanCountEstimator.__init__

    def init(self, *args):
        real_init(self, *args)
        if self.path == "rows":
            count = self.count

            def counted(rows, a_mask):
                if rows.ndim == 3:
                    batch_calls.append(len(rows))
                return count(rows, a_mask)

            self.count = counted

    monkeypatch.setattr(_SpanCountEstimator, "__init__", init)
    monkeypatch.setattr(matroids, "ROW_BLOCK_VALUES", 250)
    for m, x, threshold, q in cases:
        x = as_marginals(x)
        s = sum(x[e] > 0 for e in iter_ids(m.ground_mask))
        monkeypatch.setattr(chains, "ROW_BLOCK_VALUES", 16 * per_batch * q * s)
        assert _SpanCountEstimator(m, x, q).path == "rows"
        params = LinkParams(rho=3, threshold=threshold, eps=0.05, q=q, eta=10)
        seen = set()
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
        assert link == _reference_link(k6, x, params, ref_rng, full_rows=[])
        assert rng.random() == ref_rng.random()
        grown += _grows_mid_link(link[1])
    assert grown > 0


def test_graphic_labels_of_a_once_per_a_mask(monkeypatch):
    # One counter (one link) labels A's components once per distinct A,
    # and every block of rows once.
    theta = GraphicMatroid(21, [(0, 1)] + [e for w in range(2, 21) for e in ((0, w), (w, 1))])
    labellings = []
    real_labels = matroids._component_labels
    monkeypatch.setattr(
        matroids, "_component_labels", lambda *a: labellings.append(1) or real_labels(*a)
    )
    monkeypatch.setattr(matroids, "ROW_BLOCK_VALUES", 300)  # 7 rows per block
    cols = np.arange(3, 39, dtype=np.int64)
    rows = np.random.default_rng(2).random((20, len(cols))) < 0.3
    count = theta.span_counter(cols)
    a_masks = [0, 0, 0b110, 0, 0b110, 0b110]
    for a_mask in a_masks:
        expected = _span_reference(theta, cols, rows, a_mask)
        assert count(rows, a_mask).tolist() == expected.tolist()
    assert len(labellings) == 3 * len(a_masks) + 2


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
    # the same marginals, so 100 trials share one multinomial estimator,
    # and the reused estimator leaves every report unchanged.
    k3 = GraphicMatroid(3, [(0, 1), (1, 2), (2, 0)])
    x = as_marginals([1 / 3] * 3)
    built = _count_estimators(monkeypatch)
    first = selectability_experiment(k3, x, 0.5, 0.05, 100, "element-last", RngStream(3))
    assert built == ["multinomial"]
    again = selectability_experiment(k3, x, 0.5, 0.05, 100, "element-last", RngStream(3))
    assert built == ["multinomial"]
    assert again.to_jsonable() == first.to_jsonable()


def test_rows_estimators_are_not_kept(monkeypatch):
    # U_{70,140} has 140 elements in the support: its first link runs the
    # rows path, whose estimator must not stay in the memo.
    m = UniformMatroid(70, 140)
    x = as_marginals([0.25] * 140)
    built = _count_estimators(monkeypatch)
    ocrs_chain(m, x, 0.7, 0.05, RngStream(0).generator(), ParamOverrides(q=50, eta=4, zeta=3))
    assert "rows" in built
    assert all(est.path != "rows" for est in m._link_estimators.values())


def test_estimator_memo_is_bounded(u24):
    params = LinkParams.from_formula(3, 0.5, 0.05, FAST)
    for i in range(chains.ESTIMATOR_MEMO_MAX + 5):
        single_ocrs_link(u24, as_marginals([0.01 * (i + 1)] * 4), params, RngStream(i).generator())
    assert len(u24._link_estimators) == chains.ESTIMATOR_MEMO_MAX


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
        (k4.contract(0b1001), [0.0, 0.0, 0.3, 0.0, 0.3, 0.0], 0.7, FAST, True),
        (theta, x_theta, 0.3, ParamOverrides(q=100), False),
    ]
    for m, x, tau, overrides, reference in cases:
        x = as_marginals(x)
        plan = chain_plan(m, x, tau, 0.05, overrides)
        for seed in range(3):
            rngs = [RngStream(seed).generator() for _ in range(2 + reference)]
            chain, trace = plan.sample(rngs[0])
            assert (chain, trace) == ocrs_chain(m, x, tau, 0.05, rngs[1], overrides)
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
    ):
        with pytest.raises(ValueError) as exc:
            chain_plan(k4, *args)
        assert str(exc.value) == message


def test_selectability_computes_the_loops_once(monkeypatch):
    # 100 K3 trials, each with an 81-link absorbing tail, read the loops of
    # K3 from one plan: the chain builder computes span(∅) once per
    # experiment.  (The greedy rule's own span calls are not counted.)
    k3 = GraphicMatroid(3, [(0, 1), (1, 2), (2, 0)])
    empty_spans = []
    real_span = Matroid.span

    def span(self, mask):
        if mask == 0 and sys._getframe(1).f_globals["__name__"] == chains.__name__:
            empty_spans.append(self)
        return real_span(self, mask)

    monkeypatch.setattr(Matroid, "span", span)
    report = selectability_experiment(
        k3, as_marginals([1 / 3] * 3), 0.5, 0.05, 100, "element-last", RngStream(3)
    )
    assert report.trials == 100
    assert empty_spans == [k3]


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
        # re-derive the iteration: A grows monotonically and out is its limit
        w = realization_weights(x)
        lookup = m.span_lookup()
        idx = np.arange(len(w), dtype=np.int64)

        def step(a_mask):
            new = 0
            for e in range(m.n_universe):
                if not (m.ground_mask >> e) & 1:
                    continue
                spans = lookup((idx | np.int64(a_mask)) & ~np.int64(1 << e))
                if float(w @ ((spans >> np.int64(e)) & 1)) > tau:
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


# -- freeness ----------------------------------------------------------------


def test_freeness_two_link_chain(u12):
    chain = SpanningChain((0b11, 0))
    assert chain_freeness(u12, [0.3, 0.3], chain, 0) == pytest.approx(0.7)


def test_freeness_zero_marginals(k3):
    chain = SpanningChain((0b111, 0))
    for e in range(3):
        assert chain_freeness(k3, np.zeros(3), chain, e) == pytest.approx(1.0)


def test_freeness_spanned_by_next_link(k3):
    # C_1 = {edges 1, 2} spans edge 0 deterministically
    chain = SpanningChain((0b111, 0b110, 0))
    assert chain_freeness(k3, [0.5, 0.5, 0.5], chain, 0) == pytest.approx(0.0)


def test_freeness_mc_matches_exact(u24):
    chain = SpanningChain((0b1111, 0b1000, 0))
    x = [0.4, 0.3, 0.2, 0.5]
    exact = chain_freeness(u24, x, chain, 1)
    mc = chain_freeness(
        u24, x, chain, 1, mode="mc", mc_trials=40_000, rng=RngStream(17).generator()
    )
    sigma = math.sqrt(exact * (1 - exact) / 40_000)
    assert abs(mc - exact) <= 4 * sigma


# -- balancedness -------------------------------------------------------------


def test_balancedness_degenerate_sampler(u12):
    chain = SpanningChain((0b11, 0))
    est = balancedness_estimate(
        u12, [0.3, 0.3], lambda rng: chain, trials=50, rng=RngStream(2).generator()
    )
    assert np.allclose(est.means, [0.7, 0.7])
    assert np.allclose(est.stderrs, 0.0)


def test_balancedness_distribution_floor(u12):
    # chain distribution from the sample-based builder must be
    # (1 - lambda - 8 eps)-balanced for x in lambda * P_M
    lam, eps = 0.5, 0.05
    x = as_marginals([0.25, 0.25])  # in 0.5 * P_M

    def sampler(rng):
        chain, _ = ocrs_chain(u12, x, lam + 4 * eps, eps, rng)
        return chain

    est = balancedness_estimate(u12, x, sampler, trials=200, rng=RngStream(5).generator())
    floor = 1 - lam - 8 * eps
    for mean, se in zip(est.means, est.stderrs):
        assert mean >= floor - 3 * se
    # dominant chain shape is (N, ∅, ..., ∅): freeness 0.75 per element
    assert est.minimum() >= 0.7 - 3 * est.stderrs.max()
