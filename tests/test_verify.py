import math
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from chainocrs import (
    ExplicitMatroid,
    GraphicMatroid,
    ParamOverrides,
    PartitionMatroid,
    RngStream,
    SpanningChain,
    UniformMatroid,
    brute_force_T_alpha,
    sample_complexity_audit,
    single_ocrs_link,
    span_probabilities,
    t_alpha_bullets_hold,
    verify_freeness_likely,
    verify_in_link_loss,
    verify_progress,
    verify_spanning,
    verify_t_alpha,
)
from chainocrs import workers
from chainocrs.bitset import full_mask, ids_of, mask_of, submasks
from chainocrs.chains import BuildTrace, LinkParams, LinkTrace
from chainocrs.stats import bonferroni_z
from chainocrs.verify import VerifyCheck, _level_freeness
from conftest import chain_freeness, random_explicit_matroid

FAST = ParamOverrides(q=150, eta=8, zeta=6)


# -- classification ------------------------------------------------------------
# verify_in_link_loss skips the members of A and calls any other element bad
# iff Pr[e ∈ span(A ∪ R(x))] > tau; span_probabilities gives that probability.


def test_classify_member(u24):
    # Members of A are spanned by every realization, so the oracle gives
    # them probability 1 and in-link loss must skip them rather than call
    # them bad.
    p = span_probabilities(u24, [0.2] * 4, 0b0001)
    assert p[0] == pytest.approx(1.0) and p[1] < 0.99


def test_classify_good_on_zero_marginals(u24):
    assert span_probabilities(u24, np.zeros(4), 0)[1] == pytest.approx(0.0)


def test_classify_bad_u12(u12):
    # R(x) includes e itself, so Pr[0 ∈ span(R)] = 1 - 0.4^2
    assert span_probabilities(u12, [0.6, 0.6], 0)[0] == pytest.approx(0.84)


def test_classify_invariant_under_relabeling():
    # the probabilities commute with element relabeling
    rng = np.random.default_rng(55)
    m = random_explicit_matroid(rng, 5)
    perm = [int(v) for v in rng.permutation(5)]
    relabeled = [
        [perm[e] for e in ids_of(mask)] for mask in m.independent
    ]
    m2 = ExplicitMatroid(5, relabeled)
    x = [0.3, 0.5, 0.2, 0.4, 0.6]
    x2 = [0.0] * 5
    for e in range(5):
        x2[perm[e]] = x[e]
    a_mask = 0b00101
    a2 = 0
    for e in ids_of(a_mask):
        a2 |= 1 << perm[e]
    p1 = span_probabilities(m, x, a_mask)
    p2 = span_probabilities(m2, x2, a2)
    for e in range(5):
        assert p1[e] == pytest.approx(p2[perm[e]])


def test_classify_restriction_ignores_marginals_off_ground(u24):
    # U_{2,4}|{0,1,2} is U_{2,3}: Pr[0 ∈ span R] = 0.3 + 0.7 * 0.3^2, and
    # the marginal of element 3, outside the ground set, plays no part.
    p = span_probabilities(u24.restrict(0b0111), [0.3, 0.3, 0.3, 0.9], 0)
    assert p[0] == pytest.approx(0.363)
    assert p[3] == 0.0


def test_classify_rejects_wrong_length_marginals(u24):
    with pytest.raises(ValueError, match="universe size"):
        span_probabilities(u24, [0.2] * 3, 0)
    with pytest.raises(ValueError, match="universe size"):
        span_probabilities(u24, [0.2] * 5, 0)
    # x is checked whatever the base holds
    with pytest.raises(ValueError, match="universe size"):
        span_probabilities(u24, [0.2] * 3, 0b1000)


def test_classify_theta39_closed_forms():
    # Theta graph: edge f = (0, 1) plus 19 two-edge 0-1 paths, x on the path
    # edges and x_f = 0.  f is spanned iff some path is fully active; a path
    # edge iff it is active, or its sibling and some other path are.
    theta = GraphicMatroid(21, [(0, 1)] + [e for w in range(2, 21) for e in ((0, w), (w, 1))])
    xv, samples = 0.3, 40_000
    x = np.full(39, xv)
    x[0] = 0.0
    expected = {
        0: 1 - (1 - xv**2) ** 19,
        1: xv + (1 - xv) * xv * (1 - (1 - xv**2) ** 18),
    }
    z = bonferroni_z(len(expected))
    for e, p in expected.items():
        got = span_probabilities(theta, x, 0, RngStream(39, e).generator(), samples)[e]
        assert abs(got - p) <= z * math.sqrt(p * (1 - p) / samples)
        # the sampled probability lands on the closed form's side of tau = 0.5
        assert (got > 0.5) == (p > 0.5)
    with pytest.raises(ValueError, match="pass rng and samples"):
        span_probabilities(theta, x, 0)


# -- in-link loss ---------------------------------------------------------------


def test_in_link_loss_zero_marginals_passes(u24):
    rep = verify_in_link_loss(
        u24, np.zeros(4), 0.5, 0.05, 40, RngStream(2), overrides=FAST
    )
    assert rep.passed
    assert all(v == 0.0 for v in rep.meta["bad_rate"].values())


def test_in_link_loss_smoke_passes(u24):
    rep = verify_in_link_loss(
        u24, [0.25] * 4, 0.54, 0.05, 150, RngStream(3), overrides=FAST
    )
    assert rep.passed
    assert len(rep.checks) == 4


def test_in_link_loss_vacuous_when_link_absorbs_everything(u12):
    # certain activations put every element into A, so nothing is ever
    # classified good or bad
    rep = verify_in_link_loss(
        u12, [1.0, 1.0], 0.9, 0.05, 30, RngStream(14), overrides=FAST
    )
    assert rep.passed
    assert all(rate == 0.0 for rate in rep.meta["bad_rate"].values())
    assert all(rate == 0.0 for rate in rep.meta["good_rate"].values())


def test_in_link_loss_broken_builder_fails(u12):
    # a builder that never captures anything leaves both elements bad with
    # probability one, violating the in-link loss bound
    def broken(m, x, params, rng):
        trace = LinkTrace(h_bar=1, a_sets=(0,), draws=params.q, ground_mask=m.ground_mask)
        return 0, trace

    rep = verify_in_link_loss(
        u12, [0.6, 0.6], 0.5, 0.05, 60, RngStream(4), builder=broken, overrides=FAST
    )
    assert not rep.passed
    assert all(rate == 1.0 for rate in rep.meta["bad_rate"].values())


@pytest.mark.parametrize("cpus", [1, 2])
def test_in_link_loss_plan_link_matches_single_ocrs_link(u24, k4, monkeypatch, cpus):
    # The default builder, ChainPlan.link, and single_ocrs_link, which the
    # benchmark's tracer injects, give the same report on any number of
    # workers: on U_{2,4}, where links grow, and on K4, where elements are
    # bad in 15-19% of the trials.
    monkeypatch.setattr(workers, "cpus", lambda: cpus)
    overrides = ParamOverrides(q=60, eta=20)
    for m, x, tau, trials, seed in ((u24, 0.25, 0.39, 200, 39), (k4, 0.2, 0.3, 300, 601)):
        x = [x] * m.n_universe
        default, injected = (
            verify_in_link_loss(
                m, x, tau, 0.05, trials, RngStream(seed), builder=builder, overrides=overrides
            ).to_jsonable()
            for builder in (None, single_ocrs_link)
        )
        assert default == injected
        bad, good = default["meta"]["bad_rate"], default["meta"]["good_rate"]
        assert min(bad.values()) > 0.0
        assert any(bad[e] + good[e] < 1.0 for e in bad)  # some link holds e


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_in_link_loss_raises_the_error_of_the_lowest_failing_trial(u12, monkeypatch, cpus):
    # Trials 3, 4 and 7 raise, trial 3 after the others have had time to.
    # On any number of workers the caller gets trial 3's error, as a loop
    # over the trials in order would give, and no trial is claimed once a
    # failure is recorded.
    monkeypatch.setattr(workers, "cpus", lambda: cpus)
    started = []

    def failing(m, x, params, rng):
        t = int(rng.bit_generator.state["state"]["key"][1]) - 1  # substream t
        started.append(t)
        time.sleep(0.05 if t == 3 else 0.0 if t in (4, 7) else 0.01)
        if t in (3, 4, 7):
            raise RuntimeError(f"trial {t} failed")
        return 0, LinkTrace(h_bar=1, a_sets=(0,), draws=params.q, ground_mask=m.ground_mask)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with pytest.raises(RuntimeError, match="trial 3 failed"):
            verify_in_link_loss(
                u12, [0.6, 0.6], 0.5, 0.05, 40, RngStream(4), builder=failing, overrides=FAST
            )
    finally:
        sys.setswitchinterval(interval)
    # Trials 0-3 ran; the other workers claimed at most one trial each
    # after trial 3.
    assert set(range(4)) <= set(started)
    assert len(started) == len(set(started)) and max(started) <= 3 + cpus - 1


def test_in_link_loss_preconditions(u12):
    with pytest.raises(ValueError):
        verify_in_link_loss(u12, [0.1, 0.1], 0.04, 0.05, 5, RngStream(0))


# -- progress --------------------------------------------------------------------


def test_progress_zero_marginals(u24):
    rep = verify_progress(u24, np.zeros(4), 0.5, 0.7, 0.05, 30, RngStream(5), FAST)
    assert rep.passed
    assert rep.checks[0].measured == 0.0


def test_progress_bound_formula_value():
    m = UniformMatroid(4, 8)
    rep = verify_progress(
        m, np.zeros(8), 0.5, 0.7, 0.05, 5, RngStream(6), FAST
    )
    assert rep.checks[0].bound == pytest.approx((1 + 0.5 - (1 - 3 * 0.05) * 0.7) * 4)
    assert rep.checks[0].bound == pytest.approx(3.62)


def test_progress_rejects_marginals_outside_polytope(u12):
    with pytest.raises(ValueError):
        verify_progress(u12, [0.6, 0.6], 0.5, 0.7, 0.05, 5, RngStream(7), FAST)


def test_progress_graphic_smoke(k4):
    x = np.zeros(6)
    x[:3] = 0.5
    rep = verify_progress(k4, x, 0.5, 0.7, 0.05, 100, RngStream(8), FAST)
    assert rep.passed


# -- spanning and freeness --------------------------------------------------------


def test_spanning_zero_marginals(k4):
    rep = verify_spanning(k4, np.zeros(6), 0.5, 0.05, 25, RngStream(9), FAST)
    assert rep.passed
    assert rep.checks[0].measured == 1.0


def test_spanning_rank_one_tiny_marginals(u12):
    rep = verify_spanning(u12, [0.05, 0.05], 0.5, 0.05, 40, RngStream(10), FAST)
    assert rep.passed


def test_freeness_likely_zero_marginals(u24):
    rep = verify_freeness_likely(u24, np.zeros(4), 0.5, 0.05, 25, RngStream(11), FAST)
    assert rep.passed


def test_freeness_likely_single_element():
    m = UniformMatroid(1, 1)
    rep = verify_freeness_likely(m, [0.4], 0.4, 0.05, 30, RngStream(12), FAST)
    assert rep.passed


def test_freeness_likely_u24(u24):
    rep = verify_freeness_likely(u24, [0.125] * 4, 0.5, 0.05, 150, RngStream(13), FAST)
    assert rep.passed


def test_level_freeness_matches_chain_freeness(u24, k4):
    # One oracle call per level gives every element of the level the
    # freeness that chain_freeness computes for it alone.
    rng = np.random.default_rng(77)
    for m in (u24, k4):
        n = m.n_universe
        for _ in range(5):
            x = rng.uniform(0.0, 0.9, n)
            links = [full_mask(n)]
            while links[-1]:
                links.append(links[-1] & int(rng.integers(0, 1 << n)))
            chain = SpanningChain(tuple(links))
            for i in range(len(links) - 1):
                free = _level_freeness(m, x, links[i], links[i + 1])
                for e in ids_of(links[i] & ~links[i + 1]):
                    assert free[e] == pytest.approx(chain_freeness(m, x, chain, e), abs=1e-12)


# -- T_alpha -----------------------------------------------------------------------


def test_t_alpha_b_equals_ground(u24):
    res = brute_force_T_alpha(u24, [0.3] * 4, 0b1111, Fraction(2, 5))
    assert res.t_mask == 0b1111
    assert res.objective == 0


def test_t_alpha_all_ones_marginals(u24):
    # R = N surely, so the expectation term vanishes and the objective is
    # the rank gain over B; any basis extension attains it
    res = brute_force_T_alpha(u24, [1.0] * 4, 0, Fraction(2, 5))
    assert res.objective == Fraction(2)
    assert u24.rank(res.t_mask) == 2
    exp_term = 0  # E[r(T | B ∪ R)] with R = N is zero
    assert res.objective == u24.rank(res.t_mask) - exp_term


def test_t_alpha_contains_b_and_bullets(u24):
    rng = np.random.default_rng(21)
    for _ in range(10):
        b_mask = int(rng.integers(0, 16))
        alpha = Fraction(int(rng.integers(0, 8)), 10)
        x = [Fraction(int(rng.integers(0, 9)), 8) for _ in range(4)]
        res = brute_force_T_alpha(u24, x, b_mask, alpha)
        assert res.t_mask & b_mask == b_mask
        first, _ = t_alpha_bullets_hold(u24, x, res)
        assert first
        for q_mask in submasks(u24.ground_mask & ~res.t_mask):
            _, second = t_alpha_bullets_hold(u24, x, res, q_mask)
            assert second


def test_t_alpha_random_explicit_instance():
    rng = np.random.default_rng(33)
    m = random_explicit_matroid(rng, 6)
    x = [Fraction(int(rng.integers(0, 5)), 8) for _ in range(6)]
    res = brute_force_T_alpha(m, x, 0b000011, Fraction(2, 5))
    first, _ = t_alpha_bullets_hold(m, x, res)
    assert first
    for _ in range(100):
        q_mask = int(rng.integers(0, 64)) & (m.ground_mask & ~res.t_mask)
        _, second = t_alpha_bullets_hold(m, x, res, q_mask)
        assert second
    rep = verify_t_alpha(m, x, 0b000011, Fraction(2, 5), 50, rng)
    assert rep.passed


def test_verify_t_alpha_builds_its_tables_once(monkeypatch):
    # One verdict runs the realization loop, reads the rank table, checks
    # the first bullet and looks up the spans of T ∪ R once, whatever
    # q_trials, and gives the verdict of the per-call checks.
    from chainocrs import verify

    m, x, b_mask, alpha = UniformMatroid(4, 10), [0.3] * 10, 0b11, Fraction(1, 5)
    res = brute_force_T_alpha(m, x, b_mask, alpha)
    rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
    failures = 0
    for _ in range(20):
        q_mask = sum(1 << e for e in ids_of(m.ground_mask & ~res.t_mask) if ref_rng.random() < 0.5)
        failures += not t_alpha_bullets_hold(m, x, res, q_mask)[1]
    builds = []
    real = verify.realization_products
    monkeypatch.setattr(verify, "realization_products", lambda *a: builds.append(1) or real(*a))
    firsts, lookups = [], []
    real_first, real_lookup = verify._first_bullet, m.span_lookup
    monkeypatch.setattr(verify, "_first_bullet", lambda *a: firsts.append(1) or real_first(*a))
    monkeypatch.setattr(m, "span_lookup", lambda: lookups.append(1) or real_lookup())
    rep = verify_t_alpha(m, x, b_mask, alpha, 20, rng)
    assert len(builds) == len(firsts) == len(lookups) == 1
    assert rep.meta["T"] == ids_of(res.t_mask)
    assert rep.checks[1].measured == float(not t_alpha_bullets_hold(m, x, res)[0])
    assert rep.checks[2].measured == failures
    assert rng.random() == ref_rng.random()


def test_t_alpha_ground_smaller_than_universe():
    # Element 2 of the universe lies outside the ground set.  The oracle and
    # the verdict equal those of the instance relabeled onto {0, 1, 2},
    # with and without a zero marginal on the ground set.
    m = PartitionMatroid([[0, 1], [3]], [1, 1])
    full = PartitionMatroid([[0, 1], [2]], [1, 1])
    label = {0: 0, 1: 1, 3: 2}
    for x1 in (Fraction(1, 2), Fraction(0)):
        x = [Fraction(1, 3), x1, Fraction(0), Fraction(3, 4)]
        x_full = [x[0], x[1], x[3]]
        for b_ids in ([], [0], [3], [1, 3]):
            b_full = mask_of(label[e] for e in b_ids)
            for alpha in (Fraction(0), Fraction(2, 5), Fraction(4, 5)):
                res = brute_force_T_alpha(m, x, mask_of(b_ids), alpha)
                ref = brute_force_T_alpha(full, x_full, b_full, alpha)
                assert [label[e] for e in ids_of(res.t_mask)] == ids_of(ref.t_mask)
                assert res.objective == ref.objective
                rep = verify_t_alpha(m, x, mask_of(b_ids), alpha, 10, np.random.default_rng(3))
                ref_rep = verify_t_alpha(full, x_full, b_full, alpha, 10, np.random.default_rng(3))
                assert rep.passed and ref_rep.passed
                assert [c.measured for c in rep.checks] == [c.measured for c in ref_rep.checks]
    with pytest.raises(ValueError, match="outside the ground set: 2"):
        brute_force_T_alpha(m, [0, 0, Fraction(1, 4), 0], 0, Fraction(1, 2))
    with pytest.raises(ValueError, match="outside the ground set: 2"):
        verify_t_alpha(m, [0, 0, Fraction(1, 4), 0], 0, Fraction(1, 2), 10, np.random.default_rng(3))


def test_t_alpha_refuses_large():
    with pytest.raises(ValueError):
        brute_force_T_alpha(UniformMatroid(3, 13), [0.1] * 13, 0, 0.3)


def test_t_alpha_tie_break_smallest():
    # with alpha = 0 and x = 0 the objective is zero for every candidate,
    # so tie-breaking must return B itself
    res = brute_force_T_alpha(UniformMatroid(2, 4), [0] * 4, 0b0010, 0)
    assert res.t_mask == 0b0010


def test_t_alpha_tie_break_lexicographic():
    # x = 1 ties every rank-2 extension of B; lexicographically first wins
    res = brute_force_T_alpha(UniformMatroid(2, 4), [1.0] * 4, 0b1000, Fraction(1, 2))
    assert res.t_mask == 0b1001  # {0, 3} beats {1, 3} and {2, 3}


# -- audit --------------------------------------------------------------------------


def _trace(rho, zeta, q, eta, h_bars, conforming=True):
    links = tuple(
        LinkTrace(h_bar=h, a_sets=(0,) * h, draws=h * q, ground_mask=0) for h in h_bars
    )
    params = LinkParams(rho=rho, threshold=0.5, eps=0.05, q=q, eta=eta)
    return BuildTrace(params=params, zeta=zeta, conforming=conforming, sampled=links)


def test_audit_single_link_draws():
    tr = _trace(8, 1, 100, 5, [1])
    assert tr.draw_count == 100
    table = sample_complexity_audit([tr])
    assert table.rows[0].bound_ok
    assert table.band is None


def test_audit_draw_bound_and_band():
    t1 = _trace(8, 3, 100, 5, [5, 5, 5])
    t2 = _trace(64, 4, 120, 6, [6, 6, 6, 6])
    table = sample_complexity_audit([t1, t2])
    assert table.bounds_ok
    assert table.band == pytest.approx(
        max(r.ratio for r in table.rows) / min(r.ratio for r in table.rows)
    )


def test_audit_rejects_nonconforming():
    with pytest.raises(ValueError):
        sample_complexity_audit([_trace(8, 1, 10, 5, [1], conforming=False)])


def test_verify_check_directions():
    assert VerifyCheck("a", 1.0, 2.0, 0.0, "<=").passed
    assert not VerifyCheck("a", 3.0, 2.0, 0.5, "<=").passed
    assert VerifyCheck("a", 2.0, 2.0, 0.0, ">=").passed
    assert not VerifyCheck("a", 1.0, 2.0, 0.5, ">=").passed
