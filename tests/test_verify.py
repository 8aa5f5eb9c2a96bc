import math
from fractions import Fraction

import numpy as np
import pytest

from chainocrs import (
    GraphicMatroid,
    ParamOverrides,
    RngStream,
    SpanningChain,
    UniformMatroid,
    brute_force_T_alpha,
    chain_freeness,
    classify_element,
    random_explicit_matroid,
    sample_complexity_audit,
    t_alpha_bullets_hold,
    verify_freeness_likely,
    verify_in_link_loss,
    verify_progress,
    verify_spanning,
    verify_t_alpha,
)
from chainocrs.bitset import full_mask, ids_of, submasks
from chainocrs.chains import BuildTrace, LinkTrace
from chainocrs.stats import bonferroni_z
from chainocrs.verify import VerifyCheck, _level_freeness

FAST = ParamOverrides(q=150, eta=8, zeta=6)


# -- classification ------------------------------------------------------------


def test_classify_member(u24):
    v = classify_element(u24, [0.2] * 4, 0b0001, 0.5, 0)
    assert v.status == "member" and v.spanning_probability is None


def test_classify_good_on_zero_marginals(u24):
    v = classify_element(u24, np.zeros(4), 0, 0.2, 1)
    assert v.status == "good"
    assert v.spanning_probability == pytest.approx(0.0)


def test_classify_bad_u12(u12):
    # R(x) includes e itself, so Pr[0 ∈ span(R)] = 1 - 0.4^2
    v = classify_element(u12, [0.6, 0.6], 0, 0.5, 0)
    assert v.status == "bad"
    assert v.spanning_probability == pytest.approx(0.84)


def test_classify_invariant_under_relabeling():
    # verdicts commute with element relabeling
    rng = np.random.default_rng(55)
    m = random_explicit_matroid(rng, 5)
    perm = [int(v) for v in rng.permutation(5)]
    relabeled = [
        [perm[e] for e in ids_of(mask)] for mask in m.independent
    ]
    from chainocrs import ExplicitMatroid

    m2 = ExplicitMatroid(5, relabeled)
    x = [0.3, 0.5, 0.2, 0.4, 0.6]
    x2 = [0.0] * 5
    for e in range(5):
        x2[perm[e]] = x[e]
    a_mask = 0b00101
    a2 = 0
    for e in ids_of(a_mask):
        a2 |= 1 << perm[e]
    for e in range(5):
        v1 = classify_element(m, x, a_mask, 0.45, e)
        v2 = classify_element(m2, x2, a2, 0.45, perm[e])
        assert v1.status == v2.status
        if v1.spanning_probability is not None:
            assert v1.spanning_probability == pytest.approx(v2.spanning_probability)


def test_classify_partition_exhaustive(u24):
    # good/bad/member partition the ground set
    x = [0.5, 0.4, 0.3, 0.6]
    for a_mask in (0, 0b0101):
        statuses = {}
        for e in range(4):
            v = classify_element(u24, x, a_mask, 0.45, e)
            statuses[e] = v.status
        members = {e for e in range(4) if (a_mask >> e) & 1}
        assert {e for e, s in statuses.items() if s == "member"} == members


def test_classify_restriction_ignores_marginals_off_ground(u24):
    # U_{2,4}|{0,1,2} is U_{2,3}: Pr[0 ∈ span R] = 0.3 + 0.7 * 0.3^2, and
    # the marginal of element 3, outside the ground set, plays no part.
    v = classify_element(u24.restrict(0b0111), [0.3, 0.3, 0.3, 0.9], 0, 0.5, 0)
    assert v.status == "good"
    assert v.spanning_probability == pytest.approx(0.363)


def test_classify_rejects_wrong_length_marginals(u24):
    with pytest.raises(ValueError, match="universe size"):
        classify_element(u24, [0.2] * 3, 0, 0.5, 3)
    with pytest.raises(ValueError, match="universe size"):
        classify_element(u24, [0.2] * 5, 0, 0.5, 0)
    # x is checked for a member of A too, whose verdict needs no probability
    with pytest.raises(ValueError, match="universe size"):
        classify_element(u24, [0.2] * 3, 0b1000, 0.5, 3)


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
        v = classify_element(theta, x, 0, 0.5, e, RngStream(39, e).generator(), samples)
        assert abs(v.spanning_probability - p) <= z * math.sqrt(p * (1 - p) / samples)
        assert v.status == ("bad" if p > 0.5 else "good")
    with pytest.raises(ValueError, match="pass rng and samples"):
        classify_element(theta, x, 0, 0.5, 0)


# -- in-link loss ---------------------------------------------------------------


def test_in_link_loss_zero_marginals_passes(u24):
    rep = verify_in_link_loss(
        u24, np.zeros(4), 3, 0.5, 0.05, 40, RngStream(2), overrides=FAST
    )
    assert rep.passed
    assert all(v == 0.0 for v in rep.meta["bad_rate"].values())


def test_in_link_loss_smoke_passes(u24):
    rep = verify_in_link_loss(
        u24, [0.25] * 4, 3, 0.54, 0.05, 150, RngStream(3), overrides=FAST
    )
    assert rep.passed
    assert len(rep.checks) == 4


def test_in_link_loss_vacuous_when_link_absorbs_everything(u12):
    # certain activations put every element into A, so nothing is ever
    # classified good or bad
    rep = verify_in_link_loss(
        u12, [1.0, 1.0], 3, 0.9, 0.05, 30, RngStream(14), overrides=FAST
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
        u12, [0.6, 0.6], 3, 0.5, 0.05, 60, RngStream(4), builder=broken, overrides=FAST
    )
    assert not rep.passed
    assert all(rate == 1.0 for rate in rep.meta["bad_rate"].values())


def test_in_link_loss_preconditions(u12):
    with pytest.raises(ValueError):
        verify_in_link_loss(u12, [0.1, 0.1], 2, 0.5, 0.05, 5, RngStream(0))
    with pytest.raises(ValueError):
        verify_in_link_loss(u12, [0.1, 0.1], 3, 0.04, 0.05, 5, RngStream(0))


# -- progress --------------------------------------------------------------------


def test_progress_zero_marginals(u24):
    rep = verify_progress(u24, np.zeros(4), 0.5, 3, 0.7, 0.05, 30, RngStream(5), FAST)
    assert rep.passed
    assert rep.checks[0].measured == 0.0


def test_progress_bound_formula_value():
    m = UniformMatroid(4, 8)
    rep = verify_progress(
        m, np.zeros(8), 0.5, 4, 0.7, 0.05, 5, RngStream(6), FAST
    )
    assert rep.checks[0].bound == pytest.approx((1 + 0.5 - (1 - 3 * 0.05) * 0.7) * 4)
    assert rep.checks[0].bound == pytest.approx(3.62)


def test_progress_rejects_marginals_outside_polytope(u12):
    with pytest.raises(ValueError):
        verify_progress(u12, [0.6, 0.6], 0.5, 3, 0.7, 0.05, 5, RngStream(7), FAST)


def test_progress_graphic_smoke(k4):
    x = np.zeros(6)
    x[:3] = 0.5
    rep = verify_progress(k4, x, 0.5, 3, 0.7, 0.05, 100, RngStream(8), FAST)
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
    return BuildTrace(
        rho=rho, zeta=zeta, q=q, eta=eta, threshold=0.5, eps=0.05,
        conforming=conforming, sampled=links,
    )


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
