import math

import numpy as np
import pytest

from chainocrs import workers
from chainocrs import (
    PartitionMatroid,
    RngStream,
    SpanningChain,
    UniformMatroid,
    as_marginals,
    chain_ocrs_trial,
    element_last_accepts,
    run_selection,
    selectability_experiment,
    worst_case_order,
)
from chainocrs.bitset import ids_of, iter_ids, submasks
from chainocrs.chains import ParamOverrides
from chainocrs.stats import wilson_interval

FAST = ParamOverrides(q=150, eta=8, zeta=6)


def reference_greedy(m, chain, order):
    """Independent reimplementation: direct rank arithmetic, no minors."""
    accepted = {i: 0 for i in range(len(chain) - 1)}
    for e in order:
        i = max(j for j in range(len(chain.links)) if (chain.links[j] >> e) & 1)
        cand = accepted[i] | (1 << e)
        c_next = chain.links[i + 1]
        if m.rank(cand | c_next) - m.rank(c_next) == cand.bit_count():
            accepted[i] = cand
    out = 0
    for a in accepted.values():
        out |= a
    return out


# -- greedy rule --------------------------------------------------------------


def test_greedy_rank_one(u12):
    chain = SpanningChain((0b11, 0))
    assert run_selection(u12, chain, 0b11, [0, 1]) == 0b01
    assert run_selection(u12, chain, 0b11, [1, 0]) == 0b10


def test_greedy_first_arrival_outside_next_span(k3):
    chain = SpanningChain((0b111, 0b100, 0))
    # Edge 0 is not spanned by C_1 = {edge 2}; edge 1 is rejected at level
    # 0, since {0, 1} is dependent over C_1, and edge 2 is accepted alone at
    # level 1.
    assert run_selection(k3, chain, 0b001, [0]) == 0b001
    assert run_selection(k3, chain, 0b111, [0, 1, 2]) == 0b101


def test_greedy_triangle(k3):
    chain = SpanningChain((0b111, 0))
    assert run_selection(k3, chain, 0b111, [0, 1, 2]) == 0b011


def test_run_selection_degenerate(u24):
    chain = SpanningChain((0b1111, 0))
    assert run_selection(u24, chain, 0, []) == 0
    assert run_selection(u24, chain, 0b0100, [2]) == 0b0100
    with pytest.raises(ValueError):
        run_selection(u24, chain, 0b0011, [0])


def test_run_selection_matches_reference(k4, u24):
    rng = np.random.default_rng(5)
    matroids = [k4, u24, PartitionMatroid([[0, 1, 2], [3, 4]], [2, 1])]
    for m in matroids:
        g = m.ground_mask
        mid = 0
        for e in iter_ids(g):
            if rng.random() < 0.5:
                mid |= 1 << e
        chains = [SpanningChain((g, 0)), SpanningChain((g, mid, 0))]
        for chain in chains:
            for _ in range(25):
                actives = int(rng.integers(0, g + 1)) & g
                order = [int(e) for e in rng.permutation(ids_of(actives))]
                assert run_selection(m, chain, actives, order) == reference_greedy(
                    m, chain, order
                )


def test_accepted_stays_independent_every_prefix(k4):
    chain = SpanningChain((k4.ground_mask, 0b000111, 0))
    rng = np.random.default_rng(9)
    for _ in range(30):
        actives = int(rng.integers(0, k4.ground_mask + 1))
        order = [int(e) for e in rng.permutation(ids_of(actives))]
        # run_selection itself asserts independence after every arrival
        accepted = run_selection(k4, chain, actives, order)
        assert k4.is_independent(accepted)


def test_level_locality(k4):
    # permuting arrivals in other levels never changes an element's decision
    chain = SpanningChain((k4.ground_mask, 0b111000, 0))
    rng = np.random.default_rng(13)
    for _ in range(20):
        actives = int(rng.integers(1, k4.ground_mask + 1))
        target = ids_of(actives)[0]
        level = chain.level_of(target)
        same_level = [
            e for e in ids_of(actives)
            if chain.level_of(e) == level and e != target
        ]
        others = [e for e in ids_of(actives) if chain.level_of(e) != level]
        base_order = same_level + [target] + others
        base = (run_selection(k4, chain, actives, base_order) >> target) & 1
        for _ in range(5):
            shuffled = [int(e) for e in rng.permutation(others)]
            order = same_level + [target] + shuffled
            assert ((run_selection(k4, chain, actives, order) >> target) & 1) == base


# -- adversaries --------------------------------------------------------------


def test_worst_case_order_singleton(u12):
    chain = SpanningChain((0b11, 0))
    assert worst_case_order(u12, chain, 0b01, 0) == (0,)


def test_worst_case_order_element_last(u12):
    chain = SpanningChain((0b11, 0))
    assert worst_case_order(u12, chain, 0b11, 0) == (1, 0)


def test_worst_case_order_exhaustive_limit(u12):
    chain = SpanningChain((0b11, 0))
    with pytest.raises(ValueError):
        worst_case_order(
            UniformMatroid(4, 8), SpanningChain(((1 << 8) - 1, 0)), (1 << 8) - 1, 0,
            mode="exhaustive-worst",
        )


def test_element_last_equals_exhaustive_and_freeness_event(k3, u24):
    cases = [(k3, [0, 0b010, 0b110]), (u24, [0, 0b0001, 0b0110])]
    for m, mids in cases:
        for mid in mids:
            chain = SpanningChain((m.ground_mask, mid, 0))
            for actives in submasks(m.ground_mask):
                for target in ids_of(actives):
                    last = element_last_accepts(m, chain, actives, target)
                    order = worst_case_order(m, chain, actives, target, "element-last")
                    replay = (run_selection(m, chain, actives, order) >> target) & 1
                    assert bool(replay) == last
                    worst = worst_case_order(m, chain, actives, target, "exhaustive-worst")
                    worst_out = (run_selection(m, chain, actives, worst) >> target) & 1
                    assert bool(worst_out) == last


# -- filtered trials -----------------------------------------------------------


def test_trial_lambda_one_singleton():
    m = UniformMatroid(1, 1)
    chain = SpanningChain((0b1, 0))
    out = chain_ocrs_trial(
        m, as_marginals([1.0]), 1.0, chain, "element-last",
        RngStream(1).generator(),
    )
    assert out.active_mask == 0b1 and out.selected_mask == 0b1


def test_trial_lambda_zero(u12):
    chain = SpanningChain((0b11, 0))
    for t in range(20):
        out = chain_ocrs_trial(
            u12, as_marginals([0.9, 0.9]), 0.0, chain, "element-last",
            RngStream(2, t).generator(),
        )
        assert out.kept_mask == 0 and out.selected_mask == 0


def test_trial_conditional_frequency_u12(u12):
    # fixed chain (N, ∅), lambda = 1: Pr[select 0 | 0 active] = Pr[1 inactive] = 0.7
    chain = SpanningChain((0b11, 0))
    x = as_marginals([0.3, 0.3])
    trials = 20_000
    act = sel = 0
    for t in range(trials):
        out = chain_ocrs_trial(
            u12, x, 1.0, chain, "element-last", RngStream(3, t).generator()
        )
        if out.active_mask & 1:
            act += 1
            sel += out.selected_mask & 1
    p = sel / act
    sigma = math.sqrt(0.7 * 0.3 / act)
    assert abs(p - 0.7) <= 3 * sigma


def test_trial_filtered_frequency_matches_exact(u12):
    # fixed chain, lambda = 0.5: exact conditional probability enumerates the
    # thinning coin and the other element's activation:
    # lambda * (1 - x_other * lambda) = 0.5 * (1 - 0.125)
    chain = SpanningChain((0b11, 0))
    x = as_marginals([0.25, 0.25])
    exact = 0.5 * (1 - 0.25 * 0.5)
    trials = 20_000
    act = sel = 0
    for t in range(trials):
        out = chain_ocrs_trial(
            u12, x, 0.5, chain, "element-last", RngStream(14, t).generator()
        )
        if out.active_mask & 1:
            act += 1
            sel += out.selected_mask & 1
    sigma = math.sqrt(exact * (1 - exact) / act)
    assert abs(sel / act - exact) <= 3 * sigma


def test_trial_adversaries_consistency(u24):
    chain = SpanningChain((0b1111, 0b1100, 0))
    x = as_marginals([0.5] * 4)
    for t in range(10):
        for adversary in ("element-last", "exhaustive-worst", "random-order"):
            out = chain_ocrs_trial(
                u24, x, 0.8, chain, adversary, RngStream(4, t).generator()
            )
            assert out.selected_mask & ~out.kept_mask == 0
            assert out.kept_mask & ~out.active_mask == 0
            assert u24.is_independent(out.selected_mask)


def test_selectability_vacuous_on_zero_marginals(u12):
    rep = selectability_experiment(
        u12, np.zeros(2), 0.5, 0.05, 20, "element-last", RngStream(6), FAST
    )
    assert rep.min_frequency() is None
    assert rep.floor_holds()
    assert all(s.activations == 0 for s in rep.per_element)


def test_selectability_report_fields(u12):
    rep = selectability_experiment(
        u12, as_marginals([0.25, 0.25]), 0.5, 0.05, 300, "element-last",
        RngStream(7), FAST,
    )
    data = rep.to_jsonable()
    assert data["theoretical_floor"] == pytest.approx(0.05)
    assert {"element_id", "activations", "selections", "frequency", "ci_low", "ci_high"} <= set(
        data["per_element"][0]
    )
    for row in data["per_element"]:
        if row["frequency"] is not None:
            assert 0.0 <= row["ci_low"] <= row["frequency"] <= row["ci_high"] <= 1.0
    assert rep.draw_count > 0
    assert rep.floor_holds()


def test_selectability_repeat_run_is_identical(u12):
    x = as_marginals([0.25, 0.25])
    a = selectability_experiment(u12, x, 0.5, 0.05, 40, "element-last", RngStream(8), FAST)
    b = selectability_experiment(u12, x, 0.5, 0.05, 40, "element-last", RngStream(8), FAST)
    assert a.to_jsonable() == b.to_jsonable()


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_selectability_builds_one_philox_per_worker(k3, monkeypatch, cpus):
    # Each worker builds one generator and re-keys it per trial; the
    # report is the one-CPU report.
    def run():
        return selectability_experiment(
            k3, [1 / 3] * 3, 0.5, 0.05, 50, "element-last", RngStream(12)
        ).to_jsonable()

    monkeypatch.setattr(workers, "cpus", lambda: 1)
    expected = run()
    built = []

    class Philox(np.random.Philox):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", Philox)
    monkeypatch.setattr(workers, "cpus", lambda: cpus)
    assert run() == expected
    assert 1 <= len(built) <= cpus


def test_selectability_domain_errors(u12):
    with pytest.raises(ValueError):
        selectability_experiment(u12, np.zeros(2), 0.9, 0.05, 5, "element-last", RngStream(0))
    with pytest.raises(ValueError):
        selectability_experiment(u12, np.zeros(2), 0.5, 0.5, 5, "element-last", RngStream(0))


def test_wilson_interval_basics():
    lo, hi = wilson_interval(5, 10)
    assert 0.0 <= lo <= 0.5 <= hi <= 1.0
    assert wilson_interval(0, 0) == (0.0, 1.0)
    with pytest.raises(ValueError):
        wilson_interval(5, 3)
