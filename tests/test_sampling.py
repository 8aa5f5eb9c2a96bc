import math
from collections import Counter

import numpy as np
import pytest

from chainocrs import (
    RngStream,
    UniformMatroid,
    as_marginals,
    exact_event_probability,
    filter_actives,
    in_scaled_polytope,
    sample_active_set,
    scale,
)
from chainocrs.bitset import full_mask


def _draws(x, q, stream):
    rng = stream.generator()
    return [sample_active_set(x, rng) for _ in range(q)]


def _frequency(x, q, stream, pred):
    """Share of q draws satisfying pred, evaluated once per distinct draw."""
    return sum(c for mask, c in Counter(_draws(x, q, stream)).items() if pred(mask)) / q


def test_stream_determinism():
    a = _draws(as_marginals([0.5] * 6), 50, RngStream(42, 3))
    b = _draws(as_marginals([0.5] * 6), 50, RngStream(42, 3))
    assert a == b
    c = _draws(as_marginals([0.5] * 6), 50, RngStream(42, 4))
    assert a != c


def test_sample_active_set_degenerate():
    rng = RngStream(1).generator()
    assert sample_active_set(as_marginals([0.0, 0.0]), rng) == 0
    assert sample_active_set(as_marginals([1.0, 1.0, 1.0]), rng) == 0b111


def test_sample_active_set_frequency():
    x = as_marginals([0.5] * 4)
    rng = RngStream(7).generator()
    trials = 100_000
    counts = np.zeros(4)
    for _ in range(trials):
        mask = sample_active_set(x, rng)
        for e in range(4):
            counts[e] += (mask >> e) & 1
    freq = counts / trials
    assert np.all(np.abs(freq - 0.5) < 0.01)


def test_exact_event_probability_basics():
    x = as_marginals([0.3, 0.7])
    assert exact_event_probability(x, lambda m: True) == pytest.approx(1.0)
    assert exact_event_probability(x, lambda m: bool(m & 1)) == pytest.approx(0.3)
    assert exact_event_probability(
        as_marginals([0.5, 0.5]), lambda m: m != 0
    ) == pytest.approx(0.75)


def test_exact_event_probability_refuses_large():
    with pytest.raises(ValueError):
        exact_event_probability(as_marginals([0.5] * 21), lambda m: True)


def test_empirical_converges_to_exact_span_event():
    # event: element 2 in span(A ∪ R) for U_{2,4} with A = {0}
    m = UniformMatroid(2, 4)
    a_mask = 0b0001
    x = as_marginals([0.35, 0.25, 0.15, 0.45])

    def pred(r_mask):
        return bool((m.span((a_mask | r_mask) & m.ground_mask) >> 2) & 1)

    p = exact_event_probability(x, pred)
    q = 100_000
    p_hat = _frequency(x, q, RngStream(3), pred)
    sigma = math.sqrt(p * (1 - p) / q)
    assert abs(p_hat - p) < 3 * sigma


def test_scale():
    x = as_marginals([0.6, 0.8])
    assert np.allclose(scale(x, 0.5), [0.3, 0.4])
    assert np.allclose(scale(x, 1.0), x)
    assert np.allclose(scale(x, 0.0), [0.0, 0.0])
    with pytest.raises(ValueError):
        scale(x, 1.5)


def test_in_scaled_polytope():
    u12 = UniformMatroid(1, 2)
    assert in_scaled_polytope(u12, as_marginals([0.0, 0.0]), 0.0)
    assert in_scaled_polytope(u12, as_marginals([0.3, 0.3]), 0.6)
    assert not in_scaled_polytope(u12, as_marginals([0.3, 0.3]), 0.5)
    u24 = UniformMatroid(2, 4)
    assert in_scaled_polytope(u24, as_marginals([0.25] * 4), 0.5)


def test_filter_actives_degenerate():
    rng = RngStream(5).generator()
    assert filter_actives(0b1011, 1.0, rng) == 0b1011
    assert filter_actives(0b1011, 0.0, rng) == 0


def test_filter_actives_frequency():
    rng = RngStream(6).generator()
    trials = 100_000
    kept = 0
    for _ in range(trials):
        kept += (filter_actives(0b1, 0.5, rng)) & 1
    assert abs(kept / trials - 0.5) < 0.01


def test_filter_compose_equals_scaled_sampling():
    # D(x) thinned by lambda must match D(lambda * x) on all 2^n outcomes.
    x = as_marginals([0.8, 0.5, 0.3, 0.9])
    lam = 0.6
    trials = 200_000
    rng = RngStream(8).generator()
    counts_a = np.zeros(16)
    counts_b = np.zeros(16)
    x_scaled = scale(x, lam)
    for _ in range(trials):
        counts_a[filter_actives(sample_active_set(x, rng), lam, rng)] += 1
        counts_b[sample_active_set(x_scaled, rng)] += 1
    from chainocrs.sampling import realization_weights

    w = realization_weights(x_scaled)
    for mask in range(16):
        sigma = math.sqrt(w[mask] * (1 - w[mask]) / trials)
        assert abs(counts_a[mask] / trials - w[mask]) <= 4 * sigma + 1e-9
        assert abs(counts_b[mask] / trials - w[mask]) <= 4 * sigma + 1e-9


def test_empirical_within_three_sigma_most_repetitions():
    # repeated estimation stays inside the 3-sigma band almost always
    m = UniformMatroid(2, 4)
    x = as_marginals([0.3, 0.45, 0.2, 0.55])

    def pred(r_mask):
        return bool((m.span(r_mask & m.ground_mask) >> 3) & 1)

    p = exact_event_probability(x, pred)
    q = 10_000
    sigma = math.sqrt(p * (1 - p) / q)
    within = 0
    reps = 100
    for rep in range(reps):
        if abs(_frequency(x, q, RngStream(90, rep), pred) - p) <= 3 * sigma:
            within += 1
    assert within >= 97


def test_marginal_validation():
    with pytest.raises(ValueError):
        as_marginals([1.2])
    with pytest.raises(ValueError):
        as_marginals([-0.1])
    with pytest.raises(ValueError):
        as_marginals([[0.1, 0.2]])


def test_polytope_rejects_support_outside_ground():
    u12 = UniformMatroid(1, 2)
    minor = u12.restrict(0b01)
    with pytest.raises(ValueError):
        in_scaled_polytope(minor, as_marginals([0.1, 0.1]), 0.5)


def test_weights_sum_to_one():
    from chainocrs.sampling import realization_weights

    w = realization_weights(as_marginals([0.123, 0.456, 0.789]))
    assert math.fsum(w) == pytest.approx(1.0, abs=1e-14)
    assert len(w) == 8
    assert full_mask(3) == 7
