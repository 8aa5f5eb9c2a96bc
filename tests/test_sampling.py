import math
import warnings
from collections import Counter

import numpy as np
import pytest

from chainocrs import (
    RngStream,
    UniformMatroid,
    as_marginals,
    filter_actives,
    in_scaled_polytope,
    sample_active_set,
    scale,
    span_probabilities,
)
from chainocrs import sampling
from chainocrs.bitset import full_mask
from chainocrs.sampling import _sampled_span_probabilities
from chainocrs.stats import bonferroni_z
from conftest import explicit_corpus, small_corpus


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


def test_stream_keys_do_not_alias():
    # Keys at or above 2^63 reach Philox exactly: they neither collide nor
    # warn, and keys below 2^63 keep the stream of the plain-list key.
    def first(stream):
        return stream.generator().random(4).tolist()

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert first(RngStream(2**63)) != first(RngStream(2**63 + 1))
        assert first(RngStream(2**64 - 1)) != first(RngStream(2**64 - 2))
        subs = [first(RngStream(0, 1).substream(i)) for i in range(4)]
        assert len({tuple(s) for s in subs}) == 4
        for seed, stream in ((0, 0), (42, 3), (2**63 - 1, 2**62)):
            plain = np.random.Generator(np.random.Philox(key=[seed, stream]))
            assert first(RngStream(seed, stream)) == plain.random(4).tolist()


def _state(gen):
    """A bit generator's full state, arrays as lists, for comparison."""
    def plain(v):
        if isinstance(v, dict):
            return {k: plain(w) for k, w in v.items()}
        return v.tolist() if isinstance(v, np.ndarray) else v

    return plain(gen.bit_generator.state)


@pytest.mark.parametrize(
    "seed, stream", [(2**63, 2**63 + 5), (2**64 - 1, 2**63), (7, 2**64 - 2)]
)
def test_rekey_matches_a_fresh_generator(seed, stream):
    # A used generator, left mid-buffer with a saved 32-bit half-word, is
    # re-keyed before each kind of draw; it then draws what a fresh
    # generator of the stream draws, and ends in the same full state.
    target = RngStream(seed, stream)
    used = RngStream(1, 2).generator()
    used.integers(0, 2**32, dtype=np.uint32)
    used.random(2)
    before = used.bit_generator.state
    assert before["has_uint32"] == 1 and before["buffer_pos"] < 4
    draws = (
        lambda g: g.random(1000),
        lambda g: g.integers(0, 2**64, size=1000, dtype=np.uint64),
        lambda g: g.multinomial(1000, [0.2, 0.3, 0.5], size=1000),
    )
    for draw in draws:
        assert target.rekey(used) is used
        fresh = target.generator()
        plain = np.random.Generator(
            np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
        )
        got = draw(used)
        assert np.array_equal(got, draw(fresh)) and np.array_equal(got, draw(plain))
        assert _state(used) == _state(fresh) == _state(plain)


@pytest.mark.parametrize("seed, stream", [(0, 0), (5, 9), (2**64 - 1, 2**63)])
def test_generator_is_the_rekey_of_any_philox(seed, stream):
    # generator() builds its Philox from a fixed seed, not from OS entropy,
    # and rekey replaces every part of the state that seed set: the fresh
    # generator is in the state that rekey gives any Philox, unseeded,
    # seeded or part way through a stream.
    target = RngStream(seed, stream)
    others = [np.random.Philox(), np.random.Philox(12345), np.random.Philox(key=7, counter=3)]
    others[1].random_raw(5)
    for bit_generator in others:
        rekeyed = target.rekey(np.random.Generator(bit_generator))
        assert _state(target.generator()) == _state(rekeyed)


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


def test_span_probabilities_basics():
    # U_{1,2}: either element spans both, so each is spanned iff R is nonempty.
    u12 = UniformMatroid(1, 2)
    assert span_probabilities(u12, [0.3, 0.7], 0) == pytest.approx([0.79, 0.79])
    assert span_probabilities(u12, [0.5, 0.5], 0) == pytest.approx([0.75, 0.75])
    assert span_probabilities(u12, [0.0, 0.0], 0b01) == pytest.approx([1.0, 1.0])
    # On a restriction, ids off the ground set read 0 and their marginals
    # do not count: U_{2,4}|{0,1,2} = U_{2,3}.
    minor = UniformMatroid(2, 4).restrict(0b0111)
    probs = span_probabilities(minor, [0.3, 0.3, 0.3, 0.9], 0)
    assert probs == pytest.approx([0.363, 0.363, 0.363, 0.0])
    with pytest.raises(ValueError, match="outside the ground set"):
        span_probabilities(minor, [0.3] * 4, 0b1000)


def test_span_probabilities_samples_beyond_exact_range(monkeypatch):
    big = UniformMatroid(2, 21)
    x = as_marginals([0.1] * 21)
    with pytest.raises(ValueError, match="pass rng and samples"):
        span_probabilities(big, x, 0)
    with pytest.raises(ValueError, match="pass rng and samples"):
        span_probabilities(big, x, 0, RngStream(1).generator(), 0)
    # Every one of the samples rows is counted, in blocks of 7 rows, from
    # the stream of one (samples, 21) draw: the frequencies are exact
    # counts over the samples rows, never cut short.
    monkeypatch.setattr(sampling, "ROW_BLOCK_VALUES", 7 * 21)
    counted = []
    real_counter = UniformMatroid.span_counter

    def span_counter(self, cols):
        count = real_counter(self, cols)
        return lambda rows, a_mask: counted.append(len(rows)) or count(rows, a_mask)

    monkeypatch.setattr(UniformMatroid, "span_counter", span_counter)
    rng, ref_rng = RngStream(1).generator(), RngStream(1).generator()
    probs = span_probabilities(big, x, 0, rng, 4000)
    assert sum(counted) == 4000 and max(counted) == 7
    rows = ref_rng.random((4000, 21)) < x
    assert rng.random() == ref_rng.random()
    assert probs.tolist() == (real_counter(big, np.arange(21))(rows, 0) / 4000).tolist()
    # Pr[R holds e or two others] = 1 - 0.9^21 - 20 * 0.1 * 0.9^20
    p = 1 - 0.9**21 - 20 * 0.1 * 0.9**20
    assert np.all(np.abs(probs - p) <= bonferroni_z(21) * math.sqrt(p * (1 - p) / 4000))


def test_span_probabilities_rejects_wrong_length():
    u24 = UniformMatroid(2, 4)
    for x in ([0.2] * 3, [0.2] * 5):
        with pytest.raises(ValueError, match="universe size"):
            span_probabilities(u24, x, 0)


def test_span_probabilities_branches_agree():
    # The exact and the sampled branch agree on every corpus instance, with
    # base ∅ and one random base, within a Bonferroni-adjusted 3 sigma.
    rng = np.random.default_rng(2026)
    samples = 20_000
    cases = []
    for m in small_corpus() + explicit_corpus():
        x = rng.uniform(0.0, 1.0, m.n_universe)
        cases += [(m, x, 0), (m, x, int(rng.integers(0, 1 << m.n_universe)))]
    z = bonferroni_z(sum(m.n_universe for m, _, _ in cases))
    for k, (m, x, base) in enumerate(cases):
        exact = span_probabilities(m, x, base)
        sampled = _sampled_span_probabilities(m, x, base, RngStream(31, k).generator(), samples)
        sigma = np.sqrt(exact * (1.0 - exact) / samples)
        assert np.all(np.abs(sampled - exact) <= z * sigma + 1e-12), (m, base)


def test_empirical_converges_to_exact_span_event():
    # event: element 2 in span(A ∪ R) for U_{2,4} with A = {0}
    m = UniformMatroid(2, 4)
    a_mask = 0b0001
    x = as_marginals([0.35, 0.25, 0.15, 0.45])

    def pred(r_mask):
        return bool((m.span((a_mask | r_mask) & m.ground_mask) >> 2) & 1)

    p = span_probabilities(m, x, a_mask)[2]
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

    p = span_probabilities(m, x, 0)[3]
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
