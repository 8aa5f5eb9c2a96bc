import json
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainocrs import (
    ExplicitMatroid,
    GraphicMatroid,
    LaminarMatroid,
    Matroid,
    PartitionMatroid,
    UniformMatroid,
    matroid_from_descriptor,
    validate_axioms,
)
from chainocrs.bitset import bits_of, full_mask, ids_of, mask_of, submasks
from chainocrs.matroids import MinorMatroid

from conftest import explicit_corpus, random_explicit_matroid, small_corpus


def brute_rank(independents, mask):
    return max((i.bit_count() for i in independents if not i & ~mask), default=0)


# -- rank ---------------------------------------------------------------


def test_rank_uniform(u24):
    assert u24.rank(0b0111) == 2
    assert u24.rank(0) == 0
    assert u24.rank(0b1111) == 2


def test_rank_graphic_triangle(k3):
    assert k3.rank(0b111) == 2


def test_rank_explicit_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(5):
        m = random_explicit_matroid(rng, 6)
        for mask in submasks(m.ground_mask):
            assert m.rank(mask) == brute_rank(m.independent, mask)


def test_rank_outside_ground_raises(u24):
    with pytest.raises(ValueError):
        u24.rank(1 << 5)


# -- independence and span ---------------------------------------------


def test_is_independent(u24, k3):
    assert u24.is_independent(0)
    assert not u24.is_independent(0b0111)
    assert k3.is_independent(0b011)
    assert k3.is_independent(0b101)


def test_span_uniform(u24):
    assert u24.span(0b0001) == 0b0001
    assert u24.span(0b0011) == 0b1111


def test_span_triangle(k3):
    assert k3.span(0b011) == 0b111
    assert k3.span(0b001) == 0b001


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0), st.data())
def test_span_properties(seed, data):
    corpus = small_corpus()
    m = corpus[seed % len(corpus)]
    mask = data.draw(st.integers(min_value=0, max_value=m.ground_mask)) & m.ground_mask
    sp = m.span(mask)
    assert sp & mask == mask  # extensive
    assert m.span(sp) == sp  # idempotent
    assert m.rank(sp) == m.rank(mask)  # rank-preserving
    bigger = data.draw(st.integers(min_value=0, max_value=m.ground_mask)) & m.ground_mask
    assert m.span(mask) & ~m.span(mask | bigger) == 0  # monotone


# -- minors --------------------------------------------------------------


def test_greedy_basis_matches_the_independence_loop():
    # Every family's greedy basis is the loop that keeps, in id order, each
    # element independent of those kept, and is a basis; the graphic
    # override reads it from one union-find, also with loops, parallel
    # edges and isolated vertices, and on a restriction the loop runs.
    multigraph = GraphicMatroid(
        7, [(0, 0), (1, 2), (2, 1), (3, 4), (4, 5), (3, 5), (5, 5), (1, 4), (0, 6)]
    )
    theta = GraphicMatroid(21, [(0, 1)] + [e for w in range(2, 21) for e in ((0, w), (w, 1))])
    minor = theta.restrict(theta.ground_mask & ~0b110)
    corpus = small_corpus() + explicit_corpus() + [multigraph, theta, minor]
    for m in corpus:
        basis = m.greedy_basis()
        assert basis == Matroid.greedy_basis(m), m
        assert m.is_independent(basis) and basis.bit_count() == m.full_rank()
    assert multigraph.greedy_basis() == 0b110011010
    assert theta.greedy_basis() == 1 | sum(1 << e for e in range(1, 39, 2))


def test_restrict_identity(u24):
    r = u24.restrict(u24.ground_mask)
    for mask in submasks(u24.ground_mask):
        assert r.rank(mask) == u24.rank(mask)


def test_restrict_uniform_to_pair(u24):
    r = u24.restrict(0b0011)
    assert r.ground_mask == 0b0011
    assert r.rank(0b0011) == 2
    assert r.is_independent(0b0011)


def test_restrict_k4_triangle_matches_k3(k4, k3):
    # k4 edges 0=(0,1), 1=(0,2), 3=(1,2) form a triangle on vertices {0,1,2}
    tri = 0b01011
    r = k4.restrict(tri)
    relabel = {0: 0, 1: 2, 3: 1}  # k4 edge -> k3 edge with same endpoints
    for mask in submasks(tri):
        image = 0
        for e in ids_of(mask):
            image |= 1 << relabel[e]
        assert r.rank(mask) == k3.rank(image)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0), st.data())
def test_minor_rank_identities(seed, data):
    corpus = small_corpus()
    m = corpus[seed % len(corpus)]
    g = m.ground_mask
    c_mask = data.draw(st.integers(min_value=0, max_value=g)) & g
    c2_mask = data.draw(st.integers(min_value=0, max_value=g)) & c_mask
    s_mask = data.draw(st.integers(min_value=0, max_value=g)) & c2_mask
    restricted = m.restrict(c_mask)
    assert restricted.rank(s_mask) == m.rank(s_mask)
    # A restriction of a restriction is the restriction (M|C)|C' = M|C'.
    nested = restricted.restrict(c2_mask)
    assert nested.ground_mask == c2_mask and nested.base is m
    assert nested.rank(s_mask) == m.restrict(c2_mask).rank(s_mask) == m.rank(s_mask)


def _nested_restrictions(seed):
    """(M, (M|C)|C', M|C') over the small corpus, three nested pairs
    C' ⊆ C per matroid, one of them C' = C = N."""
    rng = np.random.default_rng(seed)
    for m in small_corpus():
        ground = ids_of(m.ground_mask)
        for t in range(3):
            c = sum(1 << e for e in ground if t == 0 or rng.random() < 0.8)
            c2 = sum(1 << e for e in ids_of(c) if t == 0 or rng.random() < 0.7)
            yield m, m.restrict(c).restrict(c2), m.restrict(c2)


def test_minor_span_identity():
    # On (M|C)|C', span and the span counter under every A ⊆ C' equal those
    # of M|C' and M's, cut to C' (0 off the ground set).
    rng = np.random.default_rng(4)
    for m, nested, flat in _nested_restrictions(1):
        c2 = nested.ground_mask
        for mask in submasks(c2):
            assert nested.span(mask) == flat.span(mask) == m.span(mask) & c2
        cols = np.array(ids_of(c2), dtype=np.int64)
        rows = rng.random((2, 9, len(cols))) < 0.4
        off = ~bits_of(c2, m.n_universe)
        for a_mask in (0, mask_of(e for e in ids_of(c2) if rng.random() < 0.4), c2):
            got = nested.span_counter(cols)(rows, a_mask)
            expected = m.span_counter(cols)(rows, a_mask)
            expected[..., off] = 0
            assert got.tolist() == flat.span_counter(cols)(rows, a_mask).tolist()
            assert got.tolist() == expected.tolist(), (nested, a_mask)


def test_minor_span_lookup_reads_masks_modulo_the_ground_set():
    # lookup(m) == span(m & ground) for every universe mask, also masks that
    # hold ids outside the minor's ground set; a nested restriction reads
    # as M|C' and as M's lookup cut to C'.
    for m, nested, flat in _nested_restrictions(2):
        c2 = nested.ground_mask
        masks = np.arange(1 << m.n_universe, dtype=np.int64)
        expected = [nested.span(int(mk) & c2) for mk in masks]
        got = nested.span_lookup()(masks)
        assert got.tolist() == expected, nested
        assert got.tolist() == flat.span_lookup()(masks).tolist()
        assert got.tolist() == (m.span_lookup()(masks & c2) & c2).tolist()
    assert UniformMatroid(2, 4).restrict(0b0111).span_lookup()(np.array([0b1010]))[0] == 0b0010


def test_dense_tables_are_built_once_across_threads():
    # Two threads reach the tables of a fresh matroid at once, under a short
    # switch interval: one builds them, with one rank call per mask, and
    # both read the same table.
    m = UniformMatroid(3, 12)
    real_rank = m._rank_masked
    calls = []

    def spy(mask):
        calls.append(mask)
        return real_rank(mask)

    m._rank_masked = spy
    start = threading.Barrier(2)
    tables = []

    def work():
        start.wait()
        tables.append(m.rank_table())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert len(calls) == 1 << 12
    assert tables[0] is tables[1]


def test_span_and_rank_read_built_tables_as_the_oracle_gives(monkeypatch):
    # Once the tables exist, span and rank read them: with the oracle
    # methods made to raise they still give the oracle's values for every
    # subset of the ground set, on the n <= 8 corpus and on one minor,
    # whose span reads its base's table and whose rank reads its own.
    def boom(*args):
        raise AssertionError("oracle called although the tables exist")

    k4 = small_corpus()[5]
    matroids = small_corpus() + explicit_corpus() + [k4.restrict(0b111011).restrict(0b110011)]
    for m in matroids:
        masks = list(submasks(m.ground_mask))
        ranks = [m._rank_masked(s) for s in masks]
        spans = [m._span_masked(s) for s in masks]
        owners = [m] + ([m.base] if isinstance(m, MinorMatroid) else [])
        for owner in owners:
            owner.rank_table()
            monkeypatch.setattr(owner, "_rank_masked", boom)
            monkeypatch.setattr(owner, "_span_masked", boom)
        assert [m.rank(s) for s in masks] == ranks
        assert [m.span(s) for s in masks] == spans


def test_span_and_rank_never_build_the_tables(monkeypatch, k4):
    def boom(self):
        raise AssertionError("tables built")

    monkeypatch.setattr(Matroid, "_dense_tables", boom)
    minor = k4.restrict(0b110111)
    assert k4.span(0b000011) == 0b001011 and k4.rank(0b001011) == 2
    assert minor.span(0b000101) == 0b010101 and minor.rank(0b010101) == 2
    assert k4._tables is None and minor._tables is None


# -- axioms ---------------------------------------------------------------


def test_validate_axioms_uniform(u24):
    assert validate_axioms(u24).passed


def test_validate_axioms_small_explicit():
    m = ExplicitMatroid(3, [[], [0], [1]])
    report = validate_axioms(m)
    assert report.passed
    assert report.independent_count == 3


def test_validate_axioms_downward_violation():
    m = ExplicitMatroid(3, [[], [0, 1]], validate=False)
    report = validate_axioms(m)
    assert not report.passed
    assert not report.downward_closed


def test_validate_axioms_submodularity_bounded_memory():
    # {0, 1} independent but {0, 2} and {1, 2} not: with S = {2},
    # r(S+0) + r(S+1) = 2 < r(S+0+1) + r(S) = 3.
    bad = validate_axioms(ExplicitMatroid(3, [[], [0], [1], [2], [0, 1]], validate=False))
    assert not bad.rank_submodular and "rank is not submodular" in bad.failures
    # U_{2,12} as an explicit family: validation at the size limit stays far
    # below the 2^12 x 2^12 tables of a pairwise check.
    family = [s for s in submasks(full_mask(12)) if s.bit_count() <= 2]
    m = ExplicitMatroid(12, [ids_of(s) for s in family], validate=False)
    tracemalloc.start()
    try:
        report = validate_axioms(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and report.rank_submodular
    assert peak < 64 * 2**20


def test_explicit_construction_rejects_non_matroid():
    with pytest.raises(ValueError):
        ExplicitMatroid(3, [[], [0, 1]])
    with pytest.raises(ValueError):
        ExplicitMatroid(13, [[]])


def test_validate_axioms_refuses_large():
    with pytest.raises(ValueError):
        validate_axioms(UniformMatroid(2, 13))


def test_random_explicit_matroids_are_matroids():
    rng = np.random.default_rng(11)
    for _ in range(6):
        m = random_explicit_matroid(rng, int(rng.integers(2, 7)))
        assert validate_axioms(m).passed


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0), st.data())
def test_rank_submodular_monotone(seed, data):
    corpus = small_corpus()
    m = corpus[seed % len(corpus)]
    g = m.ground_mask
    s = data.draw(st.integers(min_value=0, max_value=g)) & g
    t = data.draw(st.integers(min_value=0, max_value=g)) & g
    assert m.rank(s | t) + m.rank(s & t) <= m.rank(s) + m.rank(t)
    assert m.rank(s) <= s.bit_count()
    assert m.rank(s & t) <= m.rank(s)


# -- families and descriptors ---------------------------------------------


def test_laminar_rejects_crossing_family():
    with pytest.raises(ValueError):
        LaminarMatroid(4, [[0, 1], [1, 2]], [1, 1])


def test_laminar_rank():
    m = LaminarMatroid(4, [[0, 1, 2, 3], [0, 1]], [2, 1])
    assert m.rank(0b0011) == 1
    assert m.rank(0b1111) == 2
    assert m.is_independent(0b1001)
    assert not m.is_independent(0b0011)


def test_partition_rank():
    m = PartitionMatroid([[0, 1], [2, 3, 4]], [1, 2])
    assert m.rank(full_mask(5)) == 3
    assert m.rank(0b00011) == 1


def test_graphic_rejects_bad_edges():
    with pytest.raises(ValueError):
        GraphicMatroid(2, [(0, 2)])


def test_descriptor_roundtrip_families(u24, k3):
    cases = [
        ({"family": "uniform", "k": 2, "n": 4}, u24),
        ({"family": "graphic", "n_vertices": 3, "edges": [[0, 1], [1, 2], [2, 0]]}, k3),
        (
            {"family": "partition", "blocks": [[0, 1], [2]], "capacities": [1, 1]},
            PartitionMatroid([[0, 1], [2]], [1, 1]),
        ),
        (
            {"family": "laminar", "n": 3, "sets": [[0, 1]], "capacities": [1]},
            LaminarMatroid(3, [[0, 1]], [1]),
        ),
        (
            {"family": "explicit", "n": 2, "independent": [[], [0], [1]]},
            ExplicitMatroid(2, [[], [0], [1]]),
        ),
    ]
    for desc, expected in cases:
        built = matroid_from_descriptor(desc)
        for mask in submasks(expected.ground_mask):
            assert built.rank(mask) == expected.rank(mask)


def test_descriptor_rejects_unknown_family():
    with pytest.raises(ValueError):
        matroid_from_descriptor({"family": "linear"})
    with pytest.raises(ValueError):
        matroid_from_descriptor(["not", "an", "object"])


def test_schema_file_covers_families():
    schema_path = (
        Path(__file__).resolve().parents[1]
        / "src" / "chainocrs" / "schemas" / "matroid_descriptor.schema.json"
    )
    schema = json.loads(schema_path.read_text())
    families = {alt["properties"]["family"]["const"] for alt in schema["oneOf"]}
    assert families == {"uniform", "partition", "graphic", "laminar", "explicit"}
