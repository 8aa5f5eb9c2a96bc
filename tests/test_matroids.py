import json
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
    PartitionMatroid,
    UniformMatroid,
    matroid_from_descriptor,
    random_explicit_matroid,
    validate_axioms,
)
from chainocrs.bitset import full_mask, ids_of, submasks

from conftest import small_corpus


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


def test_contract_empty_is_identity(u24):
    c = u24.contract(0)
    for mask in submasks(u24.ground_mask):
        assert c.rank(mask) == u24.rank(mask)


def test_contract_uniform():
    u24 = UniformMatroid(2, 4)
    c = u24.contract(0b0001)
    assert c.ground_mask == 0b1110
    for mask in submasks(0b1110):
        assert c.rank(mask) == min(mask.bit_count(), 1)


def test_contract_triangle_edge_makes_parallel(k3):
    c = k3.contract(0b001)
    assert c.rank(0b110) == 1
    assert c.rank(0b010) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0), st.data())
def test_minor_rank_identities(seed, data):
    corpus = small_corpus()
    m = corpus[seed % len(corpus)]
    g = m.ground_mask
    c_mask = data.draw(st.integers(min_value=0, max_value=g)) & g
    a_mask = data.draw(st.integers(min_value=0, max_value=g)) & c_mask
    s_mask = data.draw(st.integers(min_value=0, max_value=g)) & (c_mask & ~a_mask)
    restricted = m.restrict(c_mask)
    assert restricted.rank(s_mask | a_mask) == m.rank(s_mask | a_mask)
    contracted = m.contract(a_mask)
    assert contracted.rank(s_mask) == m.rank(s_mask | a_mask) - m.rank(a_mask)
    # restrict-then-contract composes into the level minor
    minor = m.restrict(c_mask).contract(a_mask)
    assert minor.rank(s_mask) == m.rank(s_mask | a_mask) - m.rank(a_mask)


def test_minor_span_identity(k4):
    minor = k4.restrict(0b011111).contract(0b000011)
    for mask in submasks(minor.ground_mask):
        expected = k4.span(mask | 0b000011) & minor.ground_mask
        assert minor.span(mask) == expected


def test_minor_span_lookup_reads_masks_modulo_the_ground_set(u24, k4):
    # lookup(m) == span(m & ground) for every universe mask, also masks that
    # hold ids outside the minor's ground set.
    minors = [
        u24.restrict(0b0111),
        u24.contract(0b0001),
        u24.restrict(0b1110).contract(0b0100),
        k4.restrict(0b011111),
        k4.contract(0b000011),
        k4.restrict(0b111011).contract(0b100000),
    ]
    for minor in minors:
        masks = np.arange(1 << minor.n_universe, dtype=np.int64)
        expected = [minor.span(int(mk) & minor.ground_mask) for mk in masks]
        assert minor.span_lookup()(masks).tolist() == expected, minor
    assert u24.restrict(0b0111).span_lookup()(np.array([0b1010]))[0] == 0b0010


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
