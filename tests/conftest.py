import numpy as np
import pytest

from chainocrs import (
    ExplicitMatroid,
    GraphicMatroid,
    LaminarMatroid,
    Matroid,
    PartitionMatroid,
    SpanningChain,
    UniformMatroid,
)
from chainocrs.bitset import bits_of, ids_of, iter_ids, mask_of, submasks
from chainocrs.sampling import span_probabilities, universe_marginals


@pytest.fixture
def u12():
    return UniformMatroid(1, 2)


@pytest.fixture
def u24():
    return UniformMatroid(2, 4)


@pytest.fixture
def u39():
    return UniformMatroid(3, 9)


@pytest.fixture
def k3():
    return GraphicMatroid(3, [(0, 1), (1, 2), (2, 0)])


@pytest.fixture
def k4():
    # edges 0..2 form a spanning star at vertex 0
    return GraphicMatroid(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def small_corpus() -> list:
    """Structured matroids with n <= 8, one per family."""
    return [
        UniformMatroid(1, 2),
        UniformMatroid(2, 4),
        UniformMatroid(3, 8),
        PartitionMatroid([[0, 1, 2], [3, 4]], [2, 1]),
        GraphicMatroid(3, [(0, 1), (1, 2), (2, 0)]),
        GraphicMatroid(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
        LaminarMatroid(6, [[0, 1, 2, 3, 4, 5], [0, 1, 2], [0, 1]], [4, 2, 1]),
    ]


def explicit_corpus(count: int = 20, seed: int = 20240) -> list:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(3, 8))
        out.append(random_explicit_matroid(rng, n))
    return out


def random_explicit_matroid(rng: np.random.Generator, n: int) -> ExplicitMatroid:
    """Random explicit matroid on n <= 8 elements.

    Draws a random structured matroid (uniform, partition, graphic or
    laminar), enumerates its independent sets and relabels the elements
    with a random permutation, so the result carries no family structure.
    """
    if n > 8:
        raise ValueError("random explicit matroids are kept at n <= 8")
    kind = rng.integers(4)
    if kind == 0:
        base: Matroid = UniformMatroid(int(rng.integers(0, n + 1)), n)
    elif kind == 1:
        ids = list(range(n))
        cut = int(rng.integers(1, n)) if n > 1 else 1
        blocks = [ids[:cut], ids[cut:]] if cut < n else [ids]
        caps = [int(rng.integers(1, len(b) + 1)) for b in blocks]
        base = PartitionMatroid(blocks, caps)
    elif kind == 2:
        n_vertices = int(rng.integers(2, max(3, n)))
        edges = [
            (int(rng.integers(n_vertices)), int(rng.integers(n_vertices)))
            for _ in range(n)
        ]
        base = GraphicMatroid(n_vertices, edges)
    else:
        ids = list(range(n))
        inner = ids[: max(1, n // 2)]
        base = LaminarMatroid(
            n,
            [ids, inner],
            [int(rng.integers(1, n + 1)), int(rng.integers(1, len(inner) + 1))],
        )
    independents = [s for s in submasks(base.ground_mask) if base.is_independent(s)]
    perm = rng.permutation(n)
    relabeled = [mask_of(int(perm[e]) for e in iter_ids(s)) for s in independents]
    return ExplicitMatroid(n, [ids_of(s) for s in relabeled])


def chain_freeness(
    m: Matroid,
    x: np.ndarray,
    chain: SpanningChain,
    e: int,
    rng: np.random.Generator | None = None,
    samples: int | None = None,
) -> float:
    """Pr[e ∉ span(((R(x) \\ {e}) ∩ C_i) ∪ C_{i+1})] at e's level i.

    That is 1 - Pr[e ∈ span(C_{i+1} ∪ R(x'))] for x' = x on C_i \\ {e} and
    0 elsewhere, from one ``span_probabilities`` call: exact for n <= 20,
    and beyond from ``samples`` rows drawn from ``rng``.  The per-element
    reference for ``verify._level_freeness``.
    """
    i = chain.level_of(e)
    x = universe_marginals(m, x)
    x_level = np.where(bits_of(chain.links[i] & ~(1 << e), len(x)), x, 0.0)
    return 1.0 - float(span_probabilities(m, x_level, chain.links[i + 1], rng, samples)[e])
