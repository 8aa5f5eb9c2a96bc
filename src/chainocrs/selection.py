"""Online selection over a spanning chain and selectability measurement.

The greedy rule assigns every element to its chain level i (the unique
index with e ∈ C_i \\ C_{i+1}) and accepts an arriving active element iff
it stays independent in M restricted to C_i and contracted by C_{i+1},
together with the same-level elements already accepted.  The union over
levels is always independent in M.

The full scheme additionally thins the active set: each active element is
discarded upfront with probability 1-λ and only surviving elements reach
the greedy rule.

The worst adversarial order for a target element under this rule places
the target last: its decision then depends only on the span of the other
same-level survivors, which is exactly the freeness event.  ``element-last``
measures every element against its personal worst order; `exhaustive-worst`
cross-checks that by scanning all orders of small active sets.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import workers
from .bitset import ids_of, iter_ids
from .chains import ParamOverrides, SpanningChain, scheme_plan
from .matroids import Matroid
from .sampling import RngStream, as_marginals, filter_actives, sample_active_set, scale
from .stats import wilson_interval

ADVERSARIES = ("element-last", "exhaustive-worst", "random-order")

#: Largest active set for exhaustive order enumeration.
EXHAUSTIVE_MAX_ACTIVES = 7


@dataclass
class OcrsState:
    """Mutable greedy state: accepted elements per chain level."""

    matroid: Matroid
    chain: SpanningChain
    accepted: list[int] = field(default_factory=list)

    def __post_init__(self):
        if not self.accepted:
            self.accepted = [0] * (len(self.chain) - 1)

    @property
    def accepted_mask(self) -> int:
        out = 0
        for a in self.accepted:
            out |= a
        return out


def greedy_step(state: OcrsState, e: int) -> tuple[bool, OcrsState]:
    """Decide one arriving active element; accepts iff it stays independent
    in the level minor (M | C_i) / C_{i+1} with the level's prior accepts.

    The candidate lies in C_i \\ C_{i+1}, where it is independent in that
    minor iff r(candidate ∪ C_{i+1}) - r(C_{i+1}) = |candidate| in M, so no
    minor is built.
    """
    m, chain = state.matroid, state.chain
    i = chain.level_of(e)
    ci1 = chain.links[i + 1]
    candidate = state.accepted[i] | (1 << e)
    if m.rank(candidate | ci1) - m.rank(ci1) == candidate.bit_count():
        state.accepted[i] = candidate
        return True, state
    return False, state


def run_selection(
    m: Matroid, chain: SpanningChain, actives: int, order: Sequence[int]
) -> int:
    """Feed the actives to the greedy rule in the given order.

    The order must be a permutation of the active set.  The accepted set is
    checked to stay independent in M after every arrival.
    """
    if sorted(order) != ids_of(actives):
        raise ValueError("order must be a permutation of the active set")
    state = OcrsState(matroid=m, chain=chain)
    for e in order:
        greedy_step(state, e)
        if not m.is_independent(state.accepted_mask):
            raise AssertionError("greedy rule produced a dependent set")
    return state.accepted_mask


def element_last_accepts(m: Matroid, chain: SpanningChain, actives: int, target: int) -> bool:
    """Outcome for the target when it arrives after all other actives.

    Equivalent to the freeness event: with i the target's level, accept iff
    target ∉ span(((actives \\ {target}) ∩ C_i) ∪ C_{i+1}).
    """
    i = chain.level_of(target)
    ci, ci1 = chain.links[i], chain.links[i + 1]
    others = (actives & ~(1 << target)) & ci
    return not (m.span(others | ci1) >> target) & 1


def worst_case_order(
    m: Matroid,
    chain: SpanningChain,
    actives: int,
    target: int,
    mode: str = "element-last",
) -> tuple[int, ...]:
    """An arrival order minimizing the target's acceptance.

    ``element-last`` returns the others in id order with the target last.
    ``exhaustive-worst`` scans every order of the actives (|actives| <= 7),
    returns a minimizing one and asserts the minimum matches the
    element-last outcome.
    """
    if not (actives >> target) & 1:
        raise ValueError("target must be active")
    others = [e for e in iter_ids(actives) if e != target]
    last_order = tuple(others) + (target,)
    if mode == "element-last":
        return last_order
    if mode != "exhaustive-worst":
        raise ValueError(f"unknown worst-case mode {mode!r}")
    if actives.bit_count() > EXHAUSTIVE_MAX_ACTIVES:
        raise ValueError(
            f"exhaustive order search is limited to {EXHAUSTIVE_MAX_ACTIVES} actives"
        )
    best = last_order
    best_accepted = (run_selection(m, chain, actives, last_order) >> target) & 1
    for perm in itertools.permutations(iter_ids(actives)):
        accepted = (run_selection(m, chain, actives, perm) >> target) & 1
        if accepted < best_accepted:
            best, best_accepted = perm, accepted
    if best_accepted != ((run_selection(m, chain, actives, last_order) >> target) & 1):
        raise AssertionError("element-last order was not worst for the target")
    return tuple(best)


# ---------------------------------------------------------------------------
# Filtered trials and selectability measurement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialOutcome:
    """One trial: who was active before thinning, and who got selected."""

    active_mask: int
    kept_mask: int
    selected_mask: int


def chain_ocrs_trial(
    m: Matroid,
    x: np.ndarray,
    lam: float,
    chain: SpanningChain,
    adversary: str,
    rng: np.random.Generator,
) -> TrialOutcome:
    """One filtered-greedy trial against the chosen adversary on ``chain``.

    The active set R(x) is drawn, each active element survives thinning
    with probability λ, and the surviving elements are played against the
    adversary.  Outcomes are recorded for every pre-thinning active element.

    For the almighty ``element-last`` adversary the order is chosen per
    target (worst case for each element separately): the target is selected
    iff it survives thinning and its freeness event over the surviving set
    holds.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    if adversary not in ADVERSARIES:
        raise ValueError(f"unknown adversary {adversary!r}")
    active = sample_active_set(x, rng)
    kept = filter_actives(active, lam, rng)
    selected = 0
    if adversary == "element-last":
        for e in iter_ids(kept):
            if element_last_accepts(m, chain, kept, e):
                selected |= 1 << e
    elif adversary == "exhaustive-worst":
        for e in iter_ids(kept):
            order = worst_case_order(m, chain, kept, e, mode="exhaustive-worst")
            if (run_selection(m, chain, kept, order) >> e) & 1:
                selected |= 1 << e
    else:  # random-order
        order = [int(e) for e in rng.permutation(ids_of(kept))]
        selected = run_selection(m, chain, kept, order)
    return TrialOutcome(active_mask=active, kept_mask=kept, selected_mask=selected)


@dataclass(frozen=True)
class ElementStats:
    element_id: int
    activations: int
    selections: int

    @property
    def frequency(self) -> float | None:
        if self.activations == 0:
            return None
        return self.selections / self.activations

    def wilson(self, confidence: float = 0.99) -> tuple[float, float]:
        return wilson_interval(self.selections, self.activations, confidence)


@dataclass(frozen=True)
class SelectabilityReport:
    """Conditional selection frequencies with Wilson 99% intervals."""

    trials: int
    lam: float
    eps: float
    adversary: str
    per_element: tuple[ElementStats, ...]
    draw_count: int
    theoretical_floor: float

    def min_frequency(self) -> float | None:
        freqs = [s.frequency for s in self.per_element if s.frequency is not None]
        return min(freqs) if freqs else None

    def floor_holds(self, z: float = 3.0) -> bool:
        """min_e freq_e >= λ(1-λ-8ε) - z·SE_e, vacuous without activations."""
        ok = True
        for s in self.per_element:
            f = s.frequency
            if f is None:
                continue
            se = math.sqrt(max(f * (1 - f), 0.0) / s.activations)
            ok = ok and f >= self.theoretical_floor - z * se
        return ok

    def to_jsonable(self) -> dict:
        rows = []
        for s in self.per_element:
            lo, hi = s.wilson()
            rows.append(
                {
                    "element_id": s.element_id,
                    "activations": s.activations,
                    "selections": s.selections,
                    "frequency": s.frequency,
                    "ci_low": lo,
                    "ci_high": hi,
                }
            )
        return {
            "trials": self.trials,
            "lambda": self.lam,
            "eps": self.eps,
            "adversary": self.adversary,
            "draw_count": self.draw_count,
            "theoretical_floor": self.theoretical_floor,
            "min_frequency": self.min_frequency(),
            "per_element": rows,
        }


def selectability_experiment(
    m: Matroid,
    x: np.ndarray,
    lam: float,
    eps: float,
    trials: int,
    adversary: str,
    seed_stream: RngStream,
    overrides: ParamOverrides | None = None,
) -> SelectabilityReport:
    """Estimate per-element Pr[selected | active] for the full scheme.

    Each trial samples a fresh chain for the thinned marginals λ·x with
    threshold λ+4ε, draws R(x), thins it, and plays the adversary.  Trial i
    draws from stream i of ``seed_stream``; the trials run on every CPU
    (``workers.map_trials``) and are counted in trial order.
    """
    if trials < 1:
        raise ValueError("at least one trial is required")
    x = as_marginals(x)
    plan = scheme_plan(m, scale(x, lam), lam, eps, overrides)

    def one_trial(t: int, rng: np.random.Generator) -> tuple[TrialOutcome, int]:
        chain, trace = plan.sample(rng)
        return chain_ocrs_trial(m, x, lam, chain, adversary, rng), trace.draw_count

    results = workers.map_trials(trials, seed_stream, one_trial)

    ids = ids_of(m.ground_mask)
    act = {e: 0 for e in ids}
    sel = {e: 0 for e in ids}
    for out, _ in results:
        for e in iter_ids(out.active_mask):
            act[e] += 1
        for e in iter_ids(out.selected_mask):
            sel[e] += 1
    stats = tuple(ElementStats(e, act[e], sel[e]) for e in ids)
    return SelectabilityReport(
        trials=trials,
        lam=lam,
        eps=eps,
        adversary=adversary,
        per_element=stats,
        draw_count=sum(draws for _, draws in results),
        theoretical_floor=lam * (1.0 - lam - 8.0 * eps),
    )
