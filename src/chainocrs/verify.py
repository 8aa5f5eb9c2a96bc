"""Executable checks of the scheme's probabilistic guarantees.

Each ``verify_*`` function runs Monte Carlo trials of the construction it
targets, measures the quantity the corresponding guarantee bounds, and
compares against the bound with an explicit tolerance: 3 standard errors
per check, Bonferroni-adjusted when one verdict aggregates several
per-element checks.

``brute_force_T_alpha`` is different: it is an exact oracle.  Marginals
are treated as exact rationals, expectations are integer sums over all
2^n realizations, and the reported inequalities hold with no tolerance.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import workers
from .bitset import bits_of, ids_of, submasks
from .chains import BuildTrace, ParamOverrides, chain_plan, scheme_plan
from .matroids import Matroid
from .sampling import (
    EXACT_ENUM_MAX,
    RngStream,
    in_scaled_polytope,
    realization_products,
    span_probabilities,
)
from .stats import binomial_stderr, bonferroni_z

T_ALPHA_MAX = 12


# ---------------------------------------------------------------------------
# Verdict containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyCheck:
    """One measured-vs-bound comparison with its tolerance."""

    name: str
    measured: float
    bound: float
    tolerance: float
    direction: str  # "<=" or ">="

    @property
    def passed(self) -> bool:
        if self.direction == "<=":
            return self.measured <= self.bound + self.tolerance
        return self.measured >= self.bound - self.tolerance


@dataclass(frozen=True)
class VerifyReport:
    kind: str
    checks: tuple[VerifyCheck, ...]
    meta: dict

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_jsonable(self) -> dict:
        return {
            "kind": self.kind,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "measured": c.measured,
                    "bound": c.bound,
                    "tolerance": c.tolerance,
                    "direction": c.direction,
                    "passed": c.passed,
                }
                for c in self.checks
            ],
            "meta": self.meta,
        }


# ---------------------------------------------------------------------------
# Monte Carlo guarantee checks
# ---------------------------------------------------------------------------

def verify_in_link_loss(
    m: Matroid,
    x: np.ndarray,
    tau: float,
    eps: float,
    trials: int,
    seed_stream: RngStream,
    builder: Callable[..., tuple[int, object]] | None = None,
    overrides: ParamOverrides | None = None,
) -> VerifyReport:
    """Check: Pr[e bad] <= eps * Pr[e good] + 2 eps^3 / ln(rho), per element.

    Builds the link of ``chain_plan(m, x, tau, eps, overrides)``, with
    threshold (1-eps)*tau, over `trials` runs and classifies every element
    exactly against the unscaled tau.  The ``builder`` hook, called as
    ``builder(m, x, params, rng)`` in place of ``ChainPlan.link``, lets
    tests inject a deliberately broken link builder, which must drive this
    check to a fail verdict.
    """
    if not 0.0 < eps <= tau:
        raise ValueError("need 0 < eps <= tau")
    if m.n_universe > EXACT_ENUM_MAX:
        raise ValueError(f"exact classification is limited to n <= {EXACT_ENUM_MAX}")
    plan = chain_plan(m, x, tau, eps, overrides)
    x, params = plan.x, plan.params
    ids = ids_of(m.ground_mask)
    probs_cache: dict[int, np.ndarray] = {}
    bad = np.zeros((trials, len(ids)), dtype=bool)
    good = np.zeros((trials, len(ids)), dtype=bool)
    build = plan.link if builder is None else functools.partial(builder, m, x, params)
    a_masks = workers.map_trials(trials, seed_stream, lambda t, rng: build(rng)[0])
    for t, a_mask in enumerate(a_masks):
        if a_mask not in probs_cache:
            probs_cache[a_mask] = span_probabilities(m, x, a_mask)
        probs = probs_cache[a_mask]
        for j, e in enumerate(ids):
            if (a_mask >> e) & 1:
                continue
            if probs[e] > tau:
                bad[t, j] = True
            else:
                good[t, j] = True
    # per-trial statistic whose mean the guarantee bounds
    vals = bad.astype(float) - eps * good.astype(float)
    z = bonferroni_z(len(ids))
    additive = 2.0 * eps**3 / math.log(params.rho)
    checks = []
    for j, e in enumerate(ids):
        mean = float(vals[:, j].mean())
        sigma = float(vals[:, j].std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
        checks.append(
            VerifyCheck(
                name=f"element-{e}",
                measured=mean,
                bound=additive,
                tolerance=z * sigma,
                direction="<=",
            )
        )
    meta = {
        "rho": params.rho,
        "tau": tau,
        "eps": eps,
        "trials": trials,
        "seed": seed_stream.seed,
        "q": params.q,
        "eta": params.eta,
        "bad_rate": {str(e): float(bad[:, j].mean()) for j, e in enumerate(ids)},
        "good_rate": {str(e): float(good[:, j].mean()) for j, e in enumerate(ids)},
    }
    return VerifyReport(kind="in-link-loss", checks=tuple(checks), meta=meta)


def verify_progress(
    m: Matroid,
    x: np.ndarray,
    lam: float,
    tau: float,
    eps: float,
    trials: int,
    seed_stream: RngStream,
    overrides: ParamOverrides | None = None,
) -> VerifyReport:
    """Check: E[rank(A)] <= (1 + lambda - (1-3 eps) tau) * rank(M), for the
    link of ``chain_plan(m, x, tau, eps, overrides)``."""
    if not lam < tau <= 1.0:
        raise ValueError("need lambda < tau <= 1")
    plan = chain_plan(m, x, tau, eps, overrides)
    x, params = plan.x, plan.params
    if m.n_universe <= EXACT_ENUM_MAX and not in_scaled_polytope(m, x, lam):
        raise ValueError("marginals are not in lambda * P_M")
    a_masks = workers.map_trials(trials, seed_stream, lambda t, rng: plan.link(rng)[0])
    ranks = np.array([m.rank(a) for a in a_masks], dtype=np.float64)
    bound = (1.0 + lam - (1.0 - 3.0 * eps) * tau) * m.full_rank()
    sigma = float(ranks.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    check = VerifyCheck(
        name="mean-rank", measured=float(ranks.mean()), bound=bound,
        tolerance=3.0 * sigma, direction="<=",
    )
    meta = {
        "lambda": lam, "rho": params.rho, "tau": tau, "eps": eps, "trials": trials,
        "seed": seed_stream.seed, "rank": m.full_rank(), "q": params.q,
    }
    return VerifyReport(kind="progress", checks=(check,), meta=meta)


def verify_spanning(
    m: Matroid,
    x: np.ndarray,
    lam: float,
    eps: float,
    trials: int,
    seed_stream: RngStream,
    overrides: ParamOverrides | None = None,
) -> VerifyReport:
    """Check: the second-to-last chain link C_zeta is empty w.p. >= 1 - eps."""
    plan = scheme_plan(m, x, lam, eps, overrides)
    if m.n_universe <= EXACT_ENUM_MAX and not in_scaled_polytope(m, plan.x, lam):
        raise ValueError("marginals are not in lambda * P_M")
    empty = sum(
        chain.links[trace.zeta] == 0 for chain, trace in plan.sample_trials(trials, seed_stream)
    )
    frac = empty / trials
    sigma = binomial_stderr(frac, trials)
    check = VerifyCheck(
        name="spanning-fraction", measured=frac, bound=1.0 - eps,
        tolerance=3.0 * sigma, direction=">=",
    )
    meta = {"lambda": lam, "eps": eps, "trials": trials, "seed": seed_stream.seed}
    return VerifyReport(kind="spanning", checks=(check,), meta=meta)


def verify_freeness_likely(
    m: Matroid,
    x: np.ndarray,
    lam: float,
    eps: float,
    trials: int,
    seed_stream: RngStream,
    overrides: ParamOverrides | None = None,
) -> VerifyReport:
    """Check: Pr[freeness >= 1-lambda-4 eps | e not in C_zeta]
    >= 1 - eps - 2 eps / Pr[e not in C_zeta], per element."""
    if m.n_universe > EXACT_ENUM_MAX:
        raise ValueError("exact freeness needs n <= 20")
    plan = scheme_plan(m, x, lam, eps, overrides)
    x = plan.x
    if not in_scaled_polytope(m, x, lam):
        raise ValueError("marginals are not in lambda * P_M")
    ids = ids_of(m.ground_mask)
    notin = np.zeros((trials, len(ids)), dtype=bool)
    high = np.zeros((trials, len(ids)), dtype=bool)
    level = 1.0 - lam - 4.0 * eps
    cache: dict[tuple[int, int], np.ndarray] = {}
    for t, (chain, trace) in enumerate(plan.sample_trials(trials, seed_stream)):
        c_zeta = chain.links[trace.zeta]
        for j, e in enumerate(ids):
            if (c_zeta >> e) & 1:
                continue
            notin[t, j] = True
            i = chain.level_of(e)
            key = (chain.links[i], chain.links[i + 1])
            if key not in cache:
                cache[key] = _level_freeness(m, x, *key)
            high[t, j] = cache[key][e] >= level - 1e-12
    z = bonferroni_z(len(ids))
    checks = []
    for j, e in enumerate(ids):
        denom = int(notin[:, j].sum())
        if denom == 0:
            checks.append(
                VerifyCheck(name=f"element-{e}", measured=1.0, bound=0.0,
                            tolerance=0.0, direction=">=")
            )
            continue
        p_notin = denom / trials
        cond = int((high[:, j] & notin[:, j]).sum()) / denom
        sigma = binomial_stderr(cond, denom)
        checks.append(
            VerifyCheck(
                name=f"element-{e}",
                measured=cond,
                bound=1.0 - eps - 2.0 * eps / p_notin,
                tolerance=z * sigma,
                direction=">=",
            )
        )
    meta = {"lambda": lam, "eps": eps, "trials": trials, "seed": seed_stream.seed,
            "freeness_level": level}
    return VerifyReport(kind="freeness-likely", checks=tuple(checks), meta=meta)


def _level_freeness(m: Matroid, x: np.ndarray, c_i: int, c_next: int) -> np.ndarray:
    """Freeness Pr[e ∉ span(((R(x) \\ {e}) ∩ C_i) ∪ C_{i+1})] of every
    element e of C_i \\ C_{i+1}, from one oracle call.

    With x' = x on C_i and p_e = Pr[e ∈ span(C_{i+1} ∪ R(x'))], e's
    freeness is (1 - p_e) / (1 - x_e): e ∈ span(C_{i+1} ∪ R) iff e ∈ R or
    e ∈ span(C_{i+1} ∪ (R \\ {e})), and the two events are independent.
    x in lambda * P_M with lambda < 1 keeps every x_e below 1.
    """
    x_level = np.where(bits_of(c_i, len(x)), x, 0.0)
    return (1.0 - span_probabilities(m, x_level, c_next)) / (1.0 - x_level)


# ---------------------------------------------------------------------------
# Exact T_alpha oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TAlphaResult:
    """Exact maximizer of r(T|B) - E[r(T|B ∪ R(x))]/(1-alpha) over T ⊇ B."""

    b_mask: int
    alpha: Fraction
    t_mask: int
    objective: Fraction

    def to_jsonable(self) -> dict:
        return {
            "B": ids_of(self.b_mask),
            "alpha": [self.alpha.numerator, self.alpha.denominator],
            "T": ids_of(self.t_mask),
            "objective": float(self.objective),
        }


def _exact_weights(m: Matroid, x) -> tuple[list[int], list[int], int]:
    """Realizations of positive weight, as masks, with exact integer weights.

    Returns (masks, numerators, denominator) with sum(numerators) == denominator.
    """
    xs = [Fraction(v) for v in x]
    if len(xs) != m.n_universe:
        raise ValueError("marginal vector length must match the universe size")
    for e, v in enumerate(xs):
        if not 0 <= v <= 1:
            raise ValueError("marginal probabilities must lie in [0, 1]")
        if v > 0 and not (m.ground_mask >> e) & 1:
            raise ValueError(f"positive marginal outside the ground set: {e}")
    on = np.array([v.numerator for v in xs], dtype=object)
    den = np.array([v.denominator for v in xs], dtype=object)
    nums = realization_products(den - on, on)
    masks = np.flatnonzero(nums)
    return masks.tolist(), nums[masks].tolist(), math.prod(v.denominator for v in xs)


#: ``_exact_weights`` of x and the rank table as a Python list.
_ExactTables = tuple[list[int], list[int], int, list[int]]


def _exact_tables(m: Matroid, x) -> _ExactTables:
    return (*_exact_weights(m, x), [int(v) for v in m.rank_table()])


def brute_force_T_alpha(m: Matroid, x, b_mask: int, alpha) -> TAlphaResult:
    """Exhaustive T_alpha(B) with exact rational expectations.

    Ties are broken toward the smallest cardinality, then the numerically
    smallest mask.  Limited to n <= 12; cost is 2^n candidates times 2^n
    realizations (integer arithmetic throughout).
    """
    return _brute_force_T_alpha(m, x, b_mask, alpha)[0]


def _brute_force_T_alpha(
    m: Matroid, x, b_mask: int, alpha
) -> tuple[TAlphaResult, _ExactTables]:
    """``brute_force_T_alpha`` and the tables it built."""
    if m.n_universe > T_ALPHA_MAX:
        raise ValueError(f"T_alpha brute force is limited to n <= {T_ALPHA_MAX}")
    if b_mask & ~m.ground_mask:
        raise ValueError("B must be a subset of the ground set")
    alpha = Fraction(alpha)
    if not 0 <= alpha < 1:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    tables = _exact_tables(m, x)
    masks, nums, denom, rank_t = tables
    a_num, a_den = alpha.numerator, alpha.denominator
    # score(T) = (a_den - a_num) * denom * r(T|B)  -  a_den * sum_R num_R * r(T | B ∪ R)
    # is the objective scaled by the positive constant (1-alpha)^{-1}-free
    # factor (a_den - a_num) * denom, so argmax is unchanged.
    r_b = rank_t[b_mask]
    r_b_or_r = [rank_t[b_mask | r] for r in masks]
    free = m.ground_mask & ~b_mask
    best_score = None
    best = b_mask
    for sub in submasks(free):
        t_mask = b_mask | sub
        e_num = 0
        r_t = rank_t[t_mask]
        for r_mask, n_r, rbr in zip(masks, nums, r_b_or_r):
            e_num += n_r * (rank_t[t_mask | r_mask] - rbr)
        score = (a_den - a_num) * denom * (r_t - r_b) - a_den * e_num
        key = (-score, t_mask.bit_count(), tuple(ids_of(t_mask)))
        if best_score is None or key < best_score:
            best_score = key
            best = t_mask
    e_num_best = sum(
        n_r * (rank_t[best | r_mask] - rbr)
        for r_mask, n_r, rbr in zip(masks, nums, r_b_or_r)
    )
    objective = Fraction(rank_t[best] - r_b) - Fraction(e_num_best, denom) / (1 - alpha)
    return TAlphaResult(b_mask=b_mask, alpha=alpha, t_mask=best, objective=objective), tables


def t_alpha_bullets_hold(
    m: Matroid, x, result: TAlphaResult, q_mask: int | None = None
) -> tuple[bool, bool | None]:
    """Exact check of the two guarantees of the T_alpha extension.

    First: E[r(T | B ∪ R)] <= (1-alpha) * r(T | B).
    Second (for a given Q disjoint from T):
    E[r(Q ∩ span(T ∪ R) | T)] <= alpha * r(Q | T).
    """
    return _bullets_hold(m, _exact_tables(m, x), result, q_mask)


def _bullets_hold(
    m: Matroid, tables: _ExactTables, result: TAlphaResult, q_mask: int | None
) -> tuple[bool, bool | None]:
    """``t_alpha_bullets_hold`` from tables built once per verdict."""
    masks, nums, denom, rank_t = tables
    a_num, a_den = result.alpha.numerator, result.alpha.denominator
    b, t = result.b_mask, result.t_mask
    lhs1 = sum(
        n_r * (rank_t[t | r_mask] - rank_t[b | r_mask])
        for r_mask, n_r in zip(masks, nums)
    )
    first = a_den * lhs1 <= (a_den - a_num) * denom * (rank_t[t] - rank_t[b])
    if q_mask is None:
        return first, None
    if q_mask & t:
        raise ValueError("Q must be disjoint from T")
    r_t = rank_t[t]
    spans = m.span_lookup()(np.array(masks, dtype=np.int64) | np.int64(t)).tolist()
    lhs2 = sum(n_r * (rank_t[(q_mask & span) | t] - r_t) for span, n_r in zip(spans, nums))
    second = a_den * lhs2 <= a_num * denom * (rank_t[q_mask | t] - r_t)
    return first, second


def verify_t_alpha(
    m: Matroid,
    x,
    b_mask: int,
    alpha,
    q_trials: int,
    rng: np.random.Generator,
) -> VerifyReport:
    """Build T_alpha(B) and check both guarantees, the second over random Q."""
    result, tables = _brute_force_T_alpha(m, x, b_mask, alpha)
    first, _ = _bullets_hold(m, tables, result, None)
    checks = [
        VerifyCheck(
            name="contains-B",
            measured=float((result.t_mask & result.b_mask) == result.b_mask),
            bound=1.0, tolerance=0.0, direction=">=",
        ),
        VerifyCheck(name="rank-drop", measured=0.0 if first else 1.0,
                    bound=0.0, tolerance=0.0, direction="<="),
    ]
    outside = m.ground_mask & ~result.t_mask
    out_ids = ids_of(outside)
    failures = 0
    for _ in range(q_trials):
        q_mask = 0
        for e in out_ids:
            if rng.random() < 0.5:
                q_mask |= 1 << e
        _, second = _bullets_hold(m, tables, result, q_mask)
        if not second:
            failures += 1
    checks.append(
        VerifyCheck(name="overlap-bound-failures", measured=float(failures),
                    bound=0.0, tolerance=0.0, direction="<=")
    )
    meta = {
        "alpha": float(result.alpha),
        "B": ids_of(b_mask),
        "T": ids_of(result.t_mask),
        "q_trials": q_trials,
    }
    return VerifyReport(kind="t-alpha", checks=tuple(checks), meta=meta)


# ---------------------------------------------------------------------------
# Sample-complexity audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuditRow:
    rho: int
    runs: int
    mean_draws: float
    max_draws: int
    draw_bound: int
    bound_ok: bool
    reference: float
    ratio: float


@dataclass(frozen=True)
class AuditTable:
    rows: tuple[AuditRow, ...]
    band: float | None
    band_limit: float = 4.0

    @property
    def band_ok(self) -> bool | None:
        if self.band is None:
            return None
        return self.band <= self.band_limit

    @property
    def bounds_ok(self) -> bool:
        return all(r.bound_ok for r in self.rows)

    def to_jsonable(self) -> dict:
        return {
            "rows": [
                {
                    "rho": r.rho, "runs": r.runs, "mean_draws": r.mean_draws,
                    "max_draws": r.max_draws, "draw_bound": r.draw_bound,
                    "bound_ok": r.bound_ok, "reference": r.reference, "ratio": r.ratio,
                }
                for r in self.rows
            ],
            "band": self.band,
            "band_limit": self.band_limit,
            "band_ok": self.band_ok,
            "bounds_ok": self.bounds_ok,
        }


def sample_complexity_audit(traces: list[BuildTrace]) -> AuditTable:
    """Tabulate draw counts against the zeta*eta*q ceiling and the
    log(rho) * log(log(rho))^2 reference curve, grouped by rho.

    Only conforming traces are admissible; the ratio band across rho values
    is reported for comparison against the expected scaling shape.
    """
    for tr in traces:
        if not tr.conforming:
            raise ValueError("audit requires conforming (non-overridden) traces")
    by_rho: dict[int, list[BuildTrace]] = {}
    for tr in traces:
        by_rho.setdefault(tr.params.rho, []).append(tr)
    rows = []
    for rho in sorted(by_rho):
        group = by_rho[rho]
        draws = [tr.draw_count for tr in group]
        bound = group[0].draw_bound
        ref = math.log(rho) * math.log(math.log(rho)) ** 2
        mean_draws = sum(draws) / len(draws)
        rows.append(
            AuditRow(
                rho=rho,
                runs=len(group),
                mean_draws=mean_draws,
                max_draws=max(draws),
                draw_bound=bound,
                bound_ok=all(tr.draw_count <= tr.draw_bound for tr in group),
                reference=ref,
                ratio=mean_draws / ref,
            )
        )
    band = None
    if len(rows) >= 2:
        ratios = [r.ratio for r in rows]
        band = max(ratios) / min(ratios)
    return AuditTable(rows=tuple(rows), band=band)
