"""End-to-end acceptance checks of the construction's guarantees.

One test per criterion; each prints a single PASS/FAIL line with the
measured quantities.  All statistical gates run at formula-conforming
parameter values (no q/eta/zeta overrides) with explicit 3-sigma error
budgets, Bonferroni-corrected across elements where a verdict aggregates
per-element checks.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from chainocrs import (
    GraphicMatroid,
    LaminarMatroid,
    PartitionMatroid,
    RngStream,
    SpanningChain,
    UniformMatroid,
    as_marginals,
    brute_force_T_alpha,
    element_last_accepts,
    ocrs_chain,
    run_selection,
    sample_complexity_audit,
    selectability_experiment,
    t_alpha_bullets_hold,
    validate_axioms,
    verify_in_link_loss,
    verify_progress,
    verify_spanning,
    worst_case_order,
)
from chainocrs.bitset import ids_of, submasks
from chainocrs.chains import LinkParams, ParamOverrides, formula_eta
from chainocrs.cli import generate_marginal, parse_config, run
from conftest import explicit_corpus, random_explicit_matroid, small_corpus

pytestmark = pytest.mark.acceptance

EPS = 0.05
LAM = 0.5


def k4():
    return GraphicMatroid(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def k4_basis_x():
    x = np.zeros(6)
    x[:3] = LAM  # star at vertex 0 is a basis
    return x


def report(n, ok, detail):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} :: {detail}")


def test_criterion_1_matroid_axioms():
    t0 = time.monotonic()
    corpus = small_corpus() + explicit_corpus(20)
    failures = []
    for m in corpus:
        rep = validate_axioms(m)
        if not (rep.passed and rep.rank_submodular):
            failures.append((m, rep.failures))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 10.0
    report(1, ok, f"{len(corpus)} matroids validated in {elapsed:.2f}s")
    assert not failures
    assert elapsed < 10.0


def test_criterion_2_truncation_distribution():
    t0 = time.monotonic()
    worst_sum = 0.0
    worst_rec = 0.0
    for eps in (0.05, 0.04, 0.02):
        for rho in (3, 10, 100):
            td = LinkParams.from_formula(rho, (1 - eps) * (LAM + 4 * eps), eps)
            worst_sum = max(worst_sum, abs(float(td.pmf.sum()) - 1.0))
            cdf = np.cumsum(td.pmf)
            for h in range(2, td.eta + 1):
                worst_rec = max(worst_rec, abs(cdf[h - 1] - (1 + eps) * cdf[h - 2]))
            assert td.pmf[0] <= eps**3 / math.log(rho)
    elapsed = time.monotonic() - t0
    ok = worst_sum <= 1e-12 and worst_rec <= 1e-12 and elapsed < 1.0
    report(
        2,
        ok,
        f"max |pmf sum - 1| = {worst_sum:.2e}, max recurrence gap = {worst_rec:.2e}, "
        f"{elapsed:.3f}s",
    )
    assert worst_sum <= 1e-12
    assert worst_rec <= 1e-12
    assert elapsed < 1.0


def test_criterion_3_chain_well_formedness():
    t0 = time.monotonic()
    instances = [
        (k4(), generate_marginal({"kind": "uniform-scaled"}, k4(), LAM)),
        (UniformMatroid(3, 9), generate_marginal({"kind": "uniform-scaled"}, UniformMatroid(3, 9), LAM)),
    ]
    runs = 0
    for m, x in instances:
        for t in range(100):
            rng = RngStream(301, t).generator()
            chain, trace = ocrs_chain(m, x, LAM + 4 * EPS, EPS, rng)
            assert trace.conforming
            assert chain.links[0] == m.ground_mask
            assert chain.links[trace.zeta + 1] == 0
            for hi, lo in zip(chain.links, chain.links[1:]):
                assert lo & ~hi == 0
            for lt in trace.link_traces:
                for prev, cur in zip(lt.a_sets, lt.a_sets[1:]):
                    assert prev & ~cur == 0
            assert trace.draw_count <= trace.draw_bound
            runs += 1
    elapsed = time.monotonic() - t0
    report(3, True, f"{runs} conforming chains well-formed in {elapsed:.1f}s")
    assert elapsed < 30 * 60


def test_criterion_4_chain_is_spanning():
    t0 = time.monotonic()
    m = k4()
    x = k4_basis_x()
    rep = verify_spanning(m, x, LAM, EPS, 200, RngStream(401))
    frac = rep.checks[0].measured
    elapsed = time.monotonic() - t0

    # non-conforming smoke variant, reported but not gated
    t_smoke = time.monotonic()
    rho = max(m.full_rank(), 3)
    q_full = math.ceil(6 / ((1 - EPS) * (LAM + 4 * EPS) * EPS**2) * math.log(math.log(rho) / EPS))
    smoke = ParamOverrides(
        q=math.ceil(q_full / 10),
        eta=math.ceil(formula_eta(EPS, rho) / 10),
        zeta=math.ceil(math.log(rho / EPS) / EPS / 10),
    )
    rep_smoke = verify_spanning(m, x, LAM, EPS, 200, RngStream(402), smoke)
    smoke_elapsed = time.monotonic() - t_smoke

    ok = rep.passed and elapsed < 3600 and smoke_elapsed < 60
    report(
        4,
        ok,
        f"C_zeta empty fraction {frac:.3f} >= {1 - EPS} - 3sigma over 200 conforming "
        f"trials ({elapsed:.1f}s); smoke variant fraction "
        f"{rep_smoke.checks[0].measured:.3f} in {smoke_elapsed:.1f}s (not gated)",
    )
    assert rep.passed
    assert elapsed < 3600
    assert smoke_elapsed < 60


def test_criterion_5_progress():
    t0 = time.monotonic()
    m = k4()
    x = k4_basis_x()
    tau = LAM + 4 * EPS
    rep = verify_progress(m, x, LAM, tau, EPS, 1000, RngStream(501))
    check = rep.checks[0]
    elapsed = time.monotonic() - t0
    ok = rep.passed and elapsed < 3600
    report(
        5,
        ok,
        f"mean r(A) = {check.measured:.4f} <= {check.bound:.4f} + {check.tolerance:.4f} "
        f"over 1000 link runs ({elapsed:.1f}s)",
    )
    assert rep.passed
    assert elapsed < 3600


def test_criterion_6_in_link_loss():
    t0 = time.monotonic()
    m = UniformMatroid(2, 4)
    x = as_marginals([0.25] * 4)
    rep = verify_in_link_loss(m, x, 0.54, EPS, 10_000, RngStream(601))
    elapsed = time.monotonic() - t0
    worst = max(c.measured - c.bound - c.tolerance for c in rep.checks)
    ok = rep.passed and elapsed < 3600
    report(
        6,
        ok,
        f"per-element Pr[bad] - eps*Pr[good] - bound - tol <= {worst:.2e} "
        f"(Bonferroni over 4 elements, 10^4 runs, {elapsed:.1f}s)",
    )
    assert rep.passed
    assert elapsed < 3600


def test_criterion_7_rank_reduction_in_overlap():
    t0 = time.monotonic()
    rng = np.random.default_rng(701)
    families = small_corpus()
    checked = 0
    for i in range(50):
        if rng.random() < 0.5:
            m = families[int(rng.integers(len(families)))]
        else:
            m = random_explicit_matroid(rng, int(rng.integers(3, 9)))
        n = m.n_universe
        x = [Fraction(int(rng.integers(0, 9)), 8) for _ in range(n)]
        b_mask = int(rng.integers(0, m.ground_mask + 1)) & m.ground_mask
        alpha = Fraction(int(rng.integers(0, 10)), 10)
        res = brute_force_T_alpha(m, x, b_mask, alpha)
        assert res.t_mask & b_mask == b_mask
        first, _ = t_alpha_bullets_hold(m, x, res)
        assert first, (m, x, b_mask, alpha)
        outside = m.ground_mask & ~res.t_mask
        for _ in range(100):
            q_mask = int(rng.integers(0, m.ground_mask + 1)) & outside
            _, second = t_alpha_bullets_hold(m, x, res, q_mask)
            assert second, (m, x, b_mask, alpha, q_mask)
        checked += 1
    elapsed = time.monotonic() - t0
    ok = checked == 50 and elapsed < 600
    report(7, ok, f"50 instances x 100 Q-sets: both bounds exact ({elapsed:.1f}s)")
    assert checked == 50
    assert elapsed < 600


def test_criterion_8_selectability_floor():
    t0 = time.monotonic()
    floor = LAM * (1 - LAM - 8 * EPS)
    details = []
    ok = True
    for name, m, x in [
        ("U_{1,2}", UniformMatroid(1, 2), as_marginals([0.25, 0.25])),
        ("K3", GraphicMatroid(3, [(0, 1), (1, 2), (2, 0)]),
         as_marginals([Fraction(1, 3)] * 3)),
    ]:
        rep = selectability_experiment(
            m, x, LAM, EPS, 10_000, "element-last", RngStream(801)
        )
        min_freq = rep.min_frequency()
        ok = ok and rep.floor_holds()
        details.append(
            f"{name}: min freq {min_freq:.4f} vs floor {floor:.3f} "
            f"(descriptive 1/4-eps = {0.25 - EPS:.2f})"
        )
        assert rep.floor_holds()
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 2 * 3600
    report(8, ok, "; ".join(details) + f" ({elapsed:.1f}s, 10^4 trials each)")
    assert elapsed < 2 * 3600


def test_criterion_9_adversary_soundness():
    t0 = time.monotonic()
    instances = [
        UniformMatroid(1, 2),
        UniformMatroid(2, 3),
        UniformMatroid(2, 4),
        GraphicMatroid(3, [(0, 1), (1, 2), (2, 0)]),
        PartitionMatroid([[0, 1], [2, 3]], [1, 1]),
        LaminarMatroid(5, [[0, 1, 2, 3, 4], [0, 1]], [3, 1]),
    ]
    combos = 0
    for m in instances:
        g = m.ground_mask
        n = m.n_universe
        if n <= 4:
            mids = list(submasks(g))
        else:
            mids = [0] + [1 << e for e in ids_of(g)] + [0b00011, 0b00111]
        chains = [SpanningChain((g, mid, 0)) for mid in mids]
        # a few depth-3 chains with nested interior links
        for mid in mids[: 2 * n]:
            if mid:
                low = mid & -mid  # lowest set bit of the interior link
                chains.append(SpanningChain((g, mid, low, 0)))
        for chain in chains:
            for actives in submasks(g):
                for target in ids_of(actives):
                    last = element_last_accepts(m, chain, actives, target)
                    worst = worst_case_order(m, chain, actives, target, "exhaustive-worst")
                    worst_out = bool((run_selection(m, chain, actives, worst) >> target) & 1)
                    assert worst_out == last, (m, chain, actives, target)
                    combos += 1
    elapsed = time.monotonic() - t0
    ok = elapsed < 300
    report(
        9, ok,
        f"exhaustive-worst == element-last on {combos} (chain, actives, target) "
        f"combos with full order enumeration ({elapsed:.1f}s)",
    )
    assert elapsed < 300


def test_criterion_10_scaling_audit():
    t0 = time.monotonic()
    traces = []
    for rho in (8, 64, 512):
        m = UniformMatroid(rho, 2 * rho)
        x = generate_marginal({"kind": "basis-indicator-scaled"}, m, LAM)
        for t in range(2):
            rng = RngStream(1001, (rho << 8) + t).generator()
            _, trace = ocrs_chain(m, x, LAM + 4 * EPS, EPS, rng)
            traces.append(trace)
    table = sample_complexity_audit(traces)
    elapsed = time.monotonic() - t0
    lines = ", ".join(
        f"rho={r.rho}: draws {r.mean_draws:.3e} <= {r.draw_bound:.3e}, "
        f"ratio {r.ratio:.3e}" for r in table.rows
    )
    ok = table.bounds_ok and bool(table.band_ok)
    report(
        10, ok,
        f"{lines}; ratio band x{table.band:.2f} vs x4 limit ({elapsed:.0f}s). "
        "The additive ln(1/eps) terms in zeta, eta and q dominate at these "
        "rho values, so the measured band exceeds x4 by deterministic "
        "arithmetic (see README, known red gate).",
    )
    assert table.bounds_ok
    assert elapsed < 4 * 3600
    # Honest red: the x4 band is not attainable at desk scale with the
    # formula parameters; the draw count is ~zeta * E[h_bar] * q and its
    # ratio to ln(rho) * lnln(rho)^2 spans ~x7 across rho in {8, 64, 512}.
    assert table.band_ok, (
        f"ratio band x{table.band:.2f} exceeds the x4 limit; the draw count "
        "~zeta*E[h_bar]*q is content-independent and its ratio to "
        "ln(rho)*lnln(rho)^2 spans ~x7 across rho in {8, 64, 512} because "
        "the ln(1/eps) constants in the parameter formulas dominate at "
        "these ranks (see README, known red gate)"
    )


def test_criterion_11_determinism():
    t0 = time.monotonic()
    chain_cfg = parse_config(
        {
            "mode": "chain",
            "matroid": {
                "family": "graphic",
                "n_vertices": 4,
                "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]],
            },
            "marginal": {"kind": "basis-indicator-scaled"},
            "lambda": LAM,
            "eps": EPS,
            "trials": 5,
            "seed": 1101,
        }
    )
    ocrs_cfg = parse_config(
        {
            "mode": "ocrs",
            "matroid": {"family": "uniform", "k": 1, "n": 2},
            "marginal": {"kind": "custom", "values": [0.25, 0.25]},
            "lambda": LAM,
            "eps": EPS,
            "trials": 200,
            "seed": 1102,
        }
    )
    same = True
    for cfg in (chain_cfg, ocrs_cfg):
        r1, c1 = run(cfg)
        r2, c2 = run(cfg)
        same = same and r1.to_json() == r2.to_json() and c1 == c2
    elapsed = time.monotonic() - t0
    report(11, same, f"repeat runs byte-identical (conforming configs, {elapsed:.1f}s)")
    assert same
