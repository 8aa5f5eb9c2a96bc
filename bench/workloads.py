"""The four benchmark workloads: CLI configs, report invariants, corruptions.

Every workload runs through the public CLI entry (``cli.parse_config`` then
``cli.run``).  One call of ``cli.run`` produces one canonical report; a
report covers ``units_per_report`` units (trials, link runs or chains), and
a report that fails a check counts all of its units as failed.

Report ``i`` of a run with benchmark seed ``s`` uses config seed
``(s << 24) | i``, so the same benchmark seed always gives the same inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

LAM = 0.5
EPS = 0.05

K3 = {"family": "graphic", "n_vertices": 3, "edges": [[0, 1], [1, 2], [2, 0]]}
U24 = {"family": "uniform", "k": 2, "n": 4}


def theta_graph(paths: int) -> dict:
    """Edge (u, v) = (0, 1) plus ``paths`` two-edge u-v paths through 2, 3, ..."""
    edges = [[0, 1]]
    for w in range(2, paths + 2):
        edges += [[0, w], [w, 1]]
    return {"family": "graphic", "n_vertices": paths + 2, "edges": edges}


THETA39 = theta_graph(19)

#: chain-theta39 runs at lambda = 0.1, so every element is spanned with
#: probability at most 0.1 against a link threshold of 0.95 * 0.3 = 0.285.
#: At q = 100 a sampled estimate rarely crosses it, so the chain almost
#: always stays (N, {}, ..., {}) and costs one link of h-bar iterations of
#: q span calls: a few seconds.  At lambda = 0.5 the same margin needs q ~ 200
#: and a chain takes about 10 s, too few chains per run to be steady.
THETA_LAM = 0.1
THETA_Q = 100


@dataclass(frozen=True)
class Workload:
    name: str
    base: dict
    units_per_report: int
    rho: int
    tau: float
    universe: int
    q_override: int | None = None

    def config(self, seed: int, index: int) -> dict:
        return {
            "schema_version": 1, "lambda": LAM, "eps": EPS, **self.base,
            "seed": (seed << 24) | index,
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ocrs-k3",
            base={
                "mode": "ocrs", "matroid": K3, "trials": 100,
                "marginal": {"kind": "custom", "values": [1 / 3] * 3},
                "adversary": "element-last",
            },
            units_per_report=100, rho=3, tau=LAM + 4 * EPS, universe=3,
        ),
        Workload(
            name="inlink-u24",
            base={
                "mode": "verify-inlink", "matroid": U24, "trials": 400,
                "marginal": {"kind": "custom", "values": [0.25] * 4},
                "tau": 0.54,
            },
            units_per_report=400, rho=3, tau=0.54, universe=4,
        ),
        Workload(
            name="audit-u128",
            base={"mode": "audit", "audit": {"rhos": [128], "runs": 1}},
            units_per_report=1, rho=128, tau=LAM + 4 * EPS, universe=256,
        ),
        Workload(
            name="chain-theta39",
            base={
                "mode": "chain", "matroid": THETA39, "trials": 1, "lambda": THETA_LAM,
                "marginal": {"kind": "basis-indicator-scaled"},
                "overrides": {"q": THETA_Q},
            },
            units_per_report=1, rho=20, tau=THETA_LAM + 4 * EPS, q_override=THETA_Q,
            universe=39,
        ),
    )
}


def chain_params(w: Workload) -> tuple[int, int, int]:
    """(zeta, eta, q) of one chain or link of the workload, from the formulas."""
    from chainocrs.chains import LinkParams, ParamOverrides

    zeta = math.ceil(math.log(w.rho / EPS) / EPS)
    params = LinkParams.from_formula(
        w.rho, (1.0 - EPS) * w.tau, EPS, ParamOverrides(q=w.q_override)
    )
    return zeta, params.eta, params.q


def check_report(w: Workload, doc: dict, code: int, config_seed: int) -> list[str]:
    """Invariant violations of one parsed canonical report (empty when sound)."""
    bad = []
    if code != 0:
        bad.append(f"exit code {code}, expected 0")
    cfg = doc.get("config", {})
    if cfg.get("mode") != w.base["mode"] or cfg.get("seed") != config_seed:
        bad.append("config echo does not match the request")
    zeta, eta, q = chain_params(w)
    res = doc.get("results", {})
    if w.name == "ocrs-k3":
        trials = w.units_per_report
        if res.get("floor_holds") is not True:
            bad.append("floor_holds is not true")
        if res.get("trials") != trials:
            bad.append("trial count differs")
        if not 0 < res.get("draw_count", -1) <= trials * zeta * eta * q:
            bad.append("draw_count outside (0, trials*zeta*eta*q]")
        for row in res.get("per_element", []):
            if not 0 <= row["selections"] <= row["activations"] <= trials:
                bad.append(f"element {row['element_id']} counts inconsistent")
        if len(res.get("per_element", [])) != w.universe:
            bad.append("per_element rows missing")
    elif w.name == "inlink-u24":
        verdicts = doc.get("verdicts", [])
        if len(verdicts) != 1 or verdicts[0].get("passed") is not True:
            bad.append("verdict did not pass")
        else:
            meta = verdicts[0]["meta"]
            if meta.get("trials") != w.units_per_report:
                bad.append("link-run count differs")
            if meta.get("q") != q or meta.get("eta") != eta:
                bad.append("q/eta differ from the formulas")
            for e in range(w.universe):
                b, g = meta["bad_rate"][str(e)], meta["good_rate"][str(e)]
                if not (0 <= b and 0 <= g and b + g <= 1 + 1e-12):
                    bad.append(f"element {e} rates inconsistent")
    elif w.name == "audit-u128":
        rows = res.get("rows", [])
        if res.get("bounds_ok") is not True:
            bad.append("bounds_ok is not true")
        if len(rows) != 1 or rows[0]["rho"] != w.rho or rows[0]["runs"] != 1:
            bad.append("audit table shape differs")
        elif not (rows[0]["draw_bound"] == zeta * eta * q
                  and 0 < rows[0]["max_draws"] <= rows[0]["draw_bound"]):
            bad.append("draw count outside (0, zeta*eta*q]")
    elif w.name == "chain-theta39":
        per_trial = res.get("per_trial", [])
        if len(per_trial) != w.units_per_report:
            bad.append("chain count differs")
        total = 0
        for tr in per_trial:
            links = tr["links"]
            if links[0] != list(range(w.universe)) or links[-1] != []:
                bad.append("chain does not run from C_0 = N to a final empty link")
            if len(links) != zeta + 2:
                bad.append("chain length is not zeta + 2")
            if any(not set(b) <= set(a) for a, b in zip(links, links[1:])):
                bad.append("chain links are not nested")
            draws = tr["draw_count"]
            if draws != q * sum(tr["h_bars"]) or not 0 < draws <= zeta * eta * q:
                bad.append("draw_count inconsistent or above zeta*eta*q")
            total += draws
        if res.get("total_draw_count") != total:
            bad.append("total_draw_count differs from the per-chain sum")
    return bad


def corrupt(w: Workload, doc: dict) -> None:
    """Break the workload's main invariant in place (for the gate self-test)."""
    if w.name == "ocrs-k3":
        doc["results"]["floor_holds"] = False
    elif w.name == "inlink-u24":
        doc["verdicts"][0]["passed"] = False
    elif w.name == "audit-u128":
        doc["results"]["bounds_ok"] = False
    else:
        doc["results"]["per_trial"][0]["links"][-1] = [0]
