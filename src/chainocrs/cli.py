"""Experiment orchestration: JSON config in, JSON (+ CSV) reports out.

Exit codes: 0 success, 1 invalid configuration, 2 verification failure.

Reports are deterministic: every serialized field is fully determined by
the configuration and the seed.  Wall-clock time is therefore not part of
the JSON report; it is printed to stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bitset import iter_ids, mask_of
from .chains import ParamOverrides, chain_plan
from .matroids import Matroid, UniformMatroid, matroid_from_descriptor
from .sampling import EXACT_ENUM_MAX, RngStream, as_marginals, in_scaled_polytope
from .selection import ADVERSARIES, selectability_experiment
from .verify import (
    sample_complexity_audit,
    verify_freeness_likely,
    verify_in_link_loss,
    verify_progress,
    verify_spanning,
    verify_t_alpha,
)

SCHEMA_VERSION = 1

#: Largest audited rank: each audit chain builds U_{rho,2rho}.
AUDIT_RHO_MAX = 4096

#: Largest element count, element id + 1 and vertex count of a matroid
#: descriptor: the ground set of the largest audit chain.
MATROID_SIZE_MAX = 2 * AUDIT_RHO_MAX

#: Audit run t of rank rho draws from stream (rho << AUDIT_RUN_BITS) + t,
#: so runs must stay below 2^AUDIT_RUN_BITS to keep the streams distinct.
AUDIT_RUN_BITS = 20

MODES = (
    "chain",
    "ocrs",
    "verify-inlink",
    "verify-progress",
    "verify-spanning",
    "verify-freeness",
    "verify-talpha",
    "audit",
)


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 1)."""


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str
    matroid: dict | None
    marginal: dict
    lam: float
    eps: float
    tau: float | None
    trials: int
    seed: int
    adversary: str
    overrides: ParamOverrides
    audit: dict = field(default_factory=dict)
    talpha: dict = field(default_factory=dict)

    @property
    def conforming(self) -> bool:
        return not self.overrides.any_set

    def echo(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "mode": self.mode,
            "matroid": self.matroid,
            "marginal": self.marginal,
            "lambda": self.lam,
            "eps": self.eps,
            "tau": self.tau,
            "trials": self.trials,
            "seed": self.seed,
            "adversary": self.adversary,
            "overrides": {
                "q": self.overrides.q,
                "eta": self.overrides.eta,
                "zeta": self.overrides.zeta,
            },
            "conforming": self.conforming,
            "audit": self.audit,
            "talpha": self.talpha,
        }


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a raw JSON config object."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    version = raw.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version}")
    mode = raw.get("mode")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    matroid = raw.get("matroid")
    if mode != "audit" or matroid is not None:
        _check_matroid(matroid)
    marginal = raw.get("marginal", {"kind": "basis-indicator-scaled"})
    if not isinstance(marginal, dict) or "kind" not in marginal:
        raise ConfigError("marginal must be an object with a 'kind'")
    lam, eps, tau = raw.get("lambda", 0.5), raw.get("eps", 0.05), raw.get("tau")
    # JSON numbers only: float() would also take true and strings like "0.5".
    for key, value in (("lambda", lam), ("eps", eps), ("tau", tau)):
        if not (_is_number(value) or (key == "tau" and value is None)):
            raise ConfigError(f"{key} must be a number, got {value!r}")
    try:
        lam, eps = float(lam), float(eps)
        tau = None if tau is None else float(tau)
    except OverflowError as exc:
        raise ConfigError(f"bad numeric field: {exc}")
    if not 0.0 < eps <= 0.05:
        raise ConfigError(f"eps must lie in (0, 1/20], got {eps}")
    if mode in ("ocrs", "chain", "verify-spanning", "verify-freeness", "audit"):
        if not 0.0 < lam <= 1.0 - 4.0 * eps:
            raise ConfigError(f"lambda must lie in (0, 1-4*eps], got {lam}")
    trials = raw.get("trials", 1)
    if not _positive_int(trials):
        raise ConfigError(f"trials must be a positive integer, got {trials!r}")
    # RngStream keys Philox with the seed modulo 2^64, so a seed outside
    # [0, 2^64) would silently alias one inside it.
    seed = raw.get("seed", 0)
    if not (_is_int(seed) and 0 <= seed < 1 << 64):
        raise ConfigError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    adversary = raw.get("adversary", "element-last")
    if adversary not in ADVERSARIES:
        raise ConfigError(f"adversary must be one of {ADVERSARIES}, got {adversary!r}")
    ov = raw.get("overrides", {}) or {}
    if not isinstance(ov, dict) or not set(ov) <= {"q", "eta", "zeta"}:
        raise ConfigError("overrides may only set q, eta, zeta")
    for key, val in ov.items():
        if val is not None and not _positive_int(val):
            raise ConfigError(f"overrides.{key} must be a positive integer, got {val!r}")
    overrides = ParamOverrides(
        q=ov.get("q"), eta=ov.get("eta"), zeta=ov.get("zeta")
    )
    audit = raw.get("audit", {})
    talpha = raw.get("talpha", {})
    _check_audit(audit)
    _check_talpha(talpha)
    return ExperimentConfig(
        mode=mode,
        matroid=matroid,
        marginal=marginal,
        lam=lam,
        eps=eps,
        tau=tau,
        trials=trials,
        seed=seed,
        adversary=adversary,
        overrides=overrides,
        audit=audit,
        talpha=talpha,
    )


def _is_int(value) -> bool:
    # JSON booleans parse as Python bools, which are ints.
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def _positive_int(value) -> bool:
    return _is_int(value) and value >= 1


def _check_audit(audit) -> None:
    if not isinstance(audit, dict):
        raise ConfigError("audit must be an object")
    rhos = audit.get("rhos", [1])
    if not (
        isinstance(rhos, list) and rhos
        and all(_positive_int(r) and r <= AUDIT_RHO_MAX for r in rhos)
    ):
        raise ConfigError(
            f"audit.rhos must be a nonempty list of integers in [1, {AUDIT_RHO_MAX}], got {rhos!r}"
        )
    runs = audit.get("runs", 1)
    if not (_positive_int(runs) and runs < 1 << AUDIT_RUN_BITS):
        raise ConfigError(
            f"audit.runs must be an integer in [1, 2^{AUDIT_RUN_BITS}), got {runs!r}"
        )


def _check_talpha(talpha) -> None:
    # The T_alpha builder needs 0 < alpha < 1 in either accepted form.
    if not isinstance(talpha, dict):
        raise ConfigError("talpha must be an object")
    alpha = talpha.get("alpha")
    if isinstance(alpha, list):
        if not (len(alpha) == 2 and all(map(_is_int, alpha)) and 0 < alpha[0] < alpha[1]):
            raise ConfigError(
                f"talpha.alpha as [num, den] needs integers with 0 < num < den, got {alpha!r}"
            )
    elif alpha is not None and not (
        _is_number(alpha) and 0 < alpha < 1
    ):
        raise ConfigError(f"talpha.alpha must be a number in (0, 1), got {alpha!r}")
    if not _positive_int(talpha.get("q_trials", 1)):
        raise ConfigError(
            f"talpha.q_trials must be an integer >= 1, got {talpha['q_trials']!r}"
        )
    b = talpha.get("b", [])
    if not isinstance(b, list) or not all(_is_int(e) and e >= 0 for e in b):
        raise ConfigError(f"talpha.b must be a list of element ids, got {b!r}")


def _check_matroid(desc) -> None:
    # Types and sizes only: the matroid is built by ``run``, not here.
    if not isinstance(desc, dict):
        raise ConfigError("a matroid descriptor is required")
    family = desc.get("family")
    fields = _DESCRIPTOR_FIELDS.get(family) if isinstance(family, str) else None
    if fields is None:
        raise ConfigError(
            f"matroid.family must be one of {tuple(_DESCRIPTOR_FIELDS)}, got {family!r}"
        )
    for key, kind in fields:
        test, wanted = _DESCRIPTOR_KINDS[kind]
        if not test(desc.get(key)):
            raise ConfigError(f"{family} matroid.{key} must be {wanted}, got {desc.get(key)!r}")


def _is_size(value) -> bool:
    return _is_int(value) and 0 <= value <= MATROID_SIZE_MAX


def _is_ids(value) -> bool:
    return isinstance(value, list) and all(_is_int(e) and 0 <= e < MATROID_SIZE_MAX for e in value)


_DESCRIPTOR_KINDS = {
    "size": (_is_size, f"an integer in [0, {MATROID_SIZE_MAX}]"),
    "counts": (
        lambda v: isinstance(v, list) and all(_is_int(c) and c >= 0 for c in v),
        "a list of non-negative integers",
    ),
    "id lists": (
        lambda v: isinstance(v, list) and all(map(_is_ids, v)),
        f"a list of lists of element ids in [0, {MATROID_SIZE_MAX})",
    ),
    "edges": (
        lambda v: isinstance(v, list) and len(v) <= MATROID_SIZE_MAX
        and all(_is_ids(e) and len(e) == 2 for e in v),
        f"a list of at most {MATROID_SIZE_MAX} [u, v] pairs of vertex ids in "
        f"[0, {MATROID_SIZE_MAX})",
    ),
}

#: The fields of each matroid family and the kind of value each holds.
_DESCRIPTOR_FIELDS = {
    "uniform": (("k", "size"), ("n", "size")),
    "partition": (("blocks", "id lists"), ("capacities", "counts")),
    "graphic": (("n_vertices", "size"), ("edges", "edges")),
    "laminar": (("n", "size"), ("sets", "id lists"), ("capacities", "counts")),
    "explicit": (("n", "size"), ("independent", "id lists")),
}


def generate_marginal(spec: dict, m: Matroid, lam: float) -> np.ndarray:
    """Build the activation marginals and enforce the λ·P_M precondition.

    ``uniform-scaled`` puts λ·rank(M)/n on every ground element,
    ``basis-indicator-scaled`` puts λ on a greedy basis (valid by
    construction at any size), ``custom`` takes explicit values.  Anything
    not valid by construction is brute-force checked, which caps those
    kinds at n <= 20.
    """
    kind = spec.get("kind")
    n = m.n_universe
    x = np.zeros(n)
    if kind == "uniform-scaled":
        level = lam * m.full_rank() / m.ground_mask.bit_count()
        for e in iter_ids(m.ground_mask):
            x[e] = level
    elif kind == "basis-indicator-scaled":
        basis = 0
        for e in iter_ids(m.ground_mask):
            if m.is_independent(basis | (1 << e)):
                basis |= 1 << e
        for e in iter_ids(basis):
            x[e] = lam
        return x  # in lambda * P_M by construction
    elif kind == "custom":
        values = spec.get("values")
        if not isinstance(values, list) or len(values) != n:
            raise ConfigError("custom marginal needs a 'values' list of length n")
        x = as_marginals(values)
    else:
        raise ConfigError(f"unknown marginal kind {kind!r}")
    if n > EXACT_ENUM_MAX:
        raise ConfigError(
            "cannot verify the polytope precondition beyond n=20; "
            "use basis-indicator-scaled"
        )
    if not in_scaled_polytope(m, x, lam):
        raise ConfigError("marginals are not in lambda * P_M")
    return x


@dataclass
class ExperimentReport:
    """Full experiment record; wall-clock stays out of the serialized form."""

    config: dict
    results: dict
    verdicts: list
    wall_clock_seconds: float | None = None

    def to_jsonable(self) -> dict:
        return _plain({
            "schema_version": SCHEMA_VERSION,
            "config": self.config,
            "results": self.results,
            "verdicts": self.verdicts,
        })

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), indent=2, sort_keys=True) + "\n"


def _plain(obj):
    """Recursively convert numpy scalars/arrays for JSON serialization."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    return obj


def run(config: ExperimentConfig) -> tuple[ExperimentReport, int]:
    """Dispatch one experiment; returns (report, exit_code)."""
    t0 = time.monotonic()
    if config.mode == "audit":
        report, code = _run_audit(config)
    else:
        m = matroid_from_descriptor(config.matroid)
        x = generate_marginal(config.marginal, m, config.lam)
        runner = {
            "chain": _run_chain,
            "ocrs": _run_ocrs,
            "verify-inlink": _run_verify_inlink,
            "verify-progress": _run_verify_progress,
            "verify-spanning": _run_verify_spanning,
            "verify-freeness": _run_verify_freeness,
            "verify-talpha": _run_verify_talpha,
        }[config.mode]
        report, code = runner(config, m, x)
    report.wall_clock_seconds = time.monotonic() - t0
    return report, code


def _stream(config: ExperimentConfig) -> RngStream:
    return RngStream(config.seed)


def _chain_tau(config: ExperimentConfig) -> float:
    return config.tau if config.tau is not None else config.lam + 4.0 * config.eps


def _run_chain(config, m, x):
    tau = _chain_tau(config)
    plan = chain_plan(m, x, tau, config.eps, config.overrides)
    per_trial = []
    total_draws = 0
    empty_final = 0
    for t in range(config.trials):
        rng = _stream(config).substream(t).generator()
        chain, trace = plan.sample(rng)
        total_draws += trace.draw_count
        c_zeta = chain.links[trace.zeta]
        empty_final += c_zeta == 0
        per_trial.append(
            {
                "links": chain.to_jsonable(),
                "link_sizes": [c.bit_count() for c in chain.links],
                "draw_count": trace.draw_count,
                "h_bars": list(trace.h_bars),
            }
        )
    results = {
        "tau": tau,
        "trials": config.trials,
        "c_zeta_empty_rate": empty_final / config.trials,
        "total_draw_count": total_draws,
        "per_trial": per_trial,
    }
    return ExperimentReport(config.echo(), results, []), 0


def _run_ocrs(config, m, x):
    report = selectability_experiment(
        m,
        x,
        config.lam,
        config.eps,
        config.trials,
        config.adversary,
        _stream(config),
        config.overrides,
    )
    results = report.to_jsonable()
    results["floor_holds"] = report.floor_holds()
    results["quarter_minus_eps"] = 0.25 - config.eps
    return ExperimentReport(config.echo(), results, []), 0


def _verify_common(config, verdict) -> tuple[ExperimentReport, int]:
    report = ExperimentReport(config.echo(), {}, [verdict.to_jsonable()])
    return report, 0 if verdict.passed else 2


def _run_verify_inlink(config, m, x):
    rho = max(m.full_rank(), 3)
    tau = _chain_tau(config)
    verdict = verify_in_link_loss(
        m, x, rho, tau, config.eps, config.trials, _stream(config),
        overrides=config.overrides,
    )
    return _verify_common(config, verdict)


def _run_verify_progress(config, m, x):
    rho = max(m.full_rank(), 3)
    tau = _chain_tau(config)
    verdict = verify_progress(
        m, x, config.lam, rho, tau, config.eps, config.trials, _stream(config),
        overrides=config.overrides,
    )
    return _verify_common(config, verdict)


def _run_verify_spanning(config, m, x):
    verdict = verify_spanning(
        m, x, config.lam, config.eps, config.trials, _stream(config),
        overrides=config.overrides,
    )
    return _verify_common(config, verdict)


def _run_verify_freeness(config, m, x):
    verdict = verify_freeness_likely(
        m, x, config.lam, config.eps, config.trials, _stream(config),
        overrides=config.overrides,
    )
    return _verify_common(config, verdict)


def _run_verify_talpha(config, m, x):
    opts = config.talpha
    alpha = opts.get("alpha")
    if alpha is None:
        tau = _chain_tau(config)
        alpha = tau * (1.0 - 2.0 * config.eps)
    elif isinstance(alpha, list):
        from fractions import Fraction

        alpha = Fraction(*alpha)
    b_mask = mask_of(opts.get("b", []))
    rng = _stream(config).substream(0).generator()
    verdict = verify_t_alpha(m, x, b_mask, alpha, opts.get("q_trials", 100), rng)
    verdict.meta["seed"] = config.seed
    return _verify_common(config, verdict)


def _run_audit(config) -> tuple[ExperimentReport, int]:
    opts = config.audit
    rhos = opts.get("rhos", [8, 64, 512])
    runs = opts.get("runs", 3)
    tau = _chain_tau(config)
    traces = []
    for rho in rhos:
        m = UniformMatroid(rho, 2 * rho)
        x = generate_marginal({"kind": "basis-indicator-scaled"}, m, config.lam)
        plan = chain_plan(m, x, tau, config.eps)
        for t in range(runs):
            rng = RngStream(config.seed, (rho << AUDIT_RUN_BITS) + t).generator()
            _, trace = plan.sample(rng)
            traces.append(trace)
    table = sample_complexity_audit(traces)
    results = table.to_jsonable()
    ok = table.bounds_ok and (table.band_ok is not False)
    report = ExperimentReport(config.echo(), results, [])
    return report, 0 if ok else 2


def write_reports(report: ExperimentReport, out: Path) -> None:
    """Write the canonical JSON report, plus a per-element CSV for ocrs runs."""
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(report.to_json())
    rows = report.results.get("per_element")
    if rows:
        csv_path = out.with_suffix(".csv")
        with csv_path.open("w", newline="") as fh:
            writer = csv.DictWriter(
                fh,
                fieldnames=[
                    "element_id", "activations", "selections",
                    "frequency", "ci_low", "ci_high",
                ],
            )
            writer.writeheader()
            for row in rows:
                writer.writerow({k: row[k] for k in writer.fieldnames})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="chainocrs",
        description="Spanning-chain OCRS experiments and guarantee checks",
    )
    parser.add_argument("--config", type=Path, required=True, help="JSON config path")
    parser.add_argument("--mode", choices=MODES, help="override the config mode")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--trials", type=int, help="override the config trials")
    parser.add_argument("--out", type=Path, help="report output path (JSON)")
    args = parser.parse_args(argv)
    try:
        raw = json.loads(args.config.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    for key, val in (("mode", args.mode), ("seed", args.seed), ("trials", args.trials)):
        if val is not None:
            raw[key] = val
    try:
        config = parse_config(raw)
        report, code = run(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = args.out or (raw.get("out") and Path(raw["out"]))
    if out:
        write_reports(report, Path(out))
    else:
        sys.stdout.write(report.to_json())
    print(f"wall_clock_seconds={report.wall_clock_seconds:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
