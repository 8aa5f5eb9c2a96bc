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
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .bitset import iter_ids, mask_of
from .chains import ChainPlan, ParamOverrides, chain_plan
from .matroids import SPAN_TABLE_MAX, Matroid, UniformMatroid, matroid_from_descriptor
from .sampling import RngStream, as_marginals, in_scaled_polytope
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

#: What an audit config without ``rhos`` or ``runs`` audits: these ranks,
#: and this many chains per rank.  The config echo keeps only given keys.
AUDIT_DEFAULTS = {"rhos": [8, 64, 512], "runs": 3}

#: Audit run t of rank rho draws from stream (rho << AUDIT_RUN_BITS) + t,
#: so runs must stay below 2^AUDIT_RUN_BITS to keep the streams distinct.
AUDIT_RUN_BITS = 20

MARGINAL_KINDS = ("uniform-scaled", "basis-indicator-scaled", "custom")

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

#: The modes that read tau; verify-talpha reads it only without talpha.alpha.
TAU_MODES = ("chain", "verify-inlink", "verify-progress", "verify-talpha", "audit")


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
    _check_marginal(marginal)
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
    elif not 0.0 < lam <= 1.0:
        # The other modes build their marginals with lambda too.
        raise ConfigError(f"lambda must lie in (0, 1], got {lam}")
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
    out = raw.get("out")
    if not (out is None or isinstance(out, str) and "\0" not in out):
        raise ConfigError(f"out must be a path string, got {out!r}")
    config = ExperimentConfig(
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
    if mode in TAU_MODES and not (mode == "verify-talpha" and talpha.get("alpha") is not None):
        _check_tau(config)
    return config


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
    rhos = audit.get("rhos", AUDIT_DEFAULTS["rhos"])
    if not (
        isinstance(rhos, list) and rhos
        and all(_positive_int(r) and r <= AUDIT_RHO_MAX for r in rhos)
    ):
        raise ConfigError(
            f"audit.rhos must be a nonempty list of integers in [1, {AUDIT_RHO_MAX}], got {rhos!r}"
        )
    runs = audit.get("runs", AUDIT_DEFAULTS["runs"])
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
    if not _is_ids(b):
        raise ConfigError(
            f"talpha.b must be a list of element ids in [0, {MATROID_SIZE_MAX}), got {b!r}"
        )


def _check_tau(config: ExperimentConfig) -> None:
    tau = _chain_tau(config)
    low = config.lam if config.mode == "verify-progress" else 0.0
    if not low < tau <= 1.0:
        raise ConfigError(
            f"{config.mode} needs tau in ({low}, 1] (default lambda + 4*eps), got {tau}"
        )


def _check_marginal(marginal) -> None:
    # The length of custom values is checked against n once the matroid exists.
    if not isinstance(marginal, dict) or marginal.get("kind") not in MARGINAL_KINDS:
        raise ConfigError(
            f"marginal must be an object with a kind in {MARGINAL_KINDS}, got {marginal!r}"
        )
    values = marginal.get("values")
    if marginal["kind"] == "custom" and not (
        isinstance(values, list) and all(_is_number(v) and 0 <= v <= 1 for v in values)
    ):
        raise ConfigError(
            f"custom marginal.values must be a list of numbers in [0, 1], got {values!r}"
        )


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
    unknown = sorted(set(desc) - {"family"} - {key for key, _ in fields})
    if unknown:
        raise ConfigError(f"{family} matroid takes no keys {unknown}")
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

#: The fields of each matroid family and the kind of value each holds;
#: the descriptor schema allows no other key.
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
    if not m.ground_mask:
        raise ConfigError("the matroid's ground set is empty")
    kind = spec.get("kind")
    n = m.n_universe
    x = np.zeros(n)
    if kind == "uniform-scaled":
        level = lam * m.full_rank() / m.ground_mask.bit_count()
        for e in iter_ids(m.ground_mask):
            x[e] = level
    elif kind == "basis-indicator-scaled":
        for e in iter_ids(m.greedy_basis()):
            x[e] = lam
        return x  # in lambda * P_M by construction
    elif kind == "custom":
        values = spec.get("values")
        if not isinstance(values, list) or len(values) != n:
            raise ConfigError("custom marginal needs a 'values' list of length n")
        x = as_marginals(values)
    else:
        raise ConfigError(f"unknown marginal kind {kind!r}")
    if n > SPAN_TABLE_MAX:
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

    def to_json(self) -> str:
        """The canonical report: indented JSON with sorted keys."""
        return _json_text({
            "schema_version": SCHEMA_VERSION,
            "config": self.config,
            "results": self.results,
            "verdicts": self.verdicts,
        })


def _json_text(obj) -> str:
    """``json.dumps(plain, indent=2, sort_keys=True) + "\\n"``, where ``plain``
    is ``obj`` with every dict key ``str(key)``, numpy integers and floats
    Python ones and numpy arrays lists.

    One pass writes the text, dispatching on the exact type and joining a
    list of one scalar type in one step: with an indent, Python 3.11's
    ``json`` runs its pure-Python encoder.  Other types take the
    conversions above, or raise ``TypeError`` as ``json`` does.
    """
    parts: list[str] = []
    _write(obj, parts, "\n")
    parts.append("\n")
    return "".join(parts)


def _write(obj, parts: list[str], nl: str) -> None:
    """Append the JSON text of ``obj``, whose line breaks are ``nl``, to ``parts``."""
    kind = type(obj)
    text = _SCALAR_TEXT.get(kind)
    if text is not None:
        parts.append(text(obj))
    elif kind is list or kind is tuple:
        if not obj:
            parts.append("[]")
            return
        inner = nl + "  "
        kinds = set(map(type, obj))
        text = _SCALAR_TEXT.get(kinds.pop()) if len(kinds) == 1 else None
        if text is not None:
            parts.append("[" + inner + ("," + inner).join(map(text, obj)) + nl + "]")
            return
        sep = "[" + inner
        for value in obj:
            parts.append(sep)
            _write(value, parts, inner)
            sep = "," + inner
        parts.append(nl + "]")
    elif kind is dict:
        if not obj:
            parts.append("{}")
            return
        inner = nl + "  "
        plain = {str(k): v for k, v in obj.items()}
        sep = "{" + inner
        for key in sorted(plain):
            parts.append(sep + encode_basestring_ascii(key) + ": ")
            _write(plain[key], parts, inner)
            sep = "," + inner
        parts.append(nl + "}")
    else:
        _write(_plain_value(obj), parts, nl)


def _plain_value(obj):
    """``obj``, not of a type ``_write`` dispatches on, as one it does."""
    if isinstance(obj, dict):
        return dict(obj.items())
    if isinstance(obj, (list, tuple)):
        return list(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return list(obj.tolist())
    # Subclasses of str, int and float: json writes their base value.
    for base, value in ((str, str.__str__), (int, int.__int__), (float, float.__float__)):
        if isinstance(obj, base):
            return value(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _float_text(value: float) -> str:
    text = float.__repr__(value)
    return _NONFINITE.get(text, text)


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def run(config: ExperimentConfig) -> tuple[ExperimentReport, int]:
    """Dispatch one experiment; returns (report, exit_code).

    The matroid, its marginals and, in the ``chain`` mode, its chain plan
    are those of the last call with the same instance (``_instance``), so a
    process that runs many reports on one instance builds it once.
    """
    t0 = time.monotonic()
    if config.mode == "audit":
        report, code = _run_audit(config)
    else:
        key = json.dumps([config.matroid, config.marginal, config.lam], sort_keys=True)
        if config.mode == "chain":
            plan = _instance_plan(key, _chain_tau(config), config.eps, config.overrides)
            report, code = _run_chain(config, plan)
        else:
            runner = _run_ocrs if config.mode == "ocrs" else _run_verify
            report, code = runner(config, *_instance(key))
    report.wall_clock_seconds = time.monotonic() - t0
    return report, code


@lru_cache(maxsize=1)
def _instance(key: str) -> tuple[Matroid, np.ndarray]:
    """The matroid and read-only marginals of ``key``, the JSON text of a
    config's matroid descriptor, marginal spec and lambda.

    Only the last instance is kept, and a build that raises is not, so a
    custom marginal outside lambda * P_M fails on every call.  The builders
    are looked up in this module when an instance is built.
    """
    desc, spec, lam = json.loads(key)
    m = matroid_from_descriptor(desc)
    x = generate_marginal(spec, m, lam)
    x.flags.writeable = False
    return m, x


@lru_cache(maxsize=1)
def _instance_plan(key: str, tau: float, eps: float, overrides: ParamOverrides) -> ChainPlan:
    """The chain plan of instance ``key`` (see ``_instance``) at tau, eps and
    overrides; only the last one is kept, with its first link's estimator."""
    return chain_plan(*_instance(key), tau, eps, overrides)


def _chain_tau(config: ExperimentConfig) -> float:
    return config.tau if config.tau is not None else config.lam + 4.0 * config.eps


def _run_chain(config, plan):
    per_trial = []
    total_draws = 0
    empty_final = 0
    for chain, trace in plan.sample_trials(config.trials, RngStream(config.seed)):
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
        "tau": _chain_tau(config),
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
        RngStream(config.seed),
        config.overrides,
    )
    results = report.to_jsonable()
    results["floor_holds"] = report.floor_holds()
    results["quarter_minus_eps"] = 0.25 - config.eps
    return ExperimentReport(config.echo(), results, []), 0


def _run_verify(config, m, x):
    """One verify-* check; exit 2 when its verdict fails."""
    mode, tau, stream = config.mode, _chain_tau(config), RngStream(config.seed)
    rest = (config.eps, config.trials, stream)
    if mode == "verify-inlink":
        verdict = verify_in_link_loss(m, x, tau, *rest, overrides=config.overrides)
    elif mode == "verify-progress":
        verdict = verify_progress(m, x, config.lam, tau, *rest, overrides=config.overrides)
    elif mode == "verify-spanning":
        verdict = verify_spanning(m, x, config.lam, *rest, overrides=config.overrides)
    elif mode == "verify-freeness":
        verdict = verify_freeness_likely(m, x, config.lam, *rest, overrides=config.overrides)
    else:
        verdict = _verify_talpha(config, m, x, tau, stream)
    report = ExperimentReport(config.echo(), {}, [verdict.to_jsonable()])
    return report, 0 if verdict.passed else 2


def _verify_talpha(config, m, x, tau, stream):
    opts = config.talpha
    alpha = opts.get("alpha")
    if alpha is None:
        alpha = tau * (1.0 - 2.0 * config.eps)
    elif isinstance(alpha, list):
        from fractions import Fraction

        alpha = Fraction(*alpha)
    b_mask = mask_of(opts.get("b", []))
    rng = stream.substream(0).generator()
    verdict = verify_t_alpha(m, x, b_mask, alpha, opts.get("q_trials", 100), rng)
    verdict.meta["seed"] = config.seed
    return verdict


def _run_audit(config) -> tuple[ExperimentReport, int]:
    opts = {**AUDIT_DEFAULTS, **config.audit}
    rhos, runs = opts["rhos"], opts["runs"]
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
    # parse_config rejects a config that is not an object.
    if isinstance(raw, dict):
        for key, val in (("mode", args.mode), ("seed", args.seed), ("trials", args.trials)):
            if val is not None:
                raw[key] = val
    try:
        config = parse_config(raw)
        report, code = run(config)
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = args.out or raw.get("out")
    if out:
        try:
            write_reports(report, Path(out))
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(report.to_json())
    print(f"wall_clock_seconds={report.wall_clock_seconds:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
