"""One benchmark process: set up a workload, run its reports, check each one.

    python3 bench/worker.py --workload NAME --seed S [--seconds T | --reports N]
                            [--trace 0|1] [--setup-only] [--pin]

Imports chainocrs from ``src/`` of the checkout this file sits in.  Prints
one JSON object as its last stdout line; ``bench/run.py`` starts it and
turns that object into metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins"
SPANS = ROOT / ".bench_build" / "spans"

import tracing  # noqa: E402
from workloads import WORKLOADS, Workload, check_report, corrupt  # noqa: E402


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def set_up(w: Workload, seed: int, tracer=None):
    """Import, parse, build the matroid and generate the checked marginals.

    This is what ``cli.run`` does before its first unit of work; the time
    from before ``import chainocrs`` to here is ``setup_s``.
    """
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import chainocrs
    from chainocrs import cli

    if Path(chainocrs.__file__).resolve().parent != SRC / "chainocrs":
        raise SystemExit(f"chainocrs imported from {chainocrs.__file__}, not {SRC}")
    if tracer is not None:
        tracing.install(tracer)
    cfg = cli.parse_config(w.config(seed, 0))
    if cfg.mode == "audit":
        rho = int(cfg.audit["rhos"][0])
        m, spec = cli.UniformMatroid(rho, 2 * rho), {"kind": "basis-indicator-scaled"}
    else:
        m, spec = cli.matroid_from_descriptor(cfg.matroid), cfg.marginal
    cli.generate_marginal(spec, m, cfg.lam)
    return cli, perf_counter() - t0


def report_problems(w: Workload, text: str, code: int, config_seed: int,
                    expected: str | None) -> list[str]:
    problems = check_report(w, json.loads(text), code, config_seed)
    if expected is not None and sha256(text) != expected:
        problems.append("sha256 differs from the pinned reference")
    return problems


def gate_can_fail(w: Workload, text: str, code: int, config_seed: int) -> bool:
    """A sound report passes the checks, while the same report corrupted, or
    checked against a wrong expected digest, is each flagged as failed."""
    doc = json.loads(text)
    corrupt(w, doc)
    bad_text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    digest = sha256(text)
    return (
        not report_problems(w, text, code, config_seed, digest)
        and bool(report_problems(w, bad_text, code, config_seed, None))
        and bool(report_problems(w, text, code, config_seed, "0" * 64))
    )


def run_reports(w: Workload, seed: int, cli, seconds: float, max_reports: int | None,
                pinned: list, tracer=None) -> dict:
    failed, digests, counts = 0, [], []
    count_changes = 0
    last = None
    t_start = perf_counter()
    i = 0
    while True:
        raw = w.config(seed, i)
        expected = pinned[i] if i < len(pinned) else None
        before = tracer.pinned_counts() if tracer is not None else None
        try:
            report, code = cli.run(cli.parse_config(raw))
            text = report.to_json()
            problems = report_problems(w, text, code, raw["seed"], expected and expected[0])
            if not problems:
                last = (text, code, raw["seed"])
        except Exception:
            traceback.print_exc()
            problems, text = ["raised"], None
        if problems:
            failed += w.units_per_report
            print(f"{w.name} seed {seed} report {i}: {'; '.join(problems)}", file=sys.stderr)
        digests.append(text and sha256(text))
        if tracer is not None:
            delta = [b - a for a, b in zip(before, tracer.pinned_counts())]
            counts.append(delta)
            if expected is not None and delta != expected[1]:
                count_changes += 1
                names = ", ".join(tracing.PINNED_COUNTS)
                print(f"{w.name} seed {seed} report {i}: counts {delta} ({names}) "
                      f"differ from the pinned {expected[1]}", file=sys.stderr)
        i += 1
        elapsed = perf_counter() - t_start
        if max_reports is not None:
            if i >= max_reports:
                break
        elif elapsed + 0.5 * elapsed / i >= seconds:
            break
    return {
        "body_s": elapsed,
        "reports": i,
        "units": i * w.units_per_report,
        "failed_units": failed,
        "digest_checked": min(i, len(pinned)),
        "count_changes": count_changes,
        "gate_ok": last is not None and gate_can_fail(w, *last),
        "digests": digests,
        "counts": counts,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--reports", type=int, help="run exactly this many reports")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--pin", action="store_true", help="emit digests and counts per report")
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]

    tracer = tracing.Tracer() if args.trace else None
    cli, setup_s = set_up(w, args.seed, tracer)
    out = {"setup_s": setup_s}
    if not args.setup_only:
        import numpy

        pin_file = PINS / f"{w.name}.json"
        pinned = []
        if pin_file.is_file() and not args.pin:
            pinned = json.loads(pin_file.read_text())["seeds"].get(str(args.seed), [])
        setup_snap = tracer.snapshot() if tracer else None
        body = run_reports(w, args.seed, cli, args.seconds, args.reports, pinned, tracer)
        if args.pin:
            out["records"] = [list(r) for r in zip(body["digests"], body["counts"])]
        del body["digests"], body["counts"]
        out.update(body)
        out["numpy"] = numpy.__version__
        out["python"] = sys.version.split()[0]
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            out["layers"] = tracing.layer_metrics(setup_snap, tracer.snapshot(), tracer.chain_ms)
            tracer.dump(SPANS / f"{w.name}.spans")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
