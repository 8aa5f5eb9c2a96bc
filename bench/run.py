"""chainocrs benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Runs from the root of a checkout that holds ``src/chainocrs``.  Each
workload runs in one worker process (``bench/worker.py``), single thread,
with BLAS/OpenMP threads pinned to 1.  Comment lines (``#``) give the run
environment and every metric by name and unit; the last stdout line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones plus ``trace.overhead``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

#: Fresh processes whose set-up time is measured (the main worker's included).
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150


class WorkerError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("OCRS_THREADS", None)  # the CLI default: one trial thread
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def worker(env: dict, *args) -> dict:
    """Run one worker process to completion and return its JSON result."""
    cmd = [sys.executable, str(WORKER), *map(str, args)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=WORKER_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker timed out: {' '.join(map(str, args))}")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker failed ({proc.returncode}): {' '.join(map(str, args))}")
    return json.loads(lines[-1])


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def end_to_end(env: dict, name: str, seed: int, seconds: float) -> dict:
    main = worker(env, "--workload", name, "--seed", seed, "--seconds", seconds)
    setups = [main["setup_s"]] + [
        worker(env, "--workload", name, "--seed", seed, "--setup-only")["setup_s"]
        for _ in range(SETUP_SAMPLES - 1)
    ]
    main["metrics"] = {
        "setup_s": (statistics.median(setups), "s"),
        "units_per_s": (main["units"] / main["body_s"], "units/s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MiB"),
    }
    return main


def traced(env: dict, name: str, seed: int, seconds: float) -> dict:
    """Traced worker for half the time, then an untraced one on the same reports."""
    run = worker(env, "--workload", name, "--seed", seed, "--seconds", seconds / 2,
                 "--trace", 1)
    plain = worker(env, "--workload", name, "--seed", seed, "--reports", run["reports"])
    metrics = dict(run["layers"])
    metrics["trace.overhead"] = (1.0 - plain["body_s"] / run["body_s"], "share")
    metrics["trace.units"] = (run["units"], "count")
    metrics["trace.count_changes"] = (run["count_changes"], "count")
    run["metrics"] = metrics
    run["units"] += plain["units"]
    run["failed_units"] += plain["failed_units"]
    run["gate_ok"] = run["gate_ok"] and plain["gate_ok"]
    return run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="chainocrs benchmark")
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "chainocrs" / "__init__.py").is_file():
        print(f"error: no chainocrs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            measure = traced if args.trace else end_to_end
            results[name] = measure(env, name, args.seed, args.seconds)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    first = next(iter(results.values()))
    print(f"# env: nproc={len(os.sched_getaffinity(0))} cpu={cpu_model()!r} "
          f"python={first['python']} numpy={first['numpy']} "
          f"blas_threads=1 trial_threads=1 seed={args.seed} seconds={args.seconds}")
    attempted = failed = 0
    correct = True
    metrics = {}
    for name, r in results.items():
        attempted += r["units"]
        failed += r["failed_units"]
        correct = correct and r["failed_units"] == 0 and r["gate_ok"]
        fail_rate = r["failed_units"] / r["units"]
        shown = {**r["metrics"], "fail_rate": (fail_rate, "share")} if not args.trace \
            else r["metrics"]
        print(f"# {name}: " + "  ".join(f"{k}={v:.6g} {u}" for k, (v, u) in shown.items())
              + f"  ({r['units']} units in {r['reports']} reports, "
              f"{r['digest_checked']} reports checked against pinned sha256, "
              f"gate self-test {'ok' if r['gate_ok'] else 'FAILED'})")
        prefix = "" if len(results) == 1 else f"{name}."
        for k, (v, u) in r["metrics"].items():
            metrics[prefix + k] = {"value": v, "unit": u}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
