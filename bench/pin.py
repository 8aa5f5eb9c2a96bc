"""Regenerate the pinned reference digests and counts in bench/pins/.

    python3 bench/pin.py [--workload NAME ...]

For every default seed, runs a traced worker for a fixed number of reports
(about what one 30-second run completes) and stores, per report, the sha256
of the canonical report and the exact counts named in
``tracing.PINNED_COUNTS``.  Run it only when a change is meant to alter
reports or work counts, and say so in that change.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import HERE, WORKLOADS, child_env, worker
from tracing import PINNED_COUNTS

PINS = HERE / "pins"
PINNED_REPORTS = {"ocrs-k3": 60, "inlink-u24": 26, "audit-u128": 6, "chain-theta39": 13}
DEFAULT_SEEDS = range(12)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="regenerate bench/pins")
    ap.add_argument("--workload", nargs="*", choices=sorted(WORKLOADS), default=list(WORKLOADS))
    args = ap.parse_args(argv)
    env = child_env()
    PINS.mkdir(exist_ok=True)
    for name in args.workload:
        lines = []
        for seed in DEFAULT_SEEDS:
            out = worker(env, "--workload", name, "--seed", seed, "--trace", 1,
                         "--reports", PINNED_REPORTS[name], "--pin")
            if out["failed_units"] or not out["gate_ok"]:
                print(f"{name} seed {seed}: reports failed their checks", file=sys.stderr)
                return 1
            records = ",\n".join(f"  {json.dumps(r)}" for r in out["records"])
            lines.append(f' "{seed}": [\n{records}\n ]')
            print(f"{name} seed {seed}: {len(out['records'])} reports pinned", file=sys.stderr)
        (PINS / f"{name}.json").write_text(
            '{"counts": ' + json.dumps(PINNED_COUNTS) + ', "seeds": {\n'
            + ",\n".join(lines) + "\n}}\n"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
