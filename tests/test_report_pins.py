"""The benchmark's pinned reports, checked from the unit suite.

``bench/worker.py`` rebuilds the first reports of two benchmark workloads and
compares each report's sha256 with the pin in ``bench/pins/``.  A change
that alters the random stream or any reported value fails here, not only in
a benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parents[1] / "bench" / "worker.py"


@pytest.mark.parametrize("workload", ["ocrs-k3", "inlink-u24"])
def test_reports_match_pinned_sha256(workload):
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workload", workload, "--seed", "0", "--reports", "2"],
        cwd=WORKER.parents[1], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed_units"] == 0, proc.stderr
    assert result["digest_checked"] == 2
