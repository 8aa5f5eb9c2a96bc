"""The benchmark's pinned reports, checked from the unit suite.

``bench/worker.py`` rebuilds the first reports of every benchmark workload
and compares each report's sha256 with the pin in ``bench/pins/``.  A change
that alters the random stream or any reported value fails here, not only in
a benchmark run.  ``audit-u128``, whose reports take seconds each, checks
one report; a ``chain-theta39`` chain, counted by the graphic label kernel
in batches of iterations, takes a few hundredths of a second, so it checks
all thirteen pinned reports of seed 0.  ``ocrs-k3`` and ``inlink-u24``
reports take well under a second each, so they check ten and eight.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parents[1] / "bench" / "worker.py"


REPORTS = {"ocrs-k3": 10, "inlink-u24": 8, "audit-u128": 1, "chain-theta39": 13}


def _check_pinned_reports(workload, seed, reports):
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
         "--reports", str(reports)],
        cwd=WORKER.parents[1], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed_units"] == 0, proc.stderr
    assert result["digest_checked"] == reports


@pytest.mark.parametrize("workload", list(REPORTS))
def test_reports_match_pinned_sha256(workload):
    _check_pinned_reports(workload, 0, REPORTS[workload])


def test_theta_chain_whose_first_link_grows_matches_its_pin():
    # Report 4 of seed 10 is the only pinned chain whose first link grows
    # (to C_1 = {f}), so it is the pinned case where A changes inside a
    # batch of iterations and the label kernel counts the rest again.
    _check_pinned_reports("chain-theta39", 10, 5)
