"""Pinned report sha256s, checked from the unit suite.

``bench/worker.py`` rebuilds the first reports of every benchmark workload
and compares each report's sha256 with the pin in ``bench/pins/``.  A change
that alters the random stream or any reported value fails here, not only in
a benchmark run.  ``audit-u128``, whose reports take seconds each, checks
one report; a ``chain-theta39`` chain, whose rows the fundamental-circuit
counter counts in batches of iterations, takes a few hundredths of a
second, so it checks all thirteen pinned reports of seed 0.  ``ocrs-k3``
and ``inlink-u24`` reports take well under a second each, so they check ten
and eight.

``MODE_PINS`` covers every CLI mode, each on K4 and U_{2,4}, with small
overrides, so a change to any runner shows in one small report per mode;
``ADVERSARY_PINS`` adds the other two ``ocrs`` adversaries on K4.  The
modes that run several trials are checked against the same pins on one,
two and three trial workers.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chainocrs import GraphicMatroid, ParamOverrides, RngStream, chain_plan, workers
from chainocrs.cli import MODES, parse_config, run
from chainocrs.sampling import _sampled_span_probabilities

WORKER = Path(__file__).resolve().parents[1] / "bench" / "worker.py"


REPORTS = {"ocrs-k3": 10, "inlink-u24": 8, "audit-u128": 1, "chain-theta39": 13}


def _check_pinned_reports(workload, seed, reports, trace=0):
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
         "--reports", str(reports), "--trace", str(trace)],
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


@pytest.mark.parametrize("workload", ["ocrs-k3", "inlink-u24", "chain-theta39"])
def test_traced_worker_matches_pinned_sha256(workload):
    # The tracer wraps package functions by name, so a traced run fails
    # once one of them is renamed or deleted.
    _check_pinned_reports(workload, 1, 2, trace=1)


def test_theta_chain_whose_first_link_grows_matches_its_pin():
    # Report 4 of seed 10 is the only pinned chain whose first link grows
    # (to C_1 = {f}), so it is the pinned case where A changes inside a
    # batch of iterations and the circuit counter counts the rest again.
    _check_pinned_reports("chain-theta39", 10, 5)


MODE_MATROIDS = {
    "k4": {"family": "graphic", "n_vertices": 4,
           "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]},
    "u24": {"family": "uniform", "k": 2, "n": 4},
}

#: sha256 of the JSON report of each (mode, matroid) at seed 0; every run
#: exits 0.  At lambda = 0.5 every link of these instances is empty, so the
#: verify reports would not depend on the random stream; lambda = 0.2 and
#: tau = 0.3 (valid in every mode) let the K4 links of chain, verify-inlink
#: and verify-progress grow.  ``audit`` builds its own U_{8,16} and reads
#: the matroid only into the config echo.
MODE_PINS = {
    ("chain", "k4"): "284b11609810e2640b4e1568b828561817c06443c4d125cb44a4dc46f0b5a597",
    ("chain", "u24"): "33d1fe65dbab9282832a5491160e9b9c7596229b97723d24e0be1f45f0640419",
    ("ocrs", "k4"): "30a47c86e92cf034a5106cc6f6d442cbc717a8d3b4493d31cd9d31ee3d2ec87a",
    ("ocrs", "u24"): "d6a9e428ba2209486d8a36db999cb498deff0ab25e35e0e1b63639929546c9b2",
    ("verify-inlink", "k4"): "021c92db5d463b5721c1c3077959c70a515a0f6325a0d7a3b0624b6c4e266e67",
    ("verify-inlink", "u24"): "0c4f5a8b7c4dc4117585b8e07a60904cb2843334fc93e8ed799d0c128b18307e",
    ("verify-progress", "k4"): "23173ca4c85faa91b155d95e03a8f75b47cf8bf0830b5e593184ac41ec336121",
    ("verify-progress", "u24"): "3a9196f1093e54777b1164efe79bfe292644c90309cfb28620eb0ed3d2587003",
    ("verify-spanning", "k4"): "ca32ca6818180dfb277749a38f7ca9a664d812a2140690d25ef223e41b30752c",
    ("verify-spanning", "u24"): "0428bd8a1ddd2f9133fb6fab056d0bf46908772da793bacf0bb204aab323c762",
    ("verify-freeness", "k4"): "1307526e5561e3a2cadbe6689e2ff5b6e1cecf7e510f53e11cff28b51f024669",
    ("verify-freeness", "u24"): "b9a24586b5d1864aec60ba96d8e5f63a00d9552be40b17c377078e36cfc3741c",
    ("verify-talpha", "k4"): "f1ed833ea1439123ec607a98295102d66f9d4064da3058cdffd113879af66597",
    ("verify-talpha", "u24"): "d4943878895ba72e7b6ae22f266a076c16e47079d927e9e35477cc968dbe8a48",
    ("audit", "k4"): "090840b10671bae065ac3084a98662361aa919f4fdafa3248b405b838979b1ed",
    ("audit", "u24"): "dfc4e7251c88ea20ddc3307c10937aa1920583f2b27f820ecaba93910d53b9da",
}


#: ``ocrs`` on K4 under the two adversaries ``MODE_PINS`` leaves out (it
#: runs ``element-last``), with the same config.
ADVERSARY_PINS = {
    "exhaustive-worst": "35e4a0ddb85326f85e71bbd7dd577a072e89e571c37cf4174e7011a2314037a6",
    "random-order": "72e0a6d8ec0b78e4cf5c5e55cb6c8fa3e0961760a649b1206fe7cdc9f8c730a2",
}


def test_mode_pins_cover_every_mode():
    assert set(MODE_PINS) == {(mode, m) for mode in MODES for m in MODE_MATROIDS}


def _mode_report_sha256(mode, matroid, adversary="element-last"):
    config = parse_config({
        "mode": mode, "matroid": MODE_MATROIDS[matroid], "lambda": 0.2, "tau": 0.3,
        "trials": 6, "seed": 0, "overrides": {"q": 40, "eta": 6, "zeta": 4},
        "audit": {"rhos": [8]}, "adversary": adversary,
    })
    report, code = run(config)
    assert code == 0
    return hashlib.sha256(report.to_json().encode()).hexdigest()


@pytest.mark.parametrize("mode, matroid", list(MODE_PINS))
def test_mode_report_matches_pinned_sha256(mode, matroid):
    assert _mode_report_sha256(mode, matroid) == MODE_PINS[mode, matroid]


@pytest.mark.parametrize("adversary", list(ADVERSARY_PINS))
def test_ocrs_adversary_report_matches_pinned_sha256(adversary):
    assert _mode_report_sha256("ocrs", "k4", adversary) == ADVERSARY_PINS[adversary]


#: Every report whose trials ``workers.map_trials`` shares out, with its pin.
TRIAL_LOOP_PINS = {
    **{
        (mode, matroid, "element-last"): pin
        for (mode, matroid), pin in MODE_PINS.items()
        if mode not in ("verify-talpha", "audit")
    },
    **{("ocrs", "k4", adversary): pin for adversary, pin in ADVERSARY_PINS.items()},
}


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_trial_loops_match_their_pins_on_any_number_of_workers(monkeypatch, cpus):
    # A short switch interval makes the trial threads interleave; every
    # report still equals its pin, so no report depends on which worker
    # ran a trial or on the order the trials finished in.
    monkeypatch.setattr(workers, "cpus", lambda: cpus)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for (mode, matroid, adversary), pin in TRIAL_LOOP_PINS.items():
            assert _mode_report_sha256(mode, matroid, adversary) == pin, (mode, matroid)
    finally:
        sys.setswitchinterval(interval)


def _theta39_paths():
    """Theta-39 with x = 0.263 on the 38 path edges and x_f = 0 on the edge
    f = (0, 1): the instance of the theta-39 level-structure gate."""
    m = GraphicMatroid(21, [(0, 1)] + [e for w in range(2, 21) for e in ((0, w), (w, 1))])
    x = np.full(39, 0.263)
    x[0] = 0.0
    return m, x


def _sha256(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def _state(rng) -> list:
    state = rng.bit_generator.state
    return [state["state"]["counter"].tolist(), state["buffer_pos"], state["has_uint32"]]


def test_sampled_oracle_on_dependent_columns_matches_its_pin():
    # The drawn path columns are dependent, so the graphic label kernel
    # counts the 20 000 rows, in six row blocks of the sampled oracle.
    m, x = _theta39_paths()
    probs = _sampled_span_probabilities(m, x, 0, RngStream(100).generator(), 20_000)
    assert hashlib.sha256(probs.tobytes()).hexdigest() == (
        "3df92074420e0a1a04c6a57c3903802ee5d769194ccb1a6b8a950116d7120d7a"
    )


#: sha256 of (links, link sets of the sampled links, tail cutoffs, final
#: generator position) of the theta-39 path chain on ``RngStream(seed)``.
THETA_PATH_CHAIN_PINS = {
    100: "dc165c28d43b7e6815998589c79c5d2caea0f17e481faf4da4abca8a17ceadd3",
    101: "4678d555ed2ac1dd17106575242ce57aef27f183bd494191f89127a5fc96dd64",
}


@pytest.mark.parametrize("seed", list(THETA_PATH_CHAIN_PINS))
def test_theta_path_chain_matches_its_pin(seed):
    # Dependent columns past n = 20: the label kernel counts every row, and
    # the first iteration puts f in A, so a batch that holds several
    # iterations counts its later ones again under A = {f}.
    m, x = _theta39_paths()
    rng = RngStream(seed).generator()
    chain, trace = chain_plan(m, x, 0.7, 0.05, ParamOverrides(q=200)).sample(rng)
    assert chain.links[1] == 0b1  # C_1 = {f}
    pinned = [
        list(chain.links),
        [list(lt.a_sets) for lt in trace.sampled],
        list(trace.tail_h_bars),
        _state(rng),
    ]
    assert _sha256(pinned) == THETA_PATH_CHAIN_PINS[seed]
