import itertools
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from chainocrs import UniformMatroid, cli, matroid_from_descriptor
from chainocrs.cli import (
    ConfigError,
    generate_marginal,
    main,
    parse_config,
    run,
    write_reports,
)

K4_DESC = {
    "family": "graphic",
    "n_vertices": 4,
    "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]],
}

SMOKE_OVERRIDES = {"q": 150, "eta": 8, "zeta": 6}


def base_config(**kw):
    cfg = {
        "schema_version": 1,
        "mode": "chain",
        "matroid": K4_DESC,
        "marginal": {"kind": "basis-indicator-scaled"},
        "lambda": 0.5,
        "eps": 0.05,
        "trials": 3,
        "seed": 11,
        "overrides": SMOKE_OVERRIDES,
    }
    cfg.update(kw)
    return cfg


def cold_run(config):
    """``run`` with no instance or chain plan kept from an earlier call."""
    cli._instance.cache_clear()
    cli._instance_plan.cache_clear()
    return run(config)


# -- config validation ----------------------------------------------------------


def test_parse_config_rejects_bad_mode():
    with pytest.raises(ConfigError):
        parse_config(base_config(mode="frobnicate"))


def test_parse_config_rejects_bad_lambda():
    with pytest.raises(ConfigError):
        parse_config(base_config(**{"lambda": 0.9}))  # > 1 - 4 eps
    with pytest.raises(ConfigError):
        parse_config(base_config(eps=0.3))


def test_parse_config_rejects_bad_overrides():
    with pytest.raises(ConfigError):
        parse_config(base_config(overrides={"zap": 1}))


def test_main_bad_tau_or_override_value_exits_one(tmp_path, capsys):
    # Values of the wrong type are config errors, not tracebacks.
    cfg_path = tmp_path / "cfg.json"
    for cfg in (base_config(tau=[1]), base_config(overrides={"q": "abc"})):
        cfg_path.write_text(json.dumps(cfg))
        assert main(["--config", str(cfg_path)]) == 1
        assert "error:" in capsys.readouterr().err
    for ov in ({"q": 0}, {"eta": True}, {"zeta": 2.0}, {"q": -3}):
        with pytest.raises(ConfigError):
            parse_config(base_config(overrides=ov))
    assert parse_config(base_config(overrides={"q": None, "eta": 3})).overrides.eta == 3


def test_parse_config_rejects_non_integer_trials_and_seeds(tmp_path, capsys):
    # 2.5 trials used to run 2, a 1.5 seed ran as 1, true read as 1, and -1
    # aliased 2^64 - 1 once masked to the 64-bit Philox key.
    for trials in (2.5, True, 0, -1, "3"):
        with pytest.raises(ConfigError, match="trials"):
            parse_config(base_config(trials=trials))
    for seed in (1.5, True, -1, 2**64, "11"):
        with pytest.raises(ConfigError, match="seed"):
            parse_config(base_config(seed=seed))
    assert parse_config(base_config(seed=2**64 - 1, trials=1)).seed == 2**64 - 1
    cfg_path = tmp_path / "cfg.json"
    for cfg in (base_config(trials=2.5), base_config(seed=-1)):
        cfg_path.write_text(json.dumps(cfg))
        assert main(["--config", str(cfg_path)]) == 1
        assert "error:" in capsys.readouterr().err


def test_parse_config_requires_json_numbers(tmp_path, capsys):
    # float() used to read true as 1.0 and "0.05" as 0.05, so these ran.
    for key, value in (
        ("tau", True), ("tau", "0.5"), ("tau", [1]), ("tau", 10**400),
        ("eps", "0.05"), ("eps", False), ("lambda", "0.5"), ("lambda", True),
        ("lambda", None),
    ):
        with pytest.raises(ConfigError):
            parse_config(base_config(**{key: value}))
    cfg = parse_config(base_config(**{"lambda": 0.25, "eps": 0.05, "tau": 1}))
    assert (cfg.lam, cfg.eps, cfg.tau) == (0.25, 0.05, 1.0) and isinstance(cfg.tau, float)
    assert parse_config(base_config(tau=None)).tau is None
    cfg_path = tmp_path / "cfg.json"
    for cfg in (base_config(tau=True), base_config(eps="0.05")):
        cfg_path.write_text(json.dumps(cfg))
        assert main(["--config", str(cfg_path)]) == 1
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "desc",
    [
        {"family": "uniform", "k": 2.9, "n": 4},
        {"family": "uniform", "k": "2", "n": 4},
        {"family": "partition", "blocks": [[0, 1], [2]], "capacities": [1.5, 1]},
        {"family": "uniform", "n": 4},
        {"family": "graphic", "n_vertices": 3, "edges": [1, 2]},
        {"family": "graphic", "n_vertices": 2 * 10**6, "edges": [[0, 1]]},
        {"family": "uniform", "k": 2, "n": 4, "capacity": 3},
    ],
    ids=[
        "float-k", "string-k", "float-capacity", "missing-k", "flat-edges", "huge-graph",
        "unknown-key",
    ],
)
def test_parse_config_rejects_bad_matroid_descriptor(desc, tmp_path, capsys, monkeypatch):
    # These used to run (a 2.9 k ran U_{2,4} and echoed 2.9; "2" and 1.5
    # were read as integers; a key the schema forbids was echoed into the
    # report), end in a KeyError or TypeError traceback, or cost 1.6 s and
    # 76 MiB per rank call (2 * 10^6 vertices).  Each is now a config error
    # found without building the matroid, and exits 1.
    monkeypatch.setattr(cli, "matroid_from_descriptor", lambda d: pytest.fail("built"))
    with pytest.raises(ConfigError, match="matroid"):
        parse_config(base_config(matroid=desc))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(matroid=desc)))
    assert main(["--config", str(cfg_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_descriptor_fields_are_the_schema_properties():
    # The schema allows no key beyond each family's properties, and
    # parse_config checks exactly the keys of _DESCRIPTOR_FIELDS.
    schema = json.loads(
        (Path(cli.__file__).parent / "schemas" / "matroid_descriptor.schema.json").read_text()
    )
    properties = {
        alt["properties"]["family"]["const"]: set(alt["properties"]) - {"family"}
        for alt in schema["oneOf"]
    }
    assert all(alt["additionalProperties"] is False for alt in schema["oneOf"])
    assert properties == {
        family: {key for key, _ in fields} for family, fields in cli._DESCRIPTOR_FIELDS.items()
    }


@pytest.mark.parametrize(
    "marginal",
    [
        {"kind": 5},
        {"kind": "spicy"},
        {"kind": "custom", "values": [0.2, None, 0.2, 0.2, 0.2, 0.2]},
        {"kind": "custom", "values": [0.2, False, 0.2, 0.2, 0.2, 0.2]},
        {"kind": "custom", "values": [0.2, "0.2", 0.2, 0.2, 0.2, 0.2]},
        {"kind": "custom", "values": [0.2, 1.5, 0.2, 0.2, 0.2, 0.2]},
        {"kind": "custom", "values": 0.2},
    ],
    ids=["int-kind", "unknown-kind", "null-value", "bool-value", "string-value", "value-above-one",
         "values-not-a-list"],
)
def test_parse_config_rejects_bad_marginal(marginal, tmp_path, capsys, monkeypatch):
    # A kind of 5 or "spicy" used to be found only after the matroid was
    # built, null was read as NaN and reported as outside lambda * P_M, and
    # false ran as 0.0.  Each is now a config error found without building
    # the matroid, and exits 1.
    monkeypatch.setattr(cli, "matroid_from_descriptor", lambda d: pytest.fail("built"))
    with pytest.raises(ConfigError, match="marginal"):
        parse_config(base_config(marginal=marginal))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(marginal=marginal)))
    assert main(["--config", str(cfg_path)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides",
    [
        {"mode": "verify-progress", "tau": 0.4},
        {"mode": "verify-progress", "tau": 0.5},
        {"mode": "verify-progress", "lambda": 0.9},
        {"mode": "chain", "tau": 1.2},
        {"mode": "verify-inlink", "tau": 0.0},
        {"mode": "audit", "tau": -0.1},
        {"mode": "verify-talpha", "tau": 1.5},
    ],
    ids=["progress-below-lambda", "progress-at-lambda", "progress-default-above-one",
         "chain-above-one", "inlink-zero", "audit-negative", "talpha-above-one"],
)
def test_parse_config_rejects_bad_tau(overrides, tmp_path, capsys, monkeypatch):
    # A tau outside its range used to be found only after the matroid and
    # the marginals were built, by the check itself.  Without a tau the
    # default lambda + 4*eps is checked.
    monkeypatch.setattr(cli, "matroid_from_descriptor", lambda d: pytest.fail("built"))
    with pytest.raises(ConfigError, match="tau"):
        parse_config(base_config(**overrides))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(**overrides)))
    assert main(["--config", str(cfg_path)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides",
    [
        {"mode": "verify-inlink", "lambda": 3, "tau": 0.5,
         "marginal": {"kind": "custom", "values": [0.1] * 6}},
        {"mode": "verify-inlink", "lambda": 0, "tau": 0.5},
        {"mode": "verify-progress", "lambda": -0.5, "tau": 0.5},
        {"mode": "verify-talpha", "lambda": 1.5, "talpha": {"alpha": 0.4}},
        {"mode": "verify-talpha", "lambda": 0.0, "tau": 0.5},
    ],
    ids=["inlink-custom-above-one", "inlink-zero", "progress-negative", "talpha-above-one",
         "talpha-zero"],
)
def test_parse_config_rejects_lambda_outside_unit_interval(
    overrides, tmp_path, capsys, monkeypatch
):
    # Every mode builds its marginals with lambda.  These three were not
    # range-checked: a custom x passed as in 3 * P_M, and lambda <= 0 was
    # found only after the matroid was built.
    monkeypatch.setattr(cli, "matroid_from_descriptor", lambda d: pytest.fail("built"))
    with pytest.raises(ConfigError, match=r"lambda must lie in \(0, 1\]"):
        parse_config(base_config(**overrides))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(**overrides)))
    assert main(["--config", str(cfg_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_parse_config_checks_tau_only_where_it_is_read():
    # ocrs and verify-spanning take tau from lambda; verify-talpha with an
    # explicit alpha does not read it.
    for overrides in (
        {"mode": "ocrs", "tau": 1.5},
        {"mode": "verify-spanning", "tau": 1.5},
        {"mode": "verify-talpha", "tau": 1.5, "talpha": {"alpha": 0.4}},
        {"mode": "verify-progress", "tau": 1.0},
        {"mode": "chain", "tau": 1.0},
    ):
        assert parse_config(base_config(**overrides)).tau == overrides["tau"]


def test_parse_config_bounds_matroid_sizes():
    size = cli.MATROID_SIZE_MAX
    assert size == 2 * cli.AUDIT_RHO_MAX
    parse_config(base_config(matroid={"family": "uniform", "k": 2, "n": size}))
    parse_config(base_config(matroid={"family": "graphic", "n_vertices": size, "edges": []}))
    for desc in (
        {"family": "uniform", "k": 2, "n": size + 1},
        {"family": "graphic", "n_vertices": 2, "edges": [[0, 1]] * (size + 1)},
        {"family": "partition", "blocks": [[size]], "capacities": [1]},
        {"family": "laminar", "n": 3, "sets": [[0, -1]], "capacities": [1]},
        {"family": "explicit", "n": 2, "independent": [[], [0.0]]},
        {"family": "matrix"},
        ["uniform", 2, 4],
    ):
        with pytest.raises(ConfigError):
            parse_config(base_config(matroid=desc))
    # The audit builds its own matroids and needs no descriptor.
    assert parse_config(base_config(mode="audit", matroid=None)).matroid is None


def test_parse_config_rejects_bad_audit_rhos():
    for rhos in ([], [0], [8, -1], ["8"], [True], 8, [2.5]):
        with pytest.raises(ConfigError):
            parse_config(base_config(mode="audit", audit={"rhos": rhos}))
    assert parse_config(base_config(mode="audit", audit={"rhos": [1, 8]})).audit["rhos"] == [1, 8]


def test_parse_config_rejects_bad_audit_runs():
    for runs in (0, -2, "3", 1.5, False):
        with pytest.raises(ConfigError):
            parse_config(base_config(mode="audit", audit={"runs": runs}))
    with pytest.raises(ConfigError):
        parse_config(base_config(mode="audit", audit=[128]))


def test_parse_config_bounds_audit_rhos():
    # Each audited rank builds U_{rho,2rho}; ranks above the bound exit 1.
    for rhos in ([4097], [8, 1_000_000_000]):
        with pytest.raises(ConfigError):
            parse_config(base_config(mode="audit", audit={"rhos": rhos}))
    assert parse_config(base_config(mode="audit", audit={"rhos": [4096]})).audit["rhos"] == [4096]


def test_parse_config_bounds_audit_runs():
    # Run 2^20 of rank rho would reuse the stream of run 0 of rank rho + 1.
    with pytest.raises(ConfigError):
        parse_config(base_config(mode="audit", audit={"runs": 1 << 20}))
    runs = (1 << 20) - 1
    assert parse_config(base_config(mode="audit", audit={"runs": runs})).audit["runs"] == runs


def test_parse_config_audit_without_rhos_and_runs(monkeypatch):
    # Missing keys stay out of the echo; the parse check and the audit run
    # read one set of defaults, so a bad default fails the parse and a good
    # one is what the audit runs.
    raw = base_config(mode="audit", matroid=None, audit={})
    assert parse_config(raw).echo()["audit"] == {}
    for key, bad in (("rhos", [0]), ("runs", 0)):
        with monkeypatch.context() as patch:
            patch.setitem(cli.AUDIT_DEFAULTS, key, bad)
            with pytest.raises(ConfigError, match=f"audit.{key}"):
                parse_config(raw)
    monkeypatch.setitem(cli.AUDIT_DEFAULTS, "rhos", [4])
    monkeypatch.setitem(cli.AUDIT_DEFAULTS, "runs", 2)
    report, code = cli.run(parse_config({**raw, "overrides": {}}))
    assert code == 0 and report.config["audit"] == {}
    assert [(row["rho"], row["runs"]) for row in report.results["rows"]] == [(4, 2)]


def test_parse_config_rejects_bad_talpha_alpha():
    for alpha in (0, 0.0, 1, 1.5, -0.2, "0.5", True, [1], [1, 0], [2, 2], [0, 5],
                  [-1, 5], [1.0, 2], [1, 2, 3]):
        with pytest.raises(ConfigError):
            parse_config(base_config(mode="verify-talpha", talpha={"alpha": alpha}))
    for alpha in (0.4, [2, 5], None):
        assert parse_config(base_config(mode="verify-talpha", talpha={"alpha": alpha}))


def test_parse_config_rejects_bad_talpha_q_trials():
    for q_trials in (0, -1, "30", 2.0, True):
        with pytest.raises(ConfigError):
            parse_config(base_config(mode="verify-talpha", talpha={"q_trials": q_trials}))


def test_parse_config_rejects_bad_talpha_b():
    for b in (5, ["a"], [-1], [True], [0.0]):
        with pytest.raises(ConfigError):
            parse_config(base_config(mode="verify-talpha", talpha={"b": b}))


def test_parse_config_bounds_talpha_b(tmp_path, capsys, monkeypatch):
    # An id of 10**7 used to parse, then allocate a 1.25 MB mask before the
    # T_alpha oracle rejected it.
    size = cli.MATROID_SIZE_MAX
    monkeypatch.setattr(cli, "matroid_from_descriptor", lambda d: pytest.fail("built"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(mode="verify-talpha", talpha={"b": [size]})))
    assert main(["--config", str(cfg_path)]) == 1
    assert "error: talpha.b must be a list of element ids" in capsys.readouterr().err
    config = parse_config(base_config(mode="verify-talpha", talpha={"b": [size - 1]}))
    assert config.talpha["b"] == [size - 1]


def test_parse_config_rejects_unknown_adversary(tmp_path, capsys):
    # Checked at parse time in every mode, including modes without trials
    # against an adversary.
    for adversary in ("fixed", "bogus"):
        for mode in ("ocrs", "verify-progress"):
            with pytest.raises(ConfigError):
                parse_config(base_config(mode=mode, adversary=adversary))
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(base_config(mode=mode, adversary=adversary)))
            assert main(["--config", str(cfg_path)]) == 1
            assert "adversary" in capsys.readouterr().err
    for adversary in ("element-last", "exhaustive-worst", "random-order"):
        assert parse_config(base_config(mode="ocrs", adversary=adversary)).adversary == adversary


def test_parse_config_conforming_flag():
    assert not parse_config(base_config()).conforming
    assert parse_config(base_config(overrides={})).conforming


# -- marginal generation -----------------------------------------------------------


def test_generate_marginal_basis_indicator():
    m = UniformMatroid(2, 4)
    x = generate_marginal({"kind": "basis-indicator-scaled"}, m, 0.5)
    assert sorted(x) == [0.0, 0.0, 0.5, 0.5]


def test_generate_marginal_uniform_scaled():
    m = UniformMatroid(2, 4)
    x = generate_marginal({"kind": "uniform-scaled"}, m, 0.5)
    assert np.allclose(x, 0.25)


def test_generate_marginal_custom_rejected_outside_polytope():
    m = UniformMatroid(1, 2)
    with pytest.raises(ConfigError):
        generate_marginal({"kind": "custom", "values": [0.9, 0.9]}, m, 0.5)


def test_generate_marginal_custom_accepted():
    m = UniformMatroid(1, 2)
    x = generate_marginal({"kind": "custom", "values": [0.2, 0.2]}, m, 0.5)
    assert np.allclose(x, [0.2, 0.2])


def test_generate_marginal_unknown_kind():
    with pytest.raises(ConfigError):
        generate_marginal({"kind": "spicy"}, UniformMatroid(1, 2), 0.5)


# -- run modes -----------------------------------------------------------------------


def test_run_chain_zero_marginals_links_empty():
    cfg = parse_config(
        base_config(marginal={"kind": "custom", "values": [0.0] * 6})
    )
    report, code = run(cfg)
    assert code == 0
    for trial in report.results["per_trial"]:
        assert trial["link_sizes"][0] == 6
        assert all(s == 0 for s in trial["link_sizes"][1:])
    assert report.results["c_zeta_empty_rate"] == 1.0


def test_run_ocrs_writes_csv(tmp_path):
    cfg = parse_config(base_config(mode="ocrs", trials=40))
    report, code = run(cfg)
    assert code == 0
    out = tmp_path / "report.json"
    write_reports(report, out)
    assert out.exists()
    csv_text = (tmp_path / "report.csv").read_text().splitlines()
    assert csv_text[0] == "element_id,activations,selections,frequency,ci_low,ci_high"
    assert len(csv_text) == 7
    for row in report.results["per_element"]:
        if row["frequency"] is not None:
            assert 0.0 <= row["frequency"] <= 1.0


def test_run_verify_modes_exit_zero():
    for mode in ("verify-inlink", "verify-progress", "verify-spanning", "verify-freeness"):
        cfg = parse_config(
            base_config(mode=mode, trials=25, marginal={"kind": "basis-indicator-scaled"}, tau=0.7)
        )
        report, code = run(cfg)
        assert code == 0, mode
        assert report.verdicts[0]["passed"], mode


def test_run_verify_talpha():
    cfg = parse_config(
        base_config(
            mode="verify-talpha",
            matroid={"family": "uniform", "k": 2, "n": 4},
            marginal={"kind": "uniform-scaled"},
            talpha={"alpha": [2, 5], "b": [0], "q_trials": 30},
            trials=1,
        )
    )
    report, code = run(cfg)
    assert code == 0
    assert report.verdicts[0]["passed"]


def test_run_ocrs_matches_engine_level_probability():
    # cross-module consistency: the CLI pipeline on U_{1,2} with x = 0.25
    # reproduces the dominant-chain conditional probability 0.5 * (1 - 0.125)
    cfg = parse_config(
        {
            "mode": "ocrs",
            "matroid": {"family": "uniform", "k": 1, "n": 2},
            "marginal": {"kind": "custom", "values": [0.25, 0.25]},
            "lambda": 0.5,
            "eps": 0.05,
            "trials": 2000,
            "seed": 77,
        }
    )
    report, code = run(cfg)
    assert code == 0
    exact = 0.5 * (1 - 0.125)
    for row in report.results["per_element"]:
        sigma = (exact * (1 - exact) / row["activations"]) ** 0.5
        assert abs(row["frequency"] - exact) <= 4 * sigma


def test_report_wall_clock_not_serialized():
    cfg = parse_config(base_config(trials=1))
    report, _ = run(cfg)
    assert report.wall_clock_seconds is not None
    assert "wall_clock" not in report.to_json()


def test_report_determinism_byte_identical():
    cfg = parse_config(base_config(mode="ocrs", trials=25))
    r1, _ = run(cfg)
    r2, _ = run(cfg)
    assert r1.to_json() == r2.to_json()


K3_DESC = {"family": "graphic", "n_vertices": 3, "edges": [[0, 1], [1, 2], [2, 0]]}
U24_DESC = {"family": "uniform", "k": 2, "n": 4}
# Edge (0, 1) plus 19 two-edge 0-1 paths through 2, ..., 20 (n = 39).
THETA39 = {
    "family": "graphic",
    "n_vertices": 21,
    "edges": [[0, 1]] + [e for w in range(2, 21) for e in ([0, w], [w, 1])],
}

#: One config of each kind ``run`` keeps an instance for: a chain on
#: theta-39 at q = 100 and lambda = 0.1, ocrs on K3 and verify-inlink on
#: U_{2,4}, with the marginals of the benchmark's workloads.
MIXED = (
    base_config(matroid=THETA39, trials=1, overrides={"q": 100}, **{"lambda": 0.1}),
    base_config(mode="ocrs", matroid=K3_DESC, trials=20, overrides={},
                marginal={"kind": "custom", "values": [1 / 3] * 3}),
    base_config(mode="verify-inlink", matroid=U24_DESC, trials=30, overrides={}, tau=0.54,
                marginal={"kind": "custom", "values": [0.25] * 4}),
)


def _texts(configs):
    out = []
    for raw in configs:
        report, code = run(parse_config(raw))
        out.append((report.to_json(), code))
    return out


def test_warm_reports_equal_cold_ones():
    # Whatever ran before it in the process, on one thread or on three at
    # once that interleave at a 1 us switch interval, a report is the one a
    # run with nothing kept gives.
    sequence = [{**raw, "seed": seed} for seed in (3, 4, 3) for raw in MIXED]
    cold = [(r.to_json(), code) for r, code in map(cold_run, map(parse_config, sequence))]
    for _ in range(2):
        assert _texts(sequence) == cold
        assert _texts(sequence[::-1]) == cold[::-1]
    shifts = (0, 4, 8)
    results = [None] * len(shifts)

    def worker(i):
        shift = shifts[i]
        results[i] = _texts(sequence[shift:] + sequence[:shift])

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(shifts))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [cold[shift:] + cold[:shift] for shift in shifts]


#: A chain on K3 plus an isolated vertex, at x = lambda on its greedy basis,
#: whose first link is N at tau = 0.5 and empty at tau = 1, and an ocrs run
#: on it.
KEY_CHAIN = base_config(
    matroid={**K3_DESC, "n_vertices": 4}, trials=2, seed=5, tau=0.5,
    overrides={"q": 100, "zeta": 3}, **{"lambda": 0.8},
)
KEY_OCRS = {**KEY_CHAIN, "mode": "ocrs", "trials": 30, "overrides": {"q": 60, "zeta": 3},
            "marginal": {"kind": "custom", "values": [0.4, 0.4, 0.4]}}


@pytest.mark.parametrize(
    "first, second",
    [
        (KEY_CHAIN, {**KEY_CHAIN, "eps": 0.04}),
        (KEY_CHAIN, {**KEY_CHAIN, "tau": 1.0}),
        (KEY_CHAIN, {**KEY_CHAIN, "lambda": 0.3}),
        (KEY_CHAIN, {**KEY_CHAIN, "overrides": {"q": 120, "zeta": 3}}),
        (KEY_OCRS, {**KEY_OCRS, "marginal": {"kind": "custom", "values": [0.4, 0.4, 0.2]}}),
        (KEY_OCRS, {**KEY_OCRS, "matroid": {**K3_DESC, "n_vertices": 4,
                                            "edges": [[0, 1], [1, 2], [2, 3]]}}),
    ],
    ids=["eps", "tau", "lambda", "q", "custom-value", "edge"],
)
def test_instance_is_rebuilt_when_one_field_differs(first, second):
    # The two configs differ in one field and their reports in more than
    # the echo of the config and of tau, so a run that kept the other
    # config's instance or plan would give the other results.
    cold = [cold_run(parse_config(raw))[0] for raw in (first, second)]
    drawn = [({k: v for k, v in r.results.items() if k != "tau"}, r.verdicts) for r in cold]
    assert drawn[0] != drawn[1]
    cold = [r.to_json() for r in cold]
    assert [t for t, _ in _texts([first, second, first])] == [*cold, cold[0]]
    assert [t for t, _ in _texts([second, first, second])] == [cold[1], *cold]


def test_marginals_outside_the_polytope_fail_after_a_valid_config(tmp_path, capsys):
    # A failing build is not kept: the bad config raises on every call, and
    # the valid config's instance, built before it, still serves reports.
    good = {**KEY_OCRS, "marginal": {"kind": "custom", "values": [0.4, 0.4, 0.4]}}
    bad = {**KEY_OCRS, "marginal": {"kind": "custom", "values": [0.8, 0.8, 0.8]}}
    expected = cold_run(parse_config(good))[0].to_json()
    for _ in range(2):
        with pytest.raises(ConfigError, match="lambda \\* P_M"):
            run(parse_config(bad))
        assert run(parse_config(good))[0].to_json() == expected
    cfg_path = tmp_path / "cfg.json"
    for raw, code in ((good, 0), (bad, 1), (good, 0), (bad, 1)):
        cfg_path.write_text(json.dumps(raw))
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "r.json")]) == code
    assert "error: marginals are not in lambda * P_M" in capsys.readouterr().err


def test_kept_marginals_are_read_only(monkeypatch):
    # Code that writes into the kept x raises instead of changing the
    # reports of later calls.
    config = parse_config(KEY_OCRS)
    expected = cold_run(config)[0].to_json()
    real = cli.selectability_experiment

    def writes(m, x, *args):
        x[0] = 0.9
        return real(m, x, *args)

    with monkeypatch.context() as patch:
        patch.setattr(cli, "selectability_experiment", writes)
        with pytest.raises(ValueError, match="read-only"):
            run(config)
    assert run(config)[0].to_json() == expected


def _plain_for_json(obj):
    """The values json.dumps takes, as the report writer reads ``obj``: dict
    keys as str(key), numpy scalars as Python ones, arrays as lists."""
    if isinstance(obj, dict):
        return {str(k): _plain_for_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain_for_json(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_plain_for_json(v) for v in obj.tolist()]
    return obj


def test_report_writer_matches_json_dumps():
    # The direct writer gives the bytes of json.dumps(indent=2,
    # sort_keys=True) on the plain values, on edge values of every kind it
    # dispatches on, alone, in one-type lists (joined in one step) and in
    # mixed ones, and through ExperimentReport.to_json.
    import enum

    class Level(enum.IntEnum):
        HIGH = 3

    class Name(str):
        pass

    floats = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, 0.1, 1 / 3]
    ints = [0, -1, -(2**70), 2**63, 2**64 + 1, Level.HIGH]
    strings = ["", "é", "日本", "tab\tnew\nline\x00\x1f", '"quote" \\ /', Name("sub")]
    numpy_values = [
        np.int64(-7), np.int32(5), np.uint64(2**64 - 1), np.float64(0.1), np.float32(0.1),
        np.float64(np.nan), np.arange(4), np.array([[1.5, -0.0], [np.inf, 2.0]]),
        np.array([True, False]), np.zeros((0,)), np.zeros((2, 0)),
    ]
    values = floats + ints + strings + numpy_values + [True, False, None, [], {}, (), ((),)]
    doc = {
        "each": values,
        "floats": floats,
        "ints": [v for v in ints if type(v) is int],
        "strings": [v for v in strings if type(v) is str],
        "bools next to ints": [1, True, 0, False, None],
        "bools": [True, False, True],
        "nones": [None, None],
        "tuple": (1, (2, 3), [4, {"x": (5,)}]),
        "nested": {"a": {"b": {"c": [[], [[]], {}, [{}]]}}, "": {"": ""}},
        "numpy": {"int64 list": [np.int64(1), np.int64(2)], "mixed": [np.float64(1.5), 2, 2.5]},
        10: "ten", 9: "nine", 2: "two", -1: "minus one", 2.5: "two and a half",
        None: "none", np.int64(100): "numpy key", "é key": [1, 2], "\x01": 0,
    }
    for key, value in list(doc.items()):
        doc[f"dict {key}"] = {k: k for k in (30, 4, 200)} if key == 10 else {"k": value}
    for obj in [doc, *values, {1: "int one", "1": "str one"}]:
        expected = json.dumps(_plain_for_json(obj), indent=2, sort_keys=True) + "\n"
        assert cli._json_text(obj) == expected
    assert cli._json_text({"a": 1}) == '{\n  "a": 1\n}\n'
    report = cli.ExperimentReport({"seed": np.int64(3)}, {"x": np.arange(3.0)}, [doc])
    expected = {"schema_version": cli.SCHEMA_VERSION, "config": report.config,
                "results": report.results, "verdicts": report.verdicts}
    assert report.to_json() == json.dumps(
        _plain_for_json(expected), indent=2, sort_keys=True
    ) + "\n"
    for bad in (object(), {1, 2}, np.bool_(True), [1, b"bytes"]):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            cli._json_text(bad)


# -- CLI entry point --------------------------------------------------------------------


def test_main_roundtrip(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(trials=2)))
    out = tmp_path / "rep.json"
    assert main(["--config", str(cfg_path), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["config"]["seed"] == 11
    assert data["schema_version"] == 1


def test_main_seed_and_trials_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(trials=2)))
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["--config", str(cfg_path), "--out", str(out1), "--seed", "99", "--trials", "1"]) == 0
    assert main(["--config", str(cfg_path), "--out", str(out2), "--seed", "99", "--trials", "1"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert json.loads(out1.read_text())["config"]["seed"] == 99


def test_main_chain_on_uniform_rank_above_63(tmp_path):
    # Element ids past 63 in A used to overflow an int64 on the uniform path.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(
        matroid={"family": "uniform", "k": 70, "n": 140}, tau=0.2, trials=1, seed=3,
        overrides={"q": 50, "zeta": 2},
    )))
    out = tmp_path / "rep.json"
    assert main(["--config", str(cfg_path), "--out", str(out)]) == 0
    links = json.loads(out.read_text())["results"]["per_trial"][0]["links"]
    assert len(links) == 4 and links[0] == list(range(140)) and links[-1] == []
    for hi, lo in zip(links, links[1:]):
        assert set(lo) <= set(hi)


def test_main_invalid_config_exit_one(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(mode="nope")))
    assert main(["--config", str(cfg_path)]) == 1
    assert main(["--config", str(tmp_path / "missing.json")]) == 1


def test_empty_ground_set_exits_one(tmp_path, capsys):
    # U_{0,0} and an edgeless graph used to end in a ZeroDivisionError
    # traceback (uniform-scaled puts lambda * rank / n on each element), and
    # verify-inlink and verify-freeness in "need at least one check".
    cfg_path = tmp_path / "cfg.json"
    descs = (
        {"family": "uniform", "k": 0, "n": 0},
        {"family": "graphic", "n_vertices": 3, "edges": []},
    )
    modes = [m for m in cli.MODES if m != "audit"]
    for desc, mode, kind in itertools.product(
        descs, modes, ("uniform-scaled", "basis-indicator-scaled")
    ):
        cfg = base_config(matroid=desc, mode=mode, marginal={"kind": kind})
        cfg_path.write_text(json.dumps(cfg))
        assert main(["--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert "error: the matroid's ground set is empty" in err and "Traceback" not in err


def test_main_unwritable_out_exits_one(tmp_path, capsys):
    # An --out path under a file used to end in an OSError traceback.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(trials=1)))
    parent = tmp_path / "file"
    parent.write_text("")
    assert main(["--config", str(cfg_path), "--out", str(parent / "rep.json")]) == 1
    assert "error: cannot write report:" in capsys.readouterr().err


def test_main_rejects_a_non_object_config_and_a_bad_out(tmp_path, capsys, monkeypatch):
    # A JSON array run with --seed, and "out": 5 or a path with a NUL byte
    # after the whole run, used to end in TypeError or ValueError tracebacks.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps([base_config()]))
    assert main(["--config", str(cfg_path), "--seed", "3"]) == 1
    assert "error: config must be a JSON object" in capsys.readouterr().err
    monkeypatch.setattr(cli, "run", lambda config: pytest.fail("ran"))
    for out in (5, True, ["rep.json"], {"path": "rep.json"}, "rep\0.json"):
        cfg_path.write_text(json.dumps(base_config(out=out)))
        assert main(["--config", str(cfg_path)]) == 1
        assert "error: out must be a path string" in capsys.readouterr().err


def test_importing_the_cli_loads_only_numpy_and_starts_no_thread():
    # Import-time work counts toward every run's setup time, so the CLI
    # imports no third-party module but numpy, and starts no thread.
    code = (
        "import sys, threading\n"
        "before = set(sys.modules)\n"
        "import chainocrs.cli\n"
        "new = {n.split('.')[0] for n in set(sys.modules) - before}\n"
        "print(*sorted(new - set(sys.stdlib_module_names)), threading.active_count())\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == ["chainocrs", "numpy", "1"]


def test_main_verification_failure_exit_two(tmp_path, monkeypatch):
    # force a failing verdict through a broken link builder
    import chainocrs.verify as verify_mod

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            base_config(
                mode="verify-inlink",
                matroid={"family": "uniform", "k": 1, "n": 2},
                marginal={"kind": "custom", "values": [0.22, 0.22]},
                tau=0.3,
                trials=20,
            )
        )
    )
    from chainocrs.chains import LinkTrace

    def broken(m, x, params, rng):
        return 0, LinkTrace(1, (0,), params.q, m.ground_mask)

    real = verify_mod.verify_in_link_loss

    def patched(m, x, tau, eps, trials, stream, builder=None, overrides=None):
        return real(m, x, tau, eps, trials, stream, builder=broken, overrides=overrides)

    monkeypatch.setattr("chainocrs.cli.verify_in_link_loss", patched)
    assert main(["--config", str(cfg_path)]) == 2


def test_matroid_descriptor_dispatch():
    m = matroid_from_descriptor(K4_DESC)
    assert m.full_rank() == 3


# -- independent sample rows past n = 20 -----------------------------------------

LAMINAR24 = {
    "family": "laminar",
    "n": 24,
    "sets": [list(range(24)), list(range(12)), [0, 1, 2], [3, 4, 5, 6], list(range(12, 18)),
             [18, 19, 20]],
    "capacities": [9, 4, 1, 2, 3, 1],
}


#: The n = 20 basis-indicator chains at lambda = 0.5, eps = 0.05, q = 100:
#: a 20-edge path, ten pairs at capacity 1, and the same pairs under two
#: halves at capacity 5.
PATH20 = {"family": "graphic", "n_vertices": 21, "edges": [[i, i + 1] for i in range(20)]}
PAIRS20 = [[2 * i, 2 * i + 1] for i in range(10)]
PARTITION20 = {"family": "partition", "blocks": PAIRS20, "capacities": [1] * 10}
LAMINAR20 = {
    "family": "laminar",
    "n": 20,
    "sets": PAIRS20 + [list(range(10)), list(range(10, 20))],
    "capacities": [1] * 10 + [5, 5],
}
N20 = {"trials": 1, "seed": 1, "overrides": {"q": 100}}
EVEN20 = sum(1 << e for e in range(0, 20, 2))


def _pairs_met(mask):
    """Rank of PARTITION20 and LAMINAR20, whose halves never bind: the
    number of pairs that ``mask`` meets."""
    return ((mask | mask >> 1) & EVEN20).bit_count()


@pytest.mark.parametrize(
    "overrides, rank",
    [
        ({"matroid": LAMINAR24, "tau": 0.5, "trials": 2, "seed": 0,
          "overrides": {"q": 60, "eta": 6, "zeta": 4}}, None),
        # The pinned benchmark chain whose first link grows to C_1 = {f}.
        ({"matroid": THETA39, "lambda": 0.1, "trials": 1, "seed": (10 << 24) | 4,
          "overrides": {"q": 100}}, None),
        # A forest: every edge set is independent.
        (dict(N20, matroid=PATH20), int.bit_count),
        (dict(N20, matroid=PARTITION20), _pairs_met),
        (dict(N20, matroid=LAMINAR20), _pairs_met),
    ],
    ids=["laminar-24", "theta-39", "path-20", "partition-20", "laminar-20"],
)
def test_basis_indicator_chains_count_rows_by_circuits(overrides, rank, monkeypatch):
    # Basis-indicator marginals, the only kind the CLI takes past n = 20,
    # keep the drawn columns independent in M/A in every iteration, so the
    # circuit counter counts every row.  Each distinct A costs one family
    # kernel bound to A, which labels A's components on the graphic
    # matroid, and one call of it on the |D| + 1 one-row groups, which also
    # decides independence, with no rank call, and no span() call on the
    # graphic matroid; the laminar and partition kernels span one row at a
    # time.  The family kernel counts no sample row (no per-row span(), no
    # component labels outside a plan build), no dense table is built, also
    # at n = 20, and the report equals the family kernels' one and, at
    # n = 20, the one counted from tables built first.  The first link
    # counts on the family itself and later links on minors, whose kernels
    # call the family's.
    from chainocrs import matroids
    from chainocrs.matroids import Matroid

    config = parse_config(base_config(**overrides))
    family = type(matroid_from_descriptor(config.matroid))
    plans, local, tables = [], threading.local(), []

    def inside():
        # The plan builds open on this thread: the trials run on several.
        return local.__dict__.setdefault("builds", [])

    real_span, real_rank, real_plan = Matroid.span, Matroid.rank, Matroid._circuit_plan
    real_kernel, real_labels = family._span_kernel, matroids._component_labels

    def oracle(real, name):
        def call(self, mask):
            if inside():
                inside()[-1][name] += 1
            return real(self, mask)

        return call

    def plan(self, cols, a_mask, kernel):
        inside().append({"span": 0, "rank": 0, "kernel": []})
        try:
            built = real_plan(self, cols, a_mask, kernel)
        finally:
            calls = inside().pop()
        d_size = sum(not (a_mask >> int(e)) & 1 for e in cols)
        per_row = overrides["matroid"]["family"] != "graphic"
        spans_ok = calls["span"] == 0 or per_row
        cheap = calls["rank"] == 0 and calls["kernel"] == [d_size + 1] and spans_ok
        plans.append((a_mask, built is not None, cheap))
        return built

    def kernel(self, cols, a_mask):
        # Binding the kernel to A is part of building A's plan.
        inside().append({"span": 0, "rank": 0, "kernel": []})
        try:
            count = real_kernel(self, cols, a_mask)
        finally:
            inside().pop()

        def counted(rows, bar=None):
            if not inside():
                pytest.fail("family kernel ran")
            inside()[-1]["kernel"].append(len(rows))
            return count(rows, bar)

        return counted

    def labels(*args):
        return real_labels(*args) if inside() else pytest.fail("labels")

    with monkeypatch.context() as patch:
        patch.setattr(Matroid, "span", oracle(real_span, "span"))
        patch.setattr(Matroid, "rank", oracle(real_rank, "rank"))
        patch.setattr(Matroid, "_circuit_plan", plan)
        patch.setattr(family, "_span_kernel", kernel)
        patch.setattr(matroids, "_component_labels", labels)
        real_tables = Matroid._dense_tables
        patch.setattr(Matroid, "_dense_tables", lambda self: tables.append(self) or real_tables(self))
        report, code = cold_run(config)
    assert code == 0
    assert all(built and cheap for _, built, cheap in plans), plans
    assert len({a for a, _, _ in plans}) > 1
    assert not tables
    if rank is not None:
        # The tables are built from the rank's closed form: the oracle
        # loop over 2^20 masks takes seconds per family.
        m = matroid_from_descriptor(config.matroid)
        masks = np.random.default_rng(0).integers(1 << 20, size=300).tolist()
        assert [rank(s) for s in masks] == [m.rank(s) for s in masks]
        m._rank_masked = rank
        m.rank_table()
        del m._rank_masked
        monkeypatch.setattr(cli, "matroid_from_descriptor", lambda desc: m)
        assert cold_run(config)[0].to_json() == report.to_json()
    monkeypatch.setattr(Matroid, "_circuit_plan", lambda *a: None)
    assert cold_run(config)[0].to_json() == report.to_json()
