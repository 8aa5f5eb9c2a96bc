import json

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
    ],
    ids=["float-k", "string-k", "float-capacity", "missing-k", "flat-edges", "huge-graph"],
)
def test_parse_config_rejects_bad_matroid_descriptor(desc, tmp_path, capsys, monkeypatch):
    # These used to run (a 2.9 k ran U_{2,4} and echoed 2.9; "2" and 1.5
    # were read as integers), end in a KeyError or TypeError traceback, or
    # cost 1.6 s and 76 MiB per rank call (2 * 10^6 vertices).  Each is now
    # a config error found without building the matroid, and exits 1.
    monkeypatch.setattr(cli, "matroid_from_descriptor", lambda d: pytest.fail("built"))
    with pytest.raises(ConfigError, match="matroid"):
        parse_config(base_config(matroid=desc))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(matroid=desc)))
    assert main(["--config", str(cfg_path)]) == 1
    assert "error:" in capsys.readouterr().err


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

    def patched(m, x, rho, tau, eps, trials, stream, builder=None, overrides=None):
        return real(m, x, rho, tau, eps, trials, stream, builder=broken, overrides=overrides)

    monkeypatch.setattr("chainocrs.cli.verify_in_link_loss", patched)
    assert main(["--config", str(cfg_path)]) == 2


def test_matroid_descriptor_dispatch():
    m = matroid_from_descriptor(K4_DESC)
    assert m.full_rank() == 3
