import csv
import ctypes
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import backflow.cli as cli_mod
from backflow import measure
from backflow.cli import (
    ConfigError,
    RunConfig,
    SweepConfig,
    _parse_sweep_config,
    main,
    parse_config,
)
from backflow.measure import PairFamily
from backflow.model import (
    chain_build_peak_bytes,
    chain_run_peak_bytes,
    run_peak_bytes,
)

CSV_HEADER = (
    "t,D_system,sigma,bound_total,bound_term1,bound_term2,D_env,E_indist,"
    "X_corr,chi1_norm,chi2_norm,svn_system_1,svn_system_2,mutual_info_1,"
    "mutual_info_2,dIdt_1"
)


def write_json(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_parse_config_defaults():
    cfg = parse_config(overrides={"scenario": "fig1a"})
    assert cfg.n_spins == 10
    assert cfg.j == 1.0 and cfg.j0 == 1.0
    assert cfg.b_field == 0.01
    assert cfg.t_max == 9.0
    assert cfg.steps == 2000
    assert cfg.pair == "paper"
    assert cfg.path == "auto"
    assert cfg.seed == 7
    assert cfg.field_on_system is False


def test_fig2b_preset_field():
    cfg = parse_config(overrides={"scenario": "fig2b"})
    assert cfg.b_field == 0.5
    assert cfg.t_max == 9.0


def test_t_max_follows_chain_length():
    cfg = parse_config(overrides={"scenario": "fig1a", "n_spins": 6})
    assert cfg.t_max == 5.0
    cfg = parse_config(overrides={"scenario": "fig1a", "n_spins": 6, "t_max": 2.5})
    assert cfg.t_max == 2.5


def test_precedence_file_over_preset_flag_over_file(tmp_path):
    path = write_json(tmp_path, {"scenario": "fig2b", "b_field": 0.3, "steps": 500})
    cfg = parse_config(path)
    assert cfg.b_field == 0.3  # file beats the scenario preset
    cfg = parse_config(path, overrides={"steps": 600})
    assert cfg.steps == 600  # flags beat the file


def test_unknown_and_mistyped_keys(tmp_path):
    with pytest.raises(ConfigError, match="unknown config key 'stepz'"):
        parse_config(write_json(tmp_path, {"scenario": "fig1a", "stepz": 3}))
    with pytest.raises(ConfigError, match="'steps'"):
        parse_config(overrides={"scenario": "fig1a", "steps": "many"})
    with pytest.raises(ConfigError, match="'b_field'"):
        parse_config(overrides={"scenario": "fig1a", "b_field": True})
    with pytest.raises(ConfigError, match="scenario"):
        parse_config(overrides={})
    with pytest.raises(ConfigError, match="unknown scenario"):
        parse_config(overrides={"scenario": "fig9"})
    with pytest.raises(ConfigError, match="n_spins"):
        parse_config(overrides={"scenario": "fig1a", "n_spins": 1})
    with pytest.raises(ConfigError, match="path"):
        parse_config(overrides={"scenario": "fig1a", "path": "warp"})


def run_cli(*args):
    return main(list(args))


def test_infeasible_chain_size_exits_2_before_building(tmp_path, capsys, monkeypatch):
    # refused at config time: nothing is allocated, so no output file appears. The
    # estimate follows the path: the dense path builds 2^n-square matrices, the others
    # hold arrays of n times the grid. Physical memory is pinned to 8 GiB so that no
    # row depends on the machine
    sizes = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**33 // 4096}
    sysconf = cli_mod.os.sysconf
    monkeypatch.setattr(cli_mod.os, "sysconf", lambda name: sizes.get(name) or sysconf(name))
    out = tmp_path / "never.csv"
    sweep = ["sweep", "--j0-grid", "0.5", "1.0", "2", "--b-grid", "0.0", "1.0", "2", "--out", str(out)]
    for n in (15, 30):
        flags = ["--n-spins", str(n), "--path", "dense"]
        assert run_cli("run", "--scenario", "fig1a", *flags, "--out", str(out)) == 2
        assert str(chain_build_peak_bytes(n)) in capsys.readouterr().err
        assert run_cli(*sweep, *flags) == 2
        assert str(chain_build_peak_bytes(n)) in capsys.readouterr().err
    # every path builds the (2n)^2 carrier block of H: a chain too long for it is refused
    # naming n_spins, even on a one-step grid, and nothing is built
    def never_build(params):
        raise AssertionError("built a chain that cannot fit")

    need = chain_run_peak_bytes(20000, 1)
    assert need > 16 * 40000**2 > 2**33
    with monkeypatch.context() as guard:
        guard.setattr(cli_mod, "build_chain_model", never_build)
        guard.setattr(measure, "build_chain_model", never_build)
        for path in ("auto", "subspace"):
            flags = ["--n-spins", "20000", "--steps", "1", "--path", path]
            assert run_cli("run", "--scenario", "fig1a", *flags, "--out", str(out)) == 2
            assert f"n_spins=20000, steps=1 needs an estimated {need} bytes" in capsys.readouterr().err
            assert run_cli(*sweep, *flags) == 2
            assert f"n_spins=20000, steps=1 needs an estimated {need} bytes" in capsys.readouterr().err
    # a grid whose states cannot fit is refused the same way, naming steps; a
    # model file is sized by its own dimension once it is loaded
    summary = tmp_path / "never.json"
    huge = ["--steps", "10000000000", "--summary", str(summary)]
    model_cfg = write_json(
        tmp_path, {"scenario": "custom", "model_file": write_json(tmp_path, _generic_doc(), "model.json")}
    )
    for path in ("auto", "subspace", "dense"):
        flags = ["--n-spins", "4", "--path", path, *huge]
        need = chain_run_peak_bytes(4, 10**10)
        assert run_cli("run", "--scenario", "fig1a", *flags, "--out", str(out)) == 2
        assert f"steps=10000000000 needs an estimated {need} bytes" in capsys.readouterr().err
        assert run_cli(*sweep, *flags) == 2
        assert f"steps=10000000000 needs an estimated {need} bytes" in capsys.readouterr().err
    assert run_cli("run", "--config", model_cfg, *huge, "--out", str(out)) == 2
    need = run_peak_bytes(10**10, 6, 6)
    assert f"steps=10000000000 needs an estimated {need} bytes" in capsys.readouterr().err
    assert not out.exists() and not summary.exists()
    assert parse_config(overrides={"scenario": "fig1a", "n_spins": 10}).n_spins == 10
    grids = {"j0": {"min": 0.5, "max": 1.0, "count": 2}, "b": {"min": 0.0, "max": 1.0, "count": 2}}
    assert _parse_sweep_config(None, {"n_spins": 10, **grids}).n_spins == 10
    # sizes only the dense path could not reach run on the subspace path
    for n, t_max in ((16, []), (100, ["--t-max", "9"])):
        summary = tmp_path / f"n{n}.json"
        code = run_cli(
            "run", "--scenario", "fig1a", "--n-spins", str(n), *t_max,
            "--out", str(tmp_path / f"n{n}.csv"), "--summary", str(summary),
        )
        assert code == 0
        assert json.loads(summary.read_text())["path_used"] == "subspace"
    sweep_out = tmp_path / "sweep16.csv"
    assert run_cli(*sweep[:-1], str(sweep_out), "--n-spins", "16") == 0
    assert [row["status"] for row in csv.DictReader(sweep_out.open())] == ["ok"] * 4


def test_run_scenario_outputs(tmp_path):
    out = tmp_path / "run.csv"
    summary = tmp_path / "run.json"
    code = run_cli(
        "run", "--scenario", "fig1a", "--n-spins", "5", "--steps", "900",
        "--out", str(out), "--summary", str(summary),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 902
    doc = json.loads(summary.read_text())
    for key in (
        "parameters", "n_measure", "intervals", "zero_crossings_down_up",
        "max_bound_violation", "violations", "path_used", "runtime_seconds",
        "timestamp",
    ):
        assert key in doc
    assert doc["parameters"]["n_spins"] == 5
    assert doc["violations"] == []
    assert doc["path_used"] == "subspace"
    assert doc["n_measure"] > 0


def test_csv_roundtrips_float64(tmp_path):
    from backflow import ChainParams, TimeGrid, build_chain_model, run_trajectory

    out = tmp_path / "t.csv"
    code = run_cli(
        "run", "--scenario", "fig1b", "--n-spins", "4", "--steps", "700",
        "--out", str(out), "--summary", str(tmp_path / "t.json"),
    )
    assert code == 0
    rec = run_trajectory(
        build_chain_model(ChainParams(n_total=4)), TimeGrid(3.0, 700), path="auto"
    )
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    got = np.array([float(r["D_system"]) for r in rows])
    assert np.array_equal(got, rec.d_system)
    got_sigma = np.array([float(r["sigma"]) for r in rows])
    assert np.array_equal(got_sigma, rec.sigma)


def test_csv_fields_format_as_format_float(tmp_path):
    from backflow import ChainParams, TimeGrid, build_chain_model, run_trajectory
    from backflow.output import TRAJECTORY_CSV, format_float, write_trajectory_csv

    rec = run_trajectory(build_chain_model(ChainParams(n_total=4)), TimeGrid(3.0, 5), path="auto")
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 0.1])
    assert special.size == rec.times.size
    rec = dataclasses.replace(rec, sigma=special, didt_1=-special)
    out = tmp_path / "t.csv"
    write_trajectory_csv(rec, out)
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    want = [[format_float(getattr(rec, name)[i]) for _, name in TRAJECTORY_CSV] for i in range(rec.times.size)]
    assert rows == want
    assert [row[2] for row in rows] == ["nan", "inf", "-inf", "-0", "4.9406564584124654e-324", "0.10000000000000001"]


def test_determinism(tmp_path):
    # default-density grid: the bound flag tolerance assumes dt near 0.0045
    args = ["run", "--scenario", "fig1a", "--n-spins", "5", "--steps", "900"]
    a_csv, a_json = tmp_path / "a.csv", tmp_path / "a.json"
    b_csv, b_json = tmp_path / "b.csv", tmp_path / "b.json"
    assert run_cli(*args, "--out", str(a_csv), "--summary", str(a_json)) == 0
    assert run_cli(*args, "--out", str(b_csv), "--summary", str(b_json)) == 0
    assert a_csv.read_bytes() == b_csv.read_bytes()
    da, db = json.loads(a_json.read_text()), json.loads(b_json.read_text())
    for key in ("timestamp", "runtime_seconds"):
        da.pop(key), db.pop(key)
    assert da == db


def test_default_output_names(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = run_cli("run", "--scenario", "fig1a", "--n-spins", "4", "--steps", "700")
    assert code == 0
    assert (tmp_path / "fig1a.csv").exists()
    assert (tmp_path / "fig1a.json").exists()


def test_fig2b_reports_violations(tmp_path):
    summary = tmp_path / "m.json"
    code = run_cli(
        "run", "--scenario", "fig2b", "--steps", "2000",
        "--out", str(tmp_path / "m.csv"), "--summary", str(summary),
    )
    assert code == 1
    doc = json.loads(summary.read_text())
    assert doc["violations"]
    assert doc["window"]["t_end"] == 2.25
    assert doc["window"]["n_measure"] > 1e-6


def test_fig2b_window_ends_at_the_chains_first_return(tmp_path):
    # 2 (n_spins - 1) / (8 |j|): the fastest excitation's round trip to the far end
    for n_spins, j, t_end in ((6, 1.0, 1.25), (6, -0.5, 2.5)):
        summary = tmp_path / "w.json"
        code = run_cli(
            "run", "--scenario", "fig2b", "--n-spins", str(n_spins), "--j", str(j), "--steps", "400",
            "--out", str(tmp_path / "w.csv"), "--summary", str(summary),
        )
        doc = json.loads(summary.read_text())
        assert doc["window"]["t_end"] == t_end
        assert code == (1 if doc["violations"] else 0)
        assert all(f"[0, {t_end:g}]" in v for v in doc["violations"])
    # a window past t_max ends at t_max
    code = run_cli(
        "run", "--scenario", "fig2b", "--n-spins", "6", "--t-max", "1.0", "--steps", "100",
        "--out", str(tmp_path / "w.csv"), "--summary", str(summary),
    )
    assert json.loads(summary.read_text())["window"]["t_end"] == 1.0


def test_run_exits_1_when_sigma_exceeds_the_bound(tmp_path, monkeypatch):
    # a tolerance below the run's margin max(sigma - bound_total), which is about -3e-15
    monkeypatch.setattr(cli_mod, "BOUND_TOLERANCE", -1.0)
    out, summary = tmp_path / "b.csv", tmp_path / "b.json"
    code = run_cli(
        "run", "--scenario", "fig1a", "--n-spins", "4", "--steps", "50",
        "--out", str(out), "--summary", str(summary),
    )
    assert code == 1
    doc = json.loads(summary.read_text())
    assert [v for v in doc["violations"] if v.startswith("bound:")] == doc["violations"]
    assert len(doc["violations"]) == 1
    assert out.read_text().startswith(CSV_HEADER)


def test_sweep_row_major(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli(
        "sweep", "--n-spins", "4", "--steps", "60", "--t-max", "2.0",
        "--j0-grid", "0.5", "1.0", "2", "--b-grid", "0.1", "0.2", "2",
        "--out", str(out), "--summary", str(tmp_path / "sweep.json"),
    )
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    coords = [(float(r["j0_over_j"]), float(r["b_over_j"])) for r in rows]
    assert coords == [(0.5, 0.1), (0.5, 0.2), (1.0, 0.1), (1.0, 0.2)]
    assert all(r["status"] == "ok" for r in rows)
    assert all(float(r["n_measure"]) >= 0 for r in rows)


def test_sweep_continues_after_point_failure(tmp_path, monkeypatch):
    calls = {"n": 0}
    real = cli_mod.blp_measure

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 2:
            raise np.linalg.LinAlgError("forced")
        return real(*args, **kwargs)

    monkeypatch.setattr(cli_mod, "blp_measure", flaky)
    out = tmp_path / "sweep.csv"
    code = run_cli(
        "sweep", "--n-spins", "4", "--steps", "40", "--t-max", "1.0",
        "--j0-grid", "0.5", "1.0", "2", "--b-grid", "0.1", "0.1", "1",
        "--out", str(out),
    )
    assert code == 1
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["status"] for r in rows] == ["ok", "error:LinAlgError"]
    assert rows[1]["n_measure"] == ""


def test_sweep_config_file(tmp_path):
    cfg = write_json(
        tmp_path,
        {
            "sweep": {
                "n_spins": 4,
                "steps": 50,
                "t_max": 1.5,
                "j0": {"min": 1.0, "max": 1.0, "count": 1},
                "b": {"min": 0.1, "max": 0.1, "count": 1},
            }
        },
    )
    out = tmp_path / "s.csv"
    assert run_cli("sweep", "--config", cfg, "--out", str(out)) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    with pytest.raises(SystemExit):
        main(["sweep", "--config", cfg, "--j0-grid", "bad", "grid", "here"])


def test_sweep_config_reads_the_shared_top_level_keys(tmp_path, capsys):
    # the top level may hold any run key, and a sweep reads the chain keys among them
    doc = {"steps": 7, "n_spins": 4, "scenario": "fig1a", "j0": 0.3, "out": "run.csv",
           "sweep": {**SWEEP_GRIDS, "path": "dense"}}
    cfg = _parse_sweep_config(write_json(tmp_path, doc), {})
    assert (cfg.steps, cfg.n_spins, cfg.t_max, cfg.path, cfg.out) == (7, 4, 3.0, "dense", None)
    # the sweep section overrides the top level, and flags override both
    doc["sweep"]["steps"] = 9
    assert _parse_sweep_config(write_json(tmp_path, doc), {}).steps == 9
    assert _parse_sweep_config(write_json(tmp_path, doc), {"steps": 11}).steps == 11
    # a top-level key that no verb reads is refused, as run refuses it
    out = tmp_path / "never.csv"
    doc = {"steps": 7, "n_spins": 4, "bogus": 1, "sweep": SWEEP_GRIDS}
    for verb in (["sweep"], ["run", "--scenario", "fig1a"]):
        assert main([*verb, "--config", write_json(tmp_path, doc), "--out", str(out)]) == 2
        assert "unknown config key 'bogus'" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_missing_grid_is_config_error(capsys):
    assert run_cli("sweep", "--j0-grid", "1", "1", "1") == 2
    assert "b grid" in capsys.readouterr().err
    # a COUNT given by flag must be integral, as in the file form
    small = ["--n-spins", "4", "--steps", "10"]
    assert run_cli("sweep", *small, "--j0-grid", "0.5", "1", "2.6", "--b-grid", "0", "1", "2") == 2
    assert "'j0.count'" in capsys.readouterr().err
    assert run_cli("sweep", *small, "--j0-grid", "0.5", "1", "2", "--b-grid", "0", "1", "2.5") == 2
    assert "'b.count'" in capsys.readouterr().err
    args = cli_mod.build_parser().parse_args(["sweep", "--j0-grid", "0.5", "1.0", "3.0", "--b-grid", "0", "1", "2"])
    assert _parse_sweep_config(None, cli_mod._flag_values(args, SweepConfig)).j0["count"] == 3


def test_sweep_shares_run_checks(capsys):
    grids = ["--j0-grid", "1", "1", "1", "--b-grid", "0", "0", "1"]
    for bad, message in (
        (["--n-spins", "1"], "n_spins must be at least 2, got 1"),
        (["--steps", "-1"], "steps must be nonnegative, got -1"),
        (["--t-max", "0", "--steps", "10"], "t_max must be positive, got 0.0"),
    ):
        assert run_cli("sweep", *grids, *bad) == 2
        assert message in capsys.readouterr().err


def test_sweep_grid_too_large_exits_2_before_allocating(tmp_path, capsys, monkeypatch):
    out = tmp_path / "never.csv"
    # the j0 axis alone would take 80 TB
    huge = ["--j0-grid", "0", "1", "1e13", "--b-grid", "0", "1", "1", "--out", str(out)]
    assert run_cli("sweep", *huge) == 2
    assert "j0.count=10000000000000, b.count=1 needs an estimated" in capsys.readouterr().err
    # every point holds a row: with physical memory pinned to 64 KiB, 30 x 30 rows do not fit
    sizes = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 16}
    sysconf = cli_mod.os.sysconf
    monkeypatch.setattr(cli_mod.os, "sysconf", lambda name: sizes.get(name) or sysconf(name))
    small = ["--n-spins", "2", "--steps", "1", "--out", str(out)]
    assert run_cli("sweep", "--j0-grid", "0", "1", "30", "--b-grid", "0", "1", "30", *small) == 2
    need = 8 * 60 + cli_mod._SWEEP_ROW_BYTES * 900
    assert f"j0.count=30, b.count=30 needs an estimated {need} bytes" in capsys.readouterr().err
    assert not out.exists()
    grids = {"j0": {"min": 0.0, "max": 1.0, "count": 2}, "b": {"min": 0.0, "max": 1.0, "count": 2}}
    assert _parse_sweep_config(None, {"n_spins": 2, "steps": 1, **grids}).j0["count"] == 2


def test_null_stands_for_a_default_only_where_it_is_null(tmp_path, capsys):
    small = {"n_spins": 4, "steps": 10}
    out = tmp_path / "never.csv"
    for doc, verb in (
        ({"scenario": "fig1a", **small, "steps": None}, "run"),
        ({"scenario": "measure", **small, "pair": "random:2", "seed": None}, "run"),
        ({"sweep": {**SWEEP_GRIDS, **small, "steps": None}}, "sweep"),
    ):
        code = main([verb, "--config", write_json(tmp_path, doc), "--out", str(out)])
        assert code == 2
        assert "got None" in capsys.readouterr().err
    assert not out.exists()
    # null t_max, summary and out keep their defaults
    cfg = parse_config(overrides={"scenario": "fig1a", "t_max": None, "summary": None})
    assert cfg.t_max == 9.0 and cfg.summary is None


def test_negative_seed_and_t_max_exit_2(tmp_path, capsys):
    out, summary = tmp_path / "never.csv", tmp_path / "never.json"
    outputs = ["--out", str(out), "--summary", str(summary)]
    for argv, message in (
        (["run", "--scenario", "bound-check", "--seed", "-1", *outputs], "seed must be nonnegative"),
        (["run", "--scenario", "fig1a", "--pair", "random:2", "--seed", "-1", *outputs],
         "seed must be nonnegative"),
        (["verify", "--seed", "-1", "--summary", str(summary)], "seed must be nonnegative"),
        (["run", "--scenario", "fig1a", "--n-spins", "4", "--steps", "0", "--t-max", "-1", *outputs],
         "t_max must be nonnegative"),
        (["sweep", "--n-spins", "4", "--steps", "0", "--t-max", "-1", "--j0-grid", "1", "1", "1",
          "--b-grid", "0", "0", "1", *outputs], "t_max must be nonnegative"),
    ):
        assert main(argv) == 2, argv
        assert message in capsys.readouterr().err
    assert not out.exists() and not summary.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "--scenario", "fig1a", "--j", "0"], "j must be nonzero"),
        (["run", "--scenario", "fig1a", "--j", "nan"], "key 'j' must be finite"),
        (["run", "--scenario", "fig1a", "--j0=-inf"], "key 'j0' must be finite"),
        (["run", "--scenario", "fig1a", "--b-field", "inf"], "key 'b_field' must be finite"),
        (["run", "--scenario", "fig1a", "--t-max", "nan"], "key 't_max' must be finite"),
        (["run", "--scenario", "fig1a", "--t-max", "inf"], "key 't_max' must be finite"),
        (["run", "--config", "CONFIG"], "key 'b_field' must be finite"),
        (["run", "--config", "HUGE"], "key 'j0' must be finite"),
        (["run", "--config", "HUGE_309"], "key 'j0' must be finite"),
        (["sweep", "--config", "CONFIG", "--j0-grid", "0", "1", "2", "--b-grid", "0", "1", "2"],
         "key 't_max' must be finite"),
        (["sweep", "--j0-grid", "nan", "1", "3", "--b-grid", "0", "1", "2"], "key 'j0.min' must be finite"),
        (["sweep", "--j0-grid", "0", "1", "3", "--b-grid", "0", "inf", "2"], "key 'b.max' must be finite"),
    ],
)
def test_nonfinite_floats_and_zero_j_exit_2(argv, message, tmp_path, capsys):
    # Python's json reads NaN and Infinity, so a config file can carry them too,
    # and an integer too large for a float
    files = {"CONFIG": tmp_path / "nonfinite.json", "HUGE": tmp_path / "huge.json",
             "HUGE_309": tmp_path / "huge_309.json"}
    files["CONFIG"].write_text('{"scenario": "fig1a", "b_field": NaN, "sweep": {"t_max": Infinity}}')
    files["HUGE"].write_text('{"scenario": "fig1a", "j0": 1' + "0" * 400 + "}")
    # 2**1024 - 1 is below the float range's end but float() rounds it up past it
    files["HUGE_309"].write_text('{"scenario": "fig1a", "j0": %d}' % (2**1024 - 1))
    out, summary = tmp_path / "never.csv", tmp_path / "never.json"
    argv = [str(files[a]) if a in files else a for a in argv]
    assert main([*argv, "--out", str(out), "--summary", str(summary)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists() and not summary.exists()


def test_zero_j_is_refused_only_where_a_chain_is_built():
    # bound-check and model-file runs never read j
    for overrides in ({"scenario": "bound-check", "j": 0.0},
                      {"scenario": "custom", "model_file": "m.json", "j": 0.0}):
        assert parse_config(overrides=overrides).j == 0.0


def test_coarse_grid_passes_the_bound_check(tmp_path):
    summary = tmp_path / "s.json"
    argv = ["run", "--scenario", "fig1a", "--steps", "200", "--summary", str(summary)]
    assert main([*argv, "--out", str(tmp_path / "s.csv")]) == 0
    assert json.loads(summary.read_text())["max_bound_violation"] <= 1e-13


# a value other than the default for every run and sweep key
KEY_SAMPLES = {
    "scenario": "fig2b", "n_spins": 6, "j": 0.7, "j0": 0.3, "b_field": 0.2,
    "field_on_system": True, "t_max": 2.5, "steps": 40, "pair": "equatorial:3",
    "path": "dense", "seed": 11, "out": "o.csv", "summary": "s.json",
    "model_file": "m.json", "n_models": 5,
}
CONFIG_FILE_ONLY = {"model_file", "n_models"}
SWEEP_GRIDS = {"j0": {"min": 0.5, "max": 1.5, "count": 3}, "b": {"min": 0.0, "max": 1.0, "count": 2}}
# the sweep's keys j0 and b are its grids
SWEEP_SAMPLES = {**KEY_SAMPLES, "j0": {"min": 0.25, "max": 0.75, "count": 2}, "b": {"min": 0.5, "max": 2.0, "count": 4}}


@pytest.mark.parametrize(
    "verb,key",
    [("run", f.name) for f in dataclasses.fields(RunConfig)]
    + [("sweep", f.name) for f in dataclasses.fields(SweepConfig)],
)
def test_flag_and_config_key_agree(verb, key, tmp_path, monkeypatch):
    seen = []
    runner = "run_scenario" if verb == "run" else "run_sweep"
    monkeypatch.setattr(cli_mod, runner, lambda cfg: seen.append(cfg) or (0, None))
    value = (KEY_SAMPLES if verb == "run" else SWEEP_SAMPLES)[key]
    if verb == "run":
        base_flags = [] if key == "scenario" else ["--scenario", "custom"]
        doc = {"scenario": "custom", key: value}
    else:
        base_flags = ["--j0-grid", "0.5", "1.5", "3", "--b-grid", "0", "1", "2"]
        doc = {"sweep": {**SWEEP_GRIDS, key: value}}
    flag = "--" + key.replace("_", "-")
    assert main([verb, "--config", write_json(tmp_path, doc)]) == 0
    assert getattr(seen[0], key) == value
    if key in CONFIG_FILE_ONLY:
        with pytest.raises(SystemExit):
            main([verb, *base_flags, flag, str(value)])
        return
    if isinstance(value, dict):  # a grid's flag takes MIN MAX COUNT
        flag_args = [flag + "-grid", *(str(value[k]) for k in ("min", "max", "count"))]
    else:
        flag_args = [flag] if value is True else [flag, str(value)]
    assert main([verb, *base_flags, *flag_args]) == 0
    assert seen[1] == seen[0]


def test_summary_parameters_feed_back_as_a_config(tmp_path):
    # a summary's parameters are a config that reproduces the run's CSV byte for byte
    sweep = ["--n-spins", "4", "--steps", "30", "--t-max", "1.5",
             "--j0-grid", "0.5", "1.0", "2", "--b-grid", "0.1", "0.3", "3"]
    run = ["--scenario", "measure", "--pair", "equatorial:2", "--n-spins", "5", "--steps", "60",
           "--j0", "0.6", "--b-field", "0.3", "--field-on-system"]
    for verb, flags, as_config in (("sweep", sweep, lambda p: {"sweep": p}), ("run", run, lambda p: p)):
        first, again = tmp_path / f"{verb}1", tmp_path / f"{verb}2"
        assert main([verb, *flags, "--out", f"{first}.csv", "--summary", f"{first}.json"]) == 0
        parameters = json.loads(Path(f"{first}.json").read_text())["parameters"]
        config = write_json(tmp_path, as_config(parameters))
        assert main([verb, "--config", config, "--out", f"{again}.csv", "--summary", f"{again}.json"]) == 0
        assert Path(f"{again}.csv").read_bytes() == Path(f"{first}.csv").read_bytes()
        assert json.loads(Path(f"{again}.json").read_text())["parameters"] == parameters


def test_verify_quick(capsys, tmp_path):
    summary = tmp_path / "verify.json"
    code = run_cli("verify", "--models", "2", "--summary", str(summary))
    assert code == 0
    out = capsys.readouterr().out
    assert "bound-on-random-models" in out
    assert out.strip().endswith("checks passed")
    doc = json.loads(summary.read_text())
    assert doc["passed"] is True
    assert all(c["passed"] for c in doc["checks"])


def test_verify_models_must_be_positive(tmp_path, capsys):
    summary = tmp_path / "verify.json"
    for models in ("0", "-3"):
        assert run_cli("verify", "--models", models, "--summary", str(summary)) == 2
        assert f"n_models must be positive, got {models}" in capsys.readouterr().err
    assert not summary.exists()


def test_exit_code_two_paths(tmp_path, capsys):
    assert run_cli("run", "--scenario", "nope") == 2
    # bound-check runs random dense models, so it cannot take the subspace path
    summary = tmp_path / "never.json"
    assert run_cli("run", "--scenario", "bound-check", "--path", "subspace", "--summary", str(summary)) == 2
    assert "path 'subspace' needs a chain" in capsys.readouterr().err
    assert not summary.exists()
    # fig2b's window follows a chain's size and coupling, which a model file does not have
    model_path = write_json(tmp_path, _generic_doc(), "model.json")
    out = tmp_path / "never.csv"
    cfg = write_json(tmp_path, {"scenario": "fig2b", "model_file": model_path})
    assert run_cli("run", "--config", cfg, "--out", str(out), "--summary", str(summary)) == 2
    assert "fig2b's window needs a chain" in capsys.readouterr().err
    assert not out.exists() and not summary.exists()
    assert run_cli("run", "--config", str(tmp_path / "absent.json")) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run_cli("run", "--config", str(bad)) == 2
    # unreadable model file
    cfg = write_json(tmp_path, {"scenario": "custom", "model_file": str(tmp_path / "nope.json")})
    assert run_cli("run", "--config", cfg) == 2
    # a model file whose H fails Model's Hermiticity check
    doc = _generic_doc()
    doc["hamiltonian"][0][1] = [5.0, 0.0]
    model_path = write_json(tmp_path, doc, "nonhermitian.json")
    cfg = write_json(tmp_path, {"scenario": "custom", "model_file": model_path, "out": str(tmp_path / "nh.csv")})
    capsys.readouterr()
    assert run_cli("run", "--config", cfg) == 2
    assert f"error: {model_path}: hamiltonian not Hermitian" in capsys.readouterr().err
    assert not (tmp_path / "nh.csv").exists()
    # unwritable output
    code = run_cli(
        "run", "--scenario", "fig1a", "--n-spins", "4", "--steps", "10",
        "--out", str(tmp_path / "no-such-dir" / "x.csv"),
    )
    assert code == 2
    capsys.readouterr()


def _generic_doc():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = (a + a.conj().T) / 2

    def vec(v):
        return [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex)]

    return {
        "dims": {"system": 2, "environment": 3},
        "hamiltonian": [[[float(z.real), float(z.imag)] for z in row] for row in h],
        "initial_states": [
            {"system_state": vec([1, 0]), "environment_state": vec([1, 0, 0])},
            {"system_state": vec(np.array([1, 1]) / np.sqrt(2)),
             "environment_state": vec([1, 0, 0])},
        ],
    }


def _qutrit_doc():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = (a + a.conj().T) / 2

    def vec(v):
        return [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex)]

    return {
        "dims": {"system": 3, "environment": 2},
        "hamiltonian": [vec(row) for row in h],
        "initial_states": [
            {"system_state": vec([1, 0, 0]), "environment_state": vec([1, 0])},
            {"system_state": vec([0, 1, 0]), "environment_state": vec([1, 0])},
        ],
    }


_PAIRS = ("paper", "equatorial:3", "random:2", "file")


def _expected_exit(model: str, path: str, pair: str) -> tuple[int, str | None]:
    """The exit code of a run, and the message that an exit 2 prints."""
    if model == "chain":
        if pair == "file":
            return 2, "pair 'file' needs a model_file; a chain has no input pair of its own"
        return 0, None
    if path == "subspace":
        return 2, "path 'subspace' needs a chain; model files and bound-check run dense"
    if model == "qutrit" and pair in ("paper", "equatorial:3"):
        return 2, f"pair '{pair}' needs a qubit system, the model's d_S is 3"
    return 0, None


@pytest.mark.parametrize("pair", _PAIRS)
@pytest.mark.parametrize("path", ["auto", "dense", "subspace"])
@pytest.mark.parametrize("model", ["chain", "qubit", "qutrit"])
def test_every_path_and_pair_family_on_every_model_kind(model, path, pair, tmp_path, capsys):
    out, summary = tmp_path / "t.csv", tmp_path / "t.json"
    argv = ["run", "--path", path, "--pair", pair, "--t-max", "2", "--steps", "20"]
    argv += ["--out", str(out), "--summary", str(summary)]
    if model == "chain":
        argv += ["--scenario", "custom", "--n-spins", "4"]
    else:
        doc = _generic_doc() if model == "qubit" else _qutrit_doc()
        model_path = write_json(tmp_path, doc, "model.json")
        argv += ["--config", write_json(tmp_path, {"scenario": "custom", "model_file": model_path})]
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    want, message = _expected_exit(model, path, pair)
    assert code == want, err
    if code == 2:
        assert err == f"error: {message}\n"
        assert not out.exists() and not summary.exists()
    else:
        path_used = "subspace" if model == "chain" and path != "dense" else "dense"
        assert json.loads(summary.read_text())["path_used"] == path_used


def test_generic_model_run(tmp_path):
    model_path = write_json(tmp_path, _generic_doc(), "model.json")
    cfg = write_json(tmp_path, {"scenario": "custom", "model_file": model_path})
    summary = tmp_path / "g.json"
    code = run_cli(
        "run", "--config", cfg, "--t-max", "4", "--steps", "200",
        "--out", str(tmp_path / "g.csv"), "--summary", str(summary),
    )
    assert code == 0
    doc = json.loads(summary.read_text())
    assert doc["best_pair"] == "file"
    assert doc["path_used"] == "dense"
    assert doc["violations"] == []


def test_generic_model_with_random_pairs(tmp_path):
    model_path = write_json(tmp_path, _generic_doc(), "model.json")
    cfg = write_json(tmp_path, {"scenario": "custom", "model_file": model_path})
    summary = tmp_path / "r.json"
    code = run_cli(
        "run", "--config", cfg, "--t-max", "2", "--steps", "100",
        "--pair", "random:2", "--seed", "3",
        "--out", str(tmp_path / "r.csv"), "--summary", str(summary),
    )
    assert code == 0
    doc = json.loads(summary.read_text())
    assert [p["pair"] for p in doc["per_pair"]] == ["random:0", "random:1"]


def test_pair_file_needs_model_file(tmp_path, capsys):
    # a chain has no input pair of its own, so 'file' must not fall back to |+>/|->
    out = tmp_path / "never.csv"
    code = run_cli("run", "--scenario", "fig1a", "--pair", "file", "--out", str(out))
    assert code == 2
    assert "model_file" in capsys.readouterr().err
    assert not out.exists()
    cfg = write_json(tmp_path, {"scenario": "fig1a", "pair": "file"})
    with pytest.raises(ConfigError):
        parse_config(cfg)
    model_path = write_json(tmp_path, _generic_doc(), "model.json")
    cfg = write_json(tmp_path, {"scenario": "custom", "model_file": model_path})
    summary = tmp_path / "f.json"
    code = run_cli(
        "run", "--config", cfg, "--pair", "file", "--t-max", "2", "--steps", "50",
        "--out", str(tmp_path / "f.csv"), "--summary", str(summary),
    )
    assert code == 0
    assert json.loads(summary.read_text())["best_pair"] == "file"


def test_bound_check_scenario(tmp_path):
    out = tmp_path / "bound.csv"
    summary = tmp_path / "bound.json"
    code = run_cli(
        "run", "--scenario", "bound-check", "--seed", "1",
        "--out", str(out), "--summary", str(summary),
        "--config", write_json(tmp_path, {"n_models": 5}),
    )
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    assert all(float(r["max_sigma_minus_bound"]) <= 1e-6 for r in rows)
    doc = json.loads(summary.read_text())
    assert doc["n_measure"] is None
    assert doc["violations"] == []


def test_measure_scenario_equatorial(tmp_path):
    summary = tmp_path / "eq.json"
    code = run_cli(
        "run", "--scenario", "measure", "--n-spins", "5", "--steps", "900",
        "--pair", "equatorial:3",
        "--out", str(tmp_path / "eq.csv"), "--summary", str(summary),
    )
    assert code == 0
    doc = json.loads(summary.read_text())
    assert [p["pair"] for p in doc["per_pair"]] == [f"equatorial:phi={np.pi * k / 3:.12g}" for k in range(3)]
    values = [p["n_measure"] for p in doc["per_pair"]]
    assert max(values) - min(values) < 1e-9


_BAD_PAIR = "pair must be paper, equatorial:K, random:N or file, got {!r}"


def test_pair_wire_specs():
    # a count is whatever int() reads, so a sign or surrounding blanks pass
    for spec in ("paper", "equatorial:3", "equatorial:+3", "equatorial: 3", "random:2", "random:02"):
        assert parse_config(overrides={"scenario": "measure", "pair": spec}).pair == spec
    refused = {
        "equatorial:0": "bad equatorial pair count '0'",
        "equatorial:-1": "bad equatorial pair count '-1'",
        "equatorial:x": "bad equatorial pair count 'x'",
        "random:0": "bad random pair count '0'",
        "random:x": "bad random pair count 'x'",
        "file": "pair 'file' needs a model_file; a chain has no input pair of its own",
    }
    for spec in ("paper:1", "file:1", "random:", "equatorial:", "equatorial", "rings", "Paper"):
        refused[spec] = _BAD_PAIR.format(spec)
    for spec, message in refused.items():
        with pytest.raises(ConfigError) as exc:
            parse_config(overrides={"scenario": "measure", "pair": spec})
        assert str(exc.value) == message


def test_pair_help_names_every_family(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    forms = ("paper", "equatorial:K", "random:N", "file")
    assert "--pair PAIR " + " | ".join(forms) in help_text
    for form in forms:
        PairFamily(form.replace("K", "2").replace("N", "2"))
    # the refusal names the same forms
    with pytest.raises(ValueError, match=", ".join(forms[:-1]) + f" or {forms[-1]}"):
        PairFamily("rings")


def test_main_pins_malloc_thresholds_before_parsing(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli_mod, "_pin_malloc_thresholds", lambda: calls.append("pin"))
    build = cli_mod.build_parser
    monkeypatch.setattr(cli_mod, "build_parser", lambda: calls.append("parse") or build())
    with pytest.raises(SystemExit):
        main(["no-such-verb"])
    assert calls == ["pin", "parse"]


_KERNEL_FAULTS_SCRIPT = """
import ctypes, resource, sys
import numpy as np
from backflow import ChainParams, TimeGrid, build_chain_model, evolve
from backflow.cli import _M_MMAP_THRESHOLD, _M_TRIM_THRESHOLD, _pin_malloc_thresholds
from backflow.diagnostics import pair_step_series

# glibc's starting thresholds, fixed so that no free raises them
mallopt = ctypes.CDLL(None).mallopt
mallopt(_M_TRIM_THRESHOLD, 128 << 10)
mallopt(_M_MMAP_THRESHOLD, 128 << 10)
if sys.argv[1] == "pin":
    _pin_malloc_thresholds()
model = build_chain_model(ChainParams(n_total=10))
g = model.hamiltonian
vectors = [np.kron(vs, ve) for vs, ve in model.initial_pair]
s1, s2 = evolve(g, vectors, TimeGrid(9.0, 2000).times)
pair_step_series(g, 2, 10, s1, s2)
start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(3):
    pair_step_series(g, 2, 10, s1, s2)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start)
"""


def test_kernel_reuses_resident_heap_after_main():
    # main pins the thresholds before anything else runs (the test above). Both
    # children fix them at glibc's starting 128 KiB, where no free can raise
    # them, and one then pins them. Left dynamic, the kernel's own frees raise
    # them, so a child that only pinned would read 0 faults with or without the pin
    pytest.importorskip("resource")
    if not hasattr(ctypes.CDLL(None), "mallopt"):
        pytest.skip("the C library has no mallopt")
    env = {**os.environ, "PYTHONPATH": str(Path(cli_mod.__file__).parents[1])}

    def faults(mode: str) -> int:
        argv = [sys.executable, "-c", _KERNEL_FAULTS_SCRIPT, mode]
        out = subprocess.run(argv, capture_output=True, text=True, env=env, check=True)
        return int(out.stdout.split()[-1])

    # each call's chunks hold about 8 MB; at the starting thresholds they are
    # unmapped and faulted in again, some 7000 pages a call
    counts = {mode: faults(mode) for mode in ("pin", "control")}
    assert counts["pin"] < 300 < counts["control"], counts


@pytest.mark.parametrize(
    "verb,doc,flags,message",
    [
        ("run", {"scenario": "fig1a", "field_on_system": "yes"}, [],
         "key 'field_on_system' must be true or false, got 'yes'"),
        ("run", {"scenario": "fig1a", "pair": 3}, [], "key 'pair' must be a string, got 3"),
        ("run", ["fig1a"], [], "config file {config} must hold a JSON object"),
        ("sweep", {"sweep": []}, [], "config key 'sweep' must be an object"),
        ("sweep", {"sweep": {"j0": {"min": 0.5, "max": 1.0}, "b": {"min": 0.0, "max": 1.0, "count": 2}}},
         [], "sweep grid 'j0' needs min, max and count"),
        ("sweep", {"sweep": {}}, ["--j0-grid", "0", "1", "0", "--b-grid", "0", "1", "2"],
         "sweep grid 'j0' count must be positive"),
        # a grid entry the sweep does not read is refused, not skipped
        ("sweep", {"sweep": {"j0": {"min": 0.5, "max": 1.0, "count": 2, "num": 7, "dense": True},
                             "b": {"min": 0.0, "max": 1.0, "count": 2}}},
         [], "sweep grid 'j0' has unknown key 'dense', 'num'"),
        # both verbs read a file's top level by one rule
        ("run", {"scenario": "fig1a", "sweep": 3}, [], "config key 'sweep' must be an object"),
        # a file gives a grid as an object; the flag's list form is refused there
        ("sweep", {"sweep": {"j0": [0.5, 1.0, 2], "b": {"min": 0.0, "max": 1.0, "count": 2}}},
         [], "sweep grid 'j0' needs min, max and count"),
    ],
)
def test_config_refusals_exit_2_and_write_nothing(tmp_path, capsys, verb, doc, flags, message):
    config = write_json(tmp_path, doc)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    outputs = ["--out", str(out_dir / "x.csv"), "--summary", str(out_dir / "x.json")]
    assert run_cli(verb, "--config", config, *flags, *outputs) == 2
    assert capsys.readouterr().err == f"error: {message.format(config=config)}\n"
    assert not any(out_dir.iterdir())


def test_module_entry_point(tmp_path):
    # python -m backflow.cli runs entrypoint, the console script's target
    env = {**os.environ, "PYTHONPATH": str(Path(cli_mod.__file__).parents[1])}

    def cli(*args):
        argv = [sys.executable, "-m", "backflow.cli", *args]
        return subprocess.run(argv, capture_output=True, text=True, env=env, cwd=tmp_path)

    done = cli("--help")
    assert done.returncode == 0 and "{run,sweep,verify}" in done.stdout
    done = cli("run", "--scenario", "nope")
    assert done.returncode == 2
    assert done.stderr.startswith("error: unknown scenario 'nope' (known: ")
    assert not any(tmp_path.iterdir())
