"""Command line interface.

Three verbs:

* run    -- one scenario: a chain trajectory (or a generic model file),
            diagnostics CSV plus a JSON summary.
* sweep  -- the measure over a grid of coupling and field ratios.
* verify -- randomized bound suite plus structural self-checks.

Exit codes: 0 success, 1 a numerical invariant was violated during an
otherwise valid run, 2 configuration error. Outputs are deterministic
for a fixed configuration and seed; only the timestamp and runtime
entries of the JSON summary vary between repeated runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .evolution import TimeGrid, run_trajectory
from .measure import (
    EquatorialScan,
    MeasureReport,
    PlusMinusPair,
    RandomPairs,
    blp_integral,
    blp_measure,
    down_up_crossings,
    interval_contributions,
)
from .model import (
    ChainParams,
    ModelFileError,
    build_chain_model,
    chain_build_peak_bytes,
    load_generic_model,
)
from .output import write_summary_json, write_sweep_csv, write_trajectory_csv
from .verify import BOUND_TOLERANCE, bound_suite, structural_suite

__all__ = [
    "ConfigError",
    "RunConfig",
    "SweepConfig",
    "parse_config",
    "run_scenario",
    "run_sweep",
    "main",
    "entrypoint",
]


class ConfigError(Exception):
    """Invalid or inconsistent run configuration."""


# Pre-recurrence window for the b_field = j/2 scenario checks. The
# maximum single-excitation group velocity is 8 j, so a disturbance
# needs 2 (n_spins - 1) / 8 = 2.25 time units to reach the far end of
# the default ten-spin chain and return to the system site.
FIG2B_WINDOW_T_MAX = 2.25

_BASE_DEFAULTS: dict = {
    "scenario": None,
    "n_spins": 10,
    "j": 1.0,
    "j0": 1.0,
    "b_field": 0.01,
    "field_on_system": False,
    # resolved to n_spins - 1 when left unset
    "t_max": None,
    "steps": 2000,
    "pair": "paper",
    "path": "auto",
    "seed": 7,
    "out": None,
    "summary": None,
    "model_file": None,
    "n_models": 50,
}

_SCENARIO_OVERRIDES: dict[str, dict] = {
    "fig1a": {},
    "fig1b": {},
    "fig2a": {},
    "fig2b": {"b_field": 0.5},
    "bound-check": {},
    "measure": {},
    "custom": {},
}

_PATHS = ("auto", "dense", "subspace")


@dataclass(frozen=True)
class RunConfig:
    scenario: str
    n_spins: int
    j: float
    j0: float
    b_field: float
    field_on_system: bool
    t_max: float
    steps: int
    pair: str
    path: str
    seed: int
    out: str | None
    summary: str | None
    model_file: str | None
    n_models: int


@dataclass(frozen=True)
class SweepConfig:
    n_spins: int
    t_max: float
    steps: int
    j0_min: float
    j0_max: float
    j0_count: int
    b_min: float
    b_max: float
    b_count: int
    path: str
    out: str | None
    summary: str | None


def _want_float(key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"key '{key}' must be a number, got {value!r}")
    return float(value)


def _want_int(key: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"key '{key}' must be an integer, got {value!r}")
    return int(value)


def _want_bool(key: str, value) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"key '{key}' must be true or false, got {value!r}")
    return value


def _want_str(key: str, value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"key '{key}' must be a string, got {value!r}")
    return value


_RUN_COERCE = {
    "scenario": _want_str,
    "n_spins": _want_int,
    "j": _want_float,
    "j0": _want_float,
    "b_field": _want_float,
    "field_on_system": _want_bool,
    "t_max": _want_float,
    "steps": _want_int,
    "pair": _want_str,
    "path": _want_str,
    "seed": _want_int,
    "out": _want_str,
    "summary": _want_str,
    "model_file": _want_str,
    "n_models": _want_int,
}


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return doc


def parse_pair_family(text: str, seed: int):
    """Decode a pair-family string: paper, equatorial:K or random:N."""
    if text == "paper":
        return PlusMinusPair()
    kind, _, arg = text.partition(":")
    if kind == "equatorial" and arg:
        try:
            return EquatorialScan(int(arg))
        except ValueError as exc:
            raise ConfigError(f"bad equatorial pair count {arg!r}") from exc
    if kind == "random" and arg:
        try:
            return RandomPairs(int(arg), seed=seed)
        except ValueError as exc:
            raise ConfigError(f"bad random pair count {arg!r}") from exc
    raise ConfigError(f"pair must be paper, equatorial:K or random:N, got {text!r}")


def _check_chain_fits(n_spins: int) -> None:
    """Refuse a chain whose dense build cannot fit in physical memory."""
    need = chain_build_peak_bytes(n_spins)
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ConfigError(
            f"n_spins={n_spins} needs an estimated {need} bytes to build the chain "
            f"Hamiltonian, more than the {have} bytes of physical memory"
        )


def parse_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Merge defaults, scenario presets, the config file and overrides.

    Precedence grows left to right: built-in defaults, scenario preset,
    file entries, explicit overrides (CLI flags). Unknown keys and type
    mismatches are rejected with the offending key named.
    """
    file_cfg = _load_config_file(path) if path else {}
    file_cfg = {k: v for k, v in file_cfg.items() if k != "sweep"}
    overrides = dict(overrides or {})

    for source in (file_cfg, overrides):
        for key in source:
            if key not in _RUN_COERCE:
                raise ConfigError(f"unknown config key '{key}'")

    scenario = overrides.get("scenario", file_cfg.get("scenario"))
    if scenario is None:
        raise ConfigError("a scenario is required (--scenario or config key 'scenario')")
    scenario = _want_str("scenario", scenario)
    if scenario not in _SCENARIO_OVERRIDES:
        known = ", ".join(sorted(_SCENARIO_OVERRIDES))
        raise ConfigError(f"unknown scenario '{scenario}' (known: {known})")

    merged = dict(_BASE_DEFAULTS)
    merged.update(_SCENARIO_OVERRIDES[scenario])
    merged.update(file_cfg)
    merged.update(overrides)
    merged["scenario"] = scenario

    out = {}
    for key, value in merged.items():
        if value is None:
            out[key] = None
            continue
        out[key] = _RUN_COERCE[key](key, value)

    if out["t_max"] is None:
        out["t_max"] = float(out["n_spins"] - 1)
    if out["model_file"] is not None and "pair" not in file_cfg and "pair" not in overrides:
        # a model file carries its own input pair; keep it unless overridden
        out["pair"] = "file"
    if out["path"] not in _PATHS:
        raise ConfigError(f"path must be one of {_PATHS}, got {out['path']!r}")
    if out["n_spins"] < 2:
        raise ConfigError(f"n_spins must be at least 2, got {out['n_spins']}")
    if out["model_file"] is None and scenario != "bound-check":
        _check_chain_fits(out["n_spins"])
    if out["steps"] < 0:
        raise ConfigError(f"steps must be nonnegative, got {out['steps']}")
    if out["steps"] > 0 and out["t_max"] <= 0:
        raise ConfigError(f"t_max must be positive, got {out['t_max']}")
    if out["n_models"] < 1:
        raise ConfigError(f"n_models must be positive, got {out['n_models']}")
    if out["pair"] != "file":
        parse_pair_family(out["pair"], out["seed"])
    elif out["model_file"] is None:
        raise ConfigError("pair 'file' needs a model_file; a chain has no input pair of its own")
    return RunConfig(**out)


def _parse_sweep_config(path: str | None, overrides: dict) -> SweepConfig:
    file_cfg = _load_config_file(path).get("sweep", {}) if path else {}
    if not isinstance(file_cfg, dict):
        raise ConfigError("config key 'sweep' must be an object")
    defaults = {
        "n_spins": 10,
        "t_max": None,
        "steps": 2000,
        "path": "auto",
        "out": None,
        "summary": None,
    }
    grids = {}
    for axis in ("j0", "b"):
        node = file_cfg.pop(axis, None)
        if node is not None:
            if not isinstance(node, dict) or not {"min", "max", "count"} <= set(node):
                raise ConfigError(f"sweep grid '{axis}' needs min, max and count")
            grids[axis] = (
                _want_float(f"{axis}.min", node["min"]),
                _want_float(f"{axis}.max", node["max"]),
                _want_int(f"{axis}.count", node["count"]),
            )
    coerce = {
        "n_spins": _want_int,
        "t_max": _want_float,
        "steps": _want_int,
        "path": _want_str,
        "out": _want_str,
        "summary": _want_str,
    }
    for key, value in file_cfg.items():
        if key not in coerce:
            raise ConfigError(f"unknown sweep config key '{key}'")
        defaults[key] = coerce[key](key, value)
    for axis in ("j0", "b"):
        if overrides.get(f"{axis}_grid") is not None:
            lo, hi, count = overrides[f"{axis}_grid"]
            grids[axis] = (float(lo), float(hi), int(round(count)))
    for key in ("n_spins", "t_max", "steps", "path", "out", "summary"):
        if overrides.get(key) is not None:
            defaults[key] = coerce[key](key, overrides[key])
    if defaults["t_max"] is None:
        defaults["t_max"] = float(defaults["n_spins"] - 1)
    _check_chain_fits(defaults["n_spins"])
    if "j0" not in grids or "b" not in grids:
        raise ConfigError("sweep needs both a j0 grid and a b grid")
    for axis in ("j0", "b"):
        if grids[axis][2] < 1:
            raise ConfigError(f"sweep grid '{axis}' count must be positive")
    if defaults["path"] not in _PATHS:
        raise ConfigError(f"path must be one of {_PATHS}, got {defaults['path']!r}")
    return SweepConfig(
        n_spins=defaults["n_spins"],
        t_max=defaults["t_max"],
        steps=defaults["steps"],
        j0_min=grids["j0"][0],
        j0_max=grids["j0"][1],
        j0_count=grids["j0"][2],
        b_min=grids["b"][0],
        b_max=grids["b"][1],
        b_count=grids["b"][2],
        path=defaults["path"],
        out=defaults["out"],
        summary=defaults["summary"],
    )


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _parameters_dict(cfg: RunConfig) -> dict:
    skip = {"out", "summary"}
    return {k: v for k, v in dataclasses.asdict(cfg).items() if k not in skip}


def _single_pair_report(record) -> MeasureReport:
    value = blp_integral(record.d_system)
    return MeasureReport(
        n_measure=value,
        intervals=tuple(interval_contributions(record.d_system, record.times)),
        best_pair="file",
        per_pair_values=(("file", value),),
        best_record=record,
    )


def run_scenario(cfg: RunConfig) -> tuple[int, dict]:
    """Execute one run scenario; returns (exit code, summary dict)."""
    start = time.perf_counter()
    if cfg.scenario == "bound-check":
        return _run_bound_check(cfg, start)

    grid = TimeGrid(t_max=cfg.t_max, n_steps=cfg.steps)
    if cfg.model_file is not None:
        model = load_generic_model(cfg.model_file)
    else:
        model = build_chain_model(
            ChainParams(
                n_total=cfg.n_spins,
                j_env=cfg.j,
                j_sys=cfg.j0,
                b_field=cfg.b_field,
                field_on_system=cfg.field_on_system,
            )
        )
    if cfg.pair == "file":
        record = run_trajectory(model, grid, path=cfg.path)
        report = _single_pair_report(record)
    else:
        family = parse_pair_family(cfg.pair, cfg.seed)
        report = blp_measure(model, grid, family, path=cfg.path)
    record = report.best_record

    violations = []
    max_violation = float(np.max(record.sigma - record.bound_total))
    if max_violation > BOUND_TOLERANCE:
        violations.append(
            f"bound: sigma exceeds bound_total by {max_violation:.3e} "
            f"(tolerance {BOUND_TOLERANCE:g})"
        )
    window = None
    if cfg.scenario == "fig2b":
        w_end = min(FIG2B_WINDOW_T_MAX, cfg.t_max)
        mask = record.times <= w_end + 1e-12
        w_sigma = float(np.max(record.sigma[mask]))
        w_measure = blp_integral(record.d_system[mask])
        n_pos = int(np.sum(record.sigma[mask] > BOUND_TOLERANCE))
        window = {
            "t_end": w_end,
            "max_sigma": w_sigma,
            "n_measure": w_measure,
            "n_sigma_positive_samples": n_pos,
        }
        if w_sigma > BOUND_TOLERANCE:
            violations.append(
                f"markovian window: sigma reaches {w_sigma:.3e} inside [0, {w_end:g}]"
            )
        if w_measure > BOUND_TOLERANCE:
            violations.append(
                f"markovian window: measure {w_measure:.3e} inside [0, {w_end:g}] is nonzero"
            )

    summary = {
        "parameters": _parameters_dict(cfg),
        "n_measure": report.n_measure,
        "best_pair": report.best_pair,
        "per_pair": [{"pair": k, "n_measure": v} for k, v in report.per_pair_values],
        "intervals": [
            {"t_start": a, "t_end": b, "contribution": c} for a, b, c in report.intervals
        ],
        "zero_crossings_down_up": down_up_crossings(record.sigma, record.times),
        "max_bound_violation": max_violation,
        "violations": violations,
        "path_used": record.path_used,
        "runtime_seconds": time.perf_counter() - start,
        "timestamp": _timestamp(),
    }
    if window is not None:
        summary["window"] = window
    _write_outputs(cfg, record, summary)
    return (1 if violations else 0, summary)


def _run_bound_check(cfg: RunConfig, start: float) -> tuple[int, dict]:
    checks, worst, rows = bound_suite(n_models=cfg.n_models, seed=cfg.seed)
    violations = [c.line() for c in checks if not c.passed]
    summary = {
        "parameters": _parameters_dict(cfg),
        "n_measure": None,
        "intervals": [],
        "zero_crossings_down_up": [],
        "max_bound_violation": worst,
        "violations": violations,
        "path_used": "dense",
        "runtime_seconds": time.perf_counter() - start,
        "timestamp": _timestamp(),
    }
    if cfg.out is not None:
        _write_bound_rows(rows, cfg.out)
    if cfg.summary is not None:
        _write_file(write_summary_json, summary, cfg.summary)
    return (1 if violations else 0, summary)


def _write_bound_rows(rows: list[dict], path: str) -> None:
    from .output import format_float

    lines = ["model,d_env,max_sigma_minus_bound"]
    for row in rows:
        lines.append(
            f"{row['model']},{row['d_env']},{format_float(row['max_sigma_minus_bound'])}"
        )
    _write_text("\n".join(lines) + "\n", path)


def _write_text(text: str, path: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _write_file(writer, payload, path: str) -> None:
    try:
        writer(payload, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _write_outputs(cfg: RunConfig, record, summary: dict) -> None:
    out = cfg.out if cfg.out is not None else f"{cfg.scenario}.csv"
    summary_path = cfg.summary if cfg.summary is not None else f"{cfg.scenario}.json"
    _write_file(write_trajectory_csv, record, out)
    _write_file(write_summary_json, summary, summary_path)


def run_sweep(cfg: SweepConfig) -> tuple[int, list[dict]]:
    """Measure over a row-major (j0 outer, b inner) parameter grid."""
    start = time.perf_counter()
    grid = TimeGrid(t_max=cfg.t_max, n_steps=cfg.steps)
    j0_values = np.linspace(cfg.j0_min, cfg.j0_max, cfg.j0_count)
    b_values = np.linspace(cfg.b_min, cfg.b_max, cfg.b_count)
    rows = []
    failed = False
    for j0 in j0_values:
        for b in b_values:
            row = {"j0_over_j": float(j0), "b_over_j": float(b)}
            try:
                params = ChainParams(
                    n_total=cfg.n_spins, j_env=1.0, j_sys=float(j0), b_field=float(b)
                )
                report = blp_measure(params, grid, PlusMinusPair(), path=cfg.path)
                row["n_measure"] = report.n_measure
                row["n_intervals"] = len(report.intervals)
                row["status"] = "ok"
            except Exception as exc:  # keep sweeping, report at the end
                row["n_measure"] = None
                row["n_intervals"] = None
                row["status"] = f"error:{type(exc).__name__}"
                failed = True
            rows.append(row)
    if cfg.out is not None:
        _write_file(write_sweep_csv, rows, cfg.out)
    if cfg.summary is not None:
        summary = {
            "parameters": dataclasses.asdict(cfg),
            "n_points": len(rows),
            "n_failed": sum(1 for r in rows if r["status"] != "ok"),
            "runtime_seconds": time.perf_counter() - start,
            "timestamp": _timestamp(),
        }
        _write_file(write_summary_json, summary, cfg.summary)
    return (1 if failed else 0, rows)


def _run_verify(args) -> int:
    checks, worst, _ = bound_suite(n_models=args.models, seed=args.seed)
    checks += structural_suite()
    for check in checks:
        print(check.line())
    ok = all(c.passed for c in checks)
    if args.summary is not None:
        summary = {
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks
            ],
            "max_bound_violation": worst,
            "passed": ok,
            "timestamp": _timestamp(),
        }
        _write_file(write_summary_json, summary, args.summary)
    print(f"{'OK' if ok else 'FAILED'}  {sum(c.passed for c in checks)}/{len(checks)} checks passed")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="backflow",
        description="Exact spin-chain backflow diagnostics and bound checks",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    run_p = sub.add_parser("run", help="run one scenario")
    run_p.add_argument("--config", help="JSON config file")
    run_p.add_argument("--scenario", help="fig1a fig1b fig2a fig2b bound-check measure custom")
    run_p.add_argument("--n-spins", type=int, dest="n_spins", help="total spins incl. the qubit")
    run_p.add_argument("--j", type=float, help="environment exchange amplitude")
    run_p.add_argument("--j0", type=float, help="system-environment exchange amplitude")
    run_p.add_argument("--b-field", type=float, dest="b_field", help="transverse field")
    run_p.add_argument("--t-max", type=float, dest="t_max", help="final time")
    run_p.add_argument("--steps", type=int, help="number of grid intervals")
    run_p.add_argument("--pair", help="paper | equatorial:K | random:N")
    run_p.add_argument("--path", choices=_PATHS, help="evolution route")
    run_p.add_argument("--seed", type=int, help="seed for randomized inputs")
    run_p.add_argument("--out", help="trajectory CSV path")
    run_p.add_argument("--summary", help="summary JSON path")
    run_p.add_argument(
        "--field-on-system",
        action="store_true",
        default=None,
        dest="field_on_system",
        help="apply the transverse field to the system qubit too",
    )

    sweep_p = sub.add_parser("sweep", help="measure over a parameter grid")
    sweep_p.add_argument("--config", help="JSON config file with a 'sweep' section")
    sweep_p.add_argument("--n-spins", type=int, dest="n_spins")
    sweep_p.add_argument("--t-max", type=float, dest="t_max")
    sweep_p.add_argument("--steps", type=int)
    sweep_p.add_argument("--path", choices=_PATHS)
    sweep_p.add_argument(
        "--j0-grid", nargs=3, type=float, dest="j0_grid", metavar=("MIN", "MAX", "COUNT")
    )
    sweep_p.add_argument(
        "--b-grid", nargs=3, type=float, dest="b_grid", metavar=("MIN", "MAX", "COUNT")
    )
    sweep_p.add_argument("--out", help="sweep CSV path")
    sweep_p.add_argument("--summary", help="summary JSON path")

    verify_p = sub.add_parser("verify", help="self-checks")
    verify_p.add_argument("--seed", type=int, default=7)
    verify_p.add_argument("--models", type=int, default=50)
    verify_p.add_argument("--summary", help="summary JSON path")
    return parser


_RUN_FLAG_KEYS = (
    "scenario",
    "n_spins",
    "j",
    "j0",
    "b_field",
    "t_max",
    "steps",
    "pair",
    "path",
    "seed",
    "out",
    "summary",
    "field_on_system",
)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.verb == "run":
            overrides = {
                k: getattr(args, k) for k in _RUN_FLAG_KEYS if getattr(args, k) is not None
            }
            cfg = parse_config(args.config, overrides)
            code, _ = run_scenario(cfg)
            return code
        if args.verb == "sweep":
            overrides = {
                k: getattr(args, k)
                for k in ("n_spins", "t_max", "steps", "path", "out", "summary", "j0_grid", "b_grid")
                if getattr(args, k) is not None
            }
            cfg = _parse_sweep_config(args.config, overrides)
            code, _ = run_sweep(cfg)
            return code
        return _run_verify(args)
    except (ConfigError, ModelFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
