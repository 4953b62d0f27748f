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
import ctypes
import dataclasses
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

# run_trajectory is not called here; perfbench/spans.py hooks it under this module's name
from .evolution import TimeGrid, run_trajectory  # noqa: F401
from .measure import PairFamily, blp_integral, blp_measure, down_up_crossings
from .model import (
    ChainParams,
    ModelFileError,
    build_chain_model,
    chain_build_peak_bytes,
    chain_run_peak_bytes,
    load_generic_model,
    run_peak_bytes,
)
from .output import (
    write_bound_csv,
    write_summary_json,
    write_sweep_csv,
    write_trajectory_csv,
)
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


# inside fig2b's pre-recurrence window, a sigma or measure above this counts as backflow
FIG2B_WINDOW_TOLERANCE = 1e-6

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

# lower bound on the memory of one sweep row: its dict of five entries and three floats
_SWEEP_ROW_BYTES = 256


def _want_float(key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"key '{key}' must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range is as unusable as inf
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"key '{key}' must be finite, got {value!r}")
    return number


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


def _want_grid(key: str, value) -> dict:
    if not isinstance(value, dict) or not {"min", "max", "count"} <= set(value):
        raise ConfigError(f"sweep grid '{key}' needs min, max and count")
    unknown = sorted(set(value) - {"min", "max", "count"})
    if unknown:
        raise ConfigError(f"sweep grid '{key}' has unknown key {', '.join(map(repr, unknown))}")
    lo, hi = _want_float(f"{key}.min", value["min"]), _want_float(f"{key}.max", value["max"])
    count = _want_int(f"{key}.count", value["count"])
    if count < 1:
        raise ConfigError(f"sweep grid '{key}' count must be positive")
    return {"min": lo, "max": hi, "count": count}


class _GridFlag(argparse.Action):
    """Store MIN MAX COUNT as the object a config file holds; an integral COUNT is the count."""

    def __call__(self, parser, namespace, values, option_string=None):
        lo, hi, count = values
        count = int(count) if count.is_integer() else count
        setattr(namespace, self.dest, {"min": lo, "max": hi, "count": count})


# argparse arguments of a key's flag, by the key's coercer; a bool key is a switch
_FLAG_ARGS = {
    _want_int: {"type": int},
    _want_float: {"type": float},
    _want_str: {"type": str},
    _want_bool: {"action": "store_true", "default": None},
    _want_grid: {"action": _GridFlag, "nargs": 3, "type": float, "metavar": ("MIN", "MAX", "COUNT")},
}


def _key(coerce, default, help=None, choices=None):
    """Declare one config key; a key without help is config-file-only."""
    return dataclasses.field(
        default=default, metadata={"coerce": coerce, "help": help, "choices": choices}
    )


@dataclass(frozen=True)
class _ChainKeys:
    """The keys that run and sweep share."""

    n_spins: int = _key(_want_int, 10, "total spins incl. the qubit")
    # None until resolved to n_spins - 1
    t_max: float = _key(_want_float, None, "final time")
    steps: int = _key(_want_int, 2000, "number of grid intervals")
    path: str = _key(_want_str, "auto", "evolution route", choices=_PATHS)
    summary: str | None = _key(_want_str, None, "summary JSON path")


@dataclass(frozen=True)
class RunConfig(_ChainKeys):
    scenario: str = _key(_want_str, None, "fig1a fig1b fig2a fig2b bound-check measure custom")
    j: float = _key(_want_float, 1.0, "environment exchange amplitude")
    j0: float = _key(_want_float, 1.0, "system-environment exchange amplitude")
    b_field: float = _key(_want_float, 0.01, "transverse field")
    field_on_system: bool = _key(
        _want_bool, False, "apply the transverse field to the system qubit too"
    )
    pair: str = _key(_want_str, "paper", "paper | equatorial:K | random:N | file")
    seed: int = _key(_want_int, 7, "seed for randomized inputs")
    out: str | None = _key(_want_str, None, "trajectory CSV path")
    model_file: str | None = _key(_want_str, None)
    n_models: int = _key(_want_int, 50)


@dataclass(frozen=True)
class SweepConfig(_ChainKeys):
    out: str | None = _key(_want_str, None, "sweep CSV path")
    # the grids, each {"min", "max", "count"} with flag --j0-grid or --b-grid; both are required
    j0: dict | None = _key(_want_grid, None, "grid of the coupling ratio j0/j")
    b: dict | None = _key(_want_grid, None, "grid of the field ratio b/j")


_RUN_KEYS = frozenset(f.name for f in dataclasses.fields(RunConfig))
# the keys a sweep reads from a config file's top level; out and summary name each verb's own files
_SHARED_FILE_KEYS = ("n_spins", "t_max", "steps", "path")


def _merge(cls, given: dict, what: str) -> dict:
    """Coerce the given key values over the defaults of cls.

    Unknown keys are refused, and so are null where the default is not
    null and a value outside the key's choices.
    """
    keys = {f.name: f for f in dataclasses.fields(cls)}
    values = {name: f.default for name, f in keys.items()}
    for key, value in given.items():
        if key not in keys:
            raise ConfigError(f"unknown {what} '{key}'")
        nullable = value is None and keys[key].default is None
        values[key] = None if nullable else keys[key].metadata["coerce"](key, value)
        choices = keys[key].metadata["choices"]
        if choices is not None and values[key] not in choices:
            raise ConfigError(f"{key} must be one of {choices}, got {values[key]!r}")
    return values


def _load_config_file(path: str | None) -> tuple[dict, dict]:
    """A config file's top-level run keys and its sweep section; both empty without a file."""
    if path is None:
        return {}, {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    section = doc.pop("sweep", {})
    if not isinstance(section, dict):
        raise ConfigError("config key 'sweep' must be an object")
    for key in doc:
        if key not in _RUN_KEYS:
            raise ConfigError(f"unknown config key '{key}'")
    return doc, section


def _pair_family(spec: str, seed: int) -> PairFamily:
    try:
        return PairFamily(spec, seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _check_common(values: dict, builds_chain: bool) -> None:
    """Resolve t_max and check the keys of _ChainKeys, in place."""
    if values["t_max"] is None:
        values["t_max"] = float(values["n_spins"] - 1)
    if values["n_spins"] < 2:
        raise ConfigError(f"n_spins must be at least 2, got {values['n_spins']}")
    if values["steps"] < 0:
        raise ConfigError(f"steps must be nonnegative, got {values['steps']}")
    if values["t_max"] < 0:
        raise ConfigError(f"t_max must be nonnegative, got {values['t_max']}")
    if values["steps"] > 0 and values["t_max"] <= 0:
        raise ConfigError(f"t_max must be positive, got {values['t_max']}")
    if builds_chain:
        # refuse a chain run that cannot fit in physical memory: only the dense path
        # builds the 2^n H, and every path builds the (2n)^2 carrier block of H and
        # holds arrays of n times the grid
        n, steps = values["n_spins"], values["steps"]
        if values["path"] == "dense":
            _check_fits(chain_build_peak_bytes(n), f"n_spins={n}", "build the chain Hamiltonian")
        who = f"n_spins={n}, steps={steps}"
        _check_fits(chain_run_peak_bytes(n, steps), who, "build the chain and hold the run's states")


def _check_fits(need: int, who: str, what: str) -> None:
    """Refuse, before anything is allocated, what needs more than the physical memory."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ConfigError(
            f"{who} needs an estimated {need} bytes to {what}, "
            f"more than the {have} bytes of physical memory"
        )


def parse_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Merge defaults, scenario presets, the config file and overrides.

    Precedence grows left to right: built-in defaults, scenario preset,
    file entries, explicit overrides (CLI flags). Unknown keys and type
    mismatches are rejected with the offending key named.
    """
    given = {**_load_config_file(path)[0], **(overrides or {})}
    values = _merge(RunConfig, given, "config key")

    scenario = values["scenario"]
    if scenario is None:
        raise ConfigError("a scenario is required (--scenario or config key 'scenario')")
    if scenario not in _SCENARIO_OVERRIDES:
        known = ", ".join(sorted(_SCENARIO_OVERRIDES))
        raise ConfigError(f"unknown scenario '{scenario}' (known: {known})")
    implied = dict(_SCENARIO_OVERRIDES[scenario])
    if values["model_file"] is not None:
        # a model file carries its own input pair
        implied["pair"] = "file"
    values.update((key, value) for key, value in implied.items() if key not in given)

    builds_chain = values["model_file"] is None and scenario != "bound-check"
    _check_common(values, builds_chain)
    if not builds_chain and values["path"] == "subspace":
        raise ConfigError("path 'subspace' needs a chain; model files and bound-check run dense")
    if values["model_file"] is not None and scenario == "fig2b":
        raise ConfigError("fig2b's window needs a chain's n_spins and j; a model file has neither")
    if builds_chain and values["j"] == 0.0:
        raise ConfigError("j must be nonzero; ratios are taken against it")
    if values["n_models"] < 1:
        raise ConfigError(f"n_models must be positive, got {values['n_models']}")
    if values["seed"] < 0:
        raise ConfigError(f"seed must be nonnegative, got {values['seed']}")
    _pair_family(values["pair"], values["seed"])
    if values["pair"] == "file" and values["model_file"] is None:
        raise ConfigError("pair 'file' needs a model_file; a chain has no input pair of its own")
    return RunConfig(**values)


def _parse_sweep_config(path: str | None, overrides: dict) -> SweepConfig:
    top, section = _load_config_file(path)
    # the sweep reads the chain keys of the top level, and its own section overrides them
    shared = {key: top[key] for key in _SHARED_FILE_KEYS if key in top}
    values = _merge(SweepConfig, {**shared, **section, **overrides}, "sweep config key")
    _check_common(values, builds_chain=True)
    if values["j0"] is None or values["b"] is None:
        raise ConfigError("sweep needs both a j0 grid and a b grid")
    j0_count, b_count = values["j0"]["count"], values["b"]["count"]
    need = 8 * (j0_count + b_count) + _SWEEP_ROW_BYTES * j0_count * b_count
    _check_fits(need, f"j0.count={j0_count}, b.count={b_count}", "hold the sweep grid")
    return SweepConfig(**values)


def _write_summary(summary: dict, path: str | None, start: float | None = None) -> None:
    """Stamp summary with runtime_seconds (when start is given) and timestamp.

    Writes it to path through write_summary_json unless path is None.
    """
    if start is not None:
        summary["runtime_seconds"] = time.perf_counter() - start
    summary["timestamp"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    if path is not None:
        _write_file(write_summary_json, summary, path)


def _parameters_dict(cfg: RunConfig | SweepConfig) -> dict:
    """The keys of cfg as a config file gives them, without the output paths."""
    skip = {"out", "summary"}
    return {k: v for k, v in dataclasses.asdict(cfg).items() if k not in skip}


def run_scenario(cfg: RunConfig) -> tuple[int, dict]:
    """Execute one run scenario; returns (exit code, summary dict)."""
    start = time.perf_counter()
    if cfg.scenario == "bound-check":
        return _run_bound_check(cfg, start)

    grid = TimeGrid(t_max=cfg.t_max, n_steps=cfg.steps)
    family = _pair_family(cfg.pair, cfg.seed)
    if cfg.model_file is not None:
        model = load_generic_model(cfg.model_file)
        d, ds = model.bipartition.d_joint, model.bipartition.d_system
        if family.needs_qubit and ds != 2:
            raise ConfigError(f"pair '{cfg.pair}' needs a qubit system, the model's d_S is {ds}")
        _check_fits(run_peak_bytes(cfg.steps, d, d), f"steps={cfg.steps}", "hold the run's states")
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
        # the pre-recurrence window: the fastest single excitation (group velocity 8 |j|)
        # reaches the far end of the chain and is back at the system site after
        # 2 (n_spins - 1) / (8 |j|)
        w_end = min(2.0 * (cfg.n_spins - 1) / (8.0 * abs(cfg.j)), cfg.t_max)
        mask = record.times <= w_end + 1e-12
        w_sigma = float(np.max(record.sigma[mask]))
        w_measure = blp_integral(record.d_system[mask])
        n_pos = int(np.sum(record.sigma[mask] > FIG2B_WINDOW_TOLERANCE))
        window = {
            "t_end": w_end,
            "max_sigma": w_sigma,
            "n_measure": w_measure,
            "n_sigma_positive_samples": n_pos,
        }
        if w_sigma > FIG2B_WINDOW_TOLERANCE:
            violations.append(
                f"markovian window: sigma reaches {w_sigma:.3e} inside [0, {w_end:g}]"
            )
        if w_measure > FIG2B_WINDOW_TOLERANCE:
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
    }
    if window is not None:
        summary["window"] = window
    out = cfg.out if cfg.out is not None else f"{cfg.scenario}.csv"
    _write_file(write_trajectory_csv, record, out)
    summary_path = cfg.summary if cfg.summary is not None else f"{cfg.scenario}.json"
    _write_summary(summary, summary_path, start)
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
    }
    if cfg.out is not None:
        _write_file(write_bound_csv, rows, cfg.out)
    _write_summary(summary, cfg.summary, start)
    return (1 if violations else 0, summary)


def _write_file(writer, payload, path: str) -> None:
    try:
        writer(payload, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def run_sweep(cfg: SweepConfig) -> tuple[int, list[dict]]:
    """Measure over a row-major (j0 outer, b inner) parameter grid."""
    start = time.perf_counter()
    grid = TimeGrid(t_max=cfg.t_max, n_steps=cfg.steps)
    j0_values = np.linspace(cfg.j0["min"], cfg.j0["max"], cfg.j0["count"])
    b_values = np.linspace(cfg.b["min"], cfg.b["max"], cfg.b["count"])
    rows = []
    failed = False
    for j0 in j0_values:
        for b in b_values:
            row = {"j0_over_j": float(j0), "b_over_j": float(b)}
            try:
                params = ChainParams(
                    n_total=cfg.n_spins, j_env=1.0, j_sys=float(j0), b_field=float(b)
                )
                report = blp_measure(params, grid, path=cfg.path)
                row["n_measure"] = report.n_measure
                row["n_intervals"] = len(report.intervals)
                row["status"] = "ok"
                del report  # free the record before the next point runs
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
            "parameters": _parameters_dict(cfg),
            "n_points": len(rows),
            "n_failed": sum(1 for r in rows if r["status"] != "ok"),
        }
        _write_summary(summary, cfg.summary, start)
    return (1 if failed else 0, rows)


def _run_verify(cfg: RunConfig) -> int:
    checks, worst, _ = bound_suite(n_models=cfg.n_models, seed=cfg.seed)
    checks += structural_suite()
    for check in checks:
        print(check.line())
    ok = all(c.passed for c in checks)
    if cfg.summary is not None:
        summary = {
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks
            ],
            "max_bound_violation": worst,
            "passed": ok,
        }
        _write_summary(summary, cfg.summary)
    print(f"{'OK' if ok else 'FAILED'}  {sum(c.passed for c in checks)}/{len(checks)} checks passed")
    return 0 if ok else 1


def _add_key_flags(parser: argparse.ArgumentParser, cls) -> None:
    for f in dataclasses.fields(cls):
        coerce, help, choices = (f.metadata[k] for k in ("coerce", "help", "choices"))
        if help is None:
            continue
        # a grid's flag takes MIN MAX COUNT, and its name says so
        flag = "--" + f.name.replace("_", "-") + ("-grid" if coerce is _want_grid else "")
        extra = {} if choices is None else {"choices": choices}
        parser.add_argument(flag, dest=f.name, help=help, **_FLAG_ARGS[coerce], **extra)


def _flag_values(args: argparse.Namespace, cls) -> dict:
    """The keys of cls that were set by flag; config-file-only keys have none."""
    given = ((f.name, getattr(args, f.name, None)) for f in dataclasses.fields(cls))
    return {key: value for key, value in given if value is not None}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="backflow",
        description="Exact spin-chain backflow diagnostics and bound checks",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    run_p = sub.add_parser("run", help="run one scenario")
    run_p.add_argument("--config", help="JSON config file")
    _add_key_flags(run_p, RunConfig)

    sweep_p = sub.add_parser("sweep", help="measure over a parameter grid")
    sweep_p.add_argument("--config", help="JSON config file with a 'sweep' section")
    _add_key_flags(sweep_p, SweepConfig)

    # verify runs the bound-check suite, so it takes that scenario's keys
    verify_p = sub.add_parser("verify", help="self-checks")
    verify_p.add_argument("--seed", type=int, default=RunConfig.seed)
    verify_p.add_argument("--models", type=int, default=RunConfig.n_models)
    verify_p.add_argument("--summary", help="summary JSON path")
    return parser


# glibc mallopt parameters and the values main pins them to
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_BYTES, _MMAP_BYTES = 32 << 20, 16 << 20


def _pin_malloc_thresholds() -> None:
    """Fix glibc's malloc trim and mmap thresholds for this process.

    glibc starts both low (128 KiB) and raises them only after the
    process frees a large mmapped block. Left dynamic, the diagnostics
    kernel's chunk arrays (at most CHUNK_ELEMENTS complex entries in all,
    8 MB at the default) are handed back to the OS when a chunk or call
    ends and page-faulted in again by the next, unless something earlier
    in the process happened to free a bigger block. Pinned, the
    kernel reuses resident heap whatever ran before it; blocks of 16 MiB
    and up are still mapped and unmapped one by one. A no-op where the C
    library has no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(_M_TRIM_THRESHOLD, _TRIM_BYTES)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_BYTES)


def main(argv=None) -> int:
    _pin_malloc_thresholds()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.verb == "run":
            code, _ = run_scenario(parse_config(args.config, _flag_values(args, RunConfig)))
            return code
        if args.verb == "sweep":
            code, _ = run_sweep(_parse_sweep_config(args.config, _flag_values(args, SweepConfig)))
            return code
        keys = {"seed": args.seed, "n_models": args.models, "summary": args.summary}
        return _run_verify(parse_config(overrides={"scenario": "bound-check", **keys}))
    except (ConfigError, ModelFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
