"""The benchmark's workloads: CLI argument lists, sizes and output checks.

An op is one in-process call ``backflow.cli.main(argv)``. Each workload
is a command line a user would type; outputs go to a per-process work
directory and are checked after every op against values frozen from the
seed commit in ``reference.json`` (regenerate with ``freeze_reference.py``).

Only values that planned changes keep are checked: the measure
``n_measure`` is computed from D_system alone. sigma, the bound and
``max_bound_violation`` are left unchecked because a change to an exact
generator sigma alters them on purpose.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

# n_measure must match the frozen value to this relative tolerance
MEASURE_RTOL = 1e-9
# the equatorial pairs of the chain are equivalent by symmetry
EQUATORIAL_SPREAD_ATOL = 1e-12


@dataclass(frozen=True)
class Workload:
    """One workload; why each was chosen is recorded in BENCHMARK.json."""

    name: str
    # trajectory samples diagnosed per op: time points x pairs (or sweep points)
    samples_per_op: int
    # whether --seed reaches the program's input
    uses_seed: bool
    argv: Callable[[int, Path], list[str]]
    check: Callable[[str, Path, dict], list[str]]


def _close(value, ref) -> bool:
    return value is not None and math.isclose(value, ref, rel_tol=MEASURE_RTOL, abs_tol=1e-15)


def _summary(workdir: Path, name: str) -> dict:
    return json.loads((workdir / f"{name}.json").read_text(encoding="utf-8"))


def _check_pair_scan(stdout: str, workdir: Path, ref: dict) -> list[str]:
    summary = _summary(workdir, "pair_scan")
    problems = []
    if not _close(summary["n_measure"], ref["n_measure"]):
        problems.append(f"n_measure {summary['n_measure']!r} != frozen {ref['n_measure']!r}")
    values = [p["n_measure"] for p in summary["per_pair"]]
    if len(values) != len(ref["per_pair"]):
        problems.append(f"{len(values)} pairs, expected {len(ref['per_pair'])}")
    elif max(values) - min(values) > EQUATORIAL_SPREAD_ATOL:
        problems.append(f"equatorial pairs spread {max(values) - min(values):.3e}")
    for k, (value, frozen) in enumerate(zip(values, ref["per_pair"])):
        if not _close(value, frozen):
            problems.append(f"pair {k} n_measure {value!r} != frozen {frozen!r}")
    return problems


def _check_sweep(stdout: str, workdir: Path, ref: dict) -> list[str]:
    with open(workdir / "sweep.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(ref["n_measure"]):
        return [f"{len(rows)} sweep rows, expected {len(ref['n_measure'])}"]
    problems = []
    for k, (row, frozen) in enumerate(zip(rows, ref["n_measure"])):
        if row["status"] != "ok":
            problems.append(f"row {k} status {row['status']!r}")
        elif not _close(float(row["n_measure"]), frozen):
            problems.append(f"row {k} n_measure {row['n_measure']} != frozen {frozen!r}")
    return problems


def _check_dense_chain(stdout: str, workdir: Path, ref: dict) -> list[str]:
    summary = _summary(workdir, "dense_chain")
    problems = []
    if summary["path_used"] != "dense":
        problems.append(f"path_used {summary['path_used']!r}, expected 'dense'")
    if not _close(summary["n_measure"], ref["n_measure"]):
        problems.append(f"n_measure {summary['n_measure']!r} != frozen {ref['n_measure']!r}")
    return problems


def _check_verify(stdout: str, workdir: Path, ref: dict) -> list[str]:
    lines = [ln for ln in stdout.splitlines() if ln.startswith(("PASS", "FAIL"))]
    if not lines:
        return ["verify printed no check lines"]
    return [f"check failed: {ln}" for ln in lines if not ln.startswith("PASS")]


def _run_argv(name: str, flags: list[str]) -> Callable[[int, Path], list[str]]:
    def argv(seed: int, workdir: Path) -> list[str]:
        return flags + ["--out", str(workdir / f"{name}.csv"), "--summary", str(workdir / f"{name}.json")]

    return argv


# verify: bound suite 50 models x 20 times, structural suite n=6 dense and
# subspace at 301 points each plus n=10 subspace at 2001 points
_VERIFY_SAMPLES = 50 * 20 + 2 * 301 + 2001

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pair_scan",
            12 * 2001,
            False,
            _run_argv("pair_scan", ["run", "--scenario", "measure", "--pair", "equatorial:12"]),
            _check_pair_scan,
        ),
        Workload(
            "sweep",
            6 * 2001,
            False,
            _run_argv(
                "sweep",
                ["sweep", "--n-spins", "10", "--j0-grid", "0.25", "1.0", "3", "--b-grid", "0.0", "1.0", "2"],
            ),
            _check_sweep,
        ),
        Workload(
            "dense_chain",
            501,
            False,
            _run_argv(
                "dense_chain",
                ["run", "--scenario", "fig1a", "--n-spins", "7", "--path", "dense", "--steps", "500"],
            ),
            _check_dense_chain,
        ),
        Workload(
            "verify",
            _VERIFY_SAMPLES,
            True,
            lambda seed, workdir: ["verify", "--seed", str(seed % 2**32), "--summary", str(workdir / "verify.json")],
            _check_verify,
        ),
    )
}


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


@dataclass
class OpResult:
    seconds: float
    code: int | None
    problems: list[str]

    @property
    def ok(self) -> bool:
        return not self.problems


def run_op(main, workload: Workload, seed: int, workdir: Path, reference: dict) -> OpResult:
    """Run one op through ``main`` (``backflow.cli.main``) and check its output.

    The op counts as failed on a nonzero exit, an exception or a failed
    check. Outputs of an earlier op are removed first so that a stale file
    cannot pass the check.
    """
    for old in workdir.iterdir():
        old.unlink()
    argv = workload.argv(seed, workdir)
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    except Exception:  # an op that raises is a failed op; keep measuring
        return OpResult(time.perf_counter() - start, None, [traceback.format_exc(limit=3)])
    seconds = time.perf_counter() - start
    return OpResult(seconds, code, check_output(workload, code, out.getvalue(), workdir, reference))


def check_output(workload: Workload, code: int, stdout: str, workdir: Path, reference: dict) -> list[str]:
    """Problems found in one op's output; empty when the op passed."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        return workload.check(stdout, workdir, reference.get(workload.name, {}))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
