"""Deterministic CSV and JSON serialization of run results.

Floats are written with 17 significant digits so every value round-trips
exactly; two runs with the same configuration and seed produce byte-identical
files apart from the timestamp and runtime entries of the JSON summary.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .evolution import TrajectoryRecord

__all__ = [
    "TRAJECTORY_CSV",
    "format_float",
    "write_trajectory_csv",
    "write_sweep_csv",
    "write_bound_csv",
    "write_summary_json",
]

# (CSV header, TrajectoryRecord field), in column order
TRAJECTORY_CSV = (
    ("t", "times"),
    ("D_system", "d_system"),
    ("sigma", "sigma"),
    ("bound_total", "bound_total"),
    ("bound_term1", "bound_term1"),
    ("bound_term2", "bound_term2"),
    ("D_env", "d_env"),
    ("E_indist", "e_indist"),
    ("X_corr", "x_corr"),
    ("chi1_norm", "chi1_norm"),
    ("chi2_norm", "chi2_norm"),
    ("svn_system_1", "svn_system_1"),
    ("svn_system_2", "svn_system_2"),
    ("mutual_info_1", "mutual_info_1"),
    ("mutual_info_2", "mutual_info_2"),
    ("dIdt_1", "didt_1"),
)


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def write_trajectory_csv(record: TrajectoryRecord, path: str | Path) -> None:
    table = np.column_stack([getattr(record, name) for _, name in TRAJECTORY_CSV])
    lines = [",".join(header for header, _ in TRAJECTORY_CSV)]
    # format_float's .17g for every field, one % per row; Python floats format faster than
    # numpy scalars, and converting a row at a time, not whole columns, leaves no
    # long-lived float objects among the lines on the heap
    template = ",".join(["%.17g"] * len(TRAJECTORY_CSV))
    for row in table:
        lines.append(template % tuple(row.tolist()))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_sweep_csv(rows: list[dict], path: str | Path) -> None:
    header = ("j0_over_j", "b_over_j", "n_measure", "n_intervals", "status")
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(
                (
                    format_float(row["j0_over_j"]),
                    format_float(row["b_over_j"]),
                    format_float(row["n_measure"]) if row["n_measure"] is not None else "",
                    str(row["n_intervals"]) if row["n_intervals"] is not None else "",
                    row["status"],
                )
            )
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_bound_csv(rows: list[dict], path: str | Path) -> None:
    """One worst-margin row per random model of the bound-check scenario."""
    lines = ["model,d_env,max_sigma_minus_bound"]
    for row in rows:
        lines.append(
            f"{row['model']},{row['d_env']},{format_float(row['max_sigma_minus_bound'])}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_summary_json(summary: dict, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
