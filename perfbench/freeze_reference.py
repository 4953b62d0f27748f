"""Write reference.json: the values every op's output is checked against.

    python3 perfbench/freeze_reference.py

Run once at the commit whose outputs are the reference, from the root of
its checkout. verify is not frozen: it depends on the seed and checks
itself, printing PASS or FAIL per check.
"""

from __future__ import annotations

import csv
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from backflow import cli  # noqa: E402

from workloads import REFERENCE_FILE, WORKLOADS  # noqa: E402


def _summary(workdir: Path, name: str) -> dict:
    return json.loads((workdir / f"{name}.json").read_text(encoding="utf-8"))


def _sweep_values(workdir: Path, name: str) -> dict:
    with open(workdir / f"{name}.csv", newline="", encoding="utf-8") as fh:
        return {"n_measure": [float(row["n_measure"]) for row in csv.DictReader(fh)]}


EXTRACT = {
    "pair_scan": lambda d, n: {
        "n_measure": _summary(d, n)["n_measure"],
        "per_pair": [p["n_measure"] for p in _summary(d, n)["per_pair"]],
    },
    "sweep": _sweep_values,
    "dense_chain": lambda d, n: {"n_measure": _summary(d, n)["n_measure"]},
}


def main() -> int:
    reference = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        workdir = Path(tmp)
        for name, extract in EXTRACT.items():
            code = cli.main(WORKLOADS[name].argv(0, workdir))
            if code != 0:
                print(f"error: {name} exited with code {code}", file=sys.stderr)
                return 1
            reference[name] = extract(workdir, name)
    REFERENCE_FILE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
