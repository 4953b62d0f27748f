"""The benchmark's traced run reads every layer of each kind of op.

perfbench/spans.py wraps the package's entry points by name and reports
a layer metric as null when its hook is missing or read nothing, and a
null metric leaves the benchmark's output malformed. One small op of
each kind is traced here exactly as the benchmark traces it.
"""

import sys
from pathlib import Path

import pytest

from backflow import cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402


def _argv(kind: str, out: Path) -> list[str]:
    csv, summary = ["--out", str(out / "o.csv")], ["--summary", str(out / "o.json")]
    if kind == "sweep":
        grids = ["--j0-grid", "0.5", "1.0", "2", "--b-grid", "0.0", "1.0", "2"]
        return ["sweep", "--n-spins", "4", "--steps", "50", *grids, *csv, *summary]
    if kind == "dense":
        chain = ["--n-spins", "5", "--path", "dense", "--steps", "50"]
        return ["run", "--scenario", "fig1a", *chain, *csv, *summary]
    return ["verify", "--models", "2", *summary]


@pytest.mark.parametrize("kind", ["sweep", "dense", "verify"])
def test_traced_op_reads_every_layer(kind, tmp_path, capsys):
    tracer = spans.Tracer()
    traced_main = tracer.wrap(spans.ROOT, cli.main)
    with spans.Hooks(tracer) as hooks:
        code = traced_main(_argv(kind, tmp_path))
    capsys.readouterr()
    assert code == 0
    assert hooks.missing == []
    metrics = spans.layer_metrics(tracer.spans, 1, hooks)
    assert [name for name, value in metrics.items() if value is None] == []
