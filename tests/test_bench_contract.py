"""The benchmark's traced run reads every layer of each kind of op.

perfbench/spans.py wraps the package's entry points by name and reports
a layer metric as null when its hook is missing or read nothing, and a
null metric leaves the benchmark's output malformed. One small op of
each kind is traced here exactly as the benchmark traces it.
"""

import sys
from collections import Counter
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
    if kind == "measure":
        scan = ["--pair", "equatorial:3", "--n-spins", "6", "--steps", "50"]
        return ["run", "--scenario", "measure", *scan, *csv, *summary]
    return ["verify", "--models", "2", *summary]


@pytest.mark.parametrize("kind", ["sweep", "dense", "measure", "verify"])
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


def test_traced_verify_calls_every_oracle_once_per_model_or_sample(tmp_path, capsys):
    # the oracles take stacks: one bound call per random model and one for the five
    # kernel-oracle samples; both coupling routes once per sample of the two records
    hooks = tuple(
        (f"{name}.{attribute}" if name == "diagnostics.oracle" else name, module, attribute, attrs)
        for name, module, attribute, attrs in spans.HOOKS
    )
    tracer = spans.Tracer()
    with spans.Hooks(tracer, hooks):
        code = cli.main(_argv("verify", tmp_path))
    capsys.readouterr()
    assert code == 0
    calls = Counter(span.name for span in tracer.spans)
    assert calls["diagnostics.oracle.distinguishability_bound"] == 2 + 1
    assert calls["diagnostics.oracle.bound_term1_branch"] == 2 * 5
    assert calls["diagnostics.oracle.bound_term1_from_couplings"] == 2 * 5
    assert calls["diagnostics.kernel"] > 0
