"""Self-tests of the benchmark's output checks and tracing.

    python3 perfbench/selftest.py            # or: python3 -m pytest perfbench/selftest.py

Small CLI configurations keep each test under a second.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from backflow import cli  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, check_output, load_reference, run_op  # noqa: E402


def _workdir() -> tempfile.TemporaryDirectory:
    base = HERE / "_work"
    base.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=base)


def _small_measure(name: str):
    """A pair_scan-shaped workload small enough for a test."""
    flags = ["run", "--scenario", "measure", "--pair", "equatorial:3", "--n-spins", "6", "--steps", "300"]
    return dataclasses.replace(
        WORKLOADS["pair_scan"],
        argv=lambda seed, workdir: flags + ["--out", str(workdir / f"{name}.csv"), "--summary", str(workdir / f"{name}.json")],
    )


def test_check_rejects_perturbed_reference():
    reference = load_reference()
    frozen = reference["dense_chain"]["n_measure"]
    workload = WORKLOADS["dense_chain"]
    with _workdir() as tmp:
        workdir = Path(tmp)
        (workdir / "dense_chain.json").write_text(json.dumps({"path_used": "dense", "n_measure": frozen}))
        assert check_output(workload, 0, "", workdir, reference) == []
        perturbed = {"dense_chain": {"n_measure": frozen * (1 + 1e-8)}}
        assert check_output(workload, 0, "", workdir, perturbed)
        sweep = WORKLOADS["sweep"]
        rows = ["j0_over_j,b_over_j,n_measure,n_intervals,status"]
        rows += [f"0,0,{v!r},1,ok" for v in reference["sweep"]["n_measure"]]
        (workdir / "sweep.csv").write_text("\n".join(rows) + "\n")
        assert check_output(sweep, 0, "", workdir, reference) == []
        bumped = list(reference["sweep"]["n_measure"])
        bumped[-1] *= 1 + 1e-8
        assert check_output(sweep, 0, "", workdir, {"sweep": {"n_measure": bumped}})
    verify = WORKLOADS["verify"]
    assert check_output(verify, 0, "PASS  a: x\nPASS  b: y\n", workdir, reference) == []
    assert check_output(verify, 0, "PASS  a: x\nFAIL  b: y\n", workdir, reference)
    assert check_output(verify, 0, "", workdir, reference)


def test_check_rejects_nonzero_exit():
    bad_config = dataclasses.replace(
        WORKLOADS["dense_chain"], argv=lambda seed, workdir: ["run", "--scenario", "no-such-scenario"]
    )
    with _workdir() as tmp, contextlib.redirect_stderr(io.StringIO()):
        op = run_op(cli.main, bad_config, 0, Path(tmp), load_reference())
    assert op.code == 2 and not op.ok
    assert check_output(WORKLOADS["dense_chain"], 1, "", Path(tmp), load_reference()) == ["exit code 1"]


def _traced_op(hooks_table=spans.HOOKS):
    tracer = spans.Tracer()
    traced_main = tracer.wrap(spans.ROOT, cli.main)
    workload = _small_measure("traced")
    with _workdir() as tmp, spans.Hooks(tracer, hooks_table) as hooks:
        start = time.perf_counter()
        code = traced_main(workload.argv(0, Path(tmp)))
        wall = time.perf_counter() - start
    assert code == 0
    return tracer, hooks, wall


def test_self_times_sum_to_wall_time():
    tracer, hooks, wall = _traced_op()
    selfs = spans.self_times(tracer.spans)
    assert min(selfs) >= 0.0
    assert abs(sum(selfs) - wall) <= 0.01 * wall
    names = {s.name for s in tracer.spans}
    assert {"cli", "model.build", "model.validate", "measure", "evolution", "linalg.eig",
            "diagnostics.kernel", "output.write"} <= names
    metrics = spans.layer_metrics(tracer.spans, 1, hooks)
    assert metrics["measure.pairs"] == 3 and metrics["evolution.calls"] == 3
    assert hooks.missing == []


def test_hooks_restored_after_trace():
    before = {}
    for _, module, attribute, _ in spans.HOOKS:
        owner, last = spans._resolve(module, attribute)
        before[module, attribute] = (owner, last, getattr(owner, last), last in vars(owner))
    _traced_op()
    for (owner, last, original, own) in before.values():
        assert getattr(owner, last) is original
        assert (last in vars(owner)) == own


def test_missing_hook_is_reported_not_zero():
    renamed = tuple(
        (name, module, "pair_step_series_renamed" if attribute == "pair_step_series" else attribute, attrs)
        for name, module, attribute, attrs in spans.HOOKS
    )
    tracer, hooks, wall = _traced_op(renamed)
    assert hooks.missing == ["backflow.evolution.pair_step_series_renamed"]
    metrics = spans.layer_metrics(tracer.spans, 1, hooks)
    assert metrics["diagnostics.kernel_s"] is None
    assert metrics["diagnostics.kernel_samples"] is None
    assert metrics["diagnostics.kernel_us_per_sample"] is None
    # the kernel's time now sits in its parent's self time
    assert abs(sum(spans.self_times(tracer.spans)) - wall) <= 0.01 * wall


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_") and callable(f)]
    for n, f in tests:
        f()
        print(f"ok  {n}")
    print(f"{len(tests)} passed")
