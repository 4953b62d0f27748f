"""Benchmark of the backflow command line, run from the root of a checkout.

    python3 perfbench/run.py --workload pair_scan --seed 1 --seconds 20 --trace 0

Each run starts fresh child Python processes (``child.py``) with BLAS
threads pinned to the number of usable cores, and drives one workload in
a closed loop: one client, one op at a time, where an op is one in-process
call ``backflow.cli.main(argv)``. Every op's output is checked
(``workloads.py``); a nonzero exit or a failed check counts the op as
failed.

--trace 0 reports the end-to-end metrics, measured with tracing off:

* setup_s        child start until backflow is imported and the reference
                 values are loaded; median over several children
* op_p50_s       median wall seconds per op
* samples_per_s  trajectory samples diagnosed per second of op time; a
                 sample is one time point of one pair or sweep point
* peak_rss_mb    the measuring child's ru_maxrss after its ops

--trace 1 reports per-layer metrics from a traced run (``spans.py``):
per-op self times and counts of each layer, the tracing overhead, the
number of hooks whose target is missing, and ``blas1.op_s``, one op with
BLAS pinned to a single thread.

Metric names and units are those of BENCHMARK.json. Human-readable lines
come first; the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# each child writes its op outputs under WORK/<pid>
WORK = HERE / "_work"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

# set-up samples per run: this many set-up-only children plus the measuring one
SETUP_CHILDREN = 9
CHILD_TIMEOUT_S = 170.0


class ChildError(RuntimeError):
    pass


def _child(mode: str, args, threads: int, deadline: float) -> tuple[float, dict | None]:
    """Run one child; return (seconds from spawn to READY, its result)."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        mode,
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        if not select.select([proc.stdout], [], [], max(0.0, deadline - start))[0]:
            raise ChildError(f"{mode} child did not start in time")
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        if ready.strip() != "READY":
            raise ChildError(f"{mode} child did not start: {ready.strip()!r}")
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{mode} child ran past the time limit") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
        shutil.rmtree(WORK / str(proc.pid), ignore_errors=True)
    if proc.returncode != 0:
        raise ChildError(f"{mode} child exited with code {proc.returncode}")
    if mode == "setup":
        return setup, None
    try:
        return setup, json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise ChildError(f"{mode} child printed no result") from exc


def _tail_percentiles(values: list[float]) -> dict:
    """Tail percentiles that have at least ten samples beyond them."""
    out = {}
    for p in (90, 99):
        if len(values) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return out


def _measure(args, threads: int, deadline: float) -> tuple[dict, dict, list[dict]]:
    setups = [_child("setup", args, threads, deadline)[0] for _ in range(SETUP_CHILDREN)]
    setup, result = _child("run", args, threads, deadline)
    setups.append(setup)
    ops = result["ops"]
    times = [op["seconds"] for op in ops]
    passed = sum(1 for op in ops if op["ok"])
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(times),
        "samples_per_s": WORKLOADS[args.workload].samples_per_op * passed / sum(times),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    print(f"ops: {len(times)} timed, {passed} passed the output check", flush=True)
    for name, value in _tail_percentiles(times).items():
        print(f"op_{name}_s: {value:.6f} s over {len(times)} ops", flush=True)
    return metrics, result["env"], ops


def _trace(args, threads: int, deadline: float) -> tuple[dict, dict, list[dict]]:
    _, result = _child("trace", args, threads, deadline)
    _, single = _child("once", args, 1, deadline)
    metrics = dict(result["layers"])
    metrics["trace.overhead_s"] = result["trace_overhead_s"]
    metrics["trace.hooks_missing"] = len(result["hooks_missing"])
    metrics["blas1.op_s"] = single["ops"][0]["seconds"]
    result["env"]["blas1_threads_runtime"] = single["env"]["blas_threads_runtime"]
    for hook in result["hooks_missing"]:
        print(f"warning: trace hook missing, its time falls to the parent span: {hook}", flush=True)
    print(f"traced ops: {len(result['traced_ops'])}, untraced ops: {len(result['ops'])}", flush=True)
    ops = result["ops"] + result["traced_ops"] + single["ops"]
    return metrics, result["env"], ops


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "backflow" / "cli.py").is_file():
        print(f"error: no backflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # a terminated run still stops its children, in the finally blocks
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    threads = len(os.sched_getaffinity(0))
    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    try:
        run = _trace if args.trace else _measure
        metrics, env, ops = run(args, threads, deadline)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    failed = sum(1 for op in ops if not op["ok"])
    print("env: " + json.dumps(env, sort_keys=True))
    for op in ops:
        for problem in op["problems"]:
            print(f"failed op: {problem}")
    for name, unit in units.items():
        value = metrics[name]
        print(f"{name}: {'null (hook missing)' if value is None else f'{value:.6g}'} {unit}")
    report = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
