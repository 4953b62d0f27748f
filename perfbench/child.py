"""One benchmark child process: set up, print READY, run ops, print a result.

Started by ``run.py`` with the checkout root as working directory; BLAS
threads are pinned through the environment before numpy loads. Modes:

* setup  -- exit right after READY (set-up time samples)
* run    -- closed loop of untraced ops for the given seconds
* trace  -- one untimed warm-up op, then untraced and traced ops in turn
            for the given seconds; the first op in a process is slower
            (allocator and BLAS thread start-up), and taking turns keeps
            a drift in machine speed out of the tracing overhead
* once   -- exactly one untraced op

The last line on standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from backflow import cli  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, load_reference, run_op  # noqa: E402


def _blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if it can be found."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text(encoding="utf-8").strip()
        return head
    except OSError:
        return "unknown (not a git checkout)"


def environment(workload, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    try:
        threads = _blas_threads()
    except OSError:
        threads = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads_pinned": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_runtime": threads,
        "git_commit": _git_commit(),
        "workload": workload.name,
        "seed": seed,
        "seed_use": (
            "passed to the program" if workload.uses_seed else "ignored: the workload has no random input"
        ),
    }


def _loop(main, workload, seed, workdir, reference, seconds: float):
    """Closed loop: start the next op only after the previous one ends.

    Runs at least one op, and starts another only while it is expected to
    end within ``seconds`` (median op time so far), so a run's length stays
    near ``seconds`` whatever the op time.
    """
    ops = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start + statistics.median(op.seconds for op in ops) <= seconds:
        ops.append(run_op(main, workload, seed, workdir, reference))
    return ops


def _op_records(ops) -> list[dict]:
    return [{"seconds": op.seconds, "ok": op.ok, "problems": op.problems} for op in ops]


def _trace(workload, seed, workdir, reference, seconds: float) -> dict:
    tracer = spans.Tracer()
    traced_main = tracer.wrap(spans.ROOT, cli.main)
    start = time.perf_counter()
    warmup = run_op(cli.main, workload, seed, workdir, reference)
    plain, traced = [], []
    while not traced or time.perf_counter() - start + 2 * statistics.median(op.seconds for op in plain) <= seconds:
        plain.append(run_op(cli.main, workload, seed, workdir, reference))
        tracer.op += 1
        with spans.Hooks(tracer) as hooks:
            traced.append(run_op(traced_main, workload, seed, workdir, reference))
    return {
        "ops": _op_records([warmup] + plain),
        "traced_ops": _op_records(traced),
        "layers": spans.layer_metrics(tracer.spans, len(traced), hooks),
        "hooks_missing": hooks.missing,
        # adjacent ops see the same machine state, so pair them up
        "trace_overhead_s": statistics.median(t.seconds - p.seconds for p, t in zip(plain, traced)),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run", "trace", "once"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    reference = load_reference()
    workdir = ROOT / "perfbench" / "_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        print("READY", flush=True)
        if args.mode == "setup":
            return 0
        result = {"env": environment(workload, args.seed)}
        if args.mode == "trace":
            result.update(_trace(workload, args.seed, workdir, reference, args.seconds))
        else:
            seconds = args.seconds if args.mode == "run" else 0.0
            result["ops"] = _op_records(_loop(cli.main, workload, args.seed, workdir, reference, seconds))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
