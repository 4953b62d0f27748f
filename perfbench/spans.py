"""Spans around the package's public entry points, recorded from outside.

The traced run replaces each entry point named in ``HOOKS`` by a wrapper
that records a span (name, start, end, parent, op id) in memory, runs the
op, and puts every original back. Self time of a span is its duration
minus that of its direct children; per op, the self times sum to the root
span, so time in a layer whose hook is missing falls to its parent.

A hook whose target no longer exists is recorded as missing: its metrics
are reported as null, never as a zero that looks measured.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field


def _pairs(args, kwargs, result) -> dict:
    return {"pairs": len(result.per_pair_values)}


def _eig_dim(args, kwargs, result) -> dict:
    return {"dim": args[0].shape[0]}


def _kernel_size(args, kwargs, result) -> dict:
    h, d_system, d_environment, states_1 = args[:4]
    return {"samples": len(states_1), "dim": d_system * d_environment}


def _bytes_written(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[1])}


# (span name, module, attribute, attributes taken from the call). The
# bindings are the names the calling module looks up, so a hook sees the
# calls made from that module only.
HOOKS = (
    ("model.build", "backflow.cli", "build_chain_model", None),
    ("model.build", "backflow.measure", "build_chain_model", None),
    ("model.build", "backflow.verify", "build_chain_model", None),
    ("model.validate", "backflow.model", "Model.__post_init__", None),
    ("measure", "backflow.cli", "blp_measure", _pairs),
    ("evolution", "backflow.cli", "run_trajectory", None),
    ("evolution", "backflow.measure", "run_trajectory", None),
    ("evolution", "backflow.verify", "run_trajectory", None),
    ("linalg.eig", "backflow.evolution", "hermitian_eig", _eig_dim),
    ("diagnostics.kernel", "backflow.evolution", "pair_step_series", _kernel_size),
    ("diagnostics.oracle", "backflow.verify", "distinguishability_bound", None),
    ("diagnostics.oracle", "backflow.verify", "bound_term1_branch", None),
    ("diagnostics.oracle", "backflow.verify", "bound_term1_from_couplings", None),
    ("verify", "backflow.cli", "bound_suite", None),
    ("verify", "backflow.cli", "structural_suite", None),
    ("output.write", "backflow.cli", "write_trajectory_csv", _bytes_written),
    ("output.write", "backflow.cli", "write_sweep_csv", _bytes_written),
    ("output.write", "backflow.cli", "write_summary_json", _bytes_written),
)

ROOT = "cli"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records nested spans of a single thread, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self._open: list[int] = []

    def call(self, name: str, fn, args, kwargs, attrs=None):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        span = Span(name, time.perf_counter(), 0.0, parent, self.op)
        self.spans.append(span)
        self._open.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open.pop()
        if attrs is not None:
            try:
                span.attrs = attrs(args, kwargs, result)
            except (AttributeError, IndexError, TypeError, ValueError, OSError):
                span.attrs = {"unreadable": True}
        return result

    def wrap(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs)

        return wrapper


def _resolve(module: str, attribute: str):
    """(owner, last attribute name) for a dotted attribute, or None if gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, last = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, last):
        return None
    return owner, last


class Hooks:
    """Install wrappers for ``hooks`` on entry; restore every original on exit."""

    def __init__(self, tracer: Tracer, hooks=HOOKS) -> None:
        self.tracer = tracer
        self.hooks = hooks
        self.installed: list[tuple[object, str, object, bool]] = []
        self.missing: list[str] = []
        self.present_names: set[str] = set()

    def __enter__(self) -> "Hooks":
        try:
            for name, module, attribute, attrs in self.hooks:
                target = _resolve(module, attribute)
                if target is None:
                    self.missing.append(f"{module}.{attribute}")
                    continue
                owner, last = target
                original = getattr(owner, last)
                own = last in vars(owner)
                setattr(owner, last, self.tracer.wrap(name, original, attrs))
                self.installed.append((owner, last, original, own))
                self.present_names.add(name)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self.installed:
            owner, last, original, own = self.installed.pop()
            if own:
                setattr(owner, last, original)
            else:
                delattr(owner, last)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def layer_metrics(spans: list[Span], n_ops: int, hooks: Hooks) -> dict:
    """Per-op means of each layer's self time and counts over the traced ops.

    Values whose hooks are all missing, or whose call attributes could not
    be read, are None.
    """
    selfs = self_times(spans)
    t = defaultdict(float)
    calls = defaultdict(int)
    total = defaultdict(float)
    biggest = defaultdict(int)
    unreadable = set()
    for span, own in zip(spans, selfs):
        t[span.name] += own
        calls[span.name] += 1
        if span.attrs.get("unreadable"):
            unreadable.add(span.name)
        for key, value in span.attrs.items():
            total[span.name, key] += value
            biggest[span.name, key] = max(biggest[span.name, key], value)

    def per_op(value):
        return value / n_ops

    def seconds(name):
        return per_op(t[name]) if name in hooks.present_names or name == ROOT else None

    def count(name):
        return per_op(calls[name]) if name in hooks.present_names else None

    def readable(name):
        return name in hooks.present_names and name not in unreadable

    def attr_sum(name, key):
        return per_op(total[name, key]) if readable(name) else None

    def attr_max(name, key):
        return biggest[name, key] if readable(name) else None

    kernel_s, kernel_samples = seconds("diagnostics.kernel"), attr_sum("diagnostics.kernel", "samples")
    return {
        "model.build_s": seconds("model.build"),
        "model.build_calls": count("model.build"),
        "model.validate_s": seconds("model.validate"),
        "model.validate_calls": count("model.validate"),
        "measure.self_s": seconds("measure"),
        "measure.pairs": attr_sum("measure", "pairs"),
        "evolution.self_s": seconds("evolution"),
        "evolution.calls": count("evolution"),
        "linalg.eig_s": seconds("linalg.eig"),
        "linalg.eig_calls": count("linalg.eig"),
        "linalg.eig_max_dim": attr_max("linalg.eig", "dim"),
        "diagnostics.kernel_s": kernel_s,
        "diagnostics.kernel_calls": count("diagnostics.kernel"),
        "diagnostics.kernel_samples": kernel_samples,
        "diagnostics.kernel_dim": attr_max("diagnostics.kernel", "dim"),
        "diagnostics.kernel_us_per_sample": (
            1e6 * kernel_s / kernel_samples if kernel_s is not None and kernel_samples else None
        ),
        "diagnostics.oracle_s": seconds("diagnostics.oracle"),
        "diagnostics.oracle_calls": count("diagnostics.oracle"),
        "verify.self_s": seconds("verify"),
        "output.write_s": seconds("output.write"),
        "output.bytes": attr_sum("output.write", "bytes"),
        "cli.self_s": seconds(ROOT),
    }
