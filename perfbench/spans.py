"""In-memory span recorder for the traced benchmark run.

The tracer wraps public functions of causalkit at every module attribute that
holds them, so callers that looked a name up with ``from .x import f`` or
through their own module globals reach the wrapper.  Each call records one
span (name, parent, start, end) plus the counters of its layer; nothing is
written until the run ends.  Self time of a span is its duration minus the
durations of its direct children, which never overlap because each workload
runs one operation at a time on one thread.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time


def _report_path(args, kwargs):
    return args[2] if len(args) > 2 else kwargs.get("path")


def _stdout_mark(args, kwargs):
    # In-process CLI calls write to an io.StringIO, whose position counts
    # characters; reports are ASCII JSON, so characters are bytes.
    return None if _report_path(args, kwargs) else sys.stdout.tell()


def _report_bytes(args, kwargs, result, mark):
    path = _report_path(args, kwargs)
    written = os.path.getsize(path) if path else sys.stdout.tell() - mark
    return {"bytes": written}


def _logistic_counts(args, kwargs, model, mark):
    return {"iterations": model.iterations, "capped": int(not model.converged)}


# (module, function, counter names, pre-call hook, post-call counter).
# Every layer also reports self_ms; "calls" is the number of spans.
LAYERS = (
    ("cli", "main", (), None, None),
    ("cli", "emit_report", ("bytes",), _stdout_mark, _report_bytes),
    ("data_model", "load_csv", ("rows",), None, lambda a, k, ds, m: {"rows": ds.n}),
    ("data_model", "write_csv", ("rows",), None, lambda a, k, r, m: {"rows": a[0].n}),
    ("data_model", "write_ground_truth_csv", (), None, None),
    ("dgp", "generate_observational", ("calls",), None, None),
    ("nuisance", "cross_fit", ("calls",), None, None),
    ("nuisance", "make_folds", (), None, None),
    ("nuisance", "fit_logistic", ("calls", "iterations", "capped"), None, _logistic_counts),
    ("nuisance", "fit_linear", ("calls",), None, None),
    ("ate_estimators", "aipw", (), None, None),
    ("ate_estimators", "ipw", (), None, None),
    ("ate_estimators", "g_formula", (), None, None),
    ("ate_estimators", "naive_dim", (), None, None),
    ("ate_estimators", "psm_att", ("pairs",), None, lambda a, k, r, m: {"pairs": len(r[1])}),
    ("montecarlo", "run_mc", ("replications",), None, lambda a, k, r, m: {"replications": r.replications}),
    ("eif_engine", "eif_table", (), None, None),
    ("eif_engine", "gateaux_if", ("calls",), None, None),
    ("eif_engine", "pathwise_derivative", ("calls",), None, None),
    ("eif_engine", "closed_form_eif", (), None, None),
    ("eif_engine", "second_order_remainder", (), None, None),
)

OP_METRICS = ("op.unattributed_ms", "op.tracing_overhead_ms")
PACKAGE = "causalkit"


def layer_metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = []
    for module, func, counters, _, _ in LAYERS:
        names.append(f"{module}.{func}.self_ms")
        names.extend(f"{module}.{func}.{c}" for c in counters)
    return names + list(OP_METRICS)


class Tracer:
    """Records spans of traced operations; install() and uninstall() patch causalkit."""

    def __init__(self):
        # span: [name, parent index, start, end, counters or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.ops = 0

    def _wrap(self, name, fn, pre, post):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            mark = pre(args, kwargs) if pre else None
            span = [name, stack[-1] if stack else -1, time.perf_counter(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if post:
                span[4] = post(args, kwargs, result, mark)
            return result

        return wrapper

    def install(self) -> None:
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for module, func, _, pre, post in LAYERS:
            original = getattr(sys.modules[f"{PACKAGE}.{module}"], func)
            wrapper = self._wrap(f"{module}.{func}", original, pre, post)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def begin_op(self, index: int) -> None:
        self._stack.append(len(self.spans))
        self.spans.append([f"op#{index}", -1, time.perf_counter(), 0.0, None])

    def end_op(self) -> None:
        self.spans[self._stack.pop()][3] = time.perf_counter()
        self.ops += 1

    def layer_metrics(self, traced_p50_ms: float, untraced_p50_ms: float) -> dict[str, float]:
        """Per-operation means over traced operations, keyed by metric name."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {name: 0.0 for name in layer_metric_names()}
        for i, (name, parent, start, end, counts) in enumerate(self.spans):
            self_ms = (end - start - child_time[i]) * 1e3
            if name.startswith("op#"):
                totals["op.unattributed_ms"] += self_ms
                continue
            totals[f"{name}.self_ms"] += self_ms
            if f"{name}.calls" in totals:
                totals[f"{name}.calls"] += 1
            for key, value in (counts or {}).items():
                totals[f"{name}.{key}"] += value
        ops = max(self.ops, 1)
        metrics = {name: value / ops for name, value in totals.items()}
        metrics["op.tracing_overhead_ms"] = traced_p50_ms - untraced_p50_ms
        return metrics

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, parent, start, end, counts) in enumerate(self.spans):
                record = {"id": i, "name": name, "parent": parent, "start": start, "end": end}
                if counts:
                    record["counts"] = counts
                f.write(json.dumps(record) + "\n")
