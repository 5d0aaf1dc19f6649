"""Per-layer spans for the traced benchmark run, recorded from outside ldic.

``Tracer.install`` replaces the functions each layer offers the others with
timing wrappers, by patching module attributes (in every ``ldic`` module
that imported them) and class attributes, and swaps ``ldic.cli.json`` for a
shim whose ``dumps`` is timed. ``uninstall`` puts every original back.
Spans are kept in memory as flat lists; self time and the per-layer
metrics are computed from them after the run.

Calls inside a layer that no other layer makes (``Constraint.holds``,
``RatePolytope.contains``, the simulator's bit helpers) are not wrapped:
their cost stays in the self time of the layer function that made them.
``params`` is too cheap to time and stays in its callers' self time.
"""

from __future__ import annotations

import functools
import json
import sys
import types
from time import perf_counter

# Layer -> the functions other layers (or the harness) call, "Class.method"
# for methods.
LAYER_API = {
    "cli": ("build_parser", "main"),
    "bounds": ("evaluate_bound", "build_bounds", "capacity_region"),
    "polytope": ("RatePolytope.from_bounds", "RatePolytope.equals_region",
                 "RatePolytope.max_linear", "RatePolytope.slice_max"),
    "metrics": ("delta", "sigma", "compute_metrics", "feedback_threshold",
                "feedback_useless", "sweep"),
    "sim": ("derive_config", "draw_messages", "run_scheme", "run_session"),
    "output": ("region_document", "region_csv", "metrics_document",
               "surface_document", "sweep_csv", "session_document"),
}

DOCUMENT_BUILDERS = tuple(f"output.{name}" for name in LAYER_API["output"])

# Block-length buckets for sim.us_per_use, as (label, lowest length).
USE_BUCKETS = (("b250-999", 0), ("b1000-1999", 1000), ("b2000-4000", 2000))

# Span fields: [name, start, end, parent index, info]
NAME, START, END, PARENT, INFO = range(5)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.encoder_calls = 0
        self.feedback_elems = 0
        self._restore = []

    def wrap(self, name: str, fn, info=None):
        """`fn` recording one span per call; info(args, result) is kept on the span."""
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if info is not None:
                span[INFO] = info(args, result)
            return result

        return traced

    def _counting_run_session(self, run_session):
        """run_session whose encoders count their calls and the feedback they are handed."""
        tracer = self

        def counted(encode):
            def encoder(message, feedback):
                tracer.encoder_calls += 1
                tracer.feedback_elems += len(feedback)
                return encode(message, feedback)
            return encoder

        @functools.wraps(run_session)
        def wrapper(cfg, encoders, decoders, messages):
            return run_session(cfg, tuple(counted(e) for e in encoders), decoders, messages)

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if (name == "ldic" or name.startswith("ldic.")) and m is not None]
        for layer, names in LAYER_API.items():
            module = sys.modules[f"ldic.{layer}"]
            for qualname in names:
                span_name = f"{layer}.{qualname.rsplit('.', 1)[-1]}"
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    self._patch_method(getattr(module, cls_name), attr, span_name)
                    continue
                original = getattr(module, qualname)
                fn = original
                info = None
                if span_name == "sim.run_session":
                    fn = self._counting_run_session(original)
                    info = _block_length
                elif span_name == "bounds.build_bounds":
                    info = _result
                elif span_name == "metrics.sweep":
                    info = _cell_count
                wrapper = self.wrap(span_name, fn, info)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._set(m, attr, wrapper)
        cli = sys.modules["ldic.cli"]
        shim = types.SimpleNamespace(**vars(json))
        shim.dumps = self.wrap("output.json_dumps", json.dumps)
        self._set(cli, "json", shim)

    def _patch_method(self, cls, attr, span_name):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(self.wrap(span_name, raw.__func__)))
        else:
            self._set(cls, attr, self.wrap(span_name, raw))

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def reset(self) -> None:
        self.spans.clear()
        self.encoder_calls = 0
        self.feedback_elems = 0

    def write(self, path: str) -> None:
        """One JSON line per span: name, start and end (s), parent and request index."""
        request = []
        with open(path, "w") as out:
            for i, span in enumerate(self.spans):
                parent = span[PARENT]
                request.append(i if parent < 0 else request[parent])
                out.write(json.dumps({"name": span[NAME], "start": span[START], "end": span[END],
                                      "parent": parent, "request": request[i]}) + "\n")

    def layer_metrics(self) -> dict:
        """Per-layer totals over the spans recorded since the last reset."""
        spans = self.spans
        calls, incl, self_s = {}, {}, {}
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        # The enclosing feedback_threshold / sweep span of each span, if any.
        in_threshold, in_sweep = [-1] * len(spans), [-1] * len(spans)
        threshold_builds = 0
        sweep_bounds = {}
        use_time = {label: 0.0 for label, _ in USE_BUCKETS}
        use_count = dict.fromkeys(use_time, 0)
        for i, span in enumerate(spans):
            name, parent = span[NAME], span[PARENT]
            duration = span[END] - span[START]
            calls[name] = calls.get(name, 0) + 1
            incl[name] = incl.get(name, 0.0) + duration
            self_s[name] = self_s.get(name, 0.0) + duration - child_time[i]
            in_threshold[i] = i if name == "metrics.feedback_threshold" else (
                in_threshold[parent] if parent >= 0 else -1)
            in_sweep[i] = i if name == "metrics.sweep" else (
                in_sweep[parent] if parent >= 0 else -1)
            if name == "bounds.capacity_region" and in_threshold[i] >= 0:
                threshold_builds += 1
            elif name == "bounds.build_bounds" and in_sweep[i] >= 0 and span[INFO] is not None:
                sweep_bounds.setdefault(in_sweep[i], set()).add(span[INFO])
            elif name == "sim.run_session" and span[INFO] is not None:
                label = [b for b, low in USE_BUCKETS if span[INFO] >= low][-1]
                use_time[label] += duration
                use_count[label] += span[INFO]

        def ms(table, name):
            return table.get(name, 0.0) * 1e3

        def ratio(num, den):
            return num / den if den else 0.0

        cells = sum(span[INFO] or 0 for span in spans if span[NAME] == "metrics.sweep")
        metrics = {
            "cli.build_parser.ms": ms(incl, "cli.build_parser"),
            "bounds.build_bounds.calls": calls.get("bounds.build_bounds", 0),
            "bounds.build_bounds.self_ms": ms(self_s, "bounds.build_bounds"),
            "bounds.evaluate_bound.calls": calls.get("bounds.evaluate_bound", 0),
            "polytope.from_bounds.calls": calls.get("polytope.from_bounds", 0),
            "polytope.from_bounds.self_ms": ms(self_s, "polytope.from_bounds"),
            "polytope.slice_max.calls": calls.get("polytope.slice_max", 0),
            "polytope.slice_max.self_ms": ms(self_s, "polytope.slice_max"),
            "polytope.equals_region.self_ms": ms(self_s, "polytope.equals_region"),
            "metrics.compute_metrics.ms": ms(incl, "metrics.compute_metrics"),
            "metrics.feedback_threshold.ms": ms(incl, "metrics.feedback_threshold"),
            "metrics.feedback_threshold.region_builds": threshold_builds,
            "metrics.feedback_threshold.useful_ratio":
                ratio(calls.get("metrics.feedback_threshold", 0), threshold_builds),
            "metrics.feedback_useless.ms": ms(incl, "metrics.feedback_useless"),
            "metrics.sweep.ms": ms(incl, "metrics.sweep"),
            "metrics.sweep.cells": cells,
            "metrics.sweep.distinct_region_ratio":
                ratio(sum(len(s) for s in sweep_bounds.values()), cells),
            "sim.run_session.ms": ms(incl, "sim.run_session"),
            "sim.channel_uses": sum(use_count.values()),
            "sim.encoder_calls": self.encoder_calls,
            "sim.feedback_elems_passed": self.feedback_elems,
            "output.document.ms": sum(ms(incl, name) for name in DOCUMENT_BUILDERS),
            "output.json_dumps.ms": ms(incl, "output.json_dumps"),
        }
        for label, _ in USE_BUCKETS:
            metrics[f"sim.us_per_use.{label}"] = ratio(use_time[label] * 1e6, use_count[label])
        return metrics


def _block_length(args, result):
    return args[0].block_length


def _result(args, result):
    return result


def _cell_count(args, result):
    return len(result.cells)
