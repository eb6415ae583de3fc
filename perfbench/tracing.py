"""In-memory span tracer that wraps the public functions of each oasweep layer.

Spans are recorded from the benchmark's side only: :meth:`Tracer.record` swaps
each listed public function for a wrapper in every loaded ``oasweep`` module
that holds a reference to it (so ``from .geometry import build_warp_grid``
inside ``sweep`` is covered), and puts the originals back on exit. Nothing in
``src/`` is edited and no private function is wrapped.

A span is ``(name, start, end, parent, op)``. Each span boundary also records
the ``tracemalloc`` level and the peak since the previous boundary, so the
peak of any interval between two boundaries can be recovered afterwards.
Counters (bytes, entries, ratios) are computed after the wrapped call
returns, inside a ``trace`` span, so their cost is charged to the tracer
rather than to any layer's self time.
"""

import dataclasses
import functools
import os
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

MB = float(1 << 20)
TRACE = "trace"
SETUP = "setup"  # op id of the spans recorded during set-up


class Tracer:
    """Collects spans and memory boundary events of the ops it records."""

    def __init__(self):
        self.spans = []  # dicts: name, start, end, parent, op, counts, ev0, ev1
        self.events = []  # (current_bytes, peak_bytes_since_previous_event)
        self._stack = []
        self._op = None

    @contextmanager
    def record(self, op):
        """Wrap the layers' public functions and attribute their spans to ``op``."""
        self._op = op
        tracemalloc.start()
        try:
            with _instrument(self):
                yield
        finally:
            tracemalloc.stop()
            self._op = None

    def _event(self) -> int:
        current, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        self.events.append((current, peak))
        return len(self.events) - 1

    def open(self, name: str) -> int:
        ev0 = self._event()
        index = len(self.spans)
        self.spans.append({
            "name": name, "start": time.perf_counter(), "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self._op, "counts": {}, "ev0": ev0, "ev1": None,
        })
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span["end"] = time.perf_counter()
        self._stack.pop()
        span["ev1"] = self._event()

    def dump(self) -> dict:
        return {"spans": self.spans, "memory_events": self.events}


# ---------------------------------------------------------------------------
# counters computed from a wrapped call's arguments and result


def _path_bytes(args, kwargs, result) -> dict:
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _data_bytes(args, kwargs, result) -> dict:
    data = args[1] if len(args) > 1 else kwargs["data"]
    return {"bytes": len(data)}


def _volume_counts(args, kwargs, result) -> dict:
    _, volume = result
    h, w, _ = volume.shape
    per_pixel = volume.valid.any(axis=2)
    return {"entries": int(volume.valid.size), "valid": int(np.count_nonzero(volume.valid)),
            "pixels_no_plane": int(h * w - np.count_nonzero(per_pixel))}


def _grid_counts(args, kwargs, result) -> dict:
    out_bytes = sum(getattr(result, f.name).nbytes for f in dataclasses.fields(result)
                    if isinstance(getattr(result, f.name), np.ndarray))
    return {"entries": int(result.valid.size), "valid": int(np.count_nonzero(result.valid)),
            "out_bytes": int(out_bytes)}


def _cli_name(args, kwargs) -> str:
    return f"cli.{args[0][0]}"  # the command, e.g. cli.sweep


# (module, public function, span name or namer, counter)
WRAPPED = (
    ("cli", "main", _cli_name, None),
    ("formats", "read_pgm", "formats.read", _path_bytes),
    ("formats", "read_pfm", "formats.read", _path_bytes),
    ("formats", "encode_pgm", "formats.encode", None),
    ("formats", "encode_pfm", "formats.encode", None),
    ("formats", "encode_cost_volume", "formats.encode", None),
    ("formats", "atomic_write", "formats.write", _data_bytes),
    ("preprocess", "preprocess_sonar_frames", "preprocess.sonar", None),
    ("preprocess", "prepare_camera", "preprocess.camera", None),
    ("sweep", "run_pipeline", "sweep.pipeline", _volume_counts),
    ("sweep", "extract_features", "sweep.features", None),
    ("sweep", "regularize_cost_volume", "sweep.regularize", None),
    ("sweep", "scale_costs", "sweep.softargmin", None),
    ("sweep", "soft_argmin", "sweep.softargmin", None),
    ("sweep", "regress_depth_map", "sweep.regress", None),
    ("geometry", "build_warp_grid", "geometry.warp_grid", _grid_counts),
    ("evaluation", "compute_metrics", "evaluation.metrics", None),
    ("evaluation", "error_vs_distance", "evaluation.metrics", None),
    ("simulator", "render_camera", "simulator.render", None),
    ("simulator", "render_sonar", "simulator.render", None),
    ("simulator", "add_sonar_noise", "simulator.render", None),
    ("simulator", "apply_turbidity", "simulator.render", None),
)


def _wrap(tracer: Tracer, fn, name, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name(args, kwargs) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if counter is not None:
            counting = tracer.open(TRACE)
            try:
                tracer.spans[index]["counts"] = counter(args, kwargs, result)
            finally:
                tracer.close(counting)
        return result
    return wrapper


@contextmanager
def _instrument(tracer: Tracer):
    """Wrap every function in WRAPPED wherever an oasweep module references it."""
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "oasweep" or n.startswith("oasweep."))]
    patched = []
    for module_name, attr, name, counter in WRAPPED:
        original = getattr(sys.modules[f"oasweep.{module_name}"], attr)
        wrapper = _wrap(tracer, original, name, counter)
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)
                patched.append((module, attr, original))
    try:
        yield
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics derived from the spans


def _duration(span) -> float:
    return span["end"] - span["start"]


def _interval_peak(events, ev0: int, ev1: int) -> float:
    """Peak traced bytes between two boundary events, above the level at ev0."""
    peak = max(events[i][1] for i in range(ev0 + 1, ev1 + 1))
    return max(peak - events[ev0][0], 0)


def _op_metrics(spans, children, events, members) -> dict:
    """Per-layer metrics of one op; ``members`` indexes the op's spans."""
    def named(name):
        return [i for i in members if spans[i]["name"] == name]

    def inclusive(name):  # no wrapped function calls another of the same name
        return sum(_duration(spans[i]) for i in named(name))

    def self_time(i):
        return _duration(spans[i]) - sum(_duration(spans[c]) for c in children[i])

    def total(name, key):
        return sum(spans[i]["counts"].get(key, 0) for i in named(name))

    def peak_mb(pairs):
        return max((_interval_peak(events, a, b) for a, b in pairs), default=0) / MB

    m = {
        "cli.preprocess.s": inclusive("cli.preprocess"),
        "cli.sweep.s": inclusive("cli.sweep"),
        "cli.eval.s": inclusive("cli.eval"),
        "cli.self_s": sum(self_time(i) for i in members if spans[i]["name"].startswith("cli.")),
        "formats.read.s": inclusive("formats.read"),
        "formats.read_bytes": total("formats.read", "bytes"),
        "formats.encode.s": inclusive("formats.encode"),
        "formats.write.s": inclusive("formats.write"),
        "formats.write_bytes": total("formats.write", "bytes"),
        "preprocess.sonar.s": inclusive("preprocess.sonar"),
        "preprocess.camera.s": inclusive("preprocess.camera"),
        "sweep.pipeline.s": inclusive("sweep.pipeline"),
        "sweep.features.s": inclusive("sweep.features"),
        "sweep.regularize.s": inclusive("sweep.regularize"),
        "sweep.softargmin.s": inclusive("sweep.softargmin"),
        "sweep.regress.s": inclusive("sweep.regress"),
        "geometry.warp_grid.s": inclusive("geometry.warp_grid"),
        "evaluation.metrics.s": inclusive("evaluation.metrics"),
    }

    pipelines = named("sweep.pipeline")
    # The cost volume is built by the pipeline itself between its named stage
    # calls, so its time is the pipeline's self time.
    m["sweep.cost_volume.s"] = sum(self_time(i) for i in pipelines)
    entries = total("sweep.pipeline", "entries")
    m["sweep.entries"] = entries
    m["sweep.admissible_ratio"] = total("sweep.pipeline", "valid") / entries if entries else 0.0
    m["sweep.pixels_no_plane"] = total("sweep.pipeline", "pixels_no_plane")
    grid_entries = total("geometry.warp_grid", "entries")
    m["geometry.warp_grid.valid_ratio"] = (total("geometry.warp_grid", "valid") / grid_entries
                                           if grid_entries else 0.0)
    m["geometry.warp_grid.out_mb"] = max(
        (spans[i]["counts"]["out_bytes"] for i in named("geometry.warp_grid")), default=0) / MB

    def own(name):
        return [(spans[i]["ev0"], spans[i]["ev1"]) for i in named(name)]

    cost_volume, softargmin = [], []
    for p in pipelines:
        kids = children[p]  # in call order
        names = [spans[c]["name"] for c in kids]
        if "geometry.warp_grid" in names:
            g = names.index("geometry.warp_grid")
            after = next((c for c in kids[g + 1:] if spans[c]["name"] != TRACE), None)
            end = spans[after]["ev0"] if after is not None else spans[p]["ev1"]
            cost_volume.append((spans[kids[g]]["ev1"], end))
        soft = [spans[c] for c in kids if spans[c]["name"] == "sweep.softargmin"]
        if soft:
            softargmin.append((soft[0]["ev0"], soft[-1]["ev1"]))
    m["sweep.cost_volume.peak_mb"] = peak_mb(cost_volume)
    m["sweep.regularize.peak_mb"] = peak_mb(own("sweep.regularize"))
    m["sweep.softargmin.peak_mb"] = peak_mb(softargmin)
    m["geometry.warp_grid.peak_mb"] = peak_mb(own("geometry.warp_grid"))
    return m


def layer_metrics(tracer: Tracer, traced_ops) -> dict:
    """Median over the traced ops of each per-op layer metric, plus set-up layers."""
    spans = tracer.spans
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span["parent"] is not None:
            children[span["parent"]].append(i)
    per_op = [_op_metrics(spans, children, tracer.events,
                          [i for i, s in enumerate(spans) if s["op"] == op])
              for op in traced_ops]
    metrics = {name: statistics.median(row[name] for row in per_op) for name in per_op[0]}
    metrics["simulator.render.s"] = sum(_duration(s) for s in spans
                                        if s["op"] == SETUP and s["name"] == "simulator.render")
    return metrics
