"""Spans around the calls into each sunet module, recorded from outside.

The tracer patches the names that callers look up at call time (for
example ``sunet.tensor.conv2d``, which the runtime calls as ``T.conv2d``,
and ``sunet.training.augment_sample``, which ``train()`` imported by
name) and restores them afterwards. Spans are kept in memory as
``[name, start, end, parent, extra]`` and written out when the run ends.
Nothing under ``src/`` changes.
"""
from __future__ import annotations

import contextlib
import json
import os
import statistics
import time
import tracemalloc

import sunet.augment
import sunet.data
import sunet.metrics
import sunet.optim
import sunet.runtime
import sunet.tensor
import sunet.training

TENSOR_OPS = ("conv2d", "conv2d_transpose", "batchnorm", "relu", "add",
              "concat_channels", "avg_pool2d", "bilinear_upsample",
              "phase_mask", "softmax_cross_entropy")

MIB = float(1 << 20)


def _macs(op: str, args, out) -> int:
    """Multiply-accumulates of one conv call, from its argument shapes."""
    x, w = args[0].data.shape, args[1].data.shape
    if op == "conv2d":      # out (n, co, ho, wo), weight (co, ci, kh, kw)
        return out.data.size * w[1] * w[2] * w[3]
    # conv2d_transpose: every input sample scatters a (co, kh, kw) patch
    return x[0] * x[1] * x[2] * x[3] * w[1] * w[2] * w[3]


class Tracer:
    """Records nested spans while its patches are installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    # ------------------------------------------------------------ spans

    def _enter(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _exit(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def region(self, name: str):
        """A span around a block of the benchmark's own code."""
        span = self._enter(name)
        try:
            yield span
        finally:
            self._exit(span)

    def wrap(self, name: str, fn, after=None):
        """fn with a span around each call; after(span, args, result) may
        fill the span's extra field."""
        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if after is not None:
                after(span, args, result)
            return result
        return traced

    def wrap_op(self, op: str, fn):
        """An engine op whose result's backward closure is timed too."""
        def after(span, args, out):
            if op in ("conv2d", "conv2d_transpose"):
                span[4] = _macs(op, args, out)
            if out._backward is not None:
                out._backward = self.wrap(f"tensor.{op}.bwd", out._backward)
        return self.wrap(f"tensor.{op}", fn, after)

    # ----------------------------------------------------------- patches

    def _patches(self):
        """(owner, attribute, replacement) for every traced call site."""
        T, tr, aug, met = sunet.tensor, sunet.training, sunet.augment, sunet.metrics
        Net = sunet.runtime.Network
        ops = {op: self.wrap_op(op, getattr(T, op)) for op in TENSOR_OPS}
        out = [(T, op, fn) for op, fn in ops.items()]

        def checkpoint_bytes(span, args, _):
            span[4] = os.path.getsize(args[0])

        def rebuilt(span, args, graph):
            span[4] = graph is not args[0]

        out += [
            (T.Tensor, "backward", self.wrap("tensor.backward", T.Tensor.backward)),
            (Net, "__init__", self.wrap("runtime.init", Net.__init__)),
            (Net, "forward", self.wrap("runtime.forward", Net.forward)),
            (tr, "train", self.wrap("training.train", tr.train)),
            (tr, "augment_sample", self.wrap("augment.sample", tr.augment_sample)),
            (tr, "normalize_image", self.wrap("training.normalize", tr.normalize_image)),
            (tr, "softmax_cross_entropy",
             self.wrap("training.loss", self.wrap_op("softmax_cross_entropy",
                                                     tr.softmax_cross_entropy))),
            (tr, "write_checkpoint",
             self.wrap("io.checkpoint_write", tr.write_checkpoint, checkpoint_bytes)),
            (aug, "rotate_pair", self.wrap("augment.rotate", aug.rotate_pair)),
            (aug, "resize_bilinear", self.wrap("augment.resize", aug.resize_bilinear)),
            (aug, "resize_nearest", self.wrap("augment.resize", aug.resize_nearest)),
            (sunet.optim.SGD, "step", self.wrap("optim.step", sunet.optim.SGD.step)),
            (met, "rebuild_for_input",
             self.wrap("segment.rebuild", met.rebuild_for_input, rebuilt)),
            (met, "copy_shared", self.wrap("segment.copy_shared", met.copy_shared)),
            (met, "resize_bilinear", self.wrap("metrics.resize", met.resize_bilinear)),
            (met, "softmax_probs", self.wrap("metrics.softmax", met.softmax_probs)),
            (met.ConfusionMatrix, "update",
             self.wrap("metrics.confusion", met.ConfusionMatrix.update)),
            (sunet.data, "generate_synthetic",
             self.wrap("data.generate", sunet.data.generate_synthetic)),
            (sunet.data.Dataset, "__init__",
             self.wrap("data.load", sunet.data.Dataset.__init__)),
        ]
        return out

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced call site for the duration of the block."""
        saved = []
        try:
            for owner, attr, fn in self._patches():
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, fn)
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def write(self, path: str, meta: dict) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = dict(meta, names=names,
                   spans=[[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans])
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


@contextlib.contextmanager
def forward_peaks(peaks: list):
    """Append the peak traced memory (MiB) above its starting level of
    every Network.forward call. tracemalloc must be running."""
    Net = sunet.runtime.Network
    orig = Net.__dict__["forward"]

    def forward(self, *args, **kwargs):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            return orig(self, *args, **kwargs)
        finally:
            peaks.append((tracemalloc.get_traced_memory()[1] - base) / MIB)

    Net.forward = forward
    try:
        yield peaks
    finally:
        Net.forward = orig


# --------------------------------------------------------------- metrics

def _unit(name: str) -> str:
    for suffix, unit in (("gflop_per_s", "GFLOP/s"), ("images_per_s", "1/s"),
                         ("_ms", "ms"), ("_s", "s"), ("_mib", "MiB"),
                         ("_pct", "%"), ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


PER_LAYER = (
    ["augment.sample_ms", "augment.rotate_ms", "augment.resize_ms",
     "augment.samples",
     "training.data_ms", "training.forward_ms", "training.loss_ms",
     "training.backward_ms", "optim.step_ms"]
    + [f"tensor.{op}.{what}" for op in TENSOR_OPS
       for what in ("fwd_ms", "bwd_ms", "calls")]
    + ["tensor.conv2d.gflop_per_s", "tensor.conv2d_transpose.gflop_per_s",
       "runtime.forward_ms", "runtime.init_ms", "runtime.inits",
       "runtime.forward_peak_mib",
       "segment.rebuild_ms", "segment.copy_shared_ms", "segment.rebuilds",
       "metrics.resize_ms", "metrics.softmax_ms", "metrics.confusion_ms",
       "io.checkpoint_write_ms", "io.checkpoint_bytes",
       "data.generate_s", "data.load_s", "graph.build_ms",
       "trace.images_per_s", "trace.overhead_pct"])
PER_LAYER_UNITS = {name: _unit(name) for name in PER_LAYER}


def _dur(span) -> float:
    return span[2] - span[1]


def _durations(tracer: Tracer, name: str) -> list[float]:
    return [_dur(s) for s in tracer.spans if s[0] == name]


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def layer_metrics(setup: Tracer, rounds: Tracer, units: int, forward_peak_mib: float,
                  traced_rate: float, untraced_rate: float) -> dict[str, float]:
    """Per-layer figures: times per unit of work (training iteration or
    inferred image) in the traced rounds; per call for Network
    construction and checkpoint writes; per set-up for the set-up steps.
    A run whose training failed before a traced round has no units, and
    its per-unit figures read 0."""
    units = max(units, 1)
    spans = rounds.spans
    names = [s[0] for s in spans]

    def total(name, parent=None):
        return sum(_dur(s) for s in spans if s[0] == name
                   and (parent is None or (s[3] >= 0 and names[s[3]] == parent)))

    def per_unit_ms(name, parent=None):
        return 1e3 * total(name, parent) / units

    def count(name):
        return sum(1 for s in spans if s[0] == name)

    m = {
        "augment.sample_ms": per_unit_ms("augment.sample"),
        "augment.rotate_ms": per_unit_ms("augment.rotate"),
        "augment.resize_ms": per_unit_ms("augment.resize"),
        "augment.samples": count("augment.sample") / units,
        "training.data_ms": (per_unit_ms("augment.sample", "training.train")
                             + per_unit_ms("training.normalize", "training.train")),
        "training.forward_ms": per_unit_ms("runtime.forward", "training.train"),
        "training.loss_ms": per_unit_ms("training.loss"),
        "training.backward_ms": per_unit_ms("tensor.backward", "training.train"),
        "optim.step_ms": per_unit_ms("optim.step"),
    }
    for op in TENSOR_OPS:
        m[f"tensor.{op}.fwd_ms"] = per_unit_ms(f"tensor.{op}")
        m[f"tensor.{op}.bwd_ms"] = per_unit_ms(f"tensor.{op}.bwd")
        m[f"tensor.{op}.calls"] = count(f"tensor.{op}") / units
    for op in ("conv2d", "conv2d_transpose"):
        secs = total(f"tensor.{op}")
        flops = 2.0 * sum(s[4] for s in spans if s[0] == f"tensor.{op}")
        m[f"tensor.{op}.gflop_per_s"] = flops / secs / 1e9 if secs else 0.0
    ckpts = [s for s in spans if s[0] == "io.checkpoint_write"]
    m.update({
        "runtime.forward_ms": per_unit_ms("runtime.forward"),
        "runtime.init_ms": 1e3 * _mean(_durations(setup, "runtime.init")
                                       + _durations(rounds, "runtime.init")),
        "runtime.inits": count("runtime.init") / units,
        "runtime.forward_peak_mib": forward_peak_mib,
        "segment.rebuild_ms": per_unit_ms("segment.rebuild"),
        "segment.copy_shared_ms": per_unit_ms("segment.copy_shared"),
        "segment.rebuilds": sum(1 for s in spans
                                if s[0] == "segment.rebuild" and s[4]) / units,
        "metrics.resize_ms": per_unit_ms("metrics.resize"),
        "metrics.softmax_ms": per_unit_ms("metrics.softmax"),
        "metrics.confusion_ms": per_unit_ms("metrics.confusion"),
        "io.checkpoint_write_ms": 1e3 * _mean(_dur(s) for s in ckpts),
        "io.checkpoint_bytes": _mean(s[4] for s in ckpts),
        "data.generate_s": _mean(_durations(setup, "data.generate")),
        "data.load_s": _mean(_durations(setup, "data.load")),
        "graph.build_ms": 1e3 * _mean(_durations(setup, "graph.build")),
        "trace.images_per_s": traced_rate,
        "trace.overhead_pct": (100.0 * (untraced_rate / traced_rate - 1.0)
                               if traced_rate else 0.0),
    })
    assert set(m) == set(PER_LAYER), set(m) ^ set(PER_LAYER)
    return m
