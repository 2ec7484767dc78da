"""The three workloads: set-up, timed rounds, and their correctness checks.

A run sets up once, runs untimed warm-up rounds, then whole rounds until
the timed part reaches ``--seconds``. Further set-ups are spread over the
timed part, outside its clock, so that ``setup_s`` (their median) sees
the machine over the same stretch of time as ``images_per_s``. A
training round is one ``training.train`` call of a fixed number of
iterations; an inference round is one validation image predicted and
scored. After the rounds come the whole-run checks, for training the
trained-weights equivalence check, and one pass under tracemalloc for
the peak memory.

Operations: an inference run attempts one operation per image. A
training run attempts a fixed set, whatever its speed: the training
itself (all its rounds, failed if ``train`` raises) and one
trained-weights equivalence check per stride pair. So the share of
failed operations is the same in every run.
"""
from __future__ import annotations

import contextlib
import os
import shutil
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

import sunet.data as data
import sunet.metrics as metrics
import sunet.segment as segment
import sunet.training as training
from sunet.arch import build_classifier, toy_config
from sunet.augment import AugmentConfig
from sunet.graph import NetworkGraph
from sunet.optim import OPTIMIZER_PRESETS, TrainError
from sunet.runtime import Network

import checks
import tracing

CANVAS = (128, 128)
CLASSES = 4
TOY_WIDTH = 16
TRAIN_IMAGES = 128
VAL_IMAGES = 64
SETUP_REPEATS = 11
WARMUP_SECONDS = 2.0
SCALES = (0.5, 0.75, 1.0, 1.25)
MEMORY_ITERS = 3          # two steps hold their tapes at once, see README
END_TO_END_UNITS = {"setup_s": "s", "images_per_s": "1/s", "peak_mib": "MiB"}
# fixed, seed-independent input for the equivalence and reload checks
CHECK_INPUT_SEED = 3


@dataclass(frozen=True)
class Workload:
    name: str
    output_stride: int
    crop: int                       # network input extent (square)
    augment: AugmentConfig | None   # None: inference workload
    round_iters: int = 0            # training iterations per round
    check_strides: tuple = ()       # (coarse, fine) equivalence pairs

    @property
    def training(self) -> bool:
        return self.augment is not None


WORKLOADS = {w.name: w for w in (
    Workload("train-aug", 16, 64,
             AugmentConfig(crop_hw=(64, 64), scale_range=(0.5, 2.0),
                           max_rotate=10.0, hflip_prob=0.5),
             round_iters=8, check_strides=((32, 16),)),
    Workload("train-os8", 8, 96,
             AugmentConfig(crop_hw=(96, 96), scale_range=(1.0, 1.0),
                           max_rotate=0.0, hflip_prob=0.5),
             round_iters=6, check_strides=((32, 16), (16, 8))),
    Workload("infer-multiscale", 16, CANVAS[0], None),
)}


def seg_graph(output_stride: int, hw) -> NetworkGraph:
    g = build_classifier(toy_config(TOY_WIDTH, num_classes=CLASSES), input_hw=hw)
    return segment.to_segmentation(g, segment.SegmentationConfig(
        num_classes=CLASSES, output_stride=output_stride))


def seeded_state(net: Network, seed: int) -> None:
    """Non-trivial BN state from the seed, so eval-mode BN is not the identity."""
    rng = np.random.default_rng([seed, 7])
    for name, t in net.params.items():
        if name.endswith(".gamma"):
            t.data = (1.0 + 0.1 * rng.standard_normal(t.data.shape)).astype(net.dtype)
        elif name.endswith(".beta") or name.endswith(".b"):
            t.data = (0.1 * rng.standard_normal(t.data.shape)).astype(net.dtype)
    for name, arr in net.stats.items():
        if name.endswith(".running_mean"):
            net.stats[name] = 0.2 * rng.standard_normal(arr.shape)
        else:
            net.stats[name] = rng.uniform(0.5, 2.0, arr.shape)


def setup(w: Workload, seed: int, out_dir: str, tracer):
    """Generate and load the dataset, build the graph, initialise the net."""
    count, split = (TRAIN_IMAGES, "train") if w.training else (VAL_IMAGES, "val")
    spec = data.SyntheticSpec(canvas_hw=CANVAS, classes=CLASSES,
                              shapes_per_image=(1, 2), noise=8.0,
                              void_border=2, seed=seed)
    ds = data.Dataset(data.generate_synthetic(spec, count, out_dir, split=split))
    with tracer.region("graph.build") if tracer else contextlib.nullcontext():
        graph = seg_graph(w.output_stride, (w.crop, w.crop))
    net = Network(graph, seed=seed)
    if not w.training:
        seeded_state(net, seed)
    return ds, net


class Run:
    """One benchmark run of one workload."""

    def __init__(self, w: Workload, seed: int, seconds: float, work: str,
                 trace_path: str | None = None):
        """work is a scratch directory; with trace_path set the run is
        traced and its spans are written there."""
        self.w, self.seed, self.seconds, self.work = w, seed, seconds, work
        self.trace_path = trace_path
        self.trace = trace_path is not None
        self.setup_tracer = tracing.Tracer() if self.trace else None
        self.tracer = tracing.Tracer()
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.setup_times: list[float] = []
        self.rounds_run = 0     # warm-up rounds included
        self.rounds: list[tuple[float, int, bool]] = []  # (seconds, images, traced)
        self.traced_units = 0   # training iterations or images in traced rounds
        self.train_error: str | None = None
        self.diffs: list[float] = []

    # --------------------------------------------------------------- run

    def execute(self) -> dict:
        self.ds, self.net = self._timed_setup()
        self.run_dir = os.path.join(self.work, "run")
        if self.w.training:
            self._prepare_training()
        else:
            self.truths, self.preds = [], []
            self.cm = metrics.ConfusionMatrix(self.ds.classes, self.ds.ignore_index)
        # warm-up rounds: the first rounds of a process run slower than
        # later ones; they are checked but not timed
        warm = 0.0
        while warm < WARMUP_SECONDS and self.train_error is None:
            warm += self._round(traced=False)[0]
        timed = 0.0
        while self.train_error is None and (
                timed < self.seconds or (self.trace and len(self.rounds) < 2)):
            traced = self.trace and len(self.rounds) % 2 == 1
            dt, images, units = self._round(traced)
            if self.train_error is not None:
                break
            self.rounds.append((dt, images, traced))
            self.traced_units += units if traced else 0
            timed += dt
            # the other set-ups are spread evenly over the timed part
            while (len(self.setup_times) < SETUP_REPEATS and
                   timed >= len(self.setup_times) * self.seconds / SETUP_REPEATS):
                self._timed_setup()
        while len(self.setup_times) < SETUP_REPEATS:
            self._timed_setup()
        if self.w.training:
            self._training_checks()
        else:
            self._inference_checks()
        peak, forward_peak = self._memory_pass()
        for p in self.problems:
            print(f"check failed: {p}", file=sys.stderr)
        if self.diffs:
            print("equivalence differences: "
                  + ", ".join(f"{c}->{f} {d:.3g}"
                              for (c, f), d in zip(self.w.check_strides, self.diffs))
                  + f" (gate {checks.EQUIVALENCE_GATE:g})", file=sys.stderr)
        rate = self._rate(traced=False)
        if self.trace:
            traced_rate = self._rate(traced=True)
            self.tracer.write(self.trace_path,
                              {"workload": self.w.name, "seed": self.seed})
            values = tracing.layer_metrics(self.setup_tracer, self.tracer,
                                           self.traced_units, forward_peak,
                                           traced_rate, rate)
            units = tracing.PER_LAYER_UNITS
        else:
            values = {"setup_s": statistics.median(self.setup_times),
                      "images_per_s": rate, "peak_mib": peak}
            units = END_TO_END_UNITS
        return {"correct": not self.problems, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}

    def _timed_setup(self):
        """One timed set-up, the first kept for the run and the others
        discarded; returns the dataset and network."""
        k = len(self.setup_times)
        out_dir = os.path.join(self.work, f"data{k}")
        ctx = self.setup_tracer.installed() if self.trace else contextlib.nullcontext()
        with ctx:
            t0 = time.perf_counter()
            ds, net = setup(self.w, self.seed, out_dir, self.setup_tracer)
            self.setup_times.append(time.perf_counter() - t0)
        if k:
            shutil.rmtree(out_dir)
        return ds, net

    def _rate(self, traced: bool) -> float:
        """Median images per second over the timed rounds; 0 when training
        failed before any such round finished."""
        rates = [images / dt for dt, images, t in self.rounds if t == traced]
        return statistics.median(rates) if rates else 0.0

    def _round(self, traced: bool) -> tuple[float, int, int]:
        """Runs the next round, traced or not; returns (seconds, images,
        units of work)."""
        r = self.rounds_run
        self.rounds_run += 1
        with self.tracer.installed() if traced else contextlib.nullcontext():
            if self.w.training:
                return self._train_round(r)
            return self._infer_round(r)

    # ---------------------------------------------------------- training

    def _train_config(self, iters: int, round_index: int) -> training.TrainConfig:
        # constant learning rate: the step schedule never reaches its first decay
        return training.TrainConfig(
            iters=iters, optimizer=OPTIMIZER_PRESETS["toy"], schedule="step",
            step_every=iters, augment=self.w.augment,
            seed=self.seed * 100_000 + round_index)

    def _prepare_training(self) -> None:
        self.check_x = np.random.default_rng(CHECK_INPUT_SEED).normal(
            size=(1, 3) + CANVAS).astype(np.float32)
        self.check_nets = {os_: Network(seg_graph(os_, CANVAS), seed=self.seed)
                           for pair in self.w.check_strides for os_ in pair}
        # before training the identity holds, which shows the check is sound
        for (coarse, fine), d in zip(self.w.check_strides, self._equivalence_diffs()):
            if not checks.equivalence_holds(d):
                self.problems.append(
                    f"fresh-init equivalence {coarse}->{fine} off by {d:.3g}")
        self.losses: list[float] = []

    def _train_round(self, r: int) -> tuple[float, int, int]:
        """One train() call; a TrainError (a non-finite loss) ends the
        training and is reported, not raised."""
        cfg = self._train_config(self.w.round_iters, r)
        t0 = time.perf_counter()
        try:
            res = training.train(self.net, self.ds, cfg, out_dir=self.run_dir)
        except TrainError as exc:
            self.train_error = f"round {r}: {exc}"
            return time.perf_counter() - t0, 0, 0
        dt = time.perf_counter() - t0
        self.losses += [row[2] for row in res["rows"]]
        iters = len(res["rows"])
        return dt, iters * cfg.optimizer.batch_size, iters

    def _equivalence_diffs(self) -> list[float]:
        """Copy the network's weights into every checked stride and compare."""
        for net in self.check_nets.values():
            segment.copy_shared(self.net, net)
        return [segment.atrous_equivalence_check(
                    self.check_nets[coarse], self.check_nets[fine], self.check_x)
                for coarse, fine in self.w.check_strides]

    def _training_checks(self) -> None:
        """The training operation and one equivalence operation per pair."""
        self.attempted += 1
        if self.train_error is not None:
            self.failed += 1
            self.problems.append(f"training failed: {self.train_error}")
        else:
            self.problems += checks.loss_problems(self.losses)
            self.problems += checks.reload_problems(
                self.net, os.path.join(self.run_dir, "checkpoint.sunc"),
                self.check_x[:, :, :self.w.crop, :self.w.crop])
        self.diffs = self._equivalence_diffs()
        for d in self.diffs:
            self.attempted += 1
            if not checks.equivalence_holds(d):
                self.failed += 1

    # --------------------------------------------------------- inference

    def _infer_round(self, r: int) -> tuple[float, int, int]:
        i = r % len(self.ds)
        img, mask = self.ds.images[i], self.ds.masks[i]
        t0 = time.perf_counter()
        pred = metrics.predict_labels(self.net, data.normalize_image(img),
                                      scales=SCALES, flip=True)
        self.cm.update(mask, pred)
        dt = time.perf_counter() - t0
        self.truths.append(mask)
        self.preds.append(pred)
        self.attempted += 1
        return dt, 1, 1

    def _inference_checks(self) -> None:
        self.problems += checks.miou_problems(
            metrics.miou(self.cm)["miou"], self.truths, self.preds,
            self.ds.classes, self.ds.ignore_index)
        for i in range(min(2, len(self.preds))):
            x = data.normalize_image(self.ds.images[i])
            probs = metrics.multi_scale_inference(self.net, x, SCALES, flip=True)
            self.problems += checks.probability_problems(probs)
            if not np.array_equal(np.argmax(probs, axis=0), self.preds[i]):
                self.problems.append(f"image {i}: labels are not the argmax "
                                     "of the averaged probabilities")
            mirrored = metrics.multi_scale_inference(
                self.net, np.ascontiguousarray(x[:, :, ::-1]), SCALES, flip=True)
            self.problems += checks.mirror_problems(probs, mirrored)

    # ------------------------------------------------------------ memory

    def _memory_pass(self) -> tuple[float, float]:
        """One more unit of the same work under tracemalloc, after the timed
        rounds so it cannot slow them. Returns (peak MiB, peak MiB above
        the starting level of the largest Network.forward); (0, 0) when
        training failed."""
        if self.train_error is not None:
            return 0.0, 0.0
        forward_peaks: list[float] = []
        tracemalloc.start()
        try:
            ctx = tracing.forward_peaks(forward_peaks) if self.trace \
                else contextlib.nullcontext()
            with ctx:
                if self.w.training:
                    training.train(self.net, self.ds,
                                   self._train_config(MEMORY_ITERS, self.rounds_run),
                                   out_dir=self.run_dir)
                else:
                    cm = metrics.ConfusionMatrix(self.ds.classes, self.ds.ignore_index)
                    pred = metrics.predict_labels(
                        self.net, data.normalize_image(self.ds.images[0]),
                        scales=SCALES, flip=True)
                    cm.update(self.ds.masks[0], pred)
            peak = tracemalloc.get_traced_memory()[1] / tracing.MIB
        finally:
            tracemalloc.stop()
        return peak, max(forward_peaks, default=0.0)
