"""Acceptance gate: eleven numbered criteria, one test (and one
pass/fail line under -v) each.

Criteria 1-4 pin the published architecture numbers, 5-9 are exactness
and equivalence properties of the engine, 10-11 run the full desk-scale
segmentation pipeline and its determinism twin. Budget for the whole
file is dominated by the two training runs (about five minutes).
"""
import time

import numpy as np
import pytest

import sunet.tensor as T
from sunet.analyzer import analyze, fov, receptive_field
from sunet.arch import build_classifier, preset, toy_config
from sunet.augment import AugmentConfig
from sunet.data import Dataset, SyntheticSpec, generate_synthetic
from sunet.graph import NetworkGraph
from sunet.metrics import ConfusionMatrix, evaluate, miou
from sunet.optim import (OPTIMIZER_PRESETS, SGD, CosineSchedule,
                         OptimizerConfig)
from sunet.runtime import Network
from sunet.segment import (SegmentationConfig, atrous_equivalence_check,
                           copy_shared, to_segmentation)
from sunet.tensor import Tensor
from sunet.training import TrainConfig, train
from sunet.unet import add_module

PARAM_TARGETS = {"sunet64": 6.9e6, "sunet128": 24.6e6, "sunet7_128": 37.7e6}
LAYER_TARGETS = {"sunet64": 110, "sunet128": 110, "sunet7_128": 170}
STAGE_TRACE = [112, 56, 56, 28, 28, 14, 14, 7, 7, 1]


def _report(name):
    return analyze(build_classifier(preset(name), input_hw=(224, 224)))


def test_c01_parameter_counts_within_5pct():
    t0 = time.perf_counter()
    totals = {name: _report(name)["total_params"] for name in PARAM_TARGETS}
    elapsed = time.perf_counter() - t0
    for name, want in PARAM_TARGETS.items():
        got = totals[name]
        assert abs(got - want) / want <= 0.05, (name, got)
    assert elapsed < 1.0, f"static analysis took {elapsed:.2f}s"
    print(f"[ 1] PASS params {totals} all within 5% of "
          f"{ {k: int(v) for k, v in PARAM_TARGETS.items()} } in {elapsed:.2f}s")


def test_c02_stage_trace_at_224():
    t0 = time.perf_counter()
    for name in PARAM_TARGETS:
        trace = [s[1][1] for s in _report(name)["trace"]]
        assert trace == STAGE_TRACE, (name, trace)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"[ 2] PASS stage trace {STAGE_TRACE} for all presets "
          f"in {elapsed:.2f}s")


def test_c03_layer_counts():
    t0 = time.perf_counter()
    counts = {name: _report(name)["layers"] for name in LAYER_TARGETS}
    elapsed = time.perf_counter() - t0
    for name, want in LAYER_TARGETS.items():
        assert abs(counts[name] - want) <= 1, (name, counts[name])
    assert elapsed < 1.0
    print(f"[ 3] PASS layer counts {counts} == {LAYER_TARGETS} "
          f"in {elapsed:.2f}s")


def test_c04_fov_anchor_19():
    t0 = time.perf_counter()
    g = NetworkGraph(4, (48, 48))
    add_module(g, "m", "input", 4, 4, 8, (48, 48))
    assert fov(g, "m.e2b.conv") == 19

    # gradient-support oracle: positive weights, eval-mode BN, one-hot
    # seed at an interior position of the innermost encoder conv
    net = Network(g, seed=0)
    for name, p in net.params.items():
        if name.endswith(".w"):
            p.data = np.abs(p.data) + 0.01
    x = Tensor(np.full((1, 4, 48, 48), 0.5, dtype=np.float32),
               requires_grad=True)
    out = net.forward(x, training=False, upto="m.e2b.conv")
    seed = np.zeros_like(out.data)
    cy, cx = out.data.shape[2] // 2, out.data.shape[3] // 2
    seed[0, 0, cy, cx] = 1.0
    out.backward(seed)
    support = np.abs(x.grad[0]).sum(axis=0)
    rows = np.flatnonzero(support.sum(axis=1))
    cols = np.flatnonzero(support.sum(axis=0))
    assert rows.size == 19 and cols.size == 19
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"[ 4] PASS innermost encoder fov 19 analytic and by gradient "
          f"support in {elapsed:.2f}s")


def test_c05_gradcheck_every_operator():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)

    def t(*shape, positive=False, offset=0.0):
        data = rng.normal(size=shape)
        if positive:
            data = np.abs(data) + 0.5
        return Tensor(data + offset, requires_grad=True)

    worst = {}

    def check(name, fn, tensors):
        err = T.gradcheck(fn, tensors)
        worst[name] = max(worst.get(name, 0.0), err)
        assert err < 1e-4, (name, err)

    for i in range(5):
        s, d = 1 + i % 2, 1 + (i + 1) % 2
        check("conv2d",
              lambda a, b: T.conv2d(a, b, stride=s, padding=d, dilation=d),
              [t(2, 3, 6, 6), t(4, 3, 3, 3)])
        check("conv2d_bias",
              lambda a, b, c: T.conv2d(a, b, c, padding=1),
              [t(1, 2, 5, 5), t(3, 2, 3, 3), t(1, 3, 1, 1)])
        check("conv2d_transpose",
              lambda a, b: T.conv2d_transpose(
                  a, b, stride=2, padding=1, output_padding=i % 2),
              [t(1, 3, 4, 4), t(3, 2, 3, 3)])
        check("batchnorm_train",
              lambda a, g, b: T.batchnorm(
                  a, g, b, np.zeros((1, 3, 1, 1)), np.ones((1, 3, 1, 1)),
                  training=True),
              [t(2, 3, 4, 4), t(1, 3, 1, 1, positive=True), t(1, 3, 1, 1)])
        check("batchnorm_eval",
              lambda a, g, b: T.batchnorm(
                  a, g, b, np.zeros((1, 3, 1, 1)), np.ones((1, 3, 1, 1)),
                  training=False),
              [t(2, 3, 4, 4), t(1, 3, 1, 1, positive=True), t(1, 3, 1, 1)])
        check("relu", T.relu, [t(2, 3, 4, 4, offset=0.3)])
        check("add", T.add, [t(1, 3, 5, 5), t(1, 3, 5, 5)])
        check("concat", lambda a, b: T.concat_channels([a, b]),
              [t(1, 2, 4, 4), t(1, 3, 4, 4)])
        check("avg_pool",
              lambda a: T.avg_pool2d(a, window=2, stride=1 + i % 2,
                                     padding=(0, 1, 0, 1)),
              [t(1, 2, 5, 5)])
        check("global_avg_pool", T.global_avg_pool, [t(2, 3, 5, 5)])
        check("linear", lambda a, w, b: T.linear(a, w, b),
              [t(2, 3, 1, 1), t(4, 3, 1, 1), t(1, 4, 1, 1)])
        check("bilinear_upsample",
              lambda a: T.bilinear_upsample(a, (7 + i, 9)),
              [t(1, 2, 4, 5)])
        check("phase_mask", lambda a: T.phase_mask(a, (4, 4), (2, 2)),
              [t(1, 2, 8, 8)])
        labels = rng.integers(0, 3, size=(2, 6, 6))
        labels[0, 0, 0] = 255
        check("softmax_cross_entropy",
              lambda a: T.softmax_cross_entropy(a, labels),
              [t(2, 3, 6, 6)])
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    peak = max(worst.values())
    print(f"[ 5] PASS gradcheck on {len(worst)} operators x 5 instances, "
          f"max rel err {peak:.2e} < 1e-4 in {elapsed:.1f}s")


def _toy_pair(output_stride, multigrid):
    g = build_classifier(toy_config(8, num_classes=5), input_hw=(129, 129))
    cfg = SegmentationConfig(num_classes=5, output_stride=output_stride,
                             multigrid=multigrid, upsample_to_input=False)
    return to_segmentation(g, cfg)


def test_c06_atrous_equivalence_and_strided_divergence():
    t0 = time.perf_counter()
    x = np.random.default_rng(3).normal(
        size=(1, 3, 129, 129)).astype(np.float32)
    nets = {}
    for os_ in (32, 16, 8):
        nets[os_] = Network(_toy_pair(os_, True), seed=0)
    copy_shared(nets[32], nets[16])
    copy_shared(nets[32], nets[8])
    d32_16 = atrous_equivalence_check(nets[32], nets[16], x)
    d16_8 = atrous_equivalence_check(nets[16], nets[8], x)
    assert d32_16 < 1e-4 and d16_8 < 1e-4, (d32_16, d16_8)

    strided = Network(_toy_pair(8, False), seed=0)
    copy_shared(nets[32], strided)
    d_str = atrous_equivalence_check(nets[16], strided, x)
    assert d_str > 1e-2, d_str
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"[ 6] PASS feature equivalence 32->16 {d32_16:.1e}, "
          f"16->8 {d16_8:.1e} (<1e-4); strided layout diverges "
          f"{d_str:.1e} (>1e-2) in {elapsed:.1f}s")


def test_c06_atrous_equivalence_with_shifted_bn_state():
    """Equivalence must hold for any BN state, not only the initial one.

    With non-zero BN shift and running mean, BN+ReLU maps a zero to a
    non-zero value, so this fails unless the multigrid phase masks sit
    between the ReLU and the transposed conv.
    """
    x = np.random.default_rng(3).normal(
        size=(1, 3, 129, 129)).astype(np.float32)
    n32 = Network(_toy_pair(32, True), seed=0)
    n16 = Network(_toy_pair(16, True), seed=0)
    rng = np.random.default_rng(11)
    for name, p in n32.params.items():
        if name.endswith(".beta"):
            p.data[:] = rng.normal(0.0, 0.1, size=p.data.shape)
        elif name.endswith(".gamma"):
            p.data[:] = rng.uniform(0.5, 1.5, size=p.data.shape)
    for name, v in n32.stats.items():
        if name.endswith(".running_mean"):
            v[:] = rng.normal(0.0, 0.1, size=v.shape)
        else:
            v[:] = rng.uniform(0.5, 2.0, size=v.shape)
    copy_shared(n32, n16)
    d32_16 = atrous_equivalence_check(n32, n16, x)
    assert d32_16 < 1e-4, d32_16
    print(f"[ 6] PASS feature equivalence 32->16 {d32_16:.1e} (<1e-4) "
          f"with shifted BN state")


def test_c07_rf_preserved_by_conversion():
    t0 = time.perf_counter()
    g = build_classifier(toy_config(8, num_classes=5), input_hw=(129, 129))
    seg = to_segmentation(g, SegmentationConfig(num_classes=5,
                                                output_stride=8))
    before = receptive_field(g)
    after = receptive_field(seg)
    shared = [n for n in before if n in after]
    assert len(shared) > 100
    bad = [n for n in shared
           if (before[n][0].rf, before[n][1].rf)
           != (after[n][0].rf, after[n][1].rf)]
    assert not bad, bad
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"[ 7] PASS receptive field identical on {len(shared)} surviving "
          f"nodes after conversion in {elapsed:.2f}s")


def test_c08_schedule_and_sgd_exactness():
    sched = CosineSchedule(400)
    assert sched.lr_at(0.25, 0) == 0.25
    assert sched.lr_at(0.25, 200) == 0.125
    assert sched.lr_at(0.25, 400) == 0.0

    cfg = OptimizerConfig(lr0=0.1, momentum=0.9, nesterov=True,
                          weight_decay=0.01)
    p = Tensor(np.full((1, 1, 1, 1), 1.0, dtype=np.float64),
               requires_grad=True)
    opt = SGD({"p": p}, cfg, decay_names={"p"})
    theta, v = 1.0, 0.0
    for _ in range(10):
        p.grad = np.full((1, 1, 1, 1), 0.5, dtype=np.float64)
        opt.step(cfg.lr0)
        g = 0.5 + cfg.weight_decay * theta
        v = cfg.momentum * v + g
        theta -= cfg.lr0 * (g + cfg.momentum * v)
        assert float(p.data.reshape(())) == pytest.approx(theta, abs=1e-15)
        p.grad = None
    print("[ 8] PASS cosine endpoints exact (lr0, lr0/2, 0); "
          "10-step momentum recurrence matches to 1e-15")


def test_c09_miou_brute_force_oracle():
    rng = np.random.default_rng(9)
    for trial in range(20):
        truth = rng.integers(0, 2, size=(16, 16))
        pred = rng.integers(0, 2, size=(16, 16))
        cm = ConfusionMatrix(2)
        cm.update(truth, pred)
        got = miou(cm)["miou"]
        ious = []
        for c in range(2):
            inter = np.sum((truth == c) & (pred == c))
            union = np.sum((truth == c) | (pred == c))
            if union:
                ious.append(inter / union)
        assert abs(got - np.mean(ious)) < 1e-12, trial
    cm = ConfusionMatrix(2)
    cm.update(truth, truth)
    assert miou(cm)["miou"] == 1.0
    print("[ 9] PASS mIoU matches per-pixel set computation on 20 random "
          "label maps (1e-12); perfect prediction scores 1.0")


SEG_SCALES = (0.5, 0.75, 1.0, 1.25)


def _seg_pipeline(tmp_root, tag):
    """Train the tiny stacked net end to end; returns losses and mIoUs."""
    t0 = time.perf_counter()
    train_spec = SyntheticSpec(canvas_hw=(128, 128), classes=4,
                               shapes_per_image=(1, 2), noise=8.0,
                               void_border=2, seed=100)
    val_spec = SyntheticSpec(canvas_hw=(128, 128), classes=4,
                             shapes_per_image=(1, 2), noise=8.0,
                             void_border=2, seed=200)
    tr = Dataset(generate_synthetic(train_spec, 500,
                                    str(tmp_root / f"{tag}_train")))
    va = Dataset(generate_synthetic(val_spec, 50,
                                    str(tmp_root / f"{tag}_val"),
                                    split="val"))
    g = build_classifier(toy_config(16, num_classes=4), input_hw=(64, 64))
    seg = to_segmentation(g, SegmentationConfig(num_classes=4,
                                                output_stride=16))
    net = Network(seg, seed=0)
    cfg = TrainConfig(iters=2000, optimizer=OPTIMIZER_PRESETS["toy"],
                      schedule="cosine",
                      augment=AugmentConfig(crop_hw=(64, 64)), seed=0)
    res = train(net, tr, cfg)
    single = evaluate(net, va, scales=(1.0,), flip=False)
    multi = evaluate(net, va, scales=SEG_SCALES, flip=True)
    return {
        "losses": [r[2] for r in res["rows"]],
        "single": single["miou"],
        "multi": multi["miou"],
        "per_class": single["per_class"],
        "seconds": time.perf_counter() - t0,
    }


@pytest.fixture(scope="module")
def seg_run(tmp_path_factory):
    return _seg_pipeline(tmp_path_factory.mktemp("seg"), "a")


@pytest.fixture(scope="module")
def seg_run_repeat(tmp_path_factory):
    return _seg_pipeline(tmp_path_factory.mktemp("seg2"), "b")


def test_c10_end_to_end_segmentation(seg_run):
    single, multi = seg_run["single"], seg_run["multi"]
    assert single >= 0.85, single
    assert multi >= single - 0.02, (single, multi)
    assert seg_run["seconds"] <= 30 * 60
    print(f"[10] PASS 2000-iteration run: single-scale mIoU {single:.4f} "
          f">= 0.85, multi-scale+flip {multi:.4f} >= single - 0.02, "
          f"in {seg_run['seconds']:.0f}s")


def test_c11_bit_exact_determinism(seg_run, seg_run_repeat):
    assert seg_run_repeat["losses"] == seg_run["losses"]
    assert seg_run_repeat["single"] == seg_run["single"]
    print(f"[11] PASS repeat run reproduces all 2000 losses and final "
          f"mIoU {seg_run['single']:.4f} bit-exactly")
