"""Training loop: determinism, checkpoints, and loss behaviour."""
import os
import tracemalloc

import numpy as np
import pytest

from sunet.arch import build_classifier, toy_config
from sunet.augment import AugmentConfig
from sunet.graph import GraphError, NetworkGraph
from sunet.io import read_checkpoint, write_checkpoint
from sunet.optim import SGD, OptimizerConfig, TrainError
from sunet.runtime import Network
from sunet.segment import SegmentationConfig, to_segmentation
from sunet.training import (TrainConfig, load_checkpoint, loss_csv,
                            save_checkpoint, train)


def tiny_graph(hw=(8, 8), classes=2):
    """Per-pixel linear classifier: one 1x1 conv with bias."""
    g = NetworkGraph(3, hw)
    g.add("cls", "conv", ["input"], cin=3, cout=classes, k=(1, 1),
          s=(1, 1), d=(1, 1), p=(0, 0), bias=True)
    return g


class ListDataset:
    def __init__(self, images, masks, ignore_index=255):
        self.images = list(images)
        self.masks = list(masks)
        self.ignore_index = ignore_index

    def __len__(self):
        return len(self.images)


def separable_dataset(n=4, hw=(8, 8), seed=0):
    """Class is decided by whether the red channel clears 128."""
    rng = np.random.default_rng(seed)
    images, masks = [], []
    for _ in range(n):
        img = rng.integers(0, 256, size=(3,) + hw, dtype=np.uint8)
        images.append(img)
        masks.append((img[0] > 128).astype(np.uint8))
    return ListDataset(images, masks)


def cfg(iters, lr=0.5, batch=2, seed=0, **kw):
    opt = OptimizerConfig(lr0=lr, momentum=0.9, weight_decay=0.0,
                          batch_size=batch)
    return TrainConfig(iters=iters, optimizer=opt, seed=seed, **kw)


def conv_graph(hw=(32, 32), classes=2, width=16):
    """Two 3x3 convs around a BN-ReLU: the tape dominates the memory."""
    g = NetworkGraph(3, hw)
    g.add("c1", "conv", ["input"], cin=3, cout=width, k=(3, 3), s=(1, 1),
          d=(1, 1), p=(1, 1), bias=False)
    g.add("bn", "bn_relu", ["c1"], c=width, decay=0.99, eps=1e-5)
    g.add("cls", "conv", ["bn"], cin=width, cout=classes, k=(3, 3),
          s=(1, 1), d=(1, 1), p=(1, 1), bias=True)
    return g


def test_config_validation():
    opt = OptimizerConfig(lr0=0.1)
    with pytest.raises(TrainError):
        TrainConfig(iters=-1, optimizer=opt)
    with pytest.raises(TrainError):
        TrainConfig(iters=1, optimizer=opt, schedule="linear")
    with pytest.raises(TrainError):
        TrainConfig(iters=1, optimizer=opt, schedule="step")
    with pytest.raises(TrainError):
        TrainConfig(iters=1, optimizer=opt, checkpoint_every=-2)


def test_empty_dataset_rejected():
    net = Network(tiny_graph())
    with pytest.raises(TrainError, match="empty"):
        train(net, ListDataset([], []), cfg(1))


def test_mixed_image_sizes_without_augmentation_name_the_entry():
    base = separable_dataset(n=4)
    images = list(base.images)
    images[2] = images[2][:, :6]
    net = Network(tiny_graph())
    with pytest.raises(TrainError, match=r"dataset entry 2: image \(6, 8\) "
                                          r"differs from entry 0's \(8, 8\)"):
        train(net, ListDataset(images, base.masks), cfg(1))


def test_zero_iterations_checkpoint_is_initialization(tmp_path):
    net = Network(tiny_graph(), seed=3)
    before = {k: v.copy() for k, v in net.state_entries().items()}
    res = train(net, separable_dataset(), cfg(0), out_dir=str(tmp_path))
    assert res["rows"] == []
    entries, iteration, digest = read_checkpoint(res["checkpoint"])
    assert iteration == 0
    assert digest == net.graph.digest
    for k, v in before.items():
        assert np.array_equal(entries[k], v), k
    # velocity buffers exist and are zero at init
    vel = [k for k in entries if k.startswith("vel/")]
    assert vel and all(not entries[k].any() for k in vel)
    assert (tmp_path / "loss.csv").read_text() == "iter,lr,loss\n"


def test_zero_lr_gives_constant_loss():
    ds = separable_dataset(n=1)
    net = Network(tiny_graph(), seed=1)
    res = train(net, ds, cfg(6, lr=0.0, batch=1))
    losses = [r[2] for r in res["rows"]]
    assert len(set(losses)) == 1


def test_loss_decreases_on_separable_task():
    ds = separable_dataset(n=1)
    net = Network(tiny_graph(), seed=2)
    res = train(net, ds, cfg(40, lr=0.3, batch=1, schedule="cosine"))
    losses = [r[2] for r in res["rows"]]
    assert all(b < a for a, b in zip(losses, losses[1:]))
    assert losses[-1] < 0.25 * losses[0]


def test_fixed_seed_reproduces_loss_curve():
    ds = separable_dataset(n=5)
    r1 = train(Network(tiny_graph(), seed=0), ds, cfg(12, seed=9))
    r2 = train(Network(tiny_graph(), seed=0), ds, cfg(12, seed=9))
    assert r1["rows"] == r2["rows"]
    r3 = train(Network(tiny_graph(), seed=0), ds, cfg(12, seed=10))
    assert [r[2] for r in r3["rows"]] != [r[2] for r in r1["rows"]]


def test_csv_written_and_parses(tmp_path):
    ds = separable_dataset()
    net = Network(tiny_graph())
    train(net, ds, cfg(3), out_dir=str(tmp_path))
    lines = (tmp_path / "loss.csv").read_text().strip().split("\n")
    assert lines[0] == "iter,lr,loss"
    assert len(lines) == 4
    for i, line in enumerate(lines[1:]):
        it, lr, loss = line.split(",")
        assert int(it) == i
        float(lr), float(loss)


def test_loss_csv_formatting():
    text = loss_csv([(0, 0.5, 1.25), (1, 0.25, 0.625)])
    assert text == "iter,lr,loss\n0,0.5,1.25\n1,0.25,0.625\n"


def test_checkpoint_roundtrip_byte_identical(tmp_path):
    ds = separable_dataset()
    net = Network(tiny_graph(), seed=4)
    opt = SGD(net.params, OptimizerConfig(lr0=0.1),
              decay_names=net.decay_param_names())
    train(net, ds, cfg(5))
    p1 = str(tmp_path / "a.sunc")
    save_checkpoint(p1, net, opt, iteration=5)

    fresh = Network(tiny_graph(), seed=99)
    fopt = SGD(fresh.params, OptimizerConfig(lr0=0.1),
               decay_names=fresh.decay_param_names())
    assert load_checkpoint(p1, fresh, fopt) == 5
    p2 = str(tmp_path / "b.sunc")
    save_checkpoint(p2, fresh, fopt, iteration=5)
    with open(p1, "rb") as fa, open(p2, "rb") as fb:
        assert fa.read() == fb.read()


def test_checkpoint_restores_velocity(tmp_path):
    ds = separable_dataset()
    net = Network(tiny_graph(), seed=4)
    c = cfg(5)
    res = train(net, ds, c, out_dir=str(tmp_path))
    entries, _, _ = read_checkpoint(res["checkpoint"])
    fresh = Network(tiny_graph(), seed=99)
    fopt = SGD(fresh.params, c.optimizer,
               decay_names=fresh.decay_param_names())
    load_checkpoint(res["checkpoint"], fresh, fopt)
    for name, v in fopt.velocity.items():
        assert np.array_equal(v, entries[f"vel/{name}"]), name
        assert v.any()  # training actually moved it


def test_checkpoint_digest_mismatch(tmp_path):
    net = Network(tiny_graph())
    path = str(tmp_path / "c.sunc")
    save_checkpoint(path, net, iteration=0)
    other = Network(tiny_graph(hw=(16, 16)))
    with pytest.raises(GraphError, match="bound to graph"):
        load_checkpoint(path, other)


def test_partial_velocity_rejected(tmp_path):
    net = Network(tiny_graph())
    opt = SGD(net.params, OptimizerConfig(lr0=0.1),
              decay_names=net.decay_param_names())
    path = str(tmp_path / "c.sunc")
    save_checkpoint(path, net, opt, iteration=1)
    entries, iteration, digest = read_checkpoint(path)
    dropped = {k: v for k, v in entries.items() if k != "vel/cls.w"}
    assert len(dropped) == len(entries) - 1
    write_checkpoint(path, dropped, iteration=iteration, graph_digest=digest)
    fresh = Network(tiny_graph())
    fopt = SGD(fresh.params, OptimizerConfig(lr0=0.1),
               decay_names=fresh.decay_param_names())
    with pytest.raises(TrainError, match="velocity"):
        load_checkpoint(path, fresh, fopt)


def test_periodic_checkpoints(tmp_path):
    ds = separable_dataset()
    net = Network(tiny_graph())
    train(net, ds, cfg(4, checkpoint_every=2), out_dir=str(tmp_path))
    names = sorted(f for f in os.listdir(tmp_path) if f.startswith("ckpt_"))
    assert names == ["ckpt_000002.sunc", "ckpt_000004.sunc"]
    _, it2, _ = read_checkpoint(str(tmp_path / "ckpt_000002.sunc"))
    assert it2 == 2
    assert (tmp_path / "checkpoint.sunc").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_loss_aborts():
    ds = separable_dataset(n=1)
    net = Network(tiny_graph(), seed=0)
    net.params["cls.w"].data[:] = np.inf
    with pytest.raises(TrainError, match="iteration 0"):
        train(net, ds, cfg(3, batch=1))


def test_resume_matches_straight_run(tmp_path):
    """5 iterations equals 3 + resume for 2 on the same schedule horizon."""
    ds = separable_dataset(n=3)
    full = Network(tiny_graph(), seed=7)
    rf = train(full, ds, cfg(5, seed=1, schedule="step", step_every=2))

    part = Network(tiny_graph(), seed=7)
    c3 = cfg(3, seed=1, schedule="step", step_every=2)
    train(part, ds, c3, out_dir=str(tmp_path))
    # a resumed run replays the order stream, so rebuild it and skip ahead
    resumed = Network(tiny_graph(), seed=7)
    ropt = SGD(resumed.params, c3.optimizer,
               decay_names=resumed.decay_param_names())
    load_checkpoint(str(tmp_path / "checkpoint.sunc"), resumed, ropt)
    from sunet.optim import StepSchedule
    from sunet.tensor import softmax_cross_entropy
    from sunet.data import normalize_image
    sched = StepSchedule(5, factor=0.1, every=2)
    order = np.random.default_rng(np.random.SeedSequence([1]))
    pending = []
    from sunet.training import _next_batch
    for _ in range(3):  # consume the first three batches
        _next_batch(order, pending, len(ds), 2)
    tail = []
    for it in range(3, 5):
        idx = _next_batch(order, pending, len(ds), 2)
        x = np.stack([normalize_image(ds.images[j]) for j in idx])
        y = np.stack([ds.masks[j] for j in idx]).astype(np.int64)
        out = resumed.forward(x, training=True)
        loss = softmax_cross_entropy(out, y, 255)
        loss.backward()
        ropt.step(sched.lr_at(c3.optimizer.lr0, it))
        resumed.zero_grads()
        tail.append(float(loss.data.reshape(())))
    want = [r[2] for r in rf["rows"][3:]]
    assert tail == pytest.approx(want, abs=1e-12)


def test_previous_step_tape_freed_before_next_batch():
    """Later iterations peak like the first: only one tape is alive."""
    ds = separable_dataset(n=4, hw=(32, 32))

    def peak(iters):
        net = Network(conv_graph(), seed=0)
        tracemalloc.start()
        try:
            train(net, ds, cfg(iters, lr=0.01, batch=4))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, three = peak(1), peak(3)
    assert three <= 1.15 * one, (one, three)


def test_train_on_crops_off_the_declared_size():
    # the graph is declared at 64x64; the crops are 45x50
    g = to_segmentation(build_classifier(toy_config(8), input_hw=(64, 64)),
                        SegmentationConfig(num_classes=2, output_stride=16))
    net = Network(g, seed=0)
    aug = AugmentConfig(crop_hw=(45, 50), scale_range=(0.8, 1.2))
    result = train(net, separable_dataset(n=4, hw=(64, 64)),
                   cfg(2, lr=0.01, augment=aug))
    assert len(result["rows"]) == 2
    assert all(np.isfinite(loss) for _, _, loss in result["rows"])


@pytest.mark.parametrize("augment", [
    None,
    # downscaled frames are padded and rotated: both fill with the label
    AugmentConfig(crop_hw=(8, 8), scale_range=(0.5, 0.8), max_rotate=30.0),
])
def test_train_uses_the_dataset_ignore_label(augment):
    base = separable_dataset(n=4)
    masks = []
    for m in base.masks:
        m = m.copy()
        m[0, :] = 254
        masks.append(m)
    ds = ListDataset(base.images, masks, ignore_index=254)
    result = train(Network(tiny_graph(), seed=0), ds,
                   cfg(3, lr=0.1, augment=augment))
    assert all(np.isfinite(loss) for _, _, loss in result["rows"])
    # every position ignored: the loss is zero, so 254 never reaches it
    ds = ListDataset(base.images, [np.full_like(m, 254) for m in masks],
                     ignore_index=254)
    result = train(Network(tiny_graph(), seed=0), ds,
                   cfg(2, lr=0.1, augment=augment))
    assert [loss for _, _, loss in result["rows"]] == [0.0, 0.0]
