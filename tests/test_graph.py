import re
import tracemalloc

import numpy as np
import pytest

from sunet import tensor as T
from sunet.arch import build_classifier, toy_config
from sunet.data import normalize_image
from sunet.graph import GraphError, NetworkGraph
from sunet.optim import OptimizerConfig
from sunet.runtime import Network
from sunet.segment import SegmentationConfig, to_segmentation
from sunet.tensor import EngineError, Tensor, no_grad, softmax_cross_entropy
from sunet.training import TrainConfig, train


def small_graph():
    g = NetworkGraph(3, (16, 16))
    g.add("c1", "conv", ["input"], cin=3, cout=8, k=(3, 3), s=(2, 2),
          d=(1, 1), p=(1, 1), stage="conv1", level=1)
    g.add("b1", "bn_relu", ["c1"], c=8)
    g.meta["kind"] = "test"
    return g


def test_serialize_parse_round_trip_bytes():
    g = small_graph()
    text = g.serialize()
    g2 = NetworkGraph.parse(text)
    assert g2.serialize() == text
    assert g2.digest == g.digest
    assert [n.name for n in g2.nodes] == [n.name for n in g.nodes]
    assert g2.by_name["c1"].attrs == g.by_name["c1"].attrs
    assert g2.by_name["c1"].tags == {"stage": "conv1", "level": 1}


def test_digest_detects_tampering():
    text = small_graph().serialize()
    bad = text.replace("cout=8", "cout=9")
    with pytest.raises(GraphError):
        NetworkGraph.parse(bad)


def test_parse_rejects_bad_header():
    with pytest.raises(GraphError):
        NetworkGraph.parse("something else\n")


def test_duplicate_node_name_rejected():
    g = small_graph()
    with pytest.raises(GraphError):
        g.add("c1", "gap", ["b1"])


def test_unknown_kind_rejected():
    g = small_graph()
    # bn and relu are kinds of graph files older than the bn_relu node
    for kind in ("pool3d", "bn", "relu"):
        with pytest.raises(GraphError, match=f"unknown kind '{kind}'"):
            g.add("x", kind, ["b1"])


def test_input_must_exist():
    g = small_graph()
    with pytest.raises(GraphError):
        g.add("x", "gap", ["nope"])


def test_tag_validation():
    g = small_graph()
    g.tag("b1", level=2)
    assert g.by_name["b1"].tags["level"] == 2
    with pytest.raises(GraphError):
        g.tag("b1", color="red")
    with pytest.raises(GraphError):
        g.tag("missing", level=1)


@pytest.mark.parametrize("tags,message", [
    ({"level": "abc"}, "tag 'level' must be a non-negative integer, got 'abc'"),
    ({"level": -1}, "tag 'level' must be a non-negative integer, got -1"),
    ({"level": True}, "tag 'level' must be a non-negative integer, got True"),
    ({"stage": 3}, "tag 'stage' must be a name, got 3"),
    ({"stage": "a b"}, "tag 'stage' must be a name, got 'a b'"),
    ({"role": "main"}, "tag 'role' must be 'skip', got 'main'"),
])
def test_tag_forms_are_checked_in_add_and_tag(tags, message):
    g = small_graph()
    with pytest.raises(GraphError, match=f"node 'b1': {re.escape(message)}"):
        g.tag("b1", **tags)
    assert g.by_name["b1"].tags == {}
    with pytest.raises(GraphError, match=f"node 'b2': {re.escape(message)}"):
        g.add("b2", "bn_relu", ["b1"], c=8, **tags)
    assert "b2" not in g.by_name


def test_tconv_carries_no_bias():
    g = small_graph()
    up = dict(cin=8, cout=3, k=(3, 3), s=(2, 2), d=(1, 1), p=(1, 1))
    g.add("up1", "tconv", ["b1", "input"], **up)
    for bias in (False, True):
        with pytest.raises(GraphError, match="node 'up2': tconv has no attribute 'bias'"):
            g.add("up2", "tconv", ["b1", "input"], bias=bias, **up)
    assert set(Network(g).params) == {"c1.w", "b1.gamma", "b1.beta", "up1.w"}


def test_meta_survives_round_trip():
    g = small_graph()
    g.meta["config"] = '{"name":"toy8","blocks":[1,1]}'
    g2 = NetworkGraph.parse(g.serialize())
    assert g2.meta["config"] == g.meta["config"]
    assert g2.meta["kind"] == "test"


def test_infer_shapes_tracks_stride():
    g = small_graph()
    shapes = g.infer_shapes()
    assert shapes["input"] == (3, 16, 16)
    assert shapes["c1"] == (8, 8, 8)
    assert shapes["b1"] == (8, 8, 8)


def test_tconv_restores_the_extent_of_its_second_input():
    g = small_graph()
    up = dict(cin=8, cout=3, k=(3, 3), s=(2, 2), d=(1, 1), p=(1, 1))
    with pytest.raises(GraphError, match="'up'"):
        g.add("up", "tconv", ["b1"], **up)
    g.add("up", "tconv", ["b1", "input"], **up)
    for hw in [(16, 16), (15, 15), (15, 18)]:
        assert g.infer_shapes(hw)["up"] == (3, *hw)
    # a stride-2 tconv of an 8x8 map reaches 15 or 16, never 8
    g.add("bad", "tconv", ["b1", "b1"], **up)
    with pytest.raises(GraphError, match="'bad'"):
        g.infer_shapes()


def test_gap_runs_avg_pool2d_and_is_the_float64_mean(monkeypatch):
    g = NetworkGraph(3, (7, 7))
    g.add("gap", "gap", ["input"])
    windows = []

    def spy(x, window=2, **kw):
        windows.append(window)
        return avg_pool2d(x, window=window, **kw)

    avg_pool2d = T.avg_pool2d
    monkeypatch.setattr(T, "avg_pool2d", spy)
    rng = np.random.default_rng(21)
    x = Tensor(rng.normal(size=(2, 3, 7, 7)).astype(np.float32), requires_grad=True)
    out = Network(g).forward(x, training=True)
    assert windows == [(7, 7)]
    want = x.data.mean(axis=(2, 3), keepdims=True, dtype=np.float64).astype(np.float32)
    assert out.data.dtype == np.float32 and out.data.tobytes() == want.tobytes()
    seed = rng.normal(size=out.data.shape).astype(np.float32)
    out.backward(seed)
    assert x.grad.tobytes() == np.broadcast_to(seed / 49, x.data.shape).tobytes()


# ------------------------------------------------------ execution lifetimes

def chain_net():
    g = small_graph()
    g.add("c2", "conv", ["b1"], cin=8, cout=4, k=(3, 3), s=(1, 1),
          d=(1, 1), p=(1, 1), bias=True)
    return Network(g, seed=0)


def tape_of(out):
    """Every tensor on out's tape that has a backward closure."""
    found, stack = [], [out]
    while stack:
        t = stack.pop()
        if t._backward is not None and not any(t is f for f in found):
            found.append(t)
            stack.extend(t._parents)
    return found


def test_forward_rejects_unknown_names_before_any_op_runs(monkeypatch):
    net = chain_net()
    x = np.zeros((1, 3, 16, 16), dtype=np.float32)

    def no_ops(*args):
        raise AssertionError("an op ran")

    monkeypatch.setattr(net, "_apply", no_ops)
    with pytest.raises(GraphError, match="'m.nope'"):
        net.forward(x, collect=["c1", "m.nope"])


def test_forward_releases_values_after_their_last_reader():
    net = chain_net()
    xv = np.random.default_rng(0).normal(size=(1, 3, 16, 16)).astype(np.float32)
    x = Tensor(xv.copy())
    want = {}
    with no_grad():
        for name in ("c1", "b1", "c2"):
            want[name] = net.forward(x, collect=[name])[1][name].data
    # c1's last reader is b1, so only collecting it keeps its value
    out, grabbed = net.forward(x, training=False, collect=["c1"])
    interior = tape_of(out)
    kept = [t for t in interior if t is out or t is grabbed["c1"]]
    assert len(interior) == 3 and len(kept) == 2
    for t in interior:
        if not any(t is k for k in kept):
            with pytest.raises(EngineError, match="released"):
                t.data
    assert np.array_equal(out.data, want["c2"])
    assert np.array_equal(grabbed["c1"].data, want["c1"])
    assert np.array_equal(net.forward(x, collect=["b1"])[1]["b1"].data, want["b1"])
    assert np.array_equal(x.data, xv)
    # the released tensors still carry their gradients
    out.backward(np.ones_like(out.data))
    assert all(net.params[k].grad is not None for k in net.params)


def converted_net():
    g = build_classifier(toy_config(16, num_classes=4), input_hw=(96, 96))
    return Network(to_segmentation(g, SegmentationConfig(num_classes=4,
                                                         output_stride=8)), seed=0)


def traced_peak(fn) -> int:
    """Peak bytes traced while fn runs, above the level it started at."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_no_grad_forward_peak_is_a_fraction_of_its_node_outputs():
    net = converted_net()
    x = np.random.default_rng(0).normal(size=(2, 3, 96, 96)).astype(np.float32)
    names = [n.name for n in net.graph.nodes if n.kind != "input"]
    with no_grad():
        _, every = net.forward(x, collect=names)
        total = sum(t.data.nbytes for t in every.values())
        del every
        peak = traced_peak(lambda: net.forward(x))
    assert peak <= 0.6 * total, (peak, total)


def training_step_peak() -> int:
    """Traced peak of one training step of converted_net(), batch 2 at 96x96."""
    net = converted_net()
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3, 96, 96)).astype(np.float32)
    labels = rng.integers(0, 4, size=(2, 96, 96))

    def step():
        loss = softmax_cross_entropy(net.forward(x, training=True), labels)
        loss.backward()
        net.zero_grads()

    step()      # fills the resize-matrix and tap-plan caches
    return traced_peak(step)


# Traced peak of that step on an engine that kept every node output
# until forward returned and every gradient and closure until backward
# returned: 32,030,181 bytes. Releasing both reads 14,452,317 (0.45x).
KEEP_ALL_STEP_PEAK = 32_030_181


def test_training_step_peak_memory():
    peak = training_step_peak()
    assert peak <= 0.6 * KEEP_ALL_STEP_PEAK, peak


# The same step on an engine whose convs kept their im2col matrices for
# the weight gradient and whose BN->ReLU pairs ran as two ops: 14,452,317
# bytes. Keeping conv inputs and fusing the pairs reads 7,569,917 (0.52x).
COLUMN_MATRIX_STEP_PEAK = 14_452_317


def test_training_step_peak_without_column_matrices():
    peak = training_step_peak()
    assert peak <= 0.6 * COLUMN_MATRIX_STEP_PEAK, peak


# The same step when each training-mode batch norm kept a centred copy
# of its input and the loss kept its float64 per-pixel sums: 6,943,649
# bytes. Keeping the input itself and recomputing both reads 5,703,117
# (0.82x).
CENTRED_COPY_STEP_PEAK = 6_943_649


def test_training_step_peak_keeps_each_activation_once():
    peak = training_step_peak()
    assert peak <= 0.9 * CENTRED_COPY_STEP_PEAK, peak


# The same step when the tape kept each BN-ReLU output, for the next
# conv's weight gradient and as its own ReLU mask: 5,697,293 bytes.
# Rebuilding the output in backward from the batch norm's input reads
# 3,558,941 (0.62x).
BN_OUTPUT_KEPT_STEP_PEAK = 5_697_293


def test_training_step_peak_keeps_no_bn_relu_output():
    peak = training_step_peak()
    assert peak <= 0.7 * BN_OUTPUT_KEPT_STEP_PEAK, peak


# Traced peak of one loss forward+backward at (8, 4, 96, 96), in units of
# the logits' bytes: 5.06x when the tape kept the shifted logits beside
# their exponentials and the backward built float64 probabilities, a
# float32 copy, a one-hot array and the seeded product. Turning the kept
# exponentials into the gradient in place read 2.93x; picking the
# labelled logits by masked copies, taking the log in the float64 sums'
# buffer and summing again in backward reads 2.56x.
LOSS_PEAK_LOGITS = 2.8


def test_loss_forward_backward_peak_is_a_small_multiple_of_the_logits():
    rng = np.random.default_rng(0)
    logits = Tensor(rng.normal(size=(8, 4, 96, 96)).astype(np.float32),
                    requires_grad=True)
    labels = rng.integers(0, 4, size=(8, 96, 96))
    labels[:, :4] = 255

    def step():
        softmax_cross_entropy(logits, labels).backward()

    step()
    logits.zero_grad()
    peak = traced_peak(step)
    assert peak <= LOSS_PEAK_LOGITS * logits.data.nbytes, peak / logits.data.nbytes


class ListDataset:
    def __init__(self, images, masks):
        self.images, self.masks, self.ignore_index = images, masks, 255
        self.classes = 4

    def __len__(self):
        return len(self.images)


def test_train_peaks_like_one_bare_step():
    """A 2-iteration train() on one batch peaks no higher than a bare
    forward/loss/backward step on that batch, plus what only train()
    holds: the batch it stacks itself, the optimizer's velocity (one
    array per parameter) and 128 KiB of bookkeeping. It read 1,041,544
    bytes above the bare step, 101,448 under the margin; keeping the
    last step's logits into the next forward and widening the masks to
    int64 read 1,521,200, 378,208 over it."""
    rng = np.random.default_rng(0)
    images = [rng.integers(0, 256, size=(3, 96, 96), dtype=np.uint8) for _ in range(2)]
    masks = [rng.integers(0, 4, size=(96, 96), dtype=np.uint8) for _ in range(2)]
    x = np.stack([normalize_image(img) for img in images])
    labels = np.stack(masks)
    net = converted_net()

    def step():
        softmax_cross_entropy(net.forward(x, training=True), labels).backward()
        net.zero_grads()

    step()      # fills the resize-matrix and tap-plan caches
    bare = traced_peak(step)
    net = converted_net()
    cfg = TrainConfig(iters=2, optimizer=OptimizerConfig(
        lr0=0.01, momentum=0.9, weight_decay=1e-4, batch_size=2))
    trained = traced_peak(lambda: train(net, ListDataset(images, masks), cfg))
    velocity = sum(p.data.nbytes for p in net.params.values())
    margin = x.nbytes + labels.nbytes + velocity + 128 * 1024
    assert trained <= bare + margin, (trained - bare, margin)


# ----------------------------------------------------- BN-ReLU at run time

def spy_batchnorm(monkeypatch):
    """Record (relu flag, x's array, a copy of it) of every T.batchnorm call."""
    calls, real = [], T.batchnorm

    def spy(x, *args, **kwargs):
        calls.append((kwargs.get("relu", False), x.data, x.data.copy()))
        return real(x, *args, **kwargs)

    monkeypatch.setattr(T, "batchnorm", spy)
    return calls


def test_each_bn_relu_node_is_one_fused_batchnorm(monkeypatch):
    g = build_classifier(toy_config(4, num_classes=3), input_hw=(32, 32))
    net = Network(to_segmentation(g, SegmentationConfig(
        num_classes=3, output_stride=8, degridding=True)), seed=0)
    x = np.random.default_rng(1).normal(size=(2, 3, 32, 32)).astype(np.float32)
    relus, real_relu = [], T.relu
    monkeypatch.setattr(T, "relu", lambda t: relus.append(t) or real_relu(t))
    calls = spy_batchnorm(monkeypatch)
    # collecting a node never changes how it runs
    names = [n.name for n in net.graph.nodes]
    _, grabbed = net.forward(x, training=True, collect=names)
    bns = [n.name for n in net.graph.nodes if n.kind == "bn_relu"]
    assert bns and [c[0] for c in calls] == [True] * len(bns)
    assert not relus
    assert all((grabbed[name].data >= 0).all() for name in bns)


class _Images:
    def __init__(self, n, hw, classes, seed):
        rng = np.random.default_rng(seed)
        self.images = [rng.integers(0, 256, size=(3,) + hw, dtype=np.uint8)
                       for _ in range(n)]
        self.masks = [rng.integers(0, classes, size=hw).astype(np.uint8)
                      for _ in range(n)]
        self.classes, self.ignore_index = classes, 255

    def __len__(self):
        return len(self.images)


def test_bn_eval_step_leaves_bn_inputs_unchanged(monkeypatch):
    # in eval mode a BN closure keeps its input array itself, and the fused
    # backward overwrites only what it owns
    net = converted_net()
    calls = spy_batchnorm(monkeypatch)
    opt = OptimizerConfig(lr0=0.01, momentum=0.9, weight_decay=0.0, batch_size=2)
    train(net, _Images(2, (96, 96), 4, seed=3),
          TrainConfig(iters=1, optimizer=opt, bn_eval=True))
    assert any(c[0] for c in calls)
    for _, arr, copy in calls:
        assert np.array_equal(arr, copy)
