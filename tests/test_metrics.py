import tracemalloc

import numpy as np
import pytest

from sunet.arch import build_classifier, toy_config
from sunet.augment import resize_bilinear
from sunet.metrics import (SCALE_PRESETS, ConfusionMatrix, EvalError, miou,
                           multi_scale_inference, predict_labels,
                           softmax_probs)
from sunet.runtime import Network
from sunet.segment import (SegmentationConfig, copy_shared,
                           rebuild_for_input, to_segmentation)
from sunet.tensor import EngineError, no_grad


def seg_net(hw=(64, 64), classes=3, seed=0):
    g = to_segmentation(build_classifier(toy_config(8), input_hw=hw),
                        SegmentationConfig(num_classes=classes))
    return Network(g, seed=seed)


def test_confusion_matrix_hand_case():
    cm = ConfusionMatrix(2)
    cm.counts = np.array([[3, 1], [2, 4]], dtype=np.int64)
    res = miou(cm)
    # IoU_0 = 3/(4+5-3)=0.5, IoU_1 = 4/(6+5-4)=4/7
    assert res["per_class"][0] == pytest.approx(0.5)
    assert res["per_class"][1] == pytest.approx(4 / 7)
    assert res["miou"] == pytest.approx((0.5 + 4 / 7) / 2)
    assert res["excluded"] == []


def test_update_counts_and_ignores():
    cm = ConfusionMatrix(3)
    true = np.array([0, 1, 2, 255, 1])
    pred = np.array([0, 2, 2, 0, 1])
    cm.update(true, pred)
    assert cm.total == 4  # the ignored pixel never lands
    assert cm.counts[1, 2] == 1 and cm.counts[1, 1] == 1
    assert cm.counts[2, 2] == 1 and cm.counts[0, 0] == 1


def test_update_rejects_out_of_range():
    cm = ConfusionMatrix(3)
    with pytest.raises(EvalError):
        cm.update(np.array([5]), np.array([0]))
    with pytest.raises(EvalError):
        cm.update(np.array([0]), np.array([3]))


def test_zero_union_classes_excluded():
    cm = ConfusionMatrix(4)
    cm.update(np.array([0, 1]), np.array([0, 1]))
    res = miou(cm)
    assert res["excluded"] == [2, 3]
    assert res["miou"] == pytest.approx(1.0)
    assert np.isnan(res["per_class"][2])


def test_all_zero_union_raises():
    with pytest.raises(EvalError):
        miou(ConfusionMatrix(2))


def test_accumulation_is_additive():
    rng = np.random.default_rng(0)
    t = rng.integers(0, 3, size=400)
    p = rng.integers(0, 3, size=400)
    whole = ConfusionMatrix(3).update(t, p)
    left = ConfusionMatrix(3).update(t[:160], p[:160])
    right = ConfusionMatrix(3).update(t[160:], p[160:])
    assert np.array_equal(whole.counts, left.merge(right).counts)


def test_permutation_equivariance():
    rng = np.random.default_rng(1)
    t = rng.integers(0, 3, size=500)
    p = rng.integers(0, 3, size=500)
    base = miou(ConfusionMatrix(3).update(t, p))
    perm = np.array([2, 0, 1])
    swapped = miou(ConfusionMatrix(3).update(perm[t], perm[p]))
    assert swapped["miou"] == pytest.approx(base["miou"])
    assert swapped["per_class"][perm].tolist() == pytest.approx(
        base["per_class"].tolist())


def test_miou_matches_brute_force_sets():
    rng = np.random.default_rng(2)
    for trial in range(20):
        t = rng.integers(0, 2, size=(16, 16))
        p = rng.integers(0, 2, size=(16, 16))
        res = miou(ConfusionMatrix(2).update(t, p))
        ious = []
        for k in (0, 1):
            inter = np.logical_and(t == k, p == k).sum()
            union = np.logical_or(t == k, p == k).sum()
            if union:
                ious.append(inter / union)
        assert res["miou"] == pytest.approx(np.mean(ious), abs=1e-12)


def test_perfect_prediction_scores_one():
    rng = np.random.default_rng(3)
    t = rng.integers(0, 4, size=(32, 32))
    res = miou(ConfusionMatrix(4).update(t, t))
    assert res["miou"] == 1.0


def test_softmax_probs_simplex():
    rng = np.random.default_rng(4)
    probs = softmax_probs(rng.normal(size=(5, 6, 6)) * 30)
    assert np.all(probs >= 0)
    assert np.allclose(probs.sum(axis=0), 1.0, atol=1e-12)


def test_single_scale_matches_direct_forward():
    net = seg_net()
    x = np.random.default_rng(5).normal(size=(3, 64, 64)).astype(np.float32)
    probs = multi_scale_inference(net, x, scales=(1.0,), flip=False)
    direct = net.forward(x[None], training=False).data[0]
    assert np.array_equal(probs, softmax_probs(direct))


def test_multi_scale_output_in_simplex():
    net = seg_net()
    x = np.random.default_rng(6).normal(size=(3, 64, 64)).astype(np.float32)
    probs = multi_scale_inference(net, x, scales=(0.5, 1.0, 1.25), flip=True)
    assert probs.shape == (3, 64, 64)
    assert np.all(probs >= -1e-12)
    assert np.allclose(probs.sum(axis=0), 1.0, atol=1e-9)


def test_flip_consistency_on_mirrored_input():
    # with flip averaging, a mirrored input gives a mirrored prediction
    net = seg_net()
    x = np.random.default_rng(7).normal(size=(3, 64, 64)).astype(np.float32)
    a = multi_scale_inference(net, x, scales=(1.0,), flip=True)
    b = multi_scale_inference(net, np.ascontiguousarray(x[:, :, ::-1]),
                              scales=(1.0,), flip=True)
    assert np.allclose(a, b[:, :, ::-1], atol=1e-6)


def test_two_scale_average_hand_composition():
    net = seg_net()
    x = np.random.default_rng(8).normal(size=(3, 64, 64)).astype(np.float32)
    both = multi_scale_inference(net, x, scales=(1.0, 0.5))
    one = multi_scale_inference(net, x, scales=(1.0,))
    half = multi_scale_inference(net, x, scales=(0.5,))
    assert np.allclose(both, (one + half) / 2.0, atol=1e-12)


@pytest.mark.parametrize("output_stride", [32, 16, 8])
def test_one_network_matches_per_extent_rebuilds(output_stride):
    # one network, built at 64x64, serves scaled sizes 36x42, 53x64,
    # 71x85 and 89x106; the reference forwards each through a fresh
    # network on rebuild_for_input's graph with the weights copied in
    g = to_segmentation(build_classifier(toy_config(8), input_hw=(64, 64)),
                        SegmentationConfig(num_classes=3,
                                           output_stride=output_stride))
    net = Network(g, seed=0)
    rng = np.random.default_rng(9)
    for key, stat in net.stats.items():
        net.stats[key] = stat + rng.uniform(0.1, 0.5, size=stat.shape)
    h, w = 71, 85
    img = rng.normal(size=(3, h, w)).astype(np.float32)
    scales = (0.5, 0.75, 1.0, 1.25)
    probs = multi_scale_inference(net, img, scales, flip=True)

    # summed scale by scale, each image's map and then its mirror's
    variants = [(s, m) for s in scales for m in (False, True)]
    ref = 0.0
    for s, mirrored in variants:
        x = np.ascontiguousarray(img[:, :, ::-1] if mirrored else img)
        hw = (round(h * s), round(w * s))
        model = Network(rebuild_for_input(g, hw))
        copy_shared(net, model)
        with no_grad():
            out = model.forward(resize_bilinear(x, hw)[None]).data[0]
        p = resize_bilinear(softmax_probs(out), (h, w))
        ref = ref + (p[:, :, ::-1] if mirrored else p)
    assert np.array_equal(probs, ref / len(variants))


@pytest.mark.parametrize("output_stride", [32, 16, 8])
@pytest.mark.parametrize("hw", [(36, 42), (53, 64), (71, 85), (89, 106)])
def test_stacked_mirror_forward_matches_batch_one(output_stride, hw):
    # multi_scale_inference stacks an image and its mirror into one
    # forward and treats each map as its batch-1 forward's: in eval mode
    # every sample must get those bits exactly
    net = Network(to_segmentation(
        build_classifier(toy_config(8), input_hw=(64, 64)),
        SegmentationConfig(num_classes=3, output_stride=output_stride)), seed=0)
    rng = np.random.default_rng(14)
    for key, stat in net.stats.items():
        net.stats[key] = stat + rng.uniform(0.1, 0.5, size=stat.shape)
    x = rng.normal(size=(3,) + hw).astype(np.float32)
    mirror = np.ascontiguousarray(x[:, :, ::-1])
    with no_grad():
        both = net.forward(np.stack([x, mirror]), training=False).data
        one = net.forward(x[None], training=False).data[0]
        other = net.forward(mirror[None], training=False).data[0]
    assert both[0].tobytes() == one.tobytes()
    assert both[1].tobytes() == other.tobytes()


@pytest.mark.parametrize("scales,flip,forwards", [
    # 2·64² and 2·96² fit in 160² (scale 1.25); 2·128² does not
    (SCALE_PRESETS["multi"], True,
     [(2, 64, 64), (2, 96, 96), (1, 128, 128), (1, 128, 128),
      (1, 160, 160), (1, 160, 160)]),
    ((1.0,), True, [(1, 128, 128)] * 2),
    (SCALE_PRESETS["multi"], False,
     [(1, 64, 64), (1, 96, 96), (1, 128, 128), (1, 160, 160)]),
])
def test_flip_stacks_only_pairs_that_fit_the_largest_scale(monkeypatch, scales,
                                                           flip, forwards):
    # (batch, h, w) of every Network.forward of one 128² inference
    seen = []
    forward = Network.forward

    def spy(self, x, *args, **kwargs):
        seen.append(np.shape(x)[:1] + np.shape(x)[2:])
        return forward(self, x, *args, **kwargs)

    monkeypatch.setattr(Network, "forward", spy)
    net = seg_net(hw=(128, 128))
    x = np.random.default_rng(15).normal(size=(3, 128, 128)).astype(np.float32)
    multi_scale_inference(net, x, scales, flip)
    assert seen == forwards


def test_scale_too_small_names_the_node():
    # 40x40 at scale 0.5 leaves a 1x1 map for the last 2x2 pool
    net = Network(to_segmentation(
        build_classifier(toy_config(8), input_hw=(64, 64)),
        SegmentationConfig(num_classes=3, output_stride=32)))
    with pytest.raises(EngineError, match="node 't3'"):
        multi_scale_inference(net, np.zeros((3, 40, 40), np.float32), (0.5,))


def test_scale_presets():
    assert SCALE_PRESETS["single"] == (1.0,)
    assert SCALE_PRESETS["multi"] == (0.5, 0.75, 1.0, 1.25)
    assert SCALE_PRESETS["extended"][-1] == 2.5
    assert set(SCALE_PRESETS["multi"]) <= set(SCALE_PRESETS["extended"])


def test_bad_scales_rejected():
    net = seg_net()
    x = np.zeros((3, 64, 64), dtype=np.float32)
    with pytest.raises(EvalError):
        multi_scale_inference(net, x, scales=())
    with pytest.raises(EvalError):
        multi_scale_inference(net, x, scales=(0.0,))


@pytest.mark.parametrize("bad,name", [(float("inf"), "inf"), (float("nan"), "nan"),
                                      (float("-inf"), "-inf"), (-0.5, "-0.5")])
def test_non_finite_scale_names_the_value(bad, name):
    net = seg_net()
    x = np.zeros((3, 64, 64), dtype=np.float32)
    with pytest.raises(EvalError, match=f"scale {name} is not finite and positive"):
        multi_scale_inference(net, x, scales=(1.0, bad))


def test_predict_labels_dtype():
    net = seg_net()
    x = np.zeros((3, 64, 64), dtype=np.float32)
    labels = predict_labels(net, x)
    assert labels.dtype == np.uint8
    assert labels.shape == (64, 64)


def _traced_peak(fn, *args):
    """Peak traced bytes of one call, after a warm-up call fills the caches."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_multi_scale_flip_inference_peak():
    # at scale 1.25 (160²) the stem's whole 7x7 column matrix was 3.59 MiB;
    # it is now built in chunks of at most 1 MiB. Measured 2.28 MiB (4.46
    # at full matrices and three-array resizes), also with scales 0.5 and
    # 0.75 run as batch-2 image+mirror forwards; the bound adds 10%.
    net = seg_net(hw=(128, 128))
    x = np.random.default_rng(12).normal(size=(3, 128, 128)).astype(np.float32)
    peak = _traced_peak(predict_labels, net, x, (0.5, 0.75, 1.0, 1.25), True)
    assert peak <= 2.5 * 2**20, peak / 2**20


def test_single_scale_flip_inference_peak():
    # one scale stacks nothing: the image and its mirror run as two
    # batch-1 forwards. Measured 1.661 MiB; the bound adds 10%.
    net = seg_net(hw=(128, 128))
    x = np.random.default_rng(12).normal(size=(3, 128, 128)).astype(np.float32)
    peak = _traced_peak(predict_labels, net, x, (1.0,), True)
    assert peak <= 1.83 * 2**20, peak / 2**20


def test_resize_bilinear_keeps_two_arrays_per_pass():
    # float64 (4, 160²) -> 128²: the row pass leaves a (4, 128, 160)
    # intermediate, and the column pass makes the output and one scaled
    # tap beside it. 128 KiB covers numpy's ufunc buffers.
    src = np.random.default_rng(13).random((4, 160, 160))
    intermediate, out = 4 * 128 * 160 * 8, 4 * 128 * 128 * 8
    peak = _traced_peak(resize_bilinear, src, (128, 128))
    assert peak <= intermediate + 2 * out + (128 << 10), peak
