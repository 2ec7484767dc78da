import numpy as np
import pytest

from sunet.analyzer import receptive_field
from sunet.arch import build_classifier, toy_config
from sunet.graph import GraphError
from sunet.runtime import Network
from sunet.segment import (SegmentationConfig, atrous_equivalence_check,
                           copy_shared, rebuild_for_input, to_segmentation)


def classifier(hw=(129, 129), n=8):
    return build_classifier(toy_config(n), input_hw=hw)


def seg(g, os_, multigrid=True, degrid=False, upsample=True, classes=5):
    cfg = SegmentationConfig(num_classes=classes, output_stride=os_,
                             multigrid=multigrid, degridding=degrid,
                             upsample_to_input=upsample)
    return to_segmentation(g, cfg)


def test_unsupported_output_stride_rejected():
    with pytest.raises(GraphError):
        seg(classifier(), 4)


def test_requires_classifier_meta():
    from sunet.unet import module_graph
    with pytest.raises(GraphError):
        seg(module_graph(8, 8, 8, hw=(32, 32)), 16)


def test_os32_keeps_all_strides():
    g = seg(classifier(), 32, upsample=False)
    shapes = g.infer_shapes()
    assert shapes[g.output][1:] == (4, 4)
    # all three transitions still halve
    for name in ("t1", "t2", "t3"):
        node = g.by_name[name]
        assert node.attrs["s"] == (2, 2)


def test_os16_converts_last_transition():
    g = seg(classifier(), 16, upsample=False)
    t3 = g.by_name["t3"]
    assert t3.attrs["s"] == (1, 1)
    assert t3.attrs["d"] == (1, 1)
    assert t3.attrs["pad"] == (0, 1, 0, 1)
    shapes = g.infer_shapes()
    assert shapes[g.output][1:] == (8, 8)


def test_os8_converts_two_transitions_with_dilated_window():
    g = seg(classifier(), 8, upsample=False)
    t2, t3 = g.by_name["t2"], g.by_name["t3"]
    assert t2.attrs["s"] == (1, 1) and t2.attrs["d"] == (1, 1)
    assert t3.attrs["s"] == (1, 1) and t3.attrs["d"] == (2, 2)
    assert t3.attrs["pad"] == (0, 2, 0, 2)
    shapes = g.infer_shapes()
    assert shapes[g.output][1:] == (16, 16)


def test_upsample_restores_input_resolution():
    g = seg(classifier(), 16, upsample=True)
    shapes = g.infer_shapes()
    assert shapes[g.output][1:] == (129, 129)
    assert g.infer_shapes((97, 113))[g.output][1:] == (97, 113)


def test_degridding_head_dilations_at_os8():
    g = seg(classifier(), 8, degrid=True, upsample=False)
    d1, d2 = g.by_name["deg1.conv"], g.by_name["deg2.conv"]
    assert d1.attrs["cout"] == 512 and d2.attrs["cout"] == 512
    assert d1.attrs["d"] == (2, 2)
    assert d2.attrs["d"] == (1, 1)


def test_degridding_head_dilations_at_os16():
    g = seg(classifier(), 16, degrid=True, upsample=False)
    assert g.by_name["deg1.conv"].attrs["d"] == (1, 1)
    assert g.by_name["deg2.conv"].attrs["d"] == (1, 1)


def test_classifier_head_replaced():
    g = seg(classifier(), 16, upsample=False)
    names = {n.name for n in g.nodes}
    assert "head.fc" not in names and "head.gap" not in names
    cls = g.by_name["cls.conv"]
    assert cls.attrs["k"] == (1, 1) and cls.attrs["bias"] is True
    assert cls.attrs["cout"] == 5


def test_rf_preserved_node_for_node():
    base = classifier()
    rf0 = receptive_field(base)
    for os_ in (16, 8):
        rf1 = receptive_field(seg(base, os_, upsample=False))
        shared = set(rf0) & set(rf1)
        assert len(shared) > 20
        for name in shared:
            assert rf0[name][0].rf == rf1[name][0].rf, name
            assert rf1[name][1].rf == rf1[name][1].rf, name


def test_copy_shared_moves_params_and_stats():
    base = classifier(hw=(65, 65))
    a = Network(seg(base, 32), seed=1)
    b = Network(seg(base, 16), seed=2)
    copied = copy_shared(a, b)
    assert any(n.endswith(".w") for n in copied)
    assert any("running_mean" in n for n in copied)
    for name in b.params:
        if name in a.params and a.params[name].data.shape == b.params[name].data.shape:
            assert np.array_equal(a.params[name].data, b.params[name].data)


@pytest.mark.parametrize("pair", [(32, 16), (16, 8)])
def test_atrous_equivalence_small(pair):
    ref_os, dil_os = pair
    base = classifier(hw=(65, 65))
    ref = Network(seg(base, ref_os, upsample=False), seed=3)
    dil = Network(seg(base, dil_os, upsample=False), seed=4)
    copy_shared(ref, dil)
    x = np.random.default_rng(0).normal(size=(1, 3, 65, 65)).astype(np.float32)
    assert atrous_equivalence_check(ref, dil, x) < 1e-4


def test_strided_rate_diverges():
    base = classifier(hw=(65, 65))
    ref = Network(seg(base, 16, upsample=False), seed=3)
    bad = Network(seg(base, 8, multigrid=False, upsample=False), seed=5)
    copy_shared(ref, bad)
    x = np.random.default_rng(0).normal(size=(1, 3, 65, 65)).astype(np.float32)
    assert atrous_equivalence_check(ref, bad, x) > 1e-2


def test_equivalence_requires_coarser_reference():
    base = classifier(hw=(65, 65))
    a = Network(seg(base, 16, upsample=False), seed=0)
    b = Network(seg(base, 32, upsample=False), seed=0)
    x = np.zeros((1, 3, 65, 65), dtype=np.float32)
    with pytest.raises(GraphError):
        atrous_equivalence_check(a, b, x)


def test_seg_meta_round_trip():
    g = seg(classifier(), 8, degrid=True)
    import json
    stored = SegmentationConfig.from_dict(json.loads(g.meta["seg"]))
    assert stored.output_stride == 8
    assert stored.degridding is True
    assert g.meta["kind"] == "segmentation"
    assert g.meta["output_stride"] == "8"


def test_rebuild_for_input_matches_fresh_build():
    base = classifier(hw=(64, 64))
    g = seg(base, 16)
    g2 = rebuild_for_input(g, (96, 96))
    fresh = seg(classifier(hw=(96, 96)), 16)
    assert g2.serialize() == fresh.serialize()
    assert rebuild_for_input(g, (64, 64)) is g


def test_rebuild_rejects_plain_graph():
    from sunet.unet import module_graph
    with pytest.raises(GraphError):
        rebuild_for_input(module_graph(8, 8, 8, hw=(32, 32)), (64, 64))


def test_converted_forward_shapes_differ_only_spatially():
    base = classifier(hw=(65, 65))
    x = np.random.default_rng(2).normal(size=(1, 3, 65, 65)).astype(np.float32)
    for os_, want in ((32, 2), (16, 4), (8, 8)):
        net = Network(seg(base, os_, upsample=False), seed=0)
        out = net.forward(x, training=False)
        assert out.data.shape == (1, 5, want, want)


# A checkpoint stores the digest of the graph it was written for and
# loads only into a graph with that digest. Builder output that changes
# these pins breaks every checkpoint of that architecture: update them
# only on purpose and say which checkpoints stop loading.
PINNED_DIGESTS = {
    "classifier": "c10a0f341e45d6340a0b4294cc150f7ac446345e758d96f78445a0474a73ebc1",
    "os16-multigrid": "bc4bffdbe9bba69bcad2befc29853fa48b3001d8dbf4a3a54dc88c37f56bf89b",
    "os8-multigrid-degridding": "9ace901fdfde72552a41ddfaf590aa0f10c762cb8905aec3fde31de78bf834ae",
    "os8-strided": "b6dc66682042f790b8046e5c16c7944c3c94d0566bf7b3e7b7c44d9912a10e61",
    "module-trimmed-multigrid-rate2": "e5b502b6cba396e77b9b41f95f5f52236b52898aa94ba74e4e789c5fe9a92a4c",
}


def test_builder_digests_are_pinned():
    from sunet.unet import module_graph
    g = build_classifier(toy_config(8, num_classes=5), input_hw=(64, 64))
    got = {
        "classifier": g.digest,
        "os16-multigrid": seg(g, 16).digest,
        "os8-multigrid-degridding": seg(g, 8, degrid=True).digest,
        "os8-strided": seg(g, 8, multigrid=False).digest,
        "module-trimmed-multigrid-rate2": module_graph(
            8, 4, 8, (16, 16), trimmed=True, multigrid=True, rate=2).digest,
    }
    assert got == PINNED_DIGESTS
