import os

import numpy as np
import pytest

from sunet.analyzer import (analyze, count_layers, count_params,
                            dump_activations, format_report, fov,
                            receptive_field, report_csv, spatial_trace)
from sunet.arch import build_classifier, toy_config
from sunet.graph import GraphError, NetworkGraph
from sunet.io import read_checkpoint
from sunet.runtime import Network
from sunet.tensor import Tensor
from sunet.unet import module_graph


def chain_graph():
    g = NetworkGraph(1, (32, 32))
    g.add("c1", "conv", ["input"], cin=1, cout=4, k=(3, 3), s=(1, 1),
          d=(1, 1), p=(1, 1))
    g.add("c2", "conv", ["c1"], cin=4, cout=4, k=(3, 3), s=(1, 1),
          d=(1, 1), p=(1, 1))
    g.add("c3", "conv", ["c2"], cin=4, cout=4, k=(3, 3), s=(2, 2),
          d=(1, 1), p=(1, 1))
    g.add("c4", "conv", ["c3"], cin=4, cout=4, k=(3, 3), s=(1, 1),
          d=(1, 1), p=(1, 1))
    return g


def test_rf_grows_along_plain_chain():
    rf = receptive_field(chain_graph())
    assert rf["c1"][0].rf == 3
    assert rf["c2"][0].rf == 5
    assert rf["c3"][0].rf == 7
    # after the stride-2 conv, each step costs 2 input pixels per tap
    assert rf["c4"][0].rf == 11
    assert rf["c4"][0].jump == 2


def test_dilation_scales_rf_like_stride():
    g = NetworkGraph(1, (32, 32))
    g.add("c1", "conv", ["input"], cin=1, cout=1, k=(3, 3), s=(1, 1),
          d=(4, 4), p=(4, 4))
    rf = receptive_field(g)
    assert rf["c1"][0].rf == 9
    assert rf["c1"][0].jump == 1


def test_module_inner_conv_fov_is_19():
    g = module_graph(8, 8, 8, hw=(64, 64))
    assert fov(g, "m.e2b.conv") == 19


def test_fov_is_rate_invariant_under_multigrid():
    # the dilated layout widens taps exactly as the strides did
    gs = module_graph(8, 8, 8, hw=(64, 64), multigrid=False)
    gm = module_graph(8, 8, 8, hw=(64, 64), multigrid=True, rate=1)
    assert fov(gs, "m.out") == fov(gm, "m.out")


def test_gradient_support_matches_analytic_rf():
    # eval-mode BN, positive weights: the nonzero input-gradient patch
    # of one output position spans exactly the analytic receptive field
    g = chain_graph()
    net = Network(g, seed=0)
    for name, t in net.params.items():
        if name.endswith(".w"):
            t.data = np.abs(t.data) + 0.01
    x = Tensor(np.full((1, 1, 32, 32), 0.5, dtype=np.float32), requires_grad=True)
    out = net.forward(x, training=False)
    seed = np.zeros_like(out.data)
    ch, cy, cx = 0, out.data.shape[2] // 2, out.data.shape[3] // 2
    seed[0, ch, cy, cx] = 1.0
    out.backward(seed)
    rows = np.flatnonzero(np.abs(x.grad[0, 0]).sum(axis=1))
    cols = np.flatnonzero(np.abs(x.grad[0, 0]).sum(axis=0))
    rf = receptive_field(g)["c4"]
    assert rows.size == rf[0].rf == 11
    assert cols.size == rf[1].rf == 11


def test_param_count_chain():
    assert count_params(chain_graph()) == 36 + 144 + 144 + 144


def test_layer_count_ignores_skip_projections():
    g = build_classifier(toy_config(8), input_hw=(64, 64))
    with_skips = sum(1 for n in g.nodes if n.kind in ("conv", "tconv"))
    assert count_layers(g) < with_skips


def test_spatial_trace_stages():
    g = build_classifier(toy_config(8), input_hw=(64, 64))
    names = [s for s, _ in spatial_trace(g)]
    assert names[0] == "conv1"
    assert names[-1] == "pool"
    assert [hw[1] for _, hw in spatial_trace(g)] == [32, 16, 16, 8, 8, 4, 4, 2, 2, 1]


def test_report_text_mentions_totals():
    g = build_classifier(toy_config(8), input_hw=(64, 64))
    text = format_report(analyze(g))
    assert "params total:" in text
    assert "trace:" in text
    assert "conv1" in text


def test_report_csv_has_header_and_rows():
    g = chain_graph()
    csv = report_csv(analyze(g))
    lines = csv.strip().splitlines()
    assert lines[0] == "node,kind,out_c,out_h,out_w,params,rf_h,rf_w,jump_h,jump_w"
    assert len(lines) == 1 + len(g.nodes)


def test_merge_with_unequal_jumps_rejected():
    g = NetworkGraph(1, (16, 16))
    g.add("a", "conv", ["input"], cin=1, cout=1, k=(3, 3), s=(2, 2),
          d=(1, 1), p=(1, 1))
    g.add("b", "conv", ["input"], cin=1, cout=1, k=(3, 3), s=(1, 1),
          d=(1, 1), p=(1, 1))
    with pytest.raises(GraphError):
        g.add("m", "add", ["a", "b"])
        receptive_field(g)


def test_dump_activations_writes_levels(tmp_path):
    g = build_classifier(toy_config(8, num_classes=5), input_hw=(32, 32))
    net = Network(g, seed=1)
    x = np.random.default_rng(0).normal(size=(1, 3, 32, 32)).astype(np.float32)
    records = dump_activations(net, x, str(tmp_path))
    assert records
    for rec in records:
        assert os.path.exists(rec["raster"])
    # classifier output is 1x1 so no prediction raster
    assert all(r["level"] is not None for r in records)
    # levels are ordered
    lv = [r["level"] for r in records]
    assert lv == sorted(lv)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dump_activations_container_holds_collected_values(tmp_path, dtype):
    g = build_classifier(toy_config(8, num_classes=5), input_hw=(32, 32))
    net = Network(g, dtype=dtype, seed=1)
    x = np.random.default_rng(0).normal(size=(1, 3, 32, 32)).astype(dtype)
    records = dump_activations(net, x, str(tmp_path))
    # one entry per level, bound to the graph, in the network's dtype
    entries, _, digest = read_checkpoint(tmp_path / "activations.sunc")
    assert digest == g.digest
    assert sorted(entries) == sorted(f"act/{r['node']}" for r in records)
    _, grabbed = net.forward(x, collect=[r["node"] for r in records])
    for rec in records:
        got, want = entries[rec["tensor"]], grabbed[rec["node"]].data
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()


def test_dump_activations_picks_strongest_channel(tmp_path):
    g = NetworkGraph(2, (8, 8))
    g.add("c1", "conv", ["input"], cin=2, cout=3, k=(1, 1), s=(1, 1),
          d=(1, 1), p=(0, 0), level=1)
    net = Network(g, seed=0)
    w = np.zeros((3, 2, 1, 1), dtype=np.float32)
    w[2, 0, 0, 0] = 5.0  # channel 2 dominates
    w[0, 0, 0, 0] = 0.1
    net.params["c1.w"].data = w
    x = np.ones((1, 2, 8, 8), dtype=np.float32)
    records = dump_activations(net, x, str(tmp_path))
    assert records[0]["channel"] == 2


def test_dump_activations_requires_levels(tmp_path):
    g = chain_graph()
    net = Network(g, seed=0)
    with pytest.raises(GraphError):
        dump_activations(net, np.zeros((1, 1, 32, 32), dtype=np.float32),
                         str(tmp_path))
