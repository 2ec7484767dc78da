import numpy as np
import pytest

from sunet.analyzer import count_layers, count_params, spatial_trace
from sunet.arch import (PRESETS, SUNetConfig, build_classifier, preset,
                        toy_config)
from sunet.graph import GraphError
from sunet.runtime import Network, param_shapes

EXPECTED = {
    "sunet64": (6894504, 110),
    "sunet128": (24673320, 110),
    "sunet7_128": (39061544, 170),
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_preset_param_and_layer_counts(name):
    g = build_classifier(preset(name))
    params, layers = EXPECTED[name]
    assert count_params(g) == params
    assert count_layers(g) == layers


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_param_count_matches_materialized_network(name):
    # static count against the arrays a real network allocates
    g = build_classifier(preset(name))
    shapes = param_shapes(g)
    total = sum(int(np.prod(s)) for s in shapes.values())
    assert total == count_params(g)


def test_preset_stage_trace_at_224():
    for name in EXPECTED:
        g = build_classifier(preset(name), input_hw=(224, 224))
        sizes = [hw[1] for _, hw in spatial_trace(g, (224, 224))]
        assert sizes == [112, 56, 56, 28, 28, 14, 14, 7, 7, 1]


def test_preset_block_structure():
    cfg = preset("sunet64")
    assert [b.modules for b in cfg.blocks] == [2, 4, 4, 1]
    assert [b.out_channels for b in cfg.blocks] == [256, 512, 768, 1024]
    assert [b.trimmed for b in cfg.blocks] == [False, False, False, True]
    cfg7 = preset("sunet7_128")
    assert [b.modules for b in cfg7.blocks] == [2, 7, 7, 1]
    assert [b.out_channels for b in cfg7.blocks] == [512, 1280, 2048, 2304]


def test_unknown_preset_lists_known_names():
    with pytest.raises(GraphError) as err:
        preset("sunet9000")
    for name in PRESETS:
        assert name in str(err.value)


def test_toy_config_shape():
    cfg = toy_config(8, modules=(1, 2, 1, 1))
    assert cfg.name == "toy8"
    assert [b.width for b in cfg.blocks] == [8, 8, 8, 8]
    assert [b.out_channels for b in cfg.blocks] == [32, 64, 96, 128]
    assert cfg.blocks[3].trimmed


def test_config_round_trips_through_dict():
    cfg = preset("sunet128")
    assert SUNetConfig.from_dict(cfg.to_dict()) == cfg


def test_config_from_dict_rejects_malformed():
    with pytest.raises(GraphError):
        SUNetConfig.from_dict({"name": "x"})


def test_classifier_head_shapes():
    g = build_classifier(toy_config(8), input_hw=(64, 64))
    shapes = g.infer_shapes((64, 64))
    assert shapes["head.gap"][1:] == (1, 1)
    assert shapes[g.output] == (1000, 1, 1)
    assert g.meta["kind"] == "classifier"


def test_classifier_rejects_tiny_input():
    with pytest.raises(GraphError):
        build_classifier(toy_config(8), input_hw=(4, 4))


def test_classifier_forward_runs():
    g = build_classifier(toy_config(8, num_classes=10), input_hw=(32, 32))
    net = Network(g, seed=0)
    x = np.random.default_rng(0).normal(size=(2, 3, 32, 32)).astype(np.float32)
    out = net.forward(x, training=True)
    assert out.data.shape == (2, 10, 1, 1)


def test_stem_is_shared_across_presets():
    stems = []
    for name in EXPECTED:
        g = build_classifier(preset(name))
        rows = []
        for node in g.nodes:
            if node.name.startswith(("conv1", "res.")):
                rows.append((node.name, node.kind, tuple(sorted(node.attrs.items()))))
        stems.append(rows)
    assert stems[0] == stems[1] == stems[2]
