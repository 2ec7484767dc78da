import numpy as np
import pytest

from sunet.graph import GraphError
from sunet.runtime import Network
from sunet.segment import copy_shared
from sunet.unet import module_graph


def forward(net, x):
    from sunet.tensor import no_grad
    with no_grad():
        return net.forward(x, training=False).data


@pytest.mark.parametrize("hw", [(16, 16), (17, 17), (16, 21)])
@pytest.mark.parametrize("trimmed", [False, True])
def test_module_preserves_spatial_size(hw, trimmed):
    g = module_graph(8, 8, 8, trimmed=trimmed)
    net = Network(g, seed=0)
    x = np.random.default_rng(0).normal(size=(1, 8, *hw)).astype(np.float32)
    out = forward(net, x)
    assert out.shape == (1, 8, *hw)


def test_module_projects_channels():
    g = module_graph(8, 4, 12)
    net = Network(g, seed=0)
    x = np.zeros((2, 8, 16, 16), dtype=np.float32)
    assert forward(net, x).shape == (2, 12, 16, 16)
    # expansion path uses a 1x1 conv marked as skip so it stays out of
    # the depth count
    assert g.by_name["m.skip"].tags.get("role") == "skip"


def test_module_identity_skip_when_widths_match():
    g = module_graph(8, 4, 8)
    assert "m.skip" not in g.by_name


def test_multigrid_rate1_equals_strided_layout():
    # at rate 1 the mask keeps everything and both layouts compute the
    # same function once parameters are shared
    gs = module_graph(8, 8, 8, multigrid=False)
    gm = module_graph(8, 8, 8, multigrid=True, rate=1)
    ns, nm = Network(gs, seed=3), Network(gm, seed=5)
    copied = copy_shared(ns, nm)
    assert copied
    x = np.random.default_rng(1).normal(size=(1, 8, 16, 16)).astype(np.float32)
    a, b = forward(ns, x), forward(nm, x)
    # strided path decimates then restores; rate-1 multigrid never
    # decimates, so equality holds only where phases align: everywhere,
    # because keep == period == 1 samples the identical positions
    assert a.shape == b.shape
    assert np.max(np.abs(a - b)) < 1e-5


@pytest.mark.parametrize("hw", [(15, 15), (16, 16), (17, 17), (15, 18)])
@pytest.mark.parametrize("trimmed", [False, True])
@pytest.mark.parametrize("multigrid", [False, True])
def test_module_built_once_restores_any_input_extent(hw, trimmed, multigrid):
    # one module graph fed odd, even and non-square inputs: every
    # transposed conv derives its output padding from the extent it
    # restores, so the output keeps the input extent
    g = module_graph(8, 8, 8, trimmed=trimmed, multigrid=multigrid,
                     rate=2 if multigrid else 1)
    net = Network(g, seed=0)
    x = np.random.default_rng(0).normal(size=(1, 8, *hw)).astype(np.float32)
    assert forward(net, x).shape == (1, 8, *hw)
    assert g.infer_shapes(hw)[g.output] == (8, *hw)


def test_full_module_block_names():
    g = module_graph(8, 8, 8)
    names = {n.name for n in g.nodes}
    for stem in ("m.bin", "m.e1a", "m.e1b", "m.e2a", "m.e2b", "m.d2a",
                 "m.d2b", "m.d1a", "m.d1b", "m.bout"):
        assert f"{stem}.conv" in names
    assert "m.cat" in names
    assert "m.out" in names


def test_trimmed_module_drops_inner_level():
    g = module_graph(8, 8, 8, trimmed=True)
    names = {n.name for n in g.nodes}
    assert "m.e2a.conv" not in names
    assert "m.cat" not in names
    assert "m.d1a.conv" in names


def test_multigrid_masks_present_with_rate():
    g = module_graph(8, 8, 8, multigrid=True, rate=2)
    d2 = g.by_name["m.d2mask"]
    d1 = g.by_name["m.d1mask"]
    assert (d2.attrs["period"], d2.attrs["keep"]) == (8, 2)
    assert (d1.attrs["period"], d1.attrs["keep"]) == (4, 2)
    # all convs stride 1 in the multigrid layout
    for n in g.nodes:
        if n.kind in ("conv", "tconv"):
            assert n.attrs["s"] == (1, 1)


def test_module_rejects_bad_rate():
    with pytest.raises(GraphError):
        module_graph(8, 8, 8, multigrid=True, rate=0)


def test_module_rejects_bad_width():
    with pytest.raises(GraphError):
        module_graph(8, 0, 8)
