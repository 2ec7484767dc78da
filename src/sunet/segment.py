"""Classification-to-segmentation conversion and the dilation identity check.

Conversion rebuilds the classifier's backbone with the same builder
(``arch.build_backbone``) at the block rates of the target output
stride: the pooled strides that stride does not allow are dropped and
everything downstream is dilated, so receptive fields are untouched.
Only the head is new: the classifier's pooled head, whose
fully-connected layer is already a 1x1 conv, gives way to a 1x1 scoring
conv on the unpooled features (optionally behind two degridding convs),
and logits are bilinearly upsampled back to input size.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .analyzer import receptive_field
from .arch import FEATURES, SUNetConfig, build_backbone, build_classifier
from .graph import GraphError, NetworkGraph, config_to_meta
from .tensor import no_grad
from .unet import bn_relu_conv

# base dilation per block for each supported output stride
_BLOCK_RATES = {32: (1, 1, 1, 1), 16: (1, 1, 1, 2), 8: (1, 1, 2, 4)}


@dataclass(frozen=True)
class SegmentationConfig:
    num_classes: int
    output_stride: int = 16
    multigrid: bool = True
    degridding: bool = False
    upsample_to_input: bool = True

    def to_dict(self) -> dict:
        return {"num_classes": self.num_classes,
                "output_stride": self.output_stride,
                "multigrid": self.multigrid,
                "degridding": self.degridding,
                "upsample_to_input": self.upsample_to_input}

    @classmethod
    def from_dict(cls, obj: dict) -> "SegmentationConfig":
        try:
            return cls(int(obj["num_classes"]),
                       output_stride=int(obj.get("output_stride", 16)),
                       multigrid=bool(obj.get("multigrid", True)),
                       degridding=bool(obj.get("degridding", False)),
                       upsample_to_input=bool(obj.get("upsample_to_input", True)))
        except (KeyError, TypeError) as exc:
            raise GraphError(f"bad segmentation config: {exc}") from None


def to_segmentation(g: NetworkGraph, cfg: SegmentationConfig) -> NetworkGraph:
    """Rewrite a classifier graph into a segmentation graph.

    The backbone comes from the classifier's own builder, so it carries
    the classifier's node names and classifier checkpoints load into the
    converted network by plain name matching (``copy_shared``).
    """
    if cfg.output_stride not in _BLOCK_RATES:
        raise GraphError(f"unsupported output stride {cfg.output_stride}")
    if g.meta.get("kind") != "classifier" or "config" not in g.meta:
        raise GraphError("conversion needs a classifier graph with config metadata")
    net_cfg = SUNetConfig.from_dict(json.loads(g.meta["config"]))
    rates = _BLOCK_RATES[cfg.output_stride]

    out = NetworkGraph(g.in_channels, g.in_hw)
    out.meta["kind"] = "segmentation"
    out.meta["config"] = g.meta["config"]
    out.meta["seg"] = config_to_meta(cfg.to_dict())
    out.meta["output_stride"] = str(cfg.output_stride)
    cin = build_backbone(out, net_cfg, rates, cfg.multigrid)
    cur = FEATURES
    if cfg.degridding:
        d1 = max(rates[-1] // 2, 1)
        d2 = max(rates[-1] // 4, 1)
        cur = out.add("deg1.conv", "conv", [cur], cin=cin, cout=512,
                      k=(3, 3), s=(1, 1), d=(d1, d1), p=(d1, d1))
        cur = bn_relu_conv(out, "deg2", cur, 512, 512, d=d2)
        cin = 512
    out.add("cls.bn", "bn_relu", [cur], c=cin)
    cur = out.add("cls.conv", "conv", ["cls.bn"], cin=cin,
                  cout=cfg.num_classes, k=(1, 1), s=(1, 1), d=(1, 1),
                  p=(0, 0), bias=True, stage="classifier", level=6)
    if cfg.upsample_to_input:
        out.add("up", "upsample", [cur])
    return out


def rebuild_for_input(graph: NetworkGraph, hw: tuple[int, int]) -> NetworkGraph:
    """Re-derive the same architecture for a different declared input extent.

    Graphs already run at any input size, so inference never needs
    this; it is the per-extent reference that tests compare one-graph
    multi-scale inference against. Returns the graph itself when the
    extent already matches.
    """
    hw = (int(hw[0]), int(hw[1]))
    if graph.in_hw == hw:
        return graph
    kind = graph.meta.get("kind")
    if kind not in ("classifier", "segmentation") or "config" not in graph.meta:
        raise GraphError(f"cannot rebuild graph of kind {kind!r} for a new input size")
    cfg = SUNetConfig.from_dict(json.loads(graph.meta["config"]))
    base = build_classifier(cfg, input_hw=hw)
    if kind == "classifier":
        return base
    seg = SegmentationConfig.from_dict(json.loads(graph.meta["seg"]))
    return to_segmentation(base, seg)


def copy_shared(src, dst) -> list[str]:
    """Copy parameters and BN statistics shared by name between networks.

    Shapes must match; anything missing on either side is left alone.
    Returns the copied names, parameters first.
    """
    copied = []
    for name, t in dst.params.items():
        s = src.params.get(name)
        if s is not None and s.data.shape == t.data.shape:
            t.data = s.data.astype(dst.dtype, copy=True)
            t.grad = None
            copied.append(name)
    for name, arr in dst.stats.items():
        s = src.stats.get(name)
        if s is not None and s.shape == arr.shape:
            dst.stats[name] = s.copy()
            copied.append(name)
    return copied


def default_margin(graph: NetworkGraph, hw: tuple[int, int],
                   feature_hw: tuple[int, int]) -> int:
    """Interior margin for the equivalence check, in feature positions.

    Enough to keep every compared receptive field of the backbone's
    features inside the input, but never so much that fewer than 2x2
    positions survive.
    """
    st = receptive_field(graph, hw)[FEATURES]
    need = 0
    for ax in (0, 1):
        half = (st[ax].rf - 1) / 2
        need = max(need, int(-(-half // st[ax].jump)))
    feasible = (min(feature_hw) - 2) // 2
    return max(0, min(need, feasible))


def atrous_equivalence_check(ref_net, dil_net, x, margin: int | None = None) -> float:
    """Max abs difference between two output strides of the same weights.

    ref_net must be the coarser network. The finer network's feature map
    is subsampled at phase 0 by the stride ratio, both maps are cropped
    to their common extent, a margin of border positions is trimmed, and
    the largest absolute difference over the remaining grid is returned.
    BN runs in eval mode; weights are expected to be shared already.
    """
    try:
        os_ref = int(ref_net.graph.meta["output_stride"])
        os_dil = int(dil_net.graph.meta["output_stride"])
    except KeyError:
        raise GraphError("both graphs need output_stride metadata") from None
    if os_dil >= os_ref or os_ref % os_dil:
        raise GraphError(f"ref must be coarser: got {os_ref} vs {os_dil}")
    factor = os_ref // os_dil
    with no_grad():
        a = ref_net.forward(x, training=False, collect=[FEATURES])[1][FEATURES].data
        b = dil_net.forward(x, training=False, collect=[FEATURES])[1][FEATURES].data
    b = b[:, :, ::factor, ::factor]
    if a.shape[:2] != b.shape[:2]:
        raise GraphError(f"feature shapes diverge: {a.shape} vs {b.shape}")
    h = min(a.shape[2], b.shape[2])
    w = min(a.shape[3], b.shape[3])
    if h < 1 or w < 1:
        raise GraphError("no overlapping positions after subsampling")
    a, b = a[:, :, :h, :w], b[:, :, :h, :w]
    if margin is None:
        margin = default_margin(ref_net.graph, x.shape[2:], (h, w))
    if margin:
        a = a[:, :, margin:h - margin, margin:w - margin]
        b = b[:, :, margin:h - margin, margin:w - margin]
    return float(np.max(np.abs(a.astype(np.float64) - b.astype(np.float64))))
