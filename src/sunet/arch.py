"""SUNet backbones: block configurations, presets and graph assembly.

A network is a 7x7 stem conv, one strided residual pair, four stacks of
u-net modules separated by 2x2 average-pool transitions, and a BN-ReLU
(one ``bn_relu`` node, ``head.bn``).
``build_backbone`` emits that body at any per-block dilation rate; the
classifier runs it at rate 1 and adds a global-average-pool head whose
fully-connected layer is a 1x1 conv, and ``segment.to_segmentation``
runs the same body at the rates of its output stride; neither stores an
input extent. Presets mirror the published SUNet-64 / SUNet-128 /
SUNet-7-128 configurations.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graph import GraphError, NetworkGraph, config_to_meta
from .unet import add_module, bn_relu_conv

FEATURES = "head.bn"  # the backbone's output, computed at every output stride


@dataclass(frozen=True)
class BlockSpec:
    """One stack of identical u-net modules."""
    modules: int
    width: int
    out_channels: int
    trimmed: bool = False

    def to_dict(self) -> dict:
        return {"modules": self.modules, "width": self.width,
                "out_channels": self.out_channels, "trimmed": self.trimmed}

    @classmethod
    def from_dict(cls, obj: dict) -> "BlockSpec":
        return cls(int(obj["modules"]), int(obj["width"]),
                   int(obj["out_channels"]), bool(obj.get("trimmed", False)))


@dataclass(frozen=True)
class SUNetConfig:
    name: str
    blocks: tuple[BlockSpec, ...]
    stem_channels: int = 64
    stem_out: int = 128
    num_classes: int = 1000

    def to_dict(self) -> dict:
        return {"name": self.name, "blocks": [b.to_dict() for b in self.blocks],
                "stem_channels": self.stem_channels, "stem_out": self.stem_out,
                "num_classes": self.num_classes}

    @classmethod
    def from_dict(cls, obj: dict) -> "SUNetConfig":
        try:
            blocks = tuple(BlockSpec.from_dict(b) for b in obj["blocks"])
            return cls(str(obj["name"]), blocks,
                       stem_channels=int(obj.get("stem_channels", 64)),
                       stem_out=int(obj.get("stem_out", 128)),
                       num_classes=int(obj.get("num_classes", 1000)))
        except (KeyError, TypeError) as exc:
            raise GraphError(f"bad network config: {exc}") from None


def _preset(name: str, n: int, stacks: tuple[int, int, int, int],
            outs: tuple[int, int, int, int]) -> SUNetConfig:
    blocks = tuple(BlockSpec(m, n, c, trimmed=(i == 3))
                   for i, (m, c) in enumerate(zip(stacks, outs)))
    return SUNetConfig(name, blocks)


PRESETS: dict[str, SUNetConfig] = {
    "sunet64": _preset("sunet64", 64, (2, 4, 4, 1), (256, 512, 768, 1024)),
    "sunet128": _preset("sunet128", 128, (2, 4, 4, 1), (512, 1024, 1536, 2048)),
    "sunet7_128": _preset("sunet7_128", 128, (2, 7, 7, 1), (512, 1280, 2048, 2304)),
}


def preset(name: str) -> SUNetConfig:
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise GraphError(f"unknown preset {name!r} (known: {known})") from None


def toy_config(n: int, *, modules: tuple[int, int, int, int] = (1, 1, 1, 1),
               num_classes: int = 1000, name: str | None = None) -> SUNetConfig:
    """Scaled-down configuration with width n everywhere.

    Block k outputs 4*k*n channels, mirroring the sunet64 progression;
    the stem shrinks to n / 2n so tiny models stay tiny.
    """
    blocks = tuple(BlockSpec(m, n, 4 * n * (i + 1), trimmed=(i == 3))
                   for i, m in enumerate(modules))
    return SUNetConfig(name or f"toy{n}", blocks, stem_channels=n,
                       stem_out=2 * n, num_classes=num_classes)


def build_backbone(g: NetworkGraph, cfg: SUNetConfig,
                   rates: tuple[int, int, int, int], multigrid: bool) -> int:
    """Emit the stem, residual pair, four module blocks and head bn_relu.

    Block i runs at dilation ``rates[i]``, in the multigrid module layout
    when ``multigrid`` is set and its rate is above 1. Where the rate
    doubles, the transition keeps its 2x2 window but drops the stride and
    is dilated by the incoming rate, with tail padding to keep the extent.
    Node names never depend on the rates, so every output stride shares
    parameters with the classifier by name. Returns head.bn's channels.
    """
    if len(cfg.blocks) != 4:
        raise GraphError(f"config {cfg.name!r}: expected 4 blocks, got {len(cfg.blocks)}")
    # stem: the first conv runs on raw pixels, so no pre-activation here
    g.add("conv1", "conv", ["input"], cin=g.in_channels, cout=cfg.stem_channels,
          k=(7, 7), s=(2, 2), d=(1, 1), p=(3, 3), stage="conv1", level=1)
    a = bn_relu_conv(g, "res.a", "conv1", cfg.stem_channels, cfg.stem_out, s=2)
    b = bn_relu_conv(g, "res.b", a, cfg.stem_out, cfg.stem_out)
    g.add("res.skip", "conv", ["conv1"], cin=cfg.stem_channels,
          cout=cfg.stem_out, k=(1, 1), s=(2, 2), d=(1, 1), p=(0, 0),
          role="skip")
    cur = g.add("res.out", "add", [b, "res.skip"], stage="res", level=2)

    cin = cfg.stem_out
    for bi, (blk, rate) in enumerate(zip(cfg.blocks, rates), start=1):
        if bi > 1:
            r_in = rates[bi - 2]
            s, d, tail = (2, 1, 0) if rate == r_in else (1, r_in, r_in)
            cur = g.add(f"t{bi - 1}", "avg_pool", [cur], window=(2, 2),
                        s=(s, s), d=(d, d), pad=(0, tail, 0, tail),
                        stage=f"transition{bi - 1}")
        for mi in range(1, blk.modules + 1):
            cur = add_module(g, f"b{bi}.m{mi}", cur, cin, blk.width,
                             blk.out_channels, trimmed=blk.trimmed,
                             multigrid=multigrid and rate > 1, rate=rate)
            cin = blk.out_channels
        g.tag(cur, stage=f"block{bi}", level=2 + bi)

    g.add(FEATURES, "bn_relu", [cur], c=cin)
    return cin


def build_classifier(cfg: SUNetConfig, input_hw: tuple[int, int] = (224, 224),
                     in_channels: int = 3) -> NetworkGraph:
    """Materialize a classification graph, checked at input_hw (not stored)."""
    h, w = int(input_hw[0]), int(input_hw[1])
    if h < 8 or w < 8:
        raise GraphError(f"config {cfg.name!r}: input {h}x{w} too small")
    g = NetworkGraph(in_channels)
    g.meta["kind"] = "classifier"
    g.meta["config"] = config_to_meta(cfg.to_dict())
    cin = build_backbone(g, cfg, (1, 1, 1, 1), multigrid=False)
    g.add("head.gap", "gap", [FEATURES], stage="pool")
    g.add("head.fc", "conv", ["head.gap"], cin=cin, cout=cfg.num_classes,
          k=(1, 1), s=(1, 1), d=(1, 1), p=(0, 0), bias=True)
    g.infer_shapes((h, w))
    return g
