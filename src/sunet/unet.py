"""U-net module builders.

A module is a small encoder-decoder unit that returns to the resolution
of its input and carries an outer residual connection. Every conv inside
is pre-activated (BN-ReLU-Conv). The same unit is emitted in two layouts:

* strided: encoder convs downsample by 2, decoder transposed convs
  restore the grid. This is the classification layout.
* multigrid: all strides become 1 and each conv instead receives the
  dilation of the grid it occupied in the strided layout (rate r at the
  module grid, 2r one level down, 4r two levels down). A phase mask
  between the ReLU and each transposed conv zeroes the positions that
  did not exist in the strided layout, so the interleaved grids never
  mix and the dilated module reproduces the strided module's values
  exactly on the surviving subgrid, whatever the BN state.

The full module has two encoder/decoder levels (E1/E2, D2/D1) and feeds
the concatenation of E1's output with D2's output into D1. The trimmed
variant keeps a single level and drops the concatenation.

In the strided layout with ``rate > 1`` the strides are kept and every
3x3 conv simply runs at a uniform dilation of ``rate``. That mode exists
as the ablation counterpart of multigrid: it subsamples features inside
the module, so it does not reproduce the full-resolution computation.
"""
from __future__ import annotations

from .graph import GraphError, NetworkGraph
from .tensor import conv_out_size, tconv_out_size

BN_DECAY = 0.99
BN_EPS = 1e-5


def bn_relu_conv(g: NetworkGraph, base: str, src: str, cin: int, cout: int, *,
                 k: int = 3, s: int = 1, d: int = 1, tconv: bool = False,
                 op: tuple[int, int] = (0, 0),
                 mask: tuple[str, int, int] | None = None) -> str:
    """Emit a pre-activated block: bn -> relu -> [mask] -> (transposed) conv.

    Padding is always the size-preserving d*(k-1)/2, convs carry no bias
    (a BN follows every block boundary). ``mask=(name, period, keep)``
    puts a grid_mask node of that name between the relu and the conv, so
    the conv sees exact zeros at the masked positions. Returns the conv
    node name.
    """
    p = d * (k - 1) // 2
    g.add(f"{base}.bn", "bn", [src], c=cin, decay=BN_DECAY, eps=BN_EPS)
    feed = g.add(f"{base}.relu", "relu", [f"{base}.bn"])
    if mask is not None:
        name, period, keep = mask
        feed = g.add(name, "grid_mask", [feed], period=period, keep=keep)
    attrs = dict(cin=cin, cout=cout, k=(k, k), s=(s, s), d=(d, d), p=(p, p),
                 bias=False)
    if tconv:
        attrs["op"] = op
        return g.add(f"{base}.conv", "tconv", [feed], **attrs)
    return g.add(f"{base}.conv", "conv", [feed], **attrs)


def add_module(g: NetworkGraph, prefix: str, src: str, cin: int, width: int,
               cout: int, hw: tuple[int, int], *, trimmed: bool = False,
               multigrid: bool = False, rate: int = 1) -> str:
    """Append one u-net module to the graph; returns its output node name.

    ``hw`` is the spatial size of ``src``; the strided layout needs it to
    pick the transposed-conv output padding that lands the decoder back
    on the exact input grid (1 for an even extent, 0 for an odd one).
    The module output keeps ``hw`` in both layouts.
    """
    if width < 1 or cout < 1:
        raise GraphError(f"module {prefix!r}: bad widths {width}/{cout}")
    if rate < 1:
        raise GraphError(f"module {prefix!r}: dilation rate {rate} < 1")
    r = rate
    bin_ = bn_relu_conv(g, f"{prefix}.bin", src, cin, width, k=1)
    if multigrid:
        e1a = bn_relu_conv(g, f"{prefix}.e1a", bin_, width, width, d=r)
        e1b = bn_relu_conv(g, f"{prefix}.e1b", e1a, width, width, d=2 * r)
        if trimmed:
            d1a = bn_relu_conv(g, f"{prefix}.d1a", e1b, width, width, d=r,
                               tconv=True, mask=(f"{prefix}.d1mask", 2 * r, r))
        else:
            e2a = bn_relu_conv(g, f"{prefix}.e2a", e1b, width, width, d=2 * r)
            e2b = bn_relu_conv(g, f"{prefix}.e2b", e2a, width, width, d=4 * r)
            d2a = bn_relu_conv(g, f"{prefix}.d2a", e2b, width, width, d=2 * r,
                               tconv=True, mask=(f"{prefix}.d2mask", 4 * r, r))
            d2b = bn_relu_conv(g, f"{prefix}.d2b", d2a, width, width, d=2 * r)
            cat = g.add(f"{prefix}.cat", "concat", [e1b, d2b])
            d1a = bn_relu_conv(g, f"{prefix}.d1a", cat, 2 * width, width, d=r,
                               tconv=True, mask=(f"{prefix}.d1mask", 2 * r, r))
        d1b = bn_relu_conv(g, f"{prefix}.d1b", d1a, width, width, d=r)
    else:
        h, w = hw
        e1 = (conv_out_size(h, 3, 2, r, r), conv_out_size(w, 3, 2, r, r))
        op1 = (h - tconv_out_size(e1[0], 3, 2, r, r, 0),
               w - tconv_out_size(e1[1], 3, 2, r, r, 0))
        e1a = bn_relu_conv(g, f"{prefix}.e1a", bin_, width, width, s=2, d=r)
        e1b = bn_relu_conv(g, f"{prefix}.e1b", e1a, width, width, d=r)
        if trimmed:
            d1a = bn_relu_conv(g, f"{prefix}.d1a", e1b, width, width, s=2,
                               d=r, tconv=True, op=op1)
        else:
            e2 = (conv_out_size(e1[0], 3, 2, r, r), conv_out_size(e1[1], 3, 2, r, r))
            op2 = (e1[0] - tconv_out_size(e2[0], 3, 2, r, r, 0),
                   e1[1] - tconv_out_size(e2[1], 3, 2, r, r, 0))
            e2a = bn_relu_conv(g, f"{prefix}.e2a", e1b, width, width, s=2, d=r)
            e2b = bn_relu_conv(g, f"{prefix}.e2b", e2a, width, width, d=r)
            d2a = bn_relu_conv(g, f"{prefix}.d2a", e2b, width, width, s=2,
                               d=r, tconv=True, op=op2)
            d2b = bn_relu_conv(g, f"{prefix}.d2b", d2a, width, width, d=r)
            cat = g.add(f"{prefix}.cat", "concat", [e1b, d2b])
            d1a = bn_relu_conv(g, f"{prefix}.d1a", cat, 2 * width, width, s=2,
                               d=r, tconv=True, op=op1)
        d1b = bn_relu_conv(g, f"{prefix}.d1b", d1a, width, width, d=r)
    bout = bn_relu_conv(g, f"{prefix}.bout", d1b, width, cout, k=1)
    if cin == cout:
        skip = src
    else:
        # expansion layer: plain 1x1 projection on the residual path
        skip = g.add(f"{prefix}.skip", "conv", [src], cin=cin, cout=cout,
                     k=(1, 1), s=(1, 1), d=(1, 1), p=(0, 0), bias=False,
                     role="skip")
    return g.add(f"{prefix}.out", "add", [bout, skip])


def module_graph(cin: int, width: int, cout: int, hw: tuple[int, int] = (32, 32),
                 *, trimmed: bool = False, multigrid: bool = False,
                 rate: int = 1) -> NetworkGraph:
    """Standalone graph holding a single module, for analysis and tests."""
    g = NetworkGraph(cin, hw)
    add_module(g, "m", "input", cin, width, cout, hw, trimmed=trimmed,
               multigrid=multigrid, rate=rate)
    g.meta["kind"] = "module"
    return g
