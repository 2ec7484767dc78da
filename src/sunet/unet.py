"""U-net module builders.

A module is a small encoder-decoder unit that returns to the resolution
of its input and carries an outer residual connection. Every conv inside
is pre-activated (BN-ReLU-Conv). The full module has two encoder/decoder
levels (E1/E2, D2/D1) and feeds the concatenation of E1's output with
D2's output into D1; the trimmed variant keeps one level and no concat.

Both layouts come from one conv sequence. Each inner 3x3 conv sits at a
grid level l (0 is the module's input grid, each level down halves it)
and stays there, steps one level down (encoder) or one back up
(decoder); the layout only decides what that means:

* strided: a step is a stride of 2 (transposed on the way up) and every
  3x3 conv runs at dilation ``rate``. This is the classification layout;
  at ``rate > 1`` it is the ablation counterpart of multigrid, as it
  subsamples features inside the module.
* multigrid: every stride is 1 and a conv at level l runs at dilation
  d = rate * 2**l, the spacing its grid had in the strided layout (for a
  step, l is the finer level). A phase mask of period 2d between the
  BN-ReLU and each up-conv zeroes the positions the coarser grid lacked, so
  the dilated module reproduces the strided module's values exactly on
  the surviving subgrid, whatever the BN state.

No builder needs the input size: each transposed conv names the node
whose extent it restores and takes that extent at run time (the op
checks it with tconv_out_hw), so a module built once runs at every
input size.
"""
from __future__ import annotations

from .graph import GraphError, NetworkGraph


def bn_relu_conv(g: NetworkGraph, base: str, src: str, cin: int, cout: int, *,
                 k: int = 3, s: int = 1, d: int = 1, restore: str | None = None,
                 mask: tuple[str, int, int] | None = None) -> str:
    """Emit a pre-activated block: bn_relu -> [mask] -> (transposed) conv.

    The BN-ReLU is one bn_relu node named ``<base>.bn``, which holds the
    BN parameters and statistics and runs at batchnorm's own decay and
    eps. Padding is always the size-preserving d*(k-1)/2, and convs
    carry no bias (a BN follows every block boundary).
    ``restore`` names the node whose spatial extent the block restores
    and makes the conv a transposed one, with that node as its second
    input. ``mask=(name, period, keep)`` puts a grid_mask node of that
    name between the bn_relu and the conv, so the conv sees exact zeros
    at the masked positions. Returns the conv node name.
    """
    p = d * (k - 1) // 2
    feed = g.add(f"{base}.bn", "bn_relu", [src], c=cin)
    if mask is not None:
        name, period, keep = mask
        feed = g.add(name, "grid_mask", [feed], period=period, keep=keep)
    attrs = dict(cin=cin, cout=cout, k=(k, k), s=(s, s), d=(d, d), p=(p, p))
    if restore is not None:
        return g.add(f"{base}.conv", "tconv", [feed, restore], **attrs)
    return g.add(f"{base}.conv", "conv", [feed], **attrs)


def add_module(g: NetworkGraph, prefix: str, src: str, cin: int, width: int,
               cout: int, *, trimmed: bool = False, multigrid: bool = False,
               rate: int = 1) -> str:
    """Append one u-net module to the graph; returns its output node name.

    The transposed convs restore the extents of ``e1b`` (D2) and ``bin``
    (D1), so the output keeps the extent of ``src`` at any input size.
    """
    if width < 1 or cout < 1:
        raise GraphError(f"module {prefix!r}: bad widths {width}/{cout}")
    if rate < 1:
        raise GraphError(f"module {prefix!r}: dilation rate {rate} < 1")

    def conv(name: str, feed: str, level: int, *, down: bool = False,
             restore: str | None = None, c: int = width) -> str:
        # level: the conv's grid, the finer one for a step; down steps to
        # level + 1, restore steps up from it
        if multigrid:
            s, d = 1, rate * 2 ** level
            mask = (f"{prefix}.{name[:2]}mask", 2 * d, rate) if restore else None
        else:
            s, d, mask = (2 if down or restore else 1), rate, None
        return bn_relu_conv(g, f"{prefix}.{name}", feed, c, width, s=s, d=d,
                            restore=restore, mask=mask)

    bin_ = bn_relu_conv(g, f"{prefix}.bin", src, cin, width, k=1)
    e1a = conv("e1a", bin_, 0, down=True)
    up = e1b = conv("e1b", e1a, 1)
    if not trimmed:
        e2a = conv("e2a", e1b, 1, down=True)
        e2b = conv("e2b", e2a, 2)
        d2a = conv("d2a", e2b, 1, restore=e1b)
        d2b = conv("d2b", d2a, 1)
        up = g.add(f"{prefix}.cat", "concat", [e1b, d2b])
    d1a = conv("d1a", up, 0, restore=bin_, c=width if trimmed else 2 * width)
    d1b = conv("d1b", d1a, 0)
    bout = bn_relu_conv(g, f"{prefix}.bout", d1b, width, cout, k=1)
    if cin == cout:
        skip = src
    else:
        # expansion layer: plain 1x1 projection on the residual path
        skip = g.add(f"{prefix}.skip", "conv", [src], cin=cin, cout=cout,
                     k=(1, 1), s=(1, 1), d=(1, 1), p=(0, 0), role="skip")
    return g.add(f"{prefix}.out", "add", [bout, skip])


def module_graph(cin: int, width: int, cout: int, *, trimmed: bool = False,
                 multigrid: bool = False, rate: int = 1) -> NetworkGraph:
    """Standalone graph holding a single module, for analysis and tests."""
    g = NetworkGraph(cin)
    add_module(g, "m", "input", cin, width, cout, trimmed=trimmed,
               multigrid=multigrid, rate=rate)
    g.meta["kind"] = "module"
    return g
