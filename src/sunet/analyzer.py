"""Static analysis over network graphs.

Everything here works off the graph description alone: parameter counts
come from node attributes, receptive fields from the layer recurrence,
and shape traces from the graph's shape rules. The activation dump is
the one routine that touches real weights.
"""
from __future__ import annotations

import os
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .graph import GraphError, NetworkGraph
from .io import write_checkpoint, write_pgm
from .runtime import param_shapes
from .tensor import no_grad


class RFState(NamedTuple):
    """Receptive field of one node along one axis, in input pixels.

    rf is the support extent, jump the spacing between adjacent output
    samples. Exact rationals, so transposed layers lose nothing to
    rounding.
    """
    rf: Fraction
    jump: Fraction


def param_counts(graph: NetworkGraph) -> dict[str, int]:
    """Per-node learnable parameter element counts."""
    counts: dict[str, int] = {}
    for key, shape in param_shapes(graph).items():
        node = key.rsplit(".", 1)[0]
        counts[node] = counts.get(node, 0) + int(np.prod(shape))
    return counts


def count_params(graph: NetworkGraph) -> int:
    return sum(param_counts(graph).values())


def count_layers(graph: NetworkGraph) -> int:
    """Depth convention: conv + transposed-conv + fully-connected layers.

    Residual projections (role=skip) are channel bookkeeping, not depth,
    and BN/ReLU are folded into their conv blocks.
    """
    return sum(1 for n in graph.nodes
               if n.kind in ("conv", "tconv")
               and n.tags.get("role") != "skip")


def count_skip_layers(graph: NetworkGraph) -> int:
    return sum(1 for n in graph.nodes
               if n.kind in ("conv", "tconv")
               and n.tags.get("role") == "skip")


def receptive_field(graph: NetworkGraph, hw: tuple[int, int] | None = None
                    ) -> dict[str, tuple[RFState, RFState]]:
    """Per-node receptive-field state along (height, width).

    Recurrence per k-tap layer: rf' = rf + (k-1)*d*jump, jump' = jump*s;
    transposed layers divide the jump first. Merge nodes take the
    element-wise max of rf and require equal jumps.
    """
    return _fields(graph, graph.infer_shapes(hw))


def _fields(graph: NetworkGraph, shapes) -> dict[str, tuple[RFState, RFState]]:
    """receptive_field over already inferred node shapes."""
    states: dict[str, tuple[RFState, RFState]] = {}

    def tap(st: RFState, k: int, d: int, s: int) -> RFState:
        return RFState(st.rf + (k - 1) * d * st.jump, st.jump * s)

    for node in graph.nodes:
        kind, a = node.kind, node.attrs
        if kind == "input":
            states[node.name] = (RFState(Fraction(1), Fraction(1)),) * 2
            continue
        srcs = [states[s] for s in node.inputs]
        h, w = srcs[0]
        if kind == "conv":
            h = tap(h, a["k"][0], a["d"][0], a["s"][0])
            w = tap(w, a["k"][1], a["d"][1], a["s"][1])
        elif kind == "tconv":
            h = tap(h._replace(jump=h.jump / a["s"][0]), a["k"][0], a["d"][0], 1)
            w = tap(w._replace(jump=w.jump / a["s"][1]), a["k"][1], a["d"][1], 1)
        elif kind == "avg_pool":
            h = tap(h, a["window"][0], a["d"][0], a["s"][0])
            w = tap(w, a["window"][1], a["d"][1], a["s"][1])
        elif kind == "gap":
            # an avg_pool whose window and stride are the input extent
            _, sh, sw = shapes[node.inputs[0]]
            h, w = tap(h, sh, 1, sh), tap(w, sw, 1, sw)
        elif kind in ("bn_relu", "grid_mask"):
            pass
        elif kind in ("add", "concat"):
            for h2, w2 in srcs[1:]:
                if (h2.jump, w2.jump) != (h.jump, w.jump):
                    raise GraphError(
                        f"node {node.name!r}: merging grids with different jumps")
                h = h._replace(rf=max(h.rf, h2.rf))
                w = w._replace(rf=max(w.rf, w2.rf))
        elif kind == "upsample":
            _, sh, sw = shapes[node.inputs[0]]
            _, oh, ow = shapes[node.name]
            rf_h = h.rf + h.jump if oh > 1 else h.rf
            rf_w = w.rf + w.jump if ow > 1 else w.rf
            h = RFState(rf_h, h.jump * Fraction(sh, oh))
            w = RFState(rf_w, w.jump * Fraction(sw, ow))
        else:
            raise GraphError(f"node {node.name!r}: no field rule for kind {kind!r}")
        states[node.name] = (h, w)
    return states


def fov(graph: NetworkGraph, node: str, hw: tuple[int, int] | None = None) -> int:
    """Receptive-field height of one node as a plain integer."""
    st = receptive_field(graph, hw)
    if node not in st:
        raise GraphError(f"node {node!r}: not in graph")
    rf = st[node][0].rf
    return int(rf) if rf.denominator == 1 else float(rf)


def spatial_trace(graph: NetworkGraph, hw: tuple[int, int] | None = None
                  ) -> list[tuple[str, tuple[int, int, int]]]:
    """(stage, (c, h, w)) for every stage-tagged node, in graph order."""
    shapes = graph.infer_shapes(hw)
    return [(n.tags["stage"], shapes[n.name]) for n in graph.tagged("stage")]


def analyze(graph: NetworkGraph, hw: tuple[int, int] | None = None) -> dict:
    """Full static report: per-node rows plus totals and the stage trace."""
    shapes = graph.infer_shapes(hw)
    fields = _fields(graph, shapes)
    params = param_counts(graph)
    rows = []
    for node in graph.nodes:
        (h, w) = fields[node.name]
        c, oh, ow = shapes[node.name]
        rows.append({
            "node": node.name, "kind": node.kind,
            "out": (c, oh, ow), "params": params.get(node.name, 0),
            "rf": (h.rf, w.rf), "jump": (h.jump, w.jump),
        })
    stages = [(n.tags["stage"], n.name, shapes[n.name]) for n in graph.tagged("stage")]
    return {
        "input": (graph.in_channels,) + tuple(hw or graph.in_hw),
        "kind": graph.meta.get("kind", "?"),
        "rows": rows,
        "total_params": sum(params.values()),
        "layers": count_layers(graph),
        "skip_layers": count_skip_layers(graph),
        "trace": [(stage, shape) for stage, _, shape in stages],
        "stages": stages,
    }


def format_report(report: dict) -> str:
    c, h, w = report["input"]
    lines = [f"kind: {report['kind']}   input: {c}x{h}x{w}"]
    lines.append(f"layers (conv+tconv+fc): {report['layers']}   "
                 f"skip projections: {report['skip_layers']}")
    total = report["total_params"]
    lines.append(f"params total: {total}   params ≈ {total / 1e6:.1f}M")
    trace = " ".join(str(s[1][1]) for s in report["trace"])
    lines.append(f"trace: {trace}")
    lines.append("")
    lines.append(f"{'stage':<14}{'node':<22}{'output':<16}rf")
    by_node = {r["node"]: r for r in report["rows"]}
    for stage, node, (sc, sh, sw) in report["stages"]:
        rf = by_node[node]["rf"]
        rf_txt = f"{_fmt_frac(rf[0])}x{_fmt_frac(rf[1])}"
        lines.append(f"{stage:<14}{node:<22}{f'{sc}x{sh}x{sw}':<16}{rf_txt}")
    return "\n".join(lines) + "\n"


def report_csv(report: dict) -> str:
    lines = ["node,kind,out_c,out_h,out_w,params,rf_h,rf_w,jump_h,jump_w"]
    for r in report["rows"]:
        c, h, w = r["out"]
        rf_h, rf_w = (_fmt_frac(v) for v in r["rf"])
        j_h, j_w = (_fmt_frac(v) for v in r["jump"])
        lines.append(f"{r['node']},{r['kind']},{c},{h},{w},{r['params']},"
                     f"{rf_h},{rf_w},{j_h},{j_w}")
    return "\n".join(lines) + "\n"


def _fmt_frac(v: Fraction) -> str:
    return str(int(v)) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def dump_activations(net, x, out_dir: str) -> list[dict]:
    """Write per-level activation maps for one input.

    For every level-tagged node the channel with the largest L1 magnitude
    is min-max scaled to 8-bit and written as a PGM. The full activations
    go to one checkpoint container, activations.sunc, bound to the graph
    digest, as the entry act/<node> named by the record's tensor field.
    Spatial network outputs additionally produce an argmax prediction
    raster. Returns one record per written level.
    """
    levels = net.graph.tagged("level")
    if not levels:
        raise GraphError("graph has no level markers")
    levels = sorted(levels, key=lambda n: n.tags["level"])
    x = np.asarray(x)
    if x.ndim == 3:
        x = x[None]
    os.makedirs(out_dir, exist_ok=True)
    with no_grad():
        out, grabbed = net.forward(x, training=False,
                                   collect=[n.name for n in levels])
    records = []
    entries = {}
    for node in levels:
        key = f"act/{node.name}"
        entries[key] = grabbed[node.name].data
        a = entries[key][0]
        mags = np.abs(a).sum(axis=(1, 2))
        ch = int(np.argmax(mags))
        records.append({
            "level": int(node.tags["level"]), "node": node.name,
            "channel": ch,
            "raster": _write_level(out_dir, node.tags["level"], node.name,
                                   a, ch),
            "tensor": key,
        })
    write_checkpoint(os.path.join(out_dir, "activations.sunc"), entries,
                     graph_digest=net.graph.digest)
    pred = out.data
    if pred.shape[2] > 1 and pred.shape[3] > 1:
        labels = np.argmax(pred[0], axis=0).astype(np.uint8)
        path = os.path.join(out_dir, "prediction.pgm")
        write_pgm(path, labels)
        records.append({"level": None, "node": net.graph.output,
                        "channel": None, "raster": path, "tensor": None})
    return records


def _write_level(out_dir, level, name, a, ch) -> str:
    img = a[ch]
    lo, hi = float(img.min()), float(img.max())
    if hi > lo:
        scaled = np.round((img - lo) / (hi - lo) * 255.0)
    else:
        scaled = np.zeros_like(img)
    path = os.path.join(out_dir, f"level{level}_{name}.pgm")
    write_pgm(path, scaled.astype(np.uint8))
    return path
