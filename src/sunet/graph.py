"""Static network graphs.

A NetworkGraph is an ordered DAG of primitive nodes, one op each (conv,
tconv, bn_relu, pools, add, concat, upsample, grid_mask); a
fully-connected layer is a 1x1 conv on a 1x1 map, and a pre-activation
BN-ReLU is one bn_relu node. Builders append nodes in topological order;
the executor, the analyzer and the converter all walk the same
structure. Graphs serialize to a line-based text format closed by a
sha256 content digest.

Serialized tag keys (stage, level, role) are reserved and never used as
attribute names.
"""
from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field

from .tensor import conv_out_size, tconv_output_padding

GRAPH_HEADER = "sunet-graph 1"
_NAME_RE = re.compile(r"^[A-Za-z0-9._-]+$")
_TAG_KEYS = ("stage", "level", "role")

# Each kind with the attributes its nodes must carry; a conv or tconv may
# also set bias. A tconv node takes two inputs: the tensor it upsamples,
# then the node whose spatial extent it restores. Its output padding is
# derived from the two extents wherever the graph runs, so it runs at any
# input size. An upsample node restores the extent of the graph input.
KINDS = {
    "input": ("c",),
    "conv": ("cin", "cout", "k", "s", "d", "p"),
    "tconv": ("cin", "cout", "k", "s", "d", "p"),
    "bn_relu": ("c", "decay", "eps"),
    "avg_pool": ("window", "s", "d", "pad"),
    "gap": (),
    "add": (),
    "concat": (),
    "upsample": (),
    "grid_mask": ("period", "keep"),
}


class GraphError(ValueError):
    """Structural problem in a graph, always naming the node."""


@dataclass
class Node:
    name: str
    kind: str
    inputs: tuple[str, ...]
    attrs: dict = field(default_factory=dict)
    tags: dict = field(default_factory=dict)


class NetworkGraph:
    """Ordered node list plus a declared input shape and metadata."""

    def __init__(self, in_channels: int, in_hw: tuple[int, int]):
        self.in_channels = int(in_channels)
        self.in_hw = (int(in_hw[0]), int(in_hw[1]))
        self.nodes: list[Node] = []
        self.by_name: dict[str, Node] = {}
        self.meta: dict[str, str] = {}
        self.add("input", "input", (), c=self.in_channels)

    def add(self, name: str, kind: str, inputs, **attrs) -> str:
        if not _NAME_RE.match(name):
            raise GraphError(f"node {name!r}: invalid name")
        if name in self.by_name:
            raise GraphError(f"node {name!r}: duplicate name")
        if kind not in KINDS:
            raise GraphError(f"node {name!r}: unknown kind {kind!r}")
        inputs = tuple(inputs) if not isinstance(inputs, str) else (inputs,)
        for src in inputs:
            if src not in self.by_name:
                raise GraphError(f"node {name!r}: input {src!r} not defined yet")
        if kind == "tconv" and len(inputs) != 2:
            raise GraphError(f"node {name!r}: tconv takes (source, extent) "
                             f"inputs, got {len(inputs)}")
        tags = {k: attrs.pop(k) for k in _TAG_KEYS if k in attrs}
        for key in KINDS[kind]:
            if key not in attrs:
                raise GraphError(f"node {name!r}: {kind} needs attribute {key!r}")
        node = Node(name, kind, inputs, attrs, tags)
        self.nodes.append(node)
        self.by_name[name] = node
        return name

    @property
    def output(self) -> str:
        return self.nodes[-1].name

    def tagged(self, key: str):
        """Nodes carrying a given tag, in graph order."""
        return [n for n in self.nodes if key in n.tags]

    def tag(self, name: str, **kv) -> None:
        """Attach tags to an existing node."""
        node = self.by_name.get(name)
        if node is None:
            raise GraphError(f"node {name!r}: not defined")
        for key, value in kv.items():
            if key not in _TAG_KEYS:
                raise GraphError(f"node {name!r}: unknown tag {key!r}")
            node.tags[key] = value

    # ------------------------------------------------------------ shapes

    def infer_shapes(self, hw: tuple[int, int] | None = None) -> dict[str, tuple[int, int, int]]:
        """Per-node output (c, h, w) for the declared or a given input size."""
        in_h, in_w = hw if hw is not None else self.in_hw
        shapes: dict[str, tuple[int, int, int]] = {}
        for node in self.nodes:
            src = [shapes[s] for s in node.inputs]
            try:
                shapes[node.name] = _node_shape(node, src, (in_h, in_w))
            except GraphError:
                raise
            except ValueError as exc:
                raise GraphError(f"node {node.name!r}: {exc}") from None
        return shapes

    # ------------------------------------------------------- serialization

    def serialize(self) -> str:
        lines = [GRAPH_HEADER,
                 f"input c={self.in_channels} h={self.in_hw[0]} w={self.in_hw[1]}"]
        for key in sorted(self.meta):
            value = self.meta[key]
            if "\n" in value:
                raise GraphError(f"meta {key!r}: value must be one line")
            lines.append(f"meta {key} {value}")
        for node in self.nodes:
            if node.kind == "input":
                continue
            tokens = [f"node {node.name} {node.kind}", "in=" + ",".join(node.inputs)]
            for key in sorted(node.attrs):
                tokens.append(f"{key}={_render(node.attrs[key])}")
            for key in sorted(node.tags):
                tokens.append(f"{key}={_render(node.tags[key])}")
            lines.append(" ".join(tokens))
        body = "\n".join(lines) + "\n"
        digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
        return body + f"digest {digest}\n"

    @property
    def digest(self) -> str:
        return self.serialize().rsplit("digest ", 1)[1].strip()

    @classmethod
    def parse(cls, text: str) -> "NetworkGraph":
        lines = text.splitlines()
        if not lines or lines[0] != GRAPH_HEADER:
            raise GraphError("not a serialized graph (bad header)")
        if not lines[-1].startswith("digest "):
            raise GraphError("serialized graph is missing its digest line")
        body = "\n".join(lines[:-1]) + "\n"
        want = lines[-1].split(" ", 1)[1].strip()
        got = hashlib.sha256(body.encode("utf-8")).hexdigest()
        if want != got:
            raise GraphError("content digest mismatch, file was altered or truncated")
        if not lines[1].startswith("input "):
            raise GraphError("missing input line")
        head = _key_values(lines[1].split()[1:], 2)
        for key in ("c", "h", "w"):
            if key not in head:
                raise GraphError(f"line 2: input line needs {key!r}")
        graph = cls(int(head["c"]), (int(head["h"]), int(head["w"])))
        for lineno, line in enumerate(lines[2:-1], start=3):
            if line.startswith("meta "):
                parts = line.split(" ", 2)
                if len(parts) != 3:
                    raise GraphError(f"line {lineno}: meta line needs a key and a value")
                graph.meta[parts[1]] = parts[2]
                continue
            if not line.startswith("node "):
                raise GraphError(f"line {lineno}: unrecognized line {line!r}")
            tokens = line.split()
            if len(tokens) < 3:
                raise GraphError(f"line {lineno}: node line needs a name and a kind")
            attrs = _key_values(tokens[3:], lineno)
            inputs = tuple(s for s in attrs.pop("in", "").split(",") if s)
            graph.add(tokens[1], tokens[2], inputs,
                      **{k: _parse_value(v) for k, v in attrs.items()})
        return graph


def _key_values(tokens, lineno: int) -> dict[str, str]:
    """key=value tokens of one line as raw strings."""
    fields = {}
    for tok in tokens:
        key, sep, raw = tok.partition("=")
        if not sep:
            raise GraphError(f"line {lineno}: token {tok!r} is not key=value")
        fields[key] = raw
    return fields


def _render(value) -> str:
    if isinstance(value, (tuple, list)):
        return "x".join(str(int(v)) for v in value)
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_value(raw: str):
    if "x" in raw and all(part.lstrip("-").isdigit() for part in raw.split("x")):
        return tuple(int(part) for part in raw.split("x"))
    if raw.lstrip("-").isdigit():
        return int(raw)
    try:
        return float(raw)
    except ValueError:
        return raw


def _node_shape(node: Node, src, in_hw) -> tuple[int, int, int]:
    kind = node.kind
    a = node.attrs
    if kind == "input":
        return (a["c"], in_hw[0], in_hw[1])
    if kind == "conv":
        c, h, w = src[0]
        if c != a["cin"]:
            raise GraphError(f"node {node.name!r}: expects {a['cin']} channels, got {c}")
        kh, kw = a["k"]
        sh, sw = a["s"]
        dh, dw = a["d"]
        ph, pw = a["p"]
        return (a["cout"], conv_out_size(h, kh, sh, dh, ph), conv_out_size(w, kw, sw, dw, pw))
    if kind == "tconv":
        c, h, w = src[0]
        if c != a["cin"]:
            raise GraphError(f"node {node.name!r}: expects {a['cin']} channels, got {c}")
        target = src[1][1:]
        tconv_output_padding(node.name, (h, w), target, a["k"], a["s"], a["d"], a["p"])
        return (a["cout"],) + target
    if kind in ("bn_relu", "grid_mask"):
        return src[0]
    if kind == "avg_pool":
        c, h, w = src[0]
        wh, ww = a["window"]
        sh, sw = a["s"]
        dh, dw = a["d"]
        pt, pb, pl, pr = a["pad"]
        return (c, conv_out_size(h + pt + pb, wh, sh, dh, 0),
                conv_out_size(w + pl + pr, ww, sw, dw, 0))
    if kind == "gap":
        return (src[0][0], 1, 1)
    if kind == "add":
        if src[0] != src[1]:
            raise GraphError(f"node {node.name!r}: add of {src[0]} and {src[1]}")
        return src[0]
    if kind == "concat":
        c, h, w = src[0]
        for s in src[1:]:
            if s[1:] != (h, w):
                raise GraphError(f"node {node.name!r}: concat of {src[0]} and {s}")
        return (sum(s[0] for s in src), h, w)
    if kind == "upsample":
        return (src[0][0], in_hw[0], in_hw[1])
    raise GraphError(f"node {node.name!r}: no shape rule for kind {kind!r}")


def config_to_meta(config) -> str:
    return json.dumps(config, separators=(",", ":"), sort_keys=True)
