"""Static network graphs.

A NetworkGraph is an ordered DAG of primitive nodes, one op each (conv,
tconv, bn_relu, pools, add, concat, upsample, grid_mask); a
fully-connected layer is a 1x1 conv on a 1x1 map, and a pre-activation
BN-ReLU is one bn_relu node. Builders append nodes in topological order;
the executor, the analyzer and the converter all walk the same
structure. Graphs serialize to a line-based text format closed by a
sha256 content digest.

Format 2 states only what varies between nodes: a bn_relu node carries
its channel count and runs at batchnorm's own decay and eps, a tconv
carries no bias, and a conv says bias=1 only where it has one. A file
of another format fails at parse, naming its version.

Serialized tag keys (stage, level, role) are reserved and never used as
attribute names. A stage tag names a part of the network, a level tag
orders the activation dump, and role=skip marks a residual projection.
"""
from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .tensor import conv_out_size, pool_out_hw, tconv_out_hw

GRAPH_FORMAT = 2
GRAPH_HEADER = f"sunet-graph {GRAPH_FORMAT}"
_NAME_RE = re.compile(r"^[A-Za-z0-9._-]+$")


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _tuple_of(n: int, least: int, wants: str):
    return wants, lambda v: (isinstance(v, (tuple, list)) and len(v) == n
                             and all(_is_int(x) and x >= least for x in v))


# Attribute forms: (what the form wants, its test).
_POSITIVE = "a positive integer", lambda v: _is_int(v) and v >= 1
_POSITIVE_PAIR = _tuple_of(2, 1, "a pair of positive integers")
_PAD_PAIR = _tuple_of(2, 0, "a pair of non-negative integers")
_PAD_4 = _tuple_of(4, 0, "a 4-tuple of non-negative integers")
# a conv with a bias says bias=1 (True in memory), one without says nothing;
# a tconv has none
_BIAS = "1", lambda v: isinstance(v, (int, np.integer)) and v == 1

# Tag forms, checked like attribute forms.
_TAGS = {"stage": ("a name", lambda v: isinstance(v, str) and bool(_NAME_RE.match(v))),
         "level": ("a non-negative integer", lambda v: _is_int(v) and v >= 0),
         "role": ("'skip'", lambda v: v == "skip")}

_CONV = {"cin": _POSITIVE, "cout": _POSITIVE, "k": _POSITIVE_PAIR,
         "s": _POSITIVE_PAIR, "d": _POSITIVE_PAIR, "p": _PAD_PAIR}


@dataclass(frozen=True)
class Kind:
    """The inputs a node of a kind reads, as (least, most), the form of
    each attribute it must carry, and of each it may carry; no other.
    What never varies is the kind's, not a node's (a bn_relu's decay and eps)."""
    inputs: tuple[int, float]
    attrs: dict
    optional: dict = field(default_factory=dict)


# A tconv node takes two inputs: the tensor it upsamples, then the node
# whose spatial extent it restores, so it runs at any input size. So do
# an upsample node, which restores the extent of the graph input, and a
# gap node, an average pool whose window is its input's extent.
KINDS = {
    "input": Kind((0, 0), {"c": _POSITIVE}),
    "conv": Kind((1, 1), _CONV, {"bias": _BIAS}),
    "tconv": Kind((2, 2), _CONV),
    "bn_relu": Kind((1, 1), {"c": _POSITIVE}),
    "avg_pool": Kind((1, 1), {"window": _POSITIVE_PAIR, "s": _POSITIVE_PAIR,
                              "d": _POSITIVE_PAIR, "pad": _PAD_4}),
    "gap": Kind((1, 1), {}),
    "add": Kind((2, 2), {}),
    "concat": Kind((2, math.inf), {}),
    "upsample": Kind((1, 1), {}),
    "grid_mask": Kind((1, 1), {"period": _POSITIVE, "keep": _POSITIVE}),
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
        """Append a node; its input count and the form of each attribute
        are checked against KINDS, and of each tag against _TAGS, and a
        GraphError names the node. An attribute its kind does not take is
        an error too."""
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
        spec = KINDS[kind]
        least, most = spec.inputs
        if not least <= len(inputs) <= most:
            want = least if least == most else f"at least {least}"
            raise GraphError(f"node {name!r}: {kind} takes {want} input(s), "
                             f"got {len(inputs)}")
        tags = {k: attrs.pop(k) for k in _TAGS if k in attrs}
        for key in spec.attrs:
            if key not in attrs:
                raise GraphError(f"node {name!r}: {kind} needs attribute {key!r}")
        forms = {**spec.attrs, **spec.optional}
        for key, value in attrs.items():
            if key not in forms:
                raise GraphError(f"node {name!r}: {kind} has no attribute {key!r}")
            wants, test = forms[key]
            if not test(value):
                raise GraphError(f"node {name!r}: attribute {key!r} must be "
                                 f"{wants}, got {value!r}")
        if kind == "grid_mask" and attrs["keep"] > attrs["period"]:
            raise GraphError(f"node {name!r}: attribute 'keep' must be at most "
                             f"period {attrs['period']}, got {attrs['keep']}")
        for key, value in tags.items():
            _check_tag(name, key, value)
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
            _check_tag(name, key, value)
        node.tags.update(kv)

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
            magic, _, version = (lines[0] if lines else "").partition(" ")
            if magic == "sunet-graph":
                raise GraphError(f"graph format {version} is not read, only format "
                                 f"{GRAPH_FORMAT}: rebuild the graph with "
                                 f"suncli build or suncli convert")
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


def _check_tag(name: str, key: str, value) -> None:
    if key not in _TAGS:
        raise GraphError(f"node {name!r}: unknown tag {key!r}")
    wants, test = _TAGS[key]
    if not test(value):
        raise GraphError(f"node {name!r}: tag {key!r} must be {wants}, got {value!r}")


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
    return str(value)


def _parse_value(raw: str):
    if "x" in raw and all(part.lstrip("-").isdigit() for part in raw.split("x")):
        return tuple(int(part) for part in raw.split("x"))
    if raw.lstrip("-").isdigit():
        return int(raw)
    return raw


def _node_shape(node: Node, src, in_hw) -> tuple[int, int, int]:
    kind = node.kind
    a = node.attrs
    if kind == "input":
        return (a["c"], in_hw[0], in_hw[1])
    if kind in ("conv", "tconv", "bn_relu"):
        want = a["c"] if kind == "bn_relu" else a["cin"]
        if src[0][0] != want:
            raise GraphError(f"node {node.name!r}: expects {want} channels, "
                             f"got {src[0][0]}")
    if kind == "conv":
        _, h, w = src[0]
        kh, kw = a["k"]
        sh, sw = a["s"]
        dh, dw = a["d"]
        ph, pw = a["p"]
        return (a["cout"], conv_out_size(h, kh, sh, dh, ph), conv_out_size(w, kw, sw, dw, pw))
    if kind == "tconv":
        return (a["cout"],) + tconv_out_hw(src[0][1:], src[1][1:], a["k"], a["s"],
                                           a["d"], a["p"])
    if kind in ("bn_relu", "grid_mask"):
        return src[0]
    if kind == "avg_pool":
        return (src[0][0],) + pool_out_hw(src[0][1:], a["window"], a["s"], a["d"], a["pad"])
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
