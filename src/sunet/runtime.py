"""Graph execution: parameters, state and the forward pass."""
from __future__ import annotations

import numpy as np

from . import tensor as T
from .graph import GraphError, NetworkGraph
from .tensor import Tensor


def param_shapes(graph: NetworkGraph) -> dict[str, tuple[int, int, int, int]]:
    """Learnable parameter shapes keyed by '<node>.<name>'.

    A conv or tconv node holds a weight '.w' and a conv with bias set
    also a '.b'; a tconv weight is (cin, cout, kh, kw), so it shares the
    conv layout with the two channel axes swapped. A bn_relu node holds
    '.gamma' and '.beta'.
    """
    shapes: dict[str, tuple[int, int, int, int]] = {}
    for node in graph.nodes:
        a = node.attrs
        if node.kind in ("conv", "tconv"):
            io = (a["cin"], a["cout"]) if node.kind == "tconv" else (a["cout"], a["cin"])
            shapes[f"{node.name}.w"] = io + tuple(a["k"])
            if a.get("bias"):
                shapes[f"{node.name}.b"] = (1, a["cout"], 1, 1)
        elif node.kind == "bn_relu":
            shapes[f"{node.name}.gamma"] = (1, a["c"], 1, 1)
            shapes[f"{node.name}.beta"] = (1, a["c"], 1, 1)
    return shapes


class Network:
    """A graph bound to parameters and batch-norm running statistics."""

    def __init__(self, graph: NetworkGraph, dtype=np.float32, seed: int = 0):
        self.graph = graph
        self.dtype = np.dtype(dtype)
        self.params: dict[str, Tensor] = {}
        self.stats: dict[str, np.ndarray] = {}
        self._init_state(seed)
        readers: dict[str, list] = {}
        for node in graph.nodes:
            for src in node.inputs:
                readers.setdefault(src, []).append(node)
        # node -> the inputs it is the last reader of; the graph input is
        # the caller's and never released
        self._last_reads: dict[str, list[str]] = {}
        for src, r in readers.items():
            if graph.by_name[src].kind != "input":
                self._last_reads.setdefault(r[-1].name, []).append(src)

    def _init_state(self, seed: int) -> None:
        """He-normal weights drawn in graph order, zero biases, unit BN."""
        rng = np.random.default_rng(seed)
        for key, shape in param_shapes(self.graph).items():
            node_name, part = key.rsplit(".", 1)
            if part == "w":
                # fan-in: c_in times the taps, for a conv and a tconv alike
                a = self.graph.by_name[node_name].attrs
                std = float(np.sqrt(2.0 / (a["cin"] * a["k"][0] * a["k"][1])))
                value = rng.normal(0.0, std, size=shape).astype(self.dtype)
            elif part == "gamma":
                value = np.ones(shape, dtype=self.dtype)
                self.stats[f"{node_name}.running_mean"] = np.zeros(shape, dtype=np.float64)
                self.stats[f"{node_name}.running_var"] = np.ones(shape, dtype=np.float64)
            else:
                value = np.zeros(shape, dtype=self.dtype)
            self.params[key] = Tensor(value, requires_grad=True)

    # ------------------------------------------------------------- state

    def decay_param_names(self) -> set[str]:
        """Parameters subject to weight decay: the weights ('.w') only."""
        return {key for key in self.params if key.endswith(".w")}

    def state_entries(self) -> dict[str, np.ndarray]:
        entries = {f"param/{k}": t.data for k, t in self.params.items()}
        entries.update({f"stat/{k}": v for k, v in self.stats.items()})
        return entries

    def load_entries(self, entries: dict[str, np.ndarray]) -> None:
        for key, tensor in self.params.items():
            full = f"param/{key}"
            if full not in entries:
                raise GraphError(f"checkpoint is missing parameter {key!r}")
            arr = entries[full]
            if tuple(arr.shape) != tensor.data.shape:
                raise GraphError(
                    f"parameter {key!r}: checkpoint shape {tuple(arr.shape)} != {tensor.data.shape}")
            tensor.data = arr.astype(self.dtype, copy=True)
            tensor.grad = None
        for key in self.stats:
            full = f"stat/{key}"
            if full not in entries:
                raise GraphError(f"checkpoint is missing statistic {key!r}")
            self.stats[key] = entries[full].astype(np.float64, copy=True)

    def zero_grads(self) -> None:
        for t in self.params.values():
            t.grad = None

    # ----------------------------------------------------------- forward

    def forward(self, x, training: bool = False,
                collect: list[str] | None = None):
        """Run the graph; returns the output tensor.

        With collect, returns (output, {name: Tensor}) for the named nodes.
        A name that is not in the graph raises GraphError before any op
        runs.

        Each node's value is released (Tensor.release) right after its
        last reader has run. Under no_grad that frees its array; on a tape
        the tensor keeps taking its gradient, and only the arrays backward
        closures captured stay alive. The output, collected nodes and the
        caller's input keep their values.
        """
        for name in collect or ():
            if name not in self.graph.by_name:
                raise GraphError(f"node {name!r} not in graph")
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=self.dtype))
        if x.data.shape[1] != self.graph.in_channels:
            raise GraphError(
                f"input has {x.data.shape[1]} channels, graph declares {self.graph.in_channels}")
        in_hw = x.data.shape[2:]
        values: dict[str, Tensor] = {}
        wanted = set(collect or ())
        grabbed: dict[str, Tensor] = {}
        out = None
        for node in self.graph.nodes:
            if node.kind == "input":
                val = x
            else:
                # inputs are not checked against a declared size, so an
                # extent that is too small first fails inside an op
                try:
                    val = self._apply(node, [values[s] for s in node.inputs],
                                      training, in_hw)
                except T.EngineError as exc:
                    raise T.EngineError(f"node {node.name!r}: {exc}") from None
            values[node.name] = val
            if node.name in wanted:
                grabbed[node.name] = val
            out = val
            for src in self._last_reads.get(node.name, ()):
                if src not in wanted:
                    values.pop(src).release()
        if collect is not None:
            return out, grabbed
        return out

    def _apply(self, node, src, training: bool, in_hw) -> Tensor:
        a = node.attrs
        kind = node.kind
        if kind == "conv":
            return T.conv2d(src[0], self.params[f"{node.name}.w"],
                            self.params.get(f"{node.name}.b"),
                            stride=a["s"], dilation=a["d"], padding=a["p"])
        if kind == "tconv":
            return T.conv2d_transpose(src[0], self.params[f"{node.name}.w"],
                                      src[1].data.shape[2:], stride=a["s"],
                                      dilation=a["d"], padding=a["p"])
        if kind == "bn_relu":
            return T.batchnorm(src[0], self.params[f"{node.name}.gamma"],
                               self.params[f"{node.name}.beta"],
                               self.stats[f"{node.name}.running_mean"],
                               self.stats[f"{node.name}.running_var"],
                               training=training, relu=True)
        if kind == "avg_pool":
            return T.avg_pool2d(src[0], window=a["window"], stride=a["s"],
                                dilation=a["d"], padding=a["pad"])
        if kind == "gap":
            return T.avg_pool2d(src[0], window=src[0].data.shape[2:])
        if kind == "add":
            return T.add(src[0], src[1])
        if kind == "concat":
            return T.concat_channels(src)
        if kind == "upsample":
            return T.bilinear_upsample(src[0], in_hw)
        if kind == "grid_mask":
            return T.phase_mask(src[0], a["period"], a["keep"])
        raise GraphError(f"node {node.name!r}: no executor for kind {kind!r}")
