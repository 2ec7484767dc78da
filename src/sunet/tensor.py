"""Dense 4-D tensors with reverse-mode autodiff.

Every tensor is an (n, c, h, w) numpy array in float32 or float64.
Operators build a tape of backward closures; Tensor.backward() walks it
in reverse topological order. Statistic reductions (batch norm moments
and gradient sums, pooling sums, loss means) accumulate in float64
regardless of the tensor dtype, over views or small buffers rather than
float64 copies of whole activations; matrix contractions run in the
tensor dtype through BLAS.

conv2d runs a conv and conv2d_transpose the adjoint of the conv with its
weight. A pointwise conv (1x1, stride 1, no padding), such as a
fully-connected layer on a 1x1 map, reads its input as its column
matrix. Other convs gather patches with _im2col and scatter them back
with _col2im, both clipping each kernel tap to the unpadded input, so
no padded copy is built; the per-tap slices (the tap plan) are cached
per shape. A conv's adjoint is one matmul on the pointwise path, one gather
with the flipped kernel at stride 1, and a matmul and a _col2im scatter
when strided. So conv2d's input gradient and conv2d_transpose's forward
scatter only when strided, and at stride 1 conv2d's gathered matrix
gives its weight gradient too.

A backward closure keeps only the arrays it reads, captured when the op
runs, and never reads a parent's values later:
- conv2d keeps x's array when the weight needs a gradient, and pairs it
  in backward with the gathered output gradient (stride 1) or with its
  rebuilt column matrix (the pointwise path keeps a view of x, which is
  its matrix);
- conv2d_transpose keeps x's array when the weight needs a gradient,
  and pairs it with the column matrix of the output gradient;
- batchnorm keeps its centred copy in training mode, x in eval mode,
  and with relu=True also its own output, whose sign is the ReLU mask;
- relu keeps a boolean mask of its positive outputs;
- phase_mask keeps its 0/1 mask, softmax_cross_entropy its exponentials;
- add, concat_channels, the pools and bilinear_upsample keep no
  activation.
Kept arrays are shared, not copied: the output a fused batchnorm keeps
is the input the next conv keeps. So no op writes into its inputs or
into an array it has returned. A closure owns the gradient it is handed
(backward() gives each node a private array) and may overwrite it, or
hand it on to one parent; it writes into no other array it keeps
except a copy of its own, such as batchnorm's centred copy.

So a tensor whose values are released (Tensor.release) still carries
its gradient through the tape. The tape is consumed once: backward()
frees each interior node's gradient, closure and parents as soon as the
node has propagated, so the arrays its closure kept go with it.
"""
from __future__ import annotations

import contextlib
import functools

import numpy as np

FLOAT_DTYPES = (np.float32, np.float64)


class EngineError(ValueError):
    """Shape, dtype or attribute violation in an engine op."""


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable tape construction inside the block."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A 4-D array plus an optional gradient and tape hook."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.ndim != 4:
            raise EngineError(f"tensors are 4-D (n, c, h, w), got shape {arr.shape}")
        if arr.dtype not in FLOAT_DTYPES:
            if np.issubdtype(arr.dtype, np.floating) or np.issubdtype(arr.dtype, np.integer):
                arr = arr.astype(np.float32)
            else:
                raise EngineError(f"unsupported dtype {arr.dtype}")
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        try:
            what = f"shape={self.data.shape}, dtype={self.data.dtype}"
        except EngineError:
            what = "released"
        return f"Tensor({what}, grad={self.requires_grad})"

    def __getattr__(self, name):
        # reached only for an unset slot; data is unset after release()
        if name == "data":
            raise EngineError("tensor values were released after their last reader; "
                              "collect the node to keep them")
        raise AttributeError(name)

    def release(self) -> None:
        """Give up the values. The tensor stays on the tape and still takes
        its gradient; reading data afterwards raises EngineError."""
        del self.data

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray, owned: bool = False) -> None:
        """Add g, which has this tensor's shape and dtype, to the gradient.

        The first g becomes the gradient itself when owned: an array the
        closure has just allocated and hands over. Anything else (a view of
        the closure's grad, an array also passed to another parent, a
        read-only broadcast) is copied first.
        """
        if self.grad is None:
            self.grad = g if owned else g.copy()
        else:
            self.grad += g

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from a scalar tensor, or from an explicit seed.

        Gradients accumulate into every leaf that requires grad: a tensor
        with no backward closure, such as a parameter or an input. The
        tape is consumed on the way: each interior node drops its
        gradient, closure and parents as soon as it has propagated, which
        frees the arrays the closure kept. Running backward() again over
        a consumed tape raises EngineError.
        """
        if grad is None:
            if self.data.size != 1:
                raise EngineError(
                    f"backward() needs a scalar tensor or an explicit seed, "
                    f"got shape {self.data.shape}")
            seed = np.ones_like(self.data)
        else:
            seed = np.asarray(grad, dtype=self.data.dtype)
            if seed.shape != self.data.shape:
                raise EngineError(
                    f"backward() seed shape {seed.shape} does not match "
                    f"tensor shape {self.data.shape}")
        topo: list[Tensor] = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = seed.copy()
        for node in reversed(topo):
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad, node._backward, node._parents = None, _spent, ()


def _spent(grad) -> None:
    """The closure left on a tape node that has propagated."""
    raise EngineError("backward() over a tape that an earlier backward() consumed")


def _taping(parents) -> bool:
    """Whether an op on these parents records a tape node."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _result(data: np.ndarray, parents, backward) -> Tensor:
    out = Tensor(data)
    if _taping(parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _check_dtype(op: str, *tensors: Tensor) -> np.dtype:
    dt = tensors[0].data.dtype
    for t in tensors[1:]:
        if t.data.dtype != dt:
            raise EngineError(f"{op}: mixed dtypes {dt} and {t.data.dtype}")
    return dt


# ---------------------------------------------------------------- shapes

def conv_out_size(size: int, k: int, s: int, d: int, p: int) -> int:
    """Spatial output size of a convolution along one axis."""
    out = (size + 2 * p - d * (k - 1) - 1) // s + 1
    if out < 1:
        raise EngineError(f"conv output collapsed: size={size} k={k} s={s} d={d} p={p}")
    return out


def tconv_out_size(size: int, k: int, s: int, d: int, p: int, op: int) -> int:
    """Spatial output size of a transposed convolution along one axis."""
    out = (size - 1) * s - 2 * p + d * (k - 1) + 1 + op
    if out < 1:
        raise EngineError(f"tconv output collapsed: size={size} k={k} s={s} d={d} p={p} op={op}")
    return out


def tconv_output_padding(name: str, hw, target, k, s, d, p) -> tuple[int, int]:
    """Output padding that lands a transposed conv of an hw input on target.

    Per axis it is target - tconv_out_size(size, k, s, d, p, 0), which
    must lie in [0, s): a transposed conv can only resolve the rounding
    of the strided conv it undoes. Errors name the graph node ``name``.
    """
    op = tuple(t - tconv_out_size(n, kk, ss, dd, pp, 0)
               for n, t, kk, ss, dd, pp in zip(hw, target, k, s, d, p))
    if not all(0 <= o < ss for o, ss in zip(op, s)):
        from .graph import GraphError  # graph imports this module
        raise GraphError(
            f"node {name!r}: cannot restore extent {tuple(target)} from "
            f"{tuple(hw)} (output padding {op} outside [0, stride {tuple(s)}))")
    return op


def _pair(v):
    if isinstance(v, (tuple, list)):
        return int(v[0]), int(v[1])
    return int(v), int(v)


# ------------------------------------------------------- im2col plumbing

def _tap_range(off: int, s: int, size: int, out: int) -> tuple[slice, slice]:
    """Output positions i in [0, out) whose tap off + i*s falls inside an
    unpadded axis of length size, and the strided input slice they read."""
    lo = max(0, -(off // s))
    hi = min(out, (size - 1 - off) // s + 1)
    if hi <= lo:
        return slice(0, 0), slice(0, 0)
    start = off + lo * s
    return slice(lo, hi), slice(start, start + s * (hi - lo - 1) + 1, s)


@functools.lru_cache(maxsize=1024)
def _taps(h: int, w: int, ho: int, wo: int, kh: int, kw: int, sh: int, sw: int,
          dh: int, dw: int, pt: int, pl: int) -> tuple:
    """The tap plan: one (u, v, out_rows, out_cols, in_rows, in_cols) per
    kernel tap.

    Tap (u, v) of output (i, j) reads input (i*sh + u*dh - pt,
    j*sw + v*dw - pl). The slices are clipped to the unpadded input, so
    outputs outside them see the zero padding without it being built.
    A plan depends on the integer arguments alone, so it is built once
    per shape and cached.
    """
    rows = [_tap_range(u * dh - pt, sh, h, ho) for u in range(kh)]
    cols = [_tap_range(v * dw - pl, sw, w, wo) for v in range(kw)]
    return tuple((u, v, oi, oj, ii, ij)
                 for u, (oi, ii) in enumerate(rows)
                 for v, (oj, ij) in enumerate(cols))


def _im2col(x: np.ndarray, kh: int, kw: int, sh: int, sw: int,
            dh: int, dw: int, pt: int, pl: int, ho: int, wo: int) -> np.ndarray:
    """Gather (n, c, kh, kw, ho, wo) patches of x zero-padded by pt rows on
    top and pl columns on the left (the far sides follow from ho, wo).
    The matrix starts zeroed, so each tap is one copy of its clipped
    slice and the positions it does not reach keep the padding's zero."""
    n, c, h, w = x.shape
    col = np.zeros((n, c, kh, kw, ho, wo), dtype=x.dtype)
    for u, v, oi, oj, ii, ij in _taps(h, w, ho, wo, kh, kw, sh, sw, dh, dw, pt, pl):
        col[:, :, u, v, oi, oj] = x[:, :, ii, ij]
    return col


def _col2im(col: np.ndarray, h: int, w: int, kh: int, kw: int, sh: int, sw: int,
            dh: int, dw: int, pt: int, pl: int) -> np.ndarray:
    """Scatter-add (n, c, kh, kw, ho, wo) patches back to (n, c, h, w);
    the adjoint of _im2col, dropping what lands in the padding."""
    n, c, _, _, ho, wo = col.shape
    x = np.zeros((n, c, h, w), dtype=col.dtype)
    for u, v, oi, oj, ii, ij in _taps(h, w, ho, wo, kh, kw, sh, sw, dh, dw, pt, pl):
        x[:, :, ii, ij] += col[:, :, u, v, oi, oj]
    return x


# ------------------------------------------------------ the conv core

def _pointwise(k, s, p) -> bool:
    return (k, s, p) == ((1, 1), (1, 1), (0, 0))


def _columns(a: np.ndarray, k, s, d, p, out_hw) -> np.ndarray:
    """The (n, c*kh*kw, ho*wo) column matrix of a conv over a: a view of a
    on the pointwise path, its _im2col matrix otherwise."""
    n, c, h, w = a.shape
    if _pointwise(k, s, p):
        return a.reshape(n, c, h * w)
    return _im2col(a, *k, *s, *d, *p, *out_hw).reshape(n, c * k[0] * k[1], -1)


def _adjoint(g: np.ndarray, w: np.ndarray, s, d, p, in_hw):
    """Map g from the output grid of the conv with weight w (co, ci, kh, kw)
    back to its (n, ci, h, w) input grid; returns (result, gathered).

    At stride 1 the adjoint is a stride-1 conv of g with w flipped in both
    spatial axes and its channel axes swapped: g is gathered once over
    the input extent padded by d*(k-1) - p (negative pads clip), and that
    matrix, whose tap u is the conv's tap k-1-u, is returned as gathered.
    Otherwise gathered is None: the result is w's transpose times g,
    scattered with _col2im unless the conv is pointwise.
    """
    n, co, ho, wo = g.shape
    _, ci, kh, kw = w.shape
    if s == (1, 1) and not _pointwise((kh, kw), s, p):
        q = (d[0] * (kh - 1) - p[0], d[1] * (kw - 1) - p[1])
        gathered = _columns(g, (kh, kw), s, d, q, in_hw)
        w_flip = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(ci, co * kh * kw)
        return np.matmul(w_flip, gathered).reshape(n, ci, *in_hw), gathered
    col = np.matmul(w.reshape(co, -1).T, g.reshape(n, co, ho * wo))
    if _pointwise((kh, kw), s, p):
        return col.reshape(n, ci, *in_hw), None
    return _col2im(col.reshape(n, ci, kh, kw, ho, wo), *in_hw, kh, kw, *s, *d, *p), None


def _check_conv(op: str, x: Tensor, weight: Tensor, bias: Tensor | None,
                transposed: bool) -> None:
    """Dtype, channel and bias-shape checks of the conv ops; weight is
    (c_out, c_in, kh, kw), or (c_in, c_out, kh, kw) when transposed."""
    _check_dtype(op, *((x, weight) if bias is None else (x, weight, bias)))
    co, ciw = weight.data.shape[:2][::-1] if transposed else weight.data.shape[:2]
    if x.data.shape[1] != ciw:
        raise EngineError(f"{op}: input has {x.data.shape[1]} channels, weight expects {ciw}")
    if bias is not None and bias.data.shape != (1, co, 1, 1):
        raise EngineError(f"{op}: bias shape {bias.data.shape} != (1, {co}, 1, 1)")


# ----------------------------------------------------------------- ops

def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride=1, dilation=1, padding=0) -> Tensor:
    """2-D convolution (cross-correlation) with stride and dilation.

    The forward is one batched matmul of the weight with x's column
    matrix, freed when the forward returns: when the weight needs a
    gradient the tape keeps x's array instead. The input gradient is the
    conv's _adjoint of the output gradient g. The weight gradient is g's
    gathered matrix times x's transpose, taps flipped back, at stride 1;
    otherwise g times x's rebuilt column matrix (a view on the pointwise
    path).
    """
    _check_conv("conv2d", x, weight, bias, transposed=False)
    s, d, p = _pair(stride), _pair(dilation), _pair(padding)
    n, ci, h, w = x.data.shape
    wd = weight.data
    co, _, kh, kw = wd.shape
    ho = conv_out_size(h, kh, s[0], d[0], p[0])
    wo = conv_out_size(w, kw, s[1], d[1], p[1])
    out = np.matmul(wd.reshape(co, -1), _columns(x.data, (kh, kw), s, d, p, (ho, wo)))
    out = out.reshape(n, co, ho, wo)
    if bias is not None:
        out += bias.data
    xd = x.data if weight.requires_grad else None

    def backward(grad):
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)).reshape(1, co, 1, 1), owned=True)
        dx, gathered = _adjoint(grad, wd, s, d, p, (h, w)) if x.requires_grad else (None, None)
        if weight.requires_grad:
            if gathered is not None:
                dw = np.matmul(gathered, xd.reshape(n, ci, h * w).transpose(0, 2, 1)).sum(axis=0)
                dw = dw.reshape(co, kh, kw, ci)[:, ::-1, ::-1].transpose(0, 3, 1, 2)
            else:
                cols = _columns(xd, (kh, kw), s, d, p, (ho, wo))
                dw = np.matmul(grad.reshape(n, co, -1), cols.transpose(0, 2, 1)).sum(axis=0)
            weight._accumulate(np.ascontiguousarray(dw).reshape(wd.shape), owned=True)
        if dx is not None:
            x._accumulate(dx, owned=True)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _result(out, parents, backward)


def conv2d_transpose(x: Tensor, weight: Tensor, bias: Tensor | None = None,
                     stride=1, dilation=1, padding=0, output_padding=0) -> Tensor:
    """Adjoint of conv2d with the same attributes.

    weight is (c_in, c_out, kh, kw), the weight of the conv from this op's
    output grid to its input grid. output_padding resolves the output size
    ambiguity and must be smaller than the stride. The forward is that
    conv's _adjoint of x: one gather of x at stride 1, a _col2im scatter
    when strided. The backward is the conv itself: the weight times the
    output gradient's column matrix, and that matrix times x's transpose
    is the weight gradient.
    """
    _check_conv("conv2d_transpose", x, weight, bias, transposed=True)
    s, d, p, op = _pair(stride), _pair(dilation), _pair(padding), _pair(output_padding)
    if op[0] >= s[0] or op[1] >= s[1]:
        raise EngineError(f"conv2d_transpose: output_padding {op} must be < stride {s}")
    n, ci, h, w = x.data.shape
    wd = weight.data
    _, co, kh, kw = wd.shape
    ho = tconv_out_size(h, kh, s[0], d[0], p[0], op[0])
    wo = tconv_out_size(w, kw, s[1], d[1], p[1], op[1])
    out = _adjoint(x.data, wd, s, d, p, (ho, wo))[0]
    if bias is not None:
        out += bias.data
    xd = x.data if weight.requires_grad else None

    def backward(grad):
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)).reshape(1, co, 1, 1), owned=True)
        gcol = _columns(grad, (kh, kw), s, d, p, (h, w))
        if weight.requires_grad:
            dw = np.matmul(gcol, xd.reshape(n, ci, h * w).transpose(0, 2, 1)).sum(axis=0)
            weight._accumulate(dw.T.reshape(wd.shape), owned=True)
        if x.requires_grad:
            dx = np.matmul(wd.reshape(ci, -1), gcol)
            x._accumulate(dx.reshape(n, ci, h, w), owned=True)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _result(out, parents, backward)


def relu(x: Tensor) -> Tensor:
    """max(x, 0); the tape keeps a boolean mask of the positive outputs,
    which are exactly the positive inputs."""
    out = np.maximum(x.data, 0)
    positive = out > 0 if _taping((x,)) else None

    def backward(grad):
        if x.requires_grad:
            x._accumulate(grad * positive, owned=True)

    return _result(out, (x,), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_dtype("add", a, b)
    if a.data.shape != b.data.shape:
        raise EngineError(f"add: shape mismatch {a.data.shape} vs {b.data.shape}")
    out = a.data + b.data

    def backward(grad):
        # the closure owns grad: a takes it, handed over last, b a copy
        # (b takes grad itself when a needs no gradient)
        if b.requires_grad:
            b._accumulate(grad, owned=not a.requires_grad)
        if a.requires_grad:
            a._accumulate(grad, owned=True)

    return _result(out, (a, b), backward)


def concat_channels(tensors: list[Tensor]) -> Tensor:
    """Concatenate along the channel axis."""
    _check_dtype("concat_channels", *tensors)
    base = tensors[0].data.shape
    for t in tensors[1:]:
        if t.data.shape[0] != base[0] or t.data.shape[2:] != base[2:]:
            raise EngineError(f"concat_channels: incompatible shapes {base} vs {t.data.shape}")
    out = np.concatenate([t.data for t in tensors], axis=1)
    splits = np.cumsum([t.data.shape[1] for t in tensors])[:-1]

    def backward(grad):
        parts = np.split(grad, splits, axis=1)
        for t, g in zip(tensors, parts):
            if t.requires_grad:
                t._accumulate(g)

    return _result(out, tuple(tensors), backward)


def _channel_sum(a: np.ndarray) -> np.ndarray:
    """Per-channel sum of an (n, c, h, w) array as (1, c, 1, 1) float64.

    The sum runs over an (n, c, h*w) view with a float64 accumulator;
    the input is cast in small buffers, never copied whole.
    """
    n, c = a.shape[:2]
    return np.einsum("ncl->c", a.reshape(n, c, -1),
                     dtype=np.float64).reshape(1, c, 1, 1)


def _channel_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-channel sum of a * b, float64 products and accumulator, (1, c, 1, 1)."""
    n, c = a.shape[:2]
    return np.einsum("ncl,ncl->c", a.reshape(n, c, -1), b.reshape(n, c, -1),
                     dtype=np.float64).reshape(1, c, 1, 1)


def batchnorm(x: Tensor, gamma: Tensor, beta: Tensor,
              running_mean: np.ndarray, running_var: np.ndarray,
              training: bool, decay: float = 0.99, eps: float = 1e-5,
              relu: bool = False) -> Tensor:
    """Per-channel batch normalization, gamma * (x - mean) / sqrt(var + eps) + beta.

    Training mode takes the moments from the batch in two passes: the
    float64 batch mean is rounded to the tensor dtype and subtracted in
    that dtype, and the variance is the float64-accumulated mean square
    of that centred copy, less the square of the centre's rounding. The
    running stats are updated in place:
    running <- decay * running + (1 - decay) * batch. Eval mode takes
    the running stats and is one per-channel scale and shift of x.

    Both modes then compute out = xc * scale + shift per channel, with
    scale = gamma / sqrt(var + eps) and xc the centred copy (training)
    or x itself (eval). The tape keeps xc in training mode and nothing
    beyond x in eval mode.

    With relu, the op is relu(batchnorm(...)) in one: the output is
    clamped in place, and the backward takes the ReLU mask from the
    sign of that output, which the tape keeps (it is the array the next
    op reads), instead of a separate mask. Results are bit-equal to the
    two ops run apart.
    """
    _check_dtype("batchnorm", x, gamma, beta)
    n, c, h, w = x.data.shape
    for name, t in (("gamma", gamma), ("beta", beta)):
        if t.data.shape != (1, c, 1, 1):
            raise EngineError(f"batchnorm: {name} shape {t.data.shape} != (1, {c}, 1, 1)")
    if running_mean.shape != (1, c, 1, 1) or running_var.shape != (1, c, 1, 1):
        raise EngineError("batchnorm: running stat shape mismatch")
    dt = x.data.dtype
    m = n * h * w
    if training:
        mean = _channel_sum(x.data) / m
        centre = mean.astype(dt)
        xc = x.data - centre
        offset = mean - centre          # float64 mean of xc
        var = _channel_dot(xc, xc) / m - offset * offset
        running_mean *= decay
        running_mean += (1.0 - decay) * mean
        running_var *= decay
        running_var += (1.0 - decay) * var
    else:
        xc, offset, var = x.data, running_mean, running_var
    inv = 1.0 / np.sqrt(var + eps)
    scale64 = gamma.data * inv
    scale = scale64.astype(dt)
    out = xc * scale
    out += (beta.data - offset * scale64).astype(dt)
    activated = None
    if relu:
        activated = np.maximum(out, 0, out=out)

    def backward(grad):
        # grad is this closure's own array, so it is overwritten in place
        if activated is not None:
            np.multiply(grad, activated > 0, out=grad)
        gsum = _channel_sum(grad)
        gdot = _channel_dot(grad, xc) - offset * gsum   # sum of grad * (x - mean)
        if gamma.requires_grad:
            gamma._accumulate((gdot * inv).astype(dt), owned=True)
        if beta.requires_grad:
            beta._accumulate(gsum.astype(dt), owned=True)
        if x.requires_grad:
            dx = np.multiply(grad, scale, out=grad)
            if training:
                # the batch moments depend on x as well; xc is the op's
                # own copy here (in eval mode it is x's array, kept intact)
                k = inv * inv * gdot / m
                dx -= np.multiply(xc, (scale64 * k).astype(dt), out=xc)
                dx += (scale64 * (offset * k - gsum / m)).astype(dt)
            x._accumulate(dx, owned=True)

    return _result(out, (x, gamma, beta), backward)


def avg_pool2d(x: Tensor, window=2, stride=None, dilation=1, padding=(0, 0, 0, 0)) -> Tensor:
    """Average pooling with window dilation and asymmetric zero padding.

    padding is (top, bottom, left, right); padded zeros count toward the
    constant divisor. The forward sums the window's strided input slices
    into a float64 accumulator; no padded copy or patch buffer is built.
    """
    wh, ww = _pair(window)
    sh, sw = _pair(stride if stride is not None else window)
    dh, dw = _pair(dilation)
    pt, pb, pl, pr = (int(v) for v in padding)
    n, c, h, w = x.data.shape
    ho = conv_out_size(h + pt + pb, wh, sh, dh, 0)
    wo = conv_out_size(w + pl + pr, ww, sw, dw, 0)
    acc = np.zeros((n, c, ho, wo), dtype=np.float64)
    for _, _, oi, oj, ii, ij in _taps(h, w, ho, wo, wh, ww, sh, sw, dh, dw, pt, pl):
        acc[:, :, oi, oj] += x.data[:, :, ii, ij]
    acc /= wh * ww
    out = acc.astype(x.data.dtype)
    scale = 1.0 / (wh * ww)

    def backward(grad):
        if x.requires_grad:
            gcol = np.broadcast_to((grad * scale)[:, :, None, None], (n, c, wh, ww, ho, wo))
            x._accumulate(_col2im(gcol, h, w, wh, ww, sh, sw, dh, dw, pt, pl), owned=True)

    return _result(out, (x,), backward)


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over the spatial axes, kept 4-D as (n, c, 1, 1)."""
    n, c, h, w = x.data.shape
    out = x.data.mean(axis=(2, 3), keepdims=True, dtype=np.float64).astype(x.data.dtype)

    def backward(grad):
        if x.requires_grad:
            x._accumulate(np.broadcast_to(grad / (h * w), (n, c, h, w)))

    return _result(out, (x,), backward)


@functools.lru_cache(maxsize=256)
def _resize_taps(src: int, dst: int) -> tuple[np.ndarray, ...]:
    """Half-pixel bilinear taps of a src -> dst resize along one axis.

    Output i is ``w0[i]·x[lo0[i]] + w1[i]·x[lo1[i]]`` with float64
    weights; both indexes are clamped to the edge and never decrease
    with i. Cached per (src, dst); the arrays are read-only.
    """
    pos = (np.arange(dst) + 0.5) * (src / dst) - 0.5
    lo = np.floor(pos).astype(np.intp)
    frac = pos - lo
    taps = (np.clip(lo, 0, src - 1), np.clip(lo + 1, 0, src - 1),
            1.0 - frac, frac)
    for a in taps:
        a.flags.writeable = False
    return taps


@functools.lru_cache(maxsize=256)
def _resize_matrix(src: int, dst: int) -> np.ndarray:
    """Row-stochastic bilinear interpolation matrix (dst, src), float64."""
    lo0, lo1, w0, w1 = _resize_taps(src, dst)
    r = np.zeros((dst, src), dtype=np.float64)
    rows = np.arange(dst)
    np.add.at(r, (rows, lo0), w0)
    np.add.at(r, (rows, lo1), w1)
    r.flags.writeable = False
    return r


def bilinear_upsample(x: Tensor, size) -> Tensor:
    """Resize spatially to (h, w) with half-pixel-aligned bilinear weights."""
    th, tw = _pair(size)
    n, c, h, w = x.data.shape
    dt = x.data.dtype
    rh = _resize_matrix(h, th).astype(dt)
    rw = _resize_matrix(w, tw).astype(dt)
    out = np.matmul(np.matmul(rh, x.data), rw.T)

    def backward(grad):
        if x.requires_grad:
            x._accumulate(np.matmul(np.matmul(rh.T, grad), rw), owned=True)

    return _result(out, (x,), backward)


def phase_mask(x: Tensor, period, keep) -> Tensor:
    """Zero positions whose index mod period >= keep, per spatial axis.

    Keeps the live-phase samples of a dilated (stride-free) layout so a
    following transposed conv only mixes samples that exist in the strided
    layout it replaces.
    """
    ph, pw = _pair(period)
    kh, kw = _pair(keep)
    if not (0 < kh <= ph and 0 < kw <= pw):
        raise EngineError(f"phase_mask: keep {(kh, kw)} must be in (0, period] {(ph, pw)}")
    n, c, h, w = x.data.shape
    mh = (np.arange(h) % ph) < kh
    mw = (np.arange(w) % pw) < kw
    m = (mh[:, None] & mw[None, :]).astype(x.data.dtype)
    out = x.data * m

    def backward(grad):
        if x.requires_grad:
            x._accumulate(grad * m, owned=True)

    return _result(out, (x,), backward)


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray, ignore_index: int = 255) -> Tensor:
    """Mean per-pixel cross entropy over positions not labeled ignore_index.

    logits is (n, k, h, w); labels is an (n, h, w) integer array. Returns a
    (1, 1, 1, 1) tensor. A batch with every position ignored yields zero
    loss and zero gradient.
    """
    labels = np.asarray(labels)
    n, k, h, w = logits.data.shape
    if labels.shape != (n, h, w):
        raise EngineError(f"labels shape {labels.shape} != {(n, h, w)}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise EngineError(f"labels must be integers, got {labels.dtype}")
    valid = labels != ignore_index
    inside = valid & (labels >= 0) & (labels < k)
    if (valid & ~inside).any():
        bad = int(labels[valid & ~inside].flat[0])
        raise EngineError(f"label {bad} outside [0, {k}) and not ignore_index")
    # with every position ignored the valid mask zeroes both the loss
    # and the gradient, and the count only has to stay nonzero
    count = max(int(valid.sum()), 1)
    dt = logits.data.dtype
    zmax = logits.data.max(axis=1, keepdims=True)
    shifted = logits.data - zmax
    ez = np.exp(shifted)
    denom = ez.sum(axis=1, keepdims=True, dtype=np.float64)
    safe = np.where(valid, labels, 0)
    picked = np.take_along_axis(shifted, safe[:, None], axis=1)[:, 0]
    perpix = np.log(denom[:, 0]) - picked
    loss = float(perpix.sum(dtype=np.float64, where=valid) / count)
    out = np.full((1, 1, 1, 1), loss, dtype=dt)

    def backward(grad):
        if logits.requires_grad:
            probs = (ez / denom).astype(dt)
            onehot_rows = np.arange(k).reshape(1, k, 1, 1)
            probs -= (onehot_rows == safe[:, None]).astype(dt)
            probs *= (valid[:, None] / count).astype(dt)
            logits._accumulate(probs * grad.reshape(1, 1, 1, 1).astype(dt), owned=True)

    return _result(out, (logits,), backward)


# ------------------------------------------------------------ gradcheck

def gradcheck(fn, tensors: list[Tensor], step: float = 1e-6) -> float:
    """Compare tape gradients of fn(*tensors) against central differences.

    All tensors must be float64 with requires_grad set. A non-scalar
    output is projected onto a fixed random direction so one backward
    pass covers every output position. Returns the maximum relative
    error over all inputs.
    """
    for t in tensors:
        if t.data.dtype != np.float64:
            raise EngineError("gradcheck requires float64 tensors")
        if not t.requires_grad:
            raise EngineError("gradcheck tensors must require grad")
        t.zero_grad()
    loss = fn(*tensors)
    if loss.data.size == 1:
        proj = None
        loss.backward()
    else:
        proj = np.random.default_rng(12345).standard_normal(loss.data.shape)
        loss.backward(proj)
    analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data) for t in tensors]

    def scalar_of(out: Tensor) -> float:
        if proj is None:
            return float(out.data.reshape(()))
        return float((out.data * proj).sum())

    worst = 0.0
    with no_grad():
        for t, ga in zip(tensors, analytic):
            flat = t.data.reshape(-1)
            gflat = ga.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                up = scalar_of(fn(*tensors))
                flat[i] = orig - step
                down = scalar_of(fn(*tensors))
                flat[i] = orig
                numeric = (up - down) / (2.0 * step)
                err = abs(gflat[i] - numeric) / max(1.0, abs(gflat[i]) + abs(numeric))
                if err > worst:
                    worst = err
    return worst
