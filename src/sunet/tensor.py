"""Dense 4-D tensors with reverse-mode autodiff.

Every tensor is an (n, c, h, w) numpy array in float32 or float64.
Operators build a tape of backward closures; Tensor.backward() walks it
in reverse topological order. Statistic reductions (batch norm moments,
pooling means, loss means) accumulate in float64 regardless of the
tensor dtype; matrix contractions run in the tensor dtype through BLAS.
"""
from __future__ import annotations

import contextlib
import math

import numpy as np

FLOAT_DTYPES = (np.float32, np.float64)


class EngineError(ValueError):
    """Shape, dtype or attribute violation in an engine op."""


_grad_enabled = True
_validate_finite = False


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


def set_validation(enabled: bool) -> None:
    """Toggle opt-in non-finite checks on every op output."""
    global _validate_finite
    _validate_finite = bool(enabled)


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
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = g.astype(self.data.dtype, copy=False).reshape(self.data.shape).copy()
        else:
            self.grad += g.astype(self.data.dtype, copy=False).reshape(self.data.shape)

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from a scalar tensor, or from an explicit seed."""
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
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def _result(data: np.ndarray, parents, backward, op: str) -> Tensor:
    if _validate_finite and not np.isfinite(data).all():
        raise EngineError(f"non-finite values in output of {op}")
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
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

def _im2col(xp: np.ndarray, kh: int, kw: int, sh: int, sw: int,
            dh: int, dw: int, ho: int, wo: int) -> np.ndarray:
    """Gather (n, c, kh, kw, ho, wo) patches from a padded input."""
    n, c = xp.shape[:2]
    col = np.empty((n, c, kh, kw, ho, wo), dtype=xp.dtype)
    for u in range(kh):
        iu = u * dh
        for v in range(kw):
            jv = v * dw
            col[:, :, u, v] = xp[:, :, iu:iu + sh * (ho - 1) + 1:sh,
                                 jv:jv + sw * (wo - 1) + 1:sw]
    return col


def _col2im(col: np.ndarray, h: int, w: int, kh: int, kw: int, sh: int, sw: int,
            dh: int, dw: int, pt: int, pl: int) -> np.ndarray:
    """Scatter-add (n, c, kh, kw, ho, wo) patches back to (n, c, h, w)."""
    n, c, _, _, ho, wo = col.shape
    hp = max(h + 2 * pt, dh * (kh - 1) + sh * (ho - 1) + 1)
    wp = max(w + 2 * pl, dw * (kw - 1) + sw * (wo - 1) + 1)
    xp = np.zeros((n, c, hp, wp), dtype=col.dtype)
    for u in range(kh):
        iu = u * dh
        for v in range(kw):
            jv = v * dw
            xp[:, :, iu:iu + sh * (ho - 1) + 1:sh,
               jv:jv + sw * (wo - 1) + 1:sw] += col[:, :, u, v]
    return xp[:, :, pt:pt + h, pl:pl + w]


# ----------------------------------------------------------------- ops

def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride=1, dilation=1, padding=0) -> Tensor:
    """2-D convolution (cross-correlation) with stride and dilation."""
    _check_dtype("conv2d", *( (x, weight, bias) if bias is not None else (x, weight) ))
    sh, sw = _pair(stride)
    dh, dw = _pair(dilation)
    ph, pw = _pair(padding)
    n, ci, h, w = x.data.shape
    co, ciw, kh, kw = weight.data.shape
    if ci != ciw:
        raise EngineError(f"conv2d: input has {ci} channels, weight expects {ciw}")
    ho = conv_out_size(h, kh, sh, dh, ph)
    wo = conv_out_size(w, kw, sw, dw, pw)
    xp = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if ph or pw else x.data
    col = _im2col(xp, kh, kw, sh, sw, dh, dw, ho, wo).reshape(n, ci * kh * kw, ho * wo)
    w2 = weight.data.reshape(co, ci * kh * kw)
    out = np.matmul(w2, col).reshape(n, co, ho, wo)
    if bias is not None:
        if bias.data.shape != (1, co, 1, 1):
            raise EngineError(f"conv2d: bias shape {bias.data.shape} != (1, {co}, 1, 1)")
        out += bias.data

    def backward(grad):
        g = grad.reshape(n, co, ho * wo)
        if weight.requires_grad:
            dw_flat = np.matmul(g, col.transpose(0, 2, 1)).sum(axis=0)
            weight._accumulate(dw_flat.reshape(weight.data.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)).reshape(1, co, 1, 1))
        if x.requires_grad:
            dcol = np.matmul(w2.T, g).reshape(n, ci, kh, kw, ho, wo)
            x._accumulate(_col2im(dcol, h, w, kh, kw, sh, sw, dh, dw, ph, pw))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _result(out, parents, backward, "conv2d")


def conv2d_transpose(x: Tensor, weight: Tensor, bias: Tensor | None = None,
                     stride=1, dilation=1, padding=0, output_padding=0) -> Tensor:
    """Adjoint of conv2d with the same attributes.

    weight is (c_in, c_out, kh, kw); output_padding resolves the output
    size ambiguity and must be smaller than the stride.
    """
    _check_dtype("conv2d_transpose", *( (x, weight, bias) if bias is not None else (x, weight) ))
    sh, sw = _pair(stride)
    dh, dw = _pair(dilation)
    ph, pw = _pair(padding)
    oph, opw = _pair(output_padding)
    if oph >= sh or opw >= sw:
        raise EngineError(f"conv2d_transpose: output_padding {(oph, opw)} must be < stride {(sh, sw)}")
    n, ci, h, w = x.data.shape
    ciw, co, kh, kw = weight.data.shape
    if ci != ciw:
        raise EngineError(f"conv2d_transpose: input has {ci} channels, weight expects {ciw}")
    ho = tconv_out_size(h, kh, sh, dh, ph, oph)
    wo = tconv_out_size(w, kw, sw, dw, pw, opw)
    w2 = weight.data.reshape(ci, co * kh * kw)
    xf = x.data.reshape(n, ci, h * w)
    col = np.matmul(w2.T, xf).reshape(n, co, kh, kw, h, w)
    out = _col2im(col, ho, wo, kh, kw, sh, sw, dh, dw, ph, pw)
    if bias is not None:
        if bias.data.shape != (1, co, 1, 1):
            raise EngineError(f"conv2d_transpose: bias shape {bias.data.shape} != (1, {co}, 1, 1)")
        out = out + bias.data

    def backward(grad):
        gp = np.pad(grad, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if ph or pw else grad
        gcol = _im2col(gp, kh, kw, sh, sw, dh, dw, h, w).reshape(n, co * kh * kw, h * w)
        if x.requires_grad:
            dx = np.matmul(w2, gcol).reshape(n, ci, h, w)
            x._accumulate(dx)
        if weight.requires_grad:
            dw_flat = np.matmul(gcol, xf.transpose(0, 2, 1)).sum(axis=0)
            weight._accumulate(dw_flat.T.reshape(weight.data.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)).reshape(1, co, 1, 1))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _result(out, parents, backward, "conv2d_transpose")


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0)

    def backward(grad):
        if x.requires_grad:
            x._accumulate(grad * (x.data > 0))

    return _result(out, (x,), backward, "relu")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_dtype("add", a, b)
    if a.data.shape != b.data.shape:
        raise EngineError(f"add: shape mismatch {a.data.shape} vs {b.data.shape}")
    out = a.data + b.data

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad)
        if b.requires_grad:
            b._accumulate(grad)

    return _result(out, (a, b), backward, "add")


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

    return _result(out, tuple(tensors), backward, "concat_channels")


def batchnorm(x: Tensor, gamma: Tensor, beta: Tensor,
              running_mean: np.ndarray, running_var: np.ndarray,
              training: bool, decay: float = 0.99, eps: float = 1e-5) -> Tensor:
    """Per-channel batch normalization.

    In training mode the batch moments (float64 accumulation) normalize the
    activations and the running stats are updated in place:
    running <- decay * running + (1 - decay) * batch. Eval mode normalizes
    with the running stats.
    """
    _check_dtype("batchnorm", x, gamma, beta)
    n, c, h, w = x.data.shape
    for name, t in (("gamma", gamma), ("beta", beta)):
        if t.data.shape != (1, c, 1, 1):
            raise EngineError(f"batchnorm: {name} shape {t.data.shape} != (1, {c}, 1, 1)")
    if running_mean.shape != (1, c, 1, 1) or running_var.shape != (1, c, 1, 1):
        raise EngineError("batchnorm: running stat shape mismatch")
    dt = x.data.dtype
    if training:
        mean64 = x.data.mean(axis=(0, 2, 3), keepdims=True, dtype=np.float64)
        var64 = np.square(x.data.astype(np.float64) - mean64).mean(axis=(0, 2, 3), keepdims=True)
        running_mean *= decay
        running_mean += (1.0 - decay) * mean64
        running_var *= decay
        running_var += (1.0 - decay) * var64
        inv = (1.0 / np.sqrt(var64 + eps)).astype(dt)
        xhat = (x.data - mean64.astype(dt)) * inv
        out = gamma.data * xhat + beta.data
        m = n * h * w

        def backward(grad):
            if gamma.requires_grad:
                gamma._accumulate((grad * xhat).sum(axis=(0, 2, 3), keepdims=True))
            if beta.requires_grad:
                beta._accumulate(grad.sum(axis=(0, 2, 3), keepdims=True))
            if x.requires_grad:
                dxhat = grad * gamma.data
                s1 = dxhat.sum(axis=(0, 2, 3), keepdims=True)
                s2 = (dxhat * xhat).sum(axis=(0, 2, 3), keepdims=True)
                x._accumulate((dxhat - s1 / m - xhat * s2 / m) * inv)

        return _result(out, (x, gamma, beta), backward, "batchnorm")

    inv = (1.0 / np.sqrt(running_var + eps)).astype(dt)
    mu = running_mean.astype(dt)
    xhat = (x.data - mu) * inv
    out = gamma.data * xhat + beta.data

    def backward(grad):
        if gamma.requires_grad:
            gamma._accumulate((grad * xhat).sum(axis=(0, 2, 3), keepdims=True))
        if beta.requires_grad:
            beta._accumulate(grad.sum(axis=(0, 2, 3), keepdims=True))
        if x.requires_grad:
            x._accumulate(grad * gamma.data * inv)

    return _result(out, (x, gamma, beta), backward, "batchnorm")


def avg_pool2d(x: Tensor, window=2, stride=None, dilation=1, padding=(0, 0, 0, 0)) -> Tensor:
    """Average pooling with window dilation and asymmetric zero padding.

    padding is (top, bottom, left, right); padded zeros count toward the
    constant divisor.
    """
    wh, ww = _pair(window)
    sh, sw = _pair(stride if stride is not None else window)
    dh, dw = _pair(dilation)
    pt, pb, pl, pr = (int(v) for v in padding)
    n, c, h, w = x.data.shape
    ho = conv_out_size(h + pt + pb, wh, sh, dh, 0)
    wo = conv_out_size(w + pl + pr, ww, sw, dw, 0)
    xp = np.pad(x.data, ((0, 0), (0, 0), (pt, pb), (pl, pr))) if (pt or pb or pl or pr) else x.data
    col = _im2col(xp, wh, ww, sh, sw, dh, dw, ho, wo)
    out = col.mean(axis=(2, 3), dtype=np.float64).astype(x.data.dtype)
    scale = 1.0 / (wh * ww)

    def backward(grad):
        if x.requires_grad:
            gcol = np.broadcast_to((grad * scale)[:, :, None, None], (n, c, wh, ww, ho, wo))
            hp = h + pt + pb
            wp = w + pl + pr
            full = _col2im(gcol, hp, wp, wh, ww, sh, sw, dh, dw, 0, 0)
            x._accumulate(full[:, :, pt:pt + h, pl:pl + w])

    return _result(out, (x,), backward, "avg_pool2d")


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over the spatial axes, kept 4-D as (n, c, 1, 1)."""
    n, c, h, w = x.data.shape
    out = x.data.mean(axis=(2, 3), keepdims=True, dtype=np.float64).astype(x.data.dtype)

    def backward(grad):
        if x.requires_grad:
            x._accumulate(np.broadcast_to(grad / (h * w), x.data.shape))

    return _result(out, (x,), backward, "global_avg_pool")


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Fully connected layer on (n, c, 1, 1) tensors; weight is (k, c, 1, 1)."""
    _check_dtype("linear", *( (x, weight, bias) if bias is not None else (x, weight) ))
    n, c, h, w = x.data.shape
    if (h, w) != (1, 1):
        raise EngineError(f"linear expects (n, c, 1, 1) input, got {x.data.shape}")
    k, cw = weight.data.shape[:2]
    if cw != c:
        raise EngineError(f"linear: input has {c} features, weight expects {cw}")
    x2 = x.data.reshape(n, c)
    w2 = weight.data.reshape(k, c)
    out2 = x2 @ w2.T
    if bias is not None:
        if bias.data.shape != (1, k, 1, 1):
            raise EngineError(f"linear: bias shape {bias.data.shape} != (1, {k}, 1, 1)")
        out2 = out2 + bias.data.reshape(1, k)
    out = out2.reshape(n, k, 1, 1)

    def backward(grad):
        g2 = grad.reshape(n, k)
        if weight.requires_grad:
            weight._accumulate((g2.T @ x2).reshape(weight.data.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(g2.sum(axis=0).reshape(1, k, 1, 1))
        if x.requires_grad:
            x._accumulate((g2 @ w2).reshape(x.data.shape))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _result(out, parents, backward, "linear")


_resize_cache: dict[tuple[int, int], np.ndarray] = {}


def _resize_matrix(src: int, dst: int) -> np.ndarray:
    """Row-stochastic bilinear interpolation matrix (dst, src), float64."""
    key = (src, dst)
    cached = _resize_cache.get(key)
    if cached is not None:
        return cached
    r = np.zeros((dst, src), dtype=np.float64)
    scale = src / dst
    pos = (np.arange(dst) + 0.5) * scale - 0.5
    lo = np.floor(pos).astype(np.int64)
    frac = pos - lo
    lo0 = np.clip(lo, 0, src - 1)
    lo1 = np.clip(lo + 1, 0, src - 1)
    rows = np.arange(dst)
    np.add.at(r, (rows, lo0), 1.0 - frac)
    np.add.at(r, (rows, lo1), frac)
    if len(_resize_cache) > 256:
        _resize_cache.clear()
    _resize_cache[key] = r
    return r


def bilinear_upsample(x: Tensor, size) -> Tensor:
    """Resize spatially to (h, w) with half-pixel-aligned bilinear weights."""
    th, tw = _pair(size)
    n, c, h, w = x.data.shape
    if (th, tw) == (h, w):
        out = x.data.copy()

        def backward_id(grad):
            if x.requires_grad:
                x._accumulate(grad)

        return _result(out, (x,), backward_id, "bilinear_upsample")
    dt = x.data.dtype
    rh = _resize_matrix(h, th).astype(dt)
    rw = _resize_matrix(w, tw).astype(dt)
    out = np.matmul(np.matmul(rh, x.data), rw.T)

    def backward(grad):
        if x.requires_grad:
            x._accumulate(np.matmul(np.matmul(rh.T, grad), rw))

    return _result(out, (x,), backward, "bilinear_upsample")


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
            x._accumulate(grad * m)

    return _result(out, (x,), backward, "phase_mask")


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
    count = int(valid.sum())
    dt = logits.data.dtype
    if count == 0:
        out = np.zeros((1, 1, 1, 1), dtype=dt)

        def backward_empty(grad):
            if logits.requires_grad:
                logits._accumulate(np.zeros_like(logits.data))

        return _result(out, (logits,), backward_empty, "softmax_cross_entropy")

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
            logits._accumulate(probs * grad.reshape(1, 1, 1, 1).astype(dt))

    return _result(out, (logits,), backward, "softmax_cross_entropy")


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
