"""Dense 4-D tensors with reverse-mode autodiff.

Every tensor is an (n, c, h, w) numpy array in float32 or float64.
Operators build a tape of backward closures; Tensor.backward() walks it
in reverse topological order. Statistic reductions (batch norm moments
and gradient sums, pooling sums, loss means) accumulate in float64
regardless of the tensor dtype, over views or small buffers rather than
float64 copies of whole activations; matrix contractions run in the
tensor dtype through BLAS.

conv2d runs a conv and conv2d_transpose the adjoint of the conv with its
weight, restoring the extent it is given (tconv_out_hw checks it). A
pointwise conv (1x1, stride 1, no padding), such as a fully-connected
layer on a 1x1 map, reads its input as its column matrix. Other convs
gather patches with _im2col and scatter them back with _col2im, both
clipping each kernel tap to the unpadded input, so no padded copy is
built; the per-tap slices (the tap plan) are cached per shape. One chunk
plan (_plan) builds every conv matrix at most COLUMN_BUDGET bytes at a
time, in groups of whole samples or in bands of at least one output row
of one sample. A conv's adjoint gathers with the flipped kernel at
stride 1 and scatters when strided; a backward that gathers a matrix
takes the weight gradient from the same chunks.

A backward closure keeps only the arrays it reads, captured when the op
runs, and never reads a parent's values later but through a rebuild
function. A fused batchnorm's output has one on a tape, recomputing it
bit for bit from what the batchnorm keeps; an op that keeps its input
keeps that function in the array's place and calls it in backward:
- conv2d keeps x's array when the weight needs a gradient, and pairs it
  in backward with the gathered output gradient (stride 1) or with its
  rebuilt column matrix (the pointwise path keeps a view of x, which is
  its matrix);
- conv2d_transpose keeps x's array when the weight needs a gradient,
  and pairs it with the column matrix of the output gradient;
- batchnorm keeps x's array in both modes; its backward recomputes the
  centred copy in training mode, and with relu=True takes the ReLU mask
  from the sign of the recomputed pre-clamp output;
- relu keeps a boolean mask of its positive outputs;
- phase_mask keeps its 0/1 mask;
- softmax_cross_entropy keeps its exponentials, which its backward
  sums again and turns in place into the logits' gradient;
- add, concat_channels, the pools and bilinear_upsample keep no
  activation.
Kept arrays are shared, not copied: the x a batchnorm keeps is the
output of the conv before it, and the array a module's skip conv,
reading the same input, keeps too. So no op writes into its inputs or
into an array it has returned. A closure owns the gradient it is handed
(backward() gives each node a private array) and may overwrite it, or
hand it on to one parent; it writes into no other array it keeps except
a copy of its own, such as the loss's exponentials, and into no array a
rebuild function returns to it but its own.

So a tensor whose values are released (Tensor.release) still carries
its gradient through the tape. The tape is consumed once: backward()
frees each interior node's gradient, closure and parents as soon as the
node has propagated, so the arrays its closure kept go with it.

Importing the engine sets glibc's allocator to keep freed memory mapped
(mmap threshold 32 MiB, trim threshold 64 MiB, the values its dynamic
rule reaches after one 32 MiB block), so a step's arrays come back from
a heap that is already faulted in rather than page-faulting anew each
step; on another libc this does nothing.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import os

import numpy as np

FLOAT_DTYPES = (np.float32, np.float64)


def _keep_freed_memory_mapped() -> None:
    """Serve blocks under 32 MiB from the heap, and trim the heap only
    past 64 MiB free at its top; a libc that is not glibc is left as it
    is."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return
    mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)   # M_TRIM_THRESHOLD


_keep_freed_memory_mapped()


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

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_rebuild")

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
        self._rebuild = None    # a tape node's function recomputing data, or None

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
            node.grad, node._backward, node._parents, node._rebuild = None, _spent, (), None


def _spent(grad) -> None:
    """The closure left on a tape node that has propagated."""
    raise EngineError("backward() over a tape that an earlier backward() consumed")


def _taping(parents) -> bool:
    """Whether an op on these parents records a tape node."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _result(data: np.ndarray, parents, backward, rebuild=None) -> Tensor:
    out = Tensor(data)
    if _taping(parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
        out._rebuild = rebuild
    return out


def _values(keep) -> np.ndarray:
    """An input's values from what a closure kept: its array or rebuild function."""
    return keep() if callable(keep) else keep


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


def tconv_out_hw(hw, out_hw, k, s, d, p) -> tuple[int, int]:
    """The extent out_hw of a transposed conv of an hw input, checked.

    Per axis the conv it undoes maps every size in [base, base + s) onto
    the input size, base = (size - 1)*s - 2*p + d*(k - 1) + 1, so the
    positive ones are the extents a transposed conv can restore.
    """
    hw, out = _pair(hw), _pair(out_hw)
    base = tuple((n - 1) * ss - 2 * pp + dd * (kk - 1) + 1
                 for n, kk, ss, dd, pp in zip(hw, k, s, d, p))
    if not all(max(b, 1) <= o < b + ss for b, o, ss in zip(base, out, s)):
        top = tuple(b + ss - 1 for b, ss in zip(base, s))
        raise EngineError(f"tconv cannot restore extent {out} from {hw}: "
                          f"stride {tuple(s)} restores {base} to {top}")
    return out


def pool_out_hw(hw, window, s, d, pad) -> tuple[int, int]:
    """Output extent of a pool over an hw input padded by pad, given as
    (top, bottom, left, right)."""
    return (conv_out_size(hw[0] + pad[0] + pad[1], window[0], s[0], d[0], 0),
            conv_out_size(hw[1] + pad[2] + pad[3], window[1], s[1], d[1], 0))


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


def _col2im(col: np.ndarray, x: np.ndarray, kh: int, kw: int, sh: int, sw: int,
            dh: int, dw: int, pt: int, pl: int) -> np.ndarray:
    """Scatter-add (n, c, kh, kw, ho, wo) patches into x in place and return
    x; the adjoint of _im2col, dropping what lands in the padding."""
    ho, wo = col.shape[4:]
    for u, v, oi, oj, ii, ij in _taps(*x.shape[2:], ho, wo, kh, kw, sh, sw, dh, dw, pt, pl):
        x[:, :, ii, ij] += col[:, :, u, v, oi, oj]
    return x


# ------------------------------------------------------ the conv core

# bytes of a conv matrix built at once: above it the matrix is built in
# chunks of whole samples, or of output rows of one sample
COLUMN_BUDGET = 1 << 20


def _plan(a: np.ndarray, k, s, d, p, out_hw):
    """The chunk plan of a conv matrix, the (n, c*kh*kw, ho*wo) columns of a
    conv over an input like a or the patches a strided adjoint scatters
    onto it. Per chunk, in sample and row order, it gives
    (samples, r0, r1, rows, pad): output rows r0 to r1 of the samples
    slice, and the input rows they read, below pad rows of padding.
    Chunks are groups of whole samples when one sample's matrix fits
    COLUMN_BUDGET bytes, so each GEMM is a batched matmul's per-sample
    one; otherwise bands of at least one output row of one sample.
    """
    n, c, h, _ = a.shape
    (kh, kw), (sh, _), (dh, _), (pt, _), (ho, wo) = k, s, d, p, out_hw
    row = c * kh * kw * wo * a.itemsize     # bytes of one output row's columns
    m = max(1, COLUMN_BUDGET // (row * ho))
    band = ho if row * ho <= COLUMN_BUDGET else max(1, COLUMN_BUDGET // row)
    for i in range(0, n, m):
        for r0 in range(0, ho, band):
            top = r0 * sh - pt              # the chunk's first tap row
            r1, lo = min(ho, r0 + band), max(top, 0)
            hi = max(lo, min(h, (r1 - 1) * sh - pt + (kh - 1) * dh + 1))
            yield slice(i, min(n, i + m)), r0, r1, slice(lo, hi), lo - top


def _conv_gemm(a: np.ndarray, w2, k, s, d, p, out_hw, other=None, lead=False):
    """A conv over a, by the chunks of a's column matrix; returns (out, total).

    Each chunk, gathered by _im2col from the input rows it reads, is freed
    before the next is built; a pointwise conv's matrix is a view, one chunk.
    out is w2 (co, c*kh*kw) times the matrix, (n, co, ho, wo), or None
    without w2. Given other, (n, c', ho, wo), total sums the matrix times
    other's transpose (with lead, other times the matrix's transpose) over
    the same chunks, one sample at a time in sample order, as a sum over
    axis 0 of the whole batch's products does.
    """
    n, c, h, w = a.shape
    (kh, kw), (ho, wo) = k, out_hw
    out = None if w2 is None else np.empty((n, w2.shape[0], ho, wo), dtype=a.dtype)
    b3 = None if other is None else other.reshape(n, other.shape[1], ho * wo)
    total = None
    pointwise = (k, s, p) == ((1, 1), (1, 1), (0, 0))
    chunks = [(slice(0, n), 0, ho, None, 0)] if pointwise else _plan(a, k, s, d, p, out_hw)
    for i, r0, r1, rows, pad in chunks:
        cols = slice(r0 * wo, r1 * wo)
        col = a.reshape(n, c, h * w) if pointwise else \
            _im2col(a[i, :, rows], kh, kw, *s, *d, pad, p[1], r1 - r0, wo) \
            .reshape(i.stop - i.start, c * kh * kw, (r1 - r0) * wo)
        if w2 is not None:
            np.matmul(w2, col, out=out.reshape(n, -1, ho * wo)[i, :, cols])
        if b3 is not None:
            b = b3[i, :, cols]
            for q in (np.matmul(b, col.transpose(0, 2, 1)) if lead
                      else np.matmul(col, b.transpose(0, 2, 1))):
                total = q.copy() if total is None else np.add(total, q, out=total)
        del col
    return out, total


def _adjoint(g: np.ndarray, w: np.ndarray, s, d, p, in_hw, other=None):
    """Map g from the output grid of the conv with weight w (co, ci, kh, kw)
    back to its (n, ci, h, w) input grid; returns (result, total).

    At stride 1 this is _conv_gemm of g and other, with w flipped in both
    spatial axes and its channel axes swapped, over the input extent
    padded by d*(k-1) - p (negative pads clip), so tap u is the conv's tap
    k-1-u. Strided, total is None: each chunk of the patch matrix, w's
    transpose times g, is scattered in place into the rows it covers.
    """
    n, co, ho, wo = g.shape
    _, ci, kh, kw = w.shape
    if s == (1, 1):
        q = (d[0] * (kh - 1) - p[0], d[1] * (kw - 1) - p[1])
        w_flip = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(ci, co * kh * kw)
        return _conv_gemm(g, w_flip, (kh, kw), s, d, q, in_hw, other)
    out = np.zeros((n, ci, *in_hw), dtype=g.dtype)
    wt, g3 = w.reshape(co, -1).T, g.reshape(n, co, ho * wo)
    for i, r0, r1, rows, pad in _plan(out, (kh, kw), s, d, p, (ho, wo)):
        _col2im(np.matmul(wt, g3[i, :, r0 * wo:r1 * wo]).reshape(-1, ci, kh, kw, r1 - r0, wo),
                out[i, :, rows], kh, kw, *s, *d, pad, p[1])
    return out, None


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

    The forward is _conv_gemm of x; the tape keeps x's array, not its
    column matrix, when the weight needs a gradient. The input gradient
    is the _adjoint of the output gradient g, whose chunks at stride 1
    give the weight gradient too (taps flipped back); otherwise that is g
    times x's rebuilt column matrix.
    """
    _check_conv("conv2d", x, weight, bias, transposed=False)
    s, d, p = _pair(stride), _pair(dilation), _pair(padding)
    n, ci, h, w = x.data.shape
    wd = weight.data
    co, _, kh, kw = wd.shape
    ho = conv_out_size(h, kh, s[0], d[0], p[0])
    wo = conv_out_size(w, kw, s[1], d[1], p[1])
    out = _conv_gemm(x.data, wd.reshape(co, -1), (kh, kw), s, d, p, (ho, wo))[0]
    if bias is not None:
        out += bias.data
    keep = (x._rebuild or x.data) if weight.requires_grad else None

    def backward(grad):
        if bias is not None and bias.requires_grad:
            bias._accumulate(_channel_sum(grad).astype(grad.dtype), owned=True)
        xd = _values(keep)
        dx, dw = _adjoint(grad, wd, s, d, p, (h, w), xd) if x.requires_grad else (None, None)
        if dw is not None:
            dw = dw.reshape(co, kh, kw, ci)[:, ::-1, ::-1].transpose(0, 3, 1, 2)
        elif weight.requires_grad:
            dw = _conv_gemm(xd, None, (kh, kw), s, d, p, (ho, wo), grad, lead=True)[1]
        if weight.requires_grad:
            weight._accumulate(np.ascontiguousarray(dw).reshape(wd.shape), owned=True)
        if dx is not None:
            x._accumulate(dx, owned=True)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _result(out, parents, backward)


def conv2d_transpose(x: Tensor, weight: Tensor, out_hw, stride=1, dilation=1,
                     padding=0) -> Tensor:
    """Adjoint of conv2d with the same attributes, restoring extent out_hw.

    weight is (c_in, c_out, kh, kw), the weight of the conv from this op's
    output grid to its input grid; out_hw is that conv's input extent,
    checked by tconv_out_hw. The forward is that conv's _adjoint of x.
    The backward is the conv itself, _conv_gemm of the output gradient,
    whose chunks give the weight gradient too.
    """
    _check_conv("conv2d_transpose", x, weight, None, transposed=True)
    s, d, p = _pair(stride), _pair(dilation), _pair(padding)
    n, ci, h, w = x.data.shape
    wd = weight.data
    kh, kw = wd.shape[2:]
    out = _adjoint(x.data, wd, s, d, p, tconv_out_hw((h, w), out_hw, (kh, kw), s, d, p))[0]
    keep = (x._rebuild or x.data) if weight.requires_grad else None

    def backward(grad):
        dx, dw = _conv_gemm(grad, wd.reshape(ci, -1) if x.requires_grad else None, (kh, kw),
                            s, d, p, (h, w), _values(keep))
        if dw is not None:
            weight._accumulate(dw.T.reshape(wd.shape), owned=True)
        if dx is not None:
            x._accumulate(dx, owned=True)

    return _result(out, (x, weight), backward)


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
    The defaults, decay 0.99 and eps 1e-5, are the only BN setting: a
    graph's bn_relu node runs at them and states neither.

    Both modes then compute out = xc * scale + shift per channel, with
    scale = gamma / sqrt(var + eps) and xc the centred copy (training)
    or x itself (eval); training writes out into xc's buffer. The tape
    keeps x's array in both modes, no copy of it: the training backward
    recomputes xc by the forward's subtraction, into an array of its
    own that it then overwrites.

    With relu, the op is relu(batchnorm(...)) in one: the output is
    clamped in place, and the tape keeps neither it nor a mask: the
    backward takes the mask from the sign of xc * scale + shift, by the
    forward's ops on the xc it recomputes, and the output's rebuild
    function runs those ops too. Results are bit-equal to the two ops
    run apart.
    """
    _check_dtype("batchnorm", x, gamma, beta)
    n, c, h, w = x.data.shape
    for name, t in (("gamma", gamma), ("beta", beta)):
        if t.data.shape != (1, c, 1, 1):
            raise EngineError(f"batchnorm: {name} shape {t.data.shape} != (1, {c}, 1, 1)")
    if running_mean.shape != (1, c, 1, 1) or running_var.shape != (1, c, 1, 1):
        raise EngineError("batchnorm: running stat shape mismatch")
    xd, dt = x.data, x.data.dtype
    m = n * h * w
    if training:
        mean = _channel_sum(xd) / m
        centre = mean.astype(dt)
        xc = xd - centre
        offset = mean - centre          # float64 mean of xc
        var = _channel_dot(xc, xc) / m - offset * offset
        running_mean *= decay
        running_mean += (1.0 - decay) * mean
        running_var *= decay
        running_var += (1.0 - decay) * var
    else:
        xc, offset, var = xd, running_mean, running_var
    inv = 1.0 / np.sqrt(var + eps)
    scale64 = gamma.data * inv
    scale = scale64.astype(dt)
    shift = (beta.data - offset * scale64).astype(dt)
    keep = x._rebuild or xd

    def affine(xc, into=None):
        # xc * scale + shift, by the same ops each time
        out = np.multiply(xc, scale, out=into)
        out += shift
        return out

    def activate(xc):
        # the output, written into xc's buffer unless xc is x's values
        out = affine(xc, xc if training else None)
        return np.maximum(out, 0, out=out) if relu else out

    out = activate(xc)

    def backward(grad):
        # grad is this closure's own array, so it is overwritten in place;
        # xc is the centred copy again, by the forward's subtraction, and
        # owned here (eval mode reads x's values themselves, kept intact)
        xc = _values(keep) - centre if training else _values(keep)
        if relu:
            np.multiply(grad, affine(xc) > 0, out=grad)
        gsum = _channel_sum(grad)
        gdot = _channel_dot(grad, xc) - offset * gsum   # sum of grad * (x - mean)
        if gamma.requires_grad:
            gamma._accumulate((gdot * inv).astype(dt), owned=True)
        if beta.requires_grad:
            beta._accumulate(gsum.astype(dt), owned=True)
        if x.requires_grad:
            dx = np.multiply(grad, scale, out=grad)
            if training:
                # the batch moments depend on x as well
                k = inv * inv * gdot / m
                dx -= np.multiply(xc, (scale64 * k).astype(dt), out=xc)
                dx += (scale64 * (offset * k - gsum / m)).astype(dt)
            x._accumulate(dx, owned=True)

    return _result(out, (x, gamma, beta), backward, (lambda: activate(
        _values(keep) - centre if training else _values(keep))) if relu else None)


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
    ho, wo = pool_out_hw((h, w), (wh, ww), (sh, sw), (dh, dw), (pt, pb, pl, pr))
    acc = np.zeros((n, c, ho, wo), dtype=np.float64)
    for _, _, oi, oj, ii, ij in _taps(h, w, ho, wo, wh, ww, sh, sw, dh, dw, pt, pl):
        acc[:, :, oi, oj] += x.data[:, :, ii, ij]
    acc /= wh * ww
    out = acc.astype(x.data.dtype)

    def backward(grad):
        if x.requires_grad:
            gcol = np.broadcast_to((grad / (wh * ww))[:, :, None, None], (n, c, wh, ww, ho, wo))
            dx = np.zeros((n, c, h, w), dtype=grad.dtype)
            x._accumulate(_col2im(gcol, dx, wh, ww, sh, sw, dh, dw, pt, pl), owned=True)

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

    logits is (n, k, h, w); labels is an (n, h, w) array of any integer
    dtype, used as it is. Returns a (1, 1, 1, 1) tensor. A batch with
    every position ignored yields zero loss and zero gradient.

    The forward picks each pixel's labelled logit with one masked copy
    per class and takes the per-pixel log of the float64 class sums in
    their own buffer. The tape keeps the exponentials ez of the shifted
    logits (one array of the logits' shape and dtype), the valid mask
    and the labels with ignored positions set to 0. A tape runs its
    backward at most once, so the backward consumes ez: it sums it
    again over the classes as the forward did, turns it in place into
    softmax - onehot, scaled by valid/count and by the seed, and hands
    it to the logits as their gradient.
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
    safe = np.where(valid, labels, 0)[:, None]
    ez = logits.data - logits.data.max(axis=1, keepdims=True)
    # the labelled class's shifted logit, one masked copy per class
    picked = np.empty((n, h, w), dtype=dt)
    for j in range(k):
        np.copyto(picked, ez[:, j], where=safe[:, 0] == j)
    np.exp(ez, out=ez)
    perpix = ez.sum(axis=1, dtype=np.float64)
    np.log(perpix, out=perpix)
    perpix -= picked
    loss = float(perpix.sum(dtype=np.float64, where=valid) / count)
    out = np.full((1, 1, 1, 1), loss, dtype=dt)

    def backward(grad):
        # the forward's class sums again, from the same ez; a float64 loop
        # with a dt result, rounded as (ez/denom).astype(dt)
        denom = ez.sum(axis=1, keepdims=True, dtype=np.float64)
        np.divide(ez, denom, out=ez)
        # the ignored positions subtract at class 0 too; valid zeroes them
        np.put_along_axis(ez, safe, np.take_along_axis(ez, safe, axis=1) - 1, axis=1)
        # (valid/count).astype(dt) without its float64 temporary
        np.multiply(ez, np.where(valid[:, None], dt.type(1 / count), dt.type(0)), out=ez)
        np.multiply(ez, grad.reshape(1, 1, 1, 1).astype(dt), out=ez)
        logits._accumulate(ez, owned=True)

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
