import tracemalloc

import numpy as np
import pytest

from sunet import tensor as T
from sunet.tensor import EngineError, Tensor


def t64(arr, grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


def test_conv_ones_kernel_sums_window():
    x = Tensor(np.arange(1.0, 10.0).reshape(1, 1, 3, 3))
    w = Tensor(np.ones((1, 1, 3, 3), dtype=np.float64))
    out = T.conv2d(x, w)
    assert out.data.shape == (1, 1, 1, 1)
    assert out.data.reshape(()) == 45.0


def test_conv_dilated_samples_every_other():
    x = Tensor(np.arange(1.0, 26.0).reshape(1, 1, 5, 5))
    w = Tensor(np.ones((1, 1, 3, 3), dtype=np.float64))
    out = T.conv2d(x, w, dilation=2)
    # taps land on rows/cols 0, 2, 4
    assert out.data.reshape(()) == 1 + 3 + 5 + 11 + 13 + 15 + 21 + 23 + 25


@pytest.mark.parametrize("size,k,s,d,p,want", [
    (224, 7, 2, 1, 3, 112),
    (224, 3, 2, 1, 1, 112),
    (56, 2, 2, 1, 0, 28),
    (129, 7, 2, 1, 3, 65),
    (33, 3, 2, 1, 1, 17),
    (9, 3, 1, 4, 4, 9),
])
def test_conv_out_size(size, k, s, d, p, want):
    assert T.conv_out_size(size, k, s, d, p) == want
    # brute force: count valid anchor positions
    padded = size + 2 * p
    span = d * (k - 1) + 1
    assert want == len(range(0, padded - span + 1, s))


@pytest.mark.parametrize("size,k,s,d,p,op,want", [
    (4, 3, 2, 1, 1, 1, 8),
    (4, 3, 2, 1, 1, 0, 7),
    (5, 3, 2, 1, 1, 0, 9),
    (7, 3, 2, 2, 2, 1, 14),
])
def test_tconv_out_size(size, k, s, d, p, op, want):
    assert T.tconv_out_size(size, k, s, d, p, op) == want


@pytest.mark.parametrize("s,d,p", [(1, 1, 0), (2, 1, 1), (1, 2, 2), (2, 2, 1)])
def test_tconv_is_adjoint_of_conv(s, d, p):
    # <conv(x, w), y> == <x, tconv(y, w)>; the (cin, cout, kh, kw) weight
    # layout means the very same array serves both directions
    rng = np.random.default_rng(11)
    x = t64(rng.normal(size=(2, 3, 9, 9)), grad=False)
    w = t64(rng.normal(size=(4, 3, 3, 3)), grad=False)
    fwd = T.conv2d(x, w, stride=s, dilation=d, padding=p)
    y = rng.normal(size=fwd.data.shape)
    lhs = float((fwd.data * y).sum())
    back = T.conv2d_transpose(t64(y, grad=False), w, stride=s, dilation=d,
                              padding=p, output_padding=0)
    # with output_padding 0 the adjoint may drop trailing always-zero rows
    hh, ww = back.data.shape[2:]
    rhs = float((back.data * x.data[:, :, :hh, :ww]).sum())
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_tconv_output_padding_must_stay_below_stride():
    x = Tensor(np.zeros((1, 2, 4, 4), dtype=np.float32))
    w = Tensor(np.zeros((2, 2, 3, 3), dtype=np.float32))
    with pytest.raises(EngineError):
        T.conv2d_transpose(x, w, stride=2, padding=1, output_padding=2)


def test_conv_channel_mismatch_raises():
    x = Tensor(np.zeros((1, 3, 4, 4), dtype=np.float32))
    w = Tensor(np.zeros((2, 4, 3, 3), dtype=np.float32))
    with pytest.raises(EngineError):
        T.conv2d(x, w)


def test_mixed_dtypes_rejected():
    x = Tensor(np.zeros((1, 1, 2, 2), dtype=np.float32))
    w = Tensor(np.zeros((1, 1, 1, 1), dtype=np.float64))
    with pytest.raises(EngineError):
        T.conv2d(x, w)


def test_batchnorm_training_normalizes_and_tracks():
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(3.0, 2.0, size=(4, 2, 5, 5)).astype(np.float32))
    gamma = Tensor(np.ones((1, 2, 1, 1), dtype=np.float32))
    beta = Tensor(np.zeros((1, 2, 1, 1), dtype=np.float32))
    rm = np.zeros((1, 2, 1, 1))
    rv = np.ones((1, 2, 1, 1))
    out = T.batchnorm(x, gamma, beta, rm, rv, training=True, decay=0.99)
    assert np.allclose(out.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-5)
    assert np.allclose(out.data.var(axis=(0, 2, 3)), 1.0, atol=1e-3)
    mean = x.data.mean(axis=(0, 2, 3), keepdims=True, dtype=np.float64)
    var = np.square(x.data.astype(np.float64) - mean).mean(axis=(0, 2, 3), keepdims=True)
    assert np.allclose(rm, 0.01 * mean, rtol=1e-12)
    assert np.allclose(rv, 0.99 + 0.01 * var, rtol=1e-12)


def test_batchnorm_eval_uses_running_stats():
    x = Tensor(np.full((1, 1, 2, 2), 5.0, dtype=np.float32))
    gamma = Tensor(np.full((1, 1, 1, 1), 2.0, dtype=np.float32))
    beta = Tensor(np.full((1, 1, 1, 1), 1.0, dtype=np.float32))
    rm = np.full((1, 1, 1, 1), 3.0)
    rv = np.full((1, 1, 1, 1), 4.0)
    out = T.batchnorm(x, gamma, beta, rm, rv, training=False, eps=0.0)
    assert np.allclose(out.data, 2.0 * (5.0 - 3.0) / 2.0 + 1.0)
    assert rm[0, 0, 0, 0] == 3.0 and rv[0, 0, 0, 0] == 4.0


def test_global_avg_pool_mean():
    x = Tensor(np.arange(1.0, 50.0).reshape(1, 1, 7, 7))
    assert T.global_avg_pool(x).data.reshape(()) == 25.0


def test_avg_pool_padded_zeros_count_in_divisor():
    x = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
    out = T.avg_pool2d(x, window=2, stride=1, padding=(0, 1, 0, 1))
    # interior windows average 4 ones; windows over the pad see zeros
    assert out.data.shape == (1, 1, 3, 3)
    assert out.data[0, 0, 0, 0] == 1.0
    assert out.data[0, 0, 2, 2] == 0.25
    assert out.data[0, 0, 0, 2] == 0.5


def test_phase_mask_keeps_leading_phases():
    x = Tensor(np.ones((1, 1, 6, 6), dtype=np.float32), requires_grad=True)
    out = T.phase_mask(x, period=3, keep=1)
    live = out.data[0, 0]
    assert live[0, 0] == 1.0 and live[0, 3] == 1.0 and live[3, 3] == 1.0
    assert live[1, 0] == 0.0 and live[0, 2] == 0.0
    assert live.sum() == 4.0
    out.backward(np.ones_like(out.data))
    assert x.grad.sum() == 4.0


def test_softmax_cross_entropy_uniform_logits():
    k = 21
    logits = Tensor(np.zeros((1, k, 4, 4), dtype=np.float32), requires_grad=True)
    labels = np.zeros((1, 4, 4), dtype=np.int64)
    loss = T.softmax_cross_entropy(logits, labels)
    assert abs(float(loss.data.reshape(())) - np.log(k)) < 1e-6


def test_softmax_cross_entropy_matches_per_pixel_oracle():
    rng = np.random.default_rng(9)
    z = rng.normal(size=(2, 5, 3, 3))
    labels = rng.integers(0, 5, size=(2, 3, 3))
    labels[0, 0, 0] = 255
    loss = T.softmax_cross_entropy(t64(z, grad=False), labels)
    # direct per-pixel computation
    total, count = 0.0, 0
    for n in range(2):
        for i in range(3):
            for j in range(3):
                lab = labels[n, i, j]
                if lab == 255:
                    continue
                row = z[n, :, i, j]
                total += np.log(np.exp(row).sum()) - row[lab]
                count += 1
    assert abs(float(loss.data.reshape(())) - total / count) < 1e-12


def test_softmax_cross_entropy_all_ignored_gives_zero_loss_and_gradient():
    rng = np.random.default_rng(4)
    logits = Tensor(rng.normal(size=(2, 3, 4, 5)).astype(np.float32),
                    requires_grad=True)
    loss = T.softmax_cross_entropy(logits, np.full((2, 4, 5), 255, dtype=np.int64))
    assert loss.data.shape == (1, 1, 1, 1) and float(loss.data.reshape(())) == 0.0
    loss.backward()
    assert logits.grad.shape == logits.data.shape and logits.grad.dtype == np.float32
    assert not logits.grad.any()


def test_softmax_cross_entropy_rejects_out_of_range_label():
    logits = Tensor(np.zeros((1, 3, 2, 2), dtype=np.float32))
    labels = np.full((1, 2, 2), 7, dtype=np.int64)
    with pytest.raises(EngineError):
        T.softmax_cross_entropy(logits, labels)


def test_backward_requires_scalar_or_seed():
    x = Tensor(np.ones((1, 1, 2, 2), dtype=np.float32), requires_grad=True)
    y = T.relu(x)
    with pytest.raises(EngineError):
        y.backward()
    y.backward(np.full((1, 1, 2, 2), 2.0, dtype=np.float32))
    assert np.all(x.grad == 2.0)


def test_no_grad_blocks_tape():
    x = Tensor(np.ones((1, 1, 2, 2), dtype=np.float32), requires_grad=True)
    with T.no_grad():
        y = T.relu(x)
    assert not y.requires_grad and y._backward is None


def test_backward_consumes_the_tape():
    rng = np.random.default_rng(4)
    x = t64(rng.normal(size=(1, 2, 5, 5)))
    w = t64(rng.normal(size=(3, 2, 3, 3)))
    h = T.relu(T.conv2d(x, w, padding=1))
    y = T.avg_pool2d(h)
    seed = np.ones_like(y.data)
    y.backward(seed)
    # interior nodes give up gradient, closure and parents; leaves keep theirs
    assert h.grad is None and h._parents == () and y._parents == ()
    assert x.grad is not None and w.grad is not None
    with pytest.raises(EngineError, match="consumed"):
        y.backward(seed)
    # a second root over the consumed part of the tape cannot reach x either
    z = T.relu(h)
    with pytest.raises(EngineError, match="consumed"):
        z.backward(np.ones_like(z.data))


def test_released_tensor_raises_on_read_but_carries_its_gradient():
    rng = np.random.default_rng(5)
    xv, wv = rng.normal(size=(1, 2, 6, 6)), rng.normal(size=(2, 2, 3, 3))
    lv = rng.normal(size=(3, 2, 1, 1))

    def grads(release):
        x, w = t64(xv), t64(wv)
        hidden = [T.conv2d(x, w, padding=1)]
        hidden.append(T.relu(hidden[-1]))
        hidden.append(T.batchnorm(hidden[-1], t64(np.ones((1, 2, 1, 1))),
                                  t64(np.zeros((1, 2, 1, 1))), np.zeros((1, 2, 1, 1)),
                                  np.ones((1, 2, 1, 1)), training=True))
        hidden.append(T.conv2d_transpose(hidden[-1], t64(wv), stride=2, padding=1))
        hidden.append(T.global_avg_pool(hidden[-1]))
        out = T.conv2d(hidden[-1], t64(lv))
        if release:
            for t in hidden:
                t.release()
            with pytest.raises(EngineError, match="released"):
                hidden[1].data
            assert "released" in repr(hidden[1])
        out.backward(np.ones_like(out.data))
        return x.grad, w.grad

    for kept, released in zip(grads(False), grads(True)):
        assert np.array_equal(kept, released)


def test_gradients_never_share_memory():
    # each op hands its input gradients over or copies them; no gradient
    # may share a buffer with another or be a read-only broadcast
    rng = np.random.default_rng(6)
    a, b, e, f = (t64(rng.normal(size=(1, 2, 3, 3))) for _ in range(4))
    c, d = (t64(rng.normal(size=(1, 1, 3, 3))) for _ in range(2))
    w, bias = t64(rng.normal(size=(3, 2, 1, 1))), t64(rng.normal(size=(1, 3, 1, 1)))
    v = T.add(T.add(T.add(a, b), T.bilinear_upsample(e, (3, 3))),
              T.concat_channels([c, d]))
    pooled = T.add(T.global_avg_pool(v),
                   T.add(T.global_avg_pool(f), T.global_avg_pool(f)))
    out = T.conv2d(pooled, w, bias)
    out.backward(np.ones_like(out.data))

    def buffer(arr):
        while arr.base is not None:
            arr = arr.base
        return arr

    leaves = [a, b, c, d, e, f, w, bias]
    for i, p in enumerate(leaves):
        for q in leaves[i + 1:]:
            assert not np.shares_memory(buffer(p.grad), buffer(q.grad))
    for p in leaves:
        others = [q for q in leaves if q is not p]
        before = [q.grad.copy() for q in others]
        p.grad += 1.0
        assert all(np.array_equal(u, q.grad) for u, q in zip(before, others))


def test_add_and_concat_shapes():
    a = Tensor(np.ones((1, 2, 3, 3), dtype=np.float32), requires_grad=True)
    b = Tensor(np.full((1, 2, 3, 3), 2.0, dtype=np.float32), requires_grad=True)
    s = T.add(a, b)
    assert np.all(s.data == 3.0)
    c = T.concat_channels([a, b])
    assert c.data.shape == (1, 4, 3, 3)
    c.backward(np.ones_like(c.data))
    assert np.all(a.grad == 1.0) and np.all(b.grad == 1.0)


def test_bilinear_upsample_preserves_constants():
    x = Tensor(np.full((1, 1, 3, 3), 7.0, dtype=np.float32))
    out = T.bilinear_upsample(x, (9, 9))
    assert out.data.shape == (1, 1, 9, 9)
    assert np.allclose(out.data, 7.0, atol=1e-6)


GRADCHECK_TOL = 1e-4


def _rand(rng, *shape):
    return t64(rng.normal(0.0, 1.0, size=shape))


@pytest.mark.parametrize("seed", range(3))
def test_gradcheck_conv(seed):
    rng = np.random.default_rng(100 + seed)
    x = _rand(rng, 2, 3, 6, 6)
    w = _rand(rng, 4, 3, 3, 3)
    err = T.gradcheck(lambda a, b: T.conv2d(a, b, stride=2, padding=1), [x, w])
    assert err < GRADCHECK_TOL


@pytest.mark.parametrize("seed", range(3))
def test_gradcheck_tconv(seed):
    rng = np.random.default_rng(200 + seed)
    x = _rand(rng, 1, 3, 4, 4)
    w = _rand(rng, 3, 2, 3, 3)
    err = T.gradcheck(
        lambda a, b: T.conv2d_transpose(a, b, stride=2, padding=1, output_padding=1),
        [x, w])
    assert err < GRADCHECK_TOL


def test_gradcheck_cross_entropy():
    rng = np.random.default_rng(300)
    z = _rand(rng, 2, 4, 3, 3)
    labels = rng.integers(0, 4, size=(2, 3, 3))
    labels[1, 2, 2] = 255
    err = T.gradcheck(lambda a: T.softmax_cross_entropy(a, labels), [z])
    assert err < GRADCHECK_TOL


# ---------------------------------------------- nested-loop oracles (float64)
# Each reference walks output positions and kernel taps one by one and
# skips taps that land in the zero padding. Given an upstream gradient g
# it also returns the input and weight gradients by the same loop.

ORACLE_TOL = 1e-12


def naive_conv(x, w, s, d, p, g=None):
    n, ci, h, wd = x.shape
    co, _, kh, kw = w.shape
    ho = (h + 2 * p - d * (kh - 1) - 1) // s + 1
    wo = (wd + 2 * p - d * (kw - 1) - 1) // s + 1
    out = np.zeros((n, co, ho, wo))
    dx, dw = np.zeros_like(x), np.zeros_like(w)
    for i in range(ho):
        for j in range(wo):
            for u in range(kh):
                for v in range(kw):
                    r, c = i * s + u * d - p, j * s + v * d - p
                    if not (0 <= r < h and 0 <= c < wd):
                        continue
                    out[:, :, i, j] += x[:, :, r, c] @ w[:, :, u, v].T
                    if g is not None:
                        dx[:, :, r, c] += g[:, :, i, j] @ w[:, :, u, v]
                        dw[:, :, u, v] += g[:, :, i, j].T @ x[:, :, r, c]
    return out, dx, dw


def naive_tconv(x, w, s, d, p, op, g=None):
    n, ci, h, wd = x.shape
    _, co, kh, kw = w.shape
    ho = (h - 1) * s - 2 * p + d * (kh - 1) + 1 + op
    wo = (wd - 1) * s - 2 * p + d * (kw - 1) + 1 + op
    out = np.zeros((n, co, ho, wo))
    dx, dw = np.zeros_like(x), np.zeros_like(w)
    for i in range(h):
        for j in range(wd):
            for u in range(kh):
                for v in range(kw):
                    r, c = i * s + u * d - p, j * s + v * d - p
                    if not (0 <= r < ho and 0 <= c < wo):
                        continue
                    out[:, :, r, c] += x[:, :, i, j] @ w[:, :, u, v]
                    if g is not None:
                        dx[:, :, i, j] += g[:, :, r, c] @ w[:, :, u, v].T
                        dw[:, :, u, v] += x[:, :, i, j].T @ g[:, :, r, c]
    return out, dx, dw


def naive_pool(x, k, s, d, pad, g=None):
    pt, pb, pl, pr = pad
    n, c, h, wd = x.shape
    ho = (h + pt + pb - d * (k - 1) - 1) // s + 1
    wo = (wd + pl + pr - d * (k - 1) - 1) // s + 1
    out = np.zeros((n, c, ho, wo))
    dx = np.zeros_like(x)
    for i in range(ho):
        for j in range(wo):
            for u in range(k):
                for v in range(k):
                    r, cc = i * s + u * d - pt, j * s + v * d - pl
                    if not (0 <= r < h and 0 <= cc < wd):
                        continue
                    out[:, :, i, j] += x[:, :, r, cc] / (k * k)
                    if g is not None:
                        dx[:, :, r, cc] += g[:, :, i, j] / (k * k)
    return out, dx


def _engine_grads(out, seed_rng, *tensors):
    g = seed_rng.normal(size=out.data.shape)
    out.backward(g)
    return g, [t.grad for t in tensors]


def _close(got, want):
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=ORACLE_TOL)


def _conv_grid():
    for k in (1, 3):
        for s in (1, 2):
            for d in (1, 2, 4):
                for p in sorted({0, d * (k - 1) // 2, d * (k - 1) + 1}):
                    yield k, s, d, p


# 7x7 cases: the stem (stride 2, padding 3) and strided, dilated, padded variants
STEM_CASES = [(7, 2, 1, 3), (7, 1, 1, 0), (7, 2, 2, 6), (7, 1, 2, 3)]
# stride-1 cases whose outer taps miss the 11x9 input entirely, as multigrid
# rates do on small grids, and non-square kernels, whose gradient gather
# flips each axis by its own kernel extent
STRIDE1_CASES = [
    (3, 1, 6, 6), (3, 1, 12, 12),
    pytest.param((3, 1), 1, 1, 1, id="3x1-1-1-1"),
    pytest.param((5, 3), 1, 2, 5, id="5x3-1-2-5"),
]


@pytest.mark.parametrize("k,s,d,p", list(_conv_grid()) + STEM_CASES + STRIDE1_CASES)
def test_conv_matches_nested_loop_oracle(k, s, d, p):
    kh, kw = T._pair(k)
    rng = np.random.default_rng(1000 + 100 * kh + 10 * s + d + p + 1000 * (kh != kw) * kw)
    x = t64(rng.normal(size=(2, 3, 11, 9)))
    w = t64(rng.normal(size=(4, 3, kh, kw)))
    out = T.conv2d(x, w, stride=s, dilation=d, padding=p)
    g, (dx, dw) = _engine_grads(out, rng, x, w)
    want, want_dx, want_dw = naive_conv(x.data, w.data, s, d, p, g)
    _close(out.data, want)
    _close(dx, want_dx)
    _close(dw, want_dw)


def _tconv_grid(narrow=5):
    # every output_padding below the stride, where the output does not collapse
    for k, s, d, p in _conv_grid():
        for op in range(s):
            if (narrow - 1) * s - 2 * p + d * (k - 1) + 1 + op >= 1:
                yield k, s, d, p, op


# stride-1 cases for the gathering forward: outer taps that miss the 7x5
# input entirely, and non-square kernels (a (5, 3) kernel at p=5 would
# collapse the 5-wide axis, so the second one stands the other way up)
TCONV_STRIDE1_CASES = [
    (3, 1, 6, 6, 0), (3, 1, 12, 12, 0),
    pytest.param((3, 1), 1, 1, 1, 0, id="3x1-1-1-1-0"),
    pytest.param((3, 5), 1, 2, 5, 0, id="3x5-1-2-5-0"),
]


@pytest.mark.parametrize("k,s,d,p,op", list(_tconv_grid()) + TCONV_STRIDE1_CASES)
def test_tconv_matches_nested_loop_oracle(k, s, d, p, op):
    kh, kw = T._pair(k)
    rng = np.random.default_rng(2000 + 100 * kh + 10 * s + d + p + 7 * op
                                + 1000 * (kh != kw) * kw)
    x = t64(rng.normal(size=(2, 3, 7, 5)))
    w = t64(rng.normal(size=(3, 4, kh, kw)))
    out = T.conv2d_transpose(x, w, stride=s, dilation=d, padding=p, output_padding=op)
    g, (dx, dw) = _engine_grads(out, rng, x, w)
    want, want_dx, want_dw = naive_tconv(x.data, w.data, s, d, p, op, g)
    _close(out.data, want)
    _close(dx, want_dx)
    _close(dw, want_dw)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("tail", [False, True])
def test_avg_pool_matches_nested_loop_oracle(k, s, d, tail):
    pad = (0, d, 0, d) if tail else (0, 0, 0, 0)
    rng = np.random.default_rng(3000 + 100 * k + 10 * s + d + tail)
    x = t64(rng.normal(size=(2, 3, 11, 9)))
    out = T.avg_pool2d(x, window=k, stride=s, dilation=d, padding=pad)
    g, (dx,) = _engine_grads(out, rng, x)
    want, want_dx = naive_pool(x.data, k, s, d, pad, g)
    _close(out.data, want)
    _close(dx, want_dx)


# --------------------------------------- gradchecks of the special-cased paths

@pytest.mark.parametrize("s", [1, 2])
def test_gradcheck_pointwise_conv(s):
    rng = np.random.default_rng(400 + s)
    x = _rand(rng, 2, 3, 5, 7)
    w = _rand(rng, 4, 3, 1, 1)
    b = _rand(rng, 1, 4, 1, 1)
    err = T.gradcheck(lambda a, ww, bb: T.conv2d(a, ww, bb, stride=s), [x, w, b])
    assert err < GRADCHECK_TOL


def test_gradcheck_dilated_stride1_tconv():
    rng = np.random.default_rng(410)
    x = _rand(rng, 1, 3, 5, 6)
    w = _rand(rng, 3, 2, 3, 3)
    err = T.gradcheck(
        lambda a, b: T.conv2d_transpose(a, b, stride=1, dilation=2, padding=2), [x, w])
    assert err < GRADCHECK_TOL


def test_gradcheck_dilated_tail_padded_pool():
    rng = np.random.default_rng(420)
    x = _rand(rng, 2, 2, 7, 6)
    err = T.gradcheck(
        lambda a: T.avg_pool2d(a, window=2, stride=1, dilation=2, padding=(0, 2, 0, 2)), [x])
    assert err < GRADCHECK_TOL


def test_gradcheck_batchnorm_eval_with_running_stats():
    rng = np.random.default_rng(430)
    x = _rand(rng, 2, 3, 4, 5)
    gamma = _rand(rng, 1, 3, 1, 1)
    beta = _rand(rng, 1, 3, 1, 1)
    rm = rng.normal(0.5, 1.0, size=(1, 3, 1, 1))
    rv = rng.uniform(0.3, 3.0, size=(1, 3, 1, 1))
    err = T.gradcheck(
        lambda a, gm, bt: T.batchnorm(a, gm, bt, rm, rv, training=False), [x, gamma, beta])
    assert err < GRADCHECK_TOL


# ------------------------------------------------ batch norm guard (float32)

def test_batchnorm_float32_large_mean_precision_and_memory():
    # a mean far from zero relative to the spread: single-pass
    # E[x^2] - E[x]^2 or float32 accumulators lose the variance here
    rng = np.random.default_rng(440)
    x32 = rng.normal(1e3, 1.0, size=(8, 64, 32, 32)).astype(np.float32)
    gamma = rng.uniform(0.5, 2.0, size=(1, 64, 1, 1)).astype(np.float32)
    beta = rng.normal(size=(1, 64, 1, 1)).astype(np.float32)
    rm, rv = np.zeros((1, 64, 1, 1)), np.zeros((1, 64, 1, 1))
    x = Tensor(x32, requires_grad=True)
    g, b = Tensor(gamma, requires_grad=True), Tensor(beta, requires_grad=True)
    tracemalloc.start()
    try:
        out = T.batchnorm(x, g, b, rm, rv, training=True, decay=0.99)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    x64 = x32.astype(np.float64)
    mean = x64.mean(axis=(0, 2, 3), keepdims=True)
    var = np.square(x64 - mean).mean(axis=(0, 2, 3), keepdims=True)
    want = gamma * (x64 - mean) / np.sqrt(var + 1e-5) + beta
    assert np.abs(out.data - want).max() <= 1e-4
    np.testing.assert_allclose(rm, 0.01 * mean, rtol=1e-12, atol=0)
    np.testing.assert_allclose(rv, 0.01 * var, rtol=1e-12, atol=0)
    # the output and the centred copy the tape keeps, and little else
    assert peak <= 2.1 * x32.nbytes, peak / x32.nbytes


# --------------------------------------------- fused batch norm and ReLU

def _bn_args(rng, dtype, c=3):
    gamma = Tensor(rng.uniform(0.5, 2.0, size=(1, c, 1, 1)).astype(dtype), requires_grad=True)
    beta = Tensor(rng.normal(size=(1, c, 1, 1)).astype(dtype), requires_grad=True)
    return gamma, beta, rng.normal(0.3, 1.0, size=(1, c, 1, 1)), rng.uniform(0.3, 3.0, size=(1, c, 1, 1))


@pytest.mark.parametrize("training", [True, False])
def test_gradcheck_batchnorm_relu(training):
    rng = np.random.default_rng(450 + training)
    x = _rand(rng, 2, 3, 4, 5)
    gamma, beta, rm, rv = _bn_args(rng, np.float64)
    err = T.gradcheck(
        lambda a, gm, bt: T.batchnorm(a, gm, bt, rm.copy(), rv.copy(),
                                      training=training, relu=True),
        [x, gamma, beta])
    assert err < GRADCHECK_TOL


@pytest.mark.parametrize("training", [True, False])
def test_batchnorm_relu_is_bit_equal_to_the_two_ops(training):
    rng = np.random.default_rng(460 + training)
    xv = rng.normal(0.2, 1.5, size=(4, 3, 6, 7)).astype(np.float32)
    gv = rng.normal(size=xv.shape).astype(np.float32)
    args = _bn_args(rng, np.float32)

    def run(fused):
        x = Tensor(xv.copy(), requires_grad=True)
        gamma, beta = (Tensor(t.data.copy(), requires_grad=True) for t in args[:2])
        rm, rv = args[2].copy(), args[3].copy()
        if fused:
            out = T.batchnorm(x, gamma, beta, rm, rv, training=training, relu=True)
        else:
            out = T.relu(T.batchnorm(x, gamma, beta, rm, rv, training=training))
        result = [out.data.copy(), rm, rv]
        out.backward(gv)
        return result + [x.grad, gamma.grad, beta.grad]

    apart, fused = run(False), run(True)
    assert (apart[0] == 0).any() and (apart[0] > 0).any()
    for want, got in zip(apart, fused):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_conv_keeps_its_input_not_its_column_matrix():
    # a 3x3 conv's column matrix is 9x its input; the tape holds only the
    # output and a reference to the input until backward rebuilds it
    rng = np.random.default_rng(470)
    x = Tensor(rng.normal(size=(2, 8, 32, 32)).astype(np.float32))
    w = Tensor(rng.normal(size=(8, 8, 3, 3)).astype(np.float32), requires_grad=True)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = T.conv2d(x, w, padding=1)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held < 1.1 * out.data.nbytes, held / out.data.nbytes
    out.backward(np.ones_like(out.data))
    assert w.grad.shape == w.data.shape


def _spy_patches(monkeypatch):
    """Record (name, first argument's shape) for each _im2col/_col2im call."""
    calls = []
    for name in ("_im2col", "_col2im"):
        def wrapped(arr, *args, _name=name, _fn=getattr(T, name)):
            calls.append((_name, arr.shape))
            return _fn(arr, *args)
        monkeypatch.setattr(T, name, wrapped)
    return calls


@pytest.mark.parametrize("stride", [1, 2])
def test_stride1_conv_backward_gathers_the_output_gradient_once(monkeypatch, stride):
    # stride 1: one gather of the output gradient serves both gradients, so
    # no scatter and no rebuilt column matrix; stride 2 rebuilds x's matrix
    # for the weight gradient and scatters the input gradient
    calls = _spy_patches(monkeypatch)
    rng = np.random.default_rng(480 + stride)
    x = t64(rng.normal(size=(2, 3, 9, 8)))
    w = t64(rng.normal(size=(4, 3, 3, 3)))
    out = T.conv2d(x, w, stride=stride, padding=1)
    del calls[:]
    out.backward(rng.normal(size=out.data.shape))
    if stride == 1:
        assert calls == [("_im2col", out.data.shape)]
    else:
        # one scatter for the input gradient, one rebuild for the weight's
        assert sorted(calls) == [("_col2im", (2, 3, 3, 3, 5, 4)), ("_im2col", x.data.shape)]
    assert x.grad.shape == x.data.shape and w.grad.shape == w.data.shape


@pytest.mark.parametrize("stride", [1, 2])
def test_tconv_forward_gathers_at_stride1_and_scatters_when_strided(monkeypatch, stride):
    # the forward is the adjoint of a conv: at stride 1 a gather of x with
    # the flipped weight, when strided a scatter of the patch matrix
    calls = _spy_patches(monkeypatch)
    rng = np.random.default_rng(490 + stride)
    x = t64(rng.normal(size=(2, 4, 5, 6)))
    w = t64(rng.normal(size=(4, 3, 3, 3)))
    out = T.conv2d_transpose(x, w, stride=stride, dilation=2, padding=2,
                             output_padding=stride - 1)
    if stride == 1:
        assert calls == [("_im2col", x.data.shape)]
    else:
        assert calls == [("_col2im", (2, 3, 3, 3, 5, 6))]
    del calls[:]
    out.backward(rng.normal(size=out.data.shape))
    assert calls == [("_im2col", out.data.shape)]
