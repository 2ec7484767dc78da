import tracemalloc

import numpy as np
import pytest

from sunet import tensor as T
from sunet.arch import build_classifier, toy_config
from sunet.runtime import Network
from sunet.segment import SegmentationConfig, to_segmentation
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


def _tconv_base(size, k, s, d, p):
    """The smallest extent a transposed conv of a size-wide input restores."""
    return (size - 1) * s - 2 * p + d * (k - 1) + 1


@pytest.mark.parametrize("size,k,s,d,p,op,want", [
    (4, 3, 2, 1, 1, 1, 8),
    (4, 3, 2, 1, 1, 0, 7),
    (5, 3, 2, 1, 1, 0, 9),
    (7, 3, 2, 2, 2, 1, 14),
])
def test_tconv_out_size(size, k, s, d, p, op, want):
    # tconv_out_hw accepts exactly [base, base + s): the extents the
    # strided conv it undoes maps onto size
    assert _tconv_base(size, k, s, d, p) + op == want
    pairs = [(k, k), (s, s), (d, d), (p, p)]
    assert T.tconv_out_hw((size, size), (want, want), *pairs) == (want, want)
    accepted = [t for t in range(1, want + 2 * s)
                if _accepts(T.tconv_out_hw, (size, size), (t, want), *pairs)]
    assert accepted == list(range(want - op, want - op + s))
    # and each one is an extent the conv maps back onto size
    assert all(T.conv_out_size(t, k, s, d, p) == size for t in accepted)


def _accepts(fn, *args):
    try:
        fn(*args)
    except EngineError:
        return False
    return True


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
    # the transposed conv restores x's extent
    back = T.conv2d_transpose(t64(y, grad=False), w, (9, 9), stride=s, dilation=d,
                              padding=p)
    rhs = float((back.data * x.data).sum())
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_tconv_out_hw_must_lie_in_base_to_base_plus_stride():
    # a 4x4 input at stride 2, padding 1 restores 7 or 8 per axis
    x = Tensor(np.zeros((1, 2, 4, 4), dtype=np.float32))
    w = Tensor(np.zeros((2, 2, 3, 3), dtype=np.float32))
    assert T.conv2d_transpose(x, w, (7, 8), stride=2, padding=1).data.shape == (1, 2, 7, 8)
    for out_hw in [(6, 7), (7, 9), (9, 8)]:
        with pytest.raises(EngineError, match=rf"extent \({out_hw[0]}, {out_hw[1]}\) "
                                              r"from \(4, 4\)"):
            T.conv2d_transpose(x, w, out_hw, stride=2, padding=1)


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
    assert T.avg_pool2d(x, window=(7, 7)).data.reshape(()) == 25.0


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


def test_softmax_cross_entropy_gradient_matches_per_pixel_closed_form():
    # d loss / d z[n, :, i, j] = (softmax(z[n, :, i, j]) - onehot) * seed / count
    # at a valid pixel and 0 at an ignored one, here with a non-unit seed
    rng = np.random.default_rng(10)
    z = 3.0 * rng.normal(size=(2, 5, 4, 3))
    labels = rng.integers(0, 5, size=(2, 4, 3))
    labels[0, 1, :] = 255
    labels[1, 3, 2] = 255
    seed = -2.75
    logits = t64(z)
    T.softmax_cross_entropy(logits, labels).backward(np.full((1, 1, 1, 1), seed))
    count = int((labels != 255).sum())
    want = np.zeros_like(z)
    for n in range(2):
        for i in range(4):
            for j in range(3):
                lab = labels[n, i, j]
                if lab == 255:
                    continue
                e = np.exp(z[n, :, i, j] - z[n, :, i, j].max())
                g = e / e.sum()
                g[lab] -= 1.0
                want[n, :, i, j] = g * seed / count
    assert np.all(logits.grad[0, :, 1, :] == 0.0)
    assert np.max(np.abs(logits.grad - want)) < 1e-12


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_cross_entropy_uint8_and_int64_labels_are_bit_identical(dtype):
    rng = np.random.default_rng(11)
    z = rng.normal(size=(2, 4, 6, 5)).astype(dtype)
    labels = rng.integers(0, 4, size=(2, 6, 5))
    labels[rng.random(labels.shape) < 0.25] = 255
    results = []
    for ldt in (np.uint8, np.int64):
        logits = Tensor(z.copy(), requires_grad=True)
        loss = T.softmax_cross_entropy(logits, labels.astype(ldt))
        loss.backward(np.full((1, 1, 1, 1), 1.5, dtype=dtype))
        results.append((loss.data, logits.grad))
    (l8, g8), (l64, g64) = results
    assert l8.tobytes() == l64.tobytes()
    assert g8.dtype == dtype and g8.tobytes() == g64.tobytes()


def test_softmax_cross_entropy_all_ignored_gives_zero_loss_and_gradient():
    rng = np.random.default_rng(4)
    logits = Tensor(rng.normal(size=(2, 3, 4, 5)).astype(np.float32),
                    requires_grad=True)
    loss = T.softmax_cross_entropy(logits, np.full((2, 4, 5), 255, dtype=np.int64))
    assert loss.data.shape == (1, 1, 1, 1) and float(loss.data.reshape(())) == 0.0
    loss.backward()
    assert logits.grad.shape == logits.data.shape and logits.grad.dtype == np.float32
    assert not logits.grad.any()


def reference_cross_entropy(z, labels, seed, ignore_index=255):
    """The loss and gradient with labelled logits picked by take_along_axis
    and the float64 per-pixel sums kept for backward."""
    dt = z.dtype
    valid = labels != ignore_index
    count = max(int(valid.sum()), 1)
    safe = np.where(valid, labels, 0)[:, None]
    ez = z - z.max(axis=1, keepdims=True)
    picked = np.take_along_axis(ez, safe, axis=1)[:, 0]
    np.exp(ez, out=ez)
    denom = ez.sum(axis=1, keepdims=True, dtype=np.float64)
    perpix = np.log(denom[:, 0]) - picked
    loss = np.full((1, 1, 1, 1), perpix.sum(dtype=np.float64, where=valid) / count, dtype=dt)
    np.divide(ez, denom, out=ez)
    np.put_along_axis(ez, safe, np.take_along_axis(ez, safe, axis=1) - 1, axis=1)
    ez *= np.where(valid[:, None], dt.type(1 / count), dt.type(0))
    ez *= dt.type(seed)
    return loss, ez


@pytest.mark.parametrize("all_ignored", [False, True])
@pytest.mark.parametrize("ldt", [np.uint8, np.int64])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_cross_entropy_is_bit_equal_to_take_along_axis(dtype, ldt, all_ignored):
    rng = np.random.default_rng(12)
    z = (3.0 * rng.normal(size=(2, 5, 7, 6))).astype(dtype)
    labels = rng.integers(0, 5, size=(2, 7, 6))
    labels[rng.random(labels.shape) < (1.0 if all_ignored else 0.3)] = 255
    labels = labels.astype(ldt)
    want_loss, want_grad = reference_cross_entropy(z, labels, -1.25)
    logits = Tensor(z.copy(), requires_grad=True)
    loss = T.softmax_cross_entropy(logits, labels)
    loss.backward(np.full((1, 1, 1, 1), -1.25, dtype=dtype))
    assert loss.data.dtype == want_loss.dtype and loss.data.tobytes() == want_loss.tobytes()
    assert logits.grad.dtype == dtype and logits.grad.tobytes() == want_grad.tobytes()
    assert logits.data.tobytes() == z.tobytes()
    assert bool(logits.grad.any()) is not all_ignored


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
        hidden.append(T.conv2d_transpose(hidden[-1], t64(wv), (11, 11), stride=2,
                                         padding=1))
        hidden.append(T.avg_pool2d(hidden[-1], window=(11, 11)))
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
    pooled = T.add(T.avg_pool2d(v, window=3),
                   T.add(T.avg_pool2d(f, window=3), T.avg_pool2d(f, window=3)))
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
        lambda a, b: T.conv2d_transpose(a, b, (8, 8), stride=2, padding=1),
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
    # every extent base + op, op below the stride, that does not collapse
    for k, s, d, p in _conv_grid():
        for op in range(s):
            if _tconv_base(narrow, k, s, d, p) + op >= 1:
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
    out_hw = (_tconv_base(7, kh, s, d, p) + op, _tconv_base(5, kw, s, d, p) + op)
    out = T.conv2d_transpose(x, w, out_hw, stride=s, dilation=d, padding=p)
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
        lambda a, b: T.conv2d_transpose(a, b, (5, 6), stride=1, dilation=2, padding=2), [x, w])
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
    # the output, written into the centred buffer, and little else: the
    # tape keeps x's array (1.07x; a separate centred copy read 2.02x)
    assert peak <= 1.2 * x32.nbytes, peak / x32.nbytes


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


def reference_batchnorm(xv, gv, gamma, beta, rm, rv, relu, decay=0.99, eps=1e-5):
    """Training-mode batch norm that keeps its centred copy for backward:
    returns the output, the running stats and the x, gamma and beta
    gradients for the output gradient gv."""
    dt, (n, c, h, w) = xv.dtype, xv.shape
    m = n * h * w
    mean = T._channel_sum(xv) / m
    centre = mean.astype(dt)
    xc = xv - centre                    # kept until backward
    offset = mean - centre
    var = T._channel_dot(xc, xc) / m - offset * offset
    rm, rv = rm * decay + (1.0 - decay) * mean, rv * decay + (1.0 - decay) * var
    inv = 1.0 / np.sqrt(var + eps)
    scale64 = gamma * inv
    out = xc * scale64.astype(dt) + (beta - offset * scale64).astype(dt)
    g = gv.copy()
    if relu:
        out = np.maximum(out, 0)
        g *= out > 0
    gsum = T._channel_sum(g)
    gdot = T._channel_dot(g, xc) - offset * gsum
    k = inv * inv * gdot / m
    dx = g * scale64.astype(dt)
    dx -= xc * (scale64 * k).astype(dt)
    dx += (scale64 * (offset * k - gsum / m)).astype(dt)
    return [out, rm, rv, dx, (gdot * inv).astype(dt), gsum.astype(dt)]


@pytest.mark.parametrize("relu", [True, False])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_training_batchnorm_keeps_x_itself_and_matches_a_centred_copy(dtype, relu):
    rng = np.random.default_rng(480)
    xv = rng.normal(0.4, 1.7, size=(3, 4, 6, 5)).astype(dtype)
    gv = (-2.5 * rng.normal(size=xv.shape)).astype(dtype)     # a non-unit seed
    gamma, beta, rm, rv = _bn_args(rng, dtype, c=4)
    want = reference_batchnorm(xv, gv, gamma.data, beta.data, rm, rv, relu)
    x = Tensor(xv.copy(), requires_grad=True)
    out = T.batchnorm(x, gamma, beta, rm, rv, training=True, relu=relu)
    # the activation-sized arrays the tape keeps: x's array itself, with
    # or without relu; no centred copy and no output
    kept = [cell.cell_contents for cell in out._backward.__closure__
            if isinstance(cell.cell_contents, np.ndarray) and cell.cell_contents.size == xv.size]
    assert any(np.shares_memory(a, x.data) for a in kept)
    assert all(np.shares_memory(a, x.data) for a in kept)
    got = [out.data.copy(), rm, rv]
    out.backward(gv)
    got += [x.grad, gamma.grad, beta.grad]
    assert x.data.tobytes() == xv.tobytes()
    for w, g in zip(want, got):
        assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("training", [True, False], ids=["training", "eval"])
@pytest.mark.parametrize("op,stride", [("conv", 1), ("conv", 2), ("tconv", 1), ("tconv", 2)])
def test_a_conv_after_bn_relu_rebuilds_its_input_bit_exactly(op, stride, training):
    # the oracle adds zeros between the two ops, so its conv keeps a
    # plain array; the fused one keeps the batch norm's rebuild function
    rng = np.random.default_rng(490)
    xv = rng.normal(0.2, 1.5, size=(3, 4, 7, 6)).astype(np.float32)
    wv = rng.normal(size=(5, 4, 3, 3) if op == "conv" else (4, 5, 3, 3)).astype(np.float32)
    args = _bn_args(rng, np.float32, c=4)

    def run(rebuilt):
        x, w = Tensor(xv.copy(), requires_grad=True), Tensor(wv.copy(), requires_grad=True)
        gamma, beta = (Tensor(t.data.copy(), requires_grad=True) for t in args[:2])
        h = T.batchnorm(x, gamma, beta, args[2].copy(), args[3].copy(),
                        training=training, relu=True)
        if not rebuilt:
            h = T.add(h, Tensor(np.zeros_like(xv)))
        assert (h._rebuild is not None) == rebuilt
        clamped = (h.data == 0).any() and (h.data > 0).any()
        if op == "conv":
            out = T.conv2d(h, w, stride=stride, padding=1)
        else:
            out_hw = tuple((e - 1) * stride + 1 for e in xv.shape[2:])
            out = T.conv2d_transpose(h, w, out_hw, stride=stride, padding=1)
        h.release()             # backward must not need the values
        gv = np.random.default_rng(491).normal(size=out.data.shape).astype(np.float32)
        result = [out.data.copy()]
        out.backward(gv)
        return clamped, result + [x.grad, gamma.grad, beta.grad, w.grad]

    (clamped, want), (_, got) = run(False), run(True)
    assert clamped
    for a, b in zip(want, got):
        assert b.dtype == a.dtype and b.tobytes() == a.tobytes()


def _kept_arrays(root: Tensor):
    """Every array the closures of root's tape keep, through the functions
    those closures keep (a rebuild function and what it calls)."""
    seen, todo = set(), [root]
    while todo:
        item = todo.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, Tensor):
            todo += [*item._parents, item._backward]
        elif isinstance(item, np.ndarray):
            yield item
        elif callable(item):
            todo += [c.cell_contents for c in getattr(item, "__closure__", None) or ()
                     if not isinstance(c.cell_contents, Tensor)]


def test_a_training_tape_keeps_no_bn_relu_output():
    graph = to_segmentation(build_classifier(toy_config(8), input_hw=(64, 64)),
                            SegmentationConfig(num_classes=3, output_stride=8))
    net = Network(graph, seed=0)
    names = [n.name for n in graph.nodes if n.kind == "bn_relu"]
    x = np.random.default_rng(495).normal(size=(2, 3, 64, 64)).astype(np.float32)
    out, bn = net.forward(x, training=True, collect=names)
    kept = [a for a in _kept_arrays(out) if a.ndim == 4 and a.shape[0] == 2]
    assert len(names) > 20 and len(kept) > 20
    for name, t in bn.items():
        assert not any(np.shares_memory(a, t.data) for a in kept), name


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
    out_hw = (_tconv_base(5, 3, stride, 2, 2) + stride - 1,
              _tconv_base(6, 3, stride, 2, 2) + stride - 1)
    out = T.conv2d_transpose(x, w, out_hw, stride=stride, dilation=2, padding=2)
    if stride == 1:
        assert calls == [("_im2col", x.data.shape)]
    else:
        assert calls == [("_col2im", (2, 3, 3, 3, 5, 6))]
    del calls[:]
    out.backward(rng.normal(size=out.data.shape))
    assert calls == [("_im2col", out.data.shape)]


# ------------------------------------------------ chunked conv matrices
# Above T.COLUMN_BUDGET bytes every conv matrix is built in chunks: groups
# of whole samples, or bands of output rows of one sample. The tests
# shrink the budget to put chunk boundaries where they bite.

def _spy_matrices(monkeypatch):
    """Record the shape of each matrix _im2col returns and of each patch
    matrix _col2im scatters. A pool scatters a broadcast view of its
    gradient, which holds no matrix, so it is not recorded."""
    shapes = []

    def gather(*args, _fn=T._im2col):
        col = _fn(*args)
        shapes.append(col.shape)
        return col

    def scatter(col, *args, _fn=T._col2im):
        if 0 not in col.strides:
            shapes.append(col.shape)
        return _fn(col, *args)

    monkeypatch.setattr(T, "_im2col", gather)
    monkeypatch.setattr(T, "_col2im", scatter)
    return shapes


def _fit(shapes, budget, itemsize):
    """Whether every (m, c, kh, kw, rows, wo) matrix fits the budget or is
    a one-row band of one sample."""
    return all(itemsize * int(np.prod(sh)) <= budget or sh[0] == sh[4] == 1
               for sh in shapes)


# (op, n, k, s, d, p, chunk): chunk is ("rows", R) for bands of R output
# rows of one sample of the forward's matrix, ("samples", G) for groups of
# G whole samples. A conv reads (n, 3, 11, 9); a tconv reads (n, 3, 7, 5)
# and restores the largest extent its stride allows.
CHUNK_CASES = {
    "one-row band": ("conv", 2, 3, 1, 1, 1, ("rows", 1)),
    # taps span input rows i-4..i: two bands read the top pad, two the bottom
    "bands split the pads": ("conv", 2, 3, 1, 2, 4, ("rows", 2)),
    "stride 2": ("conv", 2, 3, 2, 1, 1, ("rows", 2)),
    "dilation 2": ("conv", 2, 3, 1, 2, 2, ("rows", 3)),
    "7x7 stride-2 stem": ("conv", 2, 7, 2, 1, 3, ("rows", 2)),
    # the first and last output rows read only padding
    "bands of padding only": ("conv", 1, 1, 1, 1, 2, ("rows", 1)),
    "short last sample group": ("conv", 5, 3, 1, 1, 1, ("samples", 2)),
    # the stride-1 tconv gathers x over its output extent with negative
    # pads, the strided one scatters bands of its patch matrix into
    # overlapping input rows
    "tconv stride 1 bands": ("tconv", 2, 3, 1, 2, 1, ("rows", 2)),
    "tconv stride 1 sample groups": ("tconv", 5, 3, 1, 1, 1, ("samples", 2)),
    "tconv stride 2 bands": ("tconv", 2, 3, 2, 1, 1, ("rows", 2)),
    "tconv stride 2 sample groups": ("tconv", 5, 3, 2, 2, 2, ("samples", 2)),
}


@pytest.mark.parametrize("op,n,k,s,d,p,chunk", CHUNK_CASES.values(), ids=CHUNK_CASES.keys())
def test_chunked_conv_matches_nested_loop_oracle(monkeypatch, op, n, k, s, d, p, chunk):
    rng = np.random.default_rng(5000 + 100 * k + 10 * s + d + p + n + 50 * (op == "tconv"))
    if op == "conv":
        x = t64(rng.normal(size=(n, 3, 11, 9)))
        w = t64(rng.normal(size=(4, 3, k, k)))
        # the forward's column matrix: c channels over an (ho, wo) grid
        c, ho, wo = 3, T.conv_out_size(11, k, s, d, p), T.conv_out_size(9, k, s, d, p)
    else:
        x = t64(rng.normal(size=(n, 3, 7, 5)))
        w = t64(rng.normal(size=(3, 4, k, k)))
        out_hw = (_tconv_base(7, k, s, d, p) + s - 1, _tconv_base(5, k, s, d, p) + s - 1)
        # stride 1 gathers x over the output extent, strided scatters the
        # (n, 4*k*k, 7*5) patch matrix
        c, ho, wo = (3, *out_hw) if s == 1 else (4, 7, 5)
    kind, size = chunk
    budget = size * c * k * k * wo * 8 * (ho if kind == "samples" else 1)
    monkeypatch.setattr(T, "COLUMN_BUDGET", budget)
    shapes = _spy_matrices(monkeypatch)
    if op == "conv":
        out = T.conv2d(x, w, stride=s, dilation=d, padding=p)
    else:
        out = T.conv2d_transpose(x, w, out_hw, stride=s, dilation=d, padding=p)
    if kind == "rows":
        bands = [min(size, ho - r) for r in range(0, ho, size)]
        assert shapes == [(1, c, k, k, b, wo) for _ in range(n) for b in bands]
    else:
        groups = [min(size, n - i) for i in range(0, n, size)]
        assert shapes == [(g, c, k, k, ho, wo) for g in groups]
    del shapes[:]
    g, (dx, dw) = _engine_grads(out, rng, x, w)
    if op == "conv":
        want = naive_conv(x.data, w.data, s, d, p, g)
    else:
        want = naive_tconv(x.data, w.data, s, d, p, s - 1, g)
    for got, expected in zip((out.data, dx, dw), want):
        _close(got, expected)
    # the backward's matrices are chunked by the same plan
    assert len(shapes) > 1 and _fit(shapes, budget, 8), shapes


def test_forward_column_matrices_fit_the_budget(monkeypatch):
    budget = 6 << 10
    monkeypatch.setattr(T, "COLUMN_BUDGET", budget)
    shapes = _spy_matrices(monkeypatch)
    net = Network(build_classifier(toy_config(8), input_hw=(64, 64)), seed=0)
    x = np.random.default_rng(520).normal(size=(2, 3, 64, 64)).astype(np.float32)
    with T.no_grad():
        net.forward(x)
    assert _fit(shapes, budget, 4), shapes
    # all three kinds occur: over-budget single rows, bands, sample groups
    nbytes = [4 * int(np.prod(sh)) for sh in shapes]
    assert any(b > budget for b in nbytes)
    assert any(sh[0] == 1 and 1 < sh[4] for sh in shapes)
    assert any(sh[0] == 2 for sh in shapes)


@pytest.mark.parametrize("output_stride", [None, 8], ids=["strided classifier", "os8 multigrid"])
def test_every_conv_matrix_fits_the_budget(monkeypatch, output_stride):
    # a no-grad forward and a training step: the multigrid up-convs
    # (stride-1 tconvs) gather, the strided convs and tconvs scatter, and
    # the backward gathers gradients and rebuilds column matrices
    graph = build_classifier(toy_config(8), input_hw=(64, 64))
    if output_stride is not None:
        graph = to_segmentation(graph, SegmentationConfig(num_classes=3,
                                                          output_stride=output_stride))
    net = Network(graph, seed=0)
    rng = np.random.default_rng(540)
    x = rng.normal(size=(2, 3, 64, 64)).astype(np.float32)
    budget = 6 << 10
    monkeypatch.setattr(T, "COLUMN_BUDGET", budget)
    shapes = _spy_matrices(monkeypatch)
    with T.no_grad():
        net.forward(x)
    out = net.forward(x, training=True)
    labels = rng.integers(0, out.data.shape[1], size=(2, *out.data.shape[2:]))
    T.softmax_cross_entropy(out, labels).backward()
    assert _fit(shapes, budget, 4), max(shapes, key=np.prod)
    assert all(p.grad is not None for p in net.params.values())


def test_sample_group_chunks_are_bit_equal_to_the_whole_batch(monkeypatch):
    rng = np.random.default_rng(530)
    x = Tensor(rng.normal(size=(5, 8, 12, 10)).astype(np.float32))
    w = Tensor(rng.normal(size=(6, 8, 3, 3)).astype(np.float32))
    whole = T.conv2d(x, w, padding=1).data
    monkeypatch.setattr(T, "COLUMN_BUDGET", 2 * 8 * 9 * 12 * 10 * 4)
    shapes = _spy_matrices(monkeypatch)
    chunked = T.conv2d(x, w, padding=1).data
    assert [sh[0] for sh in shapes] == [2, 2, 1]
    assert chunked.tobytes() == whole.tobytes()
