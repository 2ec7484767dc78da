import math

import numpy as np
import pytest

from sunet import augment
from sunet.augment import (AugmentConfig, _pad_to, augment_sample,
                           resize_bilinear, resize_nearest, rotate_pair,
                           sample_rng)
from sunet.io import DataError


def sample_pair(h=24, w=24, seed=0):
    rng = np.random.default_rng(seed)
    img = rng.normal(size=(3, h, w)).astype(np.float32)
    mask = rng.integers(0, 4, size=(h, w)).astype(np.uint8)
    return img, mask


def identity_config(hw):
    return AugmentConfig(crop_hw=hw, scale_range=(1.0, 1.0), max_rotate=0.0,
                         hflip_prob=0.0)


def test_identity_config_returns_pair_unchanged():
    img, mask = sample_pair()
    out_img, out_mask = augment_sample(img, mask, identity_config((24, 24)),
                                       sample_rng(0, 0))
    assert np.array_equal(out_img, img)
    assert np.array_equal(out_mask, mask)


def test_hflip_is_involution():
    img, mask = sample_pair()
    cfg = AugmentConfig(crop_hw=(24, 24), scale_range=(1.0, 1.0),
                        max_rotate=0.0, hflip_prob=1.0)
    a_img, a_mask = augment_sample(img, mask, cfg, sample_rng(0, 1))
    b_img, b_mask = augment_sample(a_img, a_mask, cfg, sample_rng(0, 2))
    assert np.array_equal(b_img, img)
    assert np.array_equal(b_mask, mask)


def test_same_seed_same_output():
    img, mask = sample_pair()
    cfg = AugmentConfig(crop_hw=(16, 16), scale_range=(0.5, 2.0),
                        max_rotate=10.0, hflip_prob=0.5)
    a = augment_sample(img, mask, cfg, sample_rng(7, 3))
    b = augment_sample(img, mask, cfg, sample_rng(7, 3))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    c = augment_sample(img, mask, cfg, sample_rng(7, 4))
    assert not (np.array_equal(a[0], c[0]) and np.array_equal(a[1], c[1]))


def test_output_size_is_always_crop(tmp_path=None):
    img, mask = sample_pair(30, 40)
    cfg = AugmentConfig(crop_hw=(16, 16), scale_range=(0.3, 2.0),
                        max_rotate=10.0, hflip_prob=0.5)
    for i in range(10):
        out_img, out_mask = augment_sample(img, mask, cfg, sample_rng(1, i))
        assert out_img.shape == (3, 16, 16)
        assert out_mask.shape == (16, 16)


def test_rotation_fills_mask_with_ignore():
    img = np.ones((1, 21, 21), dtype=np.float32)
    mask = np.zeros((21, 21), dtype=np.uint8)
    rot_img, rot_mask = rotate_pair(img, mask, 45.0, ignore_index=255)
    assert (rot_mask == 255).any()
    assert set(np.unique(rot_mask)) <= {0, 255}
    # image corners take the channel mean (1.0 here), so stay finite
    assert np.isfinite(rot_img).all()


def test_rotation_zero_angle_identity():
    img, mask = sample_pair()
    rot_img, rot_mask = rotate_pair(img, mask, 0.0, ignore_index=255)
    assert np.allclose(rot_img, img, atol=1e-6)
    assert np.array_equal(rot_mask, mask)


def test_crop_pads_small_images_with_fill():
    img = np.full((1, 8, 8), 2.0, dtype=np.float32)
    mask = np.ones((8, 8), dtype=np.uint8)
    cfg = AugmentConfig(crop_hw=(12, 12), scale_range=(1.0, 1.0),
                        max_rotate=0.0, hflip_prob=0.0)
    out_img, out_mask = augment_sample(img, mask, cfg, sample_rng(0, 0))
    assert out_img.shape == (1, 12, 12)
    assert (out_mask == 255).sum() == 12 * 12 - 8 * 8
    assert np.allclose(out_img, 2.0)  # fill is the channel mean


def test_resize_bilinear_preserves_constant():
    img = np.full((2, 10, 10), 3.5, dtype=np.float32)
    out = resize_bilinear(img, (17, 7))
    assert out.shape == (2, 17, 7)
    assert np.allclose(out, 3.5, atol=1e-6)


def test_resize_nearest_keeps_label_values():
    mask = np.array([[0, 1], [2, 3]], dtype=np.uint8)
    out = resize_nearest(mask, (4, 4))
    assert set(np.unique(out)) == {0, 1, 2, 3}
    assert out[0, 0] == 0 and out[3, 3] == 3


def test_misaligned_pair_rejected():
    img = np.zeros((3, 10, 10), dtype=np.float32)
    mask = np.zeros((11, 10), dtype=np.uint8)
    with pytest.raises(DataError):
        augment_sample(img, mask, identity_config((8, 8)), sample_rng(0, 0))


def assert_config_rejected(**bad):
    """The error a bad config raises: a ValueError, not a DataError, which
    is kept for bad file content."""
    with pytest.raises(ValueError) as err:
        AugmentConfig(**bad)
    assert not isinstance(err.value, DataError)


def test_config_validation():
    assert_config_rejected(scale_range=(0.0, 1.0))
    assert_config_rejected(crop_hw=(0, 4))


@pytest.mark.parametrize("bad", [
    dict(max_rotate=math.nan), dict(max_rotate=math.inf), dict(max_rotate=-5.0),
    dict(scale_range=(0.5, math.inf)), dict(scale_range=(math.nan, 1.0)),
    dict(scale_range=(0.5, math.nan)), dict(crop_hw=(16.5, 16)),
    dict(crop_hw=(16,)), dict(hflip_prob=2.0), dict(hflip_prob=-0.1),
    dict(hflip_prob=math.nan),
])
def test_config_rejects_bad_values(bad):
    assert_config_rejected(**bad)


def test_config_accepts_the_edges():
    AugmentConfig(crop_hw=(np.int64(1), 1), scale_range=(2.0, 2.0),
                  max_rotate=0.0, hflip_prob=1.0)
    AugmentConfig(hflip_prob=0.0)


def resize_oracle(img, oh, ow):
    """Half-pixel bilinear resize, one output pixel at a time, in float64."""
    c, h, w = img.shape

    def taps(i, src, dst):
        pos = (i + 0.5) * src / dst - 0.5
        lo = math.floor(pos)
        return (min(max(lo, 0), src - 1), min(max(lo + 1, 0), src - 1),
                pos - lo)

    out = np.zeros((c, oh, ow))
    for i in range(oh):
        ya, yb, fy = taps(i, h, oh)
        for j in range(ow):
            xa, xb, fx = taps(j, w, ow)
            for k in range(c):
                top = (1 - fx) * img[k, ya, xa] + fx * img[k, ya, xb]
                bot = (1 - fx) * img[k, yb, xa] + fx * img[k, yb, xb]
                out[k, i, j] = (1 - fy) * top + fy * bot
    return out


@pytest.mark.parametrize("hw,out_hw", [
    ((7, 9), (15, 20)),   # up
    ((16, 13), (5, 6)),   # down
    ((9, 12), (23, 5)),   # up on one axis, down on the other
    ((1, 6), (4, 3)),     # a single source row
])
def test_resize_bilinear_matches_nested_loop_oracle(hw, out_hw):
    img = np.random.default_rng(hw[0] * 31 + hw[1]).normal(size=(2,) + hw)
    got = resize_bilinear(img, out_hw)
    assert got.dtype == np.float64 and got.shape == (2,) + out_hw
    assert np.abs(got - resize_oracle(img, *out_hw)).max() < 1e-12


def test_resize_window_is_crop_of_full_resize():
    rng = np.random.default_rng(12)
    for i in range(40):
        h, w = (int(v) for v in rng.integers(3, 40, size=2))
        oh, ow = (int(v) for v in rng.integers(2, 80, size=2))
        img, mask = sample_pair(h, w, seed=i)
        wh, ww = int(rng.integers(1, oh + 1)), int(rng.integers(1, ow + 1))
        y0, x0 = int(rng.integers(0, oh - wh + 1)), int(rng.integers(0, ow - ww + 1))
        window = (y0, x0, wh, ww)
        full = resize_bilinear(img, (oh, ow))
        assert np.array_equal(resize_bilinear(img, (oh, ow), window),
                              full[:, y0:y0 + wh, x0:x0 + ww]), (h, w, oh, ow, window)
        assert np.array_equal(resize_nearest(mask, (oh, ow), window),
                              resize_nearest(mask, (oh, ow))[y0:y0 + wh, x0:x0 + ww])


def test_resize_rejects_window_outside_frame():
    img, mask = sample_pair(10, 10)
    with pytest.raises(DataError):
        resize_bilinear(img, (20, 20), window=(15, 0, 6, 6))
    with pytest.raises(DataError):
        resize_nearest(mask, (20, 20), window=(0, 0, 0, 6))


def full_frame_reference(img, mask, cfg, rng, ignore_index=255):
    """augment_sample spelled out: rotate the whole frame, then crop."""
    scale = float(rng.uniform(cfg.scale_range[0], cfg.scale_range[1]))
    angle = float(rng.uniform(-cfg.max_rotate, cfg.max_rotate))
    h, w = mask.shape
    out_hw = (max(1, int(round(h * scale))), max(1, int(round(w * scale))))
    if out_hw != (h, w):
        img = resize_bilinear(img, out_hw)
        mask = resize_nearest(mask, out_hw)
    if angle != 0.0:
        img, mask = rotate_pair(img, mask, angle, ignore_index)
    img, mask = _pad_to(img, mask, cfg.crop_hw, ignore_index)
    ph, pw = mask.shape
    ch, cw = cfg.crop_hw
    y0 = int(rng.integers(0, ph - ch + 1))
    x0 = int(rng.integers(0, pw - cw + 1))
    img = img[:, y0:y0 + ch, x0:x0 + cw]
    mask = mask[y0:y0 + ch, x0:x0 + cw]
    if rng.random() < cfg.hflip_prob:
        img = img[:, :, ::-1]
        mask = mask[:, ::-1]
    return img, mask


WINDOW_CONFIGS = [
    # square crop, the training config's ranges
    AugmentConfig(crop_hw=(16, 16), scale_range=(0.5, 2.0), max_rotate=10.0),
    # non-square crop and a wide rotation
    AugmentConfig(crop_hw=(12, 21), scale_range=(0.7, 1.6), max_rotate=30.0),
    # scales that force padding on one or both axes
    AugmentConfig(crop_hw=(20, 14), scale_range=(0.3, 0.9), max_rotate=10.0),
    # angle 0 on every draw
    AugmentConfig(crop_hw=(10, 18), scale_range=(0.5, 2.0), max_rotate=0.0),
    # the train-aug benchmark's crop and ranges (its frames are 128x128;
    # test_train_aug_resizes_whole_frame_only_when_window_leaves_it
    # runs that geometry)
    AugmentConfig(crop_hw=(64, 64), scale_range=(0.5, 2.0), max_rotate=10.0),
]


@pytest.mark.parametrize("cfg", WINDOW_CONFIGS)
def test_window_rotation_matches_full_frame_reference(cfg):
    rng = np.random.default_rng(42)
    for i in range(60):
        # some images are smaller than the crop before any scaling
        h, w = int(rng.integers(6, 40)), int(rng.integers(6, 40))
        img, mask = sample_pair(h, w, seed=i)
        # an ignore label other than the default, so a fill that skips
        # the argument shows
        got = augment_sample(img, mask, cfg, sample_rng(5, i), 254)
        want = full_frame_reference(img, mask, cfg, sample_rng(5, i), 254)
        assert got[0].dtype == want[0].dtype and got[1].dtype == want[1].dtype
        assert np.array_equal(got[0], want[0]), (cfg, h, w, i)
        assert np.array_equal(got[1], want[1]), (cfg, h, w, i)


def test_rotate_pair_window_is_crop_of_full_rotation():
    img, mask = sample_pair(23, 31)
    full_img, full_mask = rotate_pair(img, mask, 17.0)
    win_img, win_mask = rotate_pair(img, mask, 17.0, window=(3, 5, 11, 20))
    assert np.array_equal(win_img, full_img[:, 3:14, 5:25])
    assert np.array_equal(win_mask, full_mask[3:14, 5:25])


def test_rotate_pair_rejects_window_outside_frame():
    img, mask = sample_pair(10, 10)
    with pytest.raises(DataError):
        rotate_pair(img, mask, 5.0, window=(4, 0, 8, 8))


def test_rotate_pair_block_matches_full_frame():
    img, mask = sample_pair(23, 31)
    window = (6, 8, 10, 12)
    full_img, full_mask = rotate_pair(img, mask, 7.0, window=window)
    # at 7 degrees that window's taps read rows 5..16 and columns 7..20
    blk_img, blk_mask = rotate_pair(img[:, 5:17, 7:21], mask[5:17, 7:21], 7.0,
                                    window=window, frame=(5, 7, 23, 31))
    assert np.array_equal(blk_img, full_img)
    assert np.array_equal(blk_mask, full_mask)
    # a block one row or column short reads outside itself
    for t, b, l, r in [(6, 17, 7, 21), (5, 16, 7, 21), (5, 17, 8, 21), (5, 17, 7, 20)]:
        with pytest.raises(DataError):
            rotate_pair(img[:, t:b, l:r], mask[t:b, l:r], 7.0, window=window,
                        frame=(t, l, 23, 31))
    # a window corner that leaves the frame needs the whole frame's mean
    with pytest.raises(DataError):
        rotate_pair(img[:, :20], mask[:20], 30.0, window=(0, 0, 10, 10),
                    frame=(0, 0, 23, 31))


def test_train_aug_resizes_whole_frame_only_when_window_leaves_it(monkeypatch):
    cfg = WINDOW_CONFIGS[-1]
    ch, cw = cfg.crop_hw
    img, mask = sample_pair(128, 128, seed=3)
    windows = []
    real = augment.resize_bilinear

    def spy(im, out_hw, window=None):
        windows.append(window)
        return real(im, out_hw, window)

    leaving = 0
    for i in range(60):
        want = full_frame_reference(img, mask, cfg, sample_rng(9, i))
        # the draws of augment_sample, made here to see where the window goes
        rng = sample_rng(9, i)
        scale = float(rng.uniform(*cfg.scale_range))
        angle = float(rng.uniform(-cfg.max_rotate, cfg.max_rotate))
        hw = (round(128 * scale), round(128 * scale))
        y0, x0 = int(rng.integers(0, hw[0] - ch + 1)), int(rng.integers(0, hw[1] - cw + 1))
        _, probe = rotate_pair(np.zeros((1,) + hw, np.float32),
                               np.zeros(hw, np.uint8), angle, 255,
                               window=(y0, x0, ch, cw))
        leaves = bool((probe == 255).any())
        leaving += leaves

        windows.clear()
        monkeypatch.setattr(augment, "resize_bilinear", spy)
        got = augment_sample(img, mask, cfg, sample_rng(9, i))
        monkeypatch.setattr(augment, "resize_bilinear", real)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert len(windows) == 1
        assert (windows[0] is None) == leaves, (i, scale, angle, y0, x0)
        if not leaves:
            # only the block the rotated window reads is resized
            assert windows[0][2] * windows[0][3] < hw[0] * hw[1]
    assert 0 < leaving < 60
