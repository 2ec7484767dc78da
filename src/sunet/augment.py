"""Augmentation: scale, rotate, crop, flip. Deterministic under its RNG.

Images travel as float32 (c, h, w), masks as uint8 (h, w) class indexes.
Geometry always moves both together: bilinear resampling for the image,
nearest for the mask, and anything falling outside the source frame is
filled with the per-channel image mean / the ignore index, so the
augmentation never fabricates labels.

A training sample keeps only a crop of the rescaled, rotated frame.
Rotation keeps the frame size, so the crop offsets are drawn before any
pixel is computed, and only the pixels the crop reads are evaluated.
The resizes and the rotation each take a window and compute every
window pixel with the arithmetic the whole frame would use, so a sample
is the same, bit for bit, as resizing and rotating the whole frame and
then cropping:
- with no rotation, only the crop window is resized;
- with a rotation, only the block of rows and columns that the rotated
  window samples is resized, and the window is rotated out of it;
- a rotated window pixel that leaves the frame takes the frame's mean,
  so then the whole frame is resized (the window is still all that is
  rotated);
- a rescaled frame smaller than the crop is padded with the rotated
  frame's mean, so that case rotates the whole frame before padding
  and cropping.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import IGNORE_INDEX
from .io import DataError
from .tensor import _resize_taps


@dataclass(frozen=True)
class AugmentConfig:
    crop_hw: tuple[int, int] = (512, 512)
    scale_range: tuple[float, float] = (0.5, 2.0)
    max_rotate: float = 10.0
    hflip_prob: float = 0.5

    def __post_init__(self):
        # written so that NaN fails every comparison
        lo, hi = self.scale_range
        if not 0 < lo <= hi < math.inf:
            raise ValueError(f"bad scale range {self.scale_range}: "
                             f"need finite 0 < lo <= hi")
        if not (len(self.crop_hw) == 2
                and all(isinstance(v, (int, np.integer)) and v >= 1
                        for v in self.crop_hw)):
            raise ValueError(f"bad crop size {self.crop_hw}: "
                             f"need two positive integers")
        if not 0 <= self.max_rotate < math.inf:
            raise ValueError(f"bad max_rotate {self.max_rotate}: "
                             f"need a finite angle >= 0")
        if not 0 <= self.hflip_prob <= 1:
            raise ValueError(f"bad hflip_prob {self.hflip_prob}: need 0 <= p <= 1")


def sample_rng(master_seed: int, index: int) -> np.random.Generator:
    """Generator for one augmentation draw, from (master seed, index).

    Independent per index, so parallel loaders cannot reorder results.
    """
    return np.random.default_rng(np.random.SeedSequence([master_seed, index]))


def _target(out_hw) -> tuple[int, int]:
    oh, ow = int(out_hw[0]), int(out_hw[1])
    if oh < 1 or ow < 1:
        raise DataError(f"degenerate resize target {out_hw}")
    return oh, ow


def _window(window, hw, what: str) -> tuple[int, int, int, int]:
    """(y0, x0, h, w) of a window inside an hw frame; None is the frame."""
    h, w = hw
    wy, wx, wh, ww = (0, 0, h, w) if window is None else window
    if not (0 <= wy and 0 <= wx and 1 <= wh and 1 <= ww
            and wy + wh <= h and wx + ww <= w):
        raise DataError(f"{what} window {window} outside frame {(h, w)}")
    return wy, wx, wh, ww


def _two_tap(a, i0, i1, w0, w1, axis: int) -> np.ndarray:
    """``w0·a[i0] + w1·a[i1]`` along one axis, in float64 (float32 input
    widens exactly inside the products)."""
    out = np.take(a, i0, axis=axis) * w0
    out += np.take(a, i1, axis=axis) * w1
    return out


def resize_bilinear(img: np.ndarray, out_hw: tuple[int, int],
                    window: tuple[int, int, int, int] | None = None,
                    ) -> np.ndarray:
    """Half-pixel-aligned bilinear resize of (c, h, w) float data.

    A separable two-tap gather in float64: each output row mixes two
    source rows and each output column two columns. The first pass runs
    along the axis whose pass leaves the smaller intermediate; the order
    depends on the frame sizes alone, never on the window.

    ``window=(y0, x0, wh, ww)`` returns only that part of the resized
    frame and reads only the source rows and columns it needs. Each
    output pixel's arithmetic does not depend on which others are
    computed, so the result equals the full resize cropped to the
    window, bit for bit.
    """
    c, h, w = img.shape
    oh, ow = _target(out_hw)
    wy, wx, wh, ww = _window(window, (oh, ow), "resize")
    if (oh, ow) == (h, w):
        return img[:, wy:wy + wh, wx:wx + ww].copy()
    ry0, ry1, uy0, uy1 = (a[wy:wy + wh] for a in _resize_taps(h, oh))
    rx0, rx1, ux0, ux1 = (a[wx:wx + ww] for a in _resize_taps(w, ow))
    # taps never decrease, so the window reads one block of the source
    top, left = ry0[0], rx0[0]
    src = img[:, top:ry1[-1] + 1, left:rx1[-1] + 1]
    ry0, ry1, rx0, rx1 = ry0 - top, ry1 - top, rx0 - left, rx1 - left
    uy0, uy1 = uy0[:, None], uy1[:, None]
    if oh * w <= h * ow:
        out = _two_tap(_two_tap(src, ry0, ry1, uy0, uy1, 1), rx0, rx1, ux0, ux1, 2)
    else:
        out = _two_tap(_two_tap(src, rx0, rx1, ux0, ux1, 2), ry0, ry1, uy0, uy1, 1)
    return out.astype(img.dtype, copy=False)


def resize_nearest(mask: np.ndarray, out_hw: tuple[int, int],
                   window: tuple[int, int, int, int] | None = None,
                   ) -> np.ndarray:
    """Nearest-neighbour resize of an (h, w) label map.

    ``window`` works as in :func:`resize_bilinear`.
    """
    h, w = mask.shape
    oh, ow = _target(out_hw)
    wy, wx, wh, ww = _window(window, (oh, ow), "resize")
    if (oh, ow) == (h, w):
        return mask[wy:wy + wh, wx:wx + ww].copy()
    ys = np.minimum((np.arange(wy, wy + wh, dtype=np.float64) + 0.5) * h / oh, h - 1)
    xs = np.minimum((np.arange(wx, wx + ww, dtype=np.float64) + 0.5) * w / ow, w - 1)
    return mask[ys.astype(np.intp)][:, xs.astype(np.intp)]


def _rotation_sources(hw, degrees: float, window) -> tuple[np.ndarray, np.ndarray]:
    """Source coordinates (sy, sx) each window pixel of the rotated hw
    frame samples: the rotation about the frame's centre."""
    h, w = hw
    wy, wx, wh, ww = window
    theta = math.radians(degrees)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    dy = np.arange(wy, wy + wh, dtype=np.float64)[:, None] - cy
    dx = np.arange(wx, wx + ww, dtype=np.float64) - cx
    # a row term plus a column term, in the order cy + cos·dy + sin·dx
    # evaluates, so every pixel gets the same bits at any window
    sy = (cy + cos_t * dy) + sin_t * dx
    sx = (cx - sin_t * dy) + cos_t * dx
    return sy, sx


def _tap_span(s: np.ndarray, n: int) -> tuple[int, int] | None:
    """First and last source index the bilinear (floor, floor + 1) and
    nearest (rint) taps of coordinates s read, or None when some
    coordinate leaves [0, n - 1] and takes the frame's mean instead."""
    lo, hi = float(s.min()), float(s.max())
    if not (0 <= lo and hi <= n - 1):
        return None
    return math.floor(lo), min(math.floor(hi) + 1, n - 1)


def rotate_pair(img: np.ndarray, mask: np.ndarray, degrees: float,
                ignore_index: int = IGNORE_INDEX, *,
                window: tuple[int, int, int, int] | None = None,
                frame: tuple[int, int, int, int] | None = None,
                ) -> tuple[np.ndarray, np.ndarray]:
    """Rotate image and mask about the center by the same angle.

    The image is sampled bilinearly with out-of-frame positions set to
    the per-channel mean; the mask is sampled nearest with out-of-frame
    positions set to the ignore index.

    ``window=(y0, x0, wh, ww)`` evaluates only that part of the rotated
    frame. Every output pixel is computed by the same arithmetic as in
    the full rotation, so the result equals the full rotation cropped
    to the window, bit for bit.

    ``frame=(top, left, h, w)`` says that img and mask are only a block
    of an h x w frame, starting at its pixel (top, left); the window is
    in frame coordinates. The block must hold every pixel the window
    reads, and no window pixel may leave the frame, because the fill is
    the whole frame's mean.
    """
    c, bh, bw = img.shape
    top, left, h, w = (0, 0, bh, bw) if frame is None else frame
    wy, wx, wh, ww = _window(window, (h, w), "rotation")
    sy, sx = _rotation_sources((h, w), degrees, (wy, wx, wh, ww))
    inside = (sy >= 0) & (sy <= h - 1) & (sx >= 0) & (sx <= w - 1)
    if (top, left, bh, bw) != (0, 0, h, w):
        _window((top, left, bh, bw), (h, w), "rotation block")
        rows, cols = _tap_span(sy, h), _tap_span(sx, w)
        if (rows is None or cols is None or rows[0] < top or rows[1] >= top + bh
                or cols[0] < left or cols[1] >= left + bw):
            raise DataError(f"rotation window {window} reads outside the "
                            f"block {(top, left, bh, bw)} of frame {(h, w)}")

    y0 = np.clip(np.floor(sy), 0, h - 1).astype(np.intp)
    x0 = np.clip(np.floor(sx), 0, w - 1).astype(np.intp)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    ty = np.clip(sy, 0, h - 1) - y0
    tx = np.clip(sx, 0, w - 1) - x0
    ry = np.clip(np.rint(sy), 0, h - 1).astype(np.intp)
    rx = np.clip(np.rint(sx), 0, w - 1).astype(np.intp)

    # each tap is one take from the flattened block, the cheapest gather
    r0, r1 = (y0 - top) * bw, (y1 - top) * bw
    c0, c1 = x0 - left, x1 - left
    img64 = img.astype(np.float64)
    flat = img64.reshape(c, -1)
    ux = 1 - tx
    top_row = np.take(flat, r0 + c0, axis=1) * ux + np.take(flat, r0 + c1, axis=1) * tx
    bot_row = np.take(flat, r1 + c0, axis=1) * ux + np.take(flat, r1 + c1, axis=1) * tx
    out = top_row * (1 - ty) + bot_row * ty
    if not inside.all():
        fill = img64.mean(axis=(1, 2))
        out = np.where(inside, out, fill[:, None, None])
    out = out.astype(img.dtype)
    labels = np.take(mask.reshape(-1), (ry - top) * bw + (rx - left))
    mout = np.where(inside, labels, np.uint8(ignore_index)).astype(mask.dtype)
    return out, mout


def _pad_to(img: np.ndarray, mask: np.ndarray, min_hw: tuple[int, int],
            ignore_index: int) -> tuple[np.ndarray, np.ndarray]:
    c, h, w = img.shape
    ph, pw = max(h, min_hw[0]), max(w, min_hw[1])
    if (ph, pw) == (h, w):
        return img, mask
    fill = img.mean(axis=(1, 2), dtype=np.float64).astype(img.dtype)
    big = np.empty((c, ph, pw), dtype=img.dtype)
    big[:] = fill[:, None, None]
    big[:, :h, :w] = img
    mbig = np.full((ph, pw), ignore_index, dtype=mask.dtype)
    mbig[:h, :w] = mask
    return big, mbig


def augment_sample(img: np.ndarray, mask: np.ndarray, cfg: AugmentConfig,
                   rng: np.random.Generator, ignore_index: int = IGNORE_INDEX,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Scale, rotate, crop and maybe flip one training pair.

    Mask positions the sample does not cover take ignore_index, the
    dataset's ignore label.

    Draw order is fixed (scale, angle, crop y, crop x, flip) and every
    draw happens on every call, so a config that disables a transform
    still consumes the same randomness and stays bit-compatible.

    Rotation keeps the frame size, so the crop offsets are known before
    any pixel is computed, and only what the crop reads is evaluated:
    the crop window of the rescaled frame when there is no rotation,
    else the block of the rescaled frame that the rotated window
    samples. The whole frame is rescaled when a rotated window pixel
    leaves it, since the fill is the frame's mean. If the rescaled frame
    is smaller than the crop, the whole frame is rotated, padded with
    the rotated frame's mean, and then cropped.
    """
    if img.ndim != 3 or mask.ndim != 2 or img.shape[1:] != mask.shape:
        raise DataError(
            f"image {img.shape} and mask {mask.shape} are not aligned")
    scale = float(rng.uniform(cfg.scale_range[0], cfg.scale_range[1]))
    angle = float(rng.uniform(-cfg.max_rotate, cfg.max_rotate))

    sh, sw = mask.shape
    h, w = out_hw = (max(1, int(round(sh * scale))), max(1, int(round(sw * scale))))
    ch, cw = cfg.crop_hw
    ph, pw = max(h, ch), max(w, cw)
    y0 = int(rng.integers(0, ph - ch + 1))
    x0 = int(rng.integers(0, pw - cw + 1))
    window = (y0, x0, ch, cw)
    if (ph, pw) != (h, w):
        # the pad fill is the mean of the rotated frame: work on it whole
        img = resize_bilinear(img, out_hw)
        mask = resize_nearest(mask, out_hw)
        if angle != 0.0:
            img, mask = rotate_pair(img, mask, angle, ignore_index)
        img, mask = _pad_to(img, mask, cfg.crop_hw, ignore_index)
        img = img[:, y0:y0 + ch, x0:x0 + cw]
        mask = mask[y0:y0 + ch, x0:x0 + cw]
    elif angle == 0.0:
        img = resize_bilinear(img, out_hw, window)
        mask = resize_nearest(mask, out_hw, window)
    else:
        sy, sx = _rotation_sources(out_hw, angle, window)
        rows, cols = _tap_span(sy, h), _tap_span(sx, w)
        block = frame = None    # the whole frame
        if rows is not None and cols is not None:
            block = (rows[0], cols[0], rows[1] - rows[0] + 1, cols[1] - cols[0] + 1)
            frame = (rows[0], cols[0], h, w)
        img = resize_bilinear(img, out_hw, block)
        mask = resize_nearest(mask, out_hw, block)
        img, mask = rotate_pair(img, mask, angle, ignore_index,
                                window=window, frame=frame)

    if rng.random() < cfg.hflip_prob:
        img = img[:, :, ::-1]
        mask = mask[:, ::-1]
    return np.ascontiguousarray(img), np.ascontiguousarray(mask)
