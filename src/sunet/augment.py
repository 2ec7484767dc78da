"""Augmentation: scale, rotate, crop, flip. Deterministic under its RNG.

Images travel as float32 (c, h, w), masks as uint8 (h, w) class indexes.
Geometry always moves both together: bilinear resampling for the image,
nearest for the mask. A sample pixel that the rescaled, rotated source
does not cover takes the source image's per-channel mean and the ignore
index, so the augmentation never fabricates labels.

A training sample keeps only a crop of the rescaled, rotated frame.
Rotation keeps the frame size, so the crop offsets are drawn before any
pixel is computed, and only the pixels the crop reads are evaluated.
The resizes and the rotation each take a window and compute every
window pixel with the arithmetic the whole frame would use, so a sample
is the same, bit for bit, as resizing, rotating and padding the whole
frame and then cropping:
- with no rotation and the crop inside the rescaled frame, only the
  crop window is resized;
- otherwise only the block of rows and columns that the window's
  covered pixels sample is resized (nothing, if none is covered), and
  the window is rotated out of it. Since the fill is the source's mean,
  no other pixel of the rescaled frame is ever computed.
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


def _rotation_sources(hw, degrees: float, window):
    """Which window pixels of the rotated hw frame are inside, and the
    source coordinates (sy, sx) those pixels sample: the rotation about
    the frame's centre. A pixel is inside when it and its source lie in
    the frame. Only a window that runs past the frame's bottom or right
    edge has pixels outside the frame; the mask covers the window's
    top-left part that lies in the frame, and the rest is never
    evaluated."""
    h, w = hw
    wy, wx, wh, ww = window
    theta = math.radians(degrees)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    dy = np.arange(wy, min(wy + wh, h), dtype=np.float64)[:, None] - cy
    dx = np.arange(wx, min(wx + ww, w), dtype=np.float64) - cx
    # a row term plus a column term, in the order cy + cos·dy + sin·dx
    # evaluates, so every pixel gets the same bits at any window
    sy = (cy + cos_t * dy) + sin_t * dx
    sx = (cx - sin_t * dy) + cos_t * dx
    inside = (sy >= 0) & (sy <= h - 1) & (sx >= 0) & (sx <= w - 1)
    return inside, sy[inside], sx[inside]


def _tap_span(s: np.ndarray, n: int) -> tuple[int, int]:
    """First and last source index the bilinear (floor, floor + 1) and
    nearest (rint) taps of coordinates s, all in [0, n - 1], read."""
    return math.floor(s.min()), min(math.floor(s.max()) + 1, n - 1)


def rotate_pair(img: np.ndarray, mask: np.ndarray, degrees: float,
                ignore_index: int = IGNORE_INDEX, *, fill,
                window: tuple[int, int, int, int] | None = None,
                frame: tuple[int, int, int, int] | None = None,
                ) -> tuple[np.ndarray, np.ndarray]:
    """Rotate image and mask about the center by the same angle.

    The image is sampled bilinearly and the mask nearest. A pixel whose
    source leaves the frame takes ``fill``, one value per channel (or
    one for all), in the image and the ignore index in the mask.

    ``window=(y0, x0, wh, ww)`` evaluates only that part of the rotated
    frame. It may run past the frame's bottom and right edges, and the
    pixels there take the fill as well, as if the rotated frame were
    padded. Every output pixel is computed by the same arithmetic as in
    the full rotation, so the result equals the full rotation, padded
    and cropped to the window, bit for bit.

    ``frame=(top, left, h, w)`` says that img and mask are only a block
    of an h x w frame, starting at its pixel (top, left); the window is
    in frame coordinates. The block must lie in the frame and hold every
    pixel the window reads; if the window reads none, it may be empty.
    """
    c, bh, bw = img.shape
    top, left, h, w = (0, 0, bh, bw) if frame is None else frame
    wy, wx, wh, ww = window = (0, 0, h, w) if window is None else window
    _window(window, (max(h, wy + wh), max(w, wx + ww)), "rotation")
    inside, sy, sx = _rotation_sources((h, w), degrees, window)
    if sy.size:
        (ra, rb), (ca, cb) = _tap_span(sy, h), _tap_span(sx, w)
        if not (0 <= top <= ra and rb < top + bh <= h
                and 0 <= left <= ca and cb < left + bw <= w):
            raise DataError(f"rotation window {window} reads outside the "
                            f"block {(top, left, bh, bw)} of frame {(h, w)}")

    # inside pixels' sources lie in the frame, so only the +1 taps clamp
    y0 = np.floor(sy).astype(np.intp)
    x0 = np.floor(sx).astype(np.intp)
    ty, tx = sy - y0, sx - x0
    # each tap is one take from the flattened block, the cheapest gather
    r0, r1 = (y0 - top) * bw, (np.minimum(y0 + 1, h - 1) - top) * bw
    c0, c1 = x0 - left, np.minimum(x0 + 1, w - 1) - left
    flat = img.astype(np.float64).reshape(c, -1)
    ux = 1 - tx
    top_row = np.take(flat, r0 + c0, axis=1) * ux + np.take(flat, r0 + c1, axis=1) * tx
    bot_row = np.take(flat, r1 + c0, axis=1) * ux + np.take(flat, r1 + c1, axis=1) * tx
    vals = top_row * (1 - ty) + bot_row * ty
    out = np.empty((c, wh, ww), dtype=img.dtype)
    out[:] = np.reshape(fill, (-1, 1, 1)).astype(img.dtype)   # cast once, not per pixel
    ih, iw = inside.shape
    for k in range(c):  # a 2-d mask per channel scatters far faster than a 3-d one
        out[k, :ih, :iw][inside] = vals[k]
    ry, rx = np.rint(sy).astype(np.intp), np.rint(sx).astype(np.intp)
    mout = np.full((wh, ww), ignore_index, dtype=mask.dtype)
    mout[:ih, :iw][inside] = np.take(mask.reshape(-1), (ry - top) * bw + (rx - left))
    return out, mout


def augment_sample(img: np.ndarray, mask: np.ndarray, cfg: AugmentConfig,
                   rng: np.random.Generator, ignore_index: int = IGNORE_INDEX,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Scale, rotate, crop and maybe flip one training pair.

    Sample pixels the rescaled, rotated source does not cover take the
    source image's per-channel mean, and ignore_index, the dataset's
    ignore label, in the mask.

    Draw order is fixed (scale, angle, crop y, crop x, flip) and every
    draw happens on every call, so a config that disables a transform
    still consumes the same randomness and stays bit-compatible.

    Rotation keeps the frame size, so the crop offsets are known before
    any pixel is computed, and only what the crop reads is evaluated.
    With no rotation and the crop inside the rescaled frame, that is the
    crop window of the rescaled frame. Otherwise it is the block of the
    rescaled frame that the window's covered pixels sample, and the
    window is rotated out of that block; a crop larger than the frame
    runs past its bottom and right edges.
    """
    if img.ndim != 3 or mask.ndim != 2 or img.shape[1:] != mask.shape:
        raise DataError(
            f"image {img.shape} and mask {mask.shape} are not aligned")
    scale = float(rng.uniform(cfg.scale_range[0], cfg.scale_range[1]))
    angle = float(rng.uniform(-cfg.max_rotate, cfg.max_rotate))

    sh, sw = mask.shape
    h, w = out_hw = (max(1, int(round(sh * scale))), max(1, int(round(sw * scale))))
    ch, cw = cfg.crop_hw
    y0 = int(rng.integers(0, max(h, ch) - ch + 1))
    x0 = int(rng.integers(0, max(w, cw) - cw + 1))
    window = (y0, x0, ch, cw)
    if angle == 0.0 and ch <= h and cw <= w:
        img = resize_bilinear(img, out_hw, window)
        mask = resize_nearest(mask, out_hw, window)
    else:
        # the fill is the source's mean, so no pixel that is not inside
        # needs the rescaled frame
        fill = img.mean(axis=(1, 2), dtype=np.float64)
        _, sy, sx = _rotation_sources(out_hw, angle, window)
        if sy.size:
            (top, bottom), (left, right) = _tap_span(sy, h), _tap_span(sx, w)
            block = (top, left, bottom - top + 1, right - left + 1)
            img = resize_bilinear(img, out_hw, block)
            mask = resize_nearest(mask, out_hw, block)
        else:   # no pixel inside: nothing is read
            top = left = 0
            img, mask = img[:, :0, :0], mask[:0, :0]
        img, mask = rotate_pair(img, mask, angle, ignore_index, fill=fill,
                                window=window, frame=(top, left, h, w))

    if rng.random() < cfg.hflip_prob:
        img = img[:, :, ::-1]
        mask = mask[:, ::-1]
    return np.ascontiguousarray(img), np.ascontiguousarray(mask)
