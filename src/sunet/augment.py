"""Augmentation: scale, rotate, crop, flip. Deterministic under its RNG.

Images travel as float32 (c, h, w), masks as uint8 (h, w) class indexes.
Geometry always moves both together: bilinear resampling for the image,
nearest for the mask, and anything falling outside the source frame is
filled with the per-channel image mean / the ignore index, so the
augmentation never fabricates labels.

A training sample keeps only a crop of the rescaled frame, so the crop
is drawn before the rotation and only the crop window is rotated; the
result is the same, bit for bit, as rotating the whole frame and then
cropping. When the rescaled frame is smaller than the crop it must be
padded, and the pad fill is the mean of the rotated frame, so that case
rotates the whole frame before padding and cropping.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .io import DataError
from .tensor import _resize_matrix

IGNORE_INDEX = 255


@dataclass(frozen=True)
class AugmentConfig:
    crop_hw: tuple[int, int] = (512, 512)
    scale_range: tuple[float, float] = (0.5, 2.0)
    max_rotate: float = 10.0
    hflip_prob: float = 0.5
    ignore_index: int = IGNORE_INDEX

    def __post_init__(self):
        lo, hi = self.scale_range
        if not 0 < lo <= hi:
            raise DataError(f"bad scale range {self.scale_range}")
        if min(self.crop_hw) < 1:
            raise DataError(f"bad crop size {self.crop_hw}")


def sample_rng(master_seed: int, index: int) -> np.random.Generator:
    """Generator for one augmentation draw, from (master seed, index).

    Independent per index, so parallel loaders cannot reorder results.
    """
    return np.random.default_rng(np.random.SeedSequence([master_seed, index]))


def resize_bilinear(img: np.ndarray, out_hw: tuple[int, int]) -> np.ndarray:
    """Half-pixel-aligned bilinear resize of (c, h, w) float data."""
    c, h, w = img.shape
    oh, ow = int(out_hw[0]), int(out_hw[1])
    if oh < 1 or ow < 1:
        raise DataError(f"degenerate resize target {out_hw}")
    if (oh, ow) == (h, w):
        return img.copy()
    rh = _resize_matrix(h, oh)
    rw = _resize_matrix(w, ow)
    out = np.matmul(np.matmul(rh, img.astype(np.float64)), rw.T)
    return out.astype(img.dtype, copy=False)


def resize_nearest(mask: np.ndarray, out_hw: tuple[int, int]) -> np.ndarray:
    """Nearest-neighbour resize of an (h, w) label map."""
    h, w = mask.shape
    oh, ow = int(out_hw[0]), int(out_hw[1])
    if oh < 1 or ow < 1:
        raise DataError(f"degenerate resize target {out_hw}")
    ys = np.minimum((np.arange(oh, dtype=np.float64) + 0.5) * h / oh, h - 1)
    xs = np.minimum((np.arange(ow, dtype=np.float64) + 0.5) * w / ow, w - 1)
    return mask[ys.astype(np.intp)][:, xs.astype(np.intp)]


def rotate_pair(img: np.ndarray, mask: np.ndarray, degrees: float,
                ignore_index: int = IGNORE_INDEX, *,
                window: tuple[int, int, int, int] | None = None,
                ) -> tuple[np.ndarray, np.ndarray]:
    """Rotate image and mask about the center by the same angle.

    The image is sampled bilinearly with out-of-frame positions set to
    the per-channel mean; the mask is sampled nearest with out-of-frame
    positions set to the ignore index.

    ``window=(y0, x0, wh, ww)`` evaluates only that part of the rotated
    frame. Every output pixel is computed by the same arithmetic as in
    the full rotation, so the result equals the full rotation cropped
    to the window, bit for bit.
    """
    c, h, w = img.shape
    wy, wx, wh, ww = (0, 0, h, w) if window is None else window
    if not (0 <= wy and 0 <= wx and 1 <= wh and 1 <= ww
            and wy + wh <= h and wx + ww <= w):
        raise DataError(f"rotation window {window} outside frame {(h, w)}")
    theta = math.radians(degrees)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    yy, xx = np.meshgrid(np.arange(wy, wy + wh, dtype=np.float64),
                         np.arange(wx, wx + ww, dtype=np.float64), indexing="ij")
    sy = cy + cos_t * (yy - cy) + sin_t * (xx - cx)
    sx = cx - sin_t * (yy - cy) + cos_t * (xx - cx)
    inside = (sy >= 0) & (sy <= h - 1) & (sx >= 0) & (sx <= w - 1)

    y0 = np.clip(np.floor(sy), 0, h - 1).astype(np.intp)
    x0 = np.clip(np.floor(sx), 0, w - 1).astype(np.intp)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    ty = np.clip(sy, 0, h - 1) - y0
    tx = np.clip(sx, 0, w - 1) - x0
    img64 = img.astype(np.float64)
    top = img64[:, y0, x0] * (1 - tx) + img64[:, y0, x1] * tx
    bot = img64[:, y1, x0] * (1 - tx) + img64[:, y1, x1] * tx
    out = top * (1 - ty) + bot * ty
    fill = img64.mean(axis=(1, 2))
    out = np.where(inside, out, fill[:, None, None]).astype(img.dtype)

    ry = np.clip(np.rint(sy), 0, h - 1).astype(np.intp)
    rx = np.clip(np.rint(sx), 0, w - 1).astype(np.intp)
    mout = np.where(inside, mask[ry, rx], np.uint8(ignore_index)).astype(mask.dtype)
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
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Scale, rotate, crop and maybe flip one training pair.

    Draw order is fixed (scale, angle, crop y, crop x, flip) and every
    draw happens on every call, so a config that disables a transform
    still consumes the same randomness and stays bit-compatible.

    The crop offsets are drawn before rotating (rotation keeps the frame
    size) and only the crop window of the rotated frame is evaluated.
    If the rescaled frame is smaller than the crop, the whole frame is
    rotated, padded with the rotated frame's mean, and then cropped.
    """
    if img.ndim != 3 or mask.ndim != 2 or img.shape[1:] != mask.shape:
        raise DataError(
            f"image {img.shape} and mask {mask.shape} are not aligned")
    scale = float(rng.uniform(cfg.scale_range[0], cfg.scale_range[1]))
    angle = float(rng.uniform(-cfg.max_rotate, cfg.max_rotate))

    h, w = mask.shape
    out_hw = (max(1, int(round(h * scale))), max(1, int(round(w * scale))))
    if out_hw != (h, w):
        img = resize_bilinear(img, out_hw)
        mask = resize_nearest(mask, out_hw)

    # rotation keeps the frame size, so the padded extent and with it
    # the crop offsets are known before rotating
    h, w = out_hw
    ch, cw = cfg.crop_hw
    ph, pw = max(h, ch), max(w, cw)
    y0 = int(rng.integers(0, ph - ch + 1))
    x0 = int(rng.integers(0, pw - cw + 1))
    if angle != 0.0 and (ph, pw) == (h, w):
        img, mask = rotate_pair(img, mask, angle, cfg.ignore_index,
                                window=(y0, x0, ch, cw))
    else:
        if angle != 0.0:
            # the pad fill is the mean of the rotated frame: rotate it whole
            img, mask = rotate_pair(img, mask, angle, cfg.ignore_index)
        img, mask = _pad_to(img, mask, cfg.crop_hw, cfg.ignore_index)
        img = img[:, y0:y0 + ch, x0:x0 + cw]
        mask = mask[y0:y0 + ch, x0:x0 + cw]

    if rng.random() < cfg.hflip_prob:
        img = img[:, :, ::-1]
        mask = mask[:, ::-1]
    return np.ascontiguousarray(img), np.ascontiguousarray(mask)
