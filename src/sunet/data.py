"""Synthetic shape datasets, manifests and in-memory dataset access.

A dataset on disk is a manifest.json next to its rasters: binary PPM
images and PGM class-index masks. The synthetic generator draws flat
colored rectangles and disks (color keyed to class, later shapes
occlude earlier ones) over a gray background, plus pixel noise, and is
byte-deterministic under its seed.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .io import DataError, read_pgm, read_ppm, write_pgm, write_ppm

IGNORE_INDEX = 255

# class c >= 1 draws in palette color (c-1 mod len); background is class 0
PALETTE = (
    (220, 60, 60), (60, 200, 70), (70, 90, 220), (230, 200, 50),
    (200, 80, 200), (60, 200, 200), (240, 140, 40), (140, 220, 100),
)


@dataclass(frozen=True)
class SyntheticSpec:
    canvas_hw: tuple[int, int] = (96, 96)
    classes: int = 4
    shapes_per_image: tuple[int, int] = (1, 3)
    noise: float = 8.0
    void_border: int = 2    # half-width of the ignore ring along mask edges
    seed: int = 0

    def __post_init__(self):
        if self.classes < 2:
            raise DataError(f"need at least 2 classes, got {self.classes}")
        if self.classes - 1 > IGNORE_INDEX:
            raise DataError("class index would collide with the ignore value")
        lo, hi = self.shapes_per_image
        if not 1 <= lo <= hi:
            raise DataError(f"bad shapes-per-image range {self.shapes_per_image}")
        if min(self.canvas_hw) < 16:
            raise DataError(f"canvas {self.canvas_hw} too small")
        if self.void_border < 0:
            raise DataError(f"negative void border {self.void_border}")


@dataclass(frozen=True)
class DatasetManifest:
    root: str
    classes: int
    ignore_index: int
    split: str
    entries: tuple[tuple[str, str], ...]  # (image, mask) relative paths

    def image_path(self, i: int) -> str:
        return os.path.join(self.root, self.entries[i][0])

    def mask_path(self, i: int) -> str:
        return os.path.join(self.root, self.entries[i][1])

    def __len__(self) -> int:
        return len(self.entries)


def _draw_shape(img: np.ndarray, mask: np.ndarray, rng: np.random.Generator,
                classes: int) -> None:
    h, w = mask.shape
    cls = int(rng.integers(1, classes))
    kind = int(rng.integers(0, 2))
    # half-extents keep shapes big enough to survive output stride 16
    ay = int(rng.integers(h // 8, h // 3 + 1))
    ax = int(rng.integers(w // 8, w // 3 + 1))
    cy = int(rng.integers(ay, h - ay))
    cx = int(rng.integers(ax, w - ax))
    base = PALETTE[(cls - 1) % len(PALETTE)]
    jitter = rng.integers(-20, 21, size=3)
    color = np.clip(np.array(base, dtype=np.int64) + jitter, 0, 255)
    yy, xx = np.ogrid[:h, :w]
    if kind == 0:
        hit = (np.abs(yy - cy) <= ay) & (np.abs(xx - cx) <= ax)
    else:
        r = min(ay, ax)
        hit = (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
    img[hit] = color
    mask[hit] = cls


def _void_ring(mask: np.ndarray, width: int) -> np.ndarray:
    """Mark a band of ``width`` pixels on each side of label edges as ignore.

    Annotation masks customarily leave object outlines unlabelled; doing
    the same here keeps boundary pixels out of both the loss and the
    metric, which would otherwise be dominated by outline rounding at
    coarse output strides.
    """
    if width == 0:
        return mask
    edge = np.zeros(mask.shape, dtype=bool)
    edge[:-1] |= mask[:-1] != mask[1:]
    edge[1:] |= mask[1:] != mask[:-1]
    edge[:, :-1] |= mask[:, :-1] != mask[:, 1:]
    edge[:, 1:] |= mask[:, 1:] != mask[:, :-1]
    for _ in range(width - 1):
        grown = edge.copy()
        grown[:-1] |= edge[1:]
        grown[1:] |= edge[:-1]
        grown[:, :-1] |= edge[:, 1:]
        grown[:, 1:] |= edge[:, :-1]
        edge = grown
    out = mask.copy()
    out[edge] = IGNORE_INDEX
    return out


def generate_synthetic(spec: SyntheticSpec, count: int, out_dir: str,
                       split: str = "train") -> DatasetManifest:
    """Write image/mask pairs plus manifest.json; returns the manifest.

    Every image gets its own generator seeded from (spec.seed, index),
    so regeneration is byte-identical and order-independent.
    """
    if count < 0:
        raise DataError(f"negative count {count}")
    os.makedirs(os.path.join(out_dir, "images"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "masks"), exist_ok=True)
    h, w = spec.canvas_hw
    entries = []
    class_pixels = np.zeros(spec.classes, dtype=np.int64)
    for i in range(count):
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, i]))
        gray = int(rng.integers(20, 90))
        img = np.full((h, w, 3), gray, dtype=np.float64)
        mask = np.zeros((h, w), dtype=np.uint8)
        for _ in range(int(rng.integers(spec.shapes_per_image[0],
                                        spec.shapes_per_image[1] + 1))):
            _draw_shape(img, mask, rng, spec.classes)
        img += rng.normal(0.0, spec.noise, size=img.shape)
        pixels = np.clip(np.rint(img), 0, 255).astype(np.uint8)
        mask = _void_ring(mask, spec.void_border)
        rel_img = f"images/img_{i:05d}.ppm"
        rel_msk = f"masks/msk_{i:05d}.pgm"
        write_ppm(os.path.join(out_dir, rel_img), pixels)
        write_pgm(os.path.join(out_dir, rel_msk), mask)
        entries.append((rel_img, rel_msk))
        labelled = mask[mask != IGNORE_INDEX]
        class_pixels += np.bincount(labelled, minlength=spec.classes)
    doc = {
        "version": 1,
        "classes": spec.classes,
        "ignore_index": IGNORE_INDEX,
        "split": split,
        "class_pixels": [int(v) for v in class_pixels],
        "entries": [{"image": a, "mask": b} for a, b in entries],
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return DatasetManifest(os.path.abspath(out_dir), spec.classes,
                           IGNORE_INDEX, split, tuple(entries))


def _integer(value) -> int:
    """int(value), refusing what int() would round or parse (4.9, "4")."""
    out = int(value)
    if out != value:
        raise ValueError(f"{value!r} is not an integer")
    return out


def load_manifest(path: str) -> DatasetManifest:
    """Read a manifest.json; checks that every referenced file exists and
    that the ignore label lies above every class index and fits a mask byte."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON ({exc})") from None
    root = os.path.dirname(os.path.abspath(path))
    try:
        classes = _integer(doc["classes"])
        ignore = _integer(doc.get("ignore_index", IGNORE_INDEX))
        split = str(doc.get("split", "train"))
        entries = tuple((str(e["image"]), str(e["mask"])) for e in doc["entries"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed manifest ({exc})") from None
    if classes < 2:
        raise DataError(f"{path}: classes must be >= 2, got {classes}")
    # masks are 8-bit, and a class index equal to the ignore label would
    # silently leave that class out of the loss and the metric
    if not classes <= ignore <= 255:
        raise DataError(f"{path}: ignore_index must lie in [{classes}, 255] "
                        f"(classes {classes}, 8-bit masks), got {ignore}")
    m = DatasetManifest(root, classes, ignore, split, entries)
    for i in range(len(m)):
        for p in (m.image_path(i), m.mask_path(i)):
            if not os.path.isfile(p):
                raise DataError(f"manifest entry {i}: missing file {p}")
    return m


class Dataset:
    """All pairs of a manifest in memory, size- and label-checked on load."""

    def __init__(self, manifest: DatasetManifest):
        self.manifest = manifest
        self.images: list[np.ndarray] = []
        self.masks: list[np.ndarray] = []
        # a mask byte is valid if it is a class index or the ignore label
        bad_label = np.ones(256, dtype=bool)
        bad_label[:manifest.classes] = False
        bad_label[manifest.ignore_index] = False
        for i in range(len(manifest)):
            img = read_ppm(manifest.image_path(i))
            mask = read_pgm(manifest.mask_path(i))
            if img.shape[:2] != mask.shape:
                raise DataError(
                    f"manifest entry {i} ({manifest.entries[i][0]}): image "
                    f"{img.shape[:2]} vs mask {mask.shape} size mismatch")
            bad = bad_label.take(mask)
            if bad.any():
                raise DataError(
                    f"manifest entry {i} ({manifest.mask_path(i)}): label "
                    f"{mask.flat[bad.argmax()]} outside [0, {manifest.classes}) "
                    f"and not ignore_index {manifest.ignore_index}")
            self.images.append(np.ascontiguousarray(img.transpose(2, 0, 1)))
            self.masks.append(mask)

    def __len__(self) -> int:
        return len(self.images)

    @property
    def classes(self) -> int:
        return self.manifest.classes

    @property
    def ignore_index(self) -> int:
        return self.manifest.ignore_index


def normalize_image(img_u8: np.ndarray) -> np.ndarray:
    """uint8 (c, h, w) pixels to float32 in [-1, 1]."""
    return (img_u8.astype(np.float32) - 127.5) / 127.5
