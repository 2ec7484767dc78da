"""Correctness checks the benchmark applies to the program's outputs.

Each check compares against a property or an independent computation,
never against a stored copy of earlier output. The ``*_problems``
functions return a list of problems; an empty list means the output
passed.
"""
from __future__ import annotations

import math

import numpy as np

from sunet.runtime import Network
from sunet.tensor import no_grad
from sunet.training import load_checkpoint

# the gate of the acceptance test for the subsampled-feature identity
EQUIVALENCE_GATE = 1e-4
# averaged probabilities are float64 sums of a few float64 softmaxes
PROB_ATOL = 1e-9
# with flip on, the mirrored image runs the same forwards as the image
# itself, in the other order, so only the float64 averaging may differ
MIRROR_ATOL = 1e-9


def loss_problems(losses) -> list[str]:
    """Every loss finite, and the last tenth of the run below the first."""
    losses = [float(v) for v in losses]
    if len(losses) < 2:
        return [f"too few losses to judge training ({len(losses)})"]
    bad = [i for i, v in enumerate(losses) if not math.isfinite(v)]
    if bad:
        return [f"non-finite loss at iteration {bad[0]}"]
    tenth = max(1, len(losses) // 10)
    first = sum(losses[:tenth]) / tenth
    last = sum(losses[-tenth:]) / tenth
    if not last < first:
        return [f"loss did not fall: first tenth {first:.4g}, last tenth {last:.4g}"]
    return []


def probability_problems(probs: np.ndarray) -> list[str]:
    """A (k, h, w) map lies in [0, 1] and sums to 1 at every pixel."""
    probs = np.asarray(probs, dtype=np.float64)
    out = []
    if not np.isfinite(probs).all():
        return ["non-finite probability"]
    if probs.min() < -PROB_ATOL or probs.max() > 1.0 + PROB_ATOL:
        out.append(f"probability outside [0, 1]: [{probs.min():.3g}, {probs.max():.3g}]")
    err = float(np.abs(probs.sum(axis=0) - 1.0).max())
    if err > PROB_ATOL:
        out.append(f"probabilities sum to 1 only within {err:.3g}")
    return out


def mirror_problems(probs: np.ndarray, probs_of_mirror: np.ndarray) -> list[str]:
    """Predicting the mirrored image gives the mirror of the prediction."""
    err = float(np.abs(np.asarray(probs_of_mirror) - np.asarray(probs)[:, :, ::-1]).max())
    if err > MIRROR_ATOL:
        return [f"mirrored prediction differs from the mirror by {err:.3g}"]
    return []


def brute_force_miou(truths, preds, num_classes: int, ignore_index: int) -> float:
    """Mean IoU from per-class pixel sets, skipping classes with no union."""
    t = np.concatenate([np.asarray(a).ravel() for a in truths])
    p = np.concatenate([np.asarray(a).ravel() for a in preds])
    keep = t != ignore_index
    t, p = t[keep], p[keep]
    ious = []
    for c in range(num_classes):
        union = int(np.sum((t == c) | (p == c)))
        if union:
            ious.append(int(np.sum((t == c) & (p == c))) / union)
    return float(np.mean(ious))


def miou_problems(reported: float, truths, preds, num_classes: int,
                  ignore_index: int) -> list[str]:
    """The program's mIoU equals the brute-force set computation."""
    want = brute_force_miou(truths, preds, num_classes, ignore_index)
    if abs(reported - want) > 1e-12:
        return [f"mIoU {reported!r} != brute force {want!r}"]
    return []


def reload_problems(net: Network, path: str, x: np.ndarray) -> list[str]:
    """The checkpoint at path, loaded into a fresh Network, reproduces
    net's eval-mode output on x bit for bit."""
    fresh = Network(net.graph, dtype=net.dtype, seed=12345)
    load_checkpoint(path, fresh)
    with no_grad():
        want = net.forward(x, training=False).data
        got = fresh.forward(x, training=False).data
    if not np.array_equal(want, got):
        err = float(np.abs(want.astype(np.float64) - got.astype(np.float64)).max())
        return [f"reloaded network output differs by up to {err:.3g}"]
    return []


def equivalence_holds(diff: float) -> bool:
    """Converted strides agree on the subsampled grid within the gate."""
    return math.isfinite(diff) and diff < EQUIVALENCE_GATE
