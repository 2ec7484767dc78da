"""Segmentation metrics and inference strategies.

Evaluation never touches gradients: forwards run in eval mode under
no_grad, predictions become confusion-matrix counts, and mean IoU comes
straight off the matrix.
"""
from __future__ import annotations

import math

import numpy as np

from .augment import resize_bilinear, scaled_hw
from .data import Dataset, normalize_image
# not called here; bench/tracing.py wraps both as metrics attributes
from .segment import copy_shared, rebuild_for_input
from .tensor import no_grad


class EvalError(ValueError):
    """Invalid metric or inference request."""


SCALE_PRESETS: dict[str, tuple[float, ...]] = {
    "single": (1.0,),
    "multi": (0.5, 0.75, 1.0, 1.25),
    # the extended set used for Cityscapes-style evaluation
    "extended": (0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5),
}


class ConfusionMatrix:
    """K x K counts; entry (t, p) = pixels of true class t predicted p."""

    def __init__(self, num_classes: int, ignore_index: int = 255):
        if num_classes < 2:
            raise EvalError(f"need at least 2 classes, got {num_classes}")
        self.num_classes = num_classes
        self.ignore_index = ignore_index
        self.counts = np.zeros((num_classes, num_classes), dtype=np.int64)

    def update(self, true: np.ndarray, pred: np.ndarray) -> "ConfusionMatrix":
        t = np.asarray(true).ravel()
        p = np.asarray(pred).ravel()
        if t.shape != p.shape:
            raise EvalError(f"label shapes differ: {true.shape} vs {pred.shape}")
        keep = t != self.ignore_index
        t = t[keep].astype(np.int64)
        p = p[keep].astype(np.int64)
        k = self.num_classes
        if t.size:
            if t.min() < 0 or t.max() >= k:
                raise EvalError("true label out of range")
            if p.min() < 0 or p.max() >= k:
                raise EvalError("predicted label out of range")
            self.counts += np.bincount(t * k + p, minlength=k * k).reshape(k, k)
        return self

    def merge(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        if other.num_classes != self.num_classes:
            raise EvalError("merging matrices of different sizes")
        self.counts += other.counts
        return self

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def miou(cm: ConfusionMatrix) -> dict:
    """Mean IoU over classes with non-zero union.

    IoU_k = diag / (row + col - diag). Classes that never occur in
    either truth or prediction are excluded from the mean and listed
    under "excluded" so the choice is visible.
    """
    c = cm.counts.astype(np.float64)
    diag = np.diag(c)
    union = c.sum(axis=1) + c.sum(axis=0) - diag
    included = union > 0
    if not included.any():
        raise EvalError("all classes have zero union")
    per_class = np.full(cm.num_classes, np.nan)
    per_class[included] = diag[included] / union[included]
    return {
        "miou": float(per_class[included].mean()),
        "per_class": per_class,
        "excluded": [int(i) for i in np.flatnonzero(~included)],
    }


def softmax_probs(logits: np.ndarray) -> np.ndarray:
    """Per-position class probabilities of a (k, h, w) logit map, as a
    new float64 array (computed in place in that array)."""
    z = logits.astype(np.float64)
    z -= z.max(axis=0, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=0, keepdims=True)
    return z


def _forward_probs(net, image: np.ndarray, hw, mirrors) -> list[np.ndarray]:
    """Probability maps at extent hw of one eval forward, one per flag
    in mirrors: the image resized to hw, or its mirror where the flag is
    set, as one batch. Each map is softmaxed but not yet resized back.
    The scaled inputs and the forward's output go before this returns."""
    x = np.stack([resize_bilinear(np.ascontiguousarray(
        image[:, :, ::-1] if m else image), hw) for m in mirrors])
    with no_grad():
        out = net.forward(x, training=False).data
    del x
    return [softmax_probs(o) for o in out]


def multi_scale_inference(net, image: np.ndarray, scales=(1.0,),
                          flip: bool = False) -> np.ndarray:
    """Average class probabilities over scaled (and mirrored) forwards.

    image is a normalized float32 (c, h, w) array. Each copy is resized
    bilinearly, forwarded through ``net`` itself in eval mode (graphs run
    at any input size), softmaxed, resized back to the original extent,
    un-mirrored if needed, and averaged in probability space: summed in
    scale order, at each scale the image's map and then its mirror's.
    Returns a (num_classes, h, w) float64 map.

    With flip, a scale whose image and mirror together hold no more
    pixels than the largest scale's image runs both as one batch-2
    forward; the others run two batch-1 forwards. An eval-mode forward
    computes each sample as it would alone, so the maps are those of
    batch-1 forwards. The rule keeps the peak where it was, at the
    largest scale's batch-1 forward and resize: stacking that scale too
    would raise it (on toy16 OS16 a 160² forward holds 2.84 MiB above
    its input at batch 2, 1.86 MiB at batch 1), while a stacked pair
    never holds more pixels than that single image.

    Between forwards only the running sum is alive. A stacked forward's
    output goes once both its maps are softmaxed, before either is
    resized; each resized map is added to the sum and dropped before the
    next resize, and the sum and the final mean are formed in place.
    """
    if len(scales) == 0:
        raise EvalError("need at least one scale")
    for s in scales:
        if not 0 < s < math.inf:  # NaN fails too
            raise EvalError(f"scale {s} is not finite and positive "
                            f"(scales {tuple(scales)})")
    _, h, w = image.shape
    extents = [scaled_hw((h, w), float(s)) for s in scales]
    largest = max(sh * sw for sh, sw in extents)
    total = None
    for sh, sw in extents:
        if not flip:
            groups = [(False,)]
        elif 2 * sh * sw <= largest:
            groups = [(False, True)]
        else:
            groups = [(False,), (True,)]
        for mirrors in groups:
            maps = _forward_probs(net, image, (sh, sw), mirrors)
            for mirrored in mirrors:
                p = resize_bilinear(maps.pop(0), (h, w))
                if total is None:
                    # the first map is unmirrored: total owns a contiguous array
                    total = p
                else:
                    total += p[:, :, ::-1] if mirrored else p
                del p
    total /= len(scales) * (2 if flip else 1)
    return total


def predict_labels(net, image: np.ndarray, scales=(1.0,),
                   flip: bool = False) -> np.ndarray:
    """Argmax class map for one normalized image."""
    probs = multi_scale_inference(net, image, scales, flip)
    return np.argmax(probs, axis=0).astype(np.uint8)


def check_classes(net, dataset: Dataset) -> None:
    """Raise EvalError unless the graph outputs the dataset's class count,
    checked at the first image's extent; an empty dataset has none."""
    if len(dataset) == 0:
        return
    out_c = net.graph.infer_shapes(dataset.images[0].shape[1:])[net.graph.output][0]
    if out_c != dataset.classes:
        raise EvalError(f"graph outputs {out_c} classes, dataset has {dataset.classes}")


def evaluate(net, dataset: Dataset, scales=(1.0,), flip: bool = False) -> dict:
    """mIoU of a network over a dataset; returns metrics plus the matrix."""
    check_classes(net, dataset)
    cm = ConfusionMatrix(dataset.classes, dataset.ignore_index)
    for img, mask in zip(dataset.images, dataset.masks):
        pred = predict_labels(net, normalize_image(img), scales, flip)
        cm.update(mask, pred)
    result = miou(cm)
    result["confusion"] = cm
    return result


def format_metrics(result: dict) -> str:
    lines = [f"{'class':>8}  iou"]
    for i, v in enumerate(result["per_class"]):
        txt = "excluded" if i in result["excluded"] else f"{v:.4f}"
        lines.append(f"{i:>8}  {txt}")
    lines.append(f"mIoU: {result['miou']:.4f}")
    if result["excluded"]:
        lines.append("excluded classes (zero union): "
                     + ", ".join(str(i) for i in result["excluded"]))
    return "\n".join(lines) + "\n"


def metrics_csv(result: dict) -> str:
    lines = ["class,iou"]
    for i, v in enumerate(result["per_class"]):
        lines.append(f"{i}," + ("" if i in result["excluded"] else f"{v:.6f}"))
    lines.append(f"miou,{result['miou']:.6f}")
    return "\n".join(lines) + "\n"
