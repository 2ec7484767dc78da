"""Training loop with checkpointing and a deterministic data pipeline.

One run is a pure function of (graph, dataset, config): sample order
comes from a master generator seeded by the config, and each
augmentation draw gets its own generator keyed by (seed, draw index),
so worker parallelism or restarts cannot reorder randomness.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .augment import AugmentConfig, augment_sample, sample_rng
from .data import normalize_image
from .graph import GraphError
from .io import read_checkpoint, write_checkpoint
from .optim import SGD, CosineSchedule, OptimizerConfig, StepSchedule, TrainError
from .runtime import Network
from .tensor import softmax_cross_entropy


@dataclass(frozen=True)
class TrainConfig:
    iters: int
    optimizer: OptimizerConfig
    schedule: str = "cosine"          # "cosine" or "step"
    step_factor: float = 0.1
    step_every: int = 0               # iterations between step decays
    augment: AugmentConfig | None = None
    seed: int = 0
    bn_eval: bool = False             # freeze running statistics
    checkpoint_every: int = 0         # 0 = final checkpoint only

    def __post_init__(self):
        if self.iters < 0:
            raise TrainError(f"negative iteration count {self.iters}")
        if self.checkpoint_every < 0:
            raise TrainError(f"negative checkpoint interval {self.checkpoint_every}")
        if self.schedule not in ("cosine", "step"):
            raise TrainError(f"unknown schedule {self.schedule!r}")
        if not 0 < self.step_factor < math.inf:
            raise TrainError(f"step_factor {self.step_factor} outside (0, inf)")
        if self.schedule == "step" and self.step_every < 1:
            raise TrainError("step schedule needs step_every >= 1")


def _make_schedule(cfg: TrainConfig):
    if cfg.schedule == "cosine":
        return CosineSchedule(cfg.iters)
    return StepSchedule(cfg.iters, factor=cfg.step_factor, every=cfg.step_every)


def save_checkpoint(path, net: Network, opt: SGD | None = None,
                    iteration: int = 0) -> None:
    """Write parameters, BN statistics, and optimizer velocity as SUNC."""
    entries = net.state_entries()
    if opt is not None:
        entries.update({f"vel/{k}": v for k, v in opt.velocity.items()})
    write_checkpoint(path, entries, iteration=iteration,
                     graph_digest=net.graph.digest)


def load_checkpoint(path, net: Network, opt: SGD | None = None) -> int:
    """Restore a SUNC checkpoint into a network; returns its iteration.

    The stored graph digest must match the network's graph, so a
    checkpoint can never be loaded into a different architecture.
    """
    entries, iteration, digest = read_checkpoint(path)
    if digest != net.graph.digest:
        raise GraphError(
            f"checkpoint bound to graph {digest[:12]}, "
            f"this graph is {net.graph.digest[:12]}")
    net.load_entries(entries)
    if opt is not None:
        stored = {k for k in entries if k.startswith("vel/")}
        if stored:
            for name in opt.velocity:
                key = f"vel/{name}"
                if key not in entries:
                    raise TrainError(f"checkpoint has no velocity for {name!r}")
                opt.velocity[name] = entries[key].astype(
                    opt.velocity[name].dtype, copy=True)
    return iteration


def loss_csv(rows) -> str:
    out = ["iter,lr,loss"]
    for it, lr, loss in rows:
        out.append(f"{it},{lr:.10g},{loss:.10g}")
    return "\n".join(out) + "\n"


def _next_batch(order_rng, pending: list, n: int, batch: int) -> list[int]:
    idx = []
    while len(idx) < batch:
        if not pending:
            pending.extend(order_rng.permutation(n).tolist())
        idx.append(pending.pop(0))
    return idx


def _batch(dataset, idx: list[int], cfg: TrainConfig, first_draw: int):
    """The stacked (images, masks) of the dataset entries idx, the k-th
    augmented with draw first_draw + k when cfg.augment is set. The
    per-sample arrays go with this call; masks keep their dtype."""
    imgs, masks = [], []
    for k, j in enumerate(idx):
        img = normalize_image(dataset.images[j])
        mask = dataset.masks[j]
        if cfg.augment is not None:
            img, mask = augment_sample(img, mask, cfg.augment,
                                       sample_rng(cfg.seed, first_draw + k),
                                       dataset.ignore_index)
        imgs.append(img)
        masks.append(mask)
    return np.stack(imgs), np.stack(masks)


def train(net: Network, dataset, cfg: TrainConfig, out_dir=None) -> dict:
    """Run the loop; returns {"rows": [(iter, lr, loss)], "checkpoint": path}.

    dataset provides images (uint8 (3, h, w)), masks (uint8 (h, w)), a
    length, classes (the graph's output channels must match it) and
    ignore_index: the label the loss skips, and the one augmentation
    fills uncovered positions with. With out_dir set,
    writes loss.csv, periodic ckpt_NNNNNN.sunc when checkpoint_every > 0,
    and a final checkpoint.sunc (which for a 0-iteration run is just the
    initialization).

    A step keeps alive only what a later op reads. Between steps that is
    the parameters, their velocity and the BN statistics. Within a step
    it is also the stacked batch (float32 images, and the masks in their
    own integer dtype, uint8 for a Dataset, which the loss reads as they
    are), the tape while backward consumes it, and the gradients until
    the optimizer step. The per-sample arrays go once stacked, the
    logits' values once the loss is computed (the loss keeps its own
    exponentials), and the rest of the step once backward has run, so
    nothing of one step is alive during the next step's forward.
    """
    if len(dataset) == 0:
        raise TrainError("empty dataset")
    # samples have the crop extent, or the images' own, stacked as they are
    hw = tuple(cfg.augment.crop_hw) if cfg.augment else dataset.images[0].shape[1:]
    out_node = net.graph.output
    out_c, *out_hw = net.graph.infer_shapes(hw)[out_node]
    if out_c != dataset.classes:
        raise TrainError(f"graph outputs {out_c} classes, dataset has {dataset.classes}")
    if cfg.augment is None:
        for i, img in enumerate(dataset.images):
            if img.shape[1:] != hw:
                raise TrainError(
                    f"dataset entry {i}: image {img.shape[1:]} differs from "
                    f"entry 0's {hw}; training without augmentation needs "
                    f"one image size")
    if tuple(out_hw) != hw:
        raise TrainError(
            f"output node {out_node!r} is {out_hw[0]}x{out_hw[1]} at the training "
            f"extent {hw[0]}x{hw[1]}; a graph whose output does not keep the "
            f"input extent can be evaluated but not trained")
    opt = SGD(net.params, cfg.optimizer, decay_names=net.decay_param_names())
    rows = []
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)

    if cfg.iters > 0:
        sched = _make_schedule(cfg)
        order_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed]))
        pending: list[int] = []
        n = len(dataset)
        bsz = cfg.optimizer.batch_size
        for it in range(cfg.iters):
            x, labels = _batch(dataset, _next_batch(order_rng, pending, n, bsz),
                               cfg, it * bsz)
            out = net.forward(x, training=not cfg.bn_eval)
            loss = softmax_cross_entropy(out, labels, dataset.ignore_index)
            # the loss keeps its own exponentials: no later op reads the
            # logits' values
            out.release()
            lval = float(loss.data.reshape(()))
            if not math.isfinite(lval):
                raise TrainError(f"non-finite loss {lval} at iteration {it}")
            lr = sched.lr_at(cfg.optimizer.lr0, it)
            loss.backward()
            # nothing of this step is read past its backward
            del x, labels, out, loss
            opt.step(lr)
            net.zero_grads()
            rows.append((it, lr, lval))
            if (out_dir is not None and cfg.checkpoint_every > 0
                    and (it + 1) % cfg.checkpoint_every == 0):
                save_checkpoint(os.path.join(out_dir, f"ckpt_{it + 1:06d}.sunc"),
                                net, opt, iteration=it + 1)

    final = None
    if out_dir is not None:
        final = os.path.join(out_dir, "checkpoint.sunc")
        save_checkpoint(final, net, opt, iteration=cfg.iters)
        with open(os.path.join(out_dir, "loss.csv"), "w") as fh:
            fh.write(loss_csv(rows))
    return {"rows": rows, "checkpoint": final, "iterations": cfg.iters}
