"""SGD with Nesterov momentum and the learning-rate schedules."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor


class TrainError(ValueError):
    """Invalid training configuration or a run that cannot continue."""


@dataclass(frozen=True)
class OptimizerConfig:
    """SGD settings. Dampening is fixed at zero."""
    lr0: float
    momentum: float = 0.9
    nesterov: bool = False
    weight_decay: float = 0.0
    batch_size: int = 1

    def __post_init__(self):
        # written so that NaN fails every comparison
        if not 0.0 <= self.lr0 < math.inf:
            raise TrainError(f"lr0 {self.lr0} outside [0, inf)")
        if not 0.0 <= self.momentum < 1.0:
            raise TrainError(f"momentum {self.momentum} outside [0, 1)")
        if not 0.0 <= self.weight_decay < math.inf:
            raise TrainError(f"weight_decay {self.weight_decay} outside [0, inf)")
        if self.batch_size < 1:
            raise TrainError(f"batch size {self.batch_size} < 1")


# published settings, kept as data; the imagenet run itself is far beyond
# desk scale, so that preset only documents the configuration
OPTIMIZER_PRESETS: dict[str, OptimizerConfig] = {
    "imagenet": OptimizerConfig(lr0=0.01, momentum=0.9, nesterov=True,
                                weight_decay=5e-4, batch_size=256),
    "segmentation": OptimizerConfig(lr0=2e-4, momentum=0.95, nesterov=False,
                                    weight_decay=1e-4, batch_size=22),
    "toy": OptimizerConfig(lr0=0.02, momentum=0.95, nesterov=False,
                           weight_decay=1e-4, batch_size=8),
}


class SGD:
    """g~ = g + wd*w;  v <- mu*v + g~;  w <- w - lr*(g~ + mu*v) (Nesterov)
    or w <- w - lr*v (plain). Parameters without a gradient are skipped.

    Weight decay applies only to names in decay_names (conv weights);
    BN parameters and biases stay undecayed.
    """

    def __init__(self, params: dict[str, Tensor], cfg: OptimizerConfig,
                 decay_names=frozenset()):
        self.params = params
        self.cfg = cfg
        self.decay_names = frozenset(decay_names)
        self.velocity: dict[str, np.ndarray] = {
            name: np.zeros_like(t.data) for name, t in params.items()}

    def step(self, lr: float) -> None:
        mu = self.cfg.momentum
        wd = self.cfg.weight_decay
        for name, t in self.params.items():
            g = t.grad
            if g is None:
                continue
            if wd and name in self.decay_names:
                g = g + (wd * t.data).astype(g.dtype, copy=False)
            v = self.velocity[name]
            v *= mu
            v += g
            if self.cfg.nesterov:
                t.data -= lr * (g + mu * v)
            else:
                t.data -= lr * v


@dataclass(frozen=True)
class CosineSchedule:
    """lr0 * 0.5 * (1 + cos(pi * iter / max_iters))."""
    max_iters: int

    def __post_init__(self):
        if self.max_iters < 1:
            raise TrainError(f"max_iters {self.max_iters} < 1")

    def lr_at(self, lr0: float, it: int) -> float:
        if not 0 <= it <= self.max_iters:
            raise TrainError(f"iteration {it} outside [0, {self.max_iters}]")
        return lr0 * 0.5 * (1.0 + math.cos(math.pi * (it / self.max_iters)))


@dataclass(frozen=True)
class StepSchedule:
    """lr0 * factor ** (iter // every). Epoch-based decay expressed in
    iterations; callers convert epochs with their own steps-per-epoch."""
    max_iters: int
    factor: float = 0.1
    every: int = 1

    def __post_init__(self):
        if self.max_iters < 1:
            raise TrainError(f"max_iters {self.max_iters} < 1")
        if self.every < 1:
            raise TrainError(f"decay period {self.every} < 1")
        if not 0 < self.factor < math.inf:
            raise TrainError(f"factor {self.factor} outside (0, inf)")

    def lr_at(self, lr0: float, it: int) -> float:
        if not 0 <= it <= self.max_iters:
            raise TrainError(f"iteration {it} outside [0, {self.max_iters}]")
        return lr0 * self.factor ** (it // self.every)
