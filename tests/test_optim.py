import math

import numpy as np
import pytest

from sunet.optim import (OPTIMIZER_PRESETS, SGD, CosineSchedule,
                         OptimizerConfig, StepSchedule, TrainError)
from sunet.tensor import Tensor


def scalar_param(value):
    t = Tensor(np.full((1, 1, 1, 1), value, dtype=np.float64), requires_grad=True)
    return t


def test_nesterov_single_step_hand_value():
    # theta=1, g=1, mu=0.9, lr=0.1: v=1, theta -> 1 - 0.1*(1 + 0.9) = 0.81
    p = scalar_param(1.0)
    p.grad = np.ones_like(p.data)
    opt = SGD({"p": p}, OptimizerConfig(lr0=0.1, momentum=0.9, nesterov=True))
    opt.step(0.1)
    assert abs(float(p.data.reshape(())) - 0.81) < 1e-15


@pytest.mark.parametrize("nesterov", [False, True])
@pytest.mark.parametrize("wd", [0.0, 0.05])
def test_ten_steps_match_scalar_recurrence(nesterov, wd):
    mu, lr = 0.9, 0.02
    p = scalar_param(0.7)
    opt = SGD({"p": p}, OptimizerConfig(lr0=lr, momentum=mu, nesterov=nesterov,
                                        weight_decay=wd),
              decay_names={"p"})
    # independent recomputation of the stated recurrence
    theta, v = 0.7, 0.0
    for k in range(10):
        g = math.sin(k + 1.0)
        p.grad = np.full_like(p.data, g)
        opt.step(lr)
        gt = g + wd * theta
        v = mu * v + gt
        theta -= lr * ((gt + mu * v) if nesterov else v)
        assert float(p.data.reshape(())) == pytest.approx(theta, abs=1e-15)


def test_mu_zero_wd_zero_is_vanilla():
    p = scalar_param(2.0)
    p.grad = np.full_like(p.data, 3.0)
    opt = SGD({"p": p}, OptimizerConfig(lr0=0.1, momentum=0.0))
    opt.step(0.1)
    assert float(p.data.reshape(())) == 2.0 - 0.1 * 3.0


def test_weight_decay_applies_only_to_listed_names():
    w = scalar_param(1.0)
    b = scalar_param(1.0)
    for t in (w, b):
        t.grad = np.zeros_like(t.data)
    opt = SGD({"w": w, "b": b},
              OptimizerConfig(lr0=0.1, momentum=0.0, weight_decay=0.5),
              decay_names={"w"})
    opt.step(0.1)
    assert float(w.data.reshape(())) == pytest.approx(1.0 - 0.1 * 0.5)
    assert float(b.data.reshape(())) == 1.0


def test_params_without_grad_are_skipped():
    p = scalar_param(1.0)
    opt = SGD({"p": p}, OptimizerConfig(lr0=0.1, momentum=0.9))
    opt.step(0.1)
    assert float(p.data.reshape(())) == 1.0


def test_optimizer_config_validation():
    with pytest.raises(TrainError):
        OptimizerConfig(lr0=0.1, momentum=1.0)
    with pytest.raises(TrainError):
        OptimizerConfig(lr0=0.1, weight_decay=-1e-4)
    with pytest.raises(TrainError):
        OptimizerConfig(lr0=0.1, batch_size=0)


@pytest.mark.parametrize("field,make", [
    ("lr0", lambda v: OptimizerConfig(lr0=v)),
    ("weight_decay", lambda v: OptimizerConfig(lr0=0.1, weight_decay=v)),
    ("factor", lambda v: StepSchedule(10, factor=v, every=1)),
], ids=["lr0", "weight_decay", "factor"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
def test_non_finite_or_negative_settings_rejected(field, make, value):
    with pytest.raises(TrainError, match=f"^{field} "):
        make(value)


def test_cosine_endpoints_exact():
    s = CosineSchedule(90)
    lr0 = 0.3
    assert s.lr_at(lr0, 0) == lr0
    assert s.lr_at(lr0, 45) == 0.5 * lr0
    assert s.lr_at(lr0, 90) == 0.0


def test_cosine_monotone_non_increasing():
    s = CosineSchedule(200)
    values = [s.lr_at(1.0, i) for i in range(201)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_cosine_rejects_out_of_range():
    s = CosineSchedule(10)
    with pytest.raises(TrainError):
        s.lr_at(1.0, 11)
    with pytest.raises(TrainError):
        s.lr_at(1.0, -1)


def test_step_schedule_decays_by_factor():
    s = StepSchedule(90, factor=0.1, every=30)
    assert s.lr_at(1.0, 0) == 1.0
    assert s.lr_at(1.0, 29) == 1.0
    assert s.lr_at(1.0, 30) == pytest.approx(0.1)
    assert s.lr_at(1.0, 60) == pytest.approx(0.01)


def test_published_presets():
    im = OPTIMIZER_PRESETS["imagenet"]
    assert (im.lr0, im.momentum, im.nesterov, im.weight_decay, im.batch_size) \
        == (0.01, 0.9, True, 5e-4, 256)
    sg = OPTIMIZER_PRESETS["segmentation"]
    assert (sg.lr0, sg.momentum, sg.nesterov, sg.weight_decay, sg.batch_size) \
        == (2e-4, 0.95, False, 1e-4, 22)
