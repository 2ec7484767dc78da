"""Self-test of the benchmark's correctness checks; runs in about a second.

Every check must accept a right output and reject a deliberately wrong
one. Also checks that BENCHMARK.json names exactly the metrics the
benchmark reports. Run from the root of a source checkout:

    python3 bench/selftest.py

Exits 0 when every case behaves, 1 otherwise.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile

import run

run.import_program()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sunet.io import read_checkpoint, write_checkpoint  # noqa: E402
from sunet.optim import TrainError  # noqa: E402
from sunet.metrics import ConfusionMatrix, miou, softmax_probs  # noqa: E402
from sunet.runtime import Network  # noqa: E402
from sunet.training import save_checkpoint  # noqa: E402

RESULTS: list[tuple[str, bool]] = []


def expect(name: str, problems, want_ok: bool) -> None:
    ok = not problems if isinstance(problems, list) else bool(problems)
    RESULTS.append((name, ok == want_ok))


def probabilities(rng) -> None:
    p = softmax_probs(rng.normal(size=(4, 16, 16)))
    expect("normalised probabilities pass", checks.probability_problems(p), True)
    expect("unnormalised probabilities fail", checks.probability_problems(1.1 * p), False)
    q = p.copy()
    q[0, 0, 0] += 0.5
    q[1, 0, 0] -= 0.5
    expect("negative probability fails", checks.probability_problems(q), False)
    q = p.copy()
    q[2, 3, 4] = np.nan
    expect("non-finite probability fails", checks.probability_problems(q), False)
    expect("mirrored prediction passes", checks.mirror_problems(p, p[:, :, ::-1]), True)
    expect("unmirrored prediction fails", checks.mirror_problems(p, p), False)


def confusion(rng) -> None:
    truths = [rng.integers(0, 4, size=(16, 16)) for _ in range(3)]
    truths[0][:2] = 255
    preds = [rng.integers(0, 4, size=(16, 16)) for _ in range(3)]
    cm = ConfusionMatrix(4)
    for t, p in zip(truths, preds):
        cm.update(t, p)
    args = (truths, preds, 4, 255)
    expect("confusion mIoU passes", checks.miou_problems(miou(cm)["miou"], *args), True)
    cm.counts[1, 2] += 3
    expect("perturbed confusion matrix fails",
           checks.miou_problems(miou(cm)["miou"], *args), False)


def losses() -> None:
    falling = [1.5 * 0.97 ** i for i in range(40)]
    expect("falling losses pass", checks.loss_problems(falling), True)
    expect("non-finite loss fails",
           checks.loss_problems(falling[:20] + [float("nan")] + falling[21:]), False)
    expect("infinite loss fails", checks.loss_problems(falling + [float("inf")]), False)
    expect("rising losses fail", checks.loss_problems(falling[::-1]), False)
    expect("flat losses fail", checks.loss_problems([0.7] * 40), False)


def reload(tmp: str) -> None:
    net = Network(workloads.seg_graph(16, (64, 64)), seed=0)
    workloads.seeded_state(net, 0)
    x = np.random.default_rng(1).normal(size=(1, 3, 64, 64)).astype(np.float32)
    path = os.path.join(tmp, "checkpoint.sunc")
    save_checkpoint(path, net)
    expect("reloaded checkpoint passes", checks.reload_problems(net, path, x), True)
    entries, iteration, digest = read_checkpoint(path)
    entries["param/cls.conv.w"] = entries["param/cls.conv.w"] + 1e-3
    write_checkpoint(path, entries, iteration=iteration, graph_digest=digest)
    expect("differing checkpoint fails", checks.reload_problems(net, path, x), False)
    entries, iteration, digest = read_checkpoint(path)
    entries["stat/b4.m1.bin.bn.running_var"] = entries["stat/b4.m1.bin.bn.running_var"] * 2
    write_checkpoint(path, entries, iteration=iteration, graph_digest=digest)
    expect("checkpoint with other BN statistics fails",
           checks.reload_problems(net, path, x), False)


def equivalence() -> None:
    expect("difference under the gate passes", checks.equivalence_holds(5e-7), True)
    expect("difference over the gate fails", checks.equivalence_holds(8.7e-3), False)
    expect("non-finite difference fails", checks.equivalence_holds(float("nan")), False)


def diverging_run(tmp: str) -> None:
    """A train() that raises on a non-finite loss makes a failed operation
    and an incorrect run, and the run still returns its result."""
    def diverge(*args, **kwargs):
        raise TrainError("non-finite loss nan at iteration 0")

    saved = (workloads.training.train, workloads.TRAIN_IMAGES,
             workloads.SETUP_REPEATS)
    workloads.training.train = diverge
    workloads.TRAIN_IMAGES, workloads.SETUP_REPEATS = 4, 1
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            res = workloads.Run(workloads.WORKLOADS["train-aug"], 0, 0.01,
                                os.path.join(tmp, "run")).execute()
    finally:
        (workloads.training.train, workloads.TRAIN_IMAGES,
         workloads.SETUP_REPEATS) = saved
    # the fresh weights pass the one equivalence pair, so only training fails
    RESULTS.append(("diverging training is one failed operation",
                    (res["attempted"], res["failed"], res["correct"]) == (2, 1, False)))


def benchmark_json() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    RESULTS.append(("BENCHMARK.json end-to-end metrics match",
                    e2e == workloads.END_TO_END_UNITS))
    RESULTS.append(("BENCHMARK.json per-layer metrics match",
                    layer == tracing.PER_LAYER_UNITS))
    RESULTS.append(("BENCHMARK.json workloads match",
                    [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)))


def main() -> int:
    rng = np.random.default_rng(0)
    os.makedirs(run.OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=run.OUT, prefix="selftest-")
    try:
        probabilities(rng)
        confusion(rng)
        losses()
        reload(tmp)
        equivalence()
        diverging_run(tmp)
        benchmark_json()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for name, ok in RESULTS:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    failed = sum(not ok for _, ok in RESULTS)
    print(f"{len(RESULTS) - failed} of {len(RESULTS)} cases behave")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
