"""Command-line front end.

Exit codes: 0 success, 1 validation error (bad flags, bad config,
digest mismatch), 2 IO error (missing or malformed files).
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import re
import sys

import numpy as np

from .analyzer import analyze, dump_activations, format_report, report_csv
from .arch import PRESETS, build_classifier, preset, toy_config
from .augment import AugmentConfig
from .data import (Dataset, SyntheticSpec, generate_synthetic, load_manifest,
                   normalize_image)
from .graph import NetworkGraph
from .io import DataError, write_pgm
from .metrics import (SCALE_PRESETS, EvalError, check_classes, evaluate,
                      format_metrics, metrics_csv, predict_labels)
from .optim import OptimizerConfig
from .runtime import Network
from .segment import SegmentationConfig, to_segmentation
from .training import TrainConfig, load_checkpoint, train

DATA_ROOT_VAR = "SUNET_DATA_ROOT"


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; here flags are validation errors."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _hw(text: str) -> tuple[int, int]:
    """N, HxW or H,W."""
    m = re.fullmatch(r"(\d+)(?:[x,](\d+))?", text.lower())
    hw = (int(m[1]), int(m[2] or m[1])) if m else None
    if hw is None or min(hw) < 1:
        raise argparse.ArgumentTypeError(f"bad size {text!r}")
    return hw


def _pair(conv, what):
    def parse(text: str):
        parts = text.split(",")
        if len(parts) != 2:
            raise argparse.ArgumentTypeError(f"bad {what} {text!r}")
        try:
            return (conv(parts[0]), conv(parts[1]))
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad {what} {text!r}")
    return parse


def _scales(text: str) -> tuple[float, ...]:
    if text in SCALE_PRESETS:
        return SCALE_PRESETS[text]
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError:
        names = ", ".join(sorted(SCALE_PRESETS))
        raise argparse.ArgumentTypeError(
            f"scales must be one of {names} or a comma list, got {text!r}")


def _load_graph(path: str) -> NetworkGraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return NetworkGraph.parse(fh.read())
    except FileNotFoundError:
        raise DataError(f"{path}: no such graph file")


def _config_from_args(args):
    if args.preset is not None:
        cfg = preset(args.preset)
    else:
        cfg = toy_config(args.toy, modules=tuple(args.modules))
    if args.classes is not None:
        cfg = dataclasses.replace(cfg, num_classes=args.classes)
    return cfg


def _graph_from_args(args) -> NetworkGraph:
    if getattr(args, "graph", None) is not None:
        return _load_graph(args.graph)
    hw = args.input_hw if args.input_hw is not None else (224, 224)
    return build_classifier(_config_from_args(args), input_hw=hw)


def _add_source_flags(p, with_graph=True):
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--preset", choices=sorted(PRESETS))
    g.add_argument("--toy", type=int, metavar="N",
                   help="toy config with base width N")
    if with_graph:
        g.add_argument("--graph", metavar="FILE",
                       help="load a serialized graph instead of building one")
    p.add_argument("--modules", type=_pair_modules, default=(1, 1, 1, 1),
                   metavar="A,B,C,D", help="modules per block for --toy")
    p.add_argument("--classes", type=int, default=None)
    p.add_argument("--input-hw", type=_hw, default=None, metavar="HxW")


def _pair_modules(text: str) -> tuple[int, ...]:
    try:
        vals = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad module counts {text!r}")
    if len(vals) != 4 or min(vals) < 1:
        raise argparse.ArgumentTypeError(f"bad module counts {text!r}")
    return vals


def _default_data(args) -> str:
    if args.data is not None:
        return args.data
    root = os.environ.get(DATA_ROOT_VAR)
    if not root:
        raise EvalError(
            f"no --data given and {DATA_ROOT_VAR} is not set")
    return os.path.join(root, "manifest.json")


def _network_from_files(args) -> Network:
    g = _load_graph(args.graph)
    net = Network(g)
    if getattr(args, "checkpoint", None):
        load_checkpoint(args.checkpoint, net)
    return net


# ---------------------------------------------------------------- commands

def _cmd_analyze(args) -> int:
    g = _graph_from_args(args)
    report = analyze(g, args.input_hw)
    sys.stdout.write(format_report(report))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(report_csv(report))
    return 0


def _cmd_build(args) -> int:
    g = _graph_from_args(args)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(g.serialize())
    print(f"wrote {args.out} (digest {g.digest[:12]})")
    return 0


def _cmd_convert(args) -> int:
    g = _graph_from_args(args)
    seg_classes = args.classes if args.classes is not None else 21
    cfg = SegmentationConfig(
        num_classes=seg_classes,
        output_stride=args.output_stride,
        multigrid=not args.strided,
        degridding=args.degridding,
        upsample_to_input=not args.no_upsample)
    seg = to_segmentation(g, cfg)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(seg.serialize())
        print(f"wrote {args.out} (digest {seg.digest[:12]})")
    else:
        sys.stdout.write(seg.serialize())
    return 0


def _cmd_train(args) -> int:
    g = _load_graph(args.graph)
    net = Network(g, seed=args.seed)
    if args.init:
        load_checkpoint(args.init, net)
    ds = Dataset(load_manifest(_default_data(args)))
    opt = OptimizerConfig(lr0=args.lr, momentum=args.momentum,
                          nesterov=args.nesterov,
                          weight_decay=args.weight_decay,
                          batch_size=args.batch_size)
    aug = None
    if not args.no_augment:
        # without --crop, samples take the extent of the dataset's first image
        crop = args.crop or (ds.images[0].shape[1:] if len(ds) else AugmentConfig.crop_hw)
        aug = AugmentConfig(crop_hw=crop, scale_range=args.scale_range,
                            max_rotate=args.max_rotate,
                            hflip_prob=args.hflip_prob)
    cfg = TrainConfig(iters=args.iters, optimizer=opt, schedule=args.schedule,
                      step_factor=args.step_factor, step_every=args.step_every,
                      augment=aug, seed=args.seed, bn_eval=args.bn_eval,
                      checkpoint_every=args.checkpoint_every)
    result = train(net, ds, cfg, out_dir=args.out)
    if result["rows"]:
        it, lr, loss = result["rows"][-1]
        print(f"iter {it}: lr {lr:.6g} loss {loss:.6g}")
    print(f"checkpoint: {result['checkpoint']}")
    return 0


def _cmd_eval(args) -> int:
    net = _network_from_files(args)
    ds = Dataset(load_manifest(_default_data(args)))
    result = evaluate(net, ds, scales=args.scales, flip=args.flip)
    sys.stdout.write(format_metrics(result))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(metrics_csv(result))
    return 0


def _cmd_infer(args) -> int:
    net = _network_from_files(args)
    ds = Dataset(load_manifest(_default_data(args)))
    check_classes(net, ds)
    os.makedirs(args.out, exist_ok=True)
    for i, img in enumerate(ds.images):
        pred = predict_labels(net, normalize_image(img),
                              scales=args.scales, flip=args.flip)
        write_pgm(os.path.join(args.out, f"pred_{i:05d}.pgm"), pred)
    print(f"wrote {len(ds)} predictions under {args.out}")
    return 0


def _cmd_dump_activations(args) -> int:
    net = _network_from_files(args)
    if args.image:
        from .io import read_ppm
        img = np.ascontiguousarray(read_ppm(args.image).transpose(2, 0, 1))
    else:
        ds = Dataset(load_manifest(_default_data(args)))
        if not 0 <= args.index < len(ds):
            raise EvalError(f"index {args.index} outside dataset of {len(ds)}")
        img = ds.images[args.index]
    records = dump_activations(net, normalize_image(img), args.out)
    print(f"wrote {len(records)} level maps under {args.out}")
    return 0


def _cmd_gen_data(args) -> int:
    spec = SyntheticSpec(canvas_hw=args.canvas, classes=args.classes,
                         shapes_per_image=args.shapes, noise=args.noise,
                         void_border=args.void_border, seed=args.seed)
    manifest = generate_synthetic(spec, args.count, args.out, split=args.split)
    print(f"wrote {len(manifest)} pairs under {args.out}")
    return 0


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="suncli", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("analyze", help="report shapes, params, rf per node")
    _add_source_flags(p)
    p.add_argument("--csv", metavar="FILE", help="also write per-node CSV")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("build", help="write a classifier graph file")
    _add_source_flags(p, with_graph=False)
    p.set_defaults(graph=None)
    p.add_argument("--out", "-o", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("convert", help="classifier graph to segmentation")
    _add_source_flags(p)
    p.add_argument("--output-stride", type=int, choices=(8, 16, 32),
                   default=16)
    p.add_argument("--strided", action="store_true",
                   help="uniform dilation instead of the multigrid layout")
    p.add_argument("--degridding", action="store_true")
    p.add_argument("--no-upsample", action="store_true",
                   help="keep logits at feature resolution")
    p.add_argument("--out", "-o", metavar="FILE",
                   help="write here instead of stdout")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("train", help="train a graph on a manifest")
    p.add_argument("--graph", required=True, metavar="FILE")
    p.add_argument("--data", metavar="MANIFEST",
                   help="defaults to $" + DATA_ROOT_VAR + "/manifest.json")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--init", metavar="CKPT", help="starting checkpoint")
    p.add_argument("--iters", type=int, required=True)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--lr", type=float, default=0.02)
    p.add_argument("--momentum", type=float, default=0.95)
    p.add_argument("--nesterov", action="store_true")
    p.add_argument("--weight-decay", type=float, default=1e-4)
    p.add_argument("--schedule", choices=("cosine", "step"), default="cosine")
    p.add_argument("--step-factor", type=float, default=0.1)
    p.add_argument("--step-every", type=int, default=0)
    p.add_argument("--crop", type=_hw, default=None, metavar="HxW",
                   help="sample extent; defaults to the first image's")
    p.add_argument("--scale-range", type=_pair(float, "scale range"),
                   default=(0.5, 2.0), metavar="LO,HI")
    p.add_argument("--max-rotate", type=float, default=10.0)
    p.add_argument("--hflip-prob", type=float, default=0.5)
    p.add_argument("--no-augment", action="store_true")
    p.add_argument("--bn-eval", action="store_true",
                   help="freeze BN running statistics")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checkpoint-every", type=int, default=0)
    p.set_defaults(func=_cmd_train)

    for name, fn in (("eval", _cmd_eval), ("infer", _cmd_infer)):
        p = sub.add_parser(name, help=f"{name} a checkpoint over a manifest")
        p.add_argument("--graph", required=True, metavar="FILE")
        p.add_argument("--checkpoint", required=True, metavar="CKPT")
        p.add_argument("--data", metavar="MANIFEST")
        p.add_argument("--scales", type=_scales, default=(1.0,),
                       help="preset name or comma list of factors")
        p.add_argument("--flip", action="store_true")
        if name == "eval":
            p.add_argument("--csv", metavar="FILE")
        else:
            p.add_argument("--out", required=True, metavar="DIR")
        p.set_defaults(func=fn)

    p = sub.add_parser("dump-activations",
                       help="write per-level activation rasters")
    p.add_argument("--graph", required=True, metavar="FILE")
    p.add_argument("--checkpoint", metavar="CKPT")
    p.add_argument("--image", metavar="PPM")
    p.add_argument("--data", metavar="MANIFEST")
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--out", required=True, metavar="DIR")
    p.set_defaults(func=_cmd_dump_activations)

    p = sub.add_parser("gen-data", help="generate a synthetic shape dataset")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--canvas", type=_hw, default=(96, 96), metavar="HxW")
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--shapes", type=_pair(int, "shape range"), default=(1, 3),
                   metavar="LO,HI")
    p.add_argument("--noise", type=float, default=8.0)
    p.add_argument("--void-border", type=int, default=2,
                   help="ignore-ring half-width along mask edges")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--split", default="train")
    p.set_defaults(func=_cmd_gen_data)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
