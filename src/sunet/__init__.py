"""Stacked u-net networks: a small tensor engine, graph builders for the
classification and segmentation variants, static analysis, and a
training/evaluation harness, all on numpy."""

from .analyzer import (analyze, count_layers, count_params, dump_activations,
                       format_report, fov, param_counts, receptive_field,
                       report_csv, spatial_trace)
from .arch import (PRESETS, BlockSpec, SUNetConfig, build_classifier, preset,
                   toy_config)
from .augment import AugmentConfig, augment_sample, resize_bilinear, sample_rng
from .data import (Dataset, DatasetManifest, SyntheticSpec, generate_synthetic,
                   load_manifest, normalize_image)
from .graph import GraphError, NetworkGraph
from .io import (DataError, read_checkpoint, read_pgm, read_ppm,
                 write_checkpoint, write_pgm, write_ppm)
from .metrics import (SCALE_PRESETS, ConfusionMatrix, EvalError, evaluate,
                      miou, multi_scale_inference, predict_labels)
from .optim import (OPTIMIZER_PRESETS, SGD, CosineSchedule, OptimizerConfig,
                    StepSchedule, TrainError)
from .runtime import Network, param_shapes
from .segment import (SegmentationConfig, atrous_equivalence_check,
                      copy_shared, to_segmentation)
from .tensor import EngineError, Tensor, gradcheck, no_grad
from .training import TrainConfig, load_checkpoint, save_checkpoint, train
from .unet import add_module, module_graph

__version__ = "0.1.0"

__all__ = [
    "AugmentConfig", "BlockSpec", "ConfusionMatrix", "CosineSchedule",
    "DataError", "Dataset", "DatasetManifest", "EngineError", "EvalError",
    "GraphError", "Network", "NetworkGraph", "OPTIMIZER_PRESETS",
    "OptimizerConfig", "PRESETS", "SCALE_PRESETS", "SGD", "SUNetConfig",
    "SegmentationConfig", "StepSchedule", "SyntheticSpec", "Tensor",
    "TrainConfig", "TrainError", "add_module", "analyze",
    "atrous_equivalence_check", "augment_sample", "build_classifier",
    "copy_shared", "count_layers", "count_params", "dump_activations",
    "evaluate", "format_report", "fov", "generate_synthetic", "gradcheck",
    "load_checkpoint", "load_manifest", "miou", "module_graph",
    "multi_scale_inference", "no_grad", "normalize_image", "param_counts",
    "param_shapes", "predict_labels", "preset", "read_checkpoint", "read_pgm",
    "read_ppm", "receptive_field", "report_csv", "resize_bilinear",
    "sample_rng", "save_checkpoint", "spatial_trace", "to_segmentation",
    "toy_config", "train", "write_checkpoint", "write_pgm", "write_ppm",
]
