"""Parameter-efficient image-to-video transfer with conv-carrying
bottleneck adapters, built on a small self-contained autodiff engine."""

from .adapter import AdapterWeights, apply_adapter, dilation_rates, grid_to_tokens, tokens_to_grid
from .backbone import VideoViT, embed_tokens, mhsa, patchify_clips, temporal_average_pool
from .checkpoint import load_checkpoint, save_checkpoint
from .config import (AdapterConfig, ExperimentConfig, ModelConfig, TrainConfig,
                     count_tunable_params, derive_bottleneck_width, load_experiment_config,
                     parameter_layout)
from .data import VideoBatch, synth_dataset
from .gradcheck import gradcheck_model
from .metrics import MetricsReport, uar_war
from .tensor import Tensor, backward, depthwise_conv3d, finite_difference_gradient
from .training import (AdamW, FreezePlan, apply_freeze, cosine_lr, evaluate_model,
                       frozen_digest, train)

__version__ = "0.1.0"

__all__ = [
    "AdamW", "AdapterConfig", "AdapterWeights", "ExperimentConfig", "FreezePlan",
    "MetricsReport", "ModelConfig", "Tensor", "TrainConfig", "VideoBatch", "VideoViT",
    "apply_adapter", "apply_freeze", "backward", "cosine_lr",
    "count_tunable_params", "depthwise_conv3d", "derive_bottleneck_width",
    "dilation_rates", "embed_tokens", "evaluate_model",
    "finite_difference_gradient", "frozen_digest", "gradcheck_model", "grid_to_tokens",
    "load_checkpoint", "load_experiment_config", "mhsa", "parameter_layout",
    "patchify_clips", "save_checkpoint", "synth_dataset",
    "temporal_average_pool", "tokens_to_grid", "train", "uar_war",
]
