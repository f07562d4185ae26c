"""Minimal numpy network engine for the bit-flip estimators."""

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .flops import attention_flops, encoder_layer_flops
from .layers import Dense, GRULayer, LayerNorm, Param
from .models import (
    ARCHS,
    RnnConfig,
    RnnEstimator,
    TransformerConfig,
    TransformerEstimator,
    build_estimator,
    build_transformer_estimator,
)
from .train import (
    TRAIN_SHARD_FRAMES,
    Adam,
    TrainingDiverged,
    bce_with_logits,
    train_step,
)

__all__ = [
    "ARCHS",
    "TRAIN_SHARD_FRAMES",
    "Adam",
    "CheckpointError",
    "Dense",
    "GRULayer",
    "LayerNorm",
    "Param",
    "RnnConfig",
    "RnnEstimator",
    "TrainingDiverged",
    "TransformerConfig",
    "TransformerEstimator",
    "attention_flops",
    "bce_with_logits",
    "build_estimator",
    "build_transformer_estimator",
    "encoder_layer_flops",
    "load_checkpoint",
    "save_checkpoint",
    "train_step",
]
