"""Minimal numpy network engine for the bit-flip estimators."""

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .flops import attention_flops, encoder_layer_flops
from .layers import Dense, GRULayer, LayerNorm, Param
from .models import (
    RnnConfig,
    RnnEstimator,
    TransformerConfig,
    TransformerEstimator,
    approx_params_rnn,
    approx_params_transformer,
    build_rnn_estimator,
    build_transformer_estimator,
    count_params_rnn,
    count_params_transformer,
)
from .train import (
    TRAIN_SHARD_FRAMES,
    Adam,
    TrainingDiverged,
    bce_with_logits,
    train_step,
)

__all__ = [
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
    "approx_params_rnn",
    "approx_params_transformer",
    "attention_flops",
    "bce_with_logits",
    "build_rnn_estimator",
    "build_transformer_estimator",
    "count_params_rnn",
    "count_params_transformer",
    "encoder_layer_flops",
    "load_checkpoint",
    "save_checkpoint",
    "train_step",
]
