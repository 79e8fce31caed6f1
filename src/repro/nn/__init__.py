"""Pure-numpy neural-network framework (train, compress, prune, quantize)."""

from .compress import (PAPER_BASE_SPEC, PAPER_COMPRESSED_SPEC,
                       PAPER_PRUNE_PARAMS, ArchitectureSpec, CompressionPoint,
                       SplitData, TrainedPair, default_layerwise_grid,
                       default_pruning_grid, evaluate_pair, layer_wise_sweep,
                       prune_and_finetune, pruning_sweep, train_pair)
from .flops import layer_flops, macs, model_flops
from .initializers import get_initializer, he_uniform, xavier_uniform
from .layers import Dense
from .losses import MeanSquaredError, SoftmaxCrossEntropy, softmax
from .metrics import accuracy, mape, within_one_accuracy
from .mlp import MLP
from .optim import Adam
from .prune import magnitude_prune, neuron_prune, prune_model
from .quant import (FixedPointFormat, QuantizationReport, choose_format,
                    quantize_model)
from .serialize import (load_model, model_from_arrays, model_from_bytes,
                        model_to_arrays, model_to_bytes, save_model)
from .trainer import (TrainConfig, TrainHistory, fit, train_classifier,
                      train_regressor)

__all__ = [
    "PAPER_BASE_SPEC", "PAPER_COMPRESSED_SPEC", "PAPER_PRUNE_PARAMS",
    "ArchitectureSpec", "CompressionPoint", "SplitData", "TrainedPair",
    "default_layerwise_grid", "default_pruning_grid", "evaluate_pair",
    "layer_wise_sweep", "prune_and_finetune", "pruning_sweep",
    "train_pair",
    "layer_flops", "macs", "model_flops",
    "get_initializer", "he_uniform", "xavier_uniform",
    "Dense",
    "MeanSquaredError", "SoftmaxCrossEntropy", "softmax",
    "accuracy", "mape",
    "within_one_accuracy",
    "MLP",
    "Adam",
    "magnitude_prune", "neuron_prune", "prune_model",
    "FixedPointFormat", "QuantizationReport", "choose_format",
    "quantize_model",
    "load_model", "model_from_arrays", "model_from_bytes",
    "model_to_arrays", "model_to_bytes", "save_model",
    "TrainConfig", "TrainHistory", "fit", "train_classifier",
    "train_regressor",
]
