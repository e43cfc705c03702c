"""``repro.nn`` — a from-scratch numpy deep-learning substrate.

Exposes a PyTorch-flavoured API: :class:`Tensor` autograd, :class:`Module`
layers, optimisers, and losses.  This is the execution engine underneath the
NDPipe model zoo and the FT-DMP training strategy.
"""

from .attention import MultiHeadSelfAttention, PatchEmbedding, TransformerBlock
from .functional import (
    avg_pool2d,
    col2im,
    conv2d,
    conv_output_size,
    global_avg_pool2d,
    im2col,
    max_pool2d,
)
from .layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    GELU,
    GlobalAvgPool2d,
    Identity,
    LayerNorm,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
)
from .losses import accuracy, cross_entropy, topk_accuracy
from .module import Module, Parameter
from .optim import SGD, Adam, Optimizer
from .tensor import (
    Tensor,
    concat,
    gelu,
    grad_enabled,
    inference_mode,
    log_softmax,
    no_grad,
    softmax,
    stack,
    where,
)

__all__ = [
    "Tensor", "concat", "stack", "softmax", "log_softmax", "where", "gelu",
    "no_grad", "grad_enabled", "inference_mode",
    "Module", "Parameter",
    "Linear", "Conv2d", "BatchNorm2d", "LayerNorm", "ReLU", "GELU",
    "MaxPool2d", "AvgPool2d", "GlobalAvgPool2d", "Dropout",
    "Sequential", "Identity",
    "MultiHeadSelfAttention", "TransformerBlock", "PatchEmbedding",
    "SGD", "Adam", "Optimizer",
    "cross_entropy", "accuracy", "topk_accuracy",
    "conv2d", "max_pool2d", "avg_pool2d", "global_avg_pool2d",
    "im2col", "col2im", "conv_output_size",
]
