from . import tensor
from .checkpoint import load_checkpoint, save_checkpoint
from .layers import (
    AttentionCounter,
    Embedding,
    Encoder,
    EncoderLayer,
    FeedForward,
    LayerNorm,
    Linear,
    Module,
    MultiHeadSelfAttention,
    TaskHead,
)
from .optim import Adam
from .tensor import Tensor, cross_entropy, mse

__all__ = [
    "Adam",
    "AttentionCounter",
    "Embedding",
    "Encoder",
    "EncoderLayer",
    "FeedForward",
    "LayerNorm",
    "Linear",
    "Module",
    "MultiHeadSelfAttention",
    "TaskHead",
    "Tensor",
    "cross_entropy",
    "load_checkpoint",
    "mse",
    "save_checkpoint",
    "tensor",
]
