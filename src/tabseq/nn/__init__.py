from . import tensor
from .checkpoint import load_checkpoint, save_checkpoint
from .gradcheck import grad_check
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
from .optim import Adam, AdamState, adam_step
from .tensor import Tensor, cross_entropy, default_dtype, mse, set_default_dtype

__all__ = [
    "Adam",
    "AdamState",
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
    "adam_step",
    "cross_entropy",
    "default_dtype",
    "grad_check",
    "load_checkpoint",
    "mse",
    "save_checkpoint",
    "set_default_dtype",
    "tensor",
]
