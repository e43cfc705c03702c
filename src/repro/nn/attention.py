"""Transformer building blocks for the tiny ViT model."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .layers import GELU, Dropout, LayerNorm, Linear, _default_rng
from .module import Module, Parameter
from .tensor import Tensor, softmax


class MultiHeadSelfAttention(Module):
    """Standard scaled-dot-product self-attention over (N, T, D) inputs."""

    def __init__(self, dim: int, num_heads: int, rng: Optional[np.random.Generator] = None):
        super().__init__()
        if dim % num_heads:
            raise ValueError(f"dim {dim} not divisible by num_heads {num_heads}")
        rng = _default_rng(rng)
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.qkv = Linear(dim, dim * 3, rng=rng)
        self.proj = Linear(dim, dim, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        n, t, d = x.shape
        h, hd = self.num_heads, self.head_dim
        qkv = self.qkv(x)  # (n, t, 3d)
        qkv = qkv.reshape(n, t, 3, h, hd).transpose(2, 0, 3, 1, 4)  # (3, n, h, t, hd)
        q, k, v = qkv[0], qkv[1], qkv[2]
        scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(hd))
        attn = softmax(scores, axis=-1)
        out = attn @ v  # (n, h, t, hd)
        out = out.transpose(0, 2, 1, 3).reshape(n, t, d)
        return self.proj(out)


class TransformerBlock(Module):
    """Pre-norm transformer encoder block (attention + MLP)."""

    def __init__(self, dim: int, num_heads: int, mlp_ratio: float = 4.0,
                 dropout: float = 0.0, rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = _default_rng(rng)
        hidden = int(dim * mlp_ratio)
        self.norm1 = LayerNorm(dim)
        self.attn = MultiHeadSelfAttention(dim, num_heads, rng=rng)
        self.norm2 = LayerNorm(dim)
        self.fc1 = Linear(dim, hidden, rng=rng)
        self.act = GELU()
        self.fc2 = Linear(hidden, dim, rng=rng)
        self.drop = Dropout(dropout, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        x = x + self.attn(self.norm1(x))
        x = x + self.drop(self.fc2(self.act(self.fc1(self.norm2(x)))))
        return x


class PatchEmbedding(Module):
    """Flattened-patch linear embedding, the ViT stem."""

    def __init__(self, image_size: int, patch_size: int, in_channels: int, dim: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if image_size % patch_size:
            raise ValueError("image size must be divisible by patch size")
        rng = _default_rng(rng)
        self.patch_size = patch_size
        self.num_patches = (image_size // patch_size) ** 2
        self.proj = Linear(in_channels * patch_size * patch_size, dim, rng=rng)
        self.pos = Parameter(rng.normal(0, 0.02, size=(1, self.num_patches + 1, dim)))
        self.cls_token = Parameter(np.zeros((1, 1, dim)))

    def forward(self, x: Tensor) -> Tensor:
        n, c, h, w = x.shape
        p = self.patch_size
        gh, gw = h // p, w // p
        # (n, c, gh, p, gw, p) -> (n, gh, gw, c, p, p) -> (n, gh*gw, c*p*p)
        x = x.reshape(n, c, gh, p, gw, p).transpose(0, 2, 4, 1, 3, 5)
        x = x.reshape(n, gh * gw, c * p * p)
        tokens = self.proj(x)  # (n, patches, dim)
        cls = Tensor(np.zeros((n, 1, tokens.shape[-1]),
                              self.cls_token.dtype)) + self.cls_token
        from .tensor import concat

        out = concat([cls, tokens], axis=1)
        return out + self.pos
