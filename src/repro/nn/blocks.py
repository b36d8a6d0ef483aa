"""Composite blocks: conv-bn-relu and residual blocks (MinkUNet units)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ShapeError
from repro.nn.activation import ReLU
from repro.nn.context import ExecutionContext
from repro.nn.conv import SparseConv3d
from repro.nn.module import Module
from repro.nn.norm import BatchNorm
from repro.nn.sequential import Sequential
from repro.sparse.tensor import SparseTensor


class ConvBlock(Sequential):
    """``SparseConv3d -> BatchNorm -> ReLU``."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        transposed: bool = False,
        label: str = "block",
        seed: int = 0,
    ):
        super().__init__(
            SparseConv3d(
                in_channels,
                out_channels,
                kernel_size,
                stride=stride,
                transposed=transposed,
                label=f"{label}.conv",
                seed=seed,
            ),
            BatchNorm(out_channels, label=f"{label}.bn"),
            ReLU(label=f"{label}.relu"),
        )


class ResidualBlock(Module):
    """Two 3x3x3 submanifold convolutions with an identity (or projected)
    skip connection — the repeating unit of MinkUNet encoders/decoders.

    Submanifold convolutions preserve coordinates, so the skip addition is
    an aligned elementwise add.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        label: str = "res",
        seed: int = 0,
    ):
        super().__init__()
        self.label = label
        self.conv1 = SparseConv3d(
            in_channels, out_channels, 3, label=f"{label}.conv1", seed=seed
        )
        self.bn1 = BatchNorm(out_channels, label=f"{label}.bn1")
        self.relu1 = ReLU(label=f"{label}.relu1")
        self.conv2 = SparseConv3d(
            out_channels, out_channels, 3, label=f"{label}.conv2", seed=seed + 1
        )
        self.bn2 = BatchNorm(out_channels, label=f"{label}.bn2")
        self.relu_out = ReLU(label=f"{label}.relu_out")
        if in_channels != out_channels:
            self.projection: Optional[Sequential] = Sequential(
                SparseConv3d(
                    in_channels, out_channels, 1,
                    label=f"{label}.proj", seed=seed + 2,
                ),
                BatchNorm(out_channels, label=f"{label}.proj_bn"),
            )
        else:
            self.projection = None

    def forward(self, x: SparseTensor, ctx: ExecutionContext) -> SparseTensor:
        identity = self.projection(x, ctx) if self.projection else x
        out = self.relu1(self.bn1(self.conv1(x, ctx), ctx), ctx)
        out = self.bn2(self.conv2(out, ctx), ctx)
        ctx.observe("join", self, "residual_add", out, identity)
        if (out.stride, out.num_channels) != (
            identity.stride, identity.num_channels
        ):
            raise ShapeError(
                f"{self.label}: cannot add a skip of stride {identity.stride}"
                f" and {identity.num_channels} channels to stride "
                f"{out.stride} and {out.num_channels} channels"
            )
        summed = out.with_feats(out.feats + identity.feats.astype(out.feats.dtype))
        return self.relu_out(summed, ctx)

    def backward(self, grad: np.ndarray, ctx: ExecutionContext) -> np.ndarray:
        grad = self.relu_out.backward(grad, ctx)
        grad_main = self.bn2.backward(grad, ctx)
        grad_main = self.conv2.backward(grad_main, ctx)
        grad_main = self.relu1.backward(grad_main, ctx)
        grad_main = self.bn1.backward(grad_main, ctx)
        grad_main = self.conv1.backward(grad_main, ctx)
        if self.projection:
            grad_skip = self.projection.backward(grad, ctx)
        else:
            grad_skip = grad
        return grad_main + grad_skip.astype(grad_main.dtype)
