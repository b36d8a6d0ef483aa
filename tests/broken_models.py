"""Deliberately broken models for the static-analysis tests and CLI.

``BrokenSkipNet`` packs the three hazard classes the linter must catch in
one small network:

* the skip connection concatenates tensors on different coordinate
  strides (stride-2 encoder output with the stride-1 stem output) —
  ``stride-mismatch``, error;
* the interior width of 100 channels pads to 112 on the 16-wide
  tensor-core tile (10.7% padding waste) — ``tile-alignment``, warning;
* linted at FP32 with the default tensor-core schedule on a tensor-core
  device — ``dataflow-precision``, warning.
"""

from __future__ import annotations

from repro.nn.blocks import ConvBlock
from repro.nn.conv import SparseConv3d
from repro.nn.join import ConcatSkip
from repro.nn.module import Module


class BrokenSkipNet(Module):
    """Stem -> stride-2 down -> concat with the (stride-1!) stem output."""

    def __init__(self, seed: int = 0):
        super().__init__()
        self.stem = ConvBlock(4, 100, 3, label="stem", seed=seed)
        self.down = ConvBlock(
            100, 100, kernel_size=2, stride=2, label="down", seed=seed + 1
        )
        self.skip = ConcatSkip(label="skip")
        self.head = SparseConv3d(
            200, 19, kernel_size=1, label="head", seed=seed + 2
        )

    def forward(self, x, ctx):
        s = self.stem(x, ctx)
        d = self.down(s, ctx)
        # Bug under test: d is on stride 2, s on stride 1 — ConcatSkip
        # raises mid-batch.
        joined = self.skip.forward(d, s, ctx)
        return self.head(joined, ctx)


def build_broken() -> BrokenSkipNet:
    """Factory for ``python -m repro lint tests.broken_models:build_broken``."""
    return BrokenSkipNet()
