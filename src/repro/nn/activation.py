"""Elementwise activations."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.gpusim.trace import KernelLaunch, KernelTrace, LaunchKind
from repro.nn.context import ExecutionContext
from repro.nn.module import Module
from repro.sparse.tensor import SparseTensor


class ReLU(Module):
    """Rectified linear unit (bandwidth-bound elementwise pass)."""

    def __init__(self, label: Optional[str] = None):
        super().__init__()
        self.label = label or f"relu{id(self) % 10000}"
        self._saved: Optional[np.ndarray] = None

    def _charge(self, elements: int, ctx: ExecutionContext) -> None:
        bytes_ = float(ctx.precision.itemsize) * elements
        trace = KernelTrace()
        trace.add(
            KernelLaunch(
                name=f"{self.label}/relu",
                kind=LaunchKind.MEMORY,
                flops=float(elements),
                dram_read_bytes=bytes_,
                dram_write_bytes=bytes_,
                ctas=max(1, elements // 4096),
                overlapped=True,
            )
        )
        ctx.trace.extend(trace)

    def forward(self, x: SparseTensor, ctx: ExecutionContext) -> SparseTensor:
        self._charge(x.feats.size, ctx)
        ctx.observe("activation", self, x, x)
        if ctx.simulate_only:
            if self.training:
                self._saved = np.ones((1, 1), dtype=bool)  # broadcastable
            return x
        mask = x.feats > 0
        out = np.where(mask, x.feats, np.zeros((), dtype=x.feats.dtype))
        if self.training:
            self._saved = mask
        return x.with_feats(out)

    def backward(self, grad_out: np.ndarray, ctx: ExecutionContext) -> np.ndarray:
        if self._saved is None:
            raise RuntimeError(f"{self.label}: backward without forward")
        self._charge(grad_out.size, ctx)
        if ctx.simulate_only:
            return grad_out
        return np.where(self._saved, grad_out, np.zeros((), dtype=grad_out.dtype))
