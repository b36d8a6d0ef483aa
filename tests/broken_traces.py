"""Deliberately broken kernel traces for the dependence-analyzer tests.

Mirrors ``broken_models.py``: each fixture seeds one launch-level hazard
the depgraph analyzer must catch, starting from a *healthy* unfused
gather-GEMM-scatter trace (per offset: gather writes ``ws:gs_in.k``,
GEMM reads it and writes ``ws:gs_out.k``, scatter consumes that into the
accumulator):

* :func:`dropped_gather_trace` — the first gather launch is dropped, so
  its GEMM reads a workspace buffer no launch ever writes —
  ``uninitialized-read``;
* :func:`reordered_scatter_trace` — a scatter is hoisted above its GEMM,
  reading the staging buffer before its first write — ``raw-order``;
* :func:`leaked_staging_trace` — a scatter is dropped, leaving its
  GEMM's staging buffer written but never consumed —
  ``workspace-lifetime``.

``BrokenTraceNet`` wraps any of these in a model whose forward injects
the trace into the execution context, and the ``build_*`` factories make
them lintable from the CLI:
``python -m repro lint tests.broken_traces:build_dropped_gather``.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.trace import KernelTrace
from repro.kernels.gather_scatter import gather_gemm_scatter_trace
from repro.nn.module import Module
from repro.sparse.kmap import build_kernel_map


def healthy_trace(seed: int = 0) -> KernelTrace:
    """A clean unfused gather-GEMM-scatter trace over a small scene."""
    rng = np.random.default_rng(seed)
    spatial = rng.integers(0, 10, size=(200, 3))
    batch = np.zeros((200, 1), dtype=np.int64)
    coords = np.unique(
        np.concatenate([batch, spatial], axis=1).astype(np.int32), axis=0
    )
    kmap = build_kernel_map(coords, kernel_size=3)
    return gather_gemm_scatter_trace(kmap, c_in=8, c_out=16)


def _first_index(trace: KernelTrace, prefix: str) -> int:
    for i, launch in enumerate(trace):
        if launch.name.startswith(prefix):
            return i
    raise AssertionError(f"no launch named {prefix}* in trace")


def dropped_gather_trace(seed: int = 0) -> KernelTrace:
    """Drop the first gather: its GEMM reads an unwritten ``ws:`` buffer."""
    launches = list(healthy_trace(seed))
    del launches[_first_index(KernelTrace(launches), "gather/")]
    return KernelTrace(launches)


def reordered_scatter_trace(seed: int = 0) -> KernelTrace:
    """Hoist the first scatter above its GEMM: read-before-first-write."""
    launches = list(healthy_trace(seed))
    scatter = _first_index(KernelTrace(launches), "scatter/")
    gemm = _first_index(KernelTrace(launches), "gemm/")
    assert gemm < scatter
    launch = launches.pop(scatter)
    launches.insert(gemm, launch)
    return KernelTrace(launches)


def leaked_staging_trace(seed: int = 0) -> KernelTrace:
    """Drop the first scatter: its GEMM's staging output is never read."""
    launches = list(healthy_trace(seed))
    del launches[_first_index(KernelTrace(launches), "scatter/")]
    return KernelTrace(launches)


class BrokenTraceNet(Module):
    """A model whose forward charges a pre-built (broken) kernel trace."""

    def __init__(self, trace: KernelTrace):
        super().__init__()
        self.injected = trace

    def forward(self, x, ctx):
        ctx.trace.extend(self.injected)
        return x


def build_dropped_gather() -> BrokenTraceNet:
    return BrokenTraceNet(dropped_gather_trace())


def build_reordered_scatter() -> BrokenTraceNet:
    return BrokenTraceNet(reordered_scatter_trace())


def build_leaked_staging() -> BrokenTraceNet:
    return BrokenTraceNet(leaked_staging_trace())
