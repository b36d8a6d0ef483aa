"""Sparse 3-D convolution layer.

Supports submanifold convolution (stride 1: outputs coincide with inputs),
strided/generalized convolution (downsampling), transposed ("inverse")
convolution reusing the encoder's cached kernel map, and pointwise
(kernel size 1) convolution executed as a plain GEMM with no mapping cost.

The layer resolves its kernel map through the tensor's shared
:class:`~repro.sparse.tensor.MapCache`; a cache miss charges the mapping
cost to the execution trace.  In training mode the forward pass saves what
backward needs; :meth:`backward` runs the dgrad dataflow (forward dataflow
on the transposed map with transposed weights) and the wgrad kernel, each
under its own :class:`~repro.nn.context.Role` config — the axis the
training tuner exploits (Figure 13 / Figure 22).

:func:`pass_trace` is the one place a (kernel map, widths, config, role)
becomes launches, and :func:`conversion_trace` the one place the map
storage-order rule lives: the layer charges through them, and the tuners
price candidates through them, so a tuner scores a config exactly as
execution charges it (Section 4.2's end-to-end objective).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.errors import ConfigError, MapError
from repro.gpusim.trace import KernelTrace, scope_buffers
from repro.kernels.registry import Dataflow, run_dataflow, trace_dataflow
from repro.kernels.wgrad import wgrad as wgrad_kernel
from repro.kernels.wgrad import wgrad_trace
from repro.nn.context import ExecutionContext, LayerConfig, Role, Signature
from repro.nn.mapping_cost import map_build_trace, map_reorder_trace
from repro.nn.module import Module, Parameter
from repro.precision import Precision
from repro.sparse.hashmap import HashMapStats
from repro.sparse.kernel_offsets import kernel_volume, normalize_kernel_size
from repro.sparse.kmap import KernelMap, MapKey, build_kernel_map
from repro.sparse.tensor import SparseTensor


def _identity_kmap(tensor: SparseTensor) -> KernelMap:
    """Trivial map for pointwise convolution: every output is its input."""
    n = tensor.num_points
    return KernelMap(
        nbmap=np.arange(n, dtype=np.int32).reshape(n, 1),
        offsets=np.zeros((1, tensor.ndim), dtype=np.int32),
        num_inputs=n,
        out_coords=tensor.coords,
        build_stats=HashMapStats(),
        key=MapKey(
            kernel_size=(1,) * tensor.ndim,
            stride=(1,) * tensor.ndim,
            tensor_stride=tensor.stride,
        ),
        in_coords=tensor.coords,
    )


def backward_map(kmap: KernelMap) -> KernelMap:
    """The transposed map dgrad runs on, built once per forward map."""
    if "transposed" not in kmap.analysis_cache:
        kmap.analysis_cache["transposed"] = kmap.transposed()
    return kmap.analysis_cache["transposed"]


def _wgrad_options(config: LayerConfig) -> Dict[str, Any]:
    """wgrad kernel arguments: gathered operands for gather-scatter;
    sorted maps (re-sorted online unless hoisted offline) for sorted
    implicit GEMM."""
    ig = config.ig_config
    sorted_maps = config.dataflow is Dataflow.IMPLICIT_GEMM and ig.sort
    return dict(
        schedule=config.schedule,
        gathered=config.dataflow.value.startswith("gather"),
        online_reorder=sorted_maps and not ig.offline_reorder,
        sorted_maps=sorted_maps,
        tensor_cores=config.tensor_cores,
    )


def pass_trace(
    kmap: KernelMap,
    c_in: int,
    c_out: int,
    config: LayerConfig,
    role: Role = Role.FORWARD,
    precision: "Precision | str" = Precision.FP32,
    charge_mapping: bool = True,
) -> KernelTrace:
    """Launches of one pass of a convolution layer under ``config``.

    ``kmap``, ``c_in`` and ``c_out`` are the layer's forward map and
    widths: dgrad runs the forward dataflow on the transposed map with the
    widths swapped, wgrad its own kernel on the forward map.
    ``charge_mapping=False`` omits the sort/reorder launches of a map an
    earlier layer already prepared.
    """
    precision = Precision.parse(precision)
    if role is Role.WGRAD:
        return wgrad_trace(
            kmap, c_in, c_out, precision=precision, **_wgrad_options(config)
        )
    if role is Role.DGRAD:
        kmap, c_in, c_out = backward_map(kmap), c_out, c_in
    return trace_dataflow(
        config.dataflow, kmap, c_in, c_out, schedule=config.schedule,
        precision=precision, ig_config=config.ig_config,
        tensor_cores=config.tensor_cores, charge_mapping=charge_mapping,
        gs_chunks=config.gs_chunks,
    )


def _converts(kmap: KernelMap, config: LayerConfig) -> bool:
    weight_stationary = config.dataflow.weight_stationary
    return kmap.volume > 1 and weight_stationary != kmap.native_weight_stationary


def conversion_trace(
    kmap: KernelMap, config: LayerConfig, name: str = "map"
) -> Optional[KernelTrace]:
    """The map restructure pass ``config`` needs on ``kmap``, or ``None``.

    Weight-stationary dataflows on hash-built (output-stationary) maps and
    implicit GEMM on transposed (weight-stationary) maps both pay one
    reordering pass — the asymmetry behind Figure 18's per-group dataflow
    choices.  Pointwise maps have no structure to convert.
    """
    return map_reorder_trace(kmap, name) if _converts(kmap, config) else None


def backward_prep_trace(kmap: KernelMap, name: str = "bwd_prep") -> KernelTrace:
    """One backward map preparation (Figure 13's binding penalty)."""
    return map_reorder_trace(kmap, name)


class SparseConv3d(Module):
    """Sparse convolution over a :class:`SparseTensor`.

    Args:
        in_channels / out_channels: feature widths.
        kernel_size: scalar or per-dimension ``K``.
        stride: convolution stride; with ``transposed=True`` this is the
            upsampling factor instead.
        transposed: inverse convolution — requires that the matching
            downsampling convolution ran earlier on the same map cache
            (standard U-Net usage).
        bias: add a learned per-channel bias.
        label: name used to prefix this layer's trace launches.
        seed: weight initialisation seed.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: "int | Tuple[int, ...]" = 3,
        stride: int = 1,
        transposed: bool = False,
        bias: bool = False,
        label: Optional[str] = None,
        seed: int = 0,
        ndim: int = 3,
    ):
        super().__init__()
        if in_channels < 1 or out_channels < 1:
            raise ConfigError("channel counts must be >= 1")
        if transposed and stride == 1:
            raise ConfigError("transposed convolution requires stride > 1")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.ndim = ndim
        self.kernel_size = normalize_kernel_size(kernel_size, ndim)
        self.stride = normalize_kernel_size(stride, ndim)
        self.transposed = transposed
        self.label = label or f"conv{id(self) % 10000}"
        volume = kernel_volume(self.kernel_size, ndim)
        rng = np.random.default_rng(seed)
        std = math.sqrt(2.0 / (volume * in_channels))
        self.weight = Parameter(
            rng.standard_normal((volume, in_channels, out_channels)) * std
        )
        self.bias = Parameter(np.zeros(out_channels)) if bias else None
        self._saved: Optional[dict] = None

    # ------------------------------------------------------------------ #
    @property
    def volume(self) -> int:
        return self.weight.shape[0]

    @property
    def is_pointwise(self) -> bool:
        return all(k == 1 for k in self.kernel_size) and all(
            s == 1 for s in self.stride
        )

    def signature(self, tensor_stride: Tuple[int, ...]) -> Signature:
        """The layer's map signature = its autotuner group identity."""
        return (tensor_stride, self.kernel_size, self.stride, self.transposed)

    # ------------------------------------------------------------------ #
    def _resolve_kmap(
        self, x: SparseTensor, ctx: ExecutionContext
    ) -> Tuple[KernelMap, Tuple[int, ...]]:
        """Fetch or build the kernel map; charges build cost on miss."""
        if self.is_pointwise:
            key = (x.stride, (1,) * self.ndim, (1,) * self.ndim, False)
            kmap = x.cache.get(key)
            if kmap is None:
                kmap = x.cache.put(key, _identity_kmap(x))
            return kmap, x.stride

        if not self.transposed:
            out_stride = tuple(
                t * s for t, s in zip(x.stride, self.stride)
            )
            key = (x.stride, self.kernel_size, self.stride, False)
            kmap = x.cache.get(key)
            ctx.observe(
                "map", self, x, key, "build" if kmap is None else "hit"
            )
            if kmap is None:
                kmap = build_kernel_map(
                    x.coords,
                    kernel_size=self.kernel_size,
                    stride=self.stride,
                    tensor_stride=x.stride,
                )
                x.cache.put(key, kmap)
            # Build cost is charged once per map per context: a fresh
            # context models a fresh engine run even when the Python-level
            # map cache is retained across runs for wall-clock efficiency.
            if ctx.charge_once((id(kmap), "build")):
                build = map_build_trace(kmap, f"{self.label}/map")
                if ctx.map_cost_scale != 1.0:
                    for launch in build:
                        launch.scalar_ops *= ctx.map_cost_scale
                        launch.dram_read_bytes *= ctx.map_cost_scale
                        launch.dram_write_bytes *= ctx.map_cost_scale
                ctx.trace.extend(build)
            return kmap, out_stride

        # Transposed: reuse the map built by the matching downsample conv.
        out_stride = tuple(t // s for t, s in zip(x.stride, self.stride))
        t_key = (x.stride, self.kernel_size, self.stride, True)
        if any(t % s for t, s in zip(x.stride, self.stride)):
            ctx.observe("map", self, x, t_key, "bad_upsample")
            raise ConfigError(
                f"cannot upsample stride {x.stride} by {self.stride}"
            )
        kmap = x.cache.get(t_key)
        if kmap is not None:
            ctx.observe("map", self, x, t_key, "hit")
        else:
            base_key = (out_stride, self.kernel_size, self.stride, False)
            base = x.cache.get(base_key)
            if base is None:
                ctx.observe("map", self, x, t_key, "missing_forward_map")
                raise MapError(
                    f"{self.label}: transposed convolution found no cached "
                    f"map for {base_key}; run the matching downsample first"
                )
            ctx.observe("map", self, x, t_key, "transposed_reuse")
            kmap = base.transposed()
            x.cache.put(t_key, kmap)
            # Transposition reuses the stored pairs; only a relabeling pass
            # is charged (already near-free, covered by the cached stats).
        return kmap, out_stride

    def _run(
        self,
        feats: np.ndarray,
        weights: np.ndarray,
        kmap: KernelMap,
        config: LayerConfig,
        ctx: ExecutionContext,
        role: Role,
    ) -> np.ndarray:
        """One forward or dgrad pass; ``kmap`` is the layer's forward map
        and ``weights`` the operand of this pass (transposed for dgrad)."""
        run_kmap = backward_map(kmap) if role is Role.DGRAD else kmap
        if ctx.adaptive_tiling:
            from repro.codegen.tiling import adaptive_schedule

            _, k_in, k_out = weights.shape
            schedule = adaptive_schedule(
                float(run_kmap.total_pairs) * k_in * k_out,
                base=config.schedule,
                shape=(run_kmap.num_outputs, k_out, run_kmap.volume * k_in),
                device=ctx.device,
            )
            config = dataclasses.replace(config, schedule=schedule)
        # Sorting/reordering happens once per (map, config) and is reused
        # by every other layer in the group (Section 4.2): charge it on
        # first use only (per context — see MapCache note in _resolve_kmap).
        charge_mapping = ctx.charge_once(
            (id(run_kmap), "reorder", config.dataflow, config.ig_config)
        )

        if ctx.simulate_only:
            out = np.zeros(
                (run_kmap.num_outputs, weights.shape[2]),
                dtype=ctx.precision.dtype,
            )
            trace = pass_trace(
                kmap, self.in_channels, self.out_channels, config, role,
                ctx.precision, charge_mapping,
            )
        else:
            out, trace = run_dataflow(
                config.dataflow,
                feats,
                weights,
                run_kmap,
                schedule=config.schedule,
                precision=ctx.precision,
                ig_config=config.ig_config,
                tensor_cores=config.tensor_cores,
                gs_chunks=config.gs_chunks,
                charge_mapping=charge_mapping,
            )
        tag = "fwd" if role is Role.FORWARD else "dgrad"
        for launch in trace:
            launch.name = f"{self.label}/{tag}:{launch.name}"
        # Namespace buffer ids per layer and pass; forward passes splice
        # their input-feature reads onto the previous layer's output buffer
        # so consecutive convolutions are chained by real RAW edges.
        prefix = f"{self.label}/{tag}"
        renames = {}
        if tag == "fwd" and ctx.feature_buffer is not None:
            renames["ext:feats_in"] = ctx.feature_buffer
        scope_buffers(trace, prefix, renames)
        if tag == "fwd":
            ctx.feature_buffer = f"ext:{prefix}:feats_out"
        ctx.trace.extend(trace)
        return out

    # ------------------------------------------------------------------ #
    def forward(self, x: SparseTensor, ctx: ExecutionContext) -> SparseTensor:
        self.check_channels(x, self.in_channels, ctx)
        kmap, out_stride = self._resolve_kmap(x, ctx)
        signature = self.signature(x.stride)
        if ctx.recorder is not None:
            ctx.recorder(
                signature=signature,
                kmap=kmap,
                c_in=self.in_channels,
                c_out=self.out_channels,
                label=self.label,
            )
        config = ctx.config(signature, Role.FORWARD)
        self._mark_structure(kmap, config, ctx)
        out_feats = self._run(
            x.feats, self.weight.data, kmap, config, ctx, Role.FORWARD
        )
        if self.bias is not None:
            out_feats = out_feats + self.bias.data.astype(out_feats.dtype)
        if self.training:
            self._saved = {
                "feats": x.feats,
                "kmap": kmap,
                "signature": signature,
            }
        out = SparseTensor(
            kmap.out_coords, out_feats, stride=out_stride, cache=x.cache
        )
        ctx.observe("conv", self, x, out)
        return out

    def _mark_structure(
        self, kmap: KernelMap, config: LayerConfig, ctx: ExecutionContext
    ) -> None:
        """Charge a map-restructure pass the first time a map is needed in
        a storage order it was not built in (Section 4.2: maps are stored
        weight- or output-stationary and converting costs real time — the
        reason intra-group heterogeneous dataflows are not allowed)."""
        if _converts(kmap, config) and ctx.charge_once(
            (id(kmap), "structure", config.dataflow.weight_stationary)
        ):
            ctx.trace.extend(map_reorder_trace(kmap, f"{self.label}/map"))

    def _charge_backward_prep(
        self, kmap: KernelMap, config: LayerConfig, ctx: ExecutionContext
    ) -> None:
        """Charge backward map preparation once per distinct backward
        config (Figure 13): dgrad and wgrad share the same maps, so when
        the training tuner binds them (sparse-mapping oriented scheme) the
        backward pass prepares maps once; decoupled configs pay twice."""
        key = (id(kmap), "bwd_prep", config.dataflow, config.ig_config,
               config.schedule.tile_m)
        if not ctx.charge_once(key):
            return
        if ctx.charge_once((id(kmap), "bwd_prep_any")):
            return  # dgrad's own trace already charges its preparation
        ctx.trace.extend(backward_prep_trace(kmap, f"{self.label}/bwd_map"))

    def backward(self, grad_out: np.ndarray, ctx: ExecutionContext) -> np.ndarray:
        """Compute input gradients; accumulates weight/bias gradients."""
        if self._saved is None:
            raise RuntimeError(
                f"{self.label}: backward called without a training forward"
            )
        feats = self._saved["feats"]
        kmap: KernelMap = self._saved["kmap"]
        signature = self._saved["signature"]

        # dgrad: forward dataflow on the transposed map with W^T per offset.
        dgrad_cfg = ctx.config(signature, Role.DGRAD)
        self._charge_backward_prep(kmap, dgrad_cfg, ctx)
        w_t = np.ascontiguousarray(self.weight.data.transpose(0, 2, 1))
        grad_in = self._run(grad_out, w_t, kmap, dgrad_cfg, ctx, Role.DGRAD)

        # wgrad under its own config.
        wgrad_cfg = ctx.config(signature, Role.WGRAD)
        self._charge_backward_prep(kmap, wgrad_cfg, ctx)
        if ctx.simulate_only:
            grad_w = np.zeros_like(self.weight.data)
            trace = pass_trace(
                kmap, self.in_channels, self.out_channels, wgrad_cfg,
                Role.WGRAD, ctx.precision,
            )
        else:
            grad_w, trace = wgrad_kernel(
                feats,
                grad_out,
                kmap,
                precision=ctx.precision,
                **_wgrad_options(wgrad_cfg),
            )
        for launch in trace:
            launch.name = f"{self.label}/wgrad:{launch.name}"
        scope_buffers(trace, f"{self.label}/wgrad")
        ctx.trace.extend(trace)
        self.weight.accumulate(grad_w)
        if self.bias is not None:
            self.bias.accumulate(grad_out.sum(axis=0))
        return grad_in
