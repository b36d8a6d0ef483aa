"""Surrogate cost model: predict per-layer latency without building a trace.

The group tuner's objective is end-to-end simulated latency, but producing
it means constructing a full :class:`~repro.gpusim.trace.KernelTrace` —
per-offset pair lists, bitmask sorts, staging buffers — for *every*
candidate of every group.  At serving time that cost lands on the
admission path.  The surrogate replaces it with a cheap analytic feature
map plus fitted linear coefficients:

* **features** are closed-form micro-second-scale estimates computed from
  aggregate sparsity statistics only (point counts, total pairs, kernel
  volume — never per-element map data): GEMM pipe time, DRAM time, scalar
  (addressing) time, launch overhead, map-build cost, and tile-padding
  waste — the same quantities the gpusim latency model charges;
* **coefficients** are fitted per dataflow family with non-negative least
  squares against real ``estimate_trace_us`` targets on a seeded workload
  grid.  Non-negativity makes the prediction monotone in every feature —
  more flops or more bytes never predicts *faster* — which downstream
  pruning relies on.

``SurrogateModel.analytic()`` is the coefficient-free prior (all ones):
each feature already estimates microseconds, so the unfitted model is a
usable — if less calibrated — ranking function for cold starts.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigError
from repro.gpusim.engine import estimate_trace_us
from repro.hw.specs import DeviceSpec, get_device
from repro.kernels.base import gemm_efficiency
from repro.kernels.registry import Dataflow
from repro.nn.context import LayerConfig, Role
from repro.nn.conv import pass_trace
from repro.precision import Precision
from repro.sparse.kmap import KernelMap

#: Coefficient-file layout version.
SCHEMA_VERSION = 1

#: Feature names, in vector order.
FEATURE_NAMES: Tuple[str, ...] = (
    "gemm_us",      # main-pipe matrix math
    "mem_us",       # plain + atomic DRAM traffic
    "scalar_us",    # addressing / boundary / probe integer ops
    "launch_us",    # fixed per-launch host overhead
    "map_us",       # kernel-map construction + sort/reorder
    "pad_us",       # tile-quantization padding waste
    "overlap_us",   # multi-stream overlap credit (negative; 0 at 1 stream)
)

#: Scalar ops charged per hash probe / gathered element (mirrors
#: :mod:`repro.nn.mapping_cost` constants at feature granularity).
_OPS_PER_PROBE = 24.0
_BYTES_PER_PROBE = 96.0
_GATHER_OPS_PER_ELEMENT = 4.0


@dataclasses.dataclass(frozen=True)
class LayerShape:
    """Aggregate statistics of one layer workload (device independent).

    Everything the surrogate is allowed to know about a layer: counts and
    densities, never the map contents.  ``from_kmap`` extracts them from a
    built map; serving-time callers may construct them from cached stats.
    """

    num_inputs: int
    num_outputs: int
    volume: int
    total_pairs: int
    c_in: int
    c_out: int

    @classmethod
    def from_kmap(cls, kmap: KernelMap, c_in: int, c_out: int) -> "LayerShape":
        return cls(
            num_inputs=int(kmap.num_inputs),
            num_outputs=int(kmap.num_outputs),
            volume=int(kmap.volume),
            total_pairs=int(kmap.total_pairs),
            c_in=int(c_in),
            c_out=int(c_out),
        )

    @property
    def mean_neighbors(self) -> float:
        if self.num_outputs == 0:
            return 0.0
        return self.total_pairs / self.num_outputs

    def scaled(self, factor: float) -> "LayerShape":
        """Shape with all extents scaled (monotonicity property tests)."""
        return LayerShape(
            num_inputs=max(1, int(self.num_inputs * factor)),
            num_outputs=max(1, int(self.num_outputs * factor)),
            volume=self.volume,
            total_pairs=max(1, int(self.total_pairs * factor)),
            c_in=self.c_in,
            c_out=self.c_out,
        )


def family_of(config: LayerConfig) -> str:
    """Coefficient family a config belongs to.

    One family per ``(dataflow, sorted-or-not, tile)``: those axes change
    the *shape* of the cost function (which launches exist, how padding
    scales), so each gets its own linear fit; the remaining axes (splits,
    chunks, channels, scene scale) vary smoothly within a family and are
    carried by the features.
    """
    family = str(config.dataflow.value)
    if config.dataflow is Dataflow.IMPLICIT_GEMM:
        family += ":sorted" if config.ig_config.sort else ":unsorted"
    sched = config.schedule
    return f"{family}:t{sched.tile_m}x{sched.tile_n}x{sched.tile_k}"


def layer_features(
    shape: LayerShape,
    config: LayerConfig,
    device: Union[DeviceSpec, str],
    precision: Union[Precision, str],
    charge_mapping: bool = True,
    streams: int = 1,
) -> Tuple[float, ...]:
    """Closed-form feature vector for one (layer, config, device) point.

    Every feature is an optimistic analytic time estimate in microseconds;
    the fitted coefficients absorb what the closed forms miss (wave
    quantization, bandwidth derating, atomic serialization).  Cost is a
    handful of scalar ops — no trace, no per-element work.

    ``streams > 1`` activates the ``overlap_us`` feature: a *negative*
    analytic credit for the mapping work and launch overhead a
    multi-stream schedule hides behind neighbouring compute.  The feature
    is identically 0.0 at one stream, so single-stream fits and
    predictions are unaffected; non-negative coefficients keep the
    prediction monotone (more streams never predicts slower).
    """
    spec = get_device(device)
    precision = Precision.parse(precision)
    itemsize = float(precision.itemsize)
    sched = config.schedule
    pairs = float(max(shape.total_pairs, 1))
    n_out = float(max(shape.num_outputs, 1))
    n_in = float(max(shape.num_inputs, 1))
    volume = float(max(shape.volume, 1))
    c_in = float(shape.c_in)
    c_out = float(shape.c_out)
    useful_macs = pairs * c_in * c_out

    tflops = spec.gemm_tflops(precision, config.tensor_cores)
    int_gops = spec.int_giops * 1e3  # ops/us
    bw = spec.dram_bw_gbps * 1e3     # bytes/us
    dataflow = config.dataflow

    if dataflow is Dataflow.IMPLICIT_GEMM:
        rows_padded = math.ceil(n_out / sched.tile_m) * sched.tile_m
        dense_macs = rows_padded * volume * c_in * c_out
        if config.ig_config.sort:
            # Sorting + s-way mask splits close a fraction of the gap
            # between useful and dense work (Figures 10/11).
            splits = float(config.ig_config.num_splits)
            issued = useful_macs + (dense_macs - useful_macs) / (splits + 1.0)
        else:
            issued = dense_macs
        eff = gemm_efficiency(
            int(n_out), shape.c_out, shape.volume * shape.c_in, sched
        )
        gemm_us = 2.0 * issued / (tflops * 1e6 * eff)
        a_elements = issued / max(c_out, 1.0)
        mem_bytes = itemsize * (
            a_elements + volume * c_in * c_out + n_out * c_out
        )
        scalar_us = (
            (sched.address_ops_per_element + sched.boundary_ops_per_element)
            * a_elements
            / int_gops
        )
        launches = 1.0
        if config.ig_config.sort and shape.volume > 1:
            launches += 3.0  # bitmask + sort + reorder pipeline
            if config.ig_config.num_splits > 1:
                launches += 1.0  # partial-sum reduction
        pad_macs = max(issued - useful_macs, 0.0)
        pad_us = 2.0 * pad_macs / (tflops * 1e6)
    elif dataflow in (Dataflow.GATHER_SCATTER, Dataflow.GATHER_SCATTER_FUSED):
        chunks = float(max(config.gs_chunks, 1))
        # V per-offset GEMMs of average size (P/V, C_in) x (C_in, C_out),
        # each padded to the tile grid.
        rows_per_offset = pairs / volume
        eff = gemm_efficiency(
            max(int(rows_per_offset), 1), shape.c_out, shape.c_in, sched
        )
        gemm_us = 2.0 * useful_macs / (tflops * 1e6 * eff)
        # gather read+write, GEMM read+write, scatter read+write.
        mem_bytes = itemsize * (
            3.0 * pairs * c_in
            + 2.0 * pairs * c_out
            + n_out * c_out
            + volume * c_in * c_out
        )
        scalar_us = _GATHER_OPS_PER_ELEMENT * pairs * (c_in + c_out) / int_gops
        fused = dataflow is Dataflow.GATHER_SCATTER_FUSED
        launches = (1.0 if fused else 3.0) * chunks
        pad_rows = volume * sched.tile_m / 2.0
        pad_us = 2.0 * pad_rows * c_in * c_out / (tflops * 1e6)
    elif dataflow in (Dataflow.FETCH_ON_DEMAND, Dataflow.FETCH_ON_DEMAND_UNFUSED):
        rows_per_offset = pairs / volume
        eff = gemm_efficiency(
            max(int(rows_per_offset), 1), shape.c_out, shape.c_in, sched
        )
        gemm_us = 2.0 * useful_macs / (tflops * 1e6 * eff)
        # On-demand fetches skip staging but pay atomic write-back,
        # serialized on conflicts.
        mem_bytes = itemsize * (
            pairs * c_in
            + pairs * c_out * spec.atomic_serialization
            + volume * c_in * c_out
        )
        scalar_us = 2.0 * _GATHER_OPS_PER_ELEMENT * pairs / int_gops
        fused = dataflow is Dataflow.FETCH_ON_DEMAND
        launches = 1.0 if fused else float(shape.volume)
        pad_rows = volume * sched.tile_m / 2.0
        pad_us = 2.0 * pad_rows * c_in * c_out / (tflops * 1e6)
    else:  # pragma: no cover - exhaustive over Dataflow
        raise ConfigError(f"unknown dataflow {dataflow!r}")

    mem_us = mem_bytes / bw
    launch_us = launches * spec.kernel_launch_us
    if charge_mapping:
        probes = n_in + n_out * volume
        map_us = (
            _OPS_PER_PROBE * probes / int_gops
            + _BYTES_PER_PROBE * n_out * volume / bw
        )
        if dataflow.weight_stationary or (
            dataflow is Dataflow.IMPLICIT_GEMM and config.ig_config.sort
        ):
            # Storage-order conversion / bitmask sort traffic.
            map_us += 8.0 * n_out * volume / bw
    else:
        map_us = 0.0
    overlap_us = 0.0
    if streams > 1:
        # What a K-stream list schedule can hide: the mapping pipeline and
        # launch gaps run concurrently with adjacent layers' main compute
        # (the gpusim scheduler proves the exact figure; this is its
        # closed-form shadow).
        overlap_us = -(1.0 - 1.0 / float(streams)) * (map_us + launch_us)
    return (gemm_us, mem_us, scalar_us, launch_us, map_us, pad_us, overlap_us)


@dataclasses.dataclass(frozen=True)
class TrainingSample:
    """One fitted observation: features vs traced ground truth."""

    family: str
    features: Tuple[float, ...]
    target_us: float


def measure_sample(
    kmap: KernelMap,
    c_in: int,
    c_out: int,
    config: LayerConfig,
    device: Union[DeviceSpec, str],
    precision: Union[Precision, str],
    streams: int = 1,
) -> TrainingSample:
    """Trace one layer/config for real and pair it with its features.

    ``streams > 1`` prices the target with the multi-stream scheduler and
    activates the features' overlap credit, so a fit can calibrate it.
    """
    spec = get_device(device)
    precision = Precision.parse(precision)
    trace = pass_trace(kmap, c_in, c_out, config, Role.FORWARD, precision)
    target = estimate_trace_us(trace, spec, precision, streams)
    shape = LayerShape.from_kmap(kmap, c_in, c_out)
    return TrainingSample(
        family=family_of(config),
        features=layer_features(shape, config, spec, precision, streams=streams),
        target_us=target,
    )


def _nnls(matrix: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Non-negative least squares by iterative active-set clamping.

    Solves ordinary least squares, drops the most negative coefficient's
    column, and repeats until all active coefficients are non-negative.
    Deterministic; adequate for a handful of well-scaled features.
    """
    columns = list(range(matrix.shape[1]))
    coefs = np.zeros(matrix.shape[1], dtype=np.float64)
    while columns:
        sub = matrix[:, columns]
        solution, _, _, _ = np.linalg.lstsq(sub, target, rcond=None)
        worst = int(np.argmin(solution))
        if solution[worst] >= 0.0:
            for idx, col in enumerate(columns):
                coefs[col] = float(solution[idx])
            break
        columns.pop(worst)
    return coefs


@dataclasses.dataclass
class FitReport:
    """Residual summary of one surrogate fit."""

    samples: int
    median_rel_err: float
    mean_rel_err: float
    p90_rel_err: float
    by_family: Dict[str, float]

    def describe(self) -> str:
        lines = [
            f"fit on {self.samples} samples: median rel err "
            f"{100 * self.median_rel_err:.1f}%, mean "
            f"{100 * self.mean_rel_err:.1f}%, p90 "
            f"{100 * self.p90_rel_err:.1f}%"
        ]
        for family in sorted(self.by_family):
            lines.append(
                f"  {family}: median rel err "
                f"{100 * self.by_family[family]:.1f}%"
            )
        return "\n".join(lines)


class SurrogateModel:
    """Per-dataflow-family non-negative linear model over analytic features."""

    def __init__(self, coefficients: Dict[str, Tuple[float, ...]]) -> None:
        for family, coefs in coefficients.items():
            if len(coefs) != len(FEATURE_NAMES):
                raise ConfigError(
                    f"family {family!r} has {len(coefs)} coefficients, "
                    f"expected {len(FEATURE_NAMES)}"
                )
            if any(c < 0.0 for c in coefs):
                raise ConfigError(
                    f"family {family!r} has negative coefficients; the "
                    f"surrogate must be monotone"
                )
        self.coefficients = dict(coefficients)

    @classmethod
    def analytic(cls) -> "SurrogateModel":
        """The unfitted prior: unit weight on every feature.

        Each feature is already a microsecond estimate, so the empty
        model (``predict_features`` falls back to all-ones for unknown
        families) is a usable ranking function on cold starts.
        """
        return cls({})

    # -- prediction ---------------------------------------------------- #
    def predict_features(
        self, family: str, features: Sequence[float]
    ) -> float:
        coefs = self.coefficients.get(family)
        if coefs is None:
            coefs = tuple(1.0 for _ in FEATURE_NAMES)
        return float(sum(c * f for c, f in zip(coefs, features)))

    def predict(
        self,
        shape: LayerShape,
        config: LayerConfig,
        device: Union[DeviceSpec, str],
        precision: Union[Precision, str],
        charge_mapping: bool = True,
        streams: int = 1,
    ) -> float:
        """Predicted latency in microseconds — no trace is constructed."""
        return self.predict_features(
            family_of(config),
            layer_features(
                shape, config, device, precision, charge_mapping, streams
            ),
        )

    # -- fitting ------------------------------------------------------- #
    @classmethod
    def fit(cls, samples: Sequence[TrainingSample]) -> "SurrogateModel":
        """Non-negative least squares per family.

        Rows are weighted by ``1 / target`` so the solver minimizes
        *relative* error — the metric candidate ranking cares about —
        instead of letting the largest workloads dominate the fit.
        """
        if not samples:
            raise ConfigError("cannot fit a surrogate on zero samples")
        by_family: Dict[str, List[TrainingSample]] = {}
        for sample in samples:
            by_family.setdefault(sample.family, []).append(sample)
        coefficients: Dict[str, Tuple[float, ...]] = {}
        for family in sorted(by_family):
            rows = by_family[family]
            matrix = np.asarray([s.features for s in rows], dtype=np.float64)
            target = np.asarray([s.target_us for s in rows], dtype=np.float64)
            weights = 1.0 / np.maximum(target, 1e-9)
            coefficients[family] = tuple(
                _nnls(matrix * weights[:, None], target * weights).tolist()
            )
        return cls(coefficients)

    def residuals(self, samples: Sequence[TrainingSample]) -> List[float]:
        """Relative errors |pred - target| / target per sample."""
        out: List[float] = []
        for sample in samples:
            pred = self.predict_features(sample.family, sample.features)
            denom = max(abs(sample.target_us), 1e-9)
            out.append(abs(pred - sample.target_us) / denom)
        return out

    def fit_report(self, samples: Sequence[TrainingSample]) -> FitReport:
        errs = self.residuals(samples)
        by_family: Dict[str, List[float]] = {}
        for sample, err in zip(samples, errs):
            by_family.setdefault(sample.family, []).append(err)
        return FitReport(
            samples=len(samples),
            median_rel_err=float(np.median(errs)) if errs else 0.0,
            mean_rel_err=float(np.mean(errs)) if errs else 0.0,
            p90_rel_err=float(np.percentile(errs, 90)) if errs else 0.0,
            by_family={
                family: float(np.median(v)) for family, v in by_family.items()
            },
        )

    # -- persistence --------------------------------------------------- #
    def to_json(self) -> str:
        payload: Dict[str, object] = {
            "schema": SCHEMA_VERSION,
            "features": list(FEATURE_NAMES),
            "coefficients": {
                family: list(coefs)
                for family, coefs in sorted(self.coefficients.items())
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def save(self, path: Union[str, Path]) -> None:
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(self.to_json() + "\n")
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SurrogateModel":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"surrogate coefficients {path} do not exist")
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"corrupt surrogate file: {exc}") from None
        if not isinstance(payload, dict) or payload.get("schema") != SCHEMA_VERSION:
            raise ConfigError(
                f"surrogate file {path} has unsupported schema "
                f"{payload.get('schema')!r}" if isinstance(payload, dict)
                else f"surrogate file {path} is not a JSON object"
            )
        if payload.get("features") != list(FEATURE_NAMES):
            raise ConfigError(
                f"surrogate file {path} was fitted on a different feature "
                f"set {payload.get('features')!r}"
            )
        raw = payload.get("coefficients", {})
        if not isinstance(raw, dict):
            raise ConfigError("corrupt surrogate file: coefficients not a map")
        return cls(
            {
                str(family): tuple(float(c) for c in coefs)
                for family, coefs in raw.items()
            }
        )


def _seeded_kmaps(
    seed: int, sizes: Sequence[int], extent_scale: float = 1.0
) -> List[KernelMap]:
    """Deterministic grid of kernel maps over scene scales and signatures."""
    from repro.sparse.kmap import build_kernel_map

    maps: List[KernelMap] = []
    rng = np.random.default_rng(seed)
    for size in sizes:
        extent = max(8, int(round((size ** (1.0 / 3.0)) * 3 * extent_scale)))
        coords = np.unique(
            np.concatenate(
                [
                    np.zeros((size, 1), np.int32),
                    rng.integers(0, extent, (size, 3)).astype(np.int32),
                ],
                axis=1,
            ),
            axis=0,
        )
        maps.append(build_kernel_map(coords, kernel_size=3, stride=1))
        maps.append(build_kernel_map(coords, kernel_size=2, stride=2))
    return maps


def training_grid(
    devices: Sequence[Union[DeviceSpec, str]],
    precision: Union[Precision, str] = "fp16",
    seed: int = 0,
    sizes: Sequence[int] = (400, 1200, 3000),
    channels: Sequence[Tuple[int, int]] = ((16, 32), (64, 64)),
    configs: Optional[Sequence[LayerConfig]] = None,
) -> List[TrainingSample]:
    """Seeded workloads x dataflows x devices measurement grid for `fit`."""
    from repro.autotune.online import candidate_configs

    chosen = tuple(configs) if configs is not None else candidate_configs()
    samples: List[TrainingSample] = []
    kmaps = _seeded_kmaps(seed, sizes)
    for device in devices:
        spec = get_device(device)
        for kmap in kmaps:
            for c_in, c_out in channels:
                for config in chosen:
                    samples.append(
                        measure_sample(
                            kmap, c_in, c_out, config, spec, precision
                        )
                    )
    return samples


def fit_surrogate(
    devices: Sequence[Union[DeviceSpec, str]],
    precision: Union[Precision, str] = "fp16",
    seed: int = 0,
    sizes: Sequence[int] = (400, 1200, 3000),
) -> Tuple[SurrogateModel, FitReport]:
    """Fit a surrogate on the seeded grid; returns (model, residual report)."""
    samples = training_grid(devices, precision=precision, seed=seed, sizes=sizes)
    model = SurrogateModel.fit(samples)
    return model, model.fit_report(samples)
