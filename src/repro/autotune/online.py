"""Minuet-style online tuner: surrogate-pruned search with top-k verification.

The offline group tuner (:class:`repro.tune.SparseAutotuner`) traces every
candidate of every group — thorough, but far too slow for admission-time
decisions.  This tuner follows Minuet's shape instead: rank the whole
candidate space with the cheap surrogate, spend real measurements only on
the top-k survivors, and bank the winner in the persistent
:class:`~repro.autotune.db.TuningDatabase` so no replica ever pays for the
same layer twice.  A real measurement is the forward trace the convolution
layer itself would record (:func:`repro.nn.conv.pass_trace`), priced by
``estimate_trace_us`` — so verification checks what execution charges.

Everything is deterministic: the candidate list has a fixed order, surrogate
ties break on the config's serialized form, and nothing reads the wall
clock — two seeded runs write byte-identical databases.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.autotune.db import TuningDatabase, TuningEntry, TuningKey
from repro.autotune.surrogate import LayerShape, SurrogateModel, family_of
from repro.hw.specs import DeviceSpec, get_device
from repro.kernels.base import DEFAULT_SCHEDULE, LARGE_TILE, SMALL_TILE
from repro.kernels.registry import Dataflow
from repro.nn.context import (
    ExecutionContext,
    GroupPolicy,
    LayerConfig,
    Role,
    Signature,
)
from repro.nn.module import Module
from repro.precision import Precision
from repro.sparse.tensor import SparseTensor
from repro.tune.cache import config_to_dict
from repro.tune.groups import LayerRecord, discover_groups
from repro.tune.space import implicit_gemm_candidates

_TILES = (LARGE_TILE, DEFAULT_SCHEDULE, SMALL_TILE)


def candidate_configs() -> Tuple[LayerConfig, ...]:
    """The online search space over ``(dataflow, tile, num_splits, gs_chunks)``.

    Implicit GEMM covers splits {0 (unsorted), 1, 2, 4} x three tiles;
    fetch-on-demand and gather-scatter cover the weight-stationary side,
    the latter with staged (chunked) variants.  Order is fixed — it is part
    of the determinism contract.
    """
    candidates: List[LayerConfig] = list(
        implicit_gemm_candidates(splits=(0, 1, 2, 4))
    )
    for sched in _TILES:
        candidates.append(
            LayerConfig(dataflow=Dataflow.FETCH_ON_DEMAND, schedule=sched)
        )
    for chunks in (1, 2):
        for sched in _TILES:
            candidates.append(
                LayerConfig(
                    dataflow=Dataflow.GATHER_SCATTER,
                    schedule=sched,
                    gs_chunks=chunks,
                )
            )
    return tuple(candidates)


def measure_config(
    record: LayerRecord,
    config: LayerConfig,
    device: Union[DeviceSpec, str],
    precision: Union[Precision, str],
) -> float:
    """Ground-truth simulated latency of one candidate: the forward pass
    the layer would run, priced by its own trace builder."""
    return record.latency_us(
        config, Role.FORWARD, get_device(device), Precision.parse(precision)
    )


@dataclasses.dataclass
class LayerDecision:
    """Outcome of tuning one layer group."""

    key: TuningKey
    config: LayerConfig
    predicted_us: float
    measured_us: float
    source: str  # "db" | "search"
    candidates: int
    verified: int

    def describe(self) -> str:
        return (
            f"{self.key.layer} [{self.key.bucket}] -> "
            f"{self.config.describe()} ({self.measured_us:.1f} us, "
            f"{self.source}, verified {self.verified}/{self.candidates})"
        )


@dataclasses.dataclass
class OnlineReport:
    """Aggregate accounting of one :meth:`OnlineTuner.tune_model` run."""

    decisions: List[LayerDecision]
    db_hits: int
    db_misses: int
    measurements: int

    def describe(self) -> str:
        lines = [
            f"online tuning: {len(self.decisions)} groups, "
            f"{self.db_hits} db hits, {self.db_misses} misses, "
            f"{self.measurements} real measurements"
        ]
        lines.extend(f"  {d.describe()}" for d in self.decisions)
        return "\n".join(lines)


class OnlineTuner:
    """Incremental searcher backed by a surrogate and a tuning database."""

    def __init__(
        self,
        db: TuningDatabase,
        surrogate: Optional[SurrogateModel] = None,
        candidates: Optional[Sequence[LayerConfig]] = None,
        verify_top_k: int = 3,
    ) -> None:
        if verify_top_k < 1:
            raise ValueError(f"verify_top_k must be >= 1, got {verify_top_k}")
        self.db = db
        self.surrogate = surrogate or SurrogateModel.analytic()
        self.candidates = tuple(
            candidates if candidates is not None else candidate_configs()
        )
        self.verify_top_k = verify_top_k
        self.measurements = 0

    def _key(
        self,
        record: LayerRecord,
        device: Union[DeviceSpec, str],
        precision: Union[Precision, str],
    ) -> TuningKey:
        return TuningKey.make(
            device=device,
            signature=record.signature,
            c_in=record.c_in,
            c_out=record.c_out,
            precision=precision,
            num_inputs=record.kmap.num_inputs,
            num_outputs=record.kmap.num_outputs,
            mean_neighbors=record.kmap.mean_neighbors,
        )

    def tune_record(
        self,
        record: LayerRecord,
        device: Union[DeviceSpec, str],
        precision: Union[Precision, str],
    ) -> LayerDecision:
        """Tune one layer group: DB hit short-circuits the whole search."""
        spec = get_device(device)
        precision = Precision.parse(precision)
        key = self._key(record, spec, precision)
        cached = self.db.get(key)
        if cached is not None:
            return LayerDecision(
                key=key,
                config=cached.config,
                predicted_us=cached.predicted_us,
                measured_us=cached.measured_us,
                source="db",
                candidates=len(self.candidates),
                verified=0,
            )

        shape = LayerShape.from_kmap(record.kmap, record.c_in, record.c_out)
        ranked = sorted(
            (
                (
                    self.surrogate.predict(shape, config, spec, precision),
                    # Deterministic tie-break independent of list position.
                    str(sorted(config_to_dict(config).items())),
                    config,
                )
                for config in self.candidates
            ),
            key=lambda item: (item[0], item[1]),
        )
        top = ranked[: self.verify_top_k]
        best: Optional[Tuple[float, float, LayerConfig]] = None
        for predicted, _, config in top:
            measured = measure_config(record, config, spec, precision)
            self.measurements += 1
            if best is None or measured < best[0]:
                best = (measured, predicted, config)
        assert best is not None  # verify_top_k >= 1
        measured_us, predicted_us, config = best
        entry = self.db.put(
            key,
            TuningEntry(
                config=config,
                measured_us=measured_us,
                predicted_us=predicted_us,
            ),
        )
        return LayerDecision(
            key=key,
            config=entry.config,
            predicted_us=entry.predicted_us,
            measured_us=entry.measured_us,
            source="search",
            candidates=len(self.candidates),
            verified=len(top),
        )

    def tune_model(
        self,
        model: Module,
        sample: SparseTensor,
        device: Union[DeviceSpec, str],
        precision: Union[Precision, str],
    ) -> Tuple[GroupPolicy, OnlineReport]:
        """Probe ``model`` on ``sample`` and tune every discovered group.

        Per-group keys use the *first* record of the group (the probe order
        is deterministic), so repeated calls hit the same DB rows.
        """
        spec = get_device(device)
        precision = Precision.parse(precision)
        ctx = ExecutionContext(
            device=spec, precision=precision, simulate_only=True
        )
        hits_before = self.db.hits
        misses_before = self.db.misses
        measurements_before = self.measurements
        ordered, by_signature = discover_groups(model, sample, ctx)
        decisions: List[LayerDecision] = []
        assignments: Dict[Signature, Dict[Role, LayerConfig]] = {}
        for signature in ordered:
            # The group's heaviest record decides (ties: first in order) —
            # matching the offline tuner's "dominant layer" heuristic.
            records = by_signature[signature]
            record = max(records, key=lambda r: r.macs)
            decision = self.tune_record(record, spec, precision)
            decisions.append(decision)
            assignments[signature] = {Role.FORWARD: decision.config}
        report = OnlineReport(
            decisions=decisions,
            db_hits=self.db.hits - hits_before,
            db_misses=self.db.misses - misses_before,
            measurements=self.measurements - measurements_before,
        )
        return GroupPolicy(assignments), report
