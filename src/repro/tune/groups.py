"""Layer-group discovery and pricing (Section 4.2, Figure 12).

Layers that use the same kernel maps — identified by their *map signature*
``(tensor_stride, kernel_size, stride, transposed)`` — form one group and
must share a dataflow, because weight-stationary and output-stationary
dataflows need the maps in different storage orders.  A probe forward pass
records every convolution layer; records are then grouped by signature in
first-appearance order.

:class:`GroupCosts` prices candidates with the convolution layer's own
trace builder (:mod:`repro.nn.conv`), so a tuner charges a config exactly
what executing the layer under it charges.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence, Tuple

from repro.errors import ConfigError
from repro.gpusim.engine import estimate_trace_us
from repro.hw.specs import DeviceSpec
from repro.nn.context import ExecutionContext, LayerConfig, Role, Signature
from repro.nn.conv import backward_prep_trace, conversion_trace, pass_trace
from repro.nn.module import Module
from repro.precision import Precision
from repro.sparse.kmap import KernelMap
from repro.sparse.tensor import SparseTensor


@dataclasses.dataclass
class LayerRecord:
    """One convolution layer observed during the probe pass."""

    signature: Signature
    kmap: KernelMap
    c_in: int
    c_out: int
    label: str

    @property
    def macs(self) -> float:
        """Effective multiply-accumulates of the layer."""
        return float(self.kmap.total_pairs) * self.c_in * self.c_out

    def latency_us(
        self,
        config: LayerConfig,
        role: Role,
        device: DeviceSpec,
        precision: Precision,
        charge_mapping: bool = True,
    ) -> float:
        """Simulated latency of one pass of this layer under ``config``."""
        trace = pass_trace(
            self.kmap, self.c_in, self.c_out, config, role, precision,
            charge_mapping,
        )
        return estimate_trace_us(trace, device, precision)


def discover_groups(
    model: Module,
    sample: SparseTensor,
    ctx: ExecutionContext,
) -> Tuple[List[Signature], Dict[Signature, List[LayerRecord]]]:
    """Run one probe forward and group conv layers by map signature.

    Returns ``(ordered_signatures, records_by_signature)``.  The context's
    trace is reset afterwards so probe cost never leaks into measurements;
    kernel maps built during the probe stay in the sample's cache (the
    tuner reuses them, as the real system does).
    """
    records: List[LayerRecord] = []

    def record(signature, kmap, c_in, c_out, label):
        records.append(LayerRecord(signature, kmap, c_in, c_out, label))

    previous_recorder = ctx.recorder
    ctx.recorder = record
    try:
        model(sample, ctx)
    finally:
        ctx.recorder = previous_recorder
        ctx.reset_trace()

    ordered: List[Signature] = []
    by_signature: Dict[Signature, List[LayerRecord]] = {}
    for rec in records:
        if rec.signature not in by_signature:
            ordered.append(rec.signature)
            by_signature[rec.signature] = []
        by_signature[rec.signature].append(rec)
    return ordered, by_signature


class GroupCosts:
    """One tuning run's group prices, over a set of sample inputs.

    Probes every sample once and unions the group structure in
    first-appearance order (:attr:`signatures`).  Layer prices are kept by
    position — (sample, group, candidate, role) — for the life of the
    table, and later layers on their group's map with equal widths share
    one price.  Costs sum those prices in probe order and average them
    over samples (the paper's "random subset of the target workload").
    """

    def __init__(
        self,
        model: Module,
        samples: Sequence[SparseTensor],
        candidates: Sequence[LayerConfig],
        device: DeviceSpec,
        precision: Precision,
    ):
        if not samples:
            raise ConfigError("tuning needs at least one sample input")
        self.candidates = tuple(candidates)
        self.device = device
        self.precision = precision
        self.signatures: List[Signature] = []
        probes = []
        for sample in samples:
            ctx = ExecutionContext(
                device=device, precision=precision, simulate_only=True
            )
            sigs, by_sig = discover_groups(model, sample, ctx)
            probes.append(by_sig)
            self.signatures += [s for s in sigs if s not in self.signatures]
        #: records[sample][group], in probe order.
        self.records = [
            [by_sig.get(sig, []) for sig in self.signatures]
            for by_sig in probes
        ]
        self._layers: Dict[Tuple[int, int, int, Role], List[float]] = {}
        self._conversions: Dict[Tuple[int, int, bool], float] = {}

    def num_layers(self, group: int) -> int:
        return sum(len(by_group[group]) for by_group in self.records)

    def _layer_prices(
        self, sample: int, group: int, candidate: int, role: Role
    ) -> List[float]:
        key = (sample, group, candidate, role)
        if key not in self._layers:
            records = self.records[sample][group]
            priced: Dict[object, float] = {}
            prices = []
            for i, record in enumerate(records):
                # Only the first layer pays the map's sort/reorder; later
                # layers on the same map differ only by their widths.
                same = i > 0 and record.kmap is records[0].kmap
                layer = (record.c_in, record.c_out) if same else i
                if layer not in priced:
                    priced[layer] = record.latency_us(
                        self.candidates[candidate], role, self.device,
                        self.precision, charge_mapping=(i == 0),
                    )
                prices.append(priced[layer])
            self._layers[key] = prices
        return self._layers[key]

    def _conversion_us(self, sample: int, group: int, candidate: int) -> float:
        config = self.candidates[candidate]
        key = (sample, group, config.dataflow.weight_stationary)
        if key not in self._conversions:
            kmap = self.records[sample][group][0].kmap
            trace = conversion_trace(kmap, config, "convert")
            self._conversions[key] = 0.0 if trace is None else (
                estimate_trace_us(trace, self.device, self.precision)
            )
        return self._conversions[key]

    def cost_us(
        self,
        group: int,
        candidate: int,
        roles: Tuple[Role, ...] = (Role.FORWARD,),
        convert: bool = False,
    ) -> float:
        """Mean latency of ``roles`` of a group under one candidate, summed
        layer by layer (roles inner); with ``convert`` the first layer
        also pays the map storage-order conversion the candidate needs."""
        totals = []
        for s, by_group in enumerate(self.records):
            prices = [
                self._layer_prices(s, group, candidate, r) for r in roles
            ]
            total = 0.0
            for i in range(len(by_group[group])):
                for by_layer in prices:
                    total += by_layer[i]
                if convert and i == 0:
                    total += self._conversion_us(s, group, candidate)
            totals.append(total)
        return sum(totals) / len(totals)

    def backward_prep_us(self, group: int) -> float:
        """Mean cost of one more backward map preparation for a group."""
        total = 0.0
        for by_group in self.records:
            if by_group[group]:
                total += estimate_trace_us(
                    backward_prep_trace(by_group[group][0].kmap),
                    self.device, self.precision,
                )
        return total / len(self.records)
