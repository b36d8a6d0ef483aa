"""Group-based configuration tuning (Section 4.2, Figure 12).

The tuner discovers layer groups with a probe pass over a sample subset of
the target workload, then greedily tunes group by group: candidates for the
``k``-th group are evaluated by *end-to-end simulated latency* with the
first ``k-1`` groups fixed to their tuned configs and later groups at the
default.  End-to-end measurement (rather than kernel-only time) is the
paper's central methodological point: mapping overhead — bitmask
computation, sorting, reordering, partial-sum reduction — must be inside
the objective, or the tuner picks sorted dataflows that lose end to end
(Tables 3/4).  Candidates are priced by the convolution layer's own trace
builder through :class:`~repro.tune.groups.GroupCosts`, so the objective
charges each config exactly what executing it charges.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.hw.specs import DeviceSpec, get_device
from repro.nn.context import GroupPolicy, LayerConfig, Role, Signature
from repro.nn.module import Module
from repro.precision import Precision
from repro.sparse.tensor import SparseTensor
from repro.tune.groups import GroupCosts
from repro.tune.space import DesignSpace, TORCHSPARSEPP_SPACE


@dataclasses.dataclass
class GroupResult:
    """Tuning outcome for one layer group."""

    signature: Signature
    chosen: LayerConfig
    candidate_latencies_us: List[float]
    num_layers: int


@dataclasses.dataclass
class TuningReport:
    """Everything the tuner decided, for inspection and EXPERIMENTS.md."""

    groups: List[GroupResult]
    end_to_end_us: float
    default_us: float
    tuning_seconds: float

    @property
    def speedup_over_default(self) -> float:
        return self.default_us / self.end_to_end_us if self.end_to_end_us else 1.0

    def describe(self) -> str:
        lines = [
            f"tuned {len(self.groups)} groups in {self.tuning_seconds:.1f}s: "
            f"{self.default_us / 1e3:.2f} ms -> {self.end_to_end_us / 1e3:.2f} ms "
            f"({self.speedup_over_default:.2f}x)"
        ]
        for g in self.groups:
            lines.append(
                f"  {g.signature}: {g.chosen.describe()} "
                f"({g.num_layers} layers)"
            )
        return "\n".join(lines)


class SparseAutotuner:
    """Search the design space for the best per-group configuration."""

    def __init__(
        self,
        space: DesignSpace = TORCHSPARSEPP_SPACE,
        default: Optional[LayerConfig] = None,
    ):
        self.space = space
        self.default = default or LayerConfig()

    def tune(
        self,
        model: Module,
        samples: Sequence[SparseTensor],
        device: "DeviceSpec | str" = "a100",
        precision: "Precision | str" = Precision.FP16,
    ) -> Tuple[GroupPolicy, TuningReport]:
        """Tune ``model`` on sample inputs; returns (policy, report).

        ``samples`` plays the role of the paper's "random subset of the
        target workload (e.g. 100 scenes on Waymo)"; latencies are averaged
        across samples.  Raises :class:`~repro.errors.ConfigError` when
        ``samples`` is empty.
        """
        device = get_device(device)
        precision = Precision.parse(precision)
        start = time.perf_counter()

        # The default config is the last candidate; each group's cost
        # includes the first layer's map storage-order conversion.
        costs = GroupCosts(
            model, samples, (*self.space, self.default), device, precision
        )
        default = len(self.space)
        ordered = costs.signatures
        cost = [
            [costs.cost_us(g, c, convert=True) for g in range(len(ordered))]
            for c in range(default + 1)
        ]

        # Greedy group-by-group exhaustive search on end-to-end latency.
        chosen: List[int] = []
        results: List[GroupResult] = []
        default_total = sum(cost[default][g] for g in range(len(ordered)))
        for k, sig in enumerate(ordered):
            # Earlier groups at their tuned configs, later ones at default.
            configs = chosen + [default] * (len(ordered) - k)
            latencies = []
            for candidate in range(default):
                configs[k] = candidate
                total = 0.0
                for j, c in enumerate(configs):
                    total += cost[c][j]
                latencies.append(total)
            best_index = min(range(len(latencies)), key=latencies.__getitem__)
            chosen.append(best_index)
            results.append(
                GroupResult(
                    signature=sig,
                    chosen=self.space.candidates[best_index],
                    candidate_latencies_us=latencies,
                    num_layers=costs.num_layers(k),
                )
            )

        tuned_total = sum(cost[chosen[g]][g] for g in range(len(ordered)))
        report = TuningReport(
            groups=results,
            end_to_end_us=tuned_total,
            default_us=default_total,
            tuning_seconds=time.perf_counter() - start,
        )
        assignment: Dict[Signature, Dict[Role, LayerConfig]] = {
            r.signature: {Role.FORWARD: r.chosen} for r in results
        }
        return GroupPolicy(assignment, default=self.default), report
