"""Training tuner: partial parameter binding for fwd/dgrad/wgrad kernels
(Section 4.2, Figures 13 and 22).

Tuning the three training kernels independently costs ``O(K^3)``; sharing
one config for all three loses up to 10% end-to-end.  The paper's middle
ground binds two of the three:

* **workload-pattern oriented** (``BIND_FWD_DGRAD``): forward and dgrad
  share a config (they have the same workload pattern), wgrad is tuned
  separately — minimizes total kernel latency; best for *low-end* devices
  whose tensor:CUDA core gap is small (2080 Ti, 3x);
* **sparse-mapping oriented** (``BIND_DGRAD_WGRAD``): dgrad and wgrad share
  a config (they share the same maps) — minimizes mapping overhead; best
  for *high-parallelism* devices where mapping work on CUDA cores is
  relatively 16x more expensive (A100).

Both reduce complexity to ``O(K^2)``, and to ``O(K)`` in practice by
reusing the group tuner twice (Figure 13's "dummy initialization" trick —
here, by evaluating role subsets independently, which our additive latency
model makes exact).  Each role is priced by the convolution layer's own
fwd/dgrad/wgrad trace builder through :class:`~repro.tune.groups.GroupCosts`,
the same table the inference tuner uses.
"""

from __future__ import annotations

import dataclasses
import enum
import time
from typing import Dict, Optional, Sequence, Tuple

from repro.hw.specs import DeviceSpec, get_device
from repro.nn.context import GroupPolicy, LayerConfig, Role, Signature
from repro.nn.module import Module
from repro.precision import Precision
from repro.sparse.tensor import SparseTensor
from repro.tune.groups import GroupCosts
from repro.tune.space import DesignSpace, TORCHSPARSEPP_SPACE

#: tensor:CUDA throughput ratio above which mapping overhead dominates and
#: the sparse-mapping-oriented scheme wins (A100 is 16x, 2080 Ti is 3x).
HIGH_PARALLELISM_RATIO = 8.0


class BindingScheme(enum.Enum):
    """Which training kernels share dataflow parameters (Figure 13)."""

    BIND_ALL = "bind_all"
    BIND_FWD_DGRAD = "bind_fwd_dgrad"  # workload-pattern oriented
    BIND_DGRAD_WGRAD = "bind_dgrad_wgrad"  # sparse-mapping oriented


def pick_binding_scheme(device: "DeviceSpec | str") -> BindingScheme:
    """The paper's device rule: scheme 2 for high-end GPUs, scheme 1 else."""
    device = get_device(device)
    if device.tensor_to_cuda_ratio >= HIGH_PARALLELISM_RATIO:
        return BindingScheme.BIND_DGRAD_WGRAD
    return BindingScheme.BIND_FWD_DGRAD


@dataclasses.dataclass
class TrainingTuningReport:
    """Per-group role assignments and the end-to-end training latency."""

    scheme: BindingScheme
    end_to_end_us: float
    bound_all_us: float
    tuning_seconds: float

    @property
    def improvement_over_bound(self) -> float:
        return self.bound_all_us / self.end_to_end_us if self.end_to_end_us else 1.0


#: Roles bound together under each scheme: (groups of roles tuned jointly).
_SCHEME_ROLE_SETS: Dict[BindingScheme, Tuple[Tuple[Role, ...], ...]] = {
    BindingScheme.BIND_ALL: ((Role.FORWARD, Role.DGRAD, Role.WGRAD),),
    BindingScheme.BIND_FWD_DGRAD: (
        (Role.FORWARD, Role.DGRAD),
        (Role.WGRAD,),
    ),
    BindingScheme.BIND_DGRAD_WGRAD: (
        (Role.FORWARD,),
        (Role.DGRAD, Role.WGRAD),
    ),
}


class TrainingTuner:
    """Tune per-group configs for training under a binding scheme."""

    def __init__(
        self,
        space: DesignSpace = TORCHSPARSEPP_SPACE,
        default: Optional[LayerConfig] = None,
        scheme: Optional[BindingScheme] = None,
    ):
        self.space = space
        self.default = default or LayerConfig()
        self.scheme = scheme  # None = pick by device

    def tune(
        self,
        model: Module,
        samples: Sequence[SparseTensor],
        device: "DeviceSpec | str" = "a100",
        precision: "Precision | str" = Precision.FP16,
    ) -> Tuple[GroupPolicy, TrainingTuningReport]:
        """Tune training configs; model must be in training mode usage.

        Raises :class:`~repro.errors.ConfigError` when ``samples`` is
        empty.
        """
        device = get_device(device)
        precision = Precision.parse(precision)
        scheme = self.scheme or pick_binding_scheme(device)
        start = time.perf_counter()
        space = self.space.candidates
        costs = GroupCosts(model, samples, space, device, precision)
        candidates = range(len(space))

        assignment: Dict[Signature, Dict[Role, LayerConfig]] = {}
        all_roles = (Role.FORWARD, Role.DGRAD, Role.WGRAD)
        bound_all_total = 0.0
        tuned_total = 0.0
        for g, sig in enumerate(costs.signatures):
            # Reference: best single config shared by all three roles
            # (one config -> one map structure -> no penalty).
            cost_all = [costs.cost_us(g, c, all_roles) for c in candidates]
            bound_all_total += min(cost_all)
            role_sets = _SCHEME_ROLE_SETS[scheme]
            if len(role_sets) == 1:
                best = min(candidates, key=cost_all.__getitem__)
                by_role = {role: space[best] for role in all_roles}
                best_total = cost_all[best]
            else:
                # Paper's O(K^2): joint search over the two bound sets,
                # including the backward map-preparation penalty when
                # dgrad and wgrad end up with different configs: the two
                # backward kernels share the same maps (Figure 13), so a
                # bound pair prepares them once while a decoupled pair
                # prepares them twice.
                set_a, set_b = role_sets
                cost_a = [costs.cost_us(g, c, set_a) for c in candidates]
                cost_b = [costs.cost_us(g, c, set_b) for c in candidates]
                prep_us = costs.backward_prep_us(g)
                best_total = float("inf")
                by_role = {}
                for a in candidates:
                    for b in candidates:
                        cfg_of = {
                            **{r: space[a] for r in set_a},
                            **{r: space[b] for r in set_b},
                        }
                        penalty = (
                            0.0 if cfg_of[Role.DGRAD] == cfg_of[Role.WGRAD]
                            else prep_us
                        )
                        total = cost_a[a] + cost_b[b] + penalty
                        if total < best_total:
                            best_total = total
                            by_role = cfg_of
            assignment[sig] = by_role
            tuned_total += best_total

        report = TrainingTuningReport(
            scheme=scheme,
            end_to_end_us=tuned_total,
            bound_all_us=bound_all_total,
            tuning_seconds=time.perf_counter() - start,
        )
        return GroupPolicy(assignment, default=self.default), report
