"""The Sparse Autotuner (Section 4 of the paper).

Enlarges the sparse convolution design space (Figure 9) — dataflow choice,
unsorted implicit GEMM, arbitrary mask splits, tile sizes — and searches it
with group-based configuration tuning: layers sharing kernel maps form one
group and must share a dataflow (their map storage orders differ between
dataflows), and groups are tuned greedily against *end-to-end* simulated
latency, mapping overhead included.  The training tuner adds partial
parameter binding across forward/dgrad/wgrad kernels (Figure 13).  Both
price candidates with the convolution layer's own trace builder
(:class:`~repro.tune.groups.GroupCosts`), so the objective is what
execution charges.
"""

from repro.tune.space import (
    DesignSpace,
    SPCONV2_SPACE,
    TORCHSPARSEPP_SPACE,
    TORCHSPARSEPP_IG_ONLY_SPACE,
)
from repro.tune.groups import LayerRecord, discover_groups
from repro.tune.tuner import SparseAutotuner, TuningReport
from repro.tune.training import BindingScheme, TrainingTuner, pick_binding_scheme
from repro.tune.cache import load_policy, save_policy

__all__ = [
    "DesignSpace",
    "SPCONV2_SPACE",
    "TORCHSPARSEPP_SPACE",
    "TORCHSPARSEPP_IG_ONLY_SPACE",
    "LayerRecord",
    "discover_groups",
    "SparseAutotuner",
    "TuningReport",
    "BindingScheme",
    "TrainingTuner",
    "pick_binding_scheme",
    "load_policy",
    "save_policy",
]
