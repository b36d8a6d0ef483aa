"""Autotuning as a service: tuning database, surrogate model, online tuner.

The offline tuner (:mod:`repro.tune`) answers "what is the best config for
this workload" by tracing everything; this package answers it *cheaply and
durably*: a persistent fleet-shared database of winners (:mod:`.db`), a
fitted analytic surrogate that ranks candidates without building traces
(:mod:`.surrogate`), and a Minuet-style online searcher that verifies only
the surrogate's top-k and banks the result (:mod:`.online`).  Verification
and surrogate targets both trace through the convolution layer's own
builder (:func:`repro.nn.conv.pass_trace`).
"""

from repro.autotune.db import (
    TuningDatabase,
    TuningEntry,
    TuningKey,
    layer_key,
    sparsity_bucket,
)
from repro.autotune.online import (
    LayerDecision,
    OnlineReport,
    OnlineTuner,
    candidate_configs,
    measure_config,
)
from repro.autotune.surrogate import (
    FEATURE_NAMES,
    FitReport,
    LayerShape,
    SurrogateModel,
    TrainingSample,
    fit_surrogate,
    layer_features,
    measure_sample,
    training_grid,
)

__all__ = [
    "FEATURE_NAMES",
    "FitReport",
    "LayerDecision",
    "LayerShape",
    "OnlineReport",
    "OnlineTuner",
    "SurrogateModel",
    "TrainingSample",
    "TuningDatabase",
    "TuningEntry",
    "TuningKey",
    "candidate_configs",
    "fit_surrogate",
    "layer_features",
    "layer_key",
    "measure_config",
    "measure_sample",
    "sparsity_bucket",
    "training_grid",
]
