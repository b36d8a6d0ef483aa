"""Static value-range propagation for reduced-precision safety.

The second pass of the PR's two-pass analyzer: starting from an assumed
input range (normalized features) and each convolution's *initialized
weight statistics* (captured on the IR's convolution nodes), propagate an
interval model through the module tree:

* a convolution with fan-in ``F = volume * C_in`` multiplies the hard
  bound by ``F * max|w|`` (worst case: every operand at its extreme) and
  the statistical scale by ``rms(w) * sqrt(F)`` (independent zero-mean
  accumulation);
* batch normalization re-standardizes: the range collapses back to
  roughly ``RANGE_SIGMA`` standard deviations of a unit-scale signal;
* ReLU halves signal power (``rms / sqrt(2)``) and keeps the bound.

A layer is flagged as **fp16-unsafe** when its expected output magnitude
(``RANGE_SIGMA`` standard deviations, capped by the hard bound) exceeds
the fp16 maximum — storage of that layer's features would overflow to
``inf``.  A subnormal RMS flags **underflow** (features flush toward
zero).  The degradation ladder consults :func:`precision_drop_veto`
before taking its ``precision:drop`` rung: degraded execution must stay
within the documented error bounds of the dense reference, which an
overflowing cast cannot.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional, Tuple

from repro.analyze.ir import IRNode, ModelIR, trace_model

#: Largest finite fp16 value.
FP16_MAX = 65504.0
#: Smallest positive normal fp16 value; RMS below this flushes to zero.
FP16_TINY = 6.103515625e-05
#: Standard deviations defining the "expected magnitude" of a signal.
RANGE_SIGMA = 6.0


@dataclasses.dataclass(frozen=True)
class ValueRange:
    """Interval model of a feature tensor: hard bound + statistical scale.

    ``abs_max`` bounds ``|x|`` absolutely (worst-case propagation);
    ``rms`` tracks the root-mean-square under the independence
    assumption.  The *expected magnitude* used for safety decisions is
    ``min(abs_max, RANGE_SIGMA * rms)`` — the statistical estimate,
    never above the hard bound.
    """

    abs_max: float
    rms: float

    @property
    def magnitude(self) -> float:
        return min(self.abs_max, RANGE_SIGMA * self.rms)


#: Dataset features are normalized to roughly unit scale before the stem.
DEFAULT_INPUT_RANGE = ValueRange(abs_max=RANGE_SIGMA, rms=1.0)


@dataclasses.dataclass(frozen=True)
class LayerRange:
    """Propagated range at one IR node's output."""

    path: str
    kind: str
    out_range: ValueRange
    fp16_overflow: bool = False
    fp16_underflow: bool = False

    @property
    def fp16_safe(self) -> bool:
        return not self.fp16_overflow


@dataclasses.dataclass(frozen=True)
class RangeReport:
    """Full value-range propagation result for one model."""

    input_range: ValueRange
    layers: Tuple[LayerRange, ...]

    @property
    def fp16_safe(self) -> bool:
        return all(layer.fp16_safe for layer in self.layers)

    def overflowing(self) -> List[LayerRange]:
        return [layer for layer in self.layers if layer.fp16_overflow]

    def underflowing(self) -> List[LayerRange]:
        return [layer for layer in self.layers if layer.fp16_underflow]

    def veto_reason(self) -> Optional[str]:
        """Why dropping storage precision to fp16 is unsafe (or None)."""
        bad = self.overflowing()
        if not bad:
            return None
        worst = max(bad, key=lambda layer: layer.out_range.magnitude)
        return (
            f"fp16 value range: {len(bad)} layer(s) overflow, worst "
            f"{worst.path} with expected |out| ~ "
            f"{worst.out_range.magnitude:.3g} > {FP16_MAX:.0f}"
        )


def _fan_in(node: IRNode) -> float:
    volume = 1
    for k in node.kernel_size or (1,):
        volume *= int(k)
    return float(volume * (node.in_channels or 1))


def _conv_range(node: IRNode, current: ValueRange) -> ValueRange:
    fan_in = _fan_in(node)
    w_abs = node.weight_abs_max or 0.0
    w_rms = node.weight_rms or 0.0
    return ValueRange(
        abs_max=current.abs_max * fan_in * w_abs,
        rms=current.rms * w_rms * math.sqrt(fan_in),
    )


def propagate_ranges(
    ir: ModelIR, input_range: ValueRange = DEFAULT_INPUT_RANGE
) -> RangeReport:
    """Walk the IR node sequence propagating the interval model.

    The walk is sequential over execution order; joins keep the main
    branch's range (a concat preserves per-channel scales, a residual
    add at most doubles the RMS — within the model's slack).
    """
    current = input_range
    layers: List[LayerRange] = []
    for node in ir.nodes:
        overflow = underflow = False
        if node.kind == "conv":
            current = _conv_range(node, current)
            # Features are stored (and cast) at every layer boundary:
            # this is where an fp16 cast would saturate or flush.
            overflow = current.magnitude > FP16_MAX
            underflow = 0.0 < current.rms < FP16_TINY
        elif node.kind == "norm":
            current = ValueRange(abs_max=RANGE_SIGMA, rms=1.0)
        elif node.kind == "activation":
            current = ValueRange(
                abs_max=current.abs_max, rms=current.rms / math.sqrt(2.0)
            )
        # concat: range unchanged.
        layers.append(
            LayerRange(
                path=node.path,
                kind=node.kind,
                out_range=current,
                fp16_overflow=overflow,
                fp16_underflow=underflow,
            )
        )
    return RangeReport(input_range=input_range, layers=tuple(layers))


def model_range_report(
    model: object,
    in_channels: int,
    ndim: int = 3,
    input_range: ValueRange = DEFAULT_INPUT_RANGE,
) -> RangeReport:
    """Record ``model``'s IR and propagate value ranges through it."""
    ir = trace_model(model, in_channels=in_channels, ndim=ndim)
    return propagate_ranges(ir, input_range)


def precision_drop_veto(
    ir: ModelIR, input_range: ValueRange = DEFAULT_INPUT_RANGE
) -> Optional[str]:
    """Reason the degradation ladder must skip ``precision:drop``, or
    ``None`` when the drop is statically safe."""
    return propagate_ranges(ir, input_range).veto_reason()


__all__ = [
    "FP16_MAX",
    "FP16_TINY",
    "RANGE_SIGMA",
    "ValueRange",
    "DEFAULT_INPUT_RANGE",
    "LayerRange",
    "RangeReport",
    "propagate_ranges",
    "model_range_report",
    "precision_drop_veto",
]
