"""Intermediate representation of a sparse-convolution model, recorded from
one simulated run of its real ``forward``.

:func:`trace_model` runs the model once in ``simulate_only`` mode on a
small synthetic scene with an :class:`IRRecorder` installed as the
execution context's recorder.  The layers report what they actually did:
every layer execution becomes a node, every kernel-map lookup a map event
(build, cache hit, transposed reuse — lineage is whichever ``MapCache``
the input tensor carries), every skip concat or residual add a join.  A
hazard — a transposed convolution with no forward map, an indivisible
upsample, a channel mismatch, a stride-mismatched join — is recorded
first and then raised by the layer as a named error, which ends the walk.
The same run's kernel trace feeds the trace-level lint rules.

All the hazards the paper's design space exposes — stride-mismatched skip
joins, transposed convolutions with no cached encoder map, channel counts
that waste tensor-core tiles through padding (Figure 21) — are decidable
on this IR at load time, before a single batch runs.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.errors import ReproError
from repro.gpusim.trace import KernelTrace
from repro.hw.specs import DeviceSpec
from repro.nn.context import ExecutionContext
from repro.precision import Precision
from repro.sparse.tensor import SparseTensor

#: Per-dimension coordinate (tensor) stride.
Stride = Tuple[int, ...]

#: A layer's map signature: ``(tensor_stride, kernel_size, stride,
#: transposed)`` — the autotuner group identity of Section 4.2.
SignatureKey = Tuple[Stride, Stride, Stride, bool]


@dataclasses.dataclass(frozen=True)
class IRTensor:
    """What the IR keeps of a tensor: no data, only shape.

    Attributes:
        stride: coordinate stride per spatial dimension.
        channels: feature width.
        cache_token: identity of the ``MapCache`` lineage this tensor's maps
            live in, numbered in order of first appearance (the input's is
            0).  Layers chained through ``SparseTensor.with_feats`` /
            convolution outputs share one token; a module that materialises
            a fresh tensor breaks the lineage (and with it kernel-map
            reuse), which :func:`repro.analyze.rules` flags.
    """

    stride: Stride
    channels: int
    cache_token: int = 0


@dataclasses.dataclass
class IRNode:
    """One layer execution in the walk (a layer run twice — e.g. shared
    submodules — contributes one node per execution)."""

    path: str
    module_type: str
    kind: str  # "conv" | "norm" | "activation" | "concat"
    label: Optional[str] = None
    in_channels: Optional[int] = None
    out_channels: Optional[int] = None
    in_stride: Optional[Stride] = None
    out_stride: Optional[Stride] = None
    kernel_size: Optional[Stride] = None
    conv_stride: Optional[Stride] = None
    transposed: bool = False
    pointwise: bool = False
    signature: Optional[SignatureKey] = None
    #: "input" / "output" for network-boundary convolutions whose channel
    #: counts are fixed by the dataset / task (set after the walk).
    boundary: str = ""
    #: Static weight statistics for the value-range pass (conv nodes):
    #: the largest |w| and the RMS of the initialized weight tensor.
    weight_abs_max: Optional[float] = None
    weight_rms: Optional[float] = None


@dataclasses.dataclass(frozen=True)
class JoinEvent:
    """Two branches meeting: a concat skip or a residual add."""

    path: str
    kind: str  # "concat" | "residual_add"
    left_stride: Stride
    right_stride: Stride
    left_channels: int
    right_channels: int


@dataclasses.dataclass(frozen=True)
class MapEvent:
    """One kernel-map lookup during the walk.

    ``event`` is one of:

    * ``"build"`` — a fresh map is constructed (hash build + queries);
    * ``"hit"`` — an identical map already exists in this cache scope;
    * ``"transposed_reuse"`` — a transposed conv found its matching forward
      map in scope and reuses it (free relabeling);
    * ``"missing_forward_map"`` — a transposed conv found **no** forward
      map in scope: at runtime this raises
      :class:`~repro.errors.MapError` mid-batch;
    * ``"bad_upsample"`` — the tensor stride is not divisible by the
      transposed conv's stride.
    """

    path: str
    key: SignatureKey
    cache_token: int
    event: str


@dataclasses.dataclass(frozen=True)
class ChannelMismatch:
    """A layer fed a different channel count than it was built for."""

    path: str
    expected: int
    got: int


@dataclasses.dataclass
class ModelIR:
    """The full IR of one model: nodes plus structural events."""

    model_type: str
    input: IRTensor
    output: Optional[IRTensor] = None
    nodes: List[IRNode] = dataclasses.field(default_factory=list)
    joins: List[JoinEvent] = dataclasses.field(default_factory=list)
    map_events: List[MapEvent] = dataclasses.field(default_factory=list)
    channel_mismatches: List[ChannelMismatch] = dataclasses.field(
        default_factory=list
    )
    #: Top-most paths of modules (``Module.named_modules`` order) the walk
    #: never reached — candidates for the dead-submodule rule.  Empty when
    #: a hazard stopped the walk early.
    unvisited_paths: List[str] = dataclasses.field(default_factory=list)
    #: Kernel trace of the walk (``None`` when a hazard stopped it).
    trace: Optional[KernelTrace] = None

    # ------------------------------------------------------------------ #
    def conv_nodes(self) -> List[IRNode]:
        return [n for n in self.nodes if n.kind == "conv"]

    def signature_groups(self) -> Dict[SignatureKey, List[IRNode]]:
        """Conv nodes grouped by map signature (= autotuner groups)."""
        groups: Dict[SignatureKey, List[IRNode]] = {}
        for node in self.conv_nodes():
            if node.signature is not None:
                groups.setdefault(node.signature, []).append(node)
        return groups

    def map_builds(self) -> Dict[SignatureKey, List[MapEvent]]:
        """``build`` events per map key, across all cache scopes."""
        builds: Dict[SignatureKey, List[MapEvent]] = {}
        for event in self.map_events:
            if event.event == "build":
                builds.setdefault(event.key, []).append(event)
        return builds

    def mark_boundaries(self) -> None:
        """Tag the first conv's input and the last conv's output as fixed
        by the task (dataset channels / class count): their alignment is
        not the architect's to change.  A walk a hazard stopped has no
        known last conv."""
        convs = self.conv_nodes()
        if not convs:
            return
        convs[0].boundary = "input"
        if self.output is None:
            return
        last = convs[-1]
        last.boundary = "output" if last.boundary == "" else "input+output"

    def describe(self) -> str:
        lines = [
            f"{self.model_type}: {len(self.nodes)} nodes, "
            f"{len(self.conv_nodes())} convolutions, "
            f"{len(self.signature_groups())} map signatures, "
            f"{len(self.joins)} joins"
        ]
        for key, group in sorted(
            self.signature_groups().items(), key=lambda kv: -len(kv[1])
        ):
            stride, kernel, conv_stride, transposed = key
            lines.append(
                f"  signature stride={stride} k={kernel} s={conv_stride}"
                f"{' transposed' if transposed else ''}: "
                f"{len(group)} layer(s)"
            )
        return "\n".join(lines)


class IRRecorder:
    """Execution-context recorder that builds a :class:`ModelIR` from the
    events layers report through :meth:`ExecutionContext.observe` while
    ``model`` runs on input ``x``."""

    def __init__(self, model: Any, x: SparseTensor) -> None:
        root = type(model).__name__
        self._model = model
        self._paths: Dict[int, str] = {}
        for path, module in model.named_modules():
            self._paths.setdefault(
                id(module), path if module is model else f"{root}.{path}"
            )
        self._seen = {id(model)}
        #: Map caches by first appearance; held so identities stay unique.
        self._caches: List[Any] = []
        #: Whether the latest event was a hazard (its layer raises next).
        self.hazard = False
        self.ir = ModelIR(model_type=root, input=self.tensor(x))

    def __call__(self, **_: Any) -> None:
        """Convolution shape hook: shapes arrive through :meth:`observe`."""

    def _token(self, cache: Any) -> int:
        for i, known in enumerate(self._caches):
            if known is cache:
                return i
        self._caches.append(cache)
        return len(self._caches) - 1

    def tensor(self, x: SparseTensor) -> IRTensor:
        return IRTensor(x.stride, x.num_channels, self._token(x.cache))

    def observe(self, event: str, module: Any, *args: Any) -> None:
        self._seen.add(id(module))
        path = self._paths.get(id(module), type(module).__name__)
        ir = self.ir
        self.hazard = False
        if event == "map":
            x, key, outcome = args
            self.hazard = outcome in ("missing_forward_map", "bad_upsample")
            ir.map_events.append(
                MapEvent(path, key, self._token(x.cache), outcome)
            )
        elif event == "join":
            kind, left, right = args
            self.hazard = left.stride != right.stride or (
                kind == "residual_add"
                and left.num_channels != right.num_channels
            )
            ir.joins.append(
                JoinEvent(
                    path, kind, left.stride, right.stride,
                    left.num_channels, right.num_channels,
                )
            )
        elif event == "channel_mismatch":
            expected, got = args
            self.hazard = True
            ir.channel_mismatches.append(ChannelMismatch(path, expected, got))
        else:
            x, out = args
            node = IRNode(
                path=path,
                module_type=type(module).__name__,
                kind=event,
                label=getattr(module, "label", None),
                in_channels=x.num_channels,
                out_channels=out.num_channels,
                in_stride=x.stride,
                out_stride=out.stride,
            )
            if event == "conv":
                weight = np.asarray(module.weight.data, dtype=np.float64)
                node.kernel_size = module.kernel_size
                node.conv_stride = module.stride
                node.transposed = module.transposed
                node.pointwise = module.is_pointwise
                node.signature = module.signature(x.stride)
                node.weight_abs_max = (
                    float(np.max(np.abs(weight))) if weight.size else 0.0
                )
                node.weight_rms = (
                    float(np.sqrt(np.mean(weight * weight)))
                    if weight.size else 0.0
                )
            ir.nodes.append(node)

    def unvisited(self) -> List[str]:
        """Top-most ``named_modules`` paths no layer under them reported."""
        live: Set[str] = set()
        for path, module in self._model.named_modules():
            if id(module) in self._seen:
                parts = path.split(".")
                live.update(
                    ".".join(parts[:i]) for i in range(1, len(parts) + 1)
                )
        dead: List[str] = []
        for path, module in self._model.named_modules():
            if module is self._model or path in live:
                continue
            if any(path.startswith(p + ".") for p in dead):
                continue  # already covered by an unvisited ancestor
            dead.append(path)
        return dead


def _synthetic_scene(
    in_channels: int, ndim: int, stride: Stride, num_points: int = 150
) -> SparseTensor:
    """The small seeded scene the walk runs on: up to ``num_points``
    unique coordinates in a 24-wide box, scaled to ``stride``."""
    rng = np.random.default_rng(0)
    coords = np.unique(
        rng.integers(0, 24, size=(num_points, ndim), dtype=np.int32), axis=0
    ) * np.asarray(stride, dtype=np.int32)
    # Leading batch column (single scene).
    coords = np.concatenate(
        [np.zeros((len(coords), 1), dtype=np.int32), coords], axis=1
    )
    feats = rng.standard_normal((len(coords), in_channels)).astype(np.float32)
    return SparseTensor(coords=coords, feats=feats, stride=stride)


def trace_model(
    model: Any,
    in_channels: int,
    ndim: int = 3,
    stride: Optional[Stride] = None,
    device: "DeviceSpec | str" = "a100",
    precision: "Precision | str" = Precision.FP16,
    policy: Optional[Any] = None,
) -> ModelIR:
    """Record ``model``'s IR from one ``simulate_only`` run of its forward.

    A hazard ends the walk with the hazard recorded and no trace; any
    other error ``forward`` raises propagates to the caller.
    """
    x = _synthetic_scene(in_channels, ndim, stride or (1,) * ndim)
    recorder = IRRecorder(model, x)
    ir = recorder.ir
    ctx = ExecutionContext(
        device=device, precision=precision, policy=policy, simulate_only=True
    )
    ctx.recorder = recorder
    try:
        out = model(x, ctx)
    except ReproError:
        if not recorder.hazard:
            raise
    else:
        ir.output = recorder.tensor(out)
        ir.unvisited_paths = recorder.unvisited()
        ir.trace = ctx.trace
    ir.mark_boundaries()
    return ir
