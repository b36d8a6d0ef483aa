"""Minimal module system: parameters, containment, training mode.

Deliberately torch-like in shape (``Module.forward``, ``parameters()``)
but tiny: layers receive the :class:`~repro.nn.context.ExecutionContext`
explicitly, and backward is an explicit reverse traversal (each layer saves
what it needs during a training-mode forward)."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigError


class Parameter:
    """A learnable array with an accumulated gradient."""

    def __init__(self, data: np.ndarray):
        self.data = np.asarray(data, dtype=np.float32)
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad.astype(np.float32)

    def __repr__(self) -> str:
        return f"Parameter(shape={self.data.shape})"


class Module:
    """Base class for all layers and networks."""

    def __init__(self) -> None:
        self.training = False

    # ------------------------------------------------------------------ #
    # Containment (discovered by attribute scan; no __setattr__ magic)
    # ------------------------------------------------------------------ #
    def children(self) -> Iterator[Tuple[str, "Module"]]:
        for name, value in vars(self).items():
            if isinstance(value, Module):
                yield name, value
            elif isinstance(value, ModuleList):
                for i, child in enumerate(value):
                    yield f"{name}.{i}", child

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield prefix or type(self).__name__, self
        for name, child in self.children():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_modules(child_prefix)

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, value in vars(self).items():
            if isinstance(value, Parameter):
                yield (f"{prefix}.{name}" if prefix else name), value
        for name, child in self.children():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_parameters(child_prefix)

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def num_parameters(self) -> int:
        return sum(int(np.prod(p.shape)) for p in self.parameters())

    # ------------------------------------------------------------------ #
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for _, child in self.children():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, np.ndarray]:
        """All parameters (and batch-norm running stats) by name."""
        state = {
            name: param.data.copy()
            for name, param in self.named_parameters()
        }
        for name, module in self.named_modules():
            for attr in ("running_mean", "running_var"):
                value = getattr(module, attr, None)
                if isinstance(value, np.ndarray):
                    state[f"{name}.{attr}"] = value.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Restore a :meth:`state_dict`; shapes must match exactly."""
        params = dict(self.named_parameters())
        consumed = set()
        for name, param in params.items():
            if name not in state:
                raise KeyError(f"state dict is missing parameter {name!r}")
            value = np.asarray(state[name])
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: checkpoint "
                    f"{value.shape} vs model {param.data.shape}"
                )
            param.data = value.astype(np.float32).copy()
            consumed.add(name)
        for name, module in self.named_modules():
            for attr in ("running_mean", "running_var"):
                key = f"{name}.{attr}"
                if key in state and hasattr(module, attr):
                    setattr(module, attr, np.asarray(state[key]).copy())
                    consumed.add(key)
        extra = set(state) - consumed
        if extra:
            raise KeyError(f"unexpected keys in state dict: {sorted(extra)}")

    # ------------------------------------------------------------------ #
    def check_channels(self, x, expected: int, ctx) -> None:
        """Raise :class:`ConfigError` when ``x`` is not ``expected``
        channels wide, reporting the mismatch to ``ctx``'s recorder first."""
        if x.num_channels == expected:
            return
        ctx.observe("channel_mismatch", self, expected, x.num_channels)
        raise ConfigError(
            f"{getattr(self, 'label', type(self).__name__)}: expected "
            f"{expected} input channels, got {x.num_channels}"
        )

    def forward(self, x, ctx):  # pragma: no cover - abstract
        raise NotImplementedError

    def backward(self, grad, ctx):  # pragma: no cover - abstract
        raise NotImplementedError(
            f"{type(self).__name__} does not implement backward"
        )

    def __call__(self, x, ctx):
        return self.forward(x, ctx)

    def __repr__(self) -> str:
        child_names = ", ".join(name for name, _ in self.children())
        return f"{type(self).__name__}({child_names})"


class ModuleList:
    """A list of modules discovered by the containment scan."""

    def __init__(self, modules: Optional[List[Module]] = None):
        self._modules: List[Module] = list(modules or [])

    def append(self, module: Module) -> None:
        self._modules.append(module)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules)

    def __len__(self) -> int:
        return len(self._modules)

    def __getitem__(self, index: int) -> Module:
        return self._modules[index]
