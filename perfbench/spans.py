"""Outside-in span recorder for the traced benchmark run.

The recorder times calls into the program's public functions from the
benchmark's own files: it replaces a function with a timing wrapper at
its defining module *and* at every ``repro.*`` module attribute bound to
the same object (most callers bind by name, e.g. ``nn/conv.py`` does
``from repro.sparse.kmap import build_kernel_map``), wraps public methods
on their classes, and wraps one object's ``__call__`` by giving it a
private subclass.  :meth:`SpanRecorder.restore` puts every binding back,
including names a module bound to a wrapper because it was imported while
the recorder was installed.

Spans live in memory as ``[name, start, end, parent]`` lists (``parent``
is the index of the enclosing span, -1 at the root) and are written out
by the caller when the run ends.  Timed runs never construct a recorder.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from typing import Callable, Dict, Iterator, List, Tuple

_PACKAGE = "repro"


def _program_modules() -> List[object]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None
        and (name == _PACKAGE or name.startswith(_PACKAGE + "."))
    ]


class SpanRecorder:
    """Collects nested spans and owns every binding it replaced."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: Undo log: (owner, attribute, original) in installation order.
        self._patches: List[Tuple[object, str, object]] = []
        #: id(wrapper) -> (wrapper, original), to undo late by-name
        #: imports; holding the wrapper keeps its id from being reused.
        self._wrappers: Dict[int, Tuple[Callable, object]] = {}
        #: (object, original class) for wrapped instance calls.
        self._swapped: List[Tuple[object, type]] = []

    # -- recording ------------------------------------------------------ #
    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = self.clock()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record a span around a block of the benchmark's own code."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _timed(self, fn: Callable, name: str) -> Callable:
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(index)

        self._wrappers[id(wrapper)] = (wrapper, fn)
        return wrapper

    # -- installation --------------------------------------------------- #
    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap_function(self, module_name: str, attr: str, name: str) -> None:
        """Wrap ``module_name.attr`` and every program-module binding of it."""
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = self._timed(original, name)
        for module in _program_modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, key, wrapper)

    def wrap_method(self, cls: type, attr: str, name: str) -> None:
        """Wrap a method defined on ``cls`` itself."""
        if attr not in vars(cls):
            raise AttributeError(f"{cls.__name__} does not define {attr!r}")
        self._patch(cls, attr, self._timed(vars(cls)[attr], name))

    def wrap_call(self, obj: object, name: str) -> None:
        """Time calls of one object (``obj(...)``) and of no other."""
        cls = type(obj)
        timed = self._timed(cls.__call__, name)
        obj.__class__ = type(cls.__name__, (cls,), {"__call__": timed})
        self._swapped.append((obj, cls))

    def restore(self) -> None:
        """Undo every installation, newest first."""
        for obj, cls in reversed(self._swapped):
            obj.__class__ = cls
        self._swapped.clear()
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        # A module imported while wrappers were installed bound them by
        # name; put the originals back there too.
        for module in _program_modules():
            for key, value in list(vars(module).items()):
                pair = self._wrappers.get(id(value))
                if pair is not None and value is pair[0]:
                    setattr(module, key, pair[1])
        self._wrappers.clear()

    def __enter__(self) -> "SpanRecorder":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()

    # -- derived figures ------------------------------------------------ #
    def self_times(self) -> List[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def totals(self) -> Dict[str, Tuple[int, float]]:
        """Span name -> (calls, summed self time in seconds)."""
        out: Dict[str, Tuple[int, float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            calls, seconds = out.get(span[0], (0, 0.0))
            out[span[0]] = (calls + 1, seconds + own)
        return out
