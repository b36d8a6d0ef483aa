"""The span recorder wraps what it should and restores every binding."""

import sys
import types

import layers
from spans import SpanRecorder, _program_modules


def _bindings():
    """Every attribute of every program module and of every class in one."""
    out = {}
    for module in _program_modules():
        for key, value in list(vars(module).items()):
            out[(module.__name__, key)] = value
            if isinstance(value, type):
                for attr, member in list(vars(value).items()):
                    out[(module.__name__, key, attr)] = member
    return out


def test_install_wraps_by_name_bindings_and_restore_puts_them_back():
    from repro.data.datasets import make_sample
    from repro.models.registry import get_workload

    for module in layers.CALLERS:
        __import__(module)
    before = _bindings()
    model = get_workload("SK-M-0.5").build_model()
    model_class = type(model)

    recorder = SpanRecorder()
    layers.install(recorder)
    recorder.wrap_call(model, layers.MODEL_CALL)
    import repro.nn.conv
    import repro.nn.context
    import repro.sparse.kmap

    # Callers that bound a function by name see the wrapper too.
    assert repro.nn.conv.build_kernel_map is repro.sparse.kmap.build_kernel_map
    assert repro.nn.conv.build_kernel_map is not before[
        ("repro.sparse.kmap", "build_kernel_map")
    ]
    assert repro.nn.context.estimate_trace_us is not before[
        ("repro.nn.context", "estimate_trace_us")
    ]
    assert type(model) is not model_class
    # A module imported while the recorder is installed binds a wrapper.
    late = types.ModuleType("repro._late_binding_probe")
    late.make_sample = sys.modules["repro.data.datasets"].make_sample
    assert late.make_sample is not make_sample
    sys.modules[late.__name__] = late
    try:
        recorder.restore()
        assert late.make_sample is make_sample
    finally:
        del sys.modules[late.__name__]

    after = _bindings()
    changed = [k for k in before if after.get(k) is not before[k]]
    assert changed == []
    assert type(model) is model_class


def test_spans_nest_and_self_time_excludes_children():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))

    def inner():
        return 7

    fake = types.SimpleNamespace(inner=inner)
    timed = recorder._timed(fake.inner, "layer.inner")
    with recorder.span("work"):  # opens at 0
        assert timed() == 7  # 1 .. 2
        assert timed() == 7  # 3 .. 4
    # closes at 5
    totals = recorder.totals()
    assert totals["layer.inner"] == (2, 2.0)
    assert totals["work"] == (1, 3.0)
    assert layers.phase_totals(recorder, "work")["layer.inner"] == (2, 2.0)


def test_wrapped_call_is_recorded_for_that_object_only():
    from repro.models.registry import get_workload

    workload = get_workload("SK-M-0.5")
    traced, other = workload.build_model(), workload.build_model()
    with SpanRecorder() as recorder:
        recorder.wrap_call(traced, "nn.forward")
        assert type(other) is not type(traced)
        assert isinstance(traced, type(other))
    assert type(traced) is type(other)
    assert recorder.spans == []
