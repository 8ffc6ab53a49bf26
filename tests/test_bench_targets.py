"""The traced benchmark run (`perfbench/run.py --trace 1`) wraps clmmlab
functions named by dotted path in perfbench/spans.py. A rename or a move
in clmmlab would make that run fail; this resolves every name, patching
nothing."""

import importlib
import importlib.util
import inspect
import os

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(dotted):
    """module.function or module.Class.method, as the tracer reads it."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            owner = getattr(owner, name)
        return owner
    raise ModuleNotFoundError(dotted)


def test_every_traced_target_resolves_to_a_clmmlab_function():
    targets = _spans().targets()
    assert targets
    for dotted, _, _ in targets:
        fn = _resolve(dotted)
        assert inspect.isfunction(fn) or inspect.ismethod(fn), dotted
        assert fn.__module__.startswith("clmmlab."), dotted

