"""The benchmark's per-layer metrics are keyed on traced lsgnn names.

`bench/spans.py` sums spans by name; a renamed or deleted function would
make its metric read 0 without any error.  These tests load that file as
it is and check every name it reads against the package.
"""

import importlib
import importlib.util
import inspect
import os
import sys

import pytest

from lsgnn.propagation import propagate_layers

SPANS_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "bench", "spans.py")


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


spans = _load_spans()

TRACED = sorted(
    {name for name, _ in spans._ITERATION_SUMS.values()}
    | {name for name, _, _ in spans._CALL_PERCENTILES.values()}
    | {parent for _, parent, _ in spans._CALL_PERCENTILES.values() if parent is not None}
    | {"model.predict"}
    | {f"{layer}.{cls}.{attr}" for layer, cls, attr in spans.METHODS}
)


@pytest.mark.parametrize("name", TRACED)
def test_traced_name_resolves_in_its_module(name):
    layer, *path = name.split(".")
    module = importlib.import_module(f"lsgnn.{layer}")
    if len(path) == 1:
        # The tracer names a function's span by its defining module and name.
        fn = getattr(module, path[0], None)
        assert inspect.isfunction(fn), f"lsgnn.{layer} has no function {path[0]}"
        assert (fn.__module__, fn.__name__) == (module.__name__, path[0])
    else:
        cls_name, attr = path
        cls = getattr(module, cls_name, None)
        assert inspect.isclass(cls), f"lsgnn.{layer} has no class {cls_name}"
        assert attr in vars(cls), f"{cls_name} defines no {attr}"


def test_propagate_layers_keeps_the_arguments_the_tracer_unpacks():
    # _count_attrs reads (variant, s, x, num_layers, gamma) positionally.
    params = inspect.signature(propagate_layers).parameters.values()
    assert [(p.name, p.kind) for p in params] == [
        (name, inspect.Parameter.POSITIONAL_OR_KEYWORD)
        for name in ("variant", "s", "x", "num_layers", "gamma")
    ]
