import importlib
import inspect

import pytest

LIBRARY = ("graph", "harness", "localsim", "model", "propagation", "synthetic")


@pytest.mark.parametrize("name", LIBRARY)
def test_all_lists_exactly_the_public_definitions(name):
    module = importlib.import_module(f"lsgnn.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == [], f"lsgnn.{name}.__all__ names undefined {missing}"
    defined = [
        attr
        for attr, value in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module.__name__
    ]
    unlisted = sorted(set(defined) - set(module.__all__))
    assert unlisted == [], f"lsgnn.{name} defines {unlisted} outside __all__"
    assert len(set(module.__all__)) == len(module.__all__)
