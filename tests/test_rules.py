"""Each accepted value is stated once, in a `RULES` table or the rule
vocabulary of `lsgnn.errors`, and every source of a value is checked by it."""

import ast
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
import scipy.sparse as sp

from lsgnn.errors import InputError
from lsgnn.graph import build_graph, enhanced_filters
from lsgnn.harness import ExperimentConfig, SearchSpace, random_search
from lsgnn.localsim import edge_sim_values, similarity
from lsgnn.model import ModelConfig, TrainConfig
from lsgnn.propagation import PropagationConfig, propagate_layers
from lsgnn.synthetic import FsbmConfig, multi_subgraph_config, theory_check

SRC = Path(__file__).resolve().parent.parent / "src" / "lsgnn"

# A valid config of every class with a `RULES` table.
_VALID = {
    PropagationConfig: dict(num_layers=2),
    ModelConfig: dict(num_layers=2, in_dim=1, hidden_dim=8, num_classes=2),
    TrainConfig: {},
    ExperimentConfig: {},
    SearchSpace: {},
    FsbmConfig: dict(lambdas=(0.6, 0.2), num_nodes=8, expected_degree=0.5, mu=(1.0, -1.0), sigma=1.0),
}
# A refused value of each ruled field that is not a number; a number is set to NaN.
_REFUSED = dict(
    variant="cheb", sim_kind="dot", localsim_mode="exact", weight_mode="edge_level", mode="poisson",
    mu=(1.0,), lr_range=(0.1,), weight_decay_range=(1.0, -1.0), dropout_choices=(), beta_choices=(),
    gamma_choices=(), sim_choices=(),
)


@pytest.mark.parametrize("cls", _VALID, ids=lambda cls: cls.__name__)
def test_every_ruled_field_of_every_config_refuses_a_bad_value(cls):
    types = get_type_hints(cls)
    for name in cls.RULES:
        assert name in types
        value = np.nan if types[name] in (int, float) else _REFUSED[name]
        with pytest.raises(InputError) as exc:
            cls(**_VALID[cls] | {name: value})
        assert str(exc.value).startswith(f"{name} "), name


_G = build_graph([(0, 1)], num_nodes=2)
_X = np.ones((2, 1))

# Each loose argument: a call that passes it a refused value, the argument's
# name and value, and the `RULES` entry that states what it accepts.
_LOOSE = {
    "propagate_layers": (lambda: propagate_layers("cheb", sp.csr_array(np.eye(2)), _X, 1, 0.5),
                         "variant", "cheb", PropagationConfig.RULES["variant"]),
    "similarity": (lambda: similarity(_X, _X, "dot"), "sim_kind", "dot", ModelConfig.RULES["sim_kind"]),
    "edge_sim_values": (lambda: edge_sim_values(_G, _X, "dot"), "sim_kind", "dot",
                        ModelConfig.RULES["sim_kind"]),
    "enhanced_filters": (lambda: enhanced_filters(_G, 1.5), "beta", 1.5, PropagationConfig.RULES["beta"]),
    "theory_check": (lambda: theory_check(multi_subgraph_config((0.9, 0.1)), 0), "trials", 0,
                     TrainConfig.RULES["epochs"]),
    "random_search": (lambda: random_search(None, SearchSpace(), 0, []), "budget", 0,
                      TrainConfig.RULES["epochs"]),
}


@pytest.mark.parametrize("case", _LOOSE)
def test_each_loose_argument_is_refused_with_its_table_text(case):
    call, name, value, rule = _LOOSE[case]
    with pytest.raises(InputError) as exc:
        call()
    shown = repr(value) if isinstance(value, str) else value
    assert str(exc.value) == f"{name} {rule[1]}, got {shown}"


def _code_strings(path: Path) -> list[str]:
    """The string constants of a module's code, docstrings left out."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
    }
    return [node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in docstrings]


@pytest.mark.parametrize("stem", ["must be >=", "must lie in", "must be one of"])
def test_each_shared_rule_text_is_stated_once(stem):
    found = [path.name for path in sorted(SRC.glob("*.py")) for text in _code_strings(path) if stem in text]
    assert found == ["errors.py"]
