"""The benchmark's per-layer metrics are keyed on traced lsgnn names.

`bench/spans.py` sums spans by name; a renamed or deleted function, or a
restructure that stops calling it, would make its metric read 0 without
any error.  These tests load that file as it is, check every name it reads
against the package, and trace a small precompute, train and eval.
"""

import importlib
import importlib.util
import inspect
import os
import sys

import numpy as np
import pytest
import yaml

from lsgnn import cli
from lsgnn.harness import save_dataset
from lsgnn.propagation import propagate_layers
from lsgnn.synthetic import generate_fsbm, multi_subgraph_config

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


def test_traced_commands_keep_their_metrics_non_zero(tmp_path, capsys):
    ds = generate_fsbm(multi_subgraph_config((0.9, 0.1), num_nodes=200), seed=0)
    x = np.hstack([ds.x, np.random.default_rng(1).normal(size=(200, 3))])
    data = tmp_path / "data"
    save_dataset(data, ds.graph, x, ds.community)
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump({"num_layers": 2, "epochs": 3, "patience": 3}))
    splits = 2
    shared = ["--data", str(data), "--config", str(config)]
    commands = [
        ["precompute", *shared, "--out", str(tmp_path / "precompute")],
        ["train", *shared, "--splits", str(splits), "--out", str(tmp_path / "train")],
        ["eval", *shared, "--checkpoint", str(tmp_path / "train" / "model.lspm"),
         "--out", str(tmp_path / "eval")],
    ]
    tracer = spans.Tracer()
    with tracer.installed():
        for argv in commands:
            assert cli.main(argv) == 0, argv
    capsys.readouterr()

    metrics = spans.iteration_metrics(tracer.spans, wall_s=1.0)
    calls = spans.call_durations_ms(tracer.spans)
    metrics.update({name: spans.percentile(values, 50) for name, values in calls.items()})
    for name in ("propagation.row_normalize_s", "localsim.edge_sim_values_s",
                 "localsim.edge_entries", "model.loss_grad_ms_p50", "model.val_eval_ms_p50"):
        assert metrics[name] > 0, name
    assert metrics["model.epochs"] == 3 * splits
