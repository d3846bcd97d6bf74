"""Command-line entry point.

Every command writes a `report.csv` (stable, byte-identical across reruns
with the same arguments) and a `manifest.txt` (argv, resolved config,
seeds, every parsed flag, version) into its output directory.  A failing
command prints `error: ...` and exits 2 without writing either file; a
malformed flag value exits 2 before the output directory is made.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, astuple, fields, replace

import numpy as np
import yaml

from .errors import InputError, LsgnnError
from .harness import (
    SEARCHED,
    ExperimentConfig,
    SearchSpace,
    dataset_stats,
    depth_sweep,
    load_dataset,
    make_splits,
    random_search,
    run_experiment,
    save_dataset,
    write_manifest,
    write_report,
)
from .model import ModelInputs, evaluate, load_checkpoint, save_checkpoint
from .propagation import _fits_type, precompute_bundle, save_bundle
from .synthetic import MODES, generate_fsbm, multi_subgraph_config, theory_check, toy_study


def _typed(kind, expected: str, low=None, count=None, single=False):
    """An argparse type: one `kind` value if `single`, else a comma-separated
    tuple of them, exactly `count` long when given; each value must be at
    least `low` when given.  Other text fails as `expected <expected>, got
    '<text>'`, which argparse prints after the flag's name and exits 2."""

    def parse(text: str):
        try:
            values = tuple(map(kind, [text] if single else text.split(",")))
        except ValueError:
            values = ()
        if not values or (count is not None and len(values) != count) or (
                low is not None and min(values) < low):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return values[0] if single else values

    return parse


# numpy seeds must be non-negative integers; counts must be at least one.
_seed = _typed(int, "a non-negative integer", low=0, single=True)
_count = _typed(int, "a positive integer", low=1, single=True)
_number = _typed(float, "a number", single=True)
_numbers = _typed(float, "comma-separated numbers")
_pair = _typed(float, "two comma-separated numbers", count=2)


def _load_overrides(path) -> dict:
    """The flat mapping a `--config` file holds; no file means no overrides."""
    if path is None:
        return {}
    # Read as bytes so that PyYAML decodes the file itself and reports a
    # non-UTF-8 byte as a YAMLError, like any other malformed input.
    with open(path, "rb") as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise InputError(f"config file {path} is not valid YAML: {exc}") from exc
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise InputError(f"config file {path} must contain a flat key-value mapping")
    return data


def _resolve_configs(overrides: dict):
    """Split config-file overrides between the experiment config and the
    search space; unknown keys and values of the wrong type are errors."""
    exp_defaults = asdict(ExperimentConfig())
    space_defaults = asdict(SearchSpace())
    defaults = exp_defaults | space_defaults
    unknown = [key for key in overrides if key not in defaults]
    if unknown:
        raise InputError(
            f"unknown config keys {sorted(unknown, key=repr)}; allowed keys are {sorted(defaults)}"
        )
    for key, value in overrides.items():
        default = defaults[key]
        if isinstance(default, tuple):
            ok = isinstance(value, list) and all(_fits_type(v, type(default[0])) for v in value)
            expected = f"a list of {type(default[0]).__name__}"
        else:
            ok = _fits_type(value, type(default))
            expected = type(default).__name__
        if not ok:
            raise InputError(f"config key {key!r} expects {expected}, got {value!r}")
    config = replace(
        ExperimentConfig(), **{k: v for k, v in overrides.items() if k in exp_defaults}
    ).validate()
    space = SearchSpace(**{k: tuple(v) for k, v in overrides.items() if k in space_defaults})
    return config, space


def _stats_table(stats) -> tuple[list[str], list[list]]:
    """The report header and single row of a `DatasetStats`."""
    return [f.name for f in fields(stats)], [list(astuple(stats))]


def _cmd_gen_fsbm(args, out):
    config = multi_subgraph_config(
        args.lambdas,
        num_nodes=args.nodes,
        expected_degree=args.degree,
        mu=args.mu,
        sigma=args.sigma,
        mode=args.mode,
    )
    ds = generate_fsbm(config, seed=[args.seed])
    save_dataset(out, ds.graph, ds.x, ds.community, subgraph_id=ds.subgraph_id)
    stats = dataset_stats(load_dataset(out))
    print(f"wrote dataset to {out} ({stats.num_nodes} nodes, {stats.num_edges} edges)")
    return *_stats_table(stats), asdict(config), {}


def _cmd_precompute(args, out):
    config, _ = _resolve_configs(_load_overrides(args.config))
    bundle = load_dataset(args.data)
    stack = precompute_bundle(bundle.graph, bundle.features, config.propagation())
    path = os.path.join(out, "bundle.lspb")
    save_bundle(stack, path)
    print(f"wrote propagation bundle to {path}")
    prop = stack.config
    return (
        ["num_nodes", "feature_dim", "num_layers", "variant", "gamma", "beta", "normalize"],
        [[stack.num_nodes, stack.feature_dim, prop.num_layers, prop.variant, prop.gamma, prop.beta,
          int(prop.normalize)]],
        asdict(config),
        {"feature_digest": stack.feature_digest.hex(), "bundle": path},
    )


def _cmd_train(args, out):
    config, _ = _resolve_configs(_load_overrides(args.config))
    bundle = load_dataset(args.data)
    splits = make_splits(bundle.num_nodes, base_seed=args.seed, count=args.splits)
    report = run_experiment(bundle, config, splits, base_seed=args.seed)
    checkpoint = os.path.join(out, "model.lspm")
    model_cfg = config.model(bundle.features.shape[1], bundle.num_classes)
    save_checkpoint(checkpoint, model_cfg, config.propagation(), report.best_params)
    rows = [[i, report.test_accuracies[i], report.val_accuracies[i]] for i in range(len(splits))]
    rows.append(["mean", report.mean, report.val_mean])
    print(f"mean test accuracy {report.mean:.4f} (std {report.std:.4f}) over {args.splits} splits")
    print(f"checkpoint written to {checkpoint}")
    return (
        ["split", "test_accuracy", "val_accuracy"],
        rows,
        asdict(config),
        {"checkpoint": checkpoint, "seconds": f"{report.seconds:.3f}"},
    )


def _cmd_eval(args, out):
    """Evaluate with the checkpoint's own configs; a config-file key that
    names one of their fields must agree with it, other keys are unused."""
    overrides = _load_overrides(args.config)
    _resolve_configs(overrides)
    model_cfg, prop_cfg, params = load_checkpoint(args.checkpoint)
    stored = asdict(prop_cfg) | asdict(model_cfg)
    for key, value in sorted(overrides.items()):
        if key in stored and value != stored[key]:
            raise InputError(
                f"config key {key!r} is {value!r}, but checkpoint {args.checkpoint} "
                f"was trained with {stored[key]!r}"
            )
    bundle = load_dataset(args.data)
    width = bundle.features.shape[1]
    if width != model_cfg.in_dim:
        raise InputError(
            f"checkpoint {args.checkpoint} expects {model_cfg.in_dim} features per node, "
            f"but dataset {args.data} has {width}"
        )
    if bundle.num_classes > model_cfg.num_classes:
        raise InputError(
            f"checkpoint {args.checkpoint} predicts {model_cfg.num_classes} classes, "
            f"but dataset {args.data} has {bundle.num_classes}"
        )
    stack = precompute_bundle(bundle.graph, bundle.features, prop_cfg)
    inputs = ModelInputs.build(bundle.graph, bundle.features, stack, model_cfg.sim_kind)
    mask = np.ones(bundle.num_nodes, dtype=bool)
    accuracy = evaluate(params, model_cfg, inputs, bundle.labels, mask)
    print(f"accuracy over all nodes: {accuracy:.4f}")
    return ["num_nodes", "accuracy"], [[bundle.num_nodes, accuracy]], stored, {}


def _cmd_toy(args, out):
    config, _ = _resolve_configs(_load_overrides(args.config))
    cells = toy_study(args.lambdas, range(args.seeds), config, mode=args.mode, base_seed=args.seed)
    rows = [
        [cell.lambdas[0], cell.lambdas[1], s, cell.raw[i], cell.graph_level[i], cell.node_level[i]]
        for cell in cells
        for i, s in enumerate(cell.seeds)
    ]
    for cell in cells:
        means = cell.means()
        print(
            f"lambdas={cell.lambdas}: raw={means['raw']:.4f} "
            f"graph_level={means['graph_level']:.4f} node_level={means['node_level']:.4f}"
        )
    return ["lambda1", "lambda2", "seed", "raw", "graph_level", "node_level"], rows, asdict(config), {}


def _cmd_theory(args, out):
    config = multi_subgraph_config(args.lambdas, num_nodes=args.nodes, sigma=args.sigma, mode=args.mode)
    report = theory_check(config, trials=args.trials, base_seed=args.seed)
    rows = [
        ["expectation", tau, report.lambdas[tau], report.analytic[tau], report.empirical[tau],
         report.stderr[tau]]
        for tau in range(config.num_subgraphs)
    ]
    rows.append(["l1_gap", "-", "-", report.gap_bound, report.gap_empirical, report.gap_stderr])
    for tau in range(config.num_subgraphs):
        print(
            f"subgraph {tau}: lambda={report.lambdas[tau]:.3f} "
            f"analytic={report.analytic[tau]:.4f} empirical={report.empirical[tau]:.4f} "
            f"stderr={report.stderr[tau]:.4f}"
        )
    print(
        f"l1 gap: bound={report.gap_bound:.4f} empirical={report.gap_empirical:.4f} "
        f"stderr={report.gap_stderr:.4f} passed={report.gap_passed}"
    )
    return ["kind", "subgraph", "lambda", "reference", "empirical", "stderr"], rows, asdict(config), {}


def _cmd_stats(args, out):
    stats = dataset_stats(load_dataset(args.data))
    print(
        f"nodes={stats.num_nodes} edges={stats.num_edges} classes={stats.num_classes} "
        f"features={stats.feature_dim} homophily={stats.homophily:.4f}"
    )
    return *_stats_table(stats), {}, {}


def _cmd_sweep_depth(args, out):
    config, _ = _resolve_configs(_load_overrides(args.config))
    bundle = load_dataset(args.data)
    splits = make_splits(bundle.num_nodes, base_seed=args.seed, count=args.splits)
    sweep = depth_sweep(bundle, config, args.k_list, splits, base_seed=args.seed)
    rows = [
        [row.num_layers, arm, i, acc]
        for row in sweep
        for arm, report in (("main", row.main), ("sgc_variant", row.sgc_variant))
        for i, acc in enumerate(report.test_accuracies)
    ]
    for row in sweep:
        print(
            f"K={row.num_layers}: main={row.main.mean:.4f} "
            f"sgc_variant={row.sgc_variant.mean:.4f}"
        )
    return ["num_layers", "arm", "split", "test_accuracy"], rows, asdict(config), {}


def _cmd_search(args, out):
    config, space = _resolve_configs(_load_overrides(args.config))
    bundle = load_dataset(args.data)
    splits = make_splits(bundle.num_nodes, base_seed=args.seed, count=args.splits)
    result = random_search(
        bundle, space, budget=args.budget, splits=splits, seed=args.seed, base=config
    )
    columns = [name for _, name, _ in SEARCHED]
    rows = [
        [trial.index, int(trial.failed), trial.val_mean, trial.test_mean]
        + [trial.config[key] for key in columns]
        for trial in result.trials
    ]
    with open(os.path.join(out, "best_config.yaml"), "w", encoding="utf-8") as fh:
        yaml.safe_dump(asdict(result.best_config), fh, sort_keys=True)
    print(
        f"best trial: val={result.best_report.val_mean:.4f} "
        f"test={result.best_report.mean:.4f} config={asdict(result.best_config)}"
    )
    return ["trial", "failed", "val_mean", "test_mean", *columns], rows, asdict(config), {}


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=_seed, default=0, help="base seed for all derived randomness")
    shared.add_argument("--out", default=None, help="output directory (default runs/<command>)")
    configured = argparse.ArgumentParser(add_help=False, parents=[shared])
    configured.add_argument("--config", default=None, help="flat YAML config file")

    parser = argparse.ArgumentParser(prog="lsgnn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-fsbm", parents=[shared], help="generate a synthetic block-model dataset")
    p.add_argument("--lambdas", type=_numbers, default=(0.5, 0.5),
                   help="per-subgraph homophily levels, comma-separated")
    p.add_argument("--nodes", type=_count, default=1000)
    p.add_argument("--degree", type=_number, default=10.0)
    p.add_argument("--mu", type=_pair, default=(1.0, -1.0), help="community feature means")
    p.add_argument("--sigma", type=_number, default=1.0)
    p.add_argument("--mode", choices=MODES, default="bernoulli")
    p.set_defaults(func=_cmd_gen_fsbm)

    p = sub.add_parser("precompute", parents=[configured], help="precompute and store a propagation bundle")
    p.add_argument("--data", required=True, help="dataset directory")
    p.set_defaults(func=_cmd_precompute)

    p = sub.add_parser("train", parents=[configured], help="train over random splits and checkpoint the best")
    p.add_argument("--data", required=True)
    p.add_argument("--splits", type=_count, default=10)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", parents=[configured], help="evaluate a checkpoint on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("toy", parents=[configured], help="raw vs graph-level vs node-level case study")
    p.add_argument("--lambdas", type=_pair, action="append", required=True,
                   help="one cell per flag, e.g. 0.9,0.1")
    p.add_argument("--seeds", type=_count, default=5)
    p.add_argument("--mode", choices=MODES, default="bernoulli")
    p.set_defaults(func=_cmd_toy)

    p = sub.add_parser("theory", parents=[shared], help="Monte-Carlo checks of the local-similarity theory")
    p.add_argument("--lambdas", type=_pair, default=(0.5, 0.5))
    p.add_argument("--nodes", type=_count, default=1000)
    p.add_argument("--sigma", type=_number, default=1.0)
    p.add_argument("--trials", type=_count, default=100)
    p.add_argument("--mode", choices=MODES, default="expectation_exact")
    p.set_defaults(func=_cmd_theory)

    p = sub.add_parser("stats", parents=[shared], help="dataset statistics (size, classes, homophily)")
    p.add_argument("--data", required=True)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("sweep-depth", parents=[configured], help="accuracy versus propagation depth")
    p.add_argument("--data", required=True)
    p.add_argument("--k-list", type=_typed(int, "comma-separated integers >= 1", low=1),
                   default=(1, 2, 4, 8))
    p.add_argument("--splits", type=_count, default=5)
    p.set_defaults(func=_cmd_sweep_depth)

    p = sub.add_parser("search", parents=[configured], help="random hyperparameter search")
    p.add_argument("--data", required=True)
    p.add_argument("--budget", type=_count, default=200)
    p.add_argument("--splits", type=_count, default=10)
    p.set_defaults(func=_cmd_search)

    return parser


def main(argv=None) -> int:
    """Run one command.  Its handler `_cmd_<name>(args, out)` does its work
    in `out` and returns the report's header and rows, the manifest's config
    and notes on what the run computed; the manifest also records every
    parsed flag.  Only this function creates `out`, writes both files and
    chooses the exit code."""
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(argv)
    out = args.out or os.path.join("runs", args.command)
    try:
        os.makedirs(out, exist_ok=True)
        header, rows, config, notes = args.func(args, out)
        write_report(os.path.join(out, "report.csv"), header, rows)
        flags = {k: v for k, v in vars(args).items() if k not in ("func", "command", "seed")}
        write_manifest(os.path.join(out, "manifest.txt"), ["lsgnn", *argv], config, args.seed,
                       flags | notes)
    except (LsgnnError, OSError) as exc:
        # Every OSError here comes from a path the user named.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
