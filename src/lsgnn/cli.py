"""Command-line entry point.

Heavy submodules are imported inside command handlers so that --threads
can pin BLAS/OpenMP pool sizes through environment variables before numpy
first loads.

Every command writes a `report.csv` (stable, byte-identical across reruns
with the same arguments) and a `manifest.txt` (argv, resolved config,
seeds, version) into its output directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, astuple, fields, replace

import yaml

from .errors import InputError, LsgnnError

_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise LsgnnError(f"expected comma-separated numbers, got {text!r}") from exc


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise LsgnnError(f"expected comma-separated integers, got {text!r}") from exc


def _load_overrides(path):
    with open(path, "r", encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise LsgnnError(f"config file {path} must contain a flat key-value mapping")
    return data


def _fits(value, default) -> bool:
    """Whether a config value has its default's type: an int passes for a
    float, a bool never passes for a number."""
    if isinstance(value, bool) != isinstance(default, bool):
        return False
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(default))


def _resolve_configs(args):
    """Split config-file overrides between the experiment config and the
    search space; unknown keys and values of the wrong type are errors."""
    from .harness import ExperimentConfig, SearchSpace

    overrides = _load_overrides(args.config) if args.config else {}
    exp_defaults = asdict(ExperimentConfig())
    space_defaults = asdict(SearchSpace())
    defaults = exp_defaults | space_defaults
    unknown = [key for key in overrides if key not in defaults]
    if unknown:
        raise InputError(
            f"unknown config keys {sorted(unknown)}; allowed keys are {sorted(defaults)}"
        )
    for key, value in overrides.items():
        default = defaults[key]
        if isinstance(default, tuple):
            ok = isinstance(value, list) and all(_fits(v, default[0]) for v in value)
            expected = f"a list of {type(default[0]).__name__}"
        else:
            ok = _fits(value, default)
            expected = type(default).__name__
        if not ok:
            raise InputError(f"config key {key!r} expects {expected}, got {value!r}")
    config = replace(
        ExperimentConfig(), **{k: v for k, v in overrides.items() if k in exp_defaults}
    ).validate()
    space = SearchSpace(**{k: tuple(v) for k, v in overrides.items() if k in space_defaults})
    return config, space


def _out_dir(args, default_name: str) -> str:
    out = args.out or os.path.join("runs", default_name)
    os.makedirs(out, exist_ok=True)
    return out


def _write_outputs(out, argv, args, header, rows, config: dict, notes: dict | None) -> None:
    """Write a command's `report.csv` and `manifest.txt` into `out`."""
    from .harness import write_manifest, write_report

    write_report(os.path.join(out, "report.csv"), header, rows)
    write_manifest(os.path.join(out, "manifest.txt"), ["lsgnn", *argv], config, args.seed, notes)


def _stats_table(stats) -> tuple[list[str], list[list]]:
    """The report header and single row of a `DatasetStats`."""
    return [f.name for f in fields(stats)], [list(astuple(stats))]


def _cmd_gen_fsbm(args, argv):
    from .harness import dataset_stats, load_dataset, save_dataset
    from .synthetic import generate_fsbm, multi_subgraph_config

    config = multi_subgraph_config(
        _parse_floats(args.lambdas),
        num_nodes=args.nodes,
        expected_degree=args.degree,
        mu=_parse_floats(args.mu),
        sigma=args.sigma,
        mode=args.mode,
    )
    ds = generate_fsbm(config, seed=[args.seed])
    out = _out_dir(args, "gen-fsbm")
    save_dataset(out, ds.graph, ds.x, ds.community, subgraph_id=ds.subgraph_id)
    stats = dataset_stats(load_dataset(out))
    _write_outputs(out, argv, args, *_stats_table(stats), asdict(config), None)
    print(f"wrote dataset to {out} ({stats.num_nodes} nodes, {stats.num_edges} edges)")
    return 0


def _cmd_precompute(args, argv):
    from .harness import load_dataset
    from .propagation import precompute_bundle, save_bundle

    config, _ = _resolve_configs(args)
    bundle = load_dataset(args.data)
    stack = precompute_bundle(bundle.graph, bundle.features, config.propagation())
    out = _out_dir(args, "precompute")
    path = os.path.join(out, "bundle.lspb")
    save_bundle(stack, path)
    _write_outputs(
        out,
        argv,
        args,
        ["num_nodes", "feature_dim", "num_layers", "variant", "gamma", "beta", "normalize"],
        [[
            stack.num_nodes,
            stack.feature_dim,
            stack.config.num_layers,
            stack.config.variant,
            stack.config.gamma,
            stack.config.beta,
            int(stack.config.normalize),
        ]],
        asdict(config),
        {"feature_digest": stack.feature_digest.hex(), "bundle": path},
    )
    print(f"wrote propagation bundle to {path}")
    return 0


def _cmd_train(args, argv):
    from .harness import load_dataset, make_splits, run_experiment
    from .model import save_checkpoint

    config, _ = _resolve_configs(args)
    bundle = load_dataset(args.data)
    splits = make_splits(bundle.num_nodes, base_seed=args.seed, count=args.splits)
    out = _out_dir(args, "train")
    report = run_experiment(bundle, config, splits, base_seed=args.seed)
    checkpoint = os.path.join(out, "model.lspm")
    model_cfg = config.model(bundle.features.shape[1], bundle.num_classes)
    save_checkpoint(checkpoint, model_cfg, report.best_params)

    rows = [
        [i, report.test_accuracies[i], report.val_accuracies[i]]
        for i in range(len(splits))
    ]
    rows.append(["mean", report.mean, report.val_mean])
    _write_outputs(
        out,
        argv,
        args,
        ["split", "test_accuracy", "val_accuracy"],
        rows,
        asdict(config),
        {
            "data": args.data,
            "splits": args.splits,
            "checkpoint": checkpoint,
            "seconds": f"{report.seconds:.3f}",
        },
    )
    print(f"mean test accuracy {report.mean:.4f} (std {report.std:.4f}) over {args.splits} splits")
    print(f"checkpoint written to {checkpoint}")
    return 0


def _cmd_eval(args, argv):
    import numpy as np

    from .harness import load_dataset
    from .model import ModelInputs, evaluate, load_checkpoint
    from .propagation import precompute_bundle

    config, _ = _resolve_configs(args)
    bundle = load_dataset(args.data)
    model_cfg, params = load_checkpoint(args.checkpoint)
    width = bundle.features.shape[1]
    if width != model_cfg.in_dim:
        raise InputError(
            f"checkpoint {args.checkpoint} expects {model_cfg.in_dim} features per node, "
            f"but dataset {args.data} has {width}"
        )
    prop_cfg = replace(config.propagation(), num_layers=model_cfg.num_layers)
    stack = precompute_bundle(bundle.graph, bundle.features, prop_cfg)
    inputs = ModelInputs.build(bundle.graph, bundle.features, stack, model_cfg.sim_kind)
    mask = np.ones(bundle.num_nodes, dtype=bool)
    accuracy = evaluate(params, model_cfg, inputs, bundle.labels, mask)
    out = _out_dir(args, "eval")
    _write_outputs(
        out,
        argv,
        args,
        ["num_nodes", "accuracy"],
        [[bundle.num_nodes, accuracy]],
        asdict(config),
        {"data": args.data, "checkpoint": args.checkpoint},
    )
    print(f"accuracy over all nodes: {accuracy:.4f}")
    return 0


def _cmd_toy(args, argv):
    from .synthetic import toy_study

    config, _ = _resolve_configs(args)
    grid = [_parse_floats(cell) for cell in args.lambdas]
    for cell in grid:
        if len(cell) != 2:
            raise LsgnnError(f"each --lambdas cell needs two values, got {cell}")
    cells = toy_study(
        grid,
        seeds=range(args.seeds),
        mode=args.mode,
        hidden_dim=config.hidden_dim,
        lr=config.lr,
        weight_decay=config.weight_decay,
        epochs=config.epochs,
        patience=config.patience,
        base_seed=args.seed,
    )
    rows = []
    for cell in cells:
        for i, s in enumerate(cell.seeds):
            rows.append(
                [
                    cell.lambdas[0],
                    cell.lambdas[1],
                    s,
                    cell.raw[i],
                    cell.graph_level[i],
                    cell.node_level[i],
                ]
            )
    out = _out_dir(args, "toy")
    _write_outputs(
        out,
        argv,
        args,
        ["lambda1", "lambda2", "seed", "raw", "graph_level", "node_level"],
        rows,
        asdict(config),
        {"lambdas": ";".join(args.lambdas), "seeds": args.seeds, "mode": args.mode},
    )
    for cell in cells:
        means = cell.means()
        print(
            f"lambdas={cell.lambdas}: raw={means['raw']:.4f} "
            f"graph_level={means['graph_level']:.4f} node_level={means['node_level']:.4f}"
        )
    return 0


def _cmd_theory(args, argv):
    from .synthetic import l1_gap_check, theory_check, two_subgraph_config

    lambdas = _parse_floats(args.lambdas)
    if len(lambdas) != 2:
        raise LsgnnError(f"--lambdas needs two values, got {lambdas}")
    config = two_subgraph_config(
        lambdas, num_nodes=args.nodes, sigma=args.sigma, mode=args.mode
    )
    report = theory_check(config, trials=args.trials, base_seed=args.seed)
    gap = l1_gap_check(config, trials=args.trials, base_seed=args.seed + 1)
    rows = []
    for tau in range(config.num_subgraphs):
        rows.append(
            [
                "expectation",
                tau,
                report.lambdas[tau],
                report.analytic[tau],
                report.empirical[tau],
                report.stderr[tau],
            ]
        )
    rows.append(["l1_gap", "-", "-", gap.bound, gap.empirical, gap.stderr])
    out = _out_dir(args, "theory")
    _write_outputs(
        out,
        argv,
        args,
        ["kind", "subgraph", "lambda", "reference", "empirical", "stderr"],
        rows,
        asdict(config),
        {"trials": args.trials},
    )
    for tau in range(config.num_subgraphs):
        print(
            f"subgraph {tau}: lambda={report.lambdas[tau]:.3f} "
            f"analytic={report.analytic[tau]:.4f} empirical={report.empirical[tau]:.4f} "
            f"stderr={report.stderr[tau]:.4f}"
        )
    print(
        f"l1 gap: bound={gap.bound:.4f} empirical={gap.empirical:.4f} "
        f"stderr={gap.stderr:.4f} passed={gap.passed}"
    )
    return 0


def _cmd_stats(args, argv):
    from .harness import dataset_stats, load_dataset

    stats = dataset_stats(load_dataset(args.data))
    out = _out_dir(args, "stats")
    _write_outputs(out, argv, args, *_stats_table(stats), {}, {"data": args.data})
    print(
        f"nodes={stats.num_nodes} edges={stats.num_edges} classes={stats.num_classes} "
        f"features={stats.feature_dim} homophily={stats.homophily:.4f}"
    )
    return 0


def _cmd_sweep_depth(args, argv):
    from .harness import depth_sweep, load_dataset, make_splits

    config, _ = _resolve_configs(args)
    bundle = load_dataset(args.data)
    splits = make_splits(bundle.num_nodes, base_seed=args.seed, count=args.splits)
    out = _out_dir(args, "sweep-depth")
    sweep = depth_sweep(bundle, config, _parse_ints(args.k_list), splits, base_seed=args.seed)
    rows = []
    for row in sweep:
        for arm, report in (("main", row.main), ("sgc_variant", row.sgc_variant)):
            for i, acc in enumerate(report.test_accuracies):
                rows.append([row.num_layers, arm, i, acc])
    _write_outputs(
        out,
        argv,
        args,
        ["num_layers", "arm", "split", "test_accuracy"],
        rows,
        asdict(config),
        {"data": args.data, "k_list": args.k_list, "splits": args.splits},
    )
    for row in sweep:
        print(
            f"K={row.num_layers}: main={row.main.mean:.4f} "
            f"sgc_variant={row.sgc_variant.mean:.4f}"
        )
    return 0


def _cmd_search(args, argv):
    from .harness import load_dataset, make_splits, random_search

    config, space = _resolve_configs(args)
    bundle = load_dataset(args.data)
    splits = make_splits(bundle.num_nodes, base_seed=args.seed, count=args.splits)
    out = _out_dir(args, "search")
    result = random_search(
        bundle, space, budget=args.budget, splits=splits, seed=args.seed, base=config
    )
    rows = []
    for trial in result.trials:
        cfg = trial.config
        rows.append(
            [
                trial.index,
                int(trial.failed),
                trial.val_mean,
                trial.test_mean,
                cfg["lr"],
                cfg["weight_decay"],
                cfg["dropout"],
                cfg["beta"],
                cfg["gamma"],
                cfg["sim_kind"],
            ]
        )
    _write_outputs(
        out,
        argv,
        args,
        ["trial", "failed", "val_mean", "test_mean", "lr", "weight_decay", "dropout", "beta", "gamma", "sim_kind"],
        rows,
        asdict(config),
        {"data": args.data, "budget": args.budget, "splits": args.splits},
    )
    with open(os.path.join(out, "best_config.yaml"), "w", encoding="utf-8") as fh:
        yaml.safe_dump(asdict(result.best_config), fh, sort_keys=True)
    print(
        f"best trial: val={result.best_report.val_mean:.4f} "
        f"test={result.best_report.mean:.4f} config={asdict(result.best_config)}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int, default=0, help="base seed for all derived randomness")
    shared.add_argument("--config", default=None, help="flat YAML config file")
    shared.add_argument("--out", default=None, help="output directory (default runs/<command>)")
    shared.add_argument("--threads", type=int, default=None, help="cap BLAS/OpenMP thread pools")

    parser = argparse.ArgumentParser(prog="lsgnn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-fsbm", parents=[shared], help="generate a synthetic block-model dataset")
    p.add_argument("--lambdas", default="0.5,0.5", help="per-subgraph homophily levels, comma-separated")
    p.add_argument("--nodes", type=int, default=1000)
    p.add_argument("--degree", type=float, default=10.0)
    p.add_argument("--mu", default="1,-1", help="community feature means")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--mode", choices=["bernoulli", "expectation_exact"], default="bernoulli")
    p.set_defaults(func=_cmd_gen_fsbm)

    p = sub.add_parser("precompute", parents=[shared], help="precompute and store a propagation bundle")
    p.add_argument("--data", required=True, help="dataset directory")
    p.set_defaults(func=_cmd_precompute)

    p = sub.add_parser("train", parents=[shared], help="train over random splits and checkpoint the best")
    p.add_argument("--data", required=True)
    p.add_argument("--splits", type=int, default=10)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", parents=[shared], help="evaluate a checkpoint on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("toy", parents=[shared], help="raw vs graph-level vs node-level case study")
    p.add_argument("--lambdas", action="append", required=True, help="one cell per flag, e.g. 0.9,0.1")
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--mode", choices=["bernoulli", "expectation_exact"], default="bernoulli")
    p.set_defaults(func=_cmd_toy)

    p = sub.add_parser("theory", parents=[shared], help="Monte-Carlo checks of the local-similarity theory")
    p.add_argument("--lambdas", default="0.5,0.5")
    p.add_argument("--nodes", type=int, default=1000)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--mode", choices=["bernoulli", "expectation_exact"], default="expectation_exact")
    p.set_defaults(func=_cmd_theory)

    p = sub.add_parser("stats", parents=[shared], help="dataset statistics (size, classes, homophily)")
    p.add_argument("--data", required=True)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("sweep-depth", parents=[shared], help="accuracy versus propagation depth")
    p.add_argument("--data", required=True)
    p.add_argument("--k-list", default="1,2,4,8")
    p.add_argument("--splits", type=int, default=5)
    p.set_defaults(func=_cmd_sweep_depth)

    p = sub.add_parser("search", parents=[shared], help="random hyperparameter search")
    p.add_argument("--data", required=True)
    p.add_argument("--budget", type=int, default=200)
    p.add_argument("--splits", type=int, default=10)
    p.set_defaults(func=_cmd_search)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads is not None:
        for var in _THREAD_ENV_VARS:
            os.environ[var] = str(args.threads)
    try:
        return args.func(args, argv)
    except LsgnnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
