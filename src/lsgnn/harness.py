"""Experiment orchestration: datasets on disk, splits, runs, sweeps, search.

Everything here is deterministic given seeds.  Reports avoid wall-clock
columns so a rerun with the same arguments produces byte-identical files;
timings live in the returned objects and the manifest only.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, fields, replace
from typing import Sequence

import numpy as np

from . import __version__
from .errors import FormatError, InputError, LsgnnError, TrainingDivergedError
from . import graph as _graph
from .graph import (
    SparseGraph,
    build_graph,
    format_float,
    node_homophily,
    read_edge_list,
)
from .localsim import _check_kind
from .model import (
    ModelConfig,
    ModelInputs,
    TrainConfig,
    evaluate,
    train,
)
from .propagation import (
    PropagationConfig,
    PropagationStack,
    _check_rules,
    precompute_bundle,
)

__all__ = [
    "RATIOS",
    "SEARCHED",
    "DatasetBundle",
    "SplitSpec",
    "ExperimentConfig",
    "SearchSpace",
    "MetricsReport",
    "DepthSweepRow",
    "TrialRecord",
    "SearchResult",
    "PropagationCache",
    "load_dataset",
    "save_dataset",
    "make_splits",
    "dataset_stats",
    "DatasetStats",
    "run_experiment",
    "depth_sweep",
    "random_search",
    "sample_config",
    "format_float",
    "write_report",
    "write_manifest",
]

RATIOS = (0.48, 0.32, 0.20)


def _seeds(base, *tags) -> tuple[int, ...]:
    """The seed of one random unit: `base` (an int or ints), then its tags,
    which README "Determinism" lists.  Split i's shuffle and its training
    both take `(base, i)`, so under one base they share a stream."""
    head = [base] if isinstance(base, (int, np.integer)) else base
    return (*map(int, head), *map(int, tags))


# --- datasets --------------------------------------------------------------


@dataclass(eq=False)
class DatasetBundle:
    """A node-classification dataset: graph, features, dense class labels."""

    graph: SparseGraph
    features: np.ndarray
    labels: np.ndarray

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1


def save_dataset(
    directory,
    graph: SparseGraph,
    features: np.ndarray,
    labels: np.ndarray,
    subgraph_id: np.ndarray | None = None,
) -> None:
    """Write the canonical dataset directory: edges.txt, features.csv,
    labels.txt (plus subgraphs.txt when subgraph ids are given).

    Floats use shortest-round-trip decimals, so load_dataset recovers the
    feature matrix bit for bit.  A label or subgraph id that is not a finite
    integer raises InputError before any file is opened.
    """
    label_rows = _id_rows(labels, "labels")
    subgraph_rows = None if subgraph_id is None else _id_rows(subgraph_id, "subgraph_id")
    os.makedirs(directory, exist_ok=True)
    write = _graph._write_table
    write(os.path.join(directory, "edges.txt"), graph.edge_array(), delimiter=" ")
    write(os.path.join(directory, "features.csv"), np.asarray(features, dtype=np.float64))
    write(os.path.join(directory, "labels.txt"), label_rows)
    if subgraph_rows is not None:
        write(os.path.join(directory, "subgraphs.txt"), subgraph_rows)


def _id_rows(values, name: str) -> list[list[int]]:
    """One `[id]` row per value, or InputError naming `name` and the first
    position that does not hold a finite integer."""
    arr = np.asarray(values, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(arr) | (arr != np.trunc(arr)))
    if bad.size:
        raise InputError(f"{name}[{bad[0]}] is {arr.flat[bad[0]]}, not a finite integer")
    return [[int(v)] for v in values]


def _first_ids(ids: np.ndarray) -> str:
    """The first 10 ids as a list, then a count of the rest."""
    rest = ids.size - 10
    return f"{ids[:10].tolist()}" + (f" and {rest} more" if rest > 0 else "")


def load_dataset(directory) -> DatasetBundle:
    """Read a canonical dataset directory and validate its consistency.

    Labels must be dense in [0, C): every class id below the maximum must
    occur at least once.  A malformed file raises FormatError naming its
    path, and its line where one line is at fault.
    """
    paths = [os.path.join(directory, name) for name in ("edges.txt", "features.csv", "labels.txt")]
    for path in paths:
        if not os.path.isfile(path):
            raise InputError(f"dataset directory {directory} is missing {os.path.basename(path)}")
    edges_path, features_path, labels_path = paths

    features = _graph._read_table(features_path, np.float64, delimiter=",")
    labels = _graph._read_table(labels_path, np.int64, 1, low=0, what="label").reshape(-1)
    n = features.shape[0]
    if n == 0:
        raise FormatError(f"{features_path} contains no rows")
    if labels.shape[0] != n:
        raise FormatError(f"{labels_path} has {labels.shape[0]} rows but {features_path} has {n}")
    # Dense ids in [0, C) imply max < rows, so only ids below both are
    # counted and a huge id allocates nothing.
    top = int(labels.max())
    seen = np.zeros(min(top + 1, n), dtype=bool)
    seen[labels[labels < seen.size]] = True
    missing = _first_ids(np.flatnonzero(~seen))
    if top >= n:
        raise FormatError(
            f"{labels_path}: label ids are not dense in [0, C): missing {missing} below "
            f"the row count {n}, and label {top} is not below it"
        )
    if not seen.all():
        raise FormatError(f"{labels_path}: label ids are not dense in [0, C): missing {missing}")

    edges = read_edge_list(edges_path, num_nodes=n)
    return DatasetBundle(graph=build_graph(edges, num_nodes=n), features=features, labels=labels)


# --- splits ----------------------------------------------------------------


@dataclass(eq=False)
class SplitSpec:
    """Disjoint boolean train/val/test masks covering all nodes."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray


def make_splits(n: int, base_seed=0, count: int = 10) -> list[SplitSpec]:
    """Independent random splits in the proportions `RATIOS`; sizes are
    floor(ratio * n) for train and val, with the remainder going to test."""
    n_train = int(RATIOS[0] * n)
    n_val = int(RATIOS[1] * n)
    n_test = n - n_train - n_val
    if min(n_train, n_val, n_test) < 1:
        raise InputError(f"n={n} too small for nonempty splits with ratios {RATIOS}")
    out = []
    for i in range(count):
        perm = np.random.default_rng(_seeds(base_seed, i)).permutation(n)
        train_mask = np.zeros(n, dtype=bool)
        val_mask = np.zeros(n, dtype=bool)
        test_mask = np.zeros(n, dtype=bool)
        train_mask[perm[:n_train]] = True
        val_mask[perm[n_train : n_train + n_val]] = True
        test_mask[perm[n_train + n_val :]] = True
        out.append(SplitSpec(train=train_mask, val=val_mask, test=test_mask))
    return out


# --- statistics ------------------------------------------------------------


@dataclass(frozen=True)
class DatasetStats:
    """Dataset size and node homophily (`graph.node_homophily`): the mean over
    non-isolated nodes of each node's share of same-label neighbours, not
    edge homophily (the share of edges joining equal labels)."""

    num_nodes: int
    num_edges: int
    num_classes: int
    feature_dim: int
    homophily: float


def dataset_stats(bundle: DatasetBundle) -> DatasetStats:
    report = node_homophily(bundle.graph, bundle.labels)
    return DatasetStats(
        num_nodes=bundle.num_nodes,
        num_edges=bundle.graph.num_edges,
        num_classes=bundle.num_classes,
        feature_dim=int(bundle.features.shape[1]),
        homophily=report.graph_level,
    )


# --- propagation cache -----------------------------------------------------


class PropagationCache:
    """In-process memo of the propagation stacks of one graph and feature
    matrix, keyed by config, so runs that share a propagation compute it
    once."""

    def __init__(self, graph: SparseGraph, x: np.ndarray):
        self.graph = graph
        self.x = x
        self._memory: dict[PropagationConfig, PropagationStack] = {}

    def get_or_compute(self, config: PropagationConfig) -> tuple[PropagationStack, bool]:
        """Return (stack, cache_hit)."""
        if config in self._memory:
            return self._memory[config], True
        stack = precompute_bundle(self.graph, self.x, config)
        self._memory[config] = stack
        return stack, False


# --- experiment configuration ----------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat union of propagation, model, and training settings.

    This is also the CLI config-file surface; every field name here is a
    legal config key.  Defaults not written as literals are the library's.
    """

    num_layers: int = 5
    gamma: float = PropagationConfig.gamma
    beta: float = PropagationConfig.beta
    variant: str = PropagationConfig.variant
    normalize: bool = PropagationConfig.normalize
    hidden_dim: int = 64
    sim_kind: str = ModelConfig.sim_kind
    localsim_mode: str = ModelConfig.localsim_mode
    weight_mode: str = ModelConfig.weight_mode
    ls_hidden: int = ModelConfig.ls_hidden
    alpha_hidden: int = ModelConfig.alpha_hidden
    dropout: float = 0.5  # ModelConfig's is 0.0
    lr: float = TrainConfig.lr
    weight_decay: float = TrainConfig.weight_decay
    epochs: int = TrainConfig.epochs
    patience: int = TrainConfig.patience

    # The library configs' rules, less those of the fields `model()` supplies.
    RULES = PropagationConfig.RULES | ModelConfig.RULES | TrainConfig.RULES
    del RULES["in_dim"], RULES["num_classes"]
    __post_init__ = _check_rules

    def _project(self, target: type, **given):
        """A `target` config holding this config's values of its fields,
        with `given` supplying the fields this config does not hold."""
        shared = {f.name: getattr(self, f.name) for f in fields(target) if f.name not in given}
        return target(**shared, **given)

    def propagation(self) -> PropagationConfig:
        return self._project(PropagationConfig)

    def model(self, in_dim: int, num_classes: int) -> ModelConfig:
        return self._project(ModelConfig, in_dim=in_dim, num_classes=num_classes)

    def training(self, seed) -> TrainConfig:
        return self._project(TrainConfig, seed=seed)

    def validate(self) -> "ExperimentConfig":
        """The config itself: `__post_init__` checked it when it was made."""
        return self


@dataclass(frozen=True)
class SearchSpace:
    """Hyperparameter domains for random search."""

    lr_range: tuple[float, float] = (1e-3, 1e-1)
    weight_decay_range: tuple[float, float] = (1e-6, 1e-1)
    dropout_choices: tuple[float, ...] = (0.1, 0.5, 0.6, 0.7, 0.8, 0.9)
    beta_choices: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
    gamma_choices: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
    sim_choices: tuple[str, ...] = ("cosine", "euclidean")

    def __post_init__(self):
        # Ranges are drawn log-uniformly, so both ends must be positive.
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name.endswith("_range"):
                if not (len(value) == 2 and np.isfinite(value).all() and 0.0 < value[0] <= value[1]):
                    raise InputError(
                        f"{f.name} must be two finite numbers with 0 < low <= high, got {list(value)}"
                    )
            elif not value:
                raise InputError(f"{f.name} must not be empty")


# (SearchSpace key, ExperimentConfig field, value type) of every searched
# setting, in draw order.  A `*_range` key is drawn log-uniformly, a
# `*_choices` key uniformly from its list.
SEARCHED = (
    ("lr_range", "lr", float),
    ("weight_decay_range", "weight_decay", float),
    ("dropout_choices", "dropout", float),
    ("beta_choices", "beta", float),
    ("gamma_choices", "gamma", float),
    ("sim_choices", "sim_kind", str),
)


def sample_config(
    space: SearchSpace, rng: np.random.Generator, base: ExperimentConfig
) -> ExperimentConfig:
    """One draw from the search space; draw order is fixed so a seeded
    generator yields the same trial sequence regardless of outcomes."""
    drawn = {}
    for key, name, kind in SEARCHED:
        domain = getattr(space, key)
        if key.endswith("_range"):
            drawn[name] = kind(np.exp(rng.uniform(np.log(domain[0]), np.log(domain[1]))))
        else:
            drawn[name] = kind(rng.choice(domain))
    return replace(base, **drawn)


def _check_space(space: SearchSpace, base: ExperimentConfig, in_dim: int) -> None:
    """Validate every value the space can draw, naming the key at fault;
    a similarity kind must also suit features of width `in_dim`."""
    for key, name, kind in SEARCHED:
        for value in map(kind, getattr(space, key)):
            try:
                replace(base, **{name: value})  # refuses a value out of range
                if name == "sim_kind":
                    _check_kind(value, in_dim)
            except InputError as exc:
                raise InputError(f"{key}: {exc}") from exc


# --- experiments -----------------------------------------------------------


@dataclass(eq=False)
class MetricsReport:
    """Per-split accuracies with their aggregate, timing and the kept
    parameters."""

    test_accuracies: list[float]
    val_accuracies: list[float]
    mean: float
    std: float
    seconds: float
    best_params: dict[str, np.ndarray]

    @property
    def val_mean(self) -> float:
        return float(np.mean(self.val_accuracies))


def run_experiment(
    bundle: DatasetBundle,
    config: ExperimentConfig,
    splits: Sequence[SplitSpec],
    base_seed=0,
    cache: PropagationCache | None = None,
) -> MetricsReport:
    """Propagate once, then train and evaluate the model on each split.

    The training seed for split i is (base_seed, i); identical inputs give
    identical reports.  `best_params` holds the trained parameters of the
    first split with the highest best-validation accuracy.
    """
    if not splits:
        raise InputError("at least one split is required")
    if cache is not None and (cache.graph is not bundle.graph or cache.x is not bundle.features):
        raise InputError("the propagation cache was made for another graph or feature matrix")
    started = time.perf_counter()
    prop_cfg = config.propagation()
    if cache is None:
        stack = precompute_bundle(bundle.graph, bundle.features, prop_cfg)
    else:
        stack, _ = cache.get_or_compute(prop_cfg)
    model_cfg = config.model(bundle.features.shape[1], bundle.num_classes)
    inputs = ModelInputs.build(bundle.graph, bundle.features, stack, model_cfg.sim_kind)
    test_accs = []
    val_accs = []
    for i, split in enumerate(splits):
        tcfg = config.training(seed=_seeds(base_seed, i))
        result = train(model_cfg, tcfg, inputs, bundle.labels, split.train, split.val)
        test_accs.append(evaluate(result.params, model_cfg, inputs, bundle.labels, split.test))
        if not val_accs or result.best_val_acc > max(val_accs):
            best_params = result.params
        val_accs.append(result.best_val_acc)
    return MetricsReport(
        test_accuracies=test_accs,
        val_accuracies=val_accs,
        mean=float(np.mean(test_accs)),
        std=float(np.std(test_accs)),
        seconds=time.perf_counter() - started,
        best_params=best_params,
    )


@dataclass(eq=False)
class DepthSweepRow:
    num_layers: int
    main: MetricsReport
    sgc_variant: MetricsReport


def depth_sweep(
    bundle: DatasetBundle,
    config: ExperimentConfig,
    k_list: Sequence[int],
    splits: Sequence[SplitSpec],
    base_seed=0,
) -> list[DepthSweepRow]:
    """Accuracy versus depth for the main model and, for contrast, the same
    head fed by plain repeated-smoothing propagation (variant "sgc").

    When `config.variant` is already "sgc" the two arms are one run, and
    both fields of a row hold the same report.
    """
    if not k_list:
        raise InputError("k_list must be nonempty")
    rows = []
    for k in k_list:
        main_cfg = replace(config, num_layers=int(k))
        main = run_experiment(bundle, main_cfg, splits, base_seed)
        if main_cfg.variant == "sgc":
            sgc = main
        else:
            sgc = run_experiment(bundle, replace(main_cfg, variant="sgc"), splits, base_seed)
        rows.append(DepthSweepRow(num_layers=int(k), main=main, sgc_variant=sgc))
    return rows


@dataclass(eq=False)
class TrialRecord:
    index: int
    config: dict
    val_mean: float
    test_mean: float
    failed: bool


@dataclass(eq=False)
class SearchResult:
    best_config: ExperimentConfig
    best_report: MetricsReport
    trials: list[TrialRecord]


def random_search(
    bundle: DatasetBundle,
    space: SearchSpace,
    budget: int,
    splits: Sequence[SplitSpec],
    seed=0,
    base: ExperimentConfig | None = None,
) -> SearchResult:
    """Sample `budget` configs, pick the best mean validation accuracy, and
    report that config's test metrics.  Every value the space can draw is
    validated before the first trial.  Trials whose training diverges are
    recorded as failed and skipped."""
    if budget < 1:
        raise InputError(f"budget must be >= 1, got {budget}")
    if base is None:
        base = ExperimentConfig()
    _check_space(space, base, bundle.features.shape[1])
    cache = PropagationCache(bundle.graph, bundle.features)
    rng = np.random.default_rng(_seeds(seed))
    trials = []
    best: tuple[ExperimentConfig, MetricsReport] | None = None
    for index in range(budget):
        trial_cfg = sample_config(space, rng, base)
        try:
            report = run_experiment(bundle, trial_cfg, splits, _seeds(seed, index), cache)
        except TrainingDivergedError:
            report = None
        failed = report is None
        trials.append(TrialRecord(
            index=index,
            config=asdict(trial_cfg),
            val_mean=float("nan") if failed else report.val_mean,
            test_mean=float("nan") if failed else report.mean,
            failed=failed,
        ))
        if not failed and (best is None or report.val_mean > best[1].val_mean):
            best = (trial_cfg, report)
    if best is None:
        raise LsgnnError("every search trial diverged; nothing to report")
    return SearchResult(best_config=best[0], best_report=best[1], trials=trials)


# --- report / manifest files ----------------------------------------------


def write_report(path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """CSV with fixed column order; floats in round-trip-exact decimal."""
    _graph._write_table(path, [header, *rows])


def write_manifest(path, command: Sequence[str], config: dict, seed, notes: dict | None = None) -> None:
    """Everything needed to reproduce a run: argv, resolved config, seeds,
    and the package version."""
    rows = [("version", __version__), ("command", " ".join(str(c) for c in command)), ("seed", seed),
            *((f"config.{key}", config[key]) for key in sorted(config)), *sorted((notes or {}).items())]
    _graph._write_table(path, rows, delimiter="=")
