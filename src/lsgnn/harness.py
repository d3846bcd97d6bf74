"""Experiment orchestration: datasets on disk, splits, runs, sweeps, search.

Everything here is deterministic given seeds.  Reports avoid wall-clock
columns so a rerun with the same arguments produces byte-identical files;
timings live in the returned objects and the manifest only.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

from . import __version__
from .errors import FormatError, InputError, LsgnnError, TrainingDivergedError
from .graph import SparseGraph, build_graph, node_homophily, read_edge_list, write_edge_list
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
    feature_digest,
    precompute_bundle,
)

__all__ = [
    "RATIOS",
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
    "graph_digest",
    "run_experiment",
    "depth_sweep",
    "random_search",
    "sample_config",
    "format_float",
    "write_report",
    "write_manifest",
]

RATIOS = (0.48, 0.32, 0.20)

def format_float(x: float) -> str:
    """Shortest decimal that parses back to the exact same float64."""
    return repr(float(x))


def _seed_list(seed) -> list[int]:
    if isinstance(seed, (int, np.integer)):
        return [int(seed)]
    return [int(s) for s in seed]


# --- datasets --------------------------------------------------------------


@dataclass(eq=False)
class DatasetBundle:
    """A node-classification dataset: graph, features, dense class labels."""

    graph: SparseGraph
    features: np.ndarray
    labels: np.ndarray
    name: str | None = None

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
    feature matrix bit for bit.
    """
    os.makedirs(directory, exist_ok=True)
    write_edge_list(os.path.join(directory, "edges.txt"), graph)
    features = np.asarray(features, dtype=np.float64)
    with open(os.path.join(directory, "features.csv"), "w", encoding="utf-8") as fh:
        for row in features:
            fh.write(",".join(format_float(v) for v in row))
            fh.write("\n")
    with open(os.path.join(directory, "labels.txt"), "w", encoding="utf-8") as fh:
        for label in labels:
            fh.write(f"{int(label)}\n")
    if subgraph_id is not None:
        with open(os.path.join(directory, "subgraphs.txt"), "w", encoding="utf-8") as fh:
            for sg in subgraph_id:
                fh.write(f"{int(sg)}\n")


def load_dataset(directory) -> DatasetBundle:
    """Read a canonical dataset directory and validate its consistency.

    Labels must be dense in [0, C): every class id below the maximum must
    occur at least once.
    """
    paths = {
        name: os.path.join(directory, name)
        for name in ("edges.txt", "features.csv", "labels.txt")
    }
    for name, path in paths.items():
        if not os.path.isfile(path):
            raise InputError(f"dataset directory {directory} is missing {name}")

    rows: list[np.ndarray] = []
    linenos: list[int] = []
    width = None
    with open(paths["features.csv"], "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                values = np.array([float(v) for v in text.split(",")], dtype=np.float64)
            except ValueError as exc:
                raise FormatError(f"features.csv:{lineno}: non-numeric value") from exc
            if width is None:
                width = values.shape[0]
            elif values.shape[0] != width:
                raise FormatError(
                    f"features.csv:{lineno}: expected {width} values, got {values.shape[0]}"
                )
            rows.append(values)
            linenos.append(lineno)
    if not rows:
        raise FormatError("features.csv contains no rows")
    features = np.vstack(rows)
    if not np.isfinite(features).all():
        bad_row = np.flatnonzero(~np.isfinite(features).all(axis=1))[0]
        raise FormatError(f"features.csv:{linenos[bad_row]}: non-finite value")

    labels_list = []
    with open(paths["labels.txt"], "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                labels_list.append(int(text))
            except ValueError as exc:
                raise FormatError(f"labels.txt:{lineno}: non-integer label") from exc
    labels = np.asarray(labels_list, dtype=np.int64)
    if labels.shape[0] != features.shape[0]:
        raise InputError(
            f"labels.txt has {labels.shape[0]} rows but features.csv has {features.shape[0]}"
        )
    if labels.min(initial=0) < 0:
        raise FormatError("labels must be nonnegative")
    present = np.unique(labels)
    expected = np.arange(labels.max() + 1)
    if present.shape != expected.shape or (present != expected).any():
        missing = sorted(set(expected.tolist()) - set(present.tolist()))
        raise FormatError(f"label ids are not dense in [0, C): missing {missing}")

    edges = read_edge_list(paths["edges.txt"])
    graph = build_graph(edges, num_nodes=features.shape[0])
    return DatasetBundle(
        graph=graph,
        features=features,
        labels=labels,
        name=os.path.basename(os.path.normpath(directory)),
    )


# --- splits ----------------------------------------------------------------


@dataclass(eq=False)
class SplitSpec:
    """Disjoint boolean train/val/test masks covering all nodes."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray
    seed: tuple
    ratios: tuple


def make_splits(
    n: int,
    ratios: tuple[float, float, float] = RATIOS,
    base_seed=0,
    count: int = 10,
) -> list[SplitSpec]:
    """Independent random splits; sizes are floor(ratio * n) for train and
    val, with the remainder going to test."""
    if sum(ratios) > 1.0 + 1e-12:
        raise InputError(f"ratios must sum to <= 1, got {ratios}")
    n_train = int(ratios[0] * n)
    n_val = int(ratios[1] * n)
    n_test = n - n_train - n_val
    if min(n_train, n_val, n_test) < 1:
        raise InputError(f"n={n} too small for nonempty splits with ratios {ratios}")
    out = []
    base = _seed_list(base_seed)
    for i in range(count):
        seed = tuple(base + [i])
        perm = np.random.default_rng(list(seed)).permutation(n)
        train_mask = np.zeros(n, dtype=bool)
        val_mask = np.zeros(n, dtype=bool)
        test_mask = np.zeros(n, dtype=bool)
        train_mask[perm[:n_train]] = True
        val_mask[perm[n_train : n_train + n_val]] = True
        test_mask[perm[n_train + n_val :]] = True
        out.append(
            SplitSpec(train=train_mask, val=val_mask, test=test_mask, seed=seed, ratios=tuple(ratios))
        )
    return out


# --- statistics ------------------------------------------------------------


@dataclass(frozen=True)
class DatasetStats:
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


def graph_digest(g: SparseGraph) -> bytes:
    h = hashlib.sha256()
    h.update(np.int64(g.num_nodes).tobytes())
    h.update(np.ascontiguousarray(g.row_offsets, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(g.col_indices, dtype=np.int64).tobytes())
    return h.digest()


class PropagationCache:
    """In-process memo of propagation stacks keyed by (graph, features,
    config), so runs that share a propagation compute it once."""

    def __init__(self):
        self._memory: dict[str, PropagationStack] = {}

    def _key(self, g: SparseGraph, x: np.ndarray, config: PropagationConfig) -> str:
        h = hashlib.sha256()
        h.update(graph_digest(g))
        h.update(feature_digest(x))
        h.update(repr(config).encode("utf-8"))
        return h.hexdigest()

    def get_or_compute(
        self, g: SparseGraph, x: np.ndarray, config: PropagationConfig
    ) -> tuple[PropagationStack, bool]:
        """Return (stack, cache_hit)."""
        key = self._key(g, x, config)
        if key in self._memory:
            return self._memory[key], True
        stack = precompute_bundle(g, x, config)
        self._memory[key] = stack
        return stack, False


# --- experiment configuration ----------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat union of propagation, model, and training settings.

    This is also the CLI config-file surface; every field name here is a
    legal config key.
    """

    num_layers: int = 5
    gamma: float = 0.5
    beta: float = 0.5
    variant: str = "irdc"
    normalize: bool = True
    hidden_dim: int = 64
    sim_kind: str = "cosine"
    localsim_mode: str = "refined"
    weight_mode: str = "node_level"
    ls_hidden: int = 16
    alpha_hidden: int = 16
    dropout: float = 0.5
    lr: float = 0.01
    weight_decay: float = 5e-4
    epochs: int = 200
    patience: int = 40

    def propagation(self) -> PropagationConfig:
        return PropagationConfig(
            num_layers=self.num_layers,
            gamma=self.gamma,
            beta=self.beta,
            variant=self.variant,
            normalize=self.normalize,
        )

    def model(self, in_dim: int, num_classes: int) -> ModelConfig:
        return ModelConfig(
            num_layers=self.num_layers,
            in_dim=in_dim,
            hidden_dim=self.hidden_dim,
            num_classes=num_classes,
            sim_kind=self.sim_kind,
            localsim_mode=self.localsim_mode,
            weight_mode=self.weight_mode,
            ls_hidden=self.ls_hidden,
            alpha_hidden=self.alpha_hidden,
            dropout=self.dropout,
        )

    def training(self, seed) -> TrainConfig:
        return TrainConfig(
            lr=self.lr,
            weight_decay=self.weight_decay,
            epochs=self.epochs,
            patience=self.patience,
            seed=seed,
        )

    def validate(self) -> "ExperimentConfig":
        self.propagation()
        self.model(in_dim=1, num_classes=2)
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


def sample_config(
    space: SearchSpace, rng: np.random.Generator, base: ExperimentConfig
) -> ExperimentConfig:
    """One draw from the search space; draw order is fixed so a seeded
    generator yields the same trial sequence regardless of outcomes."""

    def log_uniform(lo, hi):
        return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

    lr = log_uniform(*space.lr_range)
    weight_decay = log_uniform(*space.weight_decay_range)
    dropout = float(rng.choice(space.dropout_choices))
    beta = float(rng.choice(space.beta_choices))
    gamma = float(rng.choice(space.gamma_choices))
    sim_kind = str(rng.choice(space.sim_choices))
    return replace(
        base,
        lr=lr,
        weight_decay=weight_decay,
        dropout=dropout,
        beta=beta,
        gamma=gamma,
        sim_kind=sim_kind,
    )


# --- experiments -----------------------------------------------------------


@dataclass(eq=False)
class MetricsReport:
    """Per-split accuracies with their aggregate and provenance."""

    test_accuracies: list[float]
    val_accuracies: list[float]
    mean: float
    std: float
    seconds: float
    config: dict
    best_params: dict[str, np.ndarray]
    cache_hit: bool = False

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
    started = time.perf_counter()
    prop_cfg = config.propagation()
    if cache is None:
        stack, hit = precompute_bundle(bundle.graph, bundle.features, prop_cfg), False
    else:
        stack, hit = cache.get_or_compute(bundle.graph, bundle.features, prop_cfg)
    model_cfg = config.model(bundle.features.shape[1], bundle.num_classes)
    inputs = ModelInputs.build(bundle.graph, bundle.features, stack, model_cfg.sim_kind)
    test_accs = []
    val_accs = []
    base = _seed_list(base_seed)
    for i, split in enumerate(splits):
        tcfg = config.training(seed=tuple(base + [i]))
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
        config=asdict(config),
        best_params=best_params,
        cache_hit=hit,
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
    report that config's test metrics.  Trials whose training diverges are
    recorded as failed and skipped."""
    if budget < 1:
        raise InputError(f"budget must be >= 1, got {budget}")
    if base is None:
        base = ExperimentConfig()
    cache = PropagationCache()
    rng = np.random.default_rng(_seed_list(seed))
    trials = []
    best: tuple[float, int] | None = None
    best_config = None
    best_report = None
    for index in range(budget):
        trial_cfg = sample_config(space, rng, base)
        try:
            report = run_experiment(bundle, trial_cfg, splits, base_seed=_seed_list(seed) + [index], cache=cache)
        except TrainingDivergedError:
            trials.append(
                TrialRecord(index=index, config=asdict(trial_cfg), val_mean=float("nan"), test_mean=float("nan"), failed=True)
            )
            continue
        val_mean = report.val_mean
        trials.append(
            TrialRecord(index=index, config=asdict(trial_cfg), val_mean=val_mean, test_mean=report.mean, failed=False)
        )
        if best is None or val_mean > best[0]:
            best = (val_mean, index)
            best_config = trial_cfg
            best_report = report
    if best_config is None:
        raise LsgnnError("every search trial diverged; nothing to report")
    return SearchResult(best_config=best_config, best_report=best_report, trials=trials)


# --- report / manifest files ----------------------------------------------


def write_report(path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """CSV with fixed column order; floats in round-trip-exact decimal."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = []
            for value in row:
                if isinstance(value, (float, np.floating)):
                    cells.append(format_float(value))
                else:
                    cells.append(str(value))
            fh.write(",".join(cells) + "\n")


def write_manifest(path, command: Sequence[str], config: dict, seed, notes: dict | None = None) -> None:
    """Everything needed to reproduce a run: argv, resolved config, seeds,
    and the package version."""
    extra = notes or {}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"version={__version__}\n")
        fh.write(f"command={' '.join(str(c) for c in command)}\n")
        fh.write(f"seed={seed}\n")
        for key in sorted(config):
            fh.write(f"config.{key}={config[key]}\n")
        for key in sorted(extra):
            fh.write(f"{key}={extra[key]}\n")
