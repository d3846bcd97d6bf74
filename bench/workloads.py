"""The three benchmark workloads: inputs, the timed iteration, output checks.

Each workload stresses a different lsgnn layer (see README.md for why).
Inputs are generated from the workload seed by `synthetic.generate_fsbm`
plus seeded noise feature columns, written with `harness.save_dataset`,
and cached on disk keyed by workload, sizes and seed.  The program under
test only ever reads those files.

One iteration is the workload's main phase followed by `lsgnn eval` of a
checkpoint on the workload's dataset.  Its wall time is `wall_s`; the eval
part alone is `eval_s`.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import shutil
import sys
import time
from dataclasses import dataclass

import numpy as np
import yaml

from lsgnn import cli, harness, model, propagation, synthetic

EXPECTED_ACC_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected_acc.json")
# Largest accepted distance from a recorded test accuracy: four nodes of a
# 200-node test split, so a change of summation order passes and a model
# that learned less does not.
ACC_TOLERANCE = 0.02


@dataclass(frozen=True)
class Spec:
    """Input sizes and run settings of one workload."""

    nodes: int
    dim: int
    lambdas: tuple[float, ...]
    num_layers: int
    epochs: int  # fixed epoch count: patience is set equal, so nothing stops early
    acc_floor: float  # lowest test accuracy accepted on a seed with no recorded value
    splits: int = 1
    prep_nodes: int = 0  # train the eval checkpoint on a graph this size; 0 = the dataset itself
    prep_epochs: int = 10
    lr: float = 0.01
    trials: int = 0
    toy_seeds: int = 0


# The Spec fields that `prepare` reads, and so the cache key.
_INPUT_FIELDS = ("nodes", "dim", "lambdas", "num_layers", "epochs", "lr", "prep_nodes", "prep_epochs")


@dataclass
class Inputs:
    """Paths of one workload's cached inputs, plus what the loop needs."""

    workload: "Workload"
    seed: int
    data: str
    config_path: str
    checkpoint: str
    config: harness.ExperimentConfig


@dataclass
class Outcome:
    """What one iteration produced."""

    wall_s: float
    eval_s: float
    test_acc: float
    eval_acc: float
    digests: dict[str, str]
    problems: list[str]


def _digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _cli(argv, problems: list[str]) -> None:
    """Run one lsgnn command in-process; a nonzero exit is a problem."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        problems.append(f"lsgnn {argv[0]} exited {code}")


# --- input generation (untimed) --------------------------------------------


def write_fsbm(path, nodes, dim, lambdas, seed) -> None:
    """An FSBM dataset with one informative column and dim - 1 seeded noise
    columns."""
    ds = synthetic.generate_fsbm(synthetic.multi_subgraph_config(lambdas, num_nodes=nodes), seed=[seed])
    x = ds.x
    if dim > 1:
        x = np.hstack([x, np.random.default_rng([seed, 1]).normal(size=(nodes, dim - 1))])
    harness.save_dataset(path, ds.graph, x, ds.community, subgraph_id=ds.subgraph_id)


def _fsync_tree(directory) -> None:
    """Flush generated inputs to disk now, so their write-back does not
    compete with the timed loop."""
    for parent, _, files in os.walk(directory):
        for name in files:
            fd = os.open(os.path.join(parent, name), os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def prepare(workload: "Workload", seed: int, directory: str) -> None:
    """Write data/, config.yaml and model.lspm into `directory`.

    Runs in a child process so that generation adds nothing to the
    measured process's peak memory.
    """
    spec = workload.spec
    data = os.path.join(directory, "data")
    write_fsbm(data, spec.nodes, spec.dim, spec.lambdas, seed)
    settings = {"num_layers": spec.num_layers, "epochs": spec.epochs, "patience": spec.epochs, "lr": spec.lr}
    with open(os.path.join(directory, "config.yaml"), "w", encoding="utf-8") as fh:
        yaml.safe_dump(settings, fh)
    prep_data = data
    if spec.prep_nodes:
        prep_data = os.path.join(directory, "prep-data")
        write_fsbm(prep_data, spec.prep_nodes, spec.dim, spec.lambdas, seed + 1_000_003)
    prep_config = os.path.join(directory, "prep-config.yaml")
    with open(prep_config, "w", encoding="utf-8") as fh:
        yaml.safe_dump({**settings, "epochs": spec.prep_epochs, "patience": spec.prep_epochs}, fh)
    problems: list[str] = []
    out = os.path.join(directory, "prep-train")
    _cli(["train", "--data", prep_data, "--splits", 1, "--seed", seed, "--config", prep_config, "--out", out], problems)
    if problems:
        raise RuntimeError("; ".join(problems))
    os.replace(os.path.join(out, "model.lspm"), os.path.join(directory, "model.lspm"))
    shutil.rmtree(out)
    _fsync_tree(directory)


def load_inputs(workload: "Workload", seed: int, directory: str) -> Inputs:
    config_path = os.path.join(directory, "config.yaml")
    with open(config_path, encoding="utf-8") as fh:
        settings = yaml.safe_load(fh)
    config = dataclasses.replace(harness.ExperimentConfig(), **settings).validate()
    return Inputs(
        workload=workload,
        seed=seed,
        data=os.path.join(directory, "data"),
        config_path=config_path,
        checkpoint=os.path.join(directory, "model.lspm"),
        config=config,
    )


# --- set-up (timed as setup_s) ----------------------------------------------


def setup_once(inputs: Inputs) -> float:
    """Dataset files on disk to ready ModelInputs, by direct calls."""
    cfg = inputs.config
    started = time.perf_counter()
    bundle = harness.load_dataset(inputs.data)
    stack = propagation.precompute_bundle(bundle.graph, bundle.features, cfg.propagation())
    model.ModelInputs.build(bundle.graph, bundle.features, stack, cfg.sim_kind)
    return time.perf_counter() - started


# --- main phases (timed as part of wall_s) -----------------------------------


def _train(inputs: Inputs, out: str, problems: list[str]) -> list[str]:
    spec = inputs.workload.spec
    _cli(
        ["train", "--data", inputs.data, "--splits", spec.splits, "--seed", inputs.seed,
         "--config", inputs.config_path, "--out", out],
        problems,
    )
    return ["report.csv", "model.lspm"]


def _train_accuracy(out: str, problems: list[str]) -> float:
    return float(_read_csv(os.path.join(out, "report.csv"))[-1]["test_accuracy"])


def _precompute(inputs: Inputs, out: str, problems: list[str]) -> list[str]:
    _cli(
        ["precompute", "--data", inputs.data, "--seed", inputs.seed,
         "--config", inputs.config_path, "--out", out],
        problems,
    )
    return ["report.csv", "bundle.lspb"]


def _precompute_accuracy(out: str, problems: list[str]) -> float:
    """Full-graph accuracy from the eval step that follows precompute."""
    return float(_read_csv(os.path.join(out, "eval", "report.csv"))[0]["accuracy"])


def _synth_study(inputs: Inputs, out: str, problems: list[str]) -> list[str]:
    spec = inputs.workload.spec
    lambdas = ",".join(str(v) for v in spec.lambdas)
    theory_out = os.path.join(out, "theory")
    _cli(
        ["theory", "--lambdas", lambdas, "--nodes", spec.nodes, "--trials", spec.trials,
         "--seed", inputs.seed, "--out", theory_out],
        problems,
    )
    _cli(
        ["toy", "--lambdas", lambdas, "--lambdas", "0.5,0.5", "--seeds", spec.toy_seeds,
         "--seed", inputs.seed, "--config", inputs.config_path, "--out", os.path.join(out, "toy")],
        problems,
    )
    return ["theory/report.csv", "toy/report.csv"]


def _synth_study_accuracy(out: str, problems: list[str]) -> float:
    """Mean node-level toy accuracy; also checks the theory means against
    their closed form."""
    for row in _read_csv(os.path.join(out, "theory", "report.csv")):
        if row["kind"] != "expectation":
            continue
        ref, emp, err = (float(row[k]) for k in ("reference", "empirical", "stderr"))
        if abs(emp - ref) > max(5.0 * err, 0.05 * abs(ref)):
            problems.append(f"theory: subgraph {row['subgraph']} empirical {emp} far from {ref}")
    node_level = [float(row["node_level"]) for row in _read_csv(os.path.join(out, "toy", "report.csv"))]
    return float(np.mean(node_level))


# --- one iteration -----------------------------------------------------------


def run_eval(inputs: Inputs, out: str, problems: list[str]) -> None:
    """`lsgnn eval` of the prepared checkpoint on the workload's dataset."""
    _cli(
        ["eval", "--data", inputs.data, "--checkpoint", inputs.checkpoint, "--seed", inputs.seed,
         "--config", inputs.config_path, "--out", os.path.join(out, "eval")],
        problems,
    )


def repeat_eval(inputs: Inputs, out: str, seconds: float, reference: str) -> tuple[list[float], list[str]]:
    """Further timed evals until `seconds` have passed; each must rewrite
    the eval report byte for byte as `reference` (a SHA-256)."""
    times: list[float] = []
    problems: list[str] = []
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        t0 = time.perf_counter()
        run_eval(inputs, out, problems)
        times.append(time.perf_counter() - t0)
        if _digest(os.path.join(out, "eval", "report.csv")) != reference:
            problems.append("a repeated eval wrote a different report.csv")
        if problems:
            break
    return times, problems


def run_iteration(inputs: Inputs, out: str) -> Outcome:
    """Main phase then eval, timed; output checks after the clock stops."""
    workload = inputs.workload
    problems: list[str] = []
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    started = time.perf_counter()
    artifacts = workload.main_phase(inputs, out, problems)
    eval_started = time.perf_counter()
    run_eval(inputs, out, problems)
    ended = time.perf_counter()
    test_acc = workload.accuracy(out, problems)
    eval_acc = float(_read_csv(os.path.join(out, "eval", "report.csv"))[0]["accuracy"])
    digests = {name: _digest(os.path.join(out, name)) for name in artifacts + ["eval/report.csv"]}
    return Outcome(
        wall_s=ended - started,
        eval_s=ended - eval_started,
        test_acc=test_acc,
        eval_acc=eval_acc,
        digests=digests,
        problems=problems,
    )


def check_accuracy(workload: "Workload", seed: int, outcome: Outcome, expected: dict) -> list[str]:
    """Compare test_acc with the value recorded for this seed, or with the
    workload's floor when none is recorded; the eval accuracy must clear
    the floor too."""
    problems = []
    recorded = expected.get(workload.name, {}).get(str(seed))
    if recorded is not None and abs(outcome.test_acc - recorded) > ACC_TOLERANCE:
        problems.append(f"test_acc {outcome.test_acc} differs from recorded {recorded}")
    floor = workload.spec.acc_floor
    if recorded is None and outcome.test_acc < floor:
        problems.append(f"test_acc {outcome.test_acc} below floor {floor}")
    if outcome.eval_acc < floor:
        problems.append(f"eval accuracy {outcome.eval_acc} below floor {floor}")
    return problems


def load_expected() -> dict:
    with open(EXPECTED_ACC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# --- the workloads -------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: Spec
    main_phase: object  # (inputs, out, problems) -> artifact paths under out
    accuracy: object  # (out, problems) -> test_acc, read after the clock stops

    def key(self) -> str:
        """Cache key of the generated inputs: changes with any setting
        that `prepare` reads."""
        text = repr((self.name, [getattr(self.spec, f) for f in _INPUT_FIELDS]))
        return hashlib.sha256(text.encode()).hexdigest()[:12]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train-wide",
            "lsgnn train at n=2000, d=64, K=4, 2 splits: GEMM-bound training plus the CLI "
            "train path (propagation cache write then hit, best-split retrain, checkpoint)",
            Spec(nodes=2000, dim=64, lambdas=(0.9, 0.1), num_layers=4, epochs=3, acc_floor=0.7,
                 splits=2, prep_epochs=5),
            _train,
            _train_accuracy,
        ),
        Workload(
            "precompute-eval",
            "lsgnn precompute then eval on a 12000-node graph, d=16, K=8: no training; "
            "text parse, graph and filter build, sparse products and one full-graph forward",
            Spec(nodes=12000, dim=16, lambdas=(0.9, 0.1) * 4, num_layers=8, epochs=15,
                 acc_floor=0.9, prep_nodes=2000, prep_epochs=15),
            _precompute,
            _precompute_accuracy,
        ),
        Workload(
            "synth-study",
            "lsgnn theory and toy: the generator, Monte-Carlo checks, naive local similarity, "
            "graph-level fusion, the linear baseline and small-array d=1 training carry the time",
            Spec(nodes=1000, dim=1, lambdas=(0.9, 0.1), num_layers=1, epochs=12, acc_floor=0.7,
                 lr=0.05, trials=50, toy_seeds=1),
            _synth_study,
            _synth_study_accuracy,
        ),
    )
}


if __name__ == "__main__":
    # Input generation, started by run.py as `python -m workloads NAME SEED DIR SPEC_JSON`.
    name, seed, directory, spec = sys.argv[1:]
    fields = {k: tuple(v) if isinstance(v, list) else v for k, v in json.loads(spec).items()}
    prepare(dataclasses.replace(WORKLOADS[name], spec=Spec(**fields)), int(seed), directory)
