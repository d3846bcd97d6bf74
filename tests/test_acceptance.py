"""End-to-end acceptance gate.

Every test records exactly one PASS/FAIL/SKIP line with its pinned
tolerance and the measured numbers, then asserts the same condition.  The
lines are echoed in an "acceptance criteria" section after the run summary
(see conftest), where output capture cannot swallow them.

Two checks are bounded by what their own data allows, and each computes
and prints that bound (see the README):
  - 3a: at lambdas (0.9, 0.1) the exact one-hop Bayes neighbor term is
    zero, so no one-hop classifier beats Phi(|mu1-mu2|/2sigma); node-level
    fusion is checked against that ceiling and against graph-level fusion.
  - 7b: on the lambda 0.9 graph the stationary eigenvector of the low-pass
    filter overtakes the class eigenvector only near K = 28, and the fused
    sgc arm of the depth sweep always holds the K=1 layer, so the
    repeated-smoothing baseline is SGC's linear head on the deepest layer
    alone, swept to K=64.
"""

import math
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import conftest

from lsgnn.cli import main as cli_main
from lsgnn.graph import build_graph, enhanced_filters, sym_norm_adj
from lsgnn.harness import (
    DatasetBundle,
    ExperimentConfig,
    SearchSpace,
    dataset_stats,
    depth_sweep,
    load_dataset,
    make_splits,
    random_search,
)
from lsgnn.model import (
    ModelConfig,
    ModelInputs,
    TrainConfig,
    init_parameters,
    linear_accuracy,
    loss_and_gradients,
    train_linear,
)
from lsgnn.propagation import (
    PropagationConfig,
    build_stack,
    irdc,
    load_bundle,
    save_bundle,
)
from lsgnn.synthetic import (
    generate_fsbm,
    multi_subgraph_config,
    theory_check,
    toy_study,
)

from conftest import random_edges
from reference import dense_adjacency, fd_rel_error, loop_one_hop_bayes


def announce(line: str) -> None:
    conftest.acceptance_lines.append(line)
    print(line)


def verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


# --- criterion 1: closed-form mean local similarity ------------------------


def test_criterion_1_localsim_expectation_matches_closed_form():
    started = time.perf_counter()
    worst_dev = 0.0
    worst_allow = 1.0
    for lam in (0.2, 0.5, 0.8):
        config = multi_subgraph_config((lam, lam), num_nodes=1000,
                                       mode="expectation_exact")
        report = theory_check(config, trials=100, base_seed=0)
        want = -2.0 - (1.0 - lam) * 4.0
        assert np.allclose(report.analytic, want)
        for tau in range(2):
            allow = max(3.0 * report.stderr[tau], 0.02 * abs(want))
            dev = abs(report.empirical[tau] - want)
            if dev / allow > worst_dev / worst_allow:
                worst_dev, worst_allow = dev, allow
    elapsed = time.perf_counter() - started
    ok = worst_dev <= worst_allow and elapsed < 120.0
    announce(
        f"[criterion 1] mean local similarity matches -2*sigma^2-(1-lambda)*(mu1-mu2)^2 "
        f"for lambda in (0.2, 0.5, 0.8), 100 trials, tol max(3*stderr, 2%): {verdict(ok)} "
        f"(worst |dev| {worst_dev:.4f} vs allowance {worst_allow:.4f}, {elapsed:.1f}s < 120s)"
    )
    assert worst_dev <= worst_allow
    assert elapsed < 120.0


# --- criterion 2: cross-subgraph similarity contrast ------------------------


def test_criterion_2_cross_subgraph_gap_meets_bound():
    started = time.perf_counter()
    config = multi_subgraph_config((0.9, 0.1), num_nodes=1000)
    report = theory_check(config, trials=100, base_seed=0)
    elapsed = time.perf_counter() - started
    assert report.gap_bound == pytest.approx(3.2)
    ok = report.gap_passed and elapsed < 120.0
    announce(
        f"[criterion 2] mean |phi_i - phi_j| across subgraphs at lambdas (0.9, 0.1) "
        f"must reach 3.2 - 3*stderr: {verdict(ok)} "
        f"(empirical {report.gap_empirical:.4f}, stderr {report.gap_stderr:.4f}, "
        f"{elapsed:.1f}s < 120s)"
    )
    assert report.gap_empirical >= report.gap_bound - 3.0 * report.gap_stderr
    assert elapsed < 120.0


# --- criterion 3: toy case study ordering -----------------------------------


@pytest.fixture(scope="module")
def toy_cells():
    started = time.perf_counter()
    cells = toy_study([(0.9, 0.1), (0.5, 0.5)], seeds=range(5))
    return cells, time.perf_counter() - started


def test_criterion_3a_node_level_margin_on_mixed_cell(toy_cells):
    cells, elapsed = toy_cells
    cell = cells[0]
    means = cell.means()
    margin = means["node_level"] - means["graph_level"]

    # premise: at complementary lambdas the exact one-hop Bayes neighbor
    # term vanishes, so the one-hop ceiling is the self-only rule's
    config = multi_subgraph_config(cell.lambdas, num_nodes=1000)
    neighbor_term = 0.0
    oracle_accs = []
    for seed in range(len(cell.seeds)):
        ds = generate_fsbm(config, seed=seed)
        a = dense_adjacency(ds.graph.num_nodes, ds.graph.edge_array())
        full, self_only = loop_one_hop_bayes(a, ds.x, config.mu, config.sigma,
                                             config.lambdas())
        neighbor_term = max(neighbor_term, float(np.max(np.abs(full - self_only))))
        oracle_accs.append(float(np.mean((full < 0) == (ds.community == 1))))
    gap = abs(config.mu[0] - config.mu[1]) / (2.0 * config.sigma)
    ceiling = 0.5 * (1.0 + math.erf(gap / math.sqrt(2.0)))

    def stderr(values):
        return float(np.std(values, ddof=1) / np.sqrt(len(values)))

    ceiling_dev = means["node_level"] - ceiling
    ceiling_allow = max(3.0 * stderr(cell.node_level), 0.02)
    loss_allow = max(3.0 * stderr(cell.node_level - cell.graph_level), 0.02)
    ok = (neighbor_term <= 1e-9 and abs(ceiling_dev) <= ceiling_allow
          and margin >= -loss_allow and elapsed < 300.0)
    announce(
        f"[criterion 3a] lambdas (0.9, 0.1), 5 seeds: one-hop Bayes neighbor term "
        f"<= 1e-9, node-level mean accuracy within max(3*stderr, 0.02) of the one-hop "
        f"ceiling Phi(|mu1-mu2|/2sigma) and no more than max(3*stderr, 0.02) below "
        f"graph-level: {verdict(ok)} "
        f"(neighbor term {neighbor_term:.1e}, ceiling {ceiling:.4f}, oracle "
        f"{np.mean(oracle_accs):.4f}, node {means['node_level']:.4f}, "
        f"graph {means['graph_level']:.4f}, ceiling dev {ceiling_dev:+.4f} vs "
        f"{ceiling_allow:.4f}, margin {margin:+.4f} vs -{loss_allow:.4f}, "
        f"{elapsed:.1f}s < 300s)"
    )
    assert neighbor_term <= 1e-9
    assert abs(ceiling_dev) <= ceiling_allow
    assert margin >= -loss_allow
    assert elapsed < 300.0


def test_criterion_3b_flat_cell_stays_near_raw_baseline(toy_cells):
    cells, _ = toy_cells
    means = cells[1].means()
    spread = max(abs(means["graph_level"] - means["raw"]),
                 abs(means["node_level"] - means["raw"]))
    ok = spread <= 0.03
    announce(
        f"[criterion 3b] lambdas (0.5, 0.5), 5 seeds: both model arms within 0.03 of the "
        f"raw-feature baseline: {verdict(ok)} "
        f"(raw {means['raw']:.4f}, graph {means['graph_level']:.4f}, "
        f"node {means['node_level']:.4f}, spread {spread:.4f})"
    )
    assert spread <= 0.03


# --- criterion 4: analytic gradients against finite differences -------------


def test_criterion_4_gradients_match_finite_differences():
    started = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        g = build_graph(random_edges(30, 0.25, seed), 30)
        x = np.random.default_rng(seed + 1000).normal(size=(30, 8))
        pair = enhanced_filters(g, 0.5)
        stack = build_stack(pair, x, PropagationConfig(num_layers=2))
        config = ModelConfig(num_layers=2, in_dim=8, hidden_dim=4, num_classes=3,
                             sim_kind="cosine", localsim_mode="refined",
                             weight_mode="node_level")
        inputs = ModelInputs.build(g, x, stack, "cosine")
        labels = np.random.default_rng(seed + 2000).integers(0, 3, size=30)
        params = init_parameters(config, np.random.default_rng(seed))
        mask = np.ones(30, dtype=bool)
        _, grads = loss_and_gradients(params, config, inputs, labels, mask,
                                      weight_decay=5e-4)

        def loss_fn():
            value, _ = loss_and_gradients(params, config, inputs, labels, mask,
                                          weight_decay=5e-4)
            return value

        # per-coordinate best of h in {1e-5, 1e-6}: a probe straddling a
        # relu kink is invalid at the larger step, a wrong gradient at both
        worst = max(worst, fd_rel_error(loss_fn, params, grads))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-4 and elapsed < 60.0
    announce(
        f"[criterion 4] analytic gradients vs central differences (h=1e-5 with 1e-6 "
        f"fallback) on the n=30/d=8/K=2/z=4 instance, 20 seeds, every coordinate: "
        f"{verdict(ok)} (worst relative error {worst:.3e} <= 1e-4, {elapsed:.1f}s < 60s)"
    )
    assert worst <= 1e-4
    assert elapsed < 60.0


# --- criterion 5: exact algebraic identities --------------------------------


def test_criterion_5_filter_and_propagation_identities(tmp_path):
    g = build_graph(random_edges(60, 0.15, 5), 60)
    filter_dev = 0.0
    for beta in (0.0, 0.5, 1.0):
        pair = enhanced_filters(g, beta)
        total = pair.low.toarray() + pair.high.toarray()
        filter_dev = max(filter_dev, float(np.max(np.abs(total - np.eye(60)))))

    s = sym_norm_adj(g)
    x = np.random.default_rng(6).normal(size=(60, 5))
    sx = s @ x
    repeated = all(np.array_equal(h, sx) for h in irdc(s, x, 4, 0.0))
    two = irdc(s, x, 2, 1.0)
    flipped = np.array_equal(two[1], -(s @ sx))

    y = np.random.default_rng(7).normal(size=(60, 5))
    mixed = irdc(s, 0.7 * x - 1.3 * y, 3, 0.5)
    lin_dev = 0.0
    for hm, hx, hy in zip(mixed, irdc(s, x, 3, 0.5), irdc(s, y, 3, 0.5)):
        combo = 0.7 * hx - 1.3 * hy
        denom = max(float(np.max(np.abs(combo))), 1e-12)
        lin_dev = max(lin_dev, float(np.max(np.abs(hm - combo))) / denom)

    stack = build_stack(enhanced_filters(g, 0.5), x, PropagationConfig(num_layers=3))
    path = tmp_path / "bundle.lspb"
    save_bundle(stack, path)
    loaded = load_bundle(path, features=x)
    bitwise = (
        all(np.array_equal(a, b) for a, b in zip(stack.low, loaded.low))
        and all(np.array_equal(a, b) for a, b in zip(stack.high, loaded.high))
        and stack.feature_digest == loaded.feature_digest
    )

    ok = (filter_dev <= 1e-12 and repeated and flipped and lin_dev <= 1e-10 and bitwise)
    announce(
        f"[criterion 5] exact identities: low+high filters sum to I (<= 1e-12), gamma=0 "
        f"repeats S*X bitwise, gamma=1/K=2 gives -S^2*X bitwise, linearity <= 1e-10, "
        f"bundle round trip bitwise: {verdict(ok)} "
        f"(filter dev {filter_dev:.1e}, linearity dev {lin_dev:.1e}, "
        f"repeat={repeated}, flip={flipped}, bitwise={bitwise})"
    )
    assert filter_dev <= 1e-12
    assert repeated and flipped
    assert lin_dev <= 1e-10
    assert bitwise


# --- criterion 6: generator structural fidelity -----------------------------


def test_criterion_6_generator_structure():
    config = multi_subgraph_config((0.9, 0.1), num_nodes=1000)
    cross_total = 0
    degree_lo, degree_hi = np.inf, -np.inf
    worst_homophily_err = 0.0
    for seed in range(5):
        ds = generate_fsbm(config, seed=seed)
        edges = ds.graph.edge_array()
        cross_total += int(np.sum(ds.subgraph_id[edges[:, 0]] != ds.subgraph_id[edges[:, 1]]))
        mean_degree = float(ds.graph.degrees.mean())
        degree_lo = min(degree_lo, mean_degree)
        degree_hi = max(degree_hi, mean_degree)
        same = ds.community[edges[:, 0]] == ds.community[edges[:, 1]]
        for tau, lam in enumerate((0.9, 0.1)):
            frac = float(same[ds.subgraph_id[edges[:, 0]] == tau].mean())
            worst_homophily_err = max(worst_homophily_err, abs(frac - lam))
    ok = (cross_total == 0 and 9.5 <= degree_lo and degree_hi <= 10.5
          and worst_homophily_err <= 0.02)
    announce(
        f"[criterion 6] generator at lambdas (0.9, 0.1), n=1000, 5 seeds: zero "
        f"cross-subgraph edges, mean degree in [9.5, 10.5], subgraph homophily within "
        f"0.02 of lambda: {verdict(ok)} "
        f"(cross edges {cross_total}, degree range [{degree_lo:.2f}, {degree_hi:.2f}], "
        f"worst homophily error {worst_homophily_err:.4f})"
    )
    assert cross_total == 0
    assert 9.5 <= degree_lo and degree_hi <= 10.5
    assert worst_homophily_err <= 0.02


# --- criterion 7: accuracy versus propagation depth -------------------------


@pytest.fixture(scope="module")
def depth_data():
    ds = generate_fsbm(multi_subgraph_config((0.9,), num_nodes=1000), seed=0)
    bundle = DatasetBundle(graph=ds.graph, features=ds.x, labels=ds.community,
                           name="fsbm-homophilic")
    return bundle, make_splits(1000, base_seed=0, count=10)


@pytest.fixture(scope="module")
def depth_rows(depth_data):
    bundle, splits = depth_data
    started = time.perf_counter()
    rows = depth_sweep(bundle, ExperimentConfig(), [1, 2, 4, 8], splits, base_seed=0)
    return rows, time.perf_counter() - started


def test_criterion_7a_main_model_stable_in_depth(depth_rows):
    rows, elapsed = depth_rows
    accs = {row.num_layers: row.main.mean for row in rows}
    drop = max(accs.values()) - accs[8]
    ok = drop <= 0.02 and elapsed < 600.0
    announce(
        f"[criterion 7a] lambda 0.9, 10 splits: main model at K=8 within 0.02 of its best "
        f"over K in (1, 2, 4, 8): {verdict(ok)} "
        f"(accuracies {[round(accs[k], 4) for k in (1, 2, 4, 8)]}, drop {drop:.4f}, "
        f"{elapsed:.1f}s < 600s)"
    )
    assert drop <= 0.02
    assert elapsed < 600.0


def test_criterion_7b_repeated_smoothing_baseline_degrades(depth_data, depth_rows):
    bundle, splits = depth_data
    rows, _ = depth_rows
    fused = {row.num_layers: row.sgc_variant.mean for row in rows}

    # the fused sgc arm always holds the K=1 layer, so the baseline is SGC
    # proper: a linear head on the deepest smoothed layer S^K X alone
    depths = (1, 2, 4, 8, 16, 32, 64)
    config = ExperimentConfig()
    pair = enhanced_filters(bundle.graph, config.beta)
    stack = build_stack(pair, bundle.features,
                        replace(config, variant="sgc", num_layers=depths[-1]).propagation())
    accs = {}
    for k in depths:
        per_split = []
        for i, split in enumerate(splits):
            # toy_study's d=1 linear-head settings, seeded as run_experiment
            # seeds split i
            tcfg = TrainConfig(lr=0.05, weight_decay=5e-4, epochs=200, patience=40,
                               seed=(0, i))
            head = train_linear(stack.low[k - 1], bundle.labels, 2, tcfg,
                                split.train, split.val)
            per_split.append(linear_accuracy(head, stack.low[k - 1], bundle.labels,
                                             split.test))
        accs[k] = float(np.mean(per_split))
    drop = max(accs.values()) - accs[depths[-1]]

    # S^K x follows the class eigenvector until the stationary one, growing
    # faster by lambda1/lambda2 per layer, overtakes it; row normalization
    # then leaves every d=1 layer with one sign on all nodes
    eigvals, eigvecs = np.linalg.eigh(pair.low.toarray())
    top, second = np.argsort(-eigvals)[:2]
    coef = eigvecs.T @ bundle.features[:, 0]
    lam1, lam2 = eigvals[top], eigvals[second]
    crossover = math.log(abs(coef[second]) / abs(coef[top])) / math.log(lam1 / lam2)

    ok = drop >= 0.05 and crossover < depths[-1]
    announce(
        f"[criterion 7b] lambda 0.9, 10 splits: SGC baseline (linear head on the deepest "
        f"repeated-smoothing layer) must drop >= 0.05 from its own best by K=64, past "
        f"the predicted spectral crossover: {verdict(ok)} "
        f"(accuracies {[round(accs[k], 4) for k in depths]} for K in {depths}, "
        f"drop {drop:.4f}, low-pass lambda1 {lam1:.4f}, lambda2 {lam2:.4f}, crossover "
        f"K ~ {crossover:.1f}, fused sgc arm {[round(fused[k], 4) for k in sorted(fused)]})"
    )
    assert crossover < depths[-1]
    assert drop >= 0.05


# --- criterion 8: byte-identical reruns -------------------------------------


def test_criterion_8_cli_reruns_are_byte_identical(tmp_path):
    started = time.perf_counter()
    config = tmp_path / "config.yaml"
    config.write_text("num_layers: 2\nhidden_dim: 8\nepochs: 60\ndropout: 0.0\nlr: 0.05\n")

    gen = ["gen-fsbm", "--nodes", "200", "--lambdas", "0.9,0.1", "--seed", "4"]
    assert cli_main(gen + ["--out", str(tmp_path / "d1")]) == 0
    assert cli_main(gen + ["--out", str(tmp_path / "d2")]) == 0
    same_data = all(
        (tmp_path / "d1" / name).read_bytes() == (tmp_path / "d2" / name).read_bytes()
        for name in ("edges.txt", "features.csv", "labels.txt", "report.csv")
    )

    trn = ["train", "--data", str(tmp_path / "d1"), "--splits", "3",
           "--config", str(config), "--seed", "2"]
    assert cli_main(trn + ["--out", str(tmp_path / "t1")]) == 0
    assert cli_main(trn + ["--out", str(tmp_path / "t2")]) == 0
    same_train = all(
        (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t2" / name).read_bytes()
        for name in ("report.csv", "model.lspm")
    )

    theo = ["theory", "--lambdas", "0.8,0.2", "--nodes", "200", "--trials", "5",
            "--seed", "3"]
    assert cli_main(theo + ["--out", str(tmp_path / "h1")]) == 0
    assert cli_main(theo + ["--out", str(tmp_path / "h2")]) == 0
    same_theory = (
        (tmp_path / "h1" / "report.csv").read_bytes()
        == (tmp_path / "h2" / "report.csv").read_bytes()
    )

    elapsed = time.perf_counter() - started
    ok = same_data and same_train and same_theory
    announce(
        f"[criterion 8] repeated CLI runs with identical arguments write byte-identical "
        f"reports and checkpoints: {verdict(ok)} "
        f"(dataset={same_data}, train={same_train}, theory={same_theory}, {elapsed:.1f}s)"
    )
    assert same_data
    assert same_train
    assert same_theory


# --- criterion 9: converted real data (skipped when absent) -----------------


def _real_data_root() -> Path | None:
    root = Path(os.environ.get("LSGNN_DATA_DIR", "data/real"))
    return root if root.is_dir() else None


def test_criterion_9a_real_dataset_homophily():
    root = _real_data_root()
    if root is None:
        announce(
            "[criterion 9a] homophily of converted datasets: SKIP "
            "(no converted real data; set LSGNN_DATA_DIR or fill data/real/)"
        )
        pytest.skip("no converted real datasets (set LSGNN_DATA_DIR or fill data/real/)")
    expected = {"cornell": 0.31, "texas": 0.11, "cora": 0.81}
    measured = {}
    for name, want in expected.items():
        where = root / name
        if not where.is_dir():
            pytest.skip(f"dataset {name} not present under {root}")
        measured[name] = dataset_stats(load_dataset(where)).homophily
    worst = max(abs(measured[n] - expected[n]) for n in expected)
    ok = worst <= 0.01
    announce(
        f"[criterion 9a] homophily of converted datasets within 0.01 of "
        f"(cornell 0.31, texas 0.11, cora 0.81): {verdict(ok)} "
        f"(measured {dict((n, round(v, 3)) for n, v in measured.items())})"
    )
    assert worst <= 0.01


def test_criterion_9b_search_accuracy_on_texas():
    root = _real_data_root()
    if root is None or not (root / "texas").is_dir():
        announce(
            "[criterion 9b] random search accuracy on texas: SKIP "
            "(no converted real data; set LSGNN_DATA_DIR or fill data/real/)"
        )
        pytest.skip("no converted texas dataset (set LSGNN_DATA_DIR or fill data/real/)")
    started = time.perf_counter()
    bundle = load_dataset(root / "texas")
    splits = make_splits(bundle.num_nodes, base_seed=0, count=10)
    result = random_search(bundle, SearchSpace(), budget=50, splits=splits, seed=0)
    elapsed = time.perf_counter() - started
    ok = result.best_report.mean >= 0.80 and elapsed < 1800.0
    announce(
        f"[criterion 9b] 50-trial random search on texas, mean test accuracy over 10 "
        f"splits >= 0.80: {verdict(ok)} "
        f"(mean {result.best_report.mean:.4f}, {elapsed:.1f}s < 1800s)"
    )
    assert result.best_report.mean >= 0.80
    assert elapsed < 1800.0
