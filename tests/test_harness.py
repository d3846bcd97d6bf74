import numpy as np
import pytest

import lsgnn.harness as harness
from lsgnn import __version__
from lsgnn.errors import FormatError, InputError, LsgnnError, TrainingDivergedError
from lsgnn.graph import build_graph
from lsgnn.harness import (
    DatasetBundle,
    ExperimentConfig,
    PropagationCache,
    SearchSpace,
    dataset_stats,
    depth_sweep,
    format_float,
    graph_digest,
    load_dataset,
    make_splits,
    random_search,
    run_experiment,
    sample_config,
    save_dataset,
    write_manifest,
    write_report,
)
from lsgnn.model import ModelInputs, train
from lsgnn.propagation import PropagationConfig, precompute_bundle
from lsgnn.synthetic import generate_fsbm, multi_subgraph_config


def small_bundle(n=200, lambdas=(0.9, 0.1), seed=0):
    ds = generate_fsbm(multi_subgraph_config(lambdas, num_nodes=n), seed=seed)
    return DatasetBundle(graph=ds.graph, features=ds.x, labels=ds.community,
                         name="toy")


def quick_config(**overrides):
    base = dict(num_layers=2, hidden_dim=8, dropout=0.0, lr=0.05,
                epochs=30, patience=30)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_make_splits_sizes_and_coverage():
    splits = make_splits(1000)
    assert len(splits) == 10
    for s in splits:
        assert s.train.sum() == 480
        assert s.val.sum() == 320
        assert s.test.sum() == 200
        assert not np.any(s.train & s.val)
        assert not np.any(s.train & s.test)
        assert not np.any(s.val & s.test)
        assert np.all(s.train | s.val | s.test)
    assert not np.array_equal(splits[0].train, splits[1].train)


def test_make_splits_determinism_and_errors():
    a = make_splits(100, base_seed=5, count=3)
    b = make_splits(100, base_seed=5, count=3)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.train, sb.train)
        assert np.array_equal(sa.test, sb.test)
        assert sa.seed == sb.seed
    c = make_splits(100, base_seed=6, count=1)
    assert not np.array_equal(a[0].train, c[0].train)
    with pytest.raises(InputError):
        make_splits(3)
    with pytest.raises(InputError):
        make_splits(100, ratios=(0.6, 0.5, 0.1))


def test_dataset_round_trip(tmp_path):
    bundle = small_bundle(n=40)
    where = tmp_path / "toyset"
    subgraphs = np.repeat([0, 1], 20)
    save_dataset(where, bundle.graph, bundle.features, bundle.labels,
                 subgraph_id=subgraphs)
    assert (where / "subgraphs.txt").exists()
    loaded = load_dataset(where)
    assert loaded.name == "toyset"
    assert np.array_equal(loaded.graph.edge_array(), bundle.graph.edge_array())
    assert np.array_equal(loaded.features, bundle.features)  # bitwise via repr
    assert np.array_equal(loaded.labels, bundle.labels)
    assert loaded.num_classes == 2


def write_minimal(where, features_text="1.0,2.0\n3.0,4.0\n", labels_text="0\n1\n",
                  edges_text="0 1\n"):
    where.mkdir(exist_ok=True)
    (where / "features.csv").write_text(features_text)
    (where / "labels.txt").write_text(labels_text)
    (where / "edges.txt").write_text(edges_text)


def test_load_dataset_error_paths(tmp_path):
    missing = tmp_path / "missing"
    write_minimal(missing)
    (missing / "labels.txt").unlink()
    with pytest.raises(InputError, match="labels.txt"):
        load_dataset(missing)

    ragged = tmp_path / "ragged"
    write_minimal(ragged, features_text="1.0,2.0\n3.0\n")
    with pytest.raises(FormatError, match="features.csv:2"):
        load_dataset(ragged)

    alpha = tmp_path / "alpha"
    write_minimal(alpha, features_text="1.0,x\n3.0,4.0\n")
    with pytest.raises(FormatError, match="features.csv:1"):
        load_dataset(alpha)

    badlabel = tmp_path / "badlabel"
    write_minimal(badlabel, labels_text="0\none\n")
    with pytest.raises(FormatError, match="labels.txt:2"):
        load_dataset(badlabel)

    short = tmp_path / "short"
    write_minimal(short, labels_text="0\n")
    with pytest.raises(InputError, match="1 rows"):
        load_dataset(short)

    sparse_ids = tmp_path / "sparse_ids"
    write_minimal(sparse_ids, labels_text="0\n2\n")
    with pytest.raises(FormatError, match="missing \\[1\\]"):
        load_dataset(sparse_ids)

    empty = tmp_path / "empty"
    write_minimal(empty, features_text="\n", labels_text="")
    with pytest.raises(FormatError, match="no rows"):
        load_dataset(empty)

    for i, bad in enumerate(("nan", "inf", "-inf", "1e400")):
        nonfinite = tmp_path / f"nonfinite{i}"
        write_minimal(nonfinite, features_text=f"1.0,2.0\n\n3.0,{bad}\n")
        with pytest.raises(FormatError, match="features.csv:3: non-finite value"):
            load_dataset(nonfinite)


def test_dataset_stats_on_path_graph():
    g = build_graph(np.array([[0, 1], [1, 2], [2, 3]]), 4)
    bundle = DatasetBundle(graph=g, features=np.eye(4),
                           labels=np.array([0, 0, 1, 1]))
    stats = dataset_stats(bundle)
    assert stats.num_nodes == 4
    assert stats.num_edges == 3
    assert stats.num_classes == 2
    assert stats.feature_dim == 4
    # per node: 1, 1/2, 1/2, 1
    assert stats.homophily == pytest.approx(0.75)


def test_graph_digest_depends_only_on_structure():
    edges = np.array([[0, 1], [1, 2], [0, 3]])
    g1 = build_graph(edges, 4)
    g2 = build_graph(edges[::-1], 4)
    assert graph_digest(g1) == graph_digest(g2)
    g3 = build_graph(np.array([[0, 1], [1, 2], [2, 3]]), 4)
    assert graph_digest(g1) != graph_digest(g3)
    g4 = build_graph(edges, 5)  # extra isolated node changes the digest
    assert graph_digest(g1) != graph_digest(g4)


def test_propagation_cache_memory():
    bundle = small_bundle(n=40)
    config = PropagationConfig(num_layers=2)
    cache = PropagationCache()
    stack, hit = cache.get_or_compute(bundle.graph, bundle.features, config)
    assert not hit
    again, hit2 = cache.get_or_compute(bundle.graph, bundle.features, config)
    assert hit2 and again is stack

    _, other_hit = cache.get_or_compute(
        bundle.graph, bundle.features, PropagationConfig(num_layers=3))
    assert not other_hit

    _, fresh_hit = PropagationCache().get_or_compute(bundle.graph, bundle.features, config)
    assert not fresh_hit


def test_experiment_config_validation_and_views():
    config = quick_config()
    assert config.validate() is config
    with pytest.raises(InputError):
        quick_config(variant="cheb").validate()
    with pytest.raises(InputError):
        quick_config(dropout=1.5).validate()
    with pytest.raises(InputError):
        quick_config(num_layers=0).validate()
    with pytest.raises(InputError):
        quick_config(sim_kind="dot").validate()

    prop = config.propagation()
    assert (prop.num_layers, prop.gamma, prop.beta) == (2, 0.5, 0.5)
    model = config.model(in_dim=3, num_classes=4)
    assert (model.in_dim, model.num_classes, model.hidden_dim) == (3, 4, 8)
    tcfg = config.training(seed=(1, 2))
    assert (tcfg.lr, tcfg.epochs, tcfg.seed) == (0.05, 30, (1, 2))


def test_run_experiment_is_deterministic_and_uses_cache():
    bundle = small_bundle()
    splits = make_splits(bundle.num_nodes, count=2)
    config = quick_config()
    cache = PropagationCache()
    r1 = run_experiment(bundle, config, splits, base_seed=3, cache=cache)
    r2 = run_experiment(bundle, config, splits, base_seed=3, cache=cache)
    assert r1.test_accuracies == r2.test_accuracies
    assert r1.val_accuracies == r2.val_accuracies
    assert r1.mean == pytest.approx(np.mean(r1.test_accuracies))
    assert r1.std == pytest.approx(np.std(r1.test_accuracies))
    assert len(r1.test_accuracies) == 2
    assert not r1.cache_hit and r2.cache_hit
    assert r1.config["num_layers"] == 2
    no_cache = run_experiment(bundle, config, splits, base_seed=3)
    assert no_cache.test_accuracies == r1.test_accuracies
    assert not no_cache.cache_hit
    with pytest.raises(InputError):
        run_experiment(bundle, config, [], base_seed=3)


def test_run_experiment_keeps_best_validation_split_parameters():
    bundle = small_bundle(lambdas=(0.5, 0.5))
    splits = make_splits(bundle.num_nodes, count=3)
    config = quick_config(dropout=0.5)
    report = run_experiment(bundle, config, splits, base_seed=3)
    best = int(np.argmax(report.val_accuracies))
    assert 0 < best < len(splits) - 1  # neither the first nor the last split
    stack = precompute_bundle(bundle.graph, bundle.features, config.propagation())
    model_cfg = config.model(bundle.features.shape[1], bundle.num_classes)
    inputs = ModelInputs.build(bundle.graph, bundle.features, stack, model_cfg.sim_kind)
    fresh = train(model_cfg, config.training(seed=(3, best)), inputs, bundle.labels,
                  splits[best].train, splits[best].val)
    assert list(report.best_params) == list(fresh.params)
    for name, a in fresh.params.items():
        assert np.array_equal(report.best_params[name], a), name


def test_sample_config_domains_and_prefix_stability():
    space = SearchSpace()
    base = quick_config()
    rng = np.random.default_rng(11)
    five = [sample_config(space, rng, base) for _ in range(5)]
    rng = np.random.default_rng(11)
    three = [sample_config(space, rng, base) for _ in range(3)]
    assert five[:3] == three  # same seed, same draw order, same prefix
    for cfg in five:
        assert space.lr_range[0] <= cfg.lr <= space.lr_range[1]
        assert space.weight_decay_range[0] <= cfg.weight_decay <= space.weight_decay_range[1]
        assert cfg.dropout in space.dropout_choices
        assert cfg.beta in space.beta_choices
        assert cfg.gamma in space.gamma_choices
        assert cfg.sim_kind in space.sim_choices
        assert cfg.num_layers == base.num_layers  # untouched fields pass through
    assert len({cfg.lr for cfg in five}) == 5


def test_random_search_picks_best_validation_trial():
    bundle = small_bundle()
    splits = make_splits(bundle.num_nodes, count=1)
    result = random_search(bundle, SearchSpace(), budget=3, splits=splits,
                           seed=2, base=quick_config(epochs=20))
    assert len(result.trials) == 3
    assert [t.index for t in result.trials] == [0, 1, 2]
    ok = [t for t in result.trials if not t.failed]
    assert ok
    best_val = max(t.val_mean for t in ok)
    assert result.best_report.val_mean == pytest.approx(best_val)
    assert result.best_config.validate() is result.best_config
    with pytest.raises(InputError):
        random_search(bundle, SearchSpace(), budget=0, splits=splits)


def test_random_search_skips_diverged_trials(monkeypatch):
    bundle = small_bundle(n=40)
    splits = make_splits(bundle.num_nodes, count=1)
    real = harness.run_experiment
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise TrainingDivergedError(0, 1.0)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "run_experiment", flaky)
    result = harness.random_search(bundle, SearchSpace(), budget=3, splits=splits,
                                   seed=0, base=quick_config(epochs=10))
    assert result.trials[0].failed
    assert np.isnan(result.trials[0].val_mean)
    assert not result.trials[1].failed

    def always_diverges(*args, **kwargs):
        raise TrainingDivergedError(0, 1.0)

    monkeypatch.setattr(harness, "run_experiment", always_diverges)
    with pytest.raises(LsgnnError, match="diverged"):
        harness.random_search(bundle, SearchSpace(), budget=2, splits=splits,
                              seed=0, base=quick_config(epochs=10))


def test_depth_sweep_rows_and_depth_one_equivalence():
    bundle = small_bundle(n=120)
    splits = make_splits(bundle.num_nodes, count=1)
    rows = depth_sweep(bundle, quick_config(epochs=20), [1, 2], splits, base_seed=1)
    assert [r.num_layers for r in rows] == [1, 2]
    # both variants propagate identically at depth 1, so metrics coincide
    assert rows[0].main.test_accuracies == rows[0].sgc_variant.test_accuracies
    with pytest.raises(InputError):
        depth_sweep(bundle, quick_config(), [], splits)


def test_depth_sweep_trains_an_sgc_config_once_per_depth(monkeypatch):
    bundle = small_bundle(n=120)
    splits = make_splits(bundle.num_nodes, count=1)
    calls = []

    def counting_train(*args, **kwargs):
        calls.append(1)
        return train(*args, **kwargs)

    monkeypatch.setattr(harness, "train", counting_train)
    depth_sweep(bundle, quick_config(epochs=5), [1, 2], splits)
    assert len(calls) == 4  # main and sgc arm at each depth
    calls.clear()
    rows = depth_sweep(bundle, quick_config(epochs=5, variant="sgc"), [1, 2], splits)
    assert len(calls) == 2  # the sgc arm is the main run
    assert all(r.sgc_variant is r.main for r in rows)


def test_write_report_and_manifest_are_reproducible(tmp_path):
    header = ["name", "mean", "std"]
    rows = [["a", 0.123456789123, 1e-9], ["b", float(np.float64(2) / 3), 0]]
    p1 = tmp_path / "r1.csv"
    p2 = tmp_path / "r2.csv"
    write_report(p1, header, rows)
    write_report(p2, header, rows)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == "name,mean,std"
    assert lines[1].split(",")[1] == repr(0.123456789123)
    assert float(lines[2].split(",")[1]) == np.float64(2) / 3

    m1 = tmp_path / "m1.txt"
    m2 = tmp_path / "m2.txt"
    args = (["train", "--data", "x"], {"lr": 0.05, "beta": 0.5}, 7)
    write_manifest(m1, *args, notes={"splits": 10})
    write_manifest(m2, *args, notes={"splits": 10})
    assert m1.read_bytes() == m2.read_bytes()
    text = m1.read_text()
    assert f"version={__version__}\n" in text
    assert "command=train --data x\n" in text
    assert "seed=7\n" in text
    assert text.index("config.beta=") < text.index("config.lr=")  # sorted keys
    assert "splits=10" in text


def test_format_float_round_trips():
    for v in (0.1, 1 / 3, 1e-300, -2.5e17, 0.0):
        assert float(format_float(v)) == v
