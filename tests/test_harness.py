import hashlib
import re
from dataclasses import replace

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
    SEARCHED,
    SearchSpace,
    dataset_stats,
    depth_sweep,
    format_float,
    load_dataset,
    make_splits,
    random_search,
    run_experiment,
    sample_config,
    save_dataset,
    write_manifest,
    write_report,
)
from lsgnn.model import ModelConfig, ModelInputs, TrainConfig, train
from lsgnn.propagation import PropagationConfig, precompute_bundle
from lsgnn.synthetic import generate_fsbm, multi_subgraph_config


def small_bundle(n=200, lambdas=(0.9, 0.1), seed=0):
    ds = generate_fsbm(multi_subgraph_config(lambdas, num_nodes=n), seed=seed)
    return DatasetBundle(graph=ds.graph, features=ds.x, labels=ds.community)


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
    c = make_splits(100, base_seed=6, count=1)
    assert not np.array_equal(a[0].train, c[0].train)
    with pytest.raises(InputError):
        make_splits(3)


def test_split_masks_are_pinned():
    # Recorded before the seed derivations became one rule (`harness._seeds`):
    # split i shuffles with the stream of (3, 4, i).
    splits = make_splits(100, base_seed=[3, 4], count=2)
    got = [hashlib.sha256(np.stack([s.train, s.val, s.test]).tobytes()).hexdigest()[:16]
           for s in splits]
    assert got == ["39eb6958a97d55f0", "223d02bf4880118f"]


def test_dataset_round_trip(tmp_path):
    bundle = small_bundle(n=40)
    where = tmp_path / "toyset"
    subgraphs = np.repeat([0, 1], 20)
    save_dataset(where, bundle.graph, bundle.features, bundle.labels,
                 subgraph_id=subgraphs)
    assert (where / "subgraphs.txt").exists()
    loaded = load_dataset(where)
    assert np.array_equal(loaded.graph.edge_array(), bundle.graph.edge_array())
    assert np.array_equal(loaded.features, bundle.features)  # bitwise via repr
    assert np.array_equal(loaded.labels, bundle.labels)
    assert loaded.num_classes == 2


def _digests(where):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16] for p in sorted(where.iterdir())}


def test_save_dataset_bytes_are_pinned(tmp_path):
    # Signed zero, the smallest subnormal, a huge value and a 17-digit
    # decimal; labels given as floats go through int().
    features = np.array([[-0.0, 5e-324], [1e300, 0.1 + 0.2], [2.0 / 3.0, -7.0]])
    graph = build_graph(np.array([[2, 0], [1, 2], [0, 1]]), 3)
    save_dataset(tmp_path, graph, features, np.array([1.0, 0.0, 1.0]),
                 subgraph_id=np.array([0, 1, 1]))
    assert (tmp_path / "features.csv").read_text().splitlines()[:2] == [
        "-0.0,5e-324", "1e+300,0.30000000000000004"]
    assert _digests(tmp_path) == {
        "edges.txt": "0b3cf00b23b6326a",
        "features.csv": "e666a69127f2d6cb",
        "labels.txt": "a714acf0208a1a2e",
        "subgraphs.txt": "76fe9f61152f4c08",
    }


@pytest.mark.parametrize("labels, subgraph_id, message", [
    ([1.0, 1.5, 0.0], None, r"^labels\[1\] is 1.5, not a finite integer$"),
    ([1.0, np.nan, 0.0], None, r"^labels\[1\] is nan, not a finite integer$"),
    ([1, 0, 1], [0, 1, np.inf], r"^subgraph_id\[2\] is inf, not a finite integer$"),
], ids=["fractional-label", "nan-label", "infinite-subgraph-id"])
def test_save_dataset_refuses_non_integer_ids_before_writing(tmp_path, labels, subgraph_id, message):
    graph = build_graph(np.array([[0, 1], [1, 2]]), 3)
    subgraph_id = None if subgraph_id is None else np.array(subgraph_id)
    with pytest.raises(InputError, match=message):
        save_dataset(tmp_path, graph, np.zeros((3, 2)), np.array(labels), subgraph_id=subgraph_id)
    assert list(tmp_path.iterdir()) == []


def test_stats_report_node_homophily_not_edge_homophily():
    # Per node: 1, 1, 2/3 and 0, so the mean is 2/3; edge homophily would
    # be 3 same-label edges of 4, 0.75.
    graph = build_graph(np.array([[0, 1], [1, 2], [0, 2], [2, 3]]), 4)
    bundle = DatasetBundle(graph=graph, features=np.zeros((4, 1)), labels=np.array([0, 0, 0, 1]))
    assert dataset_stats(bundle).homophily == pytest.approx(2.0 / 3.0)


def test_write_report_bytes_are_pinned(tmp_path):
    rows = [[np.float32(0.1), np.int64(3), np.bool_(True)], ["b", np.float64(1e-7), False]]
    write_report(tmp_path / "report.csv", ["name", "value", "flag"], rows)
    assert (tmp_path / "report.csv").read_text() == (
        "name,value,flag\n0.10000000149011612,3,True\nb,1e-07,False\n")
    assert _digests(tmp_path) == {"report.csv": "74cc9e6361b2fd03"}


def write_minimal(where, features_text="1.0,2.0\n3.0,4.0\n", labels_text="0\n1\n",
                  edges_text="0 1\n"):
    where.mkdir(exist_ok=True)
    (where / "features.csv").write_text(features_text)
    (where / "labels.txt").write_text(labels_text)
    (where / "edges.txt").write_text(edges_text)


def at(where, name, line=None):
    """Regex prefix of a dataset error naming the file's full path (and line)."""
    return "^" + re.escape(f"{where / name}" + ("" if line is None else f":{line}") + ": ")


def test_load_dataset_error_paths(tmp_path):
    missing = tmp_path / "missing"
    write_minimal(missing)
    (missing / "labels.txt").unlink()
    with pytest.raises(InputError, match="labels.txt"):
        load_dataset(missing)

    ragged = tmp_path / "ragged"
    write_minimal(ragged, features_text="1.0,2.0\n3.0\n")
    with pytest.raises(FormatError, match=at(ragged, "features.csv", 2) + "expected 2 values, got 1 in '3.0'$"):
        load_dataset(ragged)

    alpha = tmp_path / "alpha"
    write_minimal(alpha, features_text="1.0,x\n3.0,4.0\n")
    with pytest.raises(FormatError, match=at(alpha, "features.csv", 1) + "value 'x' is not a finite number$"):
        load_dataset(alpha)

    badlabel = tmp_path / "badlabel"
    write_minimal(badlabel, labels_text="0\none\n")
    with pytest.raises(FormatError, match=at(badlabel, "labels.txt", 2) + "label 'one' is not an integer$"):
        load_dataset(badlabel)

    short = tmp_path / "short"
    write_minimal(short, labels_text="0\n")
    with pytest.raises(FormatError, match="^" + re.escape(
            f"{short / 'labels.txt'} has 1 rows but {short / 'features.csv'} has 2")):
        load_dataset(short)

    sparse_ids = tmp_path / "sparse_ids"
    write_minimal(sparse_ids, labels_text="0\n2\n")
    with pytest.raises(FormatError, match=at(sparse_ids, "labels.txt")
                       + r"label ids are not dense .*missing \[1\] below the row count 2"):
        load_dataset(sparse_ids)

    empty = tmp_path / "empty"
    write_minimal(empty, features_text="\n", labels_text="")
    with pytest.raises(FormatError, match="^" + re.escape(f"{empty / 'features.csv'} contains no rows")):
        load_dataset(empty)

    for i, bad in enumerate(("nan", "inf", "-inf", "1e400")):
        nonfinite = tmp_path / f"nonfinite{i}"
        write_minimal(nonfinite, features_text=f"1.0,2.0\n\n3.0,{bad}\n")
        with pytest.raises(FormatError, match=at(nonfinite, "features.csv", 3)
                           + f"value '{bad}' is not a finite number$"):
            load_dataset(nonfinite)


def test_label_errors_name_labels_txt(tmp_path):
    negative = tmp_path / "negative"
    write_minimal(negative, labels_text="0\n\n-1\n")
    with pytest.raises(FormatError, match=at(negative, "labels.txt", 3)
                       + re.escape("label outside [0, 9223372036854775808) in '-1'") + "$"):
        load_dataset(negative)

    gap = tmp_path / "gap"
    write_minimal(gap, labels_text="0\n2\n")
    with pytest.raises(FormatError, match=at(gap, "labels.txt")
                       + r"label ids are not dense .*missing \[1\] below the row count 2"):
        load_dataset(gap)


def test_label_outside_int64_is_named(tmp_path):
    write_minimal(tmp_path, labels_text="0\n99999999999999999999\n")
    with pytest.raises(FormatError, match=at(tmp_path, "labels.txt", 2) + re.escape(
            "label outside [0, 9223372036854775808) in '99999999999999999999'")):
        load_dataset(tmp_path)


def test_label_id_beyond_the_row_count_is_named_without_allocating(tmp_path):
    # Dense ids in [0, C) imply max < rows; a check sized by the maximum
    # would ask for petabytes here.
    where = tmp_path / "far"
    write_minimal(where, features_text="1.0\n2.0\n3.0\n", labels_text="0\n1\n1000000000000000\n")
    with pytest.raises(FormatError, match=r"labels.txt: .*missing \[2\].*label 1000000000000000"):
        load_dataset(where)


@pytest.mark.parametrize("last", [1999, 10**6])
def test_missing_label_ids_are_capped_at_ten(tmp_path, last):
    # 1999 zeros and one large id: 1998 or 1999 ids are missing.
    write_minimal(tmp_path, features_text="1.0\n" * 2000, labels_text="0\n" * 1999 + f"{last}\n")
    with pytest.raises(FormatError) as info:
        load_dataset(tmp_path)
    message = str(info.value)
    rest = 1998 - 10 if last == 1999 else 1999 - 10
    prefix = f"{tmp_path / 'labels.txt'}: "
    assert message.startswith(prefix + "label ids are not dense in [0, C): missing ")
    assert f"missing {list(range(1, 11))} and {rest} more" in message
    assert len(message) - len(prefix) < 200


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


def test_propagation_cache_memory():
    bundle = small_bundle(n=40)
    config = PropagationConfig(num_layers=2)
    cache = PropagationCache(bundle.graph, bundle.features)
    stack, hit = cache.get_or_compute(config)
    assert not hit
    again, hit2 = cache.get_or_compute(PropagationConfig(num_layers=2))
    assert hit2 and again is stack  # equal configs share one entry

    _, other_hit = cache.get_or_compute(PropagationConfig(num_layers=3))
    assert not other_hit

    _, fresh_hit = PropagationCache(bundle.graph, bundle.features).get_or_compute(config)
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
    hits = []

    class RecordingCache(PropagationCache):
        def get_or_compute(self, prop_config):
            stack, hit = super().get_or_compute(prop_config)
            hits.append(hit)
            return stack, hit

    cache = RecordingCache(bundle.graph, bundle.features)
    r1 = run_experiment(bundle, config, splits, base_seed=3, cache=cache)
    r2 = run_experiment(bundle, config, splits, base_seed=3, cache=cache)
    assert r1.test_accuracies == r2.test_accuracies
    assert r1.val_accuracies == r2.val_accuracies
    assert r1.mean == pytest.approx(np.mean(r1.test_accuracies))
    assert r1.std == pytest.approx(np.std(r1.test_accuracies))
    assert len(r1.test_accuracies) == 2
    assert hits == [False, True]
    no_cache = run_experiment(bundle, config, splits, base_seed=3)
    assert no_cache.test_accuracies == r1.test_accuracies
    assert hits == [False, True]
    with pytest.raises(InputError):
        run_experiment(bundle, config, [], base_seed=3)


def test_run_experiment_rejects_a_cache_made_for_another_bundle():
    bundle = small_bundle(n=40)
    splits = make_splits(bundle.num_nodes, count=1)
    config = quick_config(epochs=2)
    twin = DatasetBundle(graph=bundle.graph, features=bundle.features.copy(), labels=bundle.labels)
    for other in (twin, small_bundle(n=40)):
        cache = PropagationCache(other.graph, other.features)
        with pytest.raises(InputError, match="another graph or feature matrix"):
            run_experiment(bundle, config, splits, cache=cache)
        assert cache.get_or_compute(config.propagation())[1] is False  # nothing was stored


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


# The first five draws for seed 7, recorded before the draws moved into one
# loop over SEARCHED: (lr, weight_decay, dropout, beta, gamma, sim_kind).
PINNED_DRAWS = {
    "default": (SearchSpace(), [
        (0.017790613846114547, 0.030624499862870226, 0.7, 0.9, 1.0, "cosine"),
        (0.003984121459627714, 0.023322077112800505, 0.9, 0.1, 0.5, "euclidean"),
        (0.03927704963152219, 0.00021861238596493078, 0.8, 0.3, 0.5, "cosine"),
        (0.003233993742943504, 0.00016802795020803843, 0.6, 0.7, 0.7, "euclidean"),
        (0.09794912639021726, 0.009189874828259498, 0.8, 0.7, 0.5, "euclidean"),
    ]),
    # YAML reads `beta_choices: [0, 1]` as ints; the draw is still a float.
    "int-choices": (SearchSpace(beta_choices=(0, 1), dropout_choices=(0, 0.5),
                                sim_choices=("euclidean",)), [
        (0.017790613846114547, 0.030624499862870226, 0.5, 1.0, 1.0, "euclidean"),
        (0.003984121459627714, 0.023322077112800505, 0.0, 1.0, 0.1, "euclidean"),
        (0.043899223334275386, 0.009668233792520714, 0.0, 0.0, 0.9, "euclidean"),
        (0.003604551411348232, 1.8808230488033045e-05, 0.0, 1.0, 0.5, "euclidean"),
        (0.010211664032423177, 0.0005854458885145865, 0.5, 1.0, 0.9, "euclidean"),
    ]),
}


# A valid config of each ruled class, and an out-of-range value of every
# field that a `RULES` table checks.
_VALID = {
    PropagationConfig: dict(num_layers=2),
    ModelConfig: dict(num_layers=2, in_dim=1, hidden_dim=8, num_classes=2),
    TrainConfig: {},
    ExperimentConfig: {},
}
_OUT_OF_RANGE = dict(
    num_layers=0, gamma=1.5, beta=-0.5, variant="cheb", in_dim=0, hidden_dim=0, num_classes=0,
    ls_hidden=0, alpha_hidden=0, sim_kind="dot", localsim_mode="exact", weight_mode="edge_level",
    dropout=1.0, lr=0.0, weight_decay=-1e-4, epochs=0, patience=-1,
)


def _rule_cases():
    for cls in _VALID:
        for field in cls.RULES:
            bad = _OUT_OF_RANGE[field]
            yield pytest.param(cls, {field: bad}, field, id=f"{cls.__name__}.{field}={bad}")
            if not isinstance(bad, str):
                yield pytest.param(cls, {field: np.nan}, field, id=f"{cls.__name__}.{field}=nan")
        if "dropout" in cls.RULES:
            # Two faults name the first field in check order, as before the tables.
            yield pytest.param(cls, {"num_layers": 0, "dropout": 1.5}, "num_layers",
                               id=f"{cls.__name__}.two_faults")


@pytest.mark.parametrize("cls, changes, field", _rule_cases())
def test_every_ruled_field_is_checked_when_a_config_is_made(cls, changes, field):
    assert set(_OUT_OF_RANGE) == {name for c in _VALID for name in c.RULES}
    value = changes[field]
    shown = repr(value) if isinstance(value, str) else value
    for make in (lambda: cls(**_VALID[cls] | changes), lambda: replace(cls(**_VALID[cls]), **changes)):
        with pytest.raises(InputError) as exc:
            make()
        assert str(exc.value).startswith(f"{field} ")
        assert str(exc.value).endswith(f", got {shown}")


@pytest.mark.parametrize("name", PINNED_DRAWS)
def test_sample_config_draws_are_pinned(name):
    space, want = PINNED_DRAWS[name]
    rng = np.random.default_rng(7)
    got = [sample_config(space, rng, ExperimentConfig()) for _ in range(5)]
    searched = [field for _, field, _ in SEARCHED]
    assert searched == ["lr", "weight_decay", "dropout", "beta", "gamma", "sim_kind"]
    for cfg, row in zip(got, want, strict=True):
        values = tuple(getattr(cfg, field) for field in searched)
        assert values == row
        assert [type(v) for v in values] == [float] * 5 + [str]


def test_random_search_checks_every_choice_before_the_first_trial(monkeypatch):
    bundle = small_bundle(n=40)
    splits = make_splits(bundle.num_nodes, count=1)
    calls = []
    monkeypatch.setattr(harness, "run_experiment", lambda *a, **k: calls.append(1))
    # seed 0 draws beta 0.5 first, so no trial of budget 1 would reach 2.0
    space = SearchSpace(beta_choices=(0.5, 2.0))
    with pytest.raises(InputError, match=r"^beta_choices: beta must lie in \[0, 1\], got 2\.0$"):
        harness.random_search(bundle, space, budget=1, splits=splits, seed=0)
    assert calls == []


def test_random_search_checks_sim_choices_against_the_feature_width(monkeypatch):
    bundle = small_bundle(n=40)
    bundle.features = np.hstack([bundle.features] * 4)
    splits = make_splits(bundle.num_nodes, count=1)
    calls = []
    monkeypatch.setattr(harness, "run_experiment", lambda *a, **k: calls.append(1))
    space = SearchSpace(sim_choices=("cosine", "neg_sq_scalar"))
    with pytest.raises(InputError, match=r"^sim_choices: neg_sq_scalar requires 1-dimensional "
                                         r"features, got d=4$"):
        harness.random_search(bundle, space, budget=6, splits=splits, seed=0)
    assert calls == []


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


def test_search_space_defaults_construct():
    space = SearchSpace()
    assert space.lr_range == (1e-3, 1e-1)
    assert SearchSpace(lr_range=(0.01, 0.01)).lr_range == (0.01, 0.01)
