import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import lsgnn
from lsgnn import synthetic
from lsgnn.cli import build_parser, main
from lsgnn.harness import ExperimentConfig, dataset_stats, load_dataset, save_dataset
from lsgnn.model import load_checkpoint
from lsgnn.propagation import load_bundle

from conftest import join_artifact, split_artifact


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "fsbm"
    code = main(["gen-fsbm", "--nodes", "120", "--lambdas", "0.9,0.1",
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.yaml"
    path.write_text(
        "num_layers: 2\nhidden_dim: 8\nepochs: 20\ndropout: 0.0\nlr: 0.05\n")
    return path


def test_gen_fsbm_writes_loadable_dataset(dataset_dir, tmp_path, capsys):
    bundle = load_dataset(dataset_dir)
    assert bundle.num_nodes == 120
    assert bundle.num_classes == 2
    assert (dataset_dir / "subgraphs.txt").exists()
    assert (dataset_dir / "report.csv").exists()
    assert (dataset_dir / "manifest.txt").exists()

    twin = tmp_path / "twin"
    assert main(["gen-fsbm", "--nodes", "120", "--lambdas", "0.9,0.1",
                 "--seed", "3", "--out", str(twin)]) == 0
    capsys.readouterr()
    for name in ("edges.txt", "features.csv", "labels.txt"):
        assert (twin / name).read_bytes() == (dataset_dir / name).read_bytes()


def test_precompute_writes_digest_valid_bundle(dataset_dir, config_file, tmp_path, capsys):
    out = tmp_path / "pre"
    assert main(["precompute", "--data", str(dataset_dir),
                 "--config", str(config_file), "--out", str(out)]) == 0
    assert "propagation bundle" in capsys.readouterr().out
    bundle = load_dataset(dataset_dir)
    stack = load_bundle(out / "bundle.lspb", features=bundle.features)
    assert stack.config.num_layers == 2
    assert len(stack.low) == 2 and len(stack.high) == 2
    assert stack.feature_digest.hex() in (out / "manifest.txt").read_text()


def test_train_writes_artifacts_and_reruns_identically(dataset_dir, config_file, tmp_path, capsys):
    first = tmp_path / "run1"
    second = tmp_path / "run2"
    argv = ["train", "--data", str(dataset_dir), "--splits", "2",
            "--config", str(config_file), "--seed", "1"]
    assert main(argv + ["--out", str(first)]) == 0
    assert "mean test accuracy" in capsys.readouterr().out
    assert main(argv + ["--out", str(second)]) == 0
    capsys.readouterr()
    for name in ("report.csv", "manifest.txt", "model.lspm"):
        assert (first / name).exists()
    assert (first / "report.csv").read_bytes() == (second / "report.csv").read_bytes()
    assert (first / "model.lspm").read_bytes() == (second / "model.lspm").read_bytes()
    assert sorted(p.name for p in first.iterdir()) == ["manifest.txt", "model.lspm", "report.csv"]
    lines = (first / "report.csv").read_text().splitlines()
    assert lines[0] == "split,test_accuracy,val_accuracy"
    assert len(lines) == 1 + 2 + 1  # header, one row per split, mean row
    assert lines[-1].startswith("mean,")


def test_eval_reports_full_graph_accuracy(dataset_dir, config_file, tmp_path, capsys):
    train_out = tmp_path / "train"
    assert main(["train", "--data", str(dataset_dir), "--splits", "2",
                 "--config", str(config_file), "--out", str(train_out)]) == 0
    out = tmp_path / "eval"
    assert main(["eval", "--data", str(dataset_dir),
                 "--checkpoint", str(train_out / "model.lspm"),
                 "--config", str(config_file), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "accuracy over all nodes" in printed
    value = float((out / "report.csv").read_text().splitlines()[1].split(",")[1])
    assert 0.0 <= value <= 1.0


def test_eval_rejects_feature_width_mismatch(dataset_dir, config_file, tmp_path, capsys):
    train_out = tmp_path / "train"
    assert main(["train", "--data", str(dataset_dir), "--splits", "1",
                 "--config", str(config_file), "--out", str(train_out)]) == 0
    bundle = load_dataset(dataset_dir)
    wide = tmp_path / "wide"
    save_dataset(wide, bundle.graph, np.hstack([bundle.features] * 3), bundle.labels)
    capsys.readouterr()
    checkpoint = str(train_out / "model.lspm")
    assert main(["eval", "--data", str(wide), "--checkpoint", checkpoint,
                 "--config", str(config_file), "--out", str(tmp_path / "eval")]) == 2
    err = capsys.readouterr().err
    assert checkpoint in err and str(wide) in err
    assert "expects 1 features" in err and "has 3" in err


@pytest.fixture(scope="module")
def tuned_checkpoint(dataset_dir, tmp_path_factory):
    """A checkpoint trained with non-default propagation, and its config file."""
    root = tmp_path_factory.mktemp("tuned")
    config = root / "tuned.yaml"
    config.write_text("num_layers: 3\ngamma: 0.9\nbeta: 1.0\nhidden_dim: 8\nepochs: 20\n"
                      "dropout: 0.0\nlr: 0.05\n")
    assert main(["train", "--data", str(dataset_dir), "--splits", "1", "--config", str(config),
                 "--out", str(root / "train")]) == 0
    return root / "train" / "model.lspm", config


def test_eval_propagates_with_the_checkpoint_config(dataset_dir, tuned_checkpoint, tmp_path, capsys):
    checkpoint, config = tuned_checkpoint
    argv = ["eval", "--data", str(dataset_dir), "--checkpoint", str(checkpoint)]
    assert main(argv + ["--config", str(config), "--out", str(tmp_path / "with")]) == 0
    assert main(argv + ["--out", str(tmp_path / "without")]) == 0
    capsys.readouterr()
    report = (tmp_path / "with" / "report.csv").read_bytes()
    assert (tmp_path / "without" / "report.csv").read_bytes() == report
    manifest = (tmp_path / "without" / "manifest.txt").read_text().splitlines()
    for line in ("config.num_layers=3", "config.gamma=0.9", "config.beta=1.0",
                 "config.hidden_dim=8", "config.variant=irdc", "config.in_dim=1"):
        assert line in manifest


def test_eval_rejects_a_dataset_with_more_classes_than_the_checkpoint(dataset_dir, tuned_checkpoint,
                                                                       tmp_path, capsys):
    checkpoint, _ = tuned_checkpoint
    bundle = load_dataset(dataset_dir)
    labels = bundle.labels.copy()
    labels[0] = 2
    three = tmp_path / "three"
    save_dataset(three, bundle.graph, bundle.features, labels)
    out = tmp_path / "eval"
    assert main(["eval", "--data", str(three), "--checkpoint", str(checkpoint),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"checkpoint {checkpoint} predicts 2 classes, but dataset {three} has 3" in err
    assert list(out.iterdir()) == []


def test_eval_rejects_a_config_key_the_checkpoint_contradicts(dataset_dir, tuned_checkpoint,
                                                              tmp_path, capsys):
    checkpoint, _ = tuned_checkpoint
    bad = tmp_path / "bad.yaml"
    bad.write_text("num_layers: 7\nhidden_dim: 8\nvariant: sgc\nbeta: 0.0\ngamma: 0.1\n")
    out = tmp_path / "eval"
    assert main(["eval", "--data", str(dataset_dir), "--checkpoint", str(checkpoint),
                 "--config", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config key 'beta' is 0.0, but checkpoint {checkpoint} was trained with 1.0" in err
    assert not (out / "report.csv").exists()


def test_eval_refuses_a_checkpoint_holding_a_nan(dataset_dir, tuned_checkpoint, tmp_path, capsys):
    # One NaN in al_w1 used to load, and eval then reported an accuracy and
    # exited 0.
    checkpoint, _ = tuned_checkpoint
    _, _, params = load_checkpoint(checkpoint)
    _, version, header, payload = split_artifact(checkpoint.read_bytes())
    values = np.frombuffer(payload, dtype="<f8").copy()
    names = list(params)
    values[sum(params[name].size for name in names[:names.index("al_w1")])] = np.nan
    bad = tmp_path / "bad.lspm"
    bad.write_bytes(join_artifact(b"LSPM", version, header, values.tobytes()))
    out = tmp_path / "eval"
    capsys.readouterr()
    assert main(["eval", "--data", str(dataset_dir), "--checkpoint", str(bad),
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {bad}: array 'al_w1' holds a non-finite value\n"
    assert "accuracy" not in captured.out


def test_eval_takes_the_bench_config_for_a_checkpoint_from_another_graph(dataset_dir, tmp_path,
                                                                          capsys):
    # The benchmark trains its checkpoint on a smaller graph and passes a
    # config file holding only these four keys to both commands.
    settings = tmp_path / "settings.yaml"
    settings.write_text(yaml.safe_dump({"num_layers": 2, "epochs": 5, "patience": 5, "lr": 0.01}))
    other = tmp_path / "other"
    assert main(["gen-fsbm", "--nodes", "160", "--lambdas", "0.9,0.1", "--seed", "8",
                 "--out", str(other)]) == 0
    assert main(["train", "--data", str(other), "--splits", "1", "--config", str(settings),
                 "--out", str(tmp_path / "train")]) == 0
    assert main(["eval", "--data", str(dataset_dir), "--checkpoint",
                 str(tmp_path / "train" / "model.lspm"), "--config", str(settings),
                 "--out", str(tmp_path / "eval")]) == 0
    assert "accuracy over all nodes" in capsys.readouterr().out


# sha256 prefixes of report.csv, recorded before the seed derivations became
# one rule (`harness._seeds`).  Every derived stream feeds one of them: split
# shuffles, training draws, search samples and trial seeds, theory trials and
# the toy study's datasets, splits and trainings.
_PINNED_REPORTS = {
    "train": (["train", "--splits", "2", "--seed", "4"], "20fc8dcde09f0dc9"),
    "search": (["search", "--budget", "2", "--splits", "2", "--seed", "4"], "d79daa1746ff9c51"),
    "sweep-depth": (["sweep-depth", "--k-list", "1,2", "--splits", "2", "--seed", "4"],
                    "fe36073da421be2e"),
    "toy": (["toy", "--lambdas", "0.9,0.1", "--seeds", "2", "--seed", "4"], "fa0c7adc1fb613e1"),
    "theory": (["theory", "--lambdas", "0.9,0.1", "--nodes", "200", "--trials", "2",
                "--seed", "4"], "2e4bc1bf2046cdbd"),
}


@pytest.mark.parametrize("command", sorted(_PINNED_REPORTS))
def test_seeded_reports_are_pinned(command, dataset_dir, config_file, tmp_path, capsys):
    argv, want = _PINNED_REPORTS[command]
    if command != "theory":
        argv = [*argv, "--config", str(config_file)]
    if command not in ("toy", "theory"):
        argv = [*argv, "--data", str(dataset_dir)]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256((tmp_path / "report.csv").read_bytes()).hexdigest()[:16] == want


def test_toy_smoke(config_file, tmp_path, capsys):
    out = tmp_path / "toy"
    assert main(["toy", "--lambdas", "1,1", "--seeds", "2",
                 "--config", str(config_file), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "raw=" in printed and "node_level=" in printed
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[0] == "lambda1,lambda2,seed,raw,graph_level,node_level"
    assert len(lines) == 3  # two seeds in one cell


def test_theory_smoke(tmp_path, capsys):
    out = tmp_path / "theory"
    assert main(["theory", "--lambdas", "0.8,0.2", "--nodes", "200",
                 "--trials", "5", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "l1 gap" in printed
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[0].startswith("kind,subgraph")
    assert len(lines) == 4  # two expectation rows plus the gap row
    assert lines[3].startswith("l1_gap")


def test_toy_without_seeds_exits_2(config_file, tmp_path, capsys):
    out = tmp_path / "toy"
    with pytest.raises(SystemExit) as exc:
        main(["toy", "--lambdas", "1,1", "--seeds", "0",
              "--config", str(config_file), "--out", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "argument --seeds: expected a positive integer, got '0'" in captured.err
    assert "nan" not in captured.out
    assert not out.exists()


def test_theory_compares_against_the_generated_lambda(tmp_path, capsys):
    # 10 nodes per community: d_in = round(0.5 * 9) = 4 and d_out = 5, so
    # the generated homophily is 4/9, not the nominal 0.5.  With sigma 0
    # every draw hits the closed form exactly.
    out = tmp_path / "theory"
    assert main(["theory", "--lambdas", "0.5,0.5", "--nodes", "40", "--sigma", "0",
                 "--trials", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    rows = [line.split(",") for line in (out / "report.csv").read_text().splitlines()]
    for row in rows[1:3]:
        lam, analytic, empirical = (float(v) for v in row[2:5])
        assert lam == pytest.approx(4.0 / 9.0, abs=1e-15)
        assert abs(analytic - empirical) <= 1e-12


def test_theory_draws_each_trial_once_for_both_checks(tmp_path, monkeypatch, capsys):
    calls = []
    real = synthetic.generate_fsbm

    def counting(config, seed=0):
        calls.append(seed)
        return real(config, seed)

    monkeypatch.setattr(synthetic, "generate_fsbm", counting)
    out = tmp_path / "theory"
    assert main(["theory", "--lambdas", "0.8,0.2", "--nodes", "200", "--trials", "4",
                 "--seed", "7", "--out", str(out)]) == 0
    capsys.readouterr()
    assert calls == [(7, i) for i in range(4)]

    config = synthetic.multi_subgraph_config(
        (0.8, 0.2), num_nodes=200, mode="expectation_exact"
    )
    report = synthetic.theory_check(config, 4, base_seed=7)
    rows = [line.split(",") for line in (out / "report.csv").read_text().splitlines()]
    assert rows[3][:3] == ["l1_gap", "-", "-"]
    assert [float(v) for v in rows[3][3:]] == [
        report.gap_bound, report.gap_empirical, report.gap_stderr
    ]
    for tau in range(2):
        assert [float(v) for v in rows[1 + tau][2:]] == [
            report.lambdas[tau], report.analytic[tau],
            report.empirical[tau], report.stderr[tau],
        ]


def test_stats_matches_library_report(dataset_dir, tmp_path, capsys):
    out = tmp_path / "stats"
    assert main(["stats", "--data", str(dataset_dir), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    stats = dataset_stats(load_dataset(dataset_dir))
    assert f"homophily={stats.homophily:.4f}" in printed
    row = (out / "report.csv").read_text().splitlines()[1].split(",")
    assert int(row[0]) == stats.num_nodes
    assert float(row[4]) == stats.homophily


def test_sweep_depth_smoke(dataset_dir, config_file, tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["sweep-depth", "--data", str(dataset_dir), "--k-list", "1,2",
                 "--splits", "1", "--config", str(config_file),
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "K=1:" in printed and "K=2:" in printed
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[0] == "num_layers,arm,split,test_accuracy"
    assert len(lines) == 1 + 2 * 2  # two depths, two arms, one split
    assert sorted(p.name for p in out.iterdir()) == ["manifest.txt", "report.csv"]


def test_search_smoke(dataset_dir, config_file, tmp_path, capsys):
    out = tmp_path / "search"
    assert main(["search", "--data", str(dataset_dir), "--budget", "2",
                 "--splits", "1", "--config", str(config_file),
                 "--out", str(out)]) == 0
    assert "best trial" in capsys.readouterr().out
    lines = (out / "report.csv").read_text().splitlines()
    assert len(lines) == 3
    best = yaml.safe_load((out / "best_config.yaml").read_text())
    config = ExperimentConfig(**best)
    assert config.validate() is config
    assert config.epochs == 20  # base overrides survive into the best config
    assert sorted(p.name for p in out.iterdir()) == [
        "best_config.yaml", "manifest.txt", "report.csv"]


def test_unknown_config_key_exits_2(dataset_dir, tmp_path, capsys):
    # YAML keys need not be strings; naming them must not compare types.
    cases = [("learning_rate: 0.1\n", "['learning_rate']"), ("1: 2\nfoo: 3\n", "['foo', 1]"),
             ("null:\nfoo: 3\n", "['foo', None]")]
    for i, (text, named) in enumerate(cases):
        bad = tmp_path / f"bad{i}.yaml"
        bad.write_text(text)
        code = main(["precompute", "--data", str(dataset_dir), "--config", str(bad),
                     "--out", str(tmp_path / f"out{i}")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: unknown config keys {named}; allowed keys are " in err
        assert "'lr'" in err


def test_config_values_must_match_field_types(dataset_dir, tmp_path, capsys):
    good = tmp_path / "good.yaml"
    good.write_text("num_layers: 2\nlr: 1\nnormalize: false\n"
                    "beta_choices: [0.5, 1]\nsim_choices: [cosine]\n")
    assert main(["precompute", "--data", str(dataset_dir), "--config", str(good),
                 "--out", str(tmp_path / "good")]) == 0
    capsys.readouterr()
    bad_values = {
        "num_layers": "'5'",
        "epochs": "20.0",
        "hidden_dim": "true",
        "lr": "true",
        "normalize": "1",
        "variant": "3",
        "beta_choices": "0.5",
        "sim_choices": "[cosine, 1]",
        "dropout_choices": "[0.5, false]",
    }
    for i, (key, value) in enumerate(bad_values.items()):
        bad = tmp_path / f"bad{i}.yaml"
        bad.write_text(f"{key}: {value}\n")
        assert main(["precompute", "--data", str(dataset_dir), "--config", str(bad),
                     "--out", str(tmp_path / f"bad{i}")]) == 2
        err = capsys.readouterr().err
        assert f"config key {key!r} expects" in err


def test_missing_dataset_exits_2(tmp_path, capsys):
    code = main(["stats", "--data", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("pair", ["0 120", "-1 3"])
def test_out_of_range_node_id_names_the_edges_line(pair, dataset_dir, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(dataset_dir, data)
    edges = data / "edges.txt"
    lineno = len(edges.read_text().splitlines()) + 1
    edges.write_text(edges.read_text() + pair + "\n")
    assert main(["stats", "--data", str(data), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"edges.txt:{lineno}: node id outside [0, 120) in {pair!r}" in err
    assert "np." not in err


def _usage_error(argv, capsys) -> str:
    """Run `argv`, expect argparse's exit 2, and return what it printed."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


def test_malformed_lambda_values_exit_2(tmp_path, capsys):
    err = _usage_error(["gen-fsbm", "--lambdas", "a,b", "--out", str(tmp_path / "o")], capsys)
    assert "argument --lambdas: expected comma-separated numbers, got 'a,b'" in err
    err = _usage_error(["toy", "--lambdas", "1,1,1", "--seeds", "1",
                        "--out", str(tmp_path / "o2")], capsys)
    assert "argument --lambdas: expected two comma-separated numbers, got '1,1,1'" in err
    assert not (tmp_path / "o").exists() and not (tmp_path / "o2").exists()


def test_infeasible_generator_settings_exit_2(tmp_path, capsys):
    code = main(["gen-fsbm", "--nodes", "8", "--degree", "10",
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "infeasible" in capsys.readouterr().err
    for command in ("gen-fsbm", "theory"):
        err = _usage_error([command, "--nodes", "0", "--out", str(tmp_path / command)], capsys)
        assert "argument --nodes: expected a positive integer, got '0'" in err
        assert not (tmp_path / command).exists()


@pytest.mark.parametrize("degree", ["-1", "0", "nan", "inf"])
def test_non_positive_degree_is_named(degree, tmp_path, capsys):
    assert main(["gen-fsbm", "--degree", degree, "--nodes", "40",
                 "--out", str(tmp_path / "o")]) == 2
    assert "--degree" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, value",
    [(["toy", "--lambdas", "1.5,0.1", "--seeds", "1"], "1.5"),
     (["theory", "--lambdas", "nan,0.5", "--trials", "2", "--nodes", "200"], "nan")],
)
def test_out_of_range_lambda_names_the_flag(argv, value, tmp_path, capsys):
    assert main([*argv, "--out", str(tmp_path / "o")]) == 2
    assert f"error: lambdas (--lambdas) must lie in [0, 1], got {value}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, field",
    [(["theory", "--sigma", "nan", "--trials", "3", "--nodes", "200"], "sigma"),
     (["theory", "--sigma", "inf", "--trials", "3", "--nodes", "200"], "sigma"),
     (["gen-fsbm", "--sigma", "inf"], "sigma"),
     (["gen-fsbm", "--mu", "nan,1"], "mu")],
)
def test_non_finite_generator_settings_exit_2(argv, field, tmp_path, capsys):
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == 2
    assert f"error: {field} " in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "argv, message",
    [(["gen-fsbm", "--nodes", "999", "--lambdas", "0.9,0.1"],
      "num_nodes (--nodes) must be a positive multiple of 2 communities x 2 subgraphs = 4, "
      "got 999"),
     (["theory", "--nodes", "6", "--trials", "2"],
      "num_nodes (--nodes) must be a positive multiple of 2 communities x 2 subgraphs = 4, "
      "got 6"),
     (["gen-fsbm", "--mu", "1,nan"], "mu (--mu) must be two finite numbers, got (1.0, nan)"),
     (["gen-fsbm", "--sigma", "-1"], "sigma (--sigma) must be finite and >= 0, got -1.0"),
     (["theory", "--nodes", "8", "--lambdas", "0.9,0.1", "--trials", "2"],
      "expected degree 10 is infeasible on 8 nodes (--nodes): edge rates p=4.5, q=0.5 "
      "must both be at most 1")],
    ids=["gen-fsbm-nodes", "theory-nodes", "mu", "sigma", "theory-degree"],
)
def test_generator_errors_name_the_flag(argv, message, tmp_path, capsys):
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "line",
    ["lr_range: [0.1]", "lr_range: [0.1, 0.01]", "weight_decay_range: [1.0, -1.0]",
     "dropout_choices: []"],
)
def test_malformed_search_space_exits_2_naming_the_key(line, dataset_dir, tmp_path, capsys):
    config = tmp_path / "space.yaml"
    config.write_text(line + "\n")
    out = tmp_path / "o"
    assert main(["search", "--data", str(dataset_dir), "--budget", "1", "--splits", "1",
                 "--config", str(config), "--out", str(out)]) == 2
    assert f"error: {line.split(':')[0]} must" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "field, value",
    [("epochs", "0"), ("epochs", "-3"), ("lr", "-0.5"), ("lr", "0.0"), ("lr", ".inf"),
     ("weight_decay", "-1.0"), ("weight_decay", ".inf"), ("patience", "-1")],
)
def test_training_settings_are_validated(field, value, dataset_dir, tmp_path, capsys):
    config = tmp_path / "config.yaml"
    config.write_text(f"num_layers: 1\nhidden_dim: 4\nepochs: 2\n{field}: {value}\n")
    assert main(["train", "--data", str(dataset_dir), "--splits", "1", "--config", str(config),
                 "--out", str(tmp_path / "out")]) == 2
    assert f"{field} must be" in capsys.readouterr().err
    assert not (tmp_path / "out" / "model.lspm").exists()


def scaled_dataset(where, scale):
    """The one-column `gen-fsbm --nodes 40 --degree 4 --seed 0` graph with
    feature +scale in community 0 and -scale in community 1; returns the
    first cross-community edge in CSR order, the first whose similarity is
    not 0."""
    ds = synthetic.generate_fsbm(
        synthetic.multi_subgraph_config((0.5, 0.5), num_nodes=40, expected_degree=4.0), seed=[0])
    save_dataset(where, ds.graph, np.where(ds.community == 0, scale, -scale)[:, None], ds.community)
    rows, cols = ds.graph.entry_rows(), ds.graph.col_indices
    first = np.flatnonzero(ds.community[rows] != ds.community[cols])[0]
    return int(rows[first]), int(cols[first])


def train_scaled(tmp_path, settings, scale):
    """`lsgnn train --splits 1` for 3 epochs with `settings` on `scaled_dataset`."""
    edge = scaled_dataset(tmp_path / "data", scale)
    config = tmp_path / "config.yaml"
    config.write_text(settings + "\nepochs: 3\n")
    code = main(["train", "--data", str(tmp_path / "data"), "--splits", "1",
                 "--config", str(config), "--out", str(tmp_path / "out")])
    return code, edge


@pytest.mark.parametrize("kind, settings, scale, value", [
    ("neg_sq_scalar", "localsim_mode: naive", 1e77, "-4e+154"),
    ("euclidean", "normalize: false", 1e154, "-inf"),
], ids=["neg_sq_scalar", "euclidean"])
def test_a_similarity_whose_square_overflows_is_refused(kind, settings, scale, value, tmp_path,
                                                        capsys):
    # The squared similarity is an edge feature of the local-similarity MLP.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, (i, j) = train_scaled(tmp_path, f"sim_kind: {kind}\n{settings}", scale)
    assert code == 2
    assert capsys.readouterr().err == (f"error: sim_kind={kind!r} gives edge ({i}, {j}) the "
                                       f"similarity {value}, whose square is past the float64 range\n")


def test_a_loss_non_finite_before_any_update_does_not_blame_the_learning_rate(tmp_path, capsys):
    # The squared similarities stay finite, so the inputs pass; the loss
    # overflows in the first forward pass, before Adam has stepped.
    code, _ = train_scaled(tmp_path, "sim_kind: euclidean\nlocalsim_mode: naive", 1e153)
    assert code == 2
    err = capsys.readouterr().err
    assert "loss was non-finite at epoch 0, before any update" in err
    assert "largest |x| = 1e+153" in err and "sim_kind='euclidean'" in err
    assert "smaller learning rate" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--data", "d", "--seed", "-1"],
        ["gen-fsbm", "--nodes", "20", "--seed", "-2"],
        ["theory", "--nodes", "20", "--trials", "1", "--seed", "-1"],
        ["toy", "--lambdas", "0.9,0.1", "--seeds", "1", "--seed", "x"],
    ],
)
def test_seed_must_be_a_non_negative_integer(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "argument --seed: expected a non-negative integer" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["train", "--data", "d", "--splits", "0"], "--splits"),
        (["sweep-depth", "--data", "d", "--splits", "-1"], "--splits"),
        (["search", "--data", "d", "--splits", "x"], "--splits"),
        (["search", "--data", "d", "--budget", "0"], "--budget"),
        (["theory", "--trials", "0"], "--trials"),
    ],
    ids=["train-splits", "sweep-depth-splits", "search-splits", "search-budget", "theory-trials"],
)
def test_counts_must_be_positive_integers(argv, flag, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: expected a positive integer" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("k_list", ["0", "1,-2"])
def test_depth_list_entries_must_be_positive(k_list, dataset_dir, tmp_path, capsys):
    out = tmp_path / "o"
    err = _usage_error(["sweep-depth", "--data", str(dataset_dir), "--k-list", k_list,
                        "--out", str(out)], capsys)
    assert f"argument --k-list: expected comma-separated integers >= 1, got {k_list!r}" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "line, message",
    [("beta_choices: [0.5, 2.0]", "beta_choices: beta must lie in [0, 1], got 2.0"),
     ("gamma_choices: [-1.0]", "gamma_choices: gamma must lie in [0, 1], got -1.0"),
     ("dropout_choices: [1.5]", "dropout_choices: dropout must lie in [0, 1), got 1.5"),
     ("sim_choices: [bogus]", "sim_choices: sim_kind must be one of")],
    ids=["beta", "gamma", "dropout", "sim"],
)
def test_bad_search_choices_exit_2_naming_the_key(line, message, dataset_dir, tmp_path, capsys):
    # --seed 0 draws beta 0.5 first: the check must not wait for a bad draw
    config = tmp_path / "space.yaml"
    config.write_text(line + "\n")
    out = tmp_path / "o"
    assert main(["search", "--data", str(dataset_dir), "--budget", "1", "--splits", "1",
                 "--config", str(config), "--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_malformed_values_exit_2_naming_the_value(dataset_dir, tmp_path, capsys):
    err = _usage_error(["sweep-depth", "--data", str(dataset_dir), "--k-list", "1,x",
                        "--out", str(tmp_path / "o1")], capsys)
    assert "argument --k-list: expected comma-separated integers >= 1, got '1,x'" in err
    listed = tmp_path / "list.yaml"
    listed.write_text("- lr: 0.1\n")
    assert main(["precompute", "--data", str(dataset_dir), "--config", str(listed),
                 "--out", str(tmp_path / "o2")]) == 2
    assert f"config file {listed} must contain a flat key-value mapping" in capsys.readouterr().err
    err = _usage_error(["theory", "--lambdas", "0.5", "--out", str(tmp_path / "o3")], capsys)
    assert "argument --lambdas: expected two comma-separated numbers, got '0.5'" in err
    assert not (tmp_path / "o1").exists() and not (tmp_path / "o3").exists()


@pytest.mark.parametrize(
    "command, flag, make",
    [
        ("precompute", "--config", lambda path: None),
        ("precompute", "--config", lambda path: path.write_text("lr: [1, 2\n")),
        ("eval", "--checkpoint", lambda path: None),
        ("eval", "--checkpoint", lambda path: path.mkdir()),
        ("stats", "--out", lambda path: path.write_text("")),
    ],
    ids=["missing-config", "malformed-config", "missing-checkpoint", "directory-checkpoint",
         "out-is-a-file"],
)
def test_bad_paths_exit_2_naming_the_path(command, flag, make, dataset_dir, tmp_path, capsys):
    bad = tmp_path / "bad"
    make(bad)
    argv = [command, "--data", str(dataset_dir), flag, str(bad)]
    if flag != "--out":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert str(bad) in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["theory", "--nodes", "20", "--trials", "1", "--config", "c.yaml"],
        ["gen-fsbm", "--nodes", "20", "--config", "c.yaml"],
        ["stats", "--data", "d", "--config", "c.yaml"],
        ["theory", "--nodes", "20", "--trials", "1", "--threads", "2"],
        ["train", "--data", "d", "--threads", "2"],
    ],
)
def test_unread_options_are_usage_errors(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["features.csv", "labels.txt", "edges.txt", "config.yaml"])
def test_non_utf8_input_exits_2_naming_the_file(name, dataset_dir, config_file, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(dataset_dir, data)
    config = tmp_path / "config.yaml"
    shutil.copy(config_file, config)
    path = config if name == "config.yaml" else data / name
    path.write_bytes(b"\xff" + path.read_bytes())
    assert main(["precompute", "--data", str(data), "--config", str(config),
                 "--out", str(tmp_path / "out")]) == 2
    assert name in capsys.readouterr().err


def test_cli_module_imports_first_in_a_fresh_interpreter():
    # Every other test imports lsgnn modules before lsgnn.cli, which would
    # hide an import cycle that only shows when the CLI loads first.
    src = os.path.dirname(os.path.dirname(os.path.abspath(lsgnn.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for args in (["--help"], ["train", "--help"]):
        done = subprocess.run([sys.executable, "-m", "lsgnn.cli", *args], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr


_NUMBERS = "comma-separated numbers"
_PAIR = "two comma-separated numbers"
_DEPTHS = "comma-separated integers >= 1"
_POSITIVE = "a positive integer"


@pytest.mark.parametrize(
    "command, flag, raw, expected",
    [
        ("gen-fsbm", "--lambdas", "0.9,x", _NUMBERS),
        ("gen-fsbm", "--lambdas", "", _NUMBERS),
        ("gen-fsbm", "--lambdas", "0.9,,0.1", _NUMBERS),
        ("gen-fsbm", "--mu", "1,x", _PAIR),
        ("gen-fsbm", "--mu", "", _PAIR),
        ("gen-fsbm", "--mu", "1", _PAIR),
        ("gen-fsbm", "--mu", "1,-1,0", _PAIR),
        ("gen-fsbm", "--nodes", "x", _POSITIVE),
        ("gen-fsbm", "--nodes", "", _POSITIVE),
        ("gen-fsbm", "--nodes", "0", _POSITIVE),
        ("gen-fsbm", "--nodes", "10,20", _POSITIVE),
        ("gen-fsbm", "--degree", "x", "a number"),
        ("gen-fsbm", "--sigma", "", "a number"),
        ("gen-fsbm", "--seed", "", "a non-negative integer"),
        ("toy", "--lambdas", "0.9,x", _PAIR),
        ("toy", "--lambdas", "", _PAIR),
        ("toy", "--lambdas", "0.9", _PAIR),
        ("toy", "--lambdas", "0.9,0.1,0.5", _PAIR),
        ("toy", "--seeds", "0", _POSITIVE),
        ("toy", "--seeds", "", _POSITIVE),
        ("theory", "--lambdas", "0.5,x", _PAIR),
        ("theory", "--lambdas", "", _PAIR),
        ("theory", "--lambdas", "0.5", _PAIR),
        ("theory", "--nodes", "1.5", _POSITIVE),
        ("theory", "--nodes", "-4", _POSITIVE),
        ("theory", "--trials", "", _POSITIVE),
        ("theory", "--sigma", "x", "a number"),
        ("sweep-depth", "--k-list", "1,x", _DEPTHS),
        ("sweep-depth", "--k-list", "", _DEPTHS),
        ("sweep-depth", "--k-list", "0", _DEPTHS),
        ("sweep-depth", "--k-list", "2,-1", _DEPTHS),
        ("sweep-depth", "--k-list", "1.5", _DEPTHS),
        ("sweep-depth", "--splits", "0", _POSITIVE),
    ],
)
def test_malformed_flag_values_are_usage_errors(command, flag, raw, expected, tmp_path,
                                                 monkeypatch, capsys):
    # Every other flag is valid, so only `flag` can be at fault.
    base = {"toy": ["--lambdas", "0.9,0.1"], "sweep-depth": ["--data", "d"]}.get(command, [])
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "o"
    for tail in ([], ["--out", str(out)]):
        err = _usage_error([command, *base, f"{flag}={raw}", *tail], capsys)
        assert f"argument {flag}: expected {expected}, got {raw!r}" in err
    assert not (tmp_path / "runs").exists()
    assert not out.exists()


_floats = st.floats(allow_nan=False)
_float_text = st.lists(_floats, min_size=1, max_size=6).map(lambda xs: ",".join(map(repr, xs)))
_pair_text = st.lists(_floats, min_size=2, max_size=2).map(lambda xs: ",".join(map(str, xs)))
_depth_text = st.lists(st.integers(1, 10**6), min_size=1, max_size=6).map(
    lambda ks: ",".join(map(str, ks)))


@settings(max_examples=100, deadline=None)
@given(_float_text, _pair_text, _depth_text)
def test_typed_flags_parse_exactly_as_the_handlers_did(floats, pair, depths):
    # Handlers used to run tuple(float(v) for v in text.split(",")) (or int)
    # on the raw text; the typed flags must hand them exactly those values.
    parser = build_parser()
    args = parser.parse_args(["gen-fsbm", f"--lambdas={floats}", f"--mu={pair}"])
    assert args.lambdas == tuple(float(v) for v in floats.split(","))
    assert args.mu == tuple(float(v) for v in pair.split(","))
    args = parser.parse_args(["toy", f"--lambdas={pair}", f"--lambdas={pair}"])
    assert args.lambdas == [tuple(float(v) for v in pair.split(","))] * 2
    args = parser.parse_args(["theory", f"--lambdas={pair}"])
    assert args.lambdas == tuple(float(v) for v in pair.split(","))
    args = parser.parse_args(["sweep-depth", "--data", "d", f"--k-list={depths}"])
    assert args.k_list == tuple(int(v) for v in depths.split(","))


def _subparsers():
    parser = build_parser()
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_typed_flag_defaults_are_already_parsed():
    # Each default is declared as the value its flag's type gives for the
    # same text, so a handler never sees a string it would have to parse.
    commands = _subparsers()
    assert sorted(commands) == ["eval", "gen-fsbm", "precompute", "search", "stats",
                                "sweep-depth", "theory", "toy", "train"]
    typed = 0
    for name, sub in commands.items():
        for action in sub._actions:
            if isinstance(action.default, str) and action.default != argparse.SUPPRESS:
                assert action.choices, (name, action.dest)  # a word, not a value to parse
            if action.type is None or action.default is None:
                continue
            typed += 1
            default = action.default
            assert not isinstance(default, str), (name, action.dest)
            text = ",".join(map(str, default)) if isinstance(default, tuple) else str(default)
            assert action.type(text) == default, (name, action.dest)
    assert typed >= 20


@pytest.mark.parametrize("command", sorted(_subparsers()))
def test_every_command_prints_help(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert f"usage: lsgnn {command}" in capsys.readouterr().out
