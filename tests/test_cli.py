import numpy as np
import pytest
import yaml

from lsgnn import synthetic
from lsgnn.cli import main
from lsgnn.harness import ExperimentConfig, dataset_stats, load_dataset, save_dataset
from lsgnn.propagation import load_bundle


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
    assert calls == [[7, i] for i in range(4)]

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
    bad = tmp_path / "bad.yaml"
    bad.write_text("learning_rate: 0.1\n")
    code = main(["stats", "--data", str(dataset_dir), "--config", str(bad),
                 "--out", str(tmp_path / "out")])
    # stats ignores --config, so use a command that resolves it
    assert code == 0
    code = main(["precompute", "--data", str(dataset_dir), "--config", str(bad),
                 "--out", str(tmp_path / "out2")])
    assert code == 2
    err = capsys.readouterr().err
    assert "learning_rate" in err
    assert "allowed keys" in err
    assert "lr" in err


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


def test_malformed_lambda_values_exit_2(tmp_path, capsys):
    assert main(["gen-fsbm", "--lambdas", "a,b", "--out", str(tmp_path / "o")]) == 2
    assert "comma-separated numbers" in capsys.readouterr().err
    assert main(["toy", "--lambdas", "1,1,1", "--seeds", "1",
                 "--out", str(tmp_path / "o2")]) == 2
    assert "two values" in capsys.readouterr().err


def test_infeasible_generator_settings_exit_2(tmp_path, capsys):
    code = main(["gen-fsbm", "--nodes", "8", "--degree", "10",
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "infeasible" in capsys.readouterr().err
    for command in ("gen-fsbm", "theory"):
        assert main([command, "--nodes", "0", "--out", str(tmp_path / "o")]) == 2
        assert "num_nodes must be positive, got 0" in capsys.readouterr().err
