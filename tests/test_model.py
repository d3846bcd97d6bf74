import hashlib
import re
import struct
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from lsgnn.errors import (
    DigestMismatchError,
    FormatError,
    InputError,
    TrainingDivergedError,
)
import lsgnn.model as model_module
from lsgnn.graph import build_graph, enhanced_filters
from lsgnn.model import (
    Adam,
    ModelConfig,
    ModelInputs,
    TrainConfig,
    evaluate,
    init_parameters,
    linear_accuracy,
    linear_predict,
    load_checkpoint,
    loss_and_gradients,
    predict,
    predict_proba,
    save_checkpoint,
    select_rows,
    train,
    train_linear,
)
from lsgnn.propagation import PropagationConfig, _views, build_stack, precompute_bundle
from lsgnn.synthetic import generate_fsbm, multi_subgraph_config

from conftest import (
    edit_header,
    fail_artifact_write,
    join_artifact,
    random_edges,
    split_artifact,
    traced_peak,
)
from reference import central_fd, dense_adjacency, loop_forward, max_rel_error


def make_instance(n=16, d=3, k=2, z=4, seed=0, sim_kind="cosine",
                  localsim_mode="naive", weight_mode="node_level", dropout=0.0,
                  num_classes=3, scalar=False, isolated=()):
    """A random graph instance; the nodes `isolated` keep no edge."""
    edges = random_edges(n, 0.3, seed)
    edges = edges[~np.isin(edges, isolated).any(axis=1)]
    g = build_graph(edges, n)
    rng = np.random.default_rng(seed + 100)
    x = rng.normal(size=(n, 1 if scalar else d))
    pair = enhanced_filters(g, 0.5)
    stack = build_stack(pair, x, PropagationConfig(num_layers=k))
    config = ModelConfig(
        num_layers=k,
        in_dim=x.shape[1],
        hidden_dim=z,
        num_classes=num_classes,
        sim_kind=sim_kind,
        localsim_mode=localsim_mode,
        weight_mode=weight_mode,
        ls_hidden=5,
        alpha_hidden=6,
        dropout=dropout,
    )
    inputs = ModelInputs.build(g, x, stack, sim_kind)
    labels = rng.integers(0, num_classes, size=n)
    return g, x, config, inputs, labels


def masks(n, rng_seed=0, train_frac=0.5, val_frac=0.25):
    rng = np.random.default_rng(rng_seed)
    order = rng.permutation(n)
    tr = np.zeros(n, dtype=bool)
    va = np.zeros(n, dtype=bool)
    te = np.zeros(n, dtype=bool)
    a = int(n * train_frac)
    b = a + int(n * val_frac)
    tr[order[:a]] = True
    va[order[a:b]] = True
    te[order[b:]] = True
    return tr, va, te


def test_config_validation():
    with pytest.raises(InputError):
        ModelConfig(num_layers=0, in_dim=3, hidden_dim=4, num_classes=2)
    with pytest.raises(InputError):
        ModelConfig(num_layers=1, in_dim=3, hidden_dim=4, num_classes=2, sim_kind="dot")
    with pytest.raises(InputError):
        ModelConfig(num_layers=1, in_dim=3, hidden_dim=4, num_classes=2,
                    localsim_mode="fancy")
    with pytest.raises(InputError):
        ModelConfig(num_layers=1, in_dim=3, hidden_dim=4, num_classes=2,
                    weight_mode="edge_level")
    with pytest.raises(InputError):
        ModelConfig(num_layers=1, in_dim=3, hidden_dim=4, num_classes=2, dropout=1.0)


def test_init_deterministic_and_bounded():
    _, _, config, _, _ = make_instance()
    p1 = init_parameters(config, np.random.default_rng(7))
    p2 = init_parameters(config, np.random.default_rng(7))
    names = []
    for (n1, a1), (n2, a2) in zip(p1.items(), p2.items()):
        assert n1 == n2
        assert np.array_equal(a1, a2)
        names.append(n1)
    assert names[0] == "w_in"
    assert names[-1] == "w_out"
    bound = 1.0 / np.sqrt(config.in_dim)
    assert np.all(np.abs(p1["w_in"]) <= bound)


def test_zero_parameters_give_uniform_probs_and_log_c_loss():
    _, _, config, inputs, labels = make_instance(num_classes=3)
    params = {name: np.zeros_like(a)
              for name, a in init_parameters(config, np.random.default_rng(0)).items()}
    probs = predict_proba(params, config, inputs)
    assert np.allclose(probs, 1.0 / 3.0, atol=1e-15)
    tr, _, _ = masks(16)
    rows = select_rows(inputs, tr)
    loss, grads = loss_and_gradients(params, config, rows, labels)
    assert loss == pytest.approx(np.log(3.0))
    # decay of zero params contributes nothing
    loss_wd, _ = loss_and_gradients(params, config, rows, labels, weight_decay=0.1)
    assert loss_wd == pytest.approx(np.log(3.0))


def test_probability_rows_sum_to_one():
    _, _, config, inputs, _ = make_instance(seed=3)
    params = init_parameters(config, np.random.default_rng(3))
    probs = predict_proba(params, config, inputs)
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-9
    assert np.all(probs >= 0.0)


def test_predict_tie_breaks_to_lowest_class():
    _, _, config, inputs, _ = make_instance()
    params = {name: np.zeros_like(a)
              for name, a in init_parameters(config, np.random.default_rng(0)).items()}
    assert np.all(predict(params, config, inputs) == 0)


def test_probs_invariant_under_shared_output_column_shift():
    _, _, config, inputs, _ = make_instance(seed=5)
    params = init_parameters(config, np.random.default_rng(5))
    base = predict_proba(params, config, inputs)
    shifted = {name: a.copy() for name, a in params.items()}
    u = np.random.default_rng(6).normal(size=(shifted["w_out"].shape[0], 1))
    shifted["w_out"] = shifted["w_out"] + u  # same shift in every class column
    assert np.allclose(predict_proba(shifted, config, inputs), base, atol=1e-12)


_FD_CASES = [
    ("cosine", "naive", "graph_level", 1e-5, 1e-4, 0.0),
    ("cosine", "naive", "node_level", 1e-5, 1e-4, 0.0),
    ("cosine", "refined", "node_level", 1e-5, 1e-4, 0.0),
    # euclidean has higher curvature; h^2 truncation needs a smaller step
    ("euclidean", "refined", "node_level", 1e-6, 5e-4, 0.0),
    ("neg_sq_scalar", "refined", "node_level", 1e-5, 1e-4, 0.0),
    ("cosine", "refined", "node_level", 1e-5, 1e-4, 0.5),
    ("cosine", "naive", "graph_level", 1e-5, 1e-4, 0.5),
]


@pytest.mark.parametrize(
    "sim_kind,localsim_mode,weight_mode,h,tol,dropout",
    _FD_CASES,
    ids=["-".join(map(str, case[:5])) + (f"-dropout{case[5]}" if case[5] else "")
         for case in _FD_CASES],
)
def test_gradients_match_finite_differences(sim_kind, localsim_mode, weight_mode, h, tol,
                                            dropout):
    scalar = sim_kind == "neg_sq_scalar"
    _, _, config, inputs, labels = make_instance(
        n=14, d=3, k=2, z=3, seed=9, sim_kind=sim_kind,
        localsim_mode=localsim_mode, weight_mode=weight_mode, scalar=scalar, dropout=dropout)
    params = init_parameters(config, np.random.default_rng(9))
    tr, _, _ = masks(14, rng_seed=9)
    rows = select_rows(inputs, tr)
    wd = 5e-4

    def loss_and_grads():
        # A fresh generator per evaluation draws the same dropout masks.
        rng = np.random.default_rng(4) if dropout else None
        return loss_and_gradients(params, config, rows, labels, weight_decay=wd, dropout_rng=rng)

    _, grads = loss_and_grads()
    numeric = central_fd(lambda: loss_and_grads()[0], params, h)
    assert max_rel_error(grads, numeric) <= tol


def test_empty_mask_decay_only_loss_and_zero_data_gradient():
    _, _, config, inputs, labels = make_instance(seed=11)
    params = init_parameters(config, np.random.default_rng(11))
    empty = np.zeros(16, dtype=bool)
    wd = 0.01
    loss, grads = loss_and_gradients(params, config, select_rows(inputs, empty), labels,
                                     weight_decay=wd)
    assert loss == pytest.approx(0.5 * wd * sum((a * a).sum() for a in params.values()))
    for name, g in grads.items():
        want = wd * params[name]
        assert np.allclose(g, want, atol=1e-15)


def test_evaluate_rejects_empty_mask():
    _, _, config, inputs, labels = make_instance(seed=12)
    params = init_parameters(config, np.random.default_rng(12))
    with pytest.raises(InputError):
        evaluate(params, config, inputs, labels, np.zeros(16, dtype=bool))


def test_masks_must_have_one_entry_per_node():
    _, _, config, inputs, labels = make_instance(seed=12)
    params = init_parameters(config, np.random.default_rng(12))
    short = np.ones(15, dtype=bool)
    with pytest.raises(InputError, match=r"mask has shape \(15,\), expected \(16,\)"):
        evaluate(params, config, inputs, labels, short)
    with pytest.raises(InputError, match=r"mask has shape \(15,\), expected \(16,\)"):
        select_rows(inputs, short)
    head = {"w": np.zeros((inputs.x.shape[1], 3)), "b": np.zeros(3)}
    with pytest.raises(InputError, match=r"mask has shape \(15,\), expected \(16,\)"):
        linear_accuracy(head, inputs.x, labels, short)
    with pytest.raises(InputError, match=r"mask has shape \(15,\), expected \(16,\)"):
        train_linear(inputs.x, labels, 3, TrainConfig(epochs=2), short, np.ones(16, dtype=bool))


def test_int_masks_select_what_bool_masks_do():
    _, _, config, inputs, labels = make_instance(n=30, seed=29)
    train_mask = np.arange(30) % 3 != 0
    val_mask = ~train_mask
    tcfg = TrainConfig(lr=0.05, epochs=20, patience=20, seed=2)
    want = train_linear(inputs.x, labels, 3, tcfg, train_mask, val_mask)
    got = train_linear(inputs.x, labels, 3, tcfg, train_mask.astype(int), val_mask.astype(int))
    for name in want:
        assert np.array_equal(got[name], want[name])
    params = init_parameters(config, np.random.default_rng(29))
    for mask in (train_mask, val_mask):
        assert linear_accuracy(want, inputs.x, labels, mask.astype(int)) == linear_accuracy(
            want, inputs.x, labels, mask)
        assert evaluate(params, config, inputs, labels, mask.astype(int)) == evaluate(
            params, config, inputs, labels, mask)


def test_graph_and_node_modes_agree_on_constant_localsim():
    # identical feature rows make every cosine similarity 1, so the per-node
    # weights collapse to one shared vector that graph mode can replicate
    n, k = 10, 2
    edges = random_edges(n, 0.5, 31)
    g = build_graph(edges, n)
    assert np.all(g.degrees > 0)
    x = np.tile([[0.7, -0.3, 1.1]], (n, 1))
    pair = enhanced_filters(g, 0.5)
    stack = build_stack(pair, x, PropagationConfig(num_layers=k))
    node_cfg = ModelConfig(num_layers=k, in_dim=3, hidden_dim=4, num_classes=2,
                           sim_kind="cosine", localsim_mode="naive",
                           weight_mode="node_level", alpha_hidden=6)
    inputs = ModelInputs.build(g, x, stack, "cosine")
    node_params = init_parameters(node_cfg, np.random.default_rng(31))

    psi = np.array([1.0, 1.0])
    hidden = np.maximum(psi @ node_params["al_w1"] + node_params["al_b1"], 0.0)
    alpha = hidden @ node_params["al_w2"] + node_params["al_b2"]

    graph_cfg = ModelConfig(num_layers=k, in_dim=3, hidden_dim=4, num_classes=2,
                            sim_kind="cosine", localsim_mode="naive",
                            weight_mode="graph_level")
    graph_params = init_parameters(graph_cfg, np.random.default_rng(31))
    graph_params["w_in"] = node_params["w_in"].copy()
    graph_params["w_out"] = node_params["w_out"].copy()
    for i in range(1, k + 1):
        graph_params[f"w_low_{i}"] = node_params[f"w_low_{i}"].copy()
        graph_params[f"w_high_{i}"] = node_params[f"w_high_{i}"].copy()
    graph_params["graph_alpha"] = alpha.copy()

    p_node = predict_proba(node_params, node_cfg, inputs)
    p_graph = predict_proba(graph_params, graph_cfg, inputs)
    assert np.allclose(p_node, p_graph, atol=1e-12)


def test_dropout_zero_matches_disabled_and_eval_is_deterministic():
    _, _, config, inputs, labels = make_instance(seed=13)
    params = init_parameters(config, np.random.default_rng(13))
    tr, _, _ = masks(16, rng_seed=13)
    rows = select_rows(inputs, tr)
    base, _ = loss_and_gradients(params, config, rows, labels)
    with_rng, _ = loss_and_gradients(params, config, rows, labels,
                                     dropout_rng=np.random.default_rng(0))
    assert with_rng == base  # dropout=0.0 ignores the rng

    _, _, dcfg, dinputs, dlabels = make_instance(seed=13, dropout=0.5)
    dparams = init_parameters(dcfg, np.random.default_rng(13))
    drows = select_rows(dinputs, tr)
    l1, g1 = loss_and_gradients(dparams, dcfg, drows, dlabels,
                                dropout_rng=np.random.default_rng(42))
    l2, g2 = loss_and_gradients(dparams, dcfg, drows, dlabels,
                                dropout_rng=np.random.default_rng(42))
    assert l1 == l2  # same stream, same masks
    for (_, a), (_, b) in zip(g1.items(), g2.items()):
        assert np.array_equal(a, b)
    l3, _ = loss_and_gradients(dparams, dcfg, drows, dlabels,
                               dropout_rng=np.random.default_rng(43))
    assert l3 != l1  # different masks move the loss
    # inference path never applies dropout
    assert np.array_equal(predict_proba(dparams, dcfg, dinputs),
                          predict_proba(dparams, dcfg, dinputs))


def test_inputs_reject_shape_and_digest_mismatch():
    g, x, config, _, _ = make_instance(seed=14)
    pair = enhanced_filters(g, 0.5)
    stack = build_stack(pair, x, PropagationConfig(num_layers=2))
    with pytest.raises(InputError):
        ModelInputs.build(g, x[:-1], stack, "cosine")
    other = build_stack(pair, x + 1.0, PropagationConfig(num_layers=2))
    with pytest.raises(DigestMismatchError):
        ModelInputs.build(g, x, other, "cosine")


def test_train_improves_and_is_deterministic():
    # separable labels: sign of the first feature
    n = 40
    edges = random_edges(n, 0.2, 15)
    g = build_graph(edges, n)
    x = np.random.default_rng(15).normal(size=(n, 3))
    labels = (x[:, 0] > 0).astype(np.int64)
    pair = enhanced_filters(g, 0.5)
    stack = build_stack(pair, x, PropagationConfig(num_layers=2))
    config = ModelConfig(num_layers=2, in_dim=3, hidden_dim=8, num_classes=2)
    inputs = ModelInputs.build(g, x, stack, config.sim_kind)
    tr, va, te = masks(n, rng_seed=15)
    tcfg = TrainConfig(lr=0.05, weight_decay=5e-4, epochs=120, patience=30, seed=4)
    res = train(config, tcfg, inputs, labels, tr, va)
    assert evaluate(res.params, config, inputs, labels, te) >= 0.8
    assert res.best_val_acc >= 0.8
    res2 = train(config, tcfg, inputs, labels, tr, va)
    for (_, a), (_, b) in zip(res.params.items(), res2.params.items()):
        assert np.array_equal(a, b)


def test_train_patience_bounds_epochs():
    _, _, config, inputs, labels = make_instance(seed=16)
    tr, va, _ = masks(16, rng_seed=16)
    tcfg = TrainConfig(lr=1e-12, weight_decay=0.0, epochs=500, patience=10, seed=0)
    res = train(config, tcfg, inputs, labels, tr, va)
    # val accuracy freezes immediately at this lr, so patience cuts the run
    assert len(res.history) <= 12
    assert res.best_epoch == 0


def test_train_returns_best_epoch_parameters_under_dropout():
    _, _, config, inputs, labels = make_instance(n=30, seed=21, dropout=0.5)
    tr, va, _ = masks(30, rng_seed=21)
    tcfg = TrainConfig(lr=0.05, weight_decay=5e-4, epochs=80, patience=20, seed=3)
    res = train(config, tcfg, inputs, labels, tr, va)
    assert len(res.history) > res.best_epoch + 1  # Adam kept moving after the best
    assert evaluate(res.params, config, inputs, labels, va) == res.best_val_acc
    # the dropout stream is consumed identically up to the best epoch, so a
    # run that stops there must end on the same arrays
    short = train(config, replace(tcfg, epochs=res.best_epoch + 1), inputs, labels, tr, va)
    assert short.best_epoch == res.best_epoch
    assert list(short.params) == list(res.params)
    for name, a in res.params.items():
        assert np.array_equal(a, short.params[name]), name


def test_train_divergence_reports_learning_rate():
    _, _, config, inputs, labels = make_instance(seed=17)
    tr, va, _ = masks(16, rng_seed=17)
    # Adam caps each step at +-lr, so lr must be big enough that products of
    # updated weights overflow to inf and mixed signs turn the loss into nan
    tcfg = TrainConfig(lr=1e300, weight_decay=0.0, epochs=50, patience=50, seed=0)
    with pytest.raises(TrainingDivergedError, match="1e\\+300"):
        train(config, tcfg, inputs, labels, tr, va)


def test_an_update_that_overflows_the_model_is_refused_at_its_epoch():
    # One epoch: no later loss is computed, so the validation pass must
    # refuse the overflowed model itself, naming the learning rate.
    _, _, config, inputs, labels = make_instance(seed=17)
    tr, va, _ = masks(16, rng_seed=17)
    tcfg = TrainConfig(lr=1e300, weight_decay=0.0, epochs=1, patience=1, seed=0)
    with pytest.raises(TrainingDivergedError, match=r"update at epoch 0 \(lr=1e\+300\)"):
        train(config, tcfg, inputs, labels, tr, va)


def test_an_adam_step_past_the_float64_range_is_refused_at_its_epoch():
    # lr times a gradient of about 1e10 overflows inside Adam's update; the
    # validation pass then refuses the model, naming the learning rate.
    rng = np.random.default_rng(49)
    x = rng.normal(size=(20, 3)) * 1e10
    y = np.repeat([0, 1], 10)
    tr = np.arange(20) % 2 == 0
    tcfg = TrainConfig(lr=1e300, epochs=1, patience=1, seed=0)
    with pytest.raises(TrainingDivergedError, match=r"update at epoch 0 \(lr=1e\+300\)"):
        train_linear(x, y, 2, tcfg, tr, ~tr)


@pytest.fixture(scope="module")
def depth_four_inputs():
    """Inputs of the 200-node FSBM graph at seed 0, propagated at depth 4."""
    ds = generate_fsbm(multi_subgraph_config((0.9, 0.1), num_nodes=200), seed=0)
    stack = precompute_bundle(ds.graph, ds.x, PropagationConfig(4))
    return ModelInputs.build(ds.graph, ds.x, stack, "cosine"), ds.community


@pytest.mark.parametrize("field, value, found, wanted", [
    ("num_layers", 2, "9 channels", "5 channels (num_layers=2)"),
    ("in_dim", 3, "features of width 1", "in_dim=3"),
])
@pytest.mark.parametrize("run", ["evaluate", "predict_proba", "loss_and_gradients"])
def test_inputs_of_another_depth_or_width_are_refused(depth_four_inputs, field, value, found,
                                                      wanted, run):
    inputs, labels = depth_four_inputs
    config = ModelConfig(**{"num_layers": 4, "in_dim": 1, "hidden_dim": 8, "num_classes": 2,
                            field: value})
    params = init_parameters(config, np.random.default_rng(0))
    calls = {
        "evaluate": lambda: evaluate(params, config, inputs, labels, None),
        "predict_proba": lambda: predict_proba(params, config, inputs),
        "loss_and_gradients": lambda: loss_and_gradients(
            params, config, select_rows(inputs, labels >= 0), labels),
    }
    with pytest.raises(InputError, match=rf"carry .*{found}.*, but config wants .*{re.escape(wanted)}"):
        calls[run]()


def saved_checkpoint(tmp_path, seed=19, **kwargs):
    _, _, config, _, _ = make_instance(seed=seed, **kwargs)
    params = init_parameters(config, np.random.default_rng(seed))
    path = tmp_path / "model.lspm"
    save_checkpoint(path, config, PropagationConfig(num_layers=config.num_layers), params)
    return config, params, path


def test_checkpoint_round_trip_bitwise(tmp_path):
    _, _, config, inputs, _ = make_instance(seed=18, localsim_mode="refined")
    params = init_parameters(config, np.random.default_rng(18))
    propagation = PropagationConfig(num_layers=2, gamma=0.9, beta=1.0, normalize=False)
    path = tmp_path / "model.lspm"
    save_checkpoint(path, config, propagation, params)
    config2, propagation2, params2 = load_checkpoint(path)
    assert config2 == config
    assert propagation2 == propagation
    for (n1, a1), (n2, a2) in zip(params.items(), params2.items()):
        assert n1 == n2
        assert np.array_equal(a1, a2)
    probs1 = predict_proba(params, config, inputs)
    probs2 = predict_proba(params2, config2, inputs)
    assert np.array_equal(probs1, probs2)


def test_checkpoint_rejects_corruption(tmp_path):
    _, _, path = saved_checkpoint(tmp_path)
    raw = path.read_bytes()
    _, _, _, payload = split_artifact(raw)
    need = len(payload)
    bad = tmp_path / "bad.lspm"
    bad.write_bytes(raw[:-4])
    with pytest.raises(FormatError, match=rf"bad\.lspm: the arrays need {need} bytes, but {need - 4}"):
        load_checkpoint(bad)
    bad.write_bytes(raw[:10])
    with pytest.raises(FormatError, match=r"bad\.lspm: file ends inside the version"):
        load_checkpoint(bad)
    bad.write_bytes(b"????" + raw[4:])
    with pytest.raises(FormatError, match=r"bad\.lspm: bad magic"):
        load_checkpoint(bad)
    bad.write_bytes(raw + b"\x00")
    with pytest.raises(FormatError, match=rf"bad\.lspm: the arrays need {need} bytes, but {need + 1}"):
        load_checkpoint(bad)
    bad.write_bytes(edit_header(raw, lambda h: h["propagation"].update(num_layers=3)))
    with pytest.raises(FormatError, match=r"model\.num_layers=2 differs from propagation\.num_layers=3"):
        load_checkpoint(bad)


def _set(section, **values):
    return lambda header: header[section].update(values)


@pytest.mark.parametrize(
    "edit, message",
    [
        (None, "unsupported version 9, expected 2"),
        (_set("model", sim_kind="bogus"), r"model\.sim_kind must be one of .*, got 'bogus'"),
        (_set("model", localsim_mode="bogus"), r"model\.localsim_mode must be one of"),
        (_set("model", weight_mode="bogus"), r"model\.weight_mode must be one of"),
        (_set("model", sim_kind=7), r"model\.sim_kind expects str, got 7"),
        (lambda h: h["model"].pop("sim_kind"), r"model\.sim_kind is missing"),
        (_set("model", hidden_dim=4.0), r"model\.hidden_dim expects int, got 4\.0"),
        (_set("model", hidden_dim=True), r"model\.hidden_dim expects int, got True"),
        (_set("propagation", normalize=1), r"propagation\.normalize expects bool, got 1"),
        (_set("propagation", beta=1.5), r"propagation\.beta must lie in \[0, 1\]"),
        (lambda h: h.pop("propagation"), r"header holds \['arrays', 'model'\]"),
        (_set("model", w_extra=1), r"model\.w_extra is unknown"),
    ],
    ids=["version", "sim_kind", "localsim_mode", "weight_mode", "sim_kind-type",
         "sim_kind-missing", "hidden_dim-float", "hidden_dim-bool", "normalize-int",
         "beta-range", "propagation-missing", "unknown-key"],
)
def test_checkpoint_names_a_bad_header_field(edit, message, tmp_path):
    _, _, path = saved_checkpoint(tmp_path)
    magic, _, header, payload = split_artifact(path.read_bytes())
    bad = tmp_path / "bad.lspm"
    if edit is None:
        bad.write_bytes(join_artifact(magic, 9, header, payload))
    else:
        bad.write_bytes(edit_header(path.read_bytes(), edit))
    with pytest.raises(FormatError, match=rf"bad\.lspm: {message}"):
        load_checkpoint(bad)


def test_checkpoint_rejects_a_version_1_file(tmp_path):
    # The first version packed the config as "<IIIIIIIBBBd" after the magic.
    v1 = tmp_path / "old.lspm"
    v1.write_bytes(b"LSPM" + struct.pack("<IIIIIIIBBBd", 1, 2, 3, 4, 3, 5, 6, 0, 0, 0, 0.0))
    with pytest.raises(FormatError, match=r"old\.lspm: unsupported version 1, expected 2"):
        load_checkpoint(v1)


def test_checkpoint_save_failure_keeps_previous_file(tmp_path, monkeypatch):
    config, params, path = saved_checkpoint(tmp_path)
    before = path.read_bytes()
    # writes: the preamble, the header, w_in, then w_low_1 fails
    fail_artifact_write(monkeypatch, 4)
    newer = {name: a + 1.0 for name, a in params.items()}
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, config, PropagationConfig(num_layers=config.num_layers), newer)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.lspm"]


def test_checkpoint_rejects_oversized_array_dims(tmp_path):
    # Dims of (2^31, 2^20) must fail on the file's size, not by trying to
    # allocate the 2^54 bytes they imply.
    _, _, path = saved_checkpoint(tmp_path)
    raw = path.read_bytes()

    def grow_w_in(header):
        assert header["arrays"][0][0] == "w_in"
        header["arrays"][0][1] = [2**31, 2**20]

    big = tmp_path / "big.lspm"
    big.write_bytes(edit_header(raw, grow_w_in))
    with pytest.raises(FormatError, match=r"big\.lspm: the arrays need \d{17} bytes, but \d+ follow"):
        load_checkpoint(big)


@pytest.mark.parametrize("field, bit", [("hidden_dim", 22), ("num_layers", 17)])
def test_checkpoint_corrupt_header_fails_before_allocating(tmp_path, field, bit):
    # One flipped bit in a header value must fail on the file's own arrays,
    # not by building parameters the size the corrupt config implies.
    config = ModelConfig(num_layers=1, in_dim=2, hidden_dim=4, num_classes=2)
    params = init_parameters(config, np.random.default_rng(0))
    path = tmp_path / "model.lspm"
    save_checkpoint(path, config, PropagationConfig(num_layers=1), params)

    def flip(header):
        for section in ("model", "propagation"):
            if field in header[section]:
                header[section][field] ^= 1 << bit

    bad = tmp_path / "flipped.lspm"
    bad.write_bytes(edit_header(path.read_bytes(), flip))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError) as info:
            load_checkpoint(bad)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    message = str(info.value)
    assert message.startswith(f"{bad}: ")
    assert len(message) < 1000
    assert peak < 1_000_000


ROW_MODES = [
    ("refined", "node_level"),
    ("naive", "node_level"),
    ("naive", "graph_level"),
]


def sparse_mask(g, n):
    """Every third node: selected nodes keep unselected neighbors."""
    mask = np.zeros(n, dtype=bool)
    mask[::3] = True
    rows = g.entry_rows()
    assert np.any(mask[rows] & ~mask[g.col_indices])
    return mask


@pytest.mark.parametrize("localsim_mode,weight_mode", ROW_MODES)
def test_masked_loss_matches_full_graph_probabilities(localsim_mode, weight_mode):
    g, _, config, inputs, labels = make_instance(
        n=40, d=3, k=2, z=5, seed=23, localsim_mode=localsim_mode, weight_mode=weight_mode)
    params = init_parameters(config, np.random.default_rng(23))
    mask = sparse_mask(g, 40)
    loss, _ = loss_and_gradients(params, config, select_rows(inputs, mask), labels)
    full = np.log(predict_proba(params, config, inputs))
    assert abs(loss - -full[mask, labels[mask]].mean()) <= 1e-12


@pytest.mark.parametrize("localsim_mode,weight_mode", ROW_MODES)
def test_masked_evaluate_matches_full_graph_predict(localsim_mode, weight_mode):
    g, _, config, inputs, labels = make_instance(
        n=40, d=3, k=2, z=5, seed=24, localsim_mode=localsim_mode, weight_mode=weight_mode)
    params = init_parameters(config, np.random.default_rng(24))
    pred = predict(params, config, inputs)
    for mask in (sparse_mask(g, 40), ~sparse_mask(g, 40), np.ones(40, dtype=bool)):
        want = float((pred[mask] == labels[mask]).mean())
        assert evaluate(params, config, inputs, labels, mask) == want


def test_masked_dropout_consumes_a_full_mask_per_channel():
    g, _, config, inputs, labels = make_instance(n=30, k=3, z=4, seed=25, dropout=0.5)
    params = init_parameters(config, np.random.default_rng(25))
    rng = np.random.default_rng(7)
    loss_and_gradients(params, config, select_rows(inputs, sparse_mask(g, 30)), labels,
                       dropout_rng=rng)
    twin = np.random.default_rng(7)
    for _ in range(2 * config.num_layers + 1):
        twin.random((30, config.hidden_dim))
    assert rng.random() == twin.random()


@pytest.mark.parametrize("localsim_mode,weight_mode", ROW_MODES)
def test_predict_proba_matches_loop_forward(localsim_mode, weight_mode):
    n, seed = 20, 26
    _, x, config, inputs, _ = make_instance(
        n=n, d=3, k=2, z=5, seed=seed, localsim_mode=localsim_mode, weight_mode=weight_mode)
    params = init_parameters(config, np.random.default_rng(seed))
    want = loop_forward(dense_adjacency(n, random_edges(n, 0.3, seed)), x,
                        inputs.stack.low, inputs.stack.high, params,
                        config.sim_kind, localsim_mode, weight_mode)
    assert np.max(np.abs(predict_proba(params, config, inputs) - want)) <= 1e-12


# Nodes with no edge at the first and last row of one block: that block's
# CSR span starts and ends with rows that own no entry.
ISOLATED_ENDS = [False, True]


@pytest.mark.parametrize("isolated_ends", ISOLATED_ENDS)
@pytest.mark.parametrize("localsim_mode,weight_mode", ROW_MODES)
def test_blocked_inference_matches_one_block(localsim_mode, weight_mode, isolated_ends,
                                             monkeypatch):
    n, z = 40, 5
    # Nodes 3 and 5 start and end the second block of 3 rows.
    isolated = (3, 5) if isolated_ends else ()
    g, _, config, inputs, labels = make_instance(
        n=n, d=3, k=2, z=z, seed=27, localsim_mode=localsim_mode, weight_mode=weight_mode,
        isolated=isolated)
    assert not g.degrees[list(isolated)].any()
    params = init_parameters(config, np.random.default_rng(27))
    assert model_module._block_rows(z) >= n
    whole = predict_proba(params, config, inputs)
    monkeypatch.setattr(model_module, "_BLOCK_FLOATS", 3 * z)
    assert model_module._block_rows(z) == 3
    # block edges split nodes from their neighbors
    assert np.any(g.entry_rows() // 3 != g.col_indices // 3)
    assert np.max(np.abs(predict_proba(params, config, inputs) - whole)) <= 1e-12
    pred = predict(params, config, inputs)
    assert np.array_equal(pred, whole.argmax(axis=1))
    for mask in (sparse_mask(g, n), np.ones(n, dtype=bool)):
        assert mask.sum() > 2 * 3
        want = float((pred[mask] == labels[mask]).mean())
        assert evaluate(params, config, inputs, labels, mask) == want


def test_predict_proba_memory_does_not_grow_with_rows():
    peaks = []
    for n in (4096, 16384):
        rng = np.random.default_rng(n)
        g = build_graph(rng.integers(0, n, size=(5 * n // 2, 2)), n)
        x = rng.normal(size=(n, 4))
        stack = build_stack(enhanced_filters(g, 0.5), x, PropagationConfig(num_layers=2))
        config = ModelConfig(num_layers=2, in_dim=4, hidden_dim=32, num_classes=3)
        inputs = ModelInputs.build(g, x, stack, config.sim_kind)
        params = init_parameters(config, np.random.default_rng(0))
        tracemalloc.start()
        try:
            predict_proba(params, config, inputs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert peaks[1] < 1.5 * peaks[0], peaks


@pytest.mark.parametrize("localsim_mode,weight_mode", ROW_MODES)
def test_inference_holds_one_channel_map_per_block(localsim_mode, weight_mode):
    # Keeping every channel's map until fusion would hold 2K+1 = 17 of them.
    k, z = 8, 64
    n = 2 * model_module._block_rows(z)
    rng = np.random.default_rng(k)
    g = build_graph(rng.integers(0, n, size=(n, 2)), n)
    x = rng.normal(size=(n, 4))
    stack = build_stack(enhanced_filters(g, 0.5), x, PropagationConfig(num_layers=k))
    config = ModelConfig(num_layers=k, in_dim=4, hidden_dim=z, num_classes=3,
                         localsim_mode=localsim_mode, weight_mode=weight_mode)
    inputs = ModelInputs.build(g, x, stack, config.sim_kind)
    params = init_parameters(config, np.random.default_rng(0))
    block_map = model_module._BLOCK_FLOATS * 8
    _, peak = traced_peak(predict_proba, params, config, inputs)
    assert peak < 4 * block_map, peak / block_map


def wide_instance(n, d, k, z, seed, **config):
    """Inputs large enough that row-sized arrays dominate a traced peak."""
    rng = np.random.default_rng(seed)
    g = build_graph(rng.integers(0, n, size=(5 * n // 2, 2)), n)
    x = rng.normal(size=(n, d))
    stack = build_stack(enhanced_filters(g, 0.5), x, PropagationConfig(num_layers=k))
    config = ModelConfig(num_layers=k, in_dim=d, hidden_dim=z, num_classes=3, **config)
    inputs = ModelInputs.build(g, x, stack, config.sim_kind)
    params = init_parameters(config, np.random.default_rng(seed))
    return config, inputs, params, rng.integers(0, 3, size=n)


def test_masked_evaluate_gathers_one_channel_at_a_time():
    # Gathering all 2K+1 = 17 channels' rows per block held about 35 maps.
    n, z = 4096, 64
    config, inputs, params, labels = wide_instance(n, d=64, k=8, z=z, seed=29)
    mask = np.arange(n) % 2 == 0
    block_map = model_module._BLOCK_FLOATS * 8
    _, peak = traced_peak(evaluate, params, config, inputs, labels, mask)
    assert peak < 8 * block_map, peak / block_map


def test_a_repeated_pass_allocates_nothing_row_sized():
    # Regathering the rows and filling fresh maps on every call held about 26.
    n, z = 2000, 64
    config, inputs, params, labels = wide_instance(n, d=64, k=4, z=z, seed=30, dropout=0.5)
    assert config.localsim_mode == "refined"
    mask = np.arange(n) % 2 == 0
    rows = select_rows(inputs, mask)
    loss_and_gradients(params, config, rows, labels, 5e-4, np.random.default_rng(0))
    got, peak = traced_peak(loss_and_gradients, params, config, rows, labels, 5e-4,
                            np.random.default_rng(1))
    row_map = mask.sum() * z * 8
    assert peak < 5 * row_map, peak / row_map
    want = loss_and_gradients(params, config, select_rows(inputs, mask), labels, 5e-4,
                              np.random.default_rng(1))
    assert_same_result(got, want)


def blocked_pass(config, params, inputs, labels, mask, block_floats, monkeypatch, seed=5):
    """One training pass with `_BLOCK_FLOATS` set to `block_floats`:
    its loss, gradients and the log-probabilities its loss read."""
    monkeypatch.setattr(model_module, "_BLOCK_FLOATS", block_floats)
    seen = []
    nll = model_module._mean_nll

    def spy(log_probs, rows_labels):
        seen.append(log_probs.copy())
        return nll(log_probs, rows_labels)

    monkeypatch.setattr(model_module, "_mean_nll", spy)
    loss, grads = loss_and_gradients(params, config, select_rows(inputs, mask), labels, 1e-3,
                                     np.random.default_rng(seed))
    return loss, grads, seen[0]


@pytest.mark.parametrize("isolated_ends", ISOLATED_ENDS)
@pytest.mark.parametrize("dropout", [0.0, 0.5])
@pytest.mark.parametrize("localsim_mode,weight_mode", ROW_MODES)
def test_blocked_training_pass_matches_one_block(localsim_mode, weight_mode, dropout,
                                                 isolated_ends, monkeypatch):
    # Blocks of 16 rows (40 rows: three blocks), the multiple that the
    # module's row count keeps; refined local similarity in chunks of 8
    # entries.  With this BLAS the blocked products give every row's bits.
    n, k, z = 60, 3, 8
    mask = np.arange(n) % 3 != 0
    # The 17th and 32nd selected rows start and end the second block.
    isolated = np.flatnonzero(mask)[[16, 31]] if isolated_ends else ()
    g, _, config, inputs, labels = make_instance(
        n=n, d=4, k=k, z=z, seed=27, localsim_mode=localsim_mode, weight_mode=weight_mode,
        dropout=dropout, isolated=isolated)
    assert not g.degrees[list(isolated)].any()
    # block edges split nodes from their neighbors
    block_of = (np.cumsum(mask) - 1) // 16
    assert np.any(block_of[g.entry_rows()] != block_of[g.col_indices])
    params = init_parameters(config, np.random.default_rng(27))
    whole = blocked_pass(config, params, inputs, labels, mask, 1 << 17, monkeypatch)
    assert model_module._block_rows((2 * k + 1) * z) >= mask.sum()
    blocks = blocked_pass(config, params, inputs, labels, mask, (2 * k + 1) * z * 16, monkeypatch)
    assert model_module._block_rows((2 * k + 1) * z) == 16
    assert blocks[0] == whole[0]
    assert blocks[2].tobytes() == whole[2].tobytes()
    assert list(blocks[1]) == list(whole[1])
    for name, g in blocks[1].items():
        assert np.max(np.abs(g - whole[1][name])) <= 1e-12, name


@pytest.mark.parametrize("case", [c for c in _FD_CASES if c[2] == "node_level"][:3]
                         + [c for c in _FD_CASES if c[5]])
def test_blocked_gradients_match_finite_differences(case, monkeypatch):
    sim_kind, localsim_mode, weight_mode, h, tol, dropout = case
    _, _, config, inputs, labels = make_instance(
        n=14, d=3, k=2, z=3, seed=9, sim_kind=sim_kind, localsim_mode=localsim_mode,
        weight_mode=weight_mode, dropout=dropout)
    params = init_parameters(config, np.random.default_rng(9))
    tr, _, _ = masks(14, rng_seed=9)
    rows = select_rows(inputs, tr)
    # Two rows a block: the 7 train rows take 4 blocks.
    monkeypatch.setattr(model_module, "_BLOCK_FLOATS", 5 * 3 * 2)
    assert tr.sum() > 3 * model_module._block_rows(5 * 3)

    def loss_and_grads():
        rng = np.random.default_rng(4) if dropout else None
        return loss_and_gradients(params, config, rows, labels, weight_decay=5e-4, dropout_rng=rng)

    _, grads = loss_and_grads()
    assert max_rel_error(grads, central_fd(lambda: loss_and_grads()[0], params, h)) <= tol


@pytest.mark.parametrize("block_floats", [1, 4 * 3, 4 * 7, 4 * 64, 1 << 17])
def test_dropout_keep_bits_do_not_depend_on_the_block_size(block_floats, monkeypatch):
    g, _, config, inputs, _ = make_instance(n=30, k=3, z=4, seed=25, dropout=0.5)
    monkeypatch.setattr(model_module, "_BLOCK_FLOATS", block_floats)
    for mask in (sparse_mask(g, 30), np.ones(30, dtype=bool)):
        rows = select_rows(inputs, mask)
        rng, twin = np.random.default_rng(7), np.random.default_rng(7)
        bits = model_module._keep_bits(config, rows, rng)
        for ch in range(2 * config.num_layers + 1):
            want = (twin.random((30, config.hidden_dim)) >= config.dropout)[mask]
            got = np.unpackbits(bits[ch], axis=1, count=config.hidden_dim)
            assert np.array_equal(got, want), ch
        assert rng.random() == twin.random()


def test_a_training_pass_holds_block_sized_maps():
    # Every row's 2K+1 maps and gathered channel inputs grew a pass by about
    # 25 map rows (12.7 KB) per selected row; per-row state is narrower.
    z = 64
    growth = []
    for n in (4000, 8000):
        config, inputs, params, labels = wide_instance(n, d=64, k=4, z=z, seed=30, dropout=0.5)
        mask = np.arange(n) % 2 == 0

        def fresh_pass():
            return loss_and_gradients(params, config, select_rows(inputs, mask), labels, 5e-4,
                                      np.random.default_rng(1))

        _, peak = traced_peak(fresh_pass)
        growth.append((mask.sum(), peak))
    (m0, p0), (m1, p1) = growth
    per_row = (p1 - p0) / (m1 - m0)
    assert per_row < 3 * z * 8, per_row


def assert_same_result(got, want):
    assert got[0] == want[0]
    assert list(got[1]) == list(want[1])
    for name, g in got[1].items():
        assert g.tobytes() == want[1][name].tobytes(), name


def assert_same_pass(config, params, labels, rows, inputs, mask, seed=5):
    """A pass over `rows`, held across earlier passes, is bitwise one over
    the rows of `mask` selected afresh."""
    got, want = (
        loss_and_gradients(params, config, r, labels, 1e-3, np.random.default_rng(seed))
        for r in (rows, select_rows(inputs, mask))
    )
    assert_same_result(got, want)


@pytest.mark.parametrize("change", [
    {"hidden_dim": 7}, {"localsim_mode": "naive"}, {"localsim_mode": "refined", "ls_hidden": 3},
    {"dropout": 0.0}, {"weight_mode": "graph_level"},
])
def test_a_kept_selection_serves_another_config(change):
    g, _, config, inputs, labels = make_instance(n=30, seed=32, localsim_mode="refined",
                                                 dropout=0.5)
    mask = sparse_mask(g, 30)
    other = replace(config, **change)
    rows = select_rows(inputs, mask)
    for cfg, seed in ((config, 32), (other, 33), (config, 34)):
        params = init_parameters(cfg, np.random.default_rng(seed))
        assert_same_pass(cfg, params, labels, rows, inputs, mask)


def test_a_kept_selection_still_checks_the_similarity_kind():
    g, _, config, inputs, labels = make_instance(n=30, seed=36)
    params = init_parameters(config, np.random.default_rng(36))
    mask = sparse_mask(g, 30)
    rows = select_rows(inputs, mask)
    assert_same_pass(config, params, labels, rows, inputs, mask)
    with pytest.raises(InputError, match="sim_kind"):
        loss_and_gradients(params, replace(config, sim_kind="euclidean"), rows, labels)
    assert_same_pass(config, params, labels, rows, inputs, mask)


def test_rows_are_a_snapshot_of_their_mask():
    g, _, config, inputs, labels = make_instance(n=30, seed=31, localsim_mode="refined",
                                                 dropout=0.5)
    params = init_parameters(config, np.random.default_rng(31))
    for mask in (sparse_mask(g, 30), np.ones(30, dtype=bool)):
        rows = select_rows(inputs, mask)
        before = loss_and_gradients(params, config, rows, labels, 1e-3, np.random.default_rng(5))
        mask[:] = ~mask
        mask[1] = True
        after = loss_and_gradients(params, config, rows, labels, 1e-3, np.random.default_rng(5))
        assert_same_result(after, before)


def test_concurrent_trainings_on_shared_inputs_match_sequential_ones():
    # The toy's two model arms, trained on one ModelInputs and one train
    # mask by two threads at once, must get what they get one at a time.
    n = 2000
    config, inputs, _, labels = wide_instance(n, d=64, k=4, z=64, seed=37,
                                              localsim_mode="naive", dropout=0.5)
    configs = [config, replace(config, weight_mode="graph_level")]
    tr = np.arange(n) % 2 == 0
    tcfg = TrainConfig(epochs=15, patience=15, seed=3)

    def fit(cfg):
        return train(cfg, tcfg, inputs, labels, tr, ~tr).params

    want = [fit(cfg) for cfg in configs]
    got: list = [None, None]

    def run(i):
        got[i] = fit(configs[i])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
        assert not t.is_alive()
    for params, expected in zip(got, want):
        assert params is not None
        assert list(params) == list(expected)
        for name, a in params.items():
            assert a.tobytes() == expected[name].tobytes(), name


def params_digest(params) -> str:
    """sha256 prefix over every array's name, dtype, shape and bytes, in order."""
    h = hashlib.sha256()
    for name, a in params.items():
        h.update(f"{name}{a.dtype.str}{a.shape}".encode() + a.tobytes())
    return h.hexdigest()[:16]


def pinned_training(case):
    """Each case's seed puts its best epoch mid-run (8, 14 and 10 of 25), so
    the pin covers Adam steps and a snapshot that later epochs move past."""
    seed = {"node-refined-dropout": 48, "graph-level": 43, "linear": 47}[case]
    _, _, config, inputs, labels = make_instance(n=40, seed=seed, localsim_mode="refined",
                                                 dropout=0.5)
    tr, va, _ = masks(40, rng_seed=seed)
    tcfg = TrainConfig(lr=0.05, epochs=25, patience=25, seed=seed)
    if case == "linear":
        x = np.random.default_rng(seed + 1).normal(size=(40, 3))
        return train_linear(x, labels, 3, tcfg, tr, va)
    if case == "graph-level":
        config = replace(config, weight_mode="graph_level", dropout=0.0)
    return train(config, tcfg, inputs, labels, tr, va).params


_PINNED_PARAMS = {
    "node-refined-dropout": "3693dd8e22984ab8",
    "graph-level": "a21a99d61fd2532f",
    "linear": "a43e9e4b7b65ff3f",
}


@pytest.mark.parametrize("case", sorted(_PINNED_PARAMS))
def test_trained_parameters_are_pinned(case):
    # Recorded before parameters moved into one vector; any change to the
    # initializer's draws, Adam's arithmetic or the best-epoch snapshot
    # shows here.
    assert params_digest(pinned_training(case)) == _PINNED_PARAMS[case]


def assert_views_of_one_vector(params, config=None):
    """Every array is a C-contiguous view into one vector, in
    `_parameter_shapes` order (when a config is given), with no gaps."""
    if config is not None:
        assert list(params) == list(model_module._parameter_shapes(config))
    arrays = list(params.values())
    vector = arrays[0].base
    assert vector is not None and vector.ndim == 1 and vector.flags.c_contiguous
    start = vector.__array_interface__["data"][0]
    offset = 0
    for name, a in params.items():
        assert a.flags.c_contiguous and np.shares_memory(a, vector), name
        assert a.__array_interface__["data"][0] == start + offset * vector.itemsize, name
        offset += a.size
    assert offset == vector.size


@pytest.mark.parametrize("weight_mode", ["node_level", "graph_level"])
def test_initial_parameters_are_views_of_one_vector(weight_mode):
    _, _, config, _, _ = make_instance(localsim_mode="refined", weight_mode=weight_mode)
    assert_views_of_one_vector(init_parameters(config, np.random.default_rng(0)), config)


@pytest.mark.parametrize("case", sorted(_PINNED_PARAMS))
def test_parameters_are_views_of_one_vector_through_training(case, monkeypatch):
    # A rebinding such as `params[name] = ...` during training would fork
    # the vector Adam steps, so every epoch's pass must read views of it.
    # Both heads pass their parameters to the decay term, and their
    # gradients, which Adam reads as one vector, in the same layout.
    seen = []
    decayed = model_module._decayed

    def spy(loss, grads, params, weight_decay):
        seen.append((params, grads))
        return decayed(loss, grads, params, weight_decay)

    monkeypatch.setattr(model_module, "_decayed", spy)
    result = pinned_training(case)
    assert len(seen) == 25
    vector = next(iter(seen[0][0].values())).base
    for params, grads in seen:
        assert list(params) == list(result) == list(grads)
        assert_views_of_one_vector(params)
        assert_views_of_one_vector(grads)
        assert next(iter(params.values())).base is vector
    assert_views_of_one_vector(result)
    assert not np.shares_memory(next(iter(result.values())), vector)


def test_adam_first_step_is_signed_learning_rate():
    # w = [[2.0, -3.0]] and b = [0.5, 0.0] as one parameter vector
    vector = np.array([2.0, -3.0, 0.5, 0.0])
    model = _views(vector, [("w", (1, 2)), ("b", (2,))])
    grads = np.array([0.3, -40.0, -2.0, 0.0])
    opt = Adam(0.1, vector.size)
    opt.step(vector, grads)
    # bias-corrected first step is lr * g / (|g| + eps), i.e. +-lr per coordinate
    assert model["w"][0, 0] == pytest.approx(2.0 - 0.1, abs=1e-6)
    assert model["w"][0, 1] == pytest.approx(-3.0 + 0.1, abs=1e-6)
    assert model["b"][0] == pytest.approx(0.5 + 0.1, abs=1e-6)
    assert model["b"][1] == pytest.approx(0.0)


def test_adam_steps_in_blocks_as_the_whole_vector_would():
    # Two and a half blocks: the block loop must give the bits of the
    # whole-vector update, and hold only block-sized temporaries.
    block = model_module._ADAM_BLOCK
    rng = np.random.default_rng(0)
    vector = rng.normal(size=2 * block + block // 2)
    want, m, v = vector.copy(), np.zeros(vector.size), np.zeros(vector.size)
    opt = Adam(0.01, vector.size)
    for t in range(1, 4):
        grads = rng.normal(size=vector.size)
        m = 0.9 * m + (1.0 - 0.9) * grads
        v = 0.999 * v + (1.0 - 0.999) * grads * grads
        want -= 0.01 * (m / (1.0 - 0.9**t)) / (np.sqrt(v / (1.0 - 0.999**t)) + 1e-8)
        _, peak = traced_peak(opt.step, vector, grads)
        assert vector.tobytes() == want.tobytes()
        assert peak < 8 * block * vector.itemsize, peak / vector.nbytes


def test_linear_model_learns_separable_blobs():
    rng = np.random.default_rng(20)
    x = np.vstack([rng.normal(-2.0, 0.5, size=(60, 2)), rng.normal(2.0, 0.5, size=(60, 2))])
    y = np.repeat([0, 1], 60)
    tr = np.zeros(120, dtype=bool)
    tr[::2] = True
    va = ~tr
    tcfg = TrainConfig(lr=0.05, weight_decay=1e-4, epochs=200, patience=50, seed=1)
    m = train_linear(x, y, 2, tcfg, tr, va)
    assert list(m) == ["w", "b"]
    assert linear_accuracy(m, x, y, va) >= 0.95
    assert linear_predict(m, x).shape == (120,)


def test_linear_head_rejects_empty_validation_mask():
    # An empty mask has no accuracy; training on it must not quietly return
    # the untrained initial parameters.
    rng = np.random.default_rng(21)
    x = rng.normal(size=(20, 2))
    y = np.repeat([0, 1], 10)
    tr = np.ones(20, dtype=bool)
    none = np.zeros(20, dtype=bool)
    tcfg = TrainConfig(lr=0.05, epochs=5, patience=2, seed=1)
    with pytest.raises(InputError, match="mask selects no nodes"):
        train_linear(x, y, 2, tcfg, tr, none)
    with pytest.raises(InputError, match="mask selects no nodes"):
        linear_accuracy({"w": np.zeros((2, 2)), "b": np.zeros(2)}, x, y, none)


@pytest.mark.parametrize("empty", ["train", "validation"])
def test_training_refuses_an_empty_mask_before_any_epoch(empty, monkeypatch):
    _, _, config, inputs, labels = make_instance(n=30, seed=28)
    masks = {"train": np.arange(30) < 15, "validation": np.arange(30) >= 15}
    masks[empty] = np.zeros(30, dtype=bool)
    calls = []
    monkeypatch.setattr(model_module, "_fit", lambda *args: calls.append(args))
    with pytest.raises(InputError, match=f"^{empty} mask selects no nodes$"):
        train(config, TrainConfig(epochs=5), inputs, labels, masks["train"], masks["validation"])
    x = np.random.default_rng(28).normal(size=(30, 2))
    with pytest.raises(InputError, match=f"^{empty} mask selects no nodes$"):
        train_linear(x, labels, 3, TrainConfig(epochs=5), masks["train"], masks["validation"])
    assert calls == []
