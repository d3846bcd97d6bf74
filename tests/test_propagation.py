import tracemalloc
import warnings

import numpy as np
import pytest

from lsgnn.cli import main
from lsgnn.errors import DigestMismatchError, FormatError, InputError
from lsgnn.graph import enhanced_filters, self_loop_filters, sym_norm_adj
from lsgnn.propagation import (
    PropagationConfig,
    build_stack,
    feature_digest,
    load_bundle,
    precompute_bundle,
    propagate_layers,
    row_normalize,
    save_bundle,
)

from conftest import edit_header, fail_artifact_write, join_artifact, split_artifact, traced_peak
from reference import (
    dense_adjacency,
    dense_irdc,
    dense_row_normalize,
    dense_variant,
)


def make_features(n, d=4, seed=0):
    return np.random.default_rng(seed).normal(size=(n, d))


def test_config_validation():
    with pytest.raises(InputError):
        PropagationConfig(num_layers=0)
    with pytest.raises(InputError):
        PropagationConfig(num_layers=2, gamma=1.5)
    with pytest.raises(InputError):
        PropagationConfig(num_layers=2, beta=-0.2)
    with pytest.raises(InputError):
        PropagationConfig(num_layers=2, variant="ppr")


@pytest.mark.parametrize("gamma", [0.0, 0.25, 0.5, 1.0])
def test_irdc_matches_dense_recurrence(random_graph, gamma):
    g, edges = random_graph(n=12, p=0.3, seed=21)
    s = sym_norm_adj(g)
    x = make_features(12)
    layers = propagate_layers("irdc", s, x, 4, gamma)
    ref = dense_irdc(s.toarray(), x, 4, gamma)
    assert len(layers) == 4
    for got, want in zip(layers, ref):
        assert np.allclose(got, want, atol=1e-12)


def test_irdc_gamma_zero_repeats_first_layer(random_graph):
    g, _ = random_graph(n=10, p=0.3, seed=22)
    s = sym_norm_adj(g)
    x = make_features(10)
    layers = propagate_layers("irdc", s, x, 3, 0.0)
    first = s @ x
    for layer in layers:
        assert np.array_equal(layer, first)


def test_irdc_gamma_one_two_layers_negated_square(random_graph):
    g, _ = random_graph(n=10, p=0.3, seed=23)
    s = sym_norm_adj(g)
    x = make_features(10)
    layers = propagate_layers("irdc", s, x, 2, 1.0)
    assert np.array_equal(layers[1], -(s @ (s @ x)))


def test_irdc_dimension_mismatch(random_graph):
    g, _ = random_graph(n=10, p=0.3, seed=24)
    with pytest.raises(InputError):
        propagate_layers("irdc", sym_norm_adj(g), make_features(11), 2, 0.5)


@pytest.mark.parametrize("variant", ["sgc", "initial_residual", "difference_residual"])
def test_residual_variants_match_dense_recurrences(random_graph, variant):
    g, _ = random_graph(n=11, p=0.3, seed=25)
    s = sym_norm_adj(g)
    x = make_features(11)
    layers = propagate_layers(variant, s, x, 3, 0.5)
    ref = dense_variant(variant, s.toarray(), x, 3)
    for got, want in zip(layers, ref):
        assert np.allclose(got, want, atol=1e-12)


def test_initial_residual_symbolic_expansion(random_graph):
    g, _ = random_graph(n=9, p=0.35, seed=26)
    sd = sym_norm_adj(g).toarray()
    x = make_features(9)
    layers = propagate_layers("initial_residual", sym_norm_adj(g), x, 2, 0.5)
    assert np.allclose(layers[1], x + sd @ x + sd @ (sd @ x), atol=1e-12)


def test_difference_residual_symbolic_expansion(random_graph):
    g, _ = random_graph(n=9, p=0.35, seed=27)
    sd = sym_norm_adj(g).toarray()
    x = make_features(9)
    layers = propagate_layers("difference_residual", sym_norm_adj(g), x, 2, 0.5)
    assert np.allclose(layers[1], sd @ (x - sd @ x), atol=1e-12)


def test_residual_unknown_variant(random_graph):
    g, _ = random_graph(n=9, p=0.35, seed=28)
    with pytest.raises(InputError, match="variant must be one of"):
        propagate_layers("appnp", sym_norm_adj(g), make_features(9), 2, 0.5)


@pytest.mark.parametrize("variant", ["irdc", "sgc", "initial_residual", "difference_residual"])
def test_propagation_linear_in_features(random_graph, variant):
    g, _ = random_graph(n=12, p=0.3, seed=29)
    pair = enhanced_filters(g, 0.5)
    x1 = make_features(12, seed=1)
    x2 = make_features(12, seed=2)
    a, b = 0.7, -1.3
    cfg = PropagationConfig(num_layers=3, gamma=0.5, variant=variant, normalize=False)
    mixed = build_stack(pair, a * x1 + b * x2, cfg)
    s1 = build_stack(pair, x1, cfg)
    s2 = build_stack(pair, x2, cfg)
    for k in range(3):
        for chan in ("low", "high"):
            got = getattr(mixed, chan)[k]
            want = a * getattr(s1, chan)[k] + b * getattr(s2, chan)[k]
            scale = max(np.abs(want).max(), 1.0)
            assert np.max(np.abs(got - want)) / scale < 1e-10


def test_row_normalize_unit_rows_and_zero_guard():
    m = np.array([[3.0, 4.0], [0.0, 0.0], [0.0, -2.0]])
    out = row_normalize(m)
    assert np.allclose(out[0], [0.6, 0.8])
    assert np.array_equal(out[1], [0.0, 0.0])
    assert np.allclose(np.linalg.norm(out[2]), 1.0)
    # input untouched
    assert m[0, 0] == 3.0


def test_row_normalize_out_is_bitwise_the_new_array():
    m = np.random.default_rng(3).normal(size=(50, 7))
    m[[4, 9]] = 0.0
    want = row_normalize(m)
    assert row_normalize(m, out=m) is m
    assert m.tobytes() == want.tobytes()


def test_row_normalize_refuses_an_overflowing_row_before_writing():
    m = np.ones((4, 2))
    m[2:] = 1.3e154  # the first float whose square overflows is 1.3407807929942598e154
    out = np.zeros_like(m)
    with pytest.raises(InputError, match="^row 2's squared norm is past the float64 range$"):
        row_normalize(m, out=out)
    assert not out.any()


def test_build_stack_names_the_band_layer_and_row_that_overflow(random_graph):
    # Every value and every raw layer is finite; the third sgc low-pass
    # layer's rows 5 and 9 are not, once squared.
    g, _ = random_graph(n=12, p=0.3, seed=0)
    pair = enhanced_filters(g, 0.5)
    x = make_features(12, d=2)
    x[[5, 9], 0] = 1.3e154
    raw = build_stack(pair, x, PropagationConfig(num_layers=3, variant="sgc", normalize=False))
    with np.errstate(over="ignore"):
        first = next((band, k, int(np.flatnonzero(~np.isfinite((h * h).sum(axis=1)))[0]))
                     for band in ("low", "high") for k, h in enumerate(getattr(raw, band), start=1)
                     if not np.isfinite((h * h).sum(axis=1)).all())
    assert first == ("low", 3, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="^low-pass layer 3 overflows: row 5's squared norm"):
            build_stack(pair, x, PropagationConfig(num_layers=3, variant="sgc"))


def test_commands_refuse_features_that_overflow_after_propagation(tmp_path, capsys):
    # Each row passes load_dataset's squared-norm check, but the filters add
    # neighbours to it, and the layers' squared norms overflow.
    where = tmp_path / "data"
    assert main(["gen-fsbm", "--nodes", "40", "--degree", "4", "--out", str(where)]) == 0
    (where / "features.csv").write_text("1.3e154\n" * 40)
    for command in ("precompute", "train"):
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--data", str(where), "--out", str(tmp_path / command)]) == 2
        assert capsys.readouterr().err == (
            "error: low-pass layer 1 overflows: row 0's squared norm is past the float64 range\n")


@pytest.mark.parametrize("variant", ["irdc", "sgc", "difference_residual"])
def test_build_stack_holds_no_second_copy_of_the_stack(random_graph, variant):
    # 2K layers are returned; normalizing each in place leaves room for a
    # few temporaries, where normalized copies would add K more layers.
    k, n, d = 8, 3000, 16
    g, _ = random_graph(n=n, p=0.002, seed=31)
    pair = enhanced_filters(g, 0.5)
    x = make_features(n, d)
    stack, peak = traced_peak(build_stack, pair, x, PropagationConfig(num_layers=k, variant=variant))
    layer = x.nbytes
    assert len(stack.low) == len(stack.high) == k
    assert peak < (2 * k + 3) * layer, peak / layer


def test_stack_normalization_applies_to_stored_copies_only(random_graph):
    g, _ = random_graph(n=10, p=0.3, seed=30)
    pair = enhanced_filters(g, 0.5)
    x = make_features(10)
    raw = build_stack(pair, x, PropagationConfig(num_layers=3, normalize=False))
    norm = build_stack(pair, x, PropagationConfig(num_layers=3, normalize=True))
    for k in range(3):
        assert np.allclose(norm.low[k], dense_row_normalize(raw.low[k]), atol=1e-12)
        assert np.allclose(norm.high[k], dense_row_normalize(raw.high[k]), atol=1e-12)


def test_feature_digest_sensitive_to_shape_and_values():
    x = make_features(6, d=3)
    assert feature_digest(x) == feature_digest(x.copy())
    assert feature_digest(x) != feature_digest(x.T.copy())
    y = x.copy()
    y[0, 0] += 1e-9
    assert feature_digest(x) != feature_digest(y)


def test_bundle_round_trip_bitwise(tmp_path, random_graph):
    g, _ = random_graph(n=10, p=0.3, seed=31)
    x = make_features(10)
    stack = precompute_bundle(g, x, PropagationConfig(num_layers=3, gamma=0.25, beta=0.7))
    path = tmp_path / "stack.lspb"
    save_bundle(stack, path)
    loaded = load_bundle(path, features=x)
    assert loaded.config == stack.config
    assert loaded.feature_digest == stack.feature_digest
    for k in range(3):
        assert np.array_equal(loaded.low[k], stack.low[k])
        assert np.array_equal(loaded.high[k], stack.high[k])


def test_bundle_digest_mismatch(tmp_path, random_graph):
    g, _ = random_graph(n=10, p=0.3, seed=32)
    x = make_features(10)
    stack = precompute_bundle(g, x, PropagationConfig(num_layers=2))
    path = tmp_path / "stack.lspb"
    save_bundle(stack, path)
    with pytest.raises(DigestMismatchError):
        load_bundle(path, features=x + 1e-8)
    # loading without features skips the check
    load_bundle(path)


def saved_bundle(tmp_path, random_graph, name="stack.lspb"):
    g, _ = random_graph(n=8, p=0.4, seed=33)
    stack = precompute_bundle(g, make_features(8), PropagationConfig(num_layers=2))
    path = tmp_path / name
    save_bundle(stack, path)
    return g, path


def test_bundle_rejects_corruption(tmp_path, random_graph):
    _, path = saved_bundle(tmp_path, random_graph)
    raw = path.read_bytes()

    bad_magic = tmp_path / "magic.lspb"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(FormatError, match=r"magic\.lspb: bad magic b'XXXX'"):
        load_bundle(bad_magic)

    trailing = tmp_path / "trailing.lspb"
    trailing.write_bytes(raw + b"\x00")
    with pytest.raises(FormatError, match=r"trailing\.lspb: the arrays need 1024 bytes, but 1025"):
        load_bundle(trailing)

    truncated = tmp_path / "short.lspb"
    truncated.write_bytes(raw[:-9])
    with pytest.raises(FormatError, match=r"short\.lspb: the arrays need 1024 bytes, but 1015"):
        load_bundle(truncated)
    truncated.write_bytes(raw[:40])
    with pytest.raises(FormatError, match=r"short\.lspb: header needs \d+ bytes, but only 28"):
        load_bundle(truncated)
    truncated.write_bytes(raw[:7])
    with pytest.raises(FormatError, match=r"short\.lspb: file ends inside the version"):
        load_bundle(truncated)


def test_bundle_rejects_unknown_version_and_variant_tag(tmp_path, random_graph):
    _, path = saved_bundle(tmp_path, random_graph)
    magic, _, header, payload = split_artifact(path.read_bytes())
    version = tmp_path / "version.lspb"
    version.write_bytes(join_artifact(magic, 3, header, payload))
    with pytest.raises(FormatError, match=r"version\.lspb: unsupported version 3, expected 2"):
        load_bundle(version)

    def set_variant(value):
        return lambda h: h["propagation"].update(variant=value)

    variant = tmp_path / "variant.lspb"
    for edit, message in [
        (set_variant("bogus"), r"propagation\.variant must be one of .*, got 'bogus'"),
        (set_variant(9), r"propagation\.variant expects str, got 9"),
        (lambda h: h["propagation"].pop("variant"), r"propagation\.variant is missing"),
        (lambda h: h["propagation"].update(depth=3), r"propagation\.depth is unknown"),
        (lambda h: h.pop("feature_digest"), r"header holds \['arrays', 'propagation'\]"),
        (lambda h: h.update(feature_digest="ab"), r"feature_digest 'ab' is not 32 bytes of hex"),
    ]:
        variant.write_bytes(edit_header(path.read_bytes(), edit))
        with pytest.raises(FormatError, match=rf"variant\.lspb: {message}"):
            load_bundle(variant)


def test_bundle_save_failure_keeps_previous_file(tmp_path, random_graph, monkeypatch):
    g, path = saved_bundle(tmp_path, random_graph, name="bundle.lspb")
    before = path.read_bytes()
    # writes: the preamble, the header, low_1, then low_2 fails
    fail_artifact_write(monkeypatch, 4)
    other = precompute_bundle(g, make_features(8) + 1.0, PropagationConfig(num_layers=2))
    with pytest.raises(OSError, match="disk full"):
        save_bundle(other, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["bundle.lspb"]


def test_save_bundle_refuses_ad_hoc_filter_stacks(tmp_path, random_graph):
    # The stack is labelled by the pair that built it, so no caller can
    # store a self-loop stack as an enhanced bundle by leaving out a label.
    g, _ = random_graph(n=8, p=0.4, seed=34)
    stack = build_stack(self_loop_filters(g), make_features(8, d=1), PropagationConfig(num_layers=1))
    assert stack.filter_kind == "self_loop"
    with pytest.raises(InputError, match="filter_kind='self_loop'"):
        save_bundle(stack, tmp_path / "stack.lspb")
    assert not (tmp_path / "stack.lspb").exists()


def test_build_stack_shape_validation(random_graph):
    g, _ = random_graph(n=8, p=0.4, seed=35)
    pair = enhanced_filters(g, 0.5)
    with pytest.raises(InputError):
        build_stack(pair, make_features(9), PropagationConfig(num_layers=2))


def test_bundle_rejects_oversized_header(tmp_path, random_graph):
    # A manifest claiming n = 2^31 must fail on the file's size, not by
    # trying to allocate the layers it implies.
    _, path = saved_bundle(tmp_path, random_graph)
    raw = path.read_bytes()
    big = tmp_path / "big.lspb"
    big.write_bytes(edit_header(raw, lambda h: h["arrays"][0].__setitem__(1, [2**31, 4])))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=r"big\.lspb: the arrays need 68719477504 bytes"):
            load_bundle(big)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20

    # Empty layers cost no bytes, so a huge num_layers must fail on the
    # manifest's length rather than loop over billions of layers.
    def empty_layers(h):
        h["propagation"]["num_layers"] = 2**32 - 1
        for entry in h["arrays"]:
            entry[1] = [0, 4]

    big.write_bytes(edit_header(raw[:-1024], empty_layers))
    with pytest.raises(FormatError, match=r"big\.lspb: arrays .* do not match propagation\.num_layers=4294967295"):
        load_bundle(big)
