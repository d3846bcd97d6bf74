import struct

import numpy as np
import pytest

import lsgnn.propagation as propagation_module
from lsgnn.errors import DigestMismatchError, FormatError, InputError
from lsgnn.graph import enhanced_filters, sym_norm_adj
from lsgnn.propagation import (
    PropagationConfig,
    build_stack,
    feature_digest,
    irdc,
    load_bundle,
    precompute_bundle,
    residual_propagate,
    row_normalize,
    save_bundle,
)

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
    layers = irdc(s, x, 4, gamma)
    ref = dense_irdc(s.toarray(), x, 4, gamma)
    assert len(layers) == 4
    for got, want in zip(layers, ref):
        assert np.allclose(got, want, atol=1e-12)


def test_irdc_gamma_zero_repeats_first_layer(random_graph):
    g, _ = random_graph(n=10, p=0.3, seed=22)
    s = sym_norm_adj(g)
    x = make_features(10)
    layers = irdc(s, x, 3, 0.0)
    first = s @ x
    for layer in layers:
        assert np.array_equal(layer, first)


def test_irdc_gamma_one_two_layers_negated_square(random_graph):
    g, _ = random_graph(n=10, p=0.3, seed=23)
    s = sym_norm_adj(g)
    x = make_features(10)
    layers = irdc(s, x, 2, 1.0)
    assert np.array_equal(layers[1], -(s @ (s @ x)))


def test_irdc_dimension_mismatch(random_graph):
    g, _ = random_graph(n=10, p=0.3, seed=24)
    with pytest.raises(InputError):
        irdc(sym_norm_adj(g), make_features(11), 2, 0.5)


@pytest.mark.parametrize("variant", ["sgc", "initial_residual", "difference_residual"])
def test_residual_variants_match_dense_recurrences(random_graph, variant):
    g, _ = random_graph(n=11, p=0.3, seed=25)
    s = sym_norm_adj(g)
    x = make_features(11)
    layers = residual_propagate(variant, s, x, 3)
    ref = dense_variant(variant, s.toarray(), x, 3)
    for got, want in zip(layers, ref):
        assert np.allclose(got, want, atol=1e-12)


def test_initial_residual_symbolic_expansion(random_graph):
    g, _ = random_graph(n=9, p=0.35, seed=26)
    sd = sym_norm_adj(g).toarray()
    x = make_features(9)
    layers = residual_propagate("initial_residual", sym_norm_adj(g), x, 2)
    assert np.allclose(layers[1], x + sd @ x + sd @ (sd @ x), atol=1e-12)


def test_difference_residual_symbolic_expansion(random_graph):
    g, _ = random_graph(n=9, p=0.35, seed=27)
    sd = sym_norm_adj(g).toarray()
    x = make_features(9)
    layers = residual_propagate("difference_residual", sym_norm_adj(g), x, 2)
    assert np.allclose(layers[1], sd @ (x - sd @ x), atol=1e-12)


def test_residual_unknown_variant(random_graph):
    g, _ = random_graph(n=9, p=0.35, seed=28)
    with pytest.raises(InputError):
        residual_propagate("appnp", sym_norm_adj(g), make_features(9), 2)


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


def test_bundle_rejects_corruption(tmp_path, random_graph):
    g, _ = random_graph(n=8, p=0.4, seed=33)
    stack = precompute_bundle(g, make_features(8), PropagationConfig(num_layers=2))
    path = tmp_path / "stack.lspb"
    save_bundle(stack, path)
    raw = bytearray(path.read_bytes())

    bad_magic = tmp_path / "magic.lspb"
    bad_magic.write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(FormatError, match=r"magic\.lspb: bad magic"):
        load_bundle(bad_magic)

    trailing = tmp_path / "trailing.lspb"
    trailing.write_bytes(bytes(raw) + b"\x00")
    with pytest.raises(FormatError, match=r"trailing\.lspb: trailing bytes"):
        load_bundle(trailing)

    truncated = tmp_path / "short.lspb"
    truncated.write_bytes(bytes(raw[:-9]))
    with pytest.raises(FormatError, match=r"short\.lspb: "):
        load_bundle(truncated)
    truncated.write_bytes(bytes(raw[:40]))
    with pytest.raises(FormatError, match=r"short\.lspb: feature digest needs"):
        load_bundle(truncated)


def test_bundle_save_failure_keeps_previous_file(tmp_path, random_graph, monkeypatch):
    g, _ = random_graph(n=8, p=0.4, seed=33)
    stack = precompute_bundle(g, make_features(8), PropagationConfig(num_layers=2))
    path = tmp_path / "bundle.lspb"
    save_bundle(stack, path)
    before = path.read_bytes()
    calls = []
    real = propagation_module._write_matrix

    def failing(*args):
        calls.append(1)
        if len(calls) == 2:
            raise OSError("disk full")
        real(*args)

    monkeypatch.setattr(propagation_module, "_write_matrix", failing)
    other = precompute_bundle(g, make_features(8) + 1.0, PropagationConfig(num_layers=2))
    with pytest.raises(OSError, match="disk full"):
        save_bundle(other, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["bundle.lspb"]


def test_save_bundle_refuses_ad_hoc_filter_stacks(tmp_path, random_graph):
    from lsgnn.graph import FilterPair, complement_filter, self_loop_adj

    g, _ = random_graph(n=8, p=0.4, seed=34)
    low = self_loop_adj(g)
    pair = FilterPair(beta=0.0, low=low, high=complement_filter(low))
    stack = build_stack(pair, make_features(8, d=1), PropagationConfig(num_layers=1),
                        filter_kind="self_loop")
    with pytest.raises(InputError):
        save_bundle(stack, tmp_path / "stack.lspb")


def test_build_stack_shape_validation(random_graph):
    g, _ = random_graph(n=8, p=0.4, seed=35)
    pair = enhanced_filters(g, 0.5)
    with pytest.raises(InputError):
        build_stack(pair, make_features(9), PropagationConfig(num_layers=2))


def test_bundle_rejects_oversized_header(tmp_path, random_graph):
    # A header claiming n = 2^31 must fail on the file's size, not by
    # trying to allocate the layers it implies.
    g, _ = random_graph(n=8, p=0.4, seed=34)
    stack = precompute_bundle(g, make_features(8), PropagationConfig(num_layers=2))
    path = tmp_path / "stack.lspb"
    save_bundle(stack, path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, 8, 2**31)  # n, after magic and version
    big = tmp_path / "big.lspb"
    big.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=r"big\.lspb: header n=2147483648, d=4"):
        load_bundle(big)
    # n = 0 makes every layer empty; with num_layers = 2^32 - 1 the reader
    # would otherwise loop over billions of zero-byte layers
    struct.pack_into("<II", raw, 8, 0, 4)
    struct.pack_into("<I", raw, 16, 2**32 - 1)
    big.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=r"big\.lspb: header n=0, d=4 describes empty layers"):
        load_bundle(big)
