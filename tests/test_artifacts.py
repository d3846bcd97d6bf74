"""Property tests of the one artifact container behind LSPB and LSPM files."""

import json
import math
import os
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import lsgnn.model as model_module
from lsgnn.errors import FormatError, InputError
from lsgnn.localsim import SIM_KINDS
from lsgnn.model import LOCALSIM_MODES, WEIGHT_MODES, ModelConfig, load_checkpoint, save_checkpoint
from lsgnn.propagation import VARIANTS, PropagationConfig, PropagationStack, load_bundle, save_bundle

from conftest import join_artifact, split_artifact

# An int passes for a float field, and must come back as the same int.
unit = st.floats(0.0, 1.0) | st.integers(0, 1)
small = st.integers(1, 3)
# Any finite float64, subnormals and signed zeros included.  A NaN or an
# infinity is refused on write and on read (tested below).
any_float = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


@st.composite
def propagation_configs(draw):
    return PropagationConfig(
        num_layers=draw(small),
        gamma=draw(unit),
        beta=draw(unit),
        variant=draw(st.sampled_from(VARIANTS)),
        normalize=draw(st.booleans()),
    )


@st.composite
def bundles(draw):
    config = draw(propagation_configs())
    shape = (draw(small), draw(small))
    layers = [draw(arrays(np.float64, shape, elements=any_float)) for _ in range(2 * config.num_layers)]
    k = config.num_layers
    digest = draw(st.binary(min_size=32, max_size=32))
    return PropagationStack(config=config, low=layers[:k], high=layers[k:], feature_digest=digest,
                            filter_kind="enhanced")


@st.composite
def checkpoints(draw):
    propagation = draw(propagation_configs())
    config = ModelConfig(
        num_layers=propagation.num_layers,
        in_dim=draw(small),
        hidden_dim=draw(small),
        num_classes=draw(st.integers(2, 3)),
        sim_kind=draw(st.sampled_from(SIM_KINDS)),
        localsim_mode=draw(st.sampled_from(LOCALSIM_MODES)),
        weight_mode=draw(st.sampled_from(WEIGHT_MODES)),
        ls_hidden=draw(small),
        alpha_hidden=draw(small),
        dropout=draw(st.floats(0.0, 1.0, exclude_max=True) | st.just(0)),
    )
    params = {
        name: draw(arrays(np.float64, shape, elements=any_float))
        for name, (shape, _) in model_module._parameter_shapes(config).items()
    }
    return config, propagation, params


def same_bits(a: dict, b: dict) -> bool:
    return list(a) == list(b) and all(
        a[k].shape == b[k].shape and a[k].tobytes() == b[k].tobytes() for k in a
    )


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("artifacts")


@settings(max_examples=40, deadline=None)
@given(stack=bundles())
def test_bundles_round_trip_bitwise(workdir, stack):
    path = workdir / "stack.lspb"
    save_bundle(stack, path)
    loaded = load_bundle(path)
    # repr tells 1 from 1.0 and -0.0 from 0.0
    assert repr(loaded.config) == repr(stack.config)
    assert loaded.feature_digest == stack.feature_digest
    assert same_bits(dict(enumerate(loaded.low + loaded.high)), dict(enumerate(stack.low + stack.high)))


@settings(max_examples=40, deadline=None)
@given(checkpoint=checkpoints())
def test_checkpoints_round_trip_bitwise(workdir, checkpoint):
    config, propagation, params = checkpoint
    path = workdir / "model.lspm"
    save_checkpoint(path, config, propagation, params)
    config2, propagation2, params2 = load_checkpoint(path)
    assert repr(config2) == repr(config)
    assert repr(propagation2) == repr(propagation)
    assert same_bits(params2, params)


@settings(max_examples=5, deadline=None)
@given(stack=bundles(), checkpoint=checkpoints())
def test_every_truncated_prefix_raises_format_error(workdir, stack, checkpoint):
    full_bundle, full_model = workdir / "full.lspb", workdir / "full.lspm"
    save_bundle(stack, full_bundle)
    save_checkpoint(full_model, *checkpoint)
    for full, load in ((full_bundle, load_bundle), (full_model, load_checkpoint)):
        raw = full.read_bytes()
        cut = workdir / f"cut{full.suffix}"
        for size in range(len(raw)):
            cut.write_bytes(raw[:size])
            with pytest.raises(FormatError, match=f"^{re.escape(str(cut))}: "):
                load(cut)


def _manifest(entries):
    return lambda header: {**header, "arrays": entries}


@pytest.mark.parametrize(
    "text, message",
    [
        (b"[1, 2", "header is not UTF-8 JSON"),
        (b"\xff\xfe{}", "header is not UTF-8 JSON"),
        (b"[" * 100_000, "header is not UTF-8 JSON"),
        (lambda header: sorted(header), r"header holds \['arrays', 'model', 'propagation'\], expected"),
        (_manifest({"w_in": [1, 1]}), "arrays must list distinct"),
        (_manifest([["w_in", [1, True]]]), "arrays must list distinct"),
        (_manifest([["w_in", [-1, 1]]]), "arrays must list distinct"),
        (_manifest([["w_in", [1]], ["w_in", [1]]]), "arrays must list distinct"),
        (_manifest([["w_in", [1, 2, 3]]]), "the arrays need 48 bytes"),
    ],
    ids=["truncated-json", "not-utf8", "deep-nesting", "header-list", "manifest-object",
         "bool-dim", "negative-dim", "repeated-name", "short-manifest"],
)
def test_malformed_headers_raise_format_error_naming_the_file(tmp_path, text, message):
    config = ModelConfig(num_layers=1, in_dim=1, hidden_dim=1, num_classes=2)
    params = model_module.init_parameters(config, np.random.default_rng(0))
    path = tmp_path / "model.lspm"
    save_checkpoint(path, config, PropagationConfig(num_layers=1), params)
    magic, version, header, payload = split_artifact(path.read_bytes())
    if callable(text):
        text = json.dumps(text(header)).encode()
    bad = tmp_path / "bad.lspm"
    bad.write_bytes(magic + struct.pack("<II", version, len(text)) + text + payload)
    with pytest.raises(FormatError, match=f"^{re.escape(str(bad))}: {message}"):
        load_checkpoint(bad)


def _artifacts(tmp_path, value=0.5):
    """A bundle and a checkpoint of one layer, each with `value` at position
    1 of one array: its path, a save of it, its loader and that array's name."""
    config = ModelConfig(num_layers=1, in_dim=2, hidden_dim=2, num_classes=2)
    propagation = PropagationConfig(num_layers=1)
    params = model_module.init_parameters(config, np.random.default_rng(0))
    params["al_w1"].flat[1] = value
    layers = np.random.default_rng(1).normal(size=(2, 3, 2))
    layers[1].flat[1] = value
    stack = PropagationStack(config=propagation, low=[layers[0]], high=[layers[1]],
                             feature_digest=bytes(32), filter_kind="enhanced")
    return [
        (tmp_path / "stack.lspb", lambda path: save_bundle(stack, path), load_bundle, "high_1"),
        (tmp_path / "model.lspm", lambda path: save_checkpoint(path, config, propagation, params),
         load_checkpoint, "al_w1"),
    ]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_non_finite_array_is_refused_before_a_file_opens(tmp_path, value):
    for path, save, _, name in _artifacts(tmp_path, value):
        with pytest.raises(InputError,
                           match=f"^{re.escape(str(path))}: array '{name}' holds a non-finite"):
            save(path)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_non_finite_value_in_a_file_is_refused_naming_the_array(tmp_path, value):
    # The same value, written into the payload of a valid file.
    for path, save, load, name in _artifacts(tmp_path):
        save(path)
        magic, version, header, payload = split_artifact(path.read_bytes())
        values = np.frombuffer(payload, dtype="<f8").copy()
        names = [entry[0] for entry in header["arrays"]]
        offset = sum(math.prod(shape) for _, shape in header["arrays"][:names.index(name)])
        assert values[offset + 1] == 0.5
        values[offset + 1] = value
        path.write_bytes(join_artifact(magic, version, header, values.tobytes()))
        with pytest.raises(FormatError,
                           match=f"^{re.escape(str(path))}: array '{name}' holds a non-finite"):
            load(path)
