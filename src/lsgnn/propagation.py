"""Precomputed multi-hop feature propagation.

All propagation happens once, before training: each filter is applied
layer by layer and the resulting dense matrices are stored (optionally
row-normalized, in place, so no layer is held twice).  Training then never
propagates again, which is what makes large-graph runs cheap.  It still
reads the graph: refined local similarity runs its edge MLP over every CSR
entry of the selected rows each epoch.

The default recurrence subtracts a decaying share of the running sum of
earlier layers from the input before each hop, so deeper layers carry
incremental information instead of re-smoothing what shallow layers
already captured.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import re
import reprlib
import struct
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import BinaryIO, Iterator, get_type_hints

import numpy as np
import scipy.sparse as sp

from .errors import DigestMismatchError, FormatError, InputError
from .graph import FilterPair, SparseGraph, _row_norms, enhanced_filters

__all__ = [
    "VARIANTS",
    "PropagationConfig",
    "PropagationStack",
    "propagate_layers",
    "row_normalize",
    "feature_digest",
    "build_stack",
    "precompute_bundle",
    "save_bundle",
    "load_bundle",
]

VARIANTS = ("irdc", "sgc", "initial_residual", "difference_residual")

_MAGIC = b"LSPB"
# The artifact format version, shared by LSPB and LSPM files.
_VERSION = 2


@dataclass(frozen=True)
class PropagationConfig:
    """Settings that fully determine a propagation stack for fixed inputs."""

    num_layers: int
    gamma: float = 0.5
    beta: float = 0.5
    variant: str = "irdc"
    normalize: bool = True

    def __post_init__(self):
        if self.num_layers < 1:
            raise InputError(f"num_layers must be >= 1, got {self.num_layers}")
        if not 0.0 <= self.gamma <= 1.0:
            raise InputError(f"gamma must lie in [0, 1], got {self.gamma}")
        if not 0.0 <= self.beta <= 1.0:
            raise InputError(f"beta must lie in [0, 1], got {self.beta}")
        if self.variant not in VARIANTS:
            raise InputError(f"variant must be one of {VARIANTS}, got {self.variant!r}")


@dataclass(eq=False)
class PropagationStack:
    """Propagated layers for a low/high filter pair, ready for training.

    `low` and `high` each hold num_layers dense (n, d) float64 arrays.
    `filter_kind` is the `FilterPair.kind` of the pair they were built
    from; only stacks built from the enhanced spectral pair are accepted by
    `save_bundle`.
    """

    config: PropagationConfig
    low: list[np.ndarray]
    high: list[np.ndarray]
    feature_digest: bytes
    filter_kind: str

    @property
    def num_nodes(self) -> int:
        return self.low[0].shape[0]

    @property
    def feature_dim(self) -> int:
        return self.low[0].shape[1]


def propagate_layers(
    variant: str, s: sp.csr_array, x: np.ndarray, num_layers: int, gamma: float
) -> list[np.ndarray]:
    """The first num_layers layers of one recurrence over the filter s.

    irdc: layer 1 is s @ x; layer k filters (1 - gamma) * x minus gamma
    times the running sum of all earlier (unnormalized) layers.  With
    gamma = 0 every layer equals s @ x; with gamma = 1 layer 2 equals
    -(s @ s @ x).  The three ablations re-smooth instead of propagating
    increments, and ignore gamma:
    sgc: layer k = s applied k times to x.
    initial_residual: layer k = x + s @ layer (k-1), layer 0 = x.
    difference_residual: layer 1 = s @ x, layer k = s @ (layer (k-2) - layer (k-1)).
    """
    if variant not in VARIANTS:
        raise InputError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if x.ndim != 2 or x.shape[0] != s.shape[0]:
        raise InputError(
            f"features must be 2-d with {s.shape[0]} rows, got shape {x.shape}"
        )
    h = x + s @ x if variant == "initial_residual" else s @ x
    # `running` sums irdc's layers so far; `prev` is the layer before h.
    layers, prev = [h], x
    running = h.copy() if variant == "irdc" else None
    for _ in range(1, num_layers):
        if variant == "irdc":
            # (1 - gamma) * x - gamma * running, with one temporary fewer.
            step = gamma * running
            np.subtract((1.0 - gamma) * x, step, out=step)
            h = s @ step
            running += h
        elif variant == "sgc":
            h = s @ h
        elif variant == "initial_residual":
            h = x + s @ h
        else:
            prev, h = h, s @ (prev - h)
        layers.append(h)
    return layers


def row_normalize(m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Scale each row to unit L2 norm; all-zero rows are left unchanged.

    The result goes to a new array, or to `out` when given; `out=m`
    normalizes in place, with one (n, d) temporary for the squared entries.
    """
    norms = _row_norms(m)
    safe = np.where(norms > 0.0, norms, 1.0)
    return np.divide(m, safe[:, None], out=out)


def feature_digest(x: np.ndarray) -> bytes:
    """SHA-256 over the shape and raw float64 bytes of a feature matrix."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    h = hashlib.sha256()
    h.update(struct.pack("<QQ", x.shape[0], x.shape[1]))
    # The C-contiguous buffer itself, hashed without a bytes copy.
    h.update(memoryview(x))
    return h.digest()


def build_stack(pair: FilterPair, x: np.ndarray, config: PropagationConfig) -> PropagationStack:
    """Run the configured recurrence over both filters of a pair; the
    stack's `filter_kind` is the pair's `kind`.

    With `config.normalize`, each band's layers are row-normalized in place
    (one `row_normalize` call per layer) as soon as its recurrence has
    finished, so no layer is ever held twice: the peak is the stack plus
    about two layers of temporaries.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    bands = []
    for s in (pair.low, pair.high):
        layers = propagate_layers(config.variant, s, x, config.num_layers, config.gamma)
        if config.normalize:
            for h in layers:
                row_normalize(h, out=h)
        bands.append(layers)
    low, high = bands
    return PropagationStack(
        config=config,
        low=low,
        high=high,
        feature_digest=feature_digest(x),
        filter_kind=pair.kind,
    )


def precompute_bundle(g: SparseGraph, x: np.ndarray, config: PropagationConfig) -> PropagationStack:
    """Build the enhanced filter pair for g and propagate x through it."""
    return build_stack(enhanced_filters(g, config.beta), x, config)


# --- artifacts ---------------------------------------------------------------


def _fits_type(value, kind: type) -> bool:
    """Whether a config value has type `kind`: an int passes for a float, a
    bool never passes for a number.  Config files and artifact headers are
    both checked by this rule."""
    if isinstance(value, bool) != (kind is bool):
        return False
    if kind is float:
        return isinstance(value, (int, float))
    return isinstance(value, kind)


# A config dataclass's field names and types, resolved once per class.
_field_types = functools.cache(get_type_hints)


@contextmanager
def _atomic_write(path) -> Iterator[BinaryIO]:
    """Write `path` through a temporary file in its directory.

    The temporary file replaces `path` only once the body has finished, and
    is removed if the body raises, so a failed save leaves the previous file
    intact and no stray file behind.
    """
    tmp = f"{os.fspath(path)}.{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "xb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _write_artifact(path, magic: bytes, header: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write an LSPB or LSPM artifact atomically.

    Layout: the 4-byte magic, then the format version and the header's
    length as u32, the UTF-8 JSON header, and every array as row-major
    little-endian float64 in manifest order.  The header is `header` plus
    the manifest `arrays: [[name, shape], ...]`, with sorted keys and no
    timestamps, so equal inputs give equal bytes.  An array holding a NaN
    or an infinity raises InputError before the file is opened.
    """
    arrays = {name: np.asarray(a, dtype="<f8", order="C") for name, a in arrays.items()}
    bad = _first_nonfinite(arrays)
    if bad is not None:
        raise InputError(f"{path}: array {reprlib.repr(bad)} holds a non-finite value")
    manifest = [[name, list(a.shape)] for name, a in arrays.items()]
    text = json.dumps({**header, "arrays": manifest}, sort_keys=True, allow_nan=False).encode()
    with _atomic_write(path) as fh:
        fh.write(magic + struct.pack("<II", _VERSION, len(text)))
        fh.write(text)
        for a in arrays.values():
            fh.write(a)


def _views(vector: np.ndarray, layout) -> dict[str, np.ndarray]:
    """Each (name, shape) of `layout` in turn as a view of the next prod(shape)
    entries of `vector`: the one layout of artifact payloads and parameter vectors."""
    arrays, offset = {}, 0
    for name, shape in layout:
        size = math.prod(shape)
        arrays[name] = vector[offset:offset + size].reshape(shape)
        offset += size
    return arrays


def _first_nonfinite(arrays: dict[str, np.ndarray]) -> str | None:
    """The name of the first array holding a NaN or an infinity, or None."""
    return next((name for name, a in arrays.items() if not np.isfinite(a).all()), None)


def _is_array_entry(entry) -> bool:
    """Whether a manifest entry is a [name, shape] pair."""
    if not (isinstance(entry, list) and len(entry) == 2):
        return False
    name, shape = entry
    return isinstance(name, str) and isinstance(shape, list) and all(
        type(dim) is int and dim >= 0 for dim in shape
    )


def _read_artifact(
    path, magic: bytes, configs: dict[str, type], extras: tuple[str, ...] = ()
) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a file `_write_artifact` wrote; return its header and arrays.

    The header holds `arrays`, the `extras` keys and, for each section name
    in `configs`, exactly the fields of its config dataclass, which comes
    back built.  Every `FormatError` names the file.  Nothing is allocated
    for the arrays until they are known to fill exactly the bytes after the
    header, so a corrupt header cannot ask for more memory than the file
    holds.  The arrays are `_views` of one buffer, and one holding a NaN or
    an infinity is refused.
    """

    def error(message: str) -> FormatError:
        return FormatError(f"{path}: {message}")

    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        found = fh.read(len(magic))
        if found != magic:
            raise error(f"bad magic {found!r}, expected {magic!r}")
        preamble = fh.read(8)
        if len(preamble) < 8:
            raise error("file ends inside the version and header length")
        version, length = struct.unpack("<II", preamble)
        if version != _VERSION:
            raise error(f"unsupported version {version}, expected {_VERSION}")
        if length > size - fh.tell():
            raise error(f"header needs {length} bytes, but only {size - fh.tell()} remain")
        try:
            header = json.loads(fh.read(length).decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            raise error(f"header is not UTF-8 JSON: {exc}") from None

        expected = sorted({*configs, *extras, "arrays"})
        if not isinstance(header, dict) or sorted(header) != expected:
            keys = sorted(header) if isinstance(header, dict) else header
            raise error(f"header holds {reprlib.repr(keys)}, expected the keys {expected}")
        manifest = header["arrays"]
        if (
            not isinstance(manifest, list)
            or not all(map(_is_array_entry, manifest))
            or len({name for name, _ in manifest}) != len(manifest)
        ):
            raise error(f"arrays must list distinct [name, shape] pairs: {reprlib.repr(manifest)}")

        for name, config in configs.items():
            section = header[name]
            types = _field_types(config)
            if not isinstance(section, dict):
                raise error(f"{name} expects an object, got {reprlib.repr(section)}")
            odd = sorted(section.keys() ^ types.keys())
            if odd:
                state = "unknown" if odd[0] in section else "missing"
                raise error(f"{name}.{odd[0][:60]} is {state}")
            for key, kind in types.items():
                value = section[key]
                if not _fits_type(value, kind):
                    raise error(f"{name}.{key} expects {kind.__name__}, got {reprlib.repr(value)}")
            try:
                header[name] = config(**section)
            except InputError as exc:
                # Every range check's message starts with its field's name.
                raise error(f"{name}.{exc}") from None

        count = sum(math.prod(shape) for _, shape in manifest)
        left = size - fh.tell()
        if 8 * count != left:
            raise error(f"the arrays need {8 * count} bytes, but {left} follow the header")
        payload = np.empty(count, dtype="<f8")
        if fh.readinto(payload) != 8 * count:
            raise error("file changed while it was read")
    arrays = _views(payload, manifest)
    bad = _first_nonfinite(arrays)
    if bad is not None:
        raise error(f"array {reprlib.repr(bad)} holds a non-finite value")
    return header, arrays


def _layer_names(num_layers: int) -> list[str]:
    """A bundle's array names: the low layers, then the high layers."""
    return [f"{band}_{k}" for band in ("low", "high") for k in range(1, num_layers + 1)]


def save_bundle(stack: PropagationStack, path) -> None:
    """Write a propagation stack as an LSPB artifact (see `_write_artifact`).

    The header holds the `propagation` config and the `feature_digest`
    (hex); the arrays are `low_1..K`, then `high_1..K`.
    """
    if stack.filter_kind != "enhanced":
        raise InputError(
            f"only stacks built from the enhanced filter pair can be saved, "
            f"got filter_kind={stack.filter_kind!r}"
        )
    header = {"propagation": asdict(stack.config), "feature_digest": stack.feature_digest.hex()}
    layers = dict(zip(_layer_names(stack.config.num_layers), [*stack.low, *stack.high]))
    _write_artifact(path, _MAGIC, header, layers)


def load_bundle(path, features: np.ndarray | None = None) -> PropagationStack:
    """Read an LSPB file back into a PropagationStack.

    If `features` is given, its digest must match the one stored at save
    time; a mismatch raises DigestMismatchError so stale bundles cannot be
    silently paired with edited inputs.
    """
    header, arrays = _read_artifact(
        path, _MAGIC, {"propagation": PropagationConfig}, extras=("feature_digest",)
    )
    config = header["propagation"]
    k = config.num_layers
    if len(arrays) != 2 * k or list(arrays) != _layer_names(k):
        raise FormatError(
            f"{path}: arrays {reprlib.repr(list(arrays))} do not match propagation.num_layers={k}"
        )
    shapes = sorted({a.shape for a in arrays.values()})
    if len(shapes) != 1 or len(shapes[0]) != 2:
        raise FormatError(f"{path}: layers must share one (n, d) shape, got {reprlib.repr(shapes)}")
    digest = header["feature_digest"]
    if not (isinstance(digest, str) and re.fullmatch("[0-9a-f]{64}", digest)):
        raise FormatError(f"{path}: feature_digest {reprlib.repr(digest)} is not 32 bytes of hex")
    if features is not None and feature_digest(features).hex() != digest:
        raise DigestMismatchError(
            f"{path}: stored bundle was computed from a different feature matrix"
        )
    layers = list(arrays.values())
    return PropagationStack(
        config=config,
        low=layers[:k],
        high=layers[k:],
        feature_digest=bytes.fromhex(digest),
        filter_kind="enhanced",
    )
