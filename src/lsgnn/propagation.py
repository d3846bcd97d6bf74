"""Precomputed multi-hop feature propagation.

All propagation happens once, before training: each filter is applied
layer by layer and the resulting dense matrices are stored (optionally
row-normalized).  Training then never touches the graph again, which is
what makes large-graph runs cheap.

The default recurrence subtracts a decaying share of the running sum of
earlier layers from the input before each hop, so deeper layers carry
incremental information instead of re-smoothing what shallow layers
already captured.
"""

from __future__ import annotations

import hashlib
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import BinaryIO, Iterator

import numpy as np
import scipy.sparse as sp

from .errors import DigestMismatchError, FormatError, InputError
from .graph import FilterPair, SparseGraph, enhanced_filters

__all__ = [
    "VARIANTS",
    "PropagationConfig",
    "PropagationStack",
    "irdc",
    "residual_propagate",
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
_VERSION = 1


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
    `filter_kind` records how the pair was built; only stacks built from
    the enhanced spectral pair are accepted by `save_bundle`.
    """

    config: PropagationConfig
    low: list[np.ndarray]
    high: list[np.ndarray]
    feature_digest: bytes
    filter_kind: str = "enhanced"

    @property
    def num_nodes(self) -> int:
        return self.low[0].shape[0]

    @property
    def feature_dim(self) -> int:
        return self.low[0].shape[1]


def _check_feature_rows(s: sp.csr_array, x: np.ndarray) -> None:
    if x.ndim != 2 or x.shape[0] != s.shape[0]:
        raise InputError(
            f"features must be 2-d with {s.shape[0]} rows, got shape {x.shape}"
        )


def irdc(s: sp.csr_array, x: np.ndarray, num_layers: int, gamma: float) -> list[np.ndarray]:
    """Incremental propagation: each hop filters what earlier hops missed.

    Layer 1 is s @ x; layer k filters (1 - gamma) * x minus gamma times the
    running sum of all earlier (unnormalized) layers.  With gamma = 0 every
    layer equals s @ x; with gamma = 1 layer 2 equals -(s @ s @ x).
    """
    _check_feature_rows(s, x)
    layers = []
    h = s @ x
    layers.append(h)
    if num_layers == 1:
        return layers
    running = h.copy()
    for _ in range(1, num_layers):
        h = s @ ((1.0 - gamma) * x - gamma * running)
        layers.append(h)
        running += h
    return layers


def residual_propagate(variant: str, s: sp.csr_array, x: np.ndarray, num_layers: int) -> list[np.ndarray]:
    """Ablation recurrences that re-smooth instead of propagating increments.

    sgc: layer k = s applied k times to x.
    initial_residual: layer k = x + s @ layer (k-1), layer 0 = x.
    difference_residual: layer 1 = s @ x, layer k = s @ (layer (k-2) - layer (k-1)).
    """
    _check_feature_rows(s, x)
    layers: list[np.ndarray] = []
    if variant == "sgc":
        z = x
        for _ in range(num_layers):
            z = s @ z
            layers.append(z)
    elif variant == "initial_residual":
        z = x
        for _ in range(num_layers):
            z = x + s @ z
            layers.append(z)
    elif variant == "difference_residual":
        prev2 = x
        prev1 = s @ x
        layers.append(prev1)
        for _ in range(1, num_layers):
            nxt = s @ (prev2 - prev1)
            layers.append(nxt)
            prev2, prev1 = prev1, nxt
    else:
        raise InputError(f"unknown residual variant {variant!r}")
    return layers


def propagate_layers(
    variant: str, s: sp.csr_array, x: np.ndarray, num_layers: int, gamma: float
) -> list[np.ndarray]:
    if variant == "irdc":
        return irdc(s, x, num_layers, gamma)
    return residual_propagate(variant, s, x, num_layers)


def row_normalize(m: np.ndarray) -> np.ndarray:
    """Scale each row to unit L2 norm; all-zero rows are left unchanged."""
    norms = np.sqrt((m * m).sum(axis=1))
    safe = np.where(norms > 0.0, norms, 1.0)
    return m / safe[:, None]


def feature_digest(x: np.ndarray) -> bytes:
    """SHA-256 over the shape and raw float64 bytes of a feature matrix."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    h = hashlib.sha256()
    h.update(struct.pack("<QQ", x.shape[0], x.shape[1]))
    h.update(x.tobytes(order="C"))
    return h.digest()


def build_stack(
    pair: FilterPair,
    x: np.ndarray,
    config: PropagationConfig,
    filter_kind: str = "enhanced",
) -> PropagationStack:
    """Run the configured recurrence over both filters of a pair."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != pair.low.shape[0]:
        raise InputError(
            f"features must be ({pair.low.shape[0]}, d), got shape {x.shape}"
        )
    low = propagate_layers(config.variant, pair.low, x, config.num_layers, config.gamma)
    high = propagate_layers(config.variant, pair.high, x, config.num_layers, config.gamma)
    if config.normalize:
        low = [row_normalize(h) for h in low]
        high = [row_normalize(h) for h in high]
    return PropagationStack(
        config=config,
        low=low,
        high=high,
        feature_digest=feature_digest(x),
        filter_kind=filter_kind,
    )


def precompute_bundle(g: SparseGraph, x: np.ndarray, config: PropagationConfig) -> PropagationStack:
    """Build the enhanced filter pair for g and propagate x through it."""
    pair = enhanced_filters(g, config.beta)
    return build_stack(pair, x, config, filter_kind="enhanced")


def _write_matrix(fh: BinaryIO, m: np.ndarray) -> None:
    fh.write(np.ascontiguousarray(m, dtype="<f8").tobytes(order="C"))


@contextmanager
def _atomic_write(path) -> Iterator[BinaryIO]:
    """Write `path` through a temporary file in its directory.

    The temporary file replaces `path` only once the body has finished, and
    is removed if the body raises, so a failed save leaves the previous file
    intact and no stray file behind.  Shared by the LSPB and LSPM writers.
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


class _ArtifactReader:
    """Bounded reads from an open LSPB or LSPM file.

    Every `FormatError` it raises names the file.  A read checks its size
    against the bytes left before anything is allocated, so a corrupt
    header cannot ask for more memory than the file holds.
    """

    def __init__(self, fh: BinaryIO, magic: bytes):
        self._fh = fh
        self._size = os.fstat(fh.fileno()).st_size
        found = self.read(len(magic), "magic")
        if found != magic:
            raise self.error(f"bad magic {found!r}, expected {magic!r}")

    def error(self, message: str) -> FormatError:
        return FormatError(f"{self._fh.name}: {message}")

    def reserve(self, size: int, what: str) -> None:
        left = self._size - self._fh.tell()
        if size > left:
            raise self.error(f"{what} needs {size} bytes, but only {left} remain")

    def read(self, size: int, what: str) -> bytes:
        self.reserve(size, what)
        return self._fh.read(size)

    def finish(self, what: str) -> None:
        if self._fh.read(1):
            raise self.error(f"trailing bytes after {what}")


def save_bundle(stack: PropagationStack, path) -> None:
    """Serialize a propagation stack to the LSPB binary format.

    Layout: magic, version, n/d/num_layers (u32), gamma/beta (f64), variant
    and normalize tags (u8), 32-byte feature digest, then the low layers
    followed by the high layers as row-major little-endian float64.
    """
    if stack.filter_kind != "enhanced":
        raise InputError(
            f"only stacks built from the enhanced filter pair can be saved, "
            f"got filter_kind={stack.filter_kind!r}"
        )
    cfg = stack.config
    with _atomic_write(path) as fh:
        fh.write(_MAGIC)
        fh.write(
            struct.pack(
                "<IIIIddBB",
                _VERSION,
                stack.num_nodes,
                stack.feature_dim,
                cfg.num_layers,
                cfg.gamma,
                cfg.beta,
                VARIANTS.index(cfg.variant),
                int(cfg.normalize),
            )
        )
        fh.write(stack.feature_digest)
        for m in stack.low:
            _write_matrix(fh, m)
        for m in stack.high:
            _write_matrix(fh, m)


def load_bundle(path, features: np.ndarray | None = None) -> PropagationStack:
    """Read an LSPB file back into a PropagationStack.

    If `features` is given, its digest must match the one stored at save
    time; a mismatch raises DigestMismatchError so stale bundles cannot be
    silently paired with edited inputs.
    """
    with open(path, "rb") as fh:
        reader = _ArtifactReader(fh, _MAGIC)
        header = reader.read(struct.calcsize("<IIIIddBB"), "header")
        version, n, d, num_layers, gamma, beta, variant_tag, normalize = struct.unpack(
            "<IIIIddBB", header
        )
        if version != _VERSION:
            raise reader.error(f"unsupported bundle version {version}")
        if variant_tag >= len(VARIANTS):
            raise reader.error(f"unknown variant tag {variant_tag}")
        digest = reader.read(32, "feature digest")
        config = PropagationConfig(
            num_layers=num_layers,
            gamma=gamma,
            beta=beta,
            variant=VARIANTS[variant_tag],
            normalize=bool(normalize),
        )
        count = n * d * 8
        # An empty layer costs no bytes, so a huge num_layers would pass
        # the size check below and loop over billions of empty reads.
        if count == 0:
            raise reader.error(f"header n={n}, d={d} describes empty layers")
        reader.reserve(
            2 * num_layers * count, f"header n={n}, d={d}, num_layers={num_layers}"
        )
        low = []
        high = []
        for dest, name in ((low, "low"), (high, "high")):
            for k in range(num_layers):
                raw = reader.read(count, f"{name} layer {k + 1}")
                dest.append(np.frombuffer(raw, dtype="<f8").reshape(n, d).copy())
        reader.finish("final layer")
    if features is not None and feature_digest(features) != digest:
        raise DigestMismatchError(
            "stored bundle was computed from a different feature matrix"
        )
    return PropagationStack(
        config=config,
        low=low,
        high=high,
        feature_digest=digest,
        filter_kind="enhanced",
    )
