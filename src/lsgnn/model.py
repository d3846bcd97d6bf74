"""Node classifier over precomputed propagation stacks.

The classifier reads 2K+1 channels per node, kept as one list in draw
order: the raw features (`w_in`), the K low-pass propagated layers
(`w_low_1..K`) and the K high-pass layers (`w_high_1..K`), each through
its own linear+ReLU map.  A small MLP turns each node's local similarity
into per-node mixing weights α with 3K columns; column j·K + kk weights
term j (identity, low kk+1, high kk+1) of fused block kk.  So the identity
channel is block 0 and, weighted by column kk, the first term of fused
block kk, and channel c >= 1 is weighted by column K + c - 1 in fused block
(c - 1) mod K.  A linear layer over the K+1 blocks produces class logits.

Parameters are one ordered `dict[str, np.ndarray]`: the channel maps in
channel order, then `ls_w1, ls_b1, ls_w2, ls_b2` (refined local
similarity), `al_w1, al_b1, al_w2, al_b2` (node-level weights) or
`graph_alpha` (graph-level weights), then `w_out`.  That order is fixed;
the initializer's draws, the optimizer, the checkpoint format and the
finite-difference tests all rely on it.

Every pass reads the rows a `_Rows` selects: `_Rows.index` indexes the
node axis, and is `slice(None)` when every node is selected, so those
arrays are views of the inputs rather than copies.

Gradients are derived by hand and verified against central finite
differences in the test suite; there is no autograd dependency.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from typing import BinaryIO, Callable

import numpy as np

from .errors import DigestMismatchError, FormatError, InputError, TrainingDivergedError
from .graph import SparseGraph
from .localsim import SIM_KINDS, edge_sim_values, neighborhood_mean
from .propagation import PropagationStack, _ArtifactReader, _atomic_write, feature_digest

__all__ = [
    "LOCALSIM_MODES",
    "WEIGHT_MODES",
    "ModelConfig",
    "ModelInputs",
    "TrainConfig",
    "TrainResult",
    "Adam",
    "init_parameters",
    "predict_proba",
    "predict",
    "evaluate",
    "loss_and_gradients",
    "train",
    "save_checkpoint",
    "load_checkpoint",
    "train_linear",
    "linear_predict",
    "linear_accuracy",
]

LOCALSIM_MODES = ("naive", "refined")
WEIGHT_MODES = ("node_level", "graph_level")

_MAGIC = b"LSPM"
_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    """Architecture settings; everything a parameter set's shapes depend on."""

    num_layers: int
    in_dim: int
    hidden_dim: int
    num_classes: int
    sim_kind: str = "cosine"
    localsim_mode: str = "refined"
    weight_mode: str = "node_level"
    ls_hidden: int = 16
    alpha_hidden: int = 16
    dropout: float = 0.0

    def __post_init__(self):
        if self.num_layers < 1:
            raise InputError(f"num_layers must be >= 1, got {self.num_layers}")
        for name in ("in_dim", "hidden_dim", "num_classes", "ls_hidden", "alpha_hidden"):
            if getattr(self, name) < 1:
                raise InputError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.sim_kind not in SIM_KINDS:
            raise InputError(f"sim_kind must be one of {SIM_KINDS}, got {self.sim_kind!r}")
        if self.localsim_mode not in LOCALSIM_MODES:
            raise InputError(
                f"localsim_mode must be one of {LOCALSIM_MODES}, got {self.localsim_mode!r}"
            )
        if self.weight_mode not in WEIGHT_MODES:
            raise InputError(
                f"weight_mode must be one of {WEIGHT_MODES}, got {self.weight_mode!r}"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise InputError(f"dropout must lie in [0, 1), got {self.dropout}")

    @property
    def uses_localsim_mlp(self) -> bool:
        return self.weight_mode == "node_level" and self.localsim_mode == "refined"

    @property
    def uses_alpha_mlp(self) -> bool:
        return self.weight_mode == "node_level"


Params = dict[str, np.ndarray]


@functools.cache
def _channel_names(k: int) -> tuple[str, ...]:
    """The 2K+1 channel maps' parameter names, in channel order."""
    return ("w_in", *(f"w_{band}_{kk}" for band in ("low", "high") for kk in range(1, k + 1)))


def _parameter_shapes(config: ModelConfig) -> dict[str, tuple[tuple[int, ...], int]]:
    """Every parameter's (shape, fan_in), in the module docstring's key order."""
    k = config.num_layers
    d, z, c = config.in_dim, config.hidden_dim, config.num_classes
    table = {name: ((d, z), d) for name in _channel_names(k)}
    if config.uses_localsim_mlp:
        h = config.ls_hidden
        table.update(ls_w1=((2, h), 2), ls_b1=((h,), 2), ls_w2=((h, 1), h), ls_b2=((1,), h))
    if config.uses_alpha_mlp:
        h = config.alpha_hidden
        table.update(
            al_w1=((2, h), 2), al_b1=((h,), 2), al_w2=((h, 3 * k), h), al_b2=((3 * k,), h)
        )
    else:
        table["graph_alpha"] = ((3 * k,), 1)
    table["w_out"] = (((k + 1) * z, c), (k + 1) * z)
    return table


def init_parameters(config: ModelConfig, rng: np.random.Generator) -> Params:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) per array.

    Arrays are drawn in the fixed key order given in the module docstring,
    so two runs with equal seeds get bitwise-identical starting points.
    """
    params = {}
    for name, (shape, fan_in) in _parameter_shapes(config).items():
        bound = 1.0 / np.sqrt(fan_in)
        params[name] = rng.uniform(-bound, bound, size=shape)
    return params


def _squared_norm(params: Params) -> float:
    return float(sum((a * a).sum() for a in params.values()))


@dataclass(eq=False)
class ModelInputs:
    """Everything the forward pass reads: raw features, propagated layers,
    and per-edge similarity features cached once up front."""

    graph: SparseGraph
    x: np.ndarray
    stack: PropagationStack
    sim_kind: str
    edge_feats: np.ndarray
    phi_naive: np.ndarray
    entry_rows: np.ndarray
    inv_degrees: np.ndarray

    @classmethod
    def build(
        cls, graph: SparseGraph, x: np.ndarray, stack: PropagationStack, sim_kind: str
    ) -> "ModelInputs":
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.shape != (stack.num_nodes, stack.feature_dim):
            raise InputError(
                f"features {x.shape} do not match stack "
                f"({stack.num_nodes}, {stack.feature_dim})"
            )
        if graph.num_nodes != stack.num_nodes:
            raise InputError(
                f"graph has {graph.num_nodes} nodes, stack has {stack.num_nodes}"
            )
        if feature_digest(x) != stack.feature_digest:
            raise DigestMismatchError(
                "propagation stack was computed from a different feature matrix"
            )
        sims = edge_sim_values(graph, x, sim_kind)
        inv_deg = np.zeros(graph.num_nodes, dtype=np.float64)
        nz = graph.degrees > 0
        inv_deg[nz] = 1.0 / graph.degrees[nz]
        return cls(
            graph=graph,
            x=x,
            stack=stack,
            sim_kind=sim_kind,
            edge_feats=np.column_stack([sims, sims * sims]),
            phi_naive=neighborhood_mean(graph, sims),
            entry_rows=graph.entry_rows(),
            inv_degrees=inv_deg,
        )


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


@dataclass(eq=False)
class _Rows:
    """The part of `ModelInputs` that a pass over selected nodes reads.

    A node's output depends only on its own features, its own propagated
    rows and its own CSR entries (the precompute-then-MLP regime of SGC and
    SIGN), so a pass over these rows gives the selected rows of a full
    pass.  `index` selects the rows on the node axis; it is `slice(None)`
    when every node is selected, and the arrays are then views.
    """

    index: slice | np.ndarray
    num_nodes: int
    bases: list[np.ndarray]  # each channel's input rows, in channel order
    phi_naive: np.ndarray
    edge_feats: np.ndarray
    entry_slots: np.ndarray
    inv_degrees: np.ndarray


def _select_rows(
    config: ModelConfig, inputs: ModelInputs, mask: np.ndarray | None = None
) -> _Rows:
    """Gather the rows `mask` selects; None or an all-true mask copies nothing."""
    if inputs.sim_kind != config.sim_kind:
        raise InputError(
            f"inputs carry sim_kind={inputs.sim_kind!r} but config wants {config.sim_kind!r}"
        )
    n = inputs.graph.num_nodes
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (n,):
            raise InputError(f"mask has shape {mask.shape}, expected ({n},)")
    if mask is None or mask.all():
        index, entries, entry_slots = slice(None), slice(None), inputs.entry_rows
    else:
        index = np.flatnonzero(mask)
        # CSR entries are grouped by row in ascending order, like `index`.
        entries = np.flatnonzero(mask[inputs.entry_rows])
        entry_slots = np.repeat(np.arange(index.size), inputs.graph.degrees[index])
    stack = inputs.stack
    return _Rows(
        index=index,
        num_nodes=n,
        bases=[a[index] for a in (inputs.x, *stack.low, *stack.high)],
        phi_naive=inputs.phi_naive[index],
        edge_feats=inputs.edge_feats[entries],
        entry_slots=entry_slots,
        inv_degrees=inputs.inv_degrees[index],
    )


def _dropout(h: np.ndarray, p: float, rng: np.random.Generator | None, rows: _Rows):
    """Inverted dropout; returns (output, multiplier) with multiplier None
    when dropout is inactive.  The mask is drawn for all n nodes and then
    indexed to the selected rows, so the generator's stream does not depend
    on which rows a pass computes."""
    if rng is None or p == 0.0:
        return h, None
    draw = rng.random((rows.num_nodes, h.shape[1]))[rows.index]
    mult = (draw >= p).astype(np.float64) / (1.0 - p)
    return h * mult, mult


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shift = logits - logits.max(axis=1, keepdims=True)
    return shift - np.log(np.exp(shift).sum(axis=1, keepdims=True))


def _cross_entropy(log_probs: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of `labels` and its gradient with respect to the
    logits; no rows give 0 and an empty gradient."""
    m = labels.size
    picked = np.arange(m)
    loss = 0.0 if m == 0 else -float(log_probs[picked, labels].mean())
    dlogits = np.exp(log_probs)
    dlogits[picked, labels] -= 1.0
    if m:
        dlogits /= m
    return loss, dlogits


def _forward(
    params: Params,
    config: ModelConfig,
    rows: _Rows,
    dropout_rng: np.random.Generator | None,
) -> dict:
    """Forward pass over the selected rows; returns a cache with every
    array backward needs.

    Dropout draws happen in channel order, so a seeded generator
    reproduces runs exactly.
    """
    k, z = config.num_layers, config.hidden_dim
    n = rows.bases[0].shape[0]
    cache: dict = {}

    channels = []
    for name, basis in zip(_channel_names(k), rows.bases):
        pre = basis @ params[name]
        h, mult = _dropout(_relu(pre), config.dropout, dropout_rng, rows)
        channels.append((pre, h, mult))

    if config.weight_mode == "graph_level":
        alpha = np.broadcast_to(params["graph_alpha"], (n, 3 * k))
    else:
        if config.localsim_mode == "naive":
            phi = rows.phi_naive
        else:
            a1 = rows.edge_feats @ params["ls_w1"] + params["ls_b1"]
            r1 = _relu(a1)
            s = r1 @ params["ls_w2"][:, 0] + params["ls_b2"][0]
            sums = np.bincount(rows.entry_slots, weights=s, minlength=n)
            phi = sums * rows.inv_degrees
            cache.update(ls_a1=a1, ls_r1=r1)
        psi = np.column_stack([phi, phi * phi])
        b1 = psi @ params["al_w1"] + params["al_b1"]
        q1 = _relu(b1)
        alpha = q1 @ params["al_w2"] + params["al_b2"]
        cache.update(phi=phi, psi=psi, al_b1=b1, al_q1=q1)
    cache["alpha"] = alpha

    # Each fused block is summed in contiguous temporaries and written
    # once; accumulating into the strided block in place is slower.
    hidden = [h for _, h, _ in channels]
    feats = np.empty((n, (k + 1) * z), dtype=np.float64)
    feats[:, :z] = hidden[0]
    for kk in range(k):
        feats[:, (kk + 1) * z : (kk + 2) * z] = (
            alpha[:, kk, None] * hidden[0]
            + alpha[:, k + kk, None] * hidden[1 + kk]
            + alpha[:, 2 * k + kk, None] * hidden[1 + k + kk]
        )
    log_probs = _log_softmax(feats @ params["w_out"])
    cache.update(channels=channels, feats=feats, log_probs=log_probs)
    return cache


def predict_proba(
    params: Params, config: ModelConfig, inputs: ModelInputs
) -> np.ndarray:
    """Class probabilities with dropout off; rows sum to 1."""
    rows = _select_rows(config, inputs)
    return np.exp(_forward(params, config, rows, dropout_rng=None)["log_probs"])


def predict(params: Params, config: ModelConfig, inputs: ModelInputs) -> np.ndarray:
    return predict_proba(params, config, inputs).argmax(axis=1)


def evaluate(
    params: Params,
    config: ModelConfig,
    inputs: ModelInputs,
    labels: np.ndarray,
    mask: np.ndarray,
) -> float:
    """Accuracy over the masked nodes, computed from those rows alone."""
    rows = _select_rows(config, inputs, mask)
    probs = np.exp(_forward(params, config, rows, dropout_rng=None)["log_probs"])
    return _accuracy(probs.argmax(axis=1), labels[rows.index])


def _accuracy(pred: np.ndarray, labels: np.ndarray) -> float:
    if not pred.size:
        raise InputError("mask selects no nodes")
    return float((pred == labels).mean())


def loss_and_gradients(
    params: Params,
    config: ModelConfig,
    inputs: ModelInputs,
    labels: np.ndarray,
    mask: np.ndarray,
    weight_decay: float = 0.0,
    dropout_rng: np.random.Generator | None = None,
) -> tuple[float, Params]:
    """Mean cross-entropy over masked nodes plus L2 penalty, with exact
    gradients for every trainable array.

    The L2 term is weight_decay / 2 times the squared norm of all
    parameters, biases and mixing weights included.  An empty mask leaves
    only the decay term, with zero data gradient.  Only the masked rows are
    computed; dropout still draws a mask for every node.
    """
    k, z = config.num_layers, config.hidden_dim
    rows = _select_rows(config, inputs, mask)
    labels = labels[rows.index]
    cache = _forward(params, config, rows, dropout_rng)
    m_count = labels.size
    ce, dlogits = _cross_entropy(cache["log_probs"], labels)
    loss = ce + 0.5 * weight_decay * _squared_norm(params)

    # Keys in parameter order; each is assigned below.
    grads = dict.fromkeys(params)
    grads["w_out"] = cache["feats"].T @ dlogits
    dblocks = (dlogits @ params["w_out"].T).reshape(m_count, k + 1, z)

    # Each channel's gradient, in the fusion's layout (module docstring).
    alpha = cache["alpha"]
    dalpha = np.empty((m_count, 3 * k), dtype=np.float64)
    for c, (name, basis) in enumerate(zip(_channel_names(k), rows.bases)):
        pre, h, mult = cache["channels"][c]
        if c == 0:
            dh = dblocks[:, 0].copy()
            for kk in range(k):
                dz = dblocks[:, kk + 1]
                dalpha[:, kk] = (dz * h).sum(axis=1)
                dh += alpha[:, kk, None] * dz
        else:
            col = k + c - 1
            dz = dblocks[:, 1 + (c - 1) % k]
            dalpha[:, col] = (dz * h).sum(axis=1)
            dh = alpha[:, col, None] * dz
        if mult is not None:
            dh = dh * mult
        grads[name] = basis.T @ (dh * (pre > 0.0))

    if config.weight_mode == "graph_level":
        grads["graph_alpha"] = dalpha.sum(axis=0)
    else:
        q1 = cache["al_q1"]
        grads["al_w2"] = q1.T @ dalpha
        grads["al_b2"] = dalpha.sum(axis=0)
        dq1 = dalpha @ params["al_w2"].T
        db1 = dq1 * (cache["al_b1"] > 0.0)
        grads["al_w1"] = cache["psi"].T @ db1
        grads["al_b1"] = db1.sum(axis=0)
        dpsi = db1 @ params["al_w1"].T
        dphi = dpsi[:, 0] + 2.0 * cache["phi"] * dpsi[:, 1]
        if config.localsim_mode == "refined":
            # Each entry's score feeds its row's mean, so the incoming
            # gradient splits by 1/degree.
            ds = dphi[rows.entry_slots] * rows.inv_degrees[rows.entry_slots]
            r1 = cache["ls_r1"]
            grads["ls_w2"] = (r1.T @ ds)[:, None]
            grads["ls_b2"] = ds.sum(keepdims=True)
            dr1 = ds[:, None] * params["ls_w2"][:, 0][None, :]
            da1 = dr1 * (cache["ls_a1"] > 0.0)
            grads["ls_w1"] = rows.edge_feats.T @ da1
            grads["ls_b1"] = da1.sum(axis=0)

    if weight_decay != 0.0:
        for name, g in grads.items():
            g += weight_decay * params[name]
    return loss, grads


_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


class Adam:
    """Standard Adam with bias correction; state is keyed by array name."""

    def __init__(self, lr: float):
        self.lr = lr
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, params: Params, grads: Params) -> None:
        """Update every array of `params` in place from `grads[name]`."""
        self.t += 1
        b1, b2 = _ADAM_BETA1, _ADAM_BETA2
        correct1 = 1.0 - b1**self.t
        correct2 = 1.0 - b2**self.t
        for name, p in params.items():
            g = grads[name]
            if name not in self._m:
                self._m[name] = np.zeros_like(p)
                self._v[name] = np.zeros_like(p)
            m = self._m[name]
            v = self._v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p -= self.lr * (m / correct1) / (np.sqrt(v / correct2) + _ADAM_EPS)


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.01
    weight_decay: float = 5e-4
    epochs: int = 200
    patience: int = 40
    seed: int = 0


@dataclass(eq=False)
class TrainResult:
    params: Params
    history: list[tuple[int, float, float]]
    best_epoch: int
    best_val_acc: float


def _fit(
    params: Params,
    train_config: TrainConfig,
    loss_and_grads: Callable[[Params], tuple[float, Params]],
    val_accuracy: Callable[[Params], float],
) -> TrainResult:
    """The Adam and early-stopping loop of `train` and `train_linear`.

    Updates `params` in place and returns copies of the best validation
    epoch's arrays.
    """
    opt = Adam(train_config.lr)
    # Copy every array: Adam updates them in place, so a shallow dict copy
    # would follow the last epoch.
    best = {name: a.copy() for name, a in params.items()}
    best_val = -np.inf
    best_epoch = -1
    history: list[tuple[int, float, float]] = []
    for epoch in range(train_config.epochs):
        loss, grads = loss_and_grads(params)
        if not np.isfinite(loss):
            raise TrainingDivergedError(epoch, train_config.lr)
        opt.step(params, grads)
        val_acc = val_accuracy(params)
        history.append((epoch, loss, val_acc))
        if val_acc > best_val:
            best_val = val_acc
            best_epoch = epoch
            best = {name: a.copy() for name, a in params.items()}
        elif epoch - best_epoch >= train_config.patience:
            break
    return TrainResult(params=best, history=history, best_epoch=best_epoch, best_val_acc=best_val)


def train(
    config: ModelConfig,
    train_config: TrainConfig,
    inputs: ModelInputs,
    labels: np.ndarray,
    train_mask: np.ndarray,
    val_mask: np.ndarray,
) -> TrainResult:
    """Full-batch Adam with early stopping on validation accuracy.

    Returns the parameters from the best validation epoch, not the last
    one.  Training halts once `patience` epochs pass without a new best.
    A non-finite loss raises TrainingDivergedError immediately.  Dropout
    masks come from the seeded generator, after the initial draws.
    """
    rng = np.random.default_rng(train_config.seed)
    params = init_parameters(config, rng)
    dropout_rng = rng if config.dropout > 0.0 else None
    return _fit(
        params,
        train_config,
        lambda p: loss_and_gradients(
            p,
            config,
            inputs,
            labels,
            train_mask,
            weight_decay=train_config.weight_decay,
            dropout_rng=dropout_rng,
        ),
        lambda p: evaluate(p, config, inputs, labels, val_mask),
    )


# --- checkpoint serialization ---------------------------------------------


def _write_array(fh: BinaryIO, name: str, arr: np.ndarray) -> None:
    encoded = name.encode("utf-8")
    fh.write(struct.pack("<H", len(encoded)))
    fh.write(encoded)
    fh.write(struct.pack("<B", arr.ndim))
    for dim in arr.shape:
        fh.write(struct.pack("<Q", dim))
    fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes(order="C"))


def _read_array(reader: _ArtifactReader) -> tuple[str, np.ndarray]:
    (name_len,) = struct.unpack("<H", reader.read(2, "array name length"))
    name = reader.read(name_len, "array name").decode("utf-8")
    (ndim,) = struct.unpack("<B", reader.read(1, "array rank"))
    shape = tuple(
        struct.unpack("<Q", reader.read(8, "array dim"))[0] for _ in range(ndim)
    )
    raw = reader.read(math.prod(shape) * 8, f"array {name} dims {shape}")
    return name, np.frombuffer(raw, dtype="<f8").reshape(shape).copy()


_CONFIG_PACK = "<IIIIIIIBBBd"


def save_checkpoint(path, config: ModelConfig, params: Params) -> None:
    """Write config plus every named array to the LSPM binary format."""
    with _atomic_write(path) as fh:
        fh.write(_MAGIC)
        fh.write(
            struct.pack(
                _CONFIG_PACK,
                _VERSION,
                config.num_layers,
                config.in_dim,
                config.hidden_dim,
                config.num_classes,
                config.ls_hidden,
                config.alpha_hidden,
                SIM_KINDS.index(config.sim_kind),
                LOCALSIM_MODES.index(config.localsim_mode),
                WEIGHT_MODES.index(config.weight_mode),
                config.dropout,
            )
        )
        fh.write(struct.pack("<I", len(params)))
        for name, arr in params.items():
            _write_array(fh, name, arr)


def load_checkpoint(path) -> tuple[ModelConfig, Params]:
    """Read an LSPM file; array names and shapes must match the config."""
    with open(path, "rb") as fh:
        reader = _ArtifactReader(fh, _MAGIC)
        header = reader.read(struct.calcsize(_CONFIG_PACK), "config header")
        (
            version,
            num_layers,
            in_dim,
            hidden_dim,
            num_classes,
            ls_hidden,
            alpha_hidden,
            sim_tag,
            ls_tag,
            wm_tag,
            dropout,
        ) = struct.unpack(_CONFIG_PACK, header)
        if version != _VERSION:
            raise reader.error(f"unsupported checkpoint version {version}")
        try:
            config = ModelConfig(
                num_layers=num_layers,
                in_dim=in_dim,
                hidden_dim=hidden_dim,
                num_classes=num_classes,
                sim_kind=SIM_KINDS[sim_tag],
                localsim_mode=LOCALSIM_MODES[ls_tag],
                weight_mode=WEIGHT_MODES[wm_tag],
                ls_hidden=ls_hidden,
                alpha_hidden=alpha_hidden,
                dropout=dropout,
            )
        except (IndexError, InputError) as exc:
            raise reader.error(f"invalid config in checkpoint: {exc}") from exc
        (count,) = struct.unpack("<I", reader.read(4, "array count"))
        if 2 * num_layers + 1 > count:
            raise reader.error(
                f"config needs {2 * num_layers + 1} channel maps for num_layers="
                f"{num_layers}, but the file holds {count} arrays"
            )
        arrays = dict(_read_array(reader) for _ in range(count))
        reader.finish("final array")

    expected = _parameter_shapes(config)
    if sorted(arrays) != sorted(expected):
        raise FormatError(
            f"{path}: checkpoint arrays {sorted(arrays)} do not match config "
            f"expectation {sorted(expected)}"
        )
    for name, (shape, _) in expected.items():
        if arrays[name].shape != shape:
            raise FormatError(
                f"{path}: array {name} has shape {arrays[name].shape}, expected {shape}"
            )
    return config, {name: arrays[name] for name in expected}


# --- plain linear softmax head --------------------------------------------


def _linear_log_probs(params: Params, features: np.ndarray) -> np.ndarray:
    return _log_softmax(features @ params["w"] + params["b"])


def linear_predict(params: Params, features: np.ndarray) -> np.ndarray:
    return _linear_log_probs(params, features).argmax(axis=1)


def linear_accuracy(
    params: Params, features: np.ndarray, labels: np.ndarray, mask: np.ndarray
) -> float:
    return _accuracy(linear_predict(params, features[mask]), labels[mask])


def train_linear(
    features: np.ndarray,
    labels: np.ndarray,
    num_classes: int,
    train_config: TrainConfig,
    train_mask: np.ndarray,
    val_mask: np.ndarray,
) -> Params:
    """Fit the softmax regression head `{"w", "b"}` used by the raw-feature
    and deep-filter baselines, with the same Adam + early-stopping loop as
    the full model; returns best-validation parameters."""
    features = np.ascontiguousarray(features, dtype=np.float64)
    d = features.shape[1]
    rng = np.random.default_rng(train_config.seed)
    bound = 1.0 / np.sqrt(d)
    params = {
        "w": rng.uniform(-bound, bound, size=(d, num_classes)),
        "b": rng.uniform(-bound, bound, size=(num_classes,)),
    }
    rows = np.flatnonzero(train_mask)
    if rows.size == 0:
        raise InputError("train mask selects no nodes")
    x_train, y_train = features[rows], labels[rows]
    x_val, y_val = features[val_mask], labels[val_mask]
    wd = train_config.weight_decay

    def loss_and_grads(p: Params) -> tuple[float, Params]:
        loss, dlogits = _cross_entropy(_linear_log_probs(p, x_train), y_train)
        loss += 0.5 * wd * _squared_norm(p)
        grads = {
            "w": x_train.T @ dlogits + wd * p["w"],
            "b": dlogits.sum(axis=0) + wd * p["b"],
        }
        return loss, grads

    return _fit(
        params,
        train_config,
        loss_and_grads,
        lambda p: _accuracy(linear_predict(p, x_val), y_val),
    ).params
