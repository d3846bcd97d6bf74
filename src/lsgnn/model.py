"""Node classifier over precomputed propagation stacks.

Three channel families feed the classifier: the raw features through a
linear+ReLU map, and the low/high-pass propagated layers each through
their own linear+ReLU maps.  A small MLP turns each node's local
similarity into per-node, per-depth mixing weights, the weighted channels
are concatenated with the identity channel, and a linear layer produces
class logits.

Parameters are one ordered `dict[str, np.ndarray]`: `w_in`, `w_low_1..K`,
`w_high_1..K`, then `ls_w1, ls_b1, ls_w2, ls_b2` (refined local
similarity), `al_w1, al_b1, al_w2, al_b2` (node-level weights) or
`graph_alpha` (graph-level weights), then `w_out`.  That order is fixed;
the initializer's draws, the optimizer, the checkpoint format and the
finite-difference tests all rely on it.

Gradients are derived by hand and verified against central finite
differences in the test suite; there is no autograd dependency.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import BinaryIO, Callable

import numpy as np

from .errors import DigestMismatchError, FormatError, InputError, TrainingDivergedError
from .graph import SparseGraph
from .localsim import SIM_KINDS, edge_sim_values, neighborhood_mean
from .propagation import PropagationStack, feature_digest

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


def init_parameters(config: ModelConfig, rng: np.random.Generator) -> Params:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) per array.

    Arrays are drawn in the fixed key order given in the module docstring,
    so two runs with equal seeds get bitwise-identical starting points.
    """

    def u(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    k = config.num_layers
    d, z, c = config.in_dim, config.hidden_dim, config.num_classes
    params = {"w_in": u((d, z), d)}
    for branch in ("low", "high"):
        for kk in range(1, k + 1):
            params[f"w_{branch}_{kk}"] = u((d, z), d)
    if config.uses_localsim_mlp:
        h = config.ls_hidden
        params.update(
            ls_w1=u((2, h), 2), ls_b1=u((h,), 2), ls_w2=u((h, 1), h), ls_b2=u((1,), h)
        )
    if config.uses_alpha_mlp:
        h = config.alpha_hidden
        params.update(
            al_w1=u((2, h), 2),
            al_b1=u((h,), 2),
            al_w2=u((h, 3 * k), h),
            al_b2=u((3 * k,), h),
        )
    else:
        params["graph_alpha"] = u((3 * k,), 1)
    params["w_out"] = u(((k + 1) * z, c), (k + 1) * z)
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


def _dropout(h: np.ndarray, p: float, rng: np.random.Generator | None):
    """Inverted dropout; returns (output, multiplier) with multiplier None
    when dropout is inactive."""
    if rng is None or p == 0.0:
        return h, None
    keep = 1.0 - p
    mult = (rng.random(h.shape) >= p).astype(np.float64) / keep
    return h * mult, mult


def _forward(
    params: Params,
    config: ModelConfig,
    inputs: ModelInputs,
    dropout_rng: np.random.Generator | None,
) -> dict:
    """Full forward pass; returns a cache with every array backward needs.

    Dropout draws happen in a fixed order (identity, low 1..K, high 1..K)
    so a seeded generator reproduces runs exactly.
    """
    if inputs.sim_kind != config.sim_kind:
        raise InputError(
            f"inputs carry sim_kind={inputs.sim_kind!r} but config wants {config.sim_kind!r}"
        )
    k, z = config.num_layers, config.hidden_dim
    n = inputs.graph.num_nodes
    cache: dict = {}

    pre_i = inputs.x @ params["w_in"]
    h_i, m_i = _dropout(_relu(pre_i), config.dropout, dropout_rng)
    cache["pre_i"], cache["h_i"], cache["m_i"] = pre_i, h_i, m_i

    pre_l, h_l, m_l = [], [], []
    for kk in range(k):
        p = inputs.stack.low[kk] @ params[f"w_low_{kk + 1}"]
        h, m = _dropout(_relu(p), config.dropout, dropout_rng)
        pre_l.append(p)
        h_l.append(h)
        m_l.append(m)
    pre_h, h_h, m_h = [], [], []
    for kk in range(k):
        p = inputs.stack.high[kk] @ params[f"w_high_{kk + 1}"]
        h, m = _dropout(_relu(p), config.dropout, dropout_rng)
        pre_h.append(p)
        h_h.append(h)
        m_h.append(m)
    cache.update(pre_l=pre_l, h_l=h_l, m_l=m_l, pre_h=pre_h, h_h=h_h, m_h=m_h)

    if config.weight_mode == "graph_level":
        alpha = np.broadcast_to(params["graph_alpha"], (n, 3 * k))
    else:
        if config.localsim_mode == "naive":
            phi = inputs.phi_naive
        else:
            a1 = inputs.edge_feats @ params["ls_w1"] + params["ls_b1"]
            r1 = _relu(a1)
            s = r1 @ params["ls_w2"][:, 0] + params["ls_b2"][0]
            sums = np.bincount(inputs.entry_rows, weights=s, minlength=n)
            phi = sums * inputs.inv_degrees
            cache.update(ls_a1=a1, ls_r1=r1)
        psi = np.column_stack([phi, phi * phi])
        b1 = psi @ params["al_w1"] + params["al_b1"]
        q1 = _relu(b1)
        alpha = q1 @ params["al_w2"] + params["al_b2"]
        cache.update(phi=phi, psi=psi, al_b1=b1, al_q1=q1)
    cache["alpha"] = alpha

    feats = np.empty((n, (k + 1) * z), dtype=np.float64)
    feats[:, :z] = h_i
    for kk in range(k):
        a_i = alpha[:, kk : kk + 1]
        a_l = alpha[:, k + kk : k + kk + 1]
        a_h = alpha[:, 2 * k + kk : 2 * k + kk + 1]
        feats[:, (kk + 1) * z : (kk + 2) * z] = a_i * h_i + a_l * h_l[kk] + a_h * h_h[kk]
    logits = feats @ params["w_out"]
    shift = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shift)
    log_probs = shift - np.log(exp.sum(axis=1, keepdims=True))
    cache.update(feats=feats, log_probs=log_probs, probs=np.exp(log_probs))
    return cache


def predict_proba(
    params: Params, config: ModelConfig, inputs: ModelInputs
) -> np.ndarray:
    """Class probabilities with dropout off; rows sum to 1."""
    return _forward(params, config, inputs, dropout_rng=None)["probs"]


def predict(params: Params, config: ModelConfig, inputs: ModelInputs) -> np.ndarray:
    return predict_proba(params, config, inputs).argmax(axis=1)


def evaluate(
    params: Params,
    config: ModelConfig,
    inputs: ModelInputs,
    labels: np.ndarray,
    mask: np.ndarray,
) -> float:
    """Accuracy over the masked nodes."""
    return _masked_accuracy(predict(params, config, inputs), labels, mask)


def _masked_accuracy(pred: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> float:
    if not np.count_nonzero(mask):
        raise InputError("mask selects no nodes")
    return float((pred[mask] == labels[mask]).mean())


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
    only the decay term, with zero data gradient.
    """
    k, z = config.num_layers, config.hidden_dim
    n = inputs.graph.num_nodes
    cache = _forward(params, config, inputs, dropout_rng)
    m_count = int(np.count_nonzero(mask))
    log_probs = cache["log_probs"]
    ce = 0.0 if m_count == 0 else -float(log_probs[mask, labels[mask]].mean())
    loss = ce + 0.5 * weight_decay * _squared_norm(params)

    # Keys in parameter order; each is assigned below.
    grads = dict.fromkeys(params)

    dlogits = np.zeros_like(cache["probs"])
    if m_count:
        dlogits[mask] = cache["probs"][mask]
        dlogits[mask, labels[mask]] -= 1.0
        dlogits /= m_count

    feats = cache["feats"]
    grads["w_out"] = feats.T @ dlogits
    dfeats = dlogits @ params["w_out"].T

    alpha = cache["alpha"]
    h_i, h_l, h_h = cache["h_i"], cache["h_l"], cache["h_h"]
    dh_i = dfeats[:, :z].copy()
    dh_l = []
    dh_h = []
    dalpha = np.zeros((n, 3 * k), dtype=np.float64)
    for kk in range(k):
        dz = dfeats[:, (kk + 1) * z : (kk + 2) * z]
        dalpha[:, kk] = (dz * h_i).sum(axis=1)
        dalpha[:, k + kk] = (dz * h_l[kk]).sum(axis=1)
        dalpha[:, 2 * k + kk] = (dz * h_h[kk]).sum(axis=1)
        dh_i += alpha[:, kk : kk + 1] * dz
        dh_l.append(alpha[:, k + kk : k + kk + 1] * dz)
        dh_h.append(alpha[:, 2 * k + kk : 2 * k + kk + 1] * dz)

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
            ds = dphi[inputs.entry_rows] * inputs.inv_degrees[inputs.entry_rows]
            r1 = cache["ls_r1"]
            grads["ls_w2"] = (r1.T @ ds)[:, None]
            grads["ls_b2"] = ds.sum(keepdims=True)
            dr1 = ds[:, None] * params["ls_w2"][:, 0][None, :]
            da1 = dr1 * (cache["ls_a1"] > 0.0)
            grads["ls_w1"] = inputs.edge_feats.T @ da1
            grads["ls_b1"] = da1.sum(axis=0)

    def channel_back(dh, mult, pre, basis):
        if mult is not None:
            dh = dh * mult
        dpre = dh * (pre > 0.0)
        return basis.T @ dpre

    grads["w_in"] = channel_back(dh_i, cache["m_i"], cache["pre_i"], inputs.x)
    for kk in range(k):
        grads[f"w_low_{kk + 1}"] = channel_back(
            dh_l[kk], cache["m_l"][kk], cache["pre_l"][kk], inputs.stack.low[kk]
        )
        grads[f"w_high_{kk + 1}"] = channel_back(
            dh_h[kk], cache["m_h"][kk], cache["pre_h"][kk], inputs.stack.high[kk]
        )

    if weight_decay != 0.0:
        for name, g in grads.items():
            g += weight_decay * params[name]
    return loss, grads


class Adam:
    """Standard Adam with bias correction; state is keyed by array name."""

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, params: Params, grads: Params) -> None:
        """Update every array of `params` in place from `grads[name]`."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
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
            p -= self.lr * (m / correct1) / (np.sqrt(v / correct2) + self.eps)


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


def _read_exact(fh: BinaryIO, size: int, what: str) -> bytes:
    data = fh.read(size)
    if len(data) != size:
        raise FormatError(f"truncated checkpoint: expected {size} bytes for {what}")
    return data


def _read_array(fh: BinaryIO) -> tuple[str, np.ndarray]:
    (name_len,) = struct.unpack("<H", _read_exact(fh, 2, "array name length"))
    name = _read_exact(fh, name_len, "array name").decode("utf-8")
    (ndim,) = struct.unpack("<B", _read_exact(fh, 1, "array rank"))
    shape = tuple(
        struct.unpack("<Q", _read_exact(fh, 8, "array dim"))[0] for _ in range(ndim)
    )
    count = int(np.prod(shape)) if shape else 1
    raw = _read_exact(fh, count * 8, f"array {name}")
    return name, np.frombuffer(raw, dtype="<f8").reshape(shape).copy()


_CONFIG_PACK = "<IIIIIIIBBBd"


def save_checkpoint(path, config: ModelConfig, params: Params) -> None:
    """Write config plus every named array to the LSPM binary format."""
    with open(path, "wb") as fh:
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
        magic = _read_exact(fh, 4, "magic")
        if magic != _MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {_MAGIC!r}")
        header = _read_exact(fh, struct.calcsize(_CONFIG_PACK), "config header")
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
            raise FormatError(f"unsupported checkpoint version {version}")
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
            raise FormatError(f"invalid config in checkpoint: {exc}") from exc
        (count,) = struct.unpack("<I", _read_exact(fh, 4, "array count"))
        arrays = dict(_read_array(fh) for _ in range(count))
        if fh.read(1):
            raise FormatError("trailing bytes after final array")

    template = init_parameters(config, np.random.default_rng(0))
    if sorted(arrays) != sorted(template):
        raise FormatError(
            f"checkpoint arrays {sorted(arrays)} do not match config "
            f"expectation {sorted(template)}"
        )
    for name, ref in template.items():
        if arrays[name].shape != ref.shape:
            raise FormatError(
                f"array {name} has shape {arrays[name].shape}, expected {ref.shape}"
            )
    return config, {name: arrays[name] for name in template}


# --- plain linear softmax head --------------------------------------------


def _linear_log_probs(params: Params, features: np.ndarray) -> np.ndarray:
    logits = features @ params["w"]
    if "b" in params:
        logits = logits + params["b"]
    shift = logits - logits.max(axis=1, keepdims=True)
    return shift - np.log(np.exp(shift).sum(axis=1, keepdims=True))


def linear_predict(params: Params, features: np.ndarray) -> np.ndarray:
    return _linear_log_probs(params, features).argmax(axis=1)


def linear_accuracy(
    params: Params, features: np.ndarray, labels: np.ndarray, mask: np.ndarray
) -> float:
    return _masked_accuracy(linear_predict(params, features), labels, mask)


def train_linear(
    features: np.ndarray,
    labels: np.ndarray,
    num_classes: int,
    train_config: TrainConfig,
    train_mask: np.ndarray,
    val_mask: np.ndarray,
    bias: bool = True,
) -> Params:
    """Fit the softmax regression head `{"w", "b"}` (no "b" without bias)
    used by the raw-feature and deep-filter baselines, with the same Adam +
    early-stopping loop as the full model; returns best-validation
    parameters."""
    features = np.ascontiguousarray(features, dtype=np.float64)
    n, d = features.shape
    rng = np.random.default_rng(train_config.seed)
    bound = 1.0 / np.sqrt(d)
    params = {"w": rng.uniform(-bound, bound, size=(d, num_classes))}
    if bias:
        params["b"] = rng.uniform(-bound, bound, size=(num_classes,))
    m_count = int(np.count_nonzero(train_mask))
    if m_count == 0:
        raise InputError("train mask selects no nodes")
    wd = train_config.weight_decay

    def loss_and_grads(p: Params) -> tuple[float, Params]:
        log_probs = _linear_log_probs(p, features)
        loss = -float(log_probs[train_mask, labels[train_mask]].mean())
        loss += 0.5 * wd * _squared_norm(p)
        dlogits = np.zeros_like(log_probs)
        dlogits[train_mask] = np.exp(log_probs[train_mask])
        dlogits[train_mask, labels[train_mask]] -= 1.0
        dlogits /= m_count
        grads = {"w": features.T @ dlogits + wd * p["w"]}
        if "b" in p:
            grads["b"] = dlogits.sum(axis=0) + wd * p["b"]
        return loss, grads

    return _fit(
        params,
        train_config,
        loss_and_grads,
        lambda p: linear_accuracy(p, features, labels, val_mask),
    ).params
