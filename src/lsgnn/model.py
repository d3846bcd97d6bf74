"""Node classifier over precomputed propagation stacks.

The classifier reads 2K+1 channels per node, kept as one list in draw
order: the raw features (`w_in`), the K low-pass propagated layers
(`w_low_1..K`) and the K high-pass layers (`w_high_1..K`), each through
its own linear+ReLU map; dropout, when training with it, scales each
map's ReLU output in place.  A small MLP turns each node's local
similarity into per-node mixing weights α with 3K columns; column j·K + kk
weights term j (identity, low kk+1, high kk+1) of fused block kk + 1, and
block 0 is the identity channel alone.  A linear layer `w_out` over the
K+1 blocks produces class logits.

The fusion runs in logit space.  Each α column is a per-row scalar, so
a block's share of the logits is the α-weighted sum of its channels'
projections through that block of `w_out`.  The identity channel is
projected through all K+1 blocks in one product (weight 1 in block 0,
column kk in block kk + 1).  Channel c >= 1 is projected through block
1 + (c - 1) mod K alone, weighted by column K + c - 1.  Neither pass
builds the (rows, (K+1)·z) fused features.

Parameters are one ordered `dict[str, np.ndarray]`: the channel maps in
channel order, then `ls_w1, ls_b1, ls_w2, ls_b2` (refined local
similarity), `al_w1, al_b1, al_w2, al_b2` (node-level weights) or
`graph_alpha` (graph-level weights), then `w_out`.  That order is fixed;
the initializer's draws, the optimizer, the checkpoint format and the
finite-difference tests all rely on it.

Every pass reads the rows a `_Rows` selects: `_Rows.index` indexes the
node axis.  It is a slice for consecutive rows (every row, or one
inference block), so those arrays are views of the inputs rather than
copies.  Inference (`predict_proba`, `evaluate`) runs in fixed blocks of
`_BLOCK_ROWS` selected rows with dropout off and keeps only each block's
probabilities.  Its forward pass builds no backward cache: it computes α,
then gathers each channel's input rows and computes its map in turn, adds
that map's projection to the logits and drops both, so a block holds one
(rows, z) map, not 2K+1.

While `train` runs, its selection is kept on the `ModelInputs`: a copy
of the train mask, the selected rows gathered once, and the work arrays
every epoch's `loss_and_gradients` writes into (2K+1 channel maps, one
backward map, the (n, z) dropout buffer and the refined local-similarity
activations).  That is about (2K+1)·m·(d + z) floats for m selected rows,
plus the dropout buffer, so steady-state epochs allocate no row-sized
arrays.  `train` releases the selection when it returns or raises; a
`loss_and_gradients` call outside a training gathers its rows for that
call only and keeps nothing.

Gradients are derived by hand and verified against central finite
differences in the test suite; there is no autograd dependency.
"""

from __future__ import annotations

import contextlib
import functools
import reprlib
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .errors import DigestMismatchError, FormatError, InputError, TrainingDivergedError
from .graph import SparseGraph
from .localsim import SIM_KINDS, edge_sim_values, neighborhood_mean
from .propagation import (
    PropagationConfig,
    PropagationStack,
    _read_artifact,
    _write_artifact,
    feature_digest,
)

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
    and per-edge similarity features cached once up front.  A running
    training's selection (module docstring) is kept here too."""

    graph: SparseGraph
    x: np.ndarray
    stack: PropagationStack
    sim_kind: str
    edge_feats: np.ndarray
    phi_naive: np.ndarray
    inv_degrees: np.ndarray
    _selection: _Selection | None = field(default=None, init=False, repr=False)

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
            inv_degrees=inv_deg,
        )


@dataclass(eq=False)
class _Rows:
    """The part of `ModelInputs` that a pass over selected nodes reads.

    A node's output depends only on its own features, its own propagated
    rows and its own CSR entries (the precompute-then-MLP regime of SGC and
    SIGN), so a pass over these rows gives the selected rows of a full
    pass.  `index` selects the rows on the node axis, in ascending order;
    when it is a slice the arrays are views.  Channel inputs are read
    through `basis`: `bases` holds either the selected rows already
    gathered or every row, with `basis_rows` gathering them on each read.
    """

    index: slice | np.ndarray
    num_nodes: int
    bases: list[np.ndarray]  # each channel's input, in channel order
    basis_rows: slice | np.ndarray
    phi_naive: np.ndarray
    edge_feats: np.ndarray
    entry_slots: np.ndarray
    inv_degrees: np.ndarray

    @property
    def size(self) -> int:
        return self.phi_naive.shape[0]

    def basis(self, ch: int) -> np.ndarray:
        return self.bases[ch][self.basis_rows]


def _row_index(
    config: ModelConfig, inputs: ModelInputs, mask: np.ndarray | None = None
) -> slice | np.ndarray:
    """The rows `mask` selects: `slice(None)` for None or an all-true mask,
    otherwise their ascending indices."""
    if inputs.sim_kind != config.sim_kind:
        raise InputError(
            f"inputs carry sim_kind={inputs.sim_kind!r} but config wants {config.sim_kind!r}"
        )
    if mask is None:
        return slice(None)
    n = inputs.graph.num_nodes
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (n,):
        raise InputError(f"mask has shape {mask.shape}, expected ({n},)")
    return slice(None) if mask.all() else np.flatnonzero(mask)


def _select_rows(inputs: ModelInputs, index: slice | np.ndarray, gather: bool) -> _Rows:
    """The rows `index` selects (ascending); a slice copies nothing.  With
    `gather`, every channel's input rows are copied now; without, each
    `basis` read gathers one channel's rows."""
    graph = inputs.graph
    n = graph.num_nodes
    degrees = graph.degrees[index]
    entry_slots = np.repeat(np.arange(degrees.size), degrees)
    if isinstance(index, slice):
        start, stop, _ = index.indices(n)
        entries = slice(graph.row_offsets[start], graph.row_offsets[stop])
    else:
        # CSR entries are grouped by row in ascending order, like `index`:
        # slot i's entries are row_offsets[index[i]] onwards.
        firsts = graph.row_offsets[index] - (np.cumsum(degrees) - degrees)
        entries = firsts[entry_slots] + np.arange(entry_slots.size)
    bases = [inputs.x, *inputs.stack.low, *inputs.stack.high]
    if gather:
        bases, basis_rows = [a[index] for a in bases], slice(None)
    else:
        basis_rows = index
    return _Rows(
        index=index,
        num_nodes=n,
        bases=bases,
        basis_rows=basis_rows,
        phi_naive=inputs.phi_naive[index],
        edge_feats=inputs.edge_feats[entries],
        entry_slots=entry_slots,
        inv_degrees=inputs.inv_degrees[index],
    )


@dataclass(eq=False)
class _Selection:
    """A training mask's rows, gathered once, and the work arrays that
    every pass over them writes into, by name."""

    mask: np.ndarray
    rows: _Rows
    work: dict[str, np.ndarray] = field(default_factory=dict)


def _selection(config: ModelConfig, inputs: ModelInputs, mask: np.ndarray) -> _Selection:
    """The selection kept on `inputs` when its mask has the same contents
    as `mask`; otherwise a new one, which is not kept."""
    index = _row_index(config, inputs, mask)
    kept = inputs._selection
    if kept is not None and np.array_equal(kept.mask, mask):
        return kept
    rows = _select_rows(inputs, index, gather=True)
    return _Selection(mask=np.array(mask, dtype=bool), rows=rows)


@contextlib.contextmanager
def _kept_selection(config: ModelConfig, inputs: ModelInputs, mask: np.ndarray):
    """Keep `mask`'s selection on `inputs` for the passes inside the block;
    it is released on exit, also when the block raises."""
    inputs._selection = None  # free any old rows before gathering new ones
    inputs._selection = _selection(config, inputs, mask)
    try:
        yield
    finally:
        inputs._selection = None


def _buffer(work: dict[str, np.ndarray] | None, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """`work[name]`, reallocated only when its shape changes; a new array
    when there is no `work`.  Its contents are undefined."""
    if work is None:
        return np.empty(shape)
    a = work.get(name)
    if a is None or a.shape != shape:
        a = work[name] = np.empty(shape)
    return a


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


def _fusion_terms(k: int, alpha: np.ndarray):
    """Each channel's part in the fusion, in channel order: the `w_out`
    blocks it feeds (a slice), its per-row weight in each of them, shape
    (rows, blocks), and the α columns those weights read (module
    docstring)."""
    ones = np.ones((alpha.shape[0], 1), dtype=np.float64)
    yield slice(0, k + 1), np.hstack([ones, alpha[:, :k]]), slice(0, k)
    for ch in range(1, 2 * k + 1):
        b, col = 1 + (ch - 1) % k, k + ch - 1
        yield slice(b, b + 1), alpha[:, col : col + 1], slice(col, col + 1)


def _block_columns(w_blocks: np.ndarray) -> np.ndarray:
    """(blocks, z, C) weights as one (z, blocks * C) matrix, block-major."""
    return w_blocks.transpose(1, 0, 2).reshape(w_blocks.shape[1], -1)


def _fusion_weights(
    params: Params,
    config: ModelConfig,
    rows: _Rows,
    cache: dict | None,
    work: dict[str, np.ndarray] | None,
) -> np.ndarray:
    """α for the selected rows, shape (rows, 3K).  With a `cache`, the
    arrays backward needs are stored in it; without one, none outlives the
    call.  The refined local-similarity activations go into `work`."""
    k = config.num_layers
    n = rows.size
    if config.weight_mode == "graph_level":
        return np.broadcast_to(params["graph_alpha"], (n, 3 * k))
    if config.localsim_mode == "naive":
        phi = rows.phi_naive
    else:
        # ReLU in place: backward reads its mask as r1 > 0.
        r1 = _buffer(work, "ls_r1", (rows.edge_feats.shape[0], config.ls_hidden))
        np.matmul(rows.edge_feats, params["ls_w1"], out=r1)
        r1 += params["ls_b1"]
        np.maximum(r1, 0.0, out=r1)
        s = r1 @ params["ls_w2"][:, 0] + params["ls_b2"][0]
        sums = np.bincount(rows.entry_slots, weights=s, minlength=n)
        phi = sums * rows.inv_degrees
        if cache is not None:
            cache.update(ls_r1=r1)
    psi = np.column_stack([phi, phi * phi])
    q1 = psi @ params["al_w1"]
    q1 += params["al_b1"]
    np.maximum(q1, 0.0, out=q1)
    if cache is not None:
        cache.update(phi=phi, psi=psi, al_q1=q1)
    return q1 @ params["al_w2"] + params["al_b2"]


def _forward(
    params: Params,
    config: ModelConfig,
    rows: _Rows,
    dropout_rng: np.random.Generator | None,
    work: dict[str, np.ndarray] | None = None,
) -> dict:
    """Forward pass over the selected rows; returns a cache holding the
    log-probabilities and, for a training pass (one given `work`, its
    selection's work arrays), every array backward needs.

    α comes first.  Each channel's map is then computed and added to the
    logits in channel order.  A training pass writes the map into its own
    work array and keeps it and its projection for backward; an inference
    pass holds one (rows, z) map at a time.  Dropout draws happen in
    channel order, so a seeded generator reproduces runs exactly.
    """
    k, z = config.num_layers, config.hidden_dim
    n = rows.size
    backward = work is not None
    cache: dict = {}
    alpha = _fusion_weights(params, config, rows, cache if backward else None, work)

    # Inverted dropout, in place.  Each channel's draw fills one buffer for
    # every node and its keep mask is then indexed to the selected rows, so
    # the generator's stream does not depend on which rows a pass computes.
    dropout = dropout_rng is not None and config.dropout > 0.0
    if dropout:
        draw = _buffer(work, "draw", (rows.num_nodes, z))
    # Fusion in logit space (module docstring).
    c = config.num_classes
    w_blocks = params["w_out"].reshape(k + 1, z, c)
    logits = np.zeros((n, c), dtype=np.float64)
    channels = []
    terms = zip(_channel_names(k), _fusion_terms(k, alpha))
    for ch, (name, (blocks, weights, _)) in enumerate(terms):
        h = np.matmul(rows.basis(ch), params[name], out=_buffer(work, f"map_{ch}", (n, z)))
        np.maximum(h, 0.0, out=h)
        if dropout:
            dropout_rng.random(out=draw)
            h *= (draw >= config.dropout)[rows.index]
            h *= 1.0 / (1.0 - config.dropout)
        proj = (h @ _block_columns(w_blocks[blocks])).reshape(n, weights.shape[1], c)
        logits += (weights[:, :, None] * proj).sum(axis=1)
        if backward:
            channels.append((h, proj))
    cache.update(alpha=alpha, channels=channels, dropout=dropout, log_probs=_log_softmax(logits))
    return cache


_BLOCK_ROWS = 1024


def _proba(
    params: Params, config: ModelConfig, inputs: ModelInputs, index: slice | np.ndarray
) -> np.ndarray:
    """Class probabilities of the rows `index` selects, with dropout off.

    `_forward` runs over blocks of `_BLOCK_ROWS` consecutive selected rows
    and only each block's probabilities are kept, so peak memory does not
    grow with the number of rows.
    """
    n = inputs.graph.num_nodes if isinstance(index, slice) else index.size
    probs = np.empty((n, config.num_classes), dtype=np.float64)
    for s in range(0, n, _BLOCK_ROWS):
        e = min(s + _BLOCK_ROWS, n)
        block = slice(s, e) if isinstance(index, slice) else index[s:e]
        rows = _select_rows(inputs, block, gather=False)
        np.exp(_forward(params, config, rows, dropout_rng=None)["log_probs"], out=probs[s:e])
    return probs


def predict_proba(
    params: Params, config: ModelConfig, inputs: ModelInputs
) -> np.ndarray:
    """Class probabilities with dropout off; rows sum to 1."""
    return _proba(params, config, inputs, _row_index(config, inputs))


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
    index = _row_index(config, inputs, mask)
    pred = _proba(params, config, inputs, index).argmax(axis=1)
    return _accuracy(pred, labels[index])


def _accuracy(pred: np.ndarray, labels: np.ndarray) -> float:
    if not pred.size:
        raise InputError("mask selects no nodes")
    return float((pred == labels).mean())


def _require_nodes(train_mask: np.ndarray, val_mask: np.ndarray) -> None:
    """Refuse, before any epoch, a training mask that selects no nodes."""
    for name, mask in (("train", train_mask), ("validation", val_mask)):
        if not np.any(mask):
            raise InputError(f"{name} mask selects no nodes")


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
    computed; dropout still draws a mask for every node.  Inside `train`,
    a mask equal to the train mask reuses the training's selection (module
    docstring); any other call gathers its rows and keeps nothing.
    """
    k, z = config.num_layers, config.hidden_dim
    selection = _selection(config, inputs, mask)
    rows, work = selection.rows, selection.work
    labels = labels[rows.index]
    cache = _forward(params, config, rows, dropout_rng, work)
    m_count = labels.size
    ce, dlogits = _cross_entropy(cache["log_probs"], labels)
    loss = ce + 0.5 * weight_decay * _squared_norm(params)

    # Keys in parameter order; each is assigned below.
    grads = dict.fromkeys(params)
    c = config.num_classes
    w_blocks = params["w_out"].reshape(k + 1, z, c)
    dw_out = np.zeros_like(w_blocks)
    dalpha = np.empty((m_count, 3 * k), dtype=np.float64)
    dh = _buffer(work, "dh", (m_count, z))
    terms = zip(_channel_names(k), cache["channels"], _fusion_terms(k, cache["alpha"]))
    for ch, (name, (h, proj), (blocks, weights, cols)) in enumerate(terms):
        dweights = (proj * dlogits[:, None, :]).sum(axis=2)
        # The identity channel's weight in block 0 is the constant 1.
        dalpha[:, cols] = dweights[:, 1:] if ch == 0 else dweights
        dproj = (weights[:, :, None] * dlogits[:, None, :]).reshape(m_count, weights.shape[1] * c)
        dw_out[blocks] += (h.T @ dproj).reshape(z, -1, c).transpose(1, 0, 2)
        np.matmul(dproj, _block_columns(w_blocks[blocks]).T, out=dh)
        if cache["dropout"]:
            dh *= 1.0 / (1.0 - config.dropout)
        # Dropout zeroed h where it dropped, so h > 0 is the product of the
        # keep mask and the ReLU's mask.
        dh *= h > 0.0
        grads[name] = rows.basis(ch).T @ dh
    grads["w_out"] = dw_out.reshape(params["w_out"].shape)

    if config.weight_mode == "graph_level":
        grads["graph_alpha"] = dalpha.sum(axis=0)
    else:
        q1 = cache["al_q1"]
        grads["al_w2"] = q1.T @ dalpha
        grads["al_b2"] = dalpha.sum(axis=0)
        dq1 = dalpha @ params["al_w2"].T
        db1 = dq1 * (q1 > 0.0)
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
            # da1 overwrites r1, whose last read is its ReLU mask.
            active = r1 > 0.0
            da1 = np.multiply(ds[:, None], params["ls_w2"][:, 0][None, :], out=r1)
            da1 *= active
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

    def __post_init__(self):
        # The chained comparisons also reject NaN.
        if not 0.0 < self.lr < np.inf:
            raise InputError(f"lr must be finite and > 0, got {self.lr}")
        if not 0.0 <= self.weight_decay < np.inf:
            raise InputError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.epochs < 1:
            raise InputError(f"epochs must be >= 1, got {self.epochs}")
        if self.patience < 0:
            raise InputError(f"patience must be >= 0, got {self.patience}")


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
    masks come from the seeded generator, after the initial draws.  An
    empty train or validation mask raises InputError naming it.  The
    train rows are gathered once and kept on `inputs`, with the epochs'
    work arrays, until it returns or raises.
    """
    _require_nodes(train_mask, val_mask)
    rng = np.random.default_rng(train_config.seed)
    params = init_parameters(config, rng)
    dropout_rng = rng if config.dropout > 0.0 else None
    with _kept_selection(config, inputs, train_mask):
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


def save_checkpoint(
    path, config: ModelConfig, propagation: PropagationConfig, params: Params
) -> None:
    """Write an LSPM artifact (see `propagation._write_artifact`): the
    `model` config, the `propagation` config its inputs were built with,
    and every named array.  `load_checkpoint` refuses the file unless both
    configs have the same num_layers."""
    header = {"model": asdict(config), "propagation": asdict(propagation)}
    _write_artifact(path, _MAGIC, header, params)


def load_checkpoint(path) -> tuple[ModelConfig, PropagationConfig, Params]:
    """Read an LSPM file.  Both configs must have the same num_layers, and
    the arrays the names and shapes the model config implies."""
    header, arrays = _read_artifact(
        path, _MAGIC, {"model": ModelConfig, "propagation": PropagationConfig}
    )
    config, propagation = header["model"], header["propagation"]
    k = config.num_layers
    if propagation.num_layers != k:
        raise FormatError(
            f"{path}: model.num_layers={k} differs from "
            f"propagation.num_layers={propagation.num_layers}"
        )
    # Counted first, so that a corrupt num_layers cannot build a huge table.
    if len(arrays) < 2 * k + 1:
        raise FormatError(
            f"{path}: model.num_layers={k} needs {2 * k + 1} channel maps, "
            f"but the file holds {len(arrays)} arrays"
        )
    expected = {name: shape for name, (shape, _) in _parameter_shapes(config).items()}
    found = {name: a.shape for name, a in arrays.items()}
    for name in sorted(expected.keys() | found.keys()):
        if found.get(name) != expected.get(name):
            raise FormatError(
                f"{path}: array {reprlib.repr(name)} has shape {found.get(name)} in the file, "
                f"but {expected.get(name)} in the model config"
            )
    return config, propagation, {name: arrays[name] for name in expected}


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
    _require_nodes(train_mask, val_mask)
    d = features.shape[1]
    rng = np.random.default_rng(train_config.seed)
    bound = 1.0 / np.sqrt(d)
    params = {
        "w": rng.uniform(-bound, bound, size=(d, num_classes)),
        "b": rng.uniform(-bound, bound, size=(num_classes,)),
    }
    rows = np.flatnonzero(train_mask)
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
