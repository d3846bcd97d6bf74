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

Parameters are one float64 vector, read as an ordered name -> array dict
of views into it (`propagation._views`): the channel maps in channel
order, then `ls_w1, ls_b1, ls_w2, ls_b2` (refined local similarity),
`al_w1, al_b1, al_w2, al_b2` (node-level weights) or `graph_alpha`
(graph-level weights), then `w_out`.  That order is fixed: the initializer
draws the vector in it, Adam and the best-epoch snapshot take the whole
vector, and a checkpoint's payload is the vector.  The passes, the decay
term and `save_checkpoint` take any such dict, views or not.

Every pass reads the rows a `Rows` selects: `Rows.index` indexes the
node axis.  It is a slice for consecutive rows (every row, or one
inference block), so those arrays are views of the inputs rather than
copies.  Inference (`predict_proba`, `evaluate`) runs in fixed blocks of
`_BLOCK_ROWS` selected rows with dropout off and keeps only each block's
probabilities.  Its forward pass builds no backward cache: it computes α,
then gathers each channel's input rows and computes its map in turn, adds
that map's projection to the logits and drops both, so a block holds one
(rows, z) map, not 2K+1.

A training pass reads the `Rows` that `select_rows` returns and its
caller holds: the selected rows gathered once, and the work arrays every
`loss_and_gradients` call over them writes into (2K+1 channel maps, one
backward map, the (n, z) dropout buffer and the refined local-similarity
activations).  That is about (2K+1)·m·(d + z) floats for m selected rows,
plus the dropout buffer, so repeated passes allocate no row-sized arrays.
`train` selects its rows once; two trainings hold two `Rows` and share
nothing they write.

Gradients are derived by hand and verified against central finite
differences in the test suite; there is no autograd dependency.
"""

from __future__ import annotations

import functools
import math
import reprlib
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .errors import DigestMismatchError, FormatError, InputError, TrainingDivergedError
from .graph import SparseGraph, _ratio, neighborhood_mean
from .localsim import SIM_KINDS, edge_sim_values
from .propagation import (
    PropagationConfig,
    PropagationStack,
    _read_artifact,
    _views,
    _write_artifact,
    feature_digest,
)

__all__ = [
    "LOCALSIM_MODES",
    "WEIGHT_MODES",
    "ModelConfig",
    "ModelInputs",
    "Rows",
    "TrainConfig",
    "TrainResult",
    "Adam",
    "init_parameters",
    "predict_proba",
    "predict",
    "evaluate",
    "select_rows",
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


def _layout(shapes: dict[str, tuple[tuple[int, ...], int]]) -> list[tuple[str, tuple[int, ...]]]:
    """The (name, shape) pairs of a name -> (shape, fan_in) table, in order."""
    return [(name, shape) for name, (shape, _) in shapes.items()]


def _draw(shapes: dict[str, tuple[tuple[int, ...], int]], rng: np.random.Generator) -> np.ndarray:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) draws for each array of
    `shapes` (name -> (shape, fan_in)) in turn, as one `_layout(shapes)` vector."""
    draws = []
    for shape, fan_in in shapes.values():
        bound = 1.0 / np.sqrt(fan_in)
        draws.append(rng.uniform(-bound, bound, size=math.prod(shape)))
    return np.concatenate(draws)


def init_parameters(config: ModelConfig, rng: np.random.Generator) -> Params:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) per array, as `_views` of one vector.

    Arrays are drawn in the fixed key order given in the module docstring,
    so two runs with equal seeds get bitwise-identical starting points.
    """
    shapes = _parameter_shapes(config)
    return _views(_draw(shapes, rng), _layout(shapes))


def _decayed(loss: float, grads: Params, params: Params, weight_decay: float) -> tuple[float, Params]:
    """Add the L2 term weight_decay / 2 times the squared norm of every
    array to `loss`, and its gradient to `grads` in place."""
    loss += 0.5 * weight_decay * float(sum((a * a).sum() for a in params.values()))
    if weight_decay != 0.0:
        for name, g in grads.items():
            g += weight_decay * params[name]
    return loss, grads


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
        return cls(
            graph=graph,
            x=x,
            stack=stack,
            sim_kind=sim_kind,
            edge_feats=np.column_stack([sims, sims * sims]),
            phi_naive=neighborhood_mean(graph, sims),
            inv_degrees=_ratio(1.0, graph.degrees),
        )


@dataclass(eq=False)
class Rows:
    """The part of `ModelInputs` that a pass over selected nodes reads.

    A node's output depends only on its own features, its own propagated
    rows and its own CSR entries (the precompute-then-MLP regime of SGC and
    SIGN), so a pass over these rows gives the selected rows of a full
    pass.  `index` selects the rows on the node axis, in ascending order;
    when it is a slice the arrays are views.  Channel inputs are read
    through `basis`: `bases` holds either the selected rows already
    gathered or every row, with `basis_rows` gathering them on each read.
    `work` holds the arrays a training pass writes into, by name; it is
    None for an inference block, whose pass keeps nothing.
    """

    index: slice | np.ndarray
    num_nodes: int
    sim_kind: str
    bases: list[np.ndarray]  # each channel's input, in channel order
    basis_rows: slice | np.ndarray
    phi_naive: np.ndarray
    edge_feats: np.ndarray
    entry_slots: np.ndarray
    inv_degrees: np.ndarray
    work: dict[str, np.ndarray] | None

    @property
    def size(self) -> int:
        return self.phi_naive.shape[0]

    def basis(self, ch: int) -> np.ndarray:
        return self.bases[ch][self.basis_rows]

    def buffer(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """`work[name]`, reallocated only when its shape changes; a new
        array when there is no `work`.  Its contents are undefined."""
        if self.work is None:
            return np.empty(shape)
        a = self.work.get(name)
        if a is None or a.shape != shape:
            a = self.work[name] = np.empty(shape)
        return a


def _row_index(n: int, mask: np.ndarray | None = None) -> slice | np.ndarray:
    """The rows of `n` a mask of any dtype selects, read as bool: `slice(None)`
    for None or an all-true mask, else their ascending indices.  A mask not
    of shape (n,) raises InputError.  Every node mask becomes rows here."""
    if mask is None:
        return slice(None)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (n,):
        raise InputError(f"mask has shape {mask.shape}, expected ({n},)")
    return slice(None) if mask.all() else np.flatnonzero(mask)


def _rows(inputs: ModelInputs, index: slice | np.ndarray, gather: bool) -> Rows:
    """The rows `index` selects (ascending); a slice copies nothing.  With
    `gather`, every channel's input rows are copied now and the rows get a
    `work` dict; without, each `basis` read gathers one channel's rows."""
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
    return Rows(
        index=index,
        num_nodes=n,
        sim_kind=inputs.sim_kind,
        bases=bases,
        basis_rows=basis_rows,
        phi_naive=inputs.phi_naive[index],
        edge_feats=inputs.edge_feats[entries],
        entry_slots=entry_slots,
        inv_degrees=inputs.inv_degrees[index],
        work={} if gather else None,
    )


def select_rows(inputs: ModelInputs, mask: np.ndarray) -> Rows:
    """The rows `mask` selects, gathered once for every training pass over
    them (module docstring).  The result is a snapshot: changing `mask`
    afterwards does not change it."""
    return _rows(inputs, _row_index(inputs.graph.num_nodes, mask), gather=True)


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
    rows: Rows,
    cache: dict | None,
) -> np.ndarray:
    """α for the selected rows, shape (rows, 3K).  With a `cache`, the
    arrays backward needs are stored in it; without one, none outlives the
    call.  The refined local-similarity activations go into `rows.work`."""
    k = config.num_layers
    n = rows.size
    if config.weight_mode == "graph_level":
        return np.broadcast_to(params["graph_alpha"], (n, 3 * k))
    if config.localsim_mode == "naive":
        phi = rows.phi_naive
    else:
        # ReLU in place: backward reads its mask as r1 > 0.
        r1 = rows.buffer("ls_r1", (rows.edge_feats.shape[0], config.ls_hidden))
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
    rows: Rows,
    dropout_rng: np.random.Generator | None,
) -> dict:
    """Forward pass over the selected rows; returns a cache holding the
    log-probabilities and, for a training pass (rows with a `work` dict),
    every array backward needs.

    α comes first.  Each channel's map is then computed and added to the
    logits in channel order.  A training pass writes the map into its own
    work array and keeps it and its projection for backward; an inference
    pass holds one (rows, z) map at a time.  Dropout draws happen in
    channel order, so a seeded generator reproduces runs exactly.
    """
    if rows.sim_kind != config.sim_kind:
        raise InputError(
            f"inputs carry sim_kind={rows.sim_kind!r} but config wants {config.sim_kind!r}"
        )
    k, z = config.num_layers, config.hidden_dim
    n = rows.size
    backward = rows.work is not None
    cache: dict = {}
    alpha = _fusion_weights(params, config, rows, cache if backward else None)

    # Inverted dropout, in place.  Each channel's draw fills one buffer for
    # every node and its keep mask is then indexed to the selected rows, so
    # the generator's stream does not depend on which rows a pass computes.
    dropout = dropout_rng is not None and config.dropout > 0.0
    if dropout:
        draw = rows.buffer("draw", (rows.num_nodes, z))
    # Fusion in logit space (module docstring).
    c = config.num_classes
    w_blocks = params["w_out"].reshape(k + 1, z, c)
    logits = np.zeros((n, c), dtype=np.float64)
    channels = []
    terms = zip(_channel_names(k), _fusion_terms(k, alpha))
    for ch, (name, (blocks, weights, _)) in enumerate(terms):
        h = np.matmul(rows.basis(ch), params[name], out=rows.buffer(f"map_{ch}", (n, z)))
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
        rows = _rows(inputs, block, gather=False)
        np.exp(_forward(params, config, rows, dropout_rng=None)["log_probs"], out=probs[s:e])
    return probs


def predict_proba(
    params: Params, config: ModelConfig, inputs: ModelInputs
) -> np.ndarray:
    """Class probabilities with dropout off; rows sum to 1."""
    return _proba(params, config, inputs, _row_index(inputs.graph.num_nodes))


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
    index = _row_index(inputs.graph.num_nodes, mask)
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
    rows: Rows,
    labels: np.ndarray,
    weight_decay: float = 0.0,
    dropout_rng: np.random.Generator | None = None,
) -> tuple[float, Params]:
    """Mean cross-entropy over the nodes `rows` selects plus L2 penalty,
    with exact gradients for every trainable array.

    `rows` comes from `select_rows`; `labels` has one entry per node.  The
    L2 term is weight_decay / 2 times the squared norm of all parameters,
    biases and mixing weights included.  Rows from an empty mask leave only
    the decay term, with zero data gradient.  Only the selected rows are
    computed, into the arrays of `rows.work`; dropout still draws a mask
    for every node.
    """
    k, z = config.num_layers, config.hidden_dim
    labels = labels[rows.index]
    cache = _forward(params, config, rows, dropout_rng)
    m_count = labels.size
    ce, dlogits = _cross_entropy(cache["log_probs"], labels)

    # Keys in parameter order; each is assigned below.
    grads = dict.fromkeys(params)
    c = config.num_classes
    w_blocks = params["w_out"].reshape(k + 1, z, c)
    dw_out = np.zeros_like(w_blocks)
    dalpha = np.empty((m_count, 3 * k), dtype=np.float64)
    dh = rows.buffer("dh", (m_count, z))
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

    return _decayed(ce, grads, params, weight_decay)


_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


class Adam:
    """Standard Adam with bias correction over a vector of `size` parameters."""

    def __init__(self, lr: float, size: int):
        self.lr = lr
        self.t = 0
        self._m = np.zeros(size)
        self._v = np.zeros(size)

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        """Update the vector `params` in place from the vector `grads`."""
        self.t += 1
        b1, b2 = _ADAM_BETA1, _ADAM_BETA2
        correct1 = 1.0 - b1**self.t
        correct2 = 1.0 - b2**self.t
        m, v = self._m, self._v
        m *= b1
        m += (1.0 - b1) * grads
        v *= b2
        v += (1.0 - b2) * grads * grads
        params -= self.lr * (m / correct1) / (np.sqrt(v / correct2) + _ADAM_EPS)


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
    vector: np.ndarray,
    layout: list[tuple[str, tuple[int, ...]]],
    train_config: TrainConfig,
    loss_and_grads: Callable[[Params], tuple[float, Params]],
    val_accuracy: Callable[[Params], float],
) -> TrainResult:
    """The Adam and early-stopping loop of `train` and `train_linear`.

    The callbacks read `vector` as the `_views` of `layout`.  Adam updates
    it in place from each epoch's gradients, flattened in that layout.  The
    result's params are views of a copy of the best validation epoch's vector.
    """
    params = _views(vector, layout)
    opt = Adam(train_config.lr, vector.size)
    best = vector.copy()
    best_val = -np.inf
    best_epoch = -1
    history: list[tuple[int, float, float]] = []
    for epoch in range(train_config.epochs):
        loss, grads = loss_and_grads(params)
        if not np.isfinite(loss):
            raise TrainingDivergedError(epoch, train_config.lr)
        opt.step(vector, np.concatenate([grads[name] for name in params], axis=None))
        val_acc = val_accuracy(params)
        history.append((epoch, loss, val_acc))
        if val_acc > best_val:
            best_val = val_acc
            best_epoch = epoch
            best[:] = vector
        elif epoch - best_epoch >= train_config.patience:
            break
    return TrainResult(_views(best, layout), history, best_epoch, best_val)


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
    train rows are selected once, and every epoch's pass writes into their
    work arrays.
    """
    _require_nodes(train_mask, val_mask)
    rng = np.random.default_rng(train_config.seed)
    shapes = _parameter_shapes(config)
    dropout_rng = rng if config.dropout > 0.0 else None
    rows = select_rows(inputs, train_mask)
    return _fit(
        _draw(shapes, rng),
        _layout(shapes),
        train_config,
        lambda p: loss_and_gradients(
            p,
            config,
            rows,
            labels,
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
    expected = dict(_layout(_parameter_shapes(config)))
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
    index = _row_index(features.shape[0], mask)
    return _accuracy(linear_predict(params, features[index]), labels[index])


def train_linear(
    features: np.ndarray,
    labels: np.ndarray,
    num_classes: int,
    train_config: TrainConfig,
    train_mask: np.ndarray,
    val_mask: np.ndarray,
) -> Params:
    """Fit the softmax regression head `{"w", "b"}` used by the raw-feature
    and deep-filter baselines, with the same initializer, decay term and
    Adam + early-stopping loop as the full model; returns best-validation
    parameters."""
    features = np.ascontiguousarray(features, dtype=np.float64)
    _require_nodes(train_mask, val_mask)
    d = features.shape[1]
    shapes = {"w": ((d, num_classes), d), "b": ((num_classes,), d)}
    train_rows, val_rows = (_row_index(features.shape[0], m) for m in (train_mask, val_mask))
    x_train, y_train = features[train_rows], labels[train_rows]
    x_val, y_val = features[val_rows], labels[val_rows]

    def loss_and_grads(p: Params) -> tuple[float, Params]:
        loss, dlogits = _cross_entropy(_linear_log_probs(p, x_train), y_train)
        grads = {"w": x_train.T @ dlogits, "b": dlogits.sum(axis=0)}
        return _decayed(loss, grads, p, train_config.weight_decay)

    return _fit(
        _draw(shapes, np.random.default_rng(train_config.seed)),
        _layout(shapes),
        train_config,
        loss_and_grads,
        lambda p: _accuracy(linear_predict(p, x_val), y_val),
    ).params
