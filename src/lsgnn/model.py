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

Passes.  Every pass walks the `Rows` that `select_rows` returns (a slice
of every row, whose per-row arrays are views, or ascending row indices)
in consecutive blocks of `_block_rows(f)` rows, f being the channel-map
floats a row holds: `hidden_dim` for inference (`predict_proba`,
`evaluate`), which holds one map at a time and keeps each block's
probabilities, and (2K+1)·`hidden_dim` for a training pass, which keeps
all 2K+1 maps for backward.  Each block computes its own α from its own
CSR entries, then its maps and logits and, in training, its whole
backward; the blocks' gradients are summed into views of one zeroed
vector.  The arrays a pass writes into are block-sized work arrays of
the `Rows`.  What stays O(m) for m selected rows is narrower than one
map: the probabilities or log-probabilities, labels, dropout keep bits
(drawn before the blocks from one stream), the per-row similarity terms
and CSR offsets, and two similarity features per selected CSR entry.
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

from .errors import (
    DigestMismatchError,
    FormatError,
    InputError,
    NonFiniteOutputError,
    Rule,
    TrainingDivergedError,
    _check_rules,
)
from .graph import SparseGraph, _ratio, neighborhood_mean
from .localsim import _SIM_KIND, edge_sim_values
from .propagation import (
    PropagationConfig,
    PropagationStack,
    _layer_names,
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

    RULES = dict.fromkeys(
        ("num_layers", "in_dim", "hidden_dim", "num_classes", "ls_hidden", "alpha_hidden"), Rule.at_least(1)
    ) | {
        "sim_kind": _SIM_KIND,
        "localsim_mode": Rule.one_of(LOCALSIM_MODES),
        "weight_mode": Rule.one_of(WEIGHT_MODES),
        "dropout": Rule.within(0, 1, "[)"),
    }
    __post_init__ = _check_rules

    @property
    def uses_localsim_mlp(self) -> bool:
        return self.weight_mode == "node_level" and self.localsim_mode == "refined"

    @property
    def uses_alpha_mlp(self) -> bool:
        return self.weight_mode == "node_level"


Params = dict[str, np.ndarray]


@functools.cache
def _channel_names(k: int) -> tuple[str, ...]:
    """The 2K+1 channel maps' names, in channel order: `w_in`, then `w_<layer>`."""
    return ("w_in", *(f"w_{name}" for name in _layer_names(k)))


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
        with np.errstate(over="ignore"):
            squares = sims * sims
        if not np.isfinite(squares).all():
            bad = np.argmin(np.isfinite(squares))
            raise InputError(f"sim_kind={sim_kind!r} gives edge ({graph.entry_rows()[bad]}, "
                             f"{graph.col_indices[bad]}) the similarity {float(sims[bad])}, "
                             f"whose square is past the float64 range")
        return cls(
            graph=graph,
            x=x,
            stack=stack,
            sim_kind=sim_kind,
            edge_feats=np.column_stack([sims, squares]),
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
    when it is a slice the per-row arrays are views.  `bases` holds every
    channel's input over all nodes, and `basis` reads a block of the
    selected rows from it.  Row i's similarity features are `edge_feats`
    entries `entry_offsets[i]` to `entry_offsets[i + 1]`.  `work` holds, by
    name, the block-sized arrays a pass writes into.
    """

    index: slice | np.ndarray
    num_nodes: int
    sim_kind: str
    bases: list[np.ndarray]  # each channel's input over every node, in channel order
    phi_naive: np.ndarray
    edge_feats: np.ndarray
    entry_offsets: np.ndarray
    inv_degrees: np.ndarray
    work: dict[str, np.ndarray]

    @property
    def size(self) -> int:
        return self.phi_naive.shape[0]

    def basis(self, ch: int, block: slice) -> np.ndarray:
        """Channel `ch`'s input at the selected rows `block` (positions in
        the selection): a view when `index` is a slice, else gathered into
        the work array `basis`, which the next read overwrites."""
        base = self.bases[ch]
        if isinstance(self.index, slice):
            return base[self.index][block]
        nodes = self.index[block]
        return np.take(base, nodes, axis=0, out=self.buffer("basis", (nodes.size, base.shape[1])),
                       mode="clip")

    def entries(self, block: slice) -> tuple[np.ndarray, np.ndarray]:
        """The similarity features of the selected rows `block`'s CSR
        entries (a view), and each entry's row within the block."""
        offsets = self.entry_offsets[block.start:block.stop + 1]
        slots = np.repeat(np.arange(offsets.size - 1), np.diff(offsets))
        return self.edge_feats[offsets[0]:offsets[-1]], slots

    def span(self, start: int, stop: int) -> tuple[slice, slice | np.ndarray]:
        """The selected rows among nodes start..stop-1, as a slice of
        positions in the selection, and their nodes less `start`."""
        if isinstance(self.index, slice):  # every node
            return slice(start, stop), slice(None)
        lo, hi = np.searchsorted(self.index, (start, stop))
        return slice(lo, hi), self.index[lo:hi] - start

    def buffer(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """An array of `shape` over the front of `work[name]`, which is
        reallocated only when too small.  Its contents are undefined."""
        size = math.prod(shape)
        a = self.work.get(name)
        if a is None or a.size < size:
            a = self.work[name] = np.empty(size)
        return a[:size].reshape(shape)


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


def select_rows(inputs: ModelInputs, mask: np.ndarray | None = None) -> Rows:
    """The rows `mask` selects (every row for None) with their CSR entries,
    for every pass over them (module docstring); every row copies nothing.
    The result is a snapshot: changing `mask` afterwards does not change it."""
    graph = inputs.graph
    index = _row_index(graph.num_nodes, mask)
    if isinstance(index, slice):
        offsets, entries = graph.row_offsets, index
    else:
        degrees = graph.degrees[index]
        offsets = np.zeros(index.size + 1, dtype=np.int64)
        np.cumsum(degrees, out=offsets[1:])
        # CSR entries are grouped by row in ascending order, like `index`:
        # row i's entries are row_offsets[index[i]] onwards.
        entries = np.repeat(graph.row_offsets[index] - offsets[:-1], degrees)
        entries += np.arange(entries.size)
    return Rows(
        index=index,
        num_nodes=graph.num_nodes,
        sim_kind=inputs.sim_kind,
        bases=[inputs.x, *inputs.stack.low, *inputs.stack.high],
        phi_naive=inputs.phi_naive[index],
        edge_feats=inputs.edge_feats[entries],
        entry_offsets=offsets,
        inv_degrees=inputs.inv_degrees[index],
        work={},
    )


# Every pass works in blocks of rows whose held channel maps take at most
# this many floats, and computes refined local similarity, and draws dropout
# uniforms, in chunks of as many floats.
_BLOCK_FLOATS = 1 << 17


def _block_rows(row_floats: int) -> int:
    """Rows per block when each row takes `row_floats` floats: as many as
    `_BLOCK_FLOATS` holds, and above 16 a multiple of 16.  BLAS kernels
    take rows in groups of up to 16 and compute a part group on its own
    path, so whole groups keep most blocked products bitwise a one-block
    product's rows."""
    rows = max(1, _BLOCK_FLOATS // row_floats)
    return rows - rows % 16 if rows > 16 else rows


def _spans(total: int, step: int) -> list[slice]:
    """Consecutive slices of `step` covering range(total); one empty slice
    for no rows, so a pass over none still runs once."""
    return [slice(s, min(s + step, total)) for s in range(0, max(total, 1), step)]


def _check_inputs(config: ModelConfig, rows: Rows) -> None:
    """Refuse rows whose similarity kind, channel count or width is not the config's."""
    k = config.num_layers
    kind, channels, width = rows.sim_kind, len(rows.bases), rows.bases[0].shape[1]
    if (kind, channels, width) != (config.sim_kind, 2 * k + 1, config.in_dim):
        raise InputError(
            f"inputs carry sim_kind={kind!r}, {channels} channels and features of width {width}, "
            f"but config wants sim_kind={config.sim_kind!r}, {2 * k + 1} channels "
            f"(num_layers={k}) and in_dim={config.in_dim}"
        )


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shift = logits - logits.max(axis=1, keepdims=True)
    return shift - np.log(np.exp(shift).sum(axis=1, keepdims=True))


def _mean_nll(log_probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy of `labels`; 0 for no rows."""
    return 0.0 if labels.size == 0 else -float(log_probs[np.arange(labels.size), labels].mean())


def _dlogits(log_probs: np.ndarray, labels: np.ndarray, count: int) -> np.ndarray:
    """The gradient, with respect to these rows' logits, of the mean
    cross-entropy over `count` rows that these rows are among."""
    dlogits = np.exp(log_probs)
    dlogits[np.arange(labels.size), labels] -= 1.0
    if count:
        dlogits /= count
    return dlogits


@functools.cache
def _fusion_slots(k: int) -> tuple[tuple[slice, slice], ...]:
    """Each channel's part in the fusion, in channel order: the `w_out`
    blocks it feeds and the α columns that weight it there, as slices
    (module docstring)."""
    slots = [(slice(0, k + 1), slice(0, k))]
    for ch in range(1, 2 * k + 1):
        b, col = 1 + (ch - 1) % k, k + ch - 1
        slots.append((slice(b, b + 1), slice(col, col + 1)))
    return tuple(slots)


def _channel_weights(k: int, alpha: np.ndarray) -> list[np.ndarray]:
    """Each channel's per-row weight in each block it feeds, shape (rows,
    blocks), in channel order.  The identity channel's weight in block 0 is
    the constant 1."""
    ones = np.ones((alpha.shape[0], 1), dtype=np.float64)
    return [np.hstack([ones, alpha[:, :k]]), *(alpha[:, cols] for _, cols in _fusion_slots(k)[1:])]


def _projections(params: Params, config: ModelConfig) -> list[np.ndarray]:
    """Each channel's `w_out` blocks as one (z, blocks * C) matrix,
    block-major, in channel order; built once per pass."""
    k, z, c = config.num_layers, config.hidden_dim, config.num_classes
    w_blocks = params["w_out"].reshape(k + 1, z, c)
    return [w_blocks[blocks].transpose(1, 0, 2).reshape(z, -1) for blocks, _ in _fusion_slots(k)]


def _localsim_hidden(params: Params, rows: Rows, feats: np.ndarray) -> np.ndarray:
    """The refined local-similarity MLP's hidden ReLU activations on the
    entries' similarity features `feats`, in the work array `ls_r1`."""
    r1 = rows.buffer("ls_r1", (feats.shape[0], params["ls_w1"].shape[1]))
    np.matmul(feats, params["ls_w1"], out=r1)
    r1 += params["ls_b1"]
    np.maximum(r1, 0.0, out=r1)
    return r1


def _fusion_weights(
    params: Params,
    config: ModelConfig,
    rows: Rows,
    block: slice,
    cache: dict,
) -> np.ndarray:
    """α for the selected rows `block`, shape (rows, 3K); the arrays its
    backward reads are stored in `cache`.  Refined local similarity runs
    over the block's CSR entries in chunks of `_block_rows(ls_hidden)`."""
    k = config.num_layers
    n = block.stop - block.start
    if not config.uses_alpha_mlp:
        return np.broadcast_to(params["graph_alpha"], (n, 3 * k))
    if not config.uses_localsim_mlp:
        phi = rows.phi_naive[block]
    else:
        feats, slots = rows.entries(block)
        s = np.empty(slots.size)
        for chunk in _spans(s.size, _block_rows(config.ls_hidden)):
            r1 = _localsim_hidden(params, rows, feats[chunk])
            s[chunk] = r1 @ params["ls_w2"][:, 0] + params["ls_b2"][0]
        inv_degrees = rows.inv_degrees[block]
        phi = np.bincount(slots, weights=s, minlength=n) * inv_degrees
        cache.update(feats=feats, slots=slots, inv_degrees=inv_degrees)
    psi = np.column_stack([phi, phi * phi])
    q1 = psi @ params["al_w1"]
    q1 += params["al_b1"]
    np.maximum(q1, 0.0, out=q1)
    cache.update(phi=phi, psi=psi, al_q1=q1)
    return q1 @ params["al_w2"] + params["al_b2"]


def _fusion_backward(
    params: Params, config: ModelConfig, rows: Rows, cache: dict, dalpha: np.ndarray, grads: Params
) -> None:
    """Add to `grads` the α head's gradients over one block, given the
    gradient `dalpha` with respect to its α and the `cache` that
    `_fusion_weights` filled for it."""
    if not config.uses_alpha_mlp:
        grads["graph_alpha"] += dalpha.sum(axis=0)
        return
    q1 = cache["al_q1"]
    grads["al_w2"] += q1.T @ dalpha
    grads["al_b2"] += dalpha.sum(axis=0)
    dq1 = dalpha @ params["al_w2"].T
    db1 = dq1 * (q1 > 0.0)
    grads["al_w1"] += cache["psi"].T @ db1
    grads["al_b1"] += db1.sum(axis=0)
    dpsi = db1 @ params["al_w1"].T
    dphi = dpsi[:, 0] + 2.0 * cache["phi"] * dpsi[:, 1]
    if not config.uses_localsim_mlp:
        return
    feats, slots = cache["feats"], cache["slots"]
    # Each entry's score feeds its row's mean, so the incoming gradient
    # splits by 1/degree.
    ds = dphi[slots] * cache["inv_degrees"][slots]
    grads["ls_b2"] += ds.sum()
    w2 = params["ls_w2"][:, 0]
    for chunk in _spans(ds.size, _block_rows(config.ls_hidden)):
        # The forward pass's activations, computed again.
        r1 = _localsim_hidden(params, rows, feats[chunk])
        grads["ls_w2"][:, 0] += r1.T @ ds[chunk]
        # da1 overwrites r1, whose last read is its ReLU mask.
        active = r1 > 0.0
        da1 = np.multiply(ds[chunk, None], w2[None, :], out=r1)
        da1 *= active
        grads["ls_w1"] += feats[chunk].T @ da1
        grads["ls_b1"] += da1.sum(axis=0)


def _keep_bits(config: ModelConfig, rows: Rows, rng: np.random.Generator | None) -> np.ndarray | None:
    """Each channel's dropout keep mask over the selected rows, eight hidden
    units a byte: shape (2K+1, rows, ceil(z / 8)); None without dropout.

    Each channel draws one uniform per node and hidden unit, channels in
    order, in chunks of rows that continue one stream; only the selected
    rows' bits are kept.  So the stream depends neither on the selection
    nor on the chunk size.
    """
    if rng is None or config.dropout == 0.0:
        return None
    n, z = rows.num_nodes, config.hidden_dim
    channels = 2 * config.num_layers + 1
    bits = np.empty((channels, rows.size, (z + 7) // 8), dtype=np.uint8)
    for ch in range(channels):
        for nodes in _spans(n, _block_rows(z)):
            draw = rng.random(out=rows.buffer("draw", (nodes.stop - nodes.start, z)))
            selected, local = rows.span(nodes.start, nodes.stop)
            bits[ch, selected] = np.packbits(draw[local] >= config.dropout, axis=1)
    return bits


def _channel_logits(
    params: Params,
    config: ModelConfig,
    rows: Rows,
    block: slice,
    weights: list[np.ndarray],
    projections: list[np.ndarray],
    keep: np.ndarray | None,
    backward: bool,
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """The logits of the selected rows `block`, given each channel's fusion
    weights and projection matrix, and the dropout keep bits (None for no
    dropout).

    Each channel's map is computed, passed through ReLU and dropout, and
    its projection added to the logits, in channel order.  For `backward`
    map ch is written into work array `map_<ch>` and every (map,
    projection) pair comes back; otherwise every map reuses work array
    `map`, so the pass holds one (rows, z) map, and none comes back.
    """
    k, z, c = config.num_layers, config.hidden_dim, config.num_classes
    n = weights[0].shape[0]
    logits = np.zeros((n, c), dtype=np.float64)
    channels = []
    for ch, (name, w, projection) in enumerate(zip(_channel_names(k), weights, projections)):
        out = rows.buffer(f"map_{ch}" if backward else "map", (n, z))
        h = np.matmul(rows.basis(ch, block), params[name], out=out)
        np.maximum(h, 0.0, out=h)
        if keep is not None:
            h *= np.unpackbits(keep[ch, block], axis=1, count=z)
            h *= 1.0 / (1.0 - config.dropout)
        proj = h @ projection
        if w.shape[1] == 1:
            logits += w * proj
        else:
            logits += (w[:, :, None] * proj.reshape(n, w.shape[1], c)).sum(axis=1)
        if backward:
            channels.append((h, proj))
    return logits, channels


def _proba(params: Params, config: ModelConfig, rows: Rows) -> np.ndarray:
    """Class probabilities of the selected rows, with dropout off.

    The forward pass runs over blocks of `_block_rows(hidden_dim)` rows,
    one channel map at a time, and only each block's probabilities are
    kept, so peak memory does not grow with the number of rows.
    Probabilities that are not finite (parameters that overflow on these
    inputs) raise NonFiniteOutputError.
    """
    _check_inputs(config, rows)
    probs = np.empty((rows.size, config.num_classes), dtype=np.float64)
    projections = _projections(params, config)
    # An overflow yields non-finite probabilities, which are refused below.
    with np.errstate(over="ignore", invalid="ignore"):
        for block in _spans(rows.size, _block_rows(config.hidden_dim)):
            alpha = _fusion_weights(params, config, rows, block, {})
            weights = _channel_weights(config.num_layers, alpha)
            logits, _ = _channel_logits(params, config, rows, block, weights, projections, None,
                                        backward=False)
            np.exp(_log_softmax(logits), out=probs[block])
    return _finite(probs)


def _finite(outputs: np.ndarray) -> np.ndarray:
    """`outputs`, refused as NonFiniteOutputError if any entry is not finite."""
    if not np.isfinite(outputs).all():
        raise NonFiniteOutputError(
            "the model's outputs are not finite: its parameters overflow on these inputs"
        )
    return outputs


def predict_proba(
    params: Params, config: ModelConfig, inputs: ModelInputs
) -> np.ndarray:
    """Class probabilities with dropout off; rows sum to 1."""
    return _proba(params, config, select_rows(inputs))


def predict(params: Params, config: ModelConfig, inputs: ModelInputs) -> np.ndarray:
    return predict_proba(params, config, inputs).argmax(axis=1)


def evaluate(
    params: Params,
    config: ModelConfig,
    inputs: ModelInputs,
    labels: np.ndarray,
    mask: np.ndarray | None,
) -> float:
    """Accuracy over the masked nodes (all for None), from those rows alone."""
    rows = select_rows(inputs, mask)
    return _accuracy(_proba(params, config, rows).argmax(axis=1), labels[rows.index])


def _accuracy(pred: np.ndarray, labels: np.ndarray) -> float:
    if not pred.size:
        raise InputError("mask selects no nodes")
    return float((pred == labels).mean())


def _require_nodes(train_mask: np.ndarray, val_mask: np.ndarray) -> None:
    """Refuse, before any epoch, a training mask that selects no nodes."""
    for name, mask in (("train", train_mask), ("validation", val_mask)):
        if not np.any(mask):
            raise InputError(f"{name} mask selects no nodes")


def _zeros(layout: list[tuple[str, tuple[int, ...]]]) -> Params:
    """The `_views` of `layout` over one zeroed vector, which is each
    array's `base`: the gradients of one pass."""
    return _views(np.zeros(sum(math.prod(shape) for _, shape in layout)), layout)


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
    the decay term, with zero data gradient.

    The dropout keep bits and the log-probabilities are kept for every
    selected row.  Everything else, α and its head included, runs forward
    and backward over blocks of `_block_rows((2K+1)·z)` rows in the work
    arrays of `rows`, and each block's gradients are summed into the
    `_zeros` views of one vector, in `_parameter_shapes` order.
    """
    _check_inputs(config, rows)
    k, z, c = config.num_layers, config.hidden_dim, config.num_classes
    labels = labels[rows.index]
    m = labels.size
    projections = _projections(params, config)
    keep = _keep_bits(config, rows, dropout_rng)

    grads = _zeros(_layout(_parameter_shapes(config)))
    dw_out = grads["w_out"].reshape(k + 1, z, c)
    log_probs = np.empty((m, c), dtype=np.float64)
    for block in _spans(m, _block_rows((2 * k + 1) * z)):
        cache: dict = {}
        weights = _channel_weights(k, _fusion_weights(params, config, rows, block, cache))
        logits, channels = _channel_logits(params, config, rows, block, weights, projections,
                                           keep, backward=True)
        log_probs[block] = _log_softmax(logits)
        dlogits = _dlogits(log_probs[block], labels[block], m)
        n = dlogits.shape[0]
        dh = rows.buffer("dh", (n, z))
        dalpha = rows.buffer("dalpha", (n, 3 * k))
        parts = zip(_channel_names(k), channels, _fusion_slots(k), weights, projections)
        for ch, (name, (h, proj), (blocks, cols), w, projection) in enumerate(parts):
            dweights = (proj.reshape(n, w.shape[1], c) * dlogits[:, None, :]).sum(axis=2)
            # The identity channel's weight in block 0 is the constant 1.
            dalpha[:, cols] = dweights[:, 1:] if ch == 0 else dweights
            dproj = (w[:, :, None] * dlogits[:, None, :]).reshape(n, w.shape[1] * c)
            dw_out[blocks] += (h.T @ dproj).reshape(z, -1, c).transpose(1, 0, 2)
            np.matmul(dproj, projection.T, out=dh)
            if keep is not None:
                dh *= 1.0 / (1.0 - config.dropout)
            # Dropout zeroed h where it dropped, so h > 0 is the product of the
            # keep mask and the ReLU's mask.
            dh *= h > 0.0
            grads[name] += rows.basis(ch, block).T @ dh
        _fusion_backward(params, config, rows, cache, dalpha, grads)

    return _decayed(_mean_nll(log_probs, labels), grads, params, weight_decay)


_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8
_ADAM_BLOCK = 4096


class Adam:
    """Standard Adam with bias correction over a vector of `size` parameters."""

    def __init__(self, lr: float, size: int):
        self.lr = lr
        self.t = 0
        self._m = np.zeros(size)
        self._v = np.zeros(size)

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        """Update the vector `params` in place from the vector `grads`, one
        block of `_ADAM_BLOCK` entries at a time, so its temporaries are
        block-sized whatever the parameter count."""
        self.t += 1
        b1, b2 = _ADAM_BETA1, _ADAM_BETA2
        correct1 = 1.0 - b1**self.t
        correct2 = 1.0 - b2**self.t
        for start in range(0, params.shape[0], _ADAM_BLOCK):
            block = slice(start, start + _ADAM_BLOCK)
            m, v, g = self._m[block], self._v[block], grads[block]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            params[block] -= self.lr * (m / correct1) / (np.sqrt(v / correct2) + _ADAM_EPS)


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.01
    weight_decay: float = 5e-4
    epochs: int = 200
    patience: int = 40
    seed: int = 0

    RULES = {
        "lr": Rule.within(0, np.inf, "()"),
        "weight_decay": Rule.within(0, np.inf, "[)"),
        "epochs": Rule.at_least(1),
        "patience": Rule.at_least(0),
    }
    __post_init__ = _check_rules


@dataclass(eq=False)
class TrainResult:
    params: Params
    history: list[tuple[int, float, float]]
    best_epoch: int
    best_val_acc: float


def _feature_scale(x: np.ndarray) -> str:
    """The feature scale a divergence at epoch 0 names."""
    return f"the feature scale (largest |x| = {float(np.abs(x).max()):g})"


def _fit(
    vector: np.ndarray,
    layout: list[tuple[str, tuple[int, ...]]],
    train_config: TrainConfig,
    loss_and_grads: Callable[[Params], tuple[float, Params]],
    val_accuracy: Callable[[Params], float],
    describe_inputs: Callable[[], str],
) -> TrainResult:
    """The Adam and early-stopping loop of `train` and `train_linear`.

    The callbacks read `vector` as the `_views` of `layout`.  Adam updates
    it in place from each epoch's gradients, which are the `_zeros` views
    of one vector in that layout.  The result's params are views of a copy
    of the best validation epoch's vector.  A non-finite loss raises
    TrainingDivergedError; at epoch 0, before any update, it names
    `describe_inputs()` in place of the learning rate.  An update whose
    model gives non-finite outputs on the validation rows
    (NonFiniteOutputError), or that overflows itself, raises it naming the
    learning rate, at any epoch.
    """
    params = _views(vector, layout)
    opt = Adam(train_config.lr, vector.size)
    best = vector.copy()
    best_val = -np.inf
    best_epoch = -1
    history: list[tuple[int, float, float]] = []
    for epoch in range(train_config.epochs):
        # An overflow yields a non-finite loss, refused here, or model,
        # refused by the validation pass.
        with np.errstate(over="ignore", invalid="ignore"):
            loss, grads = loss_and_grads(params)
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch, train_config.lr, describe_inputs())
            opt.step(vector, next(iter(grads.values())).base)
        try:
            val_acc = val_accuracy(params)
        except NonFiniteOutputError:
            raise TrainingDivergedError(epoch, train_config.lr, after_update=True) from None
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
        lambda: f"{_feature_scale(inputs.x)} and sim_kind={config.sim_kind!r}",
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
    """Each row's class; log-probabilities that are not finite raise
    NonFiniteOutputError."""
    with np.errstate(over="ignore", invalid="ignore"):
        log_probs = _linear_log_probs(params, features)
    return _finite(log_probs).argmax(axis=1)


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
    layout = _layout(shapes)
    train_rows, val_rows = (_row_index(features.shape[0], m) for m in (train_mask, val_mask))
    x_train, y_train = features[train_rows], labels[train_rows]
    x_val, y_val = features[val_rows], labels[val_rows]

    def loss_and_grads(p: Params) -> tuple[float, Params]:
        log_probs = _linear_log_probs(p, x_train)
        dlogits = _dlogits(log_probs, y_train, y_train.size)
        grads = _zeros(layout)
        np.matmul(x_train.T, dlogits, out=grads["w"])
        dlogits.sum(axis=0, out=grads["b"])
        return _decayed(_mean_nll(log_probs, y_train), grads, p, train_config.weight_decay)

    return _fit(
        _draw(shapes, np.random.default_rng(train_config.seed)),
        layout,
        train_config,
        loss_and_grads,
        lambda p: _accuracy(linear_predict(p, x_val), y_val),
        lambda: _feature_scale(features),
    ).params
