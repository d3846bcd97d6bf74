"""Synthetic featured block models with controllable per-subgraph homophily.

A generated graph is a disjoint union of subgraphs.  Each subgraph draws
intra-community edges at rate p and inter-community edges at rate q, so
its homophily level is lam = p / (p + q).  Every node carries a scalar
feature equal to its community mean plus Gaussian noise.

Two sampling modes ship: `bernoulli` draws each pair independently;
`expectation_exact` gives every node exactly its expected intra- and
inter-community edge counts, which is the regime where the closed-form
local-similarity expectation holds exactly.

`theory_check` tests the paper's two closed forms, the per-subgraph mean
local similarity and the cross-subgraph gap bound, against one set of
Monte-Carlo draws: each trial's graph is generated once and feeds both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GenerationError, InputError
from .graph import FilterPair, SparseGraph, build_graph, complement_filter, self_loop_adj
from .harness import RATIOS, _seed_list, make_splits
from .localsim import naive_localsim
from .model import (
    ModelConfig,
    ModelInputs,
    TrainConfig,
    evaluate,
    linear_accuracy,
    train,
    train_linear,
)
from .propagation import PropagationConfig, build_stack

__all__ = [
    "MODES",
    "FsbmConfig",
    "SyntheticDataset",
    "TheoryReport",
    "ToyCell",
    "multi_subgraph_config",
    "generate_fsbm",
    "theory_check",
    "toy_study",
]

MODES = ("bernoulli", "expectation_exact")


@dataclass(frozen=True)
class FsbmConfig:
    """Generator settings: sizes, per-subgraph edge rates, feature model."""

    num_nodes: int
    num_communities: int
    num_subgraphs: int
    p: tuple[float, ...]
    q: tuple[float, ...]
    mu: tuple[float, ...]
    sigma: float
    mode: str = "bernoulli"

    def __post_init__(self):
        r, t = self.num_communities, self.num_subgraphs
        if r < 2:
            raise InputError(f"need at least 2 communities, got {r}")
        if t < 1:
            raise InputError(f"need at least 1 subgraph, got {t}")
        if self.num_nodes <= 0 or self.num_nodes % (r * t) != 0:
            raise InputError(
                f"num_nodes must be a positive multiple of communities*subgraphs "
                f"({r * t}), got {self.num_nodes}"
            )
        if len(self.p) != t or len(self.q) != t:
            raise InputError(f"p and q must each have {t} entries")
        for name, values in (("p", self.p), ("q", self.q)):
            for v in values:
                if not 0.0 <= v <= 1.0:
                    raise InputError(f"{name} entries must lie in [0, 1], got {v}")
        if len(self.mu) != r:
            raise InputError(f"mu must have {r} entries")
        if self.sigma < 0.0:
            raise InputError(f"sigma must be >= 0, got {self.sigma}")
        if self.mode not in MODES:
            raise InputError(f"mode must be one of {MODES}, got {self.mode!r}")

    @property
    def community_size(self) -> int:
        """Nodes per community within one subgraph."""
        return self.num_nodes // (self.num_communities * self.num_subgraphs)

    def lambdas(self) -> tuple[float, ...]:
        out = []
        for p, q in zip(self.p, self.q):
            if p + q == 0.0:
                raise InputError("lambda undefined for a subgraph with p = q = 0")
            out.append(p / (p + q))
        return tuple(out)


@dataclass(eq=False)
class SyntheticDataset:
    graph: SparseGraph
    x: np.ndarray
    community: np.ndarray
    subgraph_id: np.ndarray


def multi_subgraph_config(
    lambdas,
    num_nodes: int = 1000,
    expected_degree: float = 10.0,
    mu: tuple[float, float] = (1.0, -1.0),
    sigma: float = 1.0,
    mode: str = "bernoulli",
) -> FsbmConfig:
    """2-community config with one homophily level per subgraph.

    Generalizes the p + q constraint to 2t subgraph communities: each
    community holds n / (2t) nodes, so p + q = 2t * expected_degree / n
    keeps the expected degree at the target for any subgraph count.
    """
    if num_nodes <= 0:
        raise InputError(f"num_nodes must be positive, got {num_nodes}")
    t = len(lambdas)
    total = 2.0 * t * expected_degree / num_nodes
    ps, qs = [], []
    for lam in lambdas:
        if not 0.0 <= lam <= 1.0:
            raise InputError(f"lam must lie in [0, 1], got {lam}")
        p = lam * total
        q = total - p
        if p > 1.0 or q > 1.0:
            raise InputError(
                f"expected degree {expected_degree} infeasible: p={p:g}, q={q:g}"
            )
        ps.append(p)
        qs.append(q)
    return FsbmConfig(
        num_nodes=num_nodes,
        num_communities=2,
        num_subgraphs=t,
        p=tuple(ps),
        q=tuple(qs),
        mu=tuple(mu),
        sigma=sigma,
        mode=mode,
    )


# --- exact-degree generation ----------------------------------------------


def _repair_pairs(u, v, n_ids, rng, bipartite, rounds=300):
    """Swap second endpoints between edges until no self loops/duplicates.

    Endpoint swaps preserve every node's degree.  Returns None when the
    round budget runs out so the caller can reshuffle and retry.
    """
    for _ in range(rounds):
        if bipartite:
            lo, hi = u, v
        else:
            lo = np.minimum(u, v)
            hi = np.maximum(u, v)
        key = lo.astype(np.int64) * n_ids + hi
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        bad = np.zeros(u.shape[0], dtype=bool)
        bad[order[1:][sorted_key[1:] == sorted_key[:-1]]] = True
        if not bipartite:
            bad |= u == v
        bad_idx = np.flatnonzero(bad)
        if bad_idx.size == 0:
            return u, v
        partners = rng.integers(0, u.shape[0], size=bad_idx.size)
        for b, p in zip(bad_idx, partners):
            v[b], v[p] = v[p], v[b]
    return None


def _edges_from_degrees(degrees: np.ndarray, rng, attempts=100) -> np.ndarray:
    """Simple graph with an exact degree sequence via stub pairing."""
    total = int(degrees.sum())
    if total == 0:
        return np.zeros((0, 2), dtype=np.int64)
    if total % 2 != 0:
        raise GenerationError("degree sequence has odd sum")
    stubs = np.repeat(np.arange(degrees.shape[0], dtype=np.int64), degrees)
    for _ in range(attempts):
        perm = rng.permutation(stubs)
        u = perm[0::2].copy()
        v = perm[1::2].copy()
        fixed = _repair_pairs(u, v, degrees.shape[0], rng, bipartite=False)
        if fixed is not None:
            return np.column_stack(fixed)
    raise GenerationError("could not realize the exact degree sequence")


def _complement_pairs(m: int, edges: np.ndarray) -> np.ndarray:
    adj = np.ones((m, m), dtype=bool)
    np.fill_diagonal(adj, False)
    if edges.size:
        adj[edges[:, 0], edges[:, 1]] = False
        adj[edges[:, 1], edges[:, 0]] = False
    iu, ju = np.nonzero(np.triu(adj, k=1))
    return np.column_stack([iu, ju]).astype(np.int64)


def _regular_edges(m: int, d: int, rng) -> np.ndarray:
    """d-regular simple graph on m nodes.

    An odd stub total drops one stub from an rng-chosen node (that node
    ends one edge short).  Dense targets are built as complements of
    sparse ones, which keeps stub pairing in its reliable regime.
    """
    if not 0 <= d < m:
        raise GenerationError(f"regular degree {d} infeasible on {m} nodes")
    degrees = np.full(m, d, dtype=np.int64)
    if (m * d) % 2 == 1:
        degrees[int(rng.integers(m))] -= 1
    if d > (m - 1) // 2:
        comp = _edges_from_degrees((m - 1) - degrees, rng)
        return _complement_pairs(m, comp)
    return _edges_from_degrees(degrees, rng)


def _bipartite_regular_edges(m: int, d: int, rng) -> np.ndarray:
    """d-regular bipartite pairing between two m-node sides; returns
    (left, right) local index pairs."""
    if not 0 <= d <= m:
        raise GenerationError(f"bipartite degree {d} infeasible with side size {m}")
    if d == 0:
        return np.zeros((0, 2), dtype=np.int64)
    if d > m // 2:
        comp = _bipartite_regular_edges(m, m - d, rng)
        adj = np.ones((m, m), dtype=bool)
        if comp.size:
            adj[comp[:, 0], comp[:, 1]] = False
        iu, ju = np.nonzero(adj)
        return np.column_stack([iu, ju]).astype(np.int64)
    left = np.repeat(np.arange(m, dtype=np.int64), d)
    for _ in range(100):
        u = left.copy()
        v = rng.permutation(left)
        fixed = _repair_pairs(u, v, m, rng, bipartite=True)
        if fixed is not None:
            return np.column_stack(fixed)
    raise GenerationError("could not realize the exact bipartite pairing")


def _bernoulli_subgraph(m: int, r: int, p: float, q: float, rng) -> np.ndarray:
    size = m * r
    comm = np.repeat(np.arange(r), m)
    iu, ju = np.triu_indices(size, k=1)
    prob = np.where(comm[iu] == comm[ju], p, q)
    keep = rng.random(iu.shape[0]) < prob
    return np.column_stack([iu[keep], ju[keep]]).astype(np.int64)


def _exact_subgraph(m: int, r: int, p: float, q: float, rng) -> np.ndarray:
    if r != 2:
        raise InputError("expectation_exact mode supports exactly 2 communities")
    d_in = int(np.round(p * (m - 1)))
    d_out = int(np.round(q * m))
    parts = [
        _regular_edges(m, d_in, rng),
        _regular_edges(m, d_in, rng) + m,
    ]
    cross = _bipartite_regular_edges(m, d_out, rng)
    if cross.size:
        cross = cross.copy()
        cross[:, 1] += m
        parts.append(cross)
    return np.vstack([part for part in parts if part.size] or [np.zeros((0, 2), np.int64)])


def generate_fsbm(config: FsbmConfig, seed=0) -> SyntheticDataset:
    """Draw one dataset: edges subgraph by subgraph, then features.

    The draw order (edges first, features second, subgraphs in index
    order) is fixed, so a seed pins the whole dataset.
    """
    rng = np.random.default_rng(seed)
    r, t = config.num_communities, config.num_subgraphs
    m = config.community_size
    block = m * r
    community = np.tile(np.repeat(np.arange(r), m), t)
    subgraph_id = np.repeat(np.arange(t), block)
    chunks = []
    for tau in range(t):
        p, q = config.p[tau], config.q[tau]
        if config.mode == "bernoulli":
            local = _bernoulli_subgraph(m, r, p, q, rng)
        else:
            local = _exact_subgraph(m, r, p, q, rng)
        if local.size:
            chunks.append(local + tau * block)
    edges = np.vstack(chunks) if chunks else np.zeros((0, 2), dtype=np.int64)
    graph = build_graph(edges, config.num_nodes)
    mu = np.asarray(config.mu, dtype=np.float64)
    x = (mu[community] + rng.normal(0.0, config.sigma, size=config.num_nodes))[:, None]
    return SyntheticDataset(graph=graph, x=x, community=community, subgraph_id=subgraph_id)


# --- Monte-Carlo theory checks --------------------------------------------


@dataclass(eq=False)
class TheoryReport:
    """Both closed forms against one set of Monte-Carlo draws.

    Per subgraph: the empirical mean local similarity against
    -2*sigma^2 - (1 - lam) * (mu1 - mu2)^2.  Across the two subgraphs: the
    mean |phi_i - phi_j| over cross-subgraph pairs against the lower bound
    |lam1 - lam2| * (mu1 - mu2)^2.
    """

    lambdas: np.ndarray
    analytic: np.ndarray
    empirical: np.ndarray
    stderr: np.ndarray
    gap_bound: float
    gap_empirical: float
    gap_stderr: float
    trials: int

    @property
    def gap_passed(self) -> bool:
        return self.gap_empirical >= self.gap_bound - 3.0 * self.gap_stderr


def _mean_and_stderr(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean over trials (axis 0) and its standard error; zero for one trial."""
    trials = values.shape[0]
    if trials > 1:
        return values.mean(axis=0), values.std(axis=0, ddof=1) / np.sqrt(trials)
    return values.mean(axis=0), np.zeros_like(values[0])


def theory_check(config: FsbmConfig, trials: int, base_seed=0) -> TheoryReport:
    """Monte-Carlo estimate of both closed forms from one draw per trial.

    Trial i draws `generate_fsbm(config, seed=[base_seed, i])` once; its
    local similarity phi gives both the per-subgraph means and the mean
    cross-subgraph |phi_i - phi_j|.  Uses the scalar-feature similarity
    -(x_i - x_j)^2 and the naive per-node mean, the setting in which both
    closed forms are derived: 2 communities in 2 subgraphs.
    """
    if config.num_communities != 2 or config.num_subgraphs != 2:
        raise InputError("the closed forms are stated for the 2-community/2-subgraph layout")
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
    lambdas = np.asarray(config.lambdas())
    gap_sq = (config.mu[0] - config.mu[1]) ** 2
    analytic = -2.0 * config.sigma**2 - (1.0 - lambdas) * gap_sq
    base = _seed_list(base_seed)
    means = np.empty((trials, 2))
    gaps = np.empty(trials)
    for i in range(trials):
        ds = generate_fsbm(config, seed=base + [i])
        phi = naive_localsim(ds.graph, ds.x, "neg_sq_scalar")
        phi0 = phi[ds.subgraph_id == 0]
        phi1 = phi[ds.subgraph_id == 1]
        means[i] = phi0.mean(), phi1.mean()
        gaps[i] = np.abs(phi0[:, None] - phi1[None, :]).mean()
    empirical, stderr = _mean_and_stderr(means)
    gap_empirical, gap_stderr = _mean_and_stderr(gaps)
    return TheoryReport(
        lambdas=lambdas,
        analytic=analytic,
        empirical=empirical,
        stderr=stderr,
        gap_bound=float(abs(lambdas[0] - lambdas[1]) * gap_sq),
        gap_empirical=float(gap_empirical),
        gap_stderr=float(gap_stderr),
        trials=trials,
    )


# --- toy case study --------------------------------------------------------


@dataclass(eq=False)
class ToyCell:
    """Per-seed test accuracies of the three arms on one lambda pair."""

    lambdas: tuple[float, float]
    seeds: tuple[int, ...]
    raw: np.ndarray
    graph_level: np.ndarray
    node_level: np.ndarray

    def means(self) -> dict[str, float]:
        return {
            "raw": float(self.raw.mean()),
            "graph_level": float(self.graph_level.mean()),
            "node_level": float(self.node_level.mean()),
        }


def toy_study(
    lambda_grid,
    seeds,
    num_nodes: int = 1000,
    mode: str = "bernoulli",
    hidden_dim: int = 16,
    lr: float = 0.05,
    weight_decay: float = 5e-4,
    epochs: int = 200,
    patience: int = 40,
    base_seed: int = 0,
) -> list[ToyCell]:
    """Compare three classifiers on two-subgraph datasets.

    raw: logistic head on the scalar feature alone.  graph_level: the
    model with one learned global mixing vector.  node_level: the model
    with per-node mixing driven by naive local similarity.  Both model
    arms use a single propagation hop over the self-loop adjacency A + I
    and its identity complement, with row normalization off (scalar
    features reduce to bare signs under row normalization).
    """
    seeds = tuple(int(s) for s in seeds)
    cells = []
    for ci, lambdas in enumerate(lambda_grid):
        config = multi_subgraph_config(tuple(lambdas), num_nodes=num_nodes, mode=mode)
        accs: dict[str, list[float]] = {"raw": [], "graph_level": [], "node_level": []}
        for s in seeds:
            ds = generate_fsbm(config, seed=[base_seed, ci, s, 0])
            split = make_splits(num_nodes, RATIOS, base_seed=[base_seed, ci, s, 1], count=1)[0]
            tcfg = TrainConfig(
                lr=lr,
                weight_decay=weight_decay,
                epochs=epochs,
                patience=patience,
                seed=(base_seed, ci, s, 2),
            )
            raw_model = train_linear(
                ds.x, ds.community, 2, tcfg, split.train, split.val
            )
            accs["raw"].append(
                linear_accuracy(raw_model, ds.x, ds.community, split.test)
            )
            low = self_loop_adj(ds.graph)
            pair = FilterPair(beta=0.0, low=low, high=complement_filter(low))
            stack = build_stack(
                pair,
                ds.x,
                PropagationConfig(num_layers=1, gamma=0.5, beta=0.5, normalize=False),
                filter_kind="self_loop",
            )
            inputs = ModelInputs.build(ds.graph, ds.x, stack, "neg_sq_scalar")
            for weight_mode in ("graph_level", "node_level"):
                mcfg = ModelConfig(
                    num_layers=1,
                    in_dim=1,
                    hidden_dim=hidden_dim,
                    num_classes=2,
                    sim_kind="neg_sq_scalar",
                    localsim_mode="naive",
                    weight_mode=weight_mode,
                    dropout=0.0,
                )
                result = train(
                    mcfg, tcfg, inputs, ds.community, split.train, split.val
                )
                accs[weight_mode].append(
                    evaluate(result.params, mcfg, inputs, ds.community, split.test)
                )
        cells.append(
            ToyCell(
                lambdas=tuple(lambdas),
                seeds=seeds,
                raw=np.array(accs["raw"]),
                graph_level=np.array(accs["graph_level"]),
                node_level=np.array(accs["node_level"]),
            )
        )
    return cells
