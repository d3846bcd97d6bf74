"""Synthetic featured block models with controllable per-subgraph homophily.

A generated graph is a disjoint union of subgraphs, each holding two
communities of equal size.  A subgraph is described by its homophily level
lam: with the graph's expected degree fixed, it draws intra-community edges
at rate p = lam * (p + q) and inter-community edges at rate q.  Every node
carries a scalar feature equal to its community mean plus Gaussian noise.

Two sampling modes ship: `bernoulli` draws each pair independently;
`expectation_exact` gives every node exactly its expected intra- and
inter-community edge counts, which is the regime where the closed-form
local-similarity expectation holds exactly.  Exact mode builds each
community's graph and each cross-community pairing by stub pairing (the
configuration model) and repairs self loops and duplicate edges with
degree-preserving endpoint swaps; a target denser than half of a node's
possible partners is built as the complement of a sparse one.  Each repair
round finds its duplicates with one sort of int64 values that pack an
edge's (key, position); it marks the edges a stable argsort of the keys
marks, so the draws and swaps are those of that stable-sort check.  The
packing fits 63 bits for every community of at most 65,536 nodes.

`theory_check` tests the paper's two closed forms, the per-subgraph mean
local similarity and the cross-subgraph gap bound, against one set of
Monte-Carlo draws: each trial's graph is generated once and feeds both.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import GenerationError, InputError
from .graph import SparseGraph, build_graph, self_loop_filters
from .harness import ExperimentConfig, _seed_list, make_splits
from .localsim import naive_localsim
from .model import ModelInputs, evaluate, linear_accuracy, train, train_linear
from .propagation import build_stack

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
    """Generator settings: one homophily level per subgraph, the graph's
    size and expected degree, and the two communities' feature model.

    Each of the t = len(lambdas) subgraphs holds two communities of
    num_nodes / (2t) nodes.  Its edge rates follow from its lambda: with
    total = 2t * expected_degree / num_nodes, p = lam * total and
    q = total - p, so every node expects `expected_degree` edges for any t.
    """

    lambdas: tuple[float, ...]
    num_nodes: int
    expected_degree: float
    mu: tuple[float, float]
    sigma: float
    mode: str = "bernoulli"

    def __post_init__(self):
        if not self.lambdas:
            raise InputError("lambdas (--lambdas) must hold at least one value")
        for lam in self.lambdas:
            if not 0.0 <= lam <= 1.0:
                raise InputError(f"lambdas (--lambdas) must lie in [0, 1], got {lam}")
        block = 2 * self.num_subgraphs
        if self.num_nodes <= 0 or self.num_nodes % block != 0:
            raise InputError(
                f"num_nodes (--nodes) must be a positive multiple of 2 communities x "
                f"{self.num_subgraphs} subgraphs = {block}, got {self.num_nodes}"
            )
        if not 0.0 < self.expected_degree < np.inf:
            raise InputError(
                f"expected_degree (--degree) must be finite and positive, got {self.expected_degree}"
            )
        for p, q in zip(self.p, self.q):
            if p > 1.0 or q > 1.0:
                raise InputError(
                    f"expected degree {self.expected_degree:g} is infeasible on {self.num_nodes} "
                    f"nodes (--nodes): edge rates p={p:g}, q={q:g} must both be at most 1"
                )
        if len(self.mu) != 2 or not all(np.isfinite(self.mu)):
            raise InputError(f"mu (--mu) must be two finite numbers, got {self.mu}")
        if not (np.isfinite(self.sigma) and self.sigma >= 0.0):
            raise InputError(f"sigma (--sigma) must be finite and >= 0, got {self.sigma}")
        if self.mode not in MODES:
            raise InputError(f"mode (--mode) must be one of {MODES}, got {self.mode!r}")

    @property
    def num_subgraphs(self) -> int:
        return len(self.lambdas)

    @property
    def community_size(self) -> int:
        """Nodes per community within one subgraph."""
        return self.num_nodes // (2 * self.num_subgraphs)

    @property
    def p(self) -> tuple[float, ...]:
        """Intra-community edge rate of each subgraph, lam * total."""
        return tuple(lam * self._total_rate for lam in self.lambdas)

    @property
    def q(self) -> tuple[float, ...]:
        """Inter-community edge rate of each subgraph, total - p."""
        return tuple(self._total_rate - p for p in self.p)

    @property
    def _total_rate(self) -> float:
        """p + q of every subgraph."""
        return 2.0 * self.num_subgraphs * self.expected_degree / self.num_nodes


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
    """An `FsbmConfig` from any sequences of lambdas and mu, with the commands' defaults."""
    return FsbmConfig(tuple(lambdas), num_nodes, expected_degree, tuple(mu), sigma, mode)


# --- exact-degree generation ----------------------------------------------


def _random_pairing(stubs: np.ndarray, n_ids: int, rng, bipartite: bool) -> np.ndarray:
    """Pair stubs into a simple graph, keeping every node's stub count.

    Bipartite stubs pair with a permuted copy of themselves (left, right);
    others pair with each other.  Self loops (non-bipartite only) and
    duplicates are repaired by swapping second endpoints between edges,
    which preserves every degree; a draw that is not simple after 300
    swap rounds is discarded, and 100 discarded draws raise.

    A round finds duplicates with one sort of int64 values that pack each
    edge's key lo * n_ids + hi above its position.  Positions break ties,
    so the repeats of a key after its first position are exactly the edges
    a stable argsort of the keys marks.  The packed values need
    (n_ids**2 - 1).bit_length() plus the last position's bit length, at
    most 63 bits, or the call raises before its first draw.  A community of
    at most 65,536 nodes always fits, at any degree: 32 bits of key, and
    `_exact_edges` keeps a pairing at or below m**2 / 2 edges, 31 bits.
    """
    edges = stubs.shape[0] if bipartite else stubs.shape[0] // 2
    shift = max(edges - 1, 0).bit_length()
    if (int(n_ids) * int(n_ids) - 1).bit_length() + shift > 63:
        raise GenerationError(
            f"cannot pair {edges} edges over {n_ids} node ids: "
            f"their packed keys would overflow 63 bits"
        )
    position = np.arange(edges, dtype=np.int64)
    position_mask = (1 << shift) - 1
    for _ in range(100):
        perm = rng.permutation(stubs)
        u, v = (stubs, perm) if bipartite else (perm[0::2].copy(), perm[1::2].copy())
        for _ in range(300):
            lo, hi = (u, v) if bipartite else (np.minimum(u, v), np.maximum(u, v))
            packed = np.sort(((lo * n_ids + hi) << shift) | position)
            key = packed >> shift
            bad = np.zeros(edges, dtype=bool) if bipartite else u == v
            bad[packed[1:][key[1:] == key[:-1]] & position_mask] = True
            bad_idx = np.flatnonzero(bad)
            if bad_idx.size == 0:
                return np.column_stack([u, v])
            partners = rng.integers(0, edges, size=bad_idx.size)
            for b, p in zip(bad_idx.tolist(), partners.tolist()):
                v[b], v[p] = v[p], v[b]
    raise GenerationError("could not realize the exact degree sequence")


def _exact_edges(m: int, d: int, rng, bipartite: bool) -> np.ndarray:
    """d edges per node on m nodes, or between two m-node sides when
    bipartite (local (left, right) index pairs).

    A node has m possible partners when bipartite and m - 1 otherwise.  An
    odd stub total drops one stub from an rng-chosen node (that node ends
    one edge short).  A target denser than half the partners is built as
    the complement of a sparse one, which keeps stub pairing in its
    reliable regime.
    """
    partners = m if bipartite else m - 1
    degrees = np.full(m, d, dtype=np.int64)
    if not bipartite and (m * d) % 2 == 1:
        degrees[int(rng.integers(m))] -= 1
    dense = d > partners // 2
    if dense:
        degrees = partners - degrees
    stubs = np.repeat(np.arange(m, dtype=np.int64), degrees)
    pairs = _random_pairing(stubs, m, rng, bipartite)
    if not dense:
        return pairs
    adj = np.ones((m, m), dtype=bool)
    adj[pairs[:, 0], pairs[:, 1]] = False
    if not bipartite:
        adj[pairs[:, 1], pairs[:, 0]] = False
        adj = np.triu(adj, k=1)
    return np.argwhere(adj)


# Uniforms drawn at a time by `_bernoulli_subgraph`; its temporaries hold
# this many pairs whatever the subgraph size.
_PAIR_BLOCK = 1 << 16


def _bernoulli_subgraph(m: int, p: float, q: float, rng) -> np.ndarray:
    """Edges (i, j), i < j, over 2m nodes, nodes i < m in community 0: each
    pair joins when its uniform falls below p (same community) or q.

    One uniform per pair, in row-major upper-triangle order, drawn in
    blocks of `_PAIR_BLOCK` consecutive pairs; a block may end inside a
    row.  The blocks continue one stream, so the edges do not depend on the
    block size.  Row i's pairs form a run of intra pairs followed by a run
    of cross pairs (none for i >= m), so a block's rates are those runs
    clipped to it, and only the kept pairs are turned into (i, j).
    """
    nodes = np.arange(2 * m, dtype=np.int64)
    lengths = 2 * m - 1 - nodes
    starts = np.zeros(2 * m + 1, dtype=np.int64)
    np.cumsum(lengths, out=starts[1:])
    intra = np.where(nodes < m, m - 1 - nodes, lengths)
    run_ends = np.column_stack([starts[:-1] + intra, starts[1:]]).ravel()
    run_rates = np.tile(np.array([p, q]), 2 * m)
    total = int(starts[-1])
    kept = [np.empty(0, dtype=np.int64)]
    for s in range(0, total, _PAIR_BLOCK):
        e = min(s + _PAIR_BLOCK, total)
        first = np.searchsorted(run_ends, s, side="right")
        last = np.searchsorted(run_ends, e - 1, side="right")
        ends = np.minimum(run_ends[first : last + 1], e)
        rates = np.repeat(run_rates[first : last + 1], np.diff(ends, prepend=s))
        kept.append(np.flatnonzero(rng.random(e - s) < rates) + s)
    pos = np.concatenate(kept)
    rows = np.searchsorted(starts, pos, side="right") - 1
    return np.column_stack([rows, pos - starts[rows] + rows + 1])


def _exact_degrees(m: int, p: float, q: float) -> tuple[int, int]:
    """Each node's intra- and inter-community degree in expectation_exact
    mode: its expected counts p * (m - 1) and q * m, rounded."""
    return int(np.round(p * (m - 1))), int(np.round(q * m))


def _exact_subgraph(m: int, p: float, q: float, rng) -> np.ndarray:
    d_in, d_out = _exact_degrees(m, p, q)
    return np.vstack([
        _exact_edges(m, d_in, rng, bipartite=False),
        _exact_edges(m, d_in, rng, bipartite=False) + m,
        _exact_edges(m, d_out, rng, bipartite=True) + [0, m],
    ])


def generate_fsbm(config: FsbmConfig, seed=0) -> SyntheticDataset:
    """Draw one dataset: edges subgraph by subgraph, then features.

    The draw order (edges first, features second, subgraphs in index
    order) is fixed, so a seed pins the whole dataset.
    """
    rng = np.random.default_rng(seed)
    t, m = config.num_subgraphs, config.community_size
    community = np.tile(np.repeat(np.arange(2), m), t)
    subgraph_id = np.repeat(np.arange(t), 2 * m)
    subgraph = _bernoulli_subgraph if config.mode == "bernoulli" else _exact_subgraph
    edges = np.vstack([
        subgraph(m, p, q, rng) + tau * 2 * m
        for tau, (p, q) in enumerate(zip(config.p, config.q))
    ])
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
    |lam1 - lam2| * (mu1 - mu2)^2.  That mean is exact, computed from sorted
    prefix sums (`_mean_abs_difference`); it differs from the all-pairs
    mean only in summation order.
    """

    lambdas: np.ndarray
    analytic: np.ndarray
    empirical: np.ndarray
    stderr: np.ndarray
    gap_bound: float
    gap_empirical: float
    gap_stderr: float

    @property
    def gap_passed(self) -> bool:
        return self.gap_empirical >= self.gap_bound - 3.0 * self.gap_stderr


def _mean_and_stderr(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean over trials (axis 0) and its standard error; zero for one trial."""
    trials = values.shape[0]
    if trials > 1:
        return values.mean(axis=0), values.std(axis=0, ddof=1) / np.sqrt(trials)
    return values.mean(axis=0), np.zeros_like(values[0])


def _mean_abs_difference(a: np.ndarray, b: np.ndarray) -> float:
    """Mean |a_i - b_j| over all pairs (i, j), in O((len(a) + len(b)) log len(b)).

    With b sorted and prefix sums S, the k values of b below a_i contribute
    a_i * k - S[k] and the rest S[-1] - S[k] - a_i * (len(b) - k); values
    equal to a_i contribute 0 on either side.
    """
    b = np.sort(b)
    prefix = np.concatenate([[0.0], np.cumsum(b)])
    k = np.searchsorted(b, a)
    below = a * k - prefix[k]
    above = prefix[-1] - prefix[k] - a * (b.shape[0] - k)
    return float((below + above).sum() / (a.shape[0] * b.shape[0]))


def _generated_lambdas(config: FsbmConfig) -> np.ndarray:
    """Each subgraph's homophily as the generator realizes it: p / (p + q)
    of the edge rates in bernoulli mode, d_in / (d_in + d_out) of the
    rounded degrees in expectation_exact mode."""
    m = config.community_size
    lambdas = []
    for p, q in zip(config.p, config.q):
        same, cross = (p, q) if config.mode == "bernoulli" else _exact_degrees(m, p, q)
        if same + cross == 0:
            raise InputError(
                f"lambda undefined: p={p:g}, q={q:g} give no edges per node at community size {m}"
            )
        lambdas.append(same / (same + cross))
    return np.asarray(lambdas)


def theory_check(config: FsbmConfig, trials: int, base_seed=0) -> TheoryReport:
    """Monte-Carlo estimate of both closed forms from one draw per trial.

    Trial i draws `generate_fsbm(config, seed=[base_seed, i])` once; its
    local similarity phi gives both the per-subgraph means and the mean
    cross-subgraph |phi_i - phi_j|, the latter exact from sorted prefix sums
    without forming the pairs (only its summation order differs from the
    all-pairs mean).  Uses the scalar-feature similarity
    -(x_i - x_j)^2 and the naive per-node mean, the setting in which both
    closed forms are derived: 2 subgraphs of 2 communities.  Both closed
    forms use the homophily the generator realizes, which in
    expectation_exact mode follows the rounded degrees.
    """
    if config.num_subgraphs != 2:
        raise InputError(
            f"the closed forms are stated for 2 subgraphs (two lambdas), got {config.num_subgraphs}"
        )
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
    lambdas = _generated_lambdas(config)
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
        gaps[i] = _mean_abs_difference(phi0, phi1)
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
    config: ExperimentConfig,
    num_nodes: int = 1000,
    mode: str = "bernoulli",
    base_seed: int = 0,
) -> list[ToyCell]:
    """Compare three classifiers on two-subgraph datasets.

    raw: logistic head on the scalar feature alone.  graph_level: the
    model with one learned global mixing vector.  node_level: the model
    with per-node mixing driven by naive local similarity.  Both model
    arms use a single propagation hop over the self-loop adjacency A + I
    and its identity complement, with row normalization off (scalar
    features reduce to bare signs under row normalization), the scalar
    similarity -(x_i - x_j)^2, naive local similarity and no dropout.  Every
    other setting comes from `config`: all arms train with its training
    settings, and the model arms take the rest of its model settings
    (`hidden_dim`, `alpha_hidden`, ...).
    """
    seeds = tuple(int(s) for s in seeds)
    if not seeds:
        raise InputError("toy study needs at least one seed")
    arm = replace(config, num_layers=1, variant="irdc", normalize=False,
                  sim_kind="neg_sq_scalar", localsim_mode="naive", dropout=0.0)
    propagation = arm.propagation()
    cells = []
    for ci, lambdas in enumerate(lambda_grid):
        fsbm = multi_subgraph_config(lambdas, num_nodes=num_nodes, mode=mode)
        accs: dict[str, list[float]] = {"raw": [], "graph_level": [], "node_level": []}
        for s in seeds:
            ds = generate_fsbm(fsbm, seed=[base_seed, ci, s, 0])
            split = make_splits(num_nodes, base_seed=[base_seed, ci, s, 1], count=1)[0]
            tcfg = config.training(seed=(base_seed, ci, s, 2))
            raw_model = train_linear(ds.x, ds.community, 2, tcfg, split.train, split.val)
            accs["raw"].append(linear_accuracy(raw_model, ds.x, ds.community, split.test))
            stack = build_stack(self_loop_filters(ds.graph), ds.x, propagation)
            inputs = ModelInputs.build(ds.graph, ds.x, stack, arm.sim_kind)
            for weight_mode in ("graph_level", "node_level"):
                mcfg = replace(arm, weight_mode=weight_mode).model(in_dim=1, num_classes=2)
                result = train(mcfg, tcfg, inputs, ds.community, split.train, split.val)
                accs[weight_mode].append(
                    evaluate(result.params, mcfg, inputs, ds.community, split.test)
                )
        cells.append(
            ToyCell(
                lambdas=fsbm.lambdas,
                seeds=seeds,
                raw=np.array(accs["raw"]),
                graph_level=np.array(accs["graph_level"]),
                node_level=np.array(accs["node_level"]),
            )
        )
    return cells
