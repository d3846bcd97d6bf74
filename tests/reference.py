"""Independent dense/loop re-implementations used as test oracles.

Everything here is deliberately naive: dense matrices, Python loops, and
recurrences written straight from the definitions.  The package under test
must agree with these, not the other way around.
"""

import numpy as np

from lsgnn.errors import GenerationError


def dense_adjacency(num_nodes, edges):
    """Symmetric 0/1 adjacency from an edge array, loops and dupes ignored."""
    a = np.zeros((num_nodes, num_nodes))
    for i, j in np.asarray(edges, dtype=np.int64).reshape(-1, 2):
        if i != j:
            a[i, j] = 1.0
            a[j, i] = 1.0
    return a


def dense_sym_norm(a):
    deg = a.sum(axis=1)
    inv = np.zeros_like(deg)
    nz = deg > 0
    inv[nz] = 1.0 / np.sqrt(deg[nz])
    return inv[:, None] * a * inv[None, :]


def dense_self_loop(a):
    return a + np.eye(a.shape[0])


def dense_enhanced(a, beta):
    low = beta * np.eye(a.shape[0]) + dense_sym_norm(a)
    high = np.eye(a.shape[0]) - low
    return low, high


def dense_node_homophily(a, labels):
    deg = a.sum(axis=1)
    per = np.zeros(a.shape[0])
    for i in range(a.shape[0]):
        if deg[i] > 0:
            nbrs = np.flatnonzero(a[i])
            per[i] = float((labels[nbrs] == labels[i]).mean())
    return per, float(per[deg > 0].mean()) if (deg > 0).any() else 0.0


def dense_irdc(s, x, num_layers, gamma):
    """H^(1) = S X; for k >= 2, H^(k) = S((1-gamma) X - gamma sum_{l<k} H^(l))."""
    layers = [s @ x]
    for _ in range(1, num_layers):
        acc = np.sum(layers, axis=0)
        layers.append(s @ ((1.0 - gamma) * x - gamma * acc))
    return layers


def dense_variant(variant, s, x, num_layers):
    if variant == "sgc":
        z = x
        out = []
        for _ in range(num_layers):
            z = s @ z
            out.append(z)
        return out
    if variant == "initial_residual":
        z = x
        out = []
        for _ in range(num_layers):
            z = x + s @ z
            out.append(z)
        return out
    if variant == "difference_residual":
        prev2 = x  # z^(0)
        out = [s @ x]
        for _ in range(1, num_layers):
            nxt = s @ (prev2 - out[-1])
            prev2 = out[-1]
            out.append(nxt)
        return out
    raise ValueError(variant)


def dense_row_normalize(m):
    norms = np.linalg.norm(m, axis=1)
    out = m.copy()
    nz = norms > 0
    out[nz] = m[nz] / norms[nz, None]
    return out


def argsort_filter_pair(g, diag, off):
    """The A + I pattern of a filter pair by one stable argsort of its
    (row, col) keys: (indptr, indices, low values, high values), with the
    low filter diag*I + off and the high filter I - low."""
    n = g.num_nodes
    rows = np.concatenate([g.entry_rows(), np.arange(n, dtype=np.int64)])
    cols = np.concatenate([g.col_indices, np.arange(n, dtype=np.int64)])
    order = np.argsort(rows * n + cols, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(g.degrees + 1, out=indptr[1:])
    low = np.concatenate([off, diag])[order]
    high = np.concatenate([-off, 1.0 - diag])[order]
    return indptr, cols[order], low, high


def triu_bernoulli_subgraph(m, p, q, rng):
    """Two-community Bernoulli edges over 2m nodes from one draw of a
    uniform per upper-triangle pair, with every pair's index held at once."""
    comm = np.repeat(np.arange(2), m)
    iu, ju = np.triu_indices(2 * m, k=1)
    prob = np.where(comm[iu] == comm[ju], p, q)
    keep = rng.random(iu.shape[0]) < prob
    return np.column_stack([iu[keep], ju[keep]]).astype(np.int64)


def stable_sort_pairing(stubs, n_ids, rng, bipartite):
    """The exact-degree stub pairing with each repair round's duplicates
    marked by one stable argsort of the edge keys."""
    for _ in range(100):
        perm = rng.permutation(stubs)
        u, v = (stubs, perm) if bipartite else (perm[0::2].copy(), perm[1::2].copy())
        for _ in range(300):
            lo, hi = (u, v) if bipartite else (np.minimum(u, v), np.maximum(u, v))
            key = lo * n_ids + hi
            order = np.argsort(key, kind="stable")
            sorted_key = key[order]
            bad = np.zeros(u.shape[0], dtype=bool)
            bad[order[1:][sorted_key[1:] == sorted_key[:-1]]] = True
            if not bipartite:
                bad |= u == v
            bad_idx = np.flatnonzero(bad)
            if bad_idx.size == 0:
                return np.column_stack([u, v])
            partners = rng.integers(0, u.shape[0], size=bad_idx.size)
            for b, p in zip(bad_idx, partners):
                v[b], v[p] = v[p], v[b]
    raise GenerationError("could not realize the exact degree sequence")


def loop_sim(xi, xj, kind):
    if kind == "cosine":
        ni = np.linalg.norm(xi)
        nj = np.linalg.norm(xj)
        if ni == 0.0 or nj == 0.0:
            return 0.0
        return float(xi @ xj / (ni * nj))
    if kind == "euclidean":
        return -float(np.linalg.norm(xi - xj))
    if kind == "neg_sq_scalar":
        return -float((xi[0] - xj[0]) ** 2)
    raise ValueError(kind)


def loop_localsim(a, x, kind):
    """Per-node mean neighbor similarity via explicit loops; deg-0 -> 0."""
    n = a.shape[0]
    phi = np.zeros(n)
    for i in range(n):
        nbrs = np.flatnonzero(a[i])
        if nbrs.size:
            phi[i] = float(np.mean([loop_sim(x[i], x[j], kind) for j in nbrs]))
    return phi


def loop_one_hop_bayes(a, x, mu, sigma, lambdas):
    """Exact one-hop Bayes log-odds of community 0 over community 1 for
    the two-community block model, node by node.

    A node of community c has feature N(mu[c], sigma^2).  In region tau
    each neighbor is of the node's own community with probability
    lambdas[tau], so a neighbor's feature follows
    lambdas[tau] N(mu[c], sigma^2) + (1 - lambdas[tau]) N(mu[1-c], sigma^2).
    The region is unobserved and has a uniform prior (1/2 for two regions);
    the community prior is 1/2.  Returns (full, self_only): the log-odds
    from the node's feature and its neighbors' features, and from the
    node's feature alone.  full - self_only is the neighbor term.
    """

    def density(v, m):
        return np.exp(-0.5 * ((v - m) / sigma) ** 2) / (sigma * np.sqrt(2.0 * np.pi))

    n = a.shape[0]
    full = np.zeros(n)
    self_only = np.zeros(n)
    for i in range(n):
        xi = float(x[i, 0])
        self_only[i] = np.log(density(xi, mu[0])) - np.log(density(xi, mu[1]))
        nbrs = np.flatnonzero(a[i])
        log_evidence = []
        for c in (0, 1):
            per_region = []
            for lam in lambdas:
                total = np.log(1.0 / len(lambdas))
                for j in nbrs:
                    xj = float(x[j, 0])
                    total += np.log(lam * density(xj, mu[c])
                                    + (1.0 - lam) * density(xj, mu[1 - c]))
                per_region.append(total)
            log_evidence.append(np.logaddexp.reduce(per_region))
        full[i] = self_only[i] + log_evidence[0] - log_evidence[1]
    return full, self_only


def loop_forward(a, x, low, high, params, sim_kind, localsim_mode, weight_mode):
    """Class probabilities of the fusion model, node by node.

    Written from the model's definition: 2K+1 channel maps
    relu(row @ W); local similarity phi as the neighbor mean of the raw
    similarity (naive) or of a one-hidden-layer MLP of [s, s^2] (refined),
    0 for an isolated node; fusion weights alpha from an MLP of
    [phi, phi^2] (node level) or one shared vector (graph level); block 0
    is the identity channel and block kk + 1 is
    alpha[kk] h_in + alpha[K + kk] h_low_kk + alpha[2K + kk] h_high_kk;
    then a softmax over the blocks' linear logits.
    """
    def relu(v):
        return np.maximum(v, 0.0)

    k = len(low)
    probs = []
    for i in range(a.shape[0]):
        h_in = relu(x[i] @ params["w_in"])
        h_low = [relu(low[kk][i] @ params[f"w_low_{kk + 1}"]) for kk in range(k)]
        h_high = [relu(high[kk][i] @ params[f"w_high_{kk + 1}"]) for kk in range(k)]
        if weight_mode == "graph_level":
            alpha = params["graph_alpha"]
        else:
            scores = []
            for j in np.flatnonzero(a[i]):
                s = loop_sim(x[i], x[j], sim_kind)
                if localsim_mode == "refined":
                    hidden = relu(np.array([s, s * s]) @ params["ls_w1"] + params["ls_b1"])
                    s = float(hidden @ params["ls_w2"][:, 0] + params["ls_b2"][0])
                scores.append(s)
            phi = float(np.mean(scores)) if scores else 0.0
            hidden = relu(np.array([phi, phi * phi]) @ params["al_w1"] + params["al_b1"])
            alpha = hidden @ params["al_w2"] + params["al_b2"]
        blocks = [h_in]
        for kk in range(k):
            blocks.append(alpha[kk] * h_in + alpha[k + kk] * h_low[kk]
                          + alpha[2 * k + kk] * h_high[kk])
        logits = np.concatenate(blocks) @ params["w_out"]
        e = np.exp(logits - logits.max())
        probs.append(e / e.sum())
    return np.array(probs)


def central_fd(loss_fn, params, h):
    """Central finite differences of a scalar function over named arrays.

    `params` is the object under test; `loss_fn()` must read it.  Returns
    {name: gradient array}.
    """
    grads = {}
    for name, arr in params.items():
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            hi = loss_fn()
            flat[idx] = orig - h
            lo = loss_fn()
            flat[idx] = orig
            gflat[idx] = (hi - lo) / (2.0 * h)
        grads[name] = g
    return grads


def max_rel_error(analytic, numeric, floor=1e-6):
    """Worst relative disagreement between two gradient dicts.

    The floor keeps coordinates whose gradient is essentially zero from
    turning float64 difference noise into fake relative error: below it the
    comparison is absolute at floor scale.
    """
    worst = 0.0
    for name, a in analytic.items():
        b = numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
        worst = max(worst, float(np.max(np.abs(a - b) / denom)))
    return worst


def fd_rel_error(loss_fn, params, analytic, steps=(1e-5, 1e-6), floor=1e-6):
    """Per-coordinate relative error against the best-converged central
    difference over several step sizes.

    A probe that straddles a relu kink is biased at large h but clean once
    h drops below the distance to the kink, while a genuinely wrong
    gradient disagrees at every h.  Taking the per-coordinate minimum over
    steps therefore rejects probe artifacts without masking real bugs.
    """
    numerics = [central_fd(loss_fn, params, h) for h in steps]
    worst = 0.0
    for name, a in analytic.items():
        best = None
        for numeric in numerics:
            b = numeric[name]
            denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
            err = np.abs(a - b) / denom
            best = err if best is None else np.minimum(best, err)
        worst = max(worst, float(np.max(best)))
    return worst
