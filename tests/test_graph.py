import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lsgnn.errors import FormatError, InputError
from lsgnn.graph import (
    _write_table,
    build_graph,
    enhanced_filters,
    node_homophily,
    read_edge_list,
    self_loop_filters,
    sym_norm_adj,
)

from reference import (
    argsort_filter_pair,
    dense_adjacency,
    dense_enhanced,
    dense_node_homophily,
    dense_self_loop,
    dense_sym_norm,
)


def test_build_graph_cleans_and_counts():
    edges = np.array([[0, 1], [1, 0], [2, 2], [1, 2], [1, 2]])
    g = build_graph(edges, 4)
    assert g.num_edges == 2
    assert g.loops_dropped == 1
    # (0,1) given twice plus (1,2) given twice -> two duplicates dropped
    assert g.duplicates_dropped == 2
    assert g.degrees.tolist() == [1, 2, 1, 0]
    assert g.neighbors(1).tolist() == [0, 2]


def test_build_graph_sorted_csr_and_input_order_invariance():
    edges = [[3, 1], [0, 2], [1, 0], [2, 3]]
    g1 = build_graph(np.array(edges), 5)
    g2 = build_graph(np.array(edges[::-1]), 5)
    assert np.array_equal(g1.row_offsets, g2.row_offsets)
    assert np.array_equal(g1.col_indices, g2.col_indices)
    for i in range(5):
        nbrs = g1.neighbors(i)
        assert np.array_equal(nbrs, np.sort(nbrs))


def _unique_argsort_oracle(edges, n):
    """Reference CSR by np.unique over canonical (lo, hi) keys and a stable
    argsort of the symmetrized entries: (row_offsets, col_indices, degrees,
    loops_dropped, duplicates_dropped)."""
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    loops = arr[:, 0] == arr[:, 1]
    arr = arr[~loops]
    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    keys = lo * n + hi
    unique_keys = np.unique(keys)
    lo, hi = unique_keys // n, unique_keys % n
    rows = np.concatenate([lo, hi])
    cols = np.concatenate([hi, lo])
    order = np.argsort(rows * n + cols, kind="stable")
    degrees = np.bincount(rows, minlength=n).astype(np.int64)
    row_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=row_offsets[1:])
    return (row_offsets, cols[order].astype(np.int64), degrees, int(loops.sum()),
            int(keys.shape[0] - unique_keys.shape[0]))


@st.composite
def _edge_lists(draw):
    """1-12 nodes and up to 40 pairs, self loops allowed, with some pairs
    repeated as drawn or reversed."""
    n = draw(st.integers(1, 12))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=30))
    repeats = draw(st.lists(st.tuples(st.sampled_from(pairs), st.booleans()), max_size=10)) if pairs else []
    pairs += [(j, i) if flip else (i, j) for (i, j), flip in repeats]
    return np.array(pairs, dtype=np.int64).reshape(-1, 2), n


@settings(max_examples=300, deadline=None)
@example(case=(np.zeros((0, 2), dtype=np.int64), 1))
@example(case=(np.zeros((0, 2), dtype=np.int64), 5))
@example(case=(np.array([[0, 0], [0, 0]]), 1))
@example(case=(np.array([[2, 0], [0, 2], [2, 0], [1, 1], [0, 2]]), 6))
@given(case=_edge_lists())
def test_build_graph_matches_unique_argsort_oracle(case):
    edges, n = case
    g = build_graph(edges, n)
    row_offsets, col_indices, degrees, loops, duplicates = _unique_argsort_oracle(edges, n)
    for name, got, want in (("row_offsets", g.row_offsets, row_offsets),
                            ("col_indices", g.col_indices, col_indices),
                            ("degrees", g.degrees, degrees)):
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert (g.loops_dropped, g.duplicates_dropped) == (loops, duplicates)
    assert type(g.duplicates_dropped) is int and g.num_nodes == n


def test_build_graph_rejects_bad_ids():
    with pytest.raises(InputError, match=r"^edge \(0, 5\) references a node outside \[0, 4\)$"):
        build_graph(np.array([[1, 2], [0, 5]]), 4)
    with pytest.raises(InputError, match=r"^edge \(-1, 0\) references"):
        build_graph(np.array([[-1, 0]]), 4)


def test_edge_array_round_trip():
    edges = np.array([[2, 0], [1, 2], [0, 1]])
    g = build_graph(edges, 3)
    assert g.edge_array().tolist() == [[0, 1], [0, 2], [1, 2]]


def test_sym_norm_path_entries(path4):
    # interior path edges connect degree-1 and degree-2 nodes
    s = sym_norm_adj(path4).toarray()
    ref = dense_sym_norm(dense_adjacency(4, [[0, 1], [1, 2], [2, 3]]))
    assert np.allclose(s, ref, atol=1e-15)
    assert s[0, 1] == pytest.approx(1.0 / np.sqrt(2.0))
    assert s[1, 2] == pytest.approx(0.5)


def test_sym_norm_matches_dense_reference(random_graph):
    g, edges = random_graph(n=15, p=0.25, seed=3)
    ref = dense_sym_norm(dense_adjacency(15, edges))
    assert np.allclose(sym_norm_adj(g).toarray(), ref, atol=1e-14)


def test_sym_norm_isolated_node_rows_zero():
    g = build_graph(np.array([[0, 1]]), 3)
    s = sym_norm_adj(g).toarray()
    assert np.all(s[2] == 0.0)
    assert np.all(s[:, 2] == 0.0)


def test_self_loop_filters(random_graph):
    g, edges = random_graph(n=10, p=0.3, seed=1)
    ref = dense_self_loop(dense_adjacency(10, edges))
    pair = self_loop_filters(g)
    assert pair.kind == "self_loop"
    assert np.array_equal(pair.low.toarray(), ref)
    assert np.array_equal(pair.high.toarray(), np.eye(10) - ref)


def test_enhanced_filters_single_edge():
    g = build_graph(np.array([[0, 1]]), 2)
    pair = enhanced_filters(g, 0.5)
    assert np.allclose(pair.low.toarray(), [[0.5, 1.0], [1.0, 0.5]])
    assert np.allclose(pair.high.toarray(), [[0.5, -1.0], [-1.0, 0.5]])


@pytest.mark.parametrize("beta", [0.0, 0.3, 1.0])
def test_enhanced_filters_sum_to_identity_exactly(random_graph, beta):
    g, edges = random_graph(n=20, p=0.2, seed=7)
    pair = enhanced_filters(g, beta)
    total = pair.low.toarray() + pair.high.toarray()
    assert np.max(np.abs(total - np.eye(20))) == 0.0
    ref_low, ref_high = dense_enhanced(dense_adjacency(20, edges), beta)
    assert np.allclose(pair.low.toarray(), ref_low, atol=1e-14)
    assert np.allclose(pair.high.toarray(), ref_high, atol=1e-14)


def test_enhanced_filters_beta_validation(path4):
    with pytest.raises(InputError):
        enhanced_filters(path4, -0.1)
    with pytest.raises(InputError):
        enhanced_filters(path4, 1.5)


def test_filter_products_match_numpy(random_graph):
    g, edges = random_graph(n=14, p=0.3, seed=9)
    pair = enhanced_filters(g, 0.5)
    loops = self_loop_filters(g)
    filters = {
        "sym_norm_adj": sym_norm_adj(g),
        "enhanced low": pair.low,
        "enhanced high": pair.high,
        "self_loop low": loops.low,
        "self_loop high": loops.high,
    }
    x = np.random.default_rng(0).normal(size=(14, 5))
    for name, s in filters.items():
        # sorted, duplicate-free indices make every product deterministic
        assert isinstance(s, sp.csr_array), name
        assert s.has_canonical_format, name
        assert np.allclose(s @ x, s.toarray() @ x, atol=1e-13), name


@st.composite
def _graphs(draw):
    """Random simple graphs of 1-12 nodes, with isolated nodes and empty
    edge sets among them."""
    n = draw(st.integers(1, 12))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return build_graph(np.array(draw(st.lists(pairs, max_size=30)), dtype=np.int64), n)


_NO_EDGES = np.zeros((0, 2), dtype=np.int64)


@settings(max_examples=150, deadline=None)
@example(g=build_graph(_NO_EDGES, 1), beta=0.5, kind="enhanced")
@example(g=build_graph(_NO_EDGES, 1), beta=0.5, kind="self_loop")
@example(g=build_graph(_NO_EDGES, 4), beta=0.1, kind="enhanced")
@example(g=build_graph(np.array([[0, 1]]), 3), beta=0.9, kind="enhanced")
@example(g=build_graph(np.array([[0, 1]]), 3), beta=0.9, kind="self_loop")
@given(g=_graphs(), beta=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]), kind=st.sampled_from(["enhanced", "self_loop"]))
def test_filter_builders_share_one_pattern_and_sum_to_identity(g, beta, kind):
    pair = enhanced_filters(g, beta) if kind == "enhanced" else self_loop_filters(g)
    low, high, n = pair.low, pair.high, g.num_nodes
    assert pair.kind == kind
    assert np.array_equal(low.indptr, high.indptr) and np.array_equal(low.indices, high.indices)
    assert low.has_canonical_format and high.has_canonical_format
    rows = np.repeat(np.arange(n), np.diff(low.indptr))
    diagonal = rows == low.indices
    assert np.array_equal(rows[diagonal], np.arange(n))
    assert np.all(low.data[diagonal] == (beta if kind == "enhanced" else 1.0))
    assert np.array_equal((low + high).toarray(), np.eye(n))


# Hub 0's neighbours all lie above the diagonal, hub 5's all below it;
# node 6 is isolated.
_STARS = build_graph(np.array([[0, 1], [0, 2], [0, 3], [5, 1], [5, 2], [5, 4]]), 7)


@settings(max_examples=150, deadline=None)
@example(g=_STARS, beta=0.5)
@example(g=build_graph(_NO_EDGES, 3), beta=0.2)
@example(g=build_graph(np.array([[0, 1], [2, 3], [1, 4]]), 8), beta=1.0)
@given(g=_graphs(), beta=st.sampled_from([0.0, 0.3, 1.0]))
def test_filter_pattern_is_bitwise_the_argsort_construction(g, beta):
    n = g.num_nodes
    built = {
        "enhanced": (enhanced_filters(g, beta), np.full(n, beta), sym_norm_adj(g).data),
        "self_loop": (self_loop_filters(g), np.ones(n), np.ones(g.num_entries)),
    }
    for kind, (pair, diag, off) in built.items():
        indptr, indices, low, high = argsort_filter_pair(g, diag, off)
        for got, want in [(pair.low.indptr, indptr), (pair.low.indices, indices),
                          (pair.high.indptr, indptr), (pair.high.indices, indices),
                          (pair.low.data, low), (pair.high.data, high)]:
            assert got.dtype == want.dtype, kind
            assert got.tobytes() == want.tobytes(), kind


def test_node_homophily_star(star5):
    labels = np.array([0, 0, 0, 1, 1])
    rep = node_homophily(star5, labels)
    # hub sees 2 of 4 leaves with its label; leaves see only the hub
    assert rep.per_node[0] == pytest.approx(0.5)
    assert rep.per_node[1] == pytest.approx(1.0)
    assert rep.per_node[3] == pytest.approx(0.0)
    assert rep.graph_level == pytest.approx((0.5 + 1.0 + 1.0 + 0.0 + 0.0) / 5)


def test_node_homophily_isolated_nodes_excluded():
    g = build_graph(np.array([[0, 1]]), 3)
    rep = node_homophily(g, np.array([1, 1, 0]))
    assert rep.per_node[2] == 0.0
    assert rep.graph_level == pytest.approx(1.0)


def test_node_homophily_matches_dense_reference(random_graph):
    g, edges = random_graph(n=16, p=0.25, seed=11)
    labels = np.random.default_rng(2).integers(0, 3, size=16)
    per_ref, graph_ref = dense_node_homophily(dense_adjacency(16, edges), labels)
    rep = node_homophily(g, labels)
    assert np.allclose(rep.per_node, per_ref, atol=1e-15)
    assert rep.graph_level == pytest.approx(graph_ref)


def test_node_homophily_permutation_equivariant(random_graph):
    g, edges = random_graph(n=10, p=0.35, seed=13)
    labels = np.random.default_rng(3).integers(0, 2, size=10)
    perm = np.random.default_rng(4).permutation(10)
    inv = np.argsort(perm)
    g2 = build_graph(perm[np.asarray(edges)], 10)
    rep = node_homophily(g, labels)
    rep2 = node_homophily(g2, labels[inv])
    assert np.allclose(rep2.per_node[perm], rep.per_node, atol=1e-15)


def test_edge_list_round_trip(tmp_path, random_graph):
    g, _ = random_graph(n=9, p=0.4, seed=17)
    path = tmp_path / "edges.txt"
    _write_table(path, g.edge_array(), delimiter=" ")
    edges = read_edge_list(path)
    g2 = build_graph(edges, 9)
    assert np.array_equal(g.col_indices, g2.col_indices)
    assert np.array_equal(g.row_offsets, g2.row_offsets)


def test_read_edge_list_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("# header\n\n0 1\n# middle\n1 2\n")
    assert read_edge_list(path).tolist() == [[0, 1], [1, 2]]


def test_read_edge_list_reports_offending_line(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("0 1\n1 two\n")
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:2: node id 'two' is not an integer$"):
        read_edge_list(path)
    path.write_text("0 1\n1\n")
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:2: expected 2 values, got 1 in '1'$"):
        read_edge_list(path)


def test_read_edge_list_names_a_node_id_outside_int64(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("0 1\n1 99999999999999999999\n")
    with pytest.raises(FormatError, match=(f"^{re.escape(str(path))}:2: node id outside int64 "
                                           r"in '1 99999999999999999999'$")):
        read_edge_list(path)
