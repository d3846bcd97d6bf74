import numpy as np
import pytest
import scipy.sparse as sp

from lsgnn.errors import InputError
from lsgnn.graph import (
    build_graph,
    complement_filter,
    enhanced_filters,
    node_homophily,
    read_edge_list,
    self_loop_adj,
    sym_norm_adj,
    write_edge_list,
)

from reference import (
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


def test_build_graph_rejects_bad_ids():
    with pytest.raises(InputError):
        build_graph(np.array([[0, 5]]), 4)
    with pytest.raises(InputError):
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


def test_self_loop_adj(random_graph):
    g, edges = random_graph(n=10, p=0.3, seed=1)
    ref = dense_self_loop(dense_adjacency(10, edges))
    assert np.array_equal(self_loop_adj(g).toarray(), ref)


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


def test_complement_requires_stored_diagonal(path4):
    # plain normalized adjacency has no diagonal entries to complement against
    with pytest.raises(InputError):
        complement_filter(sym_norm_adj(path4))


def test_filter_products_match_numpy(random_graph):
    g, edges = random_graph(n=14, p=0.3, seed=9)
    pair = enhanced_filters(g, 0.5)
    filters = {
        "sym_norm_adj": sym_norm_adj(g),
        "self_loop_adj": self_loop_adj(g),
        "enhanced low": pair.low,
        "enhanced high": pair.high,
        "complement_filter": complement_filter(self_loop_adj(g)),
    }
    x = np.random.default_rng(0).normal(size=(14, 5))
    for name, s in filters.items():
        # sorted, duplicate-free indices make every product deterministic
        assert isinstance(s, sp.csr_array), name
        assert s.has_canonical_format, name
        assert np.allclose(s @ x, s.toarray() @ x, atol=1e-13), name


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
    write_edge_list(path, g)
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
    with pytest.raises(InputError, match=r"edges\.txt:2"):
        read_edge_list(path)
    path.write_text("0 1\n1\n")
    with pytest.raises(InputError, match=r"edges\.txt:2"):
        read_edge_list(path)
