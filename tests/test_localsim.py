import numpy as np
import pytest

from lsgnn import localsim
from lsgnn.errors import InputError
from lsgnn.graph import build_graph, neighborhood_mean
from lsgnn.localsim import (
    edge_sim_values,
    naive_localsim,
    similarity,
)

from conftest import traced_peak
from reference import dense_adjacency, loop_localsim


def test_two_neighbor_scalar_mean():
    # center 0 with neighbors at 0 and -4: mean of -(1-0)^2... use exact values
    g = build_graph(np.array([[0, 1], [0, 2]]), 3)
    x = np.array([[0.0], [0.0], [-2.0]])
    phi = naive_localsim(g, x, "neg_sq_scalar")
    # d(0,1) = 0, d(0,2) = -4 -> mean -2
    assert phi[0] == pytest.approx(-2.0)
    assert phi[1] == pytest.approx(0.0)
    assert phi[2] == pytest.approx(-4.0)


def test_cosine_identical_rows_is_one(triangle):
    x = np.tile([[1.0, 2.0, 3.0]], (3, 1))
    phi = naive_localsim(triangle, x, "cosine")
    assert np.allclose(phi, 1.0)


def test_cosine_zero_norm_rows_contribute_zero():
    g = build_graph(np.array([[0, 1], [0, 2]]), 3)
    x = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    phi = naive_localsim(g, x, "cosine")
    # neighbor 1 has zero norm -> similarity 0; neighbor 2 -> 1
    assert phi[0] == pytest.approx(0.5)


def test_similarity_batched_values():
    a = np.array([[3.0, 4.0], [3.0, 4.0], [3.0, 4.0]])
    b = np.array([[3.0, 4.0], [-3.0, -4.0], [0.0, 0.0]])
    cos = similarity(a, b, "cosine")
    assert cos == pytest.approx([1.0, -1.0, 0.0])
    euc = similarity(a, b, "euclidean")
    assert euc[2] == pytest.approx(-5.0)
    sq = similarity(np.array([[1.0]]), np.array([[4.0]]), "neg_sq_scalar")
    assert sq[0] == pytest.approx(-9.0)


def test_neg_sq_scalar_requires_one_dim(triangle):
    with pytest.raises(InputError):
        naive_localsim(triangle, np.ones((3, 2)), "neg_sq_scalar")


def test_unknown_kind_rejected(triangle):
    with pytest.raises(InputError):
        naive_localsim(triangle, np.ones((3, 1)), "manhattan")


@pytest.mark.parametrize("fn", [edge_sim_values, naive_localsim])
def test_kind_is_checked_on_an_edgeless_graph(fn):
    g = build_graph(np.zeros((0, 2), dtype=np.int64), 3)
    with pytest.raises(InputError, match="kind must be one of"):
        fn(g, np.ones((3, 1)), "bogus")
    with pytest.raises(InputError, match="neg_sq_scalar requires 1-dimensional features, got d=2"):
        fn(g, np.ones((3, 2)), "neg_sq_scalar")


@pytest.mark.parametrize("d", [16, 64])
def test_edge_values_gather_a_fixed_chunk_whatever_the_edge_count(d):
    # Per entry, only the result and its row id (16 bytes) grow with E; the
    # gathered (chunk, d) rows must not (they would add 16 * d bytes).
    n = 4000
    rng = np.random.default_rng(d)
    x = rng.normal(size=(n, d))
    peaks, entries = [], []
    for num_edges in (25_000, 100_000):
        g = build_graph(rng.integers(0, n, size=(num_edges, 2)), n)
        entries.append(g.num_entries)
        peaks.append(traced_peak(edge_sim_values, g, x, "cosine")[1])
    growth = peaks[1] - peaks[0]
    assert growth < 24 * (entries[1] - entries[0]), (peaks, entries)


@pytest.mark.parametrize("kind", ["cosine", "euclidean"])
def test_matches_loop_oracle(random_graph, kind):
    g, edges = random_graph(n=14, p=0.3, seed=41)
    x = np.random.default_rng(6).normal(size=(14, 5))
    ref = loop_localsim(dense_adjacency(14, edges), x, kind)
    assert np.allclose(naive_localsim(g, x, kind), ref, atol=1e-12)


def test_scalar_kind_matches_loop_oracle(random_graph):
    g, edges = random_graph(n=14, p=0.3, seed=42)
    x = np.random.default_rng(7).normal(size=(14, 1))
    ref = loop_localsim(dense_adjacency(14, edges), x, "neg_sq_scalar")
    assert np.allclose(naive_localsim(g, x, "neg_sq_scalar"), ref, atol=1e-12)


def test_isolated_nodes_get_zero(random_graph):
    g = build_graph(np.array([[0, 1]]), 3)
    phi = naive_localsim(g, np.random.default_rng(8).normal(size=(3, 2)), "cosine")
    assert phi[2] == 0.0


def test_edge_values_follow_entry_order(random_graph):
    g, _ = random_graph(n=10, p=0.35, seed=43)
    x = np.random.default_rng(9).normal(size=(10, 3))
    vals = edge_sim_values(g, x, "euclidean")
    rows = g.entry_rows()
    want = similarity(x[rows], x[g.col_indices], "euclidean")
    assert np.allclose(vals, want, atol=1e-12)


def test_chunked_evaluation_matches_single_pass(random_graph, monkeypatch):
    g, _ = random_graph(n=20, p=0.4, seed=44)
    x = np.random.default_rng(10).normal(size=(20, 4))
    full = edge_sim_values(g, x, "cosine")
    monkeypatch.setattr(localsim, "_CHUNK", 7)
    assert np.array_equal(edge_sim_values(g, x, "cosine"), full)


@pytest.mark.parametrize("d", [1, 5])
@pytest.mark.parametrize("chunk", [7, localsim._CHUNK])
def test_cosine_edge_values_are_bitwise_similarity(random_graph, monkeypatch, d, chunk):
    g, _ = random_graph(n=24, p=0.4, seed=45)
    x = np.random.default_rng(11).normal(size=(24, d))
    x[[0, 5, 17]] = 0.0  # zero-norm rows
    monkeypatch.setattr(localsim, "_CHUNK", chunk)
    want = similarity(x[g.entry_rows()], x[g.col_indices], "cosine")
    for layout in (x, np.asfortranarray(x)):
        assert edge_sim_values(g, layout, "cosine").tobytes() == want.tobytes()


def test_neighborhood_mean_deg_zero_and_values():
    g = build_graph(np.array([[0, 1], [0, 2]]), 4)
    vals = np.array([1.0, 5.0, 1.0, 5.0])  # entries: 0->1, 0->2, 1->0, 2->0
    out = neighborhood_mean(g, vals)
    assert out[0] == pytest.approx(3.0)
    assert out[3] == 0.0


def test_naive_equals_composition(random_graph):
    g, _ = random_graph(n=12, p=0.3, seed=45)
    x = np.random.default_rng(11).normal(size=(12, 2))
    composed = neighborhood_mean(g, edge_sim_values(g, x, "cosine"))
    assert np.array_equal(naive_localsim(g, x, "cosine"), composed)
