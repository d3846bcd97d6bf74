import numpy as np
import pytest

from lsgnn.errors import InputError
from lsgnn.synthetic import (
    FsbmConfig,
    generate_fsbm,
    multi_subgraph_config,
    theory_check,
    toy_study,
)


def test_config_validation():
    ok = dict(num_nodes=8, num_communities=2, num_subgraphs=2,
              p=(0.5, 0.5), q=(0.1, 0.1), mu=(1.0, -1.0), sigma=1.0)
    FsbmConfig(**ok)
    with pytest.raises(InputError):
        FsbmConfig(**{**ok, "num_communities": 1})
    with pytest.raises(InputError):
        FsbmConfig(**{**ok, "num_subgraphs": 0})
    with pytest.raises(InputError):
        FsbmConfig(**{**ok, "num_nodes": 10})  # not a multiple of r*t
    with pytest.raises(InputError):
        FsbmConfig(**{**ok, "p": (0.5,)})
    with pytest.raises(InputError):
        FsbmConfig(**{**ok, "q": (0.1, 1.2)})
    with pytest.raises(InputError):
        FsbmConfig(**{**ok, "mu": (1.0, -1.0, 0.0)})
    with pytest.raises(InputError):
        FsbmConfig(**{**ok, "sigma": -0.5})
    with pytest.raises(InputError):
        FsbmConfig(**{**ok, "mode": "poisson"})


def test_lambdas_property():
    config = FsbmConfig(num_nodes=8, num_communities=2, num_subgraphs=2,
                        p=(0.06, 0.01), q=(0.04, 0.04), mu=(1.0, -1.0), sigma=1.0)
    assert config.lambdas() == pytest.approx((0.6, 0.2))
    assert config.community_size == 2
    empty = FsbmConfig(num_nodes=8, num_communities=2, num_subgraphs=2,
                       p=(0.06, 0.0), q=(0.04, 0.0), mu=(1.0, -1.0), sigma=1.0)
    with pytest.raises(InputError):
        empty.lambdas()  # second subgraph has p = q = 0


def test_multi_subgraph_config_edge_rates_and_errors():
    config = multi_subgraph_config((0.9, 0.1), num_nodes=1000, expected_degree=10.0)
    p, q = config.p[0], config.q[0]
    assert p == pytest.approx(0.036)
    assert q == pytest.approx(0.004)
    assert p + q == pytest.approx(4.0 * 10.0 / 1000)
    assert p / (p + q) == pytest.approx(0.9)
    with pytest.raises(InputError):
        multi_subgraph_config((1.2, 0.5), num_nodes=1000, expected_degree=10.0)
    with pytest.raises(InputError):
        multi_subgraph_config((1.0, 0.5), num_nodes=20, expected_degree=10.0)  # p would be 2


def test_multi_subgraph_config_keeps_expected_degree():
    config = multi_subgraph_config((0.2, 0.5, 0.8), num_nodes=1200,
                                   expected_degree=10.0)
    total = 2.0 * 3 * 10.0 / 1200
    for tau, lam in enumerate((0.2, 0.5, 0.8)):
        assert config.p[tau] == pytest.approx(lam * total)
        assert config.q[tau] == pytest.approx((1 - lam) * total)
    assert config.num_subgraphs == 3
    assert config.community_size == 200
    with pytest.raises(InputError):
        multi_subgraph_config((0.9,), num_nodes=40, expected_degree=30.0)


def test_bernoulli_layout_and_determinism():
    config = multi_subgraph_config((0.9, 0.1), num_nodes=8, expected_degree=1.0)
    ds = generate_fsbm(config, seed=3)
    assert np.array_equal(ds.community, [0, 0, 1, 1, 0, 0, 1, 1])
    assert np.array_equal(ds.subgraph_id, [0, 0, 0, 0, 1, 1, 1, 1])
    assert ds.x.shape == (8, 1)

    config = multi_subgraph_config((0.9, 0.1), num_nodes=2000)
    a = generate_fsbm(config, seed=7)
    b = generate_fsbm(config, seed=7)
    assert np.array_equal(a.graph.edge_array(), b.graph.edge_array())
    assert np.array_equal(a.x, b.x)
    c = generate_fsbm(config, seed=8)
    assert not np.array_equal(a.x, c.x)
    # feature means track the community centers
    assert a.x[a.community == 0].mean() == pytest.approx(1.0, abs=0.15)
    assert a.x[a.community == 1].mean() == pytest.approx(-1.0, abs=0.15)


def test_bernoulli_edge_statistics():
    config = multi_subgraph_config((0.9, 0.1), num_nodes=2000)
    ds = generate_fsbm(config, seed=0)
    edges = ds.graph.edge_array()
    # subgraphs are generated independently, never bridged
    assert np.all(ds.subgraph_id[edges[:, 0]] == ds.subgraph_id[edges[:, 1]])
    assert ds.graph.degrees.mean() == pytest.approx(10.0, abs=0.5)
    same = ds.community[edges[:, 0]] == ds.community[edges[:, 1]]
    for tau, lam in enumerate((0.9, 0.1)):
        in_tau = ds.subgraph_id[edges[:, 0]] == tau
        assert same[in_tau].mean() == pytest.approx(lam, abs=0.03)


def test_bernoulli_pure_homophily_has_no_cross_edges():
    config = multi_subgraph_config((1.0, 1.0), num_nodes=400)
    ds = generate_fsbm(config, seed=1)
    edges = ds.graph.edge_array()
    assert edges.shape[0] > 0
    assert np.all(ds.community[edges[:, 0]] == ds.community[edges[:, 1]])


def test_expectation_exact_hits_every_degree():
    config = multi_subgraph_config((0.9, 0.1), num_nodes=1000,
                                   mode="expectation_exact")
    ds = generate_fsbm(config, seed=2)
    # d_in + d_out = round(0.036*249) + round(0.004*250) = 9 + 1 per node
    assert np.all(ds.graph.degrees == 10)
    edges = ds.graph.edge_array()
    assert np.all(ds.subgraph_id[edges[:, 0]] == ds.subgraph_id[edges[:, 1]])
    same = ds.community[edges[:, 0]] == ds.community[edges[:, 1]]
    in_0 = ds.subgraph_id[edges[:, 0]] == 0
    assert same[in_0].mean() == pytest.approx(0.9, abs=0.01)


def test_expectation_exact_dense_regime_uses_complement():
    # d_in = round(0.8*9) = 7 > (m-1)/2 forces the complement construction
    config = FsbmConfig(num_nodes=20, num_communities=2, num_subgraphs=1,
                        p=(0.8,), q=(0.2,), mu=(1.0, -1.0), sigma=1.0,
                        mode="expectation_exact")
    ds = generate_fsbm(config, seed=4)
    assert np.all(ds.graph.degrees == 7 + 2)
    edges = ds.graph.edge_array()
    assert edges.shape[0] == 20 * 9 // 2
    assert np.all(edges[:, 0] != edges[:, 1])


def test_expectation_exact_odd_stub_total_drops_one_edge():
    # m=5, d_in=3: an odd stub sum leaves one node per community a degree short
    config = FsbmConfig(num_nodes=10, num_communities=2, num_subgraphs=1,
                        p=(0.75,), q=(0.0,), mu=(1.0, -1.0), sigma=1.0,
                        mode="expectation_exact")
    ds = generate_fsbm(config, seed=5)
    for comm in (0, 1):
        degs = np.sort(ds.graph.degrees[ds.community == comm])
        assert degs.tolist() == [2, 3, 3, 3, 3]


def test_expectation_exact_rejects_three_communities():
    config = FsbmConfig(num_nodes=12, num_communities=3, num_subgraphs=1,
                        p=(0.5,), q=(0.1,), mu=(1.0, 0.0, -1.0), sigma=1.0,
                        mode="expectation_exact")
    with pytest.raises(InputError):
        generate_fsbm(config, seed=0)


@pytest.mark.parametrize("sigma", [0.5, 1.0])
def test_theory_check_tracks_closed_form(sigma):
    config = multi_subgraph_config((0.2, 0.8), num_nodes=1000, sigma=sigma)
    report = theory_check(config, trials=30)
    assert report.trials == 30
    assert np.allclose(report.lambdas, [0.2, 0.8])
    gap_sq = 4.0
    want = -2.0 * sigma**2 - (1.0 - report.lambdas) * gap_sq
    assert np.allclose(report.analytic, want)
    for tau in range(2):
        tol = max(5.0 * report.stderr[tau], 0.02 * abs(want[tau]))
        assert abs(report.empirical[tau] - want[tau]) <= tol


def test_theory_check_errors():
    config = multi_subgraph_config((0.2, 0.8))
    with pytest.raises(InputError):
        theory_check(config, trials=0)
    three = FsbmConfig(num_nodes=12, num_communities=3, num_subgraphs=1,
                       p=(0.5,), q=(0.1,), mu=(1.0, 0.0, -1.0), sigma=1.0)
    with pytest.raises(InputError):
        theory_check(three, trials=2)


def test_l1_gap_meets_bound_and_trivial_case():
    config = multi_subgraph_config((0.9, 0.1), num_nodes=500)
    report = theory_check(config, trials=8)
    assert report.gap_bound == pytest.approx(0.8 * 4.0)
    assert report.gap_passed
    assert report.gap_empirical >= report.gap_bound - 3.0 * report.gap_stderr

    flat = theory_check(multi_subgraph_config((0.5, 0.5), num_nodes=200), trials=2)
    assert flat.gap_bound == pytest.approx(0.0)
    assert flat.gap_passed


def test_l1_gap_errors():
    single = multi_subgraph_config((0.5,), num_nodes=200)
    with pytest.raises(InputError):
        theory_check(single, trials=2)
    pair = multi_subgraph_config((0.9, 0.1), num_nodes=200)
    with pytest.raises(InputError):
        theory_check(pair, trials=0)
    one = theory_check(pair, trials=1)
    assert one.gap_stderr == 0.0 and np.array_equal(one.stderr, [0.0, 0.0])


def test_toy_study_perfect_homophily_cell():
    cells = toy_study([(1.0, 1.0)], seeds=(0, 1), num_nodes=400)
    assert len(cells) == 1
    cell = cells[0]
    assert cell.lambdas == (1.0, 1.0)
    assert cell.raw.shape == (2,)
    means = cell.means()
    # scalar feature alone tops out near the noise ceiling; propagation over a
    # perfectly homophilous graph should be close to perfect
    assert 0.7 <= means["raw"] <= 0.92
    assert means["graph_level"] >= 0.95
    assert means["node_level"] >= 0.95
    again = toy_study([(1.0, 1.0)], seeds=(0, 1), num_nodes=400)
    assert np.array_equal(cell.graph_level, again[0].graph_level)
    assert np.array_equal(cell.node_level, again[0].node_level)
