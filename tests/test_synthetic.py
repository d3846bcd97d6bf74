import hashlib
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsgnn import synthetic
from lsgnn.errors import GenerationError, InputError
from lsgnn.harness import ExperimentConfig
from lsgnn.localsim import naive_localsim
from lsgnn.model import ModelConfig
from lsgnn.synthetic import (
    FsbmConfig,
    _generated_lambdas,
    _mean_abs_difference,
    generate_fsbm,
    multi_subgraph_config,
    theory_check,
    toy_study,
)

from conftest import traced_peak
from reference import stable_sort_pairing, triu_bernoulli_subgraph


def test_config_validation():
    ok = dict(lambdas=(0.6, 0.2), num_nodes=8, expected_degree=0.5, mu=(1.0, -1.0), sigma=1.0)
    FsbmConfig(**ok)
    for key, value, message in [
        ("lambdas", (), "lambdas (--lambdas) must hold at least one value"),
        ("lambdas", (0.5, 1.2), "lambdas (--lambdas) must lie in [0, 1], got 1.2"),
        ("num_nodes", 10, "num_nodes (--nodes) must be a positive multiple of 2 communities x "
                          "2 subgraphs = 4, got 10"),
        ("num_nodes", 0, "num_nodes (--nodes) must be a positive multiple"),
        ("expected_degree", 0.0, "expected_degree (--degree) must be finite and positive"),
        ("expected_degree", 3.0, "expected degree 3 is infeasible on 8 nodes (--nodes)"),
        ("mu", (1.0, -1.0, 0.0), "mu (--mu) must be two finite numbers"),
        ("mu", (1.0, float("nan")), "mu (--mu) must be two finite numbers, got (1.0, nan)"),
        ("sigma", -0.5, "sigma (--sigma) must be finite and >= 0, got -0.5"),
        ("mode", "poisson", "mode (--mode) must be one of"),
    ]:
        with pytest.raises(InputError, match=re.escape(message)):
            FsbmConfig(**{**ok, key: value})


def test_lambdas_property():
    config = FsbmConfig(lambdas=(0.9, 0.1), num_nodes=1000, expected_degree=10.0,
                        mu=(1.0, -1.0), sigma=1.0)
    assert config.num_subgraphs == 2 and config.community_size == 250
    # bernoulli mode realizes p / (p + q) of the derived rates, which here
    # differs from the nominal lambda in the last bit
    realized = [p / (p + q) for p, q in zip(config.p, config.q)]
    assert realized != list(config.lambdas)
    assert _generated_lambdas(config).tolist() == realized
    exact = replace(config, mode="expectation_exact")
    assert _generated_lambdas(exact).tolist() == [0.9, 0.1]  # 9 / (9 + 1), 1 / (1 + 9)


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
    for nodes in (0, -5):
        message = (f"num_nodes (--nodes) must be a positive multiple of 2 communities x "
                   f"2 subgraphs = 4, got {nodes}")
        with pytest.raises(InputError, match=re.escape(message)):
            multi_subgraph_config((0.5, 0.5), num_nodes=nodes)


def test_multi_subgraph_config_keeps_expected_degree():
    config = multi_subgraph_config((0.2, 0.5, 0.8), num_nodes=1200,
                                   expected_degree=10.0)
    total = 2.0 * 3 * 10.0 / 1200
    for tau, lam in enumerate((0.2, 0.5, 0.8)):
        assert config.p[tau] == lam * total
        assert config.q[tau] == total - lam * total
    assert config.lambdas == (0.2, 0.5, 0.8)
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


_RATES = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=100, deadline=None)
@given(m=st.integers(1, 60), p=_RATES, q=_RATES, block=st.sampled_from([1, 2, 5, 13, None]),
       seed=st.integers(0, 2**32 - 1))
def test_bernoulli_subgraph_is_bitwise_one_draw_over_all_pairs(m, p, q, block, seed):
    # Small blocks end inside rows, and inside a row's intra or cross run.
    with pytest.MonkeyPatch.context() as patch:
        if block is not None:
            patch.setattr(synthetic, "_PAIR_BLOCK", block)
        rng = np.random.default_rng(seed)
        got = synthetic._bernoulli_subgraph(m, p, q, rng)
    twin = np.random.default_rng(seed)
    want = triu_bernoulli_subgraph(m, p, q, twin)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert rng.random() == twin.random()


def test_bernoulli_subgraph_memory_does_not_follow_the_pairs():
    # 8000 nodes have 32 million pairs: a (pairs,) index array alone takes
    # 256 MB.
    config = multi_subgraph_config((0.9,), num_nodes=8000)
    (p,), (q,) = config.p, config.q
    edges, peak = traced_peak(synthetic._bernoulli_subgraph, 4000, p, q, np.random.default_rng(0))
    assert edges.shape[0] == pytest.approx(40_000, rel=0.05)
    assert peak < 64 << 20


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
    # p + q = 2 * 10 / 20 = 1, so p = 0.8 and q = 0.2
    config = FsbmConfig(lambdas=(0.8,), num_nodes=20, expected_degree=10.0,
                        mu=(1.0, -1.0), sigma=1.0, mode="expectation_exact")
    ds = generate_fsbm(config, seed=4)
    assert np.all(ds.graph.degrees == 7 + 2)
    edges = ds.graph.edge_array()
    assert edges.shape[0] == 20 * 9 // 2
    assert np.all(edges[:, 0] != edges[:, 1])


def test_expectation_exact_dense_cross_pairing_uses_complement():
    # d_out = round(0.8*10) = 8 > 10/2 forces the bipartite complement
    config = FsbmConfig(lambdas=(0.2,), num_nodes=20, expected_degree=10.0,
                        mu=(1.0, -1.0), sigma=1.0, mode="expectation_exact")
    ds = generate_fsbm(config, seed=6)
    edges = ds.graph.edge_array()
    assert ds.graph.loops_dropped == 0 and ds.graph.duplicates_dropped == 0
    assert edges.shape[0] == 20 * (2 + 8) // 2
    same = ds.community[edges[:, 0]] == ds.community[edges[:, 1]]
    n = config.num_nodes
    same_degree = np.bincount(edges[same].ravel(), minlength=n)
    cross_degree = np.bincount(edges[~same].ravel(), minlength=n)
    assert np.all(same_degree == 2)
    assert np.all(cross_degree == 8)


def test_expectation_exact_odd_stub_total_drops_one_edge():
    # m=5, d_in=3: an odd stub sum leaves one node per community a degree short
    # p + q = 2 * 3.75 / 10 = 0.75, all of it intra-community
    config = FsbmConfig(lambdas=(1.0,), num_nodes=10, expected_degree=3.75,
                        mu=(1.0, -1.0), sigma=1.0, mode="expectation_exact")
    ds = generate_fsbm(config, seed=5)
    for comm in (0, 1):
        degs = np.sort(ds.graph.degrees[ds.community == comm])
        assert degs.tolist() == [2, 3, 3, 3, 3]


def _assert_same_pairing(stubs, n_ids, seed, bipartite):
    """`_random_pairing` and the stable-argsort oracle return the same pairs,
    or raise the same message, and leave the generator in the same state."""
    outcomes = []
    for pairing in (synthetic._random_pairing, stable_sort_pairing):
        rng = np.random.default_rng(seed)
        try:
            result = pairing(np.array(stubs, dtype=np.int64), n_ids, rng, bipartite)
        except GenerationError as error:
            result = str(error)
        outcomes.append((result, rng.bit_generator.state))
    (got, got_state), (want, want_state) = outcomes
    if isinstance(want, str):
        assert got == want
    else:
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert got_state == want_state
    return got


@pytest.mark.parametrize("bipartite, stubs", [
    (True, []), (True, [3]), (True, [0, 1]), (True, [1, 3]),
    (False, []), (False, [0, 1]), (False, [0, 1, 1, 2]), (False, [0, 1, 2, 3]),
])
def test_random_pairing_of_zero_one_and_two_edges_matches_stable_sort(bipartite, stubs):
    for seed in range(5):
        _assert_same_pairing(stubs, 4, seed, bipartite)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_ids=st.integers(2, 40), bipartite=st.booleans(),
       density=st.floats(0.0, 0.5))
def test_random_pairing_matches_stable_sort_oracle(seed, n_ids, bipartite, density):
    # The degrees of a random simple graph (a symmetric 0/1 matrix, whose
    # row and column sums agree when bipartite) are realizable; up to half
    # the possible partners is the regime `_exact_edges` pairs in.  Few ids
    # make duplicate keys and self loops common in the early rounds.
    rng = np.random.default_rng([seed, 1])
    upper = np.triu(rng.random((n_ids, n_ids)) < density, k=0 if bipartite else 1)
    degrees = (upper | upper.T).sum(axis=1)
    stubs = rng.permutation(np.repeat(np.arange(n_ids), degrees))
    _assert_same_pairing(stubs, n_ids, seed, bipartite)


@pytest.mark.parametrize("n_ids, fits", [(2**31, True), (2**31 + 1, False), (2**32, False)])
def test_random_pairing_refuses_keys_that_overflow_before_drawing(n_ids, fits):
    # two bipartite edges take one position bit; the key n_ids**2 - 1 the rest
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state

    def attempt():
        if fits:
            return synthetic._random_pairing(np.array([0, 1]), n_ids, rng, True)
        with pytest.raises(GenerationError, match=rf"2 edges over {n_ids} node ids"):
            synthetic._random_pairing(np.array([0, 1]), n_ids, rng, True)

    pairs, peak = traced_peak(attempt)
    assert peak < 1 << 16
    if fits:
        assert sorted(pairs[:, 1].tolist()) == [0, 1]
    else:
        assert rng.bit_generator.state == state


def test_random_pairing_raises_after_discarding_every_draw():
    # node 0 needs three distinct partners and only node 1 exists
    message = _assert_same_pairing([0, 0, 0, 1, 1, 1], 2, 0, bipartite=False)
    assert message == "could not realize the exact degree sequence"


@pytest.mark.parametrize("sigma", [0.5, 1.0])
def test_theory_check_tracks_closed_form(sigma):
    config = multi_subgraph_config((0.2, 0.8), num_nodes=1000, sigma=sigma)
    report = theory_check(config, trials=30)
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
    three = multi_subgraph_config((0.2, 0.5, 0.8), num_nodes=600)
    with pytest.raises(InputError, match="stated for 2 subgraphs"):
        theory_check(three, trials=2)


def test_theory_check_rejects_degrees_that_round_to_zero():
    # 10 nodes per community, p = q = 2 * 2 * 0.2 / 40 / 2 = 0.01: 0.01 * 9
    # and 0.01 * 10 both round to 0 edges
    config = FsbmConfig(lambdas=(0.5, 0.5), num_nodes=40, expected_degree=0.2,
                        mu=(1.0, -1.0), sigma=1.0, mode="expectation_exact")
    with pytest.raises(InputError, match="lambda undefined"):
        theory_check(config, trials=1)


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


@pytest.mark.parametrize("sigma, mode", [(1.0, "bernoulli"), (1.0, "expectation_exact"),
                                         (0.0, "bernoulli"), (0.0, "expectation_exact")])
def test_mean_abs_difference_equals_all_pairs_mean(sigma, mode):
    # sigma = 0 makes phi take few distinct values, so most pairs are ties
    config = multi_subgraph_config((0.9, 0.1), num_nodes=400, sigma=sigma, mode=mode)
    for seed in range(4):
        ds = generate_fsbm(config, seed=[seed])
        phi = naive_localsim(ds.graph, ds.x, "neg_sq_scalar")
        a, b = phi[ds.subgraph_id == 0], phi[ds.subgraph_id == 1]
        want = np.abs(a[:, None] - b[None, :]).mean()
        assert _mean_abs_difference(a, b) == pytest.approx(want, rel=1e-12, abs=0.0)
    rng = np.random.default_rng(0)
    for n0, n1 in ((1, 1), (1, 7), (9, 1), (33, 20)):
        a, b = rng.normal(size=n0), rng.integers(-2, 3, size=n1).astype(np.float64)
        want = np.abs(a[:, None] - b[None, :]).mean()
        assert _mean_abs_difference(a, b) == pytest.approx(want, rel=1e-12, abs=0.0)
    assert _mean_abs_difference(np.full(5, 2.0), np.full(3, 2.0)) == 0.0


def test_theory_check_gap_builds_no_pairwise_array():
    # 2000 x 2000 cross-subgraph pairs would take 32 MB in float64
    config = multi_subgraph_config((0.9, 0.1), num_nodes=4000, mode="expectation_exact")
    tracemalloc.start()
    try:
        theory_check(config, trials=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


def test_toy_study_perfect_homophily_cell():
    config = ExperimentConfig(hidden_dim=16, lr=0.05)
    cells = toy_study([(1.0, 1.0)], seeds=(0, 1), config=config, num_nodes=400)
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
    again = toy_study([(1.0, 1.0)], seeds=(0, 1), config=config, num_nodes=400)
    assert np.array_equal(cell.graph_level, again[0].graph_level)
    assert np.array_equal(cell.node_level, again[0].node_level)
    with pytest.raises(InputError, match="at least one seed"):
        toy_study([(1.0, 1.0)], seeds=(), config=config)



def test_toy_study_model_arms_take_config_settings_it_does_not_pin(monkeypatch):
    seen = []
    real = synthetic.train

    def recording(mcfg, *args):
        seen.append(mcfg)
        return real(mcfg, *args)

    monkeypatch.setattr(synthetic, "train", recording)
    config = ExperimentConfig(num_layers=7, hidden_dim=4, sim_kind="euclidean", ls_hidden=5,
                              alpha_hidden=3, dropout=0.5, epochs=2)
    toy_study([(0.9, 0.1)], seeds=(0,), config=config, num_nodes=40)
    pinned = dict(num_layers=1, in_dim=1, num_classes=2, sim_kind="neg_sq_scalar",
                  localsim_mode="naive", dropout=0.0)
    assert seen == [
        ModelConfig(**pinned, hidden_dim=4, ls_hidden=5, alpha_hidden=3, weight_mode=mode)
        for mode in ("graph_level", "node_level")
    ]

# sha256 prefixes of (row_offsets, col_indices, x, community, subgraph_id),
# each hashed with its dtype and shape.  The cases are the benchmark's inputs
# at seed 0 (its input cache is keyed by workload, not by generator code),
# one expectation_exact draw of `lsgnn theory` and one `toy` cell draw.
_PINNED = {
    "bench n=2000": (
        dict(lambdas=(0.9, 0.1), num_nodes=2000), [0],
        ["5569a1280143bcf1", "2de47251b1f1ad71", "468164f9d219ed5a", "5b0c17b9dd7c27c3",
         "aa338f42974caa93"]),
    "bench n=12000": (
        dict(lambdas=(0.9, 0.1) * 4, num_nodes=12000), [0],
        ["61284d42e36ffd43", "479707fffce3e64d", "f92ba4ae9e3594c4", "d4b4c62e419a1894",
         "cb245cde4f5a8a00"]),
    "bench prep n=2000": (
        dict(lambdas=(0.9, 0.1) * 4, num_nodes=2000), [1_000_003],
        ["e3af0416464675a9", "07e7dddccaef4f0c", "34ae4d944744ab2c", "7ee79d780def48d1",
         "3fa8453942f61a7a"]),
    "theory expectation_exact": (
        dict(lambdas=(0.9, 0.1), num_nodes=1000, mode="expectation_exact"), [0, 0],
        ["94c533bc0429db97", "3b707868dec4f930", "e94a7c615484d44e", "af1a35c1a98aba5d",
         "c69cd101271fc6b0"]),
    "toy cell": (
        dict(lambdas=(0.9, 0.1), num_nodes=1000), [0, 0, 0, 0],
        ["56f1b87375f22e06", "bddc478a35da8c12", "9803fe3e7f29fa69", "af1a35c1a98aba5d",
         "c69cd101271fc6b0"]),
}


@pytest.mark.parametrize("case", _PINNED)
def test_generator_output_is_pinned(case):
    settings, seed, want = _PINNED[case]
    ds = generate_fsbm(multi_subgraph_config(**settings), seed=seed)
    arrays = (ds.graph.row_offsets, ds.graph.col_indices, ds.x, ds.community, ds.subgraph_id)
    got = [
        hashlib.sha256(f"{a.dtype.str}{a.shape}".encode() + a.tobytes()).hexdigest()[:16]
        for a in arrays
    ]
    assert got == want
