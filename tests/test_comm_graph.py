import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopeig.comm_graph import (
    FailureModel,
    Graph,
    WeightMatrix,
    apply_failures,
    build_graph,
    is_connected,
    load_graph,
    metropolis_weights,
    save_graph,
    slem,
    union_graph,
)


def random_connected_graph(m, seed, p_edge=0.4):
    """Random spanning tree plus Bernoulli extra edges."""
    rng = np.random.default_rng(seed)
    edges = set()
    order = rng.permutation(m)
    for a, b in zip(order[:-1], order[1:]):
        edges.add((min(a, b), max(a, b)))
    for i in range(m):
        for l in range(i + 1, m):
            if rng.random() < p_edge:
                edges.add((i, l))
    return Graph(m, frozenset((int(i), int(l)) for i, l in edges))


class TestGraph:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_degrees_match_edge_count_per_node(self, seed):
        g = random_connected_graph(9, seed)
        expect = [sum(i in e for e in g.edges) for i in range(9)]
        assert g.degrees().tolist() == expect
        assert Graph(3, frozenset()).degrees().tolist() == [0, 0, 0]

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(3, frozenset({(1, 1)}))

    def test_canonicalizes_edge_order(self):
        g = Graph(3, frozenset({(2, 0)}))
        assert g.edges == frozenset({(0, 2)})

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError):
            Graph(2, frozenset({(0, 5)}))


class TestBuildGraph:
    def test_ring_4(self):
        g = build_graph("ring", 4)
        assert g.edges == frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})

    def test_complete_3(self):
        g = build_graph("complete", 3)
        assert g.edges == frozenset({(0, 1), (0, 2), (1, 2)})

    def test_path_single_node(self):
        g = build_graph("path", 1)
        assert g.edges == frozenset()
        assert is_connected(g)

    def test_ring_2_is_single_edge(self):
        assert build_graph("ring", 2).edges == frozenset({(0, 1)})

    def test_erdos_renyi_connected_and_deterministic(self):
        a = build_graph("er:0.4", 12, seed=3)
        b = build_graph("er:0.4", 12, seed=3)
        assert a.edges == b.edges
        assert is_connected(a)

    def test_unknown_topology(self):
        with pytest.raises(ValueError):
            build_graph("torus", 4)


class TestConnectivity:
    def test_ring_connected(self):
        assert is_connected(build_graph("ring", 4))

    def test_two_components(self):
        g = Graph(4, frozenset({(0, 1), (2, 3)}))
        assert not is_connected(g)

    def test_single_node_vacuous(self):
        assert is_connected(Graph(1, frozenset()))


class TestMetropolisWeights:
    def test_complete_4_uniform(self):
        w = metropolis_weights(build_graph("complete", 4))
        assert np.allclose(w.w, 0.25, atol=1e-15)

    def test_ring_4_thirds(self):
        w = metropolis_weights(build_graph("ring", 4))
        assert w.w[0, 1] == pytest.approx(1 / 3)
        assert w.w[0, 0] == pytest.approx(1 / 3)

    def test_single_node(self):
        w = metropolis_weights(Graph(1, frozenset()))
        assert np.array_equal(w.w, [[1.0]])

    @given(st.integers(2, 50), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_invariants_on_random_graphs(self, m, seed):
        g = random_connected_graph(m, seed)
        w = metropolis_weights(g).w
        assert np.array_equal(w, w.T)
        assert np.all(w >= 0)
        assert np.max(np.abs(w.sum(axis=1) - 1.0)) <= 1e-12
        # support matches the graph
        for i in range(m):
            for l in range(i + 1, m):
                if w[i, l] > 0:
                    assert (i, l) in g.edges

    def test_weight_matrix_validation(self):
        with pytest.raises(ValueError):
            WeightMatrix(np.array([[0.5, 0.6], [0.6, 0.5]]))
        with pytest.raises(ValueError):
            WeightMatrix(np.array([[1.5, -0.5], [-0.5, 1.5]]))


class TestSlem:
    def test_complete_graph_is_zero(self):
        w = metropolis_weights(build_graph("complete", 4))
        assert slem(w) <= 1e-12

    def test_ring_4_is_one_third(self):
        # circulant eigenvalues (1 + 2 cos(2 pi k / 4)) / 3 -> {1, 1/3, -1/3, 1/3}
        w = metropolis_weights(build_graph("ring", 4))
        assert slem(w) == pytest.approx(1 / 3, abs=1e-10)

    def test_disconnected_graph_is_one(self):
        w = metropolis_weights(Graph(2, frozenset()))
        assert slem(w) == pytest.approx(1.0, abs=1e-12)

    def test_single_node_is_zero(self):
        assert slem(WeightMatrix(np.array([[1.0]]))) == 0.0

    @given(st.integers(2, 30), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_connected_implies_contraction(self, m, seed):
        g = random_connected_graph(m, seed)
        assert slem(metropolis_weights(g)) < 1.0


class TestApplyFailures:
    def test_p_zero_identity(self):
        g = build_graph("ring", 6)
        fm = FailureModel(0.0, seed=1)
        for k in range(5):
            assert apply_failures(g, fm, k).edges == g.edges

    def test_reproducible_and_order_independent(self):
        g = build_graph("er:0.5", 10, seed=2)
        fm = FailureModel(0.4, seed=7)
        forward = [apply_failures(g, fm, k).edges for k in range(20)]
        backward = [apply_failures(g, fm, k).edges for k in reversed(range(20))]
        assert forward == backward[::-1]

    def test_single_node_unchanged(self):
        g = Graph(1, frozenset())
        assert apply_failures(g, FailureModel(0.9, seed=0), 3).edges == frozenset()

    def test_heavy_failure_union_recovers_edges(self):
        # each edge survives some round with prob 1 - p^rounds -> ~1
        g = build_graph("ring", 8)
        fm = FailureModel(0.999, seed=5)
        union = union_graph(apply_failures(g, fm, k) for k in range(10_000))
        assert union.edges == g.edges

    def test_thinned_graph_weights_still_doubly_stochastic(self):
        g = build_graph("er:0.5", 12, seed=9)
        fm = FailureModel(0.6, seed=1)
        for k in range(10):
            w = metropolis_weights(apply_failures(g, fm, k)).w
            assert np.max(np.abs(w.sum(axis=1) - 1.0)) <= 1e-12
            assert np.array_equal(w, w.T)

    def test_isolated_nodes_get_self_weight_one(self):
        g = Graph(3, frozenset({(0, 1)}))
        w = metropolis_weights(g).w
        assert w[2, 2] == 1.0

    def test_rejects_p_one(self):
        with pytest.raises(ValueError):
            FailureModel(1.0)


class TestGraphFile:
    def test_round_trip(self, tmp_path):
        g = build_graph("er:0.4", 9, seed=4)
        path = tmp_path / "g.txt"
        save_graph(g, path)
        assert load_graph(path).edges == g.edges
