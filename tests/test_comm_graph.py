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
    check_edge_weights,
    check_weights,
    failure_stream,
    is_connected,
    metropolis_edges,
    metropolis_slots,
    metropolis_weights,
    round_weights,
    slem,
)
from coopeig.matrix_core import DenseSymMatrix, jacobi_eigen
from coopeig.seeding import child_seed


def metropolis_stack(m, edges, keep):
    """The (R, m, m) weights of ``metropolis_edges``: zeros, with each
    round's edge-form row written at its ``metropolis_slots``."""
    w = np.zeros((len(keep), m * m))
    w[:, metropolis_slots(m, edges)] = metropolis_edges(m, edges, keep)
    return w.reshape(-1, m, m)


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
    def test_edges_are_sorted_read_only_int_array(self):
        g = build_graph("er:0.5", 9, seed=1)
        e = g.edges
        assert e.dtype.kind == "i" and e.ndim == 2 and e.shape[1] == 2
        assert not e.flags.writeable
        assert np.all(e[:, 0] < e[:, 1])
        assert e.tolist() == sorted(e.tolist())
        with pytest.raises(ValueError):
            e[0, 0] = 5

    def test_empty_graph_shape(self):
        assert Graph(3, frozenset()).edges.shape == (0, 2)
        assert Graph(3, np.empty((0, 2), dtype=int)).edges.shape == (0, 2)

    def test_duplicates_collapse(self):
        g = Graph(4, [(1, 3), (3, 1), (0, 2), (1, 3), (2, 0)])
        assert g.edges.tolist() == [[0, 2], [1, 3]]

    def test_array_and_set_input_agree(self):
        pairs = {(3, 0), (1, 2), (2, 4), (0, 1)}
        from_set = Graph(5, frozenset(pairs))
        from_array = Graph(5, np.array(sorted(pairs)))
        assert np.array_equal(from_set.edges, from_array.edges)

    def test_rejects_non_pairs(self):
        with pytest.raises(ValueError):
            Graph(4, [(0, 1, 2)])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_degrees_match_edge_count_per_node(self, seed):
        g = random_connected_graph(9, seed)
        expect = [sum(i in e for e in g.edges) for i in range(9)]
        assert np.bincount(g.edges.ravel(), minlength=g.m).tolist() == expect
        empty = Graph(3, frozenset())
        assert np.bincount(empty.edges.ravel(), minlength=empty.m).tolist() == [0, 0, 0]

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(3, frozenset({(1, 1)}))

    def test_canonicalizes_edge_order(self):
        g = Graph(3, frozenset({(2, 0)}))
        assert g.edges.tolist() == [[0, 2]]

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError):
            Graph(2, frozenset({(0, 5)}))


class TestBuildGraph:
    def test_ring_4(self):
        g = build_graph("ring", 4)
        assert g.edges.tolist() == [[0, 1], [0, 3], [1, 2], [2, 3]]

    def test_complete_3(self):
        g = build_graph("complete", 3)
        assert g.edges.tolist() == [[0, 1], [0, 2], [1, 2]]

    def test_path_single_node(self):
        g = build_graph("path", 1)
        assert g.edges.tolist() == []
        assert is_connected(g)

    def test_ring_2_is_single_edge(self):
        assert build_graph("ring", 2).edges.tolist() == [[0, 1]]

    def test_erdos_renyi_connected_and_deterministic(self):
        a = build_graph("er:0.4", 12, seed=3)
        b = build_graph("er:0.4", 12, seed=3)
        assert np.array_equal(a.edges, b.edges)
        assert is_connected(a)

    def test_erdos_renyi_stream_pinned(self):
        # Pinned stream: one uniform per pair (i < l) in row-major order,
        # as a scalar double loop draws them.
        assert build_graph("er:0.4", 12, seed=3).edges.tolist() == (
            [[0, 1], [0, 10], [1, 4], [1, 7], [1, 9], [2, 3], [2, 6], [2, 10], [2, 11], [3, 6],
             [3, 7], [3, 8], [3, 9], [3, 11], [4, 7], [4, 8], [4, 10], [5, 6], [5, 7], [5, 8],
             [6, 7], [6, 10], [7, 8], [7, 10], [8, 10], [8, 11], [9, 11], [10, 11]]
        )

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

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_traversal_reference(self, seed):
        g = apply_failures(build_graph("ring", 12), FailureModel(0.2, seed=seed), 0)
        adj = {v: set() for v in range(12)}
        for i, l in g.edges.tolist():
            adj[i].add(l)
            adj[l].add(i)
        seen, stack = {0}, [0]
        while stack:
            for v in adj[stack.pop()] - seen:
                seen.add(v)
                stack.append(v)
        assert is_connected(g) == (len(seen) == 12)


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
        # support matches the graph (row-wise membership)
        edges = {tuple(e) for e in g.edges.tolist()}
        for i in range(m):
            for l in range(i + 1, m):
                if w[i, l] > 0:
                    assert (i, l) in edges

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_edge_loop_reference(self, seed):
        # thinned graphs give isolated nodes and uneven degrees
        base = random_connected_graph(15, seed)
        g = apply_failures(base, FailureModel(0.5, seed=seed), 0)
        deg = np.bincount(g.edges.ravel(), minlength=g.m)
        ref = np.zeros((15, 15))
        for i, l in g.edges.tolist():
            ref[i, l] = ref[l, i] = 1.0 / (1.0 + max(deg[i], deg[l]))
        for i in range(15):
            # rows (i, .) then rows (., i), each summed in edge-row order
            lo = hi = 0.0
            for a, b in g.edges.tolist():
                if a == i:
                    lo += ref[a, b]
                if b == i:
                    hi += ref[a, b]
            ref[i, i] = 1.0 - (lo + hi)
        assert np.array_equal(metropolis_weights(g).w, ref)

    @pytest.mark.parametrize("topology, m, p", [("ring", 40, 0.5), ("ring", 3, 0.3),
                                                ("path", 22, 0.5), ("path", 2, 0.5)])
    def test_ring_and_path_match_dense_row_sum(self, topology, m, p):
        # at most two live neighbours per node, so the edge-order diagonal
        # equals the pairwise row sum the dense build used
        g = build_graph(topology, m)
        keep = failure_stream(g, FailureModel(p, seed=3), 1)(30)
        keep[0], keep[1] = True, False
        ref = np.zeros((30, m, m))
        for w, mask in zip(ref, keep):
            i, l = g.edges[mask].T
            deg = np.bincount(np.concatenate((i, l)), minlength=m)
            w[i, l] = w[l, i] = 1.0 / (1.0 + np.maximum(deg[i], deg[l]))
            w[np.diag_indices(m)] = 1.0 - w.sum(axis=1)
        assert metropolis_stack(m, g.edges, keep).tobytes() == ref.tobytes()

    def test_weight_matrix_validation(self):
        with pytest.raises(ValueError):
            WeightMatrix(np.array([[0.5, 0.6], [0.6, 0.5]]))
        with pytest.raises(ValueError):
            WeightMatrix(np.array([[1.5, -0.5], [-0.5, 1.5]]))

    @pytest.mark.parametrize("topology, m, p", [("ring", 40, 0.5), ("ring", 1, 0.5),
                                                ("path", 22, 0.5), ("er:0.4", 15, 0.7),
                                                ("er:0.05", 120, 0.3), ("complete", 6, 0.2)])
    def test_stack_slices_match_array(self, topology, m, p):
        # includes rounds that drop every edge and rounds that keep all;
        # each edge-form row, written at its slots, is the stack's slice
        g = build_graph(topology, m, seed=4)
        keep = failure_stream(g, FailureModel(p, seed=2), 1)(25)
        keep[3], keep[7] = False, True
        ws = metropolis_stack(m, g.edges, keep)
        rows = metropolis_edges(m, g.edges, keep)
        assert ws.shape == (25, m, m) and rows.shape == (25, 2 * len(g.edges) + m)
        slots = metropolis_slots(m, g.edges)
        for w, row, mask in zip(ws, rows, keep):
            flat = np.zeros(m * m)
            flat[slots] = row
            assert flat.tobytes() == w.tobytes()
            assert w.tobytes() == metropolis_weights(Graph(m, g.edges[mask])).w.tobytes()

    def test_stack_checks_the_edge_rows_it_writes(self, monkeypatch):
        seen = []
        monkeypatch.setattr("coopeig.comm_graph.check_edge_weights", lambda *a: seen.append(a))
        g = build_graph("er:0.4", 10, seed=1)
        keep = failure_stream(g, FailureModel(0.3, seed=2), 1)(5)
        ws = metropolis_stack(10, g.edges, keep)
        [(weights, inc, diag)] = seen
        assert weights.shape == keep.shape  # the (R, E) mask form
        r, e = np.nonzero(keep)
        i, l = g.edges[e].T
        assert weights[keep].tobytes() == ws[r, i, l].tobytes()
        assert not weights[~keep].any() and (~keep).any()
        assert diag.tobytes() == np.diagonal(ws, axis1=1, axis2=2).tobytes()
        assert np.array_equal(diag, 1.0 - inc)

    @pytest.mark.parametrize("topology, m, p", [("ring", 40, 0.5), ("er:0.3", 20, 0.4),
                                                ("complete", 12, 0.3), ("complete", 1, 0.5)])
    def test_stack_slices_pass_dense_check(self, topology, m, p):
        # the edge-form check stands in for check_weights on every slice
        g = build_graph(topology, m, seed=5)
        keep = failure_stream(g, FailureModel(p, seed=6), 1)(40)
        keep[2], keep[9] = False, True
        for w in metropolis_stack(m, g.edges, keep):
            assert check_weights(w) is w
            assert w.tobytes() == w.T.tobytes()


NAN, INF = float("nan"), float("inf")


class TestCheckWeights:
    # each rejection raises the same message from check_weights and
    # from the WeightMatrix constructor
    @pytest.mark.parametrize("w, message", [
        ([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]], "must be square"),
        ([0.5, 0.5], "must be square"),
        ([[[1.0]]], "must be square"),
        ([[1.5, -0.5], [-0.5, 1.5]], "nonnegative"),
        ([[0.5, 0.5], [0.4, 0.6]], "exactly symmetric"),
        ([[0.5, 0.5], [0.5 + 2**-53, 0.5 - 2**-53]], "exactly symmetric"),
        ([[0.5, 0.6], [0.6, 0.5]], "rows must sum to 1"),
        ([[1.0 + 1e-11]], "rows must sum to 1"),
        # non-finite entries: rejected, never accepted
        ([[NAN]], "exactly symmetric"),
        ([[0.5, NAN], [NAN, 0.5]], "exactly symmetric"),
        ([[NAN, 0.5], [0.5, 0.5]], "exactly symmetric"),
        ([[0.5, NAN], [0.5, 0.5]], "exactly symmetric"),
        ([[INF]], "rows must sum to 1"),
        ([[0.5, INF], [INF, 0.5]], "rows must sum to 1"),
        ([[INF, 0.0], [0.0, 1.0]], "rows must sum to 1"),
        ([[0.5, -INF], [-INF, 0.5]], "nonnegative"),
        ([[0.5, INF], [0.5, 0.5]], "exactly symmetric"),
    ])
    def test_rejections(self, w, message):
        with pytest.raises(ValueError, match=message):
            check_weights(np.array(w))
        with pytest.raises(ValueError, match=message):
            WeightMatrix(np.array(w))

    @pytest.mark.parametrize("i, l, delta, message", [
        (0, 1, -0.6, "nonnegative"),
        (0, 1, 2**-52, "exactly symmetric"),
        (2, 2, 1e-11, "rows must sum to 1"),
    ])
    def test_stack_rejects_one_bad_slice(self, i, l, delta, message):
        g = build_graph("ring", 5)
        ws = metropolis_stack(5, g.edges, failure_stream(g, FailureModel(0.3, seed=1), 1)(6))
        ws[4, i, l] += delta
        check_weights(ws[3])
        with pytest.raises(ValueError, match=message):
            check_weights(ws[4])

    def test_stack_must_be_square_slices(self):
        with pytest.raises(ValueError, match="must be square"):
            check_weights(np.full((2, 3, 3), 1 / 3))

    # edge form: (edge weights, incident sums, diagonal), one row per node
    @pytest.mark.parametrize("weights, inc, diag, message", [
        ([-0.5, 0.5], [0.5, 0.5], [0.5, 0.5], "nonnegative"),
        ([-INF], [0.0], [1.0], "nonnegative"),
        ([0.5], [1.5, 0.5], [-0.5, 0.5], "nonnegative"),
        ([0.5], [0.5, 0.5], [0.5, 0.6], "rows must sum to 1"),
        ([0.5], [0.5, 0.5], [0.5, 0.5 + 1e-11], "rows must sum to 1"),
        ([NAN], [NAN, NAN], [NAN, NAN], "rows must sum to 1"),
        ([0.5], [0.5, NAN], [0.5, 0.5], "rows must sum to 1"),
        ([INF], [INF, INF], [1.0, 1.0], "rows must sum to 1"),
    ])
    def test_edge_form_rejections(self, weights, inc, diag, message):
        with pytest.raises(ValueError, match=message):
            check_edge_weights(*map(np.array, (weights, inc, diag)))

    def test_edge_form_tolerance_accepted(self):
        check_edge_weights(np.array([0.5]), np.array([0.5, 0.5]), np.array([0.5, 0.5 + 5e-13]))
        check_edge_weights(np.zeros(0), np.zeros(3), np.ones(3))

    def test_row_sum_tolerance_accepted(self):
        w = np.array([[0.5, 0.5], [0.5, 0.5 + 5e-13]])
        assert check_weights(w) is w
        assert np.array_equal(WeightMatrix(w).w, w)


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

    @pytest.mark.parametrize("topology, m", [
        ("ring", 2), ("ring", 3), ("ring", 10), ("ring", 40), ("path", 7),
        ("complete", 5), ("er:0.3", 12),
    ])
    def test_matches_full_jacobi_spectrum(self, topology, m):
        w = metropolis_weights(build_graph(topology, m, seed=1))
        ev = jacobi_eigen(DenseSymMatrix(w.w)).eigenvalues
        assert slem(w) == pytest.approx(np.abs(ev[:-1]).max(), abs=1e-12)

    def test_single_node_is_zero(self):
        assert slem(WeightMatrix(np.array([[1.0]]))) == 0.0

    @given(st.integers(2, 30), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_connected_implies_contraction(self, m, seed):
        g = random_connected_graph(m, seed)
        assert slem(metropolis_weights(g)) < 1.0


def loop_failure_reference(g, seed, p, round_):
    """One scalar draw per edge row, in row order, from a fresh Philox
    stream keyed on (seed, "edge-failure") and advanced to counter
    round_ * ceil(E/4)."""
    bits = np.random.Philox(key=child_seed(seed, "edge-failure"))
    bits.advance(round_ * -(-len(g.edges) // 4))
    rng = np.random.Generator(bits)
    return [e for e in g.edges.tolist() if rng.random() >= p]


class TestApplyFailures:
    def test_p_zero_identity(self):
        g = build_graph("ring", 6)
        fm = FailureModel(0.0, seed=1)
        for k in range(5):
            assert np.array_equal(apply_failures(g, fm, k).edges, g.edges)

    def test_reproducible_and_order_independent(self):
        g = build_graph("er:0.5", 10, seed=2)
        fm = FailureModel(0.4, seed=7)
        forward = [apply_failures(g, fm, k).edges.tolist() for k in range(20)]
        backward = [apply_failures(g, fm, k).edges.tolist() for k in reversed(range(20))]
        assert forward == backward[::-1]

    def test_failure_stream_pinned(self):
        # Pinned stream: round k draws one uniform per edge row, in row
        # order, from the Philox stream keyed on (seed, "edge-failure"),
        # starting at counter k * ceil(E/4).
        g = build_graph("er:0.5", 10, seed=2)
        fm = FailureModel(0.4, seed=7)
        expect = [
            [[1, 4], [2, 3], [2, 8], [2, 9], [3, 6], [3, 8], [4, 7], [4, 9], [5, 8],
             [5, 9], [6, 9], [8, 9]],
            [[0, 4], [0, 8], [1, 4], [2, 3], [2, 5], [2, 8], [2, 9], [3, 8], [4, 7],
             [5, 6], [6, 8]],
            [[0, 2], [0, 4], [1, 4], [1, 8], [2, 5], [2, 6], [2, 9], [3, 4], [3, 6],
             [3, 8], [4, 9], [5, 6], [5, 8], [6, 9], [8, 9]],
        ]
        assert [loop_failure_reference(g, 7, 0.4, k) for k in range(3)] == expect
        assert [apply_failures(g, fm, k).edges.tolist() for k in range(3)] == expect
        assert [g.edges[failure_stream(g, fm, k)(1)[0]].tolist() for k in range(3)] == expect

    def test_keep_masks_are_the_rounds_live_edges(self):
        g = build_graph("er:0.5", 10, seed=2)
        fm = FailureModel(0.4, seed=7)
        keep = failure_stream(g, fm, 5)(12)
        assert keep.shape == (12, len(g.edges))
        for r, mask in enumerate(keep):
            assert g.edges[mask].tolist() == apply_failures(g, fm, 5 + r).edges.tolist()

    @pytest.mark.parametrize("topology, m", [("path", 8), ("path", 14), ("ring", 40)],
                             ids=["E7", "E13", "E40"])
    def test_keep_masks_match_reference_when_padded(self, topology, m):
        # E = 7 and 13 leave 1 and 3 padding words per round; E = 40 none
        g = build_graph(topology, m)
        fm = FailureModel(0.5, seed=3)
        keep = failure_stream(g, fm, 3)(9)
        for r, mask in enumerate(keep):
            assert g.edges[mask].tolist() == loop_failure_reference(g, 3, 0.5, 3 + r)
        single = np.concatenate([failure_stream(g, fm, k)(1) for k in range(3, 12)])
        assert single.tobytes() == keep.tobytes()
        # successive draws of one stream continue where the last stopped
        draw = failure_stream(g, fm, 3)
        successive = np.concatenate([draw(1), draw(4), draw(4)])
        assert successive.tobytes() == keep.tobytes()

    def test_drop_rate_and_round_independence(self):
        # Each edge survives a round with probability 1 - p, independently
        # of the previous round, so consecutive masks agree with
        # probability q = p^2 + (1-p)^2.
        g = build_graph("complete", 20)
        p, rounds = 0.3, 400
        fm = FailureModel(p, seed=3)
        key = g.edges @ (g.m, 1)
        masks = np.array([np.isin(key, apply_failures(g, fm, k).edges @ (g.m, 1))
                          for k in range(rounds)])
        z_kept = (masks.mean() - (1 - p)) / np.sqrt(p * (1 - p) / masks.size)
        agree = masks[1:] == masks[:-1]
        q = p**2 + (1 - p) ** 2
        # Agreements of rounds (k-1, k) and (k, k+1) share round k's mask:
        # P(both) = p^3 + (1-p)^3, which adds a lag-one covariance term.
        var = q * (1 - q) + 2 * (p**3 + (1 - p) ** 3 - q**2)
        z_agree = (agree.mean() - q) / np.sqrt(var / agree.size)
        assert abs(z_kept) < 4 and abs(z_agree) < 4, (z_kept, z_agree)

    def test_single_node_unchanged(self):
        g = Graph(1, frozenset())
        assert apply_failures(g, FailureModel(0.9, seed=0), 3).edges.tolist() == []

    def test_heavy_failure_union_recovers_edges(self):
        # each edge survives some round with prob 1 - p^rounds -> ~1
        g = build_graph("ring", 8)
        fm = FailureModel(0.999, seed=5)
        union = Graph(8, np.concatenate([apply_failures(g, fm, k).edges for k in range(10_000)]))
        assert np.array_equal(union.edges, g.edges)

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


class TestRoundWeights:
    @pytest.mark.parametrize("taken", [0, 1, 81, 82, 200])
    def test_failure_free_rounds_are_w0(self, monkeypatch, taken):
        monkeypatch.setattr("coopeig.comm_graph.failure_stream",
                            lambda *a: pytest.fail("drew a failure stream"))
        g = build_graph("ring", 40)  # chunks of 81 rounds
        w0, live = metropolis_weights(g), []
        weights = round_weights(g, w0, FailureModel(0.0, seed=1), 200, live)
        assert all(next(weights) is w0.w for _ in range(taken))
        counts = np.concatenate(live) if live else np.zeros(0, int)
        assert (counts == 40).all() and taken <= len(counts) < taken + 81

    # a 40-ring over 200 rounds takes chunks of 81, 81 and 38; each round
    # on 182 agents is a chunk of its own; one agent has no edge rows
    @pytest.mark.parametrize("topology, m, rounds", [("ring", 40, 200), ("complete", 182, 12),
                                                      ("ring", 1, 30)])
    def test_rounds_bit_equal_to_graph_path(self, topology, m, rounds):
        g, f, live = build_graph(topology, m), FailureModel(0.5, seed=8), []
        weights = round_weights(g, metropolis_weights(g), f, rounds, live)
        for k, w in enumerate(weights, start=1):
            assert w.tobytes() == metropolis_weights(apply_failures(g, f, k)).w.tobytes()
        assert k == rounds
        assert np.concatenate(live).tolist() == [len(apply_failures(g, f, k).edges)
                                                 for k in range(1, rounds + 1)]

    @pytest.mark.parametrize("taken", [1, 80, 81, 82, 163])
    def test_taking_rounds_draws_at_most_one_chunk_more(self, monkeypatch, taken):
        drawn, stream = [], failure_stream

        def counted(g, f, first):
            draw = stream(g, f, first)
            return lambda rounds: drawn.append(rounds) or draw(rounds)

        monkeypatch.setattr("coopeig.comm_graph.failure_stream", counted)
        g, live = build_graph("ring", 40), []
        weights = round_weights(g, metropolis_weights(g), FailureModel(0.5, seed=8), 200, live)
        for _ in range(taken):
            next(weights)
        assert taken <= sum(drawn) < taken + 81 and max(drawn) == 81
        assert len(np.concatenate(live)) == sum(drawn)
