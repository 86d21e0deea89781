import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopeig.comm_graph import Graph, WeightMatrix, build_graph, metropolis_weights, slem
from coopeig.consensus import (
    ConsensusMode,
    ConsensusState,
    DivergenceError,
    GlobalWeights,
    aggregate_global,
    block_size_weights,
    consensus_error,
    consensus_round,
    deviation_norm,
    estimation_error,
    init_states,
    run_to_convergence,
    uniform_weights,
)

MATRIX_FORM = ConsensusMode("matrix_form")
LITERAL = ConsensusMode("paper_literal")


def damped(gamma=0.5):
    return ConsensusMode("damped", gamma=gamma)


# zero self-weight on two agents: the anchored literal update has
# iteration matrix W - I with spectral radius 2, so it diverges
SWAP_W = WeightMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))


class TestInitStates:
    def test_estimates_copy_anchors(self):
        states = init_states([[1.0], [3.0], [5.0]])
        assert states.estimates[:, 0].tolist() == [1.0, 3.0, 5.0]
        assert states.anchors[:, 0].tolist() == [1.0, 3.0, 5.0]

    def test_single_agent_fixed_point(self):
        states = init_states([[2.0]])
        w = WeightMatrix(np.array([[1.0]]))
        for mode in (MATRIX_FORM, LITERAL, damped()):
            out = consensus_round(states, w, mode)
            assert out.estimates[0, 0] == 2.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            init_states([])

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            init_states([[1.0], [1.0, 2.0]])


class TestConsensusRound:
    def test_matrix_form_complete_graph_averages_in_one_round(self):
        w = metropolis_weights(build_graph("complete", 3))
        states = consensus_round(init_states([[0.0], [3.0], [6.0]]), w, MATRIX_FORM)
        assert all(v == pytest.approx(3.0, abs=1e-14) for v in states.estimates[:, 0])

    def test_agreed_states_are_fixed_points_in_every_mode(self):
        w = metropolis_weights(build_graph("ring", 4))
        anchors = [[2.5, 4.0]] * 4
        for mode in (MATRIX_FORM, LITERAL, damped(0.3)):
            out = consensus_round(init_states(anchors), w, mode)
            for row in out.estimates:
                assert np.allclose(row, [2.5, 4.0], atol=1e-15)

    def test_damped_scalar_arithmetic(self):
        w = WeightMatrix(np.array([[1.0]]))
        states = ConsensusState(np.array([[0.0]]), np.array([[2.0]]))
        out = consensus_round(states, w, damped(0.5))
        assert out.estimates[0, 0] == 1.0

    def test_dimension_mismatch_rejected(self):
        w = metropolis_weights(build_graph("ring", 4))
        with pytest.raises(ValueError):
            consensus_round(init_states([[1.0], [2.0]]), w, MATRIX_FORM)

    def test_literal_transcription(self):
        # one step by hand: next = anchor + W e - e
        w = metropolis_weights(build_graph("ring", 4))
        anchors = [[1.0], [2.0], [3.0], [4.0]]
        states = init_states(anchors)
        out = consensus_round(states, w, LITERAL)
        e = np.array([1.0, 2.0, 3.0, 4.0])
        expect = np.array(anchors).ravel() + w.w @ e - e
        assert np.allclose(out.estimates[:, 0], expect, atol=1e-15)


class TestMetrics:
    def test_consensus_error_zero_when_agreed(self):
        assert consensus_error(init_states([[1.0], [1.0], [1.0]])) == 0.0

    def test_consensus_error_max_gap(self):
        assert consensus_error(init_states([[0.0], [3.0], [6.0]])) == 6.0

    def test_consensus_error_max_over_indices(self):
        assert consensus_error(init_states([[0.0, 10.0], [1.0, 10.0]])) == 1.0

    def test_deviation_norm_zero_when_agreed(self):
        assert deviation_norm(init_states([[2.0], [2.0], [2.0]])) == 0.0

    def test_deviation_norm_hand_value(self):
        # estimates [0, 3, 6], mean 3 -> ||(-3, 0, 3)|| = sqrt(18)
        states = init_states([[0.0], [3.0], [6.0]])
        assert deviation_norm(states) == pytest.approx(np.sqrt(18.0), abs=1e-14)

    def test_estimation_error_golden_values(self):
        states = init_states([[0.00113323]])
        eps = estimation_error(states, [0.0017707060804811243])
        assert abs(eps[0, 0] - 0.0006374760804811243) < 1e-18

    def test_estimation_error_zero_at_truth(self):
        states = init_states([[2.0]])
        assert estimation_error(states, [2.0])[0, 0] == 0.0

    def test_estimation_error_componentwise(self):
        states = init_states([[0.0], [2.0]])
        assert np.array_equal(estimation_error(states, [1.0]), [[1.0], [1.0]])

    def test_estimation_error_length_mismatch(self):
        with pytest.raises(ValueError):
            estimation_error(init_states([[1.0]]), [1.0, 2.0])


class TestAggregateGlobal:
    def test_uniform_mean(self):
        states = init_states([[0.0], [3.0], [6.0]])
        assert aggregate_global(states, uniform_weights(3))[0] == pytest.approx(3.0)

    def test_degenerate_weights_pick_one_agent(self):
        states = init_states([[0.0], [3.0], [6.0]])
        gw = GlobalWeights(np.array([1.0, 0.0, 0.0]))
        assert aggregate_global(states, gw)[0] == 0.0

    def test_agreement_invariant_under_beta(self):
        states = init_states([[4.2], [4.2], [4.2]])
        for gw in (uniform_weights(3), block_size_weights([5, 3, 2])):
            assert aggregate_global(states, gw)[0] == pytest.approx(4.2)

    def test_invalid_beta_rejected(self):
        with pytest.raises(ValueError):
            GlobalWeights(np.array([0.5, 0.6]))


class TestRunToConvergence:
    def test_agreed_start_stops_at_zero_rounds(self):
        w = metropolis_weights(build_graph("ring", 4))
        states = init_states([[1.0]] * 4)
        _, rounds, history, reason = run_to_convergence(states, w, MATRIX_FORM, 1e-9, 100)
        assert rounds == 0 and reason == "converged" and history == [0.0]

    def test_round_count_within_theoretical_cap(self):
        g = build_graph("er:0.5", 8, seed=1)
        w = metropolis_weights(g)
        rho = slem(w)
        rng = np.random.default_rng(0)
        states = init_states([[v] for v in rng.uniform(0, 5, 8)])
        e0 = consensus_error(states)
        tol = 1e-8
        _, rounds, _, reason = run_to_convergence(states, w, MATRIX_FORM, tol, 10_000)
        assert reason == "converged"
        cap = int(np.ceil(np.log(tol / e0) / np.log(rho)))
        assert rounds <= cap

    def test_literal_mode_divergence_signal(self):
        states = init_states([[0.0], [1.0]])
        with pytest.raises(DivergenceError) as err:
            run_to_convergence(states, SWAP_W, LITERAL, 1e-9, 500)
        assert err.value.round < 200

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
    def test_non_positive_tol_rejected(self, tol):
        states = init_states([[0.0], [1.0]])
        with pytest.raises(ValueError, match="tol must be positive"):
            run_to_convergence(states, SWAP_W, MATRIX_FORM, tol, 10)

    def test_size_mismatch_rejected(self):
        w = metropolis_weights(build_graph("ring", 4))
        with pytest.raises(ValueError, match="weight matrix is 4x4 for 2 agents"):
            run_to_convergence(init_states([[1.0], [2.0]]), w, MATRIX_FORM, 1e-9, 10)

    def test_max_rounds_stop(self):
        w = metropolis_weights(build_graph("ring", 10))
        states = init_states([[float(i)] for i in range(10)])
        _, rounds, _, reason = run_to_convergence(states, w, MATRIX_FORM, 1e-300, 5)
        assert rounds == 5 and reason == "max_rounds"


class TestDynamicsProperties:
    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_matrix_form_preserves_average(self, seed):
        g = build_graph("er:0.5", 7, seed=seed)
        w = metropolis_weights(g)
        rng = np.random.default_rng(seed)
        states = init_states([[v] for v in rng.uniform(0, 10, 7)])
        mean0 = np.mean(states.estimates[:, 0])
        for _ in range(30):
            states = consensus_round(states, w, MATRIX_FORM)
        assert abs(np.mean(states.estimates[:, 0]) - mean0) < 1e-12

    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_matrix_form_contracts_deviation_norm_per_round(self, seed):
        g = build_graph("er:0.4", 9, seed=seed)
        w = metropolis_weights(g)
        rho = slem(w)
        rng = np.random.default_rng(seed)
        states = init_states([[v] for v in rng.uniform(0, 5, 9)])
        d = deviation_norm(states)
        d0 = d
        for k in range(1, 51):
            states = consensus_round(states, w, MATRIX_FORM)
            d_next = deviation_norm(states)
            # absolute term covers float rounding once d hits the noise floor
            assert d_next <= rho * d * (1 + 1e-9) + 1e-13 * d0
            d = d_next
        assert d <= rho**50 * d0 * (1 + 1e-9) + 1e-13 * d0

    def test_max_metric_does_not_contract_per_round(self):
        # regression: per-round SLEM contraction is a theorem for the
        # mean-deviation norm only -- the max-pairwise metric can grow
        # relative to rho * e for one round (ring, anchors exciting the
        # slow mode unevenly)
        g = build_graph("ring", 10)
        w = metropolis_weights(g)
        rho = slem(w)
        rng = np.random.default_rng(8)
        states = init_states([[v] for v in rng.uniform(0.3, 5.0, 10)])
        worst = 0.0
        e = consensus_error(states)
        for _ in range(60):
            states = consensus_round(states, w, MATRIX_FORM)
            e_next = consensus_error(states)
            worst = max(worst, e_next / (rho * e))
            e = e_next
        assert worst > 1.0

    def test_matrix_form_limit_is_anchor_mean(self):
        g = build_graph("er:0.5", 6, seed=3)
        w = metropolis_weights(g)
        rng = np.random.default_rng(1)
        anchors = rng.uniform(0, 5, 6)
        states = init_states([[v] for v in anchors])
        states, _, _, reason = run_to_convergence(states, w, MATRIX_FORM, 1e-12, 2000)
        assert reason == "converged"
        target = anchors.mean()
        for v in states.estimates[:, 0]:
            assert v == pytest.approx(target, abs=1e-10)
        agg = aggregate_global(states, uniform_weights(6))
        assert agg[0] == pytest.approx(target, abs=1e-10)

    def test_damped_fixed_point_matches_linear_solve(self):
        g = build_graph("ring", 6)
        w = metropolis_weights(g)
        gamma = 0.5
        rng = np.random.default_rng(2)
        anchors = rng.uniform(0, 5, 6)
        states = init_states([[v] for v in anchors])
        for _ in range(200):
            states = consensus_round(states, w, damped(gamma))
        # oracle: x = (1-gamma) a + gamma W x  =>  (I - gamma W) x = (1-gamma) a
        x = np.linalg.solve(np.eye(6) - gamma * w.w, (1 - gamma) * anchors)
        got = states.estimates[:, 0]
        assert np.max(np.abs(got - x)) < 1e-8

    def test_all_modes_hold_common_anchor_fixed(self):
        w = metropolis_weights(build_graph("er:0.6", 5, seed=2))
        v = [3.25, 1.5]
        for mode in (MATRIX_FORM, LITERAL, damped(0.7)):
            states = init_states([v] * 5)
            for _ in range(10):
                states = consensus_round(states, w, mode)
            for row in states.estimates:
                assert np.array_equal(row, v)
