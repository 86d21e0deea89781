import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopeig.comm_graph import WeightMatrix, build_graph, metropolis_weights, slem
from coopeig.consensus import (
    ConsensusMode,
    ConsensusState,
    DivergenceError,
    aggregate_global,
    consensus_error,
    consensus_round,
    deviation_norm,
    deviation_norms,
    estimation_error,
    estimation_errors,
    init_states,
    run_rounds,
    run_to_convergence,
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


class TestStackedMetrics:
    # each stacked metric is the per-round one, bit for bit, whatever
    # the stack height
    @pytest.mark.parametrize("rounds, m, j", [(1, 1, 1), (7, 40, 1), (300, 13, 3)])
    def test_slices_equal_per_round_calls(self, rounds, m, j):
        est = np.random.default_rng(rounds).normal(size=(rounds, m, j)) * 10.0 ** -np.arange(j)
        truth = np.linspace(-1.0, 1.0, j)
        norms, eps = deviation_norms(est), estimation_errors(est, truth)
        assert norms.shape == (rounds,) and eps.shape == est.shape
        for r in range(rounds):
            states = ConsensusState(est[r].copy(), est[r].copy())
            assert norms[r] == deviation_norm(states)
            assert eps[r].tobytes() == estimation_error(states, truth).tobytes()

    def test_shape_mismatches_rejected(self):
        est = np.zeros((4, 3, 2))
        with pytest.raises(ValueError, match="truth has length 1"):
            estimation_errors(est, [1.0])


class TestAggregateGlobal:
    def test_uniform_mean(self):
        states = init_states([[0.0, 1.0], [3.0, 1.0], [6.0, 4.0]])
        assert aggregate_global(states).tolist() == pytest.approx([3.0, 2.0])


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


class TestRunRounds:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")],
                             ids=["nan", "+inf", "-inf"])
    def test_non_finite_estimate_diverges_with_infinite_error(self, bad):
        # identity weights keep the error at 3 until round 3 scales
        # agent 1's estimate by the bad value
        def weights(k):
            w = np.eye(4)
            if k == 3:
                w[1, 1] = bad
            return w

        errors = []
        states, rounds, reason = run_rounds(init_states([[1.0], [2.0], [3.0], [4.0]]),
                                            blocks_of(weights), MATRIX_FORM, 1e-9, 100,
                                            lambda _first, _est, e: errors.extend(e.tolist()))
        assert (rounds, reason) == (3, "diverged")
        assert errors == [3.0, 3.0, 3.0, float("inf")]
        assert not np.isfinite(states.estimates[1, 0])

    # blocks of 1, 1, 2 and 4 rounds: the fourth block's provider is
    # one array short or one long
    @pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
    def test_provider_of_wrong_length_rejected(self, extra):
        def weights(first, r):
            return [np.eye(4)] * (r + extra if first == 5 else r)

        seen = []
        with pytest.raises(ValueError, match="zip"):
            run_rounds(init_states([[1.0], [2.0], [3.0], [4.0]]), weights, MATRIX_FORM, 1e-9,
                       100, lambda first, _est, _e: seen.append(first))
        assert seen == [0, 1, 2, 3]


def reference_rounds(states, weights, mode, tol, max_rounds):
    """The round loop one round at a time, each mode's expression into a
    new array and the error from its own max-min scan: (per-round
    estimates, per-round errors, rounds used, stop reason)."""
    est, anc = states.estimates, states.anchors
    e = float(np.max(est.max(axis=0) - est.min(axis=0)))
    threshold = 1e9 * max(1.0, e)
    ests, errors, k = [est], [e], 0
    while e >= tol and k < max_rounds:
        k += 1
        w = weights(k)
        if mode.kind == "matrix_form":
            est = w @ est
        elif mode.kind == "paper_literal":
            est = anc + w @ est - est
        else:
            est = (1.0 - mode.gamma) * anc + mode.gamma * (w @ est)
        e = float(np.max(est.max(axis=0) - est.min(axis=0)))
        if not math.isfinite(e):
            e = math.inf
        ests.append(est)
        errors.append(e)
        if math.isinf(e) or e > threshold:
            return ests, errors, k, "diverged"
    return ests, errors, k, "converged" if e < tol else "max_rounds"


def ring_states(m=8, j=2, seed=3):
    return init_states(np.random.default_rng(seed).uniform(0.5, 5.0, (m, j)))


RING_W = metropolis_weights(build_graph("ring", 8)).w


def blocks_of(weights):
    """The round loop's provider for a one-round ``weights(k)``."""
    return lambda first, r: map(weights, range(first, first + r))


def fixed(w):
    return lambda _k: w


def bad_at(k_bad, value):
    # identity weights keep the error fixed until round k_bad scales
    # agent 1's estimate by the bad value
    def weights(k):
        w = np.eye(4)
        if k == k_bad:
            w[1, 1] = value
        return w
    return weights


def blows_up_at(k_bad):
    # from round k_bad on, every round multiplies by 1e100: the rounds a
    # block mixes past the stop overflow to inf, then to NaN
    def weights(k):
        return np.eye(2) if k < k_bad else np.array([[0.0, 1e100], [1e100, 0.0]])
    return weights


FOUR = init_states([[1.0], [2.0], [3.0], [4.0]])

# (states, weights, mode, tol, max_rounds, stop reason, rounds used).
# Blocks hold 1, 1, 2, 4, 8, 16, ... rounds, cut by the rounds left.
BLOCK_CASES = {
    "converged-round-0": (init_states([[2.0]] * 3), fixed(RING_W), MATRIX_FORM, 1e-9, 50,
                          "converged", 0),
    "converged-round-1": (ring_states(), fixed(metropolis_weights(build_graph("complete", 8)).w),
                          MATRIX_FORM, 1e-9, 50, "converged", 1),
    "converged-mid-block": (ring_states(), fixed(RING_W), MATRIX_FORM, 1e-6, 1000,
                            "converged", None),
    "max-rounds-cut-block-matrix-form": (ring_states(), fixed(RING_W), MATRIX_FORM, 1e-300, 11,
                                         "max_rounds", 11),
    "max-rounds-cut-block-damped": (ring_states(), fixed(RING_W), damped(0.7), 1e-300, 27,
                                    "max_rounds", 27),
    "max-rounds-cut-block-literal": (ring_states(), fixed(RING_W), LITERAL, 1e-300, 6,
                                     "max_rounds", 6),
    # anchors 4e-6 apart settle 1.2e-7 apart under damping 0.99
    "converged-mid-block-damped": (init_states(1.0 + 1e-6 * ring_states().estimates),
                                   fixed(RING_W), damped(0.99), 2e-7, 1000, "converged", None),
    "diverged-literal-growth": (ring_states(), fixed(RING_W), LITERAL, 1e-9, 10_000,
                                "diverged", None),
    "diverged-literal-swap": (init_states([[0.0], [1.0]]), fixed(SWAP_W.w), LITERAL, 1e-9, 500,
                              "diverged", None),
    "diverged-nan": (FOUR, bad_at(11, float("nan")), MATRIX_FORM, 1e-9, 100, "diverged", 11),
    "diverged-+inf": (FOUR, bad_at(11, float("inf")), MATRIX_FORM, 1e-9, 100, "diverged", 11),
    "diverged--inf": (FOUR, bad_at(11, -float("inf")), MATRIX_FORM, 1e-9, 100, "diverged", 11),
    "diverged-overflow-past-stop": (init_states([[1.0], [2.0]]), blows_up_at(40), MATRIX_FORM,
                                    1e-9, 1000, "diverged", 40),
}

# These stop inside a block: rounds past the stop are mixed, then dropped.
STOPS_INSIDE_A_BLOCK = {"converged-mid-block", "converged-mid-block-damped",
                        "diverged-literal-growth", "diverged-literal-swap", "diverged-nan",
                        "diverged-+inf", "diverged--inf", "diverged-overflow-past-stop"}


class TestBlockRounds:
    """The block loop against the one-round-at-a-time reference: the same
    stop, the same bits, and nothing past the stop seen by the caller."""

    @pytest.mark.parametrize("name", BLOCK_CASES)
    def test_bit_equal_to_reference_loop(self, name):
        states, weights, mode, tol, max_rounds, reason, rounds = BLOCK_CASES[name]
        ref_ests, ref_errors, ref_rounds, ref_reason = reference_rounds(
            states, weights, mode, tol, max_rounds)
        asked, blocks = [], []

        def counted(first, r):
            asked.extend(range(first, first + r))
            return blocks_of(weights)(first, r)

        final, used, why = run_rounds(states, counted, mode, tol, max_rounds,
                                      lambda first, est, errors: blocks.append(
                                          (first, est.copy(), errors.copy())))
        assert (used, why) == (ref_rounds, ref_reason)
        assert why == reason and (rounds is None or used == rounds)
        # the kept rounds reach the caller once each, in order, and no more
        assert [first for first, _, _ in blocks] == list(
            np.cumsum([0] + [len(est) for _, est, _ in blocks[:-1]]))
        est = np.concatenate([est for _, est, _ in blocks])
        errors = np.concatenate([errors for _, _, errors in blocks])
        assert len(est) == len(errors) == used + 1
        assert errors.tobytes() == np.array(ref_errors).tobytes()
        assert est.tobytes() == np.stack(ref_ests).tobytes()
        assert final.estimates.tobytes() == ref_ests[-1].tobytes()
        # rounds are asked for in order, and those mixed past the stop
        # never outnumber the rounds used
        assert asked == list(range(1, len(asked) + 1))
        assert used <= len(asked) <= max(0, 2 * used - 1)
        if name in STOPS_INSIDE_A_BLOCK:
            assert len(asked) > used


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
        agg = aggregate_global(states)
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
