import hashlib
import math
import re
from dataclasses import replace

import numpy as np
import pytest
import yaml

from coopeig import comm_graph, consensus
from coopeig.comm_graph import FailureModel, apply_failures, build_graph, metropolis_weights, slem
from coopeig.consensus import (
    ConsensusMode,
    DivergenceError,
    consensus_error,
    consensus_round,
    deviation_norm,
    init_states,
    run_to_convergence,
)
from coopeig.local_estimator import NoisyOracleEstimator, OracleEstimator, estimate
from coopeig.matrix_core import (
    diagonal_block,
    generate_spd,
    jacobi_eigen,
    partition_rows,
    save_matrix,
)
from coopeig.seeding import child_seed
from coopeig.simulator import (
    ConfigError,
    EstimatorConfig,
    MatrixSpec,
    SimConfig,
    Trace,
    config_from_dict,
    config_to_dict,
    export_csv,
    fit_error_bound,
    format_summary,
    load_config,
    load_snapshot,
    run_simulation,
    save_snapshot,
    summary_from_snapshot,
    summary_report,
)

MATRIX_FORM = ConsensusMode("matrix_form")
ORACLE = EstimatorConfig("oracle")


def small_cfg(**over):
    base = dict(
        matrix=MatrixSpec("generate", n=12, spectrum=tuple(np.linspace(0.5, 6.0, 12))),
        agents=4,
        topology="ring",
        estimator=ORACLE,
        mode=MATRIX_FORM,
        tol=1e-10,
        max_rounds=500,
        seed=7,
    )
    base.update(over)
    return SimConfig(**base)


class TestTheoreticalBound:
    """``Trace.bound``: rho^k * e0 at round k, e0 the round-0 consensus error."""

    @pytest.fixture(scope="class")
    def bound(self):
        trace = run_simulation(small_cfg())
        return lambda e0, rho, k: replace(trace, rho=rho,
                                          consensus_error=np.full(k + 1, e0)).bound[k]

    def test_hand_value(self, bound):
        assert bound(1.0, 0.5, 3) == 0.125

    def test_k_zero(self, bound):
        assert bound(0.37, 0.9, 0) == 0.37

    def test_agreed_start(self, bound):
        assert bound(0.0, 0.9, 10) == 0.0

    def test_rejects_bad_args(self, bound):
        with pytest.raises(ValueError):
            bound(-1.0, 0.5, 1)
        with pytest.raises(ValueError):
            bound(1.0, 1.5, 1)


class TestRunSimulation:
    def test_single_agent_trivial(self):
        trace = run_simulation(small_cfg(agents=1, topology="complete"))
        assert trace.stop_reason == "converged"
        assert trace.rounds_used == 0
        assert all(e == 0.0 for e in trace.consensus_error)
        # single agent's anchor is its exact block spectrum head
        A = generate_spd(12, np.linspace(0.5, 6.0, 12),
                         child_seed(7, "matrix"))
        lam = jacobi_eigen(A).eigenvalues[0]
        assert trace.final_estimates[0, 0] == pytest.approx(lam, abs=1e-12)

    def test_converges_at_n_1024_over_16_agents(self):
        # 64 x 64 blocks and a 1024 x 1024 truth, both solved by eigvalsh
        spectrum = np.linspace(0.5, 5.0, 1024)
        trace = run_simulation(small_cfg(
            matrix=MatrixSpec("generate", n=1024, spectrum=tuple(spectrum)), agents=16,
            tol=1e-8, max_rounds=2000, seed=0, tracked=2))
        assert trace.stop_reason == "converged"
        assert np.abs(trace.truth - spectrum[:2]).max() <= 1e-12

    def test_complete_graph_one_round(self):
        trace = run_simulation(small_cfg(topology="complete"))
        assert trace.stop_reason == "converged"
        assert trace.rounds_used == 1
        assert trace.rho <= 1e-12

    def test_reruns_bit_identical(self):
        cfg = small_cfg()
        a, b = run_simulation(cfg), run_simulation(cfg)
        assert np.array_equal(a.final_estimates, b.final_estimates)
        assert a.consensus_error.tolist() == b.consensus_error.tolist()
        assert a.stop_reason == b.stop_reason and a.rho == b.rho

    def test_round_indices_strictly_increasing(self, tmp_path):
        trace = run_simulation(small_cfg())
        path = tmp_path / "trace.csv"
        export_csv(trace, path)
        ks = [int(line.split(",")[0]) for line in path.read_text().splitlines()[1:]]
        assert ks == list(range(trace.rounds_used + 1))
        for column in (trace.consensus_error, trace.deviation_norm, trace.max_est_error,
                       trace.mean_est_error, trace.bound,
                       trace.scalars_sent, trace.flops_local):
            assert len(column) == trace.rounds_used + 1

    def test_bound_column_monotone(self):
        trace = run_simulation(small_cfg())
        bounds = trace.bound.tolist()
        assert all(b <= a for a, b in zip(bounds, bounds[1:]))
        for k, bound in enumerate(bounds):
            assert bound == trace.rho**k * trace.consensus_error[0]

    def test_communication_accounting_failure_free(self):
        for topology, m in (("ring", 4), ("complete", 5), ("path", 6)):
            cfg = small_cfg(topology=topology, agents=m, max_rounds=3, tol=1e-300)
            trace = run_simulation(cfg)
            edges = len(build_graph(topology, m).edges)
            k2 = sum(k * k for k in trace.block_sizes)
            for sent, flops in zip(trace.scalars_sent[1:], trace.flops_local[1:]):
                assert sent == 2 * 1 * edges
                assert flops == k2
        assert trace.scalars_sent[0] == 0

    def test_communication_accounting_under_failures(self):
        cfg = small_cfg(agents=6, topology="ring", failure_p=0.5, max_rounds=40,
                        tol=1e-300, tracked=2, seed=11)
        trace = run_simulation(cfg)
        # replay the keyed failure stream to recover each round's live edges
        base = build_graph("ring", 6, child_seed(11, "graph"))
        fm = FailureModel(0.5, child_seed(11, "failures"))
        live = [len(apply_failures(base, fm, k).edges) for k in range(1, trace.rounds_used + 1)]
        assert trace.scalars_sent[1:].tolist() == [2 * 2 * e for e in live]
        assert len(set(live)) > 1

    def test_deviation_norm_contracts_failure_free(self):
        trace = run_simulation(small_cfg(tol=1e-6))
        d = trace.deviation_norm
        for k in range(1, len(d)):
            assert d[k] <= trace.rho * d[k - 1] * (1 + 1e-9) + 1e-13 * d[0]
            assert d[k] <= trace.rho**k * d[0] * (1 + 1e-9) + 1e-13 * d[0]

    def test_failure_rounds_bounded_by_realized_slems(self):
        cfg = small_cfg(agents=6, topology="ring", failure_p=0.4, tol=1e-6,
                        max_rounds=400, seed=11)
        trace = run_simulation(cfg)
        # replay the keyed failure stream to recover each round's graph
        base = build_graph("ring", 6, child_seed(11, "graph"))
        fm = FailureModel(0.4, child_seed(11, "failures"))
        d = trace.deviation_norm
        product = 1.0
        for k in range(1, len(d)):
            product *= slem(metropolis_weights(apply_failures(base, fm, k)))
            assert d[k] <= product * d[0] * (1 + 1e-9) + 1e-13 * d[0]

    def test_divergent_mode_stops_with_reason(self):
        # ring-10 Metropolis W has a negative eigenvalue, so the literal
        # update's iteration matrix W - I has spectral radius above 1
        cfg = small_cfg(agents=10, topology="ring",
                        mode=ConsensusMode("paper_literal"), max_rounds=500)
        trace = run_simulation(cfg)
        assert trace.stop_reason == "diverged"
        assert trace.rounds_used < 200

    @pytest.mark.parametrize("mode", ["matrix_form", "paper_literal"])
    def test_same_loop_as_run_to_convergence(self, mode):
        # failure-free, so both entry points mix with the same W every round
        cfg = small_cfg(agents=10, mode=ConsensusMode(mode), max_rounds=500)
        trace = run_simulation(cfg)
        A = generate_spd(12, np.array(cfg.matrix.spectrum), child_seed(7, "matrix"))
        part = partition_rows(12, 10)
        states = init_states([estimate(OracleEstimator(), diagonal_block(A, part, i))[:1]
                              for i in range(10)])
        w = metropolis_weights(build_graph("ring", 10, child_seed(7, "graph")))
        if mode == "paper_literal":
            assert trace.stop_reason == "diverged"
            with pytest.raises(DivergenceError) as err:
                run_to_convergence(states, w, cfg.mode, cfg.tol, cfg.max_rounds)
            assert err.value.round == trace.rounds_used
        else:
            _, rounds, history, reason = run_to_convergence(states, w, cfg.mode,
                                                            cfg.tol, cfg.max_rounds)
            assert (rounds, reason) == (trace.rounds_used, trace.stop_reason)
            assert history == trace.consensus_error.tolist()

    def test_tracked_count_limited_by_block_size(self):
        with pytest.raises(ConfigError):
            run_simulation(small_cfg(tracked=5))

    @pytest.mark.parametrize("tol", [0.0, -1e-6, float("nan")])
    def test_non_positive_tol_rejected(self, tol):
        with pytest.raises(ConfigError, match="tol must be positive"):
            small_cfg(tol=tol)

    def test_agents_capped_by_rows(self):
        with pytest.raises(ConfigError):
            SimConfig(matrix=MatrixSpec("generate", n=3, spectrum=(1.0, 2.0, 3.0)),
                      agents=4, topology="ring", estimator=ORACLE, mode=MATRIX_FORM)


def replay_graph_path(cfg):
    """The failing round built from objects: each round's Graph from
    apply_failures, its WeightMatrix from metropolis_weights, and one
    consensus_round. Returns the columns the trace must match."""
    A = generate_spd(cfg.matrix.n, np.array(cfg.matrix.spectrum), child_seed(cfg.seed, "matrix"))
    part = partition_rows(A.n, cfg.agents)
    if cfg.estimator.kind == "oracle":
        est = OracleEstimator()
    else:
        est = NoisyOracleEstimator(cfg.estimator.sigma, child_seed(cfg.seed, "estimator-noise"))
    states = init_states([estimate(est, diagonal_block(A, part, i), agent=i, round_=0)
                          [:cfg.tracked] for i in range(part.m)])
    base = build_graph(cfg.topology, cfg.agents, child_seed(cfg.seed, "graph"))
    fm = FailureModel(cfg.failure_p, child_seed(cfg.seed, "failures"))
    errors, deviations, sent = [consensus_error(states)], [deviation_norm(states)], [0]
    threshold = 1e9 * max(1.0, errors[0])
    reason = None
    while reason is None and errors[-1] >= cfg.tol and len(errors) <= cfg.max_rounds:
        g_k = apply_failures(base, fm, len(errors))
        sent.append(2 * cfg.tracked * len(g_k.edges))
        states = consensus_round(states, metropolis_weights(g_k), cfg.mode)
        finite = np.all(np.isfinite(states.estimates))
        errors.append(consensus_error(states) if finite else math.inf)
        deviations.append(deviation_norm(states))
        if math.isinf(errors[-1]) or errors[-1] > threshold:
            reason = "diverged"
    if reason is None:
        reason = "converged" if errors[-1] < cfg.tol else "max_rounds"
    return np.array(errors), np.array(deviations), np.array(sent), states.estimates, reason


def generated(n):
    return MatrixSpec("generate", n=n, spectrum=tuple(np.linspace(0.5, 6.0, n)))


# With 40 agents on a ring the failing rounds' weights come in chunks of
# up to 81 rounds, and the rounds mix in blocks of up to 819 rounds over
# one tracked value, 409 over two. On a complete graph of 182 agents one
# round's edge-form weights alone (2E + m = 33,124 floats) pass
# BLOCK_FLOATS, so every chunk of weights is one round, while a block of
# estimates still holds up to 180.
MATRIX_40, MATRIX_80, MATRIX_182 = generated(40), generated(80), generated(182)

# Each failing config, and the stop reason it must reach. A ring under
# p = 0.3 does not diverge in paper_literal mode; er:0.5 does. The three
# 40-agent runs span many block refills: the ring converges at round
# 2695, the prime max_rounds ends a shortened block, and the er:0.3 run
# diverges at round 191, inside the block of rounds 173-192.
FAILING = [
    (dict(agents=6, failure_p=0.5, tol=1e-8), "converged"),
    (dict(agents=8, topology="er:0.4", failure_p=0.3, tol=1e-8), "converged"),
    (dict(agents=6, mode=ConsensusMode("damped", gamma=0.6), tracked=2, failure_p=0.2,
          estimator=EstimatorConfig("noisy_oracle", sigma=0.05), max_rounds=200), "max_rounds"),
    (dict(agents=10, mode=ConsensusMode("paper_literal"), failure_p=0.3, max_rounds=300),
     "max_rounds"),
    (dict(agents=10, topology="er:0.5", mode=ConsensusMode("paper_literal"), failure_p=0.3,
          max_rounds=2000), "diverged"),
    (dict(matrix=MATRIX_40, agents=40, failure_p=0.5, tol=1e-6, max_rounds=20000),
     "converged"),
    (dict(matrix=MATRIX_80, agents=40, mode=ConsensusMode("damped", gamma=0.9), tracked=2,
          failure_p=0.5, max_rounds=1009), "max_rounds"),
    (dict(matrix=MATRIX_40, agents=40, topology="er:0.3", mode=ConsensusMode("paper_literal"),
          failure_p=0.3, max_rounds=3000), "diverged"),
    # 1,033 edge rows on 200 agents: chunks of 5 rounds
    (dict(matrix=generated(200), agents=200, topology="er:0.05", failure_p=0.3, tol=1e-8,
          max_rounds=20000), "converged"),
    # degree up to 21 on 256 agents, chunks of 5 rounds: converges at
    # round 80, inside the block of rounds 65-128
    (dict(matrix=generated(256), agents=256, topology="er:0.032", failure_p=0.3, tol=1e-4,
          max_rounds=200), "converged"),
]


@pytest.fixture
def mixed(monkeypatch):
    """Every weight array the round loop mixes with, in round order."""
    seen, step = [], consensus._step
    monkeypatch.setattr(consensus, "_step",
                        lambda est, anc, w, mode, out: seen.append(w.copy())
                        or step(est, anc, w, mode, out))
    return seen


@pytest.fixture
def streams(monkeypatch):
    """Each failure stream built, in order, as the list of its draws:
    one (first round, rounds) pair per ``draw`` call."""
    built, stream = [], comm_graph.failure_stream

    def counted(g, f, first):
        draw, draws = stream(g, f, first), []
        built.append(draws)

        def counted_draw(rounds):
            draws.append((first + sum(r for _, r in draws), rounds))
            return draw(rounds)
        return counted_draw

    monkeypatch.setattr(comm_graph, "failure_stream", counted)
    return built


class TestFailingRound:
    @pytest.mark.parametrize("over, reason", FAILING)
    def test_bit_equal_to_graph_path(self, over, reason):
        cfg = small_cfg(**over)
        trace = run_simulation(cfg)
        errors, deviations, sent, final, ref_reason = replay_graph_path(cfg)
        assert trace.stop_reason == ref_reason == reason
        assert trace.consensus_error.tobytes() == errors.tobytes()
        assert trace.deviation_norm.tobytes() == deviations.tobytes()
        assert trace.scalars_sent.tolist() == sent.tolist()
        assert trace.final_estimates.tobytes() == final.tobytes()

    # The complete graph converges at round 10, inside the block of rounds
    # 9-16; the damped run's last block is cut from 128 rounds to 22.
    @pytest.mark.parametrize("over, reason", [
        (dict(tol=1e-10, max_rounds=20000), "converged"),
        (dict(mode=ConsensusMode("damped", gamma=0.9), tol=1e-300, max_rounds=150),
         "max_rounds"),
    ])
    def test_one_round_weight_blocks_bit_equal_to_graph_path(self, monkeypatch, streams, over,
                                                             reason):
        kept, run_rounds = [], consensus.run_rounds
        monkeypatch.setattr(consensus, "run_rounds",
                            lambda *args: run_rounds(*args[:-1], lambda first, est, errors:
                                                     kept.append(len(est))
                                                     or args[-1](first, est, errors)))
        cfg = small_cfg(matrix=MATRIX_182, agents=182, topology="complete", failure_p=0.5,
                        **over)
        trace = run_simulation(cfg)
        [draws] = streams  # one stream per failing run; the replay below builds more
        drawn = [rounds for _, rounds in draws]
        errors, deviations, sent, final, ref_reason = replay_graph_path(cfg)
        assert trace.stop_reason == ref_reason == reason
        assert trace.consensus_error.tobytes() == errors.tobytes()
        assert trace.deviation_norm.tobytes() == deviations.tobytes()
        assert trace.scalars_sent.tolist() == sent.tolist()
        assert trace.final_estimates.tobytes() == final.tobytes()
        assert set(drawn) == {1} and max(kept) > 1 and sum(kept) == trace.rounds_used + 1

    @pytest.mark.parametrize("topology, m, p", [("ring", 10, 0.5), ("er:0.4", 8, 0.3),
                                                ("complete", 6, 0.2)])
    def test_round_weights_bit_equal(self, mixed, topology, m, p):
        # damped mode keeps the anchors apart, so no run stops early
        cfg = small_cfg(agents=m, topology=topology, failure_p=p, tol=1e-300,
                        max_rounds=200, seed=5, mode=ConsensusMode("damped", gamma=0.9))
        assert run_simulation(cfg).rounds_used == 200
        base = build_graph(topology, m, child_seed(5, "graph"))
        fm = FailureModel(p, child_seed(5, "failures"))
        assert len(mixed) == 200
        for k, w in enumerate(mixed, start=1):
            assert w.tobytes() == metropolis_weights(apply_failures(base, fm, k)).w.tobytes()

    def test_round_weights_bit_equal_across_blocks(self, mixed):
        # 75 rounds on 40 agents mix in blocks of 1, 1, 2, 4, 8, 16, 32
        # and 11, each block's weights one chunk
        cfg = small_cfg(matrix=MATRIX_40, agents=40, failure_p=0.5, tol=1e-300,
                        max_rounds=75, seed=5, mode=ConsensusMode("damped", gamma=0.9))
        assert run_simulation(cfg).rounds_used == 75
        base = build_graph("ring", 40, child_seed(5, "graph"))
        fm = FailureModel(0.5, child_seed(5, "failures"))
        assert len(mixed) == 75
        for k, w in enumerate(mixed, start=1):
            assert w.tobytes() == metropolis_weights(apply_failures(base, fm, k)).w.tobytes()

    def test_dense_check_runs_once_for_w0(self, monkeypatch):
        # failing rounds are checked on their edge rows, never as (m, m)
        checked, check = [], comm_graph.check_weights
        monkeypatch.setattr(comm_graph, "check_weights", lambda w: checked.append(w) or check(w))
        cfg = small_cfg(matrix=MATRIX_40, agents=40, failure_p=0.5, tol=1e-300, max_rounds=75)
        assert run_simulation(cfg).rounds_used == 75
        assert len(checked) == 1

    @pytest.mark.parametrize("over", [dict(tol=1e-6, max_rounds=20000),
                                      dict(tol=1e-300, max_rounds=1009)])
    def test_rounds_drawn_ahead_bounded_by_rounds_used(self, streams, over):
        trace = run_simulation(small_cfg(matrix=MATRIX_40, agents=40, failure_p=0.5, **over))
        [draws] = streams  # one stream per failing run
        drawn = [k for first, rounds in draws for k in range(first, first + rounds)]
        asked = [rounds for _, rounds in draws]
        assert drawn == list(range(1, len(drawn) + 1))
        assert trace.rounds_used <= len(drawn) <= min(2 * trace.rounds_used, over["max_rounds"])
        assert max(asked) <= consensus.BLOCK_FLOATS // comm_graph.edge_form_floats(40, 40) == 81

    def test_failure_free_run_builds_no_stream(self, streams):
        cfg = small_cfg(matrix=MATRIX_40, agents=40, tol=1e-300, max_rounds=75)
        assert run_simulation(cfg).rounds_used == 75
        assert streams == []

    def test_trace_metrics_equal_per_round_calls(self, monkeypatch):
        # two tracked values: blocks of at most 409 rounds, so 1009 rounds
        # take blocks of 1, 1, 2, ..., 256, then 409 and one cut to 88
        inputs, step = [], consensus._step
        monkeypatch.setattr(consensus, "_step",
                            lambda est, anc, w, mode, out: inputs.append(
                                consensus.ConsensusState(est.copy(), anc))
                            or step(est, anc, w, mode, out))
        cfg = small_cfg(matrix=MATRIX_80, agents=40, mode=ConsensusMode("damped", gamma=0.9),
                        tracked=2, failure_p=0.5, max_rounds=1009)
        trace = run_simulation(cfg)
        states = inputs + [consensus.ConsensusState(trace.final_estimates, inputs[0].anchors)]
        assert len(states) == len(trace.consensus_error) == 1010
        for k, s in enumerate(states):
            eps = consensus.estimation_error(s, trace.truth)
            assert trace.deviation_norm[k] == consensus.deviation_norm(s)
            assert trace.max_est_error[k] == eps.max()
            assert trace.mean_est_error[k] == eps.mean()

    def test_failure_free_rounds_mix_w0(self, mixed):
        trace = run_simulation(small_cfg(max_rounds=20, tol=1e-300))
        w0 = metropolis_weights(build_graph("ring", 4, child_seed(7, "graph"))).w
        assert len(mixed) == trace.rounds_used == 20
        assert all(w.tobytes() == w0.tobytes() for w in mixed)


def constant_trace(value, rounds=20):
    cfg = small_cfg()
    zeros, values = np.zeros(rounds), np.full(rounds, value)
    return Trace(cfg, np.array([1.0]), 0.5, consensus_error=zeros, deviation_norm=zeros,
                 max_est_error=values, mean_est_error=values,
                 scalars_sent=np.zeros(rounds, int),
                 final_estimates=np.ones((4, 1)), stop_reason="max_rounds",
                 block_sizes=(3, 3, 3, 3))


class TestFitErrorBound:
    def test_constant_error_trace(self):
        fit = fit_error_bound(constant_trace(0.01))
        assert fit.beta_hat == pytest.approx(0.0, abs=1e-15)
        assert fit.gamma_hat == pytest.approx(0.01)
        assert fit.holds

    def test_oracle_single_agent_floor_zero(self):
        # one oracle agent holds the whole matrix: estimation error is
        # identically zero, so both fitted terms vanish
        fit = fit_error_bound(constant_trace(0.0))
        assert fit.beta_hat == 0.0 and fit.gamma_hat == 0.0
        assert fit.holds

    def test_geometric_trace_recovers_decay(self):
        cfg = small_cfg(tol=1e-9)
        trace = run_simulation(cfg)
        fit = fit_error_bound(trace)
        assert fit.rho_used == trace.rho
        assert fit.holds

    def test_short_trace_rejected(self):
        with pytest.raises(ValueError):
            fit_error_bound(constant_trace(0.01, rounds=5))


class TestExportCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        trace = run_simulation(small_cfg(tol=1e-6))
        path = tmp_path / "trace.csv"
        export_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ("round,consensus_error,max_est_error,"
                            "mean_est_error,bound,scalars_sent,flops_local")
        assert len(lines) == 1 + len(trace.consensus_error)
        for r, line in enumerate(lines[1:]):
            k, e, mx, mn, bound, scal, flops = line.split(",")
            assert int(k) == r
            assert float(e) == trace.consensus_error[r]
            assert float(mx) == trace.max_est_error[r]
            assert float(mn) == trace.mean_est_error[r]
            assert float(bound) == trace.bound[r]
            assert int(scal) == trace.scalars_sent[r]
            assert int(flops) == trace.flops_local[r]

    # sha256 of the exported bytes of a failure-free run, a run under
    # link failures and a run whose MLP estimators train in the run:
    # any change to a CSV byte shows here
    @pytest.mark.parametrize("over, digest", [
        ({}, "4ba182e93b566b9c6a08ff89d4dd8437f98278c9e70a30f756994dd7ecaa2ece"),
        ({"agents": 6, "topology": "ring", "failure_p": 0.4, "seed": 11},
         "29020278427037e0871037afd6b12caeb10602a7161208dc063c1eeed54ea76d"),
        ({"estimator": EstimatorConfig("mlp", learning_rate=0.01)},
         "4edc652a59972182f939a94785d8ddf0b69f9d40f3d61620af2530fb50a3e890"),
    ], ids=["failure-free", "link-failures", "mlp-trained-in-run"])
    def test_bytes_pinned(self, tmp_path, over, digest):
        path = tmp_path / "trace.csv"
        export_csv(run_simulation(small_cfg(**over)), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_zero_round_trace(self, tmp_path):
        trace = run_simulation(small_cfg(agents=1, topology="complete"))
        path = tmp_path / "t.csv"
        export_csv(trace, path)
        assert len(path.read_text().splitlines()) == 2

    def test_no_partial_file_on_failure(self, tmp_path):
        trace = run_simulation(small_cfg(agents=1, topology="complete"))
        target = tmp_path / "sub" / "t.csv"  # directory does not exist
        with pytest.raises(OSError):
            export_csv(trace, target)
        assert not target.exists()


class TestSummary:
    # the golden layout: value list wraps at four entries per line
    GOLDEN = (
        "True Smallest Eigenvalue: 0.0017707060804811243\n"
        "Estimated Smallest Eigenvalues by Agents:\n"
        "[0.00113323 0.00107795 0.00083442 0.00112609\n"
        " 0.00094182 0.00101718 0.0011068  0.00098364\n"
        " 0.00103933 0.00104855]\n"
        "Stop reason: max_rounds\n"
        "Rounds used: 300\n"
        "Final consensus error: 0.0001\n"
    )

    def test_golden_fixture(self):
        agents = [0.00113323, 0.00107795, 0.00083442, 0.00112609,
                  0.00094182, 0.00101718, 0.0011068, 0.00098364,
                  0.00103933, 0.00104855]
        out = format_summary(0.0017707060804811243, agents, "max_rounds",
                             300, 0.0001)
        assert out == self.GOLDEN

    def test_single_agent_lists_one_value(self):
        trace = run_simulation(small_cfg(agents=1, topology="complete"))
        out = summary_report(trace)
        lines = out.splitlines()
        assert lines[1] == "Estimated Smallest Eigenvalues by Agents:"
        assert lines[2].startswith("[") and lines[2].endswith("]")

    def test_consensus_complete_run_identical_digits(self):
        trace = run_simulation(small_cfg(tol=1e-13, topology="complete"))
        vals = trace.final_estimates[:, 0]
        assert np.max(vals) - np.min(vals) < 1e-12 * max(1.0, abs(vals[0]))


class TestConfigFile:
    def yaml_dict(self):
        return {
            "matrix": {"kind": "generate", "n": 8,
                       "spectrum": [0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4]},
            "agents": 4,
            "topology": "ring",
            "estimator": {"kind": "oracle"},
            "mode": "matrix_form",
            "seed": 3,
        }

    def test_minimal_config_takes_dataclass_defaults(self):
        cfg = config_from_dict(self.yaml_dict())
        assert cfg.estimator == EstimatorConfig("oracle")
        assert cfg.mode == ConsensusMode("matrix_form")
        assert cfg == SimConfig(cfg.matrix, 4, "ring", cfg.estimator, cfg.mode, seed=3)

    @pytest.mark.parametrize("estimator", [{"sigma": 0.1}, {"kind": "mlp", "hidden": 5},
                                           {"kind": "mlp", "hidden": "32"}])
    def test_bad_estimator_section_rejected(self, estimator):
        d = self.yaml_dict()
        d["estimator"] = estimator
        with pytest.raises(ConfigError):
            config_from_dict(d)

    def test_round_trip(self, tmp_path):
        cfg = config_from_dict(self.yaml_dict())
        path = tmp_path / "c.yaml"
        with open(path, "w") as f:
            yaml.safe_dump(config_to_dict(cfg), f)
        assert load_config(path) == cfg

    def test_unknown_top_key_rejected(self):
        for key in ["typo_key", "beta"]:
            d = self.yaml_dict()
            d[key] = 1
            with pytest.raises(ConfigError, match=re.escape(f"unknown config keys: ['{key}']")):
                config_from_dict(d)

    def test_unknown_nested_key_rejected(self):
        d = self.yaml_dict()
        d["estimator"]["sigmaa"] = 0.1
        with pytest.raises(ConfigError):
            config_from_dict(d)

    def test_missing_required_key_rejected(self):
        d = self.yaml_dict()
        del d["topology"]
        with pytest.raises(ConfigError):
            config_from_dict(d)

    def test_spectrum_range_string(self):
        d = self.yaml_dict()
        d["matrix"]["spectrum"] = "0.5:4.0"
        cfg = config_from_dict(d)
        values = np.array(cfg.matrix.spectrum)
        assert values.shape == (8,)
        assert np.all(np.diff(values) >= 0)
        assert np.all((values >= 0.5) & (values <= 4.0))
        # same seed, same draw
        assert config_from_dict(d).matrix.spectrum == cfg.matrix.spectrum

    def test_file_matrix_kind(self, tmp_path):
        A = generate_spd(6, np.arange(1.0, 7.0), seed=2)
        path = tmp_path / "m.txt"
        save_matrix(A, path)
        d = self.yaml_dict()
        d["matrix"] = {"kind": "file", "path": str(path)}
        trace = run_simulation(config_from_dict(d))
        assert trace.truth[0] == pytest.approx(1.0, abs=1e-9)


class TestSnapshot:
    def test_round_trip_and_report(self, tmp_path):
        trace = run_simulation(small_cfg(tol=1e-8))
        path = tmp_path / "snap.json"
        save_snapshot(trace, path)
        snap = load_snapshot(path)
        assert summary_from_snapshot(snap) == summary_report(trace)
        # the snapshot config re-runs to the same outcome
        rerun = run_simulation(config_from_dict(snap["config"]))
        assert np.array_equal(rerun.final_estimates,
                              np.array(snap["final_estimates"]))
