import numpy as np
import pytest
import yaml

from coopeig.comm_graph import FailureModel, apply_failures, build_graph, metropolis_weights, slem
from coopeig.consensus import ConsensusMode, DivergenceError, init_states, run_to_convergence
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
    RoundMetrics,
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
    theoretical_bound,
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
    def test_hand_value(self):
        assert theoretical_bound(1.0, 0.5, 3) == 0.125

    def test_k_zero(self):
        assert theoretical_bound(0.37, 0.9, 0) == 0.37

    def test_agreed_start(self):
        assert theoretical_bound(0.0, 0.9, 10) == 0.0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            theoretical_bound(-1.0, 0.5, 1)
        with pytest.raises(ValueError):
            theoretical_bound(1.0, 1.5, 1)


class TestRunSimulation:
    def test_single_agent_trivial(self):
        trace = run_simulation(small_cfg(agents=1, topology="complete"))
        assert trace.stop_reason == "converged"
        assert trace.rounds_used == 0
        assert all(r.consensus_error == 0.0 for r in trace.rounds)
        # single agent's anchor is its exact block spectrum head
        A = generate_spd(12, np.linspace(0.5, 6.0, 12),
                         child_seed(7, "matrix"))
        lam = jacobi_eigen(A).eigenvalues[0]
        assert trace.final_estimates[0, 0] == pytest.approx(lam, abs=1e-12)

    def test_complete_graph_one_round(self):
        trace = run_simulation(small_cfg(topology="complete"))
        assert trace.stop_reason == "converged"
        assert trace.rounds_used == 1
        assert trace.rho <= 1e-12

    def test_reruns_bit_identical(self):
        cfg = small_cfg()
        a, b = run_simulation(cfg), run_simulation(cfg)
        assert np.array_equal(a.final_estimates, b.final_estimates)
        assert [r.consensus_error for r in a.rounds] == [r.consensus_error for r in b.rounds]
        assert a.stop_reason == b.stop_reason and a.rho == b.rho

    def test_round_indices_strictly_increasing(self):
        trace = run_simulation(small_cfg())
        ks = [r.round for r in trace.rounds]
        assert ks == list(range(len(ks)))

    def test_bound_column_monotone(self):
        trace = run_simulation(small_cfg())
        bounds = [r.bound for r in trace.rounds]
        assert all(b <= a for a, b in zip(bounds, bounds[1:]))
        for r in trace.rounds:
            assert r.bound == theoretical_bound(trace.rounds[0].consensus_error,
                                                trace.rho, r.round)

    def test_communication_accounting_failure_free(self):
        for topology, m in (("ring", 4), ("complete", 5), ("path", 6)):
            cfg = small_cfg(topology=topology, agents=m, max_rounds=3, tol=1e-300)
            trace = run_simulation(cfg)
            edges = len(build_graph(topology, m).edges)
            k2 = sum(k * k for k in trace.block_sizes)
            for r in trace.rounds[1:]:
                assert r.scalars_sent == 2 * 1 * edges
                assert r.flops_local == k2
        assert trace.rounds[0].scalars_sent == 0

    def test_communication_accounting_under_failures(self):
        cfg = small_cfg(agents=6, topology="ring", failure_p=0.5, max_rounds=40,
                        tol=1e-300, tracked=2, seed=11)
        trace = run_simulation(cfg)
        # replay the keyed failure stream to recover each round's live edges
        base = build_graph("ring", 6, child_seed(11, "graph"))
        fm = FailureModel(0.5, child_seed(11, "failures"))
        live = [len(apply_failures(base, fm, r.round).edges) for r in trace.rounds[1:]]
        assert [r.scalars_sent for r in trace.rounds[1:]] == [2 * 2 * e for e in live]
        assert len(set(live)) > 1

    def test_deviation_norm_contracts_failure_free(self):
        trace = run_simulation(small_cfg(tol=1e-6))
        d = [r.deviation_norm for r in trace.rounds]
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
        d = [r.deviation_norm for r in trace.rounds]
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
        states = init_states([jacobi_eigen(diagonal_block(A, part, i)).eigenvalues[:1]
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
            assert history == [r.consensus_error for r in trace.rounds]

    def test_tracked_count_limited_by_block_size(self):
        with pytest.raises(ConfigError):
            run_simulation(small_cfg(tracked=5))

    def test_agents_capped_by_rows(self):
        with pytest.raises(ConfigError):
            SimConfig(matrix=MatrixSpec("generate", n=3, spectrum=(1.0, 2.0, 3.0)),
                      agents=4, topology="ring", estimator=ORACLE, mode=MATRIX_FORM)


def constant_trace(value, rounds=20):
    cfg = small_cfg()
    rows = [RoundMetrics(k, 0.0, 0.0, value, value, np.array([1.0]), 0.0, 0, 0)
            for k in range(rounds)]
    return Trace(cfg, np.array([1.0]), 0.5, rows, np.ones((4, 1)), "max_rounds",
                 (3, 3, 3, 3))


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
        assert len(lines) == 1 + len(trace.rounds)
        for line, r in zip(lines[1:], trace.rounds):
            k, e, mx, mn, bound, scal, flops = line.split(",")
            assert int(k) == r.round
            assert float(e) == r.consensus_error
            assert float(mx) == r.max_est_error
            assert float(mn) == r.mean_est_error
            assert float(bound) == r.bound
            assert int(scal) == r.scalars_sent
            assert int(flops) == r.flops_local

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

    @pytest.mark.parametrize("estimator", [{"sigma": 0.1}, {"kind": "mlp", "hidden": 5}])
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
        d = self.yaml_dict()
        d["typo_key"] = 1
        with pytest.raises(ConfigError):
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
