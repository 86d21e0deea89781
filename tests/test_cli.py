import json
import sys

import numpy as np
import pytest
import yaml

from coopeig import cli, matrix_core, simulator
from coopeig.cli import _apply_sweep_value, _sweep_row, main
from coopeig.local_estimator import load_params
from coopeig.matrix_core import (
    DenseSymMatrix,
    JacobiConvergenceError,
    generate_spd,
    jacobi_eigen,
    load_matrix,
    save_matrix,
    sturm_eigen,
)
from coopeig.seeding import child_seed


def base_config(tmp_path, **over):
    cfg = {
        "matrix": {"kind": "generate", "n": 12,
                   "spectrum": [float(v) for v in np.linspace(0.5, 6.0, 12)]},
        "agents": 4,
        "topology": "ring",
        "estimator": {"kind": "oracle"},
        "mode": "matrix_form",
        "tol": 1e-8,
        "max_rounds": 500,
        "seed": 7,
    }
    cfg.update(over)
    path = tmp_path / "config.yaml"
    with open(path, "w") as f:
        yaml.safe_dump(cfg, f)
    return path


def file_config(tmp_path, **over):
    """``base_config`` on a 12x12 matrix read from a file."""
    mpath = tmp_path / "A.txt"
    save_matrix(generate_spd(12, np.linspace(0.5, 6.0, 12), seed=3), mpath)
    return base_config(tmp_path, matrix={"kind": "file", "path": str(mpath)}, **over)


@pytest.fixture
def solves(monkeypatch):
    """The matrices and block stacks that reach sturm_eigen, the one
    solve behind the truth, the SLEM and the block call sites, one
    (shape, bytes) entry per real solve."""
    calls = []

    def counted(A, indices):
        a = A.a if isinstance(A, DenseSymMatrix) else A
        calls.append((a.shape, a.tobytes()))
        return sturm_eigen(A, indices)

    monkeypatch.setattr(matrix_core, "sturm_eigen", counted)
    return calls


class TestGenMatrix:
    def test_identity_spectrum(self, tmp_path, capsys):
        out = tmp_path / "m.txt"
        code = main(["gen-matrix", "--n", "3", "--spectrum", "1:1",
                     "--seed", "0", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "1 1 1"
        assert np.allclose(load_matrix(out).a, np.eye(3), atol=1e-12)

    def test_spectrum_file(self, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text("0.5 1 2 4\n")
        out = tmp_path / "m.txt"
        code = main(["gen-matrix", "--n", "4", "--spectrum", str(spec),
                     "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "0.5 1 2 4"
        ev = jacobi_eigen(load_matrix(out)).eigenvalues
        assert np.allclose(ev, [0.5, 1, 2, 4], atol=1e-10)

    @pytest.mark.parametrize("spectrum", ["nan:5", "1:inf", "2:1", "0:1"])
    def test_bad_spectrum_range_is_usage_error(self, tmp_path, capsys, spectrum):
        code = main(["gen-matrix", "--n", "3", "--spectrum", spectrum,
                     "--out", str(tmp_path / "m.txt")])
        assert code == 2
        assert "bad spectrum range" in capsys.readouterr().err

    def test_wide_spectrum_passes_symmetry_check(self, tmp_path):
        out = tmp_path / "m.txt"
        code = main(["gen-matrix", "--n", "40", "--spectrum", "0.5:1e5",
                     "--seed", "0", "--out", str(out)])
        assert code == 0
        assert load_matrix(out).n == 40

    def test_missing_n_is_usage_error(self, tmp_path, capsys):
        code = main(["gen-matrix", "--spectrum", "1:2",
                     "--out", str(tmp_path / "m.txt")])
        assert code == 2

    def test_wrong_spectrum_file_length(self, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text("1 2\n")
        code = main(["gen-matrix", "--n", "3", "--spectrum", str(spec),
                     "--out", str(tmp_path / "m.txt")])
        assert code == 2


class TestTrain:
    def test_writes_loadable_params(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        code = main(["train", "--k", "2", "--samples", "6", "--epochs", "20",
                     "--hidden", "4", "--out", str(out)])
        assert code == 0
        assert load_params(out).block_dim == 2
        assert "final_loss=" in capsys.readouterr().out

    def test_zero_hidden_size_is_usage_error(self, tmp_path, capsys):
        code = main(["train", "--k", "2", "--samples", "4", "--epochs", "2",
                     "--hidden", "0", "--out", str(tmp_path / "p.json")])
        assert code == 2
        assert "layer sizes must be >= 1" in capsys.readouterr().err

    def test_nan_learning_rate_is_usage_error(self, tmp_path, capsys):
        code = main(["train", "--k", "2", "--samples", "4", "--epochs", "2",
                     "--lr", "nan", "--out", str(tmp_path / "p.json")])
        assert code == 2
        assert "learning_rate must be positive" in capsys.readouterr().err

    def test_zero_block_size_is_usage_error(self, tmp_path, capsys):
        code = main(["train", "--k", "0", "--samples", "4", "--epochs", "2",
                     "--out", str(tmp_path / "p.json")])
        assert code == 2
        assert "need k >= 1" in capsys.readouterr().err

    def test_infinite_spectrum_range_is_usage_error(self, tmp_path, capsys):
        code = main(["train", "--k", "2", "--samples", "4", "--epochs", "2",
                     "--hi", "inf", "--out", str(tmp_path / "p.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "need 0 < lo < hi < inf" in err
        assert "Traceback" not in err
        assert not (tmp_path / "p.json").exists()


class TestSimulate:
    def test_converged_run(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        assert main(["simulate", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("True Smallest Eigenvalue: ")
        assert "Stop reason: converged" in out
        # CSV lands next to the config by default
        assert (tmp_path / "config.csv").exists()

    def test_complete_graph_single_round(self, tmp_path, capsys):
        cfg = base_config(tmp_path, topology="complete")
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert "Rounds used: 1" in capsys.readouterr().out

    def test_max_rounds_exit_code(self, tmp_path, capsys):
        cfg = base_config(tmp_path, topology="ring", failure_p=0.99,
                          max_rounds=5)
        assert main(["simulate", "--config", str(cfg)]) == 3

    def test_divergence_exit_code(self, tmp_path, capsys):
        cfg = base_config(tmp_path, agents=10, topology="ring",
                          mode="paper_literal")
        assert main(["simulate", "--config", str(cfg)]) == 4

    @staticmethod
    def assert_reruns_identical(tmp_path, capsys, cfg):
        a_csv = tmp_path / "a.csv"
        b_csv = tmp_path / "b.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(a_csv)]) == 0
        first = capsys.readouterr().out
        assert main(["simulate", "--config", str(cfg), "--out", str(b_csv)]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert a_csv.read_bytes() == b_csv.read_bytes()

    def test_byte_identical_outputs(self, tmp_path, capsys):
        self.assert_reruns_identical(tmp_path, capsys, base_config(tmp_path))

    def test_byte_identical_outputs_under_failures(self, tmp_path, capsys):
        self.assert_reruns_identical(tmp_path, capsys, base_config(tmp_path, failure_p=0.5))

    def test_missing_config_is_io_error(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.yaml")]) == 5

    def test_out_in_missing_directory_names_it(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert main(["simulate", "--config", str(base_config(tmp_path)),
                     "--out", str(out)]) == 5
        err = capsys.readouterr().err
        assert repr(str(out)) in err and ".tmp" not in err

    def test_bad_config_is_usage_error(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("agents: 4\n")
        assert main(["simulate", "--config", str(path)]) == 2

    def test_malformed_yaml_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("matrix: {kind: generate\n  n: [\n")
        assert main(["simulate", "--config", str(path)]) == 2
        assert "malformed YAML" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["matrix", "estimator"])
    def test_non_mapping_section_is_usage_error(self, tmp_path, capsys, section):
        cfg = base_config(tmp_path, **{section: 5})
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert f"{section} must be a mapping" in capsys.readouterr().err
        assert main(["sweep", "--config", str(cfg), "--param", "p",
                     "--values", "0"]) == 2

    @pytest.mark.parametrize("hidden, message", [
        ([0], "layer sizes must be >= 1"),
        ("32", "hidden must be a list"),  # not read as (3, 2)
    ])
    def test_bad_hidden_is_usage_error(self, tmp_path, capsys, hidden, message):
        cfg = base_config(tmp_path, estimator={"kind": "mlp", "hidden": hidden,
                                               "epochs": 2, "samples": 4})
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err

    # NaN fails every comparison, so a "<= 0" check would let it through
    @pytest.mark.parametrize("over, message", [
        ({"tol": float("nan")}, "tol must be positive"),
        ({"estimator": {"kind": "mlp", "learning_rate": float("nan"), "epochs": 2,
                        "samples": 4}}, "learning_rate must be positive"),
        ({"estimator": {"kind": "noisy_oracle", "sigma": float("nan")}}, "sigma must be >= 0"),
        ({"matrix": {"kind": "generate", "n": 12, "spectrum": "nan:5"}}, "bad spectrum range"),
        ({"matrix": {"kind": "generate", "n": 12, "spectrum": "1:inf"}}, "bad spectrum range"),
    ])
    def test_nan_is_usage_error(self, tmp_path, capsys, over, message):
        cfg = base_config(tmp_path, **over)
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err

    def test_generated_matrix_without_n_is_usage_error(self, tmp_path, capsys):
        cfg = base_config(tmp_path, matrix={"kind": "generate"})
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "missing required matrix key 'n'" in capsys.readouterr().err

    def test_file_matrix_without_path_is_usage_error(self, tmp_path, capsys):
        cfg = base_config(tmp_path, matrix={"kind": "file"})
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "missing required matrix key 'path'" in capsys.readouterr().err

    def test_unknown_matrix_kind_is_usage_error(self, tmp_path, capsys):
        mpath = tmp_path / "A.txt"
        save_matrix(generate_spd(12, np.linspace(0.5, 6.0, 12), seed=1), mpath)
        cfg = base_config(tmp_path, matrix={"kind": "bogus", "path": str(mpath)})
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "unknown matrix kind 'bogus'" in capsys.readouterr().err

    def test_unknown_topology_is_usage_error(self, tmp_path, capsys):
        cfg = base_config(tmp_path, topology="torus")
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "unknown topology 'torus'" in capsys.readouterr().err

    @pytest.mark.parametrize("params, message", [
        ({"layer_sizes": [9, 4, 3]}, "lack key 'weights'"),
        ([1, 2], "must be a mapping"),
        ({"layer_sizes": 5, "weights": [], "biases": [], "input_scale": 1.0},
         "bad value for 'layer_sizes'"),
    ])
    def test_malformed_params_file_is_usage_error(self, tmp_path, capsys, params, message):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params))
        cfg = base_config(tmp_path, estimator={"kind": "mlp", "params_path": str(path)})
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err

    # A params file comes from outside the program: a negative scale
    # flipped every prediction's sign, a zero one divided by zero and a
    # NaN one surfaced as "state values must be finite".
    @pytest.mark.parametrize("scale", [-1.0, 0.0, float("nan")], ids=["negative", "zero", "nan"])
    def test_bad_input_scale_in_params_file_is_usage_error(self, tmp_path, capsys, scale):
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"layer_sizes": [9, 3], "weights": [[[0.0] * 9] * 3],
                                    "biases": [[0.0] * 3], "input_scale": scale}))
        cfg = base_config(tmp_path, estimator={"kind": "mlp", "params_path": str(path)})
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "input_scale must be finite and > 0" in capsys.readouterr().err

    # The network's own checks name the file, as the reader's do.
    @pytest.mark.parametrize("params, message", [
        ({"layer_sizes": [9, 3], "weights": [[[0.0] * 9] * 3], "biases": [[0.0] * 3],
          "input_scale": -1}, "input_scale must be finite and > 0"),
        ({"layer_sizes": [9, 3], "weights": [[[0.0] * 9] * 2], "biases": [[0.0] * 3],
          "input_scale": 1.0}, "layer 0 has incompatible shapes"),
    ], ids=["input-scale", "layer-shape"])
    def test_params_file_value_error_names_the_file(self, tmp_path, capsys, params, message):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params))
        cfg = base_config(tmp_path, estimator={"kind": "mlp", "params_path": str(path)})
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert f"{path}: {message}" in capsys.readouterr().err

    # Finite entries whose squares overflow a solve: at 1e200 the truth
    # came out NaN with exit 0; 1.5e308 overflowed the symmetrizing average.
    @pytest.mark.parametrize("rows", [[[1.0, 1e200], [1e200, 1.0]], [[1.5e308]]],
                             ids=["1e200", "1.5e308"])
    def test_matrix_too_large_to_solve_is_usage_error(self, tmp_path, capsys, rows):
        mpath = tmp_path / "A.txt"
        mpath.write_text(f"{len(rows)}\n" + "".join(" ".join(map(repr, r)) + "\n" for r in rows))
        cfg = base_config(tmp_path, agents=len(rows), topology="complete",
                          matrix={"kind": "file", "path": str(mpath)})
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "sqrt(max float) / n" in capsys.readouterr().err

    @pytest.mark.parametrize("header", ["-2", "2.5"], ids=["negative", "fractional"])
    def test_bad_matrix_size_header_is_usage_error(self, tmp_path, capsys, header):
        mpath = tmp_path / "A.txt"
        mpath.write_text(f"{header}\n1 0\n0 1\n")
        cfg = base_config(tmp_path, agents=2, matrix={"kind": "file", "path": str(mpath)})
        assert main(["simulate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"{mpath}: size header must be a whole number >= 1, got {header!r}" in err
        assert "Traceback" not in err

    def test_report_on_incomplete_snapshot_is_usage_error(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        snap = tmp_path / "snap.json"
        assert main(["simulate", "--config", str(cfg), "--snapshot", str(snap)]) == 0
        data = simulator.load_snapshot(snap)
        del data["truth"]
        snap.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["report", "--snapshot", str(snap)]) == 2
        assert "truth" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("truth", [], "truth must be a non-empty list"),
        ("truth", 5, "truth must be a non-empty list"),
        ("final_estimates", [1.0, 2.0], "final_estimates must be"),
        ("rounds_used", [3], "bad value for 'rounds_used'"),
        ("rounds_used", 1.5, "bad value for 'rounds_used'"),
        ("rounds_used", -1, "bad value for 'rounds_used'"),
        ("stop_reason", ["x"], "bad value for 'stop_reason'"),
        ("stop_reason", "stalled", "bad value for 'stop_reason'"),
    ])
    def test_report_on_malformed_snapshot_is_usage_error(self, tmp_path, capsys,
                                                         key, value, message):
        snap = tmp_path / "snap.json"
        assert main(["simulate", "--config", str(base_config(tmp_path)),
                     "--snapshot", str(snap)]) == 0
        data = simulator.load_snapshot(snap)
        data[key] = value
        snap.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["report", "--snapshot", str(snap)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("over, key", [
        ({"agents": [1]}, "agents"),
        ({"agents": "four"}, "agents"),
        ({"seed": "x"}, "seed"),
        ({"gamma": [1]}, "gamma"),
        ({"matrix": {"kind": "generate", "n": [4], "spectrum": [1.0, 2.0, 3.0, 4.0]}},
         "matrix.n"),
        ({"matrix": {"kind": "generate", "n": 4, "spectrum": 5}}, "matrix.spectrum"),
        ({"estimator": {"kind": "mlp", "spectrum_range": [1, 2, 3]}},
         "estimator.spectrum_range"),
        ({"estimator": {"kind": "mlp", "spectrum_range": "15"}}, "estimator.spectrum_range"),
        # whole-number keys refuse a bool and a non-integral float
        ({"agents": 4.9}, "agents"),
        ({"agents": True}, "agents"),
        ({"max_rounds": 2.7}, "max_rounds"),
        ({"max_rounds": True}, "max_rounds"),
        ({"seed": 1.5}, "seed"),
        ({"seed": True}, "seed"),
        ({"tracked": 1.5}, "tracked"),
        ({"tracked": True}, "tracked"),
        ({"matrix": {"kind": "generate", "n": 12.5, "spectrum": "0.5:6.0"}}, "matrix.n"),
        ({"matrix": {"kind": "generate", "n": True, "spectrum": "0.5:6.0"}}, "matrix.n"),
        ({"estimator": {"kind": "mlp", "epochs": 3.5}}, "estimator.epochs"),
        ({"estimator": {"kind": "mlp", "epochs": True}}, "estimator.epochs"),
        ({"estimator": {"kind": "mlp", "samples": 8.5}}, "estimator.samples"),
        ({"estimator": {"kind": "mlp", "samples": False}}, "estimator.samples"),
        ({"estimator": {"kind": "mlp", "hidden": [8, 4.5]}}, "estimator.hidden"),
        ({"estimator": {"kind": "mlp", "hidden": [True]}}, "estimator.hidden"),
    ])
    def test_wrong_type_is_usage_error(self, tmp_path, capsys, over, key):
        cfg = base_config(tmp_path, **over)
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert f"bad value for {key!r}" in capsys.readouterr().err

    def test_snapshot_report_round_trip(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        snap = tmp_path / "snap.json"
        assert main(["simulate", "--config", str(cfg),
                     "--snapshot", str(snap)]) == 0
        simulate_out = capsys.readouterr().out
        assert main(["report", "--snapshot", str(snap)]) == 0
        assert capsys.readouterr().out == simulate_out


class TestSweep:
    def test_degenerate_sweep_matches_simulate(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        out = tmp_path / "agg.csv"
        code = main(["sweep", "--config", str(cfg), "--param", "p",
                     "--values", "0", "--trials", "1", "--out", str(out)])
        assert code == 0
        header, row = out.read_text().splitlines()
        assert header.startswith("param,value,trials,mean_rounds")
        fields = row.split(",")
        assert fields[0] == "p" and fields[2] == "1"

    def test_failures_slow_convergence(self, tmp_path):
        cfg = base_config(tmp_path, tol=1e-6)
        out = tmp_path / "agg.csv"
        code = main(["sweep", "--config", str(cfg), "--param", "p",
                     "--values", "0,0.3", "--trials", "10", "--out", str(out)])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        mean_rounds = {float(r[1]): float(r[3]) for r in rows}
        assert mean_rounds[0.3] >= mean_rounds[0.0]

    def test_sigma_sweep_raises_noise_floor(self, tmp_path):
        # identical diagonal blocks: each block's smallest eigenvalue equals
        # the global one, so the fitted floor reflects estimator noise alone
        from coopeig.matrix_core import DenseSymMatrix

        block = generate_spd(3, [0.5, 2.0, 4.0], seed=1).a
        A = np.zeros((12, 12))
        for i in range(4):
            A[3 * i:3 * i + 3, 3 * i:3 * i + 3] = block
        mpath = tmp_path / "blockdiag.txt"
        save_matrix(DenseSymMatrix(A), mpath)
        cfg = base_config(tmp_path, matrix={"kind": "file", "path": str(mpath)},
                          estimator={"kind": "noisy_oracle"},
                          tol=1e-12, max_rounds=200)
        out = tmp_path / "agg.csv"
        code = main(["sweep", "--config", str(cfg), "--param", "sigma",
                     "--values", "0.005,0.05", "--trials", "10",
                     "--out", str(out)])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        gamma = {float(r[1]): float(r[9]) for r in rows}
        assert gamma[0.05] > gamma[0.005]

    def test_rerun_identical_output(self, tmp_path):
        cfg = base_config(tmp_path)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["sweep", "--config", str(cfg), "--param", "p",
                "--values", "0,0.2", "--trials", "4"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_value_rejected_before_any_trial(self, tmp_path, capsys, monkeypatch):
        runs = []
        monkeypatch.setattr(cli, "run_simulation",
                            lambda cfg: runs.append(cfg) or simulator.run_simulation(cfg))
        assert main(["sweep", "--config", str(base_config(tmp_path)), "--param", "p",
                     "--values", "0,1.0", "--trials", "3"]) == 2
        assert "failure probability must be in [0, 1)" in capsys.readouterr().err
        assert runs == []

    def test_unknown_param_rejected(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        assert main(["sweep", "--config", str(cfg), "--param", "tau",
                     "--values", "0"]) == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_trials_is_usage_error(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        assert main(["sweep", "--config", str(cfg), "--param", "p",
                     "--values", "0", "--trials", "0"]) == 2
        assert "--trials must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("param, values, reader", [
        ("gamma", "2", "mode: damped"),
        ("gamma", "0.3,0.7", "mode: damped"),
        ("sigma", "0.1,0.2", "estimator: noisy_oracle"),
    ])
    def test_unread_param_is_usage_error(self, tmp_path, capsys, solves,
                                         param, values, reader):
        cfg = base_config(tmp_path)  # matrix_form mode, oracle estimator
        assert main(["sweep", "--config", str(cfg), "--param", param,
                     "--values", values]) == 2
        assert f"--param {param} is read only by {reader}" in capsys.readouterr().err
        assert solves == []  # rejected before the first trial


SWEEP = ["sweep", "--param", "p", "--values", "0,0.3", "--trials", "3", "--config"]


class TestSweepReusesSpectra:
    M = 4  # agents in base_config; its 12 rows give M blocks of 3 x 3, one stack

    def test_each_distinct_matrix_solved_once(self, tmp_path, capsys, solves):
        assert main(SWEEP + [str(file_config(tmp_path))]) == 0
        # the truth, the stack of the M diagonal blocks and the ring's W0,
        # once each (each of the 2 x 3 trials solved all of them before)
        assert [shape for shape, _ in solves] == [(12, 12), (self.M, 3, 3), (self.M, self.M)]
        assert len(set(solves)) == len(solves)

    def test_generated_matrices_each_solved(self, tmp_path, capsys, solves):
        # every trial seed draws a new matrix, so a new truth and block
        # stack; the ring's W0 is shared
        assert main(SWEEP + [str(base_config(tmp_path))]) == 0
        assert len(solves) == 2 * 3 * (1 + 1) + 1
        assert len(set(solves)) == len(solves)

    @pytest.mark.parametrize("matrix", ["file", "generate"])
    @pytest.mark.parametrize("param, values, over", [
        ("p", "0,0.3", {}),
        ("sigma", "0.01,0.1", {"estimator": {"kind": "noisy_oracle"}}),
        ("gamma", "0.3,0.7", {"mode": "damped"}),
    ])
    def test_rows_bit_equal_to_standalone_runs(self, tmp_path, matrix, param, values, over):
        make = file_config if matrix == "file" else base_config
        cfg = make(tmp_path, failure_p=0.2, **over)
        out = tmp_path / "agg.csv"
        assert main(["sweep", "--config", str(cfg), "--param", param, "--values", values,
                     "--trials", "3", "--out", str(out)]) == 0
        base = simulator.load_config(cfg)
        rows = []
        for vi, value in enumerate(float(v) for v in values.split(",")):
            group = [simulator.run_simulation(_apply_sweep_value(
                base, param, value, child_seed(base.seed, "sweep", vi, trial)))
                for trial in range(3)]
            rows.append(_sweep_row(param, value, group))
        assert out.read_text().splitlines()[1:] == rows

    def test_nothing_outlives_a_command(self, tmp_path, capsys, solves):
        cfg = file_config(tmp_path)
        per_run = 1 + 1 + 1  # the truth, the block stack, W0
        assert main(SWEEP + [str(cfg)]) == 0
        assert main(SWEEP + [str(cfg)]) == 0
        assert len(solves) == 2 * per_run
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 0
        assert len(solves) == 3 * per_run

    def test_nothing_outlives_a_failed_sweep(self, tmp_path, capsys, monkeypatch, solves):
        cfg = file_config(tmp_path)
        counted = matrix_core.sturm_eigen

        def stuck(A, indices):
            # W0; the matrix is 12x12 and its blocks a (4, 3, 3) stack
            if isinstance(A, DenseSymMatrix) and A.n == self.M:
                raise ValueError("solve failed")
            return counted(A, indices)

        # the truth and the block stack are solved, then the SLEM solve fails
        monkeypatch.setattr(matrix_core, "sturm_eigen", stuck)
        assert main(SWEEP + [str(cfg)]) == 2
        assert "solve failed" in capsys.readouterr().err
        assert len(solves) == 1 + 1
        monkeypatch.setattr(matrix_core, "sturm_eigen", counted)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 0
        assert len(solves) == 2 * (1 + 1) + 1


class TestLibraryErrorExitCodes:
    def test_graph_construction_error_is_usage_error(self, tmp_path, capsys):
        cfg = base_config(tmp_path, agents=6, topology="er:1e-4")
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "no connected er:0.0001 graph" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_training_divergence_exit_code(self, tmp_path, capsys):
        # the default MLP learning rate diverges on these blocks
        cfg = base_config(tmp_path, agents=10, estimator={"kind": "mlp"},
                          matrix={"kind": "generate", "n": 40, "spectrum": "0.5:5.0"})
        assert main(["simulate", "--config", str(cfg)]) == 4
        err = capsys.readouterr().err
        assert "non-finite loss" in err
        assert "RuntimeWarning" not in err

    def test_infinite_training_range_is_usage_error(self, tmp_path, capsys):
        cfg = base_config(tmp_path, estimator={"kind": "mlp",
                                               "spectrum_range": [0.5, float("inf")]})
        assert main(["simulate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "need 0 < lo < hi < inf" in err
        assert "Traceback" not in err

    def test_jacobi_convergence_error_exit_code(self, tmp_path, capsys, monkeypatch):
        # No run path reaches Jacobi, so a Jacobi that cannot converge
        # leaves every command at exit 0, and exit 4 is never Jacobi's.
        def stuck(*args, **kwargs):
            raise JacobiConvergenceError(1.0, 100)

        modules = [m for name, m in sys.modules.items() if name.startswith("coopeig")]
        for module in modules:
            if getattr(module, "jacobi_eigen", None) is jacobi_eigen:
                monkeypatch.setattr(module, "jacobi_eigen", stuck)
        assert matrix_core.jacobi_eigen is stuck
        for estimator, param, values in [({"kind": "oracle"}, "p", "0,0.3"),
                                         ({"kind": "noisy_oracle", "sigma": 0.1},
                                          "sigma", "0.05,0.1")]:
            cfg = str(base_config(tmp_path, estimator=estimator))
            assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == 0
            assert main(["sweep", "--config", cfg, "--param", param, "--values", values,
                         "--trials", "2"]) == 0
        assert "Traceback" not in capsys.readouterr().err


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
