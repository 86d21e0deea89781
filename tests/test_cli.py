import json

import numpy as np
import pytest
import yaml

from coopeig import simulator
from coopeig.cli import main
from coopeig.comm_graph import load_graph
from coopeig.local_estimator import load_params
from coopeig.matrix_core import JacobiConvergenceError, jacobi_eigen, load_matrix


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


class TestGenGraph:
    def test_ring(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        assert main(["gen-graph", "--topology", "ring", "--m", "5",
                     "--out", str(out)]) == 0
        assert "connected=True" in capsys.readouterr().out
        assert len(load_graph(out).edges) == 5

    def test_er_file_bytes_pinned(self, tmp_path, capsys):
        # Pinned bytes: the ER stream and the sorted '<i> <l>' lines.
        out = tmp_path / "g.txt"
        assert main(["gen-graph", "--topology", "er:0.3", "--m", "20",
                     "--seed", "5", "--out", str(out)]) == 0
        assert out.read_bytes() == (
            b"20\n"
            b"0 2\n0 3\n0 7\n0 10\n0 12\n0 15\n0 18\n0 19\n1 4\n1 6\n"
            b"1 18\n2 7\n2 9\n2 12\n2 14\n2 17\n3 9\n3 11\n3 12\n3 18\n"
            b"4 9\n4 11\n4 12\n4 13\n4 14\n4 17\n4 18\n5 8\n5 10\n5 11\n"
            b"5 14\n5 15\n5 17\n6 7\n6 8\n6 17\n7 11\n7 15\n7 16\n7 19\n"
            b"8 16\n10 14\n10 15\n10 18\n11 14\n11 15\n12 15\n12 16\n12 18\n13 14\n"
            b"13 19\n16 19\n17 19\n"
        )
        assert capsys.readouterr().out == "er:0.3 m=20 edges=53 connected=True\n"

    def test_unknown_topology(self, tmp_path):
        assert main(["gen-graph", "--topology", "torus", "--m", "5",
                     "--out", str(tmp_path / "g.txt")]) == 2


class TestTrain:
    def test_writes_loadable_params(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        code = main(["train", "--k", "2", "--samples", "6", "--epochs", "20",
                     "--hidden", "4", "--out", str(out)])
        assert code == 0
        assert load_params(out).block_dim == 2
        assert "final_loss=" in capsys.readouterr().out


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

    def test_byte_identical_outputs(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        a_csv = tmp_path / "a.csv"
        b_csv = tmp_path / "b.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(a_csv)]) == 0
        first = capsys.readouterr().out
        assert main(["simulate", "--config", str(cfg), "--out", str(b_csv)]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert a_csv.read_bytes() == b_csv.read_bytes()

    def test_missing_config_is_io_error(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.yaml")]) == 5

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
        from coopeig.matrix_core import DenseSymMatrix, generate_spd, save_matrix

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

    def test_unknown_param_rejected(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        assert main(["sweep", "--config", str(cfg), "--param", "tau",
                     "--values", "0"]) == 2


class TestLibraryErrorExitCodes:
    def test_graph_construction_error_is_usage_error(self, tmp_path, capsys):
        code = main(["gen-graph", "--topology", "er:1e-4", "--m", "6",
                     "--out", str(tmp_path / "g.txt")])
        assert code == 2
        assert "no connected er:0.0001 graph" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_training_divergence_exit_code(self, tmp_path, capsys):
        # the default MLP learning rate diverges on these blocks
        cfg = base_config(tmp_path, agents=10, estimator={"kind": "mlp"},
                          matrix={"kind": "generate", "n": 40, "spectrum": "0.5:5.0"})
        assert main(["simulate", "--config", str(cfg)]) == 4
        assert "non-finite loss" in capsys.readouterr().err

    def test_jacobi_convergence_error_exit_code(self, tmp_path, capsys, monkeypatch):
        def stuck(A, *args, **kwargs):
            raise JacobiConvergenceError(1.0, 100)

        monkeypatch.setattr(simulator, "jacobi_eigen", stuck)
        assert main(["simulate", "--config", str(base_config(tmp_path))]) == 4
        assert "Jacobi did not converge" in capsys.readouterr().err


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
