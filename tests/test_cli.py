import json
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import yaml

from coopeig import cli, matrix_core, simulator
from coopeig.cli import _apply_sweep_value, _sweep_row, main
from coopeig.local_estimator import init_mlp, load_params, save_params
from coopeig.matrix_core import (
    DenseSymMatrix,
    JacobiConvergenceError,
    generate_spd,
    jacobi_eigen,
    load_matrix,
    partition_rows,
    save_matrix,
)
from coopeig.seeding import child_seed

SRC = Path(__file__).resolve().parents[1] / "src"


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
    """The shape of each matrix or block stack that reaches
    ``np.linalg.eigvalsh``, the one solve behind the truth, the SLEM and
    the block call sites."""
    calls, solve = [], np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
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

    # "nan" and "inf" pass a "<= 0" check; inf then warned in the
    # matrix build before "matrix entries must be finite".
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_spectrum_file_is_usage_error(self, tmp_path, capsys, value):
        spec = tmp_path / "spec.txt"
        spec.write_text(f"1 2 {value}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["gen-matrix", "--n", "3", "--spectrum", str(spec),
                         "--out", str(tmp_path / "m.txt")])
        assert code == 2
        assert "spectrum entries must all be finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "m.txt").exists()

    @pytest.mark.parametrize("n", ["-2", "0"])
    def test_n_below_one_is_usage_error(self, tmp_path, capsys, n):
        code = main(["gen-matrix", "--n", n, "--spectrum", "1:2",
                     "--out", str(tmp_path / "m.txt")])
        assert code == 2
        assert capsys.readouterr().err == f"error: --n must be >= 1, got {n}\n"

    @pytest.mark.parametrize("spectrum", ["1:2:3", "nosuchfile", "1:x"])
    def test_spectrum_neither_file_nor_range_is_usage_error(self, tmp_path, capsys,
                                                            monkeypatch, spectrum):
        monkeypatch.chdir(tmp_path)
        code = main(["gen-matrix", "--n", "3", "--spectrum", spectrum, "--out", "m.txt"])
        assert code == 2
        assert capsys.readouterr().err == (f"error: --spectrum {spectrum!r} is neither an "
                                           "existing file nor a 'lo:hi' range\n")

    def test_spectrum_file_with_non_number_names_file(self, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text("1 abc 3\n")
        code = main(["gen-matrix", "--n", "3", "--spectrum", str(spec),
                     "--out", str(tmp_path / "m.txt")])
        assert code == 2
        assert capsys.readouterr().err == (f"error: spectrum file {spec}: could not convert "
                                           "string to float: 'abc'\n")


class TestTrain:
    def test_writes_loadable_params(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        code = main(["train", "--k", "2", "--samples", "6", "--epochs", "20",
                     "--hidden", "4", "--out", str(out)])
        assert code == 0
        assert load_params(out).block_dim == 2
        assert "final_loss=" in capsys.readouterr().out

    def test_train_twice_same_bytes_then_simulate_from_file(self, tmp_path, capsys):
        # k = 4 at lr 0.01 with every other training default, trained
        # twice, then simulated from its file
        params = [tmp_path / "params.json", tmp_path / "params_b.json"]
        for out in params:
            assert main(["train", "--k", "4", "--lr", "0.01", "--out", str(out)]) == 0
        assert params[0].read_bytes() == params[1].read_bytes()
        matrix = tmp_path / "A_mlp.txt"
        assert main(["gen-matrix", "--n", "40", "--spectrum", "0.5:5.0", "--seed", "0",
                     "--out", str(matrix)]) == 0
        cfg = tmp_path / "mlp.yaml"
        cfg.write_text(f"matrix: {{kind: file, path: {matrix}}}\n"
                       "agents: 10\ntopology: ring\n"
                       f"estimator: {{kind: mlp, params_path: {params[0]}}}\n"
                       "mode: matrix_form\ntol: 1.0e-8\nmax_rounds: 500\nseed: 0\n")
        snap = tmp_path / "mlp_snapshot.json"
        capsys.readouterr()
        assert main(["simulate", "--config", str(cfg), "--snapshot", str(snap)]) == 0
        simulate_out = capsys.readouterr().out
        assert "Stop reason: converged" in simulate_out
        assert main(["report", "--snapshot", str(snap)]) == 0
        assert capsys.readouterr().out == simulate_out

    def test_empty_hidden_trains_no_hidden_layer(self, tmp_path, capsys):
        code = main(["train", "--k", "2", "--samples", "4", "--epochs", "2",
                     "--hidden", "", "--out", str(tmp_path / "p.json")])
        assert code == 0
        assert "hidden=()" in capsys.readouterr().out

    def test_zero_hidden_size_is_usage_error(self, tmp_path, capsys):
        code = main(["train", "--k", "2", "--samples", "4", "--epochs", "2",
                     "--hidden", "0", "--out", str(tmp_path / "p.json")])
        assert code == 2
        assert "layer sizes must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("hidden", ["4,x", "4,1.5", ",", "4,,5", "4,"])
    def test_non_integer_hidden_size_names_the_flag(self, tmp_path, capsys, hidden):
        code = main(["train", "--k", "2", "--samples", "4", "--epochs", "2",
                     "--hidden", hidden, "--out", str(tmp_path / "p.json")])
        assert code == 2
        assert capsys.readouterr().err == (f"error: --hidden {hidden!r} is not "
                                           "comma-separated whole numbers\n")
        assert not (tmp_path / "p.json").exists()

    def test_nan_learning_rate_is_usage_error(self, tmp_path, capsys):
        code = main(["train", "--k", "2", "--samples", "4", "--epochs", "2",
                     "--lr", "nan", "--out", str(tmp_path / "p.json")])
        assert code == 2
        assert "learning_rate must be positive" in capsys.readouterr().err

    def test_infinite_learning_rate_is_usage_error(self, tmp_path, capsys):
        code = main(["train", "--k", "2", "--samples", "4", "--epochs", "2",
                     "--lr", "inf", "--out", str(tmp_path / "p.json")])
        assert code == 2
        assert "learning_rate must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "p.json").exists()

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

    @pytest.mark.parametrize("text", ["", "# nothing\n", "- 1\n- 2\n", "4\n"],
                             ids=["empty", "comment", "list", "scalar"])
    def test_config_not_a_mapping_names_file(self, tmp_path, capsys, text):
        path = tmp_path / "flat.yaml"
        path.write_text(text)
        assert main(["simulate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: config must be a mapping\n"

    @pytest.mark.parametrize("section", ["matrix", "estimator"])
    def test_non_mapping_section_is_usage_error(self, tmp_path, capsys, section):
        cfg = base_config(tmp_path, **{section: 5})
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert f"{section} must be a mapping" in capsys.readouterr().err
        assert main(["sweep", "--config", str(cfg), "--param", "p",
                     "--values", "0"]) == 2

    # checked whichever kind reads the sizes: the oracle never does
    @pytest.mark.parametrize("hidden, message", [
        ([0], "layer sizes must be >= 1"),
        ("32", "hidden must be a list"),  # not read as (3, 2)
        ([8, -1], "layer sizes must be >= 1"),
    ])
    def test_bad_hidden_is_usage_error(self, tmp_path, capsys, hidden, message):
        for kind in ("mlp", "oracle"):
            cfg = base_config(tmp_path, estimator={"kind": kind, "hidden": hidden,
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
        # an explicit inf warned in the matrix build, a traceback under
        # -W error::RuntimeWarning
        *(({"matrix": {"kind": "generate", "n": 4, "spectrum": [1.0, 2.0, 3.0, v]},
            "agents": 2}, "spectrum entries must all be finite and positive")
          for v in (float("inf"), float("nan"))),
        # inf passes a "> 0" check too
        ({"tol": float("inf")}, "tol must be positive and finite"),
        ({"estimator": {"kind": "mlp", "learning_rate": float("inf"), "epochs": 2,
                        "samples": 4}}, "learning_rate must be positive and finite"),
        ({"estimator": {"kind": "noisy_oracle", "sigma": float("inf")}},
         "sigma must be >= 0 and finite"),
        # values no part of the run reads are checked too
        ({"gamma": float("nan")}, "damping factor must lie strictly in (0, 1)"),
        ({"estimator": {"kind": "oracle", "learning_rate": float("nan")}},
         "learning_rate must be positive and finite"),
        ({"estimator": {"kind": "oracle", "epochs": 0}}, "epochs must be >= 1"),
        ({"estimator": {"kind": "oracle", "samples": -3}}, "samples must be >= 1"),
        ({"estimator": {"kind": "oracle", "spectrum_range": [5.0, 1.0]}},
         "need 0 < lo < hi < inf"),
        ({"estimator": {"kind": "noisy_oracle", "sigma": 0.1,
                        "spectrum_range": [float("nan"), 5.0]}}, "need 0 < lo < hi < inf"),
        *(({"parallel": v}, f"bad value for 'parallel': need true or false, got {v!r}")
          for v in (float("nan"), 2, "yes")),
    ])
    def test_nan_is_usage_error(self, tmp_path, capsys, over, message):
        cfg = base_config(tmp_path, **over)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
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

    @pytest.mark.parametrize("topology", ["er:abc", "er:"])
    def test_er_without_number_is_usage_error(self, tmp_path, capsys, topology):
        cfg = base_config(tmp_path, topology=topology)
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert (f"bad topology {topology!r}: need er:<p_edge>, p_edge a number"
                in capsys.readouterr().err)

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

    def test_params_file_not_square_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"layer_sizes": [5, 2], "weights": [[[0.0] * 5] * 2],
                                    "biases": [[0.0] * 2], "input_scale": 1.0}))
        cfg = base_config(tmp_path, estimator={"kind": "mlp", "params_path": str(path)})
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (f"error: {path}: input layer is not a flattened "
                                           "square block\n")

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

    # n = 42 over 10 agents gives 5x5 blocks, then 4x4: a network for
    # either size fails on the other run.
    @pytest.mark.parametrize("k, other", [(4, 5), (5, 4)])
    def test_pretrained_block_size_mismatch_is_usage_error(self, tmp_path, capsys, k, other):
        path = tmp_path / "params.json"
        save_params(init_mlp(k, hidden=(3,), seed=0), path)
        cfg = base_config(tmp_path, matrix={"kind": "generate", "n": 42, "spectrum": "0.5:5.0"},
                          agents=10, estimator={"kind": "mlp", "params_path": str(path)})
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert (f"pretrained network expects {k}x{k} blocks, agent block is {other}x{other}"
                in capsys.readouterr().err)

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
        # text keys refuse a number or a list rather than read its str()
        ({"matrix": {"kind": 5, "n": 12, "spectrum": "0.5:6.0"}}, "matrix.kind"),
        ({"matrix": {"kind": "file", "path": 5}}, "matrix.path"),
        ({"topology": ["ring"]}, "topology"),
        ({"mode": ["matrix_form"]}, "mode"),
        ({"estimator": {"kind": ["oracle"]}}, "estimator.kind"),
        ({"estimator": {"kind": "mlp", "params_path": 7}}, "estimator.params_path"),
    ])
    def test_wrong_type_is_usage_error(self, tmp_path, capsys, over, key):
        cfg = base_config(tmp_path, **over)
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert f"bad value for {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("spectrum", ["1:2:3", "abc", "1:x"])
    def test_spectrum_string_not_a_range_is_usage_error(self, tmp_path, capsys, spectrum):
        cfg = base_config(tmp_path, matrix={"kind": "generate", "n": 12, "spectrum": spectrum})
        assert main(["simulate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"bad value for 'matrix.spectrum': {spectrum!r} is not a 'lo:hi' range" in err
        assert "Traceback" not in err

    # n = 256 over 2 agents: a 256 x 256 truth and two 128 x 128 blocks,
    # sizes at which LAPACK reduces in blocked panels
    @pytest.mark.parametrize("estimator", [{"kind": "oracle"},
                                           {"kind": "noisy_oracle", "sigma": 0.1}],
                             ids=["oracle", "noisy-oracle"])
    def test_rerun_in_a_fresh_interpreter_same_bytes(self, tmp_path, estimator):
        cfg = base_config(tmp_path, agents=2, estimator=estimator,
                          matrix={"kind": "generate", "n": 256, "spectrum": "0.5:5.0"})
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        outputs = []
        for side in "ab":
            out = tmp_path / f"{side}.csv"
            result = subprocess.run([sys.executable, "-m", "coopeig.cli", "simulate",
                                     "--config", str(cfg), "--out", str(out)],
                                    env=env, capture_output=True, text=True)
            assert result.returncode == 0, result.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

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

    def test_readme_quick_start_sweep_same_bytes(self, tmp_path):
        # The README quick start's matrix and config, swept twice
        matrix = tmp_path / "A.txt"
        assert main(["gen-matrix", "--n", "40", "--spectrum", "0.5:5.0", "--seed", "0",
                     "--out", str(matrix)]) == 0
        cfg = base_config(tmp_path, matrix={"kind": "file", "path": str(matrix)},
                          agents=10, seed=0)
        outs = [tmp_path / "sweep_a.csv", tmp_path / "sweep_b.csv"]
        for out in outs:
            assert main(["sweep", "--config", str(cfg), "--param", "p",
                         "--values", "0,0.3,0.5", "--trials", "2", "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_bad_value_rejected_before_any_trial(self, tmp_path, capsys, monkeypatch):
        runs = []
        monkeypatch.setattr(cli, "run_simulation",
                            lambda cfg: runs.append(cfg) or simulator.run_simulation(cfg))
        monkeypatch.setattr(cli, "run_many",
                            lambda cfgs: simulator.run_many(runs.append(c) or c for c in cfgs))
        cfg = str(base_config(tmp_path))
        for values, message in [
            ("0,1.0", "failure probability must be in [0, 1)"),
            ("", "no sweep values given"),
            *((v, f"--values {v!r} is not comma-separated numbers")
              for v in ["x", "0,,0.3", "0,0.3,", ","]),
        ]:
            assert main(["sweep", "--config", cfg, "--param", "p",
                         "--values", values, "--trials", "3"]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
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


class TestSweepReusesSpectra:
    """A sweep builds a run stage again only when a config field that
    the stage reads differs from the previous trial's, and each row is
    still bit-equal to the standalone runs of its trials."""

    @pytest.mark.parametrize("matrix", ["file", "generate"])
    @pytest.mark.parametrize("param, values, over", [
        ("p", "0,0.3", {}),
        ("sigma", "0.01,0.1", {"estimator": {"kind": "noisy_oracle"}}),
        ("gamma", "0.3,0.7", {"mode": "damped"}),
        ("p", "0,0.3", {"topology": "er:0.6"}),
        ("p", "0,0.3", {"estimator": {"kind": "mlp", "learning_rate": 0.01, "epochs": 5,
                                      "samples": 4, "hidden": [8]}}),
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

    def test_pretrained_rows_bit_equal_to_standalone_runs(self, tmp_path):
        # a pretrained network reads no seed, so its anchors are built once
        params = tmp_path / "params.json"
        save_params(init_mlp(3, hidden=(8,), seed=1), params)
        cfg = file_config(tmp_path, failure_p=0.2,
                          estimator={"kind": "mlp", "params_path": str(params)})
        out = tmp_path / "agg.csv"
        assert main(["sweep", "--config", str(cfg), "--param", "p", "--values", "0,0.3",
                     "--trials", "3", "--out", str(out)]) == 0
        base = simulator.load_config(cfg)
        rows = [_sweep_row("p", value, [simulator.run_simulation(_apply_sweep_value(
                    base, "p", value, child_seed(base.seed, "sweep", vi, trial)))
                    for trial in range(3)]) for vi, value in enumerate((0.0, 0.3))]
        assert out.read_text().splitlines()[1:] == rows

    @pytest.mark.parametrize("make, topology, per_sweep, per_trial", [
        (file_config, "ring", [(12, 12), (2, 3, 3), (3, 2, 2), (5, 5)], []),
        (file_config, "er:0.6", [(12, 12), (2, 3, 3), (3, 2, 2)], [(5, 5)]),
        (base_config, "ring", [(5, 5)], [(12, 12), (2, 3, 3), (3, 2, 2)]),
    ])
    def test_stage_solved_once_unless_a_trial_changes_its_fields(
            self, tmp_path, monkeypatch, solves, make, topology, per_sweep, per_trial):
        # 12 rows over 5 agents: blocks 3, 3, 2, 2, 2, so two block-size runs.
        # The trial seed changes a generated matrix and an er: graph.
        reads, load = [], simulator.load_matrix
        monkeypatch.setattr(simulator, "load_matrix", lambda path: reads.append(path) or load(path))
        cfg = make(tmp_path, agents=5, topology=topology)
        assert main(["sweep", "--config", str(cfg), "--param", "p", "--values", "0,0.3",
                     "--trials", "3", "--out", str(tmp_path / "agg.csv")]) == 0
        assert Counter(solves) == Counter(per_sweep + per_trial * 6)
        assert len(reads) == (1 if make is file_config else 0)


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

    # Each size's first allocation asks for petabytes, above 2**48 bytes,
    # so it fails at once whatever the overcommit setting and nothing is
    # really allocated: a 7.1 PiB spectrum, or 23 PiB of training spectra.
    @pytest.mark.parametrize("argv", [
        lambda tmp_path: ["gen-matrix", "--n", str(10**15), "--spectrum", "0.5:5",
                          "--out", str(tmp_path / "m.txt")],
        lambda tmp_path: ["simulate", "--config", str(base_config(tmp_path, matrix={
            "kind": "generate", "n": 10**15, "spectrum": "0.5:5"}))],
        lambda tmp_path: ["train", "--k", str(10**14), "--out", str(tmp_path / "p.json")],
    ], ids=["gen-matrix", "simulate", "train"])
    def test_impossible_size_is_usage_error(self, tmp_path, capsys, argv):
        assert main(argv(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1
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


# Each reader of a file the user names, on bytes that are not UTF-8, are
# no JSON at all or are JSON that is no snapshot: (file name, bytes,
# arguments given the file)
UNREADABLE = {
    "matrix-not-utf8": ("A.txt", b"2\n1 0\n0 \xff\n", lambda tmp_path, path: [
        "simulate", "--config", str(base_config(tmp_path, agents=2, matrix={
            "kind": "file", "path": str(path)}))]),
    "params-not-utf8": ("params.json", b'{"layer_sizes": "\xff"}', lambda tmp_path, path: [
        "simulate", "--config", str(base_config(tmp_path, estimator={
            "kind": "mlp", "params_path": str(path)}))]),
    "snapshot-not-utf8": ("snap.json", b'{"truth": \xff}',
                          lambda tmp_path, path: ["report", "--snapshot", str(path)]),
    "snapshot-empty": ("snap.json", b"",
                       lambda tmp_path, path: ["report", "--snapshot", str(path)]),
    "snapshot-missing-keys": ("snap.json", b'{"truth": [1]}',
                              lambda tmp_path, path: ["report", "--snapshot", str(path)]),
    "snapshot-malformed-value": ("snap.json", json.dumps({
        "truth": [1], "final_estimates": [[1.0]], "stop_reason": "stalled", "rounds_used": 3,
        "final_consensus_error": 0.0}).encode(),
        lambda tmp_path, path: ["report", "--snapshot", str(path)]),
    "spectrum-not-utf8": ("spec.txt", b"1 2 \xff\n", lambda tmp_path, path: [
        "gen-matrix", "--n", "3", "--spectrum", str(path),
        "--out", str(tmp_path / "m.txt")]),
}


class TestFileReaders:
    @pytest.mark.parametrize("case", list(UNREADABLE))
    def test_unreadable_file_is_named(self, tmp_path, capsys, case):
        name, data, argv = UNREADABLE[case]
        path = tmp_path / name
        path.write_bytes(data)
        assert main(argv(tmp_path, path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        assert "Traceback" not in err


class TestParserBuiltOnce:
    """``main`` parses with one parser per process, and no call leaves
    state behind for the next."""

    def test_main_never_rebuilds_parser(self, tmp_path, capsys, monkeypatch):
        def rebuilt():
            raise AssertionError("build_parser called after import")

        monkeypatch.setattr(cli, "build_parser", rebuilt)
        cfg = str(base_config(tmp_path))
        snap = str(tmp_path / "snap.json")
        assert main(["simulate", "--config", cfg, "--snapshot", snap]) == 0
        assert main(["sweep", "--config", cfg, "--param", "p", "--values", "0,0.3"]) == 0
        assert main(["report", "--snapshot", snap]) == 0

    def test_snapshot_flag_not_carried_to_next_call(self, tmp_path, capsys):
        cfg = str(base_config(tmp_path))
        snap = tmp_path / "s1.json"
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "a.csv"),
                     "--snapshot", str(snap)]) == 0
        first = capsys.readouterr().out
        assert snap.exists()
        snap.unlink()
        before = set(tmp_path.iterdir())
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "b.csv")]) == 0
        assert capsys.readouterr().out == first
        assert set(tmp_path.iterdir()) - before == {tmp_path / "b.csv"}
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_usage_errors_leave_next_call_as_first_call(self, tmp_path, capsys):
        cfg = str(base_config(tmp_path))
        # --trials left at its default, so a default changed by a failed
        # parse would show in the rows
        sweep = ["sweep", "--config", cfg, "--param", "p", "--values", "0,0.3"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        fresh = subprocess.run([sys.executable, "-m", "coopeig.cli", *sweep],
                               env=env, capture_output=True)
        assert fresh.returncode == 0, fresh.stderr
        assert main([]) == 2
        assert main(["sweep", "--param", "q"]) == 2
        capsys.readouterr()
        assert main(sweep) == 0
        assert capsys.readouterr().out.encode() == fresh.stdout


# libyaml's scanner, when this PyYAML ships it, and the pure-Python one
LOADERS = [
    pytest.param(getattr(yaml, "CSafeLoader", None), id="c",
                 marks=pytest.mark.skipif(not yaml.__with_libyaml__,
                                          reason="PyYAML built without libyaml")),
    pytest.param(yaml.SafeLoader, id="python"),
]

_FLOW = {"agents": 10, "topology": "ring", "mode": "matrix_form", "tol": 1e-8,
         "max_rounds": 500, "seed": 0}
# Each config text as the README, the workflow, the tests and the
# benchmark write it, with the values it must mean
CONFIG_SHAPES = {
    "readme-flow-mappings": (
        "matrix: {kind: file, path: A.txt}\nagents: 10\ntopology: ring\n"
        "estimator: {kind: oracle}\nmode: matrix_form\ntol: 1.0e-8\n"
        "max_rounds: 500\nseed: 0\n",
        {"matrix": {"kind": "file", "path": "A.txt"}, "estimator": {"kind": "oracle"},
         **_FLOW}),
    # YAML 1.1 reads 1e-8 (no dot) as a string, which the config converts
    "bare-exponent": (
        "matrix: {kind: file, path: A.txt}\nagents: 10\ntopology: ring\n"
        "estimator: {kind: oracle}\nmode: matrix_form\ntol: 1e-8\n"
        "max_rounds: 500\nseed: 0\n",
        {"matrix": {"kind": "file", "path": "A.txt"}, "estimator": {"kind": "oracle"},
         **_FLOW}),
    "quoted-range-spectrum": (
        'matrix: {kind: generate, n: 42, spectrum: "0.5:5.0"}\nagents: 10\n'
        "topology: ring\nestimator: {kind: mlp, learning_rate: 0.01}\n"
        "mode: matrix_form\ntol: 1.0e-8\nmax_rounds: 500\nseed: 0\n",
        {"matrix": {"kind": "generate", "n": 42, "spectrum": "0.5:5.0"},
         "estimator": {"kind": "mlp", "learning_rate": 0.01}, **_FLOW}),
    "flow-list-spectrum": (
        "matrix: {kind: generate, n: 4, spectrum: [1, 2, 3, .inf]}\nagents: 2\n"
        "topology: ring\nestimator: {kind: noisy_oracle, sigma: 0.1}\n"
        "mode: matrix_form\ntol: 1.0e-8\nmax_rounds: 500\nseed: 0\ntracked: 2\n",
        {"matrix": {"kind": "generate", "n": 4, "spectrum": [1.0, 2.0, 3.0, float("inf")]},
         "estimator": {"kind": "noisy_oracle", "sigma": 0.1}, **_FLOW, "agents": 2,
         "tracked": 2}),
    "nested-block-mappings": (
        "matrix:\n  kind: generate\n  n: 4\n  spectrum:\n  - 0.5\n  - 1\n  - 2.5e+0\n"
        "  - 4.0\nagents: 2\ntopology: er:0.5\nestimator:\n  kind: mlp\n"
        "  hidden: [8, 4]\n  spectrum_range: [0.5, 5.0]\n  learning_rate: 1.0e-2\n"
        "  epochs: 20\n  samples: 8\nmode: damped\ngamma: 0.5\nfailure_p: 0.25\n"
        "parallel: false\nseed: 3\n",
        {"matrix": {"kind": "generate", "n": 4, "spectrum": [0.5, 1.0, 2.5, 4.0]},
         "agents": 2, "topology": "er:0.5",
         "estimator": {"kind": "mlp", "hidden": [8, 4], "spectrum_range": [0.5, 5.0],
                       "learning_rate": 0.01, "epochs": 20, "samples": 8},
         "mode": "damped", "gamma": 0.5, "failure_p": 0.25, "seed": 3}),
    "json": (
        '{"agents": 8, "topology": "ring", "estimator": {"kind": "oracle"}, '
        '"mode": "matrix_form", "parallel": false, "tol": 1e-08, "max_rounds": 2000, '
        '"matrix": {"kind": "file", "path": "m.txt"}, "seed": 101}\n',
        {"matrix": {"kind": "file", "path": "m.txt"}, "estimator": {"kind": "oracle"},
         **_FLOW, "agents": 8, "max_rounds": 2000, "seed": 101}),
}
# base_config's block style: float lists, 1.0e-08
_DUMPED = {"matrix": {"kind": "generate", "n": 12,
                      "spectrum": [float(v) for v in np.linspace(0.5, 6.0, 12)]},
           "estimator": {"kind": "mlp", "hidden": [8]}, **_FLOW, "agents": 4}
CONFIG_SHAPES["safe-dump"] = (yaml.safe_dump(_DUMPED), _DUMPED)


class TestConfigLoaders:
    """libyaml's scanner and PyYAML's pure-Python one load every config
    shape in use to the same ``SimConfig``."""

    def test_c_loader_used_when_available(self):
        assert simulator._YAML_LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)

    @pytest.mark.parametrize("loader", LOADERS)
    @pytest.mark.parametrize("shape", list(CONFIG_SHAPES))
    def test_shape_loads_to_same_config(self, tmp_path, monkeypatch, loader, shape):
        text, meaning = CONFIG_SHAPES[shape]
        path = tmp_path / "c.yaml"
        path.write_text(text)
        monkeypatch.setattr(simulator, "_YAML_LOADER", loader)
        assert simulator.load_config(path) == simulator.config_from_dict(meaning)

    # not UTF-8: a Latin-1 byte, which PyYAML's reader refuses
    @pytest.mark.parametrize("loader", LOADERS)
    @pytest.mark.parametrize("text", [b"matrix: {kind: generate\n  n: [\n",
                                      b"agents: 4\ntopology: caf\xe9\n"],
                             ids=["unclosed-flow", "not-utf8"])
    def test_malformed_yaml_names_file(self, tmp_path, capsys, monkeypatch, loader, text):
        path = tmp_path / "bad.yaml"
        path.write_bytes(text)
        monkeypatch.setattr(simulator, "_YAML_LOADER", loader)
        assert main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: malformed YAML: ")
        assert "Traceback" not in err


def gen_matrix(n, seed):
    """A writer of ``gen-matrix --n n --spectrum 0.5:5.0 --seed seed``."""
    def write(path):
        assert main(["gen-matrix", "--n", str(n), "--spectrum", "0.5:5.0",
                     "--seed", str(seed), "--out", path]) == 0
    return write


def diag_blocks(path):
    """n = 42 over 10 agents with every diagonal block already diagonal,
    the blocks coupled by 0.25 across each block boundary."""
    a = np.diag(np.linspace(0.5, 5.0, 42))
    i = np.array(partition_rows(42, 10).offsets[1:-1])
    a[i - 1, i] = a[i, i - 1] = 0.25
    save_matrix(DenseSymMatrix(a), path)


def negative_scale(path):
    Path(path).write_text(json.dumps({"layer_sizes": [4, 2], "weights": [[[0.0] * 4] * 2],
                                      "biases": [[0.0] * 2], "input_scale": -1}))


def huge_entries(path):
    Path(path).write_text("2\n1 1e200\n1e200 1\n")


def train_k4(path):
    assert main(["train", "--k", "4", "--samples", "4", "--epochs", "2", "--lr", "0.01",
                 "--out", path]) == 0


def run_config(**keys):
    """Config text in the key order and flow style of the README; each
    value is YAML source."""
    keys = {"topology": "ring", "estimator": "{kind: oracle}", "mode": "matrix_form",
            "tol": "1.0e-8", "max_rounds": "500", "seed": "0", **keys}
    order = ["matrix", "agents", "topology", "estimator", "mode", "failure_p", "tol",
             "max_rounds", "seed", "tracked"]
    return "".join(f"{k}: {keys[k]}\n" for k in order if k in keys)


NOISY = "{kind: noisy_oracle, sigma: 0.1}"
GEN_42 = '{kind: generate, n: 42, spectrum: "0.5:5.0"}'
# The end-to-end runs behind the paper's robustness and scale claims and
# the exit-2 inputs, each as a user runs it from a directory holding its
# files: (files to write first, config text, exit code, stop reason,
# stderr text). Links fail on ring, path, complete and er: graphs; the
# diverging run stops at round 486, inside the block of rounds 257-512;
# the er:0.05 run builds one round of weights at a time (2^15 // 200^2
# is 0) and converges at round 80, inside the block of rounds 65-128.
END_TO_END = [
    pytest.param([("A.txt", gen_matrix(40, 0))],
                 run_config(matrix="{kind: file, path: A.txt}", agents=10),
                 0, "converged", "", id="readme-quick-start"),
    pytest.param([("A1024.txt", gen_matrix(1024, 0))],
                 run_config(matrix="{kind: file, path: A1024.txt}", agents=16,
                            max_rounds=2000),
                 0, "converged", "", id="scale-n1024-16-agents"),
    *(pytest.param([("A256b.txt", gen_matrix(256, 1))],
                   run_config(matrix="{kind: file, path: A256b.txt}", agents=2,
                              estimator=est),
                   0, "converged", "", id=f"k128-blocks-{name}")
      for name, est in [("oracle", "{kind: oracle}"), ("noisy-oracle", NOISY)]),
    pytest.param([], run_config(matrix=GEN_42, agents=10,
                                estimator="{kind: mlp, learning_rate: 0.01}"),
                 0, "converged", "", id="mlp-trained-in-run-5x5-and-4x4"),
    pytest.param([], run_config(matrix='{kind: generate, n: 40, spectrum: "0.5:5.0"}',
                                agents=40, failure_p=0.5, tol="1.0e-10", max_rounds=20000),
                 0, "converged", "", id="failing-ring-40"),
    pytest.param([], run_config(matrix='{kind: generate, n: 44, spectrum: "0.5:5.0"}',
                                agents=22, topology="path", failure_p=0.5, max_rounds=20000),
                 0, "converged", "", id="failing-path-22"),
    pytest.param([], run_config(matrix='{kind: generate, n: 40, spectrum: "0.5:5.0"}',
                                agents=20, topology="complete", failure_p=0.5,
                                tol="1.0e-10", max_rounds=20000),
                 0, "converged", "", id="failing-complete-20"),
    pytest.param([], run_config(matrix='{kind: generate, n: 200, spectrum: "0.5:5.0"}',
                                agents=200, topology="er:0.05", failure_p=0.3,
                                max_rounds=20000),
                 0, "converged", "", id="failing-er-0.05-200"),
    pytest.param([], run_config(matrix='{kind: generate, n: 40, spectrum: "0.5:5.0"}',
                                agents=10, topology="er:0.5", mode="paper_literal",
                                failure_p=0.3, max_rounds=20000, seed=1),
                 4, "diverged", "", id="diverging-er-0.5"),
    # one stack of two 5x5 blocks and one of eight 4x4, each one eigvalsh
    # call; the file matrix's blocks are already diagonal
    *(pytest.param(files, run_config(matrix=matrix, agents=10, estimator=est,
                                     max_rounds=2000, tracked=2),
                   0, "converged", "", id=f"stacks-{mname}-{ename}")
      for mname, files, matrix in [
          ("generated", [], GEN_42),
          ("diag-blocks", [("A_diag_blocks.txt", diag_blocks)],
           "{kind: file, path: A_diag_blocks.txt}")]
      for ename, est in [("oracle", "{kind: oracle}"), ("noisy-oracle", NOISY)]),
    pytest.param([("A_huge.txt", huge_entries)],
                 run_config(matrix="{kind: file, path: A_huge.txt}", agents=2),
                 2, None, "sqrt(max float) / n", id="entries-too-large"),
    pytest.param([("neg_scale.json", negative_scale)],
                 run_config(matrix='{kind: generate, n: 4, spectrum: "0.5:5.0"}', agents=2,
                            estimator="{kind: mlp, params_path: neg_scale.json}"),
                 2, None, "neg_scale.json: input_scale must be finite and > 0",
                 id="negative-input-scale"),
    # refused before the matrix build warns
    pytest.param([], run_config(matrix="{kind: generate, n: 4, spectrum: [1, 2, 3, .inf]}",
                                agents=2),
                 2, None, "spectrum entries must all be finite and positive",
                 id="infinite-spectrum"),
    # n = 42 over 10 agents: a 4x4 network fails on the 5x5 run
    pytest.param([("params4.json", train_k4)],
                 run_config(matrix=GEN_42, agents=10,
                            estimator="{kind: mlp, params_path: params4.json}"),
                 2, None, "pretrained network expects 4x4 blocks, agent block is 5x5",
                 id="pretrained-block-size-mismatch"),
]


class TestEndToEnd:
    @pytest.mark.parametrize("files, config, code, stop, err", END_TO_END)
    def test_run_twice_same_bytes(self, tmp_path, capsys, monkeypatch,
                                  files, config, code, stop, err):
        """Each run exits with its code twice, with the same CSV bytes
        and stdout; a run that ends saves a snapshot that ``report``
        prints as ``simulate`` did. A refused one writes nothing."""
        monkeypatch.chdir(tmp_path)
        for name, write in files:
            write(name)
        Path("run.yaml").write_text(config)
        capsys.readouterr()
        outs = []
        for side in "ab":
            assert main(["simulate", "--config", "run.yaml", "--out", f"{side}.csv",
                         "--snapshot", f"{side}.json"]) == code
            outs.append(capsys.readouterr())
        assert outs[0] == outs[1]
        out, stderr = outs[0]
        if code == 2:
            assert out == "" and stderr.startswith("error: ") and err in stderr
            assert not any(Path(f"{side}.{ext}").exists() for side in "ab"
                           for ext in ("csv", "json"))
            return
        assert stderr == ""
        assert f"Stop reason: {stop}" in out.splitlines()
        assert Path("a.csv").read_bytes() == Path("b.csv").read_bytes()
        assert main(["report", "--snapshot", "a.json"]) == 0
        assert capsys.readouterr().out == out


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
