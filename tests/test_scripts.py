"""The experiment scripts in ``scripts/``, run as a user runs them: in a
fresh interpreter, at toy size."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from coopeig.cli import main

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


# Digests of the trace CSV and stdout: any change to an output byte
# shows here.
@pytest.mark.parametrize("args, csv_digest, stdout_digest", [
    (["--n", "12", "--agents", "4"],
     "6897fdb1c8f0ddbe75139caff0baf02594710e3926dfa41ede41bab4c79cc9dc",
     "31b989f874234795b4775a05fa5b4d68e339db3f5165d493c28f0b6baf9368dc"),
    (["--topology", "er:0.5", "--seed", "3"],
     "1da0ce113beeb299dbfe261ab747d675beb1e2b07a337474216b7bf683609068",
     "74871cfef104bf9a5af725b760624a6f71f4b4ef5667ae12f2abf5ff09c25675"),
], ids=["ring", "er"])
def test_decay_outputs_pinned(tmp_path, args, csv_digest, stdout_digest):
    result = run_script("decay_experiment.py", *args, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert sha256((tmp_path / "decay_trace.csv").read_bytes()) == csv_digest
    assert sha256(result.stdout.encode()) == stdout_digest


def test_failure_sweep_is_the_cli_sweep(tmp_path):
    # at seed 5, and at the script's default seed 0
    for seed_args, seed in [(["--seed", "5"], 5), ([], 0)]:
        result = run_script("failure_sweep.py", "--n", "12", "--agents", "4", "--trials", "2",
                            "--values", "0,0.3", *seed_args, "--out", "script.csv",
                            cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        config = tmp_path / "sweep.yaml"
        config.write_text(yaml.safe_dump({
            "matrix": {"kind": "generate", "n": 12,
                       "spectrum": np.linspace(0.5, 5.0, 12).tolist()},
            "agents": 4, "topology": "ring", "estimator": {"kind": "oracle"},
            "mode": "matrix_form", "tol": 1e-8, "max_rounds": 2000, "seed": seed,
        }))
        cli_csv = tmp_path / "cli.csv"
        assert main(["sweep", "--config", str(config), "--param", "p", "--values", "0,0.3",
                     "--trials", "2", "--out", str(cli_csv)]) == 0
        assert (tmp_path / "script.csv").read_bytes() == cli_csv.read_bytes()


@pytest.mark.parametrize("name, args, message", [
    ("failure_sweep.py", ["--n", "12", "--agents", "4", "--trials", "1", "--values", "0,1.0"],
     "failure probability"),
    ("failure_sweep.py", ["--trials", "0"], "--trials must be >= 1"),
    ("decay_experiment.py", ["--n", "12", "--agents", "20"], "more agents than matrix rows"),
])
def test_bad_arguments_exit_2(tmp_path, name, args, message):
    result = run_script(name, *args, cwd=tmp_path)
    assert result.returncode == 2
    assert f"error: {message}" in result.stderr
    assert "Traceback" not in result.stderr
