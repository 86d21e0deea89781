"""The experiments in ``scripts/``, run as a user runs them: the README's
sweep command on the committed config, and the decay script in a fresh
interpreter, at default and toy size."""

import hashlib
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from coopeig.cli import main
from coopeig.simulator import load_config

ROOT = Path(__file__).resolve().parents[1]
SWEEP = ("coopeig sweep --config scripts/failure_sweep.yaml --param p "
         "--values 0,0.1,0.3,0.5,0.7 --trials 20 --out failure_sweep.csv")


def run_decay(*args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "decay_experiment.py"),
                           *args], cwd=cwd, env=env, capture_output=True, text=True)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def old_defaults(tol, max_rounds, n=40, agents=10, topology="ring", seed=0):
    """The config the retired script flags wrote, at their defaults unless
    given."""
    return {
        "matrix": {"kind": "generate", "n": n,
                   "spectrum": np.linspace(0.5, 5.0, n).tolist()},
        "agents": agents, "topology": topology, "estimator": {"kind": "oracle"},
        "mode": "matrix_form", "tol": tol, "max_rounds": max_rounds, "seed": seed,
    }


@pytest.mark.parametrize("name, old", [
    ("failure_sweep.yaml", old_defaults(1e-8, 2000)),
    ("decay_experiment.yaml", old_defaults(1e-10, 300)),
])
def test_committed_configs_are_the_old_defaults(tmp_path, name, old):
    written = tmp_path / "old.yaml"
    written.write_text(yaml.safe_dump(old))
    cfg = load_config(ROOT / "scripts" / name)
    assert cfg == load_config(written)
    assert np.array_equal(cfg.matrix.spectrum, np.linspace(0.5, 5.0, 40))


def test_readme_sweep_output_pinned(tmp_path, monkeypatch):
    assert SWEEP in (ROOT / "README.md").read_text()
    (tmp_path / "scripts").symlink_to(ROOT / "scripts")
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(SWEEP)
    assert argv[0] == "coopeig" and main(argv[1:]) == 0
    assert sha256((tmp_path / "failure_sweep.csv").read_bytes()) == (
        "566cb9bdc9eb2e20cc3aa57c977cfbd8700fde085fc0b7611f0cc48a680c211d")


# Digests of the trace CSV and stdout: any change to an output byte
# shows here. "default" is the committed config; the toy configs hold
# the values of the script's former --n/--agents and --topology/--seed.
@pytest.mark.parametrize("config, csv_digest, stdout_digest", [
    (None,
     "10393713e64ea81d576d7f3814bb9c26059edf47c231d28b128b6b8c905ca15a",
     "6b88cae7eaa9fca38d10c497493b60b294579d166ef732450c1ad50ef9e67d2f"),
    (old_defaults(1e-10, 300, n=12, agents=4),
     "6897fdb1c8f0ddbe75139caff0baf02594710e3926dfa41ede41bab4c79cc9dc",
     "31b989f874234795b4775a05fa5b4d68e339db3f5165d493c28f0b6baf9368dc"),
    (old_defaults(1e-10, 300, topology="er:0.5", seed=3),
     "1da0ce113beeb299dbfe261ab747d675beb1e2b07a337474216b7bf683609068",
     "74871cfef104bf9a5af725b760624a6f71f4b4ef5667ae12f2abf5ff09c25675"),
], ids=["default", "ring", "er"])
def test_decay_outputs_pinned(tmp_path, config, csv_digest, stdout_digest):
    args = []
    if config is not None:
        (tmp_path / "decay.yaml").write_text(yaml.safe_dump(config))
        args = ["--config", "decay.yaml"]
    result = run_decay(*args, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert sha256((tmp_path / "decay_trace.csv").read_bytes()) == csv_digest
    assert sha256(result.stdout.encode()) == stdout_digest


def test_bad_arguments_exit_2(tmp_path):
    (tmp_path / "decay.yaml").write_text(
        yaml.safe_dump(old_defaults(1e-10, 300, n=12, agents=20)))
    result = run_decay("--config", "decay.yaml", cwd=tmp_path)
    assert result.returncode == 2
    assert "error: more agents than matrix rows" in result.stderr
    assert "Traceback" not in result.stderr
