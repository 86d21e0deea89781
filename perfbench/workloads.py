"""The benchmark's workloads: seeded inputs, one operation each through
``coopeig.cli.main``, and the correctness checks behind ``failed``.

Every input is made here from the workload seed and the operation's
index, with NumPy alone: the SPD matrix (written in coopeig's plain-text
matrix format) and the YAML config (written as JSON, which YAML reads).
The program receives only these files. The references the checks use
(``numpy.linalg.eigvalsh`` of the written matrix, the block minima) are
computed here too, never by coopeig.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
from dataclasses import dataclass, field
import numpy as np

from hostspeed import Clock

TRUTH_RTOL = 1e-9  # truth against eigvalsh, relative
CONSENSUS_TOL_FACTOR = 10  # oracle consensus value against the mean block minimum
# sweep prints no truth; it prints gamma_hat, the mean over the last 10%
# of rounds of max_i |x_i - truth|. With the oracle, x_i >= truth and the
# agent mean stays at the mean block minimum, so gamma_hat - (mean block
# minimum - truth) lies in [0, disagreement left in that tail]. Decaying
# geometrically from e0 <= 5 to tol, that disagreement is near
# tol * (5 / tol) ** 0.1, under 1e-7 for tol = 1e-8.
SWEEP_GAMMA_SLACK = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int  # matrix order
    config: dict  # the config file, less matrix path and seed
    sweep: tuple = ()  # (param, values) for a sweep operation, else simulate
    toy: dict = field(default_factory=dict)  # overrides for the smoke check

    @property
    def oracle(self) -> bool:
        return self.config["estimator"]["kind"] == "oracle"

    def sized(self, toy: bool) -> "Workload":
        if not toy:
            return self
        cfg = {**self.config, **self.toy.get("config", {})}
        return Workload(self.name, self.why, self.toy["n"], cfg, self.sweep)


def _ring_config(agents, estimator, **extra):
    return {"agents": agents, "topology": "ring", "estimator": estimator,
            "mode": "matrix_form", "parallel": False, **extra}


ORACLE = {"kind": "oracle"}


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "sweep_solve",
            "file-matrix sweep re-solving an n=64 matrix per trial: the Jacobi oracle dominates",
            n=64,
            config=_ring_config(8, ORACLE, tol=1e-8, max_rounds=2000),
            sweep=("p", "0,0.3"),
            toy={"n": 12, "config": {"agents": 6}},
        ),
        Workload(
            "rounds_ring",
            "1x1 blocks on a 40-agent ring losing half its links: ~4k consensus rounds dominate",
            n=40,
            config=_ring_config(40, ORACLE, failure_p=0.5, tol=1e-10, max_rounds=20000),
            toy={"n": 8, "config": {"agents": 8, "tol": 1e-8}},
        ),
        Workload(
            "mlp_train",
            "MLP estimator at default size on 4x4 blocks, no link loss: training dominates",
            n=40,
            config=_ring_config(10, {"kind": "mlp", "learning_rate": 0.01},
                                tol=1e-8, max_rounds=2000),
            toy={"n": 8, "config": {"agents": 4, "estimator": {
                "kind": "mlp", "learning_rate": 0.01, "epochs": 20, "samples": 8, "hidden": [8]}}},
        ),
    )
}

# The untouched default MLP estimator config; it diverges today. Run
# apart from every workload so that pinning mlp_train's learning rate
# hides nothing.
PROBE = Workload("default_mlp_probe", "", n=40,
                 config=_ring_config(10, {"kind": "mlp"}, tol=1e-8, max_rounds=2000))


@dataclass
class OpResult:
    seconds: float  # host-adjusted, see hostspeed.py
    wall: float
    speed: float
    sims: int = 0
    rounds: int = 0
    digest: str = ""
    error: str = ""  # empty when the operation passed every check


def spd_matrix(rng, n):
    """Q diag(s) Q^T with a random orthogonal Q and s uniform in
    [0.5, 5], symmetrized so it is exactly symmetric."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    a = (q * rng.uniform(0.5, 5.0, n)) @ q.T
    return (a + a.T) / 2.0


def write_matrix(a, path):
    with open(path, "w") as f:
        f.write(f"{a.shape[0]}\n")
        for row in a:
            f.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def block_minima(a, m):
    """Smallest eigenvalue of each diagonal block of the balanced
    contiguous partition (the first n mod m blocks one row larger)."""
    base, extra = divmod(a.shape[0], m)
    mins, lo = [], 0
    for i in range(m):
        hi = lo + base + (1 if i < extra else 0)
        mins.append(np.linalg.eigvalsh(a[lo:hi, lo:hi])[0])
        lo = hi
    return np.array(mins)


class Runner:
    """Runs operations of one workload in a scratch directory, calling
    ``cli.main`` in process and timing it with ``clock``. It looks
    ``main`` up on the module at each call, so a tracer that rebinds it
    sees the call."""

    def __init__(self, workload, seed, workdir, cli, clock):
        self.wl, self.seed, self.workdir = workload, seed, workdir
        self.cli, self.clock = cli, clock

    def prepare(self, index):
        """Write the inputs of operation ``index``; return what the
        checks need."""
        rng = np.random.default_rng([self.seed, index])
        a = spd_matrix(rng, self.wl.n)
        prefix = os.path.join(self.workdir, f"op{index}")
        write_matrix(a, prefix + ".mat")
        cfg = {**self.wl.config, "matrix": {"kind": "file", "path": prefix + ".mat"},
               "seed": int(rng.integers(2**31))}
        with open(prefix + ".yaml", "w") as f:
            json.dump(cfg, f)
        if self.wl.sweep:
            param, values = self.wl.sweep
            argv = ["sweep", "--config", prefix + ".yaml", "--param", param,
                    "--values", values, "--out", prefix + ".agg.csv"]
        else:
            argv = ["simulate", "--config", prefix + ".yaml", "--out", prefix + ".csv",
                    "--snapshot", prefix + ".snap.json"]
        return a, prefix, argv

    def run(self, index, prepared=None):
        """One timed operation; its checks run after the clock stops.
        Any exception, non-zero exit or failed check marks it failed."""
        a, prefix, argv = prepared or self.prepare(index)
        sink = io.StringIO()
        raised = ""
        with self.clock.time() as timing:
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = self.cli.main(argv)
            except Exception as exc:  # the CLI leaves some library errors unmapped
                raised = f"{type(exc).__name__}: {exc}"
        result = OpResult(timing.seconds, timing.wall, timing.speed, error=raised)
        if raised:
            return result
        try:
            if code != 0:
                raise CheckFailed(f"exit code {code}: {sink.getvalue().strip()[-200:]}")
            check = self._check_sweep if self.wl.sweep else self._check_simulate
            check(a, prefix, result)
        except Exception as exc:  # malformed output fails the operation, not the run
            result.error = f"{type(exc).__name__}: {exc}"
        return result

    def _check_simulate(self, a, prefix, result):
        with open(prefix + ".csv", "rb") as f:
            result.digest = hashlib.sha256(f.read()).hexdigest()
        with open(prefix + ".snap.json") as f:
            snap = json.load(f)
        truth, ref = snap["truth"][0], np.linalg.eigvalsh(a)[0]
        if not abs(truth - ref) <= TRUTH_RTOL * abs(ref):
            raise CheckFailed(f"truth {truth!r} vs eigvalsh {ref!r}")
        if self.wl.oracle:
            target = block_minima(a, self.wl.config["agents"]).mean()
            worst = np.max(np.abs(np.array(snap["final_estimates"])[:, 0] - target))
            if not worst <= CONSENSUS_TOL_FACTOR * self.wl.config["tol"]:
                raise CheckFailed(f"consensus off the mean block minimum by {worst:.3e}")
        result.sims, result.rounds = 1, int(snap["rounds_used"])

    def _check_sweep(self, a, prefix, result):
        with open(prefix + ".agg.csv", "rb") as f:
            data = f.read()
        result.digest = hashlib.sha256(data).hexdigest()
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        values = self.wl.sweep[1].split(",")
        if len(rows) != len(values):
            raise CheckFailed(f"{len(rows)} aggregate rows for {len(values)} values")
        gap = block_minima(a, self.wl.config["agents"]).mean() - np.linalg.eigvalsh(a)[0]
        for row in rows:
            trials = int(row["trials"])
            if float(row["max_final_error"]) >= self.wl.config["tol"]:
                raise CheckFailed(f"p={row['value']} did not converge")
            excess = float(row["mean_gamma_hat"]) - gap
            if not -TRUTH_RTOL * gap <= excess <= SWEEP_GAMMA_SLACK:
                raise CheckFailed(f"p={row['value']} gamma_hat off by {excess:.3e}")
            result.sims += trials
            result.rounds += round(float(row["mean_rounds"]) * trials)


class CheckFailed(Exception):
    pass


def probe_default_mlp(seed, workdir, cli):
    """Run the default MLP estimator config once; return its outcome."""
    outcome = Runner(PROBE, seed, workdir, cli, Clock(adjust=False)).run(0)
    return "ok" if not outcome.error else outcome.error
