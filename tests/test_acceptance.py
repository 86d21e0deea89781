"""Acceptance gate: one test per criterion, each printing a PASS/FAIL
line (visible even under pytest capture) before asserting.

The contraction checks (criteria 3) are evaluated on the mean-deviation
norm, the disagreement measure the geometric bound is actually a
theorem for; the max-pairwise consensus_error does not contract round
by round (see tests/test_consensus.py for the counterexample).
"""

import time

import numpy as np
import pytest
import yaml

from coopeig.cli import main as cli_main
from coopeig.comm_graph import (
    FailureModel,
    WeightMatrix,
    apply_failures,
    build_graph,
    is_connected,
    metropolis_weights,
    slem,
    union_graph,
)
from coopeig.consensus import (
    ConsensusMode,
    DivergenceError,
    consensus_round,
    init_states,
    run_to_convergence,
)
from coopeig.local_estimator import (
    NoisyOracleEstimator,
    estimate,
    init_mlp,
    mlp_grad,
    mlp_loss,
    synthesize_training_set,
)
from coopeig.matrix_core import (
    DenseSymMatrix,
    generate_spd,
    jacobi_eigen,
    save_matrix,
    smallest_eigenvalue,
)
from coopeig.seeding import child_seed
from coopeig.simulator import (
    EstimatorConfig,
    MatrixSpec,
    SimConfig,
    fit_error_bound,
    format_summary,
    run_simulation,
)

MATRIX_FORM = ConsensusMode("matrix_form")
SPECTRUM_40 = tuple(np.linspace(0.5, 5.0, 40))


def announce(capsys, num, name, ok, detail=""):
    with capsys.disabled():
        print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}  {name}")
    assert ok, f"criterion {num} failed: {name}" + (f" ({detail})" if detail else "")


def random_connected_graph(m, seed, p_edge=0.4):
    rng = np.random.default_rng(seed)
    edges = set()
    order = rng.permutation(m)
    for a, b in zip(order[:-1], order[1:]):
        edges.add((int(min(a, b)), int(max(a, b))))
    for i in range(m):
        for l in range(i + 1, m):
            if rng.random() < p_edge:
                edges.add((i, l))
    from coopeig.comm_graph import Graph

    return Graph(m, frozenset(edges))


def test_criterion_01_oracle_correctness(capsys):
    start = time.perf_counter()
    n = 8
    a = np.diag(np.full(n, 2.0))
    idx = np.arange(n - 1)
    a[idx, idx + 1] = a[idx + 1, idx] = 1.0
    ev = jacobi_eigen(DenseSymMatrix(a)).eigenvalues
    k = np.arange(1, n + 1)
    expect = np.sort(2 - 2 * np.cos(k * np.pi / (n + 1)))
    ok = np.max(np.abs(ev - expect)) < 1e-10
    for seed in range(5):
        rng = np.random.default_rng(seed)
        spectrum = np.sort(rng.uniform(0.2, 8.0, 16))
        got = jacobi_eigen(generate_spd(16, spectrum, seed)).eigenvalues
        ok = ok and np.max(np.abs(got - spectrum)) < 1e-9
    elapsed = time.perf_counter() - start
    detail = f"spectra ok: {ok}; elapsed {elapsed:.2f} s, bound 1.0 s"
    ok = ok and elapsed < 1.0
    announce(capsys, 1, "exact spectral oracle", ok, detail)


def test_criterion_02_weight_matrix_invariants(capsys):
    start = time.perf_counter()
    ok = True
    rng = np.random.default_rng(0)
    for trial in range(200):
        m = int(rng.integers(2, 51))
        g = random_connected_graph(m, trial)
        w = metropolis_weights(g)
        ok = ok and np.array_equal(w.w, w.w.T)
        ok = ok and bool(np.all(w.w >= 0))
        ok = ok and np.max(np.abs(w.w.sum(axis=1) - 1.0)) <= 1e-12
        ok = ok and slem(w) < 1.0
    elapsed = time.perf_counter() - start
    detail = f"invariants ok: {ok}; elapsed {elapsed:.2f} s, bound 5.0 s"
    ok = ok and elapsed < 5.0
    announce(capsys, 2, "doubly-stochastic weight invariants", ok, detail)


def test_criterion_03_failure_free_contraction(capsys):
    cfg = SimConfig(
        matrix=MatrixSpec("generate", n=40, spectrum=SPECTRUM_40),
        agents=10, topology="ring", estimator=EstimatorConfig("oracle"),
        mode=MATRIX_FORM, tol=1e-4, max_rounds=300, seed=0,
    )
    trace = run_simulation(cfg)
    rho = trace.rho
    d = trace.deviation_norm
    ok = trace.stop_reason == "converged" and trace.rounds_used <= 300
    for k in range(len(d)):
        ok = ok and d[k] <= rho**k * d[0] * (1 + 1e-9)
    for k in range(len(d) - 1):
        ok = ok and d[k + 1] <= rho * d[k] * (1 + 1e-9)
    announce(capsys, 3, "geometric contraction, failure-free ring", ok)


def test_criterion_04_log_linear_decay(capsys):
    # documented seed 0: the derived graph seed gives slem ~ 0.764
    cfg = SimConfig(
        matrix=MatrixSpec("generate", n=40, spectrum=SPECTRUM_40),
        agents=10, topology="er:0.5", estimator=EstimatorConfig("oracle"),
        mode=MATRIX_FORM, tol=1e-12, max_rounds=300, seed=0,
    )
    trace = run_simulation(cfg)
    es = trace.consensus_error
    ok = trace.rho <= 0.8
    reached = np.nonzero(es <= 1e-4)[0]
    ok = ok and reached.size > 0 and reached[0] <= 100
    pos = es > 0
    ks = np.arange(len(es))[pos]
    ys = np.log10(es[pos])
    coef, res, *_ = np.linalg.lstsq(np.vstack([ks, np.ones_like(ks)]).T, ys,
                                    rcond=None)
    r2 = 1.0 - res[0] / np.sum((ys - ys.mean()) ** 2)
    ok = ok and coef[0] < 0 and r2 >= 0.99
    announce(capsys, 4, "log-linear error decay", ok)


def _identical_block_matrix(tmp_path):
    """10 copies of one 4x4 block on the diagonal: every block's
    smallest eigenvalue equals the global one, so the error floor
    isolates estimator noise."""
    block = generate_spd(4, [0.5, 2.0, 3.5, 5.0], seed=3).a
    a = np.zeros((40, 40))
    for i in range(10):
        a[4 * i:4 * i + 4, 4 * i:4 * i + 4] = block
    path = tmp_path / "blockdiag.txt"
    save_matrix(DenseSymMatrix(a), path)
    return path


def test_criterion_05_noise_floor(capsys, tmp_path):
    sigma = 0.01
    path = _identical_block_matrix(tmp_path)
    gammas, ok = [], True
    for seed in range(20):
        cfg = SimConfig(
            matrix=MatrixSpec("file", path=str(path)), agents=10,
            topology="er:0.5",
            estimator=EstimatorConfig("noisy_oracle", sigma=sigma),
            mode=MATRIX_FORM, tol=1e-12, max_rounds=300, seed=seed,
        )
        fit = fit_error_bound(run_simulation(cfg))
        gammas.append(fit.gamma_hat)
        ok = ok and fit.holds
    mean_gamma = float(np.mean(gammas))
    ok = ok and 0.2 * sigma <= mean_gamma <= 5 * sigma
    announce(capsys, 5, "fitted noise floor tracks sigma", ok)


def test_criterion_06_robust_convergence(capsys):
    finals, ok = [], True
    for trial in range(50):
        cfg = SimConfig(
            matrix=MatrixSpec("generate", n=40, spectrum=SPECTRUM_40),
            agents=10, topology="ring", estimator=EstimatorConfig("oracle"),
            mode=MATRIX_FORM, failure_p=0.3, tol=1e-300, max_rounds=500,
            seed=trial,
        )
        trace = run_simulation(cfg)
        finals.append(trace.final_consensus_error)
        base = build_graph("ring", 10, child_seed(trial, "graph"))
        fm = FailureModel(0.3, child_seed(trial, "failures"))
        union = union_graph(apply_failures(base, fm, k) for k in range(1, 51))
        ok = ok and is_connected(union)
    ok = ok and float(np.mean(finals)) < 1e-3
    announce(capsys, 6, "convergence under 30% link failures", ok)


def test_criterion_07_gradient_correctness(capsys):
    def numeric(params, tset, step=1e-5):
        flat = []
        for arrs in (params.weights, params.biases):
            for a in arrs:
                it = np.nditer(a, flags=["multi_index"])
                while not it.finished:
                    idx = it.multi_index
                    orig = a[idx]
                    a[idx] = orig + step
                    hi = mlp_loss(params, tset)
                    a[idx] = orig - step
                    lo = mlp_loss(params, tset)
                    a[idx] = orig
                    flat.append((hi - lo) / (2 * step))
                    it.iternext()
        return np.array(flat)

    ok = True
    for seed in range(100):
        tset = synthesize_training_set(2, 2, (0.5, 3.0), seed=seed)
        p = init_mlp(2, hidden=(4,), seed=seed + 1000)
        p.input_scale = 1.0 / max(1.0, tset.max_abs_entry())
        gw, gb = mlp_grad(p, tset)
        analytic = np.concatenate([g.reshape(-1) for g in gw + gb])
        fd = numeric(p, tset)
        rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(analytic),
                                                  np.linalg.norm(fd), 1e-12)
        ok = ok and rel < 1e-5
    announce(capsys, 7, "analytic gradients match finite differences", ok)


def test_criterion_08_unbiased_noise(capsys):
    sigma = 0.05
    draws = 10_000
    se = sigma / np.sqrt(draws)
    ok = True
    blocks = [
        DenseSymMatrix(np.diag([1.0, 3.0])),
        generate_spd(3, [0.5, 2.0, 4.0], seed=2),
        DenseSymMatrix([[2.0]]),
    ]
    for bi, block in enumerate(blocks):
        truth = smallest_eigenvalue(block)
        est = NoisyOracleEstimator(sigma, seed=bi)
        values = np.array([
            estimate(est, block, agent=bi, round_=r)[0] for r in range(draws)
        ])
        ok = ok and abs(values.mean() - truth) < 5 * se
    announce(capsys, 8, "noisy estimator is unbiased", ok)


def test_criterion_09_mode_semantics(capsys):
    g = build_graph("ring", 6)
    w = metropolis_weights(g)
    gamma = 0.5
    rng = np.random.default_rng(2)
    anchors = rng.uniform(0, 5, 6)
    states = init_states([[v] for v in anchors])
    for _ in range(200):
        states = consensus_round(states, w, ConsensusMode("damped", gamma=gamma))
    fixed = np.linalg.solve(np.eye(6) - gamma * w.w, (1 - gamma) * anchors)
    got = states.estimates[:, 0]
    ok = np.max(np.abs(got - fixed)) < 1e-8

    swap = WeightMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    try:
        run_to_convergence(init_states([[0.0], [1.0]]), swap,
                           ConsensusMode("paper_literal"), 1e-9, 500)
        ok = False
    except DivergenceError as err:
        ok = ok and err.round < 200
    announce(capsys, 9, "damped fixed point and literal divergence", ok)


def test_criterion_10_complexity_accounting(capsys):
    ok = True
    for topology, m, n in (("ring", 4, 12), ("complete", 5, 15), ("path", 6, 18)):
        cfg = SimConfig(
            matrix=MatrixSpec("generate", n=n,
                              spectrum=tuple(np.linspace(0.5, 4.0, n))),
            agents=m, topology=topology, estimator=EstimatorConfig("oracle"),
            mode=MATRIX_FORM, tol=1e-300, max_rounds=4, seed=1,
        )
        trace = run_simulation(cfg)
        edges = len(build_graph(topology, m).edges)
        k2 = sum(k * k for k in trace.block_sizes)
        for sent, flops in zip(trace.scalars_sent[1:], trace.flops_local[1:]):
            ok = ok and sent == 2 * 1 * edges
            ok = ok and flops == k2
    announce(capsys, 10, "exact communication and flop counters", ok)


def test_criterion_11_determinism(capsys, tmp_path):
    cfg = {
        "matrix": {"kind": "generate", "n": 12,
                   "spectrum": [float(v) for v in np.linspace(0.5, 6.0, 12)]},
        "agents": 4,
        "topology": "ring",
        "estimator": {"kind": "mlp", "hidden": [8], "epochs": 30, "samples": 8},
        "mode": "matrix_form",
        "tol": 1e-8,
        "max_rounds": 500,
        "seed": 7,
        "parallel": True,  # internal thread fan-out must not change bytes
    }
    path = tmp_path / "config.yaml"
    with open(path, "w") as f:
        yaml.safe_dump(cfg, f)
    outputs, csvs = [], []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code = cli_main(["simulate", "--config", str(path), "--out", str(out)])
        outputs.append(capsys.readouterr().out)
        csvs.append(out.read_bytes())
        ok = code == 0
    ok = ok and outputs[0] == outputs[1] and csvs[0] == csvs[1]
    announce(capsys, 11, "byte-identical repeated runs", ok)


def test_criterion_12_report_format(capsys):
    agents = [0.00113323, 0.00107795, 0.00083442, 0.00112609,
              0.00094182, 0.00101718, 0.0011068, 0.00098364,
              0.00103933, 0.00104855]
    got = format_summary(0.0017707060804811243, agents, "max_rounds",
                         300, 0.0001)
    expect = (
        "True Smallest Eigenvalue: 0.0017707060804811243\n"
        "Estimated Smallest Eigenvalues by Agents:\n"
        "[0.00113323 0.00107795 0.00083442 0.00112609\n"
        " 0.00094182 0.00101718 0.0011068  0.00098364\n"
        " 0.00103933 0.00104855]\n"
        "Stop reason: max_rounds\n"
        "Rounds used: 300\n"
        "Final consensus error: 0.0001\n"
    )
    announce(capsys, 12, "golden report layout", got == expect)
