import copy
import hashlib

import numpy as np
import pytest

from coopeig import local_estimator, matrix_core, simulator
from coopeig.local_estimator import (
    MlpParams,
    NoisyOracleEstimator,
    OracleEstimator,
    TrainConfig,
    TrainingDivergedError,
    TrainingSet,
    estimate,
    estimate_stack,
    init_mlp,
    load_params,
    mlp_grad,
    mlp_loss,
    save_params,
    synthesize_training_set,
    train,
    train_stack,
)
from coopeig.matrix_core import (
    DenseSymMatrix,
    generate_spd,
    jacobi_eigen,
    partition_rows,
)
from coopeig.seeding import child_seed, keyed_rng
from coopeig.simulator import config_from_dict, run_simulation


def flatten_grads(gw, gb):
    return np.concatenate([g.reshape(-1) for g in gw + gb])


def numeric_grad(params, tset, step=1e-5):
    """Central finite differences over every weight and bias."""
    out = []
    for arrs in (params.weights, params.biases):
        for a in arrs:
            g = np.zeros_like(a)
            it = np.nditer(a, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = a[idx]
                a[idx] = orig + step
                hi = mlp_loss(params, tset)
                a[idx] = orig - step
                lo = mlp_loss(params, tset)
                a[idx] = orig
                g[idx] = (hi - lo) / (2 * step)
                it.iternext()
            out.append(g)
    nw = len(params.weights)
    return out[:nw], out[nw:]


def loop_loss_and_grad(p, tset):
    """Reference: one sample at a time, one layer at a time, with the
    sort permutation taken per sample (stable, ties by index)."""
    nsamp = len(tset.inputs)
    last = len(p.weights) - 1
    loss = 0.0
    gw = [np.zeros_like(w) for w in p.weights]
    gb = [np.zeros_like(b) for b in p.biases]
    for x, targets in zip(tset.inputs, tset.targets):
        acts = [x * p.input_scale]
        for li, (w, b) in enumerate(zip(p.weights, p.biases)):
            z = w @ acts[-1] + b
            acts.append(z if li == last else np.tanh(z))
        out = acts[-1] / p.input_scale
        perm = np.argsort(out, kind="stable")
        resid = out[perm] - targets
        loss += float(np.sum(resid ** 2))
        d = np.zeros_like(out)
        d[perm] = 2.0 * resid / (nsamp * p.input_scale)
        for li in range(last, -1, -1):
            if li != last:
                d = d * (1.0 - acts[li + 1] ** 2)
            gw[li] += np.outer(d, acts[li])
            gb[li] += d
            d = p.weights[li].T @ d
    return loss / nsamp, gw, gb


def rel_err(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)


def block_of(tset, row):
    """Row ``row`` of a training set as a k x k matrix."""
    k = tset.targets.shape[1]
    return DenseSymMatrix(tset.inputs[row].reshape(k, k))


class TestTrainingSet:
    def test_one_by_one_blocks(self):
        tset = synthesize_training_set(1, 3, (1.0, 2.0), seed=0)
        assert tset.inputs.shape == tset.targets.shape == (3, 1)
        assert np.allclose(tset.targets, tset.inputs, rtol=0, atol=1e-12)

    def test_targets_match_oracle(self):
        tset = synthesize_training_set(2, 1, (0.5, 3.0), seed=1)
        oracle = jacobi_eigen(block_of(tset, 0)).eigenvalues
        assert np.max(np.abs(oracle - tset.targets[0])) < 1e-10

    def test_deterministic(self):
        a = synthesize_training_set(3, 4, (0.5, 2.0), seed=5)
        b = synthesize_training_set(3, 4, (0.5, 2.0), seed=5)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.targets, b.targets)

    @pytest.mark.parametrize("seed", range(5))
    def test_wide_spectrum_range_passes_symmetry_check(self, seed):
        # the blocks are symmetrized as DenseSymMatrix would, bitwise
        tset = synthesize_training_set(4, 32, (0.5, 3e4), seed)
        assert tset.inputs.shape == (32, 16)
        blocks = tset.inputs.reshape(32, 4, 4)
        assert np.array_equal(blocks, blocks.transpose(0, 2, 1))
        for row in range(32):
            assert np.array_equal(block_of(tset, row).a, blocks[row])

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            synthesize_training_set(2, 1, (2.0, 1.0), seed=0)
        with pytest.raises(ValueError, match="need 0 < lo < hi < inf"):
            synthesize_training_set(2, 1, (0.5, np.inf), seed=0)
        with pytest.raises(ValueError):
            synthesize_training_set(2, 0, (1.0, 2.0), seed=0)
        with pytest.raises(ValueError, match="need k >= 1"):
            synthesize_training_set(0, 1, (1.0, 2.0), seed=0)

    @pytest.mark.parametrize("k", [1, 2, 4, 7])
    def test_synthesized_targets_agree_with_oracle(self, k):
        tset = synthesize_training_set(k, 6, (0.5, 5.0), seed=k)
        for row, targets in enumerate(tset.targets):
            oracle = jacobi_eigen(block_of(tset, row)).eigenvalues
            assert np.max(np.abs(oracle - targets)) <= 1e-10

    def test_synthesized_set_is_not_re_solved(self, monkeypatch):
        def solve(*args, **kwargs):
            raise AssertionError("synthesized targets are prescribed, not solved")

        monkeypatch.setattr(np.linalg, "eigvalsh", solve)
        monkeypatch.setattr(matrix_core, "jacobi_eigen", solve)
        synthesize_training_set(3, 4, (0.5, 2.0), seed=2)

    def test_stacked_arrays(self):
        tset = synthesize_training_set(3, 5, (0.5, 2.0), seed=8)
        assert tset.inputs.shape == (5, 9) and tset.targets.shape == (5, 3)
        assert tset.inputs.dtype == tset.targets.dtype == np.float64
        assert np.all(np.diff(tset.targets, axis=1) >= 0)

    @pytest.mark.parametrize("k, count", [(1, 3), (4, 32), (5, 7)])
    def test_stacked_blocks_match_per_sample_loop(self, k, count):
        # one stream: the (count, k) spectra, then the (count, k, k) Gaussians
        rng = keyed_rng(11, "training-set")
        spectra = rng.uniform(0.5, 5.0, (count, k))
        gaussians = rng.standard_normal((count, k, k))
        ref_inputs, ref_targets = [], []
        for draw, g in zip(spectra, gaussians):
            spectrum = np.sort(draw)
            q, r = np.linalg.qr(g)
            q = q * np.sign(np.diag(r))
            ref_inputs.append(DenseSymMatrix(q @ np.diag(spectrum) @ q.T).a.reshape(-1))
            ref_targets.append(spectrum)
        tset = synthesize_training_set(k, count, (0.5, 5.0), seed=11)
        assert np.array_equal(tset.inputs, np.stack(ref_inputs))
        assert np.array_equal(tset.targets, np.stack(ref_targets))

    def test_one_generator_per_set(self, monkeypatch):
        made = []

        def counting(*args):
            made.append(args)
            return keyed_rng(*args)

        monkeypatch.setattr(local_estimator, "keyed_rng", counting)
        monkeypatch.setattr(matrix_core, "keyed_rng", counting)
        synthesize_training_set(4, 32, (0.5, 5.0), seed=3)
        assert made == [(3, "training-set")]

    def test_rejects_mixed_block_sizes_and_unsorted_targets(self):
        a = np.diag([1.0, 2.0]).reshape(1, -1)
        with pytest.raises(ValueError, match=r"inputs must be \(1, 1\), got \(1, 4\)"):
            TrainingSet(a, np.array([[1.0]]))
        with pytest.raises(ValueError, match=r"inputs must be \(2, 4\)"):
            TrainingSet(a, np.array([[1.0, 2.0], [1.0, 2.0]]))
        with pytest.raises(ValueError, match="targets must be"):
            TrainingSet(a.reshape(-1), np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="sorted ascending"):
            TrainingSet(a, np.array([[2.0, 1.0]]))


class TestForward:
    def test_zero_network_outputs_zero(self):
        p = init_mlp(2, hidden=(4,), seed=0)
        for w in p.weights:
            w[:] = 0.0
        for b in p.biases:
            b[:] = 0.0
        block = generate_spd(2, [1.0, 2.0], seed=1)
        assert np.array_equal(estimate(p, block), [0.0, 0.0])

    def test_bias_passthrough_is_sorted(self):
        p = init_mlp(2, hidden=(4,), seed=0)
        for w in p.weights:
            w[:] = 0.0
        p.biases[0][:] = 0.0
        p.biases[-1][:] = [3.0, -1.0]
        block = generate_spd(2, [1.0, 2.0], seed=1)
        assert np.array_equal(estimate(p, block), [-1.0, 3.0])

    def test_output_sorted_and_length_k(self):
        p = init_mlp(3, hidden=(8,), seed=2)
        block = generate_spd(3, [0.5, 1.0, 2.0], seed=3)
        out = estimate(p, block)
        assert out.shape == (3,)
        assert np.all(np.diff(out) >= 0)

    def test_dimension_mismatch_rejected(self):
        p = init_mlp(2, seed=0)
        with pytest.raises(ValueError):
            estimate(p, generate_spd(3, [1, 2, 3], seed=0))

    @pytest.mark.parametrize("hidden", [(0,), (4, 0), (-1,)])
    def test_hidden_size_below_one_rejected(self, hidden):
        with pytest.raises(ValueError, match="layer sizes must be >= 1"):
            init_mlp(2, hidden=hidden, seed=0)


class TestLoss:
    def test_zero_at_exact_predictions(self):
        # single sample, network rigged to output the targets exactly
        tset = TrainingSet(np.diag([1.0, 2.0]).reshape(1, -1), np.array([[1.0, 2.0]]))
        p = init_mlp(2, hidden=(4,), seed=0)
        for w in p.weights:
            w[:] = 0.0
        p.biases[0][:] = 0.0
        p.biases[-1][:] = [1.0, 2.0]
        assert mlp_loss(p, tset) == pytest.approx(0.0, abs=1e-30)

    def test_single_value_squared_error(self):
        tset = TrainingSet(np.array([[2.0]]), np.array([[2.0]]))
        p = init_mlp(1, hidden=(), seed=0)
        p.weights[0][:] = 0.0
        p.biases[0][:] = 0.0
        assert mlp_loss(p, tset) == pytest.approx(4.0)

    def test_componentwise_sum(self):
        block = np.diag([0.0 + 1e-9, 2.0])  # spectrum ~ [0, 2]
        tset = TrainingSet(block.reshape(1, -1), np.array([[1e-9, 2.0]]))
        p = init_mlp(2, hidden=(), seed=0)
        p.weights[0][:] = 0.0
        p.biases[0][:] = [1.0, 1.0]
        assert mlp_loss(p, tset) == pytest.approx(2.0, abs=1e-6)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            TrainingSet(np.empty((0, 4)), np.empty((0, 2)))


class TestGradient:
    def test_zero_at_zero_loss(self):
        tset = TrainingSet(np.diag([1.0, 2.0]).reshape(1, -1), np.array([[1.0, 2.0]]))
        p = init_mlp(2, hidden=(4,), seed=0)
        for w in p.weights:
            w[:] = 0.0
        p.biases[0][:] = 0.0
        p.biases[-1][:] = [1.0, 2.0]
        gw, gb = mlp_grad(p, tset)
        assert np.max(np.abs(flatten_grads(gw, gb))) < 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_finite_differences(self, seed):
        k = 2
        tset = synthesize_training_set(k, 3, (0.5, 3.0), seed=seed)
        p = init_mlp(k, hidden=(6,), seed=seed + 100)
        p.input_scale = 1.0 / max(1.0, tset.max_abs_entry())
        gw, gb = mlp_grad(p, tset)
        nw, nb = numeric_grad(p, tset)
        a = flatten_grads(gw, gb)
        b = flatten_grads(nw, nb)
        rel = np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
        assert rel < 1e-5

    # ids as the (hidden x k) grid gave them; the last row is the
    # mlp_train benchmark's shape, whose matmuls (inner lengths 17 and
    # 33) sum the bias row with the weights
    @pytest.mark.parametrize("k, hidden", [
        *(pytest.param(k, hidden, id=f"hidden{h}-{k}")
          for h, hidden in enumerate([(), (8,), (6, 5)]) for k in [1, 2, 4]),
        pytest.param(4, (32,), id="hidden3-4"),
    ])
    def test_batched_matches_sample_loop(self, k, hidden):
        tset = synthesize_training_set(k, 7, (0.5, 3.0), seed=10 * k + len(hidden))
        p = init_mlp(k, hidden=hidden, seed=k + 20)
        p.input_scale = 1.0 / max(1.0, tset.max_abs_entry())
        loss, gw_ref, gb_ref = loop_loss_and_grad(p, tset)
        assert abs(mlp_loss(p, tset) - loss) <= 1e-12 * loss
        gw, gb = mlp_grad(p, tset)
        for got, ref in zip(gw + gb, gw_ref + gb_ref):
            assert got.shape == ref.shape
            assert rel_err(got, ref) <= 1e-12

    def test_tied_outputs_keep_index_order(self):
        # constant outputs (2, 1, 1): the stable sort orders them as
        # indices 1, 2, 0, so output 1 meets the smallest target
        targets = np.array([1.0, 2.0, 3.0])
        tset = TrainingSet(np.diag(targets).reshape(1, -1), targets[None])
        p = init_mlp(3, hidden=(4,), seed=0)
        for w in p.weights:
            w[:] = 0.0
        p.biases[0][:] = 0.0
        p.biases[-1][:] = [2.0, 1.0, 1.0]
        gw, gb = mlp_grad(p, tset)
        sorted_out = np.array([1.0, 1.0, 2.0])
        expected = np.empty(3)
        expected[[1, 2, 0]] = 2.0 * (sorted_out - targets)
        assert np.array_equal(gb[-1], expected)
        assert mlp_loss(p, tset) == float(np.sum((sorted_out - targets) ** 2))
        _, _, gb_ref = loop_loss_and_grad(p, tset)
        assert np.array_equal(gb[-1], gb_ref[-1])

    def test_dimension_mismatch_rejected(self):
        tset = synthesize_training_set(3, 2, (0.5, 2.0), seed=0)
        with pytest.raises(ValueError):
            mlp_loss(init_mlp(2, seed=0), tset)

    def test_duplicate_sample_leaves_gradient_unchanged(self):
        tset1 = synthesize_training_set(2, 1, (0.5, 2.0), seed=3)
        tset2 = TrainingSet(np.repeat(tset1.inputs, 2, axis=0), np.repeat(tset1.targets, 2, axis=0))
        p = init_mlp(2, hidden=(4,), seed=1)
        g1 = flatten_grads(*mlp_grad(p, tset1))
        g2 = flatten_grads(*mlp_grad(p, tset2))
        assert np.allclose(g1, g2, atol=1e-15)


class TestTrain:
    def test_one_epoch_is_one_descent_step(self):
        tset = synthesize_training_set(2, 2, (0.5, 2.0), seed=4)
        p0 = init_mlp(2, hidden=(4,), seed=2)
        eta = 0.01
        trained, losses = train(p0, tset, TrainConfig(eta, 1))
        # replicate by hand
        manual = copy.deepcopy(p0)
        manual.input_scale = trained.input_scale
        gw, gb = mlp_grad(manual, tset)
        for w, dw in zip(manual.weights, gw):
            w -= eta * dw
        for b, db in zip(manual.biases, gb):
            b -= eta * db
        for a, b in zip(trained.weights, manual.weights):
            assert np.array_equal(a, b)
        assert len(losses) == 1

    def test_convex_case_monotone_decrease(self):
        # no hidden layer on k=1 data: plain least squares, loss convex
        tset = synthesize_training_set(1, 8, (0.5, 2.0), seed=7)
        p0 = init_mlp(1, hidden=(), seed=3)
        _, losses = train(p0, tset, TrainConfig(0.05, 80))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
        # and approaches the closed-form least-squares optimum
        x = tset.inputs * (1.0 / max(1.0, tset.max_abs_entry()))
        y = tset.targets[:, 0]
        xa = np.hstack([x, np.ones((len(y), 1))])
        coef, *_ = np.linalg.lstsq(xa, y, rcond=None)
        opt_loss = float(np.mean((xa @ coef - y) ** 2))
        _, long_losses = train(p0, tset, TrainConfig(0.05, 4000))
        assert long_losses[-1] <= opt_loss * (1 + 1e-3) + 1e-9

    def test_overfit_single_sample(self):
        tset = synthesize_training_set(2, 1, (0.5, 2.0), seed=9)
        p0 = init_mlp(2, hidden=(16,), seed=4)
        trained, losses = train(p0, tset, TrainConfig(0.05, 3000))
        out = estimate(trained, block_of(tset, 0))
        assert np.max(np.abs(out - tset.targets[0])) < 1e-3

    def test_loss_curve_matches_reference_loop(self):
        tset = synthesize_training_set(4, 6, (0.5, 3.0), seed=12)
        p0 = init_mlp(4, hidden=(8,), seed=6)
        eta = 0.02
        trained, losses = train(p0, tset, TrainConfig(eta, 5))
        ref = copy.deepcopy(p0)
        ref.input_scale = 1.0 / max(1.0, tset.max_abs_entry())
        ref_losses = []
        for _ in range(5):
            _, gw, gb = loop_loss_and_grad(ref, tset)
            for w, b, dw, db in zip(ref.weights, ref.biases, gw, gb):
                w -= eta * dw
                b -= eta * db
            ref_losses.append(loop_loss_and_grad(ref, tset)[0])
        assert len(losses) == 5
        for got, want in zip(losses, ref_losses):
            assert abs(got - want) <= 1e-12 * want
        for a, b in zip(trained.weights + trained.biases, ref.weights + ref.biases):
            assert rel_err(a, b) <= 1e-12

    # The default MLP config (lr 0.05) diverges on n=40, m=10; so do
    # the next two rates down. Epochs recorded when each training set
    # came to be drawn from one stream.
    @pytest.mark.parametrize("lr, epoch", [(0.05, 82), (0.03, 94), (0.02, 105)])
    def test_divergence_epoch_pinned(self, lr, epoch):
        cfg = config_from_dict({
            "matrix": {"kind": "generate", "n": 40, "spectrum": "0.5:5.0"},
            "agents": 10, "topology": "ring",
            "estimator": {"kind": "mlp", "learning_rate": lr},
            "mode": "matrix_form", "tol": 1e-8, "max_rounds": 500, "seed": 7,
        })
        with pytest.raises(TrainingDivergedError) as info:
            run_simulation(cfg)
        assert info.value.epoch == epoch

    # The mlp_train benchmark's shape: lr 0.01 with the default epochs,
    # samples and hidden sizes trains every agent and converges.
    @pytest.mark.parametrize("seed", range(5))
    def test_benchmark_shaped_run_trains(self, seed):
        cfg = config_from_dict({
            "matrix": {"kind": "generate", "n": 40, "spectrum": "0.5:5.0"},
            "agents": 10, "topology": "ring",
            "estimator": {"kind": "mlp", "learning_rate": 0.01},
            "mode": "matrix_form", "tol": 1e-8, "max_rounds": 2000, "seed": seed,
        })
        assert run_simulation(cfg).stop_reason == "converged"

    def test_stacked_agents_match_training_one_at_a_time(self, monkeypatch):
        # 42 rows over 10 agents: two 5x5 blocks, then eight 4x4 blocks
        cfg = config_from_dict({
            "matrix": {"kind": "generate", "n": 42, "spectrum": "0.5:5.0"},
            "agents": 10, "topology": "ring",
            "estimator": {"kind": "mlp", "learning_rate": 0.01, "hidden": [8, 8]},
            "mode": "matrix_form", "tol": 1e-8, "max_rounds": 500, "seed": 7,
        })
        estimators = []

        def kept(kinds, *args, **kwargs):
            estimators.extend(kinds)
            return estimate_stack(kinds, *args, **kwargs)

        monkeypatch.setattr(simulator, "estimate_stack", kept)
        run_simulation(cfg)
        assert [e.block_dim for e in estimators] == [5, 5] + [4] * 8
        ecfg = cfg.estimator
        for i, est in enumerate(estimators):
            k = est.block_dim
            tset = synthesize_training_set(k, ecfg.samples, ecfg.spectrum_range,
                                           child_seed(7, "mlp-data", i))
            p0 = init_mlp(k, ecfg.hidden, child_seed(7, "mlp-init", i))
            alone, _ = train(p0, tset, TrainConfig(ecfg.learning_rate, ecfg.epochs))
            assert est.layer_sizes == alone.layer_sizes == [k * k, 8, 8, k]
            assert est.input_scale == alone.input_scale
            for a, b in zip(est.weights + est.biases,
                            alone.weights + alone.biases):
                assert np.array_equal(a, b)

    def test_stacked_loss_curves_match_training_one_at_a_time(self):
        tsets = [synthesize_training_set(3, 6, (0.5, 4.0), seed=s) for s in range(4)]
        p0s = [init_mlp(3, hidden=(5,), seed=s) for s in range(4)]
        cfg = TrainConfig(0.02, 30)
        stacked, losses = train_stack(p0s, tsets, cfg)
        assert losses.shape == (4, 30)
        for p0, tset, p, curve in zip(p0s, tsets, stacked, losses):
            alone, alone_curve = train(p0, tset, cfg)
            assert curve.tolist() == alone_curve
            for a, b in zip(p.weights + p.biases, alone.weights + alone.biases):
                assert np.array_equal(a, b)

    # The training ranges' upper ends set when each network diverges on
    # its own at lr 0.05: 4 never (in 500 epochs), 10 at epoch 110, 20 at
    # 76, 100 at 44. The stack must report the epoch of the first agent
    # in order that diverges, even when a later one diverges sooner.
    @pytest.mark.parametrize("his, epoch", [
        ((10, 100), 110),
        ((4, 20, 100), 76),
        ((4, 100, 20), 44),
        ((4, 4, 100), 44),
    ])
    def test_stacked_divergence_reports_first_agent_in_order(self, his, epoch):
        tsets = [synthesize_training_set(2, 4, (0.5, hi), seed=1) for hi in his]
        p0s = [init_mlp(2, hidden=(4,), seed=0) for _ in his]
        cfg = TrainConfig(0.05, 500)
        serial = None
        for p0, tset in zip(p0s, tsets):
            try:
                train(p0, tset, cfg)
            except TrainingDivergedError as exc:
                serial = exc.epoch
                break
        assert serial == epoch
        with pytest.raises(TrainingDivergedError) as info:
            train_stack(p0s, tsets, cfg)
        assert info.value.epoch == epoch

    # sha256 of the trained parameters (each network's weights and biases
    # in layer order, then its input scale, as float64 bytes) and of the
    # (B, epochs) loss table, recorded when each training set came to be
    # drawn from one stream. The first row was recorded again when each
    # layer's bias became a row of its weight matmul, which moved the
    # last bits: trained parameters within 1.9e-10 relative and losses
    # within 8.4e-11 of the earlier bytes. The stack-vs-alone tests run
    # both sides through the same pass, so only a pin catches a change
    # both share.
    @pytest.mark.parametrize("k, hidden, nets, params_sha, losses_sha", [
        # the mlp_train workload's stack: 10 agents, 4x4 blocks
        pytest.param(4, (32,), 10,
                     "04f0a87fcb2489b7bf11c9964420c4493d1be336c7fbc6672d96712c9b6af236",
                     "a4be61140ed4137b39ae8ce16479d3a16cda6adba1416e48faf8a72dd0ed8672",
                     id="mlp_train-stack"),
        pytest.param(5, (8, 8), 3,
                     "710395a17f0c4f4e0707e2cbe50292c06a5fdc5136b307e55e1bb458d173dd45",
                     "da9707fb499ec48370f3703bc0acc6422380e48a4f8e86c81554e3ce84e5d0de",
                     id="k5-hidden8x8"),
    ])
    def test_stacked_training_bytes_pinned(self, k, hidden, nets, params_sha, losses_sha):
        # seeds and data as simulator._anchors derives them, at seed 7
        tsets = [synthesize_training_set(k, 32, (0.5, 5.0), child_seed(7, "mlp-data", i))
                 for i in range(nets)]
        p0s = [init_mlp(k, hidden, child_seed(7, "mlp-init", i)) for i in range(nets)]
        trained, losses = train_stack(p0s, tsets, TrainConfig(0.01, 200))
        digest = hashlib.sha256()
        for p in trained:
            for a in p.weights + p.biases:
                digest.update(np.ascontiguousarray(a).tobytes())
            digest.update(np.float64(p.input_scale).tobytes())
        assert digest.hexdigest() == params_sha
        assert hashlib.sha256(losses.tobytes()).hexdigest() == losses_sha

    @pytest.mark.parametrize("nets, sets", [(1, 2), (2, 1), (0, 0)])
    def test_stacked_rejects_count_mismatch(self, nets, sets):
        tsets = [synthesize_training_set(2, 3, (0.5, 2.0), seed=s) for s in range(sets)]
        p0s = [init_mlp(2, hidden=(4,), seed=s) for s in range(nets)]
        with pytest.raises(ValueError, match=f"got {nets} network\\(s\\) and "
                                             f"{sets} training set\\(s\\)"):
            train_stack(p0s, tsets, TrainConfig(0.01, 2))

    def test_stacked_rejects_mixed_hidden_sizes(self):
        tsets = [synthesize_training_set(2, 3, (0.5, 2.0), seed=s) for s in range(2)]
        p0s = [init_mlp(2, hidden=(4,), seed=0), init_mlp(2, hidden=(5,), seed=1)]
        with pytest.raises(ValueError, match=r"network 1 has layer sizes \[4, 5, 2\], "
                                             r"network 0 \[4, 4, 2\]"):
            train_stack(p0s, tsets, TrainConfig(0.01, 2))

    def test_stacked_rejects_mixed_sample_counts(self):
        tsets = [synthesize_training_set(2, count, (0.5, 2.0), seed=0) for count in (3, 4)]
        p0s = [init_mlp(2, hidden=(4,), seed=s) for s in range(2)]
        with pytest.raises(ValueError, match="set 1 has 4 samples of 2x2 blocks, set 0 3 of 2x2"):
            train_stack(p0s, tsets, TrainConfig(0.01, 2))

    def test_stacked_rejects_mixed_block_sizes(self):
        tsets = [synthesize_training_set(k, 3, (0.5, 2.0), seed=0) for k in (2, 3)]
        p0s = [init_mlp(2, hidden=(4,), seed=s) for s in range(2)]
        with pytest.raises(ValueError, match="set 1 has 3 samples of 3x3 blocks, set 0 3 of 2x2"):
            train_stack(p0s, tsets, TrainConfig(0.01, 2))

    def test_stacked_rejects_mismatched_network(self):
        tsets = [synthesize_training_set(2, 3, (0.5, 2.0), seed=s) for s in range(2)]
        with pytest.raises(ValueError, match="does not match network input"):
            train_stack([init_mlp(2, seed=0), init_mlp(3, seed=1)], tsets, TrainConfig(0.01, 2))

    def test_rejects_zero_epochs(self):
        with pytest.raises(ValueError):
            TrainConfig(0.1, 0)

    @pytest.mark.parametrize("lr", [0.0, -0.1, float("nan"), float("inf")])
    def test_rejects_non_positive_learning_rate(self, lr):
        with pytest.raises(ValueError, match="learning_rate must be positive"):
            TrainConfig(lr, 10)


class TestEstimate:
    @pytest.mark.parametrize("sigma", [-0.1, float("nan"), float("inf")])
    def test_noisy_rejects_bad_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma must be >= 0 and finite"):
            NoisyOracleEstimator(sigma)

    def test_oracle_on_diagonal(self):
        out = estimate(OracleEstimator(), DenseSymMatrix(np.diag([5.0, 7.0])))
        assert np.array_equal(out, [5.0, 7.0])

    def test_noisy_sigma_zero_equals_oracle(self):
        block = generate_spd(3, [1, 2, 3], seed=0)
        a = estimate(OracleEstimator(), block)
        b = estimate(NoisyOracleEstimator(0.0, seed=1), block)
        assert np.array_equal(a, b)

    def test_noisy_mean_and_variance(self):
        block = DenseSymMatrix([[5.0]])
        sigma = 0.1
        est = NoisyOracleEstimator(sigma, seed=11)
        draws = np.array([estimate(est, block, agent=0, round_=r)[0]
                          for r in range(10_000)])
        assert abs(draws.mean() - 5.0) < 5 * sigma / 100
        assert draws.var() <= 0.011

    def test_keyed_reproducibility(self):
        block = generate_spd(2, [1.0, 2.0], seed=0)
        est = NoisyOracleEstimator(0.05, seed=3)
        a = estimate(est, block, agent=4, round_=9)
        b = estimate(est, block, agent=4, round_=9)
        assert np.array_equal(a, b)
        c = estimate(est, block, agent=5, round_=9)
        assert not np.array_equal(a, c)

    def test_mlp_estimator_dispatch(self):
        p = init_mlp(2, hidden=(4,), seed=0)
        block = generate_spd(2, [1.0, 2.0], seed=1)
        (w0, w1), (b0, b1), scale = p.weights, p.biases, p.input_scale
        hand = np.sort(w1 @ np.tanh(w0 @ (block.a.ravel() * scale) + b0) + b1) / scale
        assert np.allclose(estimate(p, block), hand, rtol=1e-12, atol=0)

    def test_output_sorted(self):
        block = generate_spd(4, [0.5, 1, 2, 4], seed=2)
        for est in (OracleEstimator(), NoisyOracleEstimator(0.5, seed=0)):
            out = estimate(est, block, agent=1, round_=1)
            assert np.all(np.diff(out) >= 0)


def block_stack(k, count, seed=0):
    return np.stack([generate_spd(k, np.linspace(0.5, 5.0, k) + i, seed=seed + i).a
                     for i in range(count)])


class TestEstimateStack:
    """Anchors come from one stacked pass per block size; each row is
    bit-equal to the agent's own one-block ``estimate``."""

    AGENTS = [3, 4, 5, 6, 7]

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_noisy_rows_bit_equal_to_estimate(self, k):
        stack = block_stack(k, 5, seed=k)
        kinds = [NoisyOracleEstimator(0.3, seed=11)] * 5
        for j in {1, k}:
            rows = estimate_stack(kinds, stack, self.AGENTS, round_=2, tracked=j)
            assert rows.shape == (5, j)
            for row, kind, block, agent in zip(rows, kinds, stack, self.AGENTS):
                alone = estimate(kind, DenseSymMatrix(block), agent=agent, round_=2)[:j]
                assert row.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("k, hidden", [(1, (4,)), (3, (8,)), (4, (32, 16))])
    def test_mlp_rows_bit_equal_to_estimate(self, k, hidden):
        stack = block_stack(k, 5, seed=k)
        kinds = [init_mlp(k, hidden, seed=i) for i in range(5)]
        for j in {1, k}:
            rows = estimate_stack(kinds, stack, self.AGENTS, tracked=j)
            for row, kind, block in zip(rows, kinds, stack):
                assert row.tobytes() == estimate(kind, DenseSymMatrix(block))[:j].tobytes()

    def test_exact_oracle_solves_only_the_tracked_indices(self):
        stack = block_stack(4, 5)
        exact = estimate_stack([OracleEstimator()] * 5, stack, self.AGENTS, tracked=2)
        reference = [jacobi_eigen(DenseSymMatrix(b)).eigenvalues[:2] for b in stack]
        assert np.abs(exact - reference).max() <= 1e-12

    def test_one_kind_per_stack(self):
        with pytest.raises(TypeError, match="one estimator kind"):
            estimate_stack([OracleEstimator(), NoisyOracleEstimator(0.1)], block_stack(2, 2),
                           [0, 1])

    def test_unknown_kind_rejected(self):
        with pytest.raises(TypeError, match="unknown estimator kind"):
            estimate("bogus", generate_spd(2, [1.0, 2.0], seed=0))

    def test_run_anchors_bit_equal_to_per_agent_estimates(self, monkeypatch, tmp_path):
        # Each call's kinds, blocks, agents and anchors
        calls = []

        def kept(kinds, blocks, agents, **kwargs):
            calls.append((kinds, blocks, list(agents),
                          estimate_stack(kinds, blocks, agents, **kwargs)))
            return calls[-1][-1]

        monkeypatch.setattr(simulator, "estimate_stack", kept)
        params = tmp_path / "params.json"
        save_params(init_mlp(4, hidden=(8,), seed=1), params)
        # n = 42 over 10 agents: a stack of two 5x5 blocks, then eight 4x4.
        # A pretrained network takes one block size, so it runs on n = 40:
        # one stack of ten 4x4 blocks.
        for n, est, runs in (
                (42, {"kind": "oracle"}, [2, 8]),
                (42, {"kind": "noisy_oracle", "sigma": 0.2}, [2, 8]),
                (42, {"kind": "mlp", "learning_rate": 0.01, "epochs": 5, "samples": 4,
                      "hidden": [8]}, [2, 8]),
                (40, {"kind": "mlp", "params_path": str(params)}, [10])):
            calls.clear()
            cfg = config_from_dict({
                "matrix": {"kind": "generate", "n": n, "spectrum": "0.5:5.0"}, "agents": 10,
                "topology": "ring", "estimator": est, "mode": "matrix_form", "tol": 1e-6,
                "max_rounds": 5, "seed": 3, "tracked": 2})
            run_simulation(cfg)
            A = generate_spd(n, np.array(cfg.matrix.spectrum), child_seed(3, "matrix"))
            part = partition_rows(n, 10)
            assert [len(agents) for _, _, agents, _ in calls] == runs
            assert [i for _, _, agents, _ in calls for i in agents] == list(range(10))
            for kinds, blocks, agents, anchors in calls:
                for kind, block, i, anchor in zip(kinds, blocks, agents, anchors):
                    lo, hi = part.offsets[i], part.offsets[i + 1]
                    own = DenseSymMatrix(A.a[lo:hi, lo:hi])
                    assert block.tobytes() == own.a.tobytes()
                    alone = estimate(kind, own, agent=i, round_=0)[:2]
                    assert anchor.tobytes() == alone.tobytes()


class TestParamsFile:
    def test_bit_exact_round_trip(self, tmp_path):
        tset = synthesize_training_set(2, 2, (0.5, 2.0), seed=6)
        p, _ = train(init_mlp(2, hidden=(5,), seed=5), tset, TrainConfig(0.05, 10))
        path = tmp_path / "params.json"
        save_params(p, path)
        q = load_params(path)
        assert q.layer_sizes == p.layer_sizes
        assert q.input_scale == p.input_scale
        for a, b in zip(p.weights + p.biases, q.weights + q.biases):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_input_scale(self, scale):
        p = init_mlp(2, hidden=(3,), seed=0)
        with pytest.raises(ValueError, match="input_scale must be finite and > 0"):
            MlpParams(p.layer_sizes, p.weights, p.biases, scale)

    def test_validation_of_shapes(self):
        with pytest.raises(ValueError):
            MlpParams([4, 2], [np.zeros((3, 4))], [np.zeros(3)])
