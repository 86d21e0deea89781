"""Per-agent local spectral estimators: the exact Jacobi oracle, a
variance-bounded noisy oracle, and a small fully-connected network
trained by full-batch gradient descent on (block, spectrum) pairs.

The network maps a flattened k x k block to k eigenvalue predictions
(tanh hidden layers, linear output, sorted ascending). Inputs and
targets are scaled by 1/max(1, max|entry|) during training so tanh
stays in its active range; the scale is stored in the parameters and
undone at prediction time.
"""

import json
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .matrix_core import DenseSymMatrix, generate_spd, jacobi_eigen
from .seeding import keyed_rng

TARGET_CHECK_TOL = 1e-10


class TrainingDivergedError(RuntimeError):
    def __init__(self, epoch: int):
        super().__init__(f"non-finite loss at epoch {epoch}")
        self.epoch = epoch


@dataclass
class MlpParams:
    """Weights/biases of the local estimator network, plus the input
    scale recorded at training time."""

    layer_sizes: list  # [k*k, hidden..., k]
    weights: list  # per layer, shape (out, in)
    biases: list  # per layer, shape (out,)
    input_scale: float = 1.0

    def __post_init__(self):
        sizes = [int(s) for s in self.layer_sizes]
        if len(sizes) < 2:
            raise ValueError("need at least input and output layers")
        if len(self.weights) != len(sizes) - 1 or len(self.biases) != len(sizes) - 1:
            raise ValueError("weights/biases do not match layer sizes")
        for li, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (sizes[li + 1], sizes[li]) or b.shape != (sizes[li + 1],):
                raise ValueError(f"layer {li} has incompatible shapes")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError("parameters must be finite")
        self.layer_sizes = sizes

    @property
    def block_dim(self) -> int:
        k = self.layer_sizes[-1]
        if k * k != self.layer_sizes[0]:
            raise ValueError("input layer is not a flattened square block")
        return k

    def copy(self) -> "MlpParams":
        return MlpParams(
            list(self.layer_sizes),
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            self.input_scale,
        )


def init_mlp(k: int, hidden=(32,), seed: int = 0) -> MlpParams:
    """Seeded uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    sizes = [k * k, *[int(h) for h in hidden], k]
    if min(sizes) < 1:
        raise ValueError(f"layer sizes must be >= 1, got {sizes}")
    rng = keyed_rng(seed, "mlp-init")
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, (fan_out, fan_in)))
        biases.append(rng.uniform(-bound, bound, fan_out))
    return MlpParams(sizes, weights, biases)


@dataclass
class TrainingSet:
    """(block, sorted spectrum) pairs of one fixed block size, also held
    stacked: ``inputs`` is (S, k*k), the flattened blocks, and
    ``targets`` is (S, k). Targets are checked against the Jacobi oracle
    at construction."""

    samples: list  # of (DenseSymMatrix, np.ndarray)
    inputs: np.ndarray = field(init=False, repr=False)
    targets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._stack()
        oracle = np.stack([jacobi_eigen(block).eigenvalues for block, _ in self.samples])
        if np.max(np.abs(oracle - self.targets)) > TARGET_CHECK_TOL:
            raise ValueError("targets disagree with the eigensolver oracle")

    @classmethod
    def _prescribed(cls, samples) -> "TrainingSet":
        """A set whose targets are the spectra the blocks were built
        from, so the oracle check is skipped."""
        tset = cls.__new__(cls)
        tset.samples = samples
        tset._stack()
        return tset

    def _stack(self):
        if not self.samples:
            raise ValueError("training set must be non-empty")
        k = self.samples[0][0].n
        self.samples = [(block, np.asarray(targets, dtype=float))
                        for block, targets in self.samples]
        if any(block.n != k or targets.shape != (k,) for block, targets in self.samples):
            raise ValueError("all samples must share one block size")
        self.inputs = np.stack([block.a.reshape(-1) for block, _ in self.samples])
        self.targets = np.stack([targets for _, targets in self.samples])
        if np.any(np.diff(self.targets, axis=1) < 0):
            raise ValueError("targets must be sorted ascending")

    @property
    def k(self) -> int:
        return self.samples[0][0].n

    def max_abs_entry(self) -> float:
        return float(np.max(np.abs(self.inputs)))


def synthesize_training_set(k: int, count: int, spectrum_range, seed: int) -> TrainingSet:
    """SPD blocks with spectra drawn uniformly from [lo, hi]; each
    block's target is the sorted spectrum it was built from.
    Deterministic per seed."""
    lo, hi = spectrum_range
    if not 0 < lo < hi:
        raise ValueError("need 0 < lo < hi")
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = keyed_rng(seed, "training-spectra")
    samples = []
    for idx in range(count):
        spectrum = np.sort(rng.uniform(lo, hi, k))
        samples.append((generate_spd(k, spectrum, rng.integers(2**63)), spectrum))
    return TrainingSet._prescribed(samples)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    epochs: int

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


def _forward_raw(p: MlpParams, x: np.ndarray):
    """Scaled-space forward pass of the flattened blocks in the rows of
    ``x`` (S, k*k); returns raw (unsorted) outputs (S, k) and the
    per-layer activations needed for backprop."""
    k = p.block_dim
    if x.shape[1] != k * k:
        raise ValueError(f"block of {x.shape[1]} entries does not match network input ({k}x{k})")
    h = x * p.input_scale
    acts = [h]
    last = len(p.weights) - 1
    for li, (w, b) in enumerate(zip(p.weights, p.biases)):
        z = h @ w.T + b
        h = z if li == last else np.tanh(z)
        acts.append(h)
    return h, acts


def mlp_forward(p: MlpParams, block: DenseSymMatrix) -> np.ndarray:
    """Predicted eigenvalues, unscaled and sorted ascending."""
    raw, _ = _forward_raw(p, block.a.reshape(1, -1))
    return np.sort(raw[0] / p.input_scale)


# Divergence is reported by the finite-loss check in train, so the
# overflow on the way there is not warned about.
_QUIET_OVERFLOW = dict(over="ignore", invalid="ignore")


def _loss_and_grad(p: MlpParams, tset: TrainingSet, grad: bool = True):
    """mlp_loss and, if ``grad``, mlp_grad from one batched forward
    pass."""
    nsamp = len(tset.samples)
    raw, acts = _forward_raw(p, tset.inputs)
    out = raw / p.input_scale
    rows = np.arange(nsamp)[:, None]
    perm = np.argsort(out, axis=1, kind="stable")
    resid = out[rows, perm] - tset.targets
    loss = float(np.sum(resid ** 2)) / nsamp
    if not grad:
        return loss, None, None
    # d loss / d raw, routed back through each sample's sort permutation
    d = np.empty_like(raw)
    d[rows, perm] = 2.0 * resid / (nsamp * p.input_scale)
    last = len(p.weights) - 1
    gw, gb = [None] * len(p.weights), [None] * len(p.biases)
    for li in range(last, -1, -1):
        if li != last:
            d = d * (1.0 - acts[li + 1] ** 2)  # tanh'
        gw[li] = d.T @ acts[li]
        gb[li] = d.sum(axis=0)
        if li > 0:
            d = d @ p.weights[li]
    return loss, gw, gb


def mlp_loss(p: MlpParams, tset: TrainingSet) -> float:
    """Mean over samples of the summed squared per-eigenvalue error."""
    with np.errstate(**_QUIET_OVERFLOW):
        return _loss_and_grad(p, tset, grad=False)[0]


def mlp_grad(p: MlpParams, tset: TrainingSet):
    """Exact reverse-mode gradient of mlp_loss. The output sort is
    treated as the fixed permutation chosen by the forward pass (stable,
    ties broken by original index)."""
    with np.errstate(**_QUIET_OVERFLOW):
        _, gw, gb = _loss_and_grad(p, tset)
    return gw, gb


def train(p: MlpParams, tset: TrainingSet, cfg: TrainConfig):
    """Full-batch gradient descent. Returns (final params, per-epoch
    loss curve); raises TrainingDivergedError on a non-finite loss.
    The pass that gives the loss after one update also gives the
    gradient for the next, so ``epochs`` updates take ``epochs + 1``
    passes."""
    params = p.copy()
    params.input_scale = 1.0 / max(1.0, tset.max_abs_entry())
    losses = []
    with np.errstate(**_QUIET_OVERFLOW):
        _, gw, gb = _loss_and_grad(params, tset)
        for epoch in range(cfg.epochs):
            for w, b, dw, db in zip(params.weights, params.biases, gw, gb):
                w -= cfg.learning_rate * dw
                b -= cfg.learning_rate * db
            loss, gw, gb = _loss_and_grad(params, tset, grad=epoch + 1 < cfg.epochs)
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch)
            losses.append(loss)
    return params, losses


@dataclass(frozen=True)
class OracleEstimator:
    """Exact local spectra from the Jacobi eigensolver."""


@dataclass(frozen=True)
class NoisyOracleEstimator:
    """Oracle plus i.i.d. zero-mean Gaussian noise per component,
    keyed on (seed, agent, round) so draws are order-independent."""

    sigma: float
    seed: int = 0

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")


@dataclass(frozen=True)
class MlpEstimator:
    params: MlpParams


Estimator = Union[OracleEstimator, NoisyOracleEstimator, MlpEstimator]


def estimate(kind: Estimator, block: DenseSymMatrix,
             agent: int = 0, round_: int = 0) -> np.ndarray:
    """Local eigenvalue estimates for one block: length k, sorted."""
    if isinstance(kind, OracleEstimator):
        return jacobi_eigen(block).eigenvalues
    if isinstance(kind, NoisyOracleEstimator):
        values = jacobi_eigen(block).eigenvalues
        if kind.sigma == 0.0:
            return values
        rng = keyed_rng(kind.seed, "estimator-noise", agent, round_)
        return np.sort(values + rng.normal(0.0, kind.sigma, block.n))
    if isinstance(kind, MlpEstimator):
        return mlp_forward(kind.params, block)
    raise TypeError(f"unknown estimator kind {kind!r}")


def save_params(p: MlpParams, path) -> None:
    data = {
        "layer_sizes": p.layer_sizes,
        "weights": [w.tolist() for w in p.weights],
        "biases": [b.tolist() for b in p.biases],
        "input_scale": p.input_scale,
    }
    with open(path, "w") as f:
        json.dump(data, f)


def load_params(path) -> MlpParams:
    with open(path) as f:
        data = json.load(f)
    return MlpParams(
        data["layer_sizes"],
        [np.array(w, dtype=float) for w in data["weights"]],
        [np.array(b, dtype=float) for b in data["biases"]],
        float(data["input_scale"]),
    )
