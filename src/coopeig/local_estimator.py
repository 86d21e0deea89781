"""Per-agent local spectral estimators: the exact oracle (block
eigenvalues from ``matrix_core.eigenvalues``, the solve behind the truth
and the SLEM too), a variance-bounded noisy oracle, and a small
fully-connected network trained by full-batch gradient descent on
(block, spectrum) pairs. Agents that share a block size are estimated
as one stack: one Sturm solve, for only the tracked indices under the
exact oracle and for all k under the noisy one, whose noise may
reorder them; or one forward pass of the stacked networks.

The network maps a flattened k x k block to k eigenvalue predictions
(tanh hidden layers, linear output, sorted ascending). Inputs and
targets are scaled by 1/max(1, max|entry|) during training so tanh
stays in its active range; the scale is stored in the parameters and
undone at prediction time. Networks of one shape train together as a
stack, one batched pass per epoch for all of them.
"""

import json
from dataclasses import dataclass

import numpy as np

from .matrix_core import DenseSymMatrix, eigenvalues, spd_stack
from .seeding import keyed_rng


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
        if not (np.isfinite(self.input_scale) and self.input_scale > 0):
            raise ValueError(f"input_scale must be finite and > 0, got {self.input_scale}")
        self.layer_sizes = sizes

    @property
    def block_dim(self) -> int:
        k = self.layer_sizes[-1]
        if k * k != self.layer_sizes[0]:
            raise ValueError("input layer is not a flattened square block")
        return k


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


@dataclass(frozen=True)
class TrainingSet:
    """Training data for k x k blocks: row s of ``inputs`` (S, k*k) is a
    flattened block, row s of ``targets`` (S, k) its spectrum, sorted
    ascending and taken as given: no solver checks it."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        if self.targets.ndim != 2 or 0 in self.targets.shape:
            raise ValueError(f"targets must be (S, k), S, k >= 1, got {self.targets.shape}")
        s, k = self.targets.shape
        if self.inputs.shape != (s, k * k):
            raise ValueError(f"inputs must be ({s}, {k * k}), got {self.inputs.shape}")
        if np.any(np.diff(self.targets, axis=1) < 0):
            raise ValueError("targets must be sorted ascending")

    def max_abs_entry(self) -> float:
        return float(np.max(np.abs(self.inputs)))


def synthesize_training_set(k: int, count: int, spectrum_range, seed: int) -> TrainingSet:
    """SPD blocks with spectra drawn uniformly from [lo, hi]; each
    block's target is the sorted spectrum it was built from.
    Deterministic per seed."""
    lo, hi = spectrum_range
    if k < 1 or count < 1:
        raise ValueError(f"need k >= 1 and count >= 1, got k={k}, count={count}")
    if not 0 < lo < hi < np.inf:
        raise ValueError("need 0 < lo < hi < inf")
    rng = keyed_rng(seed, "training-spectra")
    spectra, seeds = np.empty((count, k)), []
    for idx in range(count):
        spectra[idx] = np.sort(rng.uniform(lo, hi, k))
        # not int(): child_seed hashes the np.int64's repr (NumPy >= 2)
        seeds.append(rng.integers(2**63))
    blocks = spd_stack(spectra, seeds)
    blocks = (blocks + blocks.transpose(0, 2, 1)) / 2.0  # DenseSymMatrix's average
    return TrainingSet(blocks.reshape(count, -1), spectra)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    epochs: int

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


# A stack of B networks of one shape is held as per-layer arrays with a
# leading network axis: weights (B, out, in), biases (B, out) and input
# scales (B, 1, 1). Network b sees its own rows of the stacked inputs
# (B, S, k*k) and targets (B, S, k).

def _stack_networks(ps, entries: int):
    """The stacked weights, biases and input scales of networks that
    each take flattened blocks of ``entries`` entries."""
    for p in ps:
        k = p.block_dim
        if entries != k * k:
            raise ValueError(f"block of {entries} entries does not match network input ({k}x{k})")
    weights = [np.stack(ws) for ws in zip(*(p.weights for p in ps))]
    biases = [np.stack(bs) for bs in zip(*(p.biases for p in ps))]
    scale = np.array([p.input_scale for p in ps]).reshape(-1, 1, 1)
    return weights, biases, scale


def _forward_raw(weights, biases, scale, x: np.ndarray):
    """Scaled-space forward pass of a stack of networks, each on its
    own flattened blocks in ``x`` (B, S, k*k); returns raw (unsorted)
    outputs (B, S, k) and the per-layer activations needed for
    backprop."""
    h = x * scale
    acts = [h]
    last = len(weights) - 1
    for li, (w, b) in enumerate(zip(weights, biases)):
        z = h @ w.transpose(0, 2, 1) + b[:, None, :]
        h = z if li == last else np.tanh(z)
        acts.append(h)
    return h, acts


def mlp_forward(p: MlpParams, block: DenseSymMatrix) -> np.ndarray:
    """Predicted eigenvalues, unscaled and sorted ascending."""
    return estimate(MlpEstimator(p), block)


# Divergence is reported by the finite-loss check in train_stack, so the
# overflow on the way there is not warned about.
_QUIET_OVERFLOW = dict(over="ignore", invalid="ignore")


def _loss_and_grad(weights, biases, scale, inputs, targets, grad: bool = True):
    """Each network's mlp_loss (B,) and, if ``grad``, the per-layer
    mlp_grad stacks, from one batched forward pass."""
    nnet, nsamp, _ = targets.shape
    raw, acts = _forward_raw(weights, biases, scale, inputs)
    out = raw / scale
    # (network, sample, output) index of each sorted value
    idx = (np.arange(nnet)[:, None, None], np.arange(nsamp)[None, :, None],
           np.argsort(out, axis=2, kind="stable"))
    resid = out[idx] - targets
    loss = (resid ** 2).reshape(nnet, -1).sum(axis=1) / nsamp
    if not grad:
        return loss, None, None
    # d loss / d raw, routed back through each sample's sort permutation
    d = np.empty_like(raw)
    d[idx] = 2.0 * resid / (nsamp * scale)
    last = len(weights) - 1
    gw, gb = [None] * len(weights), [None] * len(biases)
    for li in range(last, -1, -1):
        if li != last:
            d = d * (1.0 - acts[li + 1] ** 2)  # tanh'
        gw[li] = d.transpose(0, 2, 1) @ acts[li]
        gb[li] = d.sum(axis=1)
        if li > 0:
            d = d @ weights[li]
    return loss, gw, gb


def _one_network(p: MlpParams, tset: TrainingSet, grad: bool):
    net = _stack_networks([p], tset.inputs.shape[1])
    with np.errstate(**_QUIET_OVERFLOW):
        return _loss_and_grad(*net, tset.inputs[None], tset.targets[None], grad)


def mlp_loss(p: MlpParams, tset: TrainingSet) -> float:
    """Mean over samples of the summed squared per-eigenvalue error."""
    return float(_one_network(p, tset, grad=False)[0][0])


def mlp_grad(p: MlpParams, tset: TrainingSet):
    """Exact reverse-mode gradient of mlp_loss. The output sort is
    treated as the fixed permutation chosen by the forward pass (stable,
    ties broken by original index)."""
    _, gw, gb = _one_network(p, tset, grad=True)
    return [g[0] for g in gw], [g[0] for g in gb]


def train_stack(ps, tsets, cfg: TrainConfig):
    """Full-batch gradient descent of each network ``ps[b]`` (one shape
    for all) on ``tsets[b]`` (one size for all), all at once; each ends
    bit-equal to training it alone. Returns (final params list,
    (B, epochs) loss curves). On a non-finite loss raises
    TrainingDivergedError with the epoch of the lowest-index network
    that diverges, as training them one by one would: once network i
    diverges, only those below it train on. The pass that gives the
    loss after one update also gives the gradient for the next, so
    ``epochs`` updates take ``epochs + 1`` passes."""
    inputs = np.stack([t.inputs for t in tsets])
    targets = np.stack([t.targets for t in tsets])
    weights, biases, _ = _stack_networks(ps, inputs.shape[2])
    scale = np.array([1.0 / max(1.0, t.max_abs_entry()) for t in tsets]).reshape(-1, 1, 1)
    losses = np.empty((len(ps), cfg.epochs))
    live, diverged = len(ps), None  # networks [0, live) still train
    with np.errstate(**_QUIET_OVERFLOW):
        _, gw, gb = _loss_and_grad(weights, biases, scale, inputs, targets)
        for epoch in range(cfg.epochs):
            for w, b, dw, db in zip(weights, biases, gw, gb):
                w[:live] -= cfg.learning_rate * dw[:live]
                b[:live] -= cfg.learning_rate * db[:live]
            loss, gw, gb = _loss_and_grad(
                [w[:live] for w in weights], [b[:live] for b in biases], scale[:live],
                inputs[:live], targets[:live], grad=epoch + 1 < cfg.epochs)
            losses[:live, epoch] = loss
            bad = np.flatnonzero(~np.isfinite(loss))
            if bad.size:
                live, diverged = bad[0], epoch
                if live == 0:
                    break
    if diverged is not None:
        raise TrainingDivergedError(diverged)
    sizes = ps[0].layer_sizes
    return [MlpParams(list(sizes), [w[b] for w in weights], [bb[b] for bb in biases],
                      float(scale[b, 0, 0]))
            for b in range(len(ps))], losses


def train(p: MlpParams, tset: TrainingSet, cfg: TrainConfig):
    """``train_stack`` of one network. Returns (final params, per-epoch
    loss curve); raises TrainingDivergedError on a non-finite loss."""
    (params,), losses = train_stack([p], [tset], cfg)
    return params, losses[0].tolist()


@dataclass(frozen=True)
class OracleEstimator:
    """Exact local spectra: the block's smallest eigenvalues, sorted
    ascending; all k of them unless fewer are tracked."""


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


def estimate_stack(kinds, blocks: np.ndarray, agents, round_: int = 0,
                   tracked=None) -> np.ndarray:
    """Local eigenvalue estimates for a (B, k, k) stack of blocks as
    DenseSymMatrix holds them: row b is the estimate of agent
    ``agents[b]`` with ``kinds[b]`` (one kind for all) in round
    ``round_``, its smallest ``tracked`` values (default k), sorted
    ascending. One pass serves the stack: one Sturm solve, or one
    forward pass of the stacked networks. The exact oracle solves only
    the tracked indices; the noisy oracle solves all k, since its noise
    may reorder them. Each row is bit-equal to estimating its block alone
    for the same indices."""
    nb, k, _ = blocks.shape
    j = k if tracked is None else tracked
    kind = type(kinds[0])
    if any(type(e) is not kind for e in kinds):
        raise TypeError("a stack takes one estimator kind")
    if kind is OracleEstimator:
        # Sturm brackets each index on its own, so rounding may swap near-equal values.
        return np.sort(eigenvalues(blocks, tuple(range(j))), axis=1)
    if kind is NoisyOracleEstimator:
        values = np.sort(eigenvalues(blocks, tuple(range(k))), axis=1)
        for b, (e, agent) in enumerate(zip(kinds, agents)):
            if e.sigma != 0.0:
                noise = keyed_rng(e.seed, "estimator-noise", agent, round_).normal(0.0, e.sigma, k)
                values[b] = np.sort(values[b] + noise)
        return values[:, :j]
    if kind is MlpEstimator:
        weights, biases, scale = _stack_networks([e.params for e in kinds], k * k)
        raw, _ = _forward_raw(weights, biases, scale, blocks.reshape(nb, 1, -1))
        return np.sort(raw[:, 0] / scale[:, 0], axis=1)[:, :j]
    raise TypeError(f"unknown estimator kind {kinds[0]!r}")


def estimate(kind, block: DenseSymMatrix,
             agent: int = 0, round_: int = 0) -> np.ndarray:
    """Local eigenvalue estimates for one block: length k, sorted; the
    one-block stack of ``estimate_stack``."""
    return estimate_stack([kind], block.a[None], [agent], round_)[0]


def save_params(p: MlpParams, path) -> None:
    data = {
        "layer_sizes": p.layer_sizes,
        "weights": [w.tolist() for w in p.weights],
        "biases": [b.tolist() for b in p.biases],
        "input_scale": p.input_scale,
    }
    with open(path, "w") as f:
        json.dump(data, f)


_PARAM_TYPES = {
    "layer_sizes": lambda v: [int(s) for s in v],
    "weights": lambda v: [np.array(w, dtype=float) for w in v],
    "biases": lambda v: [np.array(b, dtype=float) for b in v],
    "input_scale": float,
}


def load_params(path) -> MlpParams:
    """Read ``save_params`` output. A file that is not a mapping, lacks
    a key or holds a value of the wrong type raises a ValueError naming
    the key; every ValueError names the file."""
    with open(path) as f:
        data = json.load(f)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: network parameters must be a mapping")
    values = []
    for key, convert in _PARAM_TYPES.items():
        if key not in data:
            raise ValueError(f"{path}: network parameters lack key {key!r}")
        try:
            values.append(convert(data[key]))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: bad value for {key!r}: {exc}") from None
    try:
        return MlpParams(*values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
