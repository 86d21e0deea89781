"""Per-agent local spectral estimators: the exact oracle (block
eigenvalues from ``numpy.linalg.eigvalsh``, the solve behind the truth
and the SLEM too), a variance-bounded noisy oracle, and a small
fully-connected network trained by full-batch gradient descent on
(block, spectrum) pairs. Agents that share a block size are estimated
as one stack: one ``eigvalsh`` call, which both oracles share, or one
forward pass of the stacked networks.

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

from .matrix_core import DenseSymMatrix, naming, spd_stack
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
        if sizes[0] != sizes[-1] ** 2:
            raise ValueError("input layer is not a flattened square block")
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
        return self.layer_sizes[-1]


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
    block's target is the sorted spectrum it was built from. One
    generator, ``keyed_rng(seed, "training-set")``, draws the (count, k)
    spectra, then the (count, k, k) Gaussians for ``spd_stack``."""
    lo, hi = spectrum_range
    if k < 1 or count < 1:
        raise ValueError(f"need k >= 1 and count >= 1, got k={k}, count={count}")
    if not 0 < lo < hi < np.inf:
        raise ValueError("need 0 < lo < hi < inf")
    rng = keyed_rng(seed, "training-set")
    spectra = np.sort(rng.uniform(lo, hi, (count, k)), axis=1)
    blocks = spd_stack(spectra, rng.standard_normal((count, k, k)))
    blocks = (blocks + blocks.transpose(0, 2, 1)) / 2.0  # DenseSymMatrix's average
    return TrainingSet(blocks.reshape(count, -1), spectra)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    epochs: int

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be positive and finite")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


# A stack of B networks of one shape is held in one (B, P) array whose
# row b is network b's parameters, layer by layer: an (in + 1, out)
# block in row order, the weights transposed to (in, out), then the
# biases as one last row. Each layer (B, in + 1, out) is a view into
# that array, and the gradient array is laid out alike, so one update
# moves every parameter of the stack. Each layer's input (B, S, in + 1)
# carries a last column of ones, so one matmul adds the bias row in the
# forward pass and sums the bias gradient over samples in the backward
# pass. Network b sees its own rows of the stacked inputs (B, S, k*k)
# and targets (B, S, k), scaled by its own input scale.

def _layers(flat: np.ndarray, sizes):
    """Per-layer (B, in + 1, out) views into a (B, P) parameter or
    gradient array of networks with ``sizes``: rows 0..in-1 the
    transposed weights, the last row the biases."""
    layers, at = [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        n = (fan_in + 1) * fan_out
        layers.append(flat[:, at:at + n].reshape(-1, fan_in + 1, fan_out))
        at += n
    return layers


def _unfold(layers, b: int):
    """Network b's weights (out, in) and biases (out,), as MlpParams
    holds them, copied out of ``_layers`` views."""
    return [l[b, :-1].T.copy() for l in layers], [l[b, -1].copy() for l in layers]


# Divergence is reported by the finite-loss check in train_stack, so the
# overflow on the way there is not warned about.
_QUIET_OVERFLOW = dict(over="ignore", invalid="ignore")


class _Stack:
    """Networks ``ps`` of one shape on their stacked inputs ``x``
    (B, S, k*k), with input scales ``scale`` (B, 1, 1): the parameters
    ``theta`` (B, P) with ``layers`` its ``_layers`` views, the gradient
    ``grad`` laid out alike when ``grad`` is set, each layer's input
    (B, S, in + 1) with its column of ones and each layer's output
    (B, S, out), one buffer each for the passes."""

    def __init__(self, ps, x: np.ndarray, scale: np.ndarray, grad: bool = False):
        nnet, nsamp, entries = x.shape
        self.sizes = sizes = ps[0].layer_sizes
        for b, p in enumerate(ps):
            k = p.block_dim
            if entries != k * k:
                raise ValueError(f"block of {entries} entries does not match "
                                 f"network input ({k}x{k})")
            if p.layer_sizes != sizes:
                raise ValueError(f"a stack takes one network shape: network {b} has "
                                 f"layer sizes {p.layer_sizes}, network 0 {sizes}")
        n_params = sum(o * (i + 1) for i, o in zip(sizes[:-1], sizes[1:]))
        self.theta = np.empty((nnet, n_params))
        self.layers = _layers(self.theta, sizes)
        for layer, ws, bs in zip(self.layers, zip(*(p.weights for p in ps)),
                                 zip(*(p.biases for p in ps))):
            layer[:, :-1] = np.transpose(ws, (0, 2, 1))
            layer[:, -1] = bs
        self.scale = scale
        # ins[l] is layer l's input, ins[0] the scaled blocks; the ones
        # column is set here and never written again
        self.ins = [np.ones((nnet, nsamp, n + 1)) for n in sizes[:-1]]
        np.multiply(x, scale, out=self.ins[0][..., :-1])
        self.outs = [np.empty((nnet, nsamp, n)) for n in sizes[1:]]
        # start of each (network, sample) output row in flat order
        self.rows = np.arange(0, nnet * nsamp * sizes[-1], sizes[-1]).reshape(nnet, nsamp, 1)
        if grad:
            self.grad = np.empty_like(self.theta)
            self.glayers = _layers(self.grad, sizes)
            # d loss / d (output of layer l), one buffer per layer
            self.deltas = [np.empty_like(z) for z in self.outs]
            self.half_scaled_count = nsamp * scale / 2.0

    def forward(self) -> np.ndarray:
        """Scaled-space forward pass (tanh hidden layers, linear output),
        each layer's output written into its buffer and copied into the
        next layer's input; returns the raw (unsorted) outputs (B, S, k)."""
        last = len(self.layers) - 1
        for li, layer in enumerate(self.layers):
            z = self.outs[li]
            np.matmul(self.ins[li], layer, out=z)
            if li != last:
                np.tanh(z, out=z)
                self.ins[li + 1][..., :-1] = z
        return self.outs[-1]

    def loss(self, targets: np.ndarray, grad: bool = False) -> np.ndarray:
        """Each network's mlp_loss (B,) from one forward pass; if
        ``grad``, its mlp_grad is written into ``self.grad`` too."""
        out = self.forward() / self.scale
        nnet, nsamp, _ = out.shape
        # flat position of each sorted value: sort order plus row start
        order = np.argsort(out, axis=2, kind="stable")
        order += self.rows
        resid = out.take(order)
        resid -= targets
        loss = np.square(resid).reshape(nnet, -1).sum(axis=1) / nsamp
        if not grad:
            return loss
        # d loss / d raw = 2 resid / (nsamp * scale), routed back through
        # each sample's sort order
        resid /= self.half_scaled_count
        self.deltas[-1].reshape(-1)[order] = resid
        last = len(self.layers) - 1
        for li in range(last, -1, -1):
            d = self.deltas[li]
            if li != last:
                a = self.outs[li]  # tanh' = 1 - a^2, in a's buffer
                np.square(a, out=a)
                np.subtract(1.0, a, out=a)
                d *= a
            # weight rows and bias row at once: the ones column sums d
            np.matmul(self.ins[li].transpose(0, 2, 1), d, out=self.glayers[li])
            if li > 0:
                np.matmul(d, self.layers[li][:, :-1].transpose(0, 2, 1),
                          out=self.deltas[li - 1])
        return loss


def _one_network(p: MlpParams, tset: TrainingSet, grad: bool):
    net = _Stack([p], tset.inputs[None], np.full((1, 1, 1), p.input_scale), grad)
    with np.errstate(**_QUIET_OVERFLOW):
        return net.loss(tset.targets[None], grad), net


def mlp_loss(p: MlpParams, tset: TrainingSet) -> float:
    """Mean over samples of the summed squared per-eigenvalue error."""
    return float(_one_network(p, tset, grad=False)[0][0])


def mlp_grad(p: MlpParams, tset: TrainingSet):
    """Exact reverse-mode gradient of mlp_loss. The output sort is
    treated as the fixed permutation chosen by the forward pass (stable,
    ties broken by original index)."""
    _, net = _one_network(p, tset, grad=True)
    return _unfold(net.glayers, 0)


def _check_stack(ps, tsets) -> None:
    """A ValueError naming the mismatch unless there is one training set
    per network, at least one, and all sets have one (samples, k) shape;
    _Stack checks the networks."""
    if len(ps) != len(tsets) or not ps:
        raise ValueError(f"need one training set per network and at least one network, "
                         f"got {len(ps)} network(s) and {len(tsets)} training set(s)")
    shape = tsets[0].targets.shape
    for b, t in enumerate(tsets):
        if t.targets.shape != shape:
            (s, k), (s0, k0) = t.targets.shape, shape
            raise ValueError(f"a stack takes one training set shape: set {b} has {s} "
                             f"samples of {k}x{k} blocks, set 0 {s0} of {k0}x{k0}")


def train_stack(ps, tsets, cfg: TrainConfig):
    """Full-batch gradient descent of each network ``ps[b]`` (one shape
    for all) on ``tsets[b]`` (one block size and sample count for all),
    all at once; each ends bit-equal to training it alone. Counts,
    layer sizes, block sizes and sample counts that disagree raise a
    ValueError naming them. Returns (final params list, (B, epochs) loss
    curves).

    All B networks' parameters live in one (B, P) array and their
    gradients in a second, so an epoch's update is one subtraction. The
    networks train independently, so none waits on another's
    divergence: training stops early only once network 0's loss is not
    finite. A non-finite loss raises TrainingDivergedError with the
    first non-finite epoch of the lowest-index network that has one in
    the loss table, the epoch training them one by one would report.
    The pass that gives the loss after one update also gives the
    gradient for the next, so ``epochs`` updates take ``epochs + 1``
    passes."""
    _check_stack(ps, tsets)
    inputs = np.stack([t.inputs for t in tsets])
    targets = np.stack([t.targets for t in tsets])
    scale = np.array([1.0 / max(1.0, t.max_abs_entry()) for t in tsets]).reshape(-1, 1, 1)
    net = _Stack(ps, inputs, scale, grad=True)
    losses = np.empty((len(ps), cfg.epochs))
    with np.errstate(**_QUIET_OVERFLOW):
        net.loss(targets, grad=True)
        for epoch in range(cfg.epochs):
            net.grad *= cfg.learning_rate
            net.theta -= net.grad
            losses[:, epoch] = net.loss(targets, grad=epoch + 1 < cfg.epochs)
            if not np.isfinite(losses[0, epoch]):
                break
    bad = ~np.isfinite(losses[:, :epoch + 1])
    if bad.any():
        first = bad.any(axis=1).argmax()  # the lowest-index network that diverged
        raise TrainingDivergedError(int(bad[first].argmax()))
    return [MlpParams(list(net.sizes), *_unfold(net.layers, b), float(scale[b, 0, 0]))
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
        if not 0 <= self.sigma < np.inf:
            raise ValueError("sigma must be >= 0 and finite")


def estimate_stack(kinds, blocks: np.ndarray, agents, round_: int = 0,
                   tracked=None) -> np.ndarray:
    """Local eigenvalue estimates for a (B, k, k) stack of blocks as
    DenseSymMatrix holds them: row b is the estimate of agent
    ``agents[b]`` with ``kinds[b]`` (one kind for all: an
    ``OracleEstimator``, a ``NoisyOracleEstimator`` or a network's
    ``MlpParams``) in round ``round_``, its smallest ``tracked`` values
    (default k), sorted ascending. One pass serves the stack: one ``eigvalsh`` call, whose
    values come back ascending, or one forward pass of the stacked
    networks. ``eigvalsh`` solves each block of a stack with its own
    LAPACK call, so each row is bit-equal to estimating its block alone."""
    nb, k, _ = blocks.shape
    j = k if tracked is None else tracked
    kind = type(kinds[0])
    if any(type(e) is not kind for e in kinds):
        raise TypeError("a stack takes one estimator kind")
    if kind in (OracleEstimator, NoisyOracleEstimator):
        values = np.linalg.eigvalsh(blocks)
        if kind is NoisyOracleEstimator:
            for b, (e, agent) in enumerate(zip(kinds, agents)):
                if e.sigma != 0.0:
                    rng = keyed_rng(e.seed, "estimator-noise", agent, round_)
                    values[b] = np.sort(values[b] + rng.normal(0.0, e.sigma, k))
        return values[:, :j]
    if kind is MlpParams:
        scale = np.array([p.input_scale for p in kinds]).reshape(-1, 1, 1)
        raw = _Stack(kinds, blocks.reshape(nb, 1, -1), scale).forward()
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
    with naming(path):
        with open(path) as f:
            data = json.load(f)
        if not isinstance(data, dict):
            raise ValueError("network parameters must be a mapping")
        values = []
        for key, convert in _PARAM_TYPES.items():
            if key not in data:
                raise ValueError(f"network parameters lack key {key!r}")
            try:
                values.append(convert(data[key]))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"bad value for {key!r}: {exc}") from None
        return MlpParams(*values)
