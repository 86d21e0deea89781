"""The iterative estimate-exchange protocol: synchronous rounds of
neighbor averaging over a doubly-stochastic weight matrix, the
consensus/estimation error metrics.

Three update dynamics are provided:

* ``matrix_form`` (default): pure consensus averaging of the anchors,
  lambda^(k+1) = W lambda^(k). This is the dynamics under which the
  geometric contraction e^(k) <= rho^k e^(0) actually holds.
* ``paper_literal``: lambda^(k+1) = anchor + W lambda^(k) - lambda^(k).
  Kept for demonstration; the iteration matrix W - I can have spectral
  radius above 1, in which case the iterate diverges.
* ``damped(gamma)``: lambda^(k+1) = (1-gamma) anchor + gamma W lambda^(k),
  a contraction that keeps the anchor as a persistent drive term.

One round loop, ``run_rounds``, drives every run. It mixes rounds in
blocks: one ``weights(first, R)`` call hands over the block's R weight
arrays, each round writes into a preallocated (R, m, j) stack, one
stacked pass takes the block's consensus errors, and the block is cut
at its first stopping round before anyone sees it.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .comm_graph import WeightMatrix

MODES = ("matrix_form", "paper_literal", "damped")

# Floats a stacked pass of the round loop may hold: a block of R rounds'
# (m, j) estimates, or a chunk of R failing rounds' edge-form weights
# with their build's temporaries (comm_graph.edge_form_floats).
BLOCK_FLOATS = 2**15


class DivergenceError(RuntimeError):
    """The consensus iterate blew up (non-finite values, or growth far
    beyond the initial disagreement)."""

    def __init__(self, round_: int, error: float):
        super().__init__(f"consensus diverged at round {round_} (error {error:.3e})")
        self.round = round_
        self.error = error


@dataclass(frozen=True)
class ConsensusMode:
    kind: str
    gamma: float = 0.5  # only used by "damped"

    def __post_init__(self):
        if self.kind not in MODES:
            raise ValueError(f"unknown mode {self.kind!r}")
        if self.kind == "damped" and not 0.0 < self.gamma < 1.0:
            raise ValueError("damping factor must lie strictly in (0, 1)")


@dataclass(frozen=True)
class ConsensusState:
    """Every agent's current estimates and fixed local anchors as
    read-only (m, j) arrays, row i belonging to agent i."""

    estimates: np.ndarray
    anchors: np.ndarray

    def __post_init__(self):
        self.estimates.setflags(write=False)
        self.anchors.setflags(write=False)


def init_states(anchors) -> ConsensusState:
    """Estimates initialized to the anchors. State values are validated
    here, once; rounds only ever derive new states from valid ones."""
    rows = [np.asarray(a, dtype=float) for a in anchors]
    if not rows:
        raise ValueError("need at least one agent")
    if rows[0].ndim != 1 or rows[0].size < 1 or any(a.shape != rows[0].shape for a in rows):
        raise ValueError("anchor lists must be equal-length vectors")
    anchors = np.stack(rows)
    if not np.all(np.isfinite(anchors)):
        raise ValueError("state values must be finite")
    return ConsensusState(anchors.copy(), anchors)


def _step(est: np.ndarray, anc: np.ndarray, w: np.ndarray, mode: ConsensusMode,
          out: np.ndarray) -> None:
    """One synchronous round with the (m, m) weight array ``w``: writes
    the estimates that follow ``est`` into the C-contiguous ``out``.
    ``np.dot`` reaches the same BLAS routine as ``np.matmul`` without
    its gufunc overhead. Each mode's expression runs as the same
    operations on the same operands, so the bits are those of
    evaluating it into a new array."""
    np.dot(w, est, out=out)
    if mode.kind == "paper_literal":  # anc + w @ est - est
        np.add(anc, out, out=out)
        out -= est
    elif mode.kind == "damped":  # (1 - gamma) anc + gamma (w @ est)
        out *= mode.gamma
        out += (1.0 - mode.gamma) * anc


def consensus_round(states: ConsensusState, wm: WeightMatrix,
                    mode: ConsensusMode) -> ConsensusState:
    """One synchronous round: every agent reads only round-k values."""
    if wm.m != len(states.estimates):
        raise ValueError(f"weight matrix is {wm.m}x{wm.m} for {len(states.estimates)} agents")
    out = np.empty_like(states.estimates)
    _step(states.estimates, states.anchors, wm.w, mode, out)
    return ConsensusState(out, states.anchors)


def consensus_errors(est: np.ndarray) -> np.ndarray:
    """``consensus_error`` of each (m, j) slice of an (R, m, j) estimate
    stack, in one pass. Max and min do not round, so the values are
    exact."""
    return (est.max(axis=1) - est.min(axis=1)).max(axis=1)


def consensus_error(states: ConsensusState) -> float:
    """Maximum pairwise disagreement over agents and eigenvalue
    indices."""
    return float(consensus_errors(states.estimates[None])[0])


def deviation_norms(est: np.ndarray) -> np.ndarray:
    """``deviation_norm`` of each (m, j) slice of an (R, m, j) estimate
    stack, in one pass."""
    dev = (est - est.mean(axis=1, keepdims=True)).reshape(len(est), -1)
    return np.sqrt(np.einsum("rk,rk->r", dev, dev))


def deviation_norm(states: ConsensusState) -> float:
    """Frobenius norm of the estimate stack minus its agent-mean.

    This is the disagreement measure that provably contracts by the
    SLEM every matrix_form round (W is symmetric doubly stochastic, so
    it shrinks anything orthogonal to the all-ones direction by at most
    rho). The max-pairwise ``consensus_error`` does *not* contract
    round by round in general, even though both vanish together.
    """
    return float(deviation_norms(states.estimates[None])[0])


def estimation_errors(est: np.ndarray, truth) -> np.ndarray:
    """|estimate - truth| for an (R, m, j) estimate stack: per round,
    agent and eigenvalue index."""
    truth = np.asarray(truth, dtype=float)
    if truth.shape != (est.shape[2],):
        raise ValueError(
            f"truth has length {truth.size}, states track {est.shape[2]} values"
        )
    return np.abs(est - truth)


def estimation_error(states: ConsensusState, truth) -> np.ndarray:
    """|estimate - truth| per agent (rows) and eigenvalue index
    (columns)."""
    return estimation_errors(states.estimates[None], truth)[0]


def aggregate_global(states: ConsensusState) -> np.ndarray:
    """The agents' mean estimate. No run path calls it: it stays only
    until perfbench's tracer stops spanning it."""
    return states.estimates.mean(axis=0)


def run_rounds(states: ConsensusState, weights, mode: ConsensusMode, tol: float,
               max_rounds: int, on_block):
    """The round loop. ``weights(first, r)`` yields exactly r arrays,
    the weights of rounds first, ..., first + r - 1 (more or fewer raise
    ValueError); the calls ask for rounds 1, 2, ... in order, each once,
    so a provider may read them off one stream. They are symmetric
    doubly-stochastic (m, m) arrays that the loop does not check again,
    a ``WeightMatrix``'s ``w`` (``check_weights``) or rounds of
    ``comm_graph.metropolis_edges`` (checked on their edge rows). The
    loop is done with each array before it asks for the next, so a
    provider may yield the same buffer every round, refilled in
    between; no array is read after the next one is asked for. The
    loop stops when consensus_error < tol ("converged"), after
    max_rounds ("max_rounds"), or when the iterate turns non-finite or
    exceeds the divergence threshold ("diverged"); the error of a
    non-finite iterate is inf.

    Rounds run in blocks of R = min(BLOCK_FLOATS // (m j), rounds run so
    far but at least 1, rounds left), one ``weights`` call each. The R
    rounds mix into one (R, m, j) stack, one stacked pass takes their
    errors, and the block is cut after its first round that stops the
    loop.
    ``on_block(first, estimates, errors)`` then receives the n kept
    rounds first, ..., first + n - 1 as an (n, m, j) stack and their n
    errors; round 0 comes first, alone. Rounds mixed past a stop never
    outnumber the rounds used and never reach ``on_block``. They may
    overflow, so a block mixes, its weights drawn and built included,
    with overflow and invalid-value warnings off. Returns (final states,
    rounds used, stop reason)."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    est, anc = states.estimates, states.anchors
    errors = consensus_errors(est[None])
    e = float(errors[0])
    # Far enough above any converging trajectory to be unambiguous,
    # small enough to trip long before float overflow.
    threshold = 1e9 * max(1.0, e)
    on_block(0, est[None], errors)
    k, size = 0, max(1, BLOCK_FLOATS // est.size)
    while e >= tol and k < max_rounds:
        block = np.empty((min(size, max(1, k), max_rounds - k), *est.shape))
        # Rounds past a divergence may overflow; they are dropped unseen.
        with np.errstate(over="ignore", invalid="ignore"):
            for w, out in zip(weights(k + 1, len(block)), block, strict=True):
                _step(est, anc, w, mode, out)
                est = out
            errors = consensus_errors(block)
        errors[~np.isfinite(errors)] = math.inf  # max and min propagate NaN; inf gives inf or NaN
        diverged = np.isinf(errors) | (errors > threshold)
        stops = np.flatnonzero(diverged | (errors < tol))
        n = int(stops[0]) + 1 if len(stops) else len(block)
        on_block(k + 1, block[:n], errors[:n])
        k, est, e = k + n, block[n - 1], float(errors[n - 1])
        if diverged[n - 1]:
            return ConsensusState(est.copy(), anc), k, "diverged"
    return ConsensusState(est.copy(), anc), k, "converged" if e < tol else "max_rounds"


def run_to_convergence(states: ConsensusState, wm: WeightMatrix, mode: ConsensusMode,
                       tol: float, max_rounds: int):
    """Iterate with fixed weights until consensus_error < tol or
    max_rounds. Returns (final states, rounds used, error history incl.
    round 0, stop reason); raises DivergenceError if the iterate blows
    up."""
    if wm.m != len(states.estimates):
        raise ValueError(f"weight matrix is {wm.m}x{wm.m} for {len(states.estimates)} agents")
    history = []
    states, k, reason = run_rounds(states, lambda _first, r: itertools.repeat(wm.w, r),
                                   mode, tol, max_rounds,
                                   lambda _first, _est, errors: history.extend(errors.tolist()))
    if reason == "diverged":
        raise DivergenceError(k, history[-1])
    return states, k, history, reason
