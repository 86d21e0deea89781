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

One round loop, ``run_rounds``, drives every run. It takes the run's
weights as one iterator over rounds 1, 2, ... and mixes rounds in
blocks: each round takes the next weight array and writes into the
next row of one preallocated (S, m, j) buffer, one stacked pass takes
the block's consensus errors, and the block is cut at its first
stopping round before anyone sees it. Blocks double, and once the
error falls, each is cut near the stop its predecessor's contraction
predicts. The caller gets the kept rounds once per full buffer and
once at the end.
"""

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .comm_graph import BLOCK_FLOATS, WeightMatrix

MODES = ("matrix_form", "paper_literal", "damped")


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
    gamma: float = 0.5  # only used by "damped", checked in every mode

    def __post_init__(self):
        if self.kind not in MODES:
            raise ValueError(f"unknown mode {self.kind!r}")
        if not 0.0 < self.gamma < 1.0:
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
    ``w.dot`` is the BLAS call of ``np.dot``, and of ``np.matmul``,
    without their dispatch. Each mode's expression runs as the same
    operations on the same operands, so the bits are those of
    evaluating it into a new array."""
    w.dot(est, out)
    if mode.kind == "matrix_form":
        return
    if mode.kind == "paper_literal":  # anc + w @ est - est
        np.add(anc, out, out=out)
        out -= est
    else:  # damped: (1 - gamma) anc + gamma (w @ est)
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
    # add.reduce over the count: the two operations of est.mean(axis=1)
    mean = np.add.reduce(est, axis=1, keepdims=True) / est.shape[1]
    dev = (est - mean).reshape(len(est), -1)
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
    """The round loop. ``weights`` is an iterator over rounds 1, 2, ...;
    the loop takes one array per round with ``next``, in order and once
    each, so an iterator may read them off one stream, and one that runs
    out raises at ``next``. The arrays are symmetric doubly-stochastic
    (m, m) weights that the loop does not check again, a
    ``WeightMatrix``'s ``w`` (``check_weights``) or the rounds of
    ``comm_graph.round_weights`` (checked on their edge rows). The
    loop is done with each array before it takes the next, so an
    iterator may yield the same buffer every round, refilled in between.
    The loop stops when consensus_error < tol ("converged"), after
    max_rounds ("max_rounds"), or when the iterate turns non-finite or
    exceeds the divergence threshold ("diverged"); the error of a
    non-finite iterate is inf.

    Rounds run in blocks of R = min(S, rounds run so far but at least 1,
    rounds left), S = max(1, BLOCK_FLOATS // (m j)). After a block of at
    least 4 rounds whose error fell, the next block is also at most 1.2
    times the rounds that block's rate of decay needs to reach tol, plus
    2. Blocks mix into consecutive rows of one (S, m, j) buffer, round 0
    in row 0, and one stacked pass takes each block's errors into an
    S-vector beside it. A block is cut after its first round that stops
    the loop: a stop is known only once a block is scanned. When the
    next block would not fit in the buffer, and once at the end,
    ``on_block(estimates, errors)`` receives the n rounds the buffer
    kept as an (n, m, j) stack and their n errors, in round order, and
    the loop goes on in fresh arrays, so the caller may keep what it
    was handed. Rounds mixed past a stop never outnumber the rounds used
    and never reach ``on_block``. They may overflow, so a block mixes,
    its weights drawn and built included, with overflow and
    invalid-value warnings off. Returns (final states, rounds used, stop
    reason)."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    est, anc = states.estimates, states.anchors
    size = max(1, BLOCK_FLOATS // est.size)
    buf, errors = np.empty((size, *est.shape)), np.empty(size)
    buf[0], errors[0] = est, consensus_errors(est[None])[0]
    e = float(errors[0])
    # Far enough above any converging trajectory to be unambiguous,
    # small enough to trip long before float overflow; finite, so an
    # infinite error is over it.
    threshold = min(1e9 * max(1.0, e), sys.float_info.max)
    k, kept, cap = 0, 1, max_rounds
    while e >= tol and k < max_rounds:
        r = min(size, max(1, k), max_rounds - k, cap)
        if kept + r > size:
            on_block(buf[:kept], errors[:kept])
            buf, errors, kept = np.empty_like(buf), np.empty_like(errors), 0
        block, errs = buf[kept:kept + r], errors[kept:kept + r]
        # Rounds past a divergence may overflow; they are dropped unseen.
        with np.errstate(over="ignore", invalid="ignore"):
            for out in block:
                _step(est, anc, next(weights), mode, out)
                est = out
            errs[:] = consensus_errors(block)
        # max and min propagate NaN, which fails every comparison
        stops = (~(errs <= threshold) | (errs < tol)).nonzero()[0]
        n = int(stops[0]) + 1 if len(stops) else r
        prev, k, kept, est, e = e, k + n, kept + n, block[n - 1], float(errs[n - 1])
        if not e <= threshold:
            if not math.isfinite(e):
                errs[n - 1] = e = math.inf
            on_block(buf[:kept], errors[:kept])
            return ConsensusState(est.copy(), anc), k, "diverged"
        # Geometric decay at this block's rate from e reaches tol after
        # log(e / tol) / rate rounds; the margin keeps most stops inside
        # the next block.
        rate = math.log(prev / e) / n if n >= 4 and tol <= e < prev else 0.0
        needed = 1.2 * math.log(e / tol) / rate if rate > 0 else math.inf
        cap = math.ceil(needed) + 2 if needed < max_rounds else max_rounds
    on_block(buf[:kept], errors[:kept])
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
    states, k, reason = run_rounds(states, itertools.repeat(wm.w), mode, tol, max_rounds,
                                   lambda _est, errors: history.extend(errors.tolist()))
    if reason == "diverged":
        raise DivergenceError(k, history[-1])
    return states, k, history, reason
