"""The iterative estimate-exchange protocol: synchronous rounds of
neighbor averaging over a doubly-stochastic weight matrix, the
consensus/estimation error metrics, and global aggregation.

Three update dynamics are provided:

* ``matrix_form`` (default): pure consensus averaging of the anchors,
  lambda^(k+1) = W lambda^(k). This is the dynamics under which the
  geometric contraction e^(k) <= rho^k e^(0) actually holds.
* ``paper_literal``: lambda^(k+1) = anchor + W lambda^(k) - lambda^(k).
  Kept for demonstration; the iteration matrix W - I can have spectral
  radius above 1, in which case the iterate diverges.
* ``damped(gamma)``: lambda^(k+1) = (1-gamma) anchor + gamma W lambda^(k),
  a contraction that keeps the anchor as a persistent drive term.
"""

import math
from dataclasses import dataclass

import numpy as np

from .comm_graph import WeightMatrix

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


@dataclass(frozen=True)
class GlobalWeights:
    """Convex combination weights for the global estimate."""

    beta: np.ndarray

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float)
        if np.any(beta < 0) or abs(beta.sum() - 1.0) > 1e-12:
            raise ValueError("beta must be nonnegative and sum to 1")
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)


def uniform_weights(m: int) -> GlobalWeights:
    return GlobalWeights(np.full(m, 1.0 / m))


def block_size_weights(block_sizes) -> GlobalWeights:
    sizes = np.asarray(block_sizes, dtype=float)
    return GlobalWeights(sizes / sizes.sum())


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


def _step(states: ConsensusState, w: np.ndarray, mode: ConsensusMode) -> ConsensusState:
    """One synchronous round with the (m, m) weight array ``w``."""
    est, anc = states.estimates, states.anchors
    if mode.kind == "matrix_form":
        nxt = w @ est
    elif mode.kind == "paper_literal":
        nxt = anc + w @ est - est
    else:  # damped
        nxt = (1.0 - mode.gamma) * anc + mode.gamma * (w @ est)
    return ConsensusState(nxt, anc)


def consensus_round(states: ConsensusState, wm: WeightMatrix,
                    mode: ConsensusMode) -> ConsensusState:
    """One synchronous round: every agent reads only round-k values."""
    if wm.m != len(states.estimates):
        raise ValueError(f"weight matrix is {wm.m}x{wm.m} for {len(states.estimates)} agents")
    return _step(states, wm.w, mode)


def consensus_error(states: ConsensusState) -> float:
    """Maximum pairwise disagreement over agents and eigenvalue
    indices."""
    est = states.estimates
    return float(np.max(est.max(axis=0) - est.min(axis=0)))


def deviation_norm(states: ConsensusState) -> float:
    """Frobenius norm of the estimate stack minus its agent-mean.

    This is the disagreement measure that provably contracts by the
    SLEM every matrix_form round (W is symmetric doubly stochastic, so
    it shrinks anything orthogonal to the all-ones direction by at most
    rho). The max-pairwise ``consensus_error`` does *not* contract
    round by round in general, even though both vanish together.
    """
    est = states.estimates
    return float(np.linalg.norm(est - est.mean(axis=0)))


def estimation_error(states: ConsensusState, truth) -> np.ndarray:
    """|estimate - truth| per agent (rows) and eigenvalue index
    (columns)."""
    truth = np.asarray(truth, dtype=float)
    est = states.estimates
    if truth.shape != (est.shape[1],):
        raise ValueError(
            f"truth has length {truth.size}, states track {est.shape[1]} values"
        )
    return np.abs(est - truth)


def aggregate_global(states: ConsensusState, gw: GlobalWeights) -> np.ndarray:
    """Componentwise convex combination of agent estimates."""
    if gw.beta.shape != (len(states.estimates),):
        raise ValueError("one beta weight per agent required")
    return gw.beta @ states.estimates


def run_rounds(states: ConsensusState, weights, mode: ConsensusMode, tol: float,
               max_rounds: int, on_round):
    """The round loop. Round k mixes with ``weights(k)``, an (m, m) array
    that passes ``comm_graph.check_weights``. The loop stops when
    consensus_error < tol ("converged"), after max_rounds ("max_rounds"),
    or when the iterate turns non-finite or exceeds the divergence
    threshold ("diverged"). ``on_round(k, states, error)`` sees round 0
    and every round after it; the error of a non-finite iterate is inf.
    Returns (final states, rounds used, stop reason)."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    e = consensus_error(states)
    # Far enough above any converging trajectory to be unambiguous,
    # small enough to trip long before float overflow.
    threshold = 1e9 * max(1.0, e)
    on_round(0, states, e)
    k = 0
    while e >= tol and k < max_rounds:
        k += 1
        states = _step(states, weights(k), mode)
        e = consensus_error(states) if np.all(np.isfinite(states.estimates)) else math.inf
        on_round(k, states, e)
        if math.isinf(e) or e > threshold:
            return states, k, "diverged"
    return states, k, "converged" if e < tol else "max_rounds"


def run_to_convergence(states: ConsensusState, wm: WeightMatrix, mode: ConsensusMode,
                       tol: float, max_rounds: int):
    """Iterate with fixed weights until consensus_error < tol or
    max_rounds. Returns (final states, rounds used, error history incl.
    round 0, stop reason); raises DivergenceError if the iterate blows
    up."""
    if wm.m != len(states.estimates):
        raise ValueError(f"weight matrix is {wm.m}x{wm.m} for {len(states.estimates)} agents")
    history = []
    states, k, reason = run_rounds(states, lambda _: wm.w, mode, tol, max_rounds,
                                   lambda _k, _s, e: history.append(e))
    if reason == "diverged":
        raise DivergenceError(k, history[-1])
    return states, k, history, reason
