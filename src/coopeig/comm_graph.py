"""Communication graphs between agents: topology construction,
Metropolis-Hastings doubly-stochastic weights, the SLEM contraction
factor, and per-round Bernoulli link failures."""

from dataclasses import dataclass

import numpy as np

from .matrix_core import DenseSymMatrix, eigenvalues, sturm_eigen
from .seeding import keyed_rng

ER_RETRY_CAP = 1000
ROW_SUM_TOL = 1e-12


class GraphConstructionError(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph on agents 0..m-1. Built from any iterable
    of (i, l) pairs; ``edges`` holds them as a read-only, sorted,
    duplicate-free (E, 2) int64 array of rows (i, l) with i < l."""

    m: int
    edges: np.ndarray

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        e = np.array(self.edges if isinstance(self.edges, np.ndarray) else list(self.edges),
                     dtype=np.int64)
        if e.size == 0:
            e = e.reshape(0, 2)
        elif e.ndim != 2 or e.shape[1] != 2:
            raise ValueError("edges must be (i, l) pairs")
        e.sort(axis=1)
        lo, hi = e.T
        if len(e) and (lo.min() < 0 or hi.max() >= self.m or (lo == hi).any()):
            loops = np.flatnonzero(lo == hi)
            if len(loops):
                raise ValueError(f"self-loop ({lo[loops[0]]},{lo[loops[0]]}) not allowed")
            i, l = e[((lo < 0) | (hi >= self.m)).argmax()].tolist()
            raise ValueError(f"edge ({i},{l}) outside 0..{self.m - 1}")
        key = lo * self.m + hi
        if not (key[1:] > key[:-1]).all():
            # Already-sorted input, such as a subset of a Graph's edges,
            # skips this. Integer keys are sorted and deduped by hand:
            # np.unique's first call maps about 1.6 MB of peak RSS.
            key.sort()
            key = key[np.concatenate(([True], key[1:] != key[:-1]))]
            e = np.stack(np.divmod(key, self.m), axis=1)
        e.setflags(write=False)
        object.__setattr__(self, "edges", e)


@dataclass(frozen=True)
class WeightMatrix:
    """Symmetric doubly-stochastic consensus weights, positive only on
    edges and the diagonal."""

    w: np.ndarray

    def __post_init__(self):
        w = check_weights(np.asarray(self.w, dtype=float)).copy()
        w.setflags(write=False)
        object.__setattr__(self, "w", w)

    @property
    def m(self) -> int:
        return self.w.shape[0]


def check_weights(w: np.ndarray) -> np.ndarray:
    """``w`` if it is square, nonnegative, exactly symmetric and has
    rows summing to 1 within ROW_SUM_TOL, else ValueError. NaN is never
    symmetric, and a row holding inf never sums to 1."""
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("weight matrix must be square")
    if (w < 0).any():
        raise ValueError("weights must be nonnegative")
    if (w != w.T).any():
        raise ValueError("weights must be exactly symmetric")
    if not np.abs(w.sum(axis=1) - 1.0).max() <= ROW_SUM_TOL:
        raise ValueError("rows must sum to 1")
    return w


@dataclass(frozen=True)
class FailureModel:
    """Independent per-round Bernoulli edge drops with probability p."""

    edge_drop_prob: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.edge_drop_prob < 1.0:
            raise ValueError("edge drop probability must be in [0, 1)")


def build_graph(topology: str, m: int, seed: int = 0) -> Graph:
    """Build a named topology: ``ring``, ``complete``, ``path`` or
    ``er:<p_edge>`` (Erdos-Renyi, resampled until connected)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if topology in ("ring", "path"):
        # Rings on one or two nodes are paths: no self-loop, no double edge.
        i = np.arange(m if topology == "ring" and m > 2 else m - 1)
        return Graph(m, np.column_stack((i, (i + 1) % m)))
    if topology == "complete":
        return Graph(m, np.column_stack(np.triu_indices(m, 1)))
    if topology.startswith("er:"):
        p_edge = float(topology[3:])
        if not 0.0 < p_edge <= 1.0:
            raise ValueError("er edge probability must be in (0, 1]")
        # One draw per pair in row-major (i, l) order: the same stream as
        # one scalar rng.random() per pair in a double loop.
        pairs = np.column_stack(np.triu_indices(m, 1))
        rng = keyed_rng(seed, "erdos-renyi", m)
        for _ in range(ER_RETRY_CAP):
            g = Graph(m, pairs[rng.random(len(pairs)) < p_edge])
            if is_connected(g):
                return g
        raise GraphConstructionError(
            f"no connected er:{p_edge} graph on {m} nodes in {ER_RETRY_CAP} tries"
        )
    raise ValueError(f"unknown topology {topology!r}")


def is_connected(g: Graph) -> bool:
    """True iff every node is reachable from node 0: grow the reached
    set across both edge directions until it stops growing."""
    i, l = g.edges.T
    reached = np.arange(g.m) == 0
    size = 0
    while reached.sum() > size:
        size = reached.sum()
        reached[l[reached[i]]] = True
        reached[i[reached[l]]] = True
    return bool(reached.all())


def metropolis_array(m: int, edges: np.ndarray) -> np.ndarray:
    """Metropolis-Hastings weights on m nodes from (E, 2) edge rows:
    1/(1 + max(deg_i, deg_l)) on edges, the leftover mass on the
    diagonal. Doubly stochastic, using only local degrees."""
    deg = np.bincount(edges.ravel(), minlength=m)
    i, l = edges.T
    w = np.zeros((m, m))
    w[i, l] = w[l, i] = 1.0 / (1.0 + np.maximum(deg[i], deg[l]))
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return w


def metropolis_weights(g: Graph) -> WeightMatrix:
    """The Metropolis weights of ``g``, checked as a WeightMatrix."""
    return WeightMatrix(metropolis_array(g.m, g.edges))


def slem(wm: WeightMatrix) -> float:
    """Second largest eigenvalue modulus of W. The largest eigenvalue
    of a symmetric doubly-stochastic W is 1, so the SLEM is
    max(|lambda_0|, |lambda_{m-2}|), and ``sturm_eigen`` solves for
    just those two. Zero for a single agent; < 1 iff the
    positive-weight graph is connected."""
    if wm.m == 1:
        return 0.0
    ev = eigenvalues(DenseSymMatrix(wm.w), sturm_eigen, (0, wm.m - 2))
    return float(np.abs(ev).max())


def live_edges(g: Graph, f: FailureModel, round_: int) -> np.ndarray:
    """The edge rows that survive one round. Row e of ``g.edges``
    survives with probability 1-p: it is kept iff the e-th uniform of
    one generator keyed on (seed, round) is >= p. The result depends
    only on (seed, round, edge row), so it is order-independent and
    bitwise reproducible; it stays sorted and duplicate-free."""
    draws = keyed_rng(f.seed, "edge-failure", round_).random(len(g.edges))
    return g.edges[draws >= f.edge_drop_prob]


def apply_failures(g: Graph, f: FailureModel, round_: int) -> Graph:
    """The graph of one round's surviving edges (see ``live_edges``)."""
    return g if f.edge_drop_prob == 0.0 else Graph(g.m, live_edges(g, f, round_))
