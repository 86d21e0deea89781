"""Communication graphs between agents: topology construction,
Metropolis-Hastings doubly-stochastic weights, the SLEM contraction
factor, and per-round Bernoulli link failures."""

from dataclasses import dataclass

import numpy as np

from .matrix_core import DenseSymMatrix, jacobi_eigen
from .seeding import keyed_rng, keyed_uniform

ER_RETRY_CAP = 1000
ROW_SUM_TOL = 1e-12


class GraphConstructionError(RuntimeError):
    pass


def _canon_edges(edges):
    out = set()
    for i, l in edges:
        if i == l:
            raise ValueError(f"self-loop ({i},{i}) not allowed")
        out.add((min(i, l), max(i, l)))
    return frozenset(out)


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on agents 0..m-1."""

    m: int
    edges: frozenset  # of (i, l) with i < l

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        edges = _canon_edges(self.edges)
        for i, l in edges:
            if not (0 <= i < self.m and 0 <= l < self.m):
                raise ValueError(f"edge ({i},{l}) outside 0..{self.m - 1}")
        object.__setattr__(self, "edges", edges)

    def degrees(self) -> np.ndarray:
        ends = np.array(list(self.edges), dtype=int).ravel()
        return np.bincount(ends, minlength=self.m)


@dataclass(frozen=True)
class WeightMatrix:
    """Symmetric doubly-stochastic consensus weights, positive only on
    edges and the diagonal."""

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("weight matrix must be square")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if np.max(np.abs(w - w.T)) != 0.0:
            raise ValueError("weights must be exactly symmetric")
        if np.max(np.abs(w.sum(axis=1) - 1.0)) > ROW_SUM_TOL:
            raise ValueError("rows must sum to 1")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "w", w)

    @property
    def m(self) -> int:
        return self.w.shape[0]


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
    if topology == "ring":
        if m <= 2:
            edges = {(0, 1)} if m == 2 else set()
        else:
            edges = {(i, (i + 1) % m) for i in range(m)}
        return Graph(m, frozenset(edges))
    if topology == "complete":
        return Graph(m, frozenset((i, l) for i in range(m) for l in range(i + 1, m)))
    if topology == "path":
        return Graph(m, frozenset((i, i + 1) for i in range(m - 1)))
    if topology.startswith("er:"):
        p_edge = float(topology[3:])
        if not 0.0 < p_edge <= 1.0:
            raise ValueError("er edge probability must be in (0, 1]")
        rng = keyed_rng(seed, "erdos-renyi", m)
        for _ in range(ER_RETRY_CAP):
            edges = frozenset(
                (i, l)
                for i in range(m)
                for l in range(i + 1, m)
                if rng.random() < p_edge
            )
            g = Graph(m, edges)
            if is_connected(g):
                return g
        raise GraphConstructionError(
            f"no connected er:{p_edge} graph on {m} nodes in {ER_RETRY_CAP} tries"
        )
    raise ValueError(f"unknown topology {topology!r}")


def is_connected(g: Graph) -> bool:
    """True iff a single traversal component covers all m nodes."""
    adj = [[] for _ in range(g.m)]
    for i, l in g.edges:
        adj[i].append(l)
        adj[l].append(i)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == g.m


def metropolis_weights(g: Graph) -> WeightMatrix:
    """Metropolis-Hastings weights: 1/(1 + max(deg_i, deg_l)) on edges,
    the leftover mass on the diagonal. Always doubly stochastic, using
    only local degree information."""
    deg = g.degrees()
    w = np.zeros((g.m, g.m))
    for i, l in g.edges:
        w[i, l] = w[l, i] = 1.0 / (1.0 + max(deg[i], deg[l]))
    for i in range(g.m):
        w[i, i] = 1.0 - w[i].sum()
    return WeightMatrix(w)


def slem(wm: WeightMatrix) -> float:
    """Second largest eigenvalue modulus of W, via the Jacobi oracle.
    Zero for a single agent; < 1 iff the positive-weight graph is
    connected."""
    if wm.m == 1:
        return 0.0
    ev = jacobi_eigen(DenseSymMatrix(wm.w)).eigenvalues
    mods = np.abs(ev)
    mods = np.delete(mods, int(np.argmax(ev)))  # drop one eigenvalue 1
    return float(mods.max())


def apply_failures(g: Graph, f: FailureModel, round_: int) -> Graph:
    """Thin the edge set for one round. Each edge survives with
    probability 1-p, drawn from a counter-based stream keyed on
    (seed, round, edge), so the result is order-independent and
    bitwise reproducible."""
    if f.edge_drop_prob == 0.0:
        return g
    kept = frozenset(
        (i, l)
        for i, l in g.edges
        if keyed_uniform(f.seed, "edge-failure", round_, i, l) >= f.edge_drop_prob
    )
    return Graph(g.m, kept)


def union_graph(graphs) -> Graph:
    """Union of per-round graphs (all must share the same node count)."""
    graphs = list(graphs)
    if not graphs:
        raise ValueError("need at least one graph")
    m = graphs[0].m
    if any(g.m != m for g in graphs):
        raise ValueError("graphs have differing node counts")
    edges = frozenset().union(*(g.edges for g in graphs))
    return Graph(m, edges)


def save_graph(g: Graph, path) -> None:
    """Plain-text format: line 1 = m, then one '<i> <l>' pair per line."""
    with open(path, "w") as f:
        f.write(f"{g.m}\n")
        for i, l in sorted(g.edges):
            f.write(f"{i} {l}\n")


def load_graph(path) -> Graph:
    with open(path) as f:
        lines = [ln for ln in f.read().splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty graph file")
    m = int(lines[0])
    edges = set()
    for ln in lines[1:]:
        i, l = ln.split()
        edges.add((int(i), int(l)))
    return Graph(m, frozenset(edges))
