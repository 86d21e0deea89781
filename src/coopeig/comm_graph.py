"""Communication graphs between agents: topology construction,
Metropolis-Hastings doubly-stochastic weights, the SLEM contraction
factor, and per-round Bernoulli link failures."""

import itertools
from dataclasses import dataclass

import numpy as np

from .seeding import child_seed, keyed_rng

ER_RETRY_CAP = 1000
ROW_SUM_TOL = 1e-12
# Floats a stacked pass may hold: the round loop's buffer of
# S = BLOCK_FLOATS // (m j) rounds' (m, j) estimates, which holds every
# block and is what its caller is handed (consensus.run_rounds), or a
# chunk of failing rounds' edge-form weights with their build's
# temporaries (round_weights).
BLOCK_FLOATS = 2**15


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


def check_edge_weights(weights: np.ndarray, inc: np.ndarray, diag: np.ndarray) -> None:
    """``check_weights`` in edge form, with its messages: ValueError
    unless the edge ``weights`` and the ``diag`` entries are
    nonnegative and each row's |diag + inc - 1| <= ROW_SUM_TOL, where
    ``inc`` holds each row's sum of incident edge weights. Symmetry is
    not checked: an edge row's one weight goes to both of its entries.
    NaN or inf in ``inc`` or ``diag`` gives a row that does not sum
    to 1."""
    # One pass with no mask: fmin skips NaN, as (x < 0).any() does, and
    # from 0.0 it ends below 0 iff an entry is, so empty arrays pass
    if (np.fmin.reduce(weights, axis=None, initial=0.0) < 0
            or np.fmin.reduce(diag, axis=None, initial=0.0) < 0):
        raise ValueError("weights must be nonnegative")
    dev = np.add(diag, inc)
    dev -= 1.0
    if not np.abs(dev, out=dev).max() <= ROW_SUM_TOL:
        raise ValueError("rows must sum to 1")


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
        try:
            p_edge = float(topology[3:])
        except ValueError:
            raise ValueError(f"bad topology {topology!r}: need er:<p_edge>, "
                             "p_edge a number") from None
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


def metropolis_slots(m: int, edges: np.ndarray) -> np.ndarray:
    """The flat (m, m) positions of ``metropolis_edges``' columns: each
    (E, 2) edge row's (i, l), then each row's (l, i), then the
    diagonal."""
    i, l = edges.T
    return np.concatenate((i * m + l, l * m + i, np.arange(m) * (m + 1)))


def metropolis_edges(m: int, edges: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Metropolis-Hastings weights on m nodes for R rounds at once, in
    edge form: row r holds round r's (m, m) entries at the
    ``metropolis_slots`` positions, as an (R, 2E + m) array of the (E, 2)
    edge rows' weights, the same weights again for their (l, i) entries,
    then the diagonal. Round r keeps the edge rows whose ``keep[r]``
    entry is set: 1/(1 + max(deg_i, deg_l)) on those, with live degrees,
    and the leftover mass on the diagonal (Xiao & Boyd, Systems &
    Control Letters 2004). Every other (m, m) entry is 0, and so is a
    dropped row's weight. Each round is doubly stochastic, using only
    local degrees, and bit-equal to building it alone.

    Everything runs densely over the (R, E) mask, O(E + m) per round
    (see ``round_weights``): the degrees are ``np.bincount``s of the
    mask over flat (round, node) indices, so exact integer counts, the
    weights keep / (1 + max(deg_i, deg_l)), and diagonal entry i is
    1 - (a + b), where a sums the weights of the rows (i, .) and b those
    of the rows (., i), each sequentially in edge-row order. A dropped
    row adds +0.0, which moves no bit, so the sums are those of the kept
    rows alone. With at most two live neighbours 1 - (a + b) equals 1
    minus the row's pairwise sum, so ring and path weights are bit-equal
    to a dense row-sum build; at higher degree the two differ by a few
    ulps. ``check_edge_weights`` checks the (R, E) weights and the
    (R, m) sums and diagonal. Symmetry is exact, since ``edges`` rows
    are duplicate-free with i < l and each row's weight goes to (i, l)
    and (l, i)."""
    return _metropolis_rows(m, *_edge_indices(m, edges, len(keep)), keep)


def _edge_indices(m: int, edges: np.ndarray, rounds: int):
    """The flat (round, node) indices r m + i and r m + l of each (E, 2)
    edge row (i, l) in rounds 0, ..., ``rounds`` - 1, as two (rounds, E)
    arrays. The first R rows of each are the indices of R rounds."""
    i, l = edges.T
    lo = np.arange(0, rounds * m, m)[:, None] + i
    return lo, lo + (l - i)


def _metropolis_rows(m: int, lo: np.ndarray, hi: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """``metropolis_edges`` of the (R, E) ``keep`` on the first R rows of
    its ``_edge_indices``."""
    r, e = keep.shape
    n = r * m
    lo, hi = lo[:r].ravel(), hi[:r].ravel()
    kept = keep.ravel().astype(float)  # converted once, not by each bincount and the divide
    deg = np.bincount(lo, kept, n)
    deg += np.bincount(hi, kept, n)
    weights = 1.0 + np.maximum(deg.take(lo), deg.take(hi))
    weights = np.divide(kept, weights, out=weights).reshape(r, e)
    inc = np.bincount(lo, weights.ravel(), n)
    inc += np.bincount(hi, weights.ravel(), n)
    inc = inc.reshape(r, m)
    out = np.empty((r, 2 * e + m))
    out[:, :e] = weights
    out[:, e:2 * e] = weights
    diag = out[:, 2 * e:]
    np.subtract(1.0, inc, out=diag)
    check_edge_weights(weights, inc, diag)
    return out


def metropolis_weights(g: Graph) -> WeightMatrix:
    """The Metropolis weights of ``g``, checked as a WeightMatrix: the
    one ``metropolis_edges`` round that keeps every edge row, written at
    its ``metropolis_slots`` into zeros."""
    keep = np.ones((1, len(g.edges)), bool)
    w = np.zeros((g.m, g.m))
    w.flat[metropolis_slots(g.m, g.edges)] = metropolis_edges(g.m, g.edges, keep)
    return WeightMatrix(w)


def slem(wm: WeightMatrix) -> float:
    """Second largest eigenvalue modulus of W. The largest eigenvalue
    of a symmetric doubly-stochastic W is 1, so the SLEM is
    max(|lambda_0|, |lambda_{m-2}|), read off ``eigvalsh``'s ascending
    spectrum of the already checked W. Zero for a single agent; < 1 iff
    the positive-weight graph is connected."""
    if wm.m == 1:
        return 0.0
    ev = np.linalg.eigvalsh(wm.w)[[0, -2]]
    return float(np.abs(ev).max())


def failure_stream(g: Graph, f: FailureModel, first: int):
    """Rounds first, first+1, ... of link failures as one stream:
    ``draw(rounds)`` gives the next (rounds, E) keep-masks. Row e of
    ``g.edges`` survives round k with probability 1-p, iff its uniform
    is >= p. The uniforms come from one Philox4x64 stream keyed on
    ``child_seed(seed, "edge-failure")``. A counter step gives four
    64-bit words and a double takes one, so round k's E uniforms start
    at counter k*c, c = ceil(E/4): the stream starts at first*c, and a
    draw takes a (rounds, 4c) block and keeps its first E columns. Each
    row depends only on (seed, round, edge row), so the masks are the
    same bits however the rounds are split into draws; random access
    is a fresh stream (Salmon et al., SC 2011)."""
    e = len(g.edges)
    c = -(-e // 4)
    bits = np.random.Philox(key=child_seed(f.seed, "edge-failure"))
    bits.advance(first * c)
    rng = np.random.Generator(bits)
    return lambda rounds: rng.random((rounds, 4 * c))[:, :e] >= f.edge_drop_prob


def apply_failures(g: Graph, f: FailureModel, round_: int) -> Graph:
    """The graph of one round's surviving edges (see ``failure_stream``);
    they stay sorted and duplicate-free."""
    if f.edge_drop_prob == 0.0:
        return g
    return Graph(g.m, g.edges[failure_stream(g, f, round_)(1)[0]])


def round_weights(g: Graph, w0: WeightMatrix, f: FailureModel, rounds: int, live: list):
    """Rounds 1, ..., ``rounds`` of (m, m) weights on ``g`` under ``f``
    for ``consensus.run_rounds``; ``w0`` is ``metropolis_weights(g)``.
    Each chunk of R = max(1, BLOCK_FLOATS // (5 (E + m))) rounds first
    appends its per-round live-edge counts to ``live``. 5 (E + m) bounds
    the floats ``metropolis_edges`` holds per round: two (R, E) index
    arrays, the weights, the (R, 2E + m) output and a few (R, m) arrays.

    Without link loss every round is ``w0.w`` and every count E, with no
    draw and no build: those give the same bits, but ``sweep_solve`` ran
    slower through the build in every pair measured. Otherwise a chunk
    is the next draw of one ``failure_stream``, built as
    ``metropolis_edges`` builds it but on flat (round, node) indices
    made once per run, for a full chunk; each round writes its row at
    the ``metropolis_slots`` of one zeroed (m, m) buffer, yielded every
    round."""
    m, e = g.m, len(g.edges)
    chunk = max(1, BLOCK_FLOATS // (5 * (e + m)))
    if f.edge_drop_prob == 0.0:
        for k in range(0, rounds, chunk):
            live.append(np.full(min(chunk, rounds - k), e))
            yield from itertools.repeat(w0.w, len(live[-1]))
        return
    draw = failure_stream(g, f, 1)
    lo, hi = _edge_indices(m, g.edges, chunk)
    slots = metropolis_slots(m, g.edges)
    flat = np.zeros(m * m)  # zero off the slots, the same for every round
    w = flat.reshape(m, m)
    for k in range(0, rounds, chunk):
        keep = draw(min(chunk, rounds - k))
        live.append(keep.sum(axis=1))
        for row in _metropolis_rows(m, lo, hi, keep):
            flat[slots] = row
            yield w
