"""Dense symmetric matrices: generation with known spectra, row
partitioning, principal diagonal blocks, and two eigensolvers. The
global truth and the SLEM need only a few eigenvalues of a large
matrix, and ``sturm_eigen`` (Householder tridiagonalization, then Sturm
multisection) finds just those. Block solves and direct calls use
``jacobi_eigen``, the cyclic-Jacobi reference oracle for the full
spectrum of a small matrix.
"""

import hashlib
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .seeding import keyed_rng

DEFAULT_TOL = 1e-12
MAX_SWEEPS = 100
SYMMETRY_TOL = 1e-12


class JacobiConvergenceError(RuntimeError):
    """Raised when the sweep cap is hit before the off-diagonal residual
    drops below tolerance."""

    def __init__(self, residual: float, sweeps: int):
        super().__init__(
            f"Jacobi did not converge in {sweeps} sweeps (residual {residual:.3e})"
        )
        self.residual = residual
        self.sweeps = sweeps


@dataclass(frozen=True)
class DenseSymMatrix:
    """A dense real symmetric matrix. Symmetry is enforced exactly at
    construction (averaging), so ``a[i, j] == a[j, i]`` bitwise."""

    a: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.a, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries must be finite")
        asym = np.max(np.abs(arr - arr.T)) if arr.shape[0] > 1 else 0.0
        if asym > SYMMETRY_TOL:
            raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
        arr = (arr + arr.T) / 2.0
        arr.setflags(write=False)
        object.__setattr__(self, "a", arr)

    @property
    def n(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class Partition:
    """Contiguous row-block sizes summing to the matrix dimension."""

    block_sizes: tuple
    offsets: tuple = field(init=False)

    def __post_init__(self):
        sizes = tuple(int(k) for k in self.block_sizes)
        if not sizes or any(k < 1 for k in sizes):
            raise ValueError(f"block sizes must all be >= 1, got {sizes}")
        offs = (0,) + tuple(np.cumsum(sizes).tolist())
        object.__setattr__(self, "block_sizes", sizes)
        object.__setattr__(self, "offsets", offs)

    @property
    def m(self) -> int:
        return len(self.block_sizes)

    @property
    def n(self) -> int:
        return self.offsets[-1]


@dataclass(frozen=True)
class SpectrumResult:
    eigenvalues: np.ndarray  # jacobi_eigen: all, ascending; sturm_eigen: as asked
    iterations_used: int  # full Jacobi sweeps, or multisection passes
    residual: float  # max |off-diagonal|, or widest bracket, at termination


@lru_cache(maxsize=None)
def _round_robin(n: int) -> tuple:
    """The n-1 (n even) or n (n odd) steps of one parallel-order cyclic
    sweep: round-robin tournament pairings (Brent & Luk 1985; Golub &
    Van Loan 8.5). Each step is a (p, q) pair of index arrays, p < q,
    covering every index at most once; each unordered pair appears in
    exactly one step. Odd n plays against a padding index that is
    dropped. Read-only, since the cache hands them to every caller."""
    size = n + n % 2
    ring = list(range(size))
    steps = []
    for _ in range(size - 1):
        pairs = [(min(i, j), max(i, j))
                 for i, j in zip(ring[: size // 2], reversed(ring[size // 2:]))
                 if max(i, j) < n]
        p, q = np.array(pairs).T.copy()
        p.setflags(write=False)
        q.setflags(write=False)
        steps.append((p, q))
        ring = [ring[0], ring[-1]] + ring[1:-1]
    return tuple(steps)


def _sweep(a: np.ndarray, skip: float) -> None:
    # One cyclic Jacobi sweep, in place. The rotations of one step act
    # on disjoint index pairs, so they commute and are applied together:
    # first to rows p and q, then to columns p and q. Pairs with
    # |a[p, q]| <= skip are left alone.
    d = a.diagonal()
    for p, q in _round_robin(a.shape[0]):
        apq = a[p, q]
        live = np.abs(apq) > skip
        if not live.all():
            if not live.any():
                continue
            p, q, apq = p[live], q[live], apq[live]
        diff = d[q] - d[p]
        phi = diff / (2.0 * apq)
        aphi = np.abs(phi)
        t = np.copysign(1.0 / (aphi + np.hypot(phi, 1.0)), phi)
        tiny = aphi > 0.5e36  # |a[p, q]| < 1e-36 |diff|
        if tiny.any():
            t[tiny] = apq[tiny] / diff[tiny]
        c = 1.0 / np.hypot(t, 1.0)
        s = t * c
        cc, sc = c[:, None], s[:, None]
        rp, rq = a[p], a[q]
        a[p] = cc * rp - sc * rq
        a[q] = sc * rp + cc * rq
        cp, cq = a[:, p], a[:, q]
        a[:, p] = cp * c - cq * s
        a[:, q] = cp * s + cq * c


def jacobi_eigen(A: DenseSymMatrix, tol: float = DEFAULT_TOL,
                 max_sweeps: int = MAX_SWEEPS) -> SpectrumResult:
    """All eigenvalues of a symmetric matrix by cyclic Jacobi rotations
    in parallel (round-robin) order. Deterministic; sorted ascending.
    ``iterations_used`` counts full sweeps; ``residual`` is the largest
    off-diagonal magnitude at exit. Raises JacobiConvergenceError if it
    still exceeds ``tol`` after ``max_sweeps`` sweeps."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    a = np.array(A.a, dtype=float)
    n = a.shape[0]
    if n == 1:
        return SpectrumResult(a[0].copy(), 0, 0.0)
    for sweep in range(max_sweeps):
        off = _max_offdiag(a)
        if off <= tol:
            return SpectrumResult(np.sort(np.diag(a)), sweep, off)
        _sweep(a, 0.01 * tol)
    off = _max_offdiag(a)
    if off <= tol:
        return SpectrumResult(np.sort(np.diag(a)), max_sweeps, off)
    raise JacobiConvergenceError(off, max_sweeps)


SHIFTS_PER_INDEX = 100
# From the full Gershgorin width, 101 sub-brackets per pass reach
# 2 eps max|bound| in 8 passes (101**8 > 2**52); the rest is slack.
MAX_PASSES = 12


def _tridiagonalize(A: DenseSymMatrix):
    """The diagonal and off-diagonal of Q^T A Q, tridiagonal, from
    n - 2 Householder reflections (Golub & Van Loan 8.3.1). Each
    reflection H = I - 2 v v^T acts on the trailing block B as the
    rank-2 update H B H = B - v w^T - w v^T, w = p - (v.p) v, p = 2 B v,
    which keeps B exactly symmetric."""
    a = np.array(A.a, dtype=float)
    n = a.shape[0]
    off = np.zeros(n - 1)
    for k in range(n - 2):
        x = a[k + 1:, k]
        alpha = np.copysign(np.linalg.norm(x), x[0])
        if alpha == 0.0:  # the column is already zero
            continue
        v = x.copy()
        v[0] += alpha
        v /= np.linalg.norm(v)
        b = a[k + 1:, k + 1:]
        p = 2.0 * (b @ v)
        w = p - (v @ p) * v
        b -= v[:, None] * w + w[:, None] * v
        off[k] = -alpha
    if n > 1:
        off[-1] = a[-1, -2]
    return a.diagonal(), off


def _sturm_counts(d: np.ndarray, e2: np.ndarray, x: np.ndarray,
                  pivmin: float) -> np.ndarray:
    """How many eigenvalues of the tridiagonal (d, e) lie below each
    shift in ``x``: the negative pivots of the LDL^T factorization of
    T - x I (Golub & Van Loan 8.4.2), for all shifts at once. A pivot
    smaller than ``pivmin`` is set to -pivmin, as LAPACK's dstebz does,
    so no division by zero or overflow can occur."""
    count = np.zeros(len(x), dtype=np.int64)
    q = np.ones(len(x))
    for dx, e2_prev in zip(d[:, None] - x, np.concatenate(([0.0], e2))):
        q = dx - e2_prev / q
        q[np.abs(q) < pivmin] = -pivmin
        count += q < 0
    return count


def sturm_eigen(A: DenseSymMatrix, indices: tuple) -> SpectrumResult:
    """The eigenvalues at ``indices`` (0 = smallest) of a symmetric
    matrix, in the order given: Householder tridiagonalization, then
    multisection on Sturm counts (Golub & Van Loan 8.4-8.5). Each index
    starts from the Gershgorin bracket; each pass splits every bracket
    at SHIFTS_PER_INDEX shifts and keeps the piece where the count
    first exceeds the index. It stops once every bracket is at most
    2 eps max|bound| wide, or after MAX_PASSES passes, so it always
    terminates. ``iterations_used`` counts passes; ``residual`` is the
    widest final bracket, which bounds the error of the tridiagonal's
    eigenvalues. Deterministic."""
    idx = np.asarray(indices, dtype=np.int64)
    n = A.n
    if idx.ndim != 1 or len(idx) == 0 or idx.min() < 0 or idx.max() >= n:
        raise ValueError(f"indices must lie in 0..{n - 1}, got {indices}")
    d, e = _tridiagonalize(A)
    ae = np.abs(np.concatenate(([0.0], e, [0.0])))
    radius = ae[:-1] + ae[1:]
    lo0, hi0 = float((d - radius).min()), float((d + radius).max())
    tol = 2.0 * np.finfo(float).eps * max(abs(lo0), abs(hi0))
    e2 = e * e
    pivmin = np.finfo(float).tiny * max(1.0, float(e2.max(initial=0.0)))
    lo, hi = np.full(len(idx), lo0), np.full(len(idx), hi0)
    steps = np.arange(1, SHIFTS_PER_INDEX + 1) / (SHIFTS_PER_INDEX + 1)
    rows = np.arange(len(idx))
    passes = 0
    while passes < MAX_PASSES and (hi - lo).max() > tol:
        x = lo[:, None] + (hi - lo)[:, None] * steps
        above = _sturm_counts(d, e2, x.ravel(), pivmin).reshape(x.shape) > idx[:, None]
        # Piece j lies between column j and j + 1 of [lo, shifts, hi].
        j = np.where(above.any(axis=1), above.argmax(axis=1), SHIFTS_PER_INDEX)
        edges = np.column_stack((lo, x, hi))
        lo, hi = edges[rows, j], edges[rows, j + 1]
        passes += 1
    return SpectrumResult((lo + hi) / 2.0, passes, float((hi - lo).max()))


# (solver, its arguments, matrix content) -> the read-only eigenvalues,
# while a reuse scope is open.
_spectra = ContextVar("coopeig_spectra", default=None)


@contextmanager
def reuse_spectra():
    """A scope in which ``eigenvalues`` solves each distinct matrix once.
    Nothing is kept after it closes, by an exception or not."""
    token = _spectra.set({})
    try:
        yield
    finally:
        _spectra.reset(token)


def eigenvalues(A: DenseSymMatrix, solve, *args) -> np.ndarray:
    """``solve(A, *args).eigenvalues``. Inside ``reuse_spectra()`` it is
    stored read-only, keyed on ``solve``, ``args``, the shape of ``A``
    and a sha256 digest of its bytes, so no copy of ``A`` is kept, and
    handed back for every equal matrix solved the same way. A solve
    that raises stores nothing."""
    memo = _spectra.get()
    if memo is None:
        return solve(A, *args).eigenvalues
    key = (solve, args, A.a.shape, hashlib.sha256(A.a.tobytes()).digest())
    values = memo.get(key)
    if values is None:
        values = solve(A, *args).eigenvalues
        values.setflags(write=False)
        memo[key] = values
    return values


def _max_offdiag(a: np.ndarray) -> float:
    d = np.abs(a)
    np.fill_diagonal(d, 0.0)
    return float(d.max())


def generate_spd(n: int, spectrum, seed: int) -> DenseSymMatrix:
    """A symmetric positive-definite matrix with the prescribed spectrum,
    via Q diag(spectrum) Q^T for a seeded random orthogonal Q."""
    spectrum = np.asarray(spectrum, dtype=float)
    if n < 1:
        raise ValueError("n must be >= 1")
    if spectrum.shape != (n,):
        raise ValueError(f"spectrum must have length {n}")
    if np.any(spectrum <= 0):
        raise ValueError("spectrum entries must all be positive")
    rng = keyed_rng(seed, "spd-orthogonal")
    g = rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))  # fix sign convention so Q is seed-deterministic
    return DenseSymMatrix(q @ np.diag(spectrum) @ q.T)


def partition_rows(n: int, m: int) -> Partition:
    """Balanced contiguous split of n rows over m agents: the first
    (n mod m) blocks get the extra row."""
    if m < 1 or m > n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    base, extra = divmod(n, m)
    return Partition(tuple(base + 1 for _ in range(extra))
                     + tuple(base for _ in range(m - extra)))


def diagonal_block(A: DenseSymMatrix, p: Partition, i: int) -> DenseSymMatrix:
    """The k_i x k_i principal submatrix on agent i's own index range."""
    if p.n != A.n:
        raise ValueError(f"partition covers {p.n} rows, matrix has {A.n}")
    if not 0 <= i < p.m:
        raise ValueError(f"block index {i} out of range for {p.m} blocks")
    lo, hi = p.offsets[i], p.offsets[i + 1]
    return DenseSymMatrix(A.a[lo:hi, lo:hi])


def save_matrix(A: DenseSymMatrix, path) -> None:
    """Plain-text format: line 1 = n, then n rows of n values."""
    with open(path, "w") as f:
        f.write(f"{A.n}\n")
        for row in A.a:
            f.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def load_matrix(path) -> DenseSymMatrix:
    """Load the plain-text matrix format; asymmetry beyond 1e-12 is
    rejected, below it the matrix is symmetrized by averaging."""
    with open(path) as f:
        tokens = f.read().split()
    if not tokens:
        raise ValueError(f"{path}: empty matrix file")
    n = int(tokens[0])
    vals = [float(t) for t in tokens[1:]]
    if len(vals) != n * n:
        raise ValueError(f"{path}: expected {n * n} values, found {len(vals)}")
    return DenseSymMatrix(np.array(vals).reshape(n, n))
