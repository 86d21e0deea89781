"""Dense symmetric matrices: generation with known spectra, row
partitioning, principal diagonal blocks, and two eigensolvers. Every
solve of a run goes through ``eigenvalues``: ``sturm_eigen``
(Householder tridiagonalization, then Sturm multisection) for just the
eigenvalues asked for, written once for a (B, n, n) stack. One matrix
is the stack of one (the truth, the SLEM); the agents' blocks of one
size are one stack. ``jacobi_eigen``, a cyclic-Jacobi solver for the
full spectrum, stays as the tests' reference; no run path calls it.
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
MAX_NORM = float(np.sqrt(np.finfo(float).max))


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
    """A dense real symmetric matrix. Refused: max|a| > MAX_NORM / n (a
    solve squares values up to ||A||_F <= n max|a|) and an asymmetry over
    SYMMETRY_TOL max(1, max|a|); averaging makes the rest bitwise symmetric."""

    a: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.a, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries must be finite")
        biggest = np.max(np.abs(arr))
        if biggest > MAX_NORM / arr.shape[0]:  # n * biggest may overflow
            raise ValueError(f"matrix entries must be at most sqrt(max float) / n "
                             f"= {MAX_NORM / arr.shape[0]:.3e} in magnitude, got {biggest:.3e}")
        asym = np.max(np.abs(arr - arr.T)) if arr.shape[0] > 1 else 0.0
        if asym > SYMMETRY_TOL * max(1.0, biggest):
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
    eigenvalues: np.ndarray  # sturm_eigen: as asked; jacobi_eigen (reference): all, ascending
    iterations_used: int  # full Jacobi sweeps, or multisection passes (per block of a stack)
    residual: float  # max |off-diagonal|, or widest bracket (per block of a stack)


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


def _tridiagonalize(a: np.ndarray):
    """The diagonals (B, n) and off-diagonals (B, n - 1) of Q^T A Q,
    tridiagonal, for each A of the stack ``a`` (B, n, n), from n - 2
    Householder reflections (Golub & Van Loan 8.3.1). Each reflection
    H = I - 2 v v^T acts on the trailing block C as the rank-2 update
    H C H = C - v w^T - w v^T, w = p - (v.p) v, p = 2 C v, which keeps C
    exactly symmetric. A block whose column is already zero gets v = 0,
    so H = I for it alone. Vectors are (B, r, 1) columns, so every
    product is one BLAS dot or gemv per block, and each block's bits do
    not depend on the others in the stack."""
    a = np.array(a, dtype=float)
    nb, n, _ = a.shape
    alphas = []
    for k in range(n - 2):
        v = a[:, k + 1:, k, None].copy()
        head = v[:, :1]
        alpha = np.copysign(np.sqrt(v.mT @ v), head)
        head += alpha
        norm = np.sqrt(v.mT @ v)
        if np.count_nonzero(alpha) < nb:  # some block's column is already zero
            zero = alpha == 0.0
            v[zero[:, 0, 0]] = 0.0
            norm[zero] = 1.0
        v /= norm
        c = a[:, k + 1:, k + 1:]
        p = 2.0 * (c @ v)
        w = p - (v.mT @ p) * v
        c -= v * w.mT + w * v.mT
        alphas.append(alpha)
    off = np.zeros((nb, n - 1))
    if n > 2:
        off[:, :-1] = -np.concatenate(alphas, axis=1)[:, :, 0]
    if n > 1:
        off[:, -1] = a[:, -1, -2]
    return a.diagonal(axis1=1, axis2=2), off


def _sturm_counts(d: np.ndarray, e2: np.ndarray, x: np.ndarray,
                  pivmin) -> np.ndarray:
    """How many eigenvalues of the tridiagonal (d, e) lie below each
    shift in ``x``: the negative pivots of the LDL^T factorization of
    T - x I (Golub & Van Loan 8.4.2), for all shifts at once. For one
    matrix d is (n,), e2 (n - 1,) and x (S,); for a stack of L they are
    (L, n), (L, n - 1) and (L, S); ``pivmin`` broadcasts against x. A pivot
    smaller than ``pivmin`` is set to -pivmin, as LAPACK's dstebz does,
    so no division by zero or overflow can occur. Each row's pivots
    overwrite its d - x."""
    bound = np.full(x.shape, pivmin)
    floor = -bound
    q = np.ones(x.shape)
    rows = d.T[..., None] - x
    e2 = e2.T[..., None] if x.ndim > 1 else e2  # one matrix divides by scalars
    for dx, e2_prev in zip(rows, np.concatenate((np.zeros((1,) + e2.shape[1:]), e2))):
        q = np.subtract(dx, e2_prev / q, out=dx)
        np.copyto(q, floor, where=np.abs(q) < bound)
    return np.count_nonzero(rows < 0, axis=0)


def sturm_eigen(A, indices: tuple) -> SpectrumResult:
    """The eigenvalues at ``indices`` (0 = smallest) of a symmetric
    matrix, in the order given: Householder tridiagonalization, then
    multisection on Sturm counts (Golub & Van Loan 8.4-8.5). Each index
    starts from the Gershgorin bracket; each pass splits every bracket
    at SHIFTS_PER_INDEX shifts and keeps the piece where the count
    first exceeds the index. It stops once every bracket is at most
    2 eps max|bound| wide, or after MAX_PASSES passes, so it always
    terminates. ``iterations_used`` counts passes; ``residual`` is the
    widest final bracket, which bounds the error of the tridiagonal's
    eigenvalues. Deterministic.

    ``A`` is one DenseSymMatrix, or a (B, n, n) array of matrices as
    DenseSymMatrix holds them (checked, exactly symmetric). A stack is
    solved in one pass over all its blocks, and each block stops on its
    own brackets, so it gets the bits of solving it alone as a stack of
    one. For a stack, ``eigenvalues`` is (B, len(indices)) and
    ``iterations_used`` and ``residual`` are per-block arrays."""
    a = A.a[None] if isinstance(A, DenseSymMatrix) else np.asarray(A, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2] or 0 in a.shape:
        raise ValueError(f"expected a stack of square matrices, got shape {a.shape}")
    nb, n, _ = a.shape
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1 or len(idx) == 0 or idx.min() < 0 or idx.max() >= n:
        raise ValueError(f"indices must lie in 0..{n - 1}, got {indices}")
    d, e = _tridiagonalize(a)
    ae = np.zeros((nb, n + 1))
    ae[:, 1:-1] = np.abs(e)
    radius = ae[:, :-1] + ae[:, 1:]
    lo0, hi0 = (d - radius).min(axis=1), (d + radius).max(axis=1)
    tol = 2.0 * np.finfo(float).eps * np.maximum(np.abs(lo0), np.abs(hi0))
    e2 = e * e
    pivmin = np.finfo(float).tiny * np.maximum(1.0, e2.max(axis=1, initial=0.0))
    # Brackets are rows of lo and hi, index fastest: row b * J + i.
    nj = len(idx)
    lo, hi = np.repeat(lo0, nj), np.repeat(hi0, nj)
    passes = np.zeros(nb, dtype=np.int64)
    steps = np.arange(1, SHIFTS_PER_INDEX + 1) / (SHIFTS_PER_INDEX + 1)
    npass = 0
    todo = np.flatnonzero(hi0 - lo0 > tol)  # blocks with a wide bracket
    while todo.size and npass < MAX_PASSES:
        # Narrow the brackets of ``todo`` until a block's are all narrow.
        sel = (todo[:, None] * nj + np.arange(nj)).ravel()
        blo, bhi, targets = lo[sel], hi[sel], np.tile(idx, len(todo))[:, None]
        pick = todo[0] if len(todo) == 1 else todo  # one block divides by scalars
        bd, be2, bpiv, btol = d[pick], e2[pick], pivmin[pick, None], tol[todo]
        rows = np.arange(len(sel))
        while True:
            x = blo[:, None] + (bhi - blo)[:, None] * steps
            counts = _sturm_counts(bd, be2, x.reshape(*bd.shape[:-1], -1), bpiv)
            above = counts.reshape(x.shape) > targets
            # Piece j lies between column j and j + 1 of [lo, shifts, hi].
            j = np.where(above.any(axis=1), above.argmax(axis=1), SHIFTS_PER_INDEX)
            edges = np.column_stack((blo, x, bhi))
            blo, bhi = edges[rows, j], edges[rows, j + 1]
            npass += 1
            wide = (bhi - blo).reshape(len(todo), nj).max(axis=1) > btol
            if npass == MAX_PASSES or not wide.all():
                break
        lo[sel], hi[sel] = blo, bhi
        passes[todo] = npass
        todo = todo[wide]
    values = ((lo + hi) / 2.0).reshape(nb, nj)
    widths = (hi - lo).reshape(nb, nj).max(axis=1)
    if isinstance(A, DenseSymMatrix):
        return SpectrumResult(values[0], int(passes[0]), float(widths[0]))
    return SpectrumResult(values, passes, widths)


# (indices, matrix or stack shape, content digest) -> the read-only
# eigenvalues, while a reuse scope is open.
_spectra = ContextVar("coopeig_spectra", default=None)


@contextmanager
def reuse_spectra():
    """A scope in which ``eigenvalues`` solves each distinct matrix or
    stack once. Nothing is kept after it closes, by an exception or not."""
    token = _spectra.set({})
    try:
        yield
    finally:
        _spectra.reset(token)


def eigenvalues(A, indices: tuple) -> np.ndarray:
    """``sturm_eigen(A, indices).eigenvalues``, the one solve of every run
    path, for one DenseSymMatrix or a (B, n, n) stack. Inside
    ``reuse_spectra()`` it is stored read-only, keyed on ``indices``, the
    shape of ``A`` and a sha256 digest of its bytes, so no copy of ``A``
    is kept, and handed back for every equal matrix or stack asked for
    the same indices. A solve that raises stores nothing."""
    memo = _spectra.get()
    if memo is None:
        return sturm_eigen(A, indices).eigenvalues
    a = A.a if isinstance(A, DenseSymMatrix) else A
    key = (indices, a.shape, hashlib.sha256(a.tobytes()).digest())
    values = memo.get(key)
    if values is None:
        values = sturm_eigen(A, indices).eigenvalues
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
    return DenseSymMatrix(spd_stack(spectrum[None], [seed])[0])


def spd_stack(spectra: np.ndarray, seeds) -> np.ndarray:
    """Q diag(s) Q^T for each row s of ``spectra`` (B, n), with Q the
    orthogonal factor of a Gaussian keyed on the matching seed. One
    stacked QR and one stacked product serve the whole stack, and each
    matrix is bit-equal to building it alone. Callers check and
    symmetrize."""
    n = spectra.shape[1]
    g = np.stack([keyed_rng(seed, "spd-orthogonal").standard_normal((n, n)) for seed in seeds])
    q, r = np.linalg.qr(g)
    # fix the sign convention so Q is seed-deterministic
    q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    return q @ (spectra[:, :, None] * np.eye(n)) @ q.transpose(0, 2, 1)


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
    """Load the plain-text matrix format through DenseSymMatrix's checks.
    The size header must be a whole number >= 1. Every ValueError names
    the file."""
    with open(path) as f:
        tokens = f.read().split()
    if not tokens:
        raise ValueError(f"{path}: empty matrix file")
    try:
        n = int(tokens[0])
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"{path}: size header must be a whole number >= 1, got {tokens[0]!r}")
    try:
        vals = [float(t) for t in tokens[1:]]
        if len(vals) != n * n:
            raise ValueError(f"expected {n * n} values, found {len(vals)}")
        return DenseSymMatrix(np.array(vals).reshape(n, n))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
