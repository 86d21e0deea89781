"""Dense symmetric matrices: generation with known spectra, row
partitioning, and a reference eigensolver.
Every solve of a run calls ``numpy.linalg.eigvalsh`` (LAPACK) at its
call site: the truth, the SLEM and each stack of equal-size blocks.
``jacobi_eigen``, a cyclic-Jacobi solver for the full spectrum, stays as
the tests' reference; no run path calls it.
"""

from contextlib import contextmanager
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
    """A dense real symmetric matrix. Refused: max|a| > MAX_NORM / n, which
    keeps every eigenvalue (at most n max|a| in magnitude) below
    sqrt(max float), so the round loop's error norms can square it; and
    an asymmetry over SYMMETRY_TOL max(1, max|a|). Averaging makes the
    rest bitwise symmetric."""

    a: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.a, dtype=np.float64)
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


@dataclass(frozen=True)
class SpectrumResult:
    eigenvalues: np.ndarray  # all, ascending
    iterations_used: int  # full Jacobi sweeps
    residual: float  # max |off-diagonal|


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


def _max_offdiag(a: np.ndarray) -> float:
    d = np.abs(a)
    np.fill_diagonal(d, 0.0)
    return float(d.max())


def generate_spd(n: int, spectrum, seed: int) -> DenseSymMatrix:
    """A symmetric positive-definite matrix with the prescribed spectrum:
    ``spd_stack`` of one Gaussian from ``keyed_rng(seed, "spd-orthogonal")``."""
    spectrum = np.asarray(spectrum, dtype=float)
    if n < 1:
        raise ValueError("n must be >= 1")
    if spectrum.shape != (n,):
        raise ValueError(f"spectrum must have length {n}")
    if not np.all(np.isfinite(spectrum) & (spectrum > 0)):
        raise ValueError(f"spectrum entries must all be finite and positive, got {spectrum}")
    g = keyed_rng(seed, "spd-orthogonal").standard_normal((1, n, n))
    return DenseSymMatrix(spd_stack(spectrum[None], g)[0])


def spd_stack(spectra: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Q diag(s) Q^T for each row s of ``spectra`` (B, n), with Q the
    orthogonal factor of the matching Gaussian ``g[b]`` (B, n, n), its
    sign fixed by R's diagonal. One stacked QR and one stacked product
    serve the whole stack, and each matrix is bit-equal to building it
    alone. Callers check and symmetrize."""
    n = spectra.shape[1]
    q, r = np.linalg.qr(g)
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


def save_matrix(A: DenseSymMatrix, path) -> None:
    """Plain-text format: line 1 = n, then n rows of n values."""
    with open(path, "w") as f:
        f.write(f"{A.n}\n")
        for row in A.a:
            f.write(" ".join(f"{v:.17g}" for v in row) + "\n")


@contextmanager
def naming(name):
    """Put ``name``, a file's path or a phrase that holds it, in front of
    any ValueError the block raises, a file that does not decode or parse
    included: every reader of a user's file names it this way."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def load_matrix(path) -> DenseSymMatrix:
    """Load the plain-text matrix format through DenseSymMatrix's checks.
    The size header must be a whole number >= 1. Every ValueError names
    the file. A row whose first i tokens repeat column i's text above
    the diagonal converts only its tokens from the diagonal on and
    copies the rest from the column: equal text converts to equal bits,
    so the array, NaN included, is the one a full parse gives, and the
    first token that fails to convert is the same too (a skipped bad
    token repeats one already converted). A file with the wrong count
    of values still converts every token before saying so."""
    with naming(path):
        with open(path) as f:
            tokens = f.read().split()
        if not tokens:
            raise ValueError("empty matrix file")
        try:
            n = int(tokens[0])
        except ValueError:
            n = 0
        if n < 1:
            raise ValueError(f"size header must be a whole number >= 1, got {tokens[0]!r}")
        if len(tokens) - 1 != n * n:
            np.fromiter(map(float, tokens[1:]), np.float64, len(tokens) - 1)
            raise ValueError(f"expected {n * n} values, found {len(tokens) - 1}")
        a = np.empty((n, n))
        for i in range(n):
            row = 1 + i * n
            if tokens[row:row + i] == tokens[1 + i:row:n]:
                a[i, i:] = np.fromiter(map(float, tokens[row + i:row + n]), np.float64, n - i)
                a[i, :i] = a[:i, i]
            else:
                a[i] = np.fromiter(map(float, tokens[row:row + n]), np.float64, n)
        return DenseSymMatrix(a)
