"""Dense symmetric matrices: generation with known spectra, row
partitioning, principal diagonal blocks, and the cyclic-Jacobi
eigensolver used as the exact ground-truth oracle everywhere else.
"""

from dataclasses import dataclass, field

import numpy as np

from .seeding import keyed_rng

try:
    import numba

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a hard dep, kept soft for safety
    _HAVE_NUMBA = False

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
    eigenvalues: np.ndarray  # sorted ascending
    iterations_used: int  # full sweeps performed
    residual: float  # max |off-diagonal| at termination


def _sweep_py(a, skip):
    # One cyclic Jacobi sweep over the upper triangle, in place.
    n = a.shape[0]
    for p in range(n - 1):
        for q in range(p + 1, n):
            apq = a[p, q]
            if abs(apq) <= skip:
                continue
            diff = a[q, q] - a[p, p]
            if abs(apq) < abs(diff) * 1e-36:
                t = apq / diff
            else:
                phi = diff / (2.0 * apq)
                t = 1.0 / (abs(phi) + np.sqrt(phi * phi + 1.0))
                if phi < 0.0:
                    t = -t
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            for j in range(n):
                arp = a[p, j]
                arq = a[q, j]
                a[p, j] = c * arp - s * arq
                a[q, j] = s * arp + c * arq
            for j in range(n):
                acp = a[j, p]
                acq = a[j, q]
                a[j, p] = c * acp - s * acq
                a[j, q] = s * acp + c * acq


if _HAVE_NUMBA:
    _sweep = numba.njit(cache=True)(_sweep_py)
else:  # pragma: no cover
    _sweep = _sweep_py


def jacobi_eigen(A: DenseSymMatrix, tol: float = DEFAULT_TOL,
                 max_sweeps: int = MAX_SWEEPS) -> SpectrumResult:
    """All eigenvalues of a symmetric matrix by the classical cyclic
    Jacobi rotation method. Deterministic; sorted ascending."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    a = np.array(A.a, dtype=float)
    n = a.shape[0]
    if n == 1:
        return SpectrumResult(a[0].copy(), 0, 0.0)
    off = 0.0
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


def smallest_eigenvalue(A: DenseSymMatrix) -> float:
    """Smallest eigenvalue via the Jacobi oracle at default tolerance."""
    return float(jacobi_eigen(A, DEFAULT_TOL).eigenvalues[0])


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
