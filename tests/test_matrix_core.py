from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from coopeig import matrix_core
from coopeig.comm_graph import build_graph, metropolis_weights
from coopeig.local_estimator import OracleEstimator, estimate, estimate_stack
from coopeig.matrix_core import (
    DEFAULT_TOL,
    MAX_NORM,
    DenseSymMatrix,
    JacobiConvergenceError,
    Partition,
    _round_robin,
    generate_spd,
    jacobi_eigen,
    load_matrix,
    naming,
    partition_rows,
    save_matrix,
    spd_stack,
)
from coopeig.seeding import keyed_rng


def tridiag(n, d, e):
    a = np.diag(np.full(n, float(d)))
    idx = np.arange(n - 1)
    a[idx, idx + 1] = a[idx + 1, idx] = float(e)
    return DenseSymMatrix(a)


class TestDenseSymMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            DenseSymMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DenseSymMatrix(np.zeros((0, 0)))

    def test_symmetrizes_tiny_asymmetry(self):
        a = np.array([[1.0, 2.0], [2.0 + 1e-14, 1.0]])
        m = DenseSymMatrix(a)
        assert m.a[0, 1] == m.a[1, 0]

    def test_symmetry_tolerance_scales_with_entries(self):
        # rounding in a generated matrix grows with its entries: at a
        # 1e5-wide spectrum it exceeds an absolute 1e-12
        a = generate_spd(40, np.linspace(0.5, 1e5, 40), seed=0).a.copy()
        a[0, 1] += 1e-11
        m = DenseSymMatrix(a)
        assert m.a[0, 1] == m.a[1, 0]

    def test_relative_asymmetry_still_refused(self):
        a = np.full((3, 3), 1e5)
        a[0, 1] += 1e-9 * 1e5
        with pytest.raises(ValueError, match="not symmetric"):
            DenseSymMatrix(a)

    # finite entries whose squares overflow a solve: 1e200 gave a NaN
    # truth, 1.5e308 overflowed the symmetrizing average
    @pytest.mark.parametrize("rows", [[[1.0, 1e200], [1e200, 1.0]], [[1.5e308]]],
                             ids=["1e200", "1.5e308"])
    def test_refuses_entries_a_solve_would_overflow(self, rows):
        with pytest.raises(ValueError, match=r"sqrt\(max float\) / n"):
            DenseSymMatrix(rows)

    def test_entries_at_the_bound_solve_to_finite_values(self):
        n = 4
        a = np.full((n, n), MAX_NORM / n)
        a[0, 1] = a[1, 0] = -MAX_NORM / n
        values = np.linalg.eigvalsh(DenseSymMatrix(a).a)
        assert np.all(np.isfinite(values))
        a[2, 2] = np.nextafter(MAX_NORM / n, np.inf)
        with pytest.raises(ValueError, match="in magnitude"):
            DenseSymMatrix(a)


class TestGenerateSpd:
    def test_prescribed_spectrum(self):
        m = generate_spd(4, [0.5, 1, 2, 4], seed=7)
        ev = jacobi_eigen(m).eigenvalues
        assert np.allclose(ev, [0.5, 1, 2, 4], atol=1e-10)

    def test_one_by_one(self):
        m = generate_spd(1, [3.0], seed=0)
        assert m.a[0, 0] == pytest.approx(3.0, abs=1e-14)

    def test_uniform_spectrum_gives_identity(self):
        m = generate_spd(3, [1, 1, 1], seed=42)
        assert np.allclose(m.a, np.eye(3), atol=1e-12)

    def test_deterministic(self):
        a = generate_spd(6, [1, 2, 3, 4, 5, 6], seed=9)
        b = generate_spd(6, [1, 2, 3, 4, 5, 6], seed=9)
        assert np.array_equal(a.a, b.a)

    @pytest.mark.parametrize("n", [1, 2, 4, 5, 16, 64])
    def test_matches_one_matrix_formula(self, n):
        # the stacked construction gives each matrix bit-equal to
        # building it alone from one QR and one product
        spectrum = np.linspace(0.5, 5.0, n)
        g = keyed_rng(n, "spd-orthogonal").standard_normal((n, n))
        q, r = np.linalg.qr(g)
        q = q * np.sign(np.diag(r))
        ref = DenseSymMatrix(q @ np.diag(spectrum) @ q.T)
        assert np.array_equal(generate_spd(n, spectrum, seed=n).a, ref.a)
        stacked = spd_stack(np.stack([spectrum, spectrum[::-1]]),
                            np.stack([keyed_rng(s, "spd-orthogonal").standard_normal((n, n))
                                      for s in (n, n + 1)]))
        assert np.array_equal(DenseSymMatrix(stacked[0]).a, ref.a)
        assert np.array_equal(DenseSymMatrix(stacked[1]).a,
                              generate_spd(n, spectrum[::-1], seed=n + 1).a)

    def test_rejects_nonpositive_spectrum(self):
        # inf is > 0 and NaN fails every comparison, so "<= 0" let both through
        for bad in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="spectrum entries must all be finite and positive"):
                generate_spd(2, [1.0, bad], seed=0)

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError):
            generate_spd(0, [], seed=0)


class TestPartition:
    def test_balanced_split(self):
        assert partition_rows(10, 3).block_sizes == (4, 3, 3)

    def test_one_row_each(self):
        assert partition_rows(6, 6).block_sizes == (1, 1, 1, 1, 1, 1)

    def test_single_agent(self):
        assert partition_rows(5, 1).block_sizes == (5,)

    def test_rejects_bad_agent_counts(self):
        with pytest.raises(ValueError):
            partition_rows(3, 4)
        with pytest.raises(ValueError):
            partition_rows(3, 0)

    @given(st.integers(1, 64), st.data())
    def test_sizes_sum_and_balance(self, n, data):
        m = data.draw(st.integers(1, n))
        p = partition_rows(n, m)
        assert sum(p.block_sizes) == n
        assert max(p.block_sizes) - min(p.block_sizes) <= 1

    def test_offsets_are_prefix_sums(self):
        p = Partition((2, 3, 1))
        assert p.offsets == (0, 2, 5, 6)


class TestJacobi:
    def test_identity(self):
        r = jacobi_eigen(DenseSymMatrix(np.eye(3)), tol=1e-12)
        assert np.array_equal(r.eigenvalues, [1.0, 1.0, 1.0])

    def test_tridiag_3(self):
        ev = jacobi_eigen(tridiag(3, 2, 1)).eigenvalues
        expect = [2 - np.sqrt(2), 2.0, 2 + np.sqrt(2)]
        assert np.allclose(ev, expect, atol=1e-10)

    def test_tridiag_8_analytic(self):
        ev = jacobi_eigen(tridiag(8, 2, 1)).eigenvalues
        k = np.arange(1, 9)
        expect = np.sort(2 - 2 * np.cos(k * np.pi / 9))
        assert np.allclose(ev, expect, atol=1e-10)

    def test_residual_below_tol(self):
        r = jacobi_eigen(generate_spd(12, np.arange(1.0, 13.0), seed=4))
        assert r.residual <= 1e-12

    def test_deterministic(self):
        a = generate_spd(10, np.arange(1.0, 11.0), seed=2)
        assert np.array_equal(jacobi_eigen(a).eigenvalues, jacobi_eigen(a).eigenvalues)

    @given(st.integers(2, 24), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_recovers_prescribed_spectrum(self, n, seed):
        rng = np.random.default_rng(seed)
        spectrum = np.sort(rng.uniform(0.1, 10.0, n))
        ev = jacobi_eigen(generate_spd(n, spectrum, seed)).eigenvalues
        assert np.max(np.abs(ev - spectrum)) < 1e-9

    def test_permutation_invariance(self):
        a = generate_spd(8, np.arange(1.0, 9.0), seed=5)
        rng = np.random.default_rng(0)
        perm = rng.permutation(8)
        b = DenseSymMatrix(a.a[np.ix_(perm, perm)])
        assert np.max(np.abs(jacobi_eigen(a).eigenvalues
                             - jacobi_eigen(b).eigenvalues)) < 1e-10

    def test_trace_preservation(self):
        a = generate_spd(16, np.arange(0.5, 8.5, 0.5), seed=6)
        ev = jacobi_eigen(a).eigenvalues
        assert abs(ev.sum() - np.trace(a.a)) < 1e-9 * 16

    def test_cauchy_interlacing(self):
        a = generate_spd(12, np.arange(1.0, 13.0), seed=8)
        p = partition_rows(12, 4)
        lo = jacobi_eigen(a).eigenvalues[0]
        for i, j in zip(p.offsets, p.offsets[1:]):
            block = DenseSymMatrix(a.a[i:j, i:j])
            assert jacobi_eigen(block).eigenvalues[0] >= lo - 1e-9

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(ValueError):
            jacobi_eigen(DenseSymMatrix(np.eye(2)), tol=0.0)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_round_robin_pairs_each_index_once_per_step(self, n):
        seen = []
        for p, q in _round_robin(n):
            assert np.all(p < q)
            assert len(np.union1d(p, q)) == 2 * len(p)
            seen += zip(p.tolist(), q.tolist())
        assert sorted(seen) == [(i, j) for i in range(n) for j in range(i + 1, n)]

    # np.linalg.eigvalsh is a reference for the tests only, not a second oracle.
    @pytest.mark.parametrize("n, atol", [(2, 1e-12), (3, 1e-12), (5, 1e-12),
                                         (24, 1e-12), (64, 1e-12), (200, 1e-11)])
    def test_matches_eigvalsh(self, n, atol):
        g = np.random.default_rng(n).standard_normal((n, n))
        a = DenseSymMatrix(g + g.T)
        r = jacobi_eigen(a)
        assert np.max(np.abs(r.eigenvalues - np.linalg.eigvalsh(a.a))) <= atol
        assert r.residual <= DEFAULT_TOL

    def test_repeated_eigenvalues(self):
        spectrum = np.repeat([0.5, 2.0, 3.0], 4)
        a = generate_spd(12, spectrum, seed=3)
        r = jacobi_eigen(a)
        assert np.max(np.abs(r.eigenvalues - np.linalg.eigvalsh(a.a))) <= 1e-12
        assert np.max(np.abs(r.eigenvalues - spectrum)) <= 1e-12
        assert r.residual <= DEFAULT_TOL

    def test_already_diagonal_needs_no_sweep(self):
        r = jacobi_eigen(DenseSymMatrix(np.diag([3.0, -1.0, 2.0, 2.0, 0.5])))
        assert np.array_equal(r.eigenvalues, [-1.0, 0.5, 2.0, 2.0, 3.0])
        assert r.iterations_used == 0
        assert r.residual == 0.0

    def test_iterations_used_counts_whole_sweeps(self):
        a = generate_spd(12, np.arange(1.0, 13.0), seed=4)
        r = jacobi_eigen(a)
        assert r.iterations_used >= 2
        again = jacobi_eigen(a, max_sweeps=r.iterations_used)
        assert np.array_equal(again.eigenvalues, r.eigenvalues)
        assert again.iterations_used == r.iterations_used
        with pytest.raises(JacobiConvergenceError) as e:
            jacobi_eigen(a, max_sweeps=r.iterations_used - 1)
        assert e.value.sweeps == r.iterations_used - 1

    def test_one_sweep_cap_raises(self):
        a = generate_spd(12, np.arange(1.0, 13.0), seed=4)
        with pytest.raises(JacobiConvergenceError) as e:
            jacobi_eigen(a, max_sweeps=1)
        assert e.value.sweeps == 1
        assert e.value.residual > DEFAULT_TOL


def ring_weights(m):
    return DenseSymMatrix(metropolis_weights(build_graph("ring", m)).w)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestOracleAgainstJacobi:
    """The exact oracle's ``eigvalsh`` solve, A as one agent's whole
    block, against the Jacobi reference."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 12, 16, 33, 40, 64, 128])
    def test_matches_jacobi(self, n):
        A = generate_spd(n, np.geomspace(0.1, 10.0, n), seed=n)
        reference = jacobi_eigen(A).eigenvalues
        assert np.abs(estimate(OracleEstimator(), A) - reference).max() <= 1e-12

    @pytest.mark.parametrize("value", [0.0, -0.0, -3.75, 1e-300, 0.1, 2.0 / 3.0, 5.123456789e12])
    def test_one_by_one_block_is_its_entry(self, value):
        block = DenseSymMatrix([[value]])
        assert estimate(OracleEstimator(), block).tolist() == [value]

    @pytest.mark.parametrize("A", [
        DenseSymMatrix(np.diag([3.0, 1.0, 2.0, -4.0])),
        DenseSymMatrix(np.eye(5)),
        DenseSymMatrix(np.diag([1.0, 1.0, 2.0, 2.0, 2.0, 3.0])),
        ring_weights(10),  # eigenvalues in pairs, one negative pair
        ring_weights(2),
        DenseSymMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])),  # -1 and 1
        DenseSymMatrix(-generate_spd(12, np.linspace(0.5, 6.0, 12), seed=3).a),
        tridiag(8, 2.0, 1.0),
    ], ids=["diagonal", "identity", "repeated", "ring-10", "ring-2", "swap",
            "negative-definite", "tridiagonal"])
    def test_degenerate_inputs(self, A):
        reference = jacobi_eigen(A).eigenvalues
        oracle = estimate(OracleEstimator(), A)
        assert np.all(np.diff(oracle) >= 0)
        assert np.abs(oracle - reference).max() <= 1e-12


def spd_blocks(k, count, seed=0):
    """A (count, k, k) stack of SPD blocks with distinct spectra."""
    return np.stack([generate_spd(k, np.geomspace(0.1, 10.0, k) * (1 + i), seed=seed + i).a
                     for i in range(count)])


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestSturmStack:
    """A (B, n, n) stack is solved in one pass, the exact oracle's one
    ``eigvalsh`` call that replaced the Sturm multisection stack solve;
    each block keeps the bits of solving it alone as a stack of one."""

    @staticmethod
    def check_blocks(stack):
        agents = list(range(len(stack)))
        n = stack.shape[1]
        for j in {1, n}:
            rows = estimate_stack([OracleEstimator()] * len(stack), stack, agents, tracked=j)
            assert rows.shape == (len(stack), j)
            for row, block in zip(rows, stack):
                alone = estimate(OracleEstimator(), DenseSymMatrix(block))[:j]
                assert row.tobytes() == alone.tobytes()
                reference = jacobi_eigen(DenseSymMatrix(block)).eigenvalues[:j]
                assert np.abs(row - reference).max() <= 1e-12

    @pytest.mark.parametrize("k", [1, 2, 8])
    def test_blocks_match_jacobi_and_their_solo_bits(self, k):
        self.check_blocks(spd_blocks(k, 5, seed=k))

    def test_diagonal_block_next_to_a_dense_one(self):
        stack = np.stack([np.diag([3.0, 1.0, 2.0, -4.0, 0.5, 7.0]), spd_blocks(6, 1)[0],
                          np.diag([1.0, 0.0, 0.0, 0.0, 0.0, 0.0]) + np.diag(np.ones(5), 1)
                          + np.diag(np.ones(5), -1)])
        self.check_blocks(stack)

    def test_repeated_eigenvalues(self):
        ring = metropolis_weights(build_graph("ring", 6)).w  # eigenvalues in pairs
        stack = np.stack([np.eye(6), np.diag([1.0, 1.0, 2.0, 2.0, 2.0, 3.0]), ring,
                          generate_spd(6, [1.0, 1.0, 1.0, 2.0, 2.0, 5.0], seed=4).a])
        self.check_blocks(stack)


class TestSmallestEigenvalue:
    def test_diagonal(self):
        assert jacobi_eigen(DenseSymMatrix(np.diag([3.0, 1.0, 2.0]))).eigenvalues[0] == 1.0

    def test_identity(self):
        assert jacobi_eigen(DenseSymMatrix(np.eye(4))).eigenvalues[0] == 1.0

    def test_constructed_spectrum(self):
        a = generate_spd(5, [0.25, 1, 2, 3, 4], seed=1)
        assert jacobi_eigen(a).eigenvalues[0] == pytest.approx(0.25, abs=1e-10)


class TestMatrixFile:
    def test_round_trip(self, tmp_path):
        a = generate_spd(6, np.arange(1.0, 7.0), seed=11)
        path = tmp_path / "m.txt"
        save_matrix(a, path)
        b = load_matrix(path)
        assert np.array_equal(a.a, b.a)

    def test_rejects_asymmetric_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1 2\n3 1\n")
        with pytest.raises(ValueError):
            load_matrix(path)

    def test_rejects_truncated_file(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("3\n1 0 0\n0 1 0\n")
        with pytest.raises(ValueError):
            load_matrix(path)

    # A negative header failed in NumPy's reshape ("can only specify one
    # unknown dimension") and a fractional one in int(), neither naming
    # the file.
    @pytest.mark.parametrize("text", ["-2\n1 0 0 1\n", "2.5\n1 0 0 1\n", "0\n", "two\n1\n"],
                             ids=["negative", "fractional", "zero", "word"])
    def test_rejects_bad_size_header(self, tmp_path, text):
        path = tmp_path / "header.txt"
        path.write_text(text)
        header = text.split()[0]
        with pytest.raises(ValueError) as exc:
            load_matrix(path)
        assert str(exc.value) == f"{path}: size header must be a whole number >= 1, got {header!r}"

    @pytest.mark.parametrize("text, message", [
        ("2\n1 2\n3 1\n", "matrix is not symmetric"),
        ("3\n1 0 0\n0 1 0\n", "expected 9 values, found 6"),
        ("2\n1 0\n0 x\n", "could not convert string to float"),
        ("2\n1 0\n0 nan\n", "matrix entries must be finite"),
        ("1\n1e308\n", "matrix entries must be at most"),
    ], ids=["asymmetric", "truncated", "not-a-number", "nan", "too-large"])
    def test_every_error_names_the_file(self, tmp_path, text, message):
        path = tmp_path / "m.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            load_matrix(path)
        assert str(exc.value).startswith(f"{path}: {message}")


def full_parse(path):
    """The reader before mirrored rows were copied: every token converted.
    The header is taken as given; the grids below always have a valid one."""
    with naming(path):
        with open(path) as f:
            tokens = f.read().split()
        n = int(tokens[0])
        vals = np.fromiter(map(float, tokens[1:]), float, len(tokens) - 1)
        if len(vals) != n * n:
            raise ValueError(f"expected {n * n} values, found {len(vals)}")
        return matrix_core.DenseSymMatrix(vals.reshape(n, n))


# Each group spells one value several ways.
SPELLINGS = [["0.5", "5e-1", ".5"], ["1", "1.0", "1e0"], ["-0", "-0.0"], ["0", "0.0"],
             ["-2.25", "-225e-2"]]
# "x" is a token float() refuses.
SPECIAL = ["nan", "NaN", "inf", "-inf", "x"]


@st.composite
def token_files(draw):
    """A size header and an n x n token grid, n 1 to 4. Each entry below
    the diagonal is its mirror's text, the same value spelled another
    way, or an asymmetry within or beyond SYMMETRY_TOL. Half the grids
    put a non-finite or bad token above, below or on the diagonal,
    sometimes in both mirror places; a sixth have one value too few or
    too many."""
    n = draw(st.integers(1, 4))
    grid = [[""] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            group = draw(st.sampled_from(SPELLINGS))
            grid[i][j] = grid[j][i] = draw(st.sampled_from(group))
            how = draw(st.sampled_from(["same", "same", "same", "respell", "near", "far"]))
            if j > i and how == "respell":
                grid[j][i] = draw(st.sampled_from(group))
            elif j > i and how != "same":
                grid[j][i] = repr(float(grid[i][j]) + (1e-13 if how == "near" else 1e-3))
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        grid[i][j] = draw(st.sampled_from(SPECIAL))
        if draw(st.booleans()):
            grid[j][i] = grid[i][j]
    tokens = [t for row in grid for t in row]
    off = draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
    tokens = tokens[:-1] if off < 0 else tokens + ["1"] * off
    lines = [" ".join(tokens[r:r + n]) for r in range(0, len(tokens), n)]
    return f"{n}\n" + "\n".join(lines) + "\n"


def outcome(load, path):
    """The raw array handed to DenseSymMatrix, and the loaded matrix's
    bytes or the error's text."""
    raw = []

    def recording(a):
        raw.append(np.array(a).tobytes())
        return DenseSymMatrix(a)

    with mock.patch.object(matrix_core, "DenseSymMatrix", recording):
        try:
            result = load(path).a.tobytes()
        except ValueError as exc:
            result = str(exc)
    return raw, result


class TestMirroredRows:
    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=token_files())
    @example(text="1\n2.5\n")  # n = 1
    @example(text="1\nx\n")
    @example(text="2\n1 0.5\n5e-1 nan\n")  # equal values, different text
    @example(text="2\n1 -0\n-0 1\n")
    @example(text="2\n1 0\n-0 1\n")
    @example(text="3\n1 x 0\n0 1 0\n0 0 1\n")  # bad token above the diagonal
    @example(text="3\n1 0 0\n0 1 0\nx 0 1\n")  # below it
    @example(text="3\n1 0 0\n0 x 0\n0 0 1\n")  # on it
    @example(text="3\n1 0 0\n0 1 0\n0 0 1 x\n")  # one value too many, one bad
    @example(text="2\n1 0.5\n0.5000000000001 1\n")  # within SYMMETRY_TOL
    @example(text="2\n1 0.5\n0.501 1\n")  # beyond it
    def test_same_bits_or_error_as_full_parse(self, tmp_path, text):
        path = tmp_path / "m.txt"
        path.write_text(text)
        assert outcome(load_matrix, path) == outcome(full_parse, path)

    @staticmethod
    def conversions(monkeypatch, path):
        count = []

        def counting(text):
            count.append(text)
            return float(text)

        monkeypatch.setattr(matrix_core, "float", counting, raising=False)
        a = load_matrix(path)
        monkeypatch.delattr(matrix_core, "float")
        return a, len(count)

    def test_mirrored_file_converts_upper_triangle_once(self, tmp_path, monkeypatch):
        n = 64
        A = generate_spd(n, np.linspace(0.5, 6.0, n), seed=3)
        path = tmp_path / "m.txt"
        save_matrix(A, path)
        a, count = self.conversions(monkeypatch, path)
        assert count == n * (n + 1) // 2 == 2080
        assert a.a.tobytes() == A.a.tobytes()
        # respell entry (1, 0): its row no longer mirrors column 1, so
        # row 1 converts its one token below the diagonal as well
        lines = path.read_text().split("\n")
        row = lines[2].split()
        sign = "-" if row[0].startswith("-") else ""
        row[0] = sign + "0" + row[0].lstrip("-")
        lines[2] = " ".join(row)
        path.write_text("\n".join(lines))
        a, count = self.conversions(monkeypatch, path)
        assert count == 2081
        assert a.a.tobytes() == A.a.tobytes()
