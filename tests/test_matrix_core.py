import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopeig.comm_graph import build_graph, metropolis_weights
from coopeig.local_estimator import NoisyOracleEstimator, estimate
from coopeig.matrix_core import (
    DEFAULT_TOL,
    MAX_PASSES,
    DenseSymMatrix,
    JacobiConvergenceError,
    Partition,
    _round_robin,
    _sturm_counts,
    diagonal_block,
    eigenvalues,
    generate_spd,
    jacobi_eigen,
    load_matrix,
    partition_rows,
    reuse_spectra,
    save_matrix,
    sturm_eigen,
)


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

    def test_rejects_nonpositive_spectrum(self):
        with pytest.raises(ValueError):
            generate_spd(2, [1.0, 0.0], seed=0)
        with pytest.raises(ValueError):
            generate_spd(2, [1.0, -1.0], seed=0)

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


class TestDiagonalBlock:
    def test_diagonal_case(self):
        a = DenseSymMatrix(np.diag([1.0, 2.0, 3.0]))
        p = Partition((2, 1))
        assert np.array_equal(diagonal_block(a, p, 0).a, np.diag([1.0, 2.0]))
        assert np.array_equal(diagonal_block(a, p, 1).a, [[3.0]])

    def test_single_block_is_identity_op(self):
        a = generate_spd(5, [1, 2, 3, 4, 5], seed=3)
        p = Partition((5,))
        assert np.array_equal(diagonal_block(a, p, 0).a, a.a)

    def test_rejects_out_of_range(self):
        a = DenseSymMatrix(np.eye(3))
        with pytest.raises(ValueError):
            diagonal_block(a, Partition((2, 1)), 2)


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
        for i in range(4):
            assert jacobi_eigen(diagonal_block(a, p, i)).eigenvalues[0] >= lo - 1e-9

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
class TestSturmEigen:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 12, 16, 40, 64])
    def test_matches_jacobi(self, n):
        A = generate_spd(n, np.geomspace(0.1, 10.0, n), seed=n)
        r = sturm_eigen(A, tuple(range(n)))
        assert np.abs(r.eigenvalues - jacobi_eigen(A).eigenvalues).max() <= 1e-12
        assert r.iterations_used < MAX_PASSES

    def test_matches_eigvalsh_at_256(self):
        A = generate_spd(256, np.linspace(0.5, 5.0, 256), seed=1)
        idx = (0, 1, 2, 127, 254, 255)
        r = sturm_eigen(A, idx)
        assert np.abs(r.eigenvalues - np.linalg.eigvalsh(A.a)[list(idx)]).max() <= 1e-12
        assert r.iterations_used < MAX_PASSES

    @pytest.mark.parametrize("A", [
        DenseSymMatrix(np.diag([3.0, 1.0, 2.0, -4.0])),  # every Householder column is zero
        DenseSymMatrix(np.eye(5)),
        ring_weights(10),  # eigenvalues in pairs, one negative pair
        ring_weights(2),
        DenseSymMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])),  # -1 and 1
        DenseSymMatrix(-generate_spd(12, np.linspace(0.5, 6.0, 12), seed=3).a),
        tridiag(8, 2.0, 1.0),
    ], ids=["diagonal", "identity", "ring-10", "ring-2", "swap", "negative-definite",
            "tridiagonal"])
    def test_degenerate_inputs(self, A):
        r = sturm_eigen(A, tuple(range(A.n)))
        assert np.abs(r.eigenvalues - jacobi_eigen(A).eigenvalues).max() <= 1e-12
        assert r.iterations_used < MAX_PASSES

    def test_identity_needs_no_pass(self):
        r = sturm_eigen(DenseSymMatrix(np.eye(4)), (0, 3))
        assert r.eigenvalues.tolist() == [1.0, 1.0]
        assert r.iterations_used == 0 and r.residual == 0.0

    def test_values_in_the_order_of_the_indices(self):
        A = generate_spd(6, [1, 2, 3, 4, 5, 6], seed=0)
        r = sturm_eigen(A, (5, 0, 0))
        assert np.allclose(r.eigenvalues, [6.0, 1.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("indices", [(), (-1,), (4,)])
    def test_rejects_bad_indices(self, indices):
        with pytest.raises(ValueError):
            sturm_eigen(DenseSymMatrix(np.eye(4)), indices)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_zero_pivots_are_guarded(self, scale):
        # path-graph adjacency, eigenvalues +-1.618 s and +-0.618 s; the
        # shift 0 makes every other pivot exactly zero
        d, e = np.zeros(4), np.full(3, scale)
        pivmin = np.finfo(float).tiny * max(1.0, scale**2)
        x = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * scale
        assert _sturm_counts(d, e * e, x, pivmin).tolist() == [0, 1, 2, 3, 4]


class TestReuseSpectra:
    @staticmethod
    def counting():
        calls = []

        def solve(A):
            calls.append(A)
            return jacobi_eigen(A)

        return solve, calls

    def test_each_distinct_matrix_solved_once(self):
        solve, calls = self.counting()
        a, b = tridiag(5, 2.0, 1.0), tridiag(5, 2.0, 0.5)
        with reuse_spectra():
            first = eigenvalues(a, solve)
            assert eigenvalues(DenseSymMatrix(a.a.copy()), solve) is first
            assert np.array_equal(eigenvalues(b, solve), jacobi_eigen(b).eigenvalues)
        assert len(calls) == 2
        assert np.array_equal(first, jacobi_eigen(a).eigenvalues)

    def test_keyed_on_the_solve(self):
        # The truth of A is its smallest eigenvalue alone; the noisy
        # oracle on A as an agent's whole block needs all six.
        A = generate_spd(6, np.linspace(0.5, 3.0, 6), seed=1)
        noisy = NoisyOracleEstimator(0.5, 9)
        standalone = estimate(noisy, A)
        with reuse_spectra():
            truth = eigenvalues(A, sturm_eigen, (0,))
            assert np.array_equal(estimate(noisy, A), standalone)
            assert np.array_equal(eigenvalues(A, sturm_eigen, (0,)), truth)
            assert len(eigenvalues(A, sturm_eigen, (0, 1))) == 2

    def test_handed_out_read_only(self):
        solve, _ = self.counting()
        with reuse_spectra():
            values = eigenvalues(tridiag(4, 2.0, 1.0), solve)
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0] = 0.0

    def test_outside_a_scope_every_call_solves(self):
        solve, calls = self.counting()
        a = tridiag(4, 2.0, 1.0)
        first, second = eigenvalues(a, solve), eigenvalues(a, solve)
        assert len(calls) == 2 and first is not second and first.flags.writeable

    def test_failed_solve_not_stored(self):
        def stuck(A):
            raise JacobiConvergenceError(1.0, 1)

        solve, calls = self.counting()
        a = tridiag(4, 2.0, 1.0)
        with reuse_spectra():
            with pytest.raises(JacobiConvergenceError):
                eigenvalues(a, stuck)
            eigenvalues(a, solve)
        assert len(calls) == 1

    def test_scope_closes_on_exception(self):
        solve, calls = self.counting()
        a = tridiag(4, 2.0, 1.0)
        with pytest.raises(RuntimeError):
            with reuse_spectra():
                eigenvalues(a, solve)
                raise RuntimeError("trial failed")
        eigenvalues(a, solve)
        assert len(calls) == 2

    def test_memo_keeps_no_matrix_bytes(self):
        # 20 distinct 100x100 matrices hold 1.6 MB; a digest-keyed memo
        # holds their 20 spectra (16 kB) and little else.
        mats = [DenseSymMatrix(np.eye(100) * (i + 1.0)) for i in range(20)]
        with reuse_spectra():
            tracemalloc.start()
            try:
                for A in mats:
                    eigenvalues(A, jacobi_eigen)
                held, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert held < 20 * 100 * 100 * 8 // 8


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
