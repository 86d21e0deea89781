import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopeig import matrix_core
from coopeig.comm_graph import build_graph, metropolis_weights
from coopeig.local_estimator import NoisyOracleEstimator, OracleEstimator, estimate
from coopeig.matrix_core import (
    DEFAULT_TOL,
    MAX_NORM,
    MAX_PASSES,
    DenseSymMatrix,
    JacobiConvergenceError,
    Partition,
    _round_robin,
    _sturm_counts,
    _tridiagonalize,
    diagonal_block,
    eigenvalues,
    generate_spd,
    jacobi_eigen,
    load_matrix,
    partition_rows,
    reuse_spectra,
    save_matrix,
    spd_stack,
    sturm_eigen,
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
        values = sturm_eigen(DenseSymMatrix(a), tuple(range(n))).eigenvalues
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
        stacked = spd_stack(np.stack([spectrum, spectrum[::-1]]), [n, n + 1])
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
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 12, 16, 33, 40, 64, 128])
    def test_matches_jacobi(self, n):
        A = generate_spd(n, np.geomspace(0.1, 10.0, n), seed=n)
        r = sturm_eigen(A, tuple(range(n)))
        reference = jacobi_eigen(A).eigenvalues
        assert np.abs(r.eigenvalues - reference).max() <= 1e-12
        assert r.iterations_used < MAX_PASSES
        # the oracle's block solve, A as one agent's whole block
        assert np.abs(estimate(OracleEstimator(), A) - reference).max() <= 1e-12

    # -0.0 comes out as +0.0, the midpoint of its bracket [-0.0, +0.0]
    @pytest.mark.parametrize("value", [0.0, -0.0, -3.75, 1e-300, 0.1, 2.0 / 3.0, 5.123456789e12])
    def test_one_by_one_block_is_its_entry(self, value):
        block = DenseSymMatrix([[value]])
        assert estimate(OracleEstimator(), block).tolist() == [value]
        assert sturm_eigen(block, (0,)).iterations_used == 0
        assert sturm_eigen(block, (0, 0)).eigenvalues.tobytes() == np.full(2, value + 0.0).tobytes()

    def test_matches_eigvalsh_at_256(self):
        A = generate_spd(256, np.linspace(0.5, 5.0, 256), seed=1)
        idx = (0, 1, 2, 127, 254, 255)
        r = sturm_eigen(A, idx)
        assert np.abs(r.eigenvalues - np.linalg.eigvalsh(A.a)[list(idx)]).max() <= 1e-12
        assert r.iterations_used < MAX_PASSES

    @pytest.mark.parametrize("A", [
        DenseSymMatrix(np.diag([3.0, 1.0, 2.0, -4.0])),  # every Householder column is zero
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
        r = sturm_eigen(A, tuple(range(A.n)))
        reference = jacobi_eigen(A).eigenvalues
        assert np.abs(r.eigenvalues - reference).max() <= 1e-12
        assert r.iterations_used < MAX_PASSES
        oracle = estimate(OracleEstimator(), A)
        assert np.all(np.diff(oracle) >= 0)
        assert np.abs(oracle - reference).max() <= 1e-12

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


def spd_blocks(k, count, seed=0):
    """A (count, k, k) stack of SPD blocks with distinct spectra."""
    return np.stack([generate_spd(k, np.geomspace(0.1, 10.0, k) * (1 + i), seed=seed + i).a
                     for i in range(count)])


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestSturmStack:
    """A (B, n, n) stack is solved in one pass; each block keeps the
    bits of solving it alone as a stack of one."""

    @staticmethod
    def check_blocks(stack, indices):
        r = sturm_eigen(stack, indices)
        assert r.eigenvalues.shape == (len(stack), len(indices))
        for b, block in enumerate(stack):
            alone = sturm_eigen(stack[b:b + 1], indices)
            assert r.eigenvalues[b].tobytes() == alone.eigenvalues[0].tobytes()
            assert r.iterations_used[b] == alone.iterations_used[0] < MAX_PASSES
            assert r.residual[b] == alone.residual[0]
            one = sturm_eigen(DenseSymMatrix(block), indices)
            assert one.eigenvalues.tobytes() == alone.eigenvalues[0].tobytes()
            assert one.iterations_used == alone.iterations_used[0]
            reference = jacobi_eigen(DenseSymMatrix(block)).eigenvalues[list(indices)]
            assert np.abs(r.eigenvalues[b] - reference).max() <= 1e-12
        return r

    @pytest.mark.parametrize("k", [1, 2, 8])
    def test_blocks_match_jacobi_and_their_solo_bits(self, k):
        stack = spd_blocks(k, 5, seed=k)
        self.check_blocks(stack, tuple(range(k)))
        self.check_blocks(stack, (0,))

    def test_diagonal_block_next_to_a_dense_one(self):
        # every Householder column of the diagonal block is zero
        stack = np.stack([np.diag([3.0, 1.0, 2.0, -4.0, 0.5, 7.0]), spd_blocks(6, 1)[0],
                          np.diag([1.0, 0.0, 0.0, 0.0, 0.0, 0.0]) + np.diag(np.ones(5), 1)
                          + np.diag(np.ones(5), -1)])
        self.check_blocks(stack, tuple(range(6)))
        d, e = _tridiagonalize(stack)
        assert d[0].tolist() == [3.0, 1.0, 2.0, -4.0, 0.5, 7.0]  # H = I for this block
        assert not e[0].any()
        assert np.isfinite(d).all() and np.isfinite(e).all()

    def test_repeated_eigenvalues(self):
        ring = metropolis_weights(build_graph("ring", 6)).w  # eigenvalues in pairs
        stack = np.stack([np.eye(6), np.diag([1.0, 1.0, 2.0, 2.0, 2.0, 3.0]), ring,
                          generate_spd(6, [1.0, 1.0, 1.0, 2.0, 2.0, 5.0], seed=4).a])
        self.check_blocks(stack, tuple(range(6)))

    def test_narrow_block_stops_while_the_others_narrow(self):
        # the identity needs no pass, a near-multiple of it few, and the
        # dense blocks more; none is narrowed past its own stop
        near = 5.0 * np.eye(4) + 1e-9 * spd_blocks(4, 1, seed=9)[0]
        stack = np.stack([spd_blocks(4, 1)[0], np.eye(4), near, spd_blocks(4, 1, seed=5)[0]])
        r = self.check_blocks(stack, (0, 3))
        assert r.iterations_used[1] == 0
        assert 0 < r.iterations_used[2] < min(r.iterations_used[0], r.iterations_used[3])

    @pytest.mark.parametrize("shape", [(4, 4, 3), (4,), (0, 3, 3)])
    def test_rejects_a_stack_that_is_not_square(self, shape):
        with pytest.raises(ValueError):
            sturm_eigen(np.zeros(shape), (0,))


@pytest.fixture
def solves(monkeypatch):
    """The (n, indices) of every real solve behind ``eigenvalues``, for a
    matrix or a stack of n x n blocks."""
    calls = []

    def counted(A, indices):
        calls.append((A.n if isinstance(A, DenseSymMatrix) else A.shape[-1], indices))
        return sturm_eigen(A, indices)

    monkeypatch.setattr(matrix_core, "sturm_eigen", counted)
    return calls


class TestReuseSpectra:
    def test_each_distinct_matrix_solved_once(self, solves):
        a, b = tridiag(5, 2.0, 1.0), tridiag(5, 2.0, 0.5)
        every = tuple(range(5))
        with reuse_spectra():
            first = eigenvalues(a, every)
            assert eigenvalues(DenseSymMatrix(a.a.copy()), every) is first
            assert np.array_equal(eigenvalues(b, every), sturm_eigen(b, every).eigenvalues)
            eigenvalues(a, (0,))
            eigenvalues(a, (0,))
        assert solves == [(5, every), (5, every), (5, (0,))]
        assert np.array_equal(first, sturm_eigen(a, every).eigenvalues)

    def test_keyed_on_the_indices(self, solves):
        # The truth of A is its smallest eigenvalue alone; the noisy
        # oracle on A as an agent's whole block (a one-agent run) still
        # needs all six.
        A = generate_spd(6, np.linspace(0.5, 3.0, 6), seed=1)
        noisy = NoisyOracleEstimator(0.5, 9)
        standalone = estimate(noisy, A)
        with reuse_spectra():
            truth = eigenvalues(A, (0,))
            scoped = estimate(noisy, A)
            assert len(scoped) == 6 and np.array_equal(scoped, standalone)
            assert eigenvalues(A, (0,)) is truth
            assert len(eigenvalues(A, (0, 1))) == 2
        assert [indices for _, indices in solves[1:]] == [(0,), tuple(range(6)), (0, 1)]

    def test_handed_out_read_only(self):
        with reuse_spectra():
            values = eigenvalues(tridiag(4, 2.0, 1.0), (0, 1))
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0] = 0.0

    def test_outside_a_scope_every_call_solves(self, solves):
        a = tridiag(4, 2.0, 1.0)
        first, second = eigenvalues(a, (0,)), eigenvalues(a, (0,))
        assert len(solves) == 2 and first is not second and first.flags.writeable

    def test_failed_solve_not_stored(self, monkeypatch):
        calls = []

        def fails_once(A, indices):
            calls.append(indices)
            if len(calls) == 1:
                raise RuntimeError("solve failed")
            return sturm_eigen(A, indices)

        monkeypatch.setattr(matrix_core, "sturm_eigen", fails_once)
        a = tridiag(4, 2.0, 1.0)
        with reuse_spectra():
            with pytest.raises(RuntimeError):
                eigenvalues(a, (0,))
            eigenvalues(a, (0,))
            eigenvalues(a, (0,))
        assert len(calls) == 2

    def test_stack_solved_once(self, solves):
        stack = spd_blocks(3, 4)
        with reuse_spectra():
            first = eigenvalues(stack, (0, 1))
            assert eigenvalues(stack.copy(), (0, 1)) is first
            assert not first.flags.writeable
            assert np.array_equal(eigenvalues(stack[::-1], (0, 1)), first[::-1])
            eigenvalues(stack[:3], (0, 1))  # a shorter stack is another key
            eigenvalues(stack, (0,))
        assert solves == [(3, (0, 1)), (3, (0, 1)), (3, (0, 1)), (3, (0,))]
        assert np.array_equal(first, sturm_eigen(stack, (0, 1)).eigenvalues)

    def test_failed_stack_solve_not_stored(self, monkeypatch):
        calls = []

        def fails_once(A, indices):
            calls.append(indices)
            if len(calls) == 1:
                raise RuntimeError("solve failed")
            return sturm_eigen(A, indices)

        monkeypatch.setattr(matrix_core, "sturm_eigen", fails_once)
        stack = spd_blocks(3, 4)
        with reuse_spectra():
            with pytest.raises(RuntimeError):
                eigenvalues(stack, (0,))
            eigenvalues(stack, (0,))
            eigenvalues(stack, (0,))
        assert len(calls) == 2

    def test_scope_closes_on_exception(self, solves):
        a = tridiag(4, 2.0, 1.0)
        with pytest.raises(RuntimeError):
            with reuse_spectra():
                eigenvalues(a, (0,))
                raise RuntimeError("trial failed")
        eigenvalues(a, (0,))
        assert len(solves) == 2

    def test_memo_keeps_no_matrix_bytes(self):
        # 20 distinct 100x100 matrices hold 1.6 MB; a digest-keyed memo
        # holds their 20 spectra (16 kB) and little else.
        mats = [DenseSymMatrix(np.eye(100) * (i + 1.0)) for i in range(20)]
        with reuse_spectra():
            tracemalloc.start()
            try:
                for A in mats:
                    eigenvalues(A, tuple(range(100)))
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
