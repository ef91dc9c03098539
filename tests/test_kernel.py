import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "qbdbench")]

import oracles  # noqa: E402
import workloads  # noqa: E402
from qbdshift import classify, kernel, reference_solution, validate  # noqa: E402


class TestSpectralRadius:
    def test_scalar(self):
        assert kernel.spectral_radius(np.array([[0.6]])) == pytest.approx(0.6)

    def test_identity(self):
        assert kernel.spectral_radius(np.eye(3)) == pytest.approx(1.0)

    def test_periodic_offdiagonal(self):
        # characteristic polynomial z^2 - 0.25
        m = np.array([[0.0, 0.5], [0.5, 0.0]])
        assert kernel.spectral_radius(m) == pytest.approx(0.5, rel=1e-12)

    def test_reducible_falls_back_to_dense(self):
        m = np.diag([0.5, 0.9])
        assert kernel.spectral_radius(m) == pytest.approx(0.9, rel=1e-12)

    def test_negative_entries_use_dense_path(self):
        m = np.array([[0.0, -2.0], [0.5, 0.0]])
        assert kernel.spectral_radius(m) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_oracle_on_random_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.uniform(0.0, 1.0, (8, 8))
        assert kernel.spectral_radius(m) == pytest.approx(
            oracles.naive_spectral_radius(m), rel=1e-11
        )

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            kernel.spectral_radius(np.ones((2, 3)))

    def test_zero_row_stalls_quickly(self):
        # a zero row holds its Collatz-Wielandt ratio at 1 while the others
        # approach rho + 1, so the bracket never closes; the stall rule
        # hands the matrix to eigvals after ~50 steps. On a two-core VM the
        # three take ~4 ms, and running out a 20000-step cap took 1.2 s.
        rng = np.random.default_rng(7)
        mats = []
        for row in range(3):
            m = rng.uniform(0.1, 1.0, (8, 8))
            m[row] = 0.0
            mats.append(m)
        start = time.perf_counter()
        radii = [kernel.spectral_radius(m) for m in mats]
        elapsed = time.perf_counter() - start
        assert radii == pytest.approx([oracles.naive_spectral_radius(m) for m in mats],
                                      rel=1e-12)
        assert elapsed < 0.1


def patterned_matrix(pattern, n, seed):
    """A nonnegative n x n matrix, entries in [0.1, 1] off its zero pattern:
    'irreducible' (positive), 'zero-rows' or 'zero-cols' (1 to n - 1 of
    them), 'block-triangular' (upper), 'periodic' (bipartite, period 2)."""
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.1, 1.0, (n, n))
    zeros = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
    k = int(rng.integers(1, n))
    if pattern == "zero-rows":
        m[zeros, :] = 0.0
    elif pattern == "zero-cols":
        m[:, zeros] = 0.0
    elif pattern == "block-triangular":
        m[k:, :k] = 0.0
    elif pattern == "periodic":
        m[:k, :k] = 0.0
        m[k:, k:] = 0.0
    return m


PATTERNS = ("irreducible", "zero-rows", "zero-cols", "block-triangular", "periodic")


class TestPowerIteration:
    @pytest.mark.parametrize("m", [np.triu(np.ones((4, 4)), 1),
                                   np.array([[0.5, 1.0], [0.0, 0.5]])],
                             ids=["nilpotent", "jordan-block"])
    def test_defective_dominant_eigenvalue_stalls_early(self, m):
        # a defective dominant eigenvalue closes the bracket like 1/k, less
        # than 0.1% per step from k ~ 1000 on, where a one-step rule would
        # first stall; the projected rule stalls within 3 STALL_STEPS
        radius, steps = kernel._power(m)
        assert radius is None
        assert steps <= 3 * kernel.STALL_STEPS
        assert kernel.spectral_radius(m) == pytest.approx(
            oracles.naive_spectral_radius(m), abs=1e-12)

    @pytest.mark.parametrize("m", [np.roll(np.diag([0.5, 0.8, 0.4, 0.9]), 1, axis=1),
                                   patterned_matrix("periodic", 6, 3)],
                             ids=["period-4", "period-2"])
    def test_periodic_converges_without_eigvals(self, m, monkeypatch):
        # the shift keeps a + cI aperiodic, so eigenvalues on one circle
        # still converge on the power path
        want = oracles.naive_spectral_radius(m)

        def no_eigvals(_):
            raise AssertionError("eigvals called")

        monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
        assert kernel.spectral_radius(m) == pytest.approx(want, rel=1e-11)

    def test_slow_linear_rate_stalls_at_the_first_window(self):
        # a reducible draw of test_property_over_patterns: the bracket
        # closes at about 0.97 per step, 929 steps to 1e-12, and the power
        # midpoint there misses the radius by 3.9e-13; projected from the
        # first window it needs far more than STALL_STEPS further steps,
        # and the eigensolve gives 0.478 exactly
        m = np.array([[0.458, 0.770], [0.0, 0.478]])
        assert kernel._power(m) == (None, kernel.STALL_STEPS + 1)
        assert kernel.spectral_radius(m) == 0.478

    def test_zero_matrix_at_the_first_step(self):
        assert kernel._power(np.zeros((3, 3))) == (0.0, 1)

    def test_median_steps_on_mixed_small(self):
        # the radii of G, R, Ghat and Rhat of the mixed-small benchmark
        # models (seed 1); on a + I the median is 39 steps
        steps = []
        for inst in workloads.instances("mixed-small", 1):
            if inst.probe:
                continue
            model = validate(*inst.blocks)
            sol = reference_solution(model, classify(model))
            steps += [kernel._power(m)[1] for m in (sol.g, sol.r, sol.ghat, sol.rhat)]
        assert np.median(steps) <= 20


def perron_pair(m):
    """(radius, right, left): the radius from the dense oracle, as the
    package passes a known root, and the vectors from two one-sided calls
    at it; the left vector of m is the right vector of its transpose."""
    radius = oracles.naive_spectral_radius(m)
    return radius, kernel.perron(m, radius), kernel.perron(m.T, radius)


def assert_perron(m, radius, right, left):
    scale = max(radius, 1.0)
    assert kernel.inf_norm(m @ right - radius * right) <= kernel.EIGEN_RTOL * scale
    assert kernel.inf_norm(left @ m - radius * left) <= kernel.EIGEN_RTOL * scale
    assert np.max(np.abs(right)) == pytest.approx(1.0)
    assert np.max(np.abs(left)) == pytest.approx(1.0)


class TestPerronPair:
    # the radius checks are on kernel.spectral_radius, which serves the
    # radii whose eigenvalue is not known in advance
    def test_scalar_unit_sum(self):
        m = np.array([[0.5]])
        radius, right, left = perron_pair(m)
        assert kernel.spectral_radius(m) == pytest.approx(0.5)
        assert right == pytest.approx([1.0])
        assert left == pytest.approx([1.0])

    def test_doubly_stochastic(self):
        m = np.array([[0.3, 0.7], [0.7, 0.3]])
        radius, right, left = perron_pair(m)
        assert kernel.spectral_radius(m) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(right, [1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(left, [1.0, 1.0], atol=1e-12)

    def test_n2_block_sum(self):
        # stochastic: the root is 1, as classify passes it
        a = np.array(oracles.N2[0]) + np.array(oracles.N2[1]) + np.array(oracles.N2[2])
        assert kernel.spectral_radius(a) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(kernel.perron(a, 1.0), [1.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_residuals_on_random_irreducible(self, seed):
        rng = np.random.default_rng(100 + seed)
        m = rng.uniform(0.01, 1.0, (6, 6))
        radius, right, left = perron_pair(m)
        assert_perron(m, radius, right, left)
        assert np.min(right) > 0 and np.min(left) > 0

    def test_periodic_takes_power_path(self):
        # a weighted 4-cycle: period 4, eigenvalues on one circle
        m = np.roll(np.diag([0.5, 0.8, 0.4, 0.9]), 1, axis=1)
        radius, right, left = perron_pair(m)
        assert kernel.spectral_radius(m) == pytest.approx(0.144 ** 0.25, rel=1e-12)
        assert_perron(m, radius, right, left)
        assert np.min(right) > 0 and np.min(left) > 0

    @pytest.mark.parametrize("zero", ["row", "column"])
    def test_zero_row_or_column_takes_dense_path(self, zero):
        m = np.array([[0.5, 0.2, 0.3], [0.0, 0.0, 0.0], [0.2, 0.6, 0.2]])
        if zero == "column":
            m = m.T
        radius, right, left = perron_pair(m)
        assert_perron(m, radius, right, left)
        # a zero row zeroes the right vector there, a zero column the left
        vec = right if zero == "row" else left
        assert vec[1] == pytest.approx(0.0, abs=1e-13)

    def test_block_triangular_takes_dense_path(self):
        m = np.array([[0.5, 0.2], [0.0, 0.3]])
        radius, right, left = perron_pair(m)
        assert kernel.spectral_radius(m) == pytest.approx(0.5, rel=1e-12)
        np.testing.assert_allclose(right, [1.0, 0.0], atol=1e-13)
        np.testing.assert_allclose(left, [1.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("m", [np.zeros((3, 3)), np.triu(np.ones((4, 4)), 1)],
                             ids=["zero", "strictly-triangular"])
    def test_nilpotent_raises(self, m):
        with pytest.raises(ValueError, match="nilpotent"):
            kernel.perron(m, oracles.naive_spectral_radius(m))

    def test_negative_entry_raises(self):
        with pytest.raises(ValueError, match="nonnegative"):
            kernel.perron(np.array([[0.5, -0.1], [0.2, 0.3]]), 0.5)

    def test_root_that_is_no_eigenvalue_raises(self):
        # a wrong root leaves the bordered system solvable, and the
        # residual test refuses its solution
        m = np.array([[0.5, 0.2], [0.1, 0.3]])
        with pytest.raises(kernel.ConvergenceError, match="residual"):
            kernel.perron(m, oracles.naive_spectral_radius(m) + 1e-6)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(PATTERNS), st.integers(2, 8), st.integers(0, 2**32 - 1))
    def test_property_over_patterns(self, pattern, n, seed):
        m = patterned_matrix(pattern, n, seed)
        radius, right, left = perron_pair(m)
        assert kernel.spectral_radius(m) == pytest.approx(radius, rel=1e-11)
        assert_perron(m, radius, right, left)
        # structural zeros carry the root's error over the eigenvalue gap
        assert np.min(right) >= -1e-13 and np.min(left) >= -1e-13


def inverse_solve(m, b):
    """M^-1 B by kernel.inverse and one product."""
    return kernel.inverse(m) @ np.asarray(b, dtype=float)


class TestSolveLinear:
    # M X = B by inverse_solve: the residual, the shapes and the singular
    # verdict of kernel.inverse
    def test_identity(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(inverse_solve(np.eye(2), b), b)

    def test_scalar_division(self):
        x = inverse_solve(np.array([[-0.5]]), np.array([[0.3]]))
        assert x[0, 0] == pytest.approx(-0.6)

    def test_singular_raises(self):
        with pytest.raises(kernel.SingularMatrixError):
            inverse_solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.eye(2))

    @pytest.mark.parametrize("seed", range(4))
    def test_residual_bound(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((7, 7)) + 7 * np.eye(7)
        b = rng.standard_normal((7, 3))
        x = inverse_solve(m, b)
        assert kernel.inf_norm(m @ x - b) <= 1e-12 * kernel.inf_norm(b)

    def test_vector_rhs(self):
        m = np.array([[2.0, 0.0], [0.0, 4.0]])
        x = inverse_solve(m, np.array([2.0, 8.0]))
        np.testing.assert_allclose(x, [1.0, 2.0])


class TestInfNorm:
    # max absolute row sum of a 2-d input, max absolute entry of a 1-d one,
    # 0 for an empty one
    @pytest.mark.parametrize("a, expected", [([], 0.0), ([-3.0, 2.0], 3.0),
                                             (np.zeros((0, 0)), 0.0), (np.zeros((3, 0)), 0.0),
                                             ([[1.0, -2.0], [-4.0, 0.5]], 4.5)],
                             ids=["empty-list", "vector", "empty-square", "no-columns", "matrix"])
    def test_lists_and_empty(self, a, expected):
        assert kernel.inf_norm(a) == expected


class TestInverse:
    @pytest.mark.parametrize("m", [[[0.0]], [[1.0, 2.0], [2.0, 4.0]],
                                   [[1.0, 1.0], [1.0, 1.0 + 1e-15]]],
                             ids=["zero", "rank-one", "near-singular"])
    def test_singular_raises(self, m):
        with pytest.raises(kernel.SingularMatrixError):
            kernel.inverse(np.array(m))

    @pytest.mark.parametrize("n", [1, 4, 33, 130])
    def test_inverse_of_negation_is_negated(self, n):
        # the suite reads -K^-1 as the inverse of -K: it must be bit for bit
        m = np.diag(np.full(n, 1.0 + n)) - np.random.default_rng(n).uniform(0.0, 1.0, (n, n))
        inv = kernel.inverse(m)
        assert np.array_equal(kernel.inverse(-m), -inv)
        assert kernel.inf_norm(m @ inv - np.eye(n)) <= 1e-13


class TestSccPartition:
    def test_strictly_upper_triangular(self):
        m = np.array([[0, 1, 1], [0, 0, 1], [0, 0, 0]], dtype=float)
        comps = oracles.scc_partition(m)
        assert [c.vertices for c in comps] == [(0,), (1,), (2,)]
        assert all(c.trivial for c in comps)

    def test_irreducible_positive(self):
        comps = oracles.scc_partition(np.full((2, 2), 0.5))
        assert len(comps) == 1
        assert comps[0].vertices == (0, 1)
        assert not comps[0].trivial

    def test_block_triangular_topological_order(self):
        # [[P, X], [0, U]] with P irreducible, U strictly triangular:
        # the P block must come first, then the U singletons.
        m = np.zeros((5, 5))
        m[0, 1] = m[1, 0] = 1.0          # P irreducible on {0, 1}
        m[0, 2] = m[0, 3] = 1.0          # X coupling into every U chain head
        m[2, 3] = m[3, 4] = 1.0          # U strictly triangular on {2, 3, 4}
        comps = oracles.scc_partition(m)
        assert comps[0].vertices == (0, 1)
        assert not comps[0].trivial
        assert sorted(c.vertices for c in comps[1:]) == [(2,), (3,), (4,)]
        assert all(c.trivial for c in comps[1:])

    def test_self_loop_singleton_is_nontrivial(self):
        comps = oracles.scc_partition(np.array([[0.7]]))
        assert comps[0].trivial is False

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(3)
        m = (rng.uniform(0, 1, (6, 6)) > 0.6).astype(float)
        perm = rng.permutation(6)
        p = np.eye(6)[perm]
        # (P M P^T)[i, j] = M[perm[i], perm[j]]: component {i} maps to {perm[i]}
        base = {frozenset(c.vertices) for c in oracles.scc_partition(m)}
        relabeled = {
            frozenset(int(perm[v]) for v in c.vertices)
            for c in oracles.scc_partition(p @ m @ p.T)
        }
        assert base == relabeled

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 14).flatmap(lambda n: hnp.arrays(bool, (n, n))))
    def test_matches_reachability_oracle(self, pattern):
        m = pattern.astype(float)
        comps = oracles.scc_partition(m)
        reach = oracles.reachability(pattern)
        mutual = reach & reach.T
        assert {frozenset(c.vertices) for c in comps} == {
            frozenset(np.flatnonzero(row).tolist()) for row in mutual
        }
        # topological order: no edge leads from a later component back
        position = np.empty(len(m), dtype=int)
        for k, c in enumerate(comps):
            position[list(c.vertices)] = k
        src, dst = np.nonzero(pattern)
        assert np.all(position[src] <= position[dst])
        for c in comps:
            v = c.vertices[0]
            assert c.trivial == (len(c.vertices) == 1 and not pattern[v, v])
        assert kernel.is_irreducible(m) == bool(mutual.all())


def solved_or_singular(solve, m, b):
    """solve(m, b), or None when it reports a singular matrix."""
    try:
        return solve(m, b)
    except kernel.SingularMatrixError:
        return None


class TestAgainstScipyForms:
    """The numpy kernel against the scipy forms it replaced (oracles): LU
    with a pivot test, one two-sided dense eigensolve, and the count of
    strongly connected components."""

    CASES = [(pattern, seed) for pattern in PATTERNS for seed in range(8)]

    @pytest.mark.parametrize("pattern, seed", CASES)
    def test_solve_linear(self, pattern, seed):
        n = 2 + seed % 7
        m = patterned_matrix(pattern, n, seed)
        for rhs in (np.random.default_rng(seed).standard_normal((n, 2)), np.eye(n)):
            got = solved_or_singular(inverse_solve, m, rhs)
            want = solved_or_singular(oracles.solve_linear_lu, m, rhs)
            assert (got is None) == (want is None), (pattern, seed)
            if got is not None:
                np.testing.assert_allclose(got, want, rtol=0,
                                           atol=1e-10 * kernel.inf_norm(want))

    @pytest.mark.parametrize("m, singular", [
        ([[1.0, 2.0], [2.0, 4.0]], True),
        ([[0.0]], True),
        ([[1.0, 1.0], [1.0, 1.0 + 1e-15]], True),
        ([[1.0, 1.0], [1.0, 1.0 + 1e-12]], False),
        ([[1e-300, 0.0], [0.0, 1e-300]], False),
    ], ids=["rank-one", "zero", "near-singular", "ill-conditioned", "tiny-scale"])
    def test_singular_verdicts_agree(self, m, singular):
        m = np.array(m)
        rhs = np.eye(len(m))
        got = solved_or_singular(inverse_solve, m, rhs)
        want = solved_or_singular(oracles.solve_linear_lu, m, rhs)
        assert (got is None) == (want is None) == singular
        if not singular:
            np.testing.assert_allclose(got, want, rtol=1e-10)

    @pytest.mark.parametrize("pattern, seed", CASES)
    def test_dense_perron(self, pattern, seed):
        m = patterned_matrix(pattern, 2 + seed % 7, seed)
        radius = oracles.naive_spectral_radius(m)
        right, left = kernel.perron(m, radius), kernel.perron(m.T, radius)
        want_radius, want_right, want_left = oracles.dense_perron_two_sided(m)
        assert radius == pytest.approx(want_radius, rel=1e-11)
        np.testing.assert_allclose(right, want_right, rtol=0, atol=1e-9)
        np.testing.assert_allclose(left, want_left, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("pattern, seed", CASES)
    def test_irreducible_iff_one_component(self, pattern, seed):
        m = patterned_matrix(pattern, 2 + seed % 7, seed)
        assert kernel.is_irreducible(m) == (len(oracles.scc_partition(m)) == 1)


class TestSteinSolve:
    def test_g_zero_returns_c(self):
        c = np.array([[1.0, 2.0], [3.0, 4.0]])
        r = np.array([[0.3, 0.1], [0.2, 0.2]])
        np.testing.assert_allclose(kernel.stein_solve(np.zeros((2, 2)), r, c, 0.0), c)

    def test_scalar_closed_form(self):
        w = kernel.stein_solve(np.array([[1.0]]), np.array([[0.6]]), np.array([[-2.0]]), 0.6)
        assert w[0, 0] == pytest.approx(-5.0, abs=1e-12)

    def test_diagonal_closed_form(self):
        w = kernel.stein_solve(0.5 * np.eye(2), 0.5 * np.eye(2), np.eye(2), 0.25)
        np.testing.assert_allclose(w, (4.0 / 3.0) * np.eye(2), atol=1e-12)

    def test_null_recurrent_product_raises(self):
        one = np.array([[1.0]])
        with pytest.raises(kernel.ConvergenceError):
            kernel.stein_solve(one, one, one, 1.0)

    def test_permutation_similarity(self):
        rng = np.random.default_rng(9)
        g = rng.uniform(0, 0.4, (4, 4))
        r = rng.uniform(0, 0.4, (4, 4))
        c = rng.standard_normal((4, 4))
        p = np.eye(4)[rng.permutation(4)]
        w = kernel.stein_solve(g, r, c, oracles.radius_product(g, r))
        w_conj = kernel.stein_solve(p @ g @ p.T, p @ r @ p.T, p @ c @ p.T,
                                    oracles.radius_product(g, r))
        np.testing.assert_allclose(w_conj, p @ w @ p.T, atol=1e-10)

    @pytest.mark.parametrize("seed", range(11, 19))
    def test_matches_kronecker_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        g = rng.uniform(0, 1, (n, n))
        r = rng.uniform(0, 1, (n, n))
        g *= rng.uniform(0.1, 1.0) / oracles.naive_spectral_radius(g)
        r *= rng.uniform(0.1, 0.9) / oracles.naive_spectral_radius(r)
        c = rng.standard_normal((n, n))
        ref = oracles.kron_stein(g, r, c)
        np.testing.assert_allclose(
            kernel.stein_solve(g, r, c, oracles.radius_product(g, r)), ref,
            rtol=0, atol=1e-12 * kernel.inf_norm(ref),
        )

    def test_near_null_matches_kronecker_oracle(self):
        # rho(G) rho(R) = 1 - gap: W grows like 1/gap and both solves lose
        # accuracy like eps/gap, so the tolerance scales with 1/gap
        gap = 1e-8
        rng = np.random.default_rng(5)
        g = rng.uniform(0.1, 1, (4, 4))
        r = rng.uniform(0.1, 1, (4, 4))
        g /= g.sum(axis=1, keepdims=True)
        r *= (1.0 - gap) / r.sum(axis=1, keepdims=True)
        c = rng.standard_normal((4, 4))
        ref = oracles.kron_stein(g, r, c)
        tol = 1e2 * np.finfo(float).eps / gap
        np.testing.assert_allclose(
            kernel.stein_solve(g, r, c, oracles.radius_product(g, r)), ref,
            rtol=0, atol=tol * kernel.inf_norm(ref),
        )
