import numpy as np
import pytest

import oracles
from qbdshift import (
    Kind,
    ValidationError,
    classify,
    complete_perron_data,
    matpoly,
    perron_data,
    reference_solution,
    solve_all,
    validate,
)
from qbdshift import model as model_mod


class TestValidate:
    def test_p1_valid(self, p1):
        assert p1.n == 1

    def test_row_sum_error(self):
        with pytest.raises(ValidationError, match="stochastic"):
            validate([[0.5]], [[0.6]], [[0.3]])

    def test_negative_entry(self):
        with pytest.raises(ValidationError, match="negative"):
            validate([[-0.1]], [[0.8]], [[0.3]])

    def test_reducible_sum(self):
        a = [[0.5, 0.0], [0.0, 0.5]]
        zero = [[0.0, 0.0], [0.0, 0.0]]
        with pytest.raises(ValidationError, match="reducible"):
            validate(a, a, zero)

    def test_n2_valid(self, n2):
        assert n2.n == 2

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            validate([[1.0]], np.zeros((2, 2)), np.zeros((2, 2)))

    def test_empty_blocks(self):
        empty = np.zeros((0, 0))
        with pytest.raises(ValidationError, match="empty"):
            validate(empty, empty, empty)


class TestClassify:
    def test_p1(self, p1):
        cls = classify(p1)
        assert cls.kind is Kind.POSITIVE_RECURRENT
        assert cls.drift == pytest.approx(-0.2, abs=1e-14)
        assert cls.xi_n == 1.0
        expected = oracles.quadratic_roots(0.3, -0.8, 0.5)  # reversed: 1/roots
        assert cls.xi_n1 == pytest.approx(5.0 / 3.0, abs=1e-12)

    def test_n1_exact_null(self, n1):
        cls = classify(n1)
        assert cls.kind is Kind.NULL_RECURRENT
        assert cls.drift == 0.0
        assert cls.xi_n == cls.xi_n1 == 1.0

    def test_t1(self, t1):
        cls = classify(t1)
        assert cls.kind is Kind.TRANSIENT
        assert cls.drift == pytest.approx(0.2, abs=1e-14)
        assert cls.xi_n == pytest.approx(0.6, abs=1e-12)
        assert cls.xi_n1 == 1.0

    def test_drift_permutation_invariance(self, small_bank):
        rng = np.random.default_rng(0)
        for rows in small_bank.values():
            m, cls = rows[-1]
            perm = rng.permutation(m.n)
            p = np.eye(m.n)[perm]
            permuted = validate(
                p @ m.a_minus @ p.T, p @ m.a_zero @ p.T, p @ m.a_plus @ p.T
            )
            assert classify(permuted).drift == pytest.approx(cls.drift, abs=1e-13)

    def test_root_splitting_agrees_with_kind(self, small_bank):
        # strictly-inside counts: n-1 / n-1 / n for positive/null/transient
        expected_inside = {"positive": -1, "null": -1, "transient": 0}
        for kind, rows in small_bank.items():
            for m, cls in rows:
                inside, on, outside = matpoly.roots(m.poly()).split_counts(tol=1e-6)
                assert inside == m.n + expected_inside[kind], (kind, m.n)
                assert on == (2 if kind == "null" else 1)

    def test_mirror_family_drift_is_exactly_zero(self):
        rng = np.random.default_rng(21)
        for n in (2, 5):
            x = rng.uniform(0.1, 1.0, (n, n))
            x0 = rng.uniform(0.1, 1.0, (n, n))
            s = (2 * x + x0).sum(axis=1)[:, None]
            m = validate(x / s, x0 / s, x / s)
            assert classify(m).drift == 0.0


class TestPerronData:
    def test_scalar_all_ones(self, p1):
        pd = perron_data(p1, classify(p1))
        for vec in (pd.u_g, pd.v_rhat, pd.u_ghat, pd.v_r):
            np.testing.assert_allclose(vec, [1.0])

    def test_null_recurrent_vectors(self, n2):
        pd = perron_data(n2, classify(n2))
        np.testing.assert_allclose(pd.u_g, [1.0, 1.0])
        np.testing.assert_allclose(pd.u_ghat, [1.0, 1.0])
        np.testing.assert_allclose(pd.v_r, pd.v_rhat)

    def test_positive_recurrent_u_g_is_e(self, e2):
        pd = perron_data(e2, classify(e2))
        np.testing.assert_allclose(pd.u_g, [1.0, 1.0])

    def test_null_vectors_annihilate_b(self, e2):
        # u_G and v_Rhat at xi_n; u_Ghat and v_R at xi_{n+1}
        cls = classify(e2)
        pd = perron_data(e2, cls)
        poly = e2.poly()
        for xi, right, left in (
            (cls.xi_n, pd.u_g, pd.v_rhat),
            (cls.xi_n1, pd.u_ghat, pd.v_r),
        ):
            b = poly.eval_b(xi)
            np.testing.assert_allclose(b @ right, 0.0, atol=1e-10)
            np.testing.assert_allclose(left @ b, 0.0, atol=1e-10)

    def test_completion_gives_solution_perron_vectors(self, e2):
        cls = classify(e2)
        sol = solve_all(e2, cls)
        pd = complete_perron_data(perron_data(e2, cls), sol)
        from qbdshift import kernel

        for mat, right, left in (
            (sol.g, None, pd.v_g),
            (sol.r, pd.u_r, None),
            (sol.ghat, None, pd.v_ghat),
            (sol.rhat, pd.u_rhat, None),
        ):
            rho = kernel.spectral_radius(mat)
            if right is not None:
                assert kernel.inf_norm(mat @ right - rho * right) <= 1e-10
            if left is not None:
                assert kernel.inf_norm(left @ mat - rho * left) <= 1e-10

    def test_xi_cross_check_against_solutions(self, small_bank):
        from qbdshift import kernel

        for rows in small_bank.values():
            for m, cls in rows[:3]:
                sol = reference_solution(m, cls)
                assert kernel.spectral_radius(sol.g) == pytest.approx(
                    cls.xi_n, abs=model_mod.XI_CROSS_CHECK_TOL
                )
                assert 1.0 / kernel.spectral_radius(sol.r) == pytest.approx(
                    cls.xi_n1, abs=model_mod.XI_CROSS_CHECK_TOL
                )


class TestUnitRootWarning:
    def test_periodic_chain_warns(self):
        # period-2 phase structure: det B(z) = -0.25 (z^2 - 1)^2 puts a
        # double root at -1 on the unit circle (several final classes on
        # the doubly infinite chain)
        flip = [[0.0, 0.5], [0.5, 0.0]]
        zero = [[0.0, 0.0], [0.0, 0.0]]
        with pytest.warns(UserWarning, match="unit-circle"):
            classify(validate(flip, zero, flip))

    def test_clean_instances_do_not_warn(self, e2, n2):
        import warnings

        for m in (e2, n2):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                classify(validate(m.a_minus, m.a_zero, m.a_plus))


def test_pairing_scalars_recorded(e2):
    cls = classify(e2)
    sol = solve_all(e2, cls)
    pd = complete_perron_data(perron_data(e2, cls), sol)
    pairs = pd.pairings()
    assert set(pairs) == {"v_Ghat.u_G", "v_R.u_Rhat", "v_G.u_G", "v_R.u_R"}
    assert all(v > 0 for v in pairs.values())
