import numpy as np
import pytest

import oracles
from oracles import solve_all
from qbdshift import (
    Kind,
    ShiftKind,
    ValidationError,
    classify,
    complete_perron_data,
    perron_data,
    reference_solution,
    validate,
)
from qbdshift import model as model_mod

# Agreement required between the splitting roots of classify and the
# spectral radii of the reference solution.
XI_CROSS_CHECK_TOL = 1e-8


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

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_levels_that_never_communicate(self, n):
        # A_0 a cyclic permutation: stochastic and irreducible on its own
        a_zero = np.roll(np.eye(n), 1, axis=1)
        zero = np.zeros((n, n))
        with pytest.raises(ValidationError, match="never communicate"):
            validate(zero, a_zero, zero)

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

    def test_null_double_unit_root_is_exact(self, small_bank):
        # QZ splits the double root at 1 by about sqrt(eps), at positions
        # n - 1 and n of the sorted roots; classify takes both as exactly 1
        # and solves the double shift there, which moves both
        for m, cls in small_bank["null"]:
            assert cls.xi_n == cls.xi_n1 == 1.0
            t = cls.matched.transform
            assert t.kind is ShiftKind.DOUBLE
            assert t.xi_n == t.xi_n1 == 1.0
            values = oracles.qz_roots(m.poly).values()
            assert np.abs(values[m.n - 1:m.n + 1] - 1.0).max() <= 1e-7

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
                mods = np.abs(oracles.qz_roots(m.poly).finite)
                inside = int(np.sum(mods < 1.0 - 1e-6))
                on = int(np.sum(np.abs(mods - 1.0) <= 1e-6))
                assert inside == m.n + expected_inside[kind], (kind, m.n)
                assert on == (2 if kind == "null" else 1)

    def test_zero_down_is_transient_with_zero_root(self):
        # A_-1 = 0: the left shift leaves G = 0 after zero sweeps
        for n in (1, 4):
            up = np.full((n, n), 0.5 / n)
            zero = np.zeros((n, n))
            cycle = 0.5 * np.roll(np.eye(n), 1, axis=1)
            cls = classify(validate(zero, cycle, up))
            assert cls.kind is Kind.TRANSIENT
            assert cls.xi_n == 0.0
            assert cls.xi_n1 == 1.0
            assert cls.matched.cr.iterations == 0
            assert cls.reversed().xi_n1 == np.inf

    def test_zero_up_is_positive_with_infinite_root(self):
        # A_1 = 0: the right shift leaves R = 0
        for blocks in (
            ([[0.3, 0.2], [0.1, 0.4]], [[0.2, 0.3], [0.3, 0.2]], np.zeros((2, 2))),
            ([[0.5]], [[0.5]], [[0.0]]),
        ):
            cls = classify(validate(*blocks))
            assert cls.kind is Kind.POSITIVE_RECURRENT
            assert cls.xi_n == 1.0
            assert cls.xi_n1 == np.inf
            assert cls.reversed().xi_n == 0.0

    @pytest.mark.parametrize("kind", ["positive", "transient"])
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("gamma", [1e-4, 1e-6, 1e-8])
    def test_splitting_root_against_extended_precision(self, kind, seed, gamma):
        # the non-unit splitting root of the class-matched shift against a
        # 60-digit root of det B(z)/(z - 1) on exactly stochastic blocks
        from qbdshift import cli

        model = cli.generate(kind, 4, seed, gamma=gamma)[0]
        cls = classify(model)
        outside = kind == "positive"
        xi = cls.xi_n1 if outside else cls.xi_n
        ref = oracles.splitting_root_mp(model, outside)
        assert abs(xi - ref) <= 1e-4 * abs(ref - 1.0)

    def test_splitting_root_at_the_power_stop(self):
        # away from the near-null band xi is as accurate as the power
        # iteration's Collatz-Wielandt stop, 1e-12 relative to rho + c (c a
        # quarter of the largest row sum); a stop relative to rho + 1 gave a
        # median of 7.7e-12 and a maximum of 4.3e-10 of |xi - 1| here
        from qbdshift import cli

        errors = []
        for kind in ("positive", "transient"):
            for n in (4, 8):
                for seed in range(3):
                    for gamma in (0.5, 1e-3):
                        model = cli.generate(kind, n, seed, gamma=gamma)[0]
                        cls = classify(model)
                        outside = kind == "positive"
                        xi = cls.xi_n1 if outside else cls.xi_n
                        ref = oracles.splitting_root_mp(model, outside)
                        errors.append(abs(xi - ref) / abs(ref - 1.0))
        assert np.median(errors) <= 5e-12
        assert max(errors) <= 2e-10

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
        for vec in (pd.u_g, pd.v_r):
            np.testing.assert_allclose(vec, [1.0])

    def test_null_recurrent_vectors(self, n2):
        # both splitting points are the unit root: e and theta
        cls = classify(n2)
        pd = perron_data(n2, cls)
        np.testing.assert_allclose(pd.u_g, [1.0, 1.0])
        np.testing.assert_allclose(pd.v_r, cls.phase_left)

    def test_positive_recurrent_u_g_is_e(self, e2):
        pd = perron_data(e2, classify(e2))
        np.testing.assert_allclose(pd.u_g, [1.0, 1.0])

    def test_null_vectors_annihilate_b(self, e2):
        # B(xi_n) u_G = 0 and v_R^T B(xi_{n+1}) = 0
        cls = classify(e2)
        pd = perron_data(e2, cls)
        np.testing.assert_allclose(e2.poly.eval_b(cls.xi_n) @ pd.u_g, 0.0, atol=1e-10)
        np.testing.assert_allclose(pd.v_r @ e2.poly.eval_b(cls.xi_n1), 0.0, atol=1e-10)

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
                    cls.xi_n, abs=XI_CROSS_CHECK_TOL
                )
                assert 1.0 / kernel.spectral_radius(sol.r) == pytest.approx(
                    cls.xi_n1, abs=XI_CROSS_CHECK_TOL
                )


class TestUnitRootWarning:
    """The roots of B(z) are eig(G) together with 1/eig(R): the first read
    of a solution set's spectra warns, and classify computes no root."""

    def test_periodic_chain_warns(self):
        # period-2 phase structure: det B(z) = -0.25 (z^2 - 1)^2 puts a
        # double root at -1 on the unit circle (several final classes on
        # the doubly infinite chain)
        import warnings

        flip = [[0.0, 0.5], [0.5, 0.0]]
        zero = [[0.0, 0.0], [0.0, 0.0]]
        sol = reference_solution(validate(flip, zero, flip))
        with pytest.warns(UserWarning, match="2 unit-circle"):
            sol.spectra
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol.spectra

    def test_clean_instances_do_not_warn(self, e2, n2):
        import warnings

        for m in (e2, n2):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                reference_solution(validate(m.a_minus, m.a_zero, m.a_plus)).spectra


def test_reversed_classification_matches_classify(small_bank):
    from qbdshift import cli

    models = [m for rows in small_bank.values() for m, _ in rows]
    models += [cli.generate(kind, 8, 2, gamma=gamma)[0]
               for kind in ("positive", "transient") for gamma in (1e-3, 1e-4)]
    # a zero row of A_1 and a zero column of A_-1: roots at infinity and 0
    models.append(validate([[0.3, 0.0], [0.2, 0.0]], [[0.2, 0.2], [0.3, 0.5]],
                           [[0.3, 0.0], [0.0, 0.0]]))
    for m in models:
        derived = classify(m).reversed()
        direct = classify(m.reversed())
        assert derived.kind is direct.kind
        assert derived.drift == pytest.approx(direct.drift, rel=1e-9, abs=1e-15)
        assert derived.xi_n == pytest.approx(direct.xi_n, rel=1e-8)
        assert derived.xi_n1 == pytest.approx(direct.xi_n1, rel=1e-8)


def test_pairing_scalars_recorded(e2):
    cls = classify(e2)
    sol = solve_all(e2, cls)
    pd = complete_perron_data(perron_data(e2, cls), sol)
    # the rank-one shift updates rescale by exactly these pairings
    pairs = (pd.v_ghat @ pd.u_g, pd.v_r @ pd.u_rhat, pd.v_g @ pd.u_g, pd.v_r @ pd.u_r)
    assert all(v > 0 for v in pairs)
