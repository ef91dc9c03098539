import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from qbdshift import matpoly, solve_all


def scalar_poly(a_minus, a_zero, a_plus):
    return matpoly.QuadMatPoly.from_triple([[a_minus]], [[a_zero]], [[a_plus]])


class TestEvalPhi:
    def test_p1_vanishes_at_one(self):
        poly = scalar_poly(*oracles.P1)
        assert matpoly.eval_phi(poly, 1.0)[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_matches_naive_oracle(self):
        poly = matpoly.QuadMatPoly.from_triple(*oracles.E2)
        for z in (1.0, -1.0, 0.5 + 0.25j):
            np.testing.assert_allclose(
                matpoly.eval_phi(poly, z), oracles.naive_phi(*oracles.E2, z), atol=1e-15
            )

    def test_unit_vector_annihilated_for_qbd(self, e2, n2):
        # B(1) e = 0 because the block sum is stochastic
        for m in (e2, n2):
            phi1 = matpoly.eval_phi(m.poly(), 1.0)
            np.testing.assert_allclose(phi1 @ np.ones(m.n), 0.0, atol=1e-14)

    def test_n1_at_minus_one(self):
        poly = scalar_poly(*oracles.N1)
        assert matpoly.eval_phi(poly, -1.0)[0, 0] == pytest.approx(-1.6)

    def test_reversed_flag(self):
        poly = scalar_poly(*oracles.P1)
        assert matpoly.eval_phi(poly, 2.0, reversed=True)[0, 0] == pytest.approx(
            matpoly.eval_phi(poly, 0.5)[0, 0]
        )

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            matpoly.eval_phi(scalar_poly(*oracles.P1), 0.0)


class TestRoots:
    def test_p1_roots_match_quadratic_formula(self):
        rs = matpoly.roots(scalar_poly(*oracles.P1))
        expected = oracles.quadratic_roots(0.5, -0.8, 0.3)
        assert rs.n_infinite == 0
        np.testing.assert_allclose(sorted(z.real for z in rs.finite), expected, atol=1e-12)

    def test_n1_double_unit_root(self):
        rs = matpoly.roots(scalar_poly(*oracles.N1))
        np.testing.assert_allclose(np.abs(rs.finite), [1.0, 1.0], atol=1e-7)

    def test_zero_root_from_vanishing_low_coefficient(self):
        poly = matpoly.QuadMatPoly.new([[0.0]], [[-0.4]], [[0.4]])
        rs = matpoly.roots(poly)
        np.testing.assert_allclose(sorted(z.real for z in rs.finite), [0.0, 1.0], atol=1e-12)

    def test_infinite_root_from_singular_top_coefficient(self):
        poly = matpoly.QuadMatPoly.new([[0.5]], [[-0.8]], [[0.0]])
        rs = matpoly.roots(poly)
        assert rs.n_infinite == 1
        assert rs.count == 2

    def test_count_always_2n(self, small_bank):
        for rows in small_bank.values():
            for m, _ in rows:
                assert matpoly.roots(m.poly()).count == 2 * m.n

    def test_unit_root_always_present(self, small_bank):
        # the double root of the null class splits as 1 +/- sqrt(eps) under
        # any backward-stable eigensolver; simple unit roots are sharp
        for kind, rows in small_bank.items():
            tol = 1e-7 if kind == "null" else 1e-10
            for m, _ in rows:
                rs = matpoly.roots(m.poly())
                assert min(abs(z - 1.0) for z in rs.finite) <= tol

    def test_similarity_invariance(self, e2):
        rng = np.random.default_rng(4)
        s = rng.standard_normal((2, 2)) + 3 * np.eye(2)
        s_inv = np.linalg.inv(s)
        poly = e2.poly()
        conj = matpoly.QuadMatPoly.new(
            s @ poly.b_minus @ s_inv, s @ poly.b_zero @ s_inv, s @ poly.b_plus @ s_inv
        )
        assert matpoly.multiset_distance(matpoly.roots(poly), matpoly.roots(conj)) <= 1e-9

    def test_splitting_positions_use_tie_break(self, n2):
        # both unit roots sit at positions n-1 and n
        rs = matpoly.roots(n2.poly())
        assert abs(rs.values()[1] - 1.0) <= 1e-7
        assert abs(rs.values()[2] - 1.0) <= 1e-7

    def test_identically_zero_det_rejected(self):
        with pytest.raises(ValueError):
            matpoly.QuadMatPoly.new(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))


class TestHCoefficients:
    def test_p1_values(self, p1):
        sol = solve_all(p1)
        h = matpoly.h_coefficients(sol.g, sol.k, sol.r, [-1, 0, 1])
        assert h[0][0, 0] == pytest.approx(-5.0, abs=1e-12)
        assert h[1][0, 0] == pytest.approx(-3.0, abs=1e-12)
        assert h[-1][0, 0] == pytest.approx(-5.0, abs=1e-12)

    def test_g_zero_truncates(self):
        k = np.array([[-0.5]])
        h = matpoly.h_coefficients(np.zeros((1, 1)), k, np.array([[0.6]]), [-2, -1, 0])
        assert h[0][0, 0] == pytest.approx(-2.0)
        assert h[-1][0, 0] == 0.0
        assert h[-2][0, 0] == 0.0

    def test_null_recurrent_diverges(self, n1):
        from qbdshift import kernel, reference_solution

        sol = reference_solution(n1)
        with pytest.raises(kernel.ConvergenceError):
            matpoly.h_coefficients(sol.g, sol.k, sol.r, [0])

    @pytest.mark.parametrize("blocks", [oracles.T1, oracles.E2], ids=["T1", "E2"])
    def test_laurent_inverse_identity(self, blocks):
        # phi(z) H(z) = I inside the open annulus of convergence
        from qbdshift import kernel, validate

        m = validate(*[np.atleast_2d(b) for b in blocks])
        sol = solve_all(m)
        rho_g = kernel.spectral_radius(sol.g)
        rho_r = kernel.spectral_radius(sol.r)
        radius = np.sqrt(rho_g / rho_r)  # geometric middle of (rho_g, 1/rho_r)
        order = 160
        h = matpoly.h_coefficients(sol.g, sol.k, sol.r, range(-order, order + 1))
        poly = m.poly()
        for angle in np.linspace(0.0, 2 * np.pi, 8, endpoint=False):
            z = radius * np.exp(1j * angle)
            hz = sum(z**i * h[i] for i in range(-order, order + 1))
            residual = matpoly.eval_phi(poly, z) @ hz - np.eye(m.n)
            assert np.max(np.abs(residual)) <= 1e-8


class TestFactorizationResidual:
    def test_p1_plain(self):
        poly = scalar_poly(*oracles.P1)
        fact = matpoly.Factorization("z", np.array([[0.6]]), np.array([[-0.5]]), np.array([[1.0]]))
        assert matpoly.factorization_residual(poly, fact) <= 1e-14
        assert fact.strength() == "weak"

    def test_p1_reversed(self):
        poly = scalar_poly(*oracles.P1)
        fact = matpoly.Factorization(
            "z_inverse", np.array([[1.0]]), np.array([[-0.5]]), np.array([[0.6]])
        )
        assert matpoly.factorization_residual(poly, fact) <= 1e-14

    def test_wrong_factor_detected(self):
        poly = scalar_poly(*oracles.P1)
        fact = matpoly.Factorization(
            "z", np.array([[0.6]]), np.array([[-0.5]]), np.array([[0.5]])
        )
        assert matpoly.factorization_residual(poly, fact) >= 0.01

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError):
            matpoly.Factorization("sideways", np.eye(1), np.eye(1), np.eye(1))


class TestMultisetDistance:
    def test_permuted_sets_match(self):
        a = [1.0, 2.0 + 1j, np.inf]
        b = [np.inf, 1.0, 2.0 + 1j]
        assert matpoly.multiset_distance(a, b) == 0.0

    def test_infinite_vs_finite_gap(self):
        assert matpoly.multiset_distance([np.inf], [0.0]) == pytest.approx(1.0)

    def test_size_mismatch_raises(self):
        with pytest.raises(ValueError):
            matpoly.multiset_distance([1.0], [1.0, 2.0])

    def test_large_roots_compare_chordally(self):
        assert matpoly.multiset_distance([1e9], [1e9 * (1 + 1e-9)]) <= 1e-8

    def test_matches_brute_force_oracle(self):
        # the largest pair of the least-sum matching; on unrelated sets it
        # can exceed the bottleneck optimum (least largest pair)
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = random_multiset(rng)
            b = random_multiset(rng, len(a))
            costs = oracles.matching_costs(a, b)
            got = matpoly.multiset_distance(a, b)
            assert got == pytest.approx(min(costs)[1], rel=1e-12)
            assert got >= min(m for _, m in costs) * (1.0 - 1e-12)

    def test_perturbed_sets_meet_bottleneck_oracle(self):
        # a root set against a permuted copy moved by 1e-9 relative: the
        # summed and the bottleneck optimum pick the same matching
        rng = np.random.default_rng(13)
        for _ in range(200):
            a = random_multiset(rng)
            noise = 1e-9 * (rng.normal(size=len(a)) + 1j * rng.normal(size=len(a)))
            b = rng.permutation(np.where(np.isinf(a), a, a * (1.0 + noise)))
            bottleneck = min(m for _, m in oracles.matching_costs(a, b))
            assert matpoly.multiset_distance(a, b) == pytest.approx(bottleneck, rel=1e-12)


def random_multiset(rng, size=None):
    """1 to 6 complex values over several scales, about a fifth infinite."""
    size = int(rng.integers(1, 7)) if size is None else size
    scale = rng.choice([1e-3, 1.0, 1e3], size=size)
    values = scale * (rng.normal(size=size) + 1j * rng.normal(size=size))
    return np.where(rng.random(size) < 0.2, complex(np.inf, 0.0), values)


SPECIAL_VALUES = [
    0j, complex(1e300, 0.0), complex(0.0, -1e300), complex(1e300, -1e300),
    complex(np.inf, 0.0), complex(0.0, -np.inf), complex(np.inf, np.inf),
]
COMPLEX_VALUES = st.one_of(
    st.complex_numbers(max_magnitude=1e300, allow_nan=False, allow_infinity=False),
    st.sampled_from(SPECIAL_VALUES),
)


class TestChordalDistance:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(COMPLEX_VALUES, min_size=1, max_size=6),
           st.lists(COMPLEX_VALUES, min_size=1, max_size=6))
    def test_broadcast_matches_scalar_oracle(self, xs, ys):
        got = matpoly.chordal_distance(np.array(xs)[:, None], np.array(ys)[None, :])
        want = np.array([[oracles.chordal_scalar(x, y) for y in ys] for x in xs])
        np.testing.assert_array_max_ulp(got, want, maxulp=1)

    def test_scalar_inputs_give_scalars(self):
        assert matpoly.chordal_distance(np.inf, np.inf) == 0.0
        assert matpoly.chordal_distance(0.0, np.inf) == 1.0
        assert np.ndim(matpoly.chordal_distance(1.0, 2.0j)) == 0

    def test_large_finite_roots_stay_apart(self):
        # the product of the two hypot factors would overflow to inf here
        assert matpoly.chordal_distance(1e200, -1e200) == pytest.approx(2e-200)
