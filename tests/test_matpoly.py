import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
import test_verify
from oracles import solve_all
from qbdshift import (
    QbdTriple,
    classify,
    cli,
    compute_w,
    kernel,
    matpoly,
    reference_solution,
    validate,
    verify,
)


def triple_of(a_minus, a_zero, a_plus):
    """The unvalidated triple of three equal-shape blocks."""
    blocks = [np.array(b, dtype=float) for b in (a_minus, a_zero, a_plus)]
    return QbdTriple(blocks[0].shape[0], *blocks)


def scalar_triple(a_minus, a_zero, a_plus):
    return triple_of([[a_minus]], [[a_zero]], [[a_plus]])


def unit_circle(count):
    """`count` equispaced points on |z| = 1, starting at z = 1."""
    return np.exp(2j * np.pi * np.arange(count) / count)


def rounding_allowance(triple, factors):
    """(n + 4) eps times the largest entry of the sum of the moduli of the
    terms that either evaluation of phi - factorization forms: an allowance
    for the rounding of both, which the coefficient bound does not cover."""
    left, middle, right = (np.abs(m) for m in factors)
    terms = (np.abs(triple.a_minus) + np.abs(triple.b_zero()) + np.abs(triple.a_plus)
             + middle + left @ middle + middle @ right + left @ middle @ right)
    return (triple.n + 4) * np.finfo(float).eps * float(terms.max())


class TestEvalPhi:
    # phi(z) = z^-1 B(z)
    def test_p1_vanishes_at_one(self):
        triple = scalar_triple(*oracles.P1)
        assert triple.b_of(1.0)[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_matches_naive_oracle(self):
        triple = triple_of(*oracles.E2)
        for z in (1.0, -1.0, 0.5 + 0.25j):
            np.testing.assert_allclose(
                triple.b_of(z) / z, oracles.naive_phi(*oracles.E2, z), atol=1e-15
            )

    def test_unit_vector_annihilated_for_qbd(self, e2, n2):
        # B(1) e = 0 because the block sum is stochastic
        for m in (e2, n2):
            np.testing.assert_allclose(m.b_of(1.0) @ np.ones(m.n), 0.0, atol=1e-14)

    def test_n1_at_minus_one(self):
        triple = scalar_triple(*oracles.N1)
        assert triple.b_of(-1.0)[0, 0] / -1.0 == pytest.approx(-1.6)

    def test_reversed_flag(self):
        # the reversed triple's polynomial is z^2 B(1/z)
        p1 = validate(*[[[x]] for x in oracles.P1])
        assert p1.reversed().b_of(2.0)[0, 0] == pytest.approx(4.0 * p1.b_of(0.5)[0, 0])


def solved_roots(model):
    """The roots of B(z) as a certified solve reports them: eig(G) together
    with 1/eig(R) of the reference solution."""
    return matpoly.RootSet.from_spectra(*reference_solution(model).spectra)


class TestRoots:
    """The roots of B(z) from the spectra of the solved G and R, which is
    the one way the program finds them."""

    def test_p1_roots_match_quadratic_formula(self):
        rs = solved_roots(validate(*[[[x]] for x in oracles.P1]))
        expected = oracles.quadratic_roots(0.5, -0.8, 0.3)
        assert rs.n_infinite == 0
        np.testing.assert_allclose(sorted(z.real for z in rs.finite), expected, atol=1e-12)

    def test_n1_double_unit_root(self):
        rs = solved_roots(validate(*[[[x]] for x in oracles.N1]))
        np.testing.assert_allclose(np.abs(rs.finite), [1.0, 1.0], atol=1e-7)

    def test_zero_root_from_vanishing_low_coefficient(self):
        # A_-1 = 0: G = 0
        rs = solved_roots(validate([[0.0]], [[0.6]], [[0.4]]))
        np.testing.assert_allclose(sorted(z.real for z in rs.finite), [0.0, 1.0], atol=1e-12)

    def test_infinite_root_from_singular_top_coefficient(self):
        # A_1 = 0: R = 0, whose zero eigenvalue is a root at infinity
        rs = matpoly.RootSet.from_spectra(*solve_all(validate([[0.5]], [[0.5]], [[0.0]])).spectra)
        assert rs.n_infinite == 1
        assert rs.count == 2

    def test_count_always_2n(self, small_bank):
        for rows in small_bank.values():
            for m, _ in rows:
                assert solved_roots(m).count == 2 * m.n

    def test_unit_root_always_present(self, small_bank):
        # the double root of the null class is solved to about 1e-8 (the
        # unit eigenvalues of G and R); simple unit roots are sharp
        for kind, rows in small_bank.items():
            tol = 1e-7 if kind == "null" else 1e-10
            for m, _ in rows:
                rs = solved_roots(m)
                assert min(abs(z - 1.0) for z in rs.finite) <= tol

    def test_similarity_invariance(self, e2):
        # a permutation of the phases keeps the QBD valid and its roots
        p = np.eye(2)[[1, 0]]
        perm = validate(*(p @ b @ p.T for b in (e2.a_minus, e2.a_zero, e2.a_plus)))
        assert oracles.multiset_distance(solved_roots(e2), solved_roots(perm)) <= 1e-9

    def test_splitting_positions_use_tie_break(self, n2):
        # both unit roots sit at positions n-1 and n
        rs = solved_roots(n2)
        assert abs(rs.values()[1] - 1.0) <= 1e-7
        assert abs(rs.values()[2] - 1.0) <= 1e-7


FLIP = [[0.0, 0.5], [0.5, 0.0]]

# (family, argument): the patterned models of test_verify, the period-2
# chain with a double root at -1, A_1 = 0 (n roots at infinity), a zero
# row of A_1 (one root at infinity), and generated models of every class.
QZ_MODELS = [
    *(("patterned", seed) for seed in range(3, 42)),
    *(("null_patterned", seed) for seed in range(30)),
    ("flip", None),
    ("zero-up", None),
    ("zero-up-row", None),
    *((kind, (n, seed)) for kind in ("positive", "null", "transient")
      for n in (1, 4, 16) for seed in range(3)),
]


def qz_model(family, arg):
    if family in ("patterned", "null_patterned"):
        return getattr(test_verify.TestPatternedInstances, family)(arg)
    if family == "flip":
        return validate(FLIP, np.zeros((2, 2)), FLIP)
    if family == "zero-up":
        return validate([[0.3, 0.2], [0.1, 0.4]], [[0.2, 0.3], [0.3, 0.2]], np.zeros((2, 2)))
    if family == "zero-up-row":
        return validate([[0.3, 0.0], [0.2, 0.0]], [[0.2, 0.2], [0.3, 0.5]],
                        [[0.3, 0.0], [0.0, 0.0]])
    return cli.generate(family, *arg)[0]


class TestRootsAgainstQz:
    """The report's roots eig(G) + 1/eig(R) against a QZ factorization of
    the companion pencil (oracles.qz_roots), in the bottleneck chordal
    distance that root certificates used."""

    @pytest.mark.parametrize("family, arg", QZ_MODELS)
    def test_within_root_match_tolerance(self, family, arg):
        model = qz_model(family, arg)
        want = oracles.qz_roots(model)
        if family == "zero-up":
            # A_1 = 0: xi_{n+1} = inf has no Perron data, so no certified
            # solve; the direct solution's spectra still give the roots
            got = matpoly.RootSet.from_spectra(*solve_all(model).spectra)
            assert got.n_infinite == model.n
            assert oracles.multiset_distance(got, want) <= verify.ROOT_MATCH_TOL
            return
        with warnings.catch_warnings():
            # flip has roots on the unit circle away from 1
            warnings.simplefilter("ignore", UserWarning)
            report = cli.solve_report(model)
        roots = report["roots"]
        spectra = [complex(re, im) for re, im in roots["finite"]]
        spectra += [complex(np.inf, 0.0)] * roots["n_infinite"]
        assert oracles.multiset_distance(spectra, want) <= verify.ROOT_MATCH_TOL


@st.composite
def root_multisets(draw):
    """Complex values with the cases the tie groups must order: conjugate
    pairs, equal moduli, relative ties below and near TIE_RTOL, zeros and
    a double unit root."""
    base = draw(st.lists(
        st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
        max_size=6))
    values = list(base)
    for z in base:
        twist = draw(st.sampled_from(["conj", "neg", "rotate", "tie", "near", "none"]))
        if twist == "conj":
            values.append(z.conjugate())
        elif twist == "neg":
            values.append(-z)
        elif twist == "rotate":
            values.append(abs(z) * 1j)
        elif twist == "tie":
            values.append(z * (1.0 + draw(st.floats(-1e-9, 1e-9))))
        elif twist == "near":
            values.append(z * (1.0 + draw(st.floats(5e-9, 2e-8))))
    values += draw(st.sampled_from([[], [0j, 0j], [1.0, 1.0], [1.0, 1.0 + 1e-9j]]))
    return draw(st.permutations(values))


class TestSortedRoots:
    @settings(max_examples=400, deadline=None)
    @given(root_multisets())
    def test_matches_loop_oracle_bitwise(self, values):
        got = matpoly._sorted_roots(values)
        want = oracles.sorted_roots_loop(values)
        assert got.tobytes() == want.tobytes()

    def test_real_positive_last_in_tie_group(self):
        got = matpoly._sorted_roots([1.0, 1j, -1.0, -1j, 0.5])
        np.testing.assert_array_equal(got, [0.5, -1.0, -1j, 1j, 1.0])


class TestHCoefficients:
    # the Laurent coefficients of phi(z)^-1 on the annulus between the
    # splitting roots: H_0 = W, H_-i = G^i W, H_i = W R^i
    def test_p1_values(self, p1):
        sol = solve_all(p1)
        w = compute_w(sol.g, sol.fwd.k, sol.r, oracles.radius_product(sol.g, sol.r))
        assert w[0, 0] == pytest.approx(-5.0, abs=1e-12)
        assert (w @ sol.r)[0, 0] == pytest.approx(-3.0, abs=1e-12)
        assert (sol.g @ w)[0, 0] == pytest.approx(-5.0, abs=1e-12)

    def test_g_zero_truncates(self):
        g = np.zeros((1, 1))
        w = compute_w(g, np.array([[-0.5]]), np.array([[0.6]]), 0.0)
        assert w[0, 0] == pytest.approx(-2.0)
        assert (g @ w)[0, 0] == 0.0
        assert (g @ g @ w)[0, 0] == 0.0

    @pytest.mark.parametrize("blocks", [oracles.T1, oracles.E2], ids=["T1", "E2"])
    def test_laurent_inverse_identity(self, blocks):
        # phi(z) H(z) = I inside the open annulus of convergence
        m = validate(*[np.atleast_2d(b) for b in blocks])
        sol = solve_all(m)
        rho_g = kernel.spectral_radius(sol.g)
        rho_r = kernel.spectral_radius(sol.r)
        radius = np.sqrt(rho_g / rho_r)  # geometric middle of (rho_g, 1/rho_r)
        order = 160
        w = compute_w(sol.g, sol.fwd.k, sol.r, oracles.radius_product(sol.g, sol.r))
        h = {0: w}
        for i in range(1, order + 1):
            h[-i] = sol.g @ h[1 - i]
            h[i] = h[i - 1] @ sol.r
        for angle in np.linspace(0.0, 2 * np.pi, 8, endpoint=False):
            z = radius * np.exp(1j * angle)
            hz = sum(z**i * h[i] for i in range(-order, order + 1))
            residual = m.b_of(z) / z @ hz - np.eye(m.n)
            assert np.max(np.abs(residual)) <= 1e-8


def factorization_residual(triple, direction, factors):
    """The package's residual of the factorization in z (`triple`) or in
    z^-1 (the forward one of `triple.reversed()`)."""
    if direction == "z_inverse":
        triple = triple.reversed()
    return matpoly.factorization_residual(triple, *factors)


class TestFactorizationResidual:
    def test_p1_plain(self):
        triple = scalar_triple(*oracles.P1)
        factors = (np.array([[0.6]]), np.array([[-0.5]]), np.array([[1.0]]))
        assert matpoly.factorization_residual(triple, *factors) <= 1e-14

    def test_p1_reversed(self):
        triple = scalar_triple(*oracles.P1)
        factors = (np.array([[1.0]]), np.array([[-0.5]]), np.array([[0.6]]))
        assert matpoly.factorization_residual(triple.reversed(), *factors) <= 1e-14

    def test_wrong_factor_detected(self):
        triple = scalar_triple(*oracles.P1)
        factors = (np.array([[0.6]]), np.array([[-0.5]]), np.array([[0.5]]))
        assert matpoly.factorization_residual(triple, *factors) >= 0.01

    def test_bound_covers_the_whole_circle(self):
        # |1 + z e^{-i pi/16}| peaks at 2 at z = e^{i pi/16}, halfway between
        # two of 16 equispaced samples, where it reads 2 cos(pi/32) = 1.9952
        # (B_0 = A_0 - I = 1)
        triple = QbdTriple(1, np.zeros((1, 1)), np.full((1, 1), 2.0),
                           np.array([[np.exp(-1j * np.pi / 16)]]))
        zero = np.zeros((1, 1))
        assert matpoly.factorization_residual(triple, zero, zero, zero) >= 2.0

    @staticmethod
    def assert_sandwiched(triple, direction, factors, slack=0.0):
        """The bound is at least the product oracle's maximum on a
        1024-point grid of the unit circle, and at most 3 times its
        maximum at 16 points (each coefficient is a discrete Fourier
        coefficient of the 16 values), both up to `slack`."""
        args = (triple.a_minus, triple.b_zero(), triple.a_plus, *factors, direction)
        got = factorization_residual(triple, direction, factors)
        fine = oracles.product_factorization_residual(*args, unit_circle(1024))
        coarse = oracles.product_factorization_residual(*args, unit_circle(16))
        assert fine <= got * (1.0 + 4 * np.finfo(float).eps) + slack
        assert got <= 3.0 * coarse + slack

    @pytest.mark.parametrize("direction", ["z", "z_inverse"])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_product_oracle(self, direction, seed):
        # random blocks and factors, odd seeds with zero rows and columns;
        # A_0 = B_0 + I
        rng = np.random.default_rng(seed)
        n = (1, 3, 8)[seed % 3]
        b_m, b_0, b_p, left, middle, right = (
            rng.uniform(-1.0, 1.0, (n, n)) for _ in range(6)
        )
        if seed % 2:
            dead = rng.choice(n, size=(n + 1) // 2, replace=False)
            left[dead, :] = 0.0
            right[:, dead] = 0.0
            b_p[dead, :] = 0.0
        self.assert_sandwiched(QbdTriple(n, b_m, b_0 + np.eye(n), b_p), direction,
                               (left, middle, right))

    def test_solved_factorizations_match_oracle(self, e2):
        # A_-1 != A_1 here, so reversing the triple for phi(z^-1) is observable
        sol = solve_all(e2, classify(e2))
        flip = {"z": "z_inverse", "z_inverse": "z"}
        for direction, factors in (("z", (sol.r, sol.fwd.k, sol.g)),
                                   ("z_inverse", (sol.rhat, sol.rev.k, sol.ghat))):
            assert factorization_residual(e2, direction, factors) <= 1e-14
            assert factorization_residual(e2, flip[direction], factors) >= 0.01
            bumped = factors[2].copy()
            bumped[0, 1] += 1e-6
            wrong = (factors[0], factors[1], bumped)
            assert factorization_residual(e2, direction, wrong) >= 1e-8
            # at round-off, or where the bound is attained (real
            # coefficients aligned at z = 1 or -1), both sides read the
            # rounding of their own products
            for checked, fs in ((direction, factors), (flip[direction], factors),
                                (direction, wrong)):
                self.assert_sandwiched(e2, checked, fs, rounding_allowance(e2, fs))


@pytest.fixture
def matching_calls(monkeypatch):
    """Counts the bipartite matchings multiset_distance runs."""
    calls = []
    match = oracles.scipy.sparse.csgraph.maximum_bipartite_matching

    def counted(graph, **kwargs):
        calls.append(graph.shape)
        return match(graph, **kwargs)

    monkeypatch.setattr(oracles.scipy.sparse.csgraph, "maximum_bipartite_matching", counted)
    return calls


class TestMultisetDistance:
    def test_permuted_sets_match(self):
        a = [1.0, 2.0 + 1j, np.inf]
        b = [np.inf, 1.0, 2.0 + 1j]
        assert oracles.multiset_distance(a, b) == 0.0

    def test_infinite_vs_finite_gap(self):
        assert oracles.multiset_distance([np.inf], [0.0]) == pytest.approx(1.0)

    def test_size_mismatch_raises(self):
        with pytest.raises(ValueError):
            oracles.multiset_distance([1.0], [1.0, 2.0])

    def test_large_roots_compare_chordally(self):
        assert oracles.multiset_distance([1e9], [1e9 * (1 + 1e-9)]) <= 1e-8

    def test_matches_brute_force_oracle(self):
        # the bottleneck optimum (least largest pair), also on unrelated sets
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = random_multiset(rng)
            b = random_multiset(rng, len(a))
            costs = oracles.matching_costs(a, b)
            got = oracles.multiset_distance(a, b)
            assert got == pytest.approx(min(m for _, m in costs), rel=1e-12)

    def test_below_least_sum_largest_pair(self, matching_calls):
        # 1 and 1.01 both have 1.005 nearest, and at the largest row or
        # column minimum no pairing exists: the distances above are bisected
        a, b = [1.0, 1.01, 100.0], [1.005, 100.0, 101.0]
        costs = oracles.matching_costs(a, b)
        bottleneck = min(m for _, m in costs)
        got = oracles.multiset_distance(a, b)
        assert got == pytest.approx(bottleneck, rel=1e-12)
        assert got < min(costs)[1] - 5e-5
        assert len(matching_calls) >= 2

    def test_nearest_partners_distinct_needs_no_matching(self, matching_calls):
        a, b = [0.0, 1.0], [0.45, 2.0]
        want = max(oracles.chordal_distance(0.0, 0.45), oracles.chordal_distance(1.0, 2.0))
        assert oracles.multiset_distance(a, b) == want
        assert matching_calls == []

    def test_clusters_of_equal_roots_and_infinities(self, matching_calls):
        inf = complex(np.inf, 0.0)
        a = [1.0, 1.0, 1.0, inf, inf]
        b = [inf, 1.0, inf, 1.0, 1.0 + 1e-9]
        assert oracles.multiset_distance(a, b) == oracles.chordal_distance(1.0, 1.0 + 1e-9)
        # one root of the cluster at 1 must pair with an infinity
        assert oracles.multiset_distance([1.0, 1.0, inf], [1.0, inf, inf]) == (
            pytest.approx(2 ** -0.5)
        )
        # clusters tie nearest partners: the first two sets pair at the bound,
        # the last two at the one larger distance, which needs no matching
        assert len(matching_calls) == 2

    def test_nan_raises(self):
        with pytest.raises(ValueError, match="nan"):
            oracles.multiset_distance([1.0, complex(np.nan, 0.0)], [1.0, 2.0])

    def test_perturbed_sets_meet_bottleneck_oracle(self):
        # a root set against a permuted copy moved by 1e-9 relative: the
        # summed and the bottleneck optimum pick the same matching
        rng = np.random.default_rng(13)
        for _ in range(200):
            a = random_multiset(rng)
            noise = 1e-9 * (rng.normal(size=len(a)) + 1j * rng.normal(size=len(a)))
            b = rng.permutation(np.where(np.isinf(a), a, a * (1.0 + noise)))
            bottleneck = min(m for _, m in oracles.matching_costs(a, b))
            assert oracles.multiset_distance(a, b) == pytest.approx(bottleneck, rel=1e-12)


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
        got = oracles.chordal_distance(np.array(xs)[:, None], np.array(ys)[None, :])
        want = np.array([[oracles.chordal_scalar(x, y) for y in ys] for x in xs])
        np.testing.assert_array_max_ulp(got, want, maxulp=1)

    def test_scalar_inputs_give_scalars(self):
        assert oracles.chordal_distance(np.inf, np.inf) == 0.0
        assert oracles.chordal_distance(0.0, np.inf) == 1.0
        assert np.ndim(oracles.chordal_distance(1.0, 2.0j)) == 0

    def test_large_finite_roots_stay_apart(self):
        # the product of the two hypot factors would overflow to inf here
        assert oracles.chordal_distance(1e200, -1e200) == pytest.approx(2e-200)
