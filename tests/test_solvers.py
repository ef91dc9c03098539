import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import solve_all, solve_min_g_oracle
from qbdshift import classify, cli, kernel, solvers, validate
from qbdshift import model as model_mod
from qbdshift import (
    compute_w,
    cyclic_reduction,
    derive_r_k,
    hats_from_w,
    reference_solution,
)


def scalar_b(a_minus, a_zero, a_plus):
    return (np.array([[a_minus]]), np.array([[a_zero - 1.0]]), np.array([[a_plus]]))


def hat_pair(model, **cr_args):
    """(Ghat, Rhat, Khat) from cyclic reduction on the reversed triple,
    whose equation (1) is (3)."""
    b0 = model.b_zero()
    ghat = cyclic_reduction(model.a_plus, b0, model.a_minus, **cr_args).g
    rhat, khat = derive_r_k(b0, model.a_minus, ghat)
    return ghat, rhat, khat


class TestSolveMinG:
    def test_p1_converges_fast(self):
        out = cyclic_reduction(*scalar_b(*oracles.P1))
        assert out.g[0, 0] == pytest.approx(1.0, abs=1e-13)
        assert out.iterations <= 30

    def test_t1(self):
        g = cyclic_reduction(*scalar_b(*oracles.T1)).g
        assert g[0, 0] == pytest.approx(0.6, abs=1e-13)

    def test_right_shifted_null_coefficients(self):
        # right-shifted N1 triple (0, 0.6, 0.4): minimal root of
        # 0 + (0.6 - 1) g + 0.4 g^2 is g = 0
        out = cyclic_reduction(*scalar_b(0.0, 0.6, 0.4))
        assert out.g[0, 0] == 0.0
        assert out.iterations == 0

    def test_singular_pivot_reports_step(self):
        with pytest.raises(kernel.SingularMatrixError, match="step 0"):
            cyclic_reduction(np.array([[0.5]]), np.array([[0.0]]), np.array([[0.5]]))

    def test_null_recurrent_stall_raises_with_solution(self):
        # cap the sweeps well before the linear-rate iteration can finish
        with pytest.raises(kernel.ConvergenceError) as err:
            cyclic_reduction(*scalar_b(*oracles.N1), tol=1e-14, max_iter=3)
        assert err.value.solution is not None
        assert err.value.iterations == 3
        assert err.value.residual > 1e-4

    def test_null_recurrent_residual_collapses_when_run_deep(self):
        # at the double root the equation residual is quadratic in the
        # forward error: a deep run certifies the residual while the
        # iterate itself freezes around sqrt(eps) away from the truth
        outcome = cyclic_reduction(*scalar_b(*oracles.N1), tol=1e-16, max_iter=40)
        assert outcome.residual <= 1e-12
        assert abs(outcome.g[0, 0] - 1.0) > 1e-10  # forward error remains

    @pytest.mark.parametrize("kind", ["positive", "null", "transient"])
    def test_six_products_match_triple_products(self, kind):
        # the sweep reuses low @ inv and up @ inv; `@` groups left to right,
        # so every iterate is bitwise that of the eight-product sweep; the
        # package may skip the plain loop's last sweep when it cannot move Dh
        from qbdshift import build_transform, classify, cli, perron_data, solvers

        for n in (1, 4, 16):
            model, _ = cli.generate(kind, n, seed=n)
            cls = classify(model)
            shifted = build_transform(model, cls, perron_data(model, cls), "double").shifted
            for triple in (model, model.reversed(), shifted):
                blocks = (triple.a_minus, triple.b_zero(), triple.a_plus)
                tol = oracles.CR_TOL_NULL if triple is not shifted else solvers.CR_TOL
                out = cyclic_reduction(*blocks, tol=tol, res_tol=np.inf)
                g, sweeps, _ = oracles.cyclic_reduction_triple_products(
                    *blocks, tol=tol, max_iter=solvers.CR_MAX_ITER
                )
                assert sweeps - 1 <= out.iterations <= sweeps
                assert np.array_equal(out.g, g)

    def test_matches_scalar_oracle_on_families(self):
        for blocks in (oracles.P1, oracles.T1):
            expected = oracles.scalar_solutions(*blocks)["g"]
            g = cyclic_reduction(*scalar_b(*blocks)).g
            assert g[0, 0] == pytest.approx(expected, abs=1e-13)


def plain_loop(triple, tol=solvers.CR_TOL, max_iter=solvers.CR_MAX_ITER):
    """(package outcome, oracle (G, sweeps, Dh^-1)) of cyclic reduction on
    `triple`, the oracle being the plain loop without the settled stop."""
    blocks = (triple.a_minus, triple.b_zero(), triple.a_plus)
    out = cyclic_reduction(*blocks, tol=tol, res_tol=np.inf)
    return out, oracles.cyclic_reduction_triple_products(*blocks, tol=tol,
                                                         max_iter=max_iter)


class TestSettledStop:
    """The loop skips a sweep that cannot move Dh, and only that one."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_matched_double_solve_skips_an_idle_last_sweep(self, n, seed):
        from qbdshift import shift

        model, _ = cli.generate("null", n, seed)
        transform = shift.matched_transform(model, classify(model))
        assert transform.kind.value == "double"
        out, (g, sweeps, dh_inv) = plain_loop(transform.shifted)
        assert out.converged
        assert np.array_equal(out.g, g)
        assert np.array_equal(out.dh_inv, dh_inv)
        # the plain loop's last sweep leaves Dh bit for bit except at n = 4,
        # seeds 1 and 2, where it moves the smallest entries by about an ulp
        _, (_, _, short_dh_inv) = plain_loop(transform.shifted, max_iter=sweeps - 1)
        idle = np.array_equal(short_dh_inv, dh_inv)
        assert idle == (n > 4 or seed == 0)
        assert out.iterations == sweeps - idle

    @pytest.mark.parametrize("kind", ["right", "left"])
    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_one_sided_null_routes_keep_every_sweep(self, n, kind):
        # one off-diagonal block stays of order one, so no bound can pass
        from qbdshift import build_transform, perron_data

        for seed in range(3):
            model, _ = cli.generate("null", n, seed)
            cls = classify(model)
            shifted = build_transform(model, cls, perron_data(model, cls), kind).shifted
            out, (g, sweeps, _) = plain_loop(shifted)
            assert out.iterations == sweeps
            assert np.array_equal(out.g, g)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(cli.GEN_KINDS), st.integers(1, 6), st.integers(0, 2**32 - 1),
           st.sampled_from([0.5, 1e-3]), st.sampled_from(["model", "reversed", "double"]))
    def test_at_most_one_sweep_fewer_and_the_same_g(self, kind, n, seed, gamma, which):
        from qbdshift import build_transform, perron_data

        model, _ = cli.generate(kind, n, seed, gamma=gamma)
        if which == "double":
            cls = classify(model)
            triple = build_transform(model, cls, perron_data(model, cls), "double").shifted
        else:
            triple = model if which == "model" else model.reversed()
        out, (g, sweeps, _) = plain_loop(
            triple, tol=solvers.CR_TOL if which == "double" else oracles.CR_TOL_NULL)
        assert sweeps - 1 <= out.iterations <= sweeps
        assert np.array_equal(out.g, g)


class TestOracleIteration:
    def test_p1(self):
        g, _ = solve_min_g_oracle(*scalar_b(*oracles.P1), tol=1e-13)
        assert g[0, 0] == pytest.approx(1.0, abs=1e-11)

    def test_t1(self):
        g, _ = solve_min_g_oracle(*scalar_b(*oracles.T1), tol=1e-13)
        assert g[0, 0] == pytest.approx(0.6, abs=1e-11)

    def test_n1_slow_convergence_regression(self):
        # at the double root the error e and increment d obey d ~ 0.4 e^2,
        # so reaching |g - 1| <= 1e-5 needs the increment below 4e-11 and
        # on the order of 10^5 iterations (O(1/k) decay)
        g, iters = solve_min_g_oracle(*scalar_b(*oracles.N1), tol=4e-11)
        assert abs(g[0, 0] - 1.0) <= 1e-5
        assert iters >= 10_000

    def test_agrees_with_package_free_fixed_point(self):
        mine = oracles.fixed_point_g(*oracles.E2, sweeps=400)
        g, _ = solve_min_g_oracle(
            np.array(oracles.E2[0]),
            np.array(oracles.E2[1]) - np.eye(2),
            np.array(oracles.E2[2]),
            tol=1e-14,
        )
        np.testing.assert_allclose(g, mine, atol=1e-9)

    def test_cr_and_oracle_agree(self, e2, n2):
        b_e2 = (e2.a_minus, e2.b_zero(), e2.a_plus)
        g_cr = cyclic_reduction(*b_e2).g
        g_fp, _ = solve_min_g_oracle(*b_e2, tol=1e-13)
        np.testing.assert_allclose(g_cr, g_fp, atol=1e-7)
        # null recurrent: oracle increment 4e-9 gives ~1e-4 accuracy
        b_n2 = (n2.a_minus, n2.b_zero(), n2.a_plus)
        g_cr2 = cyclic_reduction(*b_n2, tol=1e-9, max_iter=40, res_tol=1e-9).g
        g_fp2, _ = solve_min_g_oracle(*b_n2, tol=4e-9)
        np.testing.assert_allclose(g_cr2, g_fp2, atol=1e-4)


class TestDeriveRK:
    @pytest.mark.parametrize(
        "blocks,g,expected_k,expected_r",
        [(oracles.P1, 1.0, -0.5, 0.6), (oracles.N1, 1.0, -0.4, 1.0), (oracles.T1, 0.6, -0.5, 1.0)],
        ids=["P1", "N1", "T1"],
    )
    def test_scalar_values(self, blocks, g, expected_k, expected_r):
        _, b0, bp = scalar_b(*blocks)
        r, k = derive_r_k(b0, bp, np.array([[g]]))
        assert k[0, 0] == pytest.approx(expected_k, abs=1e-14)
        assert r[0, 0] == pytest.approx(expected_r, abs=1e-14)

    def test_singular_k_raises(self):
        b0 = np.array([[-1.0]])
        bp = np.array([[1.0]])
        with pytest.raises(kernel.SingularMatrixError, match="nonsingular M-matrix"):
            derive_r_k(b0, bp, np.array([[1.0]]))

    def test_signed_entries_kept(self):
        # a shifted problem's R may be genuinely signed; the nonnegativity
        # clamp of an unshifted problem lives in the direct-solve oracle
        b0 = np.array([[-0.5]])
        bp = np.array([[-0.25]])  # signed shifted coefficient
        r, _ = derive_r_k(b0, bp, np.zeros((1, 1)))
        assert r[0, 0] == pytest.approx(-0.5)
        with pytest.raises(ValueError, match="below"):
            oracles.clamp_nonneg(r)
        np.testing.assert_array_equal(oracles.clamp_nonneg(np.array([[-1e-13, 0.5]])),
                                      [[0.0, 0.5]])


class TestHatPair:
    def test_p1(self, p1):
        ghat, rhat, khat = hat_pair(p1)
        assert ghat[0, 0] == pytest.approx(0.6, abs=1e-13)
        assert rhat[0, 0] == pytest.approx(1.0, abs=1e-13)
        assert khat[0, 0] == pytest.approx(-0.5, abs=1e-13)

    def test_n1_accuracy_capped_by_double_root(self, n1):
        ghat, rhat, khat = hat_pair(n1, tol=1e-9, res_tol=1e-9)
        assert ghat[0, 0] == pytest.approx(1.0, abs=1e-6)
        assert rhat[0, 0] == pytest.approx(1.0, abs=1e-6)
        assert khat[0, 0] == pytest.approx(-0.4, abs=1e-6)

    def test_t1(self, t1):
        ghat, rhat, khat = hat_pair(t1)
        assert ghat[0, 0] == pytest.approx(1.0, abs=1e-13)
        assert rhat[0, 0] == pytest.approx(0.6, abs=1e-13)
        assert khat[0, 0] == pytest.approx(-0.5, abs=1e-13)


def null_with_permuted_up(n, seed):
    """Null recurrent with A_1 = A_-1 Q for a cyclic permutation Q: the row
    sums, hence the zero drift, are those of A_1 = A_-1, but G != Ghat."""
    model, _ = cli.generate("null", n, seed)
    return validate(model.a_minus, model.a_zero, np.roll(model.a_minus, 1, axis=1))


def oracle_case(family, n, seed):
    from test_verify import TestPatternedInstances as patterned

    if family in ("patterned", "null_patterned"):
        return getattr(patterned, family)(seed, n)
    if family == "asymmetric-null":
        return null_with_permuted_up(n, seed)
    return cli.generate(family, n, seed)[0]


ORACLE_CASES = (
    [(kind, n, seed) for kind in ("positive", "null", "transient")
     for n in (1, 2, 4) for seed in range(3)]
    + [("patterned", 4, seed) for seed in (3, 17, 29, 41)]
    + [("null_patterned", 4, seed) for seed in (0, 5, 10, 17)]
    + [("asymmetric-null", n, n) for n in (2, 4)]
)


class TestSolveAllAgainstMpOracle:
    """solve_all, the direct solve the tests and `bench` compare the
    certified set with, against the 50-digit cyclic reduction of
    oracles.minimal_solutions_mp, G, R, Ghat and Rhat relative to the
    oracle's infinity norm."""

    # about twice the largest relative errors measured on these cases: 13
    # eps off null recurrence (transient, n = 1, seed 0), and 9.3e-8 at it
    # (null_patterned, seed 17), where the direct solve stalls at the
    # double root
    SEPARATED_RTOL = 32 * np.finfo(float).eps
    NULL_RTOL = 2e-7

    @pytest.mark.parametrize("family, n, seed", ORACLE_CASES)
    def test_matches_mp_oracle(self, family, n, seed):
        model = oracle_case(family, n, seed)
        cls = classify(model)
        sol = solve_all(model, cls)
        null = cls.kind is model_mod.Kind.NULL_RECURRENT
        if family == "asymmetric-null":
            assert null and not np.allclose(sol.g, sol.ghat)
        # at null recurrence the oracle halves its error each sweep: 40
        # sweeps leave it within 2^-40 = 9e-13, far inside NULL_RTOL
        want = oracles.minimal_solutions_mp(model, max_sweeps=40)
        rtol = self.NULL_RTOL if null else self.SEPARATED_RTOL
        for name, got in (("G", sol.g), ("R", sol.r), ("Ghat", sol.ghat),
                          ("Rhat", sol.rhat)):
            err = kernel.inf_norm(got - want[name]) / kernel.inf_norm(want[name])
            assert err <= rtol, (name, err)


class TestComputeW:
    def test_p1(self, p1):
        sol = solve_all(p1)
        w = compute_w(sol.g, sol.k, sol.r, oracles.radius_product(sol.g, sol.r))
        assert w[0, 0] == pytest.approx(-5.0, abs=1e-12)

    def test_t1(self, t1):
        sol = solve_all(t1)
        assert sol.w[0, 0] == pytest.approx(-5.0, abs=1e-12)

    def test_g_zero_degenerates_to_k_inverse(self):
        w = compute_w(np.zeros((1, 1)), np.array([[-0.5]]), np.array([[0.6]]), 0.0)
        assert w[0, 0] == pytest.approx(-2.0)

    def test_null_recurrent_raises(self, n1):
        sol = reference_solution(n1)
        with pytest.raises(kernel.ConvergenceError, match="null"):
            compute_w(sol.g, sol.k, sol.r, oracles.radius_product(sol.g, sol.r))


class TestWhereWIsComputed:
    """W is certificate evidence: the solution path computes none, a
    certified solve computes it once, on the first read of `sol.w`."""

    @staticmethod
    def count_stein(monkeypatch):
        calls = []
        real = kernel.stein_solve

        def counted(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(kernel, "stein_solve", counted)
        return calls

    @pytest.mark.parametrize("kind, gamma", [
        ("positive", 0.5), ("positive", 1e-5), ("transient", 0.5), ("transient", 1e-5),
        ("null", 0.5),
    ])
    def test_reference_solution_computes_no_w(self, monkeypatch, kind, gamma):
        m, _ = cli.generate(kind, 4, 1, gamma=gamma)
        calls = self.count_stein(monkeypatch)
        sol = reference_solution(m, classify(m))
        assert not calls
        assert (sol.w is None) == (kind == "null")

    @pytest.mark.parametrize("kind, expected", [
        ("positive", 1), ("transient", 1), ("null", 0),
    ])
    def test_certified_solve_computes_w_once(self, monkeypatch, kind, expected):
        m, meta = cli.generate(kind, 4, 1)
        calls = self.count_stein(monkeypatch)
        report = cli.solve_report(m, meta)
        assert len(calls) == expected
        assert (report["solution"]["W"] is None) == (kind == "null")

    def test_second_read_is_cached(self, monkeypatch):
        m, _ = cli.generate("positive", 4, 1)
        sol = solve_all(m)
        calls = self.count_stein(monkeypatch)
        assert sol.w is sol.w
        assert len(calls) == 1

    @pytest.mark.parametrize("kind", ["positive", "transient"])
    def test_stein_guard_reads_the_radii(self, monkeypatch, kind):
        # the guard takes rho(G) rho(R) from sol.radii, which the Perron
        # vectors and the spec:rho certificates read first
        m, _ = cli.generate(kind, 8, 1)
        sol = reference_solution(m, classify(m))
        rho_g, rho_r, _, _ = sol.radii
        calls = []
        real = kernel._power

        def counted(a):
            calls.append(a.shape)
            return real(a)

        monkeypatch.setattr(kernel, "_power", counted)
        assert sol.w is not None
        assert not calls
        assert rho_g * rho_r < 1.0


class TestHatsFromW:
    def test_p1(self, p1):
        sol = solve_all(p1)
        ghat, rhat = hats_from_w(sol.w, sol.g, sol.r)
        assert ghat[0, 0] == pytest.approx(0.6, abs=1e-12)
        assert rhat[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_t1(self, t1):
        sol = solve_all(t1)
        ghat, rhat = hats_from_w(sol.w, sol.g, sol.r)
        assert ghat[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert rhat[0, 0] == pytest.approx(0.6, abs=1e-12)

    def test_e2_matches_independent_solve(self, e2):
        # cross-oracle equivalence: similarity transform vs direct CR
        sol = solve_all(e2)
        ghat, rhat = hats_from_w(sol.w, sol.g, sol.r)
        np.testing.assert_allclose(ghat, sol.ghat, atol=1e-8)
        np.testing.assert_allclose(rhat, sol.rhat, atol=1e-8)


class TestSolveAllProperties:
    def test_residuals_bound(self, small_bank):
        for rows in small_bank.values():
            for m, cls in rows:
                sol = solve_all(m, cls)
                assert max(sol.residuals.values()) <= 1e-11

    def test_minimal_solutions_nonnegative(self, small_bank):
        for rows in small_bank.values():
            for m, cls in rows[:3]:
                sol = solve_all(m, cls)
                for mat in (sol.g, sol.r, sol.ghat, sol.rhat):
                    assert np.min(mat) >= 0.0

    def test_spectral_radii_pair_up(self, small_bank):
        for rows in small_bank.values():
            for m, cls in rows[:3]:
                sol = solve_all(m, cls)
                assert kernel.spectral_radius(sol.g) == pytest.approx(
                    kernel.spectral_radius(sol.rhat), abs=1e-8
                )
                assert kernel.spectral_radius(sol.r) == pytest.approx(
                    kernel.spectral_radius(sol.ghat), abs=1e-8
                )

    def test_eigenvalues_tile_the_root_set(self, small_bank):
        for rows in small_bank.values():
            for m, cls in rows[:3]:
                sol = reference_solution(m, cls)
                eig_g = list(np.linalg.eigvals(sol.g))
                recip = [np.inf if z == 0 else 1.0 / z for z in np.linalg.eigvals(sol.r)]
                rs = oracles.qz_roots(m)
                assert oracles.multiset_distance(eig_g + recip, rs) <= 1e-7

    def test_w_identities(self, small_bank):
        eye = lambda n: np.eye(n)
        for kind in ("positive", "transient"):
            for m, cls in small_bank[kind][:3]:
                sol = solve_all(m, cls)
                k_inv = sol.k_inv
                assert kernel.inf_norm(sol.w - sol.g @ sol.w @ sol.r - k_inv) <= 1e-10
                assert (
                    kernel.inf_norm(sol.k @ (eye(m.n) - sol.g @ sol.ghat) @ sol.w - eye(m.n))
                    <= 1e-10
                )

    def test_null_recurrent_w_is_none(self, small_bank):
        for m, cls in small_bank["null"][:2]:
            assert solve_all(m, cls).w is None


class TestOracleAgreementSweep:
    def test_cr_matches_oracle_on_generated_instances(self, small_bank):
        # increment tolerances chosen so the fixed point's own error sits
        # below the comparison tolerance (geometric decay away from null
        # recurrence, err ~ sqrt(increment / 0.4) at the double root)
        for kind, rows in small_bank.items():
            atol = 1e-4 if kind == "null" else 1e-7
            fp_tol = 4e-9 if kind == "null" else 1e-11
            for m, cls in rows[:2]:
                blocks = (m.a_minus, m.b_zero(), m.a_plus)
                g_cr = solve_all(m, cls).g
                g_fp, _ = solve_min_g_oracle(*blocks, tol=fp_tol)
                np.testing.assert_allclose(g_cr, g_fp, atol=atol)
