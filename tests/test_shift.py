import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import solve_kind, transforms_of
from oracles import solve_all
from qbdshift import (
    ShiftKind,
    build_transform,
    check_identity_suite,
    classify,
    complete_perron_data,
    kernel,
    matched_transform,
    perron_data,
    recover_gr,
    reference_solution,
    shift_routes,
    shifted_gr,
    shifted_hats_nonnull,
    shifted_hats_nullrec,
    solve_via,
)
from qbdshift import cli, solvers


def prepared(model):
    cls = classify(model)
    pd = perron_data(model, cls)
    return cls, pd


def triple_values(shifted):
    return (
        shifted.a_minus[0, 0],
        shifted.a_zero[0, 0],
        shifted.a_plus[0, 0],
    )


class TestBuildRight:
    def test_n1(self, n1):
        cls, pd = prepared(n1)
        t = build_transform(n1, cls, pd, "right", v=[1.0])
        assert triple_values(t.shifted) == pytest.approx((0.0, 0.6, 0.4))

    def test_p1(self, p1):
        cls, pd = prepared(p1)
        t = build_transform(p1, cls, pd, "right", v=[1.0])
        assert triple_values(t.shifted) == pytest.approx((0.0, 0.5, 0.3))

    def test_n2_with_uniform_v(self, n2):
        cls, pd = prepared(n2)
        t = build_transform(n2, cls, pd, "right", v=[0.5, 0.5])
        eye = np.eye(2)
        q = np.full((2, 2), 0.5)
        np.testing.assert_allclose(t.shifted.a_minus, n2.a_minus @ (eye - q), atol=1e-15)
        # root surgery: the unit root is replaced by zero
        rs = oracles.qz_roots(t.shifted)
        expected = oracles.surgery_expected(oracles.qz_roots(n2), t)
        assert oracles.multiset_distance(rs, expected) <= 1e-7

    def test_projector_idempotent(self, e2):
        cls, pd = prepared(e2)
        t = build_transform(e2, cls, pd, "right")
        np.testing.assert_allclose(t.q @ t.q, t.q, atol=1e-13)

    def test_orthogonal_v_rejected(self, n2):
        cls, pd = prepared(n2)
        with pytest.raises(ValueError, match="pairing"):
            build_transform(n2, cls, pd, "right", v=[1.0, -1.0])  # v^T e = 0


class TestBuildLeft:
    def test_n1(self, n1):
        cls, pd = prepared(n1)
        t = build_transform(n1, cls, pd, "left", w=[1.0])
        assert triple_values(t.shifted) == pytest.approx((0.4, 0.6, 0.0))

    def test_t1(self, t1):
        cls, pd = prepared(t1)
        t = build_transform(t1, cls, pd, "left", w=[1.0])
        assert triple_values(t.shifted) == pytest.approx((0.3, 0.5, 0.0))

    def test_p1(self, p1):
        cls, pd = prepared(p1)
        t = build_transform(p1, cls, pd, "left", w=[1.0])
        assert triple_values(t.shifted) == pytest.approx((0.5, 0.5, 0.0))

    def test_top_block_becomes_singular(self, e2):
        cls, pd = prepared(e2)
        t = build_transform(e2, cls, pd, "left")
        assert abs(np.linalg.det(t.shifted.a_plus)) <= 1e-14
        rs = oracles.qz_roots(t.shifted)
        assert rs.n_infinite >= 1


class TestBuildDouble:
    def test_n1(self, n1):
        cls, pd = prepared(n1)
        t = build_transform(n1, cls, pd, "double", v=[1.0], w=[1.0])
        assert triple_values(t.shifted) == pytest.approx((0.0, 0.6, 0.0))

    def test_p1(self, p1):
        cls, pd = prepared(p1)
        t = build_transform(p1, cls, pd, "double", v=[1.0], w=[1.0])
        assert triple_values(t.shifted) == pytest.approx((0.0, 0.5, 0.0))

    def test_middle_forms_must_agree(self, e2):
        # N2 would hide this (A_-1 = A_1 kills both cross terms for any
        # vectors); the asymmetric instance exposes doctored Perron data
        cls, pd = prepared(e2)
        import dataclasses

        bad = dataclasses.replace(pd, u_g=np.array([1.0, 0.2]))  # not Perron
        with pytest.raises(ValueError, match="forms"):
            build_transform(e2, cls, bad, "double")

    def test_root_surgery_by_pencil_oracle(self, n2):
        cls, pd = prepared(n2)
        t = build_transform(n2, cls, pd, "double")
        expected = oracles.surgery_expected(oracles.qz_roots(n2), t)
        assert oracles.multiset_distance(oracles.qz_roots(t.shifted), expected) <= 1e-7


def dense_blocks(model, t):
    """The shifted triple of `t` by the dense projector products: A_-1 (I
    - Q), A_0 + xi_n A_1 Q + xi_{n+1}^-1 S A_-1 (- xi_{n+1}^-1 S A_-1 Q
    for the double shift), (I - S) A_1."""
    eye = np.eye(model.n)
    a_minus, a_zero, a_plus = model.a_minus, model.a_zero, model.a_plus
    if t.q is not None:
        a_minus = model.a_minus @ (eye - t.q)
        a_zero = a_zero + t.xi_n * model.a_plus @ t.q
    if t.s is not None:
        a_zero = a_zero + (1.0 / t.xi_n1) * t.s @ model.a_minus
        a_plus = (eye - t.s) @ model.a_plus
    if t.q is not None and t.s is not None:
        a_zero = a_zero - (1.0 / t.xi_n1) * t.s @ model.a_minus @ t.q
    return a_minus, a_zero, a_plus


def drawn_model(source, seed, n, gamma):
    from test_verify import TestPatternedInstances

    if source in ("patterned", "null_patterned"):
        return getattr(TestPatternedInstances, source)(seed)
    return cli.generate(source, n, seed, gamma=gamma)[0]


class TestRankOneBlocks:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["positive", "null", "transient", "patterned", "null_patterned"]),
           st.integers(0, 2**16), st.integers(1, 8), st.sampled_from([0.5, 1e-4, 1e-8]),
           st.sampled_from(list(ShiftKind)), st.booleans())
    def test_blocks_match_dense_projector_products(self, source, seed, n, gamma, kind,
                                                    free):
        # each shifted block is its block plus a rank-one update; it agrees
        # with the dense products of the shift formulas to a few eps of the
        # larger of the block's norm and the original block's
        model = drawn_model(source, seed, n, gamma)
        cls, pd = prepared(model)
        v = w = None
        if free:
            rng = np.random.default_rng(seed)
            v, w = rng.uniform(0.1, 1.0, model.n), rng.uniform(0.1, 1.0, model.n)
        t = build_transform(model, cls, pd, kind, v=v, w=w)
        eps = np.finfo(float).eps
        for got, want, block in zip(
                (t.shifted.a_minus, t.shifted.a_zero, t.shifted.a_plus),
                dense_blocks(model, t), (model.a_minus, model.a_zero, model.a_plus)):
            scale = max(kernel.inf_norm(want), kernel.inf_norm(block))
            assert kernel.inf_norm(got - want) <= 8 * eps * scale


class TestShiftedAndRecover:
    def test_n1_right(self, n1):
        cls, pd = prepared(n1)
        sol = reference_solution(n1, cls)
        t = build_transform(n1, cls, pd, "right", v=[1.0])
        g_s, r_s, k_s = shifted_gr(sol, t)
        assert g_s[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert r_s[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert k_s[0, 0] == pytest.approx(-0.4, abs=1e-12)

    def test_n1_double(self, n1):
        cls, pd = prepared(n1)
        sol = reference_solution(n1, cls)
        t = build_transform(n1, cls, pd, "double", v=[1.0], w=[1.0])
        g_s, r_s, _ = shifted_gr(sol, t)
        assert g_s[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert r_s[0, 0] == pytest.approx(0.0, abs=1e-12)
        g, r, _ = recover_gr(g_s, r_s, t, n1)
        assert g[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert r[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_p1_right(self, p1):
        cls, pd = prepared(p1)
        sol = solve_all(p1, cls)
        t = build_transform(p1, cls, pd, "right", v=[1.0])
        g_s, r_s, _ = shifted_gr(sol, t)
        assert g_s[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert r_s[0, 0] == pytest.approx(0.6, abs=1e-12)
        g, r, _ = recover_gr(g_s, r_s, t, p1)
        assert (g[0, 0], r[0, 0]) == pytest.approx((1.0, 0.6))

    def test_t1_left(self, t1):
        cls, pd = prepared(t1)
        t = build_transform(t1, cls, pd, "left", w=[1.0])
        g, r, _ = recover_gr(np.array([[0.6]]), np.array([[0.0]]), t, t1)
        assert (g[0, 0], r[0, 0]) == pytest.approx((0.6, 1.0))

    def test_recover_rejects_wrong_transform(self, p1, t1):
        cls, pd = prepared(t1)
        t = build_transform(t1, cls, pd, "left", w=[1.0])
        with pytest.raises(kernel.ConvergenceError, match="recovered"):
            recover_gr(np.array([[0.6]]), np.array([[0.0]]), t, p1)

    def test_shifted_solutions_solve_shifted_equations(self, small_bank):
        for rows in small_bank.values():
            for m, cls in rows[:2]:
                sol = reference_solution(m, cls)
                pd = complete_perron_data(perron_data(m, cls), sol)
                for kind in ShiftKind:
                    t = build_transform(m, cls, pd, kind)
                    g_s, r_s, _ = shifted_gr(sol, t)
                    bm, b0, bp = t.shifted.a_minus, t.shifted.b_zero(), t.shifted.a_plus
                    assert solvers.residual_g(bm, b0, bp, g_s) <= 1e-10
                    assert solvers.residual_r(bm, b0, bp, r_s) <= 1e-10


class TestNullRecurrentHats:
    def full_perron(self, model):
        cls = classify(model)
        sol = reference_solution(model, cls)
        pd = complete_perron_data(perron_data(model, cls), sol)
        return cls, sol, pd

    def test_n1_right(self, n1):
        cls, sol, pd = self.full_perron(n1)
        t = build_transform(n1, cls, pd, "right", v=[1.0])
        hats = shifted_hats_nullrec(sol, pd, t)
        assert hats.ghat[0, 0] == pytest.approx(1.0, abs=1e-10)
        assert hats.rhat[0, 0] == pytest.approx(0.0, abs=1e-10)
        assert hats.khat[0, 0] == pytest.approx(-0.4, abs=1e-10)
        assert hats.khat_rank_one[0, 0] == pytest.approx(-0.4, abs=1e-10)

    def test_n1_left(self, n1):
        cls, sol, pd = self.full_perron(n1)
        t = build_transform(n1, cls, pd, "left", w=[1.0])
        hats = shifted_hats_nullrec(sol, pd, t)
        assert hats.ghat[0, 0] == pytest.approx(0.0, abs=1e-10)
        assert hats.rhat[0, 0] == pytest.approx(1.0, abs=1e-10)
        assert hats.khat[0, 0] == pytest.approx(-0.4, abs=1e-10)

    def test_n1_double_defining_vs_compact(self, n1):
        cls, sol, pd = self.full_perron(n1)
        t = build_transform(n1, cls, pd, "double", v=[1.0], w=[1.0])
        hats = shifted_hats_nullrec(sol, pd, t)
        assert hats.ghat[0, 0] == pytest.approx(0.0, abs=1e-10)
        assert hats.rhat[0, 0] == pytest.approx(0.0, abs=1e-10)
        assert hats.khat[0, 0] == pytest.approx(-0.4, abs=1e-10)
        # the compact rank-one expression overshoots by u_Rhat v_Ghat^T
        assert hats.khat_rank_one[0, 0] == pytest.approx(-0.8, abs=1e-10)

    def test_n2_residuals_and_spectra(self, n2):
        cls, sol, pd = self.full_perron(n2)
        for kind, replaced in (
            ("right", "rhat"),
            ("left", "ghat"),
            ("double", "both"),
        ):
            t = build_transform(n2, cls, pd, kind)
            hats = shifted_hats_nullrec(sol, pd, t)
            assert hats.residuals["Ghat_s"] <= 1e-10
            assert hats.residuals["Rhat_s"] <= 1e-10
            sh = t.shifted
            assert kernel.inf_norm(hats.khat - (sh.b_zero() + hats.rhat @ sh.a_plus)) <= 1e-10
            eig_ghat = sorted(np.abs(np.linalg.eigvals(hats.ghat)))
            eig_rhat = sorted(np.abs(np.linalg.eigvals(hats.rhat)))
            if replaced in ("ghat", "both"):
                assert eig_ghat[-1] < 0.9  # unit eigenvalue now at zero
            else:
                assert eig_ghat[-1] == pytest.approx(1.0, abs=1e-8)
            if replaced in ("rhat", "both"):
                assert eig_rhat[-1] < 0.9
            else:
                assert eig_rhat[-1] == pytest.approx(1.0, abs=1e-8)

    def test_rejects_non_null(self, e2):
        cls = classify(e2)
        sol = solve_all(e2, cls)
        pd = complete_perron_data(perron_data(e2, cls), sol)
        t = build_transform(e2, cls, pd, "right")
        with pytest.raises(ValueError, match="xi_n"):
            shifted_hats_nullrec(sol, pd, t)


class TestNonNullHats:
    def test_p1_right(self, p1):
        cls = classify(p1)
        sol = solve_all(p1, cls)
        pd = complete_perron_data(perron_data(p1, cls), sol)
        t = build_transform(p1, cls, pd, "right", v=[1.0])
        hats = shifted_hats_nonnull(sol, t)
        assert hats.w[0, 0] == pytest.approx(-2.0, abs=1e-11)
        assert hats.ghat[0, 0] == pytest.approx(0.6, abs=1e-11)
        assert hats.rhat[0, 0] == pytest.approx(0.0, abs=1e-11)

    def test_t1_left(self, t1):
        cls = classify(t1)
        sol = solve_all(t1, cls)
        pd = complete_perron_data(perron_data(t1, cls), sol)
        t = build_transform(t1, cls, pd, "left", w=[1.0])
        hats = shifted_hats_nonnull(sol, t)
        assert hats.w[0, 0] == pytest.approx(-2.0, abs=1e-11)
        assert hats.ghat[0, 0] == pytest.approx(0.0, abs=1e-11)
        assert hats.rhat[0, 0] == pytest.approx(0.6, abs=1e-11)

    def test_degenerate_g_zero_keeps_w(self):
        # A_-1 = 0-like degenerate: G = 0, Q-term vanishes, W_r = W
        from qbdshift import validate

        m = validate([[0.0, 0.0], [0.2, 0.1]], [[0.4, 0.3], [0.3, 0.2]], [[0.2, 0.1], [0.1, 0.1]])
        cls = classify(m)
        sol = solve_all(m, cls)
        pd = complete_perron_data(perron_data(m, cls), sol)
        t = build_transform(m, cls, pd, "right")
        hats = shifted_hats_nonnull(sol, t)
        np.testing.assert_allclose(
            hats.w, sol.w - cls.xi_n * t.q @ sol.w @ sol.r, atol=1e-12
        )

    @pytest.mark.parametrize("gamma", [0.5, 1e-4])
    def test_double_is_right_then_left_step(self, gamma):
        # the double shift is the left shift of the right-shifted triple
        # and the right shift of the left-shifted one: its transported hats
        # in either order are the minimal solutions that cyclic reduction
        # finds on the reversed double-shifted triple (separated: the moved
        # roots sit at 0 and infinity), to ~eps ||W|| (||W|| ~ 3e4 at
        # gamma 1e-4)
        for kind in ("positive", "transient"):
            m, _ = cli.generate(kind, 4, 1, gamma=gamma)
            cls = classify(m)
            sol = reference_solution(m, cls)
            pd = complete_perron_data(perron_data(m, cls), sol)
            t = build_transform(m, cls, pd, "double")
            sh = t.shifted
            ghat_cr = solvers.cyclic_reduction(sh.a_plus, sh.b_zero(), sh.a_minus).g
            rhat_cr, _ = solvers.derive_r_k(sh.b_zero(), sh.a_minus, ghat_cr)
            hats = shifted_hats_nonnull(sol, t)
            assert hats.w is not None and hats.khat_rank_one is None
            # left step first: W_l = W - xi_{n+1}^-1 G W S, R_l = R -
            # xi_{n+1}^-1 S, then the right step on (W_l, G, R_l)
            w_l = sol.w - (1.0 / t.xi_n1) * sol.g @ sol.w @ t.s
            r_d = sol.r - (1.0 / t.xi_n1) * t.s
            w_d = w_l - t.xi_n * t.q @ w_l @ r_d
            ghat_lr, rhat_lr = solvers.hats_from_w(w_d, sol.g - t.xi_n * t.q, r_d)
            for ghat, rhat in ((hats.ghat, hats.rhat), (ghat_lr, rhat_lr)):
                assert kernel.inf_norm(ghat - ghat_cr) <= 1e-10, (kind, gamma)
                assert kernel.inf_norm(rhat - rhat_cr) <= 1e-10, (kind, gamma)

    def test_inadmissible_v_detected(self):
        # needs Ghat u_G not parallel to u_G, so an asymmetric instance
        from qbdshift import validate

        m = validate(
            [[0.4, 0.1], [0.1, 0.1]], [[0.1, 0.1], [0.3, 0.2]], [[0.2, 0.1], [0.1, 0.2]]
        )
        cls = classify(m)
        sol = solve_all(m, cls)
        pd = complete_perron_data(perron_data(m, cls), sol)
        # craft v with v^T u_G = 1 and xi_n v^T (Ghat u_G) = 1 exactly
        u_g = pd.u_g
        system = np.vstack([u_g, sol.ghat @ u_g])
        v_bad = np.linalg.solve(system, np.array([1.0, 1.0 / cls.xi_n]))
        t = build_transform(m, cls, pd, "right", v=v_bad)
        with pytest.raises(ValueError, match="inadmissible"):
            shifted_hats_nonnull(sol, t)

    def test_inadmissible_w_of_double_detected(self):
        # the left step's margin is read on the right-shifted problem, from
        # the double W_s^-1 (Sherman-Morrison): craft w with v_R^T w = 1 and
        # xi_{n+1}^-1 v_R^T Rhat_r w = 1 - 1e-10, Rhat_r = W_r^-1 G_r W_r
        from qbdshift import validate

        m = validate(
            [[0.4, 0.1], [0.1, 0.1]], [[0.1, 0.1], [0.3, 0.2]], [[0.2, 0.1], [0.1, 0.2]]
        )
        cls = classify(m)
        sol = solve_all(m, cls)
        pd = complete_perron_data(perron_data(m, cls), sol)
        q = build_transform(m, cls, pd, "right").q
        w_r = sol.w - cls.xi_n * q @ sol.w @ sol.r
        rhat_r = np.linalg.solve(w_r, (sol.g - cls.xi_n * q) @ w_r)
        system = np.vstack([pd.v_r, pd.v_r @ rhat_r])
        for off, admissible in ((1e-10, False), (1e-6, True)):
            w_bad = np.linalg.solve(system, np.array([1.0, cls.xi_n1 * (1.0 - off)]))
            t = build_transform(m, cls, pd, "double", w=w_bad)
            if admissible:  # ill-conditioned (||Ghat_s|| ~ 1e6), not refused
                assert shifted_hats_nonnull(sol, t).w is not None
            else:
                with pytest.raises(ValueError, match="inadmissible w.*0.9999999999"):
                    shifted_hats_nonnull(sol, t)

    def test_solves_shifted_hat_equations(self, small_bank):
        for kind in ("positive", "transient"):
            for m, cls in small_bank[kind][:2]:
                sol = solve_all(m, cls)
                pd = complete_perron_data(perron_data(m, cls), sol)
                for kind in ("right", "left"):
                    t = build_transform(m, cls, pd, kind)
                    hats = shifted_hats_nonnull(sol, t)
                    assert hats.residuals["Ghat_s"] <= 1e-10
                    assert hats.residuals["Rhat_s"] <= 1e-10


class TestRoundTripsAndSurgery:
    def test_root_surgery_all_kinds(self, small_bank):
        for rows in small_bank.values():
            for m, cls in rows[:2]:
                pd = perron_data(m, cls)
                base = oracles.qz_roots(m)
                for kind in ShiftKind:
                    t = build_transform(m, cls, pd, kind)
                    expected = oracles.surgery_expected(base, t)
                    got = oracles.qz_roots(t.shifted)
                    assert oracles.multiset_distance(got, expected) <= 1e-7, (
                        cls.kind, kind)

    def test_round_trip_equals_direct(self, small_bank):
        for kind_name in ("positive", "transient"):
            for m, cls in small_bank[kind_name][:2]:
                direct = solve_all(m, cls)
                for kind in ShiftKind:
                    route = solve_kind(m, cls, kind)
                    np.testing.assert_allclose(route.g, direct.g, atol=1e-8)
                    np.testing.assert_allclose(route.r, direct.r, atol=1e-8)

    def test_round_trip_null_satisfies_original(self, small_bank):
        for m, cls in small_bank["null"][:3]:
            route = solve_kind(m, cls, ShiftKind.DOUBLE)
            bm, b0, bp = m.a_minus, m.b_zero(), m.a_plus
            assert solvers.residual_g(bm, b0, bp, route.g) <= 1e-12
            assert solvers.residual_r(bm, b0, bp, route.r) <= 1e-12

    def test_double_shift_restores_canonical_gap(self, small_bank):
        for m, cls in small_bank["null"][:3]:
            route = solve_kind(m, cls, ShiftKind.DOUBLE)
            assert kernel.spectral_radius(route.cr.g) < 1.0 - 1e-6
            sh = route.transform.shifted
            r_s, _ = solvers.derive_r_k(sh.b_zero(), sh.a_plus, route.cr.g)
            assert kernel.spectral_radius(r_s) < 1.0 - 1e-6


class TestOneInversePerRoute:
    def test_dh_inverse_inverts_k_s(self, small_bank):
        # R_s reads K_s^-1 from the cyclic reduction's Dh^-1: on every route
        # of a certified solve, and the reversed model's, Dh^-1 inverts
        # K_s = B_0 + B_1 G_s to round-off
        for rows in small_bank.values():
            for model, cls in rows:
                sol = reference_solution(model, cls)
                pd = complete_perron_data(perron_data(model, cls), sol)
                rev = model.reversed()
                routes = [*shift_routes(model, cls, pd)[1].values(),
                          solve_via(rev, matched_transform(rev, cls.reversed()))]
                eye = np.eye(model.n)
                for route in routes:
                    sh = route.transform.shifted
                    k_s = sh.b_zero() + sh.a_plus @ route.cr.g
                    assert kernel.inf_norm(eye - route.cr.dh_inv @ k_s) <= 1e-13


class TestReferenceSolution:
    def test_n2_matches_exact_closed_form(self, n2):
        sol = reference_solution(n2)
        exact = oracles.exact_n2_g()
        np.testing.assert_allclose(sol.g, exact, atol=1e-12)
        # full symmetry of N2: all four minimal solutions coincide
        np.testing.assert_allclose(sol.r, exact, atol=1e-12)
        np.testing.assert_allclose(sol.ghat, exact, atol=1e-12)
        np.testing.assert_allclose(sol.rhat, exact, atol=1e-12)

    def test_direct_null_solve_is_less_accurate(self, n2):
        direct = solve_all(n2)
        exact = oracles.exact_n2_g()
        direct_err = np.max(np.abs(direct.g - exact))
        ref_err = np.max(np.abs(reference_solution(n2).g - exact))
        assert ref_err <= 1e-12 < direct_err

    def test_non_null_uses_direct(self, e2):
        # off null recurrence the certified set takes the right shift pair
        # too, and W exists
        ref = reference_solution(e2)
        assert ref.route == "right"
        assert ref.w is not None

    @pytest.mark.parametrize("n", [4, 32])
    @pytest.mark.parametrize("kind", ["positive", "null", "transient"])
    def test_residuals_are_the_routes(self, kind, n):
        # the set's residuals are the ones the two routes evaluated on
        # recovery, and the eq:* certificates evaluate theirs again with the
        # same function on the same blocks and matrix: equal bit for bit
        model, _ = cli.generate(kind, n, 1)
        cls = classify(model)
        sol = reference_solution(model, cls)
        rev_model = model.reversed()
        rev = solve_via(rev_model, matched_transform(rev_model, cls.reversed()))
        assert sol.residuals["G"] == cls.matched.residuals["G"]
        assert sol.residuals["R"] == cls.matched.residuals["R"]
        assert sol.residuals["Ghat"] == rev.residuals["G"]
        assert sol.residuals["Rhat"] == rev.residuals["R"]
        pd = complete_perron_data(perron_data(model, cls), sol)
        certs = check_identity_suite(model, cls, sol, pd, transforms_of(model, cls, pd))
        eq = {c.name[3:]: c.residual for c in certs if c.name.startswith("eq:")}
        assert eq == sol.residuals

    # 2 eps: the shift pair's largest entry error over G, R, Ghat and Rhat
    # on these models is at most eps (2.2e-16); the direct solve misses by
    # 1.7e-15 to 6.7e-15 at gamma 0.01, by 7.2e-16 at gamma 2 (seed 0) and
    # by 1.8e-12 to 3.5e-12 at gamma 1e-5
    FORWARD_ERROR_BOUND = 2 * np.finfo(float).eps

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("kind, gamma", [
        ("positive", 2.0), ("positive", 0.01), ("positive", 1e-5),
        ("transient", 2.0), ("transient", 0.01), ("transient", 1e-5), ("null", 0.5),
    ])
    def test_forward_error_against_mp_oracle(self, kind, gamma, seed):
        model, _ = cli.generate(kind, 4, seed, gamma=gamma)
        sol = reference_solution(model, classify(model))
        want = oracles.minimal_solutions_mp(model)
        for name, got in (("G", sol.g), ("R", sol.r), ("Ghat", sol.ghat),
                          ("Rhat", sol.rhat)):
            err = float(np.max(np.abs(got - want[name])))
            assert err <= self.FORWARD_ERROR_BOUND, (name, err)

    @pytest.mark.parametrize("kind, gamma", [
        ("null", 0.5), ("positive", 1e-4), ("transient", 1e-4), ("positive", 0.5),
        ("transient", 0.5),
    ])
    def test_solution_path_solves_matched_shift_once(self, monkeypatch, kind, gamma):
        # reference_solution(model, classify(model)): no eigensolve at null
        # recurrence, otherwise one class-matched forward solve, which
        # classify makes and the reference reuses; no
        # Perron data, since the matched shifts of the model and of its
        # reversal read only e and theta at the unit root
        from qbdshift import model as model_mod, shift

        eigensolves, forward, perron_calls = [], [], []
        model, _ = cli.generate(kind, 4, seed=3, gamma=gamma)

        def counted(real):
            def eigensolve(a):
                eigensolves.append(a.shape)
                return real(a)
            return eigensolve

        def via(m, *args, real=shift.solve_via, **kwargs):
            route = real(m, *args, **kwargs)
            if m is model:
                forward.append(route.transform.kind)
            return route

        monkeypatch.setattr(np.linalg, "eigvals", counted(np.linalg.eigvals))
        monkeypatch.setattr(np.linalg, "eig", counted(np.linalg.eig))
        monkeypatch.setattr(shift, "solve_via", via)
        monkeypatch.setattr(model_mod, "perron_data", lambda *a: perron_calls.append(a))
        reference_solution(model, classify(model))
        assert not perron_calls
        if kind == "null":
            assert not eigensolves
            assert forward == [ShiftKind.DOUBLE]
        else:
            assert forward == [ShiftKind.RIGHT if kind == "positive" else ShiftKind.LEFT]

    @pytest.mark.parametrize("kind, gamma", [
        ("null", 0.5), ("positive", 1e-4), ("transient", 1e-4), ("positive", 0.5),
    ])
    def test_r_derived_once_per_solve(self, monkeypatch, kind, gamma):
        # each route's solve derives its own R, and the reference's K and
        # Khat are formed directly: one derivation, the reversed solve's,
        # since the forward route is the one classify solved
        calls = []
        real = solvers.derive_r_k

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        model, _ = cli.generate(kind, 4, seed=3, gamma=gamma)
        cls = classify(model)
        monkeypatch.setattr(solvers, "derive_r_k", counting)
        sol = reference_solution(model, cls)
        assert len(calls) == 1
        b0 = model.b_zero()
        np.testing.assert_array_equal(sol.k, b0 + model.a_plus @ sol.g)
        np.testing.assert_array_equal(sol.khat, b0 + model.a_minus @ sol.ghat)


class TestShiftedSolutionsAggregate:
    """One hat result type for every transport: the closed forms at null
    recurrence carry the compact Khat, the W conjugation carries W_s."""

    def test_null_has_full_hat_side(self, n2):
        cls = classify(n2)
        sol = reference_solution(n2, cls)
        pd = complete_perron_data(perron_data(n2, cls), sol)
        t = build_transform(n2, cls, pd, "double")
        hats = shifted_hats_nullrec(sol, pd, t)
        assert hats.ghat is not None and hats.khat_rank_one is not None
        assert hats.w is None  # null recurrence: transported by closed form
        assert max(hats.residuals.values()) <= 1e-10

    def test_nonnull_right_carries_w(self, e2):
        cls = classify(e2)
        sol = solve_all(e2, cls)
        pd = complete_perron_data(perron_data(e2, cls), sol)
        t = build_transform(e2, cls, pd, "right")
        hats = shifted_hats_nonnull(sol, t)
        assert hats.w is not None and hats.khat_rank_one is None
        assert max(hats.residuals.values()) <= 1e-10


class TestFactorizationStrength:
    # canonical: both factor spectral radii below one; weak: one on it
    def test_base_factorizations_are_weak(self, e2, t1, n2):
        # a unit root always sits on one side for a stochastic triple
        for m in (e2, t1, n2):
            cls = classify(m)
            sol = reference_solution(m, cls)
            radius = max(kernel.spectral_radius(sol.r), kernel.spectral_radius(sol.g))
            assert radius == pytest.approx(1.0, abs=1e-9)

    def test_class_matched_shift_restores_canonical(self, e2, t1, n2):
        for m, kind in ((e2, "right"), (t1, "left"), (n2, "double")):
            cls = classify(m)
            sol = reference_solution(m, cls)
            pd = complete_perron_data(perron_data(m, cls), sol)
            t = build_transform(m, cls, pd, kind)
            g_s, r_s, _ = shifted_gr(sol, t)
            radius = max(kernel.spectral_radius(r_s), kernel.spectral_radius(g_s))
            assert radius < 1.0 - 1e-9, kind
