import dataclasses

import numpy as np
import pytest

import oracles
from conftest import transforms_of
from oracles import solve_all
from phase_partition import phase_partition
from qbdshift import (
    Kind,
    QbdTriple,
    ShiftKind,
    build_transform,
    check_identity_suite,
    check_mmatrix,
    classify,
    complete_perron_data,
    perron_data,
    reference_solution,
    shift_routes,
    validate,
)
from qbdshift import verify


def solved(model):
    cls = classify(model)
    sol = reference_solution(model, cls)
    pd = complete_perron_data(perron_data(model, cls), sol)
    return cls, sol, pd


def full_suite(model):
    """The suite as a certified solve runs it: every shift kind on its
    transform from the completed Perron data, with its route (classify's
    for the class-matched kind), round trips included."""
    cls, sol, pd = solved(model)
    transforms, routes = shift_routes(model, cls, pd)
    return check_identity_suite(model, cls, sol, pd, transforms, routes)


class TestMMatrix:
    def test_scalar_pass(self):
        assert check_mmatrix(np.array([[0.5]])).passed

    def test_identity_pass(self):
        assert check_mmatrix(np.eye(3)).passed

    def test_inverse_positivity_violated(self):
        # Z-pattern holds but the inverse -(1/3) [[1, 2], [2, 1]] is negative
        cert = check_mmatrix(np.array([[1.0, -2.0], [-2.0, 1.0]]))
        assert cert.status == "fail"

    def test_positive_offdiagonal_fails(self):
        assert check_mmatrix(np.array([[1.0, 0.5], [0.0, 1.0]])).status == "fail"

    def test_singular_fails(self):
        cert = check_mmatrix(np.zeros((2, 2)))
        assert cert.status == "fail"
        assert cert.residual == float("inf")


def sign_certs(m, cls, sol, pd):
    """The suite's two sign certificates, forward and hat, by name."""
    by_name = {c.name: c for c in
               check_identity_suite(m, cls, sol, pd, transforms_of(m, cls, pd))}
    return by_name["sign:v_G.K^-1.u_R"], by_name["sign:v_Ghat.Khat^-1.u_Rhat"]


class TestSignProperty:
    def test_p1_value(self, p1):
        c1, c2 = sign_certs(p1, *solved(p1))
        assert c1.passed and c2.passed
        assert c1.residual == pytest.approx(-2.0, abs=1e-10)

    def test_n1_value(self, n1):
        c1, c2 = sign_certs(n1, *solved(n1))
        assert c1.residual == pytest.approx(-2.5, abs=1e-9)
        assert c2.residual == pytest.approx(-2.5, abs=1e-9)

    def test_sweep_passes(self, small_bank):
        for rows in small_bank.values():
            for m, cls in rows:
                sol = reference_solution(m, cls)
                pd = complete_perron_data(perron_data(m, cls), sol)
                for cert in sign_certs(m, cls, sol, pd):
                    assert cert.passed, cert

    def test_suite_needs_the_solution_side_vectors(self, p1):
        cls, sol, _ = solved(p1)
        pd = perron_data(p1, cls)
        with pytest.raises(ValueError, match="solution-side Perron vectors missing"):
            check_identity_suite(p1, cls, sol, pd, transforms_of(p1, cls, pd))


class TestPhasePartition:
    def test_scalar_blocks_coincide(self, p1):
        cls, sol, pd = solved(p1)
        part = phase_partition(sol, pd)
        assert part.s1 == frozenset({0}) == part.sa
        assert part.s1_tilde == frozenset()
        assert part.sb_tilde == frozenset()

    def test_e2_table_holds(self, e2):
        cls, sol, pd = solved(e2)
        part = phase_partition(sol, pd)
        assert part.s1 and part.sa
        assert part.s1 | part.s1_tilde | part.sb_tilde | part.sa == frozenset({0, 1})

    def test_blocked_instance_has_nontrivial_s1_tilde(self):
        # phase 1 never moves up (zero row of A_1): R is reducible with
        # s1 = {0}, while phase 1 still reaches phase 0 inside a level,
        # so w = -K^-1 u_R picks up support there
        m = validate(
            [[0.3, 0.0], [0.2, 0.2]],
            [[0.2, 0.2], [0.3, 0.3]],
            [[0.3, 0.0], [0.0, 0.0]],
        )
        cls, sol, pd = solved(m)
        part = phase_partition(sol, pd)
        assert part.s1 == frozenset({0})
        assert part.s1_tilde == frozenset({1})
        assert 1 not in part.s1

    def test_violated_table_raises(self, e2):
        cls, sol, pd = solved(e2)
        doctored = dataclasses.replace(pd, u_r=np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="support"):
            phase_partition(sol, doctored)

    def test_sweep_no_violations(self, small_bank):
        for rows in small_bank.values():
            for m, cls in rows:
                sol = reference_solution(m, cls)
                pd = complete_perron_data(perron_data(m, cls), sol)
                part = phase_partition(sol, pd)
                assert part.s1 and part.sa


class TestIdentitySuite:
    def test_p1_all_pass(self, p1):
        certs = full_suite(p1)
        failed = [c for c in certs if c.status == "fail"]
        assert not failed, failed
        assert sum(c.name.endswith(":roundtrip") for c in certs) == 3
        # every kind transports its hats off null recurrence
        na = [c.name for c in certs if c.status == "n/a"]
        assert na == []

    def test_n1_passes_with_info_discrepancy(self, n1):
        certs = full_suite(n1)
        assert not [c for c in certs if c.status == "fail"]
        infos = [c for c in certs if c.status == "info"]
        assert len(infos) == 1
        assert infos[0].name == "double:id:Khat_d-compact"
        assert infos[0].residual == pytest.approx(0.4, abs=1e-10)
        # W machinery is not applicable at null recurrence
        assert sum(c.status == "n/a" for c in certs) == 4

    def test_corrupted_g_fails_multiple_certificates(self, e2):
        cls = classify(e2)
        sol = solve_all(e2, cls)
        broken = dataclasses.replace(sol, fwd=dataclasses.replace(sol.fwd, g=sol.g + 0.01))
        pd = complete_perron_data(perron_data(e2, cls), broken)
        certs = check_identity_suite(e2, cls, broken, pd, transforms_of(e2, cls, pd))
        assert sum(c.status == "fail" for c in certs) >= 3

    def test_certificates_deterministic(self, t1):
        first = full_suite(t1)
        second = full_suite(t1)
        assert [(c.name, c.residual) for c in first] == [
            (c.name, c.residual) for c in second
        ]

    def test_pass_iff_residual_within_tolerance(self, e2):
        for cert in full_suite(e2):
            if cert.status in ("pass", "fail"):
                assert (cert.residual <= cert.tolerance) == (cert.status == "pass")

    def test_serializes(self, p1):
        cls, sol, pd = solved(p1)
        cert = check_identity_suite(p1, cls, sol, pd, transforms_of(p1, cls, pd))[0]
        payload = cert.to_dict()
        assert set(payload) == {"name", "residual", "tolerance", "status", "context"}

    @pytest.mark.parametrize("residual", [float("inf"), float("nan")])
    def test_non_finite_residual_serializes_as_null(self, residual):
        # JSON has no infinity or NaN: the dict holds null, the certificate
        # its value
        cert = verify.Certificate("mmatrix:K", residual, 1e-12, "fail", "numerically singular")
        assert cert.to_dict()["residual"] is None
        assert cert.residual is residual
        assert verify.Certificate("x", 0.0, 1.0, "pass").to_dict()["residual"] == 0.0


class TestPatternedInstances:
    """Structural zero rows/columns make R and G reducible with defective
    zero clusters; the replacement certificates must stay conclusive."""

    @staticmethod
    def patterned(seed, n=5):
        rng = np.random.default_rng(seed)
        x_m = rng.uniform(0.1, 1.0, (n, n)) * 2.0
        x_0 = rng.uniform(0.1, 1.0, (n, n))
        x_p = rng.uniform(0.1, 1.0, (n, n))
        x_p[rng.choice(n, size=2, replace=False), :] = 0.0   # up-dead phases
        x_m[:, rng.choice(n, size=2, replace=False)] = 0.0   # down-unreachable
        for i in range(n):
            x_0[i, (i + 1) % n] += 1e-3
        s = (x_m + x_0 + x_p).sum(axis=1)[:, None]
        return validate(x_m / s, x_0 / s, x_p / s)

    @pytest.mark.parametrize("seed", [3, 17, 29])
    def test_full_suite_green(self, seed):
        certs = full_suite(self.patterned(seed))
        assert not [c for c in certs if c.status == "fail"], [
            (c.name, c.residual) for c in certs if c.status == "fail"
        ]

    @staticmethod
    def null_patterned(seed, n=5):
        """Null recurrent (A_1 = A_-1) with two level-frozen phases and a
        column no level change enters: the shift-recovered G and R carry
        round-off negatives at their structural zeros."""
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.1, 1.0, (n, n))
        x[rng.choice(n, size=2, replace=False), :] = 0.0
        x[:, rng.choice(n, size=1, replace=False)] = 0.0
        x_0 = rng.uniform(0.1, 1.0, (n, n)) * (rng.uniform(size=(n, n)) < 0.5)
        for i in range(n):
            x_0[i, (i + 1) % n] += 1e-3
        s = (2 * x + x_0).sum(axis=1)[:, None]
        return validate(x / s, x_0 / s, x / s)

    @pytest.mark.parametrize("seed", [0, 5, 10, 17])
    def test_null_full_suite_green(self, seed):
        model = self.null_patterned(seed)
        assert classify(model).kind is Kind.NULL_RECURRENT
        certs = full_suite(model)
        assert not [c for c in certs if c.status == "fail"], [
            (c.name, c.residual) for c in certs if c.status == "fail"
        ]

    @pytest.mark.parametrize("seed", [3, 5, 7, 11, 17])
    def test_null_root_certificates_exact(self, seed):
        # the tiling certificate compares characteristic polynomials and the
        # surgery reads eigenpair and projector residuals: a double unit
        # root makes neither ill-conditioned
        certs = {c.name: c for c in full_suite(self.null_patterned(seed))}
        names = ["spec:eig(G)+1/eig(R)=roots(B)",
                 *(f"{kind.value}:roots-surgery" for kind in ShiftKind)]
        assert {name: certs[name].residual for name in names if certs[name].residual > 1e-12} == {}

    def test_partition_shows_structure(self):
        m = self.patterned(17)
        cls = classify(m)
        sol = reference_solution(m, cls)
        pd = complete_perron_data(perron_data(m, cls), sol)
        part = phase_partition(sol, pd)
        assert part.s1_tilde  # w picks up support beyond R's block
        assert part.sa & (part.s1 | part.s1_tilde)


class TestSurgeryFromSpectra:
    """Root surgery read from Brauer's hypotheses against a QZ
    factorization of the shifted companion pencil
    (oracles.qz_surgery_distance): the same verdict on every patterned
    model, whose defective zero clusters are the hardest case for QZ."""

    @pytest.mark.parametrize("family, seed", [
        *(("patterned", seed) for seed in range(3, 42)),
        *(("null_patterned", seed) for seed in range(30)),
    ])
    def test_status_matches_qz(self, family, seed):
        model = getattr(TestPatternedInstances, family)(seed)
        cls, _, pd = solved(model)
        certs = {c.name: c for c in full_suite(model)}
        for kind in ShiftKind:
            qz = oracles.qz_surgery_distance(model, build_transform(model, cls, pd, kind))
            cert = certs[f"{kind.value}:roots-surgery"]
            assert cert.passed == (qz <= verify.ROOT_MATCH_TOL), (kind, qz, cert.residual)


class TestSpectrumReplacement:
    """The replacement claim eig(M - root P) = eig(M) with root -> 0, read
    from Brauer's hypotheses (verify._projector_defect and
    verify._eigenpair_residual), against the characteristic polynomials of
    both matrices by one LU determinant per point
    (oracles.det_replacement_residual). The hypotheses are sufficient:
    where they hold, so does the claim."""

    @staticmethod
    def residuals(m, u, root, p):
        """(the hypothesis residual, the oracle's residual) of M - root P.
        Two monic polynomials of degree n + 1 that agree at n + 2 points are
        equal: the oracle takes n + 2 points of the 1.37 circle, which no
        removed root here reaches."""
        n = m.shape[0]
        points = 1.37 * np.exp(2j * np.pi * (np.arange(n + 2) + 0.5) / (n + 2))
        hypotheses = max(verify._projector_defect(p), verify._eigenpair_residual(m, u, root, p))
        return hypotheses, oracles.det_replacement_residual(m - root * p, m, root, points)

    @staticmethod
    def rank_one_pair(seed, n, nilpotent):
        """(M, u, rho, w) for a random nonnegative M with Perron pair (rho,
        u) and w^T u = 1; `nilpotent` phases only feed each other in a
        chain, a defective zero cluster of that size."""
        rng = np.random.default_rng(seed)
        m = rng.uniform(0.0, 1.0, (n, n)) / n
        chain = rng.choice(n, size=nilpotent, replace=False)
        m[chain, :] = 0.0
        m[chain[:-1], chain[1:]] = 0.5
        vals, vecs = np.linalg.eig(m)
        top = int(np.argmax(vals.real))
        rho, u = vals[top].real, vecs[:, top].real
        v = rng.uniform(0.1, 1.0, n)
        return m, u, rho, v / (v @ u)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_matches_oracle(self, seed):
        n, nilpotent = (3, 6, 12)[seed % 3], (1, 3, 5)[seed % 3]
        m, u, rho, w = self.rank_one_pair(seed, n, nilpotent)
        hypotheses, oracle = self.residuals(m, u, rho, np.outer(u, w))
        assert hypotheses <= verify.DET_RTOL and oracle <= verify.DET_RTOL
        # four faults of size 1e-6, each seen by one term of the hypotheses:
        # u off in one entry with its projector paired to it (eigenpair),
        # the projector built from that vector (range), the projector
        # scaled (trace), and a term y z^T with z orthogonal to u and y
        # (idempotence). The spectrum moves by 2e-9 to 1.2e-7 at the
        # oracle's points, below DET_RTOL on some seeds: the hypotheses
        # read 3e-7 to 3e-6
        bent = u.copy()
        bent[0] += 1e-6 * np.max(np.abs(u))
        y, z = np.random.default_rng(seed).standard_normal((2, len(u)))
        basis = np.linalg.qr(np.column_stack([u, y]))[0]
        z -= basis @ (basis.T @ z)
        extra = 1e-6 * np.outer(y, z) / (np.max(np.abs(y)) * np.max(np.abs(z)))
        faults = [(bent, np.outer(bent, w) / (w @ bent)), (u, np.outer(bent, w) / (w @ bent)),
                  (u, (1.0 + 1e-6) * np.outer(u, w)), (u, np.outer(u, w) + extra)]
        for vec, proj in faults:
            hypotheses, oracle = self.residuals(m, vec, rho, proj)
            assert hypotheses > verify.DET_RTOL and oracle > 1e-9
        # a rank-two projector that keeps u (y orthogonal to w, z to u, z^T
        # y = 1): idempotent, so only the trace term sees it
        y -= (w @ y) / (w @ w) * w
        z = np.random.default_rng(seed + 1).standard_normal(len(u))
        z -= (u @ z) / (u @ u) * u
        proj = np.outer(u, w) + np.outer(y, z / (z @ y))
        hypotheses, oracle = self.residuals(m, u, rho, proj)
        assert verify._projector_defect(proj) == pytest.approx(1.0)
        assert hypotheses > verify.DET_RTOL and oracle > verify.DET_RTOL

    @pytest.mark.parametrize("seed", [3, 17, 29])
    def test_patterned_shifts_match_oracle(self, seed):
        # the G_s and R_s claims of every kind, R_s through its transpose
        m = TestPatternedInstances.patterned(seed)
        cls, sol, pd = solved(m)
        for kind in ShiftKind:
            transform = build_transform(m, cls, pd, kind)
            certs = {c.name: c for c in verify._transform_certs(m, cls, sol, pd, transform, None)}
            claims = []
            if transform.q is not None:
                claims.append(("G", sol.g, transform.u_g, transform.xi_n, transform.q))
            if transform.s is not None:
                claims.append(("R", sol.r.T, transform.v_r, 1.0 / transform.xi_n1,
                               transform.s.T))
            for name, mat, u, root, p in claims:
                hypotheses, oracle = self.residuals(mat, u, root, p)
                cert = certs[f"{kind.value}:spec:{name}_s-replacement"]
                assert cert.residual == hypotheses and cert.passed
                assert oracle <= verify.DET_RTOL
                hypotheses, oracle = self.residuals(mat, u, root, (1.0 + 1e-6) * p)
                assert hypotheses > verify.DET_RTOL and oracle > verify.DET_RTOL


class TestDetIdentity:
    """det-identity reads the coefficients of the matrix identity behind
    det B_s(z) = c(z) det B(z); one LU determinant of each pencil at
    the root-check points must give the same verdict."""

    @staticmethod
    def pointwise_gap(model, transform):
        """Largest relative gap of det B_s(z) (z - xi_n) = z det B(z)
        (right), det B_s(z) (z - xi_{n+1}) = -xi_{n+1} det B(z) (left) or
        their product (double) at verify.ROOT_POINTS."""
        worst = 0.0
        for z in verify.ROOT_POINTS:
            lhs, factor = np.linalg.det(transform.shifted.b_of(z)), 1.0
            if transform.q is not None:
                lhs, factor = lhs * (z - transform.xi_n), z
            if transform.s is not None:
                lhs, factor = lhs * (z - transform.xi_n1), -transform.xi_n1 * factor
            rhs = factor * np.linalg.det(model.b_of(z))
            worst = max(worst, abs(lhs - rhs) / (abs(lhs) + abs(rhs)))
        return worst

    @pytest.mark.parametrize("family, seed", [("patterned", 3), ("patterned", 17),
                                              ("null_patterned", 5)])
    def test_matches_pointwise_determinants(self, family, seed):
        model = getattr(TestPatternedInstances, family)(seed)
        cls, sol, pd = solved(model)
        for kind in ShiftKind:
            transform = build_transform(model, cls, pd, kind)
            cert = verify._det_identity_cert(model, transform, 0.0, ())
            assert cert.passed and self.pointwise_gap(model, transform) <= verify.DET_RTOL
            # the shifted A_0 without its moved-root term
            sh = transform.shifted
            a_zero = sh.a_zero - (transform.xi_n * model.a_plus @ transform.q
                                  if transform.q is not None
                                  else transform.s @ model.a_minus / transform.xi_n1)
            broken = dataclasses.replace(
                transform, shifted=QbdTriple(model.n, sh.a_minus, a_zero, sh.a_plus))
            cert = verify._det_identity_cert(model, broken, 0.0, ())
            assert not cert.passed and self.pointwise_gap(model, broken) > verify.DET_RTOL


def test_root_points_are_distinct_and_off_the_real_axis():
    # xi_n and xi_{n+1} are real: no point needs skipping, and no two are
    # conjugate, so the DET_POINT_COUNT determinants read distinct values
    points = np.array(verify.ROOT_POINTS)
    assert all(type(z) is complex for z in verify.ROOT_POINTS)
    assert len(set(verify.ROOT_POINTS)) == len(points) == verify.DET_POINT_COUNT
    assert np.allclose(np.abs(points), 1.37, rtol=0.0, atol=1e-15)
    assert np.all(points.imag >= 0.25)


class TestNearNullRecurrent:
    """Almost-coalescent splitting roots: the reference route keeps the
    suite green, with conditioning-aware tolerances and honest n/a when
    the W transport runs out of verifiable digits."""

    @pytest.mark.parametrize("gamma", [1e-3, 1e-4, 1e-5])
    def test_suite_green(self, gamma):
        from qbdshift import cli

        m, _ = cli.generate("positive", 4, seed=1, gamma=gamma)
        certs = full_suite(m)
        fails = [(c.name, c.residual) for c in certs if c.status == "fail"]
        assert not fails, fails

    def test_extreme_gap_reports_na_not_failure(self):
        from qbdshift import cli

        m, _ = cli.generate("positive", 4, seed=0, gamma=1e-7)
        certs = full_suite(m)
        assert not [c for c in certs if c.status == "fail"]
        exhausted = [c for c in certs if c.status == "n/a" and "conditioning" in c.context]
        assert exhausted  # W transport has no verifiable digits here

    def test_reference_uses_shift_route_near_null(self):
        from qbdshift import cli, reference_solution
        import numpy as np

        m, _ = cli.generate("positive", 4, seed=2, gamma=1e-6)
        cls = classify(m)
        ref = reference_solution(m, cls)
        direct = solve_all(m, cls, max_iter=128)
        # the recovered G rides the well-conditioned shifted problem:
        # its unit row sums certify forward accuracy (G stochastic)
        ref_defect = np.max(np.abs(ref.g.sum(axis=1) - 1.0))
        direct_defect = np.max(np.abs(direct.g.sum(axis=1) - 1.0))
        assert ref_defect <= 1e-12
        assert direct_defect > 10 * ref_defect


class TestCertificateNames:
    """The certificates a report lists depend on the class alone: whichever
    guard stops a hat transport (inadmissible vector, exhausted
    conditioning, the non-null double shift), its names stay, n/a."""

    @pytest.mark.parametrize("kind", ["positive", "transient"])
    def test_names_depend_only_on_class(self, kind):
        from qbdshift import cli, kernel

        names, na_counts = {}, set()
        for n in (4, 8):
            for seed in (0, 1):
                for gamma in (0.5, 1e-6, 1e-7, 1e-8):
                    m, meta = cli.generate(kind, n, seed, gamma=gamma)
                    try:
                        report = cli.solve_report(m, meta)
                    except kernel.ConvergenceError:
                        continue  # the W series diverges: exit 4, no report
                    key = tuple(c["name"] for c in report["certificates"])
                    names.setdefault(key, []).append((n, seed, gamma))
                    na_counts.add(report["certificate_summary"]["n/a"])
        assert len(names) == 1, list(names.values())
        # some transports pass and some stop: the names held across both
        assert len(na_counts) > 1

    # each claim of one side with its twin on the other, as reports name
    # them: a typo in verify.HAT_NAMES fails here
    SIDE_CLAIMS = [
        ("eq:G", "eq:Ghat"), ("eq:R", "eq:Rhat"), ("id:K-forms", "id:Khat-forms"),
        ("id:A1=-RK", "id:A-1=-Rhat.Khat"), ("id:A-1=-KG", "id:A1=-Khat.Ghat"),
        ("id:A1.G=R.A-1", "id:A-1.Ghat=Rhat.A1"), ("mmatrix:-K", "mmatrix:-Khat"),
        ("sign:v_G.K^-1.u_R", "sign:v_Ghat.Khat^-1.u_Rhat"),
        ("factor:phi", "factor:phi-reversed"),
    ]

    @pytest.mark.parametrize("kind", ["positive", "null", "transient"])
    def test_side_claims_keep_their_names(self, kind):
        # the forward claims, then their hat twins in the same order
        from qbdshift import cli

        m, meta = cli.generate(kind, 4, 1)
        names = [c["name"] for c in cli.solve_report(m, meta)["certificates"]]
        side = [n for n in names
                if not n.startswith(("spec:", "W:", "right:", "left:", "double:"))]
        assert side == [f for f, _ in self.SIDE_CLAIMS] + [h for _, h in self.SIDE_CLAIMS]


def test_null_spectral_certs_keep_strict_tolerance(n1):
    # the conditioning-aware scaling must not weaken exactly-null
    # instances, whose shift points are exact
    certs = {c.name: c for c in full_suite(n1)}
    for name in ("spec:rho(G)=xi_n", "spec:1/rho(R)=xi_n1",
                 "spec:rho(G)=rho(Rhat)", "spec:rho(R)=rho(Ghat)"):
        assert certs[name].tolerance == 1e-8
        assert certs[name].passed
