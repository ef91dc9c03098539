"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The instance bank is 200 seeded instances per class (50 seeds for each
n in {2, 4, 8, 16}); heavier spectral checks run on a per-class subset.
"""

import numpy as np
import pytest

import oracles
from conftest import make_bank, solve_kind, transforms_of
from oracles import solve_all
from phase_partition import phase_partition
from qbdshift import (
    check_identity_suite,
    classify,
    complete_perron_data,
    kernel,
    matpoly,
    perron_data,
    reference_solution,
    shifted_hats_nullrec,
)
from qbdshift import cli, shift as shift_mod, solvers


def _criterion(capsys, num, ok, detail):
    # bypass capture so the line lands in plain `pytest -v` output
    with capsys.disabled():
        print(f"\n[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def bank():
    return make_bank(sizes=(2, 4, 8, 16), seeds_per_size=50)


@pytest.fixture(scope="module")
def direct_solutions(bank):
    out = {}
    for kind, rows in bank.items():
        out[kind] = [(m, cls, solve_all(m, cls)) for m, cls in rows]
    return out


@pytest.fixture(scope="module")
def subset(bank):
    """Two instances per (class, n <= 8) for the spectral-oracle checks."""
    picked = {}
    for kind, rows in bank.items():
        chosen = []
        for n in (2, 4, 8):
            chosen.extend([(m, cls) for m, cls in rows if m.n == n][:2])
        picked[kind] = chosen
    return picked


@pytest.fixture(scope="module")
def subset_suites(subset):
    out = {}
    for kind, rows in subset.items():
        out[kind] = []
        for m, cls in rows:
            sol = reference_solution(m, cls)
            pd = complete_perron_data(perron_data(m, cls), sol)
            out[kind].append((m, cls, check_identity_suite(
                m, cls, sol, pd, transforms_of(m, cls, pd))))
    return out


def test_criterion_1_scalar_ground_truth(capsys, p1, n1, t1):
    worst = 0.0
    for model, blocks, null in ((p1, oracles.P1, False), (n1, oracles.N1, True),
                                (t1, oracles.T1, False)):
        expected = oracles.scalar_solutions(*blocks)
        sol = reference_solution(model) if null else solve_all(model)
        pairs = [
            (sol.g, expected["g"]), (sol.r, expected["r"]),
            (sol.ghat, expected["ghat"]), (sol.rhat, expected["rhat"]),
            (sol.k, expected["k"]), (sol.khat, expected["khat"]),
        ]
        if not null:
            pairs.append((sol.w, expected["w"]))
        worst = max(worst, max(abs(float(a[0, 0]) - b) for a, b in pairs))
    _criterion(capsys, 1, worst <= 1e-12, f"max deviation from closed forms {worst:.2e} (tol 1e-12)")


def test_criterion_2_equation_residuals(capsys, direct_solutions):
    worst = 0.0
    count = 0
    for rows in direct_solutions.values():
        for _, _, sol in rows:
            worst = max(worst, max(sol.residuals.values()))
            count += 1
    _criterion(
        capsys, 2, worst <= 1e-11,
        f"four-equation residuals on {count} direct solves: worst {worst:.2e} (tol 1e-11)",
    )


def test_criterion_3_root_surgery(capsys, subset_suites):
    worst = 0.0
    seen = set()
    count = 0
    for kind, rows in subset_suites.items():
        for _, _, certs in rows:
            for cert in certs:
                if cert.name.endswith(":roots-surgery"):
                    seen.add(cert.name.split(":")[0])
                    worst = max(worst, cert.residual)
                    count += 1
    ok = worst <= 1e-7 and seen == {"right", "left", "double"}
    _criterion(capsys, 3, ok, f"{count} surgery checks across kinds {sorted(seen)}: worst {worst:.2e} (tol 1e-7)")


def test_criterion_4_factorization_certificates(capsys, subset_suites):
    worst = 0.0
    count = na = 0
    for rows in subset_suites.values():
        for _, _, certs in rows:
            for cert in certs:
                if ":factor:" in cert.name or cert.name.startswith("factor:"):
                    if cert.status == "n/a":
                        na += 1
                        continue
                    worst = max(worst, cert.residual)
                    count += 1
    _criterion(
        capsys, 4, worst <= 1e-10,
        f"{count} factorization residuals (coefficient bounds over the whole unit "
        f"circle): worst {worst:.2e}; {na} not applicable (non-null double hats)",
    )


def test_criterion_5_round_trip(capsys, direct_solutions):
    worst_match = 0.0
    worst_null = 0.0
    for kind, rows in direct_solutions.items():
        for m, cls, sol in rows:
            route = solve_kind(m, cls, shift_mod.pick_kind(cls))
            if kind == "null":
                bm, b0, bp = m.a_minus, m.b_zero(), m.a_plus
                worst_null = max(
                    worst_null,
                    solvers.residual_g(bm, b0, bp, route.g),
                    solvers.residual_r(bm, b0, bp, route.r),
                )
            else:
                worst_match = max(
                    worst_match,
                    float(np.max(np.abs(route.g - sol.g))),
                    float(np.max(np.abs(route.r - sol.r))),
                )
    ok = worst_match <= 1e-8 and worst_null <= 1e-8
    _criterion(
        capsys, 5, ok,
        f"recovered vs direct {worst_match:.2e} (non-null); recovered original-equation "
        f"residual {worst_null:.2e} (null); tol 1e-8",
    )


def test_criterion_6_w_machinery(capsys, direct_solutions):
    worst_identity = 0.0
    worst_similarity = 0.0
    for kind in ("positive", "transient"):
        for m, cls, sol in direct_solutions[kind]:
            eye = np.eye(m.n)
            k_inv = kernel.solve_linear(sol.k, eye)
            worst_identity = max(
                worst_identity,
                kernel.inf_norm(sol.w - sol.g @ sol.w @ sol.r - k_inv),
                kernel.inf_norm(sol.k @ (eye - sol.g @ sol.ghat) @ sol.w - eye),
            )
            ghat_w, rhat_w = solvers.hats_from_w(sol.w, sol.g, sol.r)
            worst_similarity = max(
                worst_similarity,
                float(np.max(np.abs(ghat_w - sol.ghat))),
                float(np.max(np.abs(rhat_w - sol.rhat))),
            )
    ok = worst_identity <= 1e-10 and worst_similarity <= 1e-8
    _criterion(
        capsys, 6, ok,
        f"Stein/inverse identities worst {worst_identity:.2e} (tol 1e-10); "
        f"similarity vs independent solves worst {worst_similarity:.2e} (tol 1e-8)",
    )


def test_criterion_7_sign_and_structure(capsys, direct_solutions):
    worst_pairing = -np.inf
    violations = 0
    count = 0
    for kind, rows in direct_solutions.items():
        for m, cls, sol in rows:
            if kind == "null":
                sol = reference_solution(m, cls)
            pd = complete_perron_data(perron_data(m, cls), sol)
            eye = np.eye(m.n)
            p1 = float(pd.v_g @ kernel.solve_linear(sol.k, eye) @ pd.u_r)
            p2 = float(pd.v_ghat @ kernel.solve_linear(sol.khat, eye) @ pd.u_rhat)
            worst_pairing = max(worst_pairing, p1, p2)
            try:
                phase_partition(sol, pd)
            except ValueError:
                violations += 1
            count += 1
    ok = worst_pairing < 0.0 and violations == 0
    _criterion(
        capsys, 7, ok,
        f"{count} instances: largest pairing {worst_pairing:.3e} (must be < 0), "
        f"{violations} phase-partition violations",
    )


def test_criterion_8_shift_acceleration(capsys):
    rows = cli.bench_rows("null", 8, count=50, seed=101, tol=1e-8)
    direct_iters = sorted(r["direct_iterations"] for r in rows)
    shifted_iters = sorted(r["shifted_iterations"] for r in rows)
    median = lambda xs: xs[len(xs) // 2]
    med_direct, med_shifted = median(direct_iters), median(shifted_iters)
    better = sum(r["recovered_accuracy"] < r["direct_accuracy"] for r in rows)
    ok = med_shifted < med_direct and better >= 0.9 * len(rows)
    _criterion(
        capsys, 8, ok,
        f"median CR sweeps {med_shifted} (double shift) vs {med_direct} (direct); "
        f"recovered more accurate on {better}/{len(rows)} instances",
    )


def test_criterion_9_khat_double_discrepancy(capsys, n1):
    cls = classify(n1)
    sol = reference_solution(n1, cls)
    pd = complete_perron_data(perron_data(n1, cls), sol)
    transform = shift_mod.build_transform(n1, cls, pd, "double", v=[1.0], w=[1.0])
    hats = shifted_hats_nullrec(sol, pd, transform)
    gap = kernel.inf_norm(hats.khat_rank_one - hats.khat)
    factor_residual = matpoly.factorization_residual(
        transform.shifted.poly,
        matpoly.Factorization("z_inverse", hats.rhat, hats.khat, hats.ghat),
    )
    certs = check_identity_suite(n1, cls, sol, pd, transforms_of(n1, cls, pd))
    info = [c for c in certs if c.name == "double:id:Khat_d-compact"]
    ok = (
        abs(gap - 0.4) <= 1e-10
        and factor_residual <= 1e-12
        and len(info) == 1
        and info[0].status == "info"
    )
    _criterion(
        capsys, 9, ok,
        f"compact-formula gap {gap:.12f} (expected 0.4), defining-relation "
        f"factorization residual {factor_residual:.2e} (tol 1e-12), reported informational",
    )
