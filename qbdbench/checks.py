"""Correctness checks that do not trust the program.

Every check is a property the minimal solutions must have, computed here
with plain numpy from the model blocks and the class the generator
forced:

- the four quadratic equations hold to a small relative residual;
- G, R, Ghat, Rhat are entrywise nonnegative;
- G (positive and null chains) and Ghat (transient and null chains) are
  stochastic, and otherwise substochastic;
- rho(G), rho(R), rho(Ghat), rho(Rhat) <= 1, which singles out the
  minimal solutions among all solutions of the equations.
"""

from __future__ import annotations

import numpy as np

from workloads import NULL, POSITIVE, TRANSIENT

RES_TOL = 1e-10  # relative residual of each quadratic equation
NEG_TOL = 1e-12  # most negative entry allowed
STOCH_TOL = 1e-9  # row-sum defect of a solution that must be stochastic
RHO_TOL = 1e-8  # spectral radius above one allowed


def _norm(m):
    return float(np.max(np.sum(np.abs(m), axis=1)))


def relative_residual(which, blocks, x):
    """||equation(x)|| / (||B_-1|| + ||B_0|| ||x|| + ||B_1|| ||x||^2)."""
    bm, a0, bp = blocks
    b0 = a0 - np.eye(a0.shape[0])
    xx = x @ x
    if which == "G":
        res = bm + b0 @ x + bp @ xx
    elif which == "R":
        res = xx @ bm + x @ b0 + bp
    elif which == "Ghat":
        res = bm @ xx + b0 @ x + bp
    elif which == "Rhat":
        res = bm + x @ b0 + xx @ bp
    else:
        raise ValueError(which)
    nx = _norm(x)
    return _norm(res) / (_norm(bm) + _norm(b0) * nx + _norm(bp) * nx * nx)


def must_be_stochastic(which, kind):
    """G is stochastic for recurrent chains, Ghat for non-positive ones."""
    if which == "G":
        return kind in (POSITIVE, NULL)
    if which == "Ghat":
        return kind in (TRANSIENT, NULL)
    return False


def stochastic_defect(x):
    return float(np.max(np.abs(x.sum(axis=1) - 1.0)))


def check_matrices(blocks, kind, mats):
    """Check each minimal solution in `mats` ({"G": G, ...}).

    Returns (errors, worst relative residual, worst stochastic defect);
    the defect is None when no matrix in `mats` must be stochastic.
    """
    errors = []
    worst_res = 0.0
    worst_defect = None
    for which, x in mats.items():
        x = np.asarray(x, dtype=float)
        res = relative_residual(which, blocks, x)
        worst_res = max(worst_res, res)
        if not res <= RES_TOL:
            errors.append(f"{which}: relative residual {res:.3e} > {RES_TOL:g}")
        low = float(np.min(x))
        if low < -NEG_TOL:
            errors.append(f"{which}: negative entry {low:.3e}")
        rows = x.sum(axis=1)
        if must_be_stochastic(which, kind):
            defect = stochastic_defect(x)
            worst_defect = defect if worst_defect is None else max(worst_defect, defect)
            if not defect <= STOCH_TOL:
                errors.append(f"{which}: row-sum defect {defect:.3e} > {STOCH_TOL:g}")
        elif which in ("G", "Ghat") and float(np.max(rows)) > 1.0 + STOCH_TOL:
            errors.append(f"{which}: row sum {float(np.max(rows)):.17g} above 1")
        rho = float(np.max(np.abs(np.linalg.eigvals(x))))
        if rho > 1.0 + RHO_TOL:
            errors.append(f"{which}: spectral radius {rho:.17g} above 1")
    return errors, worst_res, worst_defect


def check_solution(blocks, kind, sol):
    """Check a SolutionSet (the `solution` operation's output)."""
    return check_matrices(
        blocks, kind, {"G": sol.g, "R": sol.r, "Ghat": sol.ghat, "Rhat": sol.rhat}
    )


def check_report(blocks, kind, report):
    """Check a certified solve's JSON report: no failed certificate, and
    the shift route's G and R have the properties above."""
    n = blocks[0].shape[0]
    errors = []
    fails = [c["name"] for c in report["certificates"] if c["status"] == "fail"]
    if fails:
        errors.append(f"failed certificates: {fails}")
    route = report.get("shift_route")
    if route is None:
        errors.append("report has no shift_route")
    else:
        mats = {k: np.asarray(route[k]).reshape(n, n) for k in ("G", "R")}
        errors.extend(check_matrices(blocks, kind, mats)[0])
    return errors


def corrupted_g_rejected(blocks, kind, sol, size=1e-6):
    """Self-check: the checks must reject G with one row perturbed by
    `size` (moved between two entries, so the row sum is unchanged).
    Returns True when the corrupted set is rejected."""
    g = np.array(sol.g, dtype=float)
    g[0, 0] += size
    g[0, 1] -= size
    mats = {"G": g, "R": sol.r, "Ghat": sol.ghat, "Rhat": sol.rhat}
    return bool(check_matrices(blocks, kind, mats)[0])
