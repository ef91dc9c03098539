"""QBD transition triples: validation against the standing assumptions,
drift classification with the splitting roots from the class-matched
shift, and the Perron vector registry.

A level transition is described by three nonnegative n x n blocks
A_-1, A_0, A_1 (one level down, same level, one level up) whose sum is
stochastic and irreducible. The triple is also the matrix polynomial
B(z) = A_-1 + z (A_0 - I) + z^2 A_1 of the paper; its reversal (A_1, A_0,
A_-1) has z^2 B(1/z), which carries the factorizations in z^-1.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
import typing

import numpy as np

from . import kernel

if typing.TYPE_CHECKING:
    from .shift import ShiftRoute

__all__ = [
    "Classification",
    "Kind",
    "PerronData",
    "QbdTriple",
    "ValidationError",
    "classify",
    "complete_perron_data",
    "perron_data",
    "validate",
]

ROW_SUM_TOL = 1e-12
NULL_DRIFT_TOL = 1e-12
# validate refuses B(z) when it is numerically singular at all of these
_DET_PROBE_POINTS = (0.83 + 0.41j, -0.52 + 0.77j, 1.31 - 0.23j)


class ValidationError(ValueError):
    """The raw blocks violate a standing assumption."""


@dataclasses.dataclass(frozen=True)
class QbdTriple:
    """Blocks of one QBD level transition.

    `validate` is the only gate for blocks from outside the program; the
    shift builds unvalidated triples whose rows need not sum to one.
    """

    n: int
    a_minus: np.ndarray
    a_zero: np.ndarray
    a_plus: np.ndarray

    def a_sum(self):
        return self.a_minus + self.a_zero + self.a_plus

    def a_of(self, z):
        """A(z) = A_-1 + z A_0 + z^2 A_1 (nonnegative for z > 0)."""
        return self.a_minus + z * self.a_zero + z * z * self.a_plus

    def b_zero(self):
        """B_0 = A_0 - I, formed on first read and kept, read-only."""
        return self._b_zero

    @functools.cached_property
    def _b_zero(self):
        b0 = self.a_zero - np.eye(self.n)
        b0.flags.writeable = False
        return b0

    def b_of(self, z):
        """B(z) = A_-1 + z B_0 + z^2 A_1, the matrix polynomial of the
        triple; phi(z) = z^-1 B(z)."""
        return self.a_minus + z * self.b_zero() + z * z * self.a_plus

    def reversed(self):
        """The triple (A_1, A_0, A_-1); the minimal solutions of its
        quadratic equations are exactly the hat solutions of this one."""
        return QbdTriple(self.n, self.a_plus, self.a_zero, self.a_minus)


def validate(a_minus, a_zero, a_plus):
    """Check nonnegativity, that some level transition exists,
    stochasticity of the sum, irreducibility, and that det B(z) does not
    vanish identically.

    A_-1 = A_1 = 0 is refused: the levels never communicate, and det B(z)
    = z^n det(A_0 - I) vanishes identically. Any other B(z) is refused
    when it is numerically singular at each of _DET_PROBE_POINTS by the
    test of kernel.inverse: an exactly zero pivot, or ||B||_inf
    ||B^-1||_inf above 1/PIVOT_RTOL. A valid model stops at the first
    point. No roots are computed here: the spectra of a solution set warn
    when B(z) has unit-circle roots away from z = 1.
    """
    blocks = []
    for name, raw in (("a_minus", a_minus), ("a_zero", a_zero), ("a_plus", a_plus)):
        try:
            a = kernel.as_square(raw, name)
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
        if a.size == 0:
            raise ValidationError(f"{name} is empty")
        if np.min(a) < 0.0:
            raise ValidationError(f"{name} has a negative entry (min {np.min(a)})")
        blocks.append(a)
    a_m, a_0, a_p = blocks
    if not (a_m.shape == a_0.shape == a_p.shape):
        raise ValidationError("blocks differ in shape")
    if not (a_m.any() or a_p.any()):
        raise ValidationError("A_-1 = A_1 = 0: the levels never communicate")
    n = a_m.shape[0]
    row_sums = (a_m + a_0 + a_p).sum(axis=1)
    worst = float(np.max(np.abs(row_sums - 1.0)))
    if worst > ROW_SUM_TOL:
        raise ValidationError(
            f"A_-1 + A_0 + A_1 is not stochastic: max row-sum deviation {worst:.3e}"
        )
    if not kernel.is_irreducible(a_m + a_0 + a_p):
        raise ValidationError("A_-1 + A_0 + A_1 is reducible")
    triple = QbdTriple(n=n, a_minus=a_m, a_zero=a_0, a_plus=a_p)
    if not any(_regular_at(triple.b_of(z)) for z in _DET_PROBE_POINTS):
        raise ValidationError("det B(z) vanishes identically: B(z) is numerically "
                              "singular at every probe point")
    return triple


def _regular_at(b):
    """False when the complex matrix `b` is singular by the test of
    kernel.inverse (which casts to float, so numpy's inverse serves)."""
    try:
        inv = np.linalg.inv(b)
    except np.linalg.LinAlgError:
        return False
    return kernel.inf_norm(b) * kernel.inf_norm(inv) <= 1.0 / kernel.PIVOT_RTOL


class Kind(str, enum.Enum):
    POSITIVE_RECURRENT = "positive-recurrent"
    NULL_RECURRENT = "null-recurrent"
    TRANSIENT = "transient"


@dataclasses.dataclass(frozen=True)
class Classification:
    """Drift sign, the two real splitting roots xi_n <= xi_{n+1}, and the
    left Perron vector of A_-1 + A_0 + A_1 at unit infinity norm (the
    stationary vector of the phase process, up to scale), which
    shift.matched_transform and perron_data read at the unit root.

    `matched` is the route of the class-matched shift
    (shift.matched_transform: right, left or double for a
    positive-recurrent, transient or null-recurrent chain, at the exact
    unit root): the forward solve of reference_solution in every class,
    and a certified solve's route of its kind. None only for `reversed`.
    """

    kind: Kind
    drift: float
    xi_n: float
    xi_n1: float
    phase_left: np.ndarray
    matched: ShiftRoute | None = dataclasses.field(default=None, compare=False, repr=False)

    def reversed(self):
        """Classification of the reversed triple (A_1, A_0, A_-1), derived
        without a solve: its B(z) is z^2 B(1/z), so the splitting roots are
        1/xi_{n+1} <= 1/xi_n (0 and infinity trade places), the drift
        changes sign and positive recurrence trades places with
        transience. The block sum, and so its Perron vector, is the same.
        The matched route solves the forward triple and is not carried."""
        kind = {
            Kind.POSITIVE_RECURRENT: Kind.TRANSIENT,
            Kind.TRANSIENT: Kind.POSITIVE_RECURRENT,
        }.get(self.kind, self.kind)
        return Classification(
            kind=kind, drift=-self.drift, xi_n=_reciprocal(self.xi_n1),
            xi_n1=_reciprocal(self.xi_n), phase_left=self.phase_left,
        )


def _reciprocal(x):
    return math.inf if x == 0.0 else 1.0 / x


def classify(model):
    """Drift classification, with the non-unit splitting root from the
    solve of the class-matched shift.

    drift = theta^T A_1 e - theta^T A_-1 e for theta stationary in the
    phase process; negative drift is positive recurrence, |drift| <=
    NULL_DRIFT_TOL null recurrence, where xi_n = xi_{n+1} = 1 exactly. The
    unit root and its Perron vectors (e, theta) are known exactly, so the
    shift that moves it needs no root; it is solved and kept as `matched`.
    The right shift leaves R unchanged, so xi_{n+1} = 1/rho(R); the left
    shift leaves G unchanged, so xi_n = rho(G). R = 0 (A_1 = 0) gives
    xi_{n+1} = inf and G = 0 (A_-1 = 0) gives xi_n = 0. No root of B(z) is
    computed here: the unit-circle warning comes with the spectra of a
    solution set.
    """
    from . import shift  # shift imports this module

    phase_left = kernel.perron(model.a_sum().T, 1.0)
    theta = phase_left / np.sum(phase_left)
    drift = float(theta @ (model.a_plus - model.a_minus).sum(axis=1))
    kind = (Kind.NULL_RECURRENT if abs(drift) <= NULL_DRIFT_TOL
            else Kind.POSITIVE_RECURRENT if drift < 0.0 else Kind.TRANSIENT)
    # the matched shift reads only the unit root, so a preliminary
    # classification with both splitting roots at 1 builds it
    at_unit = Classification(kind, drift, 1.0, 1.0, phase_left)
    route = shift.solve_via(model, shift.matched_transform(model, at_unit))
    # the shift-recovered solution carries round-off negatives; read them as 0
    xi_n = xi_n1 = 1.0
    if kind is Kind.POSITIVE_RECURRENT:
        xi_n1 = _reciprocal(kernel.spectral_radius(np.maximum(route.r, 0.0)))
    elif kind is Kind.TRANSIENT:
        xi_n = kernel.spectral_radius(np.maximum(route.g, 0.0))
    return Classification(kind, drift, xi_n, xi_n1, phase_left, matched=route)


@dataclasses.dataclass(frozen=True)
class PerronData:
    """Perron vectors of the four minimal solutions, unit infinity norm.

    u_g (right Perron vector of A(xi_n)) and v_r (left Perron vector of
    A(xi_{n+1})) are available before anything is solved: they are the
    vectors a shift is built from. v_g, u_r, v_ghat, u_rhat are Perron
    vectors of the solution matrices themselves and are None until filled
    in by complete_perron_data.
    """

    u_g: np.ndarray
    v_r: np.ndarray
    v_g: np.ndarray | None = None
    u_r: np.ndarray | None = None
    v_ghat: np.ndarray | None = None
    u_rhat: np.ndarray | None = None


def perron_data(model, cls):
    """A-priori Perron data (u_G, v_R): u_G from A(xi_n), v_R from
    A(xi_{n+1}), each at its Perron root xi (det B(xi) = 0 makes xi an
    eigenvalue of A(xi)).

    At the unit root A(1) = A_-1 + A_0 + A_1 is stochastic: its right
    Perron vector is e and its left one is `cls.phase_left`, computed once
    by classify. So only the vector at the non-unit root takes a bordered
    solve, and none does at null recurrence, where both points are the
    unit root.
    """
    u_g, v_r = np.ones(model.n), cls.phase_left
    if cls.xi_n != 1.0:
        u_g = kernel.perron(model.a_of(cls.xi_n), cls.xi_n)
    if cls.xi_n1 != 1.0:
        v_r = kernel.perron(model.a_of(cls.xi_n1).T, cls.xi_n1)
    if min(np.min(u_g), np.min(v_r)) <= 0.0:
        raise ValueError("Perron vectors of A(xi) not strictly positive")
    return PerronData(u_g=u_g, v_r=v_r)


def complete_perron_data(pd, sol):
    """Fill the solution-side Perron vectors from solved G, R, Ghat, Rhat,
    reading the round-off negatives of a shift-recovered solution as 0:
    one bordered solve each, a left vector from the transpose, at the
    radius of the solved matrix itself (`sol.radii`). Never at the
    splitting root that classify claims: a wrong solution then still gets
    its vectors, and the certificates, not the residual check of
    kernel.perron, judge it."""
    g, r, ghat, rhat = (np.maximum(m, 0.0) for m in (sol.g, sol.r, sol.ghat, sol.rhat))
    rho_g, rho_r, rho_ghat, rho_rhat = sol.radii
    return dataclasses.replace(
        pd,
        v_g=kernel.perron(g.T, rho_g),
        u_r=kernel.perron(r, rho_r),
        v_ghat=kernel.perron(ghat.T, rho_ghat),
        u_rhat=kernel.perron(rhat, rho_rhat),
    )
