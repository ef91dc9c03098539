"""QBD transition triples: validation against the standing assumptions,
drift/spectral classification carrying the roots of B(z), and the Perron
vector registry.

A level transition is described by three nonnegative n x n blocks
A_-1, A_0, A_1 (one level down, same level, one level up) whose sum is
stochastic and irreducible.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import warnings

import numpy as np

from . import kernel, matpoly

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
# Agreement required between pencil roots and solved spectral radii.
XI_CROSS_CHECK_TOL = 1e-8


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
        return self.a_zero - np.eye(self.n)

    @functools.cached_property
    def poly(self):
        """B(z) = A_-1 + z (A_0 - I) + z^2 A_1, built once per triple."""
        return matpoly.QuadMatPoly.from_triple(self.a_minus, self.a_zero, self.a_plus)

    def reversed(self):
        """The triple (A_1, A_0, A_-1); the minimal solutions of its
        quadratic equations are exactly the hat solutions of this one."""
        return QbdTriple(self.n, self.a_plus, self.a_zero, self.a_minus)


def validate(a_minus, a_zero, a_plus):
    """Check nonnegativity, stochasticity of the sum, and irreducibility.

    No roots are computed here: `classify` warns when B(z) has
    unit-circle roots away from z = 1.
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
    n = a_m.shape[0]
    row_sums = (a_m + a_0 + a_p).sum(axis=1)
    worst = float(np.max(np.abs(row_sums - 1.0)))
    if worst > ROW_SUM_TOL:
        raise ValidationError(
            f"A_-1 + A_0 + A_1 is not stochastic: max row-sum deviation {worst:.3e}"
        )
    if not kernel.is_irreducible(a_m + a_0 + a_p):
        raise ValidationError("A_-1 + A_0 + A_1 is reducible")
    return QbdTriple(n=n, a_minus=a_m, a_zero=a_0, a_plus=a_p)


class Kind(str, enum.Enum):
    POSITIVE_RECURRENT = "positive-recurrent"
    NULL_RECURRENT = "null-recurrent"
    TRANSIENT = "transient"


@dataclasses.dataclass(frozen=True)
class Classification:
    """Drift sign, the two real splitting roots xi_n <= xi_{n+1}, all 2n
    roots of B(z), and the left Perron vector of A_-1 + A_0 + A_1 at unit
    infinity norm (the stationary vector of the phase process, up to
    scale), which perron_data reuses at the unit root."""

    kind: Kind
    drift: float
    xi_n: float
    xi_n1: float
    roots: matpoly.RootSet
    phase_left: np.ndarray

    def reversed(self):
        """Classification of the reversed triple (A_1, A_0, A_-1), derived
        without an eigensolve: its B(z) is z^2 B(1/z), so the roots are the
        reciprocals (0 and infinity trade places), the splitting roots are
        1/xi_{n+1} <= 1/xi_n, the drift changes sign and positive
        recurrence trades places with transience. The block sum, and so
        its Perron vector, is the same."""
        kind = {
            Kind.POSITIVE_RECURRENT: Kind.TRANSIENT,
            Kind.TRANSIENT: Kind.POSITIVE_RECURRENT,
        }.get(self.kind, self.kind)
        return Classification(
            kind=kind, drift=-self.drift, xi_n=1.0 / self.xi_n1, xi_n1=1.0 / self.xi_n,
            roots=self.roots.reciprocals(), phase_left=self.phase_left,
        )


def _real_positive_root(rootset, index):
    z = rootset.values()[index]
    if not np.isfinite(z.real) or abs(z.imag) > 1e-8 * (1.0 + abs(z)) or z.real <= 0:
        raise ValueError(f"splitting root {z} is not real positive")
    return float(z.real)


def classify(model):
    """Mean-drift classification cross-filled with the pencil roots.

    drift = theta^T A_1 e - theta^T A_-1 e for theta stationary in the
    phase process; negative drift is positive recurrence. xi_n and
    xi_{n+1} come from the sorted roots of B(z), with the unit root
    snapped to exactly 1 in the classes where it is known a priori (both
    copies in `roots` at null recurrence). Warns on unit-circle roots away
    from z = 1, a sign of several final classes.
    """
    phase_left = kernel.perron(model.a_sum())[2]
    theta = phase_left / np.sum(phase_left)
    drift = float(theta @ (model.a_plus - model.a_minus).sum(axis=1))
    rs = matpoly.roots(model.poly)
    on_circle = np.abs(np.abs(rs.finite) - 1.0) <= 1e-6
    extra = int(np.count_nonzero(on_circle & (np.abs(rs.finite - 1.0) > 1e-6)))
    if extra:
        warnings.warn(f"{extra} unit-circle root(s) of B(z) away from z=1: the chain "
                      "may have more than one final class", stacklevel=2)
    n = model.n
    if abs(drift) <= NULL_DRIFT_TOL:
        kind = Kind.NULL_RECURRENT
        xi_n = xi_n1 = 1.0
        # the unit root is exactly double; QZ splits it by about sqrt(eps)
        finite = rs.finite.copy()
        finite[np.argsort(np.abs(finite - 1.0), kind="stable")[:2]] = 1.0
        rs = matpoly.RootSet(matpoly._sorted_roots(finite), rs.n_infinite)
    elif drift < 0.0:
        kind = Kind.POSITIVE_RECURRENT
        xi_n = 1.0
        xi_n1 = _real_positive_root(rs, n)
    else:
        kind = Kind.TRANSIENT
        xi_n = _real_positive_root(rs, n - 1)
        xi_n1 = 1.0
    return Classification(kind=kind, drift=drift, xi_n=xi_n, xi_n1=xi_n1, roots=rs,
                          phase_left=phase_left)


@dataclasses.dataclass(frozen=True)
class PerronData:
    """Perron vectors of the four minimal solutions, unit infinity norm.

    u_g, v_rhat (right/left Perron vectors of A(xi_n)) and u_ghat, v_r
    (of A(xi_{n+1})) are available before anything is solved. v_g, u_r,
    v_ghat, u_rhat are Perron vectors of the solution matrices themselves
    and are None until filled in by complete_perron_data.
    """

    u_g: np.ndarray
    v_rhat: np.ndarray
    u_ghat: np.ndarray
    v_r: np.ndarray
    v_g: np.ndarray | None = None
    u_r: np.ndarray | None = None
    v_ghat: np.ndarray | None = None
    u_rhat: np.ndarray | None = None

    def reversed(self):
        """Perron data of the reversed triple, derived without a solve:
        A_rev(1/xi) = xi^-2 A(xi), so the reversed splitting points carry
        the same vectors with G and Ghat, R and Rhat trading places."""
        return PerronData(
            u_g=self.u_ghat, v_rhat=self.v_r, u_ghat=self.u_g, v_r=self.v_rhat,
            v_g=self.v_ghat, u_r=self.u_rhat, v_ghat=self.v_g, u_rhat=self.u_r,
        )


def perron_data(model, cls):
    """A-priori Perron vectors from A(xi_n) and A(xi_{n+1}).

    At the unit root A(1) = A_-1 + A_0 + A_1 is stochastic: its right
    Perron vector is e and its left one is `cls.phase_left`, computed once
    by classify. When xi_n = xi_{n+1} (null recurrence) both points are
    the unit root.
    """
    e = np.ones(model.n)
    theta = cls.phase_left
    if cls.xi_n == cls.xi_n1:
        pd = PerronData(u_g=e, v_rhat=theta, u_ghat=e.copy(), v_r=theta.copy())
    elif cls.kind is Kind.POSITIVE_RECURRENT:
        _, u_ghat, v_r = kernel.perron(model.a_of(cls.xi_n1))
        pd = PerronData(u_g=e, v_rhat=theta, u_ghat=u_ghat, v_r=v_r)
    else:
        _, u_g, v_rhat = kernel.perron(model.a_of(cls.xi_n))
        pd = PerronData(u_g=u_g, v_rhat=v_rhat, u_ghat=e, v_r=theta)
    if min(np.min(pd.u_g), np.min(pd.v_rhat), np.min(pd.u_ghat), np.min(pd.v_r)) <= 0.0:
        raise ValueError("Perron vectors of A(xi) not strictly positive")
    return pd


def complete_perron_data(pd, sol):
    """Fill the solution-side Perron vectors from solved G, R, Ghat, Rhat,
    reading the round-off negatives of a shift-recovered solution as 0."""
    g, r, ghat, rhat = (np.maximum(m, 0.0) for m in (sol.g, sol.r, sol.ghat, sol.rhat))
    return dataclasses.replace(
        pd,
        v_g=kernel.perron(g)[2],
        u_r=kernel.perron(r)[1],
        v_ghat=kernel.perron(ghat)[2],
        u_rhat=kernel.perron(rhat)[1],
    )
