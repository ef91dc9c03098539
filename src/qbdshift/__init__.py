"""Shift technique for quasi-birth-death processes.

Solves the four quadratic matrix equations of a QBD level transition,
builds right/left/double-shifted problems whose spectral gap is open,
recovers the original minimal solutions from the shifted ones, and
certifies every canonical-factorization identity along the way.
"""

from .kernel import (
    ConvergenceError,
    SingularMatrixError,
    inverse,
    perron,
    solve_linear,
    spectral_radius,
    stein_solve,
)
from .matpoly import (
    Factorization,
    QuadMatPoly,
    RootSet,
    factorization_residual,
)
from .model import (
    Classification,
    Kind,
    PerronData,
    QbdTriple,
    ValidationError,
    classify,
    complete_perron_data,
    perron_data,
    validate,
)
from .shift import (
    ShiftKind,
    ShiftTransform,
    ShiftedHats,
    build_transform,
    matched_transform,
    recover_gr,
    reference_solution,
    shifted_gr,
    shifted_hats_nonnull,
    shifted_hats_nullrec,
    shift_routes,
    solve_via,
)
from .solvers import (
    SolutionSet,
    compute_w,
    cyclic_reduction,
    derive_r_k,
    hats_from_w,
)
from .verify import (
    Certificate,
    check_identity_suite,
    check_mmatrix,
    check_sign_property,
)

__version__ = "0.1.0"
