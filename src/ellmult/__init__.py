"""Exact and analytic machinery for integral multiples of points on elliptic curves.

The package splits into exact arithmetic (curves, divpoly, localdata,
factorization), analytic quantities computed to requested precision (heights,
analytic), explicit inequality evaluators (bounds), and the congruent-number
specialization with its reproducible point table (congruent).  Every check
that can be phrased as an inequality is reported as a BoundReport rather than
a bare boolean, so callers can see the numbers that were compared.
"""

from .curves import (
    Curve,
    CurveHeight,
    INFINITY,
    Multiples,
    RatPoint,
    add,
    curve_height,
    make_curve,
    multiply,
    on_curve,
    quasi_minimalize,
    rational_point,
)
from .divpoly import (
    DivisionPolynomial,
    WardSequence,
    psi_polynomial,
    psi_value_binary,
    ward_terms,
    x_multiple_exact,
)
from .errors import (
    CapExceeded,
    EllmultError,
    FactorizationTooLarge,
    InadmissibleParameters,
    InternalInvariantError,
    NonIntegralBasePoint,
    NotBoundedComponent,
    NotIdentityComponent,
    OffCurve,
    ParityMismatch,
    PrecisionExhausted,
    SingularCurve,
    TorsionInput,
    UnknownBound,
    UnreliableAtSmallPrime,
)
from .heights import (
    HeightEstimate,
    canonical_height,
    height_window_check,
    lang_floor,
    naive_height,
    torsion_order,
)
from .localdata import ComponentProfile, global_M
from .analytic import (
    LinearForm,
    PeriodData,
    elliptic_log,
    omega_floor,
    period_data,
    principal_linear_form,
    torsion_x_coords,
    weierstrass_point,
)
from .reports import BoundReport
from . import bounds, congruent

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CapExceeded",
    "ComponentProfile",
    "Curve",
    "CurveHeight",
    "DivisionPolynomial",
    "EllmultError",
    "FactorizationTooLarge",
    "HeightEstimate",
    "INFINITY",
    "InadmissibleParameters",
    "InternalInvariantError",
    "LinearForm",
    "Multiples",
    "NonIntegralBasePoint",
    "NotBoundedComponent",
    "NotIdentityComponent",
    "OffCurve",
    "ParityMismatch",
    "PeriodData",
    "PrecisionExhausted",
    "RatPoint",
    "SingularCurve",
    "TorsionInput",
    "UnknownBound",
    "UnreliableAtSmallPrime",
    "WardSequence",
    "add",
    "bounds",
    "canonical_height",
    "congruent",
    "curve_height",
    "elliptic_log",
    "global_M",
    "height_window_check",
    "lang_floor",
    "make_curve",
    "multiply",
    "naive_height",
    "omega_floor",
    "on_curve",
    "period_data",
    "principal_linear_form",
    "psi_polynomial",
    "psi_value_binary",
    "quasi_minimalize",
    "rational_point",
    "torsion_order",
    "torsion_x_coords",
    "ward_terms",
    "weierstrass_point",
    "x_multiple_exact",
]
