"""Section volume functions of convex bodies and their algebraic structure.

The package asks, computationally, when powers of the hyperplane section
volume function of a convex body are polynomials in the offset, and uses the
answer to recognize ellipsoids from support and section data alone.
"""

from .bodies import (
    Direction,
    Ellipsoid,
    InfiniteSupportError,
    Polytope,
    QuadricDomain,
    UnboundedSliceError,
    chord_interval,
    load_body,
    random_ellipsoid,
    random_rotation,
    random_simplex,
    save_body,
    support,
)
from .sections import (
    SectionProfile,
    profile,
    section_volume,
    section_volume_mc,
)
from .radon import (
    MomentReport,
    moment,
    range_test,
)
from .algfit import (
    AlgebraicFitReport,
    AsymptoticReport,
    RootStructureReport,
    detect_min_m,
    exponent_estimate,
    fit_power_polynomial,
    predicted_boundary_constant,
    principal_curvatures,
    quadric_check,
    root_structure,
)
from .detect import (
    EllipsoidReport,
    is_ellipsoid,
    section_consistency_check,
)
from . import cli  # binds tomoslice.cli, which callers reach as an attribute

__version__ = "0.1.0"

__all__ = [
    "Direction",
    "Ellipsoid",
    "Polytope",
    "QuadricDomain",
    "InfiniteSupportError",
    "UnboundedSliceError",
    "SectionProfile",
    "MomentReport",
    "AlgebraicFitReport",
    "AsymptoticReport",
    "RootStructureReport",
    "EllipsoidReport",
    "support",
    "chord_interval",
    "random_ellipsoid",
    "random_rotation",
    "random_simplex",
    "load_body",
    "save_body",
    "profile",
    "section_volume",
    "section_volume_mc",
    "moment",
    "range_test",
    "fit_power_polynomial",
    "detect_min_m",
    "root_structure",
    "exponent_estimate",
    "principal_curvatures",
    "predicted_boundary_constant",
    "is_ellipsoid",
    "section_consistency_check",
    "quadric_check",
    "__version__",
]
