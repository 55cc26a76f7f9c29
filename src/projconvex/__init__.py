"""Numerical toolkit for properly-convex projective geometry.

Core objects: projective points, functionals, and transforms (projgeom);
properly-convex domains with polytope, ellipsoid, and radial-graph backends
and their dual domains (domain); the Hilbert metric (hilbert); the truncated
cone volume functional, its fiber minimization, characteristic surfaces, and
spherical centers (vinberg); isotropic normalization, box estimates, and
degeneration analysis (normalize); domain automorphisms, hyperbolic dynamics,
and fundamental domains (group); and PL convexity certification (plconvex).
"""

from .config import TOL, DEFAULT_SEED
from .domain import (
    Chord,
    ConvexCone,
    ConvexDomain,
    boundary_flats,
    chord,
    contains,
    dual_domain,
    klein_disk,
    orthant_domain,
    square_domain,
    support,
    supporting_facets,
    triangle_domain,
    unit_disk,
    validate,
)
from .hilbert import (
    ChordProjection,
    chord_projection,
    distance,
    distances,
    geodesic,
    metric_ball,
    project_to_chord,
    thin_triangle_delta,
)
from .group import (
    dirichlet_domain,
    fixed_point_dynamics,
    is_automorphism,
    orbit,
)
from .normalize import (
    BoxSandwich,
    MomentData,
    RepSequence,
    analyze_sequence,
    box_bound_check,
    invariant_subspace_search,
    isotropic_normalize,
    moments,
)
from .plconvex import (
    SimplicialHypersurface,
    certify_generic_convex,
    log_contour_value,
    outward_check,
    perturbation_radius,
    pl_characteristic_surface,
    radial_section_check,
    vertex_convexity,
)
from .projgeom import (
    AffineChart,
    DualFunctional,
    ProjPoint,
    ProjSubspace,
    ProjTransform,
    affine_chart,
    normalize_point,
    pencil_core,
    standard_chart,
)
from .vinberg import (
    VolumeResult,
    characteristic_point,
    characteristic_points,
    grad_volume,
    min_volume_on_fiber,
    slice_centroid,
    spherical_center,
    theta,
    theta_inverse,
    volume_functional,
    volume_functional_quadrature,
)

__version__ = "0.1.0"
