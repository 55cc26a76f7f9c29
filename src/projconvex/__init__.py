"""Numerical toolkit for properly-convex projective geometry.

Core objects: projective points, functionals, and transforms (projgeom);
properly-convex domains with polytope, ellipsoid, and radial-graph backends
and their dual domains (domain); the Hilbert metric (hilbert); the truncated
cone volume functional, its fiber minimization, characteristic surfaces, and
spherical centers (vinberg); isotropic normalization, box estimates, and
degeneration analysis (normalize); domain automorphisms, hyperbolic dynamics,
and fundamental domains (group); and PL convexity certification (plconvex).

`import projconvex` loads `config` alone.  Each other name in `__all__`, and
each submodule (`projconvex.hilbert`, ...), is imported at its first use
(PEP 562), so a program or a CLI command loads only the modules it uses.
"""

import sys

from .config import TOL, DEFAULT_SEED

# The submodule that defines each exported name.
_EXPORTS = {
    "domain": (
        "Chord ConvexCone ConvexDomain boundary_flats chord contains "
        "dual_domain orthant_domain square_domain support "
        "supporting_facets triangle_domain unit_disk validate").split(),
    "hilbert": (
        "ChordProjection chord_projection distance distances geodesic "
        "metric_ball project_to_chord thin_triangle_delta").split(),
    "group": (
        "dirichlet_domain fixed_point_dynamics is_automorphism orbit").split(),
    "normalize": (
        "BoxSandwich MomentData RepSequence analyze_sequence box_bound_check "
        "invariant_subspace_search isotropic_normalize moments").split(),
    "plconvex": (
        "SimplicialHypersurface certify_generic_convex log_contour_value "
        "outward_check perturbation_radius pl_characteristic_surface "
        "radial_section_check vertex_convexity").split(),
    "projgeom": (
        "AffineChart DualFunctional ProjPoint ProjSubspace ProjTransform "
        "pencil_core standard_chart").split(),
    "vinberg": (
        "VolumeResult characteristic_point characteristic_points grad_volume "
        "min_volume_on_fiber slice_centroid spherical_center theta "
        "theta_inverse volume_functional volume_functional_quadrature").split(),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli", "errors", "jsonio", "svgfig"}

__all__ = ["TOL", "DEFAULT_SEED", *_MODULE_OF]
__version__ = "0.1.0"


def _submodule(name):
    # through __import__, the import statement's own path, not
    # importlib.import_module, so that -X importtime reports the module
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name):
    # Reached only for a name not yet among the globals: the value is
    # imported once and cached there, so later lookups skip this function.
    if name in _MODULE_OF:
        value = getattr(_submodule(_MODULE_OF[name]), name)
    elif name in _SUBMODULES:
        value = _submodule(name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
