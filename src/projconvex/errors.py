"""Exception types with machine-readable codes for report serialization."""


class GeometryError(Exception):
    """Base for all computation errors; ``code`` is stable across releases."""

    code = "geometry-error"

    def __init__(self, message="", **data):
        super().__init__(message)
        self.data = data

    def report(self):
        """The error as report data; `jsonio.sanitize` makes it JSON-ready."""
        return {"code": self.code, "message": str(self), "data": self.data}


class InvalidInputError(GeometryError):
    code = "invalid-input"


class InputFormatError(GeometryError):
    """Malformed or non-finite input files; maps to usage exit code 2."""

    code = "input-format"


class AtInfinityError(GeometryError):
    code = "at-infinity"


class DegeneratePencilError(GeometryError):
    code = "degenerate-pencil"


class NotProperlyConvexError(GeometryError):
    code = "not-properly-convex"


class NotOnFrontierError(GeometryError):
    code = "not-on-frontier"


class DegenerateChordError(GeometryError):
    code = "degenerate-chord"


class InfiniteDistanceError(GeometryError):
    code = "infinite-distance"


class ProjectionUndefinedError(GeometryError):
    code = "projection-undefined"


class OutsideDualConeError(GeometryError):
    code = "outside-dual-cone"


class ConvergenceFailureError(GeometryError):
    code = "convergence-failure"


class DegenerateDomainError(GeometryError):
    code = "degenerate-domain"


class NotHyperbolicError(GeometryError):
    code = "not-hyperbolic"


class AutomorphismInconsistencyError(GeometryError):
    code = "automorphism-inconsistency"


class InvalidBasepointError(GeometryError):
    code = "invalid-basepoint"


class TransversalityError(GeometryError):
    code = "transversality-failure"


class CoplanarStarError(GeometryError):
    code = "coplanar-star"


class NonManifoldComplexError(GeometryError):
    code = "non-manifold-complex"


class ApproximationFailureError(GeometryError):
    code = "approximation-failure"
