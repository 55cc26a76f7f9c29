"""JSON encodings for domains, transforms, sequences, meshes, and reports.

All numbers are 64-bit floats in row-major nested arrays; dimensions are
inferred from shapes.  Loaders reject NaN and infinities.
"""

import csv
import json
import math

import numpy as np

from .domain import ConvexDomain
from .errors import InputFormatError, InvalidInputError
from .projgeom import AffineChart, ProjTransform


def _reject_constant(name):
    raise InputFormatError(f"non-finite constant {name!r} in input")


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):   # a literal beyond the float range, as 1e999
        raise InputFormatError("non-finite number in input")
    return value


def _floats(value):
    """np.asarray(value, dtype=float); an integer beyond the float range,
    which json.loads keeps exact, is an input error."""
    try:
        return np.asarray(value, dtype=float)
    except OverflowError as exc:
        raise InputFormatError("number beyond the float range in input") from exc


def _ints(rows):
    """Each row of an index list as an int array, so that ragged rows reach
    the caller's width check; an index beyond the 64-bit range is an input
    error."""
    try:
        return [np.asarray(row, dtype=int) for row in rows]
    except OverflowError as exc:
        raise InputFormatError("index beyond the integer range in input") from exc


def loads(text: str):
    try:
        return json.loads(text, parse_constant=_reject_constant,
                          parse_float=_finite_float)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"invalid JSON: {exc}") from exc


def load_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def sanitize(obj):
    """Make an object JSON-serializable with deterministic ordering.

    Complex numbers become [re, im] pairs.
    """
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return sanitize(obj.tolist())
    if isinstance(obj, (np.complexfloating, complex)):
        return [sanitize(obj.real), sanitize(obj.imag)]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if not np.isfinite(f):
            return repr(f)
        return f
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def dumps(obj) -> str:
    return json.dumps(sanitize(obj), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def dump_file(obj, path):
    text = dumps(obj)   # before opening, so a failure leaves no empty file
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_csv(rows, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        for row in rows:
            writer.writerow(row)


# ---------------------------------------------------------------------------
# specific codecs


# Each backend type's constructor and the array fields it takes, in order.
_BACKENDS = {
    "hpoly": (ConvexDomain.from_halfspaces, ("normals", "offsets")),
    "vpoly": (ConvexDomain.from_vertices, ("vertices",)),
    "ellipsoid": (ConvexDomain.ellipsoid, ("center", "shape")),
    "radialgraph": (ConvexDomain.radial_graph, ("center", "directions", "radii")),
}


def domain_from_dict(data) -> ConvexDomain:
    try:
        chart = AffineChart(_floats(data["chart"]))
        backend = data["backend"]
        kind = backend["type"]
        if kind not in _BACKENDS:
            raise InputFormatError(
                f"malformed domain object: unknown backend type {kind!r}")
        make, names = _BACKENDS[kind]
        args = [_floats(backend[name]) for name in names]
        if kind == "radialgraph":
            simplices = backend.get("simplices")
            args.append(None if simplices is None else _ints(simplices))
        return make(*args, chart=chart)
    except (KeyError, TypeError, InvalidInputError) as exc:
        raise InputFormatError(f"malformed domain object: {exc}") from exc


def load_domain(path) -> ConvexDomain:
    return domain_from_dict(load_file(path))


def matrix_from_dict(data) -> ProjTransform:
    if isinstance(data, dict):
        data = data.get("matrix", data)
    return ProjTransform(_floats(data))


def load_matrix(path) -> ProjTransform:
    return matrix_from_dict(load_file(path))


def sequence_from_dict(data) -> "RepSequence":
    # imported here, so that commands without a sequence do not load normalize
    from .normalize import RepSequence
    try:
        gens = list(data["generators"])
        terms = [[_floats(m) for m in tup]
                 for tup in data["terms"]]
    except (KeyError, TypeError) as exc:
        raise InputFormatError(f"malformed sequence object: {exc}") from exc
    domains = None
    if data.get("domains") is not None:
        domains = [domain_from_dict(d) for d in data["domains"]]
    return RepSequence(generators=gens, terms=terms, domains=domains)


def load_sequence(path) -> "RepSequence":
    return sequence_from_dict(load_file(path))


def sequence_to_dict(seq: "RepSequence"):
    out = {"generators": list(seq.generators),
           "terms": [[m.tolist() for m in tup] for tup in seq.terms]}
    if seq.domains is not None:
        out["domains"] = [d.to_json() for d in seq.domains]
    return out


def mesh_from_dict(data) -> "SimplicialHypersurface":
    # imported here, so that commands without a mesh do not load plconvex
    from .plconvex import SimplicialHypersurface
    try:
        return SimplicialHypersurface(_floats(data["vertices"]), _ints(data["simplices"]))
    except (KeyError, TypeError, InvalidInputError) as exc:
        raise InputFormatError(f"malformed mesh object: {exc}") from exc


def load_mesh(path) -> "SimplicialHypersurface":
    return mesh_from_dict(load_file(path))
