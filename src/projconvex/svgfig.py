"""Tiny SVG writer for two-dimensional chart figures.

Scenes are lists of elements: {"type": "polygon"|"polyline"|"points",
"points": coordinates in chart units}; "points" elements may set a dot
"radius" in pixels.  Element i is drawn in palette colour i.  Output is
deterministic.
"""

import numpy as np

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
_SIZE = 480         # figure width and height in pixels
_PAD = 0.08         # margin on each side, as a fraction of the scene's span
_OUTLINE_SAMPLES = 256


def _fmt(x):
    return f"{x:.6f}"


def render_scene(elements, path):
    pts = np.concatenate([np.asarray(el["points"], float) for el in elements])
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-9))
    lo = lo - _PAD * span
    scale = _SIZE / (span * (1 + 2 * _PAD))

    def to_px(p):
        return ((p[0] - lo[0]) * scale, _SIZE - (p[1] - lo[1]) * scale)

    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" '
             f'height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">',
             f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>']
    for i, el in enumerate(elements):
        color = _PALETTE[i % len(_PALETTE)]
        coords = [to_px(p) for p in np.asarray(el["points"], float)]
        if el["type"] == "points":
            rad = el.get("radius", 2.0)
            for cx, cy in coords:
                lines.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
                             f'r="{rad}" fill="{color}"/>')
            continue
        attr = " ".join(f"{_fmt(cx)},{_fmt(cy)}" for cx, cy in coords)
        tag = "polygon" if el["type"] == "polygon" else "polyline"
        lines.append(f'<{tag} points="{attr}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def domain_outline(dom):
    """Chart outline of a 2-d domain as a closed point loop."""
    b = dom.backend
    if b.kind == "ellipsoid":
        ang = 2 * np.pi * np.arange(_OUTLINE_SAMPLES) / _OUTLINE_SAMPLES
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        vals, vecs = np.linalg.eigh(b.shape_matrix)
        half = vecs @ np.diag(1.0 / np.sqrt(vals)) @ vecs.T
        return b.center[None, :] + dirs @ half
    return b.verts[b._hull[2]]   # the extreme points, counterclockwise
