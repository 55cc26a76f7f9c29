"""Tiny SVG writer for two-dimensional chart figures.

Scenes are lists of elements: {"type": "polygon"|"polyline"|"points"|"circle",
coordinates in chart units, optional style keys}.  Output is deterministic.
"""

import numpy as np

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _fmt(x):
    return f"{x:.6f}"


def render_scene(elements, path, size=480, pad=0.08):
    pts = []
    for el in elements:
        if el["type"] == "circle":
            c, r = np.asarray(el["center"], float), el["radius"]
            pts.append(c + r)
            pts.append(c - r)
        else:
            pts.extend(np.asarray(el["points"], float))
    pts = np.asarray(pts, dtype=float)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-9))
    lo = lo - pad * span
    scale = size / (span * (1 + 2 * pad))

    def to_px(p):
        return ((p[0] - lo[0]) * scale, size - (p[1] - lo[1]) * scale)

    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
             f'height="{size}" viewBox="0 0 {size} {size}">',
             f'<rect width="{size}" height="{size}" fill="white"/>']
    for i, el in enumerate(elements):
        color = el.get("color", _PALETTE[i % len(_PALETTE)])
        if el["type"] == "circle":
            cx, cy = to_px(np.asarray(el["center"], float))
            lines.append(
                f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
                f'r="{_fmt(el["radius"] * scale)}" fill="none" '
                f'stroke="{color}" stroke-width="1.5"/>')
            continue
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


def domain_outline(dom, samples=256):
    """Chart outline of a 2-d domain as a closed point loop."""
    b = dom.backend
    if b.kind == "ellipsoid":
        ang = 2 * np.pi * np.arange(samples) / samples
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        vals, vecs = np.linalg.eigh(b.shape_matrix)
        half = vecs @ np.diag(1.0 / np.sqrt(vals)) @ vecs.T
        return b.center[None, :] + dirs @ half
    return b.verts[b._hull[2]]   # the extreme points, counterclockwise
