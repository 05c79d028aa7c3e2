"""Signed-distance-function mesh generation in the plane.

Iterative force-equilibrium mesher (equilateral bar lengths, Delaunay
retriangulation): robust for domains described by a signed distance d(z) < 0
with a relative element-size field, which is exactly what the chamber
domains (circular-arc polygons with circular holes) need.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import Delaunay


def _unique_bars(tri):
    bars = np.vstack([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]])
    bars.sort(axis=1)
    return np.unique(bars, axis=0)


def _triangulate(p, fd, geps):
    tri = Delaunay(p).simplices
    centroid = p[tri].mean(axis=1)
    return tri[fd(centroid) < -geps]


def distmesh2d(fd, fh, h0, bbox, pfix=(), seed=0, max_iters=220):
    """Mesh {fd < 0}; returns (points, triangles).

    fd: vectorized signed distance, fh: relative size field, h0: base edge
    length near fh == min, bbox: (xmin, ymin, xmax, ymax), pfix: points kept
    exactly.
    """
    dptol, ttol, fscale, deltat = 1e-3, 0.1, 1.2, 0.2
    geps = 1e-3 * h0
    deps = np.sqrt(np.finfo(float).eps) * h0
    xmin, ymin, xmax, ymax = bbox
    pfix = np.asarray(pfix, dtype=float).reshape(-1, 2)

    x, y = np.meshgrid(
        np.arange(xmin, xmax + h0, h0),
        np.arange(ymin, ymax + h0 * np.sqrt(3) / 2, h0 * np.sqrt(3) / 2),
    )
    x[1::2] += h0 / 2
    p = np.column_stack([x.ravel(), y.ravel()])
    p = p[fd(p) < geps]
    r0 = 1.0 / fh(p) ** 2
    rng = np.random.default_rng(seed)
    p = p[rng.random(len(p)) < r0 / r0.max()]
    if len(pfix):
        keep = np.ones(len(p), dtype=bool)
        for q in pfix:
            keep &= np.hypot(p[:, 0] - q[0], p[:, 1] - q[1]) > h0 / 2
        p = np.vstack([pfix, p[keep]])
    nfix = len(pfix)

    pold = p + 1e10
    tri = None
    for _ in range(max_iters):
        if np.max(np.hypot(*(p - pold).T)) > ttol * h0:
            pold = p.copy()
            tri = _triangulate(p, fd, geps)
            bars = _unique_bars(tri)
        barvec = p[bars[:, 0]] - p[bars[:, 1]]
        blen = np.hypot(barvec[:, 0], barvec[:, 1])
        hbars = fh(0.5 * (p[bars[:, 0]] + p[bars[:, 1]]))
        l0 = hbars * fscale * np.sqrt(np.sum(blen**2) / np.sum(hbars**2))
        force = np.maximum(l0 - blen, 0.0)
        fvec = (force / np.maximum(blen, 1e-12))[:, None] * barvec
        ftot = np.zeros_like(p)
        np.add.at(ftot, bars[:, 0], fvec)
        np.add.at(ftot, bars[:, 1], -fvec)
        ftot[:nfix] = 0.0
        p = p + deltat * ftot
        d = fd(p)
        out = d > 0
        if np.any(out):
            px = p[out].copy()
            dgx = (fd(px + [deps, 0.0]) - d[out]) / deps
            dgy = (fd(px + [0.0, deps]) - d[out]) / deps
            norm2 = np.maximum(dgx**2 + dgy**2, 1e-12)
            p[out, 0] -= d[out] * dgx / norm2
            p[out, 1] -= d[out] * dgy / norm2
        interior_move = deltat * np.hypot(ftot[~out if len(out) else slice(None), 0],
                                          ftot[~out if len(out) else slice(None), 1])
        if len(interior_move) and np.max(interior_move) < dptol * h0:
            break
    tri = _triangulate(p, fd, geps)
    p, tri = _drop_unused(p, tri)
    if min_angle_deg(p, tri) < 2.0:
        p, tri = _strip_slivers(p, tri, nfix)
    return p, tri


def _drop_unused(p, tri):
    used = np.zeros(len(p), dtype=bool)
    used[tri.ravel()] = True
    remap = -np.ones(len(p), dtype=int)
    remap[used] = np.arange(int(used.sum()))
    return p[used], remap[tri]


def _corner_angles_deg(p, tri):
    """(m, 3) angle in degrees at each corner of the planar triangles."""
    a, b, c = p[tri[:, 0]], p[tri[:, 1]], p[tri[:, 2]]
    angles = []
    for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
        e1, e2 = v - u, w - u
        cosang = np.sum(e1 * e2, axis=1) / np.maximum(
            np.hypot(*e1.T) * np.hypot(*e2.T), 1e-300
        )
        angles.append(np.degrees(np.arccos(np.clip(cosang, -1, 1))))
    return np.column_stack(angles)


def min_angle_deg(p, tri):
    return float(np.min(_corner_angles_deg(p, tri)))


def _strip_slivers(p, tri, nfix, threshold=2.0):
    """Drop boundary triangles below the angle threshold (rare distmesh slivers)."""
    for _ in range(4):
        bad = np.any(_corner_angles_deg(p, tri) < threshold, axis=1)
        if not np.any(bad):
            break
        tri = tri[~bad]
    return _drop_unused(p, tri)
