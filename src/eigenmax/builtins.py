"""Reference geometries with known spectra.

All constructors return a SymmetricMesh with unit density and, where it is
cheap and useful, named reflection symmetries in the action table.
"""

from __future__ import annotations

import numpy as np

from .meshcore import MeshError, SymmetricMesh, _edge_key, mesh_from_positions

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0

_ICO_VERTS = np.array(
    [
        (-1, GOLDEN, 0), (1, GOLDEN, 0), (-1, -GOLDEN, 0), (1, -GOLDEN, 0),
        (0, -1, GOLDEN), (0, 1, GOLDEN), (0, -1, -GOLDEN), (0, 1, -GOLDEN),
        (GOLDEN, 0, -1), (GOLDEN, 0, 1), (-GOLDEN, 0, -1), (-GOLDEN, 0, 1),
    ],
    dtype=float,
)

_ICO_FACES = np.array(
    [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ],
    dtype=int,
)


def _match_permutation(positions, images, tol=1e-9):
    """Permutation sending vertex i to the vertex nearest images[i]."""
    from scipy.spatial import cKDTree

    tree = cKDTree(positions)
    dist, idx = tree.query(images)
    if np.max(dist) > tol:
        raise MeshError("map is not a vertex symmetry of this mesh")
    perm = np.asarray(idx, dtype=int)
    if len(set(perm.tolist())) != len(perm):
        raise MeshError("map is not a bijection on vertices")
    return perm


def round_sphere(level):
    """Icosphere at the given subdivision level (10*4^n + 2 vertices).

    Carries the coordinate reflections sx, sy, sz (e.g. sz is the equatorial
    reflection z -> -z).
    """
    verts = _ICO_VERTS / np.linalg.norm(_ICO_VERTS[0])
    faces = _ICO_FACES.copy()
    for _ in range(level):
        midpoint = {}
        new_faces = []
        verts_list = [v for v in verts]

        def mid(a, b):
            key = _edge_key(a, b)
            if key not in midpoint:
                m = verts_list[a] + verts_list[b]
                m = m / np.linalg.norm(m)
                verts_list.append(m)
                midpoint[key] = len(verts_list) - 1
            return midpoint[key]

        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        verts = np.asarray(verts_list)
        faces = np.asarray(new_faces, dtype=int)
    actions = {
        name: _match_permutation(verts, verts * np.array(sign))
        for name, sign in (("sx", [-1, 1, 1]), ("sy", [1, -1, 1]), ("sz", [1, 1, -1]))
    }
    return mesh_from_positions(
        verts, faces, actions=actions, meta={"builtin": "sphere", "level": level}
    )


def flat_torus(level, aspect=1.0):
    """Unit-width flat torus [0,1] x [0,aspect] on a criss-cross grid.

    The criss-cross pattern (cell centers added) makes the coordinate
    reflections sx: x -> -x and sy: y -> -y exact mesh symmetries.
    """
    m = 8 * 2**level
    my = max(2, round(m * aspect))
    dx, dy = 1.0 / m, aspect / my
    corner = lambda i, j: (i % m) * my + (j % my)
    center = lambda i, j: m * my + (i % m) * my + (j % my)
    pos = np.zeros((2 * m * my, 3))
    for i in range(m):
        for j in range(my):
            pos[corner(i, j), :2] = (i * dx, j * dy)
            pos[center(i, j), :2] = ((i + 0.5) * dx, (j + 0.5) * dy)
    tris = []
    lengths = {}
    diag = 0.5 * float(np.hypot(dx, dy))
    for i in range(m):
        for j in range(my):
            c00, c10 = corner(i, j), corner(i + 1, j)
            c11, c01 = corner(i + 1, j + 1), corner(i, j + 1)
            ct = center(i, j)
            tris += [[c00, c10, ct], [c10, c11, ct], [c11, c01, ct], [c01, c00, ct]]
            lengths[_edge_key(c00, c10)] = dx
            lengths[_edge_key(c01, c11)] = dx
            lengths[_edge_key(c00, c01)] = dy
            lengths[_edge_key(c10, c11)] = dy
            for node in (c00, c10, c11, c01):
                lengths[_edge_key(node, ct)] = diag
    sx = np.zeros(2 * m * my, dtype=int)
    sy = np.zeros(2 * m * my, dtype=int)
    for i in range(m):
        for j in range(my):
            sx[corner(i, j)] = corner(-i, j)
            sx[center(i, j)] = center(-i - 1, j)
            sy[corner(i, j)] = corner(i, -j)
            sy[center(i, j)] = center(i, -j - 1)
    return SymmetricMesh(
        pos,
        np.asarray(tris, dtype=int),
        lengths,
        actions={"sx": sx, "sy": sy},
        meta={"builtin": "torus", "level": level, "aspect": aspect},
    )


def _stitch_rings(inner, outer):
    """Triangles filling the annulus between two concentric vertex rings.

    Rings are index lists in matching cyclic (CCW) order; a two-pointer merge
    by angle keeps triangles well shaped when the counts differ.
    """
    ni, no = len(inner), len(outer)
    if ni == 1:
        return [[inner[0], outer[j], outer[(j + 1) % no]] for j in range(no)]
    tris = []
    i = j = 0
    while i < ni or j < no:
        adv_inner = (i + 1) / ni <= (j + 1) / no
        if i == ni:
            adv_inner = False
        if j == no:
            adv_inner = True
        if adv_inner:
            tris.append([inner[i % ni], outer[j % no], inner[(i + 1) % ni]])
            i += 1
        else:
            tris.append([inner[i % ni], outer[j % no], outer[(j + 1) % no]])
            j += 1
    return tris


def unit_disk(level):
    """Polar mesh of the unit disk; boundary panel 'free', 6*(4*2^level) rim vertices."""
    m = 4 * 2**level
    pos = [(0.0, 0.0, 0.0)]
    rings = [[0]]
    for j in range(1, m + 1):
        r = j / m
        n = 6 * j
        ring = []
        for k in range(n):
            th = 2 * np.pi * k / n
            pos.append((r * np.cos(th), r * np.sin(th), 0.0))
            ring.append(len(pos) - 1)
        rings.append(ring)
    tris = []
    for j in range(m):
        tris += _stitch_rings(rings[j], rings[j + 1])
    rim = rings[-1]
    panels = {_edge_key(rim[k], rim[(k + 1) % len(rim)]): "free" for k in range(len(rim))}
    # reflection across the x-axis: theta -> -theta on every ring
    perm = np.zeros(len(pos), dtype=int)
    for ring in rings:
        n = len(ring)
        for k in range(n):
            perm[ring[k]] = ring[(-k) % n]
    return mesh_from_positions(
        np.asarray(pos), np.asarray(tris, dtype=int), panels=panels, actions={"sy": perm},
        meta={"builtin": "disk", "level": level},
    )


def flat_cylinder(length, level, both_steklov=False, waist_symmetric=False):
    """Flat cylinder S^1(2*pi) x [0, length], structured grid, flat metric.

    Panels 'end0' (t=0) and 'endL' (t=length).  With both_steklov both ends
    are labeled 'free' instead (annulus usage).  waist_symmetric forces an
    even number of axial intervals so the reflection t -> length - t fixes a
    vertex ring; that reflection is stored as action 'tau', and the theta
    reflection as 'stheta'.
    """
    m = 24 * 2**level
    n_t = max(2, round(m * length / (2 * np.pi)))
    if waist_symmetric and n_t % 2:
        n_t += 1
    dth = 2 * np.pi / m
    dt = length / n_t
    vid = lambda i, j: (i % m) * (n_t + 1) + j
    cid = lambda i, j: m * (n_t + 1) + (i % m) * n_t + j
    pos = np.zeros((m * (n_t + 1) + m * n_t, 3))
    for i in range(m):
        for j in range(n_t + 1):
            pos[vid(i, j)] = (np.cos(i * dth), np.sin(i * dth), j * dt)
        for j in range(n_t):
            th = (i + 0.5) * dth
            pos[cid(i, j)] = (np.cos(th), np.sin(th), (j + 0.5) * dt)
    tris = []
    lengths = {}
    half_diag = 0.5 * float(np.hypot(dth, dt))
    for i in range(m):
        for j in range(n_t):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            ct = cid(i, j)
            tris += [[a, b, ct], [b, c, ct], [c, d, ct], [d, a, ct]]
            lengths[_edge_key(a, b)] = dth
            lengths[_edge_key(d, c)] = dth
            lengths[_edge_key(a, d)] = dt
            lengths[_edge_key(b, c)] = dt
            for node in (a, b, c, d):
                lengths[_edge_key(node, ct)] = half_diag
    panels = {}
    for i in range(m):
        panels[_edge_key(vid(i, 0), vid(i + 1, 0))] = "free" if both_steklov else "end0"
        panels[_edge_key(vid(i, n_t), vid(i + 1, n_t))] = "free" if both_steklov else "endL"
    tau = np.zeros(len(pos), dtype=int)
    sth = np.zeros(len(pos), dtype=int)
    for i in range(m):
        for j in range(n_t + 1):
            tau[vid(i, j)] = vid(i, n_t - j)
            sth[vid(i, j)] = vid(-i, j)
        for j in range(n_t):
            tau[cid(i, j)] = cid(i, n_t - 1 - j)
            sth[cid(i, j)] = cid(-i - 1, j)
    return SymmetricMesh(
        pos,
        np.asarray(tris, dtype=int),
        lengths,
        panels=panels,
        actions={"tau": tau, "stheta": sth},
        meta={"builtin": "cylinder", "level": level, "length": length},
    )


def conformal_annulus(modulus, level):
    """Annulus of conformal modulus height/circumference, as a flat cylinder.

    Both boundary circles are Steklov ('free'); 'tau' is the reflection
    across the waist circle, whose fixed vertex ring is the single oval.
    """
    length = 2 * np.pi * modulus
    mesh = flat_cylinder(length, level, both_steklov=True, waist_symmetric=True)
    mesh.meta["builtin"] = "annulus"
    mesh.meta["modulus"] = modulus
    return mesh


def builtin(name, level=2, **kwargs):
    """Dispatcher: sphere | torus | disk | cylinder:L=<x> | annulus:mod=<x>."""
    if name == "sphere":
        return round_sphere(level)
    if name == "torus":
        return flat_torus(level, aspect=kwargs.get("aspect", 1.0))
    if name == "disk":
        return unit_disk(level)
    if name == "cylinder":
        return flat_cylinder(kwargs.get("length", 1.0), level)
    if name == "annulus":
        return conformal_annulus(kwargs.get("modulus", 0.5), level)
    raise MeshError(f"unknown builtin {name!r}")
