"""Reference geometries with known spectra.

All constructors return a SymmetricMesh with unit density and, where it is
cheap and useful, named reflection symmetries in the action table.
"""

from __future__ import annotations

import numpy as np

from .meshcore import MeshError, SymmetricMesh, _edge_key, crisscross_cells, mesh_from_positions

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
        # the edges ab, bc, ca of each face in turn; midpoints are numbered
        # by first appearance
        ends = faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        codes = np.min(ends, axis=1) * len(verts) + np.max(ends, axis=1)
        _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
        rank = np.empty(len(first), dtype=np.int64)
        rank[np.argsort(first)] = np.arange(len(first))
        a, b = ends[np.sort(first)].T
        mids = verts[a] + verts[b]
        # sqrt(vecdot) is bitwise the per-vector np.linalg.norm
        mids = mids / np.sqrt(np.vecdot(mids, mids))[:, None]
        ab, bc, ca = (len(verts) + rank[inverse]).reshape(-1, 3).T
        a, b, c = faces.T
        faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1).reshape(-1, 3)
        verts = np.vstack([verts, mids])
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
    my = max(3, round(m * aspect))
    dx, dy = 1.0 / m, aspect / my
    corner = lambda i, j: (i % m) * my + j % my
    center = lambda i, j: m * my + corner(i, j)
    i, j = np.meshgrid(np.arange(m), np.arange(my), indexing="ij")
    pos = np.zeros((2 * m * my, 3))
    pos[:, 0] = np.concatenate([i * dx, (i + 0.5) * dx], axis=None)
    pos[:, 1] = np.concatenate([j * dy, (j + 0.5) * dy], axis=None)
    tris, lengths = crisscross_cells(
        corner(i, j), corner(i + 1, j), corner(i + 1, j + 1), corner(i, j + 1), center(i, j), dx, dy
    )
    sx = np.concatenate([corner(-i, j), center(-i - 1, j)], axis=None)
    sy = np.concatenate([corner(i, -j), center(i, -j - 1)], axis=None)
    return SymmetricMesh(
        pos,
        tris,
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
    # the center, then ring j = 1..m of 6j vertices at radius j/m
    sizes = np.array([1] + [6 * j for j in range(1, m + 1)])
    first = np.cumsum(sizes) - sizes
    ring, size = np.repeat(np.arange(m + 1), sizes), np.repeat(sizes, sizes)
    k = np.arange(len(ring)) - first[ring]
    th = 2 * np.pi * k / size
    pos = np.column_stack([ring / m * np.cos(th), ring / m * np.sin(th), np.zeros(len(ring))])
    rings = [list(range(f, f + n)) for f, n in zip(first.tolist(), sizes.tolist())]
    tris = []
    for j in range(m):
        tris += _stitch_rings(rings[j], rings[j + 1])
    rim = rings[-1]
    panels = {_edge_key(rim[k], rim[(k + 1) % len(rim)]): "free" for k in range(len(rim))}
    # reflection across the x-axis: theta -> -theta on every ring
    perm = first[ring] + (-k) % size
    return mesh_from_positions(
        pos, np.asarray(tris, dtype=int), panels=panels, actions={"sy": perm},
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
    i, j = np.meshgrid(np.arange(m), np.arange(n_t + 1), indexing="ij")
    ic, jc = i[:, :-1], j[:, :-1]
    theta = np.concatenate([i * dth, (ic + 0.5) * dth], axis=None)
    height = np.concatenate([j * dt, (jc + 0.5) * dt], axis=None)
    pos = np.column_stack([np.cos(theta), np.sin(theta), height])
    tris, lengths = crisscross_cells(
        vid(ic, jc), vid(ic + 1, jc), vid(ic + 1, jc + 1), vid(ic, jc + 1), cid(ic, jc), dth, dt
    )
    # the rim edges: end0, then endL, at each i
    ring = np.arange(m)
    rims = np.stack([vid(ring, 0), vid(ring + 1, 0), vid(ring, n_t), vid(ring + 1, n_t)], axis=1)
    rims = np.sort(rims.reshape(-1, 2), axis=1).tolist()
    labels = ["free", "free"] if both_steklov else ["end0", "endL"]
    panels = dict(zip(map(tuple, rims), labels * m))
    tau = np.concatenate([vid(i, n_t - j), cid(ic, n_t - 1 - jc)], axis=None)
    sth = np.concatenate([vid(-i, j), cid(-ic - 1, jc)], axis=None)
    return SymmetricMesh(
        pos,
        tris,
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
