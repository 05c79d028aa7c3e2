"""Fundamental-chamber meshing and reflection assembly.

A closed surface M(G, b) is built from one meshed chamber: the spherical
fundamental polygon of G's standard action minus the circles prescribed by
the type b (f interior circles, e_i half-disks centered on mirror i, v_ij
disks centered at the corner where mirrors i and j cross), all realized as
spherical circles.  Meshing happens in a stereographic plane, where every
constraint curve is a round circle; reference lengths are the chordal
distances of the spherical positions.  The group then acts on copies of the
chamber, glued along panels.
"""

from __future__ import annotations

import logging

import numpy as np

from . import distmesh
from .groups import closure, standard_action
from .meshcore import MeshError, SymmetricMesh, components, edge_table, mesh_from_positions
from .taxonomy import (
    SurfaceDescriptor,
    TaxonomyError,
    genus_of_type,
    validate_type,
)


log = logging.getLogger(__name__)


class ChamberError(MeshError):
    pass


class InvalidType(ChamberError):
    pass


class InfeasibleResolution(ChamberError):
    pass


class GluingMismatch(ChamberError):
    pass


# ---------------------------------------------------------------------------
# Spherical/planar geometry helpers
# ---------------------------------------------------------------------------

def _normalize(v):
    return v / np.linalg.norm(v)


class Stereographic:
    """Stereographic projection from the pole onto the equatorial plane."""

    def __init__(self, pole):
        self.q = _normalize(np.asarray(pole, dtype=float))
        # deterministic orthonormal frame of the pole's orthogonal plane
        a = np.array([1.0, 0.0, 0.0])
        if abs(self.q @ a) > 0.9:
            a = np.array([0.0, 1.0, 0.0])
        self.e1 = _normalize(a - (a @ self.q) * self.q)
        self.e2 = np.cross(self.q, self.e1)

    def to_plane(self, s):
        s = np.asarray(s, dtype=float)
        denom = 1.0 - s @ self.q
        return np.array([s @ self.e1, s @ self.e2]) / denom

    def to_sphere(self, z):
        z = np.asarray(z, dtype=float)
        if z.ndim == 1:
            z = z[None, :]
        r2 = np.sum(z**2, axis=1)
        s = (
            2 * z[:, 0:1] * self.e1[None, :]
            + 2 * z[:, 1:2] * self.e2[None, :]
            + (r2[:, None] - 1) * self.q[None, :]
        ) / (1 + r2)[:, None]
        return s if s.shape[0] > 1 else s[0]


def _circumcircle(p1, p2, p3):
    """Center and radius of the circle through three planar points."""
    ax, ay = p1
    bx, by = p2
    cx, cy = p3
    d = 2 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if abs(d) < 1e-14:
        raise ChamberError("constraint circle degenerates to a line")
    ux = ((ax**2 + ay**2) * (by - cy) + (bx**2 + by**2) * (cy - ay)
          + (cx**2 + cy**2) * (ay - by)) / d
    uy = ((ax**2 + ay**2) * (cx - bx) + (bx**2 + by**2) * (ax - cx)
          + (cx**2 + cy**2) * (bx - ax)) / d
    center = np.array([ux, uy])
    return center, float(np.hypot(*(p1 - center)))


def _spherical_circle_points(center, radius, proj):
    """Three planar images of the spherical circle around center of geodesic radius."""
    c = _normalize(np.asarray(center, dtype=float))
    a = np.array([1.0, 0.0, 0.0])
    if abs(c @ a) > 0.9:
        a = np.array([0.0, 1.0, 0.0])
    u = _normalize(a - (a @ c) * c)
    v = np.cross(c, u)
    pts = []
    for t in (0.0, 2.1, 4.2):
        s = np.cos(radius) * c + np.sin(radius) * (np.cos(t) * u + np.sin(t) * v)
        pts.append(proj.to_plane(s))
    return pts


class PlanarCircle:
    """Round planar circle with a side convention for SDF assembly."""

    def __init__(self, center, radius, label):
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)
        self.label = label
        self.side = 1.0  # +1: domain inside the circle

    def signed(self, p):
        d = np.hypot(p[:, 0] - self.center[0], p[:, 1] - self.center[1]) - self.radius
        return self.side * d

    def residual(self, z):
        return abs(np.hypot(*(z - self.center)) - self.radius)

    def snap(self, z):
        v = z - self.center
        n = np.hypot(*v)
        if n < 1e-12:
            return z
        return self.center + v * (self.radius / n)


# ---------------------------------------------------------------------------
# Fundamental polygons
# ---------------------------------------------------------------------------

def fundamental_polygon(group):
    """Wall normals, corners and incenter of the standard chamber on S^2.

    Returns (normals (n,3), corners dict pair->unit vector or list for the
    digon, incenter unit vector).
    """
    n = group.n_generators
    if n == 0:
        return np.zeros((0, 3)), {}, np.array([0.0, 0.0, -1.0])
    act = standard_action(group, 3)
    normals = np.array(act.fixed_plane_normals)
    if n == 1:
        return normals, {}, normals[0].copy()
    if n == 2:
        # digon: both corners (the poles) are of pair type (0, 1)
        axis = _normalize(np.cross(normals[0], normals[1]))
        corners = {(0, 1): [axis, -axis]}
        incenter = _normalize(normals[0] + normals[1])
        return normals, corners, incenter
    corners = {}
    for i in range(3):
        for j in range(i + 1, 3):
            k = 3 - i - j
            c = np.cross(normals[i], normals[j])
            if np.linalg.norm(c) < 1e-12:
                raise ChamberError("degenerate corner")
            c = _normalize(c)
            if c @ normals[k] < 0:
                c = -c
            corners[(i, j)] = [c]
    incenter = _normalize(sum(v[0] for v in corners.values()))
    return normals, corners, incenter


def _wall_span(i, corners, normals):
    """Endpoints of wall i (corner unit vectors), or None for a full circle."""
    touching = []
    for (a, b), pts in corners.items():
        if i in (a, b):
            touching.extend(pts)
    if not touching:
        return None
    if len(touching) != 2:
        raise ChamberError("wall with unexpected corner count")
    return touching


def _slerp(a, b, t):
    ang = np.arccos(np.clip(a @ b, -1, 1))
    if ang < 1e-12:
        return a
    return (np.sin((1 - t) * ang) * a + np.sin(t * ang) * b) / np.sin(ang)


def _wall_tangent_at(c, wall, other_wall, normals):
    """Unit tangent of wall at corner c, pointing into the chamber's arc."""
    t = np.cross(normals[wall], c)
    nrm = np.linalg.norm(t)
    if nrm < 1e-12:
        raise ChamberError("corner does not lie on the wall")
    t = t / nrm
    if t @ normals[other_wall] < 0:
        t = -t
    return t


def _wall_arc(i, corners, normals):
    """(point(t), arc length) for wall i, t in [0, 1]."""
    span = _wall_span(i, corners, normals)
    if span is None:
        raise ChamberError("wall is a full circle; no arc parameterization")
    a, b = span
    if a @ b < -1 + 1e-9:
        # antipodal corners (the digon): walk the in-domain half great circle
        other = [j for j in range(len(normals)) if j != i][0]
        t_dir = _wall_tangent_at(a, i, other, normals)
        return (lambda t: np.cos(np.pi * t) * a + np.sin(np.pi * t) * t_dir), np.pi
    lam = float(np.arccos(np.clip(a @ b, -1, 1)))
    return (lambda t: _slerp(a, b, t)), lam


# ---------------------------------------------------------------------------
# Hole layout
# ---------------------------------------------------------------------------

class HoleSpec:
    def __init__(self, kind, center, radius, anchors):
        self.kind = kind  # "f" | ("e", i) | ("v", (i, j))
        self.center = center  # spherical unit vector
        self.radius = radius  # geodesic radius
        self.anchors = anchors  # spherical points to pin in the mesh


def _corner_capacity(group):
    if group.n_generators == 2:
        return 2
    return 1


def layout_holes(group, btype, normals, corners, incenter):
    """Deterministic spherical circle layout realizing the type b."""
    validate_type(group, btype)
    n = group.n_generators
    e = btype.e_dict()
    v = btype.v_dict()
    for (i, j), c in v.items():
        if c > _corner_capacity(group):
            raise InvalidType(
                f"type requests {c} corner circles on the ({i + 1},{j + 1}) corner; "
                f"only {_corner_capacity(group)} fit a chamber of {group}"
            )
    holes = []
    # corner circles
    corner_margin = {}
    for (i, j), count in v.items():
        pts = corners[(i, j)]
        spans = []
        for w in (i, j):
            if _wall_span(w, corners, normals) is None:
                spans.append(2 * np.pi)
            else:
                spans.append(_wall_arc(w, corners, normals)[1])
        r_v = min(0.35, 0.22 * min(spans))
        for k in range(count):
            c = pts[k]
            anchors = [
                np.cos(r_v) * c + np.sin(r_v) * _wall_tangent_at(c, w, o, normals)
                for w, o in ((i, j), (j, i))
            ]
            holes.append(HoleSpec(("v", (i, j)), c, r_v, anchors))
            corner_margin[_corner_key(c)] = r_v
    # wall circles
    for i in range(n):
        count = e.get(i, 0)
        if count == 0:
            continue
        span = _wall_span(i, corners, normals)
        if span is None:
            # full mirror circle (the 1* hemisphere): equally spaced points
            a = np.array([0.0, 0.0, 1.0])
            if abs(normals[i] @ a) > 0.9:
                a = np.array([0.0, 1.0, 0.0])
            base = _normalize(a - (a @ normals[i]) * normals[i])
            tangent = np.cross(normals[i], base)
            r_e = min(0.3, 0.35 * (2 * np.pi) / (2 * count + 2))
            for k in range(count):
                t = 2 * np.pi * k / count
                m = np.cos(t) * base + np.sin(t) * tangent
                holes.append(HoleSpec(("e", i), m, r_e, _wall_anchors(m, normals[i], r_e)))
        else:
            arc, lam = _wall_arc(i, corners, normals)
            a, b = span
            m_a = corner_margin.get(_corner_key(a), 0.0)
            m_b = corner_margin.get(_corner_key(b), 0.0)
            r_e = min(0.3, 0.3 * (lam - m_a - m_b) / (2 * count))
            lo = (m_a + 1.6 * r_e) / lam
            hi = 1 - (m_b + 1.6 * r_e) / lam
            if not lo < hi:
                raise InvalidType(f"wall {i + 1} cannot carry {count} circles")
            for k in range(count):
                t = lo + (hi - lo) * (k + 0.5) / count
                m = arc(t)
                holes.append(HoleSpec(("e", i), m, r_e, _wall_anchors(m, normals[i], r_e)))
    # interior circles
    f = btype.f
    if group.n_generators == 0:
        f = f - 1  # the first circle of M(a) is the outer tau-boundary
    if f > 0:
        if len(normals):
            inradius = min(np.arcsin(abs(incenter @ nrm)) for nrm in normals)
        else:
            inradius = 0.5 * np.pi
        if f == 1:
            holes.append(HoleSpec("f", incenter, 0.35 * inradius, []))
        else:
            d_f = 0.52 * inradius
            r_f = min(0.3 * (inradius - d_f), np.sin(d_f) * np.sin(np.pi / f) * 0.55)
            if r_f < 1e-3:
                raise InvalidType(f"cannot place {f} interior circles")
            a = np.array([1.0, 0.0, 0.0])
            if abs(incenter @ a) > 0.9:
                a = np.array([0.0, 1.0, 0.0])
            u = _normalize(a - (a @ incenter) * incenter)
            w = np.cross(incenter, u)
            for k in range(f):
                t = 2 * np.pi * k / f + 0.4
                c = np.cos(d_f) * incenter + np.sin(d_f) * (np.cos(t) * u + np.sin(t) * w)
                holes.append(HoleSpec("f", c, r_f, []))
    _check_separation(holes, normals)
    return holes


def _corner_key(c):
    return tuple(np.round(c, 9))


def _wall_anchors(m, normal, r_e):
    tangent = _normalize(np.cross(normal, m))
    return [
        np.cos(r_e) * m + np.sin(r_e) * tangent,
        np.cos(r_e) * m - np.sin(r_e) * tangent,
    ]


def _check_separation(holes, normals):
    for a in range(len(holes)):
        for b in range(a + 1, len(holes)):
            h1, h2 = holes[a], holes[b]
            dist = np.arccos(np.clip(h1.center @ h2.center, -1, 1))
            if dist < h1.radius + h2.radius + 0.25 * min(h1.radius, h2.radius):
                raise InvalidType("hole circles overlap; type too crowded for this layout")
    for h in holes:
        for i, nrm in enumerate(normals):
            on_wall = (h.kind != "f") and (
                (h.kind[0] == "e" and h.kind[1] == i)
                or (h.kind[0] == "v" and i in h.kind[1])
            )
            if on_wall:
                continue
            if np.arcsin(np.clip(abs(h.center @ nrm), 0, 1)) < h.radius + 0.05:
                raise InvalidType("hole circle too close to a mirror wall")


# ---------------------------------------------------------------------------
# Chamber meshing
# ---------------------------------------------------------------------------

def chamber_mesh(group, btype, target_edge_length, seed=0):
    """Mesh the chamber of (group, b) on the sphere.

    Returns a SymmetricMesh with trivial action whose boundary panels are
    labeled 'mirror:tau' and 'mirror:rho<i>', positions on the unit sphere.
    target_edge_length is the spherical edge target in radians.
    """
    validate_type(group, btype)
    genus_of_type(group, btype)  # raises on malformed types
    normals, corners, incenter = fundamental_polygon(group)
    holes = layout_holes(group, btype, normals, corners, incenter)
    proj = Stereographic(-incenter)

    curves = []
    for i, nrm in enumerate(normals):
        a = np.array([0.0, 0.0, 1.0])
        if abs(nrm @ a) > 0.9:
            a = np.array([0.0, 1.0, 0.0])
        u = _normalize(a - (a @ nrm) * nrm)
        w = np.cross(nrm, u)
        pts = []
        for t in (0.0, 2.1, 4.2):
            pts.append(proj.to_plane(np.cos(t) * u + np.sin(t) * w))
        center, radius = _circumcircle(*pts)
        curve = PlanarCircle(center, radius, f"rho{i + 1}")
        if np.hypot(*(np.zeros(2) - center)) > radius:
            curve.side = -1.0
        curves.append(curve)
    if group.n_generators == 0:
        # the outer tau-circle of M(a): fixed by convention at geodesic
        # radius pi/2 around the projection pole, i.e. the planar unit circle
        curves.append(PlanarCircle(np.zeros(2), 1.0, "tau"))
    hole_curves = []
    for h in holes:
        center, radius = _circumcircle(*_spherical_circle_points(h.center, h.radius, proj))
        c = PlanarCircle(center, radius, "tau")
        c.side = -1.0  # domain excludes the hole
        hole_curves.append(c)
    all_curves = curves + hole_curves

    def fd(p):
        return np.max([c.signed(p) for c in all_curves], axis=0)

    def fh(p):
        return (1.0 + np.sum(p**2, axis=1)) / 2.0

    # resolve every hole circle: cap the edge target by the smallest feature
    h_s = target_edge_length
    for h in holes:
        h_s = min(h_s, 0.85 * h.radius)
    if h_s < 2e-3:
        raise InfeasibleResolution("edge target is unreasonably small")

    pfix = []
    for pts in corners.values():
        for c in pts:
            if not any(h.kind[0] == "v" and np.allclose(h.center, c) for h in holes):
                pfix.append(proj.to_plane(c))
    for h in holes:
        for anchor in h.anchors:
            pfix.append(proj.to_plane(anchor))

    pts = np.array([c.center for c in all_curves] + (pfix or [np.zeros(2)]))
    radius_pad = max(c.radius for c in all_curves)
    lo = pts.min(axis=0) - radius_pad
    hi = pts.max(axis=0) + radius_pad
    # clip the bounding box to the domain's reach (walls can be huge circles)
    lo = np.maximum(lo, -4.0)
    hi = np.minimum(hi, 4.0)
    h0 = 0.5 * h_s
    p, tri = distmesh.distmesh2d(
        fd, fh, h0, (lo[0], lo[1], hi[0], hi[1]), pfix=pfix, seed=seed
    )
    if len(p) < 6:
        raise InfeasibleResolution("meshing produced too few vertices")

    return _chamber_from_planar(p, tri, all_curves, pfix, proj, group, btype, h_s)


def _chamber_from_planar(p, tri, all_curves, pfix, proj, group, btype, h_s):
    # classify and snap boundary vertices onto their constraint curves
    codes, _, shared = edge_table(tri, len(p))
    bedges = [divmod(int(c), len(p)) for c in codes[shared == 1]]
    bverts = sorted({v for e in bedges for v in e})
    tol = 0.35 * h_s * 2.0  # generous: distmesh projection is approximate
    membership = {v: [] for v in bverts}
    for v in bverts:
        z = p[v]
        local = (1 + z @ z) / 2.0
        residuals = [(c.residual(z) / local, k) for k, c in enumerate(all_curves)]
        residuals.sort()
        best, kbest = residuals[0]
        if best > tol:
            raise ChamberError("boundary vertex far from every constraint curve")
        for r, k in residuals:
            if r < 0.3 * h_s:
                membership[v].append(k)
        if not membership[v]:
            membership[v] = [kbest]
        if len(membership[v]) == 1:
            p[v] = all_curves[membership[v][0]].snap(z)
    # pinned anchor points belong to both adjacent curves
    for q in pfix:
        for v in bverts:
            if np.hypot(*(p[v] - q)) < 1e-9:
                membership[v] = [
                    k for k, c in enumerate(all_curves) if c.residual(np.asarray(q)) < 1e-7
                ]

    panels = {}
    for a, b in bedges:
        common = set(membership[a]) & set(membership[b])
        if not common:
            raise ChamberError("boundary edge does not follow a constraint curve")
        k = sorted(common)[0]
        panels[(a, b)] = "mirror:" + all_curves[k].label

    return mesh_from_positions(
        proj.to_sphere(p),
        tri,
        panels=panels,
        meta={
            "chamber": {"group": group.to_json(), "b": btype.to_json()},
            "edge_target": h_s,
        },
    )


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

class AssemblyGroup:
    """Finite group generated by tau and/or mirror matrices for gluing.

    Elements are (tau bit, matrix) pairs in the breadth-first order of
    ``groups.closure``, where tau is labelled by the two-point swap [1, 0]
    and a mirror by [0, 1].  ``right[name][k]`` is element k times the named
    generator and ``left[a, b]`` is element a times element b.
    """

    def __init__(self, gen_specs):
        # gen_specs: list of (name, tau_bit, matrix)
        self.gen_specs = list(gen_specs)
        gen_names = [name for name, _, _ in self.gen_specs]
        swaps = np.array([[t, 1 - t] for _, t, _ in self.gen_specs], dtype=int).reshape(-1, 2)
        group = closure([m for _, _, m in self.gen_specs], swaps)
        self.tau_bits = group.labels[:, 0]
        self.matrices = group.matrices
        self.names = [".".join(gen_names[i] for i in word) or "e" for word in group.words]
        self.parities = [(-1) ** len(word) for word in group.words]
        self.order = group.order
        self.right = {name: group.right[:, i] for i, name in enumerate(gen_names)}
        self.left = group.left_table()


def _first_copies(a, b):
    """Distinct edges among a[k]-b[k] as (E, 2) rows lo < hi, in the order
    of their first occurrence, with the index k of that occurrence."""
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    _, first = np.unique(lo * (1 + hi.max(initial=0)) + hi, return_index=True)
    first.sort()
    return np.column_stack([lo[first], hi[first]]), first


def reflect_assemble(chamber, assembly, free_labels=()):
    """Glue |assembly| copies of the chamber along its mirror panels.

    Panels named in free_labels are left as boundary (label 'free') instead
    of being glued; every other mirror panel must correspond to a generator
    of the assembly group.  Copy g of chamber vertex v is node g * n_v + v;
    glued vertices are numbered in the order of their smallest node.  The
    actions are the generators' vertex permutations, keyed by generator
    name: generator s carries copy g of a vertex to copy s * g.
    """
    n_e = assembly.order
    n_v = chamber.n_vertices
    glued_labels = {name for name, _, _ in assembly.gen_specs}

    mirror_vertices = {}
    for (a, b), lab in chamber.panels.items():
        name = lab.split(":", 1)[1]
        if name in free_labels:
            continue
        if name not in glued_labels:
            raise GluingMismatch(f"panel {name} has no generator in the assembly group")
        mirror_vertices.setdefault(name, set()).update((a, b))

    # copy g and copy g*s share the vertices on the mirror of generator s
    nodes = np.arange(n_e * n_v).reshape(n_e, n_v)
    source, target = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
    for name, verts in mirror_vertices.items():
        verts = sorted(verts)
        source.append(nodes[:, verts].ravel())
        target.append(nodes[assembly.right[name]][:, verts].ravel())
    n_glued, glued = components(nodes.ravel(), np.concatenate(source), np.concatenate(target))
    glued = glued.astype(np.int64).reshape(n_e, n_v)

    positions = np.zeros((n_glued, 3))
    for g in range(n_e):
        positions[glued[g]] = chamber.positions @ assembly.matrices[g].T

    triangles = glued[:, chamber.triangles]
    flip = np.array(assembly.parities) < 0
    triangles[flip] = triangles[flip][:, :, ::-1]
    triangles = triangles.reshape(-1, 3)
    # each glued triangle appears once per chamber copy it bounds; keep the first
    _, first = np.unique(np.sort(triangles, axis=1), axis=0, return_index=True)
    triangles = triangles[np.sort(first)]

    # a glued edge keeps the position of its first copy; copies share one length
    a, b = chamber.edges.T
    edges, first = _first_copies(glued[:, a].ravel(), glued[:, b].ravel())
    lengths = chamber.lengths[first % len(a)]

    free = [e for e, lab in chamber.panels.items() if lab.split(":", 1)[1] in free_labels]
    pairs = np.array(free, dtype=int).reshape(-1, 2)
    keys, _ = _first_copies(glued[:, pairs[:, 0]].T.ravel(), glued[:, pairs[:, 1]].T.ravel())
    panels = dict.fromkeys(map(tuple, keys.tolist()), "free")

    actions = {}  # the generators are elements 1..k of the closure order
    for gamma in range(1, len(assembly.gen_specs) + 1):
        perm = np.zeros(n_glued, dtype=int)
        perm[glued] = glued[assembly.left[gamma]]
        actions[assembly.names[gamma]] = perm

    mesh = SymmetricMesh(
        positions,
        triangles,
        (edges, lengths),
        panels=panels,
        actions=actions,
        meta=dict(chamber.meta),
    )
    mesh.meta["chambers"] = n_e
    mesh.meta["chamber_vertices"] = n_v
    return mesh


def _assembly_specs(descriptor, chamber_group):
    act = standard_action(chamber_group, 3)
    specs = []
    free = []
    if descriptor.family == "closed":
        specs.append(("tau", 1, np.eye(3)))
        for i in range(chamber_group.n_generators):
            specs.append((f"rho{i + 1}", 0, act.matrix(i)))
    elif descriptor.family == "bounded_tau":
        free.append("tau")
        for i in range(chamber_group.n_generators):
            specs.append((f"rho{i + 1}", 0, act.matrix(i)))
    else:  # bounded_rho1
        free.append("rho1")
        specs.append(("tau", 1, np.eye(3)))
        for i in range(1, chamber_group.n_generators):
            specs.append((f"rho{i + 1}", 0, act.matrix(i)))
    return specs, free


def build_mesh(descriptor, target_vertices=2000, seed=0):
    """Chamber-mesh and assemble the surface of a descriptor.

    The assembled mesh carries one vertex permutation per generator of the
    assembly group, 'free' Steklov panels for bounded descriptors, and BRS
    guard metadata.
    """
    group = descriptor.group
    specs, free = _assembly_specs(descriptor, group)
    assembly = AssemblyGroup(specs)
    area = 0.8 * 4 * np.pi / group.order  # chamber area less the excised circles
    requested = target_vertices // assembly.order
    n_chamber = max(60, requested)
    log.debug(
        "%s: %d chambers, %d chamber vertices requested, %d planned%s",
        descriptor.label(), assembly.order, requested, n_chamber,
        " (60-vertex floor overrides the resolution)" if n_chamber > requested else "",
    )
    # 0.72: measured correction for the mesher's equilibrium spacing
    h_s = 0.72 * float(np.sqrt(area / (0.866 * n_chamber)))
    chamber = chamber_mesh(group, descriptor.btype, h_s, seed=seed)
    mesh = reflect_assemble(chamber, assembly, free_labels=free)
    log.debug(
        "%s: assembled %d vertices from %d-vertex chambers",
        descriptor.label(), mesh.n_vertices, chamber.n_vertices,
    )
    mesh.meta["descriptor"] = descriptor.to_json()
    if descriptor.family == "closed":
        expected_chi = 2 - 2 * descriptor.genus()
        mesh.meta["brs"] = {"closed": True, "bound": 16 * np.pi}
    else:
        g, k = descriptor.genus(), descriptor.boundary_count()
        expected_chi = 2 - 2 * g - k
        mesh.meta["brs"] = {"closed": False, "bound": 4 * np.pi}
    if mesh.euler_characteristic() != expected_chi:
        raise GluingMismatch(
            f"assembled Euler characteristic {mesh.euler_characteristic()} != {expected_chi}"
        )
    if descriptor.family != "closed":
        from .meshcore import boundary_loops

        loops = boundary_loops(mesh)
        if len(loops) != descriptor.boundary_count():
            raise GluingMismatch(
                f"assembled boundary circles {len(loops)} != {descriptor.boundary_count()}"
            )
    return mesh
