"""Triangulated surfaces with reference metric, conformal density, and group action.

The reference metric is carried as per-edge lengths, so assembled surfaces of
any genus need no embedding; vertex positions are kept for export and for the
builtin geometries.  The conformal variable is a per-vertex area density rho
multiplying the reference metric (lengths scale by sqrt(rho)).
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

MIN_ANGLE_DEG = 1.0


class MeshError(ValueError):
    pass


class DegenerateTriangle(MeshError):
    pass


class NonPositiveDensity(MeshError):
    pass


class NonInvariantDensity(MeshError):
    pass


class GluingMismatch(MeshError):
    pass


class NonEquivariantPairing(MeshError):
    pass


class OverlappingDisks(MeshError):
    pass


def _edge_key(a, b):
    return (a, b) if a < b else (b, a)


def components(vertices, a, b):
    """Connected components of the graph on the sorted vertex indices with edges a[k]-b[k].

    Every endpoint must be one of the vertices.  Returns (count, labels), one
    label per listed vertex; components are numbered in the order of their
    smallest vertex.
    """
    a, b = np.searchsorted(vertices, a), np.searchsorted(vertices, b)
    n = len(vertices)
    graph = sp.coo_matrix((np.ones(len(a)), (a, b)), shape=(n, n))
    return connected_components(graph, directed=False)


def edge_endpoints(mesh):
    """(a, b) integer arrays of the endpoints of every edge, in edge order."""
    return np.array(list(mesh.edge_lengths), dtype=int).reshape(-1, 2).T


class MeshGeometry:
    """Density-independent data of a mesh, shared by all its density copies.

    Built, and the combinatorics validated, when the mesh is constructed:
    the per-triangle reference lengths (one vectorized lookup of the edge
    codes) and the boundary edges.  Areas and cotangents come from one
    Heron/cotangent kernel on first use.
    Operators assembled from them (stiffness, reference masses,
    Dirichlet-to-Neumann blocks) are stored with ``cached``.  Every stored
    array is read-only, and the mesh fields the geometry was built from must
    not be mutated afterwards.

    Edges are coded as ``a * base + b``; ``base`` exceeds every vertex index.
    """

    def __init__(self, n_vertices, triangles, edge_lengths):
        tri = triangles
        degenerate = (tri[:, 0] == tri[:, 1]) | (tri[:, 1] == tri[:, 2]) | (tri[:, 2] == tri[:, 0])
        if np.any(degenerate):
            raise MeshError(f"degenerate triangle {tri[np.argmax(degenerate)]}")
        pairs = np.array(list(edge_lengths), dtype=np.int64).reshape(-1, 2)
        values = np.fromiter(edge_lengths.values(), dtype=float, count=len(pairs))
        self.base = 1 + max(n_vertices - 1, int(tri.max(initial=-1)), int(pairs.max(initial=-1)))
        # the edge opposite corner k joins corners k+1 and k+2
        a, b = tri[:, [1, 2, 0]], tri[:, [2, 0, 1]]
        corner_codes = np.minimum(a, b) * self.base + np.maximum(a, b)
        edges, counts = np.unique(corner_codes, return_counts=True)
        shared = counts > 2
        if np.any(shared):
            raise MeshError(f"non-manifold edge {self.pair(edges[np.argmax(shared)])}")
        codes = pairs[:, 0] * self.base + pairs[:, 1]
        order = np.argsort(codes)
        codes = codes[order]
        missing = ~np.isin(edges, codes)
        if np.any(missing):
            raise MeshError(f"edge {self.pair(edges[np.argmax(missing)])} has no reference length")
        #: (m, 3) reference length of the edge opposite each corner
        self.lengths = _frozen(values[order][np.searchsorted(codes, corner_codes)])
        self.boundary_codes = _frozen(edges[counts == 1])
        self._cache = {}

    def pair(self, code):
        return (int(code) // self.base, int(code) % self.base)

    @cached_property
    def areas(self):
        """Per-triangle reference area (Heron)."""
        la, lb, lc = self.lengths.T
        s = 0.5 * (la + lb + lc)
        return _frozen(np.sqrt(np.maximum(s * (s - la) * (s - lb) * (s - lc), 0.0)))

    @cached_property
    def corner_dots(self):
        """(m, 3) y**2 + z**2 - x**2 at each corner, x the opposite length and
        y, z the adjacent ones: 2*y*z times the cosine of the corner angle (law
        of cosines).  Cotangents, cosines, angles and triangle frames derive from it."""
        return _frozen(np.column_stack([y**2 + z**2 - x**2 for x, y, z in _corners(*self.lengths.T)]))

    @cached_property
    def cotangents(self):
        """(m, 3) cotangent of the reference angle at each corner."""
        four_area = 4.0 * np.maximum(self.areas, 1e-150)
        return _frozen(self.corner_dots / four_area[:, None])

    def cached(self, key, build):
        """The value stored under key; build() makes it on the first request only."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]


def _corners(la, lb, lc):
    """(x, y, z) for corners 0, 1, 2: the opposite length, then the two adjacent ones."""
    return (la, lb, lc), (lb, lc, la), (lc, la, lb)


def _frozen(array):
    array.flags.writeable = False
    return array


@dataclass
class SymmetricMesh:
    """Triangle mesh with reference edge lengths, density, panels and actions.

    positions: (n, 3) float array (export / construction geometry only)
    triangles: (m, 3) int array, consistently oriented
    edge_lengths: dict edge(i<j) -> reference length
    density: (n,) positive array
    panels: dict edge(i<j) -> label for boundary edges ("mirror:<name>",
        "free" for Steklov/outer boundary, or a builtin panel name)
    actions: dict generator name -> vertex permutation (arrays) for the
        generators of the symmetry group; orbits, and so invariance, need
        only the generators.  Bundles that list every element still load.
    meta: free-form provenance (descriptor, builtin name, BRS flags)

    triangles, edge_lengths and panels must not be mutated after
    construction: the density-independent ``geometry`` is derived from them
    once and shared by every ``with_density`` copy.
    """

    positions: np.ndarray
    triangles: np.ndarray
    edge_lengths: dict
    density: np.ndarray = None
    panels: dict = field(default_factory=dict)
    actions: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        self.triangles = np.asarray(self.triangles, dtype=np.int64)
        if self.density is None:
            self.density = np.ones(len(self.positions))
        self.density = np.asarray(self.density, dtype=float)
        self._check_manifold()
        self._check_quality()

    # -- combinatorics ------------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.positions)

    @property
    def n_triangles(self):
        return len(self.triangles)

    def edges(self):
        return list(self.edge_lengths.keys())

    def boundary_edges(self):
        return [self.geometry.pair(c) for c in self.geometry.boundary_codes]

    def boundary_vertices(self):
        codes = self.geometry.boundary_codes
        base = self.geometry.base
        return np.unique(np.concatenate([codes // base, codes % base])).astype(int)

    def has_boundary(self):
        return len(self.geometry.boundary_codes) > 0

    def euler_characteristic(self):
        return self.n_vertices - len(self.edge_lengths) + self.n_triangles

    def _check_manifold(self):
        """Rejects degenerate triangles, edges of more than two triangles and
        triangle edges without a reference length, while building the geometry."""
        self.geometry = MeshGeometry(self.n_vertices, self.triangles, self.edge_lengths)

    def _check_quality(self):
        for cosang in self.corner_cosines().T:
            if np.any(cosang > np.cos(np.deg2rad(MIN_ANGLE_DEG))):
                worst = int(np.argmax(cosang))
                raise DegenerateTriangle(
                    f"triangle {worst} has an angle below {MIN_ANGLE_DEG} degrees"
                )
            if np.any(cosang < -1 + 1e-12):
                raise DegenerateTriangle("triangle violates the triangle inequality")

    def all_triangle_lengths(self):
        """Read-only (la, lb, lc): per triangle, the lengths opposite corners 0, 1, 2."""
        return tuple(self.geometry.lengths.T)

    def corner_cosines(self):
        """(m, 3) cosine of the reference angle at each corner (law of cosines)."""
        two_yz = np.column_stack([2 * y * z for _, y, z in _corners(*self.all_triangle_lengths())])
        return self.geometry.corner_dots / two_yz

    def reference_areas(self):
        """Per-triangle area of the reference metric (Heron); read-only."""
        return self.geometry.areas

    # -- panels --------------------------------------------------------------

    def panel_edges(self, label):
        return [e for e, lab in self.panels.items() if lab == label]

    def panel_labels(self):
        return sorted(set(self.panels.values()))

    def panel_vertices(self, label):
        verts = set()
        for a, b in self.panel_edges(label):
            verts.update((a, b))
        return np.array(sorted(verts), dtype=int)

    # -- density and measures -------------------------------------------------

    def with_density(self, rho):
        """Copy with a new density, sharing the geometry; validates positivity
        and invariance in O(n) and does not re-check the mesh."""
        rho = np.asarray(rho, dtype=float)
        if rho.shape != (self.n_vertices,):
            raise MeshError("density must be one value per vertex")
        if np.any(rho <= 0):
            raise NonPositiveDensity("density must be strictly positive")
        name = self.non_invariant_action(rho)
        if name is not None:
            raise NonInvariantDensity(f"density is not invariant under {name}")
        out = copy.copy(self)
        out.density = rho.copy()
        return out

    def area(self):
        return weighted_area(self, self.density)

    def steklov_edges(self, labels=None):
        """Read-only (k, 2) endpoints and (k,) reference lengths of the Steklov
        boundary edges, in sorted edge order: the edges of the panels named in
        labels or, by default, of every panel that is not a mirror.
        Density-independent, so selected once per geometry and choice of labels."""
        key = ("steklov_edges", None if labels is None else frozenset(labels))
        return self.geometry.cached(key, lambda: self._select_edges(labels))

    def _select_edges(self, labels):
        edges = [
            e for e, lab in sorted(self.panels.items())
            if (not lab.startswith("mirror:") if labels is None else lab in labels)
        ]
        lengths = np.array([self.edge_lengths[e] for e in edges], dtype=float)
        return _frozen(np.array(edges, dtype=np.int64).reshape(-1, 2)), _frozen(lengths)

    def boundary_length(self, labels=None):
        edges, lengths = self.steklov_edges(labels)
        root = np.sqrt(self.density)
        return float(np.sum(lengths * (0.5 * (root[edges[:, 0]] + root[edges[:, 1]]))))

    # -- actions ---------------------------------------------------------------

    def non_invariant_action(self, rho):
        """Name of the first action that moves the vertex field rho by more
        than a relative 1e-12, or None when rho is invariant."""
        for name, perm in self.actions.items():
            if not np.allclose(rho[perm], rho, rtol=1e-12, atol=0.0):
                return name
        return None

    def check_action(self, name, tol=1e-9):
        """The named permutation maps triangles to triangles preserving lengths."""
        perm = self.actions[name]
        tri_set = {tuple(sorted(t)) for t in self.triangles.tolist()}
        for t in self.triangles:
            img = tuple(sorted(int(perm[v]) for v in t))
            if img not in tri_set:
                return False
        for (a, b), l in self.edge_lengths.items():
            l2 = self.edge_lengths.get(_edge_key(int(perm[a]), int(perm[b])))
            if l2 is None or abs(l2 - l) > tol * max(1.0, l):
                return False
        return True

    # -- io ----------------------------------------------------------------------

    def to_json(self):
        edges = sorted(self.edge_lengths.keys())
        return {
            "format": "eigenmax-mesh",
            "counts": {"vertices": self.n_vertices, "triangles": self.n_triangles},
            "positions": [[round(float(x), 17) for x in p] for p in self.positions],
            "triangles": self.triangles.tolist(),
            "edges": [[int(a), int(b)] for a, b in edges],
            "edge_lengths": [float(self.edge_lengths[e]) for e in edges],
            "density": [float(r) for r in self.density],
            "panels": [[int(a), int(b), lab] for (a, b), lab in sorted(self.panels.items())],
            "actions": {k: v.tolist() for k, v in sorted(self.actions.items())},
            "meta": self.meta,
        }

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, sort_keys=True)

    @staticmethod
    def from_json(obj):
        if isinstance(obj, str):
            obj = json.loads(obj)
        lengths = {
            (int(a), int(b)): float(l)
            for (a, b), l in zip(obj["edges"], obj["edge_lengths"])
        }
        panels = {(int(a), int(b)): lab for a, b, lab in obj.get("panels", [])}
        actions = {k: np.asarray(v, dtype=int) for k, v in obj.get("actions", {}).items()}
        return SymmetricMesh(
            positions=np.asarray(obj["positions"], dtype=float),
            triangles=np.asarray(obj["triangles"], dtype=int),
            edge_lengths=lengths,
            density=np.asarray(obj["density"], dtype=float),
            panels=panels,
            actions=actions,
            meta=obj.get("meta", {}),
        )

    @staticmethod
    def load(path):
        with open(path) as fh:
            return SymmetricMesh.from_json(json.load(fh))


def weighted_area(mesh, rho):
    """Area of the metric rho times the reference metric, rho averaged per triangle."""
    return float(np.sum(mesh.reference_areas() * rho[mesh.triangles].mean(axis=1)))


def mesh_from_positions(positions, triangles, panels=None, actions=None, meta=None):
    """Mesh whose reference lengths are the Euclidean distances of positions."""
    positions = np.asarray(positions, dtype=float)
    triangles = np.asarray(triangles, dtype=np.int64)
    lengths = {}
    for t in triangles:
        for a, b in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
            key = _edge_key(int(a), int(b))
            if key not in lengths:
                lengths[key] = float(np.linalg.norm(positions[key[0]] - positions[key[1]]))
    return SymmetricMesh(
        positions=positions,
        triangles=triangles,
        edge_lengths=lengths,
        panels=panels or {},
        actions=actions or {},
        meta=meta or {},
    )


def boundary_loops(mesh):
    """Boundary vertex loops in cyclic order (list of index lists)."""
    succ = {}
    for t in mesh.triangles:
        for a, b in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
            key = _edge_key(int(a), int(b))
            succ.setdefault(key, []).append((int(a), int(b)))
    # boundary edges appear once; keep their oriented form
    nxt = {}
    for key, occ in succ.items():
        if len(occ) == 1:
            a, b = occ[0]
            nxt[b] = a  # boundary loop traversed opposite to interior orientation
    loops = []
    seen = set()
    for start in list(nxt):
        if start in seen:
            continue
        loop = [start]
        seen.add(start)
        cur = nxt[start]
        while cur != start:
            loop.append(cur)
            seen.add(cur)
            cur = nxt[cur]
        loops.append(loop)
    return loops


def export_obj(mesh, path, positions=None):
    """Write an OBJ file with the mesh faces and the given or stored positions."""
    pos = mesh.positions if positions is None else np.asarray(positions, dtype=float)
    if pos.shape[1] == 2:
        pos = np.column_stack([pos, np.zeros(len(pos))])
    with open(path, "w") as fh:
        for p in pos:
            fh.write(f"v {p[0]:.9g} {p[1]:.9g} {p[2]:.9g}\n")
        for t in mesh.triangles:
            fh.write(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}\n")


# ---------------------------------------------------------------------------
# Cylinder gluing (surgered metrics)
# ---------------------------------------------------------------------------

@dataclass
class GluedMetricSpec:
    """Parameters for inserting flat cylinders of radius eps, height L*eps."""

    eps: float
    L: float
    pairs: list  # list of (vertex in parent, vertex in attached or None-parent)


def _ordered_ring(mesh, v):
    """1-ring neighbors of v in cyclic order following triangle orientation."""
    nxt = {}
    for t in mesh.triangles:
        t = [int(x) for x in t]
        if v in t:
            k = t.index(v)
            a, b = t[(k + 1) % 3], t[(k + 2) % 3]
            nxt[a] = b
    start = next(iter(nxt))
    ring = [start]
    cur = nxt[start]
    while cur != start:
        ring.append(cur)
        if len(ring) > len(nxt) + 1:
            raise MeshError(f"vertex {v} is not an interior disk vertex")
        cur = nxt[cur]
    return ring


def glue_cylinder(parent, attached, spec, require_equivariant=()):
    """Excise 1-ring disks around paired vertices and insert flat cylinders.

    attached may be None for self-gluing within the parent.  The combined
    mesh keeps the parent's panels.  Actions under which the pairing is
    equivariant are extended over the cylinders; other actions are dropped,
    except that any name in require_equivariant raises NonEquivariantPairing
    when the pairing breaks it.
    """
    if attached is not None:
        offset = parent.n_vertices
        positions = np.vstack([parent.positions, attached.positions])
        triangles = np.vstack([parent.triangles, attached.triangles + offset])
        lengths = dict(parent.edge_lengths)
        for (a, b), l in attached.edge_lengths.items():
            lengths[(a + offset, b + offset)] = l
        panels = dict(parent.panels)
        for (a, b), lab in attached.panels.items():
            panels[(a + offset, b + offset)] = lab
        actions = {}
        for name in parent.actions:
            if name in attached.actions:
                actions[name] = np.concatenate(
                    [parent.actions[name], attached.actions[name] + offset]
                )
        combined = SymmetricMesh(positions, triangles, lengths, None, panels, actions)
        pairs = [(p, q + offset) for p, q in spec.pairs]
    else:
        combined = parent
        pairs = list(spec.pairs)

    eps, L = float(spec.eps), float(spec.L)
    pair_points = [v for pq in pairs for v in pq]
    if len(set(pair_points)) != len(pair_points):
        raise OverlappingDisks("pair points must be distinct")

    rings = {}
    for v in pair_points:
        rings[v] = _ordered_ring(combined, v)
    m = len(rings[pair_points[0]])
    if any(len(r) != m for r in rings.values()):
        raise GluingMismatch("excised circles must have matching vertex counts")
    ring_sets = {v: set(r) for v, r in rings.items()}
    for v in pair_points:
        for w in pair_points:
            if v != w and (w in ring_sets[v] or ring_sets[v] & ring_sets[w]):
                raise OverlappingDisks(f"excised disks at {v} and {w} touch")

    # keep only actions under which the pairing is equivariant
    pair_lookup = {}
    for p, q in pairs:
        pair_lookup[p] = q
        pair_lookup[q] = p
    kept_actions = {}
    for name, perm in combined.actions.items():
        ok = all(pair_lookup.get(int(perm[p])) == int(perm[q]) for p, q in pairs)
        if not ok and name in require_equivariant:
            raise NonEquivariantPairing(f"action {name} does not preserve the pairing")
        if ok:
            kept_actions[name] = perm
    combined = replace(combined, actions=kept_actions)

    n_t = max(1, int(np.ceil(m * L / (2 * np.pi))))
    keep = np.ones(len(combined.triangles), dtype=bool)
    for i, t in enumerate(combined.triangles):
        if any(v in pair_points for v in t):
            keep[i] = False
    triangles = [list(t) for t in combined.triangles[keep]]
    positions = [p for p in combined.positions]
    lengths = {
        e: l
        for e, l in combined.edge_lengths.items()
        if not (e[0] in pair_points or e[1] in pair_points)
    }

    circ_len = 2 * np.pi * eps / m
    axial_len = L * eps / n_t
    half_diag = 0.5 * float(np.hypot(circ_len, axial_len))

    cyl_rows = {}  # pair index -> n_t+1 rows of ring vertices, aligned with ring of p
    cyl_centers = {}  # pair index -> n_t rows of quad-center vertices
    for pi, (p, q) in enumerate(pairs):
        ring_p = rings[p]
        ring_q = rings[q]
        rows = [ring_p]
        axis = combined.positions[q] - combined.positions[p]
        for j in range(1, n_t):
            row = []
            for i in range(m):
                positions.append(combined.positions[ring_p[i]] + axis * (j / n_t))
                row.append(len(positions) - 1)
            rows.append(row)
        # weld the far ring onto q's hole boundary with reversed orientation;
        # when an involution in the action table swaps the two ends, align
        # the weld with it so the involution extends over the cylinder
        far = None
        for perm in kept_actions.values():
            if int(perm[p]) == q and np.array_equal(perm[perm], np.arange(len(perm))):
                cand = [int(perm[v]) for v in ring_p]
                if set(cand) == set(ring_q):
                    far = cand
                    break
        if far is None:
            far = [ring_q[(-i) % m] for i in range(m)]
        rows.append(far)
        centers = []
        for j in range(n_t):
            crow = []
            for i in range(m):
                mid = 0.5 * (
                    combined.positions[ring_p[i]]
                    + combined.positions[ring_p[(i + 1) % m]]
                ) + axis * ((j + 0.5) / n_t)
                positions.append(mid)
                crow.append(len(positions) - 1)
            centers.append(crow)
        cyl_rows[pi] = rows
        cyl_centers[pi] = centers
        for j in range(n_t):
            r0, r1 = rows[j], rows[j + 1]
            for i in range(m):
                a, b = r0[i], r0[(i + 1) % m]
                c, d = r1[(i + 1) % m], r1[i]
                ct = centers[j][i]
                triangles += [[a, b, ct], [b, c, ct], [c, d, ct], [d, a, ct]]
                lengths[_edge_key(a, b)] = circ_len
                lengths[_edge_key(d, c)] = circ_len
                lengths[_edge_key(a, d)] = axial_len
                lengths[_edge_key(b, c)] = axial_len
                for node in (a, b, c, d):
                    lengths[_edge_key(node, ct)] = half_diag
        # boundary rings carry the flat-cylinder lengths too (shared edges)
        for i in range(m):
            lengths[_edge_key(rows[0][i], rows[0][(i + 1) % m])] = circ_len
            lengths[_edge_key(rows[-1][i], rows[-1][(i + 1) % m])] = circ_len

    # extend actions over the cylinder rows
    actions = {}
    for name, perm in combined.actions.items():
        new_perm = np.arange(len(positions), dtype=int)
        new_perm[: len(perm)] = perm
        ok = True
        for pi, (p, q) in enumerate(pairs):
            ip = int(perm[p])
            # image pair and whether orientation along the cylinder flips
            qi = pair_lookup[ip]
            target = next(k for k, pq in enumerate(pairs) if set(pq) == {ip, qi})
            flip = pairs[target][0] != ip
            src_rows, src_centers = cyl_rows[pi], cyl_centers[pi]
            dst_rows, dst_centers = cyl_rows[target], cyl_centers[target]
            ring_p = rings[p]
            ring_img = rings[pairs[target][0]]
            # the permutation restricted to the ring of p lands on a ring of
            # the image pair; express it in that ring's indexing
            try:
                if not flip:
                    idx_map = [ring_img.index(int(perm[v])) for v in ring_p]
                else:
                    # perm maps ring of p onto the far ring of the image
                    # cylinder; the far row is ring_q reversed
                    far = dst_rows[-1]
                    idx_map = [far.index(int(perm[v])) for v in ring_p]
            except ValueError:
                ok = False
                break
            for j in range(1, n_t):
                dst_j = n_t - j if flip else j
                for i in range(m):
                    new_perm[src_rows[j][i]] = dst_rows[dst_j][idx_map[i]]
            for j in range(n_t):
                dst_j = n_t - 1 - j if flip else j
                for i in range(m):
                    a = idx_map[i]
                    b = idx_map[(i + 1) % m]
                    ci = a if (a + 1) % m == b else b
                    new_perm[src_centers[j][i]] = dst_centers[dst_j][ci]
        if ok:
            actions[name] = new_perm

    panels = {e: lab for e, lab in combined.panels.items() if e in lengths}
    # drop the excised center vertices and compact indices
    triangles = np.asarray(triangles, dtype=int)
    used = np.zeros(len(positions), dtype=bool)
    used[triangles.ravel()] = True
    remap = -np.ones(len(positions), dtype=int)
    remap[used] = np.arange(int(used.sum()))
    positions = np.asarray(positions)[used]
    triangles = remap[triangles]
    lengths = {(int(remap[a]), int(remap[b])): l for (a, b), l in lengths.items()}
    panels = {
        (int(remap[a]), int(remap[b])): lab
        for (a, b), lab in panels.items()
        if used[a] and used[b]
    }
    actions = {name: remap[perm[used]] for name, perm in actions.items()}
    out = SymmetricMesh(
        positions,
        triangles,
        lengths,
        None,
        panels,
        actions,
        dict(combined.meta),
    )
    # the interior interpolation extends an action only when the weld
    # alignment cooperates; verify, and keep just the true isometries
    for name in list(actions):
        if not out.check_action(name):
            if name in require_equivariant:
                raise NonEquivariantPairing(f"action {name} does not extend over the weld")
            del out.actions[name]
    return out
