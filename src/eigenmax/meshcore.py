"""Triangulated surfaces with reference metric, conformal density, and group action.

The reference metric is carried as per-edge lengths, so assembled surfaces of
any genus need no embedding; vertex positions are kept for export and for the
builtin geometries.  The conformal variable is a per-vertex area density rho
multiplying the reference metric (lengths scale by sqrt(rho)).
"""

from __future__ import annotations

import copy
import json
from collections.abc import Mapping
from dataclasses import dataclass
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


class EquivariantError(MeshError):
    pass


class NonCommuting(EquivariantError):
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


def orbits(n, perms):
    """Orbit label of each of range(n) under the permutations, numbered in
    the order of each orbit's smallest member."""
    source = np.tile(np.arange(n), len(perms))
    target = np.concatenate(perms) if perms else source
    return components(np.arange(n), source, target)[1]


def _check_commuting(perms):
    for pa in perms:
        for pb in perms:
            if not np.array_equal(pa[pb], pb[pa]):
                raise NonCommuting("involutions must commute for a joint parity label")


def sector_basis(n, perms, signs):
    """Sparse orthonormal basis of the joint (+/-) sector of commuting involutions.

    Basis vectors are orbit sums weighted by the sign character, relative to
    the orbit's smallest vertex, in the order of that vertex; orbits on which
    the character is inconsistent (fixed by an odd generator) drop out.
    Without involutions it is the identity.
    """
    return SignSectors(n, perms).basis(signs)


class SignSectors:
    """The joint sign sectors of commuting involutions of range(n).

    The orbits, the group element that carries each orbit's smallest member
    to each member, and each orbit's stabilizer are found once, in one pass,
    for all sectors.  Element e of the group is the product of the
    involutions whose bits are set in e; a sector's sign tuple gives its
    character on them.
    """

    def __init__(self, n, perms):
        _check_commuting(perms)
        self.n = n
        self.labels = orbits(n, perms).astype(np.int64)  # int64: reduce codes orbit pairs
        roots = np.unique(self.labels, return_index=True)[1]  # each orbit's smallest member
        images = [roots]  # images[e]: the roots' images under element e
        for perm in perms:
            images += [perm[image] for image in images]
        images = np.array(images)
        self.element = np.zeros(n, dtype=np.int64)  # an element carrying the root to each member
        for e, image in enumerate(images):
            self.element[image] = e
        self.fixes = images == roots  # (elements, orbits): e stabilizes the orbit
        self.norm = 1.0 / np.sqrt(np.bincount(self.labels))

    def character(self, signs):
        """The sign of every group element in the sector."""
        char = np.ones(len(self.fixes))
        bits = np.arange(len(self.fixes))
        for k, s in enumerate(signs):
            char[((bits >> k) & 1) == 1] *= s
        return char

    def columns(self, signs):
        """(char, column): the character and each orbit's column in the
        sector's basis, -1 for an orbit on which the character is
        inconsistent (fixed by an element of sign -1)."""
        char = self.character(signs)
        consistent = ~np.any(self.fixes & (char < 0)[:, None], axis=0)
        return char, np.where(consistent, np.cumsum(consistent) - 1, -1)

    def gathers(self, signs):
        """(rows, cols, vals, k): the nonzeros of the sector's (n, k) basis R,
        rows ascending; a member of a kept orbit is one row of R."""
        char, column = self.columns(signs)
        rows = np.flatnonzero(column[self.labels] >= 0)
        orbit = self.labels[rows]
        return rows, column[orbit], char[self.element[rows]] * self.norm[orbit], int(column.max(initial=-1)) + 1

    def basis(self, signs):
        rows, cols, vals, k = self.gathers(signs)
        return sp.csr_matrix((vals, (rows, cols)), shape=(self.n, k))

    def reduce(self, A):
        """A function of a sign tuple giving R^T A R (CSR) for the sparse
        symmetric A on range(n).  An entry of R^T A R sums A over one pair of
        orbits with the character of the element that relates the two
        members, so A is summed once per orbit pair and element for all
        sectors."""
        A = A.tocoo()
        first, second = self.labels[A.row], self.labels[A.col]
        count = len(self.norm)
        pairs, pair = np.unique(first * count + second, return_inverse=True)
        order = len(self.fixes)
        relating = self.element[A.row] ^ self.element[A.col]
        sums = np.bincount(pair * order + relating, weights=A.data, minlength=len(pairs) * order)
        first, second = pairs // count, pairs % count
        sums = sums.reshape(len(pairs), order) * (self.norm[first] * self.norm[second])[:, None]

        def reduced(signs):
            char, column = self.columns(signs)
            keep = (column[first] >= 0) & (column[second] >= 0)
            rows, cols = column[first[keep]], column[second[keep]]
            k = int(column.max(initial=-1)) + 1
            indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=k))])
            return sp.csr_matrix((sums[keep] @ char, cols, indptr), shape=(k, k))

        return reduced


def edge_table(triangles, base):
    """The distinct edges of the triangles as sorted codes ``a * base + b``
    (a < b), each corner's index into them and how many triangles share each
    edge (one on the boundary).  Corner k faces the edge joining corners k+1
    and k+2; the index array has the shape of triangles."""
    triangles = np.asarray(triangles, dtype=np.int64)
    a, b = triangles[:, [1, 2, 0]], triangles[:, [2, 0, 1]]
    codes, inverse, counts = np.unique(
        np.minimum(a, b) * base + np.maximum(a, b), return_inverse=True, return_counts=True
    )
    return codes, inverse.reshape(triangles.shape), counts


def triangle_edges(triangles):
    """(E, 2) rows i < j of the distinct edges of the triangles, sorted, in
    the triangles' integer dtype."""
    triangles = np.asarray(triangles)
    base = int(triangles.max(initial=0)) + 1
    # one int64 key a*base + b per edge sorts as the rows (a, b) do, and a
    # 1-D unique is several times faster than np.unique(rows, axis=0)
    codes = edge_table(triangles, base)[0]
    return np.column_stack([codes // base, codes % base]).astype(triangles.dtype)


def _edge_arrays(record):
    """(pairs, lengths) arrays of an (edges, lengths) pair or a {(i, j): length} mapping."""
    if isinstance(record, Mapping):
        record = list(record), list(record.values())
    pairs = np.asarray(record[0], dtype=np.int64).reshape(-1, 2)
    lengths = np.asarray(record[1], dtype=float).reshape(-1)
    if len(lengths) != len(pairs):
        raise MeshError(f"{len(pairs)} edges but {len(lengths)} reference lengths")
    return pairs, lengths


def crisscross_cells(a, b, c, d, center, du, dv):
    """Flat rectangular cells a-b-c-d, each cut into four triangles at its center vertex.

    The corner and center arrays hold one vertex per cell.  a-b and d-c have
    length du, a-d and b-c length dv, and each corner is half a diagonal from
    its center.  Returns the (4k, 3) triangles (a, b, ct), (b, c, ct),
    (c, d, ct), (d, a, ct), four per cell in cell order, and the (edges,
    lengths) record of their distinct edges, i < j, rows sorted.
    """
    a, b, c, d, ct = (np.ravel(v).astype(np.int64) for v in (a, b, c, d, center))
    triangles = np.stack([a, b, ct, b, c, ct, c, d, ct, d, a, ct], axis=1).reshape(-1, 3)
    half_diag = 0.5 * float(np.hypot(du, dv))
    lo = np.concatenate([a, d, a, b, a, b, c, d])
    hi = np.concatenate([b, c, d, c, ct, ct, ct, ct])
    lengths = np.repeat([du, du, dv, dv, half_diag, half_diag, half_diag, half_diag], len(a))
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    base = int(hi.max(initial=0)) + 1
    first = np.unique(lo * base + hi, return_index=True)[1]
    return triangles, (np.column_stack([lo[first], hi[first]]), lengths[first])


class MeshGeometry:
    """Density-independent data of a mesh, shared by all its density copies.

    Built, and the combinatorics validated, when the mesh is constructed:
    the sorted edge record, the per-triangle reference lengths and the
    boundary edges.  Areas and cotangents come from one Heron/cotangent
    kernel on first use.
    Operators assembled from them (stiffness, reference masses,
    Dirichlet-to-Neumann blocks) are stored with ``cached``.  Every stored
    array is read-only, and the mesh fields the geometry was built from must
    not be mutated afterwards.

    Edges are coded as ``a * base + b``; ``base`` exceeds every vertex index.
    """

    def __init__(self, n_vertices, triangles, pairs, lengths):
        tri = triangles
        degenerate = (tri[:, 0] == tri[:, 1]) | (tri[:, 1] == tri[:, 2]) | (tri[:, 2] == tri[:, 0])
        if np.any(degenerate):
            raise MeshError(f"degenerate triangle {tri[np.argmax(degenerate)]}")
        self.base = 1 + max(n_vertices - 1, int(tri.max(initial=-1)), int(pairs.max(initial=-1)))
        edges, corner_edges, counts = edge_table(tri, self.base)
        shared = counts > 2
        if np.any(shared):
            raise MeshError(f"non-manifold edge {self.pair(edges[np.argmax(shared)])}")
        codes = pairs[:, 0] * self.base + pairs[:, 1]
        order = np.argsort(codes)
        codes = codes[order]
        if not np.array_equal(codes, edges):
            for bad, why in ((codes[1:][codes[1:] == codes[:-1]], "is listed twice"),
                             (np.setdiff1d(edges, codes), "has no reference length"),
                             (np.setdiff1d(codes, edges), "bounds no triangle")):
                if len(bad):
                    raise MeshError(f"edge {self.pair(bad[0])} {why}")
        #: (E,) sorted edge codes: the one edge lookup, ``edge_index``, searches them
        self.codes = _frozen(codes)
        self.edges = _frozen(pairs[order])
        self.lengths = _frozen(lengths[order])
        #: (m, 3) reference length of the edge opposite each corner
        self.triangle_lengths = _frozen(self.lengths[corner_edges])
        self.boundary_codes = _frozen(edges[counts == 1])
        self._cache = {}

    def pair(self, code):
        return (int(code) // self.base, int(code) % self.base)

    def edge_index(self, a, b):
        """Row in ``edges`` of each edge a[k]-b[k] (either order), or -1 where
        the two vertices are not joined by an edge."""
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        codes = lo * self.base + hi
        index = np.minimum(np.searchsorted(self.codes, codes), len(self.codes) - 1)
        found = (lo >= 0) & (hi < self.base) & (self.codes[index] == codes)
        return np.where(found, index, -1)

    @cached_property
    def areas(self):
        """Per-triangle reference area (Heron)."""
        la, lb, lc = self.triangle_lengths.T
        s = 0.5 * (la + lb + lc)
        return _frozen(np.sqrt(np.maximum(s * (s - la) * (s - lb) * (s - lc), 0.0)))

    @cached_property
    def corner_dots(self):
        """(m, 3) y**2 + z**2 - x**2 at each corner, x the opposite length and
        y, z the adjacent ones: 2*y*z times the cosine of the corner angle (law
        of cosines).  Cotangents, cosines, angles and triangle frames derive from it."""
        return _frozen(
            np.column_stack([y**2 + z**2 - x**2 for x, y, z in _corners(*self.triangle_lengths.T)])
        )

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


class SymmetricMesh:
    """Triangle mesh with reference edge lengths, density, panels and actions.

    positions: (n, 3) float array (export / construction geometry only)
    triangles: (m, 3) int array, consistently oriented
    edges: (edges, lengths) arrays or a {(i, j): length} mapping, i < j, of
        exactly the triangles' edges; stored as ``edges`` and ``lengths``
    density: (n,) positive array
    panels: dict edge(i<j) -> label for boundary edges ("mirror:<name>",
        "free" for Steklov/outer boundary, or a builtin panel name)
    actions: dict generator name -> vertex permutation (arrays) for the
        generators of the symmetry group; orbits, and so invariance, need
        only the generators.  Bundles that list every element still load.
    meta: free-form provenance (descriptor, builtin name, BRS flags)

    triangles and panels must not be mutated after construction, nor actions
    after the first solve: the density-independent ``geometry`` is derived
    from them once (the actions give its Laplace and Steklov sector blocks)
    and shared by every ``with_density`` copy.  density is replaced, not
    mutated in place: assigning it drops the memoized ``area``.
    """

    def __init__(self, positions, triangles, edges, density=None, panels=None, actions=None,
                 meta=None):
        self.positions = np.asarray(positions, dtype=float)
        self.triangles = np.asarray(triangles, dtype=np.int64)
        self.density = np.ones(len(self.positions)) if density is None else density
        self.density = np.asarray(self.density, dtype=float)
        self.panels = panels or {}
        self.actions = actions or {}
        self.meta = meta or {}
        self._check_manifold(edges)
        self._check_quality()
        self._check_actions()

    @property
    def edges(self):
        """(E, 2) read-only int64 endpoints, i < j, rows sorted."""
        return self.geometry.edges

    @property
    def lengths(self):
        """(E,) read-only reference lengths, aligned with ``edges``."""
        return self.geometry.lengths

    # -- combinatorics ------------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.positions)

    @property
    def n_triangles(self):
        return len(self.triangles)

    def boundary_vertices(self):
        codes = self.geometry.boundary_codes
        base = self.geometry.base
        return np.unique(np.concatenate([codes // base, codes % base])).astype(int)

    def has_boundary(self):
        return len(self.geometry.boundary_codes) > 0

    def euler_characteristic(self):
        return self.n_vertices - len(self.edges) + self.n_triangles

    def _check_manifold(self, edges):
        """Rejects degenerate triangles, edges of more than two triangles and
        edge records that are not exactly the triangle edges, each with one
        length, while building the geometry."""
        self.geometry = MeshGeometry(self.n_vertices, self.triangles, *_edge_arrays(edges))

    def _check_quality(self):
        for cosang in self.corner_cosines().T:
            if np.any(cosang > np.cos(np.deg2rad(MIN_ANGLE_DEG))):
                worst = int(np.argmax(cosang))
                raise DegenerateTriangle(
                    f"triangle {worst} has an angle below {MIN_ANGLE_DEG} degrees"
                )
            if np.any(cosang < -1 + 1e-12):
                raise DegenerateTriangle("triangle violates the triangle inequality")

    def _check_actions(self):
        """Rejects an action that is not one in-range index per vertex, each
        vertex hit once."""
        n = self.n_vertices
        for name, perm in self.actions.items():
            perm = np.asarray(perm)
            hit = np.zeros(n, dtype=bool)
            if perm.shape == (n,) and perm.dtype.kind in "iu" and np.all((perm >= 0) & (perm < n)):
                hit[perm] = True
            if not hit.all():
                raise MeshError(f"action {name} is not a permutation of the {n} vertices")

    def all_triangle_lengths(self):
        """Read-only (la, lb, lc): per triangle, the lengths opposite corners 0, 1, 2."""
        return tuple(self.geometry.triangle_lengths.T)

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

    @property
    def density(self):
        return self._density

    @density.setter
    def density(self, rho):
        # a new density, also on a copy.copy of a mesh, drops the memoized area
        self._density = rho
        self._area = None

    def area(self):
        """weighted_area at the mesh's density, computed once per density."""
        if self._area is None:
            self._area = weighted_area(self, self.density)
        return self._area

    def steklov_edges(self, labels=None):
        """Read-only (k, 2) endpoints and (k,) reference lengths of the Steklov
        boundary edges, in sorted edge order: the edges of the panels named in
        labels or, by default, of every panel that is not a mirror.
        Density-independent, so selected once per geometry and choice of labels."""
        key = ("steklov_edges", None if labels is None else frozenset(labels))
        return self.geometry.cached(key, lambda: self._select_edges(labels))

    def _select_edges(self, labels):
        edges = np.array([
            e for e, lab in sorted(self.panels.items())
            if (not lab.startswith("mirror:") if labels is None else lab in labels)
        ], dtype=np.int64).reshape(-1, 2)
        index = self.geometry.edge_index(edges[:, 0], edges[:, 1])
        if np.any(index < 0):
            stray = tuple(edges[np.argmax(index < 0)].tolist())
            raise MeshError(f"panel edge {stray} is not an edge")
        return _frozen(edges), _frozen(self.lengths[index])

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

    def triangle_images(self, perm):
        """Index of the triangle that the vertex permutation perm maps each
        triangle to, or -1 where the image is no triangle."""
        geo = self.geometry

        def codes(tri):  # sorted (a, b, c): the row of edge a-b, then c; negative if a-b is no edge
            tri = np.sort(tri, axis=1)
            return geo.edge_index(tri[:, 0], tri[:, 1]) * geo.base + tri[:, 2]

        own = codes(self.triangles)
        order = np.argsort(own)
        image = codes(perm[self.triangles])
        at = np.minimum(np.searchsorted(own[order], image), len(own) - 1)
        return np.where(own[order[at]] == image, order[at], -1)

    def check_action(self, name, tol=1e-9):
        """The named permutation maps triangles to triangles preserving lengths."""
        perm = np.asarray(self.actions[name])
        if perm.shape != (self.n_vertices,) or np.any((perm < 0) | (perm >= self.n_vertices)):
            return False
        if np.any(self.triangle_images(perm) < 0):
            return False
        row = self.geometry.edge_index(*perm[self.edges.T])
        off = np.abs(self.lengths[row] - self.lengths) > tol * np.maximum(1.0, self.lengths)
        return bool(np.all(row >= 0) and not np.any(off))

    # -- io ----------------------------------------------------------------------

    def to_json(self):
        return {
            "format": "eigenmax-mesh",
            "counts": {"vertices": self.n_vertices, "triangles": self.n_triangles},
            "positions": [[round(float(x), 17) for x in p] for p in self.positions],
            "triangles": self.triangles.tolist(),
            "edges": self.edges.tolist(),
            "edge_lengths": self.lengths.tolist(),
            "density": self.density.tolist(),
            "panels": [[int(a), int(b), lab] for (a, b), lab in sorted(self.panels.items())],
            "actions": {k: v.tolist() for k, v in sorted(self.actions.items())},
            "meta": self.meta,
        }

    def save(self, path):
        # one dumps call: json.dump streams through the pure-Python encoder
        with open(path, "w") as fh:
            fh.write(json.dumps(self.to_json(), sort_keys=True))

    @staticmethod
    def from_json(obj):
        if isinstance(obj, str):
            obj = json.loads(obj)
        panels = {(int(a), int(b)): lab for a, b, lab in obj.get("panels", [])}
        actions = {k: np.asarray(v, dtype=int) for k, v in obj.get("actions", {}).items()}
        return SymmetricMesh(
            positions=np.asarray(obj["positions"], dtype=float),
            triangles=np.asarray(obj["triangles"], dtype=int),
            edges=(obj["edges"], obj["edge_lengths"]),
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
    edges = triangle_edges(triangles)
    # vecdot takes each row's BLAS dot product, bitwise the per-edge
    # np.linalg.norm; norm(axis=1) and einsum differ in the last bit
    d = positions[edges[:, 0]] - positions[edges[:, 1]]
    return SymmetricMesh(
        positions=positions,
        triangles=triangles,
        edges=(edges, np.sqrt(np.vecdot(d, d))),
        panels=panels,
        actions=actions,
        meta=meta,
    )


def boundary_loops(mesh):
    """Boundary vertex loops in cyclic order (list of index lists)."""
    # the oriented edges (t0, t1), (t1, t2), (t2, t0) of every triangle, in
    # triangle order; a boundary edge is one of exactly one triangle
    tri = mesh.triangles
    a, b = tri, tri[:, [1, 2, 0]]
    base = mesh.geometry.base
    on_boundary = np.isin(np.minimum(a, b) * base + np.maximum(a, b), mesh.geometry.boundary_codes)
    # boundary loop traversed opposite to interior orientation
    nxt = dict(zip(b[on_boundary].tolist(), a[on_boundary].tolist()))
    loops = []
    seen = set()
    for start in nxt:
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


def ordered_star(tri, star):
    """The (triangle, corner) pairs of a vertex star in cyclic order following
    triangle orientation, or None if the walk does not close (an open fan).

    tri lists the triangles' vertices and star the (triangle, corner) pairs
    at which the vertex sits.
    """
    nxt = {tri[ti][(k + 1) % 3]: (ti, k) for ti, k in star}
    ti, k = star[0]
    start = cur = tri[ti][(k + 1) % 3]
    order = []
    for _ in range(len(star)):
        corner = nxt.get(cur)
        if corner is None:
            return None
        order.append(corner)
        ti, k = corner
        cur = tri[ti][(k + 2) % 3]
    return order if cur == start else None


def _ordered_ring(mesh, v):
    """1-ring neighbors of v in cyclic order following triangle orientation."""
    rows, corners = np.nonzero(mesh.triangles == v)
    tri = mesh.triangles[rows].tolist()
    order = ordered_star(tri, list(enumerate(corners.tolist()))) if len(rows) else None
    if order is None:
        raise MeshError(f"vertex {v} is not an interior disk vertex")
    return [tri[ti][(k + 1) % 3] for ti, k in order]


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
        edges = np.vstack([parent.edges, attached.edges + offset])
        lengths = np.concatenate([parent.lengths, attached.lengths])
        panels = dict(parent.panels)
        for (a, b), lab in attached.panels.items():
            panels[(a + offset, b + offset)] = lab
        actions = {}
        for name in parent.actions:
            if name in attached.actions:
                actions[name] = np.concatenate(
                    [parent.actions[name], attached.actions[name] + offset]
                )
        combined = SymmetricMesh(positions, triangles, (edges, lengths), None, panels, actions)
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

    n_t = max(1, int(np.ceil(m * L / (2 * np.pi))))
    pos, n = combined.positions, combined.n_vertices
    new_positions = [pos]
    # per pair: n_t+1 rows of ring vertices, aligned with the ring of p, and
    # n_t rows of cell centers
    rows, centers = [], []
    for p, q in pairs:
        ring_p, ring_q = np.asarray(rings[p]), np.asarray(rings[q])
        # weld the far ring onto q's hole boundary with reversed orientation;
        # when an involution in the action table swaps the two ends, align
        # the weld with it so the involution extends over the cylinder
        far = ring_q[-np.arange(m) % m]
        for perm in kept_actions.values():
            if int(perm[p]) == q and np.array_equal(perm[perm], np.arange(len(perm))):
                if np.array_equal(np.sort(perm[ring_p]), np.sort(ring_q)):
                    far = perm[ring_p]
                    break
        inner = n + np.arange((n_t - 1) * m).reshape(n_t - 1, m)
        rows.append(np.vstack([ring_p, inner, far]))
        centers.append(n + (n_t - 1) * m + np.arange(n_t * m).reshape(n_t, m))
        n += (2 * n_t - 1) * m
        axis = pos[q] - pos[p]
        new_positions += [
            (pos[ring_p] + axis * (np.arange(1, n_t) / n_t)[:, None, None]).reshape(-1, 3),
            (0.5 * (pos[ring_p] + pos[np.roll(ring_p, -1)])
             + axis * ((np.arange(n_t) + 0.5) / n_t)[:, None, None]).reshape(-1, 3),
        ]
    rows, centers = np.stack(rows), np.stack(centers)
    cyl_tris, (cyl_edges, cyl_lengths) = crisscross_cells(
        rows[:, :-1], np.roll(rows[:, :-1], -1, axis=2), np.roll(rows[:, 1:], -1, axis=2),
        rows[:, 1:], centers, 2 * np.pi * eps / m, L * eps / n_t,
    )

    # extend actions over the cylinder rows
    pair_of = {v: k for k, pq in enumerate(pairs) for v in pq}
    actions = {}
    for name, perm in kept_actions.items():
        new_perm = np.arange(n)
        new_perm[: len(perm)] = perm
        for src, (p, _) in enumerate(pairs):
            # the image pair, and whether the image runs along its cylinder backwards
            target = pair_of[int(perm[p])]
            flip = pairs[target][0] != int(perm[p])
            dst_rows = rows[target][::-1] if flip else rows[target]
            dst_centers = centers[target][::-1] if flip else centers[target]
            # the permutation restricted to the ring of p lands on the first
            # row of the image; express it in that row's indexing
            where = {v: k for k, v in enumerate(dst_rows[0].tolist())}
            idx = [where.get(v) for v in perm[rows[src][0]].tolist()]
            if None in idx:
                break
            idx = np.array(idx)
            new_perm[rows[src][1:-1]] = dst_rows[1:-1][:, idx]
            nxt = np.roll(idx, -1)
            new_perm[centers[src]] = dst_centers[:, np.where((idx + 1) % m == nxt, idx, nxt)]
        else:
            actions[name] = new_perm

    # the kept edges, except the rims, which take the cylinder's lengths
    kept = ~np.isin(combined.edges, pair_points).any(axis=1)
    kept &= ~np.isin(combined.edges @ [n, 1], cyl_edges @ [n, 1])
    edges = np.vstack([combined.edges[kept], cyl_edges])
    lengths = np.concatenate([combined.lengths[kept], cyl_lengths])
    positions = np.vstack(new_positions)
    keep = ~np.isin(combined.triangles, pair_points).any(axis=1)
    triangles = np.vstack([combined.triangles[keep], cyl_tris])
    # drop the excised center vertices, and the panels on them, and compact indices
    used = np.zeros(len(positions), dtype=bool)
    used[triangles.ravel()] = True
    remap = -np.ones(len(positions), dtype=int)
    remap[used] = np.arange(int(used.sum()))
    positions = positions[used]
    triangles = remap[triangles]
    panels = {
        (int(remap[a]), int(remap[b])): lab
        for (a, b), lab in combined.panels.items()
        if used[a] and used[b]
    }
    actions = {name: remap[perm[used]] for name, perm in actions.items()}
    out = SymmetricMesh(
        positions,
        triangles,
        (remap[edges], lengths),
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
