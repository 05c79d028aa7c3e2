import numpy as np
import pytest

from eigenmax.chambers import (
    AssemblyGroup,
    GluingMismatch,
    InvalidType,
    _assembly_specs,
    build_mesh,
    chamber_mesh,
    fundamental_polygon,
    reflect_assemble,
)
from eigenmax.fem import laplace_spectrum, normalized_first, steklov_spectrum
from eigenmax.groups import make_group
from eigenmax.meshcore import SymmetricMesh, _edge_key
from eigenmax.taxonomy import (
    SurfaceDescriptor,
    TaxonomyError,
    TypeB,
    closed_surface,
    halve,
    sphere_family,
)

Z2 = make_group("onestar")
D2 = make_group("dihedral", (2,))
D3 = make_group("dihedral", (3,))


def test_fundamental_polygons():
    normals, corners, incenter = fundamental_polygon(make_group("platonic", (2, 3, 3)))
    assert len(corners) == 3
    for (i, j), pts in corners.items():
        c = pts[0]
        assert abs(c @ normals[i]) < 1e-12 and abs(c @ normals[j]) < 1e-12
    assert all(incenter @ n > 0 for n in normals)


def test_hemisphere_chamber_for_sphere():
    chamber = chamber_mesh(make_group("trivial"), TypeB.make(f=1), 0.12)
    # all boundary panels are the tau circle; positions on the unit sphere
    assert set(chamber.panels.values()) == {"mirror:tau"}
    assert np.allclose(np.linalg.norm(chamber.positions, axis=1), 1.0, atol=1e-12)
    # one hemisphere: area about 2*pi
    assert chamber.area() == pytest.approx(2 * np.pi, rel=0.02)


def test_build_sphere_from_chambers():
    mesh = build_mesh(sphere_family(1), target_vertices=900)
    assert mesh.euler_characteristic() == 2
    assert mesh.meta["chambers"] == 2
    assert mesh.check_action("tau")
    assert mesh.area() == pytest.approx(4 * np.pi, rel=0.02)
    lam = normalized_first(mesh, "laplace")
    assert lam == pytest.approx(8 * np.pi, rel=0.02)


def test_build_disk_and_steklov():
    disk = build_mesh(halve(sphere_family(1), "tau"), target_vertices=700)
    assert disk.euler_characteristic() == 1
    assert disk.has_boundary()
    sig = normalized_first(disk, "steklov")
    assert sig == pytest.approx(2 * np.pi, rel=0.02)


def test_build_genus_two():
    desc = closed_surface(Z2, TypeB.make(f=1, e={0: 1}))
    assert desc.genus() == 2
    mesh = build_mesh(desc, target_vertices=1600)
    assert mesh.euler_characteristic() == -2
    assert mesh.meta["chambers"] == 4
    for name in mesh.actions:
        assert mesh.check_action(name), name


def test_action_free_and_transitive_on_chambers():
    desc = closed_surface(Z2, TypeB.make(f=1, e={0: 1}))
    mesh = build_mesh(desc, target_vertices=1200)
    # close the orbit of a reference triangle under the generator permutations
    tri_keys = {tuple(sorted(t)) for t in mesh.triangles.tolist()}
    ref = tuple(sorted(mesh.triangles[0].tolist()))
    images, frontier = {ref}, [ref]
    while frontier:
        tri = frontier.pop()
        for name, perm in mesh.actions.items():
            img = tuple(sorted(int(perm[v]) for v in tri))
            assert img in tri_keys, name
            if img not in images:
                images.add(img)
                frontier.append(img)
    # one member per chamber: a group of at most that order then acts freely
    # and transitively on the chamber copies
    assert len(images) == mesh.meta["chambers"]


def test_build_torus_digon():
    desc = closed_surface(D3, TypeB.make(v={(0, 1): 2}))
    assert desc.genus() == 1
    mesh = build_mesh(desc, target_vertices=1800)
    assert mesh.euler_characteristic() == 0
    assert mesh.meta["chambers"] == 12


def test_build_digon_sphere():
    desc = closed_surface(D3, TypeB.make(v={(0, 1): 1}))
    assert desc.genus() == 0
    mesh = build_mesh(desc, target_vertices=1500)
    assert mesh.euler_characteristic() == 2


def test_build_bounded_rho1():
    desc = halve(closed_surface(Z2, TypeB.make(f=1, e={0: 1})), "rho1")
    mesh = build_mesh(desc, target_vertices=1200)
    # genus 1 with 1 boundary circle
    assert mesh.euler_characteristic() == 2 - 2 * 1 - 1
    spec = steklov_spectrum(mesh, count=4)
    assert spec.first_nonzero() > 0


def test_corner_capacity_enforced():
    with pytest.raises(InvalidType):
        chamber_mesh(D3, TypeB.make(v={(0, 1): 3}), 0.2)
    with pytest.raises(InvalidType):
        chamber_mesh(make_group("platonic", (2, 3, 3)), TypeB.make(v={(0, 1): 2}), 0.2)


def test_chamber_one_star():
    chamber = chamber_mesh(Z2, TypeB.make(f=1, e={0: 1}), 0.15)
    labels = set(chamber.panels.values())
    assert labels == {"mirror:tau", "mirror:rho1"}
    # one interior hole plus one half-disk notch on the mirror circle
    from eigenmax.meshcore import boundary_loops

    loops = boundary_loops(chamber)
    assert len(loops) == 2  # outer boundary (mirror+notch) and the interior hole


# ---------------------------------------------------------------------------
# Assembly group tables and gluing against the pairwise-scan references
# ---------------------------------------------------------------------------


class _ScanAssemblyGroup:
    """Reference closure: every product is found by scanning all known elements."""

    def __init__(self, gen_specs):
        self.elements = [(0, np.eye(3))]
        self.names = ["e"]
        self.parities = [1]
        frontier = [0]
        while frontier:
            new = []
            for idx in frontier:
                t, m = self.elements[idx]
                for name, gt, gm in gen_specs:
                    cand = ((t + gt) % 2, m @ gm)
                    if self._find(cand) < 0:
                        self.elements.append(cand)
                        word = self.names[idx]
                        self.names.append(name if word == "e" else word + "." + name)
                        det = np.linalg.det(cand[1])
                        self.parities.append(int(np.sign(det)) * (-1) ** cand[0])
                        new.append(len(self.elements) - 1)
            frontier = new
        self.right = {
            name: [self._find(((t + gt) % 2, m @ gm)) for t, m in self.elements]
            for name, gt, gm in gen_specs
        }

    def _find(self, el):
        t, m = el
        for k, (t2, m2) in enumerate(self.elements):
            if t2 == t and np.allclose(m, m2, atol=1e-10, rtol=0.0):
                return k
        return -1


class _UnionFind:
    def __init__(self, n):
        self.parent = np.arange(n)

    def find(self, a):
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def _union_find_assemble(chamber, assembly, free_labels=()):
    """Reference gluing: union-find over chamber copies, loops over copies."""
    n_e = assembly.order
    n_v = chamber.n_vertices
    glued_labels = {name for name, _, _ in assembly.gen_specs}
    vertex_panels = {}
    for (a, b), lab in chamber.panels.items():
        name = lab.split(":", 1)[1]
        if name in free_labels:
            continue
        if name not in glued_labels:
            raise GluingMismatch(f"panel {name} has no generator in the assembly group")
        vertex_panels.setdefault(a, set()).add(name)
        vertex_panels.setdefault(b, set()).add(name)
    uf = _UnionFind(n_e * n_v)
    for v, names in vertex_panels.items():
        for name in names:
            table = assembly.right[name]
            for g in range(n_e):
                uf.union(g * n_v + v, table[g] * n_v + v)
    rep = np.array([uf.find(i) for i in range(n_e * n_v)])
    unique, glued = np.unique(rep, return_inverse=True)
    n_glued = len(unique)
    positions = np.zeros((n_glued, 3))
    triangles = []
    for g in range(n_e):
        idx = glued[g * n_v : (g + 1) * n_v]
        positions[idx] = chamber.positions @ assembly.matrices[g].T
        tris = idx[chamber.triangles]
        triangles.append(tris[:, ::-1] if assembly.parities[g] < 0 else tris)
    triangles = np.vstack(triangles)
    tri_keys = {}
    keep = []
    for k, t in enumerate(triangles):
        key = tuple(sorted(t.tolist()))
        if key not in tri_keys:
            tri_keys[key] = k
            keep.append(k)
    triangles = triangles[keep]
    lengths = {}
    for g in range(n_e):
        idx = glued[g * n_v : (g + 1) * n_v]
        for (a, b), l in zip(chamber.edges.tolist(), chamber.lengths.tolist()):
            lengths[_edge_key(int(idx[a]), int(idx[b]))] = l
    panels = {}
    for (a, b), lab in chamber.panels.items():
        if lab.split(":", 1)[1] in free_labels:
            for g in range(n_e):
                idx = glued[g * n_v : (g + 1) * n_v]
                panels[_edge_key(int(idx[a]), int(idx[b]))] = "free"
    actions = {}
    for gamma in range(1, n_e):
        perm = np.zeros(n_glued, dtype=int)
        for g in range(n_e):
            src = glued[g * n_v : (g + 1) * n_v]
            h = assembly.left[gamma][g]
            perm[src] = glued[h * n_v : (h + 1) * n_v]
        actions[assembly.names[gamma]] = perm
    return SymmetricMesh(positions, triangles, lengths, panels=panels, actions=actions)


def _table_descriptors():
    for params in ((2, 2, 2), (2, 2, 6), (2, 3, 3), (2, 3, 4), (2, 3, 5)):
        group = make_group("platonic", params)
        for family in ("closed", "bounded_tau", "bounded_rho1"):
            try:
                desc = SurfaceDescriptor(family, group, TypeB.make(f=1))
            except TaxonomyError:
                continue  # rho1 is not central in this group
            yield pytest.param(desc, id=desc.label())


@pytest.mark.parametrize("desc", list(_table_descriptors()))
def test_assembly_tables_match_scan_closure(desc):
    specs, _ = _assembly_specs(desc, desc.group)
    assembly = AssemblyGroup(specs)
    ref = _ScanAssemblyGroup(specs)
    n = assembly.order
    assert assembly.names == ref.names
    assert assembly.parities == ref.parities
    assert list(assembly.right) == list(ref.right)
    for name, table in ref.right.items():
        assert np.array_equal(assembly.right[name], table), name
    assert np.array_equal(assembly.tau_bits, [t for t, _ in ref.elements])
    assert np.array_equal(assembly.matrices, [m for _, m in ref.elements])
    # left[a, b] is the product of elements a and b
    left = np.asarray(assembly.left)
    mats, bits = assembly.matrices, assembly.tau_bits
    products = np.einsum("aij,bjk->abik", mats, mats)
    assert np.all(np.abs(products - mats[left]) <= 1e-10)
    assert np.array_equal((bits[:, None] + bits[None, :]) % 2, bits[left])
    assert np.array_equal(np.sort(left, axis=0), np.tile(np.arange(n)[:, None], (1, n)))
    assert np.array_equal(np.sort(left, axis=1), np.tile(np.arange(n), (n, 1)))


@pytest.mark.parametrize(
    "desc, h_s",
    [
        (closed_surface(make_group("platonic", (2, 3, 3)), TypeB.make(f=1)), 0.12),
        (halve(closed_surface(Z2, TypeB.make(f=1, e={0: 1})), "tau"), 0.2),
    ],
    ids=["M(*233,1)", "N_tau(1*,1+rho1)"],
)
def test_reflect_assemble_matches_union_find(desc, h_s):
    specs, free = _assembly_specs(desc, desc.group)
    assembly = AssemblyGroup(specs)
    chamber = chamber_mesh(desc.group, desc.btype, h_s)
    mesh = reflect_assemble(chamber, assembly, free_labels=free)
    ref = _union_find_assemble(chamber, assembly, free_labels=free)
    assert np.array_equal(mesh.positions, ref.positions)
    assert np.array_equal(mesh.triangles, ref.triangles)
    assert np.array_equal(mesh.edges, ref.edges)
    assert np.array_equal(mesh.lengths, ref.lengths)
    assert list(mesh.panels.items()) == list(ref.panels.items())
    # the actions are the generator entries of the full table, in its order
    assert list(mesh.actions) == [name for name, _, _ in specs]
    assert list(mesh.actions) == list(ref.actions)[: len(specs)]
    for name, perm in mesh.actions.items():
        assert np.array_equal(perm, ref.actions[name]), name
    if free:
        assert "free" in mesh.panels.values()
