import numpy as np
import pytest

from eigenmax.builtins import (
    builtin,
    conformal_annulus,
    flat_cylinder,
    flat_torus,
    round_sphere,
    unit_disk,
)
from eigenmax.meshcore import (
    DegenerateTriangle,
    GluedMetricSpec,
    MeshError,
    NonInvariantDensity,
    NonPositiveDensity,
    SymmetricMesh,
    boundary_loops,
    export_obj,
    glue_cylinder,
    mesh_from_positions,
)


def test_icosphere_counts_and_area():
    for level, nv in ((0, 12), (1, 42), (3, 642)):
        mesh = round_sphere(level)
        assert mesh.n_vertices == 10 * 4**level + 2 == nv
        assert mesh.euler_characteristic() == 2
        assert not mesh.has_boundary()
    areas = [round_sphere(l).area() for l in (2, 3, 4)]
    errs = [abs(a - 4 * np.pi) for a in areas]
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] / (4 * np.pi) < 2e-3


def test_sphere_actions():
    mesh = round_sphere(2)
    for name in ("sx", "sy", "sz"):
        assert mesh.check_action(name)


def test_torus_basic():
    mesh = flat_torus(0)
    assert mesh.euler_characteristic() == 0
    assert mesh.area() == pytest.approx(1.0, rel=1e-12)
    assert not mesh.has_boundary()
    assert mesh.check_action("sx") and mesh.check_action("sy")


def test_disk_basic():
    mesh = unit_disk(2)
    assert mesh.euler_characteristic() == 1
    assert mesh.boundary_length() == pytest.approx(2 * np.pi, rel=2e-3)
    assert mesh.area() == pytest.approx(np.pi, rel=5e-3)
    assert mesh.check_action("sy")
    loops = boundary_loops(mesh)
    assert len(loops) == 1


def test_cylinder_and_annulus():
    mesh = flat_cylinder(1.0, 0)
    assert mesh.euler_characteristic() == 0
    assert mesh.has_boundary()
    assert set(mesh.panel_labels()) == {"end0", "endL"}
    assert mesh.boundary_length(["end0"]) == pytest.approx(2 * np.pi, rel=1e-12)
    ann = conformal_annulus(0.4, 0)
    assert set(ann.panel_labels()) == {"free"}
    assert ann.check_action("tau") and ann.check_action("stheta")
    # tau fixes a full waist ring
    tau = ann.actions["tau"]
    assert np.sum(tau == np.arange(len(tau))) >= 24


def test_density_scaling():
    mesh = unit_disk(1)
    a0, l0 = mesh.area(), mesh.boundary_length()
    scaled = mesh.with_density(2.0 * mesh.density)
    assert scaled.area() == pytest.approx(2 * a0, rel=1e-13)
    assert scaled.boundary_length() == pytest.approx(np.sqrt(2) * l0, rel=1e-13)
    with pytest.raises(NonPositiveDensity):
        mesh.with_density(0.0 * mesh.density)
    rho = mesh.density.copy()
    rho[2] = 3.0  # off-axis vertex: breaks the theta -> -theta symmetry
    with pytest.raises(NonInvariantDensity):
        mesh.with_density(rho)


def test_mesh_json_roundtrip(tmp_path):
    mesh = unit_disk(1)
    path = tmp_path / "disk.json"
    mesh.save(path)
    back = SymmetricMesh.load(path)
    assert back.n_vertices == mesh.n_vertices
    assert back.area() == pytest.approx(mesh.area(), rel=1e-15)
    assert back.panels == mesh.panels
    export_obj(mesh, tmp_path / "disk.obj")
    lines = (tmp_path / "disk.obj").read_text().splitlines()
    assert sum(1 for l in lines if l.startswith("v ")) == mesh.n_vertices


def test_glue_cylinder_two_spheres():
    s1 = round_sphere(2)
    s2 = round_sphere(2)
    spec = GluedMetricSpec(eps=0.05, L=10.0, pairs=[(0, 0)])
    glued = glue_cylinder(s1, s2, spec)
    assert glued.euler_characteristic() == 2  # still a topological sphere
    area_expected = s1.area() + s2.area() + 2 * np.pi * spec.eps**2 * spec.L
    # minus the two excised 1-ring caps
    assert glued.area() < area_expected
    assert glued.area() > s1.area() + s2.area() - 0.5


def test_glue_cylinder_self_handle():
    torus = flat_torus(1)
    # two cell-center vertices far apart (valence 4 each)
    n_cells = torus.n_vertices // 2
    p, q = n_cells, n_cells + n_cells // 2 + 3
    ring_p = sum(1 for t in torus.triangles if p in t)
    ring_q = sum(1 for t in torus.triangles if q in t)
    assert ring_p == ring_q == 4
    glued = glue_cylinder(torus, None, GluedMetricSpec(0.02, 6.0, [(p, q)]))
    assert glued.euler_characteristic() == -2  # genus 2


def test_glue_cylinder_equivariant():
    s1 = round_sphere(1)
    # pair of poles exchanged by the equatorial reflection sz: use vertex 0
    # and its sz image
    sz = s1.actions["sz"]
    p = 4
    q = int(sz[p])
    assert q != p
    glued = glue_cylinder(s1, None, GluedMetricSpec(0.05, 4.0, [(p, q)]))
    assert "sz" in glued.actions
    assert glued.check_action("sz")


def test_density_copy_shares_geometry(monkeypatch):
    mesh = unit_disk(1)
    checks = []
    original = SymmetricMesh._check_manifold
    monkeypatch.setattr(
        SymmetricMesh, "_check_manifold", lambda self: checks.append(1) or original(self)
    )
    scaled = mesh.with_density(2.0 * mesh.density)
    assert scaled.geometry is mesh.geometry
    assert scaled.with_density(mesh.density).geometry is mesh.geometry
    assert checks == []
    assert np.array_equal(mesh.density, np.ones(mesh.n_vertices))
    # the checks still run for a new mesh
    SymmetricMesh.from_json(mesh.to_json())
    assert checks == [1]


def test_geometry_arrays_are_read_only():
    mesh = round_sphere(1)
    la, _, _ = mesh.all_triangle_lengths()
    for array in (la, mesh.reference_areas(), mesh.geometry.cotangents):
        with pytest.raises(ValueError):
            array[0] = 1.0


def test_invalid_triangles_rejected():
    pos = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)]
    with pytest.raises(MeshError, match="degenerate triangle"):
        mesh_from_positions(pos, [(0, 1, 1)])
    lengths = {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.4}
    with pytest.raises(MeshError, match=r"edge \([02], 3\) has no reference length"):
        SymmetricMesh(pos, [(0, 1, 2), (0, 2, 3)], lengths)
    pos5 = pos + [(0.5, -1, 0)]
    with pytest.raises(MeshError, match=r"non-manifold edge \(0, 1\)"):
        mesh_from_positions(pos5, [(0, 1, 2), (1, 0, 3), (0, 1, 4)])


def test_triangle_with_an_angle_below_one_degree_is_rejected():
    pos = np.zeros((4, 3))
    # triangle 1 has the angle opposite its 0.01 side at vertex 2
    lengths = {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0, (2, 3): 1.0, (0, 3): 0.01}
    with pytest.raises(DegenerateTriangle, match="triangle 1 has an angle below 1.0 degrees"):
        SymmetricMesh(pos, [(0, 1, 2), (0, 2, 3)], lengths)
    # at 0.02 the angle is about 1.15 degrees
    lengths[(0, 3)] = 0.02
    SymmetricMesh(pos, [(0, 1, 2), (0, 2, 3)], lengths)


def test_lengths_violating_the_triangle_inequality_are_rejected():
    pos = np.zeros((3, 3))
    lengths = {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 3.0}
    with pytest.raises(DegenerateTriangle, match="triangle inequality"):
        SymmetricMesh(pos, [(0, 1, 2)], lengths)


def test_quotient_half_is_complete_at_construction(monkeypatch):
    from eigenmax.equivariant import quotient_mesh

    built = []
    original = SymmetricMesh.__post_init__

    def record(self):
        original(self)
        built.append((set(self.edge_lengths), dict(self.panels)))

    monkeypatch.setattr(SymmetricMesh, "__post_init__", record)
    half, _ = quotient_mesh(conformal_annulus(0.4, 0), "tau")
    edges, panels = built[-1]
    tri_edges = {
        (min(a, b), max(a, b))
        for t in half.triangles.tolist()
        for a, b in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0]))
    }
    assert edges == tri_edges == set(half.edge_lengths)
    assert panels == half.panels
    assert set(panels) == set(half.boundary_edges())
    assert set(panels.values()) == {"free", "mirror:tau"}
    assert half.euler_characteristic() == 0
