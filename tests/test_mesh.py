import json

import numpy as np
import pytest

from eigenmax.builtins import (
    _ICO_FACES,
    _ICO_VERTS,
    _match_permutation,
    builtin,
    conformal_annulus,
    flat_cylinder,
    flat_torus,
    round_sphere,
    unit_disk,
)
from eigenmax.chambers import build_mesh
from eigenmax.cli import main as cli_main
from eigenmax.cli import parse_descriptor
from eigenmax.meshcore import (
    DegenerateTriangle,
    GluedMetricSpec,
    MeshError,
    NonInvariantDensity,
    NonPositiveDensity,
    SymmetricMesh,
    _edge_key,
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


def test_thin_torus_has_three_rows_of_cells():
    # round(8 * 0.2) = 2 rows would make each vertical edge a side of four triangles
    mesh = flat_torus(0, 0.2)
    assert mesh.n_vertices == 2 * 8 * 3
    assert mesh.euler_characteristic() == 0 and not mesh.has_boundary()
    assert mesh.area() == pytest.approx(0.2, rel=1e-12)
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
    # save -> load -> save gives the same bytes, also for an assembled mesh
    # with free panels
    assembled = build_mesh(parse_descriptor("N_tau(1*,1+rho1)"), 600)
    assert "free" in assembled.panels.values()
    for mesh in (mesh, assembled):
        mesh.save(tmp_path / "first.json")
        SymmetricMesh.load(tmp_path / "first.json").save(tmp_path / "second.json")
        first = (tmp_path / "first.json").read_bytes()
        assert (tmp_path / "second.json").read_bytes() == first
        assert first.decode() == json.dumps(mesh.to_json(), sort_keys=True)


def test_edge_records_that_are_not_the_triangle_edges_are_rejected(tmp_path, capsys):
    obj = round_sphere(1).to_json()
    assert SymmetricMesh.from_json(obj).euler_characteristic() == 2
    joined = set(map(tuple, obj["edges"]))
    far = next(v for v in range(1, len(obj["positions"])) if (0, v) not in joined)
    extra = json.loads(json.dumps(obj))
    extra["edges"].append([0, far])
    extra["edge_lengths"].append(1.0)
    with pytest.raises(MeshError, match=rf"edge \(0, {far}\) bounds no triangle"):
        SymmetricMesh.from_json(extra)
    twice = json.loads(json.dumps(obj))
    twice["edges"].append(twice["edges"][5])
    twice["edge_lengths"].append(2.0 * twice["edge_lengths"][5])
    a, b = twice["edges"][5]
    with pytest.raises(MeshError, match=rf"edge \({a}, {b}\) is listed twice"):
        SymmetricMesh.from_json(twice)
    short = json.loads(json.dumps(obj))
    short["edge_lengths"].pop()
    with pytest.raises(MeshError, match="edges but .* reference lengths"):
        SymmetricMesh.from_json(short)
    stray = json.loads(json.dumps(obj))
    stray["panels"] = [[0, far, "free"]]
    with pytest.raises(MeshError, match=rf"panel edge \(0, {far}\) is not an edge"):
        SymmetricMesh.from_json(stray).boundary_length()
    # a bundle's mesh file is outside input: the CLI reports it as invalid
    (tmp_path / "extra.json").write_text(json.dumps(extra))
    capsys.readouterr()
    assert cli_main(["spectrum", str(tmp_path / "extra.json")]) == 2
    assert capsys.readouterr().err.startswith("validation: edge (0, ")


def _check_action_loop(mesh, name, tol=1e-9):
    # the per-triangle and per-edge walk check_action replaced
    perm = mesh.actions[name]
    length = dict(zip(map(tuple, mesh.edges.tolist()), mesh.lengths.tolist()))
    tri_set = {tuple(sorted(t)) for t in mesh.triangles.tolist()}
    for t in mesh.triangles:
        if tuple(sorted(int(perm[v]) for v in t)) not in tri_set:
            return False
    for (a, b), l in length.items():
        l2 = length.get(_edge_key(int(perm[a]), int(perm[b])))
        if l2 is None or abs(l2 - l) > tol * max(1.0, l):
            return False
    return True


def test_check_action_matches_the_walk():
    assembled = build_mesh(parse_descriptor("N_tau(1*,1+rho1)"), 600)
    meshes = [round_sphere(2), flat_torus(1), unit_disk(2), conformal_annulus(0.4, 1), assembled]
    for mesh in meshes:
        for name in mesh.actions:
            assert mesh.check_action(name) == _check_action_loop(mesh, name) is True, name
    # one orbit pair swapped, the rest fixed: triangle images are no triangles
    for mesh in (round_sphere(2), assembled):
        name = next(iter(mesh.actions))
        perm = mesh.actions[name]
        moved = int(np.flatnonzero(perm != np.arange(len(perm)))[0])
        swap = np.arange(len(perm))
        swap[[moved, perm[moved]]] = [perm[moved], moved]
        mesh.actions["swap"] = swap
        assert mesh.check_action("swap") == _check_action_loop(mesh, "swap") is False
        # entries outside the vertex range are no permutation
        mesh.actions["swap"] = np.where(swap == moved, len(swap), swap)
        assert mesh.check_action("swap") is False
    # one length off by more, or by less, than the tolerance
    for mesh in (round_sphere(2), assembled):
        name = next(iter(mesh.actions))
        perm = mesh.actions[name]
        a, b = mesh.edges.T
        moved = int(np.flatnonzero((perm[a] != a) | (perm[b] != b))[0])
        for delta, isometry in ((1e-7, False), (1e-11, True)):
            lengths = mesh.lengths.copy()
            lengths[moved] += delta
            copy = SymmetricMesh(mesh.positions, mesh.triangles, (mesh.edges, lengths),
                                 panels=mesh.panels, actions={name: perm})
            assert copy.check_action(name) == _check_action_loop(copy, name) is isometry


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


def test_glue_cylinder_at_a_boundary_vertex():
    # a boundary vertex's star is an open fan, so it has no ring to excise
    disk = unit_disk(1)
    b = int(disk.boundary_vertices()[0])
    q = next(v for v in range(disk.n_vertices) if v not in set(disk.boundary_vertices()))
    with pytest.raises(MeshError, match=f"vertex {b} is not an interior disk vertex"):
        glue_cylinder(disk, None, GluedMetricSpec(0.05, 1.0, [(b, q)]))


def _reference_cells(cells, du, dv):
    """Triangles and {(i, j): length} of criss-cross cells (a, b, c, d, center), cell by cell."""
    tris, lengths = [], {}
    half_diag = 0.5 * float(np.hypot(du, dv))
    for a, b, c, d, ct in cells:
        tris += [[a, b, ct], [b, c, ct], [c, d, ct], [d, a, ct]]
        lengths[_edge_key(a, b)] = lengths[_edge_key(d, c)] = du
        lengths[_edge_key(a, d)] = lengths[_edge_key(b, c)] = dv
        for node in (a, b, c, d):
            lengths[_edge_key(node, ct)] = half_diag
    return tris, lengths


def _reference_sphere(level):
    """The icosphere, its midpoints numbered by a dict, face by face."""
    verts = list(_ICO_VERTS / np.linalg.norm(_ICO_VERTS[0]))
    faces = _ICO_FACES.tolist()
    for _ in range(level):
        midpoint, new_faces = {}, []
        for face in faces:
            ids = []
            for a, b in zip(face, face[1:] + face[:1]):  # ab, bc, ca
                key = _edge_key(a, b)
                if key not in midpoint:
                    m = verts[a] + verts[b]
                    verts.append(m / np.linalg.norm(m))
                    midpoint[key] = len(verts) - 1
                ids.append(midpoint[key])
            (a, b, c), (ab, bc, ca) = face, ids
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    verts = np.asarray(verts)
    signs = (("sx", [-1, 1, 1]), ("sy", [1, -1, 1]), ("sz", [1, 1, -1]))
    actions = {name: _match_permutation(verts, verts * np.array(s)) for name, s in signs}
    return mesh_from_positions(verts, faces, actions=actions)


def _reference_torus(level, aspect):
    m = 8 * 2**level
    my = max(3, round(m * aspect))
    corner = lambda i, j: (i % m) * my + (j % my)
    center = lambda i, j: m * my + (i % m) * my + (j % my)
    cells = [(corner(i, j), corner(i + 1, j), corner(i + 1, j + 1), corner(i, j + 1), center(i, j))
             for i in range(m) for j in range(my)]
    tris, lengths = _reference_cells(cells, 1.0 / m, aspect / my)
    sx, sy = np.zeros(2 * m * my, dtype=int), np.zeros(2 * m * my, dtype=int)
    for i in range(m):
        for j in range(my):
            sx[corner(i, j)], sx[center(i, j)] = corner(-i, j), center(-i - 1, j)
            sy[corner(i, j)], sy[center(i, j)] = corner(i, -j), center(i, -j - 1)
    return SymmetricMesh(np.zeros((2 * m * my, 3)), tris, lengths, actions={"sx": sx, "sy": sy})


def _reference_cylinder(length, level, both_steklov=False, waist_symmetric=False):
    m = 24 * 2**level
    n_t = max(2, round(m * length / (2 * np.pi)))
    n_t += waist_symmetric and n_t % 2
    vid = lambda i, j: (i % m) * (n_t + 1) + j
    cid = lambda i, j: m * (n_t + 1) + (i % m) * n_t + j
    cells = [(vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1), cid(i, j))
             for i in range(m) for j in range(n_t)]
    tris, lengths = _reference_cells(cells, 2 * np.pi / m, length / n_t)
    panels = {}
    for i in range(m):
        panels[_edge_key(vid(i, 0), vid(i + 1, 0))] = "free" if both_steklov else "end0"
        panels[_edge_key(vid(i, n_t), vid(i + 1, n_t))] = "free" if both_steklov else "endL"
    n = m * (2 * n_t + 1)
    tau, sth = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
    for i in range(m):
        for j in range(n_t + 1):
            tau[vid(i, j)], sth[vid(i, j)] = vid(i, n_t - j), vid(-i, j)
        for j in range(n_t):
            tau[cid(i, j)], sth[cid(i, j)] = cid(i, n_t - 1 - j), cid(-i - 1, j)
    actions = {"tau": tau, "stheta": sth}
    return SymmetricMesh(np.zeros((n, 3)), tris, lengths, panels=panels, actions=actions)


def test_builtins_match_the_loops_they_replaced():
    cases = []
    for level in (0, 1, 2):
        cases += [(round_sphere(level), _reference_sphere(level)),
                  (flat_torus(level), _reference_torus(level, 1.0)),
                  (flat_torus(level, 0.37), _reference_torus(level, 0.37)),
                  (flat_cylinder(1.3, level), _reference_cylinder(1.3, level))]
    cases += [(flat_cylinder(1.2, 1, waist_symmetric=True),
               _reference_cylinder(1.2, 1, waist_symmetric=True)),
              (conformal_annulus(0.4, 1),
               _reference_cylinder(2 * np.pi * 0.4, 1, both_steklov=True, waist_symmetric=True))]
    for mesh, ref in cases:
        label = mesh.meta
        for field in ("triangles", "edges", "lengths"):
            new, old = getattr(mesh, field), getattr(ref, field)
            assert new.dtype == old.dtype and new.tobytes() == old.tobytes(), (label, field)
        assert list(mesh.actions) == list(ref.actions), label
        for name, perm in mesh.actions.items():
            assert perm.dtype == ref.actions[name].dtype, (label, name)
            assert perm.tobytes() == ref.actions[name].tobytes(), (label, name)
        assert list(mesh.panels.items()) == list(ref.panels.items()), label
    for level in (0, 1, 2):  # the sphere's midpoints too are the loop's, bit for bit
        new, old = round_sphere(level).positions, _reference_sphere(level).positions
        assert new.tobytes() == old.tobytes()


def test_density_copy_shares_geometry(monkeypatch):
    mesh = unit_disk(1)
    checks = []
    original = SymmetricMesh._check_manifold
    monkeypatch.setattr(
        SymmetricMesh, "_check_manifold",
        lambda self, edges: checks.append(1) or original(self, edges),
    )
    scaled = mesh.with_density(2.0 * mesh.density)
    assert scaled.geometry is mesh.geometry
    assert scaled.edges is mesh.edges and scaled.lengths is mesh.lengths
    assert scaled.with_density(mesh.density).geometry is mesh.geometry
    assert checks == []
    assert np.array_equal(mesh.density, np.ones(mesh.n_vertices))
    # the checks still run for a new mesh
    SymmetricMesh.from_json(mesh.to_json())
    assert checks == [1]


def test_geometry_arrays_are_read_only():
    mesh = round_sphere(1)
    la, _, _ = mesh.all_triangle_lengths()
    for array in (la, mesh.reference_areas(), mesh.geometry.cotangents, mesh.lengths):
        with pytest.raises(ValueError):
            array[0] = 1.0
    with pytest.raises(ValueError):
        mesh.edges[0, 0] = 1
    with pytest.raises(AttributeError):
        mesh.lengths = mesh.lengths.copy()


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



def test_area_is_memoized_per_density():
    from eigenmax.meshcore import weighted_area

    mesh = unit_disk(1)
    assert mesh.area() == weighted_area(mesh, mesh.density)
    rng = np.random.default_rng(2)
    for _ in range(3):
        rho = rng.uniform(0.5, 2.0) * mesh.density
        copy = mesh.with_density(rho)
        # the copy's area is its own density's, not the one memoized on mesh
        assert copy.area() == weighted_area(copy, rho)
        assert copy.area() == weighted_area(copy, rho)
    assert mesh.area() == weighted_area(mesh, mesh.density)
    mesh.density = 3.0 * mesh.density
    assert mesh.area() == weighted_area(mesh, mesh.density)
