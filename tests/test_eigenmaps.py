import numpy as np
import pytest

from eigenmax.builtins import conformal_annulus, flat_torus, round_sphere, unit_disk
from eigenmax.eigenmaps import (
    NodalCountNotTwo,
    NotEven,
    PoleOnSurface,
    area_bound_check,
    conformality_residual,
    doubling_projection_check,
    export_eigenmap_obj,
    first_eigenmap,
    fixed_ovals,
    interior_critical_vertices,
    mapped_area,
    morse_count_check,
    nodal_domain_count,
    stereographic_s3,
)
from eigenmax.fem import laplace_spectrum, steklov_spectrum

CATENOID_T = 1.1996786402577338


def test_first_eigenmap_sphere():
    mesh = round_sphere(3)
    spec = laplace_spectrum(mesh, count=5)
    emap = first_eigenmap(mesh, spec, tau="sz")
    assert emap.components.shape[1] == 3
    assert sorted(emap.parity) == [-1, 1, 1]
    norms = emap.norms()
    assert np.max(np.abs(norms - 1.0)) < 0.02


def test_first_eigenmap_torus():
    mesh = flat_torus(2)
    spec = laplace_spectrum(mesh, count=6)
    emap = first_eigenmap(mesh, spec, tau="sx")
    assert emap.components.shape[1] == 4
    assert emap.parity.count(1) == 3 and emap.parity.count(-1) == 1
    assert np.max(np.abs(emap.norms() - 1.0)) < 0.02


def test_first_eigenmap_disk_steklov():
    mesh = unit_disk(3)
    spec = steklov_spectrum(mesh, count=4)
    emap = first_eigenmap(mesh, spec, tau="sy")
    assert emap.components.shape[1] == 2
    rim = mesh.boundary_vertices()
    assert np.max(np.abs(emap.norms()[rim] - 1.0)) < 0.02


def test_conformality():
    sphere = round_sphere(3)
    res = conformality_residual(sphere.positions, sphere)
    assert res < 2e-2
    torus = flat_torus(2)
    x = torus.positions[:, 0]
    y = torus.positions[:, 1]
    clifford = np.column_stack(
        [np.cos(2 * np.pi * x), np.sin(2 * np.pi * x),
         np.cos(2 * np.pi * y), np.sin(2 * np.pi * y)]
    ) / np.sqrt(2)
    assert conformality_residual(clifford, torus) < 2e-2
    # dropping one component is badly non-conformal
    assert conformality_residual(clifford[:, :2], torus) > 0.3


def test_mapped_area_identity():
    sphere = round_sphere(3)
    # identity embedding: area = half Dirichlet energy = 4 pi
    assert mapped_area(sphere.positions, sphere) == pytest.approx(4 * np.pi, rel=5e-3)
    report = area_bound_check(sphere.positions, sphere, "closed")
    assert report["holds"]
    disk = unit_disk(2)
    report = area_bound_check(disk.positions[:, :2], disk, "bounded")
    assert report["mapped_area"] == pytest.approx(np.pi, rel=5e-3)
    assert report["holds"]


def test_nodal_domains():
    sphere = round_sphere(2)
    assert nodal_domain_count(sphere.positions[:, 2], sphere) == 2
    torus = flat_torus(1)
    u2 = np.cos(4 * np.pi * torus.positions[:, 0])
    assert nodal_domain_count(u2, torus) == 4
    assert nodal_domain_count(np.ones(torus.n_vertices), torus) == 1


def _union_find_nodal_count(u, mesh, rel_tol=1e-10):
    scale = float(np.max(np.abs(u)))
    sign = np.zeros(mesh.n_vertices, dtype=int)
    sign[u > rel_tol * scale] = 1
    sign[u < -rel_tol * scale] = -1
    parent = np.arange(mesh.n_vertices)

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in mesh.edges.tolist():
        if sign[a] != 0 and sign[a] == sign[b]:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    return len({find(v) for v in range(mesh.n_vertices) if sign[v] != 0})


def test_nodal_domain_count_matches_union_find():
    torus = flat_torus(1)
    x, y = torus.positions[:, 0], torus.positions[:, 1]
    rng = np.random.default_rng(5)
    fields = [
        np.cos(2 * np.pi * k * x) * np.sin(2 * np.pi * m * y) for k, m in ((1, 1), (2, 3), (4, 1))
    ]
    fields.append(np.where(x < 0.3, 0.0, np.cos(6 * np.pi * y)))  # a zero band splits domains
    fields.append(rng.normal(size=torus.n_vertices))
    for u in fields:
        count = nodal_domain_count(u, torus)
        assert count == _union_find_nodal_count(u, torus)
        assert type(count) is int


def test_doubling_sphere_projection():
    mesh = round_sphere(2)
    comps = mesh.positions.copy()  # parity (+,+,-) under sz
    report = doubling_projection_check(comps, mesh, "sz", [1, 1, -1], samples=60)
    assert report["sheets_mode"] == 2
    assert report["doubling"]


def test_doubling_clifford_torus():
    torus = flat_torus(2)
    x, y = torus.positions[:, 0], torus.positions[:, 1]
    comps = np.column_stack(
        [np.cos(2 * np.pi * y), np.sin(2 * np.pi * y),
         np.cos(2 * np.pi * x), np.sin(2 * np.pi * x)]
    ) / np.sqrt(2)
    # under sx: cos(2pi x) even, sin(2pi x) odd, y-modes even
    report = doubling_projection_check(
        comps, torus, "sx", [1, 1, 1, -1], samples=40, seed=1
    )
    assert report["sheets_mode"] == 2
    assert report["doubling"]


def test_doubling_control_four_sheets():
    torus = flat_torus(2)
    x, y = torus.positions[:, 0], torus.positions[:, 1]
    comps = np.column_stack(
        [np.cos(2 * np.pi * y), np.sin(2 * np.pi * y),
         np.cos(4 * np.pi * x), np.sin(4 * np.pi * x)]
    ) / np.sqrt(2)
    report = doubling_projection_check(
        comps, torus, "sx", [1, 1, 1, -1], samples=40, seed=2
    )
    assert report["sheets_mode"] == 4
    assert not report["doubling"]


def test_interior_critical_points_on_linear_function():
    disk = unit_disk(2)
    u = disk.positions[:, 0]
    assert interior_critical_vertices(u, disk) == []


def test_annulus_morse_structure():
    ann = conformal_annulus(CATENOID_T / np.pi, 1)
    spec = steklov_spectrum(ann, count=5)
    emap = first_eigenmap(ann, spec, tau="tau")
    even = [k for k, p in enumerate(emap.parity) if p > 0]
    u = emap.components[:, even[0]]
    report = morse_count_check(u, ann, "tau")
    assert report["ovals"] == 1
    assert report["per_oval"] == [2]
    assert report["off_fixed_critical"] == 0
    assert report["morse_inequality_holds"]


def test_morse_errors():
    ann = conformal_annulus(0.4, 0)
    spec = steklov_spectrum(ann, count=5)
    emap = first_eigenmap(ann, spec, tau="tau")
    odd = [k for k, p in enumerate(emap.parity) if p < 0]
    with pytest.raises(NotEven):
        morse_count_check(emap.components[:, odd[0]], ann, "tau")
    with pytest.raises(NodalCountNotTwo):
        morse_count_check(np.ones(ann.n_vertices), ann, "tau")


def test_stereographic_export(tmp_path):
    torus = flat_torus(1)
    x, y = torus.positions[:, 0], torus.positions[:, 1]
    comps = np.column_stack(
        [np.cos(2 * np.pi * x), np.sin(2 * np.pi * x),
         np.cos(2 * np.pi * y), np.sin(2 * np.pi * y)]
    ) / np.sqrt(2)
    pos3 = stereographic_s3(comps)
    assert np.all(np.isfinite(pos3))
    with pytest.raises(PoleOnSurface):
        stereographic_s3(comps, pole=comps[0] / np.linalg.norm(comps[0]))
    export_eigenmap_obj(torus, tmp_path / "clifford.obj", comps)
    text = (tmp_path / "clifford.obj").read_text()
    assert text.count("v ") == torus.n_vertices


def test_fixed_ovals_annulus():
    ann = conformal_annulus(0.5, 0)
    ovals = fixed_ovals(ann, "tau")
    assert len(ovals) == 1
    assert len(ovals[0]) >= 24


def test_odd_nodal_set_on_mirror():
    from eigenmax.chambers import build_mesh
    from eigenmax.eigenmaps import odd_nodal_set_on_fixed
    from eigenmax.taxonomy import sphere_family

    mesh = build_mesh(sphere_family(1), 900)
    spec = laplace_spectrum(mesh, count=5)
    emap = first_eigenmap(mesh, spec, tau="tau")
    odd = [k for k, p in enumerate(emap.parity) if p < 0]
    assert odd
    assert odd_nodal_set_on_fixed(emap.components[:, odd[0]], mesh, "tau")
    even = [k for k, p in enumerate(emap.parity) if p > 0]
    assert not odd_nodal_set_on_fixed(emap.components[:, even[0]], mesh, "tau")


def test_oval_convexity_report():
    from eigenmax.eigenmaps import oval_convexity_report

    ann = conformal_annulus(CATENOID_T / np.pi, 1)
    spec = steklov_spectrum(ann, count=5)
    emap = first_eigenmap(ann, spec, tau="tau")
    report = oval_convexity_report(emap.components, ann, "tau", emap.parity)
    assert len(report) == 1
    assert report[0]["convex_fraction"] is not None
    assert report[0]["convex_fraction"] > 0.95


def _critical_vertices_loop(values, mesh):
    # the per-vertex star layout interior_critical_vertices used before it
    # read the corner angles from the mesh's law-of-cosines kernel
    from eigenmax.eigenmaps import _planar_gradient, _zero_in_cone

    length = dict(zip(map(tuple, mesh.edges.tolist()), mesh.lengths.tolist()))

    def key(a, b):
        return (a, b) if a < b else (b, a)

    def star_angle(v, a, b):
        la, lb = length[key(v, a)], length[key(v, b)]
        lab = length[key(a, b)]
        return la, lb, np.arccos(np.clip((la**2 + lb**2 - lab**2) / (2 * la * lb), -1, 1))

    def ordered(v, star):
        nxt = {}
        for t in star:
            nxt[t[(t.index(v) + 1) % 3]] = t
        cur = star[0][(star[0].index(v) + 1) % 3]
        order = []
        for _ in range(len(star)):
            t = nxt.get(cur)
            if t is None:
                return None
            order.append(t)
            cur = t[(t.index(v) + 2) % 3]
        return order

    u = np.asarray(values, dtype=float)
    boundary = set(int(x) for x in mesh.boundary_vertices())
    stars = {}
    for t in mesh.triangles.tolist():
        for v in t:
            stars.setdefault(v, []).append(t)
    out = []
    for v, star in stars.items():
        if v in boundary:
            continue
        total = sum(star_angle(v, t[(t.index(v) + 1) % 3], t[(t.index(v) + 2) % 3])[2] for t in star)
        scale = 2 * np.pi / total
        order = ordered(v, star)
        if order is None:
            continue
        theta = 0.0
        grads = []
        for t in order:
            k = t.index(v)
            a, b = t[(k + 1) % 3], t[(k + 2) % 3]
            la, lb, ang = star_angle(v, a, b)
            pa = np.array([la * np.cos(theta * scale), la * np.sin(theta * scale)])
            pb = np.array([lb * np.cos((theta + ang) * scale), lb * np.sin((theta + ang) * scale)])
            grads.append(_planar_gradient(np.zeros(2), pa, pb, u[v], u[a], u[b]))
            theta += ang
        if _zero_in_cone(np.asarray(grads)):
            out.append(v)
    return out


def test_interior_critical_vertices_match_star_layout_loop():
    rng = np.random.default_rng(3)
    found = 0
    for mesh in (unit_disk(2), conformal_annulus(CATENOID_T / np.pi, 1)):
        spec = steklov_spectrum(mesh, count=3)
        fields = [spec.vectors[:, 1], spec.vectors[:, 2], rng.standard_normal(mesh.n_vertices)]
        for u in fields:
            expected = _critical_vertices_loop(u, mesh)
            assert interior_critical_vertices(u, mesh) == expected
            found += len(expected)
    assert found > 0
