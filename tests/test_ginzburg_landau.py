import numpy as np
import pytest

from eigenmax.builtins import round_sphere, unit_disk
from eigenmax.fem import normalized_first
from eigenmax.ginzburg_landau import (
    GLError,
    GLState,
    balanced_parameter,
    energy_area_slack,
    equivariance_defect,
    gl_descent,
    gl_energy,
    gl_gradient,
    hersch_bound_check,
    induced_density,
    residual,
    sweepout,
    transform_group,
)

SZ_REP = {"sz": np.diag([1.0, 1.0, -1.0]), "sx": np.diag([-1.0, 1.0, 1.0]),
          "sy": np.diag([1.0, -1.0, 1.0])}


def test_constant_unit_map_zero_energy():
    mesh = round_sphere(2)
    u = np.tile([1.0, 0.0, 0.0], (mesh.n_vertices, 1))
    state = GLState(u, eps=0.7)
    assert gl_energy(state, mesh) == pytest.approx(0.0, abs=1e-12)
    assert np.max(np.abs(gl_gradient(state, mesh))) < 1e-12


def test_zero_map_energy_values():
    mesh = round_sphere(2)
    z = np.zeros((mesh.n_vertices, 2))
    closed = GLState(z, eps=0.5, kind="closed")
    assert gl_energy(closed, mesh) == pytest.approx(mesh.area() / (4 * 0.25), rel=1e-12)
    disk = unit_disk(2)
    zb = np.zeros((disk.n_vertices, 2))
    fb = GLState(zb, eps=0.5, kind="free_boundary")
    assert gl_energy(fb, disk) == pytest.approx(disk.boundary_length() / 2.0, rel=1e-12)


def test_identity_sphere_map_energy():
    mesh = round_sphere(4)
    state = GLState(mesh.positions.copy(), eps=1.0)
    # |du|^2 = 2 for the identity of the round sphere: E = (1/2)*2*Area = 4pi
    assert gl_energy(state, mesh) == pytest.approx(4 * np.pi, rel=5e-3)


def test_gradient_matches_finite_differences():
    mesh = unit_disk(1)
    rng = np.random.default_rng(2)
    u = 0.8 * rng.standard_normal((mesh.n_vertices, 2))
    state = GLState(u, eps=0.6)
    g = gl_gradient(state, mesh)
    v = rng.standard_normal(u.shape)
    errs = []
    for h in (1e-4, 5e-5):
        ep = gl_energy(GLState(u + h * v, 0.6), mesh)
        em = gl_energy(GLState(u - h * v, 0.6), mesh)
        fd = (ep - em) / (2 * h)
        errs.append(abs(fd - float(np.sum(g * v))))
    assert errs[1] < errs[0] * 0.5 + 1e-12
    # free-boundary functional too
    state = GLState(u, eps=0.6, kind="free_boundary")
    g = gl_gradient(state, mesh)
    ep = gl_energy(GLState(u + 1e-5 * v, 0.6, "free_boundary"), mesh)
    em = gl_energy(GLState(u - 1e-5 * v, 0.6, "free_boundary"), mesh)
    assert (ep - em) / 2e-5 == pytest.approx(float(np.sum(g * v)), rel=1e-4, abs=1e-8)


def test_descent_from_constant_stays():
    mesh = round_sphere(1)
    u = np.tile([0.0, 0.0, 1.0], (mesh.n_vertices, 1))
    # trivial target representation: constants are equivariant and critical
    state, res, steps = gl_descent(GLState(u, eps=0.5), mesh, rep=None, max_steps=100)
    assert res < 1e-10
    assert np.allclose(state.u, u, atol=1e-9)


def test_transform_group_rejects_a_large_permutation_group():
    # a 12-cycle and a transposition generate all 12! vertex permutations;
    # the closure stops at its order cap instead of enumerating them
    mesh = round_sphere(0)
    n = mesh.n_vertices
    swap = np.arange(n)
    swap[[0, 1]] = [1, 0]
    mesh.actions = {"cycle": np.roll(np.arange(n), 1), "swap": swap}
    with pytest.raises(GLError, match="small group"):
        transform_group(mesh)


def test_descent_sphere_perturbed_identity():
    mesh = round_sphere(2)
    rng = np.random.default_rng(7)
    u = mesh.positions + 0.05 * rng.standard_normal((mesh.n_vertices, 3))
    state = GLState(u, eps=0.5)
    out, res, steps = gl_descent(state, mesh, rep=SZ_REP, tol=1e-9, max_steps=6000)
    assert res < 1e-9
    norms = np.linalg.norm(out.u, axis=1)
    assert np.max(norms) <= 1.0 + 1e-6  # discrete maximum principle
    assert equivariance_defect(out.u, mesh, SZ_REP) < 1e-12
    # energy-area inequality with the induced conformal density
    assert energy_area_slack(out, mesh) >= -1e-8
    # descent reduced the residual from the start
    assert residual(state, mesh) > res


def test_sweepout_properties():
    mesh = round_sphere(2)
    u0 = mesh.positions.copy()
    assert np.allclose(sweepout(u0, np.zeros(3)), u0, atol=1e-14)
    a = np.array([0.0, 0.0, 1.0])
    ua = sweepout(u0, a)
    assert np.allclose(ua, np.tile(a, (len(u0), 1)))
    # interior parameters keep the image on the sphere
    a = np.array([0.2, -0.1, 0.3])
    ua = sweepout(u0, a)
    assert np.allclose(np.linalg.norm(ua, axis=1), 1.0, atol=1e-12)
    # energy of the dilated family stays below the Willmore value of the
    # round base map (up to quadrature error)
    from eigenmax.fem import assemble_stiffness

    K = assemble_stiffness(mesh)
    base = gl_energy(GLState(u0, 1.0), mesh)
    for t in (0.3, 0.6, 0.9):
        ua = sweepout(u0, t * np.array([0, 0, 1.0]))
        e = 0.5 * float(np.sum(ua * (K @ ua)))
        assert e <= base + 1e-6


def test_balanced_member_and_hersch_closed():
    mesh = round_sphere(3)
    u0 = mesh.positions.copy()
    a = balanced_parameter(u0, mesh)
    assert np.linalg.norm(a) < 0.2  # the round identity is already balanced
    for eps in (0.5, 0.25):
        report = hersch_bound_check(GLState(u0, eps), mesh)
        assert report["holds"]
        assert report["lhs"] >= report["rhs"] - 1e-8
    # equality trend: 2E -> normalized eigenvalue as eps -> 0
    report = hersch_bound_check(GLState(u0, 1e-6), mesh)
    assert 2 * report["energy"] == pytest.approx(report["normalized_first"], rel=5e-3)


def test_hersch_fb_disk():
    disk = unit_disk(3)
    theta = np.arctan2(disk.positions[:, 1], disk.positions[:, 0])
    r = np.linalg.norm(disk.positions[:, :2], axis=1)
    u = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    report = hersch_bound_check(GLState(u, 0.05, "free_boundary"), disk)
    assert report["normalized_first"] == pytest.approx(2 * np.pi, rel=2e-2)
    assert report["fitted_C"] is not None
    assert report["fitted_C"] < 10.0
    # the identity disk map is exactly the sigma_1 eigenmap: 2F close to
    # sigma_bar_1 for small eps
    assert 2 * report["energy"] == pytest.approx(report["normalized_first"], rel=2e-2)


def test_induced_density_positive_at_critical_points():
    mesh = round_sphere(2)
    state, res, _ = gl_descent(
        GLState(0.99 * mesh.positions, eps=0.8), mesh, rep=SZ_REP, tol=1e-10
    )
    rho = induced_density(state)
    assert np.all(rho > -1e-8)


def test_continuation_schedule():
    from eigenmax.ginzburg_landau import gl_continuation

    mesh = round_sphere(2)
    rng = np.random.default_rng(4)
    u0 = mesh.positions + 0.05 * rng.standard_normal((mesh.n_vertices, 3))
    state, history = gl_continuation(
        GLState(u0, eps=1.0), mesh, rep=SZ_REP, eps_start=1.0, tol=1e-8
    )
    assert len(history) >= 2
    eps_seq = [h["eps"] for h in history]
    assert all(b == a / 2 for a, b in zip(eps_seq, eps_seq[1:]))
    assert history[-1]["residual"] < 1e-7
    assert np.max(np.linalg.norm(state.u, axis=1)) <= 1 + 1e-6
