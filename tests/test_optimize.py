import numpy as np
import pytest

from eigenmax.builtins import conformal_annulus, flat_torus, round_sphere, unit_disk
from eigenmax.chambers import build_mesh
from eigenmax.equivariant import average_invariant
from eigenmax.fem import laplace_spectrum, normalized_first, steklov_spectrum
from eigenmax.groups import make_group
from eigenmax.optimize import (
    GuardViolation,
    eigenvalue_derivative,
    flatten_weights,
    gap_report,
    invariant_curve_flag,
    maximize,
    moduli_sweep,
)
from eigenmax.taxonomy import TypeB, closed_surface, halve, sphere_family

CATENOID_T = 1.1996786402577338  # root of t = coth(t)


def _noisy_density(mesh, amp=0.2, seed=3):
    rng = np.random.default_rng(seed)
    rho = 1.0 + amp * (2 * rng.random(mesh.n_vertices) - 1)
    return average_invariant(rho, mesh)


def test_derivative_scale_invariance():
    mesh = round_sphere(2)
    spec = laplace_spectrum(mesh, count=4)
    u = spec.vectors[:, spec.n_zero]
    lam = spec.first_nonzero()
    dlam, dbar = eigenvalue_derivative(mesh, u, mesh.density, "laplace", eigenvalue=lam)
    assert abs(dbar) < 1e-8 * lam * mesh.area()


def test_derivative_matches_central_difference():
    # three random meshes with all symmetries broken (simple first eigenvalue)
    rng = np.random.default_rng(12)
    for base_mesh in (unit_disk(2), flat_torus(0), round_sphere(2)):
        base = 1.0 + 0.3 * rng.random(base_mesh.n_vertices)
        mesh = type(base_mesh)(
            base_mesh.positions, base_mesh.triangles, (base_mesh.edges, base_mesh.lengths),
            density=base, panels=base_mesh.panels, actions={}, meta=base_mesh.meta,
        )
        spec = laplace_spectrum(mesh, count=3)
        u = spec.vectors[:, spec.n_zero]
        lam = spec.first_nonzero()
        delta = rng.standard_normal(mesh.n_vertices)
        _, dbar = eigenvalue_derivative(mesh, u, delta, "laplace", eigenvalue=lam)
        errs = []
        for h in (1e-3, 5e-4):
            vals = []
            for s in (+1, -1):
                pert = mesh.with_density(mesh.density + s * h * delta)
                vals.append(normalized_first(pert, "laplace"))
            fd = (vals[0] - vals[1]) / (2 * h)
            errs.append(abs(fd - dbar))
        # central differences agree to second order
        assert errs[1] < errs[0]
        assert errs[0] < 5e-4 * max(1.0, abs(dbar))


def test_steklov_derivative_matches_central_difference():
    # invariant densities on the disk; x^2 splits the first Steklov pair
    mesh = unit_disk(2)
    mesh = mesh.with_density(average_invariant(1.0 + 0.3 * mesh.positions[:, 0] ** 2, mesh))
    spec = steklov_spectrum(mesh, count=4)
    u = spec.vectors[:, spec.n_zero]
    lam = spec.first_nonzero()
    assert spec.eigenvalues[spec.n_zero + 1] > 1.05 * lam
    rng = np.random.default_rng(5)
    delta = average_invariant(rng.standard_normal(mesh.n_vertices), mesh)
    _, dbar = eigenvalue_derivative(mesh, u, delta, "steklov", eigenvalue=lam)
    # delta perturbs the boundary weight sqrt(rho)
    root = np.sqrt(mesh.density)
    errs = []
    for h in (1e-3, 5e-4):
        vals = [
            normalized_first(mesh.with_density((root + s * h * delta) ** 2), "steklov")
            for s in (+1, -1)
        ]
        errs.append(abs((vals[0] - vals[1]) / (2 * h) - dbar))
    assert errs[1] < errs[0]
    assert errs[0] < 5e-4 * max(1.0, abs(dbar))


def test_flatten_weights_recovers_constant():
    # two profiles whose equal-weight sum is constant
    x = np.linspace(0, 2 * np.pi, 50, endpoint=False)
    profiles = np.column_stack([np.cos(x) ** 2, np.sin(x) ** 2])
    w = flatten_weights(profiles, np.ones(50))
    assert np.allclose(w, [1.0, 1.0], atol=1e-6)


def test_maximize_sphere_from_noise():
    mesh = round_sphere(3).with_density(_noisy_density(round_sphere(3)))
    state, final, spec = maximize(mesh, "laplace", max_iters=60)
    assert state.objective == pytest.approx(8 * np.pi, rel=0.01)
    assert state.residual < 0.05
    assert state.cluster_dim == 3
    # history is non-decreasing up to the line-search tolerance
    values = [v for _, v, _ in state.history]
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


def test_maximize_disk_steklov_from_noise():
    disk = unit_disk(3)
    rho = _noisy_density(disk, amp=0.3, seed=5)
    state, final, spec = maximize(disk.with_density(rho), "steklov", max_iters=60)
    assert state.objective == pytest.approx(2 * np.pi, rel=0.01)
    assert state.cluster_dim == 2


def test_maximize_torus_stays_flat():
    torus = flat_torus(1)
    state, final, spec = maximize(torus, "laplace", max_iters=30)
    assert state.objective <= 4 * np.pi**2 + 0.05
    assert state.objective == pytest.approx(4 * np.pi**2, rel=0.02)
    assert state.cluster_dim == 4


def test_density_stays_invariant():
    mesh = build_mesh(sphere_family(1), 700)
    noisy = mesh.with_density(_noisy_density(mesh, amp=0.15, seed=9))
    state, final, _ = maximize(noisy, "laplace", max_iters=25, residual_tol=0.03)
    for name, perm in final.actions.items():
        assert np.array_equal(final.density[perm], final.density), name


def test_scale_invariance_of_argmax():
    mesh = round_sphere(2)
    rho = _noisy_density(mesh, amp=0.1, seed=4)
    s1, m1, _ = maximize(mesh.with_density(rho), "laplace", max_iters=15, residual_tol=0.03)
    s2, m2, _ = maximize(
        mesh.with_density(3.0 * rho), "laplace", max_iters=15, residual_tol=0.03
    )
    assert s2.objective == pytest.approx(s1.objective, rel=1e-9)
    ratio = m2.density / m1.density
    assert np.allclose(ratio, ratio.mean(), rtol=1e-6)


def test_guard_violation_aborts():
    # a sphere falsely labeled as a closed BRS with a tiny bound must abort
    mesh = round_sphere(2)
    mesh.meta["brs"] = {"closed": True, "bound": 1.0}
    with pytest.raises(GuardViolation):
        maximize(mesh, "laplace", max_iters=5)


def test_annulus_moduli_sweep():
    params = [0.8, 1.0, CATENOID_T, 1.4]

    def factory(T):
        return conformal_annulus(T / np.pi, 1)

    results, best = moduli_sweep(params, factory, kind="steklov", max_iters=40)
    assert best["parameter"] == pytest.approx(CATENOID_T)
    expected = 4 * np.pi * np.tanh(CATENOID_T)
    assert best["state"].objective == pytest.approx(expected, rel=0.01)


def test_torus_aspect_sweep():
    params = [0.8, 0.9, 1.0, 1.1, 1.2]

    def factory(a):
        return flat_torus(1, aspect=a)

    results, best = moduli_sweep(params, factory, kind="laplace", max_iters=25)
    assert best["parameter"] == 1.0
    # single-point grid returns that point
    results1, best1 = moduli_sweep([1.0], factory, kind="laplace", max_iters=5)
    assert best1["parameter"] == 1.0


def test_invariant_curve_flags():
    assert invariant_curve_flag(sphere_family(1))
    assert invariant_curve_flag(closed_surface(make_group("onestar"), TypeB.make(f=1, e={0: 1})))
    d3 = closed_surface(make_group("dihedral", (3,)), TypeB.make(v={(0, 1): 2}))
    assert invariant_curve_flag(d3)
    plat = closed_surface(make_group("platonic", (2, 3, 3)), TypeB.make(v={(0, 1): 1}))
    assert not invariant_curve_flag(plat)


def test_gap_report_sphere_equality():
    report = gap_report(sphere_family(1), 8 * np.pi * 0.9995, kind="laplace")
    assert report["verdict"] == "equality"
    assert report["thresholds"]["sphere"] == pytest.approx(8 * np.pi)


def test_gap_report_disk():
    disk = halve(sphere_family(1), "tau")
    report = gap_report(disk, 2 * np.pi * 1.0004, kind="steklov")
    assert report["verdict"] == "equality"
    assert report["thresholds"]["disk"] == pytest.approx(2 * np.pi)


def test_gap_report_genus_two():
    desc = closed_surface(make_group("onestar"), TypeB.make(f=1, e={0: 1}))
    report = gap_report(desc, 40.0, children=[("M(Z2,1)", 4 * np.pi**2)], kind="laplace")
    assert report["clifford_torus"] == pytest.approx(4 * np.pi**2)
    assert report["exceeds_clifford"] is True
    assert "lawson_area_bound" in report
    assert report["verdict"] == "strict"


def test_warm_started_trials_match_fresh_solves(monkeypatch, capsys):
    import eigenmax.fem as fem

    genus_two = closed_surface(make_group("onestar"), TypeB.make(f=1, e={0: 1}))
    # a surface on whose trials an eigenvalue from above the iterate's lowest
    # eigenvectors crosses below the cluster: LOBPCG from a block of the
    # cluster plus one guard vector missed it and accepted a false move (34.96
    # fell to 25.19 in 30 iterations at resolution 2000); 1368 vertices, the
    # coarsest mesh this descriptor builds
    crossing = closed_surface(make_group("dihedral", (3,)), TypeB.make(v={(0, 1): 2}))
    solve = fem.laplace_spectrum
    for descriptor, iterations in ((genus_two, 3), (crossing, 2)):
        mesh = build_mesh(descriptor, target_vertices=400)
        assert mesh.n_vertices > 600  # above the dense cutoff
        bounded, solved = [], []

        def checked(trial, count=8, seed=0, start=None, below=None, **kwargs):
            spec = solve(trial, count, seed=seed, start=start, below=below, **kwargs)
            if start is not None:
                assert below is not None
                # the solve an iterate of this density gets
                fresh = solve(trial, 8, seed=seed)
                if spec.bounded:
                    # rejected as the fresh solve would be: the returned value
                    # is an upper bound of it, below the floor
                    assert fresh.first_nonzero() * (1 - 1e-12) <= spec.first_nonzero() < below
                    bounded.append(spec)
                else:
                    assert spec.eigenvalues.tobytes() == fresh.eigenvalues.tobytes()
                    assert spec.vectors.tobytes() == fresh.vectors.tobytes()
                    solved.append(spec)
            return spec

        monkeypatch.setattr(fem, "laplace_spectrum", checked)
        state, _, spec = maximize(mesh, "laplace", max_iters=iterations)
        assert state.iterations == iterations and bounded and solved
        # nothing is printed by default
        assert capsys.readouterr() == ("", "")


def _genus_two_mesh():
    genus_two = closed_surface(make_group("onestar"), TypeB.make(f=1, e={0: 1}))
    return build_mesh(genus_two, target_vertices=400)


def test_an_accepted_trial_spectrum_is_the_next_iterate(monkeypatch):
    import eigenmax.fem as fem

    mesh = _genus_two_mesh()
    solve = fem.laplace_spectrum
    trials = []

    def recorded(trial, count=8, seed=0, start=None, **kwargs):
        spec = solve(trial, count, seed=seed, start=start, **kwargs)
        if start is not None:
            trials.append(spec)
        return spec

    monkeypatch.setattr(fem, "laplace_spectrum", recorded)
    state, final, spec = maximize(mesh, "laplace", max_iters=3)
    assert state.iterations == 3
    # the last iterate's spectrum is the one its accepted trial solved, not a new solve
    assert any(spec is trial for trial in trials)
    fresh = solve(final, 8, seed=0)
    assert spec.eigenvalues.tobytes() == fresh.eigenvalues.tobytes()
    assert spec.vectors.tobytes() == fresh.vectors.tobytes()
    assert state.objective == fem.normalized_first(final, "laplace", fresh)


def test_trial_floors_leave_the_ascent_bitwise_unchanged(monkeypatch):
    import eigenmax.fem as fem

    mesh = _genus_two_mesh()
    bounded, _, _ = maximize(mesh, "laplace", max_iters=4)
    solve = fem.laplace_spectrum

    def unbounded(trial, count=8, below=None, **kwargs):
        return solve(trial, count, **kwargs)

    monkeypatch.setattr(fem, "laplace_spectrum", unbounded)
    plain, _, _ = maximize(mesh, "laplace", max_iters=4)
    assert bounded.history == plain.history
    assert bounded.objective == plain.objective
    assert bounded.density.tobytes() == plain.density.tobytes()


def test_every_trial_makes_one_laplace_spectrum_call(monkeypatch, caplog):
    import re

    import eigenmax.fem as fem

    mesh = _genus_two_mesh()
    solve = fem.laplace_spectrum
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("start") is not None)
        return solve(*args, **kwargs)

    monkeypatch.setattr(fem, "laplace_spectrum", counted)
    with caplog.at_level("DEBUG", logger="eigenmax.optimize"):
        state, _, _ = maximize(mesh, "laplace", max_iters=4)
    logged = [re.search(r"(\d+) trial solves, (\d+) stopped", r.getMessage()) for r in caplog.records]
    trials = sum(int(m.group(1)) for m in logged if m)
    stopped = sum(int(m.group(2)) for m in logged if m)
    # the first iterate is the only solve outside a trial
    assert len(calls) == 1 + trials
    assert sum(calls) == trials and 0 < stopped < trials
