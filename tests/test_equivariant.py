import numpy as np
import pytest

from eigenmax.builtins import conformal_annulus, flat_torus, round_sphere, unit_disk
from eigenmax.chambers import build_mesh
from eigenmax.equivariant import (
    NonCommuting,
    NotInvolution,
    average_invariant,
    invariant_multiplicity,
    labeled_first,
    parity_split_spectrum,
    quotient_mesh,
    sector_basis,
)
from eigenmax.fem import assemble_mass, laplace_spectrum, steklov_spectrum
from eigenmax.groups import make_group
from eigenmax.taxonomy import TypeB, closed_surface, sphere_family


def test_average_invariant_idempotent_and_exact():
    mesh = build_mesh(closed_surface(make_group("onestar"), TypeB.make(f=1, e={0: 1})), 900)
    rng = np.random.default_rng(5)
    field = rng.standard_normal(mesh.n_vertices)
    avg = average_invariant(field, mesh)
    for name, perm in mesh.actions.items():
        assert np.array_equal(avg[perm], avg), name
    assert np.array_equal(average_invariant(avg, mesh), avg)
    # invariant input is returned unchanged
    const = np.full(mesh.n_vertices, 2.5)
    assert np.array_equal(average_invariant(const, mesh), const)


def test_average_is_mass_orthogonal_projection():
    mesh = round_sphere(2)
    M = assemble_mass(mesh)
    rng = np.random.default_rng(8)
    u = rng.standard_normal(mesh.n_vertices)
    v = rng.standard_normal(mesh.n_vertices)
    pu = average_invariant(u, mesh)
    pv = average_invariant(v, mesh)
    inner = np.sum(pu * M * (v - pv))
    assert abs(inner) < 1e-10 * np.sqrt(np.sum(M * u**2) * np.sum(M * v**2))


def test_chamber_indicator_average():
    mesh = build_mesh(sphere_family(1), 600)
    nv = mesh.meta["chamber_vertices"]
    # indicator of one chamber averages to 1/|orbit| at interior vertices
    field = np.zeros(mesh.n_vertices)
    avg = average_invariant(np.ones(mesh.n_vertices), mesh)
    assert np.allclose(avg, 1.0)


def test_parity_split_sphere():
    mesh = round_sphere(3)
    even, odd = parity_split_spectrum(mesh, "sz", count=6)
    # equatorial reflection: x,y eigenfunctions are even, z is odd
    lam_even, _ = even.first_cluster()
    lam_odd, _ = odd.first_cluster()
    assert len(lam_even) == 2
    assert len(lam_odd) == 1
    assert lam_even[0] == pytest.approx(lam_odd[0], rel=1e-2)


def test_parity_union_is_full_spectrum():
    mesh = flat_torus(1)
    full = laplace_spectrum(mesh, count=7)
    even, odd = parity_split_spectrum(mesh, "sx", count=7)
    merged = np.sort(np.concatenate([even.eigenvalues, odd.eigenvalues]))[:7]
    assert np.allclose(merged, full.eigenvalues[:7], rtol=1e-7, atol=1e-9)


def test_sector_basis_counts():
    mesh = round_sphere(1)
    perm = mesh.actions["sz"]
    n = mesh.n_vertices
    even = sector_basis(n, [perm], [1.0])
    odd = sector_basis(n, [perm], [-1.0])
    n_fixed = int(np.sum(perm == np.arange(n)))
    assert even.shape[1] + odd.shape[1] == n
    assert even.shape[1] - odd.shape[1] == n_fixed


def test_quotient_mesh_halves():
    mesh = build_mesh(sphere_family(1), 800)
    half, _ = quotient_mesh(mesh, "tau")
    assert half.euler_characteristic() == 1  # a disk
    assert "mirror:tau" in half.panel_labels()
    assert half.area() == pytest.approx(mesh.area() / 2, rel=1e-9)


def test_labeled_first_matches_projection():
    mesh = build_mesh(sphere_family(1), 800)
    even, odd = parity_split_spectrum(mesh, "tau", count=5)
    lam_plus, _, _ = labeled_first(mesh, {"tau": +1}, "laplace")
    lam_minus, _, _ = labeled_first(mesh, {"tau": -1}, "laplace")
    assert lam_plus == pytest.approx(even.first_nonzero(), rel=1e-6)
    assert lam_minus == pytest.approx(odd.eigenvalues[0], rel=1e-6)


def test_hemisphere_neumann_dirichlet_value():
    # round hemisphere: both the Neumann and Dirichlet first eigenvalues are 2,
    # and Area * min = 4pi, the disk value of the mixed maximization problem
    mesh = build_mesh(sphere_family(1), 2000)
    lam_neu, _, dom = labeled_first(mesh, {"tau": +1}, "laplace")
    lam_dir, _, _ = labeled_first(mesh, {"tau": -1}, "laplace")
    assert lam_neu == pytest.approx(2.0, rel=2e-2)
    assert lam_dir == pytest.approx(2.0, rel=2e-2)
    assert dom.area() * min(lam_neu, lam_dir) == pytest.approx(4 * np.pi, rel=3e-2)


def test_labeled_steklov_annulus():
    ann = conformal_annulus(1.1997 / np.pi, 1)
    full = steklov_spectrum(ann, count=5)
    lam_pp, _, _ = labeled_first(ann, {"tau": +1, "stheta": +1}, "steklov")
    assert lam_pp >= full.first_nonzero() - 1e-10
    # two x-reflections about nearby axes are involutions that do not commute
    mesh = flat_torus(0)
    m = 8
    my = mesh.n_vertices // (2 * m)
    corner = lambda i, j: (i % m) * my + (j % my)
    center = lambda i, j: m * my + (i % m) * my + (j % my)
    bad = np.zeros(mesh.n_vertices, dtype=int)
    for i in range(m):
        for j in range(my):
            bad[corner(i, j)] = corner(2 - i, j)
            bad[center(i, j)] = center(2 - i - 1, j)
    mesh.actions["bad"] = bad
    with pytest.raises(NonCommuting):
        labeled_first(mesh, {"sx": +1, "bad": -1}, "laplace")


def test_invariant_multiplicity():
    torus = flat_torus(2)
    spec = laplace_spectrum(torus, count=7)
    info = invariant_multiplicity(spec, torus, "sx")
    assert info["dim"] == 4
    assert info["even"] == 3 and info["odd"] == 1
    disk = unit_disk(3)
    sspec = steklov_spectrum(disk, count=5)
    sinfo = invariant_multiplicity(sspec, disk, "sy")
    assert sinfo["dim"] == 2
    assert sinfo["even"] == 1 and sinfo["odd"] == 1


def test_labeled_spectra_json():
    from eigenmax.equivariant import labeled_spectra_json

    ann = conformal_annulus(0.5, 0)
    out = labeled_spectra_json(ann, ["tau", "stheta"], kind="steklov", count=3)
    assert set(out) == {"++", "+-", "-+", "--"}
    full = steklov_spectrum(ann, count=6)
    # the union of sector eigenvalues reproduces the low spectrum
    merged = sorted(v for sector in out.values() for v in sector["eigenvalues"])
    for a, b in zip(merged[:4], full.eigenvalues[:4]):
        assert a == pytest.approx(b, rel=1e-6, abs=1e-9)


def test_not_involution():
    mesh = flat_torus(0)
    mesh.actions["shift"] = np.roll(np.arange(mesh.n_vertices), 5)
    with pytest.raises(NotInvolution):
        parity_split_spectrum(mesh, "shift", 3)


def test_average_invariant_matches_orbit_loop():
    # reference: union-find orbits, orbit sums accumulated in vertex order
    mesh = build_mesh(closed_surface(make_group("onestar"), TypeB.make(f=1, e={0: 1})), 900)
    n = mesh.n_vertices
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for perm in mesh.actions.values():
        for v in range(n):
            ra, rb = find(v), find(int(perm[v]))
            parent[max(ra, rb)] = min(ra, rb)
    roots = [find(v) for v in range(n)]
    rng = np.random.default_rng(3)
    for _ in range(3):
        field = rng.uniform(0.5, 2.0, n)
        sums, counts = {}, {}
        for v, r in enumerate(roots):
            sums[r] = sums.get(r, 0.0) + field[v]
            counts[r] = counts.get(r, 0) + 1
        expected = np.array([sums[r] / counts[r] for r in roots])
        assert np.array_equal(average_invariant(field, mesh), expected)
