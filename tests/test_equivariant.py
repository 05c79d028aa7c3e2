import dataclasses
import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from eigenmax.builtins import conformal_annulus, flat_torus, round_sphere, unit_disk
from eigenmax.chambers import build_mesh
from eigenmax.cli import parse_descriptor
from eigenmax.equivariant import (
    EquivariantError,
    NonCommuting,
    NotInvolution,
    average_invariant,
    invariant_multiplicity,
    labeled_spectra_json,
    parity_split_spectrum,
    sector_basis,
    sector_spectrum,
)
from eigenmax.fem import (
    assemble_boundary_mass,
    assemble_mass,
    assemble_stiffness,
    laplace_spectrum,
    steklov_spectrum,
)
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
    # the indicator of chamber 0 (its copies are the first chamber_vertices
    # vertices and the first 1/chambers of the triangles) averages, at each
    # vertex, to the fraction of the vertex's orbit that lies in the chamber:
    # 1/chambers at the chamber's interior vertices
    mesh = build_mesh(sphere_family(1), 600)
    n, nv, chambers = mesh.n_vertices, mesh.meta["chamber_vertices"], mesh.meta["chambers"]
    field = np.zeros(n)
    field[:nv] = 1.0
    avg = average_invariant(field, mesh)
    # orbits as the smallest vertex each one reaches under repeated generators
    root, previous = np.arange(n), None
    while not np.array_equal(root, previous):
        previous = root
        for perm in mesh.actions.values():
            root = np.minimum(root, root[perm])
    fraction = np.bincount(root, weights=field, minlength=n)[root] / np.bincount(root, minlength=n)[root]
    assert np.allclose(avg, fraction, rtol=1e-14, atol=0)
    others = np.unique(mesh.triangles[len(mesh.triangles) // chambers:])
    interior = np.setdiff1d(np.arange(nv), others)
    assert len(interior) > nv // 2 and np.bincount(root)[root[interior]].min() == chambers
    assert np.allclose(avg[interior], 1.0 / chambers, rtol=1e-14, atol=0)
    assert np.allclose(average_invariant(np.ones(n), mesh), 1.0)


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


def test_labeled_first_matches_projection():
    mesh = build_mesh(sphere_family(1), 800)
    even, odd = parity_split_spectrum(mesh, "tau", count=5)
    lam_plus = sector_spectrum(mesh, {"tau": +1}, "laplace").first_nonzero()
    lam_minus = sector_spectrum(mesh, {"tau": -1}, "laplace").first_nonzero()
    assert lam_plus == pytest.approx(even.first_nonzero(), rel=1e-6)
    assert lam_minus == pytest.approx(odd.eigenvalues[0], rel=1e-6)


def test_hemisphere_neumann_dirichlet_value():
    # round hemisphere: both the Neumann and Dirichlet first eigenvalues are 2,
    # and Area * min = 4pi, the disk value of the mixed maximization problem
    mesh = build_mesh(sphere_family(1), 2000)
    lam_neu = sector_spectrum(mesh, {"tau": +1}, "laplace").first_nonzero()
    lam_dir = sector_spectrum(mesh, {"tau": -1}, "laplace").first_nonzero()
    assert lam_neu == pytest.approx(2.0, rel=2e-2)
    assert lam_dir == pytest.approx(2.0, rel=2e-2)
    assert mesh.area() / 2 * min(lam_neu, lam_dir) == pytest.approx(4 * np.pi, rel=3e-2)


def test_labeled_steklov_annulus():
    ann = conformal_annulus(1.1997 / np.pi, 1)
    full = steklov_spectrum(ann, count=5)
    lam_pp = sector_spectrum(ann, {"tau": +1, "stheta": +1}, "steklov").first_nonzero()
    assert lam_pp >= full.first_nonzero() - 1e-10
    mesh = flat_torus(0)
    mesh.actions["bad"] = _shifted_x_reflection(mesh)
    with pytest.raises(NonCommuting):
        sector_spectrum(mesh, {"sx": +1, "bad": -1}, "laplace")


def _shifted_x_reflection(torus):
    """The flat_torus reflection x -> 2/m - x: an involution that does not
    commute with sx, a reflection about a nearby axis."""
    m = 8 * 2 ** torus.meta["level"]
    my = torus.n_vertices // (2 * m)
    corner = lambda i, j: (i % m) * my + (j % my)
    center = lambda i, j: m * my + (i % m) * my + (j % my)
    bad = np.zeros(torus.n_vertices, dtype=int)
    for i in range(m):
        for j in range(my):
            bad[corner(i, j)] = corner(2 - i, j)
            bad[center(i, j)] = center(2 - i - 1, j)
    return bad


def test_sector_spectrum_of_a_non_separating_involution():
    # the half-turn sx*sy fixes 4 vertices and does not cut the torus in two
    # halves, so no fundamental domain with a mirror exists; its sectors still
    # merge to the full spectrum
    mesh = flat_torus(1)
    half = mesh.actions["sx"][mesh.actions["sy"]]
    assert np.sum(half == np.arange(mesh.n_vertices)) == 4
    mesh.actions["half"] = half
    full = laplace_spectrum(mesh, count=9).eigenvalues[:9]
    even = sector_spectrum(mesh, {"half": +1}, count=9)
    odd = sector_spectrum(mesh, {"half": -1}, count=9)
    merged = np.sort(np.concatenate([even.eigenvalues, odd.eigenvalues]))[:9]
    assert np.all(np.abs(merged - full) <= 1e-9 * np.max(full))
    mesh.actions["bad"] = _shifted_x_reflection(mesh)
    with pytest.raises(NonCommuting):
        sector_spectrum(mesh, {"half": +1, "bad": -1})


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
    # reference: union-find orbits over the stored generators, orbit sums
    # accumulated in vertex order
    for desc, resolution in (
        (closed_surface(make_group("onestar"), TypeB.make(f=1, e={0: 1})), 900),
        (closed_surface(make_group("platonic", (2, 3, 4)), TypeB.make(f=1)), 500),
    ):
        mesh = build_mesh(desc, resolution)
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


def _dense_sector_oracle(mesh, R, count):
    # the dense sector reduction: Schur complement and interior values by
    # np.linalg.solve, every pair of the scaled boundary problem by eigh
    Kr = (R.T @ assemble_stiffness(mesh) @ R).toarray()
    Br = np.asarray((R.T @ sp.diags(assemble_boundary_mass(mesh)) @ R).diagonal())
    live = Br > 1e-14 * max(Br.max(), 1e-30)
    b, i = np.flatnonzero(live), np.flatnonzero(~live)
    Kbi, Kii = Kr[np.ix_(b, i)], Kr[np.ix_(i, i)]
    dtn = Kr[np.ix_(b, b)] - Kbi @ np.linalg.solve(Kii, Kbi.T)
    scale = 1.0 / np.sqrt(Br[b])
    vals, modes = np.linalg.eigh(scale[:, None] * (0.5 * (dtn + dtn.T)) * scale[None, :])
    traces = scale[:, None] * modes[:, :count]
    coeff = np.zeros((Kr.shape[0], count))
    coeff[b] = traces
    coeff[i] = -np.linalg.solve(Kii, Kbi.T @ traces)
    return vals, R @ coeff


class _NoExtension:
    """Stands in for the interior harmonic extensions; fails when applied."""

    def __matmul__(self, other):
        raise AssertionError("interior extension computed")


def _steklov_sector_cases():
    """Freshly built meshes, each with the involutions whose Steklov parity
    splits are checked."""
    return [
        (unit_disk(2), ["sy"]),
        (conformal_annulus(1.1997 / np.pi, 1), ["tau", "stheta"]),
        (build_mesh(parse_descriptor("N_tau(1*,1+rho1)"), 500), ["rho1"]),
        # rho2 does not commute with rho1, so it is no kept symmetry of the
        # cached Dirichlet-to-Neumann record
        (build_mesh(parse_descriptor("N_tau(D3,1)"), 800), ["rho2"]),
    ]


def test_parity_split_steklov_sectors_reproduce_the_spectrum(monkeypatch):
    from eigenmax import fem

    checked = 0
    for mesh, names in _steklov_sector_cases():
        full = steklov_spectrum(mesh, count=10)
        B = assemble_boundary_mass(mesh)
        dtn = mesh.geometry.cached(("dtn", None, frozenset()), pytest.fail)
        for name in names:
            perm = mesh.actions[name]
            kept = any(np.array_equal(dtn.steklov[p], perm[dtn.steklov]) for p in dtn.symmetries)
            assert kept == (name != "rho2")
            even, odd = parity_split_spectrum(mesh, name, count=5, kind="steklov")
            merged = np.sort(np.concatenate([even.eigenvalues, odd.eigenvalues]))
            assert np.allclose(merged[:7], full.eigenvalues[:7], rtol=1e-9, atol=1e-12)
            assert even.n_zero == 1 and odd.n_zero == 0
            for sector, sign in ((even, 1.0), (odd, -1.0)):
                U = sector.vectors
                assert np.allclose(U[perm], sign * U, atol=1e-12)
                assert np.allclose(U.T @ (sector.mass[:, None] * U), np.eye(5), atol=1e-10)
                vals, V = _dense_sector_oracle(mesh, sector_basis(mesh.n_vertices, [perm], [sign]), 5)
                top = np.max(np.abs(vals[:5]))
                assert np.all(np.abs(sector.eigenvalues - vals[:5]) <= 1e-12 * top)
                # every cluster that count does not cut spans the oracle's eigenspace
                for i, j in sector.clusters():
                    if vals[j] - vals[j - 1] > 1e-3 * top:
                        overlap = V[:, i:j].T @ (B[:, None] * U[:, i:j])
                        assert np.allclose(np.linalg.svd(overlap, compute_uv=False), 1.0, atol=1e-12)
                        assert np.allclose(V[:, i:j] @ overlap, U[:, i:j], rtol=0, atol=1e-12 * np.abs(U).max())
                        checked += 1
    assert checked >= 40
    # the full solve and every parity split of a mesh read its one cached
    # Dirichlet-to-Neumann record: one sparse factorization, made when the
    # record is built; and eigenvalue readers of a sector spectrum do not
    # extend into the interior
    build, factor, factorizations = fem._dirichlet_to_neumann, fem.spd_factor, []
    monkeypatch.setattr(
        fem,
        "_dirichlet_to_neumann",
        lambda *args: dataclasses.replace(build(*args), harmonic=_NoExtension()),
    )
    monkeypatch.setattr(fem, "spd_factor", lambda A: factorizations.append(A.shape) or factor(A))
    for mesh, names in _steklov_sector_cases():
        factorizations.clear()
        assert steklov_spectrum(mesh, count=10).first_nonzero() > 0
        for name in names:
            for sector in parity_split_spectrum(mesh, name, count=5, kind="steklov"):
                assert sector.first_nonzero() > 0
                assert sector.to_json()["first_nonzero"] == sector.first_nonzero()
                assert sector.clusters()[0][0] == sector.n_zero
                with pytest.raises(AssertionError, match="interior extension"):
                    sector.vectors
        assert len(factorizations) == 1


def test_steklov_sector_of_an_involution_that_is_no_symmetry():
    # involutions of the vertices that a Steklov sector rejects: one moves a
    # boundary vertex into the interior, one swaps two boundary vertices and
    # so changes the Dirichlet-to-Neumann matrix
    mesh = unit_disk(2)
    boundary = np.flatnonzero(assemble_boundary_mass(mesh))
    inner = np.setdiff1d(np.arange(mesh.n_vertices), boundary)
    for other, message in ((inner[0], "off the Steklov dofs"), (boundary[5], "changes the Dirichlet")):
        swap = np.arange(mesh.n_vertices)
        swap[[boundary[0], other]] = other, boundary[0]
        mesh.actions["swap"] = swap
        with pytest.raises(EquivariantError, match=message):
            sector_spectrum(mesh, {"swap": 1}, "steklov")
    assert sector_spectrum(mesh, {"sy": -1}, "steklov").n_zero == 0


def _sector_basis_loop(n, perms, signs):
    # the orbit walk sector_basis replaced: images of each unseen vertex under
    # every product of the involutions, in vertex order
    group = [np.arange(n)]
    chars = [1.0]
    for perm, sign in zip(perms, signs):
        group = group + [g[perm] for g in group]
        chars = chars + [c * sign for c in chars]
    seen = np.zeros(n, dtype=bool)
    rows, cols, vals = [], [], []
    col = 0
    for v in range(n):
        if seen[v]:
            continue
        images = {}
        consistent = True
        for g, c in zip(group, chars):
            w = int(g[v])
            if w in images and images[w] != c:
                consistent = False
            images[w] = c
        for w in images:
            seen[w] = True
        if not consistent:
            continue
        norm = 1.0 / np.sqrt(len(images))
        for w, c in images.items():
            rows.append(w)
            cols.append(col)
            vals.append(c * norm)
        col += 1
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, col))


def test_sector_basis_matches_the_orbit_walk():
    sphere, torus = round_sphere(2), flat_torus(1)
    cases = [(sphere, ["sz"], [s]) for s in (1.0, -1.0)]
    cases += [(torus, ["sx"], [s]) for s in (1.0, -1.0)]
    cases += [(torus, ["sx", "sy"], list(s)) for s in itertools.product((1.0, -1.0), repeat=2)]
    dropped = 0
    for mesh, names, signs in cases:
        n = mesh.n_vertices
        perms = [mesh.actions[k] for k in names]
        got, want = sector_basis(n, perms, signs), _sector_basis_loop(n, perms, signs)
        assert got.shape == want.shape
        assert np.array_equal(got.toarray(), want.toarray())
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, part), getattr(want, part))
        dropped += got.nnz < n
    assert dropped >= 3
