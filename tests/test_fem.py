import numpy as np
import pytest
import scipy.sparse as sp

from eigenmax.builtins import flat_cylinder, flat_torus, round_sphere, unit_disk
from eigenmax.fem import (
    AllDirichlet,
    NoBoundary,
    assemble_boundary_mass,
    assemble_mass,
    assemble_stiffness,
    boundary_energy_density,
    dirichlet_energy_density,
    harmonic_extension,
    laplace_spectrum,
    mixed_spectrum,
    normalized_first,
    solve_generalized,
    steklov_spectrum,
)
from eigenmax.meshcore import SymmetricMesh, mesh_from_positions


def test_stiffness_constants_in_kernel():
    mesh = round_sphere(2)
    K = assemble_stiffness(mesh)
    u = np.ones(mesh.n_vertices)
    assert np.max(np.abs(K @ u)) < 1e-12


def test_stiffness_density_independent():
    mesh = unit_disk(1)
    K1 = assemble_stiffness(mesh)
    K2 = assemble_stiffness(mesh.with_density(2.0 * mesh.density))
    assert (K1 - K2).nnz == 0 or np.max(np.abs((K1 - K2).toarray())) == 0.0


def test_unit_square_cotan_matrix():
    # unit square split along the diagonal (0,2): two right isoceles triangles
    pos = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)]
    mesh = mesh_from_positions(pos, [(0, 1, 2), (0, 2, 3)])
    K = assemble_stiffness(mesh).toarray()
    expected = np.array(
        [
            [1.0, -0.5, 0.0, -0.5],
            [-0.5, 1.0, -0.5, 0.0],
            [0.0, -0.5, 1.0, -0.5],
            [-0.5, 0.0, -0.5, 1.0],
        ]
    )
    assert np.allclose(K, expected, atol=1e-14)


def test_mass_traces():
    mesh = unit_disk(2)
    assert assemble_mass(mesh).sum() == pytest.approx(mesh.area(), rel=1e-12)
    assert assemble_boundary_mass(mesh).sum() == pytest.approx(
        mesh.boundary_length(), rel=1e-12
    )
    rho4 = mesh.with_density(4.0 * mesh.density)
    assert assemble_mass(rho4).sum() == pytest.approx(4 * mesh.area(), rel=1e-12)
    assert assemble_boundary_mass(rho4).sum() == pytest.approx(
        2 * mesh.boundary_length(), rel=1e-12
    )


def test_solve_generalized_small():
    import scipy.sparse as sp

    K = sp.diags([0.0, 1.0, 2.0]).tocsr()
    M = np.ones(3)
    vals, vecs, _ = solve_generalized(K, M, 2)
    assert np.allclose(vals, [0.0, 1.0])
    # dense oracle on a random SPD pencil
    rng = np.random.default_rng(11)
    A = rng.standard_normal((200, 200))
    K = sp.csr_matrix(A @ A.T + 200 * np.eye(200))
    M = rng.uniform(0.5, 2.0, 200)
    vals, vecs, _ = solve_generalized(K, M, 5)
    import scipy.linalg

    dense = scipy.linalg.eigh(K.toarray(), np.diag(M), eigvals_only=True)
    assert np.allclose(vals, dense[:5], rtol=1e-8)
    gram = vecs.T @ (M[:, None] * vecs)
    assert np.allclose(gram, np.eye(5), atol=1e-8)


def test_sphere_spectrum():
    mesh = round_sphere(3)
    spec = laplace_spectrum(mesh, count=8)
    assert spec.n_zero == 1
    lam, vecs = spec.first_cluster()
    assert len(lam) == 3  # first eigenvalue of the round sphere has multiplicity 3
    assert normalized_first(mesh, "laplace", spec) == pytest.approx(8 * np.pi, rel=5e-3)


def test_torus_spectrum():
    mesh = flat_torus(2)
    spec = laplace_spectrum(mesh, count=8)
    lam, _ = spec.first_cluster()
    assert len(lam) == 4
    assert normalized_first(mesh, "laplace", spec) == pytest.approx(
        4 * np.pi**2, rel=1e-2
    )


def test_disk_steklov():
    mesh = unit_disk(3)
    spec = steklov_spectrum(mesh, count=12)
    assert spec.n_zero == 1
    sig = spec.eigenvalues[spec.n_zero :]
    # sigma_k = k with multiplicity 2 on the unit disk
    expected = [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]
    for got, want in zip(sig, expected):
        assert got == pytest.approx(want, rel=1e-2)
    assert normalized_first(mesh, "steklov", spec) == pytest.approx(2 * np.pi, rel=1e-2)


def test_mixed_cylinder_spectrum():
    for L in (0.5, 1.0, 2.0):
        mesh = flat_cylinder(L, 2)
        spec = mixed_spectrum(mesh, {"end0": "neumann", "endL": "steklov"}, count=8)
        sig = spec.eigenvalues[spec.n_zero :]
        expected = sorted(
            [k * np.tanh(k * L) for k in (1, 2, 3) for _ in range(2)]
        )
        for got, want in zip(sig[:6], expected):
            assert got == pytest.approx(want, rel=1e-2), L


def test_dirichlet_bracketing():
    # adding a Dirichlet panel cannot decrease the first eigenvalue
    mesh = flat_cylinder(1.0, 1)
    free = mixed_spectrum(mesh, {"end0": "neumann", "endL": "steklov"}, count=3)
    clamped = mixed_spectrum(mesh, {"end0": "dirichlet", "endL": "steklov"}, count=3)
    assert clamped.eigenvalues[clamped.n_zero] >= free.first_nonzero() - 1e-12


def test_conformal_invariance_exact():
    mesh = unit_disk(2)
    for c in (0.5, 3.0):
        scaled = mesh.with_density(c * mesh.density)
        a = normalized_first(mesh, "laplace")
        b = normalized_first(scaled, "laplace")
        assert b == pytest.approx(a, rel=1e-9)
        sa = normalized_first(mesh, "steklov")
        sb = normalized_first(scaled, "steklov")
        assert sb == pytest.approx(sa, rel=1e-9)


def test_convergence_second_order():
    errs = []
    for level in (2, 3, 4):
        mesh = round_sphere(level)
        errs.append(abs(normalized_first(mesh, "laplace") - 8 * np.pi))
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


def test_errors():
    sphere = round_sphere(1)
    with pytest.raises(NoBoundary):
        steklov_spectrum(sphere, 3)
    cyl = flat_cylinder(1.0, 0)
    with pytest.raises(AllDirichlet):
        steklov_spectrum(
            cyl, 3, steklov_panels=["endL"], dirichlet_panels=["endL", "end0"]
        )


def test_harmonic_extension_disk():
    mesh = unit_disk(3)
    rim = mesh.panel_vertices("free")
    const = harmonic_extension(mesh, (rim, np.ones(len(rim))))
    assert const[1] == pytest.approx(0.0, abs=1e-12)
    theta = np.arctan2(mesh.positions[rim, 1], mesh.positions[rim, 0])
    u, energy = harmonic_extension(mesh, (rim, np.cos(theta)))
    assert energy == pytest.approx(np.pi, rel=1e-2)


def test_harmonic_extension_cylinder_mode():
    # lowest circular mode at one end, energy matches the separated solution
    for L in (1.0, 2.0):
        mesh = flat_cylinder(L, 2)
        end0 = mesh.panel_vertices("end0")
        theta = np.arctan2(mesh.positions[end0, 1], mesh.positions[end0, 0])
        _, energy = harmonic_extension(mesh, (end0, np.cos(theta)))
        expected = np.pi * (1.0 / (1 + np.exp(-2 * L)) - 1.0 / (1 + np.exp(2 * L)))
        assert energy == pytest.approx(expected, rel=1e-2), L


def test_cached_operators_match_a_fresh_mesh():
    # the operators cached on a mesh equal those assembled for an independent
    # copy rebuilt from its JSON, also after density updates
    mesh = unit_disk(2)
    rho = 1.0 + 0.5 * mesh.positions[:, 0] ** 2
    for scaled in (mesh, mesh.with_density(rho), mesh.with_density(2.0 * rho)):
        fresh = SymmetricMesh.from_json(scaled.to_json())
        assert fresh.geometry is not scaled.geometry
        assert np.array_equal(
            assemble_stiffness(scaled).toarray(), assemble_stiffness(fresh).toarray()
        )
        assert np.array_equal(assemble_mass(scaled), assemble_mass(fresh))
        assert np.array_equal(assemble_boundary_mass(scaled), assemble_boundary_mass(fresh))
        a, b = steklov_spectrum(scaled, 6), steklov_spectrum(fresh, 6)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.vectors, b.vectors)


def test_returned_stiffness_is_a_private_copy():
    mesh = round_sphere(1)
    K = assemble_stiffness(mesh)
    expected = K.toarray()
    K.data[:] = 7.0
    K[0, 0] = -1.0
    assert np.array_equal(assemble_stiffness(mesh).toarray(), expected)
    mass = assemble_mass(mesh)
    mass[:] = 0.0
    assert np.all(assemble_mass(mesh) > 0)


def test_mixed_steklov_cache_keys_on_the_panels():
    mesh = flat_cylinder(1.0, 1)
    free = mixed_spectrum(mesh, {"end0": "neumann", "endL": "steklov"}, count=3)
    clamped = mixed_spectrum(mesh, {"end0": "dirichlet", "endL": "steklov"}, count=3)
    both = steklov_spectrum(mesh, 3, steklov_panels=["end0", "endL"])
    fresh = SymmetricMesh.from_json(mesh.to_json())
    assert np.array_equal(
        free.eigenvalues,
        mixed_spectrum(fresh, {"end0": "neumann", "endL": "steklov"}, count=3).eigenvalues,
    )
    assert clamped.n_zero == 0 and free.n_zero == 1
    assert clamped.eigenvalues[0] > free.first_nonzero() - 1e-12
    assert np.count_nonzero(both.mass) == 2 * np.count_nonzero(free.mass)


def _bumped_sphere(height):
    # level 3 has 642 vertices: above the dense cutoff, so solves are sparse
    from eigenmax.equivariant import average_invariant

    mesh = round_sphere(3)
    bump = np.exp(-np.sum((mesh.positions - [0.0, 0.0, 1.0]) ** 2, axis=1) / 0.1)
    return mesh.with_density(average_invariant(1.0 + (height - 1.0) * bump, mesh))


def test_solve_generalized_sparse_path_matches_dense():
    import scipy.linalg

    mesh = _bumped_sphere(5.0)
    K, M = assemble_stiffness(mesh), assemble_mass(mesh)
    assert K.shape[0] > 600
    vals, vecs, factor = solve_generalized(K, M, 9)
    assert factor is not None
    dense = scipy.linalg.eigh(K.toarray(), np.diag(M), eigvals_only=True)[:9]
    assert abs(vals[0]) < 1e-8 * dense[-1]
    assert np.allclose(vals[1:], dense[1:], rtol=1e-8, atol=0)
    assert np.allclose(vecs.T @ (M[:, None] * vecs), np.eye(9), atol=1e-8)


def _warm_and_fresh(start_height, height, count=6):
    start = laplace_spectrum(_bumped_sphere(start_height), count=8)
    mesh = _bumped_sphere(height)
    return laplace_spectrum(mesh, count, start=start), laplace_spectrum(mesh, count)


def test_warm_start_from_a_far_density_finds_the_lowest_eigenvalues(caplog):
    # the start is the uniform density, the target has a 100:1 bump
    with caplog.at_level("DEBUG", logger="eigenmax.fem"):
        warm, fresh = _warm_and_fresh(1.0, 100.0)
    assert any(r.getMessage().startswith("warm, ") for r in caplog.records)
    assert warm.factor is None and fresh.factor is not None
    assert warm.n_zero == fresh.n_zero == 1
    assert np.allclose(warm.eigenvalues[1:], fresh.eigenvalues[1:], rtol=1e-10, atol=0)
    M = warm.mass
    assert np.allclose(warm.vectors.T @ (M[:, None] * warm.vectors), np.eye(7), atol=1e-8)


@pytest.mark.parametrize("failure", ["raises", "not converged"])
def test_failed_warm_start_falls_back_to_a_fresh_solve(monkeypatch, caplog, failure):
    import eigenmax.fem as fem

    def broken_lobpcg(A, X, **kwargs):
        if failure == "raises":
            raise np.linalg.LinAlgError("forced failure")
        # the start block itself, whose residuals fail the acceptance check
        return np.ones(X.shape[1]), X, []

    monkeypatch.setattr(fem.spla, "lobpcg", broken_lobpcg)
    with caplog.at_level("DEBUG", logger="eigenmax.fem"):
        warm, fresh = _warm_and_fresh(1.0, 3.0)
    assert any(r.getMessage().startswith("warm->fallback") for r in caplog.records)
    assert np.array_equal(warm.eigenvalues, fresh.eigenvalues)


# -- the measures computed by one kernel each, against the loops they replaced


def _reference_meshes():
    from eigenmax.builtins import conformal_annulus
    from eigenmax.chambers import build_mesh
    from eigenmax.cli import parse_descriptor
    from eigenmax.equivariant import average_invariant, quotient_mesh

    rng = np.random.default_rng(5)
    meshes = [
        round_sphere(2),
        unit_disk(2),
        flat_cylinder(1.0, 1),
        build_mesh(parse_descriptor("N_tau(1*,1+rho1)"), target_vertices=500),
        # "free" and "mirror:tau" panels: the default selection skips the mirror
        quotient_mesh(conformal_annulus(0.4, 1), "tau")[0],
    ]
    for mesh in meshes:
        rho = average_invariant(np.exp(0.3 * rng.standard_normal(mesh.n_vertices)), mesh)
        yield mesh.with_density(rho), rng.standard_normal((mesh.n_vertices, 3))


def _cotangents_loop(mesh):
    la, lb, lc = mesh.all_triangle_lengths()
    s = 0.5 * (la + lb + lc)
    four_area = 4.0 * np.maximum(np.sqrt(np.maximum(s * (s - la) * (s - lb) * (s - lc), 0.0)), 1e-150)
    corners = ((la, lb, lc), (lb, lc, la), (lc, la, lb))
    return np.column_stack([(y**2 + z**2 - x**2) / four_area for x, y, z in corners])


def _stiffness_loop(mesh, cot):
    tri = mesh.triangles.astype(np.int32)
    rows, cols, vals = [], [], []
    for corner in range(3):
        i, j = tri[:, (corner + 1) % 3], tri[:, (corner + 2) % 3]
        w = 0.5 * cot[:, corner]
        rows += [i, j, i, j]
        cols += [j, i, i, j]
        vals += [-w, -w, w, w]
    n = mesh.n_vertices
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )


def _lumped_mass_loop(mesh):
    diag = np.zeros(mesh.n_vertices)
    for k in range(3):
        np.add.at(diag, mesh.triangles[:, k], mesh.reference_areas() / 3.0)
    return diag


def _steklov_panel_edges(mesh, panels, ordered):
    items = sorted(mesh.panels.items()) if ordered else mesh.panels.items()
    for e, lab in items:
        if (lab.startswith("mirror:") if panels is None else lab not in panels):
            continue
        yield e, mesh.edge_lengths[e]


def _lumped_boundary_mass_loop(mesh, panels=None):
    diag = np.zeros(mesh.n_vertices)
    for (a, b), l in _steklov_panel_edges(mesh, panels, ordered=True):
        diag[a] += 0.5 * l
        diag[b] += 0.5 * l
    return diag


def _energy_density_loop(mesh, U, cot):
    area = np.maximum(mesh.reference_areas(), 1e-150)
    tri = mesh.triangles
    energy = np.zeros(len(tri))
    for corner in range(3):
        diff = U[tri[:, (corner + 1) % 3]] - U[tri[:, (corner + 2) % 3]]
        energy += 0.5 * cot[:, corner] * np.sum(diff**2, axis=1)
    density_t = energy / area
    out = np.zeros(mesh.n_vertices)
    weight = np.zeros(mesh.n_vertices)
    for k in range(3):
        np.add.at(out, tri[:, k], density_t * area / 3.0)
        np.add.at(weight, tri[:, k], area / 3.0)
    return out / np.maximum(weight, 1e-300)


def _boundary_length_loop(mesh, labels=None):
    total = 0.0
    for (a, b), l in _steklov_panel_edges(mesh, labels, ordered=False):
        total += l * 0.5 * (np.sqrt(mesh.density[a]) + np.sqrt(mesh.density[b]))
    return float(total)


def _boundary_energy_density_loop(mesh, U, panels=None):
    out = np.zeros(mesh.n_vertices)
    weight = np.zeros(mesh.n_vertices)
    for (a, b), l in _steklov_panel_edges(mesh, panels, ordered=False):
        val = float(np.sum((U[a] - U[b]) ** 2)) / l**2
        for v in (a, b):
            out[v] += val * l / 2
            weight[v] += l / 2
    sel = weight > 0
    out[sel] /= weight[sel]
    return out, sel


def test_operators_are_bitwise_equal_to_the_loops_they_replaced():
    for mesh, U in _reference_meshes():
        cot = _cotangents_loop(mesh)
        assert np.array_equal(mesh.geometry.cotangents, cot)
        K, K_loop = assemble_stiffness(mesh), _stiffness_loop(mesh, cot)
        assert np.array_equal(K.indptr, K_loop.indptr)
        assert np.array_equal(K.indices, K_loop.indices)
        assert np.array_equal(K.data, K_loop.data)
        assert np.array_equal(assemble_mass(mesh), _lumped_mass_loop(mesh) * mesh.density)
        assert np.array_equal(dirichlet_energy_density(mesh, U), _energy_density_loop(mesh, U, cot))
        if mesh.has_boundary():
            B_ref = _lumped_boundary_mass_loop(mesh)
            assert np.array_equal(assemble_boundary_mass(mesh), B_ref * np.sqrt(mesh.density))


def test_boundary_measures_match_the_loops_they_replaced():
    checked = 0
    for mesh, U in _reference_meshes():
        if not mesh.has_boundary():
            continue
        selections = [None] + [[lab] for lab in mesh.panel_labels()]
        for panels in selections:
            assert mesh.boundary_length(panels) == pytest.approx(
                _boundary_length_loop(mesh, panels), rel=1e-14, abs=0.0
            )
            out, sel = boundary_energy_density(mesh, U, panels)
            ref, ref_sel = _boundary_energy_density_loop(mesh, U, panels)
            assert np.array_equal(sel, ref_sel)
            assert np.allclose(out, ref, rtol=1e-14, atol=0.0)
            checked += 1
    assert checked >= 9
