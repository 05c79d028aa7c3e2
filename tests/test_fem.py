import numpy as np
import pytest

from eigenmax.builtins import flat_cylinder, flat_torus, round_sphere, unit_disk
from eigenmax.fem import (
    AllDirichlet,
    NoBoundary,
    assemble_boundary_mass,
    assemble_mass,
    assemble_stiffness,
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
