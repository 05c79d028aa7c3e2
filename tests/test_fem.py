import numpy as np
import pytest
import scipy.sparse as sp

from eigenmax.builtins import conformal_annulus, flat_cylinder, flat_torus, round_sphere, unit_disk
from eigenmax.fem import (
    AllDirichlet,
    FemError,
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
    vals, vecs = solve_generalized(K, M, 2)
    assert np.allclose(vals, [0.0, 1.0])
    # dense oracle on a random SPD pencil
    rng = np.random.default_rng(11)
    A = rng.standard_normal((200, 200))
    K = sp.csr_matrix(A @ A.T + 200 * np.eye(200))
    M = rng.uniform(0.5, 2.0, 200)
    vals, vecs = solve_generalized(K, M, 5)
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
    vals, vecs = solve_generalized(K, M, 9)
    dense = scipy.linalg.eigh(K.toarray(), np.diag(M), eigvals_only=True)[:9]
    assert abs(vals[0]) < 1e-8 * dense[-1]
    assert np.allclose(vals[1:], dense[1:], rtol=1e-8, atol=0)
    assert np.allclose(vecs.T @ (M[:, None] * vecs), np.eye(9), atol=1e-8)


def test_floor_stops_a_warm_solve_exactly_when_the_eigenvalue_is_below_it(caplog):
    # the start block: the lowest 7 eigenvectors at the uniform density
    start = laplace_spectrum(_bumped_sphere(1.0), count=8).vectors[:, :7]
    mesh = _bumped_sphere(3.0)
    fresh = laplace_spectrum(mesh, 6)
    lam = fresh.first_nonzero()
    # a start block without a floor, or a floor without a block, is the fresh solve
    for spec in (laplace_spectrum(mesh, 6, start=start), laplace_spectrum(mesh, 6, below=1.5 * lam)):
        assert not spec.bounded
        assert spec.eigenvalues.tobytes() == fresh.eigenvalues.tobytes()
    paths = []
    for floor in (lam * (1 - 1e-6), lam * (1 + 1e-6), 1.5 * lam):
        caplog.clear()
        with caplog.at_level("DEBUG", logger="eigenmax.fem"):
            spec = laplace_spectrum(mesh, 6, start=start, below=floor)
        assert (spec.first_nonzero() < floor) == (lam < floor)
        assert spec.n_zero == 1
        # every value is an upper bound of the fresh eigenvalue of its index
        assert np.all(spec.eigenvalues[1:] >= fresh.eigenvalues[1:] * (1 - 1e-12))
        logged = any(r.getMessage().startswith("Rayleigh-Ritz bound") for r in caplog.records)
        assert logged == spec.bounded
        if spec.bounded:
            M = spec.mass
            assert np.allclose(spec.vectors.T @ (M[:, None] * spec.vectors), np.eye(7), atol=1e-8)
        else:  # the same solve as without a start block and a floor
            assert spec.eigenvalues.tobytes() == fresh.eigenvalues.tobytes()
            assert spec.vectors.tobytes() == fresh.vectors.tobytes()
        paths.append(spec.bounded)
    assert paths == [False, False, True]
    # a start block that is singular under the trial mass gets no bound
    singular = start.copy()
    singular[:, 3] = singular[:, 2]
    spec = laplace_spectrum(mesh, 6, start=singular, below=1.5 * lam)
    assert not spec.bounded
    assert spec.eigenvalues.tobytes() == fresh.eigenvalues.tobytes()


# -- the measures computed by one kernel each, against the loops they replaced


def _reference_meshes():
    from eigenmax.chambers import build_mesh
    from eigenmax.cli import parse_descriptor
    from eigenmax.equivariant import average_invariant

    rng = np.random.default_rng(5)
    meshes = [
        round_sphere(2),
        unit_disk(2),
        flat_cylinder(1.0, 1),
        build_mesh(parse_descriptor("N_tau(1*,1+rho1)"), target_vertices=500),
        # "free" and "mirror:rho1" panels: the default selection skips the mirror
        _free_and_mirror_chamber(),
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
    length = dict(zip(map(tuple, mesh.edges.tolist()), mesh.lengths.tolist()))
    for e, lab in items:
        if (lab.startswith("mirror:") if panels is None else lab not in panels):
            continue
        yield e, length[e]


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


def _dtn_key(steklov_panels=None, dirichlet_panels=()):
    return ("dtn", None if steklov_panels is None else frozenset(steklov_panels), frozenset(dirichlet_panels))


def _free_and_mirror_chamber():
    """The chamber of the onestar type f=1, e={0: 1} (690 vertices, an annulus)
    with its tau mirror relabelled 'free': panels 'free' and 'mirror:rho1'."""
    from eigenmax.chambers import chamber_mesh
    from eigenmax.groups import make_group
    from eigenmax.taxonomy import TypeB

    chamber = chamber_mesh(make_group("onestar"), TypeB.make(f=1, e={0: 1}), 0.1)
    panels = {e: "free" if lab == "mirror:tau" else lab for e, lab in chamber.panels.items()}
    return SymmetricMesh(chamber.positions, chamber.triangles, (chamber.edges, chamber.lengths),
                         panels=panels)


def _steklov_cases():
    """(mesh, steklov_panels, dirichlet_panels): pure Steklov problems, and a
    mixed one with Dirichlet conditions on a mirror panel."""
    from eigenmax.chambers import build_mesh
    from eigenmax.cli import parse_descriptor
    from eigenmax.equivariant import average_invariant

    cases = []
    for mesh in (
        unit_disk(2),
        conformal_annulus(1.1997 / np.pi, 1),
        build_mesh(parse_descriptor("N_tau(1*,1+rho1)"), 600),
        build_mesh(parse_descriptor("N_tau(*222,1)"), 800),
        build_mesh(parse_descriptor("N_tau(D3,1)"), 800),
    ):
        rho = average_invariant(1.0 + 0.3 * mesh.positions[:, 0] ** 2, mesh)
        cases += [(mesh, None, ()), (mesh.with_density(rho), None, ())]
    return cases + [(_free_and_mirror_chamber(), ["free"], ["mirror:rho1"])]


# sector block sizes of the _steklov_cases meshes, in case order: the disk's
# mirror, the annulus's two commuting reflections, one mirror, three commuting
# mirrors, and the D3 mirror pair of which only the first is kept (the second
# does not commute with it); the chamber has no actions
STEKLOV_BLOCK_SIZES = (
    [49, 47], [25, 25, 23, 23], [45, 43], [14] * 8, [39, 39], [42],
)


def _full_eigh_oracle(dtn, Bb):
    # every pair of the scaled standard problem, Bb-orthonormal
    scale = 1.0 / np.sqrt(Bb)
    vals, modes = np.linalg.eigh(scale[:, None] * dtn * scale[None, :])
    return vals, scale[:, None] * modes


def test_steklov_subset_solve_matches_a_full_eigh():
    checked = 0
    for mesh, steklov_panels, dirichlet_panels in _steklov_cases():
        count = 9
        spec = steklov_spectrum(mesh, count, steklov_panels, dirichlet_panels)
        dtn = mesh.geometry.cached(_dtn_key(steklov_panels, dirichlet_panels), pytest.fail)
        # the Dirichlet vertices are neither Steklov nor interior dofs
        assert (len(dtn.steklov) + len(dtn.interior) < mesh.n_vertices) == bool(dirichlet_panels)
        Bb = assemble_boundary_mass(mesh, steklov_panels)[dtn.steklov]
        vals, traces = _full_eigh_oracle(dtn.dtn, Bb)
        assert len(spec.eigenvalues) == count
        scale = np.max(np.abs(vals[:count]))
        assert np.all(np.abs(spec.eigenvalues - vals[:count]) <= 1e-12 * scale)
        got = spec.vectors[dtn.steklov]
        assert np.allclose(got.T @ (Bb[:, None] * got), np.eye(count), atol=1e-10)
        # the spanned eigenspaces agree on every cluster that count does not cut
        i = 0
        while i < count:
            j = i + 1
            while j < len(vals) and vals[j] - vals[j - 1] <= 1e-3 * scale:
                j += 1
            if j <= count:
                overlap = got[:, i:j].T @ (Bb[:, None] * traces[:, i:j])
                assert np.allclose(np.linalg.svd(overlap, compute_uv=False), 1.0, atol=1e-8)
                checked += 1
            i = j
    assert checked >= 60


def test_steklov_blocks_are_the_sign_sectors_of_the_symmetries():
    cases = _steklov_cases()
    meshes = cases[::2]
    assert len(meshes) == len(STEKLOV_BLOCK_SIZES)
    for (mesh, steklov_panels, dirichlet_panels), sizes in zip(meshes, STEKLOV_BLOCK_SIZES):
        steklov_spectrum(mesh, 6, steklov_panels, dirichlet_panels)
        dtn = mesh.geometry.cached(_dtn_key(steklov_panels, dirichlet_panels), pytest.fail)
        assert [len(block.matrix) for block in dtn.blocks] == sizes
        assert sum(sizes) == len(dtn.steklov) and len(dtn.blocks) == 2 ** len(dtn.symmetries)


def _oracle_mismatch(spec, dtn, Bb, count):
    """Largest eigenvalue deviation from the full dense oracle, relative to the
    largest of the count values compared."""
    vals, _ = _full_eigh_oracle(dtn.dtn, Bb)
    return np.max(np.abs(spec.eigenvalues - vals[:count])) / np.max(np.abs(vals[:count]))


def test_steklov_blocks_drop_an_involution_that_is_no_symmetry():
    import copy

    mesh = unit_disk(2)
    boundary = np.flatnonzero(assemble_boundary_mass(mesh) > 0)
    swap = np.arange(mesh.n_vertices)
    a, b = boundary[0], boundary[len(boundary) // 3]
    swap[[a, b]] = b, a
    # an involution of the Steklov dofs, considered first (sorted names) and
    # so commuting with every kept one, but moving the Dirichlet-to-Neumann matrix
    mesh.actions["a_swap"] = swap
    spec = steklov_spectrum(mesh, 8)
    dtn = mesh.geometry.cached(_dtn_key(), pytest.fail)
    sy = mesh.actions["sy"][dtn.steklov]
    assert len(dtn.symmetries) == 1 and np.array_equal(dtn.steklov[dtn.symmetries[0]], sy)
    assert [len(block.matrix) for block in dtn.blocks] == [49, 47]
    Bb = assemble_boundary_mass(mesh)[dtn.steklov]
    assert _oracle_mismatch(spec, dtn, Bb, 8) <= 1e-12
    # a density the kept symmetry does not leave invariant (the constructor
    # does not check it) is solved as one block
    skewed = copy.copy(mesh)
    skewed.density = 1.0 + 0.5 * (mesh.positions[:, 1] + 1.0) ** 2
    Bb = assemble_boundary_mass(skewed)[dtn.steklov]
    assert not np.allclose(Bb[dtn.symmetries[0]], Bb)
    spec = steklov_spectrum(skewed, 8)
    assert _oracle_mismatch(spec, dtn, Bb, 8) <= 1e-12
    traces = spec.vectors[dtn.steklov]
    assert np.allclose(traces.T @ (Bb[:, None] * traces), np.eye(8), atol=1e-10)
    residual = dtn.dtn @ traces - Bb[:, None] * traces * spec.eigenvalues
    assert np.max(np.abs(residual)) <= 1e-10 * np.max(np.abs(dtn.dtn))


def test_steklov_count_is_clamped_to_the_boundary_dofs():
    mesh = unit_disk(1)
    spec = steklov_spectrum(mesh, 10**6)
    dtn = mesh.geometry.cached(_dtn_key(), pytest.fail)
    dofs = len(dtn.steklov)
    vals, _ = _full_eigh_oracle(dtn.dtn, assemble_boundary_mass(mesh)[dtn.steklov])
    assert len(spec.eigenvalues) == dofs and spec.vectors.shape == (mesh.n_vertices, dofs)
    assert np.allclose(spec.eigenvalues, vals, rtol=0, atol=1e-12 * vals[-1])
    assert spec.n_zero == 1
    empty = steklov_spectrum(mesh, 0)
    assert empty.eigenvalues.shape == (0,) and empty.vectors.shape == (mesh.n_vertices, 0)
    assert empty.n_zero == 0 and empty.clusters() == []
    assert empty.to_json()["first_nonzero"] is None
    with pytest.raises(FemError):
        empty.first_nonzero()
    with pytest.raises(ValueError):
        steklov_spectrum(mesh, -1)


def test_steklov_vectors_are_the_harmonic_extension_of_the_traces():
    from eigenmax.fem import boundary_eigenpairs, boundary_eigenvalues

    for mesh, steklov_panels, dirichlet_panels in _steklov_cases():
        spec = steklov_spectrum(mesh, 6, steklov_panels, dirichlet_panels)
        dtn = mesh.geometry.cached(_dtn_key(steklov_panels, dirichlet_panels), pytest.fail)
        Bb = assemble_boundary_mass(mesh, steklov_panels)[dtn.steklov]
        assert np.array_equal(spec.eigenvalues, boundary_eigenvalues(dtn.blocks, Bb, 6))
        traces = boundary_eigenpairs(dtn.blocks, Bb, 6)[1]
        expected = np.zeros((mesh.n_vertices, 6))
        expected[dtn.steklov] = traces
        expected[dtn.interior] = dtn.harmonic @ traces
        first = spec.vectors
        assert np.array_equal(first, expected)
        assert spec.vectors is first


class _NoExtension:
    """Stands in for the interior harmonic extensions; fails when applied."""

    def __matmul__(self, other):
        raise AssertionError("interior extension computed")


def test_eigenvalue_readers_do_not_extend_into_the_interior(monkeypatch):
    import dataclasses

    from eigenmax import fem

    # nor compute the traces: the blocked vector solve runs on the first read
    # of vectors only
    def no_traces(blocks, Bb, count):
        raise AssertionError("boundary traces computed")

    monkeypatch.setattr(fem, "boundary_eigenpairs", no_traces)
    for mesh in (unit_disk(2), conformal_annulus(1.1997 / np.pi, 1)):
        spec = steklov_spectrum(mesh, 8)
        assert normalized_first(mesh, "steklov", spec) == normalized_first(mesh, "steklov")
        assert spec.clusters()[0][0] == spec.n_zero == 1
        assert spec.to_json()["first_nonzero"] == spec.first_nonzero() > 0
        with pytest.raises(AssertionError, match="boundary traces"):
            spec.vectors
    monkeypatch.undo()

    mesh = unit_disk(2)
    key = _dtn_key()
    steklov_spectrum(mesh, 4)
    dtn = mesh.geometry.cached(key, pytest.fail)
    mesh.geometry._cache[key] = dataclasses.replace(dtn, harmonic=_NoExtension())
    trial = mesh.with_density(1.0 + 0.5 * mesh.positions[:, 0] ** 2)
    spec = steklov_spectrum(trial, 8)
    assert normalized_first(trial, "steklov", spec) > 0
    assert normalized_first(trial, "steklov") > 0
    assert spec.to_json()["first_nonzero"] == spec.first_nonzero()
    assert spec.clusters()[0][0] == spec.n_zero == 1
    assert np.count_nonzero(spec.mass) == len(dtn.steklov)
    with pytest.raises(AssertionError, match="interior extension"):
        spec.vectors


def _unique_bars_oracle(tri):
    bars = np.vstack([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]])
    bars.sort(axis=1)
    return np.unique(bars, axis=0)


def test_unique_bars_matches_a_row_unique():
    from scipy.spatial import Delaunay

    from eigenmax.chambers import build_mesh
    from eigenmax.cli import parse_descriptor
    from eigenmax.meshcore import triangle_edges

    rng = np.random.default_rng(3)
    cases = [Delaunay(rng.random((n, 2))).simplices for n in (3, 40, 700)]
    cases.append(rng.integers(0, 50, size=(300, 3)))
    cases.append(rng.integers(0, 2**20, size=(500, 3)).astype(np.int32))
    cases.append(np.zeros((0, 3), dtype=np.int32))
    cases.append(build_mesh(parse_descriptor("N_tau(1*,1+rho1)"), 600).triangles)
    cases.append(unit_disk(2).triangles)
    for tri in cases:
        got, want = triangle_edges(tri), _unique_bars_oracle(tri)
        assert got.dtype == want.dtype == tri.dtype
        assert np.array_equal(got, want)


def test_harmonic_extension_checks_the_marked_panels():
    mesh = flat_cylinder(1.0, 1)
    end0 = mesh.panel_vertices("end0")
    theta = np.arctan2(mesh.positions[end0, 1], mesh.positions[end0, 0])
    u, energy = harmonic_extension(mesh, (end0, np.cos(theta)))
    marked, marked_energy = harmonic_extension(mesh, (end0, np.cos(theta)), panels=["end0"])
    assert np.array_equal(u, marked) and energy == marked_energy
    as_dict = dict(zip(end0.tolist(), np.cos(theta)))
    assert np.array_equal(harmonic_extension(mesh, as_dict, panels=["end0"])[0], u)
    for verts, panels in ((end0, ["endL"]), (end0[1:], ["end0"]), (end0, ["end0", "endL"])):
        with pytest.raises(FemError, match="do not match"):
            harmonic_extension(mesh, (verts, np.ones(len(verts))), panels=panels)


# -- Laplace sector blocks


def _dense_lowest(mesh, count):
    """The lowest count eigenpairs of K u = lambda M u by a dense generalized eigh."""
    import scipy.linalg

    M = assemble_mass(mesh)
    return scipy.linalg.eigh(assemble_stiffness(mesh).toarray(), np.diag(M), subset_by_index=[0, count - 1])


def test_merged_sector_solves_match_a_full_solve(monkeypatch):
    import eigenmax.fem as fem

    # split by every kept involution, however small the sectors get
    monkeypatch.setattr(fem, "SECTOR_MIN_SIZE", 1)
    split = 0
    for mesh, _ in _reference_meshes():
        for count in (1, 8):
            spec = laplace_spectrum(mesh, count)
            vals, vecs = _dense_lowest(mesh, count + 1)
            assert np.allclose(spec.eigenvalues, vals, rtol=1e-10, atol=1e-10 * vals[-1])
            M = spec.mass
            assert np.allclose(spec.vectors.T @ (M[:, None] * spec.vectors), np.eye(count + 1), atol=1e-10)
            # every cluster below the top one spans the dense solve's cluster space
            for i, j in spec.clusters()[:-1]:
                overlap = vecs[:, i:j].T @ (M[:, None] * spec.vectors[:, i:j])
                assert np.linalg.svd(overlap, compute_uv=False).min() > 1 - 1e-8
            # without a prior every block is solved at this density
            assert all(s.density is mesh.density for s in spec.sectors)
        split += len(spec.sectors) > 1
    assert split >= 3


def test_small_meshes_keep_one_identity_block():
    mesh = round_sphere(2)
    spec = laplace_spectrum(mesh, 8)
    assert mesh.n_vertices < 2 * 1000 and len(mesh.actions) == 3
    assert [s.block.name for s in spec.sectors] == ["identity"]
