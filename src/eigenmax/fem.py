"""Piecewise-linear Galerkin discretization of Laplace, Steklov and mixed problems.

Everything is assembled from the reference edge lengths (cotangents via the
law of cosines, areas via Heron), so the discrete Dirichlet energy is
independent of the conformal density.  The density enters only through the
lumped interior mass (weight rho) and the lumped boundary mass (weight
sqrt(rho)), which is what makes the normalized eigenvalues scale invariant
at the discrete level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

DEFAULT_CLUSTER_TOL = 1e-3


class FemError(RuntimeError):
    pass


class NoConvergence(FemError):
    pass


class SingularMass(FemError):
    pass


class NoBoundary(FemError):
    pass


class AllDirichlet(FemError):
    pass


def assemble_stiffness(mesh):
    """Cotangent-weight stiffness matrix of the reference metric (CSR).

    Assembled once per mesh geometry; every call returns a private copy.
    """
    return mesh.geometry.cached("stiffness", lambda: _cotangent_stiffness(mesh)).copy()


def _cotangent_stiffness(mesh):
    # int32 triplets: they are the largest temporaries of a mesh's first solve
    tri = mesh.triangles.astype(np.int32)
    half_cot = 0.5 * mesh.geometry.cotangents
    rows = np.empty((12, len(tri)), dtype=np.int32)
    cols = np.empty((12, len(tri)), dtype=np.int32)
    vals = np.empty((12, len(tri)))
    # cot(angle at vertex 0) pairs with the opposite edge (1,2), etc.
    for corner in range(3):
        i = tri[:, (corner + 1) % 3]
        j = tri[:, (corner + 2) % 3]
        w = half_cot[:, corner]
        block = slice(4 * corner, 4 * corner + 4)
        rows[block] = i, j, i, j
        cols[block] = j, i, i, j
        vals[block] = -w, -w, w, w
    n = mesh.n_vertices
    return sp.csr_matrix((vals.ravel(), (rows.ravel(), cols.ravel())), shape=(n, n))


def assemble_mass(mesh):
    """Lumped mass diagonal: rho_i * (1/3) * sum of adjacent reference areas."""
    return mesh.geometry.cached("mass", lambda: _lumped_mass(mesh)) * mesh.density


def _lumped_mass(mesh):
    areas = mesh.reference_areas()
    diag = np.zeros(mesh.n_vertices)
    for k in range(3):
        np.add.at(diag, mesh.triangles[:, k], areas / 3.0)
    diag.flags.writeable = False
    return diag


def assemble_boundary_mass(mesh, panels=None):
    """Lumped boundary mass: sqrt(rho_i) * half the adjacent panel lengths.

    panels selects the Steklov part of the boundary; by default every
    boundary panel that is not a mirror is included.
    """
    diag = mesh.geometry.cached(
        ("boundary_mass", _panel_key(panels)), lambda: _lumped_boundary_mass(mesh, panels)
    )
    return diag * np.sqrt(mesh.density)


def _panel_key(panels):
    return None if panels is None else frozenset(panels)


def _lumped_boundary_mass(mesh, panels):
    diag = np.zeros(mesh.n_vertices)
    found = False
    # sorted, so the sums do not depend on the panel dict's insertion order
    for e, lab in sorted(mesh.panels.items()):
        if panels is None:
            if lab.startswith("mirror:"):
                continue
        elif lab not in panels:
            continue
        found = True
        l = mesh.edge_lengths[e]
        diag[e[0]] += 0.5 * l
        diag[e[1]] += 0.5 * l
    if not found:
        raise NoBoundary("no boundary panels selected")
    diag.flags.writeable = False
    return diag


@dataclass
class Spectrum:
    """Ascending eigenvalues with mass-orthonormal vectors on the full vertex set."""

    eigenvalues: np.ndarray
    vectors: np.ndarray  # (n_vertices, k)
    mass: np.ndarray  # diagonal of the mass/boundary-mass used for normalization
    kind: str
    n_zero: int = 0
    cluster_tol: float = DEFAULT_CLUSTER_TOL

    def clusters(self):
        """Index ranges [start, end) grouping nonzero eigenvalues by relative gap."""
        vals = self.eigenvalues
        out = []
        i = self.n_zero
        while i < len(vals):
            j = i + 1
            while j < len(vals) and vals[j] - vals[j - 1] <= self.cluster_tol * max(
                abs(vals[j]), abs(vals[i]), 1e-30
            ):
                j += 1
            out.append((i, j))
            i = j
        return out

    def first_nonzero(self):
        if self.n_zero >= len(self.eigenvalues):
            raise FemError("no nonzero eigenvalue computed")
        return float(self.eigenvalues[self.n_zero])

    def first_cluster(self):
        """(eigenvalues, vectors) of the lowest nonzero cluster."""
        i, j = self.clusters()[0]
        return self.eigenvalues[i:j], self.vectors[:, i:j]

    def to_json(self):
        return {
            "kind": self.kind,
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "n_zero": self.n_zero,
            "clusters": [[int(a), int(b)] for a, b in self.clusters()],
            "first_nonzero": float(self.eigenvalues[self.n_zero])
            if self.n_zero < len(self.eigenvalues)
            else None,
        }


def _mass_orthonormalize(vals, vecs, mass):
    """Symmetric re-orthonormalization within clusters w.r.t. the diagonal mass."""
    order = np.argsort(vals)
    vals = vals[order]
    vecs = vecs[:, order]
    gram = vecs.T @ (mass[:, None] * vecs)
    # Cholesky of the Gram matrix fixes scaling and any drift inside clusters
    chol = np.linalg.cholesky(gram)
    vecs = np.linalg.solve(chol, vecs.T).T
    return vals, vecs


def solve_generalized(K, M, count, tol=1e-9, seed=0, dense_cutoff=600):
    """Lowest eigenpairs of K u = lambda M u, K sym PSD, M diagonal positive.

    Deterministic: the Lanczos starting vector is drawn from a seeded
    generator.  count is clamped to the dimension.
    """
    n = K.shape[0]
    M = np.asarray(M)
    if np.any(M <= 0):
        raise SingularMass("mass diagonal must be positive on the solve subspace")
    count = int(min(count, n))
    if count < 1:
        raise FemError("count must be >= 1")
    if n <= dense_cutoff or count > n - 2:
        vals, vecs = scipy.linalg.eigh(K.toarray(), np.diag(M))
        vals, vecs = vals[:count], vecs[:, :count]
    else:
        rng = np.random.default_rng(seed)
        v0 = rng.standard_normal(n)
        scale = K.diagonal().sum() / M.sum()
        try:
            vals, vecs = spla.eigsh(
                K,
                k=count,
                M=sp.diags(M),
                sigma=-1e-3 * scale,
                which="LM",
                v0=v0,
                tol=tol,
                maxiter=5000,
            )
        except spla.ArpackNoConvergence as exc:
            raise NoConvergence(str(exc)) from exc
    vals, vecs = _mass_orthonormalize(vals, vecs, M)
    res = _max_residual(K, M, vals, vecs)
    if res > max(1e3 * tol, 1e-7) * max(1.0, abs(vals[-1])):
        raise NoConvergence(f"residual {res} too large")
    return vals, vecs


def _max_residual(K, M, vals, vecs):
    R = K @ vecs - M[:, None] * vecs * vals[None, :]
    return float(
        np.max(np.linalg.norm(R, axis=0) / np.maximum(np.linalg.norm(M[:, None] * vecs, axis=0), 1e-300))
    )


def _zero_count(vals, scale):
    tol = 1e-8 * max(scale, 1e-30)
    return int(np.sum(np.abs(vals) < tol))


def laplace_spectrum(mesh, count=8, dirichlet_panels=(), seed=0, tol=1e-9):
    """Laplace eigenvalues; zero mode included (and reported) unless Dirichlet."""
    K = assemble_stiffness(mesh)
    M = assemble_mass(mesh)
    fixed = set()
    for lab in dirichlet_panels:
        fixed.update(mesh.panel_vertices(lab).tolist())
    if fixed:
        free = np.array(sorted(set(range(mesh.n_vertices)) - fixed), dtype=int)
        Kf = K[free][:, free].tocsr()
        vals, vecs_f = solve_generalized(Kf, M[free], count, tol=tol, seed=seed)
        vecs = np.zeros((mesh.n_vertices, vecs_f.shape[1]))
        vecs[free] = vecs_f
        n_zero = 0
    else:
        vals, vecs = solve_generalized(K, M, count + 1, tol=tol, seed=seed)
        n_zero = _zero_count(vals, vals[-1])
    return Spectrum(vals, vecs, M, "laplace", n_zero=n_zero)


def _harmonic_solve(K, interior, boundary, rhs_at_boundary):
    """Solve K u = 0 with fixed boundary values (columns of rhs_at_boundary)."""
    Kii = K[interior][:, interior].tocsc()
    Kib = K[interior][:, boundary]
    lu = spla.splu(Kii)
    return lu, -lu.solve(Kib @ rhs_at_boundary)


@dataclass(frozen=True)
class _DirichletToNeumann:
    """Density-independent Schur complement of K onto the Steklov vertices."""

    steklov: np.ndarray  # Steklov vertices (positive boundary mass, not Dirichlet)
    interior: np.ndarray  # the remaining free vertices
    dtn: np.ndarray  # (s, s) symmetric Dirichlet-to-Neumann matrix
    harmonic: np.ndarray  # (i, s) interior values of the harmonic extensions
    has_dirichlet: bool


def _dirichlet_to_neumann(mesh, on_boundary, dirichlet_panels):
    n = mesh.n_vertices
    fixed = set()
    for lab in dirichlet_panels:
        fixed.update(mesh.panel_vertices(lab).tolist())
    steklov = np.array([i for i in np.nonzero(on_boundary)[0] if i not in fixed], dtype=int)
    if len(steklov) == 0:
        raise AllDirichlet("no Steklov vertices remain")
    free = np.array(sorted(set(range(n)) - fixed), dtype=int)
    K = assemble_stiffness(mesh)[free][:, free].tocsr()
    loc = {v: k for k, v in enumerate(free)}
    b_loc = np.array([loc[v] for v in steklov], dtype=int)
    i_loc = np.array(sorted(set(range(len(free))) - set(b_loc.tolist())), dtype=int)
    Kbb = K[b_loc][:, b_loc].toarray()
    Kbi = K[b_loc][:, i_loc]
    _, Ui = _harmonic_solve(K, i_loc, b_loc, np.eye(len(b_loc)))
    dtn = Kbb + Kbi @ Ui
    dtn = 0.5 * (dtn + dtn.T)
    for array in (steklov, dtn, Ui):
        array.flags.writeable = False
    return _DirichletToNeumann(steklov, free[i_loc], dtn, Ui, bool(fixed))


def steklov_spectrum(mesh, count=8, steklov_panels=None, dirichlet_panels=(), seed=0):
    """Steklov / mixed-Steklov eigenvalues via the boundary Schur complement.

    The pencil is K u = sigma B u with B supported on the Steklov panels;
    eigenvectors are returned on the whole mesh as discrete harmonic
    extensions of their boundary traces.  The Schur complement does not
    depend on the density and is computed once per mesh geometry and
    boundary-condition choice, so a solve is one dense boundary eigh.
    """
    if not mesh.has_boundary():
        raise NoBoundary("Steklov problem needs a boundary")
    B = assemble_boundary_mass(mesh, steklov_panels)
    key = ("dtn", _panel_key(steklov_panels), frozenset(dirichlet_panels))
    dtn = mesh.geometry.cached(
        key, lambda: _dirichlet_to_neumann(mesh, B > 0, dirichlet_panels)
    )
    n = mesh.n_vertices
    Bb = B[dtn.steklov]
    count = int(min(count, len(dtn.steklov)))
    # Bb is diagonal and positive, so the pencil (dtn, Bb) is the standard
    # problem for Bb^-1/2 dtn Bb^-1/2; numpy solves it, as it does every
    # other dense product of a solve, so that scipy's separate BLAS thread
    # pool does not contend with numpy's on every call
    scale = 1.0 / np.sqrt(Bb)
    vals, modes = np.linalg.eigh(scale[:, None] * dtn.dtn * scale[None, :])
    vals, traces = vals[:count], scale[:, None] * modes[:, :count]
    vals, traces = _mass_orthonormalize(vals, traces, Bb)
    vecs = np.zeros((n, count))
    vecs[dtn.steklov] = traces
    vecs[dtn.interior] = dtn.harmonic @ traces
    n_zero = 0 if dtn.has_dirichlet else _zero_count(vals, vals[-1] if len(vals) else 1.0)
    return Spectrum(vals, vecs, _embed(B, dtn.steklov, n), "steklov", n_zero=n_zero)


def _embed(B, idx, n):
    out = np.zeros(n)
    out[idx] = B[idx]
    return out


def mixed_spectrum(mesh, bc, count=8, seed=0):
    """Spectrum for a per-panel boundary-condition map.

    bc maps panel labels to 'neumann', 'dirichlet' or 'steklov'.  With at
    least one Steklov panel this is a (mixed) Steklov problem; otherwise a
    Laplace problem with the given Dirichlet panels.
    """
    steklov = [lab for lab, c in bc.items() if c == "steklov"]
    dirichlet = [lab for lab, c in bc.items() if c == "dirichlet"]
    if steklov:
        return steklov_spectrum(
            mesh, count, steklov_panels=steklov, dirichlet_panels=dirichlet, seed=seed
        )
    return laplace_spectrum(mesh, count, dirichlet_panels=dirichlet, seed=seed)


def normalized_first(mesh, kind="laplace", spectrum=None, count=8, seed=0):
    """Scale-invariant first eigenvalue: area*lambda_1 or length*sigma_1."""
    if spectrum is None:
        spectrum = (
            laplace_spectrum(mesh, count, seed=seed)
            if kind == "laplace"
            else steklov_spectrum(mesh, count, seed=seed)
        )
    lam = spectrum.first_nonzero()
    if kind == "laplace":
        return mesh.area() * lam
    return mesh.boundary_length() * lam


def dirichlet_energy_density(mesh, U):
    """Vertex-lumped reference energy density sum_i |grad u_i|^2 (ref metric).

    At a conformal eigenmap this profile is proportional to the extremal
    density, which makes it a natural replacement update for the optimizer.
    """
    U = np.atleast_2d(np.asarray(U, dtype=float).T).T
    area = np.maximum(mesh.reference_areas(), 1e-150)
    cot = mesh.geometry.cotangents
    tri = mesh.triangles
    energy = np.zeros(len(tri))
    for corner in range(3):
        i = tri[:, (corner + 1) % 3]
        j = tri[:, (corner + 2) % 3]
        diff = U[i] - U[j]
        energy += 0.5 * cot[:, corner] * np.sum(diff**2, axis=1)
    density_t = energy / area  # piecewise-constant |grad|^2
    out = np.zeros(mesh.n_vertices)
    weight = np.zeros(mesh.n_vertices)
    for k in range(3):
        np.add.at(out, tri[:, k], density_t * area / 3.0)
        np.add.at(weight, tri[:, k], area / 3.0)
    return out / np.maximum(weight, 1e-300)


def boundary_energy_density(mesh, U, panels=None):
    """Vertex-lumped squared tangential derivative along the Steklov boundary."""
    U = np.atleast_2d(np.asarray(U, dtype=float).T).T
    out = np.zeros(mesh.n_vertices)
    weight = np.zeros(mesh.n_vertices)
    for e, lab in mesh.panels.items():
        if panels is None:
            if lab.startswith("mirror:"):
                continue
        elif lab not in panels:
            continue
        a, b = e
        l = mesh.edge_lengths[e]
        val = float(np.sum((U[a] - U[b]) ** 2)) / l**2
        out[a] += val * l / 2
        out[b] += val * l / 2
        weight[a] += l / 2
        weight[b] += l / 2
    sel = weight > 0
    out[sel] /= weight[sel]
    return out, sel


def harmonic_extension(mesh, boundary_values, panels=None):
    """Discrete harmonic extension of values given on a marked boundary circle.

    boundary_values: dict vertex -> value, or (vertices, values); the
    remaining boundary is natural (Neumann).  Returns (field, energy).
    """
    if isinstance(boundary_values, dict):
        verts = np.array(sorted(boundary_values), dtype=int)
        vals = np.array([boundary_values[v] for v in verts], dtype=float)
    else:
        verts, vals = boundary_values
        verts = np.asarray(verts, dtype=int)
        vals = np.asarray(vals, dtype=float)
    if panels is not None:
        panel_verts = set()
        for lab in panels:
            panel_verts.update(mesh.panel_vertices(lab).tolist())
        if set(verts.tolist()) != panel_verts:
            raise FemError("boundary values do not match the marked panels")
    K = assemble_stiffness(mesh)
    n = mesh.n_vertices
    interior = np.array(sorted(set(range(n)) - set(verts.tolist())), dtype=int)
    u = np.zeros(n)
    u[verts] = vals
    if len(interior):
        _, ui = _harmonic_solve(K, interior, verts, vals[:, None])
        u[interior] = ui[:, 0]
    energy = float(u @ (K @ u))
    return u, energy
