"""Piecewise-linear Galerkin discretization of Laplace, Steklov and mixed problems.

Everything is assembled from the reference edge lengths (cotangents via the
law of cosines, areas via Heron), so the discrete Dirichlet energy is
independent of the conformal density.  The density enters only through the
lumped interior mass (weight rho) and the lumped boundary mass (weight
sqrt(rho)), which is what makes the normalized eigenvalues scale invariant
at the discrete level.
"""

from __future__ import annotations

import ctypes
import logging
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .meshcore import _frozen

DEFAULT_CLUSTER_TOL = 1e-3
# LOBPCG of a warm-started solve stops at residuals |K u - lambda M u| below
# WARM_RTOL * lambda * |M u| (lambda of the last start vector), ten times
# inside the acceptance check; not converged after WARM_MAXITER iterations,
# it gives way to a shift-invert solve
WARM_RTOL = 1e-7
WARM_MAXITER = 40

log = logging.getLogger(__name__)


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
    return _reference_mass(mesh) * mesh.density


def _reference_mass(mesh):
    return mesh.geometry.cached(
        "mass", lambda: _frozen(_lump(mesh, mesh.triangles, mesh.reference_areas()))
    )


def _lump(mesh, cells, per_cell):
    """Per-vertex sums of an equal share of the value of each adjacent cell.

    cells are the (k, 3) triangles or (k, 2) edges.  A vertex adds its shares
    corner by corner and, within a corner, in cell order: the order of
    np.add.at applied corner by corner.
    """
    corners = cells.shape[1]
    share = per_cell / corners
    return np.bincount(
        cells.T.ravel(), weights=np.tile(share, corners), minlength=mesh.n_vertices
    )


def assemble_boundary_mass(mesh, panels=None):
    """Lumped boundary mass: sqrt(rho_i) * half the adjacent panel lengths.

    panels selects the Steklov part of the boundary; by default every
    boundary panel that is not a mirror is included.
    """
    if len(mesh.steklov_edges(panels)[0]) == 0:
        raise NoBoundary("no boundary panels selected")
    return _reference_boundary_mass(mesh, panels) * np.sqrt(mesh.density)


def _panel_key(panels):
    return None if panels is None else frozenset(panels)


def _reference_boundary_mass(mesh, panels):
    """Half the adjacent Steklov edge lengths per vertex (zero off them)."""
    return mesh.geometry.cached(
        ("boundary_mass", _panel_key(panels)),
        lambda: _frozen(_lump(mesh, *mesh.steklov_edges(panels))),
    )


@dataclass
class Spectrum:
    """Ascending eigenvalues with mass-orthonormal vectors on the full vertex set."""

    eigenvalues: np.ndarray
    vectors: np.ndarray  # (n_vertices, k)
    mass: np.ndarray  # diagonal of the mass/boundary-mass used for normalization
    kind: str
    n_zero: int = 0
    cluster_tol: float = DEFAULT_CLUSTER_TOL
    # factorization of K - sigma*M made by the shift-invert solve of this
    # spectrum; it preconditions warm-started solves of nearby densities
    factor: object = field(default=None, repr=False, compare=False)

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


def spd_factor(A):
    """Sparse LU factorization of a symmetric positive definite matrix.

    An SPD matrix needs no pivoting, so the diagonal is taken as pivot and
    the columns are ordered by minimum degree on A + A^T, which keeps L and U
    near transposes of each other: on a 6728-vertex surface this has about
    two thirds of the fill of the default pivoting factorization.
    """
    return spla.splu(
        sp.csc_matrix(A),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options=dict(SymmetricMode=True),
    )


def release_factor(spectrum):
    """Free the factorization a spectrum carries and return its pages to the system.

    SuperLU reserves several times the memory a factorization fills.  A
    factorization that outlived later allocations is freed in the middle of
    the heap, where glibc keeps every touched page of that reservation
    resident; malloc_trim returns them, where the C library has it.
    """
    if spectrum.factor is None:
        return
    spectrum.factor = None
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (AttributeError, OSError, TypeError):
        pass


def solve_generalized(K, M, count, tol=1e-9, seed=0, dense_cutoff=600, start=None):
    """Lowest eigenpairs of K u = lambda M u, K sym PSD, M diagonal positive.

    Returns (values, vectors, factor).  Up to dense_cutoff unknowns the pencil
    is solved densely and factor is None.  Above it, shift-invert Lanczos
    runs on the factorization of K - sigma*M (sigma < 0), which is returned
    as factor.  start = (X, factor) of a nearby pencil, where X has at least
    count columns, instead runs LOBPCG from the first count columns of X,
    preconditioned by that factor, and returns no factor; if LOBPCG fails or
    its residual is too large, the shift-invert solve is made after all.
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
        vals, vecs = _accept(K, M, vals[:count], vecs[:, :count], tol, "dense")
        return vals, vecs, None
    path = "shift-invert"
    if start is not None and start[0].shape[1] >= count:
        try:
            return _warm_solve(K, M, count, tol, *start)
        except (ValueError, NoConvergence) as exc:  # LinAlgError is a ValueError
            log.debug("warm solve failed (%s); solving afresh", exc)
            path = "warm->fallback"
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    sigma = -1e-3 * K.diagonal().sum() / M.sum()
    factor = spd_factor(K - sigma * sp.diags(M))
    try:
        vals, vecs = spla.eigsh(
            K,
            k=count,
            M=sp.diags(M),
            sigma=sigma,
            which="LM",
            v0=v0,
            tol=tol,
            maxiter=5000,
            OPinv=spla.LinearOperator((n, n), matvec=factor.solve, dtype=float),
        )
    except spla.ArpackNoConvergence as exc:
        raise NoConvergence(str(exc)) from exc
    vals, vecs = _accept(K, M, vals, vecs, tol, path)
    return vals, vecs, factor


def _warm_solve(K, M, count, tol, X, factor):
    """LOBPCG from the first count columns of X, preconditioned by factor."""
    X = np.array(X[:, :count])
    top = X[:, -1]
    lam_top = float(top @ (K @ top)) / float(top @ (M * top))
    precondition = spla.LinearOperator(
        K.shape, matvec=factor.solve, matmat=factor.solve, dtype=float
    )
    with warnings.catch_warnings():
        # an unconverged result is caught by the residual check below
        warnings.simplefilter("ignore", UserWarning)
        vals, vecs, history = spla.lobpcg(
            K,
            X,
            B=sp.diags(M),
            M=precondition,
            tol=WARM_RTOL * lam_top * np.sqrt(np.mean(M)),
            maxiter=WARM_MAXITER,
            largest=False,
            retResidualNormsHistory=True,
        )
    return (*_accept(K, M, vals, vecs, tol, f"warm, {len(history)} LOBPCG iterations"), None)


def _accept(K, M, vals, vecs, tol, path):
    """Mass-orthonormalized eigenpairs, or NoConvergence if a residual is too large."""
    vals, vecs = _mass_orthonormalize(vals, vecs, M)
    res = _max_residual(K, M, vals, vecs)
    log.debug("%s solve of %d eigenpairs, n=%d: max residual %.3g", path, len(vals), len(M), res)
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


def laplace_spectrum(mesh, count=8, dirichlet_panels=(), seed=0, tol=1e-9, start=None):
    """Laplace eigenvalues; zero mode included (and reported) unless Dirichlet.

    start, a spectrum of the same mesh at a nearby density that carries its
    factorization, warm-starts the solve from its vectors (no Dirichlet
    panels); the result then carries no factorization.
    """
    K = assemble_stiffness(mesh)
    M = assemble_mass(mesh)
    on_free = _free_vertices(mesh, dirichlet_panels)
    if not np.all(on_free):
        free = np.flatnonzero(on_free)
        Kf = K[free][:, free].tocsr()
        vals, vecs_f, factor = solve_generalized(Kf, M[free], count, tol=tol, seed=seed)
        vecs = np.zeros((mesh.n_vertices, vecs_f.shape[1]))
        vecs[free] = vecs_f
        n_zero = 0
    else:
        warm = None
        if start is not None and start.factor is not None:
            warm = (start.vectors, start.factor)
        vals, vecs, factor = solve_generalized(K, M, count + 1, tol=tol, seed=seed, start=warm)
        n_zero = _zero_count(vals, vals[-1])
    return Spectrum(vals, vecs, M, "laplace", n_zero=n_zero, factor=factor)


def _free_vertices(mesh, dirichlet_panels):
    """Boolean mask of the vertices on none of the Dirichlet panels."""
    on_free = np.ones(mesh.n_vertices, dtype=bool)
    for lab in dirichlet_panels:
        on_free[mesh.panel_vertices(lab)] = False
    return on_free


def _harmonic_solve(K, interior, boundary, rhs_at_boundary):
    """Solve K u = 0 with fixed boundary values (columns of rhs_at_boundary)."""
    Kii = K[interior][:, interior]
    Kib = K[interior][:, boundary]
    return -spd_factor(Kii).solve(Kib @ rhs_at_boundary)


@dataclass(frozen=True)
class _DirichletToNeumann:
    """Density-independent Schur complement of K onto the Steklov vertices."""

    steklov: np.ndarray  # Steklov vertices (positive boundary mass, not Dirichlet)
    interior: np.ndarray  # the remaining free vertices
    dtn: np.ndarray  # (s, s) symmetric Dirichlet-to-Neumann matrix
    harmonic: np.ndarray  # (i, s) interior values of the harmonic extensions
    has_dirichlet: bool


def _dirichlet_to_neumann(mesh, on_boundary, dirichlet_panels):
    on_free = _free_vertices(mesh, dirichlet_panels)
    free = np.flatnonzero(on_free)
    # positions in free of the Steklov vertices and of the remaining ones
    b_loc = np.flatnonzero(on_boundary[free])
    i_loc = np.flatnonzero(~on_boundary[free])
    steklov = free[b_loc]
    if len(steklov) == 0:
        raise AllDirichlet("no Steklov vertices remain")
    K = assemble_stiffness(mesh)[free][:, free].tocsr()
    Kbb = K[b_loc][:, b_loc].toarray()
    Kbi = K[b_loc][:, i_loc]
    Ui = _harmonic_solve(K, i_loc, b_loc, np.eye(len(b_loc)))
    dtn = Kbb + Kbi @ Ui
    dtn = 0.5 * (dtn + dtn.T)
    for array in (steklov, dtn, Ui):
        array.flags.writeable = False
    return _DirichletToNeumann(steklov, free[i_loc], dtn, Ui, not np.all(on_free))


def steklov_spectrum(mesh, count=8, steklov_panels=None, dirichlet_panels=()):
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
        return steklov_spectrum(mesh, count, steklov_panels=steklov, dirichlet_panels=dirichlet)
    return laplace_spectrum(mesh, count, dirichlet_panels=dirichlet, seed=seed)


def normalized_first(mesh, kind="laplace", spectrum=None, count=8, seed=0):
    """Scale-invariant first eigenvalue: area*lambda_1 or length*sigma_1."""
    if spectrum is None:
        spectrum = (
            laplace_spectrum(mesh, count, seed=seed)
            if kind == "laplace"
            else steklov_spectrum(mesh, count)
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
    return _lump(mesh, tri, density_t * area) / np.maximum(_reference_mass(mesh), 1e-300)


def boundary_energy_density(mesh, U, panels=None):
    """Vertex-lumped squared tangential derivative along the Steklov boundary."""
    U = np.atleast_2d(np.asarray(U, dtype=float).T).T
    edges, lengths = mesh.steklov_edges(panels)
    val = np.sum((U[edges[:, 0]] - U[edges[:, 1]]) ** 2, axis=1) / lengths**2
    out = _lump(mesh, edges, val * lengths)
    weight = _reference_boundary_mass(mesh, panels)
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
        ui = _harmonic_solve(K, interior, verts, vals[:, None])
        u[interior] = ui[:, 0]
    energy = float(u @ (K @ u))
    return u, energy
