"""Piecewise-linear Galerkin discretization of Laplace, Steklov and mixed problems.

Everything is assembled from the reference edge lengths (cotangents via the
law of cosines, areas via Heron), so the discrete Dirichlet energy is
independent of the conformal density.  The density enters only through the
lumped interior mass (weight rho) and the lumped boundary mass (weight
sqrt(rho)), which is what makes the normalized eigenvalues scale invariant
at the discrete level.
"""

from __future__ import annotations

import itertools
import logging
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .meshcore import EquivariantError, _frozen, sector_basis, weighted_area

DEFAULT_CLUSTER_TOL = 1e-3
# pencils with at most this many unknowns are solved densely
DENSE_CUTOFF = 600
# the Rayleigh-Ritz bound of a start block is skipped when the block's
# Gram matrix under the new mass is more ill-conditioned than this
RITZ_MAX_CONDITION = 1e8

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


class Spectrum:
    """Ascending eigenvalues with mass-orthonormal vectors on the full vertex set.

    vectors is the (n_vertices, k) array, or a function that returns it: then
    it is called on the first read of Spectrum.vectors, and its result kept.
    """

    def __init__(
        self,
        eigenvalues,
        vectors,
        mass,
        kind,
        n_zero=0,
        cluster_tol=DEFAULT_CLUSTER_TOL,
        bounded=False,
    ):
        self.eigenvalues = eigenvalues
        if callable(vectors):
            self._compute_vectors = vectors
        else:
            self.vectors = vectors
        self.mass = mass  # diagonal of the mass/boundary-mass used for normalization
        self.kind = kind
        self.n_zero = n_zero
        self.cluster_tol = cluster_tol
        # the eigenvalues are Rayleigh-Ritz upper bounds of a start block,
        # not converged eigenvalues (laplace_spectrum(below=))
        self.bounded = bounded

    @cached_property
    def vectors(self):
        return self._compute_vectors()

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


def solve_generalized(K, M, count, tol=1e-9, seed=0):
    """Lowest eigenpairs of K u = lambda M u, K sym PSD, M diagonal positive.

    Returns (values, vectors).  Up to DENSE_CUTOFF unknowns the pencil is
    solved densely; above it, shift-invert Lanczos runs on the factorization
    of K - sigma*M (sigma < 0).  Deterministic: the Lanczos starting vector
    is drawn from a seeded generator.  count is clamped to the dimension.
    """
    n = K.shape[0]
    M = np.asarray(M)
    if np.any(M <= 0):
        raise SingularMass("mass diagonal must be positive on the solve subspace")
    count = int(min(count, n))
    if count < 1:
        raise FemError("count must be >= 1")
    if n <= DENSE_CUTOFF or count > n - 2:
        vals, vecs = scipy.linalg.eigh(K.toarray(), np.diag(M))
        return _accept(K, M, vals[:count], vecs[:, :count], tol, "dense")
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
    return _accept(K, M, vals, vecs, tol, "shift-invert")


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


def laplace_spectrum(mesh, count=8, dirichlet_panels=(), seed=0, tol=1e-9, start=None, below=None):
    """Laplace eigenvalues; zero mode included (and reported) unless Dirichlet.

    With Dirichlet panels the pencil is restricted to the free vertices.

    start, an (n_vertices, k) block of vectors such as the lowest
    eigenvectors at a nearby density, and below, a floor for the first
    nonzero eigenvalue, may stop the solve (no Dirichlet panels): the Ritz
    pairs of the block, from X^T K X c = theta X^T M X c, are returned
    (bounded=True) when the Ritz value at the first nonzero index is already
    below the floor.  By Courant-Fischer each Ritz value is an upper bound of
    the eigenvalue of the same index, so the first nonzero eigenvalue is
    certainly below the floor too; the returned values are bounds, not
    eigenvalues.  Otherwise the result is the same solve as without start
    and below.
    """
    K = assemble_stiffness(mesh)
    M = assemble_mass(mesh)
    on_free = _free_vertices(mesh, dirichlet_panels)
    if not np.all(on_free):
        free = np.flatnonzero(on_free)
        lift = partial(_embed, index=free, n=mesh.n_vertices)
        return restricted_spectrum(K[free][:, free].tocsr(), M[free], count, lift, M, seed, tol)
    if start is not None and below is not None:
        bounded = _ritz_bound(K, M, start, below)
        if bounded is not None:
            return bounded
    vals, vecs = solve_generalized(K, M, count + 1, tol=tol, seed=seed)
    return Spectrum(vals, vecs, M, "laplace", n_zero=_zero_count(vals, vals[-1]))


def _ritz_bound(K, M, X, below):
    """Ritz pairs of the block X under K, M, or None.

    None unless the Ritz value at the first nonzero index is below the floor
    and X is well conditioned under the mass M.
    """
    G = X.T @ (M[:, None] * X)
    # also false when G is not positive definite, so its Cholesky would fail
    gram = np.linalg.eigvalsh(G)
    if not gram[0] * RITZ_MAX_CONDITION > gram[-1]:
        return None
    vals, C = scipy.linalg.eigh(X.T @ (K @ X), G)
    n_zero = _zero_count(vals, vals[-1])
    if not vals[n_zero] < below:
        return None
    log.debug(
        "Rayleigh-Ritz bound of %d eigenpairs, n=%d: value %.12g below floor %.12g",
        len(vals), len(M), vals[n_zero], below,
    )
    return Spectrum(vals, X @ C, M, "laplace", n_zero=n_zero, bounded=True)


def restricted_spectrum(K, M, count, lift, mesh_mass, seed=0, tol=1e-9):
    """Laplace spectrum of a pencil restricted to reduced coordinates.

    K is the sparse stiffness and M the diagonal mass in those coordinates;
    lift maps a block of coordinate vectors to mesh vectors, and mesh_mass is
    the mesh mass reported with them.
    """
    vals, vecs = solve_generalized(K, M, count, tol=tol, seed=seed)
    return Spectrum(vals, lift(vecs), mesh_mass, "laplace", n_zero=_zero_count(vals, vals[-1]))


def _check_labels(mesh, labels):
    """Raises FemError naming the labels that are no panel label of the mesh."""
    unknown = sorted(set(labels) - set(mesh.panel_labels())) if labels else []
    if unknown:
        raise FemError(f"no panel is labeled {unknown}; the mesh's labels are {mesh.panel_labels()}")


def _free_vertices(mesh, dirichlet_panels):
    """Boolean mask of the vertices on none of the Dirichlet panels."""
    _check_labels(mesh, dirichlet_panels)
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
class _SectorBlock:
    """The Dirichlet-to-Neumann matrix D in one joint sign sector of the
    Steklov dofs: R^T D R for the sector's orthonormal orbit basis R, and
    R as index gathers."""

    dtn: np.ndarray  # (k, k) R^T D R
    rows: np.ndarray  # the Steklov dof of each nonzero of R
    cols: np.ndarray  # its column
    vals: np.ndarray  # its value
    squares: np.ndarray  # vals**2: R∘R, which maps Bb to the block's diagonal mass

    def mass(self, Bb):
        """Diagonal of R^T diag(Bb) R: the orbit mean of Bb for an invariant Bb."""
        return np.bincount(self.cols, weights=self.squares * Bb[self.rows], minlength=len(self.dtn))


@dataclass(frozen=True)
class _DirichletToNeumann:
    """Density-independent Schur complement of a mesh's stiffness onto its Steklov dofs."""

    steklov: np.ndarray  # Steklov dofs: the vertices of positive boundary mass off the Dirichlet panels
    interior: np.ndarray  # the other vertices off the Dirichlet panels
    dtn: np.ndarray  # (s, s) symmetric Dirichlet-to-Neumann matrix
    harmonic: np.ndarray  # (i, s) interior values of the harmonic extensions
    symmetries: tuple  # commuting involutions of the Steklov dofs that leave dtn unchanged
    blocks: tuple  # a _SectorBlock per nonempty joint sign sector of the symmetries


def _dirichlet_to_neumann(mesh, on_steklov, dirichlet_panels):
    """Schur complement of the stiffness onto the vertices marked by the
    boolean mask on_steklov and off the Dirichlet panels, the harmonic
    extensions of its unit traces, and its sector blocks."""
    free = _free_vertices(mesh, dirichlet_panels)
    b = np.flatnonzero(free & on_steklov)
    i = np.flatnonzero(free & ~on_steklov)
    if len(b) == 0:
        raise AllDirichlet("no Steklov vertices remain")
    K = assemble_stiffness(mesh)
    Ui = _harmonic_solve(K, i, b, np.eye(len(b)))
    dtn = K[b][:, b].toarray() + K[b][:, i] @ Ui
    dtn = _frozen(0.5 * (dtn + dtn.T))
    # the symmetries: the stored actions, in sorted name order, that are
    # _dtn_involutions and commute with those kept before them
    kept = []
    for name in sorted(mesh.actions):
        try:
            local = _dtn_involution(dtn, b, mesh.actions[name])
        except EquivariantError:
            continue
        if all(np.array_equal(local[p], p[local]) for p in kept):
            kept.append(_frozen(local))
    blocks = _sector_blocks(dtn, kept)
    return _DirichletToNeumann(_frozen(b), _frozen(i), dtn, _frozen(Ui), tuple(kept), blocks)


def _dtn_involution(dtn, steklov, perm):
    """The vertex permutation perm as a permutation of the Steklov dofs;
    EquivariantError unless it is an involution of them that leaves dtn
    unchanged to 1e-10 of max|dtn| (an action that is no isometry does not)."""
    image = np.asarray(perm)[steklov]
    local = np.minimum(np.searchsorted(steklov, image), len(steklov) - 1)
    if not np.array_equal(steklov[local], image):
        raise EquivariantError("the action moves a Steklov dof off the Steklov dofs")
    if not np.array_equal(local[local], np.arange(len(local))):
        raise EquivariantError("the action is not an involution of the Steklov dofs")
    if np.max(np.abs(dtn[np.ix_(local, local)] - dtn)) > 1e-10 * np.max(np.abs(dtn)):
        raise EquivariantError("the action changes the Dirichlet-to-Neumann matrix")
    return local


def _sector_blocks(dtn, perms):
    """A _SectorBlock for every nonempty joint sign sector of the commuting
    involutions perms of the dofs of dtn; without involutions, the identity."""
    signs = itertools.product((1.0, -1.0), repeat=len(perms))
    return tuple(block for block in (_sector_block(dtn, perms, s) for s in signs) if block is not None)


def _sector_block(dtn, perms, signs):
    """The _SectorBlock of the joint sign sector signs of the commuting
    involutions perms of the dofs of dtn, or None if the sector is empty."""
    R = sector_basis(len(dtn), list(perms), signs).tocoo()
    if R.shape[1] == 0:
        return None
    block = R.T @ (R.T @ dtn).T
    return _SectorBlock(
        _frozen(0.5 * (block + block.T)), _frozen(R.row), _frozen(R.col), _frozen(R.data),
        _frozen(R.data**2),
    )


def steklov_spectrum(mesh, count=8, steklov_panels=None, dirichlet_panels=(), sector=None):
    """Steklov / mixed-Steklov eigenvalues via the boundary Schur complement.

    The pencil is K u = sigma B u with B supported on the Steklov panels;
    eigenvectors are the discrete harmonic extensions of their boundary
    traces.  The Schur complement does not depend on the density and is
    computed, and split into the sign sectors of the mesh's involutions that
    are its symmetries, once per mesh geometry and boundary-condition choice;
    a solve is the lowest eigenvalues of those dense blocks.  sector, a pair
    (perms, signs) of commuting vertex involutions and their signs, solves
    that joint sign sector only: its block of the same Schur complement, which
    each involution must leave unchanged (EquivariantError otherwise).  The
    traces are computed and extended into the interior on the first read of
    Spectrum.vectors.
    """
    if not mesh.has_boundary():
        raise NoBoundary("Steklov problem needs a boundary")
    B = assemble_boundary_mass(mesh, steklov_panels)
    key = ("dtn", _panel_key(steklov_panels), frozenset(dirichlet_panels))
    dtn = mesh.geometry.cached(key, lambda: _dirichlet_to_neumann(mesh, B > 0, dirichlet_panels))
    Bb = B[dtn.steklov]
    if sector is not None:
        perms = [_dtn_involution(dtn.dtn, dtn.steklov, perm) for perm in sector[0]]
        blocks = (_sector_block(dtn.dtn, perms, sector[1]),)
        if blocks[0] is None:
            raise AllDirichlet("the sector has no Steklov dofs")
    elif all(np.all(np.abs(Bb[p] - Bb) <= 1e-12 * Bb) for p in dtn.symmetries):
        blocks = dtn.blocks
    else:
        blocks = _sector_blocks(dtn.dtn, ())  # a density the symmetries do not keep
    count = int(min(count, len(Bb)))
    vals = boundary_eigenvalues(blocks, Bb, count)
    n_zero = _zero_count(vals, vals[-1] if len(vals) else 1.0)
    extend = partial(_harmonic_vectors, dtn, blocks, Bb, count, mesh.n_vertices)
    return Spectrum(vals, extend, _embed(Bb, dtn.steklov, mesh.n_vertices), "steklov", n_zero=n_zero)


def boundary_eigenvalues(blocks, Bb, count):
    """Lowest count eigenvalues of the dense pencil D u = sigma Bb u, given as
    its sector blocks; Bb is diagonal, positive and invariant."""
    if count < 0:
        raise ValueError("count must be >= 0")
    if count == 0:
        return np.zeros(0)
    return np.sort(np.concatenate([_block_solve(b, Bb, count, False) for b in blocks]))[:count]


def boundary_eigenpairs(blocks, Bb, count):
    """Lowest count eigenpairs of the pencil of boundary_eigenvalues: ascending
    values and Bb-orthonormal vectors on the Steklov dofs."""
    if count < 0:
        raise ValueError("count must be >= 0")
    if count == 0:
        return np.zeros(0), np.zeros((len(Bb), 0))
    vals, vecs = [], []
    for block in blocks:
        values, Y = _block_solve(block, Bb, count, True)
        lifted = np.zeros((len(Bb), len(values)))  # R @ Y
        lifted[block.rows] = block.vals[:, None] * Y[block.cols]
        vals.append(values)
        vecs.append(lifted)
    vals, vecs = np.concatenate(vals), np.hstack(vecs)
    order = np.argsort(vals, kind="stable")[:count]
    return _mass_orthonormalize(vals[order], vecs[:, order], Bb)


def _block_solve(block, Bb, count, vectors):
    """Lowest min(count, size) eigenvalues of a block (with vectors: and its
    mass-orthonormal eigenvectors in the block's coordinates).  The block's
    diagonal mass is positive, so the pencil is the standard problem for
    mass^-1/2 block mass^-1/2, of which LAPACK's dsyevr computes the wanted
    values only."""
    scale = 1.0 / np.sqrt(block.mass(Bb))
    wanted = min(count, len(scale)) - 1
    out = scipy.linalg.eigh(
        scale[:, None] * block.dtn * scale[None, :], eigvals_only=not vectors,
        subset_by_index=[0, wanted], driver="evr", check_finite=False,
    )
    if not vectors:
        return out
    vals, modes = out
    return vals, scale[:, None] * modes


def _harmonic_vectors(dtn, blocks, Bb, count, n):
    """Vectors on the n mesh vertices: the Bb-orthonormal traces of the
    lowest count pairs on the Steklov dofs, their harmonic extensions on the
    interior ones and zero on the Dirichlet panels."""
    traces = boundary_eigenpairs(blocks, Bb, count)[1]
    vecs = np.zeros((n, traces.shape[1]))
    vecs[dtn.steklov] = traces
    vecs[dtn.interior] = dtn.harmonic @ traces
    return vecs


def _embed(values, index, n):
    """n rows of zeros, with the rows of values placed at index."""
    out = np.zeros((n,) + values.shape[1:])
    out[index] = values
    return out


def mixed_spectrum(mesh, bc, count=8, seed=0):
    """Spectrum for a per-panel boundary-condition map.

    bc maps panel labels to 'neumann', 'dirichlet' or 'steklov'.  With at
    least one Steklov panel this is a (mixed) Steklov problem; otherwise a
    Laplace problem with the given Dirichlet panels.
    """
    _check_labels(mesh, bc)
    steklov = [lab for lab, c in bc.items() if c == "steklov"]
    dirichlet = [lab for lab, c in bc.items() if c == "dirichlet"]
    if steklov:
        return steklov_spectrum(mesh, count, steklov_panels=steklov, dirichlet_panels=dirichlet)
    return laplace_spectrum(mesh, count, dirichlet_panels=dirichlet, seed=seed)


@dataclass(frozen=True)
class Problem:
    """One of the two problems of the ascent, and the one place where they differ.

    The ascent moves the weight(rho) that the measure carries.  The functions
    call fem functions by name at call time, so that one replaced on the
    module (as the benchmark's timers do) is the one called.
    """

    kind: str
    solve: Callable  # (mesh, count, seed, start, below) -> Spectrum
    size: Callable  # mesh -> the factor of normalized_first
    measure: Callable  # mesh -> lumped measure
    weight: Callable  # rho -> weight
    density: Callable  # weight -> rho
    replace_profile: Callable  # (mesh, cluster vectors) -> their energy's weight profile
    normalize: Callable  # (mesh, weight target) -> the target at its scale


# area*lambda_1 on a closed surface: the measure is M = rho*M_ref, and the
# weight is rho rescaled to the area
LAPLACE = Problem(
    "laplace",
    solve=lambda mesh, count=8, seed=0, **bound: laplace_spectrum(mesh, count, seed=seed, **bound),
    size=lambda mesh: mesh.area(),
    measure=lambda mesh: assemble_mass(mesh),
    weight=lambda rho: rho,
    density=lambda weight: weight,
    replace_profile=lambda mesh, U: dirichlet_energy_density(mesh, U),
    normalize=lambda mesh, weight: weight * (mesh.area() / weighted_area(mesh, weight)),
)
# length*sigma_1 on a surface with boundary: the measure is B = sqrt(rho)*B_ref,
# and the weight is sqrt(rho) (the interior density is irrelevant by conformal
# invariance of the Dirichlet energy); a dense solve takes no seed, start or floor
STEKLOV = Problem(
    "steklov",
    solve=lambda mesh, count=8, seed=0, **bound: steklov_spectrum(mesh, count),
    size=lambda mesh: mesh.boundary_length(),
    measure=lambda mesh: assemble_boundary_mass(mesh),
    weight=lambda rho: np.sqrt(rho),
    density=lambda weight: weight**2,
    replace_profile=lambda mesh, U: _unit_mean_boundary_energy(mesh, U),
    normalize=lambda mesh, weight: weight,
)
PROBLEMS = {problem.kind: problem for problem in (LAPLACE, STEKLOV)}


def problem_of(mesh):
    """The problem of a mesh: Steklov on a surface with boundary, else Laplace."""
    return STEKLOV if mesh.has_boundary() else LAPLACE


def normalized_first(mesh, kind="laplace", spectrum=None, count=8, seed=0):
    """Scale-invariant first eigenvalue: area*lambda_1 or length*sigma_1."""
    problem = PROBLEMS[kind]
    if spectrum is None:
        spectrum = problem.solve(mesh, count, seed)
    return problem.size(mesh) * spectrum.first_nonzero()


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


def _unit_mean_boundary_energy(mesh, U):
    """The boundary energy density over its mean on the Steklov boundary, 1 off it."""
    prof, bsel = boundary_energy_density(mesh, U)
    mean_prof = float(np.mean(prof[bsel])) if np.any(bsel) else 1.0
    return np.where(bsel, prof / max(mean_prof, 1e-300), 1.0)


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
    n = mesh.n_vertices
    marked = np.zeros(n, dtype=bool)
    marked[verts] = True
    if panels is not None and not np.array_equal(marked, ~_free_vertices(mesh, panels)):
        raise FemError("boundary values do not match the marked panels")
    K = assemble_stiffness(mesh)
    interior = np.flatnonzero(~marked)
    u = np.zeros(n)
    u[verts] = vals
    if len(interior):
        ui = _harmonic_solve(K, interior, verts, vals[:, None])
        u[interior] = ui[:, 0]
    energy = float(u @ (K @ u))
    return u, energy
