"""Exploiting the group action: invariant averaging and parity sectors.

A joint parity sector of commuting involutions is solved on the whole mesh,
in the orbit coordinates of ``sector_basis``, by ``sector_spectrum``; a
Steklov sector is one block of the mesh's Dirichlet-to-Neumann matrix.
``orbits`` and ``sector_basis`` (and ``NonCommuting``, which it raises) live
in meshcore, where fem's Steklov sector blocks use them too."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .fem import assemble_mass, assemble_stiffness, restricted_spectrum, steklov_spectrum
from .meshcore import EquivariantError, NonCommuting, orbits, sector_basis  # noqa: F401


class NotInvolution(EquivariantError):
    pass


def vertex_orbits(mesh):
    """Orbit label of every vertex under all actions."""
    return orbits(mesh.n_vertices, [mesh.actions[k] for k in sorted(mesh.actions)])


def average_invariant(field, mesh):
    """Group average of a vertex field; exactly invariant and idempotent.

    Implemented by assigning every vertex of an orbit the same orbit mean,
    so the output is a bitwise fixed point of the averaging.
    """
    field = np.asarray(field, dtype=float)
    labels = vertex_orbits(mesh)
    means = np.bincount(labels, weights=field) / np.bincount(labels)
    return means[labels]


def _involution_perm(mesh, name):
    perm = mesh.actions[name]
    if not np.array_equal(perm[perm], np.arange(mesh.n_vertices)):
        raise NotInvolution(f"{name} is not an involution on vertices")
    return perm


def sector_spectrum(mesh, labels, kind="laplace", count=6, seed=0):
    """Spectrum of the problem restricted to the joint parity sector of labels.

    labels: dict involution name -> +1 | -1; the involutions must commute.
    A Laplace sector is solved in the coordinates of ``sector_basis`` and its
    vectors are lifted to the mesh.  A Steklov sector is the sector's block of
    the mesh's cached Dirichlet-to-Neumann matrix, which each involution must
    leave unchanged (``steklov_spectrum`` with ``sector``).
    """
    names = sorted(labels)
    perms = [_involution_perm(mesh, k) for k in names]
    signs = [1.0 if labels[k] > 0 else -1.0 for k in names]
    if kind == "steklov":
        return steklov_spectrum(mesh, count, sector=(perms, signs))
    R = sector_basis(mesh.n_vertices, perms, signs)
    M = assemble_mass(mesh)
    Kr = (R.T @ assemble_stiffness(mesh) @ R).tocsr()
    Mr = np.asarray((R.T @ sp.diags(M) @ R).diagonal())
    return restricted_spectrum(Kr, Mr, count, R.dot, M, seed)


def parity_split_spectrum(mesh, name, count=6, kind="laplace", seed=0):
    """(even, odd) spectra of the problem restricted to the +/- subspaces."""
    return tuple(sector_spectrum(mesh, {name: sign}, kind, count, seed) for sign in (1, -1))


def involution_parities(U, mass, perm):
    """Parity (+1 even, -1 odd, 0 unresolved) of the eigenvectors of an
    involution's Gram matrix on a cluster basis, and those eigenvectors.

    The Gram matrix U^T diag(mass) U[perm] is symmetrized and
    eigendecomposed; eigenvectors come even first, and an eigenvalue counts
    as a parity when it is above 0.5 or below -0.5, which stays robust when
    the solver mixes vectors inside the cluster.
    """
    G = U.T @ (mass[:, None] * U[perm])
    eig, V = np.linalg.eigh(0.5 * (G + G.T))
    order = np.argsort(-eig)
    eig = eig[order]
    return np.where(eig > 0.5, 1, np.where(eig < -0.5, -1, 0)), V[:, order]


def invariant_multiplicity(spectrum, mesh, name, cluster_index=0):
    """Dimension and parity split of a cluster w.r.t. a marked involution
    (``involution_parities`` on the cluster basis)."""
    perm = _involution_perm(mesh, name)
    i, j = spectrum.clusters()[cluster_index]
    parity = involution_parities(spectrum.vectors[:, i:j], spectrum.mass, perm)[0]
    even, odd = int(np.sum(parity == 1)), int(np.sum(parity == -1))
    if even + odd != j - i:
        raise EquivariantError("cluster parities are not resolved (mixed Gram spectrum)")
    return {"dim": j - i, "even": even, "odd": odd}
