"""Exploiting the group action: invariant averaging, parity sectors, and
fundamental-domain reductions with mixed boundary conditions."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .fem import assemble_boundary_mass, assemble_mass, assemble_stiffness, restricted_spectrum
from .meshcore import MeshError, SymmetricMesh, components, edge_table


class EquivariantError(MeshError):
    pass


class NotInvolution(EquivariantError):
    pass


class NonCommuting(EquivariantError):
    pass


def _orbits(n, perms):
    """Orbit label of every vertex under the permutations, numbered in the
    order of each orbit's smallest vertex."""
    source = np.tile(np.arange(n), len(perms))
    target = np.concatenate(perms) if perms else source
    return components(np.arange(n), source, target)[1]


def vertex_orbits(mesh):
    """Orbit label of every vertex under all actions."""
    return _orbits(mesh.n_vertices, [mesh.actions[k] for k in sorted(mesh.actions)])


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


def _check_commuting(perms):
    for pa in perms:
        for pb in perms:
            if not np.array_equal(pa[pb], pb[pa]):
                raise NonCommuting("involutions must commute for a joint parity label")


def sector_basis(n, perms, signs):
    """Sparse orthonormal basis of the joint (+/-) sector of commuting involutions.

    Basis vectors are orbit sums weighted by the sign character, relative to
    the orbit's smallest vertex, in the order of that vertex; orbits on which
    the character is inconsistent (fixed by an odd generator) drop out.
    """
    _check_commuting(perms)
    labels = _orbits(n, perms)
    roots = np.unique(labels, return_index=True)[1]  # each orbit's smallest vertex
    # the character of the element that carries each orbit's smallest vertex
    # to a vertex; the group elements are the products of the involutions
    sign = np.zeros(n)
    consistent = np.ones(len(roots), dtype=bool)
    group, chars = [np.arange(n)], [1.0]
    for perm, s in zip(perms, signs):
        group += [g[perm] for g in group]
        chars += [c * s for c in chars]
    for g, c in zip(group, chars):
        images = g[roots]
        consistent &= (sign[images] == 0) | (sign[images] == c)
        sign[images] = c
    norm = 1.0 / np.sqrt(np.bincount(labels))
    columns = np.cumsum(consistent) - 1
    rows = np.flatnonzero(consistent[labels])
    orbit = labels[rows]
    vals = sign[rows] * norm[orbit]
    return sp.csr_matrix((vals, (rows, columns[orbit])), shape=(n, int(consistent.sum())))


def parity_split_spectrum(mesh, name, count=6, kind="laplace", seed=0):
    """(even, odd) spectra of the problem restricted to the +/- subspaces."""
    perm = _involution_perm(mesh, name)
    K = assemble_stiffness(mesh)
    M = assemble_mass(mesh) if kind == "laplace" else assemble_boundary_mass(mesh)
    out = []
    for sign in (1.0, -1.0):
        R = sector_basis(mesh.n_vertices, [perm], [sign])
        Kr = (R.T @ K @ R).tocsr()
        Mr = np.asarray((R.T @ sp.diags(M) @ R).diagonal())
        out.append(restricted_spectrum(kind, Kr, Mr, count, R.dot, M, seed))
    return out[0], out[1]


# ---------------------------------------------------------------------------
# Fundamental-domain route
# ---------------------------------------------------------------------------

def quotient_mesh(mesh, name):
    """Quotient by a separating involution; mirror trace becomes a panel.

    Returns (half mesh, vertex map old->new or -1).  The involution must fix
    no triangle and must separate the off-mirror vertices into two parts.
    """
    perm = _involution_perm(mesh, name)
    n = mesh.n_vertices
    fixed = perm == np.arange(n)
    # connected components of the off-mirror part; side 0 holds its smallest vertex
    free = np.flatnonzero(~fixed)
    a, b = mesh.edges.T
    inside = ~fixed[a] & ~fixed[b]
    count, comp = components(free, a[inside], b[inside])
    if count != 2:
        raise EquivariantError(f"{name} does not separate the surface into two sides")
    side0 = np.zeros(n, dtype=bool)
    side0[free[comp == 0]] = True
    keep = side0 | fixed
    new_index = -np.ones(n, dtype=int)
    new_index[keep] = np.arange(int(keep.sum()))
    tris = mesh.triangles[keep[mesh.triangles].all(axis=1)]
    if np.any(fixed[tris].all(axis=1)):
        raise EquivariantError("involution fixes a whole triangle")
    tris = new_index[tris]
    # only the edges of the kept triangles: an edge of the discarded side may
    # still join two kept vertices
    base = len(keep)
    codes, _, shared = edge_table(tris, base)
    edges = np.column_stack([codes // base, codes % base])
    old = np.flatnonzero(keep)
    lengths = mesh.lengths[mesh.geometry.edge_index(old[edges[:, 0]], old[edges[:, 1]])]
    pairs = np.sort(new_index[np.array(list(mesh.panels), dtype=np.int64).reshape(-1, 2)], axis=1)
    on_half = np.isin(pairs[:, 0] * base + pairs[:, 1], codes)
    panels = {
        tuple(e): lab for e, lab, ok in zip(pairs.tolist(), mesh.panels.values(), on_half) if ok
    }
    # mirror panel: new boundary edges whose endpoints are fixed vertices
    for code in codes[shared == 1].tolist():
        panels.setdefault(divmod(code, base), f"mirror:{name}")
    # induced actions of commuting symmetries that preserve the side
    actions = {}
    for other, operm in mesh.actions.items():
        if other == name:
            continue
        if not np.array_equal(operm[perm], perm[operm]):
            continue
        images = operm[keep]
        if np.all(keep[images]):
            actions[other] = new_index[images]
    half = SymmetricMesh(
        mesh.positions[keep],
        tris,
        (edges, lengths),
        density=mesh.density[keep],
        panels=panels,
        actions=actions,
        meta=dict(mesh.meta),
    )
    return half, new_index


def labeled_first(mesh, labels, kind="laplace", count=6, seed=0):
    """First nonzero eigenvalue in the joint parity sector, computed on the
    fundamental domain with Neumann (+) / Dirichlet (-) mirror conditions.

    labels: dict involution name -> +1 | -1.  Involutions must commute.
    """
    names = sorted(labels)
    _check_commuting([_involution_perm(mesh, k) for k in names])
    domain = mesh
    bc = {}
    for k in names:
        domain, _ = quotient_mesh(domain, k)
        bc[f"mirror:{k}"] = "neumann" if labels[k] > 0 else "dirichlet"
    from .fem import mixed_spectrum

    if kind == "steklov":
        for lab in domain.panel_labels():
            if not lab.startswith("mirror:"):
                bc[lab] = "steklov"
    spec = mixed_spectrum(domain, bc, count=count, seed=seed)
    return spec.first_nonzero(), spec, domain


def labeled_spectra_json(mesh, names, kind="laplace", count=4, seed=0):
    """All sign-sector first eigenvalues, keyed by sign strings like '++-'."""
    import itertools

    out = {}
    for signs in itertools.product((+1, -1), repeat=len(names)):
        labels = dict(zip(names, signs))
        value, spec, _ = labeled_first(mesh, labels, kind, count=count, seed=seed)
        key = "".join("+" if s > 0 else "-" for s in signs)
        out[key] = {
            "first": float(value),
            "eigenvalues": [float(v) for v in spec.eigenvalues],
        }
    return out


def invariant_multiplicity(spectrum, mesh, name, cluster_index=0):
    """Dimension and parity split of a cluster w.r.t. a marked involution.

    Parities are read off the involution's Gram matrix on the cluster basis
    (eigen-sign count), which stays robust when the solver mixes vectors
    inside the cluster.
    """
    perm = _involution_perm(mesh, name)
    i, j = spectrum.clusters()[cluster_index]
    U = spectrum.vectors[:, i:j]
    mass = spectrum.mass
    G = U.T @ (mass[:, None] * U[perm])
    G = 0.5 * (G + G.T)
    eig = np.linalg.eigvalsh(G)
    even = int(np.sum(eig > 0.5))
    odd = int(np.sum(eig < -0.5))
    if even + odd != j - i:
        raise EquivariantError("cluster parities are not resolved (mixed Gram spectrum)")
    return {"dim": j - i, "even": even, "odd": odd}
