"""Exploiting the group action: invariant averaging, parity sectors, and
fundamental-domain reductions with mixed boundary conditions."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .fem import (
    DEFAULT_CLUSTER_TOL,
    Spectrum,
    _mass_orthonormalize,
    assemble_boundary_mass,
    assemble_mass,
    assemble_stiffness,
    solve_generalized,
)
from .meshcore import MeshError, SymmetricMesh, _edge_key


class EquivariantError(MeshError):
    pass


class NotInvolution(EquivariantError):
    pass


class NonCommuting(EquivariantError):
    pass


def vertex_orbits(mesh, names=None):
    """Orbit label of every vertex under the listed (or all) actions."""
    # imported here: csgraph costs about 1 MB of resident memory at import
    from scipy.sparse.csgraph import connected_components

    n = mesh.n_vertices
    perms = [mesh.actions[k] for k in (names or sorted(mesh.actions))]
    source = np.tile(np.arange(n), len(perms))
    target = np.concatenate(perms) if perms else source
    graph = sp.coo_matrix((np.ones(len(source)), (source, target)), shape=(n, n))
    return connected_components(graph, directed=False)[1]


def average_invariant(field, mesh, names=None):
    """Group average of a vertex field; exactly invariant and idempotent.

    Implemented by assigning every vertex of an orbit the same orbit mean,
    so the output is a bitwise fixed point of the averaging.
    """
    field = np.asarray(field, dtype=float)
    labels = vertex_orbits(mesh, names)
    means = np.bincount(labels, weights=field) / np.bincount(labels)
    return means[labels]


def _involution_perm(mesh, name):
    perm = mesh.actions[name]
    if not np.array_equal(perm[perm], np.arange(mesh.n_vertices)):
        raise NotInvolution(f"{name} is not an involution on vertices")
    return perm


def sector_basis(n, perms, signs):
    """Sparse orthonormal basis of the joint (+/-) sector of commuting involutions.

    Basis vectors are orbit sums weighted by the sign character; orbits on
    which the character is inconsistent (fixed by an odd generator) drop out.
    """
    for pa in perms:
        for pb in perms:
            if not np.array_equal(pa[pb], pb[pa]):
                raise NonCommuting("involutions must commute for a joint parity label")
    # enumerate the little group generated by the involutions on each orbit
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


def parity_split_spectrum(mesh, name, count=6, kind="laplace", seed=0):
    """(even, odd) spectra of the problem restricted to the +/- subspaces."""
    perm = _involution_perm(mesh, name)
    K = assemble_stiffness(mesh)
    if kind == "laplace":
        M = assemble_mass(mesh)
    else:
        M = assemble_boundary_mass(mesh)
    out = []
    for sign in (1.0, -1.0):
        R = sector_basis(mesh.n_vertices, [perm], [sign])
        Kr = (R.T @ K @ R).tocsr()
        if kind == "laplace":
            Mr = np.asarray((R.T @ sp.diags(M) @ R).diagonal())
            vals, vecs = solve_generalized(Kr, Mr, min(count, R.shape[1]), seed=seed)
            full = R @ vecs
            n_zero = int(np.sum(np.abs(vals) < 1e-8 * max(abs(vals[-1]), 1e-30)))
            out.append(Spectrum(vals, full, M, kind, n_zero=n_zero))
        else:
            out.append(_steklov_in_subspace(mesh, K, M, R, count, seed))
    return out[0], out[1]


def _steklov_in_subspace(mesh, K, B, R, count, seed):
    """Steklov pencil restricted to a sector via dense reduction.

    Small meshes only (the sector pencil K u = sigma B u is degenerate:
    solved on the B-positive subspace after eliminating the K-harmonic
    directions by Schur complement in the reduced coordinates).
    """
    import scipy.linalg

    Kr = (R.T @ K @ R).toarray()
    Br = np.asarray((R.T @ sp.diags(B) @ R).diagonal())
    live = Br > 1e-14 * max(Br.max(), 1e-30)
    idx_b = np.nonzero(live)[0]
    idx_i = np.nonzero(~live)[0]
    Kbb = Kr[np.ix_(idx_b, idx_b)]
    Kbi = Kr[np.ix_(idx_b, idx_i)]
    Kii = Kr[np.ix_(idx_i, idx_i)]
    if len(idx_i):
        dtn = Kbb - Kbi @ np.linalg.solve(Kii, Kbi.T)
    else:
        dtn = Kbb
    dtn = 0.5 * (dtn + dtn.T)
    vals, traces = scipy.linalg.eigh(dtn, np.diag(Br[idx_b]))
    k = min(count, len(vals))
    vals, traces = vals[:k], traces[:, :k]
    coeff = np.zeros((Kr.shape[0], k))
    coeff[idx_b] = traces
    if len(idx_i):
        coeff[idx_i] = -np.linalg.solve(Kii, Kbi.T @ traces)
    full = R @ coeff
    n_zero = int(np.sum(np.abs(vals) < 1e-8 * max(abs(vals[-1]), 1e-30)))
    return Spectrum(vals, full, B, "steklov", n_zero=n_zero)


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
    # connected components of the off-mirror part
    comp = -np.ones(n, dtype=int)
    adj = {}
    for a, b in mesh.edge_lengths:
        if not fixed[a] and not fixed[b]:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
    current = 0
    for v in range(n):
        if fixed[v] or comp[v] >= 0:
            continue
        stack = [v]
        comp[v] = current
        while stack:
            u = stack.pop()
            for w in adj.get(u, []):
                if comp[w] < 0:
                    comp[w] = current
                    stack.append(w)
        current += 1
    if current != 2:
        raise EquivariantError(f"{name} does not separate the surface into two sides")
    side0 = comp == 0
    keep = side0 | fixed
    new_index = -np.ones(n, dtype=int)
    new_index[keep] = np.arange(int(keep.sum()))
    tris = []
    for t in mesh.triangles:
        t = [int(x) for x in t]
        if all(keep[v] for v in t):
            if all(fixed[v] for v in t):
                raise EquivariantError("involution fixes a whole triangle")
            tris.append([new_index[v] for v in t])
    # only the edges of the kept triangles: an edge of the discarded side may
    # still join two kept vertices
    tri_edges = {}
    for t in tris:
        for a, b in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
            key = _edge_key(a, b)
            tri_edges[key] = tri_edges.get(key, 0) + 1
    lengths = {}
    for (a, b), l in mesh.edge_lengths.items():
        if keep[a] and keep[b]:
            key = _edge_key(int(new_index[a]), int(new_index[b]))
            if key in tri_edges:
                lengths[key] = l
    panels = {}
    for (a, b), lab in mesh.panels.items():
        if keep[a] and keep[b]:
            key = _edge_key(int(new_index[a]), int(new_index[b]))
            if key in tri_edges:
                panels[key] = lab
    # mirror panel: new boundary edges whose endpoints are fixed vertices
    for key, c in tri_edges.items():
        if c == 1 and key not in panels:
            panels[key] = f"mirror:{name}"
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
        np.asarray(tris, dtype=int),
        lengths,
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
    perms = [_involution_perm(mesh, k) for k in names]
    for pa in perms:
        for pb in perms:
            if not np.array_equal(pa[pb], pb[pa]):
                raise NonCommuting("labels require commuting involutions")
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
