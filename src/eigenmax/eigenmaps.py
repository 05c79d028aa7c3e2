"""Structure of first-eigenfunction maps into spheres and balls.

Conformality of the pullback, mapped-area bounds, nodal domain counts,
two-sheeted projection structure of doublings, and piecewise-linear critical
point counts on ovals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fem
from .meshcore import MeshError, components, edge_endpoints


class EigenmapError(MeshError):
    pass


class EmptyCluster(EigenmapError):
    pass


class WrongParitySplit(EigenmapError):
    pass


class NotEven(EigenmapError):
    pass


class NodalCountNotTwo(EigenmapError):
    pass


class PoleOnSurface(EigenmapError):
    pass


@dataclass
class Eigenmap:
    components: np.ndarray  # (n, m)
    eigenvalues: np.ndarray
    kind: str
    parity: list  # +1 / -1 per component (or 0 when no involution given)
    gram: np.ndarray  # normalization record

    def norms(self):
        return np.sqrt(np.sum(self.components**2, axis=1))


def first_eigenmap(mesh, spectrum, tau=None):
    """Cluster basis scaled to unit mean sum of squares, parity-ordered.

    The mean is taken against the measure of the problem (area for Laplace,
    boundary length for Steklov).  With tau given, components are rotated
    into parity eigenvectors and ordered even-first.
    """
    clusters = spectrum.clusters()
    if not clusters:
        raise EmptyCluster("spectrum has no nonzero cluster")
    i, j = clusters[0]
    U = spectrum.vectors[:, i:j].copy()
    lams = spectrum.eigenvalues[i:j].copy()
    parity = [0] * (j - i)
    if tau is not None:
        perm = mesh.actions[tau]
        G = U.T @ (spectrum.mass[:, None] * U[perm])
        G = 0.5 * (G + G.T)
        eig, V = np.linalg.eigh(G)
        order = np.argsort(-eig)  # even (+1) components first
        V = V[:, order]
        eig = eig[order]
        U = U @ V
        lams = np.array([float(v.T @ np.diag(lams) @ v) for v in V.T])
        parity = [1 if e > 0.5 else (-1 if e < -0.5 else 0) for e in eig]
        if any(p == 0 for p in parity):
            raise WrongParitySplit("cluster parities not resolved")
    measure = spectrum.mass
    sel = measure > 0
    mu = measure[sel] / measure[sel].sum()
    mean_sq = float(mu @ np.sum(U[sel] ** 2, axis=1))
    if mean_sq <= 0:
        raise EmptyCluster("degenerate cluster basis")
    U = U / np.sqrt(mean_sq)
    gram = U[sel].T @ (mu[:, None] * U[sel])
    return Eigenmap(U, lams, spectrum.kind, parity, gram)


def _triangle_frames(mesh):
    """Local 2D coordinates of each triangle from its reference lengths."""
    la, lb, lc = mesh.all_triangle_lengths()
    # vertices at (0,0), (lc,0), (x,y) with |AC| = lb, |BC| = la
    x = mesh.geometry.corner_dots[:, 0] / (2 * lc)
    y = np.sqrt(np.maximum(lb**2 - x**2, 1e-300))
    return lc, x, y


def triangle_gradients(mesh, values):
    """Per-triangle gradient of vertex fields in the local reference frame.

    values: (n,) or (n, d); returns (n_tri, 2) or (n_tri, d, 2).
    """
    vals = np.asarray(values, dtype=float)
    single = vals.ndim == 1
    if single:
        vals = vals[:, None]
    lc, x, y = _triangle_frames(mesh)
    tri = mesh.triangles
    vA = vals[tri[:, 0]]
    vB = vals[tri[:, 1]]
    vC = vals[tri[:, 2]]
    # gradient from the affine interpolant on (0,0), (lc,0), (x,y)
    gx = (vB - vA) / lc[:, None]
    gy = (vC - vA - gx * x[:, None]) / y[:, None]
    out = np.stack([gx, gy], axis=-1)
    return out[:, 0, :] if single else out


def conformality_residual(components, mesh):
    """Area-weighted relative deviation of the pullback metric from a
    multiple of the current (density-weighted) reference metric."""
    comps = np.asarray(components, dtype=float)
    if comps.shape[1] < 2:
        raise EigenmapError("need at least two components")
    grads = triangle_gradients(mesh, comps)  # (t, d, 2)
    G = np.einsum("tdi,tdj->tij", grads, grads)
    areas = mesh.reference_areas()
    rho = mesh.density[mesh.triangles].mean(axis=1)
    # best single conformal factor alpha: G ~ alpha * rho * I
    tr = G[:, 0, 0] + G[:, 1, 1]
    alpha = float(np.sum(areas * rho * tr) / (2.0 * np.sum(areas * rho**2)))
    dev = G - alpha * rho[:, None, None] * np.eye(2)[None, :, :]
    num = np.sum(areas * np.sum(dev**2, axis=(1, 2)))
    den = np.sum(areas * 2.0 * (alpha * rho) ** 2)
    return float(np.sqrt(num / max(den, 1e-300)))


def mapped_area(components, mesh):
    """Half the Dirichlet energy of the map (the area of the image metric)."""
    K = fem.assemble_stiffness(mesh)
    comps = np.asarray(components, dtype=float)
    return 0.5 * float(np.sum(comps * (K @ comps)))


def area_bound_check(components, mesh, context="closed"):
    """Mapped area against the doubling bounds (8 pi closed, 2 pi bounded)."""
    area = mapped_area(components, mesh)
    bound = 8 * np.pi if context == "closed" else 2 * np.pi
    report = {
        "mapped_area": float(area),
        "bound": float(bound),
        "holds": bool(area < bound),
    }
    if context == "closed":
        report["reference_curve"] = "8*pi*(1 - log(2)/(2*genus))"
    return report


def nodal_domain_count(values, mesh, rel_tol=1e-10):
    """Number of sign domains of a vertex field on the vertex adjacency graph."""
    u = np.asarray(values, dtype=float)
    scale = float(np.max(np.abs(u)))
    if scale == 0:
        return 1
    sign = np.zeros(mesh.n_vertices, dtype=int)
    sign[u > rel_tol * scale] = 1
    sign[u < -rel_tol * scale] = -1
    a, b = edge_endpoints(mesh)
    same = (sign[a] != 0) & (sign[a] == sign[b])
    return components(np.flatnonzero(sign), a[same], b[same])[0]


# ---------------------------------------------------------------------------
# Doubling projection
# ---------------------------------------------------------------------------

def doubling_projection_check(components, mesh, tau, parity, samples=200, seed=0):
    """Count projection sheets over the even-coordinate sphere or disk.

    components: map columns with the given parity list w.r.t. tau; closed
    maps need 3 even + odd, bounded maps 2 even + odd.  Sampled target
    points are counted against the projected triangles; the verdict is
    'doubling' when the dominant count off the fixed set is 2 and the fixed
    circles project injectively.
    """
    comps = np.asarray(components, dtype=float)
    even_idx = [k for k, p in enumerate(parity) if p > 0]
    odd_idx = [k for k, p in enumerate(parity) if p < 0]
    if len(even_idx) not in (2, 3) or not odd_idx:
        raise WrongParitySplit(
            f"expected 2 or 3 even components plus odd ones, got {parity}"
        )
    perm = mesh.actions[tau]
    fixed = perm == np.arange(mesh.n_vertices)
    E = comps[:, even_idx]
    rng = np.random.default_rng(seed)
    spherical = len(even_idx) == 3
    if spherical:
        norms = np.linalg.norm(E, axis=1)
        if np.min(norms) < 1e-9:
            raise EigenmapError("map touches the projection axis")
        P = E / norms[:, None]
    else:
        scale = float(np.max(np.linalg.norm(E, axis=1)))
        P = E / max(scale, 1e-300)
    off_tris = mesh.triangles[~np.any(fixed[mesh.triangles], axis=1)]
    A, B, C = (P[off_tris[:, k]] for k in range(3))
    if spherical:
        center = A + B + C
        normals = np.cross(A, B), np.cross(B, C), np.cross(C, A)
    counts = []
    for _ in range(samples):
        if spherical:
            q = rng.standard_normal(3)
            q /= np.linalg.norm(q)
            d1, d2, d3 = (n @ q for n in normals)
            # a triangle on the far hemisphere would count its antipode
            facing = center @ q > 0
        else:
            q = rng.standard_normal(2)
            q *= rng.random() ** 0.5 * 0.8 / np.linalg.norm(q)
            d1 = _cross2((B - A).T, (q - A).T)
            d2 = _cross2((C - B).T, (q - B).T)
            d3 = _cross2((A - C).T, (q - C).T)
            facing = True
        inside = ((d1 > 0) & (d2 > 0) & (d3 > 0)) | ((d1 < 0) & (d2 < 0) & (d3 < 0))
        counts.append(int(np.count_nonzero(inside & facing)))
    counts = np.asarray(counts)
    covered = counts[counts > 0]
    mode = int(np.bincount(covered).argmax()) if len(covered) else 0
    frac2 = float(np.mean(covered == 2)) if len(covered) else 0.0
    # injectivity of the fixed-set image: nearest distinct projected points
    # on each oval stay separated
    fixed_pts = P[fixed]
    injective = True
    if len(fixed_pts) > 1:
        from scipy.spatial import cKDTree

        tree = cKDTree(fixed_pts)
        dist, idx = tree.query(fixed_pts, k=2)
        injective = bool(np.min(dist[:, 1]) > 1e-8)
    verdict = mode == 2 and frac2 > 0.8 and injective
    return {
        "sheets_mode": mode,
        "fraction_two_sheeted": frac2,
        "fixed_image_injective": injective,
        "doubling": bool(verdict),
        "samples_covered": int(len(covered)),
    }


def _cross2(u, v):
    return u[0] * v[1] - u[1] * v[0]


def odd_nodal_set_on_fixed(values, mesh, tau, rel_tol=1e-8):
    """Whether every sign change of an odd eigenfunction crosses the fixed set.

    Meaningful on meshes whose mirror is edge-resolved (chamber-built): an
    edge between strictly positive and strictly negative vertices then always
    passes through a vanishing fixed vertex.
    """
    u = np.asarray(values, dtype=float)
    perm = mesh.actions[tau]
    fixed = perm == np.arange(mesh.n_vertices)
    scale = float(np.max(np.abs(u)))
    for a, b in mesh.edge_lengths:
        if u[a] > rel_tol * scale and u[b] < -rel_tol * scale:
            return False
        if u[b] > rel_tol * scale and u[a] < -rel_tol * scale:
            return False
    return True


def oval_convexity_report(components, mesh, tau, parity, angle_tol=1e-2):
    """Convexity of the projected oval images (soft check, reported).

    Each oval's image polygon in the even-coordinate plane/sphere is tested
    for turning-direction consistency; the report carries the fraction of
    convex turns per oval, with mesh error expected to blur strictness.
    """
    comps = np.asarray(components, dtype=float)
    even_idx = [k for k, p in enumerate(parity) if p > 0]
    ovals = fixed_ovals(mesh, tau)
    out = []
    for oval in ovals:
        cycle = _cycle_order(mesh, oval)
        if cycle is None or len(cycle) < 4:
            out.append({"vertices": len(oval), "convex_fraction": None})
            continue
        pts = comps[np.asarray(cycle)][:, even_idx[:2]]
        m = len(cycle)
        turns = []
        for k in range(m):
            a, b, c = pts[k - 1], pts[k], pts[(k + 1) % m]
            turns.append(_cross2(b - a, c - b))
        turns = np.asarray(turns)
        dominant = np.sign(np.median(turns))
        good = np.mean(dominant * turns > -angle_tol * np.max(np.abs(turns)))
        out.append({"vertices": m, "convex_fraction": float(good)})
    return out


def _cycle_order(mesh, oval):
    oval_set = set(oval)
    adj = {}
    for a, b in mesh.edge_lengths:
        if a in oval_set and b in oval_set:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
    if any(len(v) != 2 for v in adj.values()) or len(adj) != len(oval):
        return None
    start = oval[0]
    cycle = [start]
    prev, cur = None, start
    while True:
        nxt = [w for w in adj[cur] if w != prev]
        if not nxt:
            return None
        prev, cur = cur, nxt[0]
        if cur == start:
            break
        cycle.append(cur)
        if len(cycle) > len(oval):
            return None
    return cycle


# ---------------------------------------------------------------------------
# Piecewise-linear Morse structure
# ---------------------------------------------------------------------------

def interior_critical_vertices(values, mesh):
    """Vertices whose piecewise-linear gradient cone contains zero.

    The star is flattened by its reference lengths (cone angle normalized to
    2 pi); the vertex is critical when the incident triangle gradients do
    not span an open half-plane.
    """
    u = np.asarray(values, dtype=float)
    boundary = set(int(x) for x in mesh.boundary_vertices())
    tri = mesh.triangles.tolist()
    # star of each vertex: its (triangle, corner) pairs in triangle order
    stars = {}
    for ti, t in enumerate(tri):
        for k, v in enumerate(t):
            stars.setdefault(v, []).append((ti, k))
    angles = np.arccos(np.clip(mesh.corner_cosines(), -1, 1))
    lengths = mesh.geometry.lengths
    out = []
    for v, star in stars.items():
        if v in boundary:
            continue
        scale = 2 * np.pi / sum(angles[ti, k] for ti, k in star)
        order = _order_star(tri, star)
        if order is None:
            continue
        theta = 0.0
        grads = []
        for ti, k in order:
            a, b = tri[ti][(k + 1) % 3], tri[ti][(k + 2) % 3]
            # |va| and |vb| are the lengths opposite corners k+2 and k+1
            la, lb = lengths[ti, (k + 2) % 3], lengths[ti, (k + 1) % 3]
            ang = angles[ti, k]
            pa = np.array([la * np.cos(theta * scale), la * np.sin(theta * scale)])
            pb = np.array(
                [lb * np.cos((theta + ang) * scale), lb * np.sin((theta + ang) * scale)]
            )
            grads.append(_planar_gradient(np.zeros(2), pa, pb, u[v], u[a], u[b]))
            theta += ang
        if _zero_in_cone(np.asarray(grads)):
            out.append(v)
    return out


def _order_star(tri, star):
    """The (triangle, corner) pairs of a star in cyclic order, or None if it is not a disk."""
    nxt = {tri[ti][(k + 1) % 3]: (ti, k) for ti, k in star}
    ti, k = star[0]
    cur = tri[ti][(k + 1) % 3]
    order = []
    for _ in range(len(star)):
        corner = nxt.get(cur)
        if corner is None:
            return None
        order.append(corner)
        ti, k = corner
        cur = tri[ti][(k + 2) % 3]
    return order


def _planar_gradient(p0, p1, p2, u0, u1, u2):
    mat = np.array([p1 - p0, p2 - p0])
    rhs = np.array([u1 - u0, u2 - u0])
    return np.linalg.solve(mat, rhs)


def _zero_in_cone(grads):
    norms = np.linalg.norm(grads, axis=1)
    scale = float(np.max(norms))
    if scale < 1e-13:
        return True
    if np.min(norms) < 1e-10 * scale:
        return True
    ang = np.sort(np.arctan2(grads[:, 1], grads[:, 0]))
    gaps = np.diff(np.concatenate([ang, [ang[0] + 2 * np.pi]]))
    # zero lies in the convex hull iff the directions span more than a half-plane
    return bool(np.max(gaps) < np.pi - 1e-9)


def boundary_trace_extrema(values, mesh):
    """Nonpositive minima and maxima of the boundary trace, per the Morse count."""
    from .meshcore import boundary_loops

    u = np.asarray(values, dtype=float)
    n_min = n_max = 0
    for loop in boundary_loops(mesh):
        m = len(loop)
        for k, v in enumerate(loop):
            left = u[loop[k - 1]]
            right = u[loop[(k + 1) % m]]
            if u[v] < left and u[v] < right and u[v] <= 0:
                n_min += 1
            if u[v] > left and u[v] > right and u[v] <= 0:
                n_max += 1
    return n_min, n_max


def fixed_ovals(mesh, tau):
    """Connected components of the involution's fixed vertex set (interior ovals)."""
    perm = mesh.actions[tau]
    fixed = np.flatnonzero(perm == np.arange(mesh.n_vertices))
    fixed = np.setdiff1d(fixed, mesh.boundary_vertices())
    a, b = edge_endpoints(mesh)
    on_fixed = np.isin(a, fixed) & np.isin(b, fixed)
    count, labels = components(fixed, a[on_fixed], b[on_fixed])
    return [fixed[labels == k].tolist() for k in range(count)]


def morse_count_check(values, mesh, tau):
    """Critical-point structure of a tau-even Steklov eigenfunction.

    Asserts the eigenfunction is even with two nodal domains, then reports
    interior critical points (off and on the fixed set), the two-per-oval
    count, and the boundary Morse inequality data.
    """
    u = np.asarray(values, dtype=float)
    perm = mesh.actions[tau]
    if np.max(np.abs(u[perm] - u)) > 1e-6 * float(np.max(np.abs(u))):
        raise NotEven("eigenfunction is not even under the involution")
    nodal = nodal_domain_count(u, mesh)
    if nodal != 2:
        raise NodalCountNotTwo(f"expected two nodal domains, found {nodal}")
    criticals = interior_critical_vertices(u, mesh)
    fixed = perm == np.arange(mesh.n_vertices)
    on_fixed = [v for v in criticals if fixed[v]]
    off_fixed = [v for v in criticals if not fixed[v]]
    ovals = fixed_ovals(mesh, tau)
    per_oval = []
    for oval in ovals:
        per_oval.append(sum(1 for v in on_fixed if v in set(oval)))
    n_min, n_max = boundary_trace_extrema(u, mesh)
    chi = mesh.euler_characteristic()
    n_interior = len(criticals)
    return {
        "interior_critical": n_interior,
        "off_fixed_critical": len(off_fixed),
        "per_oval": per_oval,
        "ovals": len(ovals),
        "boundary_min_nonpos": n_min,
        "boundary_max_nonpos": n_max,
        "euler": chi,
        "morse_inequality_holds": bool(n_interior + chi <= n_min - n_max),
    }


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def stereographic_pole(points4):
    """A pole on S^3 far from the given points (export convenience)."""
    pts = np.asarray(points4, dtype=float)
    candidates = []
    for k in range(4):
        for s in (+1.0, -1.0):
            e = np.zeros(4)
            e[k] = s
            candidates.append(e)
    mean = pts.mean(axis=0)
    if np.linalg.norm(mean) > 1e-9:
        candidates.append(-mean / np.linalg.norm(mean))
    best, best_d = None, -1.0
    for c in candidates:
        d = float(np.min(np.linalg.norm(pts - c[None, :], axis=1)))
        if d > best_d:
            best, best_d = c, d
    return best, best_d


def stereographic_s3(points4, pole=None):
    """Stereographic projection of S^3 points to R^3 from the given pole."""
    pts = np.asarray(points4, dtype=float)
    if pole is None:
        pole, dist = stereographic_pole(pts)
    else:
        pole = np.asarray(pole, dtype=float)
        dist = float(np.min(np.linalg.norm(pts - pole[None, :], axis=1)))
    if dist < 1e-6:
        raise PoleOnSurface("projection pole lies on the image surface")
    # orthonormal frame of pole^perp
    basis = []
    for k in range(4):
        e = np.zeros(4)
        e[k] = 1.0
        v = e - (e @ pole) * pole
        for b in basis:
            v = v - (v @ b) * b
        n = np.linalg.norm(v)
        if n > 1e-8:
            basis.append(v / n)
        if len(basis) == 3:
            break
    denom = 1.0 - pts @ pole
    return np.column_stack([pts @ b for b in basis]) / denom[:, None]


def export_eigenmap_obj(mesh, path, components=None, pole=None):
    """OBJ export of the mesh, optionally positioned by a 2-4 component map."""
    from .meshcore import export_obj

    if components is None:
        export_obj(mesh, path)
        return
    comps = np.asarray(components, dtype=float)
    if comps.shape[1] == 2:
        pos = np.column_stack([comps, np.zeros(len(comps))])
    elif comps.shape[1] == 3:
        pos = comps
    elif comps.shape[1] == 4:
        norms = np.linalg.norm(comps, axis=1)
        pos = stereographic_s3(comps / norms[:, None], pole)
    else:
        raise EigenmapError("can only export maps with 2 to 4 components")
    export_obj(mesh, path, positions=pos)
