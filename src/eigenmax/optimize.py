"""Maximization of the normalized first eigenvalue over invariant densities.

Ascent loop: solve the spectrum, take the lowest cluster, choose nonnegative
cluster weights flattening the pointwise sum of squares, multiply the density
by that flattened profile (group-averaged), and safeguard with a backtracking
line search on the objective.  At a maximizer the flattened profile is
constant, so the density is a fixed point and the extremality residual
measures the distance from criticality.

For Steklov problems only the boundary weight sqrt(rho) is updated; the
interior density is irrelevant by conformal invariance of the Dirichlet
energy.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from . import fem
from .equivariant import average_invariant
from .meshcore import weighted_area

DENSITY_FLOOR = 1e-6
LINE_SEARCH_DROP = 1e-10

log = logging.getLogger(__name__)


class OptimizeError(RuntimeError):
    pass


class GuardViolation(OptimizeError):
    """Objective exceeded an a-priori bound: the action table must be broken."""


class ClusterAmbiguous(OptimizeError):
    pass


@dataclass
class OptimizationState:
    density: np.ndarray
    objective: float
    residual: float
    cluster_dim: int
    cluster_values: list
    iterations: int
    converged: bool
    flag: str = ""
    history: list = field(default_factory=list)
    weights: list = field(default_factory=list)

    def to_json(self):
        return {
            "objective": float(self.objective),
            "residual": float(self.residual),
            "cluster_dim": int(self.cluster_dim),
            "cluster_values": [float(v) for v in self.cluster_values],
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
            "flag": self.flag,
            "history": [[int(i), float(v), float(r)] for i, v, r in self.history],
            "weights": [float(w) for w in self.weights],
        }


def eigenvalue_derivative(mesh, u, delta_rho, kind="laplace", eigenvalue=None):
    """First-order change of lambda_1 and of area*lambda_1 for a mass perturbation.

    u must be a single mass-normalized eigenfunction (pass the cluster member
    explicitly when the eigenvalue is degenerate).
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1:
        raise ClusterAmbiguous("pass a single cluster member for degenerate eigenvalues")
    delta_rho = np.asarray(delta_rho, dtype=float)
    if kind == "laplace":
        mass_ref = fem.assemble_mass(mesh) / mesh.density
        lam = eigenvalue
        if lam is None:
            K = fem.assemble_stiffness(mesh)
            lam = float(u @ (K @ u))
        dlam = -lam * float(np.sum(u**2 * mass_ref * delta_rho))
        area = mesh.area()
        darea = float(np.sum(mass_ref * delta_rho))
        return dlam, area * dlam + lam * darea
    # Steklov: the boundary weight is sqrt(rho); perturb it directly
    b_ref = fem.assemble_boundary_mass(mesh) / np.sqrt(mesh.density)
    lam = eigenvalue
    if lam is None:
        K = fem.assemble_stiffness(mesh)
        lam = float(u @ (K @ u))
    dlam = -lam * float(np.sum(u**2 * b_ref * delta_rho))
    length = mesh.boundary_length()
    dlen = float(np.sum(b_ref * delta_rho))
    return dlam, length * dlam + lam * dlen


def flatten_weights(profiles, measure):
    """Nonnegative weights (sum = m) minimizing the variance of sum(w_i u_i^2).

    profiles: (n, m) matrix of squared eigenfunctions; measure: quadrature
    weights over the relevant set.
    """
    n, m = profiles.shape
    if m == 1:
        return np.array([1.0])
    mu = measure / measure.sum()
    centered = profiles - (mu @ profiles)[None, :]

    def objective(w):
        r = centered @ w
        return float(np.sum(mu * r**2))

    def grad(w):
        r = centered @ w
        return 2.0 * (centered.T @ (mu * r))

    res = minimize(
        objective,
        np.ones(m),
        jac=grad,
        method="SLSQP",
        bounds=[(0.0, None)] * m,
        constraints=[{"type": "eq", "fun": lambda w: np.sum(w) - m}],
        options={"maxiter": 200, "ftol": 1e-14},
    )
    w = np.maximum(res.x, 0.0)
    s = w.sum()
    return w * (m / s) if s > 0 else np.ones(m)


def ascent_weights(lams, U, measure, total):
    """Weights maximizing the worst first-order cluster response.

    Near the optimum the cluster is split and the plain sum of squares is
    already nearly constant, so flattening carries no signal; this chooses
    the profile whose induced mass transport raises the lowest cluster
    eigenvalues fastest (small linear program on the response matrix).
    """
    from scipy.optimize import linprog

    m = len(lams)
    if m == 1:
        return np.array([1.0])
    mu = measure / measure.sum()
    sq = U**2
    sq = sq / (mu @ sq)[None, :]  # each squared mode scaled to unit mean
    T = sq.T @ (mu[:, None] * sq)  # response Gram of the squared modes
    D = -lams[:, None] * (T - 1.0)  # up to a positive scale, d(norm. eigenvalue)
    # variables (w, s): maximize s with D w >= s, w >= 0, sum w = total
    c = np.zeros(m + 1)
    c[-1] = -1.0
    A_ub = np.hstack([-D, np.ones((m, 1))])
    b_ub = np.zeros(m)
    A_eq = np.zeros((1, m + 1))
    A_eq[0, :m] = 1.0
    res = linprog(
        c,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=[total],
        bounds=[(0, None)] * m + [(None, None)],
        method="highs",
    )
    if not res.success:
        return np.full(m, total / m)
    return np.maximum(res.x[:m], 0.0)


def _solve(mesh, kind, count, seed, start=None):
    if kind == "laplace":
        return fem.laplace_spectrum(mesh, count=count, seed=seed, start=start)
    return fem.steklov_spectrum(mesh, count=count)


def _objective(mesh, kind, spectrum):
    return fem.normalized_first(mesh, kind, spectrum)


def _update_cluster(spectrum, window):
    """Eigenvalues within a relative window of the first nonzero one."""
    vals = spectrum.eigenvalues
    i = spectrum.n_zero
    lam1 = vals[i]
    j = i + 1
    while j < len(vals) and vals[j] <= lam1 * (1 + window) and j - i < 6:
        j += 1
    return i, j


def _extremality(mesh, kind, U, w):
    """sup-norm deviation of the flattened profile from its mean."""
    F = (U**2) @ w
    if kind == "laplace":
        measure = fem.assemble_mass(mesh)
        sel = measure > 0
    else:
        measure = fem.assemble_boundary_mass(mesh)
        sel = measure > 0
    mu = measure[sel] / measure[sel].sum()
    c = float(mu @ F[sel])
    if c <= 0:
        return np.inf, F, 1.0
    return float(np.max(np.abs(F[sel] - c)) / c), F, c


def guard_bound(mesh, kind):
    meta = mesh.meta.get("brs")
    if not meta:
        return None
    return float(meta["bound"])


def maximize(
    mesh,
    kind="laplace",
    max_iters=100,
    residual_tol=0.005,
    cluster_tol=fem.DEFAULT_CLUSTER_TOL,
    seed=0,
    count=8,
    callback=None,
):
    """Ascend the normalized first eigenvalue over invariant conformal densities."""
    rho = average_invariant(mesh.density, mesh)
    mesh = mesh.with_density(rho)
    bound = guard_bound(mesh, kind)
    history = []
    best = None
    window = 0.3
    flag = ""
    converged = False
    it = 0
    w = np.array([1.0])
    for it in range(1, max_iters + 1):
        spec = _solve(mesh, kind, count, seed)
        value = _objective(mesh, kind, spec)
        if bound is not None and value >= bound:
            raise GuardViolation(
                f"{kind} objective {value:.6f} exceeds the a-priori bound {bound:.6f}; "
                "the symmetry data of this mesh is inconsistent"
            )
        i, j = _update_cluster(spec, window)
        U = spec.vectors[:, i:j]
        measure = (
            fem.assemble_mass(mesh) if kind == "laplace" else fem.assemble_boundary_mass(mesh)
        )
        sel = measure > 0
        w = flatten_weights((U[sel] ** 2), measure[sel])
        residual, F, c = _extremality(mesh, kind, U, w)
        history.append((it, value, residual))
        if callback:
            callback(it, value, residual)
        best = (mesh, value, residual, spec, (i, j), w)
        if residual < residual_tol:
            converged = True
            log.debug(
                "iteration %d: objective %.12g, residual %.3g, cluster [%d, %d), converged",
                it, value, residual, i, j,
            )
            break
        # candidate updates, each guarded by the same line search:
        #  1. multiply the density by the flattened squares profile;
        #  2. same with eigenvalue-equalizing weights (split clusters);
        #  3. replace the density by the cluster's reference energy density
        #     (the only move that removes mesh-frequency density noise).
        candidates = [("mult", w)]
        w_asc = ascent_weights(spec.eigenvalues[i:j], U[sel], measure[sel], j - i)
        if not np.allclose(w_asc, w, atol=1e-6):
            candidates.append(("mult", w_asc))
        candidates.append(("replace", w))
        accepted = None
        move = "stalled"
        trials = 0
        for mode, w_try in candidates:
            F_try = (U**2) @ w_try
            c_try = float(
                (measure[sel] / measure[sel].sum()) @ F_try[sel]
            )
            if c_try <= 0:
                continue
            if kind == "laplace":
                if mode == "mult":
                    target = rho * (F_try / c_try)
                else:
                    target = fem.dirichlet_energy_density(mesh, U * np.sqrt(w_try))
                target = average_invariant(target, mesh)
                target *= mesh.area() / weighted_area(mesh, target)
                target = np.maximum(target, DENSITY_FLOOR * float(np.mean(target)))
            else:
                beta = np.sqrt(rho)
                if mode == "mult":
                    scale = np.where(sel, F_try / c_try, 1.0)
                    target_beta = beta * scale
                else:
                    prof, bsel = fem.boundary_energy_density(mesh, U * np.sqrt(w_try))
                    mean_prof = float(np.mean(prof[bsel])) if np.any(bsel) else 1.0
                    target_beta = np.where(bsel, prof / max(mean_prof, 1e-300), 1.0)
                target_beta = average_invariant(target_beta, mesh)
                target = (
                    np.maximum(target_beta, DENSITY_FLOOR * float(np.mean(target_beta)))
                    ** 2
                )
            scale = max(1.0, abs(value))
            moved = float(np.max(np.abs(target - rho))) > 1e-8 * float(np.mean(rho))
            if not moved:
                continue
            t = 1.0
            for _ in range(9):
                rho_t = (1 - t) * rho + t * target
                try:
                    trial = mesh.with_density(rho_t)
                except Exception:
                    t /= 2
                    continue
                # warm-started from this iterate's spectrum and factorization
                tspec = _solve(trial, kind, max(4, j - i + 2), seed, start=spec)
                trials += 1
                tvalue = _objective(trial, kind, tspec)
                gain = tvalue - value
                # accept real progress; tolerate a sub-roundoff drop only for
                # the full step (guards against cluster reordering)
                if gain > 1e-11 * scale or (
                    t == 1.0 and gain >= -LINE_SEARCH_DROP * scale
                ):
                    accepted = (trial, rho_t, tvalue)
                    move = f"accepted {mode} at t={t:g}"
                    break
                t /= 2
            if accepted is not None:
                break
        # the factorization served this iteration's trials; free it before the next
        fem.release_factor(spec)
        log.debug(
            "iteration %d: objective %.12g, residual %.3g, cluster [%d, %d), %s, %d trial solves",
            it, value, residual, i, j, move, trials,
        )
        if accepted is None:
            flag = "stalled-below-tolerance"
            break
        mesh, rho, value = accepted
        window = min(0.3, max(cluster_tol, residual))
    mesh, value, residual, spec, (i, j), w = best
    fem.release_factor(spec)
    # multiplicities are only resolved to the achieved extremality residual:
    # cluster at a tolerance matched to it (never below the solver tolerance)
    spec.cluster_tol = max(cluster_tol, 2.0 * residual)
    ci, cj = spec.clusters()[0]
    state = OptimizationState(
        density=mesh.density.copy(),
        objective=value,
        residual=residual,
        cluster_dim=cj - ci,
        cluster_values=[float(v) for v in spec.eigenvalues[ci:cj]],
        iterations=it,
        converged=converged,
        flag=flag,
        history=history,
        weights=list(w),
    )
    return state, mesh, spec


def moduli_sweep(params, factory, kind="laplace", **options):
    """maximize over a one-parameter family; returns per-parameter states and argmax.

    factory maps a parameter value to a mesh.
    """
    results = []
    for p in params:
        mesh = factory(p)
        state, final_mesh, spec = maximize(mesh, kind, **options)
        results.append({"parameter": float(p), "state": state})
    best = max(range(len(results)), key=lambda k: results[k]["state"].objective)
    return results, results[best]


# ---------------------------------------------------------------------------
# Gap reports
# ---------------------------------------------------------------------------

SPHERE_MAX = 8 * np.pi
PROJECTIVE_MAX = 12 * np.pi
DISK_MAX = 2 * np.pi
CLIFFORD = 4 * np.pi**2


def invariant_curve_flag(descriptor):
    """Whether the descriptor certainly carries a group-invariant two-sided curve.

    Detection from the fixed-circle stabilizers: an f-circle is invariant for
    trivial G, an e-circle for G = 1*, and a corner circle when the two
    mirrors generate G (dihedral).  Other invariant curves may exist; the
    flag is a certificate, not a characterization.
    """
    g = descriptor.group
    b = descriptor.btype
    if g.kind == "trivial":
        return True
    if g.kind == "onestar":
        return b.f > 0 or any(c > 0 for _, c in b.e)
    if g.kind == "dihedral":
        return any(c > 0 for _, c in b.v)
    return False


def gap_report(descriptor, value, children=(), kind="laplace", margin=1e-3):
    """Compare an optimized value against degeneration children and thresholds.

    children: list of (descriptor or label, value).  Verdicts are recomputed
    from the stored numbers; the report also carries the reference constants
    relevant to the family.
    """
    from .taxonomy import elementary_degenerations

    delta_or = invariant_curve_flag(
        descriptor if descriptor.closed else _double_of(descriptor)
    )
    if kind == "laplace":
        thresholds = {"sphere": SPHERE_MAX if delta_or else 0.0}
    else:
        thresholds = {"disk": DISK_MAX if delta_or else 0.0}
    entries = []
    for child, cval in children:
        label = child.label() if hasattr(child, "label") else str(child)
        entries.append({"child": label, "value": float(cval)})
    floor = max(
        [v for v in thresholds.values()] + [e["value"] for e in entries] + [0.0]
    )
    if value > floor + margin * max(1.0, floor):
        verdict = "strict"
    elif abs(value - floor) <= margin * max(1.0, floor):
        verdict = "equality"
    else:
        verdict = "below"
    genus = descriptor.genus()
    report = {
        "parent": descriptor.label(),
        "kind": kind,
        "value": float(value),
        "children": entries,
        "thresholds": {k: float(v) for k, v in thresholds.items()},
        "invariant_curve": bool(delta_or),
        "floor": float(floor),
        "verdict": verdict,
        "elementary_children": [
            e.child.label() for e in elementary_degenerations(descriptor)
        ],
        "collapsed_interior_pairs": [
            e.child.label()
            for e in elementary_degenerations(descriptor)
            if any(c.in_p_iota for c in e.collapsed)
        ],
    }
    if kind == "laplace" and genus >= 1:
        report["clifford_torus"] = CLIFFORD
        report["exceeds_clifford"] = bool(value > CLIFFORD)
    if kind == "laplace" and genus >= 2:
        # reference curve for the minimal-area family of the same genus
        report["lawson_area_bound"] = float(
            8 * np.pi * (1 - np.log(2) / (2 * genus))
        )
    return report


def _double_of(descriptor):
    from .taxonomy import double

    return double(descriptor)
