"""Maximization of the normalized first eigenvalue over invariant densities.

Ascent loop: solve the spectrum, take the lowest cluster, choose nonnegative
cluster weights flattening the pointwise sum of squares, multiply the weight
by that flattened profile (group-averaged), and safeguard with a backtracking
line search on the objective.  At a maximizer the flattened profile is
constant, so the density is a fixed point and the extremality residual
measures the distance from criticality.

The problem comes from the mesh as a fem.Problem record: area*lambda_1 with
the mass M and the weight rho on a closed surface, length*sigma_1 with the
boundary mass B and the boundary weight sqrt(rho) on a surface with boundary
(the interior density is irrelevant there by conformal invariance of the
Dirichlet energy).  The ascent itself is one code path for both.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from . import fem
from .equivariant import average_invariant

DENSITY_FLOOR = 1e-6
LINE_SEARCH_DROP = 1e-10
# a trial solve stops at a Rayleigh-Ritz bound only when the bound is this
# far (relative to the objective scale) below the acceptance threshold
BOUND_MARGIN = 1e-10

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
    """First-order change of lambda_1 and of size*lambda_1 for a mass perturbation.

    The size and the measure are those of the kind's problem record
    (fem.PROBLEMS), and delta_rho perturbs its weight: rho, or the boundary
    weight sqrt(rho) for Steklov.  u must be a single mass-normalized
    eigenfunction (pass the cluster member explicitly when the eigenvalue is
    degenerate).
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1:
        raise ClusterAmbiguous("pass a single cluster member for degenerate eigenvalues")
    delta_rho = np.asarray(delta_rho, dtype=float)
    problem = fem.PROBLEMS[kind]
    measure = problem.measure(mesh) / problem.weight(mesh.density)
    size = problem.size(mesh)
    lam = eigenvalue
    if lam is None:
        K = fem.assemble_stiffness(mesh)
        lam = float(u @ (K @ u))
    dlam = -lam * float(np.sum(u**2 * measure * delta_rho))
    dsize = float(np.sum(measure * delta_rho))
    return dlam, size * dlam + lam * dsize


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


def _update_cluster(spectrum, window):
    """Eigenvalues within a relative window of the first nonzero one."""
    vals = spectrum.eigenvalues
    i = spectrum.n_zero
    lam1 = vals[i]
    j = i + 1
    while j < len(vals) and vals[j] <= lam1 * (1 + window) and j - i < 6:
        j += 1
    return i, j


def _extremality(U, w, measure, sel):
    """sup-norm deviation of the flattened profile from its mean, over the
    vertices sel of the (boundary) mass measure."""
    F = (U**2) @ w
    mu = measure[sel] / measure[sel].sum()
    c = float(mu @ F[sel])
    if c <= 0:
        return np.inf
    return float(np.max(np.abs(F[sel] - c)) / c)


def guard_bound(mesh):
    meta = mesh.meta.get("brs")
    if not meta:
        return None
    return float(meta["bound"])


def maximize(
    mesh,
    max_iters=100,
    residual_tol=0.005,
    cluster_tol=fem.DEFAULT_CLUSTER_TOL,
    seed=0,
    count=8,
):
    """Ascend the normalized first eigenvalue over invariant conformal densities.

    The mesh picks the problem record (fem.problem_of), whose measure weighs
    the flattened profile and whose weight the moves update.  Each
    line-search trial passes the iterate's lowest eigenvectors as a start
    block and the trial's acceptance threshold as a floor
    (fem.laplace_spectrum(start=, below=)): a Laplace trial whose
    Rayleigh-Ritz bound is already below it is rejected without an
    eigensolve, and its spectrum holds upper bounds, not eigenvalues.  Any
    other trial gets the same solve an iterate gets, and an accepted trial's
    spectrum is the next iterate's, so only the first iterate is solved
    outside a trial.  A run that makes max_iters moves evaluates the iterate
    the last one reached from its carried spectrum and returns it, flagged
    "max-iters" unless it meets residual_tol.
    """
    if max_iters < 1:
        raise OptimizeError(f"max_iters must be at least 1, not {max_iters}")
    problem = fem.problem_of(mesh)
    rho = average_invariant(mesh.density, mesh)
    mesh = mesh.with_density(rho)
    bound = guard_bound(mesh)
    history = []
    window = 0.3
    flag = ""
    converged = False
    spec = problem.solve(mesh, count, seed)
    # the last pass evaluates the iterate the max_iters-th move reached
    for it in range(1, max_iters + 2):
        value = fem.normalized_first(mesh, problem.kind, spec)
        if bound is not None and value >= bound:
            raise GuardViolation(
                f"{problem.kind} objective {value:.6f} exceeds the a-priori bound {bound:.6f}; "
                "the symmetry data of this mesh is inconsistent"
            )
        i, j = _update_cluster(spec, window)
        U = spec.vectors[:, i:j]
        measure = problem.measure(mesh)
        sel = measure > 0
        w = flatten_weights((U[sel] ** 2), measure[sel])
        residual = _extremality(U, w, measure, sel)
        history.append((it, value, residual))
        if residual < residual_tol or it > max_iters:
            converged = residual < residual_tol
            flag = "" if converged else "max-iters"
            log.debug(
                "iteration %d: objective %.12g, residual %.3g, cluster [%d, %d), %s",
                it, value, residual, i, j, "converged" if converged else flag,
            )
            break
        # candidate updates of the weight, each guarded by the same line search:
        #  1. multiply it by the flattened squares profile on the measure's support;
        #  2. same with eigenvalue-equalizing weights (split clusters);
        #  3. replace it by the cluster's reference energy density profile
        #     (the only move that removes mesh-frequency density noise).
        candidates = [("mult", w)]
        w_asc = ascent_weights(spec.eigenvalues[i:j], U[sel], measure[sel], j - i)
        if not np.allclose(w_asc, w, atol=1e-6):
            candidates.append(("mult", w_asc))
        candidates.append(("replace", w))
        # the block the Rayleigh-Ritz bound of a Laplace trial reads
        start = spec.vectors[:, : max(4, j - i + 2) + 1]
        weight = problem.weight(rho)
        accepted = None
        move = "stalled"
        trials = bounded = 0
        for mode, w_try in candidates:
            F_try = (U**2) @ w_try
            c_try = float(
                (measure[sel] / measure[sel].sum()) @ F_try[sel]
            )
            if c_try <= 0:
                continue
            if mode == "mult":
                target = weight * np.where(sel, F_try / c_try, 1.0)
            else:
                target = problem.replace_profile(mesh, U * np.sqrt(w_try))
            target = problem.normalize(mesh, average_invariant(target, mesh))
            target = problem.density(np.maximum(target, DENSITY_FLOOR * float(np.mean(target))))
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
                # accept real progress; tolerate a sub-roundoff drop only for
                # the full step (guards against cluster reordering)
                least = -LINE_SEARCH_DROP * scale if t == 1.0 else 1e-11 * scale
                below = (value + least - BOUND_MARGIN * scale) / problem.size(trial)
                tspec = problem.solve(trial, count, seed, start=start, below=below)
                trials += 1
                bounded += tspec.bounded
                tvalue = fem.normalized_first(trial, problem.kind, tspec)
                gain = tvalue - value
                if gain > least or (t == 1.0 and gain >= least):
                    accepted = (trial, rho_t, tspec)
                    move = f"accepted {mode} at t={t:g}"
                    break
                t /= 2
            if accepted is not None:
                break
        log.debug(
            "iteration %d: objective %.12g, residual %.3g, cluster [%d, %d), %s, "
            "%d trial solves, %d stopped at the Rayleigh-Ritz bound",
            it, value, residual, i, j, move, trials, bounded,
        )
        if accepted is None:
            flag = "stalled-below-tolerance"
            break
        mesh, rho, spec = accepted
        window = min(0.3, max(cluster_tol, residual))
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
        iterations=min(it, max_iters),
        converged=converged,
        flag=flag,
        history=history,
        weights=list(w),
    )
    return state, mesh, spec


def moduli_sweep(params, factory, **options):
    """maximize over a one-parameter family; returns per-parameter states and argmax.

    factory maps a parameter value to a mesh.
    """
    results = []
    for p in params:
        mesh = factory(p)
        state, final_mesh, spec = maximize(mesh, **options)
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


def gap_report(descriptor, value, children=(), margin=1e-3):
    """Compare an optimized value against degeneration children and thresholds.

    children: list of (descriptor or label, value).  Verdicts are recomputed
    from the stored numbers; the report also carries the reference constants
    relevant to the family: Laplace ones for a closed descriptor, Steklov
    ones for a bounded descriptor.
    """
    from .taxonomy import double, elementary_degenerations

    closed = descriptor.closed
    delta_or = invariant_curve_flag(descriptor if closed else double(descriptor))
    if closed:
        kind, thresholds = "laplace", {"sphere": SPHERE_MAX if delta_or else 0.0}
    else:
        kind, thresholds = "steklov", {"disk": DISK_MAX if delta_or else 0.0}
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
    if closed and genus >= 1:
        report["clifford_torus"] = CLIFFORD
        report["exceeds_clifford"] = bool(value > CLIFFORD)
    if closed and genus >= 2:
        # reference curve for the minimal-area family of the same genus
        report["lawson_area_bound"] = float(
            8 * np.pi * (1 - np.log(2) / (2 * genus))
        )
    return report
