"""Discrete Ginzburg-Landau functionals for sphere-valued relaxations.

Closed surfaces carry E_eps(u) = int 1/2|du|^2 + (1-|u|^2)^2/(4 eps^2); with
boundary the penalty moves to the boundary term F_eps(u) = int 1/2|du|^2 +
int_bd (1-|u|^2)^2/(4 eps).  Critical points are found by a semi-implicit
descent with equivariant re-averaging; the sweepout machinery provides the
conformal-dilation families and balanced members used by the sharp lower
bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from . import fem
from .meshcore import weighted_area


class GLError(RuntimeError):
    pass


class Stalled(GLError):
    pass


class NoBalancedMember(GLError):
    pass


@dataclass
class GLState:
    """Map into R^d stored per vertex, with the penalty scale and target kind."""

    u: np.ndarray  # (n, d)
    eps: float
    kind: str = "closed"  # or "free_boundary"

    def dim(self):
        return self.u.shape[1]


def _penalty_measure(mesh, kind):
    if kind == "closed":
        return fem.assemble_mass(mesh)
    return fem.assemble_boundary_mass(mesh)


def gl_energy(state, mesh):
    """E_eps (closed) or F_eps (free boundary) by stiffness/lumped quadrature."""
    K = fem.assemble_stiffness(mesh)
    u = state.u
    dirichlet = 0.5 * float(np.sum(u * (K @ u)))
    w = _penalty_measure(mesh, state.kind)
    pen = 1.0 - np.sum(u**2, axis=1)
    power = 2 if state.kind == "closed" else 1
    return dirichlet + float(np.sum(w * pen**2)) / (4 * state.eps**power)


def gl_gradient(state, mesh):
    """L2 gradient of the energy (per-vertex vectors)."""
    K = fem.assemble_stiffness(mesh)
    u = state.u
    w = _penalty_measure(mesh, state.kind)
    pen = 1.0 - np.sum(u**2, axis=1)
    power = 2 if state.kind == "closed" else 1
    return K @ u - (w * pen)[:, None] * u / state.eps**power


def residual(state, mesh):
    """Mass-weighted norm of the gradient (stationarity measure)."""
    g = gl_gradient(state, mesh)
    M = fem.assemble_mass(mesh)
    return float(np.sqrt(np.sum(g**2 / M[:, None])))


def transform_group(mesh, rep=None, d=3):
    """Closure of the listed actions as (vertex perm, target matrix) pairs.

    rep maps action names to orthogonal target matrices (identity if
    missing).  The returned list contains the identity and is closed under
    composition, so averaging over it is a projection onto equivariant maps.
    """
    n = mesh.n_vertices
    elements = [(np.arange(n), np.eye(d))]
    keys = {(tuple(elements[0][0]), tuple(np.round(elements[0][1], 9).ravel()))}
    gens = []
    for name, perm in mesh.actions.items():
        mat = np.eye(d) if rep is None or name not in rep else np.asarray(rep[name], dtype=float)
        gens.append((np.asarray(perm, dtype=int), mat))
    frontier = list(range(len(elements)))
    while frontier:
        new = []
        for idx in frontier:
            q1, b1 = elements[idx]
            for q2, b2 in gens:
                q = q1[q2]
                b = b1 @ b2
                key = (tuple(q), tuple(np.round(b, 9).ravel()))
                if key not in keys:
                    keys.add(key)
                    elements.append((q, b))
                    new.append(len(elements) - 1)
                    if len(elements) > 2048:
                        raise GLError("action table does not generate a small group")
        frontier = new
    return elements


def equivariant_average(u, mesh, rep=None, transforms=None):
    """Project a map onto the equivariant subspace by group averaging."""
    u = np.asarray(u, dtype=float)
    if not mesh.actions:
        return u.copy()
    if transforms is None:
        transforms = transform_group(mesh, rep, u.shape[1])
    total = np.zeros_like(u)
    for q, b in transforms:
        total += u[q] @ b
    return total / len(transforms)


def equivariance_defect(u, mesh, rep=None):
    worst = 0.0
    d = u.shape[1]
    for name, perm in mesh.actions.items():
        mat = np.eye(d) if rep is None or name not in rep else np.asarray(rep[name])
        worst = max(worst, float(np.max(np.abs(u[perm] - u @ mat.T))))
    return worst


def gl_descent(
    state,
    mesh,
    rep=None,
    tol=1e-8,
    max_steps=4000,
    dt=None,
    check_every=50,
):
    """Semi-implicit gradient flow to a critical point; preserves equivariance.

    Each step solves (M + dt K) u+ = M (u + dt eps^-p (1-|u|^2) u) and then
    re-averages over the group, so the equivariance defect stays at roundoff.
    """
    u = np.asarray(state.u, dtype=float)
    transforms = transform_group(mesh, rep, u.shape[1]) if mesh.actions else None
    u = equivariant_average(u, mesh, rep, transforms)
    K = fem.assemble_stiffness(mesh).tocsc()
    M = fem.assemble_mass(mesh)
    w = _penalty_measure(mesh, state.kind)
    power = 2 if state.kind == "closed" else 1
    if dt is None:
        # the penalty is treated explicitly: its local rate is w/(M eps^p),
        # which is O(1/h) on the boundary for the free-boundary functional
        live = w > 0
        rate = float(np.max(w[live] / M[live])) / state.eps**power
        dt = 0.4 / rate
    solver = fem.spd_factor(sp.diags(M) + dt * K)
    res0 = residual(replace(state, u=u), mesh)
    res = res_prev = res0
    halvings = 0
    for step in range(1, max_steps + 1):
        pen = 1.0 - np.sum(u**2, axis=1)
        rhs = M[:, None] * (u + dt * (w / M * pen)[:, None] * u / state.eps**power)
        u = solver.solve(rhs)
        u = equivariant_average(u, mesh, rep, transforms)
        if step % check_every == 0 or step == max_steps:
            res = residual(replace(state, u=u), mesh)
            defect = equivariance_defect(u, mesh, rep)
            if defect > 1e-12 * max(1.0, float(np.max(np.abs(u)))):
                raise GLError("equivariance drifted during descent")
            if res < tol:
                return replace(state, u=u), res, step
            if res > res_prev and halvings < 8:
                # residual increase signals an explicit-term oscillation:
                # halve the step and refactor
                dt /= 2
                halvings += 1
                solver = fem.spd_factor(sp.diags(M) + dt * K)
            res_prev = res
    if res > min(1e-4, 10 * tol) and res > 1e-3 * res0:
        raise Stalled(f"descent stalled at residual {res}")
    return replace(state, u=u), res, max_steps


def gl_continuation(state, mesh, rep=None, eps_start=1.0, tol=1e-8, max_stages=12):
    """Halving continuation in eps with warm starts.

    Runs the descent at eps = eps_start, eps_start/2, ... reusing the previous
    critical point, and stops once the induced conformal density
    (1-|u|^2)/eps^2 stabilizes in relative L1.
    """
    eps = eps_start
    current = replace(state, eps=eps)
    prev_density = None
    history = []
    measure = fem.assemble_mass(mesh)
    for _ in range(max_stages):
        current, res, steps = gl_descent(current, mesh, rep=rep, tol=tol)
        collapsed = float(np.max(np.abs(current.u))) < 1e-6
        rho = np.maximum(induced_density(current), 0.0)
        history.append({"eps": eps, "residual": res, "steps": steps,
                        "energy": gl_energy(current, mesh),
                        "collapsed": collapsed})
        if not collapsed and prev_density is not None:
            denom = float(np.sum(measure * np.abs(prev_density)))
            change = float(np.sum(measure * np.abs(rho - prev_density)))
            if denom > 0 and change / denom < 1e-3:
                break
        prev_density = None if collapsed else rho
        eps /= 2
        if collapsed:
            # at this eps only the trivial critical point was reachable;
            # re-seed the next stage from the original map
            current = replace(state, eps=eps)
        else:
            current = replace(current, eps=eps)
    return current, history


def induced_density(state):
    """Conformal density (1-|u|^2)/eps^2 of the metric carried by a critical map."""
    return (1.0 - np.sum(state.u**2, axis=1)) / state.eps**2


def energy_area_slack(state, mesh):
    """1/2 * area(induced density) - E_eps(u); nonnegative at critical points."""
    rho = np.maximum(induced_density(state), 0.0)
    return 0.5 * weighted_area(mesh, rho) - gl_energy(state, mesh)


def sweepout(u0, a):
    """Conformal dilation G_a applied to a sphere-valued map; u_a = a at |a| = 1."""
    u0 = np.asarray(u0, dtype=float)
    a = np.asarray(a, dtype=float)
    norm_a = float(np.linalg.norm(a))
    if norm_a >= 1.0 - 1e-14:
        return np.tile(a / max(norm_a, 1e-300), (len(u0), 1))
    shifted = u0 + a[None, :]
    denom = np.sum(shifted**2, axis=1)
    return (1.0 - norm_a**2) / denom[:, None] * shifted + a[None, :]


def balanced_parameter(u0, mesh, kind="closed", tol_factor=1e-4, grid=5):
    """Parameter a in the unit ball with vanishing average of u_a.

    Coarse grid scan followed by a deterministic simplex refinement on the
    norm of the average; raises NoBalancedMember if the refinement fails.
    """
    from scipy.optimize import minimize

    weights = _penalty_measure(mesh, kind)
    total = weights.sum()
    d = u0.shape[1]

    def avg(a):
        ua = sweepout(u0, a)
        return weights @ ua / total

    best = None
    ticks = np.linspace(-0.7, 0.7, grid)
    for idx in np.ndindex(*(grid,) * d):
        a = np.array([ticks[k] for k in idx])
        if np.linalg.norm(a) > 0.95:
            continue
        v = float(np.linalg.norm(avg(a)))
        if best is None or v < best[1]:
            best = (a, v)
    res = minimize(
        lambda a: float(np.linalg.norm(avg(a))),
        best[0],
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000},
    )
    a = res.x
    if float(np.linalg.norm(avg(a))) > tol_factor * total / max(
        1.0, float(np.max(np.abs(u0)))
    ):
        raise NoBalancedMember("grid too coarse to balance the sweepout family")
    return a


def hersch_bound_check(state, mesh, lam_bar=None):
    """Discrete sharp lower bound for balanced maps.

    Closed: (2+eps) E_eps(u) >= (1-eps) area*lambda_1; Steklov analogue
    2 F_eps(u) >= (1-C eps) length*sigma_1 with the fitted constant reported.
    Requires the map to be balanced (zero average against the penalty
    measure); balances it by conformal dilation if it is not.
    """
    u = np.asarray(state.u, dtype=float)
    weights = _penalty_measure(mesh, state.kind)
    avg = weights @ u / weights.sum()
    if np.linalg.norm(avg) > 1e-8 * float(np.max(np.abs(u)) + 1.0):
        a = balanced_parameter(u, mesh, state.kind)
        u = sweepout(u, a)
        state = replace(state, u=u)
        avg = weights @ u / weights.sum()
    energy = gl_energy(state, mesh)
    if state.kind == "closed":
        kind = "laplace"
        if lam_bar is None:
            lam_bar = fem.normalized_first(mesh, kind)
        lhs = (2 + state.eps) * energy
        rhs = (1 - state.eps) * lam_bar
        fitted = None
    else:
        kind = "steklov"
        if lam_bar is None:
            lam_bar = fem.normalized_first(mesh, kind)
        lhs = 2 * energy
        rhs = lam_bar  # the eps-correction is folded into the fitted constant
        fitted = max(0.0, (1.0 - lhs / lam_bar) / state.eps)
    return {
        "kind": kind,
        "energy": float(energy),
        "normalized_first": float(lam_bar),
        "lhs": float(lhs),
        "rhs": float(rhs),
        "slack": float(lhs - rhs) if state.kind == "closed" else None,
        "fitted_C": fitted,
        "balanced_norm": float(np.linalg.norm(avg)),
        "holds": bool(lhs >= rhs - 1e-8 * max(1.0, abs(rhs)))
        if state.kind == "closed"
        else bool(fitted is not None),
    }
