"""Call timers wrapped around the public functions of each eigenmax module.

Every timer replaces the attribute a caller resolves at call time.  Names that
a module binds with ``from .x import y`` are wrapped in the importing module
too, because wrapping only the defining module would miss those calls.  No
code inside ``src/eigenmax`` is changed.

A timer keeps, per layer name: the number of calls, the inclusive time, the
time spent in timed callees (so self time = inclusive - callees) and the
duration of every call.
"""

from __future__ import annotations

import functools
import time

import eigenmax.chambers
import eigenmax.cli
import eigenmax.distmesh
import eigenmax.eigenmaps
import eigenmax.equivariant
import eigenmax.fem
import eigenmax.meshcore
import eigenmax.optimize

_mesh_cls = eigenmax.meshcore.SymmetricMesh

# layer name -> every (owner, attribute) through which callers reach it
LAYERS = {
    "cli.main": [(eigenmax.cli, "main")],
    "chambers.build_mesh": [(eigenmax.cli, "build_mesh"), (eigenmax.chambers, "build_mesh")],
    "chambers.AssemblyGroup": [(eigenmax.chambers, "AssemblyGroup")],
    "chambers.chamber_mesh": [(eigenmax.chambers, "chamber_mesh")],
    "chambers.reflect_assemble": [(eigenmax.chambers, "reflect_assemble")],
    "distmesh.distmesh2d": [(eigenmax.distmesh, "distmesh2d")],
    "meshcore.with_density": [(_mesh_cls, "with_density")],
    "meshcore.all_triangle_lengths": [(_mesh_cls, "all_triangle_lengths")],
    "fem.assemble_stiffness": [(eigenmax.fem, "assemble_stiffness")],
    "fem.assemble_mass": [(eigenmax.fem, "assemble_mass")],
    "fem.assemble_boundary_mass": [(eigenmax.fem, "assemble_boundary_mass")],
    "fem.laplace_spectrum": [(eigenmax.fem, "laplace_spectrum")],
    "fem.solve_generalized": [(eigenmax.fem, "solve_generalized")],
    "fem.steklov_spectrum": [(eigenmax.fem, "steklov_spectrum")],
    "fem.normalized_first": [(eigenmax.fem, "normalized_first")],
    "equivariant.average_invariant": [
        (eigenmax.optimize, "average_invariant"),
        (eigenmax.equivariant, "average_invariant"),
    ],
    "optimize.maximize": [(eigenmax.cli, "maximize"), (eigenmax.optimize, "maximize")],
    "optimize.flatten_weights": [(eigenmax.optimize, "flatten_weights")],
    "optimize.ascent_weights": [(eigenmax.optimize, "ascent_weights")],
    "optimize.gap_report": [(eigenmax.cli, "gap_report"), (eigenmax.optimize, "gap_report")],
    "eigenmaps.first_eigenmap": [(eigenmax.eigenmaps, "first_eigenmap")],
    "eigenmaps.area_bound_check": [(eigenmax.eigenmaps, "area_bound_check")],
    "eigenmaps.nodal_domain_count": [(eigenmax.eigenmaps, "nodal_domain_count")],
}

# the timers an untraced run needs for its end-to-end metrics
END_TO_END_LAYERS = ("chambers.build_mesh", "optimize.maximize", "fem.laplace_spectrum")


class LayerStats:
    def __init__(self):
        self.calls = 0
        self.inclusive = 0.0
        self.callees = 0.0
        self.durations = []
        self.observed = []

    @property
    def self_time(self):
        return self.inclusive - self.callees


class Timers:
    """Installs call timers on the named layers; remove() restores the originals.

    observers maps a layer name to a function of a call's result whose value
    is appended to that layer's ``observed`` list.
    """

    def __init__(self, names, observers=None):
        observers = observers or {}
        self.stats = {name: LayerStats() for name in names}
        self._open = []  # callee time accumulated by each open call
        self._installed = []
        for name in names:
            for owner, attr in LAYERS[name]:
                original = owner.__dict__[attr]
                setattr(owner, attr, self._timed(original, self.stats[name], observers.get(name)))
                self._installed.append((owner, attr, original))

    def _timed(self, fn, stats, observe):
        open_calls = self._open

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            open_calls.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                callees = open_calls.pop()
                if open_calls:
                    open_calls[-1] += elapsed
                stats.calls += 1
                stats.inclusive += elapsed
                stats.callees += callees
                stats.durations.append(elapsed)
            if observe is not None:
                stats.observed.append(observe(result))
            return result

        return timed

    def remove(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.remove()
