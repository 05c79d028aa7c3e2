"""The benchmark's call timers (perfbench/layers.py) replace functions by name.

A layer whose function was renamed or deleted would crash a benchmark run;
this fails a test instead.  The file is executed from its source text, so the
check writes nothing under perfbench/.
"""

from pathlib import Path

LAYERS_FILE = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _layers():
    namespace = {"__name__": "perfbench_layers"}
    exec(compile(LAYERS_FILE.read_text(), str(LAYERS_FILE), "exec"), namespace)
    return namespace["LAYERS"]


def test_every_timed_layer_names_an_existing_attribute():
    layers = _layers()
    assert layers
    missing = [
        (name, getattr(owner, "__name__", owner), attr)
        for name, targets in layers.items()
        for owner, attr in targets
        if attr not in owner.__dict__
    ]
    assert missing == []


def test_the_ascent_calls_the_timed_fem_functions_by_module_attribute(monkeypatch):
    # the timers replace fem.<name>; an ascent that reached a function bound
    # elsewhere (say, stored in the problem record at import) would go untimed
    from eigenmax import fem
    from eigenmax.builtins import round_sphere, unit_disk
    from eigenmax.optimize import maximize

    for mesh, solve, measure in (
        (round_sphere(1), "laplace_spectrum", "assemble_mass"),
        (unit_disk(1), "steklov_spectrum", "assemble_boundary_mass"),
    ):
        calls = {solve: 0, "normalized_first": 0, measure: 0}
        solving = []

        def counted(name, original):
            def call(*args, **kwargs):
                # a solve assembles the measure itself: count the ascent's own calls
                if name != measure or not any(solving):
                    calls[name] += 1
                solving.append(name == solve)
                try:
                    return original(*args, **kwargs)
                finally:
                    solving.pop()

            return call

        for name in calls:
            monkeypatch.setattr(fem, name, counted(name, getattr(fem, name)))
        maximize(mesh, max_iters=2)
        monkeypatch.undo()
        assert all(calls.values()), (mesh.n_vertices, calls)
