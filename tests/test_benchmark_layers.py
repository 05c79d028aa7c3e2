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
