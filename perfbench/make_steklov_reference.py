"""Write steklov_reference.json: the steklov_sweep values for seeds 0..99.

    python3 perfbench/make_steklov_reference.py

The table records what the program computed when the benchmark was defined,
so that later versions are checked against those values (relative 1e-9).
Regenerate it only when the expected values are meant to change.
"""

import json

import run


def main():
    mesh = run.build_steklov_mesh()
    values = {
        str(seed): [run.steklov_value(mesh, rho) for rho in run.invariant_densities(mesh, seed)]
        for seed in range(run.STEKLOV_REFERENCE_SEEDS)
    }
    table = {
        "descriptor": run.STEKLOV,
        "resolution": run.STEKLOV_RESOLUTION,
        "vertices": mesh.n_vertices,
        "values": values,
    }
    run.STEKLOV_REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
