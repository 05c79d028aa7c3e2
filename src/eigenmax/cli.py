"""Command-line entry points.

Subcommands: classify, degenerations, spectrum, optimize, verify.  All
structured output is JSON (DOT for graphs, OBJ for geometry); every command
writes a manifest with input hashes next to its outputs.  Exit codes:
0 success, 1 usage or I/O error, 2 validation failure.

Identical configurations (including --seed) produce byte-identical reports;
set EIGENMAX_LOG=debug for progress logging on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__, fem
from .builtins import builtin
from .chambers import build_mesh
from .equivariant import EquivariantError, invariant_multiplicity
from .groups import GroupError, make_group
from .meshcore import MeshError, SymmetricMesh, orbits
from .optimize import OptimizeError, gap_report, maximize
from .taxonomy import (
    SurfaceDescriptor,
    TaxonomyError,
    TypeB,
    degeneration_dag,
    descriptor_from_json,
    euler_char,
    halve,
    species_from_json,
    sphere_family,
    validate_species,
)

class UsageError(Exception):
    pass


class ValidationFailure(Exception):
    pass


# ---------------------------------------------------------------------------
# Parsing helpers
# ---------------------------------------------------------------------------

def parse_group(token):
    token = token.strip()
    low = token.lower()
    if low == "trivial":
        return make_group("trivial")
    if low in ("z2", "1*", "onestar"):
        return make_group("onestar")
    m = re.fullmatch(r"[dD](\d+)", token)
    if m:
        return make_group("dihedral", (int(m.group(1)),))
    m = re.fullmatch(r"(?:\*|star)(\d)(\d)(\d)", low)
    if m:
        return make_group("platonic", tuple(int(g) for g in m.groups()))
    m = re.fullmatch(r"(?:\*|star)(\d+),(\d+),(\d+)", low)
    if m:
        return make_group("platonic", tuple(int(g) for g in m.groups()))
    raise UsageError(f"cannot parse group {token!r}")


def parse_btype(token):
    f = 0
    e = {}
    v = {}
    for term in token.replace(" ", "").split("+"):
        if not term:
            continue
        m = re.fullmatch(r"(\d*)rho(\d)rho(\d)", term)
        if m:
            c = int(m.group(1) or 1)
            i, j = int(m.group(2)) - 1, int(m.group(3)) - 1
            key = (min(i, j), max(i, j))
            v[key] = v.get(key, 0) + c
            continue
        m = re.fullmatch(r"(\d*)rho(\d)", term)
        if m:
            c = int(m.group(1) or 1)
            e[int(m.group(2)) - 1] = e.get(int(m.group(2)) - 1, 0) + c
            continue
        if term.isdigit():
            f += int(term)
            continue
        raise UsageError(f"cannot parse type term {term!r}")
    return TypeB.make(f, e, v)


def parse_descriptor(text):
    """Descriptor from a compact string like M(1), M(Z2,1+rho1), N_tau(D3,2rho1rho2)."""
    text = text.strip()
    m = re.fullmatch(r"(M|N|N_tau|N_rho1)\(([^)]*)\)", text)
    if not m:
        raise UsageError(f"cannot parse descriptor {text!r}")
    family, inner = m.group(1), m.group(2)
    parts = [p for p in inner.split(",", 1)]
    if len(parts) == 1:
        if not parts[0].strip().isdigit():
            raise UsageError(f"single-argument descriptor needs an integer: {text!r}")
        a = int(parts[0])
        base = sphere_family(a)
    else:
        group = parse_group(parts[0])
        base = SurfaceDescriptor("closed", group, parse_btype(parts[1]))
    if family == "M":
        return base
    if family in ("N", "N_tau"):
        return halve(base, "tau")
    return halve(base, "rho1")


def load_descriptor(arg):
    """Descriptor from a compact string or a JSON file path."""
    path = Path(arg)
    if path.exists():
        with open(path) as fh:
            return descriptor_from_json(json.load(fh))
    return parse_descriptor(arg)


#: subdivision levels a builtin: source accepts (level 6 is a 40962-vertex sphere)
BUILTIN_LEVELS = range(0, 7)
#: the keys each builtin: source accepts, short name -> keyword of builtin()
BUILTIN_KEYS = {
    "sphere": {},
    "torus": {"a": "aspect", "aspect": "aspect"},
    "disk": {},
    "cylinder": {"L": "length", "length": "length"},
    "annulus": {"mod": "modulus", "modulus": "modulus"},
}


def parse_builtin(arg, resolution):
    """Mesh from 'builtin:<name>[:k=v...]'; the level is :level= or else
    resolution (default 2), an integer in BUILTIN_LEVELS."""
    name, *parts = arg.split(":")[1:]
    keys = BUILTIN_KEYS.get(name, {})
    kwargs = {}
    level = str(resolution if resolution is not None else 2)
    for p in parts:
        k, _, val = p.partition("=")
        if k == "level":
            level = val
        elif k in keys:
            try:
                kwargs[keys[k]] = float(val)
            except ValueError:
                raise UsageError(f"builtin:{name}: {k}={val!r} is not a number") from None
        else:
            known = ", ".join(sorted({*keys, "level"}))
            raise UsageError(f"builtin:{name} has no key {k!r} (known: {known})")
    if not re.fullmatch(r"-?\d+", level) or int(level) not in BUILTIN_LEVELS:
        raise UsageError(
            f"builtin level {level} is not an integer from {BUILTIN_LEVELS[0]} to "
            f"{BUILTIN_LEVELS[-1]} (a builtin's subdivision level, :level= or --resolution)"
        )
    return builtin(name, level=int(level), **kwargs)


def parse_mesh_source(arg, resolution, seed):
    """Mesh from 'builtin:<name>[:k=v...]', a mesh JSON file, or a descriptor."""
    if arg.startswith("builtin:"):
        return parse_builtin(arg, resolution)
    path = Path(arg)
    if path.suffix == ".json" and path.exists():
        obj = json.loads(path.read_text())
        if obj.get("format") == "eigenmax-mesh":
            return SymmetricMesh.from_json(obj)
    if resolution is not None and resolution <= 0:
        raise UsageError(f"--resolution must be positive, not {resolution}")
    return build_mesh(load_descriptor(arg), target_vertices=resolution or 2000, seed=seed)


def parse_bc(text):
    out = {}
    if not text:
        return out
    for item in text.split(","):
        panel, _, cond = item.partition("=")
        cond = cond.strip().lower()
        if cond not in ("neumann", "dirichlet", "steklov"):
            raise UsageError(f"unknown boundary condition {cond!r}")
        out[panel.strip()] = cond
    return out


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def dump_json(obj, path=None):
    text = json.dumps(obj, sort_keys=True, indent=1)
    if path is None:
        sys.stdout.write(text + "\n")
    else:
        Path(path).write_text(text + "\n")


def _sha256(path):
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def write_manifest(outdir, config, inputs, outputs):
    manifest = {
        "version": __version__,
        "config": config,
        "inputs": {str(p): _sha256(p) for p in inputs if Path(p).exists()},
        "outputs": {str(Path(p).name): _sha256(p) for p in outputs},
    }
    dump_json(manifest, Path(outdir) / "manifest.json")


def _outdir(args):
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_classify(args):
    path = Path(args.input)
    if path.exists():
        try:
            obj = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise UsageError(f"malformed JSON: {exc}") from exc
        if "family" not in obj:
            return _classify_species(species_from_json(obj))
        desc = descriptor_from_json(obj)
    else:
        desc = parse_descriptor(args.input)
    report = {"descriptor": desc.label(), "genus": desc.genus(), "valid": True}
    if not desc.closed:
        report["boundary"] = desc.boundary_count()
    dump_json(report)
    return 0


def _classify_species(species):
    ok, violations = validate_species(species)
    report = {
        "species": species.to_json(),
        "valid": ok,
        "violations": violations,
        "euler": euler_char(species),
    }
    dump_json(report)
    if not ok:
        raise ValidationFailure("species violates the classification")
    return 0


def cmd_degenerations(args):
    desc = load_descriptor(args.input)
    mode = "elementary" if args.mode == "elementary" else "all-cases"
    dag = degeneration_dag(desc, args.depth, mode=mode)
    dump_json(dag.to_json())
    if args.out:
        out = _outdir(args)
        json_path = out / "degenerations.json"
        dot_path = out / "degenerations.dot"
        dump_json(dag.to_json(), json_path)
        dot_path.write_text(dag.to_dot() + "\n")
        write_manifest(
            out,
            {"command": "degenerations", "input": args.input, "depth": args.depth,
             "mode": args.mode},
            [args.input],
            [json_path, dot_path],
        )
    return 0


def cmd_spectrum(args):
    if args.count is not None and args.count <= 0:
        raise UsageError("--count must be positive")
    mesh = parse_mesh_source(args.input, args.resolution, args.seed)
    count = args.count or 8
    bc = parse_bc(args.bc)
    if args.kind == "mixed":
        if not bc:
            raise UsageError("--kind mixed needs a --bc map")
        spec = fem.mixed_spectrum(mesh, bc, count=count, seed=args.seed)
        kind_for_norm = "steklov" if "steklov" in bc.values() else "laplace"
    elif args.kind == "steklov":
        spec = fem.steklov_spectrum(mesh, count=count)
        kind_for_norm = "steklov"
    else:
        spec = fem.laplace_spectrum(mesh, count=count, seed=args.seed)
        kind_for_norm = "laplace"
    report = spec.to_json()
    try:
        report["normalized_first"] = fem.normalized_first(mesh, kind_for_norm, spec)
    except fem.FemError:
        report["normalized_first"] = None
    report["vertices"] = mesh.n_vertices
    dump_json(report)
    if args.out:
        out = _outdir(args)
        dump_json(report, out / "spectrum.json")
        write_manifest(
            out,
            {"command": "spectrum", "input": args.input, "kind": args.kind,
             "bc": args.bc, "count": count, "seed": args.seed,
             "resolution": args.resolution},
            [args.input],
            [out / "spectrum.json"],
        )
    return 0


def cmd_optimize(args):
    if args.max_iters < 1:
        raise UsageError(f"--max-iters must be at least 1, not {args.max_iters}")
    mesh = parse_mesh_source(args.input, args.resolution, args.seed)
    kind = "steklov" if args.kind == "steklov" else "laplace"
    if kind == "laplace" and mesh.has_boundary():
        kind = "steklov"
    state, final_mesh, spec = maximize(
        mesh,
        kind,
        max_iters=args.max_iters,
        residual_tol=args.tol,
        seed=args.seed,
    )
    out = _outdir(args)
    mesh_path = out / "mesh.json"
    final_mesh.save(mesh_path)
    state_path = out / "state.json"
    dump_json(state.to_json(), state_path)

    report = {
        "input": args.input,
        "kind": kind,
        "objective": state.objective,
        "residual": state.residual,
        "converged": state.converged,
        "cluster_dim": state.cluster_dim,
        "vertices": final_mesh.n_vertices,
    }
    tau = "tau" if "tau" in final_mesh.actions else None
    if tau:
        try:
            info = invariant_multiplicity(spec, final_mesh, tau)
            report["parity_split"] = info
        except EquivariantError as exc:  # parity may be unresolved at coarse tol
            report["parity_split"] = {"error": str(exc)}
    from .eigenmaps import area_bound_check, first_eigenmap, nodal_domain_count

    emap = first_eigenmap(final_mesh, spec, tau=None)
    context = "closed" if not final_mesh.has_boundary() else "bounded"
    report["area_bound"] = area_bound_check(emap.components, final_mesh, context)
    report["nodal_domains_first"] = nodal_domain_count(
        emap.components[:, 0], final_mesh
    )
    if "descriptor" in final_mesh.meta:
        desc = descriptor_from_json(final_mesh.meta["descriptor"])
        report["gap"] = gap_report(desc, state.objective, kind=kind)
    report_path = out / "report.json"
    dump_json(report, report_path)
    dump_json(report)
    write_manifest(
        out,
        {"command": "optimize", "input": args.input, "kind": kind,
         "resolution": args.resolution, "tol": args.tol,
         "max_iters": args.max_iters, "seed": args.seed},
        [args.input],
        [mesh_path, state_path, report_path],
    )
    return 0


def _triangle_orbits(mesh, chambers):
    """Whether every triangle's orbit under the stored generators has one
    member per chamber, as the free action of the chamber group gives."""
    images = [mesh.triangle_images(mesh.actions[k]) for k in sorted(mesh.actions)]
    if any(np.any(image < 0) for image in images):
        return False, "an action maps a triangle to no triangle"
    sizes = np.unique(np.bincount(orbits(mesh.n_triangles, images))).tolist()
    return sizes == [chambers], f"triangle orbit sizes {sizes}, {chambers} chambers"


def cmd_verify(args):
    bundle = Path(args.bundle)
    manifest_path = bundle / "manifest.json"
    if not manifest_path.exists():
        raise UsageError(f"no manifest in {bundle}")
    manifest = json.loads(manifest_path.read_text())
    checks = []

    def check(name, ok, detail=""):
        checks.append({"check": name, "ok": bool(ok), "detail": detail})

    missing = [
        name for name in manifest.get("outputs", {}) if not (bundle / name).exists()
    ]
    if missing:
        raise UsageError(f"bundle is missing files: {missing}")
    for name, digest in manifest.get("outputs", {}).items():
        check(f"hash:{name}", _sha256(bundle / name) == digest)
    if (bundle / "mesh.json").exists() and (bundle / "state.json").exists():
        mesh = SymmetricMesh.load(bundle / "mesh.json")
        state = json.loads((bundle / "state.json").read_text())
        check("density-positive", bool(np.all(mesh.density > 0)))
        check("density-invariant", mesh.non_invariant_action(mesh.density) is None)
        for name in mesh.actions:
            check(f"action-isometry:{name}", mesh.check_action(name))
        if "chambers" in mesh.meta:
            check("action-orbits", *_triangle_orbits(mesh, mesh.meta["chambers"]))
        kind = "steklov" if mesh.has_boundary() else "laplace"
        value = fem.normalized_first(mesh, kind)
        check(
            "objective-reproducible",
            abs(value - state["objective"]) < 1e-6 * max(1.0, abs(state["objective"])),
            f"recomputed {value:.9f} vs stored {state['objective']:.9f}",
        )
        guard = mesh.meta.get("brs")
        if guard:
            check("a-priori-bound", value < guard["bound"], f"{value:.6f} < {guard['bound']:.6f}")
    ok_all = all(c["ok"] for c in checks)
    dump_json({"bundle": str(bundle), "checks": checks, "ok": ok_all})
    if not ok_all:
        raise ValidationFailure("bundle verification failed")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="eigenmax",
        description="Symmetric eigenvalue maximization on triangulated surfaces",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="validate a species or descriptor")
    p.add_argument("input", help="species/descriptor JSON file or descriptor string")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("degenerations", help="expand the degeneration graph")
    p.add_argument("input")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--mode", choices=["elementary", "all-cases"], default="elementary")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_degenerations)

    p = sub.add_parser("spectrum", help="compute eigenvalues of a mesh or descriptor")
    p.add_argument("input", help="builtin:<name>, mesh JSON, or descriptor")
    p.add_argument("--kind", choices=["laplace", "steklov", "mixed"], default="laplace")
    p.add_argument("--bc", default="", help="panel=condition,... for --kind mixed")
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--resolution", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("optimize", help="maximize the normalized first eigenvalue")
    p.add_argument("input", help="descriptor string/JSON or builtin:<name>")
    p.add_argument("--kind", choices=["laplace", "steklov"], default="laplace")
    p.add_argument("--resolution", type=int, default=4000)
    p.add_argument("--tol", type=float, default=0.005)
    p.add_argument("--max-iters", type=int, default=100, dest="max_iters")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="eigenmax-out")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("verify", help="re-check an optimize output bundle")
    p.add_argument("bundle")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    level = os.environ.get("EIGENMAX_LOG", "warning").upper()
    logging.basicConfig(stream=sys.stderr, level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValidationFailure as exc:
        print(f"validation: {exc}", file=sys.stderr)
        return 2
    except (TaxonomyError, fem.FemError, MeshError, GroupError, OptimizeError) as exc:
        print(f"validation: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
