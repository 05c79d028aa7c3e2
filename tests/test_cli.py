import hashlib
import json

import numpy as np
import pytest

from eigenmax import cli, fem
from eigenmax.builtins import flat_cylinder, round_sphere
from eigenmax.cli import main, parse_btype, parse_descriptor, parse_group


def run(argv):
    return main(argv)


def _rewrite_mesh(bundle, obj):
    """Write obj as the bundle's mesh.json and re-hash it in the manifest."""
    mesh_file, manifest_file = bundle / "mesh.json", bundle / "manifest.json"
    mesh_file.write_text(json.dumps(obj, sort_keys=True))
    manifest = json.loads(manifest_file.read_text())
    manifest["outputs"]["mesh.json"] = hashlib.sha256(mesh_file.read_bytes()).hexdigest()
    manifest_file.write_text(json.dumps(manifest))


def test_parse_descriptor_strings():
    assert parse_descriptor("M(1)").label() == "M(1)"
    assert parse_descriptor("M(Z2,1+rho1)").label() == "M(1*,1+rho1)"
    assert parse_descriptor("N_tau(Trivial,2)").label() == "N(2)"
    assert parse_descriptor("N(3)").label() == "N(3)"
    d = parse_descriptor("M(D3,2rho1rho2)")
    assert d.genus() == 1
    assert parse_descriptor("N_rho1(Z2,1+2rho1)").boundary_count() == 2
    assert parse_group("star233").label() == "*233"
    b = parse_btype("2+3rho1+rho1rho2")
    assert b.f == 2 and b.e_dict() == {0: 3} and b.v_dict() == {(0, 1): 1}


def test_classify_descriptor(capsys):
    assert run(["classify", "M(Z2,1+rho1)"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["genus"] == 2


def test_classify_species_files(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"genus": 3, "orientable": True, "C+": 4}))
    assert run(["classify", str(good)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] and out["euler"] == -4

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"genus": 0, "orientable": True}))
    assert run(["classify", str(bad)]) == 2
    out = json.loads(capsys.readouterr().out)
    assert not out["valid"] and out["violations"]

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert run(["classify", str(broken)]) == 1


def test_degenerations_cmd(tmp_path, capsys):
    assert run(["degenerations", "M(Z2,2+3rho1)", "--depth", "1",
                "--out", str(tmp_path)]) == 0
    out = json.loads((tmp_path / "degenerations.json").read_text())
    assert out["edges"][0]["child"] == "M(1*,1+4rho1)"
    assert out["edges"][0]["case"]
    dot = (tmp_path / "degenerations.dot").read_text()
    assert "->" in dot
    capsys.readouterr()


def test_degenerations_all_cases_flagged(tmp_path):
    assert run(["degenerations", "M(Z2,1+2rho1)", "--depth", "1",
                "--mode", "all-cases", "--out", str(tmp_path)]) == 0
    out = json.loads((tmp_path / "degenerations.json").read_text())
    cases = {e["case"] for e in out["edges"]}
    assert "mirror-segment" in cases  # the direct b - rho_i collapse


def test_degenerations_sphere_is_terminal(tmp_path, capsys):
    assert run(["degenerations", "M(1)", "--depth", "5", "--out", str(tmp_path)]) == 0
    out = json.loads((tmp_path / "degenerations.json").read_text())
    assert out["complexity"] == 0 and len(out["nodes"]) == 1


def test_degenerations_depth_zero(capsys):
    assert run(["degenerations", "M(Z2,1+rho1)", "--depth", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["nodes"]) == 1 and not out["edges"]


def test_spectrum_builtin_disk(capsys):
    assert run(["spectrum", "builtin:disk", "--kind", "steklov",
                "--resolution", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["normalized_first"] == pytest.approx(2 * np.pi, rel=1e-2)


def test_spectrum_mixed_cylinder(capsys):
    assert run(["spectrum", "builtin:cylinder:L=1", "--kind", "mixed",
                "--bc", "end0=neumann,endL=steklov", "--resolution", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    sigma1 = out["eigenvalues"][out["n_zero"]]
    assert sigma1 == pytest.approx(np.tanh(1.0), rel=1e-2)


def test_spectrum_of_a_thin_builtin_torus(capsys):
    assert run(["spectrum", "builtin:torus:a=0.2", "--resolution", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["vertices"] == 2 * 8 * 3
    # lambda_1 = (2 pi)^2 along the unit period, times the area 0.2
    assert out["normalized_first"] == pytest.approx(0.2 * 4 * np.pi**2, rel=2e-2)


def test_spectrum_count_error(capsys):
    assert run(["spectrum", "builtin:disk", "--count", "0"]) == 1


def test_builtin_level_out_of_range_is_a_usage_error(capsys):
    assert run(["spectrum", "builtin:torus", "--resolution", "-1"]) == 1
    assert capsys.readouterr().err.startswith("error: builtin level -1 is not an integer")


def test_builtin_sources_are_checked_before_any_mesh_is_built(tmp_path, monkeypatch, capsys):
    def build(*args, **kwargs):
        raise AssertionError(f"built builtin {args} {kwargs}")

    monkeypatch.setattr(cli, "builtin", build)
    # optimize's default --resolution 4000 would be subdivision level 4000
    for argv in (["optimize", "builtin:sphere", "--out", str(tmp_path)],
                 ["spectrum", "builtin:sphere", "--resolution", "-1"],
                 ["spectrum", "builtin:sphere", "--resolution", "7"],
                 ["spectrum", "builtin:disk:level=2.5"],
                 ["spectrum", "builtin:disk:foo=3"],
                 ["spectrum", "builtin:sphere:L=2"],
                 ["spectrum", "builtin:cylinder:L=abc"]):
        assert run(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1, (argv, err)


def test_nonpositive_descriptor_resolutions_are_usage_errors(monkeypatch, capsys):
    def build(*args, **kwargs):
        raise AssertionError(f"built mesh {args} {kwargs}")

    monkeypatch.setattr(cli, "build_mesh", build)
    for argv in (["spectrum", "M(1)", "--resolution", "0"],
                 ["spectrum", "M(1)", "--resolution", "-5"],
                 ["optimize", "M(1)", "--resolution", "0"]):
        assert run(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: --resolution must be positive") and len(err.splitlines()) == 1


def test_max_iters_below_one_is_a_usage_error(tmp_path, monkeypatch, capsys):
    from eigenmax.optimize import OptimizeError, maximize

    def build(*args, **kwargs):
        raise AssertionError(f"built mesh {args} {kwargs}")

    monkeypatch.setattr(cli, "build_mesh", build)
    for iters in ("0", "-2"):
        assert run(["optimize", "M(1)", "--max-iters", iters, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --max-iters must be at least 1") and len(err.splitlines()) == 1
    with pytest.raises(OptimizeError, match="max_iters"):
        maximize(round_sphere(0), max_iters=0)


def test_manifest_records_the_kind_solved(tmp_path, capsys):
    # a surface with boundary is solved as Steklov under the default --kind
    for source, kind in (("N_tau(Trivial,1)", "steklov"), ("M(1)", "laplace")):
        out = tmp_path / kind
        assert run(["optimize", source, "--resolution", "500", "--max-iters", "1",
                    "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        manifest = json.loads((out / "manifest.json").read_text())
        assert report["kind"] == manifest["config"]["kind"] == kind
    capsys.readouterr()


def test_unknown_boundary_condition_labels_are_a_validation_failure(capsys):
    assert run(["spectrum", "builtin:cylinder:L=1", "--kind", "mixed",
                "--bc", "enx0=dirichlet", "--resolution", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation: ") and "'enx0'" in err and "'end0', 'endL'" in err
    with pytest.raises(fem.FemError, match="enx0"):
        fem.laplace_spectrum(flat_cylinder(1.0, 0), dirichlet_panels=["enx0"])


def test_optimize_verify_roundtrip(tmp_path, capsys):
    out = tmp_path / "run"
    assert run(["optimize", "M(1)", "--resolution", "700",
                "--out", str(out), "--seed", "1"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["objective"] == pytest.approx(8 * np.pi, rel=0.02)
    assert (out / "manifest.json").exists()
    capsys.readouterr()

    assert run(["verify", str(out)]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["ok"]
    checks = {c["check"]: c["ok"] for c in result["checks"]}
    assert checks["action-isometry:tau"] and checks["action-orbits"]

    # a stored action that keeps the density invariant but is no isometry
    # (one tau-orbit pair swapped, the rest fixed) must fail, also when the
    # manifest is re-hashed
    mesh_file = out / "mesh.json"
    manifest_file = out / "manifest.json"
    original, original_manifest = mesh_file.read_text(), manifest_file.read_text()
    obj = json.loads(original)
    tau = np.asarray(obj["actions"]["tau"])
    moved = int(np.flatnonzero(tau != np.arange(len(tau)))[0])
    swap = np.arange(len(tau))
    swap[[moved, tau[moved]]] = [tau[moved], moved]
    obj["actions"]["tau"] = swap.tolist()
    _rewrite_mesh(out, obj)
    assert run(["verify", str(out)]) == 2
    checks = {c["check"]: c["ok"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["hash:mesh.json"] and checks["density-invariant"]
    assert not checks["action-isometry:tau"]
    mesh_file.write_text(original)
    manifest_file.write_text(original_manifest)

    # tampering with the density must fail the invariance check
    obj = json.loads(mesh_file.read_text())
    obj["density"][3] = obj["density"][3] * 3.0
    # vertex 3 lies on the tau mirror; also scale the first vertex tau moves
    tau = np.asarray(obj["actions"]["tau"])
    moved = int(np.flatnonzero(tau != np.arange(len(tau)))[0])
    obj["density"][moved] = obj["density"][moved] * 3.0
    mesh_file.write_text(json.dumps(obj, sort_keys=True))
    assert run(["verify", str(out)]) == 2
    checks = {c["check"]: c["ok"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert not checks["density-invariant"]

    (out / "state.json").unlink()
    assert run(["verify", str(out)]) == 1


def test_optimize_saved_builtin_mesh(tmp_path, capsys):
    # a mesh file without a descriptor optimizes, with no gap report
    round_sphere(1).save(tmp_path / "sphere.json")
    out = tmp_path / "run"
    assert run(["optimize", str(tmp_path / "sphere.json"), "--out", str(out)]) == 0
    assert "gap" not in json.loads((out / "report.json").read_text())
    capsys.readouterr()


def test_optimize_and_verify_full_table_bundle(tmp_path, capsys):
    bundle = tmp_path / "run"
    assert run(["optimize", "M(Z2,1+rho1)", "--resolution", "400", "--max-iters", "2",
                "--out", str(bundle)]) == 0
    mesh_file = bundle / "mesh.json"
    obj = json.loads(mesh_file.read_text())
    assert sorted(obj["actions"]) == ["rho1", "tau"]

    # older bundles list every group element: add the composite back
    tau, rho1 = (np.asarray(obj["actions"][k]) for k in ("tau", "rho1"))
    obj["actions"]["tau.rho1"] = tau[rho1].tolist()
    _rewrite_mesh(bundle, obj)
    capsys.readouterr()
    assert run(["verify", str(bundle)]) == 0
    assert json.loads(capsys.readouterr().out)["ok"]

    # the bundle's mesh.json optimizes again and keeps its descriptor
    again = tmp_path / "again"
    assert run(["optimize", str(mesh_file), "--max-iters", "2", "--out", str(again)]) == 0
    assert "gap" in json.loads((again / "report.json").read_text())
    capsys.readouterr()


def test_verify_rejects_an_action_that_is_no_permutation(tmp_path, capsys):
    bundle = tmp_path / "run"
    assert run(["optimize", "M(1)", "--resolution", "700", "--max-iters", "1",
                "--out", str(bundle)]) == 0
    obj = json.loads((bundle / "mesh.json").read_text())
    tau = obj["actions"]["tau"]
    # one entry short, and an index listed twice (so another one never)
    for bad in (tau[:-1], [tau[1]] + tau[1:]):
        obj["actions"]["tau"] = bad
        _rewrite_mesh(bundle, obj)
        capsys.readouterr()
        assert run(["verify", str(bundle)]) == 2
        assert "validation: action tau is not a permutation" in capsys.readouterr().err


def test_verify_rejects_actions_that_do_not_generate_the_chamber_group(tmp_path, capsys):
    # identity permutations are isometries that keep every density invariant;
    # only their triangle orbits, of one member instead of one per chamber,
    # tell them from the generators of the chamber group
    bundle = tmp_path / "run"
    assert run(["optimize", "M(Z2,1+rho1)", "--resolution", "400", "--max-iters", "1",
                "--out", str(bundle)]) == 0
    obj = json.loads((bundle / "mesh.json").read_text())
    assert sorted(obj["actions"]) == ["rho1", "tau"] and obj["meta"]["chambers"] == 4
    for name in obj["actions"]:
        obj["actions"][name] = list(range(obj["counts"]["vertices"]))
    _rewrite_mesh(bundle, obj)
    capsys.readouterr()
    assert run(["verify", str(bundle)]) == 2
    checks = {c["check"]: c["ok"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert not checks.pop("action-orbits")
    assert all(checks.values())


def test_determinism_of_reports(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run(["optimize", "N_tau(Trivial,1)", "--kind", "steklov",
                    "--resolution", "500", "--out", str(out), "--seed", "7"]) == 0
    r1 = (out1 / "report.json").read_bytes()
    r2 = (out2 / "report.json").read_bytes()
    assert r1 == r2
    assert (out1 / "state.json").read_bytes() == (out2 / "state.json").read_bytes()


def test_invalid_group_exits_with_validation(capsys):
    # D1 is not a reflection group (InvalidK): one line on stderr, exit 2
    assert run(["spectrum", "M(D1,1)"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("validation: ")


def test_infeasible_type_exits_with_validation(capsys):
    # more corner circles than fit a *33 chamber (InvalidType)
    assert run(["spectrum", "M(D3,9rho1rho2)"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("validation: ")
