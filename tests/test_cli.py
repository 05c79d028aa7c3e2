import json

import numpy as np
import pytest

from eigenmax.cli import main, parse_btype, parse_descriptor, parse_group


def run(argv):
    return main(argv)


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


def test_spectrum_count_error(capsys):
    assert run(["spectrum", "builtin:disk", "--count", "0"]) == 1


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

    # tampering with the density must fail the invariance check
    mesh_file = out / "mesh.json"
    obj = json.loads(mesh_file.read_text())
    obj["density"][3] = obj["density"][3] * 3.0
    mesh_file.write_text(json.dumps(obj, sort_keys=True))
    assert run(["verify", str(out)]) == 2
    capsys.readouterr()

    (out / "state.json").unlink()
    assert run(["verify", str(out)]) == 1


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
