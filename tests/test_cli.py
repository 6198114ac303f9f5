import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import su21coh

from su21coh.cli import main


def test_verify_structure_ok(capsys):
    assert main(["verify-structure"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out


def test_verify_structure_injection_fails():
    assert main(["verify-structure", "--inject-error"]) == 1


def test_verify_theorem_small():
    assert main(["verify-theorem", "--k", "0..1"]) == 0


def test_verify_theorem_perturbed_fails():
    assert main(["verify-theorem", "--k", "0", "--perturb"]) == 1


def test_verify_theorem_wrong_variant_fails():
    # the rejected coefficient variant breaks the exact identities
    assert main(["verify-theorem", "--k", "0", "--thm37-variant", "plus2"]) == 1


def test_structured_format(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code = main(["verify-theorem", "--k", "0", "--format", "structured", "--out", str(out_file)])
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["pass"] is True
    assert payload["command"] == "verify-theorem"
    assert all(c["pass"] for c in payload["checks"])
    capsys.readouterr()


def test_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--samples", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify-theorem", "--k", "abc"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--tol", "-1"])
    assert exc.value.code == 2


def test_export_generators(tmp_path, capsys):
    path = tmp_path / "gen0.json"
    assert main(["export-generators", "--k", "0", "--out", str(path)]) == 0
    first = path.read_bytes()
    payload = json.loads(first)
    gens = payload["generators"]
    assert len(gens["psi"]["entries"]) == 4
    assert len(gens["psi0"]["entries"]) == 1
    assert gens["psi"]["hodge_type"] == [1, 1]
    assert gens["psi0"]["hodge_type"] == [0, 2]
    # byte-stable across runs
    assert main(["export-generators", "--k", "0", "--out", str(path)]) == 0
    assert path.read_bytes() == first
    capsys.readouterr()


def test_export_requires_out():
    with pytest.raises(SystemExit) as exc:
        main(["export-generators", "--k", "0"])
    assert exc.value.code == 2


def test_oracle_small(capsys):
    code = main(
        ["oracle", "--k", "0", "--j-max", "1", "--samples", "3", "--seed", "4",
         "--thm37-variant", "plus1"]
    )
    assert code == 0
    capsys.readouterr()


def test_oracle_rejected_variant_fails(capsys):
    code = main(
        ["oracle", "--k", "0", "--j-max", "1", "--samples", "3",
         "--thm37-variant", "plus2"]
    )
    assert code == 1
    capsys.readouterr()


def test_oracle_auto_adjudicates(capsys):
    code = main(["oracle", "--k", "0", "--j-max", "1/2", "--samples", "3", "--verbose"])
    assert code == 0
    out = capsys.readouterr().out
    assert "accepted=plus1" in out


def test_oracle_reports_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["oracle", "--k", "0", "--j-max", "1", "--samples", "3", "--seed", "9",
            "--format", "structured"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["--j-max", "-1"],  # would sweep zero indices
        ["--j-max", "1/3"],  # not a half-integer
        ["--tol", "nan"],
        ["--tol", "inf"],
    ],
)
def test_oracle_rejects_vacuous_or_malformed_input(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--k", "0", "--samples", "1"] + argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-theorem", "--k", "0"],
        ["export-generators", "--k", "0"],
    ],
)
def test_unwritable_out_path(tmp_path, argv, capsys):
    target = tmp_path / "missing-dir" / "x.json"
    assert main(argv + ["--out", str(target)]) == 2
    assert f"cannot write {target}" in capsys.readouterr().err
    assert not target.exists()


def test_cli_import_leaves_scipy_out():
    src = str(Path(su21coh.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, su21coh.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"
