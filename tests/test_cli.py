import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import su21coh

from su21coh import oracle
from su21coh.cli import build_parser, main
from su21coh.report import CheckResult


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


def test_usage_errors(capsys):
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
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["verify-theorem", "--k", "5..2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "empty k range '5..2': lo > hi" in err and ">= 0" not in err
    for spec in ("-1..2", "2..-1", "-1"):
        with pytest.raises(SystemExit) as exc:
            main(["verify-theorem", f"--k={spec}"])
        assert exc.value.code == 2
        assert f"k values must be >= 0, got '{spec}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-theorem", "--k", "1_0"],  # int() reads this as 10
        ["verify-theorem", "--k", "\u0663"],  # ARABIC-INDIC DIGIT THREE
        ["verify-theorem", "--k", "0..1_0"],
        ["verify-theorem", "--k", " 3"],
        ["verify-theorem", "--k", "+3"],
        ["oracle", "--seed", "1_000"],
        ["oracle", "--samples", "\uff13"],  # FULLWIDTH DIGIT THREE
        ["export-generators", "--k", "1_0", "--out", "x.json"],
        ["oracle", "--k", "0", "--samples", "1", "--j-max", "\u0663"],
        ["oracle", "--k", "0", "--samples", "1", "--j-max", "1_0"],  # Fraction() reads 10
        ["oracle", "--k", "0", "--samples", "1", "--j-max", " 1/2"],
        ["oracle", "--k", "0", "--samples", "1", "--j-max", "+1/2"],
        ["oracle", "--k", "0", "--samples", "1", "--j-max", "1e0"],
        ["oracle", "--k", "0", "--samples", "1", "--tol", "1_0e-6"],  # float() reads 1e-05
        ["oracle", "--k", "0", "--samples", "1", "--tol", "\u0661e-6"],
        ["oracle", "--k", "0", "--samples", "1", "--tol", " 1e-6"],
    ],
    ids=["underscore", "arabic_indic", "range", "blank", "plus", "seed", "samples", "export",
         "jmax_arabic_indic", "jmax_underscore", "jmax_blank", "jmax_plus", "jmax_exponent",
         "tol_underscore", "tol_arabic_indic", "tol_blank"],
)
def test_integers_are_ascii_digits(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error: argument" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "j_max, tol, want",
    [("5/2", "1e-6", (Fraction(5, 2), 1e-6)), ("3", "0.5", (3, 0.5)),
     ("1.5", "2E+3", (Fraction(3, 2), 2000.0)), ("0", ".25", (0, 0.25))],
)
def test_numeric_options_take_ascii_forms(j_max, tol, want):
    args = build_parser().parse_args(["oracle", "--j-max", j_max, "--tol", tol])
    assert (args.j_max, args.tol) == want


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


def test_export_rejects_a_k_range(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    try:
        code = main(["export-generators", "--k", "0..2", "--out", "x.json"])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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


def test_failed_adjudication_reports_every_param(monkeypatch, capsys):
    def rejecting(ks, samples, tol, seed):
        return None, CheckResult("variant adjudication", False, "accepted=None")

    monkeypatch.setattr(oracle, "adjudicate_variant", rejecting)
    code = main(["oracle", "--k", "0..1", "--j-max", "1", "--samples", "3", "--seed", "5",
                 "--tol", "1e-7", "--format", "structured"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["params"] == {"k": [0, 1], "j_max": "1", "samples": 3, "seed": 5,
                                "tol": 1e-7, "variant": None}
    assert [c["check"] for c in report["checks"]] == ["variant adjudication"]


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
        ["--seed", "-1"],
        ["--samples", "-2"],
        ["--samples", "x"],
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
@pytest.mark.parametrize("target", ["missing-dir/x.json", ""], ids=["missing_dir", "empty"])
def test_unwritable_out_path(tmp_path, monkeypatch, argv, target, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", target]) == 2
    captured = capsys.readouterr()
    assert f"cannot write {target}: " in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_cli_import_leaves_scipy_out():
    src = str(Path(su21coh.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, su21coh.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


# Golden values: the export bytes and the ordered check names are part of the
# interface, so refactors must leave them byte-identical.
EXPORT_K10_SHA256 = "6f5e6234ca4aee9838d6258fae18e2c6fb18163a53e49f6488bea9a7168043cb"
CHECK_NAMES_SHA256 = {
    "verify-structure": (71, "4eb16e3964522d652b9de50bd8c07f9e7cbf3824553583fe4e549249ee04f979"),
    "verify-theorem": (52, "79b72d7f1c352dbbb92243ddf7a25601c753ea212a394fdf2f33ab00166b8091"),
}
# The verdicts of verify-theorem --k 0..12: (check, pass, detail) triples,
# hashed without the rest of the JSON so that new report fields leave it alone.
VERDICTS_K12_SHA256 = (169, "813d30f940ed22934911addc547810d3edcd4a9705c4130ceea7e3feb8cb9f37")


def test_golden_export_and_check_names(tmp_path, capsys):
    path = tmp_path / "gen10.json"
    assert main(["export-generators", "--k", "10", "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == EXPORT_K10_SHA256
    capsys.readouterr()
    for argv in (["verify-structure"], ["verify-theorem", "--k", "0..3"]):
        assert main(argv + ["--format", "structured"]) == 0
        names = [c["check"] for c in json.loads(capsys.readouterr().out)["checks"]]
        digest = hashlib.sha256("\n".join(names).encode()).hexdigest()
        assert (len(names), digest) == CHECK_NAMES_SHA256[argv[0]]
    assert main(["verify-theorem", "--k", "0..12", "--format", "structured"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert _verdicts_digest(checks) == VERDICTS_K12_SHA256


def _verdicts_digest(checks) -> tuple[int, str]:
    triples = [f"{c['check']}\t{c['pass']}\t{c.get('detail', '')}" for c in checks]
    return len(triples), hashlib.sha256("\n".join(triples).encode()).hexdigest()


# The negative controls: (checks, failing checks, sha256 of the verdict
# triples).  Their details print exact scalars, so these also pin the text of
# ComplexRadical's repr.
NEGATIVE_CONTROLS = {
    ("verify-structure", "--inject-error"): (
        71, 1, "ec37f4ee0c3cbb3c5f8a5826f7689e5716668ba5c3f04d152f86146a451c96d3"),
    ("verify-theorem", "--k", "0..3", "--thm37-variant", "plus2"): (
        52, 8, "4a73bb053a2174e6c82a781e397cfa51b77e378f5c90d68cf5f80e5071160d5d"),
    ("verify-theorem", "--k", "0..3", "--perturb"): (
        52, 12, "76ac259922b086dd1594d55954533702bc016445f4e01afbed90723baeb2937f"),
}


@pytest.mark.parametrize("argv", list(NEGATIVE_CONTROLS), ids=["inject", "plus2", "perturb"])
def test_negative_control_verdicts(argv, capsys):
    assert main(list(argv) + ["--format", "structured"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    count, digest = _verdicts_digest(checks)
    failing = sum(not c["pass"] for c in checks)
    assert (count, failing, digest) == NEGATIVE_CONTROLS[argv]


# The oracle's (check, pass) pairs at a small fixed setting.  Floats are left
# out, so the hash pins the check list and the verdicts of the numerics (QR,
# determinant, expm, Euler and Iwasawa maps) but not their last digits.
ORACLE_VERDICTS_SHA256 = (495, "ce5fe19b93818e88da42033ff69abd4bc25c93d348cad9ab0c8f4dfd7dee859d")


def test_oracle_verdicts_pinned(capsys):
    argv = ["oracle", "--k", "0..1", "--j-max", "3/2", "--samples", "5", "--seed", "0",
            "--format", "structured"]
    assert main(argv) == 0
    pairs = [f"{c['check']}\t{c['pass']}" for c in json.loads(capsys.readouterr().out)["checks"]]
    digest = hashlib.sha256("\n".join(pairs).encode()).hexdigest()
    assert (len(pairs), digest) == ORACLE_VERDICTS_SHA256


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-structure", "--k", "0"],
        ["export-generators", "--k", "0", "--out", "x.json", "--format", "text"],
        ["export-generators", "--k", "0", "--out", "x.json", "--verbose"],
        ["verify-theorem", "--k-range", "0"],
    ],
)
def test_ignored_options_are_gone(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()
