import ast
import builtins
import hashlib
import importlib
import inspect
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import su21coh

from su21coh import cochains, oracle, wigner
from su21coh.cli import build_parser, main
from su21coh.lie import LieGen
from su21coh.report import CheckResult, Tripwire


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
    "argv, message",
    [
        (["oracle", "--j-max", "x"], "argument --j-max: bad j-max 'x' (use e.g. 5/2)"),
        (["oracle", "--j-max", "1/0"], "argument --j-max: bad j-max '1/0' (use e.g. 5/2)"),
        (["oracle", "--j-max", "1/3"],
         "argument --j-max: j-max must be a nonnegative half-integer, got '1/3'"),
        (["oracle", "--j-max=-1"],
         "argument --j-max: j-max must be a nonnegative half-integer, got '-1'"),
        (["oracle", "--tol", "nan"], "argument --tol: bad tolerance 'nan'"),
        (["oracle", "--tol", "0"], "argument --tol: tolerance must be positive and finite, got '0'"),
        (["oracle", "--tol", "1e999"],
         "argument --tol: tolerance must be positive and finite, got '1e999'"),
        (["oracle", "--samples", "x"], "argument --samples: bad sample count 'x'"),
        (["oracle", "--samples", "0"],
         "argument --samples: sample count must be an integer >= 1, got '0'"),
        (["oracle", "--seed", "1_000"], "argument --seed: bad seed '1_000'"),
        (["oracle", "--seed=-1"], "argument --seed: seed must be an integer >= 0, got '-1'"),
        (["export-generators", "--k", "0..2", "--out", "x.json"], "argument --k: bad k '0..2'"),
        (["export-generators", "--k=-1", "--out", "x.json"],
         "argument --k: k must be an integer >= 0, got '-1'"),
    ],
    ids=["jmax_text", "jmax_zero_denominator", "jmax_third", "jmax_negative", "tol_text",
         "tol_zero", "tol_overflow", "samples_text", "samples_zero", "seed_text",
         "seed_negative", "export_k_text", "export_k_negative"],
)
def test_numeric_option_usage_errors(argv, message, tmp_path, monkeypatch, capsys):
    # each numeric option's malformed-text and out-of-range messages, verbatim
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"su21coh {argv[0]}: error: {message}"
    assert list(tmp_path.iterdir()) == []


def test_oracle_parser_holds_the_oracle_defaults():
    # the parser is the one home of these defaults: check_action has none
    args = build_parser().parse_args(["oracle"])
    params = inspect.signature(oracle.check_action).parameters
    names = ("j_max", "samples", "tol", "seed")
    assert ({name: getattr(args, name) for name in names}
            == {"j_max": Fraction(5, 2), "samples": 20, "tol": 1e-6, "seed": 0})
    assert all(params[name].default is inspect.Parameter.empty for name in names)


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


@pytest.mark.parametrize(
    "argv, code, count, failing",
    [
        (["--j-max", "0"], 0, 23, set()),  # one index per sweep
        (["--samples", "1"], 0, 1 + 8 * 91 + 14, set()),  # one point
        (["--samples", "1", "--thm37-variant", "plus2"], 1, 8 * 91 + 14, {"dp:plus2[k=0,X3"}),
        (["--tol", "1e-300"], 1, 1, {"variant adjudication"}),
    ],
)
def test_oracle_edge_sizes_and_failing_controls(argv, code, count, failing, capsys):
    assert main(["oracle", "--k", "0", "--format", "structured"] + argv) == code
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert len(checks) == count
    assert {c["check"].split(",W[")[0] for c in checks if not c["pass"]} == failing


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


@pytest.mark.parametrize("argv, digest", [
    (["--seed", "0"], "4069270c95421b0ce9472276b1f7c5abb2c7c637aa96e95da0803c58ab9a3e6d"),
    (["--k", "0..5", "--samples", "7", "--seed", "3"],
     "5de18bbd513dfe7ba038abf10d259dfb17d60bf8e87624dbc725ce633a1d09db"),
    (["--k", "0..2", "--j-max", "4", "--samples", "60", "--seed", "5"],
     "1380a3804ae4d4081d3ae8c4732032ae9eb486b1100d4763c3a37d2a8f0f0c65"),
])
def test_oracle_structured_reports_keep_their_bytes(argv, digest, capsys):
    # every row's max error is printed to the last bit, so a change to the
    # oracle's evaluation order or grouping shows here.  The float bytes
    # depend on numpy (recorded with 2.4.6, whose array products may round
    # with FMA) and on the host libm (x86-64 Linux).
    assert main(["oracle", *argv, "--format", "structured"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


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


def _fresh_python(code: str, **env: str) -> str:
    """Standard output of `code` run in a new interpreter that imports this
    checkout's su21coh, with env added to the environment."""
    src = str(Path(su21coh.__file__).resolve().parents[1])
    env = dict(os.environ, **env,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_cli_import_leaves_scipy_out():
    code = "import sys, su21coh.cli; print('scipy' in sys.modules)"
    assert _fresh_python(code).strip() == "False"


def test_exact_side_never_loads_numpy():
    # the exact modules, a theorem check and the export run without numpy,
    # which only the oracle (imported by the CLI) needs
    code = ("import sys\n"
            "import su21coh.cochains as c, su21coh.lie, su21coh.wigner, su21coh.scalars\n"
            "import su21coh.sparse, su21coh.polynomials, su21coh.report\n"
            "ok = all(r.passed for r in c.verify_closedness(1) + c.verify_nonexactness(1))\n"
            "c.generators_to_dict(1)\n"
            "print(ok, 'numpy' in sys.modules)")
    assert _fresh_python(code).split() == ["True", "False"]


def test_oracle_never_loads_numpy_random():
    # the oracle draws its points from the standard library's random.Random
    code = ("import contextlib, io, sys\n"
            "from su21coh.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    status = main(['oracle', '--k', '0', '--j-max', '0', '--samples', '1'])\n"
            "print(status, 'numpy.random' in sys.modules)")
    assert _fresh_python(code).split() == ["0", "False"]


def test_oracle_report_is_identical_across_hash_seeds():
    # no draw may depend on str hashing, which PYTHONHASHSEED salts per
    # process, and the BLAS thread count is not a numerics setting
    code = ("import sys\n"
            "from su21coh.cli import main\n"
            "sys.exit(main(['oracle', '--k', '0', '--j-max', '1/2', '--samples', '3',"
            " '--format', 'structured']))")
    first, *others = (_fresh_python(code, PYTHONHASHSEED=h, OPENBLAS_NUM_THREADS=t)
                      for h, t in (("1", "1"), ("2", "1"), ("1", "2")))
    assert json.loads(first)["pass"] and others == [first, first]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_cli_runs_on_one_thread():
    # idle OpenBLAS workers busy-wait after numpy loads; the CLI asks for none
    # unless the user set a thread count, which it leaves alone
    code = ("import contextlib, io, os\n"
            "for name in ('OPENBLAS_NUM_THREADS', 'GOTO_NUM_THREADS', 'OMP_NUM_THREADS'):\n"
            "    os.environ.pop(name, None)\n"
            "from su21coh.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    status = main(['oracle', '--k', '0', '--j-max', '0', '--samples', '1'])\n"
            "print(status, len(os.listdir('/proc/self/task')))")
    assert _fresh_python(code).split() == ["0", "1"]
    code = "import os, su21coh.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _fresh_python(code, OPENBLAS_NUM_THREADS="2").strip() == "2"


def test_tripwires_become_failing_checks(monkeypatch, capsys):
    # a move that breaks parity trips act_p_index's Tripwire at every k
    rows = wigner.P_ROWS[LieGen.X1]
    monkeypatch.setitem(wigner.P_ROWS, LieGen.X1, ((-1, -1, 3, 1, 0), rows[1]))
    assert main(["verify-theorem", "--k", "0..3", "--format", "structured"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [(c["check"], c["pass"]) for c in checks] == [(f"tripwire [k={k}]", False)
                                                         for k in range(4)]
    assert checks[0]["detail"] == ("X1 on W[j=1,n=0,m1=-1,m2=1] produced nonzero coefficient"
                                   " on invalid W[j=1/2,n=3/2,m1=-1/2,m2=1]")
    monkeypatch.setitem(wigner.P_ROWS, LieGen.X1, rows)

    # a tripwire at one k keeps the checks made before it and the other k
    nonexactness = cochains.verify_nonexactness

    def tripping(k, variant):
        if k == 1:
            raise Tripwire("a bracket [X1, X_j] has a nonzero noncompact part")
        return nonexactness(k, variant=variant)

    monkeypatch.setattr(cochains, "verify_nonexactness", tripping)
    assert main(["verify-theorem", "--k", "0..2", "--format", "structured"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    # closedness has 8 checks and non-exactness 5, per k
    assert [c["check"] for c in checks].index("tripwire [k=1]") == 13 + 8
    assert len(checks) == 13 + 8 + 1 + 13
    failing = [(c["check"], c["detail"]) for c in checks if not c["pass"]]
    assert failing == [("tripwire [k=1]", "a bracket [X1, X_j] has a nonzero noncompact part")]

    # any other exception is a bug, not a verdict, and still propagates
    monkeypatch.setattr(cochains, "verify_nonexactness", lambda k, variant: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        main(["verify-theorem", "--k", "0"])


def _oracle_checks(capsys):
    code = main(["oracle", "--k", "0", "--samples", "1", "--j-max", "1", "--format", "structured"])
    return code, [(c["check"], c["pass"], c.get("detail")) for c in
                  json.loads(capsys.readouterr().out)["checks"]]


def test_oracle_tripwires_end_the_fd_phase(monkeypatch, capsys):
    # the parity-breaking move of X1 trips act_p_index in the adjudication
    rows = wigner.P_ROWS[LieGen.X1]
    monkeypatch.setitem(wigner.P_ROWS, LieGen.X1, ((-1, -1, 3, 1, 0), rows[1]))
    assert _oracle_checks(capsys) == (1, [(
        "tripwire [fd]", False, "X1 on W[j=1,n=-6,m1=-1,m2=-1] produced nonzero coefficient"
        " on invalid W[j=1/2,n=-9/2,m1=-1/2,m2=-1]")])
    monkeypatch.setitem(wigner.P_ROWS, LieGen.X1, rows)

    # a triangular factor off (r, 1, 1/r) trips iwasawa at the first decomposition
    real_qr = np.linalg.qr

    def doubling_qr(a):
        q, r = real_qr(a)
        return q, r * np.array([1.0, 2.0, 1.0])[:, None]

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "qr", doubling_qr)
        code, checks = _oracle_checks(capsys)
    assert code == 1 and [c[:2] for c in checks] == [("tripwire [fd]", False)]
    assert checks[0][2].startswith("triangular diagonal") and checks[0][2].endswith(
        "not (r, 1, 1/r)")

    # after an accepted variant, a tripwire in the sweep keeps the adjudication row
    def tripping(*args, **kwargs):
        raise Tripwire("swept")

    with monkeypatch.context() as m:
        m.setattr(oracle, "check_action", tripping)
        code, checks = _oracle_checks(capsys)
    assert code == 1 and [c[:2] for c in checks] == [("variant adjudication", True),
                                                     ("tripwire [fd]", False)]

    # any other exception is a bug, not a verdict, and still propagates
    monkeypatch.setattr(oracle, "adjudicate_variant", lambda *args: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        main(["oracle", "--k", "0"])


def test_export_tripwire_writes_no_file(monkeypatch, tmp_path, capsys):
    # U0 acting by the matrix of U1+iU2 is not diagonal: U0's weight table,
    # which psi's bidegrees read, trips
    real, path = cochains.gen_matrix, tmp_path / "gen.json"
    caches = (cochains._weight_table, cochains._poly_image)  # they read gen_matrix
    with monkeypatch.context() as m:
        m.setattr(cochains, "gen_matrix",
                  lambda gen: real(LieGen.U1_PLUS_IU2 if gen is LieGen.U0 else gen))
        for cache in caches:
            cache.cache_clear()
        try:
            assert main(["export-generators", "--k", "1", "--out", str(path)]) == 1
        finally:
            for cache in caches:
                cache.cache_clear()
    assert not path.exists()
    assert capsys.readouterr() == ("", "tripwire: U0 has an off-diagonal matrix entry\n")


def test_tripwire_is_the_only_exception_class_and_every_other_raise_a_builtin():
    # a tripwire of another type would bypass the CLI's one handler and crash
    # a command; anything else raised on purpose is an input check, and gets
    # a builtin type rather than a class of its own
    exceptions, raised = [], []
    for path in sorted(Path(su21coh.__file__).parent.glob("*.py")):
        stem = "" if path.stem == "__init__" else f".{path.stem}"
        module = importlib.import_module(f"su21coh{stem}")
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                cls = getattr(module, node.name)
                if issubclass(cls, BaseException):
                    exceptions.append(cls)
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.append((path.name, node.lineno, ast.unparse(exc)))
    assert exceptions == [Tripwire]
    assert Tripwire.__bases__ == (RuntimeError,)

    def allowed(name):
        found = getattr(builtins, name, None)
        return (name in ("Tripwire", "argparse.ArgumentTypeError")
                or isinstance(found, type) and issubclass(found, BaseException))

    assert raised and [r for r in raised if not allowed(r[2])] == []


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


@pytest.mark.parametrize("seed", range(5))
def test_oracle_verdicts_hold_at_every_seed(seed, capsys):
    # the pinned verdicts and the plus2 control do not hang on one lucky draw
    argv = ["oracle", "--k", "0..1", "--j-max", "3/2", "--samples", "5", "--seed", str(seed),
            "--format", "structured"]
    assert main(argv) == 0
    assert len(json.loads(capsys.readouterr().out)["checks"]) == 495
    assert main(argv + ["--thm37-variant", "plus2"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    failing = [c["check"] for c in checks if not c["pass"]]
    assert failing and all(name.startswith("dp:plus2[") and ",X3," in name for name in failing)


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
