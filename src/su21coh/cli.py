"""Command-line driver for the verification suites and the cocycle export.

Exit codes: 0 = every check passed, 1 = at least one verification failure,
2 = usage error.  All randomness is seeded; identical invocations produce
identical reports.  A `report.Tripwire` (a consistency check that correct
tables never trip) ends its phase in one failing check with its text:
``tripwire [k=K]`` for one k of verify-theorem, ``tripwire [fd]`` for the
finite-difference phase of oracle, which also ends its report.  The report
still prints; export-generators writes no file and prints ``tripwire:
<text>`` on stderr.  Each exits 1; any other exception propagates.

The CLI runs on one OS thread: it sets OPENBLAS_NUM_THREADS=1 before numpy
loads, unless the variable is already set.  The oracle only multiplies
stacks of 3x3 matrices, which OpenBLAS never splits across threads, while
its idle workers busy-wait and roughly double the CPU time of a short
command.  To give OpenBLAS more threads, set OPENBLAS_NUM_THREADS yourself;
the reports do not depend on it.  Code that imports su21coh.oracle as a
library keeps its own BLAS setting.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from contextlib import contextmanager
from fractions import Fraction

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads: see above

from . import cochains, lie, oracle
from .report import CheckResult, Tripwire, all_passed, summarize
from .wigner import DEFAULT_VARIANT, VARIANTS


_INT = re.compile(r"-?[0-9]+")
_JMAX = re.compile(r"-?[0-9]+(?:/[0-9]+|\.[0-9]+)?")
_TOL = re.compile(r"-?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?")


def _int(text: str) -> int:
    """Optionally signed ASCII digits (int() also takes '1_0', blanks, '٣')."""
    if not _INT.fullmatch(text):
        raise ValueError(text)
    return int(text)


def _parse_k_spec(text: str) -> list[int]:
    try:
        lo, hi = text.split("..") if ".." in text else (text, text)
        lo, hi = _int(lo), _int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad k specification {text!r}") from None
    if min(lo, hi) < 0:
        raise argparse.ArgumentTypeError(f"k values must be >= 0, got {text!r}")
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty k range {text!r}: lo > hi")
    return list(range(lo, hi + 1))


def _number(pattern: re.Pattern, convert, name: str, valid, rule: str, hint: str = ""):
    """argparse type for a numeric option: text fully matching the ASCII
    pattern, converted, whose value must satisfy valid (described by rule)."""
    def parse(text: str):
        try:
            if not pattern.fullmatch(text):
                raise ValueError(text)
            value = convert(text)
        except (ValueError, ZeroDivisionError):  # Fraction("1/0")
            raise argparse.ArgumentTypeError(f"bad {name} {text!r}{hint}") from None
        if not valid(value):
            raise argparse.ArgumentTypeError(f"{name} must be {rule}, got {text!r}")
        return value
    return parse


def _int_at_least(minimum: int, name: str):
    return _number(_INT, int, name, lambda n: n >= minimum, f"an integer >= {minimum}")


_parse_jmax = _number(_JMAX, Fraction, "j-max", lambda j: j >= 0 and (2 * j).denominator == 1,
                      "a nonnegative half-integer", hint=" (use e.g. 5/2)")
_parse_tol = _number(_TOL, float, "tolerance", lambda t: math.isfinite(t) and t > 0,
                     "positive and finite")


def _write(path: str, text: str) -> bool:
    """Write text to path; on failure say so on stderr and return False."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


def _emit(args, command: str, params: dict, results: list[CheckResult]) -> int:
    ok = all_passed(results)
    if args.format == "structured":
        payload = {
            "command": command,
            "params": params,
            "pass": ok,
            "checks": [r.to_dict() for r in results],
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = f"== {command} {params}\n" + summarize(results, verbose=args.verbose) + "\n"
    if args.out is not None and not _write(args.out, text):
        return 2
    sys.stdout.write(text)
    return 0 if ok else 1


def cmd_verify_structure(args) -> int:
    results = lie.verify_structure(inject_error=args.inject_error)
    return _emit(args, "verify-structure", {"inject_error": args.inject_error}, results)


@contextmanager
def _tripwire(name: str):
    """Run the block's suites; a Tripwire they raise ends the block, and the
    yielded list then holds one failing check `name` with its text."""
    tripped: list[CheckResult] = []
    try:
        yield tripped
    except Tripwire as exc:
        tripped.append(CheckResult(name, False, str(exc)))


def cmd_verify_theorem(args) -> int:
    results: list[CheckResult] = []
    for k in args.k:
        with _tripwire(f"tripwire [k={k}]") as tripped:
            results += cochains.verify_closedness(k, variant=args.thm37_variant,
                                                  mutate_alpha0=args.perturb)
            results += cochains.verify_nonexactness(k, variant=args.thm37_variant)
        results += tripped
    params = {"k": args.k, "variant": args.thm37_variant, "perturb": args.perturb}
    return _emit(args, "verify-theorem", params, results)


def cmd_export_generators(args) -> int:
    with _tripwire("tripwire") as tripped:
        text = json.dumps(cochains.generators_to_dict(args.k), indent=2, sort_keys=True) + "\n"
    if tripped:
        print(f"{tripped[0].name}: {tripped[0].detail}", file=sys.stderr)
        return 1
    if not _write(args.out, text):
        return 2
    print(f"wrote generators for k={args.k} to {args.out}")
    return 0


def cmd_oracle(args) -> int:
    results: list[CheckResult] = []
    params = {"k": args.k, "j_max": str(args.j_max), "samples": args.samples,
              "seed": args.seed, "tol": args.tol, "variant": args.thm37_variant}
    with _tripwire("tripwire [fd]") as tripped:
        if params["variant"] == "auto":
            params["variant"], row = oracle.adjudicate_variant(
                args.k, args.samples, args.tol, args.seed)
            results.append(row)
        if params["variant"] is not None:
            results += oracle.check_action(args.k, args.j_max, args.samples, args.tol,
                                           args.seed, variant=params["variant"])
    results += tripped
    if tripped or params["variant"] is None:
        return _emit(args, "oracle", params, results)
    results += oracle.homomorphism_report(seed=args.seed)
    results += oracle.iwasawa_report(seed=args.seed)
    results += oracle.orthogonality_report()
    results += oracle.covariance_report(k=args.k[0], seed=args.seed)
    return _emit(args, "oracle", params, results)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="su21coh",
        description="Exact verification of boundary cocycles for the principal "
        "series of SU(2,1), plus an independent floating-point oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def k_option(p, default_k):
        p.add_argument("--k", type=_parse_k_spec, default=_parse_k_spec(default_k),
                       help=f"single value or inclusive range lo..hi (default {default_k})")

    def report_options(p):
        p.add_argument("--format", choices=("text", "structured"), default="text")
        p.add_argument("--out", default=None, help="also write the report to this path")
        p.add_argument("--verbose", "-v", action="store_true")

    p = sub.add_parser("verify-structure", help="exact bracket/table suite")
    report_options(p)
    p.add_argument("--inject-error", action="store_true",
                   help="corrupt one fixture cell (test mode; forces exit 1)")
    p.set_defaults(func=cmd_verify_structure)

    p = sub.add_parser("verify-theorem", help="exact cocycle identities and non-exactness")
    k_option(p, "0..10")
    report_options(p)
    p.add_argument("--thm37-variant", choices=VARIANTS, default=DEFAULT_VARIANT)
    p.add_argument("--perturb", action="store_true",
                   help="shift the leading psi coefficient by +1 (test mode)")
    p.set_defaults(func=cmd_verify_theorem)

    p = sub.add_parser("export-generators", help="write the three cocycles as JSON")
    p.add_argument("--k", type=_int_at_least(0, "k"), default=0,
                   help="single nonnegative value (default 0)")
    p.add_argument("--out", required=True, help="destination path for the JSON export")
    p.set_defaults(func=cmd_export_generators)

    p = sub.add_parser("oracle", help="finite-difference and quadrature validation")
    k_option(p, "0..3")
    report_options(p)
    p.add_argument("--j-max", type=_parse_jmax, default=Fraction(5, 2))
    p.add_argument("--samples", type=_int_at_least(1, "sample count"), default=20)
    p.add_argument("--seed", type=_int_at_least(0, "seed"), default=0)
    p.add_argument("--tol", type=_parse_tol, default=1e-6)
    p.add_argument("--thm37-variant", choices=("auto",) + VARIANTS, default="auto")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
