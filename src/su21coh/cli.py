"""Command-line driver for the verification suites and the cocycle export.

Exit codes: 0 = every check passed, 1 = at least one verification failure,
2 = usage error.  All randomness is seeded; identical invocations produce
identical reports.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction

from . import cochains, lie, oracle
from .report import CheckResult, all_passed, summarize
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


def _parse_jmax(text: str) -> Fraction:
    try:
        if not _JMAX.fullmatch(text):
            raise ValueError(text)
        j = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"bad j-max {text!r} (use e.g. 5/2)") from None
    if j < 0 or (2 * j).denominator != 1:
        raise argparse.ArgumentTypeError(f"j-max must be a nonnegative half-integer, got {text!r}")
    return j


def _int_at_least(minimum: int, name: str):
    """argparse type for an integer option that must be >= minimum."""
    def parse(text: str) -> int:
        try:
            value = _int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad {name} {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"{name} must be an integer >= {minimum}, got {text!r}")
        return value
    return parse


def _parse_tol(text: str) -> float:
    try:
        if not _TOL.fullmatch(text):
            raise ValueError(text)
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad tolerance {text!r}") from None
    if not (math.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(f"tolerance must be positive and finite, got {text!r}")
    return tol


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


def cmd_verify_theorem(args) -> int:
    results: list[CheckResult] = []
    for k in args.k:
        results += cochains.verify_closedness(
            k, variant=args.thm37_variant, mutate_alpha0=args.perturb
        )
        results += cochains.verify_nonexactness(k, variant=args.thm37_variant)
    params = {"k": args.k, "variant": args.thm37_variant, "perturb": args.perturb}
    return _emit(args, "verify-theorem", params, results)


def cmd_export_generators(args) -> int:
    payload = {
        "k": args.k,
        "generators": {
            "chi": cochains.cochain_to_dict(cochains.build_chi(args.k)),
            "psi": cochains.cochain_to_dict(cochains.build_psi(args.k), args.k + 2),
            "psi0": cochains.cochain_to_dict(cochains.build_psi0(args.k)),
        },
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if not _write(args.out, text):
        return 2
    print(f"wrote generators for k={args.k} to {args.out}")
    return 0


def cmd_oracle(args) -> int:
    results: list[CheckResult] = []
    params = {"k": args.k, "j_max": str(args.j_max), "samples": args.samples,
              "seed": args.seed, "tol": args.tol, "variant": args.thm37_variant}
    if params["variant"] == "auto":
        params["variant"], row = oracle.adjudicate_variant(args.k, args.samples, args.tol, args.seed)
        results.append(row)
        if params["variant"] is None:
            return _emit(args, "oracle", params, results)
    results += oracle.check_action(
        args.k, j_max=args.j_max, samples=args.samples, tol=args.tol,
        seed=args.seed, variant=params["variant"],
    )
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
