"""Uniform result records for the verification suites, and the one
exception type of their tripwires."""

from __future__ import annotations

from dataclasses import dataclass, field


class Tripwire(RuntimeError):
    """A consistency check that correct tables never trip has failed.  The
    commands report it as a failing check; any other exception is a bug."""


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    max_err: float | None = None
    tol: float | None = None
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        # plain builtins only, so reports stay JSON-serializable even when
        # errors arrive as numpy scalars
        out = {"check": self.name, "pass": bool(self.passed)}
        if self.params:
            out["params"] = self.params
        if self.max_err is not None:
            out["max_rel_err"] = float(self.max_err)
        if self.tol is not None:
            out["tol"] = float(self.tol)
        if self.detail:
            out["detail"] = self.detail
        return out


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)


def summarize(results: list[CheckResult], verbose: bool = False) -> str:
    """Human-readable rendering: summary line plus every failure (and, when
    verbose, every check)."""
    lines = []
    npass = sum(1 for r in results if r.passed)
    errs = [r.max_err for r in results if r.max_err is not None]
    head = f"{npass}/{len(results)} checks passed"
    if errs:
        head += f" (max err {max(errs):.3e})"
    lines.append(head)
    for r in results:
        if verbose or not r.passed:
            status = "PASS" if r.passed else "FAIL"
            extra = ""
            if r.max_err is not None:
                extra = f"  err={r.max_err:.3e}"
                if r.tol is not None:
                    extra += f" tol={r.tol:.1e}"
            if r.detail:
                extra += f"  {r.detail}"
            lines.append(f"  [{status}] {r.name}{extra}")
    return "\n".join(lines)
