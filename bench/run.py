"""The su21coh benchmark: three workloads through the real CLI.

Usage (from the repository root):
  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 bench/run.py --write-manifest      # regenerate BENCHMARK.json
  python3 -m pytest -q bench                  # the benchmark's self-tests

Load is a closed loop: one client, one child process at a time, the next
invocation after the previous one exits.  Every invocation starts a fresh
interpreter (bench/child.py), so import and the program's caches are paid the
way a user pays them.  A pass runs each invocation of the workload once;
passes repeat until the next one would end after --seconds (at least
MIN_PASSES).  Every report is checked against its known answer; a wrong exit
code or verdict, a wrong check count, a bad export, a traceback or a timeout
counts as a failed invocation.  `attempted` and `failed` also count the
import-only set-up probes that some workloads add to each pass.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.  A
traced run alternates traced and untraced passes: the traced ones wrap the
layers from outside and give counts and span times (unscaled), the untraced
ones give the baseline for `trace.overhead_share`.

Host speed.  On a shared host the same pass runs up to 2x slower while
neighbours are busy, in episodes of seconds to many minutes, so the medians
of identical runs drifted by 15-35% within minutes.  Every child therefore
times a fixed pure-Python kernel right after its import (child.calibrate,
which never touches su21coh).  The run's host speed is CAL_REF_S over the
mean of those calibrations, and verdict_s, cpu_s and setup_s are the medians
of the measured times multiplied by it: seconds at reference speed.  A change
to su21coh moves them exactly as it moves wall time; a slower host does not.
The unscaled medians are printed and recorded next to them.

Human-readable lines go to standard output first; the last line is the JSON
result.  The full record of the run (environment, every pass, every metric)
is written to .bench_out/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import tracer
from workloads import END_TO_END, EXPORT_PATH, PER_LAYER, WORKLOADS, Invocation, manifest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
MIN_PASSES = 3
HARD_LIMIT_S = 150.0  # whole run, so it exits well inside 180 s
CAL_REF_S = 0.050  # child.calibrate() at reference speed (fast episodes here)
PHASES = ("lie.verify_structure", "cochains.closedness", "cochains.nonexactness",
          "oracle.fd_sweep", "oracle.self_consistency")

# fixed hash seed, so set iteration order and hence the traced call counts
# repeat exactly from run to run
CHILD_ENV = {**os.environ, "PYTHONHASHSEED": "0"}

SUMMARY_RE = re.compile(r"^(\d+)/(\d+) checks passed(?: \(max err (\S+)\))?$", re.M)


# ---------------------------------------------------------------------------
# Verdict checking.
# ---------------------------------------------------------------------------


def parse_report(text: str):
    """(passed, total, max_err or None) from the report's summary line, or
    None when the report has none."""
    m = SUMMARY_RE.search(text)
    if m is None:
        return None
    return int(m.group(1)), int(m.group(2)), float(m.group(3)) if m.group(3) else None


def check_invocation(inv: Invocation, record: dict | None, export: bytes | None) -> list[str]:
    """Every way this invocation's output differs from its known answer."""
    if record is None:
        return ["no result record"]
    problems = []
    if record["crash"]:
        problems.append("traceback: " + record["crash"].strip().splitlines()[-1])
    if record["exit"] != inv.exit_code:
        problems.append(f"exit code {record['exit']}, expected {inv.exit_code}")
    if inv.checks:
        parsed = parse_report(record["report"])
        if parsed is None:
            problems.append("no 'N/M checks passed' line")
        else:
            passed, total, _ = parsed
            if total != inv.checks:
                problems.append(f"{total} checks, expected {inv.checks}")
            if (passed == total) != (inv.exit_code == 0):
                problems.append(f"verdict {passed}/{total} contradicts expected exit {inv.exit_code}")
    if inv.export_sha256:
        digest = hashlib.sha256(export).hexdigest() if export is not None else None
        if digest != inv.export_sha256:
            problems.append(f"export sha256 {digest}, expected {inv.export_sha256}")
    return problems


# ---------------------------------------------------------------------------
# Running invocations and passes.
# ---------------------------------------------------------------------------


@dataclass
class InvocationResult:
    problems: list[str]
    setup_s: float | None = None
    main_s: float = 0.0
    cpu_s: float = 0.0
    maxrss_mb: float = 0.0
    checks: int = 0
    max_err: float | None = None
    cal_s: float | None = None
    counts: dict = field(default_factory=dict)
    imports: dict = field(default_factory=dict)
    self_s: dict = field(default_factory=dict)
    phase_s: dict = field(default_factory=dict)


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative import seconds from `-X importtime` output: all of
    su21coh (its top-level entries) and su21coh.oracle on its own."""
    total = oracle = 0
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            cumulative = int(parts[1])
        except ValueError:  # the header line
            continue
        name = parts[2].strip()
        depth = len(parts[2]) - len(parts[2].lstrip())
        if name.startswith("su21coh") and depth == 1:
            total += cumulative
        if name == "su21coh.oracle":
            oracle += cumulative
    return {"setup.import.su21coh_s": total / 1e6, "setup.import.oracle_s": oracle / 1e6}


def run_invocation(inv: Invocation, argv: list[str], spans_path: Path | None,
                   timeout: float) -> InvocationResult:
    cmd = [sys.executable]
    if spans_path:
        cmd += ["-X", "importtime"]
    cmd += [str(BENCH / "child.py"), str(ROOT / "src"), str(spans_path or "-"), *argv]
    if inv.export_sha256:
        (ROOT / EXPORT_PATH).unlink(missing_ok=True)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return InvocationResult([f"timed out after {timeout:.0f} s"])
    try:
        record = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        record = None
    export = None
    if inv.export_sha256 and (ROOT / EXPORT_PATH).is_file():
        export = (ROOT / EXPORT_PATH).read_bytes()
    result = InvocationResult(check_invocation(inv, record, export))
    if record is None:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no output)"]
        result.problems.append(f"child exited {proc.returncode}: {tail[0]}")
        return result
    parsed = parse_report(record["report"])
    result.setup_s = record["imported_at"] - spawned
    result.cal_s = record["cal_s"]
    result.main_s = record["main_s"]
    result.cpu_s = record["cpu_s"]
    result.maxrss_mb = record["maxrss_kb"] / 1024
    result.checks = parsed[1] if parsed else 0
    result.max_err = parsed[2] if parsed else None
    if spans_path:
        result.counts = record.get("counts", {})
        result.imports = import_times(proc.stderr)
        spans = tracer.load_spans(str(spans_path))
        result.self_s = tracer.self_times(spans)
        result.phase_s = tracer.inclusive_times(spans, PHASES)
    return result


@dataclass
class PassResult:
    traced: bool
    invocations: list[InvocationResult]

    @property
    def wall_s(self) -> float:
        return sum(r.main_s for r in self.invocations)

    @property
    def cpu_s(self) -> float:
        return sum(r.cpu_s for r in self.invocations)

    @property
    def checks(self) -> int:
        return sum(r.checks for r in self.invocations)


def probe_setup(timeout: float) -> InvocationResult:
    """A fresh interpreter that only imports su21coh.cli: one more setup_s
    sample for workloads with few invocations per pass."""
    cmd = [sys.executable, str(BENCH / "child.py"), str(ROOT / "src"), "-"]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True,
                              timeout=timeout)
        record = json.loads(proc.stdout)
        return InvocationResult([], setup_s=record["imported_at"] - spawned, cal_s=record["cal_s"])
    except subprocess.TimeoutExpired:
        return InvocationResult([f"set-up probe timed out after {timeout:.0f} s"])
    except (ValueError, KeyError):
        return InvocationResult([f"set-up probe exited {proc.returncode} without a record"])


def run_pass(workload, seed: int, traced: bool, deadline: float) -> PassResult:
    results = []
    for i, inv in enumerate(workload.invocations):
        spans = OUT / "spans" / f"{workload.name}-{i}.bin" if traced else None
        timeout = max(1.0, deadline - time.monotonic())
        results.append(run_invocation(inv, workload.argv(inv, seed), spans, timeout))
    if not traced:
        for _ in range(workload.setup_probes):
            results.append(probe_setup(max(1.0, deadline - time.monotonic())))
    return PassResult(traced, results)


def run_workload(workload, seed: int, seconds: float, trace: bool) -> list[PassResult]:
    """Closed loop of passes; with `trace`, passes alternate traced and
    untraced, starting traced."""
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    passes: list[PassResult] = []
    durations: list[float] = []
    while True:
        began = time.monotonic()
        passes.append(run_pass(workload, seed, trace and len(passes) % 2 == 0, deadline))
        durations.append(time.monotonic() - began)
        finish = time.monotonic() + max(durations[-2:])  # if one more pass ran
        if finish > deadline or (len(passes) >= MIN_PASSES and finish > start + seconds):
            return passes


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------


def median(values, pick=statistics.median) -> float:
    """Median, or 0 when a run produced no sample (every invocation failed,
    which the result reports as not correct)."""
    values = list(values)
    return pick(values) if values else 0.0


def failures(passes: list[PassResult]) -> tuple[int, int]:
    """(failed, attempted) invocations; error_rate is their ratio."""
    invs = [r for p in passes for r in p.invocations]
    return sum(1 for r in invs if r.problems), len(invs)


def end_to_end(passes: list[PassResult]) -> dict[str, float]:
    """The end-to-end metrics from the untraced passes, plus the unscaled
    wall times and the host speed that scales them."""
    plain = [p for p in passes if not p.traced]
    invs = [r for p in plain for r in p.invocations if r.cal_s]
    speed = CAL_REF_S / statistics.mean(r.cal_s for r in invs) if invs else 1.0
    wall = median(p.wall_s for p in plain)
    setup = median(r.setup_s for r in invs)
    return {
        "verdict_s": wall * speed,
        "cpu_s": median(p.cpu_s for p in plain) * speed,
        "setup_s": setup * speed,
        "peak_rss_mb": max((r.maxrss_mb for r in invs), default=0.0),
        "checks": median((p.checks for p in plain), statistics.median_low),
        "verdict_wall_s": wall,
        "setup_wall_s": setup,
        "host_speed": speed,
    }


def layer_values(p: PassResult) -> dict[str, float]:
    """Counts, self times, phase times and import times of one traced pass,
    summed over its invocations."""
    counts: dict[str, float] = {}
    self_s: dict[str, float] = {}
    phase_s: dict[str, float] = {}
    for r in p.invocations:
        for src, dst in ((r.counts, counts), (r.self_s, self_s), (r.phase_s, phase_s)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
    out = {}
    for m in PER_LAYER:
        n = m.name
        if n.endswith(".phase_s"):
            out[n] = phase_s.get(n[: -len(".phase_s")], 0.0)
        elif n.endswith(".s"):
            out[n] = self_s.get(n[: -len(".s")], 0.0)
        elif m.unit == "count":
            out[n] = counts.get(n, 0)
    inverses = counts.get("scalars.inverse.calls", 0)
    out["scalars.inverse.multiterm_share"] = (
        counts.get("scalars.inverse.multiterm", 0) / inverses if inverses else 0.0)
    act_calls = counts.get("wigner.act_l_index.calls", 0) + counts.get("wigner.act_p_index.calls", 0)
    out["wigner.act_index.repeat_share"] = (
        counts.get("wigner.act_index.repeats", 0) / act_calls if act_calls else 0.0)
    return out


def per_layer(passes: list[PassResult]) -> tuple[dict[str, float], bool]:
    """Per-layer metrics (medians over traced passes; counts must agree
    exactly between traced passes) and whether they did."""
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    values = [layer_values(p) for p in traced]
    counts_repeat = all(
        v[m.name] == values[0][m.name] for v in values for m in PER_LAYER if m.unit == "count")
    out = {}
    for m in PER_LAYER:
        if m.name in values[0]:
            pick = statistics.median_low if m.unit == "count" else statistics.median
            out[m.name] = median((v[m.name] for v in values), pick)
    for key in ("setup.import.su21coh_s", "setup.import.oracle_s"):
        out[key] = median(r.imports[key] for p in traced for r in p.invocations if r.imports)
    untraced = median(p.wall_s for p in plain)
    out["trace.overhead_share"] = (
        (median(p.wall_s for p in traced) - untraced) / untraced if untraced else 0.0)
    return out, counts_repeat


# ---------------------------------------------------------------------------
# Environment record and output.
# ---------------------------------------------------------------------------


def git_commit() -> str | None:
    """The checked-out commit, read from .git inside the repository only;
    None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "load_start": os.getloadavg(),
        "child_env": {"PYTHONHASHSEED": "0"},
        "load": "closed loop, one client, one child process at a time",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(manifest()["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json from bench/workloads.py and exit")
    args = parser.parse_args(argv)

    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "su21coh" / "cli.py").is_file():
        print(f"no su21coh sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    (OUT / "spans").mkdir(parents=True, exist_ok=True)
    env = environment()
    passes = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    env["load_end"] = os.getloadavg()

    invs = [r for p in passes for r in p.invocations]
    failed, attempted = failures(passes)
    errs = [r.max_err for r in invs if r.max_err is not None]
    report = {
        **end_to_end(passes),
        "error_rate": failed / attempted,
        **({"oracle_max_rel_err": max(errs)} if errs else {}),
    }
    units = {m.name: m.unit for m in END_TO_END + PER_LAYER}
    units.update(error_rate="ratio", oracle_max_rel_err="ratio", verdict_wall_s="s",
                 setup_wall_s="s", host_speed="ratio")
    plain = [p for p in passes if not p.traced]
    samples = {"passes": len(passes), "untraced_passes": len(plain),
               "traced_passes": len(passes) - len(plain),
               "setup_samples": sum(r.cal_s is not None for p in plain for r in p.invocations)}
    shown = END_TO_END
    counts_repeat = None
    if args.trace:
        layers, counts_repeat = per_layer(passes)
        report.update(layers)
        shown = PER_LAYER

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          + ", ".join(f"{k} {v}" for k, v in samples.items()))
    names = [m.name for m in END_TO_END] + ["error_rate", "oracle_max_rel_err",
                                            "verdict_wall_s", "setup_wall_s", "host_speed"]
    if args.trace:
        names += [m.name for m in PER_LAYER]
    for name in names:
        if name in report:
            print(f"  {name:34s} {report[name]:.6g} {units[name]}")
    if counts_repeat is not None:
        print(f"  call counts repeat exactly across traced passes: {counts_repeat}")
    for i, r in enumerate(invs):
        for problem in r.problems:
            print(f"  FAILED invocation {i}: {problem}")

    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "samples": samples,
        # only the oracle takes randomness (--seed); the exact workloads are
        # the same for every seed
        "uses_seed": any("{seed}" in a for inv in workload.invocations for a in inv.argv),
        "passes": [{"traced": p.traced, "wall_s": p.wall_s, "cpu_s": p.cpu_s,
                    "checks": p.checks,
                    "setup_s": [r.setup_s for r in p.invocations],
                    "main_s": [r.main_s for r in p.invocations],
                    "cal_s": [r.cal_s for r in p.invocations],
                    "problems": [r.problems for r in p.invocations]} for p in passes],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in report.items()},
        "counts_repeat_exactly": counts_repeat,
        "claim": None,
    }
    path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m.name: {"value": report[m.name], "unit": m.unit} for m in shown},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
