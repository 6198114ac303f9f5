"""The benchmark's workloads, their known answers and its metric table.

This module is the single source of `BENCHMARK.json`:
`python3 bench/run.py --write-manifest` regenerates it from the tables here.
"""

from __future__ import annotations

from dataclasses import dataclass

# sha256 of `export-generators --k 10` (39,643 bytes) at the seed commit; the
# export is byte-stable, so any other output is wrong.
EXPORT_K10_SHA256 = "6f5e6234ca4aee9838d6258fae18e2c6fb18163a53e49f6488bea9a7168043cb"
EXPORT_PATH = ".bench_out/export-k10.json"


@dataclass(frozen=True)
class Invocation:
    """One `su21coh` command line and its known answer."""

    argv: tuple[str, ...]
    exit_code: int  # 0 for positive runs, 1 for negative controls
    checks: int  # M in the report's "N/M checks passed"; 0 if none is printed
    export_sha256: str | None = None  # byte check of the file the command writes


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    invocations: tuple[Invocation, ...]
    setup_probes: int = 0  # extra import-only interpreters per untraced pass

    def argv(self, inv: Invocation, seed: int) -> list[str]:
        return [a.format(seed=seed, export=EXPORT_PATH) for a in inv.argv]


# A single `verify-theorem --k 80` workload (dense nullspace) was left out:
# with only three or four 5-7 s passes per run its scaled time still spread
# by 15% between runs on this host.  Nullspace stays measured per layer on
# theorem-sweep (cochains.nullspace.s and .cells, nonexactness.phase_s).
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "theorem-sweep",
            "routine many-k sweep k=0..24: closedness path (act_tensor, act_poly, differential, "
            "equivariance) and scalar churn dominate; nullspace ~30%; oracle unused",
            (Invocation(("verify-theorem", "--k", "0..24"), 0, 325),),
            setup_probes=1,
        ),
        Workload(
            "oracle-default",
            "float oracle with defaults and the benchmark seed: eval_wigner (~500k calls), iwasawa, "
            "euler_from_k and expm dominate; exact engine <5%, so exact-engine changes leave it flat",
            (Invocation(("oracle", "--seed", "{seed}"), 0, 2927),),
            setup_probes=1,
        ),
        Workload(
            "cli-cold",
            "five short commands, each in a fresh interpreter: import cost (setup_s), lie, export "
            "and report layers dominate; keeps the byte-stable export and the must-fail controls",
            (
                Invocation(("verify-structure",), 0, 71),
                Invocation(("export-generators", "--k", "10", "--out", "{export}"), 0, 0,
                           EXPORT_K10_SHA256),
                Invocation(("verify-structure", "--inject-error"), 1, 71),
                Invocation(("verify-theorem", "--k", "0..3", "--perturb"), 1, 52),
                Invocation(("verify-theorem", "--k", "0..3", "--thm37-variant", "plus2"), 1, 52),
            ),
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None  # end-to-end only


# Printed with --trace 0; `bound` is the share of the parent's median by
# which a change may make the metric worse.  The timings (scaled to reference
# host speed, see run.py) share the largest allowed bound: on a shared 2-vCPU
# host whose speed halved for minutes at a time, their quartile spread over
# ten runs measured 3-11%.  `checks` may not fall at all: a verifier that
# proves less is a regression.
# `error_rate` and `oracle_max_rel_err` are printed by name too, but they are
# 0 or absent on some workloads, so they reach the gate through the result's
# `failed` and `correct` fields instead.
END_TO_END = [
    Metric("verdict_s", "s", "lower", 0.25),
    Metric("cpu_s", "s", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
    Metric("checks", "count", "higher", 0.0001),
]

# Printed with --trace 1; every name is present on every workload and reads
# 0 where its layer does not run.
PER_LAYER = [
    Metric("setup.import.su21coh_s", "s", "lower"),
    Metric("setup.import.oracle_s", "s", "lower"),
    Metric("lie.verify_structure.phase_s", "s", "lower"),
    Metric("lie.bracket.calls", "count", "lower"),
    Metric("scalars.radical_mul.calls", "count", "lower"),
    Metric("scalars.complex_mul.calls", "count", "lower"),
    Metric("scalars.add.calls", "count", "lower"),
    Metric("scalars.sqrt.calls", "count", "lower"),
    Metric("scalars.inverse.calls", "count", "lower"),
    Metric("scalars.inverse.multiterm_share", "ratio", "lower"),
    Metric("sparse.lincomb.new", "count", "lower"),
    Metric("sparse.add.calls", "count", "lower"),
    Metric("wigner.act_p_index.calls", "count", "lower"),
    Metric("wigner.act_l_index.calls", "count", "lower"),
    Metric("wigner.act_index.s", "s", "lower"),
    Metric("wigner.act_index.repeat_share", "ratio", "lower"),
    Metric("polynomials.act_poly.calls", "count", "lower"),
    Metric("polynomials.act_poly.s", "s", "lower"),
    Metric("cochains.act_tensor.calls", "count", "lower"),
    Metric("cochains.act_tensor.s", "s", "lower"),
    Metric("cochains.differential.s", "s", "lower"),
    Metric("cochains.check_equivariance.s", "s", "lower"),
    Metric("cochains.build.s", "s", "lower"),
    Metric("cochains.closedness.phase_s", "s", "lower"),
    Metric("cochains.nullspace.s", "s", "lower"),
    Metric("cochains.nullspace.cells", "count", "lower"),
    Metric("cochains.nonexactness.phase_s", "s", "lower"),
    Metric("cochains.cochain_to_dict.s", "s", "lower"),
    Metric("report.render.s", "s", "lower"),
    Metric("oracle.eval_wigner.calls", "count", "lower"),
    Metric("oracle.eval_wigner.s", "s", "lower"),
    Metric("oracle.iwasawa.calls", "count", "lower"),
    Metric("oracle.iwasawa.s", "s", "lower"),
    Metric("oracle.euler_from_k.s", "s", "lower"),
    Metric("oracle.expm.calls", "count", "lower"),
    Metric("oracle.expm.s", "s", "lower"),
    Metric("oracle.quadrature_ip.s", "s", "lower"),
    Metric("oracle.fd_sweep.phase_s", "s", "lower"),
    Metric("oracle.self_consistency.phase_s", "s", "lower"),
    Metric("trace.overhead_share", "ratio", "lower"),
]

RUN_SECONDS = 40


def manifest() -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
