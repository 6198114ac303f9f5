"""The benchmark's bindings to the package: its known answers and its tracer.

The workloads in bench/workloads.py pin each invocation's exit code, check
count and export hash, so the first test runs every invocation in-process
and compares; a change that moves one fails here, not first in a benchmark
run.

The traced benchmark wraps su21coh functions by name (bench/tracer.py).
A rename of a wrapped function breaks only traced runs, and bench/'s own
self-tests trace a single small oracle run, so the second test runs five short
commands under the installed tracer in a fresh interpreter: the structure
suite, the oracle, the theorem path (verify-theorem and export-generators,
which reach the tracer's `repeat` and `cells` hooks and the cochains
spans), and the `plus2` control, whose irrational X3 row runs
ComplexRadical products and sums.  It reads bench/ and changes nothing
there.
"""

import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import su21coh
from su21coh.cli import main

REPO = Path(__file__).resolve().parents[1]


def _load_workloads():
    """bench/workloads.py as a private module; its dataclasses look the
    module up in sys.modules, so it is registered before it runs."""
    spec = importlib.util.spec_from_file_location(
        "_bench_workloads", REPO / "bench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_bench_invocation_keeps_its_known_answer(tmp_path, capsys):
    workloads = _load_workloads()
    invocations = [inv for w in workloads.WORKLOADS.values() for inv in w.invocations]
    assert len(invocations) == 7
    export = tmp_path / "export.json"
    for inv in invocations:
        argv = [a.format(seed=0, export=export) for a in inv.argv]
        export.unlink(missing_ok=True)
        code = main(argv)
        total = re.search(r"^\d+/(\d+) checks passed", capsys.readouterr().out, re.M)
        digest = hashlib.sha256(export.read_bytes()).hexdigest() if inv.export_sha256 else None
        assert (code, int(total.group(1)) if total else 0, digest) == (
            inv.exit_code, inv.checks, inv.export_sha256), argv


SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import su21coh.cli as cli
from tracer import Tracer

tracer = Tracer()
tracer.install()
codes = [
    cli.main(["verify-structure"]),
    cli.main(["oracle", "--k", "0", "--j-max", "0", "--samples", "1"]),
    cli.main(["verify-theorem", "--k", "0..1"]),
    cli.main(["export-generators", "--k", "1", "--out", sys.argv[2]]),
]
before = dict(tracer.counts)
codes.append(cli.main(["verify-theorem", "--k", "0", "--thm37-variant", "plus2"]))
plus2 = {name: n - before.get(name, 0) for name, n in tracer.counts.items()}
ran = sorted({tracer.names[i] for i in tracer.span_name})
# (span, parent span) name pairs, the parent read from span_parent
nested = sorted({(tracer.names[tracer.span_name[i]], tracer.names[tracer.span_name[p]])
                 for i, p in enumerate(tracer.span_parent) if p >= 0})
print(json.dumps({"codes": codes, "spans": ran, "counts": sorted(tracer.counts),
                  "plus2": plus2, "nested": nested}))
"""


def test_traced_commands_run(tmp_path):
    src = str(Path(su21coh.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(REPO / "bench"), str(tmp_path / "gen1.json")],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert record["codes"] == [0, 0, 0, 0, 1]
    assert {"lie.verify_structure", "oracle.fd_sweep", "oracle.eval_wigner",
            "oracle.quadrature_ip", "oracle.self_consistency",
            "cochains.act_tensor", "cochains.differential", "cochains.build",
            "cochains.check_equivariance", "cochains.nullspace",
            "cochains.cochain_to_dict"} <= set(record["spans"])
    assert {"cochains.nullspace.cells", "wigner.act_index.repeats"} <= set(record["counts"])
    # the sweep reaches the rebound `eval_wigner`: the homomorphism and
    # covariance reports call it too, so a sweep that bypassed the module
    # global would still leave oracle.eval_wigner spans, but none under it
    assert ["oracle.eval_wigner", "oracle.fd_sweep"] in record["nested"]
    assert record["plus2"]["scalars.radical_mul.calls"] > 0
    assert record["plus2"]["scalars.add.calls"] > 0
