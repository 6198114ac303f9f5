"""Self-tests for the benchmark's own logic.  Run: python3 -m pytest -q bench"""

import json
import time
from array import array

import pytest

import run
import tracer
from workloads import Invocation, Workload, manifest


def spans_of(rows):
    """Span table from (name, start, end, parent) rows."""
    names = sorted({r[0] for r in rows})
    return tracer.Spans(
        names,
        array("i", [names.index(r[0]) for r in rows]),
        array("i", [r[3] for r in rows]),
        array("d", [r[1] for r in rows]),
        array("d", [r[2] for r in rows]),
    )


def test_self_times_on_synthetic_tree():
    spans = spans_of([
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("leaf", 2.0, 3.0, 1),
        ("b", 5.0, 6.0, 0),
        ("a", 7.0, 9.5, 0),  # a second span with the same name adds up
    ])
    got = tracer.self_times(spans)
    assert got == pytest.approx({"root": 10 - 3 - 1 - 2.5, "a": 2 + 2.5, "leaf": 1, "b": 1})
    assert sum(got.values()) == pytest.approx(10.0)  # self times partition the root


def test_inclusive_times_count_recursion_once():
    spans = spans_of([
        ("phase", 0.0, 8.0, -1),
        ("phase", 1.0, 3.0, 0),  # nested in itself: already covered
        ("other", 4.0, 5.0, 0),
        ("phase", 9.0, 10.0, -1),
    ])
    assert tracer.inclusive_times(spans) == pytest.approx({"phase": 9.0, "other": 1.0})
    assert tracer.inclusive_times(spans, {"other"}) == pytest.approx({"other": 1.0})


def test_tracer_spans_round_trip(tmp_path):
    ticks = iter(range(100))
    t = tracer.Tracer(clock=lambda: float(next(ticks)))
    inner = t.wrap(lambda x: x + 1, "inner", "inner.calls", None)
    outer = t.wrap(lambda x: inner(inner(x)), "outer", None, None)
    assert outer(1) == 3
    path = tmp_path / "spans.bin"
    t.write(str(path))
    spans = tracer.load_spans(str(path))
    assert list(spans.parents) == [-1, 0, 0]
    assert tracer.self_times(spans) == {"outer": 3.0, "inner": 2.0}
    assert t.counts == {"inner.calls": 2}


PASSING = "== verify-structure {'inject_error': False}\n71/71 checks passed\n"
FAILING = ("== oracle {}\n2926/2927 checks passed (max err 3.000e-03)\n"
           "  [FAIL] dl[k=0,U0,(0,0,0,0)]  err=3.000e-03 tol=1.0e-06\n")


def test_parse_report():
    assert run.parse_report(PASSING) == (71, 71, None)
    assert run.parse_report(FAILING) == (2926, 2927, 3e-3)
    assert run.parse_report("wrote generators for k=10 to x.json\n") is None


def record(report, exit_code, crash=None):
    return {"report": report, "exit": exit_code, "crash": crash}


def test_check_invocation_verdicts():
    positive = Invocation(("verify-structure",), 0, 71)
    negative = Invocation(("verify-structure", "--inject-error"), 1, 71)
    assert run.check_invocation(positive, record(PASSING, 0), None) == []
    assert run.check_invocation(negative, record(PASSING.replace("71/71", "70/71"), 1), None) == []
    # a negative control that passes, a wrong count, a crash
    assert run.check_invocation(negative, record(PASSING, 1), None)
    assert run.check_invocation(positive, record(PASSING.replace("71/71", "70/70"), 0), None)
    assert run.check_invocation(positive, record(PASSING, 0, crash="Traceback\nKeyError: 1"), None)
    export = Invocation(("export-generators",), 0, 0, "00" * 32)
    assert run.check_invocation(export, record("wrote", 0), b"other bytes")
    assert run.check_invocation(export, record("wrote", 0), None)


def test_times_scale_to_reference_speed():
    # interpreters that calibrated at twice the reference time ran on a host
    # at half speed: their times count half
    slow = 2 * run.CAL_REF_S
    p = run.PassResult(False, [
        run.InvocationResult([], setup_s=0.6, main_s=3.0, cpu_s=2.8, cal_s=slow),
        run.InvocationResult([], setup_s=0.6, cal_s=slow),  # a set-up probe
    ])
    metrics = run.end_to_end([p])
    assert metrics["host_speed"] == pytest.approx(0.5)
    assert metrics["verdict_wall_s"] == pytest.approx(3.0)
    assert (metrics["verdict_s"], metrics["cpu_s"], metrics["setup_s"]) == pytest.approx((1.5, 1.4, 0.3))


def test_wrong_exit_code_raises_error_rate():
    # verify-structure --inject-error exits 1; claiming it should exit 0
    # must make the invocation count as failed
    wrong = Workload("wrong", "", (Invocation(("verify-structure", "--inject-error"), 0, 71),))
    passes = [run.run_pass(wrong, 0, False, deadline=time.monotonic() + 60)]
    assert run.failures(passes) == (1, 1)
    assert any("exit code 1, expected 0" in p for p in passes[0].invocations[0].problems)


def test_traced_child_patches_every_binding(tmp_path):
    # the oracle reaches wigner.act_p_index and scipy's expm through its own
    # bindings; both must be counted
    argv = ["oracle", "--k", "0", "--j-max", "1/2", "--samples", "1"]
    inv = Invocation(tuple(argv), 0, 0)
    result = run.run_invocation(inv, argv, tmp_path / "s.bin", timeout=120)
    assert result.problems == []
    assert result.counts["wigner.act_p_index.calls"] > 0
    assert result.counts["oracle.expm.calls"] > 0
    assert result.self_s["oracle.eval_wigner"] > 0
    assert result.phase_s["oracle.fd_sweep"] > 0
    assert result.imports["setup.import.su21coh_s"] >= result.imports["setup.import.oracle_s"] > 0


def test_import_times_parse():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       713 |      50867 |   su21coh",
        "import time:     12586 |     348198 |   su21coh.oracle",
        "import time:      2625 |     406562 | su21coh.cli",
    ])
    assert run.import_times(text) == {"setup.import.su21coh_s": 0.406562,
                                      "setup.import.oracle_s": 0.348198}


def test_manifest_matches_benchmark_json():
    on_disk = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert on_disk == manifest()
