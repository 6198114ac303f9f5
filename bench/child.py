"""Run one su21coh CLI invocation in this fresh interpreter and report on it.

Usage: python3 bench/child.py SRC_DIR SPANS_PATH ARGV...

SPANS_PATH is `-` for an untraced invocation.  Otherwise the layers are
wrapped from outside (see tracer.py) after the import, and the spans are
written to SPANS_PATH when the invocation ends.  With no ARGV the child is a
set-up probe: it reports the import and exits without running a command.

The last line of standard output is one JSON record:
  imported_at  time.monotonic() when `su21coh.cli` finished importing (the
               parent subtracts its spawn time to get setup_s)
  cal_s        seconds `calibrate()` took right after the import, before the
               command: the host's speed at that moment
  exit         the exit code `cli.main` returned (or SystemExit carried)
  main_s       wall time of the `cli.main(argv)` call
  cpu_s        user+sys CPU time of the same interval
  maxrss_kb    this process's max RSS
  report       what the command printed to standard output
  crash        traceback text if `cli.main` raised, else null
  counts       the tracer's counters (traced invocations only)
"""

import sys
import time


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python computation: rational sums and
    dict stores, like the exact engine's inner loops.  It never touches
    su21coh, so only the speed of the host moves it."""
    from fractions import Fraction

    start = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 15000):
        acc += Fraction(1, i % 97 + 1)
        table[i % 61] = acc * i
    return time.perf_counter() - start


def main() -> int:
    src, spans_path, *argv = sys.argv[1:]
    sys.path.insert(0, src)
    import su21coh.cli as cli

    imported_at = time.monotonic()
    cal_s = calibrate()
    if not argv:
        sys.stdout.write('{"imported_at": %r, "cal_s": %r}\n' % (imported_at, cal_s))
        return 0

    import contextlib
    import io
    import json
    import resource
    import traceback

    tracer = None
    if spans_path != "-":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    out = io.StringIO()
    code, crash = None, None
    cpu0, t0 = time.process_time(), time.monotonic()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        crash = traceback.format_exc()
    t1, cpu1 = time.monotonic(), time.process_time()

    record = {
        "imported_at": imported_at,
        "cal_s": cal_s,
        "exit": code,
        "main_s": t1 - t0,
        "cpu_s": cpu1 - cpu0,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "report": out.getvalue(),
        "crash": crash,
    }
    if tracer is not None:
        tracer.write(spans_path)
        record["counts"] = dict(tracer.counts)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
