"""Work counted in executed Python lines.

:func:`count_lines` counts the ``line`` events that ``sys.settrace``
reports while a call runs, in every Python frame the call enters.  The
count is exact and repeats on any host, so it shows how a kernel's work
grows with its input without timing noise.  Work done inside C calls
(``sorted``, ``x in list``, slicing, big-integer arithmetic) is not
counted.

Run as a script, it prints the lines of one pass of a bench job, such as
the ``oracle`` workload's round-trip group:

    PYTHONPATH=src python3 tests/linecount.py oracle.roundtrip [SEED [ROLE]]
"""

from __future__ import annotations

import sys


def count_lines(fn, *args):
    """``(fn(*args), lines)``: the result of the call and the Python lines
    it executed.  The trace function in place before the
    call is restored after it."""
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local)
    try:
        result = fn(*args)
    finally:
        sys.settrace(previous)
    return result, lines


def _bench_pass(job: str, seed: int, role: str) -> int:
    """Print the lines of the set-up and then of one pass of the bench
    job ``job`` (a key of ``bench/workloads.JOBS``, run as ``role``), in a
    process whose module memos are empty.  The ``sample`` job reads its
    catalog directory from MAPGLUE_CATALOG_DIR."""
    import os
    bench = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "bench")
    sys.path.insert(0, bench)
    from spans import Tracer
    from workloads import JOBS, Verdicts

    verdicts = Verdicts()
    runner = JOBS[job](seed, Tracer(False), role)
    _, setup = count_lines(runner.setup, verdicts)
    _, run = count_lines(runner.run_pass, verdicts)
    print(f"{job} seed {seed}: set-up {setup:,} lines, pass {run:,} lines, "
          f"{len(verdicts.failures())} of {len(verdicts.by_op)} failed")
    return 0


if __name__ == "__main__":
    job, seed, role = (sys.argv[1:] + ["0", ""])[:3]
    sys.exit(_bench_pass(job, int(seed), role))
