"""Work counted in executed Python lines.

:func:`count_lines` counts the ``line`` events that ``sys.settrace``
reports while a call runs, in every Python frame the call enters.  The
count is exact and repeats on any host, so it shows how a kernel's work
grows with its input without timing noise.  Work done inside C calls
(``sorted``, ``x in list``, slicing, big-integer arithmetic) is not
counted.

Run as a script, it prints the lines of one pass of a bench job, such as
the ``oracle`` workload's round-trip group; with ``--by-function`` it
also prints the 15 functions that ran the most lines of the pass:

    PYTHONPATH=src python3 tests/linecount.py oracle.roundtrip [SEED [ROLE]]
        [--by-function]
"""

from __future__ import annotations

import os
import sys
from collections import Counter

TOP = 15  # the functions --by-function prints


def count_lines(fn, *args, per_code: Counter | None = None):
    """``(fn(*args), lines)``: the result of the call and the Python lines
    it executed.  With ``per_code``, each line is also counted there under
    the code object that ran it.  The trace function in place before the
    call is restored after it."""
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return local

    def local_per_code(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
            per_code[frame.f_code] += 1
        return local_per_code

    tracer = local if per_code is None else local_per_code
    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: tracer)
    try:
        result = fn(*args)
    finally:
        sys.settrace(previous)
    return result, lines


def _function_name(code) -> str:
    """``module:qualified name`` of a code object, the module named by its
    file."""
    module = os.path.splitext(os.path.basename(code.co_filename))[0]
    return f"{module}:{code.co_qualname}"


def _bench_pass(job: str, seed: int, role: str, by_function: bool) -> int:
    """Print the lines of the set-up and then of one pass of the bench
    job ``job`` (a key of ``bench/workloads.JOBS``, run as ``role``), in a
    process whose module memos are empty, and with ``by_function`` the
    pass's lines of its busiest functions.  The ``sample`` job reads its
    catalog directory from MAPGLUE_CATALOG_DIR."""
    bench = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "bench")
    sys.path.insert(0, bench)
    from spans import Tracer
    from workloads import JOBS, Verdicts

    verdicts = Verdicts()
    runner = JOBS[job](seed, Tracer(False), role)
    _, setup = count_lines(runner.setup, verdicts)
    per_code: Counter | None = Counter() if by_function else None
    _, run = count_lines(runner.run_pass, verdicts, per_code=per_code)
    print(f"{job} seed {seed}: set-up {setup:,} lines, pass {run:,} lines, "
          f"{len(verdicts.failures())} of {len(verdicts.by_op)} failed")
    if per_code is not None:
        by_name: Counter = Counter()
        for code, n in per_code.items():
            by_name[_function_name(code)] += n
        for name, n in by_name.most_common(TOP):
            print(f"{n:>12,} {n / run:6.1%}  {name}")
    return 0


if __name__ == "__main__":
    args = sys.argv[1:]
    by_function = "--by-function" in args
    job, seed, role = ([a for a in args if a != "--by-function"]
                       + ["0", ""])[:3]
    sys.exit(_bench_pass(job, int(seed), role, by_function))
