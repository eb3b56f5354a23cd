"""One job of a workload, in a fresh interpreter.

``run.py`` starts this script once per job, with ``PYTHONPATH`` set to the
checkout's ``src`` and with empty module memos, as a CLI user starts
``mapglue``.  The worker builds its inputs, then repeats checked passes
for about ``--seconds`` (at least one pass; exactly one with
``--seconds 0``), and prints one JSON line:

    {"job", "role", "t_first", "passes", "attempted", "ops_per_pass",
     "failures", "rss_mb"}

``t_first`` is ``time.monotonic()`` when the first timed pass starts, so
the parent, which noted the same clock before it started the interpreter,
can tell the set-up time.  With ``--spans FILE`` the worker traces every
call into mapglue and writes its spans there at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import mapglue

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("job")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--role", default="")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    here = os.path.realpath(mapglue.__file__)
    if not here.startswith(os.path.realpath(SRC) + os.sep):
        print(f"mapglue was imported from {here}, not from {SRC}",
              file=sys.stderr)
        return 2

    from spans import Tracer
    from workloads import JOBS, Verdicts

    tr = Tracer(args.spans is not None)
    verdicts = Verdicts()
    job = JOBS[args.job](args.seed, tr, args.role)
    job.setup(verdicts)

    t_first = time.monotonic()
    passes = []
    while True:
        t = time.perf_counter()
        job.run_pass(verdicts)
        passes.append(time.perf_counter() - t)
        # a further pass would end more than half a pass after the share
        if time.monotonic() - t_first + passes[-1] / 2 >= args.seconds:
            break
    if args.spans:
        tr.dump(args.spans)
    print(json.dumps({
        "job": args.job,
        "role": args.role,
        "t_first": t_first,
        "passes": passes,
        "attempted": len(verdicts.by_op),
        "ops_per_pass": job.ops_per_pass,
        "failures": verdicts.failures(),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
