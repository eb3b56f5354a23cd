"""The mapglue benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it measures the mapglue sources in
the checkout's ``src``.  Workloads: ``oracle``, ``sample``, ``large`` and
``bubbles`` (see ``bench/README.md`` for what each one stresses and why).
Every job of a workload runs in a fresh interpreter started by this
script, one at a time, so each pays the imports and the module memos a
CLI command pays.  Inputs depend only on ``--seed``; every operation's
output is checked.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  The line before it, ``report: {...}``, adds provenance, the
per-workload figures named in ``FIGURE_UNITS``, the failures by
kind and, for a traced run, what each layer metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import layers

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(ROOT, "bench", "worker.py")
SCRATCH = os.path.join(ROOT, ".bench_run")
WORKLOADS = ("oracle", "sample", "large", "bubbles")
ORACLE_GROUPS = ("oracle.roundtrip", "oracle.counts", "oracle.series")
REPLICAS = 3      # fresh processes per job, for medians of set-up and passes
# Per-workload figures printed on the report line; README.md relates each
# one to the end-to-end metrics.
FIGURE_UNITS = {"roundtrip_s": "s", "counts_s": "s", "series_s": "s",
                "draws_per_s": "1/s", "warm_setup_s": "s",
                "roundtrips_per_s": "1/s", "bubble_rt_per_s": "1/s",
                "fail_ratio": "ratio"}
BUDGET_S = 170.0  # a run must end within 180 s


class BenchError(Exception):
    """The benchmark could not measure: a worker crashed or ran too long."""


@dataclass
class Proc:
    job: str
    seconds: float        # passes repeat for about this long
    role: str = ""        # "cold" or "warm" for sample
    traced: bool = False
    catalog: str = ""     # MAPGLUE_CATALOG_DIR, for sample only
    result: dict | None = None
    setup_s: float = 0.0


def plan(workload: str, seconds: float, trace: bool, tmp: str) -> list[Proc]:
    """The worker processes of one run, in the order they run.

    Untraced: every job ``REPLICAS`` times, splitting ``seconds`` between
    them; the oracle groups run once each, as one verdict.  Traced: each
    job once untraced and once traced, one pass each, for the overhead.
    """
    def catalog(name):
        path = os.path.join(tmp, name)
        os.mkdir(path)
        return path

    if workload == "oracle":
        procs = [Proc(g, 0) for g in ORACLE_GROUPS]
        if trace:
            procs += [Proc(g, 0, traced=True) for g in ORACLE_GROUPS]
        return procs
    if workload == "sample":
        if trace:
            traced_dir = catalog("traced")
            return [Proc("sample", 0, "cold", catalog=catalog("untraced")),
                    Proc("sample", 0, "cold", True, traced_dir),
                    Proc("sample", 0, "warm", True, traced_dir)]
        share = seconds / (2 * REPLICAS)
        cold = [Proc("sample", share, "cold", catalog=catalog(f"cold{i}"))
                for i in range(REPLICAS)]
        warm = [Proc("sample", share, "warm", catalog=cold[0].catalog)
                for _ in range(REPLICAS)]
        return cold + warm
    if trace:
        return [Proc(workload, 0), Proc(workload, 0, traced=True)]
    return [Proc(workload, seconds / REPLICAS) for _ in range(REPLICAS)]


def run_worker(p: Proc, seed: int, tmp: str, index: int,
               deadline: float) -> dict | None:
    env = {k: v for k, v in os.environ.items()
           if k not in ("MAPGLUE_CATALOG_DIR", "PYTHONPATH")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    if p.catalog:
        env["MAPGLUE_CATALOG_DIR"] = p.catalog
    cmd = [sys.executable, WORKER, p.job, "--seed", str(seed),
           "--seconds", repr(p.seconds), "--role", p.role]
    spans = None
    if p.traced:
        spans = os.path.join(tmp, f"spans{index}.json")
        cmd += ["--spans", spans]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for {p.job} within {BUDGET_S} s")
    t_spawn = time.monotonic()
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{p.job} did not finish within the "
                         f"{BUDGET_S} s budget") from exc
    if done.returncode != 0:
        raise BenchError(f"{p.job} ({p.role or 'default'}) exited with "
                         f"{done.returncode}:\n{done.stderr[-3000:]}")
    try:
        p.result = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"{p.job} printed no result") from exc
    p.setup_s = p.result["t_first"] - t_spawn
    if spans:
        with open(spans) as fh:
            return json.load(fh)
    return None


def tally(procs: list[Proc]) -> tuple[int, dict[str, str], list[str]]:
    """Attempted operations, failures, and unexpected findings.

    Processes of the same job check the same operations and must agree;
    different jobs check different operations and add up."""
    attempted = 0
    failures: dict[str, str] = {}
    problems: list[str] = []
    by_job: dict[str, list[dict]] = {}
    for p in procs:
        by_job.setdefault(p.job, []).append(p.result)
    for job, results in by_job.items():
        first = results[0]
        for r in results[1:]:
            if (r["attempted"], r["failures"]) != (first["attempted"],
                                                   first["failures"]):
                problems.append(f"{job}: processes disagree on the verdicts")
        attempted += first["attempted"]
        for key, verdict in first["failures"].items():
            failures[f"{job}:{key}"] = verdict
    problems += [f"{k}: {v}" for k, v in failures.items()
                 if not v.startswith("known:")]
    return attempted, failures, problems


def end_to_end(workload: str, procs: list[Proc], attempted: int,
               failed: int) -> tuple[dict, dict]:
    """The BENCHMARK.json end-to-end metrics and the per-workload figures
    of ``FIGURE_UNITS``."""
    passes = [s for p in procs for s in p.result["passes"]]
    figures = {"fail_ratio": failed / attempted}
    if workload == "oracle":
        group = {p.job: p.result["passes"][0] for p in procs}
        verdict = sum(group.values())
        for g in ORACLE_GROUPS:
            figures[g.split(".")[1] + "_s"] = group[g]
    else:
        # measured time over passes, so that the per-second figures are
        # operations over measured time
        verdict = sum(passes) / len(passes)
        per_pass = procs[0].result["ops_per_pass"]
        if workload == "sample":
            figures["draws_per_s"] = per_pass / verdict
            warm = [p.setup_s for p in procs if p.role == "warm"]
            if warm:  # a traced run times no warm process untraced
                figures["warm_setup_s"] = statistics.median(warm)
        else:
            name = ("roundtrips_per_s" if workload == "large"
                    else "bubble_rt_per_s")
            figures[name] = per_pass / verdict
    metrics = {
        "setup_s": (statistics.median(
            [p.setup_s for p in procs if p.role != "warm"]), "s"),
        "peak_rss_mb": (max(p.result["rss_mb"] for p in procs), "MB"),
        "pass_ratio": (1 - failed / attempted, "ratio"),
        "verdict_s": (verdict, "s"),
    }
    return ({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            {k: {"value": v, "unit": FIGURE_UNITS[k]}
             for k, v in figures.items()})


def traced_layers(procs: list[Proc], dumps: list[dict]) -> dict:
    summary = layers.Summary()
    for d in dumps:
        summary.add(d)
    untraced = sum(p.result["passes"][0] for p in procs
                   if not p.traced and p.role != "warm")
    traced = sum(p.result["passes"][0] for p in procs
                 if p.traced and p.role != "warm")
    return layers.per_layer(summary, traced / untraced - 1)


def provenance(args) -> dict:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "mapglue")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            sha = done.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass  # no usable git: the source digest still identifies the code
    return {"git_sha": sha, "source_sha256": digest.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mapglue", "__init__.py")):
        print(f"no mapglue sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    os.makedirs(SCRATCH, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=SCRATCH)
    try:
        procs = plan(args.workload, args.seconds, bool(args.trace), tmp)
        dumps = []
        for i, p in enumerate(procs):
            dump = run_worker(p, args.seed, tmp, i, deadline)
            if dump is not None:
                dumps.append(dump)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not os.listdir(SCRATCH):
            os.rmdir(SCRATCH)

    attempted, failures, problems = tally(procs)
    failed = len(failures)
    timed = [p for p in procs if not p.traced]
    metrics, figures = end_to_end(args.workload, timed, attempted, failed)
    report = {"provenance": provenance(args), "figures": figures,
              "failures_by_kind": _by_kind(failures),
              "unexpected": problems[:20],
              "setups_s": [round(p.setup_s, 4) for p in procs],
              "passes_s": [[round(s, 4) for s in p.result["passes"]]
                           for p in procs]}
    if args.trace:
        report["end_to_end"] = metrics
        metrics = traced_layers(procs, dumps)
        report["moves"] = {k: v.pop("moves") for k, v in metrics.items()}
    for name, m in {**report.get("end_to_end", metrics), **figures}.items():
        print(f"{name:>18} {m['value']:.6g} {m['unit']}")
    print("report: " + json.dumps(report))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _by_kind(failures: dict[str, str]) -> dict[str, int]:
    out: dict[str, int] = {}
    for verdict in failures.values():
        kind = verdict if verdict.startswith("known:") else "unexpected"
        out[kind] = out.get(kind, 0) + 1
    return out


if __name__ == "__main__":
    sys.exit(main())
