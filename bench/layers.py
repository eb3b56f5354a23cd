"""Per-layer metrics of a traced run.

The layers are mapglue's modules.  Each metric is computed from the spans
and counters that traced worker processes wrote, and carries the figures
it should move, as ``figure@workload`` with the figure names of
``run.FIGURE_UNITS``.  ``BENCHMARK.json`` lists the same metric names
with their units; ``bench/tests/test_bench.py`` keeps the two in step.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from spans import self_times

ANY = object()  # a tag filter that accepts every tag
SIZE_CLASSES = ("small", "m150", "m300", "m600")
GROWTH_SIZES = (150, 300, 600)
SPHERES = ("one", "multi")


class Summary:
    """Spans and counters of the traced processes of one run."""

    def __init__(self):
        self.self_s: dict[tuple[str, object], list[float]] = defaultdict(list)
        self.counts: dict[str, int] = defaultdict(int)

    def add(self, dump: dict) -> None:
        for name, tag, s in self_times(dump["spans"]):
            self.self_s[name, tag].append(s)
        for k, n in dump["counts"].items():
            self.counts[k] += n
        for k, n in dump["sizes"].items():
            self.counts[k] = max(self.counts[k], n)

    def times(self, name: str, tag=ANY) -> list[float]:
        if tag is not ANY:
            return self.self_s.get((name, tag), [])
        return [s for (n, _), v in self.self_s.items() if n == name for s in v]

    def calls(self, name, tag=ANY) -> int:
        return len(self.times(name, tag))

    def total(self, name, tag=ANY) -> float:
        return sum(self.times(name, tag))

    def p50(self, name, tag=ANY, scale=1.0) -> float:
        t = self.times(name, tag)
        return statistics.median(t) * scale if t else 0.0

    def growth_exponent(self) -> float:
        """Least-squares slope of log(p50 glue time) over log(m)."""
        pts = [(math.log(m), math.log(p)) for m in GROWTH_SIZES
               if (p := self.p50("bijection.glue", f"m{m}")) > 0]
        if len(pts) < 2:
            return 0.0
        mx = sum(x for x, _ in pts) / len(pts)
        my = sum(y for _, y in pts) / len(pts)
        return (sum((x - mx) * (y - my) for x, y in pts)
                / sum((x - mx) ** 2 for x, _ in pts))


def _table():
    """(name, unit, better, moves, value function) for every metric."""
    rows = []

    def row(name, unit, better, moves, fn):
        rows.append((name, unit, better, moves, fn))

    def span_row(name, stat, moves, tag=ANY, span=None):
        span = span or name
        if stat == "calls":
            row(f"{name}.calls", "count", "lower", moves,
                lambda s: s.calls(span, tag))
        elif stat == "self_s":
            row(f"{name}.self_s", "s", "lower", moves,
                lambda s: s.total(span, tag))
        elif stat == "p50_ms":
            row(f"{name}.p50_ms", "ms", "lower", moves,
                lambda s: s.p50(span, tag, 1e3))
        else:
            row(f"{name}.p50_us", "us", "lower", moves,
                lambda s: s.p50(span, tag, 1e6))

    m = ["setup_s@large", "setup_s@bubbles"]
    span_row("maps.build_map", "calls", m)
    span_row("maps.build_map", "self_s", m)
    m = ["roundtrip_s@oracle", "bubble_rt_per_s@bubbles"]
    span_row("maps.canonical_code", "calls", m, tag=None)
    span_row("maps.canonical_code", "self_s", m, tag=None)
    for fn in ("enumerate_trees", "contour_to_tree", "tree_to_contour"):
        span_row(f"trees.{fn}", "self_s", m)
    m = ["roundtrip_s@oracle", "counts_s@oracle", "setup_s@bubbles"]
    for e in range(1, 7):
        name = f"enumeration.enumerate_maps.e{e}"
        span_row(name, "self_s", m, tag=f"e{e}",
                 span="enumeration.enumerate_maps")
        row(f"{name}.maps", "count", "higher", m,
            lambda s, k=f"{name}.maps": s.counts[k])
    m = ["roundtrip_s@oracle", "setup_s@sample", "setup_s@bubbles"]
    span_row("enumeration.Catalog.maps", "self_s", m)
    row("enumeration.Catalog.maps.entries", "count", "lower", m,
        lambda s: s.counts["enumeration.Catalog.maps.entries"])
    m = ["roundtrip_s@oracle"]
    span_row("enumeration.enumerate_boundary_maps", "self_s", m)
    span_row("enumeration.tree_submaps", "calls", m)
    span_row("enumeration.tree_submaps", "self_s", m)
    row("enumeration.tree_submaps.hit_ratio", "ratio", "higher", m,
        lambda s: (s.counts["enumeration.tree_submaps.found"]
                   / max(1, s.counts["enumeration.tree_submaps.tried"])))
    m = ["counts_s@oracle"]
    span_row("enumeration.brute_count_decorated", "calls", m)
    span_row("enumeration.brute_count_decorated", "self_s", m)
    m = ["setup_s@sample", "warm_setup_s@sample"]
    row("enumeration.get_catalog.build_s", "s", "lower", m,
        lambda s: s.total("enumeration.get_catalog", "build"))
    row("enumeration.get_catalog.load_s", "s", "lower", m,
        lambda s: s.total("enumeration.get_catalog", "load"))
    span_row("counting.count_tree_decorated", "self_s",
             ["counts_s@oracle (control: predicted negligible)"])
    m = ["series_s@oracle"]
    for fn in ("series_S", "series_B", "substitute"):
        span_row(f"series.{fn}", "self_s", m)
    m = ["roundtrips_per_s@large", "roundtrip_s@oracle"]
    for fn in ("unglue", "glue"):
        for size in SIZE_CLASSES:
            for stat in ("calls", "self_s", "p50_ms"):
                span_row(f"bijection.{fn}.{size}", stat, m, tag=size,
                         span=f"bijection.{fn}")
    row("bijection.glue.growth_exponent", "slope", "lower", m,
        Summary.growth_exponent)
    m = ["roundtrips_per_s@large"]
    span_row("bijection.glue_partial", "self_s", m)
    span_row("bijection.glue_forest", "self_s", m)
    m = ["bubble_rt_per_s@bubbles"]
    for fn in ("glue_bridgeless", "is_non_crossing", "circuit_to_contour",
               "unglue_bubble"):
        for sph in SPHERES:
            for stat in ("self_s", "p50_ms"):
                span_row(f"bubbles.{fn}.{sph}", stat, m, tag=sph,
                         span=f"bubbles.{fn}")
    m = ["fail_ratio@bubbles"]
    for key in ("bubbles.glue_bridgeless.raised",
                "bubbles.is_non_crossing.false_verdicts"):
        row(key, "count", "lower", m, lambda s, k=key: s.counts[k])
    m = ["draws_per_s@sample"]
    span_row("sampler.draw_tree_decorated", "calls", m)
    span_row("sampler.draw_tree_decorated", "self_s", m)
    span_row("sampler.draw_tree_decorated", "p50_us", m)
    span_row("sampler.export_decorated", "self_s", m)
    return rows


TABLE = _table()
OVERHEAD = ("trace.overhead_ratio", "ratio", "lower",
            ["tracing overhead: traced pass time / untraced pass time - 1"])


def per_layer(summary: Summary, overhead: float) -> dict[str, dict]:
    out = {name: {"value": float(fn(summary)), "unit": unit, "moves": moves}
           for name, unit, _, moves, fn in TABLE}
    name, unit, _, moves = OVERHEAD
    out[name] = {"value": overhead, "unit": unit, "moves": moves}
    return out


def benchmark_entries() -> list[dict]:
    """The ``per_layer`` list of BENCHMARK.json."""
    rows = [(n, u, b) for n, u, b, _, _ in TABLE] + [OVERHEAD[:3]]
    return [{"name": n, "unit": u, "better": b} for n, u, b in rows]
