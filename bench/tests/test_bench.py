"""Tests of the benchmark itself: seeded generators, failure accounting,
and the per-layer metric list."""

import json
import os

import pytest

import gen
import layers
import run
from mapglue.bubbles import detect_wicked
from mapglue.maps import BoundaryMap, map_from_line
from mapglue.trees import DyckPath, contour_to_tree
from spans import Tracer, self_times
from workloads import (KNOWN_CROSSING, KNOWN_DISCONNECTED, OK, BubblesJob,
                       Verdicts)

# The first documented defect: glue_bridgeless raises Disconnected on this
# six-edge input although detect_wicked finds no wicked vertex.
DISCONNECTED_BOUNDARY = ("map E=6 root=1 sigma=2,1,5,6,7,8,9,10,3,11,12,4 "
                         "alpha=3,4,1,2,7,9,5,10,6,8,12,11")
DISCONNECTED_TREE = "UDUUDD"
# The second: is_non_crossing is False on this six-edge gluing (two
# spheres) although the round trip is exact.
CROSSING_BOUNDARY = ("map E=6 root=1 sigma=2,1,5,3,6,7,8,9,10,4,12,11 "
                     "alpha=3,4,1,2,6,5,8,7,11,12,9,10")
CROSSING_TREE = "UUUDDD"


def _large_fingerprint(cases):
    return [(c.m, c.decorated.map, sorted(c.decorated.tree_edges), c.path,
             c.boundary.map, c.small_tree, c.multi.map, c.multi.roots,
             c.forest, c.forest_code) for c in cases]


def _bubble_fingerprint(cases):
    return [(c.name, c.boundary.map, c.path, c.spheres) for c in cases]


def test_large_generator_is_deterministic():
    a = gen.large_cases(7, Tracer(False))
    assert _large_fingerprint(a) == _large_fingerprint(
        gen.large_cases(7, Tracer(False)))
    assert _large_fingerprint(a) != _large_fingerprint(
        gen.large_cases(8, Tracer(False)))
    assert [c.m for c in a] == list(gen.LARGE_SIZES)


def test_joined_disc_generator_is_deterministic():
    a = gen.joined_disc_cases(7, Tracer(False))
    assert _bubble_fingerprint(a) == _bubble_fingerprint(
        gen.joined_disc_cases(7, Tracer(False)))
    assert _bubble_fingerprint(a) != _bubble_fingerprint(
        gen.joined_disc_cases(8, Tracer(False)))
    pinch = [c.spheres for c in a if c.name.endswith("pinch")]
    assert pinch == list(gen.JOIN_COUNTS)


def test_expected_spheres_agrees_with_detect_wicked():
    for case in gen.joined_disc_cases(3, Tracer(False)):
        # only the join vertex recurs on these boundaries, so every extra
        # occurrence in its contour class pinches off one sphere
        wicked = detect_wicked(case.boundary, case.tree)
        assert case.spheres == 1 + sum(len(pos) - 1 for _, pos in wicked)


def _bubbles_job(cases):
    job = BubblesJob(0, Tracer(False), "")
    job.cases = cases
    job.ops_per_pass = len(cases)
    return job


def test_documented_disconnected_input_is_in_the_workload():
    bm = BoundaryMap(map_from_line(DISCONNECTED_BOUNDARY))
    job = BubblesJob(0, Tracer(False), "")
    job.setup(Verdicts())
    code = bm.map.canonical_code()
    path = DyckPath.from_word(DISCONNECTED_TREE)
    assert any(c.boundary_code == code and c.path == path for c in job.cases)
    six_edge = [c for c in job.cases if c.name.startswith("e6-")]
    assert len(six_edge) == 6096


def _six_edge_case(name, line, word):
    bm = BoundaryMap(map_from_line(line))
    path = DyckPath.from_word(word)
    return gen.BubbleCase(name, bm, bm.map.canonical_code(), path,
                          contour_to_tree(path),
                          gen.expected_spheres(gen.head_vertices(bm), path))


def test_known_failures_are_counted():
    discs = {c.name: c for c in gen.joined_disc_cases(1, Tracer(False))}
    job = _bubbles_job([
        _six_edge_case("disconnected", DISCONNECTED_BOUNDARY,
                       DISCONNECTED_TREE),
        _six_edge_case("crossing", CROSSING_BOUNDARY, CROSSING_TREE),
        discs["k3-pinch"], discs["k2-pinch"], discs["k3-uniform"]])
    v = Verdicts()
    job.run_pass(v)
    assert v.by_op == {"disconnected": KNOWN_DISCONNECTED,
                       "crossing": KNOWN_CROSSING,
                       "k3-pinch": KNOWN_CROSSING,
                       "k2-pinch": OK, "k3-uniform": OK}
    assert len(v.failures()) == 3


def test_changed_verdict_is_unexpected():
    v = Verdicts()
    v.put("a", OK)
    v.put("a", KNOWN_CROSSING)
    assert v.by_op["a"].startswith("unexpected:")


def test_replicas_must_agree():
    def proc(failures):
        p = run.Proc("large", 0)
        p.result = {"attempted": 9, "failures": failures}
        return p

    attempted, failures, problems = run.tally(
        [proc({}), proc({"x": KNOWN_CROSSING})])
    assert attempted == 9 and problems


def test_self_time_subtracts_children():
    rows = [["op", None, 0.0, 10.0, -1], ["a", None, 1.0, 4.0, 0],
            ["b", None, 5.0, 6.0, 0], ["c", None, 2.0, 3.0, 1]]
    assert self_times(rows) == [("op", None, 6.0), ("a", None, 2.0),
                                ("b", None, 1.0), ("c", None, 1.0)]


def test_per_layer_list_matches_benchmark_json():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    assert spec["per_layer"] == layers.benchmark_entries()
    traced = layers.per_layer(layers.Summary(), 0.0)
    assert list(traced) == [m["name"] for m in spec["per_layer"]]
