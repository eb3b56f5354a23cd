"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Each test prints ``criterion N (...): PASS`` or ``FAIL`` before asserting,
so a plain ``pytest -v -s tests/test_acceptance.py`` doubles as a report.
Where a criterion is a ``mapglue verify`` suite, the test runs that suite
from :mod:`mapglue.verify` and asserts that every record of it is ok.
"""

import io
import contextlib

from mapglue.bubbles import (Circuit, bubble_canonical_key, bubble_rerooted,
                             glue_bridgeless)
from mapglue.cli import main
from mapglue.counting import count_bubble, count_tree_decorated
from mapglue.enumeration import (brute_count_decorated,
                                 enumerate_boundary_maps, enumerate_maps,
                                 tree_submaps)
from mapglue.maps import BoundaryMap
from mapglue.sampler import (SampleSpec, export_decorated,
                             sample_tree_decorated, tree_marginal_test)
from mapglue.series import series_S
from mapglue.trees import catalan, contour_to_tree, enumerate_trees
from mapglue.verify import SUITES, _grid


def _report(n, name, ok):
    print(f"criterion {n} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n} ({name}) failed"


def _records(suite, cap=5, select=lambda line: True):
    """The ``(line, ok)`` records of a verification suite shared with
    ``mapglue verify`` whose line ``select`` accepts."""
    return [(line, ok) for line, ok in SUITES[suite](cap) if select(line)]


def _passed(records):
    """At least one record, and every one ok; failed lines are printed."""
    failed = [line for line, ok in records if not ok]
    for line in failed:
        print(line)
    return bool(records) and not failed


def test_criterion_1_round_trip_bijection():
    _report(1, "round-trip bijection", _passed(_records("roundtrip", 6)))


def test_criterion_2_counting_identity():
    ok = True
    for q in (3, 4):
        for f, m in _grid(q):
            brute = brute_count_decorated(q, f=f, tree_sizes=[m],
                                          root_mode="on-tree")
            cat = enumerate_boundary_maps(q=q, f=f, perimeter=2 * m,
                                          simple=True)
            ok &= brute == catalan(m) * len(cat)
    _report(2, "decorated = catalan x simple-boundary", ok)


def test_criterion_3_closed_formulas():
    ok = count_tree_decorated(3, 2, 1) == 9
    ok &= count_tree_decorated(4, 1, 1) == 4
    anywhere = _records("counts", select=lambda line: line.startswith(
        "decorated ") and " anywhere:" in line)
    ok &= len(anywhere) == sum(1 for q in (3, 4) for _ in _grid(q))
    ok &= _passed(anywhere)
    _report(3, "closed formulas vs oracle", ok)


def test_criterion_4_spanning_identities():
    identities = _records("counts", select=lambda line: line.startswith(
        ("spanning ", "mullin ")))
    ok = len(identities) == 4 + 3  # spanning f = 1..4, mullin e = 1..3
    ok &= _passed(identities)
    # the known closed-form divergence must be surfaced by the CLI
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "--suite", "counts"])
    text = out.getvalue()
    ok &= code == 0
    ok &= any(ln.startswith("flagged divergence: spanning triangulations")
              for ln in text.splitlines())
    _report(4, "spanning identities and flagged divergence", ok)


def test_criterion_5_series():
    _report(5, "series coefficients and substitution identity",
            _passed(_records("series")))


def test_criterion_6_general_decorated_counts():
    s = series_S(5, 10)
    ok = True
    for ge in range(1, 6):
        for m in range(1, ge + 1):
            if ge + m > 5:
                continue
            brute = 0
            for pm in enumerate_maps(ge).maps():
                root_edge = pm.edge_of(pm.root)
                brute += sum(1 for sub in tree_submaps(pm, m)
                             if root_edge in sub)
            ok &= brute == catalan(m) * int(s.coeff(ge + m, 2 * m))
    _report(6, "catalan(m) x s_(e+m,2m) identity", ok)


def test_criterion_7_bubble_bijection():
    ok = _passed(_records("bubbles", 4))
    for e, m in ((0, 1), (1, 1), (2, 1), (0, 2)):
        keys = set()
        for pm in enumerate_maps(e + 2 * m).maps():
            bm = BoundaryMap(pm)
            if bm.perimeter != 2 * m or not bm.is_bridgeless():
                continue
            for path in enumerate_trees(m):
                bubble, circuit = glue_bridgeless(bm, contour_to_tree(path))
                for g in bubble.darts():
                    nb, mapping = bubble_rerooted(bubble, g)
                    nc = Circuit(nb, tuple(mapping[d]
                                           for d in circuit.darts))
                    keys.add(bubble_canonical_key(nb, nc, cyclic=True))
        ok &= len(keys) == count_bubble(e, m)
    _report(7, "bubble bijection and counts", ok)


def test_criterion_8_rerooting_identity():
    _report(8, "re-rooting identity", _passed(_records("rerooting")))


def test_criterion_9_integrality():
    _report(9, "generalized catalan integrality",
            _passed(_records("integrality")))


def test_criterion_10_sampler():
    ok = True
    for q, f, m in ((4, 1, 1), (3, 2, 1), (4, 2, 2)):
        spec = SampleSpec(q, f, m, seed=20260823, count=100000)
        draws = sample_tree_decorated(spec)
        support = {}
        for tdm in draws:
            key = export_decorated(tdm)
            support[key] = support.get(key, 0) + 1
        ok &= len(support) == count_tree_decorated(q, f, m, "on-tree")
        if len(support) > 1:
            from scipy.stats import chisquare
            _, pvalue = chisquare(list(support.values()))
            ok &= pvalue > 0.001
        report = tree_marginal_test(spec, drawn=draws[:20000])
        ok &= report.passed
    spec = SampleSpec(4, 2, 2, seed=7, count=200)
    text_a = "".join(export_decorated(t) for t in sample_tree_decorated(spec))
    text_b = "".join(export_decorated(t) for t in sample_tree_decorated(spec))
    ok &= text_a == text_b
    _report(10, "sampler uniformity and determinism", ok)
