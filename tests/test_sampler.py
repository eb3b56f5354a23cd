from itertools import count

import pytest

from mapglue.bijection import glue, unglue
from mapglue.counting import count_tree_decorated
from mapglue.enumeration import get_catalog
from mapglue.errors import FormatError, Infeasible
from mapglue.maps import BoundaryMap
from mapglue.sampler import (SampleSpec, _decoded, draw_tree_decorated,
                             export_decorated, parse_decorated,
                             sample_tree_decorated, tree_marginal_test)
from mapglue.trees import contour_to_tree, enumerate_trees, tree_to_contour

from relabelling import canonical_relabelling, relabel


def _support(draws):
    return {export_decorated(t) for t in draws}


def test_support_and_validity():
    spec = SampleSpec(q=4, f=1, m=1, seed=1, count=400)
    draws = sample_tree_decorated(spec)
    assert len(draws) == 400
    for tdm in draws[:20]:
        assert tdm.root_on_tree
        # gluing closes the boundary: only the internal quad face remains
        assert tdm.map.face_count == 1
        assert tdm.map.edge_count == 2
    assert len(_support(draws)) == count_tree_decorated(4, 1, 1, "on-tree")


def test_support_three_cell():
    spec = SampleSpec(q=3, f=2, m=1, seed=2, count=600)
    assert len(_support(sample_tree_decorated(spec))) == \
        count_tree_decorated(3, 2, 1, "on-tree")


def test_determinism_and_index_independence():
    spec = SampleSpec(q=4, f=2, m=2, seed=42, count=30)
    a = sample_tree_decorated(spec)
    b = sample_tree_decorated(spec)
    assert a == b
    # draw i does not depend on the other draws
    assert draw_tree_decorated(spec, 17) == a[17]
    text_a = "".join(export_decorated(t) for t in a)
    text_b = "".join(export_decorated(t) for t in b)
    assert text_a == text_b


def test_different_seeds_differ():
    base = SampleSpec(q=4, f=2, m=2, seed=1, count=50)
    other = SampleSpec(q=4, f=2, m=2, seed=2, count=50)
    assert sample_tree_decorated(base) != sample_tree_decorated(other)


def test_infeasible_spec():
    with pytest.raises(Infeasible):
        sample_tree_decorated(SampleSpec(q=4, f=1, m=9, seed=0, count=1))


def test_tree_marginal_single_cell():
    report = tree_marginal_test(SampleSpec(q=4, f=1, m=1, seed=3, count=50))
    assert report.pvalue == 1.0
    assert report.passed
    assert report.draws == 50


def test_tree_marginal_two_cells():
    report = tree_marginal_test(SampleSpec(q=4, f=2, m=2, seed=4,
                                           count=4000))
    assert len(report.cells) == 2
    assert report.draws == 4000
    assert report.passed


def test_tree_marginal_takes_the_draws_given():
    spec = SampleSpec(q=4, f=2, m=2, seed=8, count=2000)
    drawn = sample_tree_decorated(spec)
    report = tree_marginal_test(spec, drawn=drawn)
    assert report == tree_marginal_test(spec)
    assert report.draws == 2000 and report.passed


def test_tree_marginal_rejects_a_biased_sample():
    """Each UUDD draw counted twice makes that tree twice as likely as
    UDUD: 1,000 draws against 2,000 no longer pass as uniform.  The first
    1,000 draws of each tree are taken, however many draws that needs."""
    spec = SampleSpec(q=4, f=2, m=2, seed=3, count=2000)
    drawn = sample_tree_decorated(spec)
    assert tree_marginal_test(spec, drawn=drawn).passed
    first: dict[str, list] = {"UDUD": [], "UUDD": []}
    for i in count():
        if all(len(tdms) == 1000 for tdms in first.values()):
            break
        tdm = drawn[i] if i < len(drawn) else draw_tree_decorated(spec, i)
        tdms = first[tree_to_contour(unglue(tdm)[0]).to_word()]
        if len(tdms) < 1000:
            tdms.append(tdm)
    biased = first["UDUD"] + 2 * first["UUDD"]
    report = tree_marginal_test(spec, drawn=biased)
    assert dict(report.cells) == {"UDUD": 1000, "UUDD": 2000}
    assert report.pvalue < 1e-70 and not report.passed


@pytest.mark.parametrize("q, f, m", [(4, 1, 1), (3, 2, 1), (4, 2, 2),
                                     (4, 4, 2)])
def test_every_rank_decodes_to_its_own_decorated_map(q, f, m):
    """The decoding of the ranks 0..N-1, N the number of decorated maps,
    is a bijection onto them: N distinct exports, each rank giving its
    catalog map glued with its tree, dart for dart."""
    n = count_tree_decorated(q, f, m, "on-tree")
    pool = get_catalog(q=q, f=f, perimeter=2 * m, simple=True).maps()
    trees = enumerate_trees(m)
    texts = set()
    for r in range(n):
        tdm = _decoded(pool, m, r)
        assert tdm == glue(BoundaryMap(pool[r // len(trees)]),
                           contour_to_tree(trees[r % len(trees)])), r
        texts.add(export_decorated(tdm))
    assert len(texts) == n


def test_export_parse_round_trip():
    spec = SampleSpec(q=3, f=2, m=2, seed=6, count=10)
    for tdm in sample_tree_decorated(spec):
        text = export_decorated(tdm)
        again = parse_decorated(text)
        assert export_decorated(again) == text


def _reference_export(tdm):
    """export_decorated as a relabelled map: the canonical relabelling
    applied, its vertex cycles sorted and each rotated to its smallest
    dart."""
    image = canonical_relabelling(tdm.map)
    pmap = relabel(tdm.map, image)
    tree = sorted(min(image[e], image[tdm.map.alpha_of(e)])
                  for e in tdm.tree_edges)
    lines = [f"decorated vertices={pmap.vertex_count} "
             f"edges={pmap.edge_count} root={pmap.root}"]
    for cyc in sorted(pmap.vertices()):
        start = cyc.index(min(cyc))
        cyc = cyc[start:] + cyc[:start]
        pairs = " ".join(f"{d}/{pmap.alpha_of(d)}" for d in cyc)
        lines.append(f"vertex {cyc[0]}: {pairs}")
    lines.append("tree: " + ",".join(str(e) for e in tree))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("spec", [SampleSpec(4, 1, 1, 1, 40),
                                  SampleSpec(3, 2, 1, 2, 60),
                                  SampleSpec(4, 2, 2, 42, 60),
                                  SampleSpec(4, 3, 2, 7, 60)])
def test_export_matches_relabelled_map(spec):
    for tdm in sample_tree_decorated(spec):
        assert export_decorated(tdm) == _reference_export(tdm)


def test_export_golden():
    tdm = draw_tree_decorated(SampleSpec(q=4, f=1, m=1, seed=7, count=1), 0)
    text = export_decorated(tdm)
    lines = text.splitlines()
    assert lines[0].startswith("decorated vertices=")
    assert lines[-1].startswith("tree:")
    assert text.endswith("\n")


def test_export_errors():
    tdm = draw_tree_decorated(SampleSpec(q=4, f=1, m=1, seed=8, count=1), 0)
    with pytest.raises(FormatError):
        parse_decorated("nonsense")
    with pytest.raises(FormatError):
        parse_decorated("decorated vertices=1 edges=x root=1\n")
    with pytest.raises(FormatError):
        parse_decorated("decorated vertices=3 edges=2 root=1\n"
                        "vertex 1: 1/3 2/4\nvertex 3: 3/1\nvertex 4: 4/2\n")
    header = "decorated vertices=2 edges=1 root=1\n"
    edge = "vertex 1: 1/2\nvertex 2: 2/1\n"
    for text in ("decorated vertices=1 edges\n",
                 header + "vertex 1: 1/x\nvertex 2: 2/1\ntree: 1\n",
                 header + "vertex 1: 1\nvertex 2: 2/1\ntree: 1\n",
                 header + edge + "tree: a\n",
                 header + "vertex 1: 5/2\nvertex 2: 2/1\ntree: 1\n",
                 header + edge + "tree: 7\n"):
        with pytest.raises(FormatError):
            parse_decorated(text)
    # never written by export_decorated
    for text in ("decorated vertices=3 edges=1 root=1\n" + edge + "tree: 1\n",
                 "decorated edges=1 root=1\n" + edge + "tree: 1\n",
                 header + "vertex 2: 1/2\nvertex 2: 2/1\ntree: 1\n",
                 "decorated vertices=3 edges=1 root=1\n" + edge
                 + "vertex 2: 2/1\ntree: 1\n",
                 header + edge + "tree: 1\ntree: 1\n",
                 "decorated vertices=2 edges=1 root=1 colour=red\n" + edge
                 + "tree: 1\n",
                 header + "vertex 1 1/2\nvertex 2: 2/1\ntree: 1\n",
                 header + "vertex 1: 1 / 2\nvertex 2: 2/1\ntree: 1\n",
                 "decorated vertices=3 edges=2 root=1\nvertex 1: 1/2/3 4\n"
                 "vertex 2: 2/1\nvertex 4: 4/3\ntree: 1,3\n"):
        with pytest.raises(FormatError):
            parse_decorated(text)
    assert parse_decorated(header + edge + "tree: 1\n").tree_edges == {1}
