import random

import pytest

from mapglue.enumeration import enumerate_maps
from mapglue.errors import NotDyck
from mapglue.trees import (DyckPath, catalan, class_starts, contour_to_tree,
                           enumerate_trees, sample_dyck_uniform,
                           tree_to_contour)


def test_dyck_validation():
    DyckPath((1, -1))
    DyckPath((1, 1, -1, -1))
    with pytest.raises(NotDyck):
        DyckPath((1, -1, -1, 1))
    with pytest.raises(NotDyck):
        DyckPath((1, 1, -1))
    with pytest.raises(NotDyck):
        DyckPath((1, 0, -1, -1))


def test_words():
    path = DyckPath.from_word("UUDUDD")
    assert path.to_word() == "UUDUDD"
    assert path.m == 3
    assert path.heights() == (0, 1, 2, 1, 2, 1, 0)
    with pytest.raises(NotDyck):
        DyckPath.from_word("UX")


def test_catalan():
    assert [catalan(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]


def test_enumerate_trees_counts():
    for m in range(1, 7):
        paths = enumerate_trees(m)
        assert len(paths) == catalan(m)
        assert len({p.to_word() for p in paths}) == catalan(m)


def test_contour_round_trip():
    for m in range(1, 6):
        for path in enumerate_trees(m):
            tree = contour_to_tree(path)
            assert tree.edge_count == m
            assert tree.face_count == 1
            assert tree_to_contour(tree) == path


def test_tree_to_contour_refuses_maps_that_are_no_tree():
    """tree_to_contour builds its path without a Dyck check: its contour
    walk raises NotDyck on every map with more than one face, and the
    steps it reads off a tree pass the check."""
    for e in (1, 2, 3):
        for pm in enumerate_maps(e).maps():
            if pm.face_count > 1:
                with pytest.raises(NotDyck):
                    tree_to_contour(pm)
                continue
            path = tree_to_contour(pm)
            assert DyckPath(path.steps) == path
            assert (contour_to_tree(path).canonical_code()
                    == pm.canonical_code())


def test_contour_classes_partition():
    path = DyckPath.from_word("UUDD")
    starts = class_starts(path.steps)
    # every position lies in one class, named by its first position
    assert len(starts) == 2 * path.m + 1
    assert all(starts[s] == s <= p for p, s in enumerate(starts))
    # vertices of the tree = classes of the contour
    assert len(set(starts)) == contour_to_tree(path).vertex_count


def test_contour_classes_identifications():
    # UDUD: positions 0, 2, 4 all sit at height 0 on the same vertex
    starts = class_starts(DyckPath.from_word("UDUD").steps)
    assert [p for p, s in enumerate(starts) if s == 0] == [0, 2, 4]


def test_contour_classes_match_the_definition():
    """On every Dyck path with m <= 7: i <= j are one class exactly when
    C(i) = C(j) = min C on [i, j], and the tree's rotation takes each
    position below 2m to the next one of its class, the last one back to
    the first."""
    for m in range(1, 8):
        for path in enumerate_trees(m):
            c = path.heights()
            starts = [min(i for i in range(j + 1)
                          if c[i] == c[j] == min(c[i:j + 1]))
                      for j in range(2 * m + 1)]
            assert class_starts(path.steps) == starts
            assert len(set(starts)) == m + 1
            tree = contour_to_tree(path)
            for p in range(2 * m):
                later = [j for j in range(p + 1, 2 * m)
                         if starts[j] == starts[p]]
                assert tree.sigma[p] == (later or starts[p:p + 1])[0] + 1


def test_sampling_is_valid_and_deterministic():
    rng = random.Random(12345)
    for _ in range(50):
        path = sample_dyck_uniform(4, rng)
        assert path.m == 4
    a = sample_dyck_uniform(5, random.Random("99"))
    b = sample_dyck_uniform(5, random.Random("99"))
    assert a == b


def test_sampling_covers_support():
    rng = random.Random(7)
    seen = {sample_dyck_uniform(3, rng).to_word() for _ in range(500)}
    assert len(seen) == catalan(3)


def test_small_trees_are_shared():
    from mapglue import trees
    trees._memo_tree.cache_clear()
    for m in (1, 6, 7):
        for path in enumerate_trees(m)[:20]:
            tree = contour_to_tree(path)
            again = contour_to_tree(DyckPath(path.steps))
            assert again == tree == trees._tree(path.steps)
            assert (again is tree) == (m <= 6)
    assert trees._memo_tree.cache_info().currsize == 1 + 20
