from fractions import Fraction

import pytest

from mapglue.counting import (catalan_ext, count_boundary_decorated,
                              count_boundary_decorated_tri_printed,
                              count_bubble, count_forest,
                              count_forest_printed, count_spanning,
                              count_spanning_forest,
                              count_spanning_forest_printed,
                              count_spanning_tri_printed,
                              count_tree_decorated, double_factorial,
                              legendre_valuation, multinomial, mullin_count,
                              oriented_edges, reroot_check,
                              verify_integrality)
from mapglue.enumeration import (brute_count_decorated, brute_count_forest,
                                 enumerate_boundary_maps)
from mapglue.errors import Infeasible
from mapglue.trees import catalan
from mapglue.verify import _grid


def test_small_helpers():
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(5) == 15
    assert double_factorial(7) == 105
    assert multinomial(4, (2, 1, 1)) == 12
    assert oriented_edges(3, 2) == 6
    assert oriented_edges(4, 2) == 8


def test_tree_decorated_anchors():
    assert count_tree_decorated(3, 2, 1) == 9
    assert count_tree_decorated(4, 1, 1) == 4
    assert count_tree_decorated(4, 1, 2, "on-tree") == 2


def test_tree_decorated_matches_oracle():
    for q, f, m in ((3, 2, 1), (3, 2, 2), (4, 1, 1), (4, 2, 1), (4, 2, 2),
                    # sphere pools of 8 and 9 edges, inside QANG_EDGE_CAP
                    (4, 4, 2), (4, 4, 5), (3, 6, 2), (3, 6, 4)):
        for mode in ("anywhere", "on-tree"):
            assert count_tree_decorated(q, f, m, mode) == \
                brute_count_decorated(q, f=f, tree_sizes=[m], root_mode=mode)


def test_infeasible_is_an_error_not_zero():
    with pytest.raises(Infeasible):
        count_tree_decorated(3, 1, 1)  # odd triangulations do not exist
    with pytest.raises(Infeasible):
        count_tree_decorated(4, 1, 5)  # tree larger than the map allows
    with pytest.raises(Infeasible):
        count_spanning(5, 1)


def test_spanning_anchors():
    assert count_spanning(4, 1, "anywhere") == 2
    assert count_spanning(4, 2, "on-tree") == 15
    assert count_spanning(3, 2, "anywhere") == 6
    for f in range(1, 5):
        assert count_spanning(4, f, "on-tree") == catalan_ext(2, f)


def test_spanning_tri_published_form_diverges():
    # the published dedicated formula is half the oracle value; both are
    # exposed, the corrected one is the default
    assert count_spanning_tri_printed(2) == 3
    assert count_spanning(3, 2) == 6
    assert count_spanning_tri_printed(4) == 70
    assert count_spanning(3, 4) == 140


def test_boundary_decorated():
    # m1 = 0 must reduce to the root-on-tree tree-decorated count
    for q, f in ((4, 1), (4, 2), (3, 2)):
        mmax = f // 2 + 1 if q == 3 else f + 1
        for m2 in range(1, mmax + 1):
            assert count_boundary_decorated(q, f, 0, m2) == \
                count_tree_decorated(q, f, m2, "on-tree")


def test_boundary_decorated_matches_oracle():
    # a boundary of m1 edges left bare plus an m2-edge tree: catalan(m2)
    # trees on each simple boundary of perimeter 2 (m1 + m2)
    cells = 0
    for q in (3, 4):
        for f, m in _grid(q):
            if (q * f + 2 * m) // 2 > 8:
                continue
            simple = len(enumerate_boundary_maps(q=q, f=f, perimeter=2 * m,
                                                 simple=True))
            for m1 in range(m + 1):
                assert count_boundary_decorated(q, f, m1, m - m1) == \
                    catalan(m - m1) * simple, (q, f, m1)
                cells += 1
    assert cells == 29


def test_boundary_decorated_tri_published_form_diverges():
    # the published denominator (2 m2 + 1) is not even always integral
    assert count_boundary_decorated_tri_printed(2, 0, 2) == Fraction(12, 5)
    assert count_boundary_decorated(3, 2, 0, 2) == 4
    assert count_boundary_decorated_tri_printed(2, 0, 1) == 2
    assert count_boundary_decorated(3, 2, 0, 1) == 3


def test_forest_counts_match_oracle():
    # unlabeled, equal sizes divide the ordered count: by 2! and by 3!
    for q, f, sizes in ((4, 2, [1, 1]), (4, 3, [1, 1]), (4, 3, [1, 2]),
                        (3, 4, [1, 1]), (4, 4, [2, 2]), (4, 4, [1, 1, 1]),
                        (4, 4, [1, 2]), (4, 4, [3, 1]), (3, 6, [1, 2])):
        for labeled in (False, True):
            assert count_forest(q, f, sizes, rooted_labeled=labeled) == \
                brute_count_forest(q, f, sizes, rooted_labeled=labeled), \
                (q, f, sizes, labeled)
    # out-of-domain parameters are an error, and indeed nothing exists there
    with pytest.raises(Infeasible):
        count_forest(3, 4, [1, 2])
    assert brute_count_forest(3, 4, [1, 2], rooted_labeled=False) == 0


def test_forest_published_symmetry_factor_diverges():
    # r!/prod(c_k!) doubles the oracle for two distinguishable trees
    assert count_forest(4, 2, [1, 1]) == 6
    assert count_forest_printed(4, 2, [1, 1]) == 12


def test_spanning_forest():
    assert count_spanning_forest(4, 2, [3]) == 20
    assert count_spanning_forest(3, 2, [2]) == 6
    assert count_spanning_forest(4, 1, [2]) == 2
    with pytest.raises(Infeasible):
        count_spanning_forest(4, 2, [1])  # not spanning


def test_spanning_forest_published_tri_form_diverges():
    assert count_spanning_forest_printed(3, 2, [2]) == 30
    assert count_spanning_forest(3, 2, [2]) == 6
    # the quadrangulation published form agrees
    assert count_spanning_forest_printed(4, 2, [3]) == \
        count_spanning_forest(4, 2, [3]) == 20


def test_bubble_counts():
    assert count_bubble(0, 1) == 2
    assert count_bubble(1, 1) == 18
    assert count_bubble(2, 1) == 162
    assert count_bubble(0, 2) == 28


def test_mullin():
    assert [mullin_count(e) for e in range(4)] == [1, 2, 10, 70]


def test_reroot_identity():
    for q, f, m in ((3, 2, 1), (3, 2, 2), (4, 1, 1), (4, 2, 2), (4, 3, 3)):
        assert reroot_check(q, f, [m])
    assert reroot_check(4, 2, [1, 1])
    assert reroot_check(4, 3, [1, 2])


def test_catalan_ext():
    assert all(catalan_ext(1, n) == catalan(n) for n in range(11))
    assert catalan_ext(2, 2) == 15
    assert catalan_ext(2, 1) == 2


def test_legendre_and_integrality():
    assert legendre_valuation(2, 4) == 3
    assert legendre_valuation(3, 10) == 4
    assert all(verify_integrality(m, n)
               for m in range(1, 7) for n in range(11))
