from fractions import Fraction

import pytest

from mapglue.enumeration import enumerate_maps
from mapglue.errors import NonIntegral
from mapglue.maps import BoundaryMap
from mapglue.series import (TruncatedSeries2, format_series, series_B,
                            series_B1, series_S)


def test_arithmetic_basics():
    x = TruncatedSeries2.variable("x", 3, 3)
    y = TruncatedSeries2.variable("y", 3, 3)
    one = TruncatedSeries2.constant(1, 3, 3)
    s = (one + x * y) * (one - x * y)
    assert s.coeff(0, 0) == 1
    assert s.coeff(1, 1) == 0
    assert s.coeff(2, 2) == -1
    assert (one / 2).coeff(0, 0) == Fraction(1, 2)


def test_reciprocal_and_sqrt():
    x = TruncatedSeries2.variable("x", 6, 0)
    one = TruncatedSeries2.constant(1, 6, 0)
    geo = (one - x).reciprocal()
    assert all(geo.coeff(i, 0) == 1 for i in range(7))
    sq = (one - 4 * x).sqrt()
    # sqrt(1-4x) = 1 - 2 sum catalan(n)/(?) ... check by squaring instead
    assert sq * sq == (one - 4 * x).truncate(6, 0)
    assert sq.coeff(0, 0) == 1


def newton_reciprocal(a: TruncatedSeries2) -> TruncatedSeries2:
    """Reference inverse: Newton's R <- R (2 - A R), which doubles the
    correct total degree on each pass."""
    inv = TruncatedSeries2.constant(1 / a.coeff(0, 0), a.nx, a.ny)
    order = 1
    while order <= a.nx + a.ny:
        inv = inv * (2 - a * inv)
        order *= 2
    return inv


def newton_sqrt(a: TruncatedSeries2) -> TruncatedSeries2:
    """Reference square root of a series with constant term 1: Newton's
    R <- (R + A / R) / 2, with the reference inverse."""
    root = TruncatedSeries2.constant(1, a.nx, a.ny)
    order = 1
    while order <= a.nx + a.ny:
        root = (root + a * newton_reciprocal(root)) * Fraction(1, 2)
        order *= 2
    return root


def _examples():
    """Series with constant term 1, in one or two variables, sparse and
    dense, with integer and fractional coefficients."""
    x = TruncatedSeries2.variable("x", 7, 5)
    y = TruncatedSeries2.variable("y", 7, 5)
    yield (1 - 4 * x).truncate(9, 0)
    yield 1 + x * y - 3 * y * y
    yield 1 + x / 3 + y * y * Fraction(5, 7) - x * x * y
    yield TruncatedSeries2(4, 6, {(i, j): Fraction(i - 2 * j + 1, j + 1)
                                  for i in range(5) for j in range(7)})
    yield (1 - 12 * x).truncate(6, 0)
    yield series_B(3, 4)


def test_coefficient_forms_match_newton():
    for a in _examples():
        assert a.reciprocal() == newton_reciprocal(a)
        assert (3 * a).reciprocal() == newton_reciprocal(3 * a)
        assert a.sqrt() == newton_sqrt(a)
        one = TruncatedSeries2.constant(1, a.nx, a.ny)
        assert a.sqrt() * a.sqrt() == a and a * a.reciprocal() == one


def test_shift_x():
    x = TruncatedSeries2.variable("x", 4, 0)
    shifted = (x * x).shift_x(-2)
    assert shifted.coeff(0, 0) == 1
    one = TruncatedSeries2.constant(1, 4, 0)
    with pytest.raises(NonIntegral):
        (one + x).shift_x(-1)


def series_B_fixed_point(nx: int, ny: int) -> TruncatedSeries2:
    """Reference B: solves B = 1 + y^2 x B^2 + x y/(1-y) (B(x,1) - y B)
    by fixed-point iteration in powers of x.  A map with e edges has
    boundary length at most 2e, so the iteration runs at y-order
    max(ny, 2 nx) to make the y = 1 specialization exact before
    truncating back."""
    ny_int = max(ny, 2 * nx)
    x = TruncatedSeries2.variable("x", nx, ny_int)
    y = TruncatedSeries2.variable("y", nx, ny_int)
    geom = TruncatedSeries2(nx, ny_int, {(0, j): 1 for j in range(ny_int + 1)})
    b = TruncatedSeries2.constant(1, nx, ny_int)
    for _ in range(nx + 1):
        b1 = TruncatedSeries2(nx, ny_int, {})
        for (i, _), c in b.coeffs.items():
            b1.coeffs[i, 0] = b1.coeff(i, 0) + c
        b = 1 + y * y * x * b * b + x * y * geom * (b1 - y * b)
    return b.truncate(nx, ny)


@pytest.mark.parametrize("orders", [(0, 0), (1, 1), (3, 4), (5, 10),
                                    (8, 8), (10, 4)])
def test_series_B_matches_fixed_point_reference(orders):
    assert series_B(*orders) == series_B_fixed_point(*orders)


def test_series_B_anchors():
    b = series_B(4, 8)
    assert b.coeff(0, 0) == 1
    for e, want in ((1, 2), (2, 9), (3, 54)):
        assert sum(b.coeff(e, j) for j in range(9)) == want


def series_B1_radical(nx: int) -> TruncatedSeries2:
    """Reference B(x, 1) from the closed form
    -(1 - 18x - (1-12x)^{3/2}) / (54 x^2)."""
    pad = nx + 2
    x = TruncatedSeries2.variable("x", pad, 0)
    base = 1 - 12 * x
    num = -(1 - 18 * x - base * base.sqrt())
    return (num / 54).shift_x(-2).truncate(nx, 0)


def test_series_B1_forms_agree():
    assert series_B1(8) == series_B1_radical(8)
    b1 = series_B1(4)
    assert [int(b1.coeff(e, 0)) for e in range(5)] == [1, 2, 9, 54, 378]


def test_series_B1_is_B_at_one():
    b = series_B(5, 10)
    assert TruncatedSeries2(5, 0, {
        (e, 0): sum(b.coeff(e, p) for p in range(11)) for e in range(6)
    }) == series_B1(5)


def test_series_S_printed_coefficients():
    s = series_S(5, 3)
    printed = {(1, 1): 1, (2, 1): 2, (1, 2): 1, (3, 1): 9, (2, 2): 1,
               (4, 1): 54, (3, 2): 5, (5, 1): 378, (3, 3): 1}
    for key, want in printed.items():
        assert s.coeff(*key) == want, key
    assert s.coeff(0, 0) == 1


def test_series_S_ambiguous_term_resolved_by_oracle():
    # the (4, 2) coefficient: 32 simple-boundary maps with 4 edges and a
    # 2-gon boundary, confirmed by enumeration below
    s = series_S(4, 2)
    assert s.coeff(4, 2) == 32
    count = 0
    for pm in enumerate_maps(4).maps():
        bm = BoundaryMap(pm)
        if bm.perimeter == 2 and bm.is_vertex_simple():
            count += 1
    assert count == 32


def test_s_and_b_match_enumeration():
    s44 = series_S(4, 4)
    b44 = series_B(4, 4)
    for e in range(1, 5):
        bc: dict[int, int] = {}
        sc: dict[int, int] = {}
        for pm in enumerate_maps(e).maps():
            bm = BoundaryMap(pm)
            bc[bm.perimeter] = bc.get(bm.perimeter, 0) + 1
            if bm.is_vertex_simple():
                sc[bm.perimeter] = sc.get(bm.perimeter, 0) + 1
        for p in range(1, 5):
            assert b44.coeff(e, p) == bc.get(p, 0), ("b", e, p)
            assert s44.coeff(e, p) == sc.get(p, 0), ("s", e, p)


def test_substitution_identity():
    order = 6
    b = series_B(order, order)
    x = TruncatedSeries2.variable("x", order, order)
    y = TruncatedSeries2.variable("y", order, order)
    s = series_S(order, order)
    assert s.substitute(x, y * b) == b.truncate(order, order)


def series_S_substitution(nx: int, nz: int) -> TruncatedSeries2:
    """Reference S, built independently of the radical form: invert
    z = y B(x, y) by iterating Y <- z / B(x, Y), which gains one z-order
    per pass since Y = z (1 + higher order), then S(x, z) = B(x, Y)."""
    b = series_B(nx, nz)
    x = TruncatedSeries2.variable("x", nx, nz)
    z = TruncatedSeries2.variable("y", nx, nz)
    yser = z
    for _ in range(nz + 1):
        yser = z * b.substitute(x, yser).reciprocal()
    return b.substitute(x, yser)


@pytest.mark.parametrize("orders", [(5, 3), (4, 4), (8, 8)])
def test_series_S_matches_substitution_reference(orders):
    # the orders the series verification suite uses
    assert series_S(*orders) == series_S_substitution(*orders)


def test_coefficients_are_nonnegative_integers():
    for ser in (series_B(5, 5), series_S(5, 5)):
        assert all(c.denominator == 1 and c >= 0
                   for c in ser.coeffs.values())


def test_format_series_graded_lex():
    s = series_S(3, 3)
    lines = format_series(s).splitlines()
    assert lines[0] == "x^0 z^0 : 1"
    assert "x^3 z^2 : 5" in lines
    degrees = [sum(int(tok.split("^")[1].split()[0]) for tok in ln.split(":")[0].split())
               for ln in lines]
    assert degrees == sorted(degrees)
