"""Exact truncated power series for boundary-map generating functions.

``B(x, y)`` counts rooted maps with a boundary by edges (``x``) and boundary
length (``y``); ``S(x, z)`` counts those whose boundary is simple.  ``B``
solves the functional equation

    B = 1 + y^2 x B^2 + x y / (1 - y) * (B(x, 1) - y B),

and ``S`` is tied to ``B`` through the substitution ``S(x, yB(x,y)) =
B(x,y)``: hanging a general map with a boundary from the tail of each
boundary edge of a simple-boundary map recovers all maps with a boundary.
``B`` is read from the integer rows of Tutte's root-edge decomposition,
:func:`~mapglue.enumeration._root_face_counts`, and ``S`` from the closed
radical form; the tests keep a fixed-point solver of the equation and an
inversion of the substitution as the independent references they are
compared with.

All arithmetic is exact over the rationals and never reads beyond the
declared truncation orders.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb

from .enumeration import _root_face_counts
from .errors import Infeasible, NonIntegral

Coeffs = dict[tuple[int, int], Fraction]


class TruncatedSeries2:
    """Bivariate power series truncated at orders ``(nx, ny)``.

    Coefficients are exact :class:`~fractions.Fraction` values; only
    nonzero entries are stored.  All operations truncate their result to
    the common orders of the operands.
    """

    __slots__ = ("nx", "ny", "coeffs")

    def __init__(self, nx: int, ny: int, coeffs: Coeffs | None = None):
        if nx < 0 or ny < 0:
            raise Infeasible("truncation orders must be nonnegative")
        self.nx = nx
        self.ny = ny
        data: Coeffs = {}
        if coeffs:
            for (i, j), c in coeffs.items():
                if i <= nx and j <= ny:
                    c = Fraction(c)
                    if c:
                        data[i, j] = c
        self.coeffs = data

    # -- construction -----------------------------------------------------

    @classmethod
    def constant(cls, value, nx: int, ny: int) -> "TruncatedSeries2":
        return cls(nx, ny, {(0, 0): Fraction(value)})

    @classmethod
    def variable(cls, which: str, nx: int, ny: int) -> "TruncatedSeries2":
        if which == "x":
            return cls(nx, ny, {(1, 0): Fraction(1)})
        if which == "y":
            return cls(nx, ny, {(0, 1): Fraction(1)})
        raise ValueError(f"unknown variable {which!r}")

    # -- basics ------------------------------------------------------------

    def coeff(self, i: int, j: int) -> Fraction:
        return self.coeffs.get((i, j), Fraction(0))

    def __eq__(self, other) -> bool:
        return (isinstance(other, TruncatedSeries2)
                and self.nx == other.nx and self.ny == other.ny
                and self.coeffs == other.coeffs)

    def __repr__(self) -> str:
        terms = ", ".join(f"x^{i} y^{j}: {c}" for (i, j), c
                          in sorted(self.coeffs.items()))
        return f"TruncatedSeries2({self.nx}, {self.ny}, {{{terms}}})"

    def truncate(self, nx: int, ny: int) -> "TruncatedSeries2":
        return TruncatedSeries2(nx, ny, self.coeffs)

    def _orders_with(self, other: "TruncatedSeries2") -> tuple[int, int]:
        return min(self.nx, other.nx), min(self.ny, other.ny)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "TruncatedSeries2":
        if not isinstance(other, TruncatedSeries2):
            other = TruncatedSeries2.constant(other, self.nx, self.ny)
        nx, ny = self._orders_with(other)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, Fraction(0)) + c
        return TruncatedSeries2(nx, ny, out)

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries2":
        return TruncatedSeries2(self.nx, self.ny,
                                {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other) -> "TruncatedSeries2":
        if not isinstance(other, TruncatedSeries2):
            other = TruncatedSeries2.constant(other, self.nx, self.ny)
        return self + (-other)

    def __rsub__(self, other) -> "TruncatedSeries2":
        return (-self) + other

    def __mul__(self, other) -> "TruncatedSeries2":
        if not isinstance(other, TruncatedSeries2):
            c = Fraction(other)
            return TruncatedSeries2(self.nx, self.ny,
                                    {k: v * c for k, v in self.coeffs.items()})
        nx, ny = self._orders_with(other)
        out: Coeffs = {}
        for (i1, j1), c1 in self.coeffs.items():
            if i1 > nx or j1 > ny:
                continue
            for (i2, j2), c2 in other.coeffs.items():
                i, j = i1 + i2, j1 + j2
                if i <= nx and j <= ny:
                    out[i, j] = out.get((i, j), Fraction(0)) + c1 * c2
        return TruncatedSeries2(nx, ny, out)

    __rmul__ = __mul__

    def shift_x(self, k: int) -> "TruncatedSeries2":
        """Multiply by ``x**k``; negative ``k`` divides, requiring every
        term to have x-degree at least ``-k``."""
        out: Coeffs = {}
        for (i, j), c in self.coeffs.items():
            if i + k < 0:
                raise NonIntegral("series is not divisible by that power of x")
            out[i + k, j] = c
        return TruncatedSeries2(self.nx + k, self.ny, out)

    def reciprocal(self) -> "TruncatedSeries2":
        """Multiplicative inverse; the constant term must be nonzero."""
        c0 = self.coeff(0, 0)
        if not c0:
            raise ZeroDivisionError("series has no constant term")
        out = {(0, 0): 1 / c0}
        for i, j in _graded(self.nx, self.ny):
            # r_ij = -sum a_kl r_(i-k)(j-l) / a_00 over (k, l) != (0, 0)
            c = -_convolution(self.coeffs, out, i, j) / c0
            if c:
                out[i, j] = c
        return TruncatedSeries2(self.nx, self.ny, out)

    def __truediv__(self, other) -> "TruncatedSeries2":
        if isinstance(other, TruncatedSeries2):
            return self * other.reciprocal()
        return self * (1 / Fraction(other))

    def sqrt(self) -> "TruncatedSeries2":
        """Square root of a series with constant term 1."""
        if self.coeff(0, 0) != 1:
            raise NonIntegral("square root needs constant term 1")
        out = {(0, 0): Fraction(1)}
        for i, j in _graded(self.nx, self.ny):
            # r_ij = (a_ij - sum r_kl r_(i-k)(j-l)) / 2 over the pairs of
            # non-constant factors
            c = (self.coeff(i, j) - _convolution(out, out, i, j)) / 2
            if c:
                out[i, j] = c
        return TruncatedSeries2(self.nx, self.ny, out)

    def substitute(self, xs: "TruncatedSeries2",
                   ys: "TruncatedSeries2") -> "TruncatedSeries2":
        """Evaluate at ``x = xs``, ``y = ys``.

        Substituted series must have zero constant term so the result stays
        a well-defined truncated series.
        """
        for s, name in ((xs, "x"), (ys, "y")):
            if s.coeff(0, 0):
                raise NonIntegral(f"substitution for {name} must have no "
                                  "constant term")
        nx, ny = xs._orders_with(ys)
        one = TruncatedSeries2.constant(1, nx, ny)
        xpow = [one]
        for _ in range(self.nx):
            xpow.append(xpow[-1] * xs)
        ypow = [one]
        for _ in range(self.ny):
            ypow.append(ypow[-1] * ys)
        out = TruncatedSeries2(nx, ny)
        for (i, j), c in sorted(self.coeffs.items()):
            out = out + xpow[i] * ypow[j] * c
        return out


def _graded(nx: int, ny: int) -> list[tuple[int, int]]:
    """``(i, j)`` of every non-constant coefficient, by total degree."""
    return sorted(product(range(nx + 1), range(ny + 1)), key=sum)[1:]


def _convolution(a: Coeffs, r: Coeffs, i: int, j: int) -> Fraction:
    """Sum of a_kl r_(i-k)(j-l) over the terms already in ``r``: r_ij is
    not there yet, so the pairs that need it drop out.  Neither table
    holds zeros, which keeps the sum short."""
    return sum([c * r[i - k, j - l] for (k, l), c in a.items()
                if k <= i and l <= j and (i - k, j - l) in r], Fraction(0))


def series_B(nx: int, ny: int) -> TruncatedSeries2:
    """Maps with a boundary: coefficient of x^e y^p counts rooted maps with
    e edges whose root face has degree p.

    Read from the integer rows of Tutte's root-edge decomposition, the
    table :func:`~mapglue.enumeration._root_face_counts`, whose
    generating function solves the functional equation above.
    """
    return TruncatedSeries2(nx, ny, {
        (e, p): c for e, row in enumerate(_root_face_counts(nx))
        for p, c in enumerate(row)})


def series_B1(nx: int) -> TruncatedSeries2:
    """B(x, 1): all rooted maps by edge count, as a series in x (ny = 0).

    Coefficient of x^e is 2 * 3^e / ((e+1)(e+2)) * binom(2e, e).
    """
    coeffs = {(e, 0): Fraction(2 * 3 ** e * comb(2 * e, e),
                               (e + 1) * (e + 2))
              for e in range(nx + 1)}
    return TruncatedSeries2(nx, 0, coeffs)


def series_S(nx: int, nz: int) -> TruncatedSeries2:
    """Maps with a simple boundary: coefficient of x^e z^p counts rooted
    maps with e edges whose root face is a simple cycle of length p.

    Expanded from the closed radical form.
    """
    if nx < 1 or nz < 1:
        raise Infeasible("series_S needs orders >= 1")
    pad = nx + 1
    x = TruncatedSeries2.variable("x", pad, nz)
    z = TruncatedSeries2.variable("y", pad, nz)
    base = 1 - 12 * x
    # (1 + 36x - (1-12x)^{3/2}) / (27x): the numerator vanishes at x = 0.
    ratio = ((1 + 36 * x - base * base.sqrt()) / 27).shift_x(-1)
    ratio = ratio.truncate(nx, nz)
    x = x.truncate(nx, nz)
    z = z.truncate(nx, nz)
    lin = 1 + z - x * z * z
    disc = lin * lin - 2 * z * ratio
    # The formal square root is normalized to constant term +1; at x = 0 it
    # expands to 1 - z, which is the opposite sign of the analytic branch
    # selected by the closed form, so the combinatorial solution (constant
    # term 1, nonnegative coefficients) takes the plus sign here.
    return (1 + z + x * z * z + disc.sqrt()) * Fraction(1, 2)


def format_series(series: TruncatedSeries2, yname: str = "z") -> str:
    """One `x^i z^j : c` line per coefficient, in graded lexicographic
    order."""
    items = sorted(series.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    lines = []
    for (i, j), c in items:
        value = int(c) if c.denominator == 1 else c
        lines.append(f"x^{i} {yname}^{j} : {value}")
    return "\n".join(lines)
