"""Exact closed-form counts for decorated q-angulation families.

By the gluing bijection a tree-decorated map is a plane tree together with
a map with a simple boundary, so every family here is its number of tree
choices times one kernel, _boundaries: the rooted q-angulations with
vertex-disjoint simple boundaries, one per tree.  The kernel holds the only
triangulation and quadrangulation closed form of the tree, forest and
boundary-decorated families; _check_family holds their one domain check.

All evaluations use exact rational arithmetic and must come out integral;
a nonintegral result signals an implementation bug, not bad input.  Some
published formulas are known to disagree with the exhaustive oracles (and
with the rest of the formula family); their face values are kept available
under *_printed names and the consistent variants are the defaults.  See
the per-function notes.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, prod

from .errors import Infeasible, NonIntegral
from .trees import catalan


def double_factorial(n: int) -> int:
    """Semifactorial with the empty-product convention (-1)!! = 0!! = 1."""
    if n < -1:
        raise Infeasible(f"double factorial undefined for {n}")
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def multinomial(n: int, parts) -> int:
    parts = list(parts)
    if any(p < 0 for p in parts) or sum(parts) != n:
        raise Infeasible(f"bad multinomial ({n}; {parts})")
    return factorial(n) // prod(factorial(p) for p in parts)


def _as_int(value: Fraction) -> int:
    if value.denominator != 1:
        raise NonIntegral(f"expected an integer, got {value}")
    return int(value)


def oriented_edges(q: int, f: int) -> int:
    """Number of oriented edges (darts) of a q-angulation with f faces."""
    if q * f % 2:
        raise Infeasible(f"q={q}, f={f}: odd total degree")
    return q * f


def _check_family(q: int, f: int, sizes) -> None:
    """The one domain check: a q-angulation with f faces must have room for
    r vertex-disjoint boundaries of lengths 2 m_i, i.e. f/2 - m + 2 - r >= 0
    for triangulations and f - m + 2 - r >= 0 for quadrangulations, where
    m = sum(m_i)."""
    if q not in (3, 4):
        raise Infeasible(f"q must be 3 or 4, got {q}")
    if f < 1:
        raise Infeasible("face count must be at least 1")
    if q == 3 and f % 2:
        raise Infeasible("triangulations need an even face count")
    if not sizes or any(m < 1 for m in sizes):
        raise Infeasible("tree sizes must be positive")
    room = f // 2 if q == 3 else f
    if room - sum(sizes) + 2 - len(sizes) < 0:
        raise Infeasible(f"q={q}, f={f}: trees of sizes {sizes} need "
                         f"{room} - sum(m_i) + 2 - r >= 0")


def _boundaries(q: int, f: int, sizes) -> Fraction:
    """Rooted q-angulations with f internal faces and r labelled, rooted,
    vertex-disjoint simple boundaries of lengths 2 m_i, for the m_i in
    sizes (already checked by _check_family).  Every decorated family is
    its number of tree choices times this kernel."""
    m, r = sum(sizes), len(sizes)
    if q == 3:
        value = (Fraction(2) ** (f - 2 * m)
                 * double_factorial(3 * f // 2 + m - 2)
                 / (factorial(f // 2 - m + 2 - r)
                    * double_factorial(f // 2 + 3 * m)))
        return value * prod(2 * mi * comb(4 * mi, 2 * mi) for mi in sizes)
    value = (Fraction(3) ** (f - m) * factorial(2 * f + m - 1)
             / (factorial(f + 2 * m) * factorial(f - m + 2 - r)))
    return value * prod(2 * mi * comb(3 * mi, mi) for mi in sizes)


def _vertices(q: int, f: int) -> int:
    return f // 2 + 2 if q == 3 else f + 2


def count_tree_decorated(q: int, f: int, m: int, root_mode: str = "anywhere") -> int:
    """Tree-decorated q-angulations with f faces and an m-edge tree: the
    one-tree forest, rooted on the tree for root_mode "on-tree"."""
    if root_mode not in ("anywhere", "on-tree"):
        raise Infeasible(f"unknown root mode {root_mode!r}")
    return count_forest(q, f, [m], rooted_labeled=(root_mode == "on-tree"))


def count_spanning(q: int, f: int, root_mode: str = "anywhere") -> int:
    """Spanning-tree decorated q-angulations with f faces: the tree-decorated
    count at the spanning size.  For triangulations the published dedicated
    form undercounts by a factor of 2 (see count_spanning_tri_printed)."""
    return count_tree_decorated(q, f, _vertices(q, f) - 1, root_mode)


def count_spanning_tri_printed(f: int) -> int:
    """Published dedicated formula for spanning-tree decorated
    triangulations (root anywhere).  Disagrees with the exhaustive oracle
    and with count_tree_decorated by a factor of 2; kept for reporting."""
    _check_family(3, f, [_vertices(3, f) - 1])
    value = (Fraction(12 * f, (f + 4) * (f + 2) ** 2)
             * multinomial(2 * f, (f, f // 2, f // 2)))
    return _as_int(value)


def _boundary_decorated(q: int, f: int, m1: int, m2: int) -> Fraction:
    """The kernel for the one boundary of length 2 (m1 + m2) that both
    boundary-decorated counts share, after their common domain check."""
    if m1 < 0 or m2 < 0:
        raise Infeasible("need m1, m2 >= 0 with m1 + m2 >= 1")
    _check_family(q, f, [m1 + m2])
    return _boundaries(q, f, [m1 + m2])


def count_boundary_decorated(q: int, f: int, m1: int, m2: int) -> int:
    """q-angulations with a simple boundary of size m1 decorated by an
    m2-edge tree hanging at a boundary vertex (root on the tree): the
    kernel times catalan(m2)."""
    return _as_int(_boundary_decorated(q, f, m1, m2) * catalan(m2))


def count_boundary_decorated_tri_printed(f: int, m1: int, m2: int) -> int:
    """Published triangulation boundary-decorated formula, dividing by
    2 m2 + 1 where catalan(m2) divides by m2 + 1.  Disagrees with the oracle
    (and with the quadrangulation analogue) whenever m2 >= 1; kept for
    reporting."""
    value = (_boundary_decorated(3, f, m1, m2)
             * Fraction(comb(2 * m2, m2), 2 * m2 + 1))
    # the published form is not even always integral; report it as is
    return int(value) if value.denominator == 1 else value


def _multiplicities(sizes) -> list[int]:
    return [list(sizes).count(k) for k in sorted(set(sizes))]


def count_forest(q: int, f: int, sizes, rooted_labeled: bool = False) -> int:
    """r-forest decorated q-angulations with trees of the given sizes.

    rooted_labeled counts ordered forests of rooted trees with the map root
    on tree 1 (serving as its root): a plane tree per boundary, so the
    kernel times prod(catalan(m_i)).  The default counts unordered forests
    of unrooted trees with the map rooted anywhere: it re-roots at any of
    the q f darts, forgets the 2 m_i tree rootings, and divides by the
    orderings compatible with the size signature, which is the product of
    the c_k!; the published closed form multiplies by r!/prod(c_k!)
    instead and is kept in count_forest_printed.
    """
    sizes = list(sizes)
    _check_family(q, f, sizes)
    value = _boundaries(q, f, sizes) * prod(catalan(mi) for mi in sizes)
    if not rooted_labeled:
        csym = prod(factorial(c) for c in _multiplicities(sizes))
        value *= Fraction(oriented_edges(q, f),
                          csym * prod(2 * mi for mi in sizes))
    return _as_int(value)


def count_forest_printed(q: int, f: int, sizes) -> int:
    """Published unlabeled forest formula (root anywhere), with the
    r!/prod(c_k!) symmetry factor, i.e. r! times count_forest.  Disagrees
    with the oracle for r >= 2; kept for reporting."""
    sizes = list(sizes)
    return factorial(len(sizes)) * count_forest(q, f, sizes)


def count_spanning_forest(q: int, f: int, sizes) -> int:
    """Spanning r-forest decorated q-angulations (root anywhere), computed
    by setting the forest size to the vertex count in count_forest."""
    sizes = list(sizes)
    _check_family(q, f, sizes)
    vertices = _vertices(q, f)
    if sum(sizes) + len(sizes) != vertices:
        raise Infeasible(f"spanning forest needs sum(m_i) + r = {vertices}")
    return count_forest(q, f, sizes, rooted_labeled=False)


def count_spanning_forest_printed(q: int, f: int, sizes) -> int:
    """Published dedicated spanning-forest formulas.  The quadrangulation
    form agrees with count_spanning_forest; the triangulation form carries
    a (2f+2-r)!! factor where the substitution yields (2f-r)!! and is kept
    only for reporting."""
    sizes = list(sizes)
    _check_family(q, f, sizes)
    r = len(sizes)
    sym = Fraction(factorial(r), prod(factorial(c)
                                      for c in _multiplicities(sizes)))
    if q == 3:
        value = (Fraction(4) ** (r - 2) * 3 * f
                 * Fraction(double_factorial(2 * f + 2 - r),
                            double_factorial(2 * f + 6 - 3 * r))
                 * sym
                 * prod(Fraction(multinomial(4 * mi, (2 * mi, mi, mi)), mi + 1)
                        for mi in sizes))
    else:
        value = (Fraction(3) ** (r - 2) * 4 * f
                 * Fraction(factorial(3 * f - r + 1),
                            factorial(3 * f - 2 * r + 4))
                 * sym
                 * prod(Fraction(multinomial(3 * mi, (mi, mi, mi)), mi + 1)
                        for mi in sizes))
    return _as_int(value)


def count_bubble(e: int, m: int) -> int:
    """Circuit-decorated bubble maps with e + m edges and circuit size 2m,
    rooted at an oriented edge of the map."""
    if m < 1:
        raise Infeasible("circuit size parameter m must be at least 1")
    if e < 0:
        raise Infeasible("edge parameter e must be nonnegative")
    value = (Fraction(3) ** e * factorial(2 * e + 2 * m - 1)
             * Fraction(2 * (e + m), m + 1)
             * multinomial(4 * m, (2 * m, m, m))
             / (factorial(e) * factorial(e + 2 * m + 1)))
    return _as_int(value)


def mullin_count(e: int) -> int:
    """Spanning-tree decorated general maps with e edges (root anywhere)."""
    if e < 0:
        raise Infeasible("edge count must be nonnegative")
    return catalan(e) * catalan(e + 1)


def reroot_check(q: int, f: int, sizes) -> bool:
    """Exact re-rooting identity between the rooted-labeled and unlabeled
    forest families: |labeled| * (oriented edges) = |unlabeled| *
    prod(c_k!) * prod(2 m_i), since each unordered forest admits
    prod(c_k!) size-respecting orderings and each tree of size m_i has
    2 m_i rootings."""
    sizes = list(sizes)
    lhs = count_forest(q, f, sizes, rooted_labeled=True) * oriented_edges(q, f)
    csym = prod(factorial(c) for c in _multiplicities(sizes))
    rhs = (count_forest(q, f, sizes, rooted_labeled=False)
           * csym * prod(2 * mi for mi in sizes))
    return lhs == rhs


# -- generalized Catalan numbers -------------------------------------------------

def catalan_ext(m: int, n: int) -> int:
    """C_{m,n} = multinomial((m+1)n; n,...,n) / binom(m+n, n)."""
    if m < 1 or n < 0:
        raise Infeasible("need m >= 1 and n >= 0")
    num = multinomial((m + 1) * n, (n,) * (m + 1))
    den = comb(m + n, n)
    if num % den:
        raise NonIntegral(f"C_{{{m},{n}}} division is not exact")
    return num // den


def legendre_valuation(p: int, k: int) -> int:
    """p-adic valuation of k! by Legendre's formula."""
    if p < 2 or k < 0:
        raise Infeasible("need a prime p >= 2 and k >= 0")
    total = 0
    power = p
    while power <= k:
        total += k // power
        power *= p
    return total


def _primes_upto(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1) if n >= 0 else bytearray()
    out = []
    for p in range(2, n + 1):
        if sieve[p]:
            out.append(p)
            for q in range(p * p, n + 1, p):
                sieve[q] = 0
    return out


def verify_integrality(m: int, n: int) -> bool:
    """Prime-by-prime check that C_{m,n} is an integer, independent of the
    division in catalan_ext: for every prime, the valuation of the defining
    quotient is nonnegative."""
    if m < 1 or n < 0:
        raise Infeasible("need m >= 1 and n >= 0")
    for p in _primes_upto((m + 1) * n):
        val = (legendre_valuation(p, (m + 1) * n)
               - (m + 1) * legendre_valuation(p, n)
               - legendre_valuation(p, m + n)
               + legendre_valuation(p, n)
               + legendre_valuation(p, m))
        if val < 0:
            return False
    return True
