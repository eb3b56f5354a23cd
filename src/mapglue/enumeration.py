"""Exhaustive generation of rooted planar maps and filtered catalogs.

General rooted maps are generated by Tutte's root-edge decomposition ("A
census of planar maps", 1963).  The root edge of a rooted map with e edges
is either a bridge joining two smaller maps whose edge counts sum to e-1,
or a chord of a map with e-1 edges, running from its root corner to one
of the k+1 corners of its root face of degree k.  Deleting the root edge
inverts both constructions, so each rooted map is built exactly once, and
no deduplication is needed.  Each is canonicalised once, from its raw
rotation arrays, for its code, which is split once into the sigma and
alpha tuples that its catalog entry and its map share.  Canonical
labelling makes the alpha arrays repetitive (73 distinct ones among the
24,057 maps with 6 edges), and a catalog holds each distinct one once.
Two checks guard the level: a short code (a disconnected construction)
raises :class:`Disconnected`, and two equal codes raise
:class:`InternalMismatch`.

Boundary catalogs of q-angulations need more edges than the general levels
can afford, so they are built cell by cell with the same decomposition
(Tutte, "A census of planar triangulations", 1962).  A rooted map with f
internal q-gons and a root face of degree p is a root chord to corner q-1
of the root face of a map with f-1 internal q-gons and a root face of
degree p+q-2 (the chord closes the new q-gon), or a root bridge between two
such maps whose internal faces number f and whose root faces have degrees
summing to p-2.  The chord chain is streamed and only the bridge factors
are kept, for one build.  In the requested cell the catalog filter runs
on each raw map first, and only the maps it keeps are canonicalised, once
each, with the same two checks.

Maps are validated where they enter: :func:`catalog_from_text`, the only
code here that decodes a code, runs each map it reads through
:func:`~mapglue.maps.build_map`, and refuses a file whose entries are not
strictly increasing canonical codes of maps of the family its header
names.  Catalogs built in process keep the maps their enumeration built;
the tests run those through it instead.

The pools of sphere q-angulations that the brute-force counts sum over are
the cells whose root face is a q-gon; the general level is never scanned
for them.  The filter of the e-edge general level by face degree is kept
in the tests as the reference these pools must equal.

Everything is computed at most once per process: each general level, each
filtered q-angulation cell (which holds the sphere pools too), and each
catalog fetched through :func:`get_catalog`.  The size cap is checked
before every one of these memos is consulted, so a warm call refuses
exactly what a cold call refuses.

Catalogs can be persisted as text files; the directory is taken from the
MAPGLUE_CATALOG_DIR environment variable when set.  A file is written under
a temporary name in the same directory and renamed over the target, so a
reader never sees a partial file.  Its header ends in ``version=1``, the
file format version; a file without it or with another one is refused with
:class:`FormatError`.  The last line of a file is
``checksum=sha256:<hex>``, the SHA-256 digest of every line above it, so
any edit, truncation or reordering of the entries is detected.  Files
written with the earlier byte-sum checksum are refused with
:class:`FormatError`, as is a file whose header names another filter than
the one requested.
"""

from __future__ import annotations

import os
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from math import comb, factorial, prod

try:  # the builtin module, as random.py does: hashlib also loads OpenSSL
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

from .errors import (CapExceeded, Disconnected, FormatError, Infeasible,
                     InternalMismatch)
from .maps import (BoundaryMap, CanonicalCode, PlanarMap, _canonical,
                   _edge_ends, _ints, _is_tree, _record, build_map)

EDGE_CAP = 6        # general enumeration, by edge count
QANG_EDGE_CAP = 10  # q-angulation boundary catalogs, by total edge count
CATALOG_VERSION = "1"  # catalog file format


@dataclass(frozen=True)
class CatalogFilter:
    """Family descriptor: q = 0 means general maps; zero fields are
    unconstrained."""

    q: int = 0
    f: int = 0
    e: int = 0
    perimeter: int = 0
    simple: bool = False
    bridgeless: bool = False


@dataclass(frozen=True)
class Catalog:
    """Rooted maps sorted by code: their ``entries`` and, one per entry,
    their maps, each in canonical form (rooted at dart 1).

    Each map is held once: ``entries[i].sigma is maps()[i].sigma``, the
    same for alpha, and equal alpha arrays are one tuple, whether the
    catalog was built or read from text.
    """

    filter: CatalogFilter
    entries: tuple[CanonicalCode, ...]
    _maps: tuple[PlanarMap, ...] = field(repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.entries)

    def maps(self) -> list[PlanarMap]:
        """The maps, as a new list: built by the enumeration, or validated
        by :func:`catalog_from_text` when read from text."""
        return list(self._maps)


def _check_cap(edges: int, default: int, cap: int | None = None) -> None:
    cap = default if cap is None else cap
    if edges > cap:
        raise CapExceeded(f"{edges} edges exceeds cap {cap}")


# -- general rooted maps, by edge count ----------------------------------------

def _root_chords(pmap: PlanarMap | None, corner: int | None = None):
    """Raw ``(sigma, alpha)`` of the maps whose root edge is a chord of
    ``pmap`` (None is the vertex map), rooted at dart ``len(sigma) - 1``:
    one to each corner of the root face, or to ``corner`` alone.

    The new root r = n+1 goes into the root corner, just before the root
    f0; its partner r' = n+2 goes into one of the k+1 corners of the root
    face (f0, ..., f_{k-1}): before f0 after r (j = 0), before r (j = k),
    or before f_j (0 < j < k), which follows alpha(f_{j-1}).  The darts
    f0, ..., f_{j-1} then bound a new face of degree j + 1, and the root
    face keeps the other k - j + 1.
    """
    if pmap is None:
        yield [2, 1], (2, 1)  # the loop
        return
    n = len(pmap.sigma)
    r, r2 = n + 1, n + 2
    alpha = pmap.alpha + (r2, r)
    face = pmap.root_face()
    k = len(face)
    f0 = face[0]
    last = alpha[face[-1] - 1]  # sigma(last) = f0
    for j in range(k + 1) if corner is None else (corner,):
        sigma = list(pmap.sigma)
        if j == 0:
            sigma[last - 1] = r
            sigma += [r2, f0]
        elif j == k:
            sigma[last - 1] = r2
            sigma += [f0, r]
        else:
            sigma[last - 1] = r
            sigma[alpha[face[j - 1] - 1] - 1] = r2
            sigma += [f0, face[j]]
        yield sigma, alpha


def _bridge(m1: PlanarMap | None, m2: PlanarMap | None):
    """Raw ``(sigma, alpha)`` of the map whose root edge is a bridge from
    ``m1`` to ``m2`` (None is the vertex map), rooted at dart
    ``len(sigma) - 1``.

    ``m2``'s darts follow ``m1``'s; the new root r sits just before
    ``m1``'s root in its rotation and its partner r + 1 just before
    ``m2``'s root, and either is a fixed point of sigma on a vertex map.
    """
    sigma, alpha, roots = [], (), []
    for m in (m1, m2):
        if m is None:
            roots.append(None)
            continue
        n = len(sigma)
        sigma += [d + n for d in m.sigma]
        alpha += tuple([d + n for d in m.alpha])
        roots.append(m.root + n)
    r = len(sigma) + 1
    sigma += [r, r + 1]
    for new, root in zip((r, r + 1), roots):
        if root is not None:
            sigma[sigma.index(root)] = new
            sigma[new - 1] = root
    return sigma, alpha + (r + 1, r)


def _smaller(e: int) -> list[PlanarMap | None]:
    """The maps with e edges; [None], the vertex map, when e is 0."""
    return [None] if e == 0 else _level(e).maps()


def _root_edge_maps(e: int):
    """Raw ``(sigma, alpha)`` of every rooted map with e edges, each
    rooted at dart ``len(sigma) - 1`` and built exactly once."""
    for m in _smaller(e - 1):
        yield from _root_chords(m)
    for e1 in range(e):
        right = _smaller(e - 1 - e1)
        for m1 in _smaller(e1):
            for m2 in right:
                yield _bridge(m1, m2)


def _catalog(filt: CatalogFilter, built) -> Catalog:
    """The catalog of ``built``, raw ``(sigma, alpha)`` pairs each rooted
    at dart ``len(sigma) - 1`` and each built once.

    Each map is canonicalised once, and its code split by
    :func:`_halves` into the tuples that its entry and its map share.  A
    short code (a disconnected construction) raises :class:`Disconnected`
    and two equal codes raise :class:`InternalMismatch`.
    """
    shared: dict = {}
    pairs = []
    for sigma, alpha in built:
        code = _canonical(sigma, alpha, (len(sigma) - 1,))[0]
        if len(code) < 2 * len(sigma):
            raise Disconnected("the darts do not form a connected map")
        pairs.append(_halves(code, shared))
    pairs.sort()
    if any(a == b for a, b in zip(pairs, pairs[1:])):
        raise InternalMismatch(f"a map of {filt} was built twice")
    return Catalog(filt, tuple([CanonicalCode(s, a) for s, a in pairs]),
                   tuple([PlanarMap(s, a, 1) for s, a in pairs]))


def _halves(code: tuple[int, ...], shared: dict) -> tuple[tuple, tuple]:
    """The sigma and alpha halves of ``code``, the alpha taken from
    ``shared`` (an alpha -> alpha memo for one catalog) when an equal one
    is there, so that each catalog holds each distinct alpha once."""
    n = len(code) // 2
    alpha = code[n:]
    return code[:n], shared.setdefault(alpha, alpha)


_LEVELS: dict[int, Catalog] = {}


def _level(e: int) -> Catalog:
    """All rooted planar maps with e edges, sorted by code: each built
    once by the root-edge decomposition (a chord of a map with e-1 edges,
    or a bridge between two maps with e-1 edges in all) and made a
    catalog by :func:`_catalog`."""
    if e not in _LEVELS:
        _LEVELS[e] = _catalog(CatalogFilter(e=e), _root_edge_maps(e))
    return _LEVELS[e]


def enumerate_maps(e: int, cap: int | None = None) -> Catalog:
    """Catalog of all rooted planar maps with e edges, built once per
    process."""
    if e < 1:
        raise Infeasible("edge count must be at least 1")
    _check_cap(e, EDGE_CAP, cap)
    return _level(e)


# -- q-angulation boundary cells -----------------------------------------------

def _cell_maps(q: int, f: int, p: int, factors: dict):
    """Every rooted map with f internal q-gons and a root face of degree
    p, built once each, as a raw :class:`PlanarMap` rooted at dart
    ``dart_count - 1``; cell (0, 0) is [None], the vertex map.

    The root edge is a chord to corner q - 1 of the root face of a map of
    cell (f-1, p+q-2), which closes a q-gon, or a bridge between maps of
    cells (f1, p1) and (f-f1, p-2-p1).  The chord chain is streamed, and
    the bridge factors, whose root faces are shorter, are built once into
    ``factors``, a cell -> list memo for one build.
    """
    if f == p == 0:
        yield None
        return
    if f < 0 or p < 1 or (q * f + p) % 2:
        return
    chain = factors.get((f - 1, p + q - 2))
    if chain is None:
        chain = _cell_maps(q, f - 1, p + q - 2, factors)
    for m in chain:
        for sigma, alpha in _root_chords(m, q - 1):
            yield PlanarMap(tuple(sigma), alpha, len(sigma) - 1)
    for f1 in range(f + 1):
        for p1 in range(p - 1):
            right = _factor(q, f - f1, p - 2 - p1, factors)
            if not right:
                continue
            for m1 in _factor(q, f1, p1, factors):
                for m2 in right:
                    sigma, alpha = _bridge(m1, m2)
                    yield PlanarMap(tuple(sigma), alpha, len(sigma) - 1)


def _factor(q: int, f: int, p: int, factors: dict) -> list:
    """The maps of cell (f, p), built on the first call of a build."""
    if (f, p) not in factors:
        factors[f, p] = list(_cell_maps(q, f, p, factors))
    return factors[f, p]


_QANG_LEVELS: dict[CatalogFilter, Catalog] = {}


def _qangulation_boundary_maps(filt: CatalogFilter) -> Catalog:
    """The maps of the cell (``filt.f``, ``filt.perimeter``) of
    :func:`_cell_maps` that pass the ``simple`` and ``bridgeless``
    filters, as a catalog: only those are canonicalised.  Memoised by the
    filter."""
    if filt not in _QANG_LEVELS:
        kept = [(m.sigma, m.alpha)
                for m in _cell_maps(filt.q, filt.f, filt.perimeter, {})
                if (not filt.simple or BoundaryMap(m).is_simple())
                and (not filt.bridgeless or BoundaryMap(m).is_bridgeless())]
        _QANG_LEVELS[filt] = _catalog(filt, kept)
    return _QANG_LEVELS[filt]


def _check_boundary_family(q: int, f: int, e: int, perimeter: int,
                           cap: int | None = None) -> None:
    """Raise unless the boundary family is feasible and within the cap."""
    if min(q, f, e, perimeter) < 0:
        raise Infeasible("q, f, e and the perimeter must be nonnegative")
    if q == 0:
        if e < 1:
            raise Infeasible("general boundary catalogs need an edge count")
        _check_cap(e, EDGE_CAP, cap)
        return
    total = q * f + perimeter
    if total % 2:
        raise Infeasible(f"q={q}, f={f}, perimeter={perimeter}: "
                         "odd total degree")
    _check_cap(total // 2, QANG_EDGE_CAP, cap)
    if perimeter < 2:
        raise Infeasible("perimeter must be at least 2")
    if e and e != total // 2:
        raise Infeasible(f"q={q}, f={f}, perimeter={perimeter}: "
                         f"{total // 2} edges, not {e}")


def enumerate_boundary_maps(q: int = 0, f: int = 0, e: int = 0,
                            perimeter: int = 0, simple: bool = False,
                            bridgeless: bool = False,
                            cap: int | None = None) -> Catalog:
    """Catalog of rooted maps whose root face matches the boundary filter."""
    _check_boundary_family(q, f, e, perimeter, cap)
    filt = CatalogFilter(q, f, e, perimeter, simple, bridgeless)
    if q:  # built with exactly the q, f and perimeter asked for
        return _qangulation_boundary_maps(filt)
    level = enumerate_maps(e, cap=cap)
    # a subsequence of the level, so the entries stay sorted
    kept = [(code, pm) for code, pm in zip(level.entries, level.maps())
            if _in_family(pm, filt)]
    return Catalog(filt, tuple([code for code, _ in kept]),
                   tuple([pm for _, pm in kept]))


# -- decorated brute-force counts -----------------------------------------------

def _subtrees(pmap: PlanarMap, m: int, through: int | None = None):
    """``(edges, vertices)`` of every m-edge tree submap, the edges as a
    frozenset of edge ids; only the trees holding the edge ``through``
    when it is given."""
    edges = pmap.edges()
    return _trees_among(dict(zip(edges, _edge_ends(pmap, edges))), m, through)


def _trees_among(ends: dict[int, tuple[int, int]], m: int,
                 through: int | None):
    """:func:`_subtrees` over the edges ``ends``, an edge -> (tail, head)
    table; ``through`` is joined to each (m-1)-subset of the others."""
    if through is None:
        combos = combinations(ends, m)
    elif m < 1:
        return
    else:
        rest = list(ends)
        rest.remove(through)
        combos = map((through,).__add__, combinations(rest, m - 1))
    for combo in combos:
        verts = _is_tree([ends[e] for e in combo])
        if verts is not None:
            yield frozenset(combo), verts


def tree_submaps(pmap: PlanarMap, m: int,
                 through: int | None = None) -> list[frozenset[int]]:
    """All m-edge tree submaps, as frozensets of edge ids; only those
    holding the edge id ``through`` when it is given."""
    return [edges for edges, _ in _subtrees(pmap, m, through)]


def sphere_qangulations(q: int, f: int) -> list[PlanarMap]:
    """All rooted maps of the sphere whose f faces all have degree q,
    sorted by code.

    Such a map is exactly a map whose root face is a q-gon and whose other
    f - 1 faces are q-gons, so the pool is the cell (f - 1, q) of
    :func:`_qangulation_boundary_maps`, memoised there.
    The e-edge general level filtered by face degree gives the same maps
    in the same order; the tests keep that filter as the reference.
    """
    if q * f % 2:
        raise Infeasible(f"q={q}, f={f}: odd total degree")
    e = q * f // 2
    _check_cap(e, QANG_EDGE_CAP)
    if e < 1:
        raise Infeasible("edge count must be at least 1")
    return _qangulation_boundary_maps(CatalogFilter(q, f - 1,
                                                    perimeter=q)).maps()


def _forests(pool, sizes: list[int], rooted_labeled: bool) -> int:
    """Forest decorations of the maps of ``pool``, counted through the
    ordered tuples of vertex-disjoint tree submaps whose tree i has
    ``sizes[i]`` edges.

    Rooted-labeled: tree 1 holds the root edge, and every other tree has
    2 m_i root darts; the others miss tree 1, so they are drawn from the
    map without its root edge.  Unlabeled: vertex-disjoint trees are
    distinct, so a forest is one tuple per order of its equal-size trees.
    """

    def tuples(choices, used=frozenset()) -> int:
        # one vertex set from each list, pairwise disjoint and from used
        if len(choices) == 1:
            return sum(map(used.isdisjoint, choices[0]))
        rest = choices[1:]
        return sum(tuples(rest, used | verts) for verts in choices[0]
                   if used.isdisjoint(verts))

    rooted = rooted_labeled and bool(sizes)
    others = sizes[1:] if rooted else sizes
    total = 0
    for pm in pool:
        edges = pm.edges()
        ends = dict(zip(edges, _edge_ends(pm, edges)))
        choices = []
        if rooted:
            root_edge = pm.edge_of(pm.root)
            choices.append([v for _, v in _trees_among(ends, sizes[0],
                                                       root_edge)])
            del ends[root_edge]
        lists = {}
        for m in others:
            if m not in lists:
                lists[m] = [v for _, v in _trees_among(ends, m, None)]
            choices.append(lists[m])
        total += tuples(choices) if choices else 1
    if rooted_labeled:
        return total * prod(2 * m for m in sizes[1:])
    return total // prod(factorial(c) for c in Counter(sizes).values())


def brute_count_decorated(q: int, f: int | None = None, e: int | None = None,
                          tree_sizes=(1,), root_mode: str = "on-tree") -> int:
    """Count (rooted map, decoration) pairs by exhaustive search: the
    one-tree case of :func:`brute_count_forest`, rooted on the tree or
    anywhere.

    The family is sphere q-angulations with f faces when q is 3 or 4, and
    general maps with e edges when q is 0.  Since the catalogs contain each
    rooted map exactly once and a rooted map has no nontrivial automorphism,
    the count is a direct sum over catalog entries.
    """
    if root_mode not in ("on-tree", "anywhere"):
        raise Infeasible(f"unknown root mode {root_mode!r}")
    sizes = list(tree_sizes)
    if len(sizes) != 1:
        raise Infeasible("single-tree decorations only; see brute_count_forest")
    if q == 0:
        if e is None:
            raise Infeasible("general family needs an edge count")
        pool = enumerate_maps(e).maps()
    else:
        if f is None:
            raise Infeasible("q-angulation family needs a face count")
        pool = sphere_qangulations(q, f)
    return _forests(pool, sizes, root_mode == "on-tree")


def brute_count_forest(q: int, f: int, sizes, rooted_labeled: bool) -> int:
    """Exhaustive count of forest-decorated sphere q-angulations.

    Unlabeled: the map is rooted anywhere and the decoration is an unordered
    set of vertex-disjoint unrooted tree submaps with the given size
    multiset.  Rooted-labeled: the trees are ordered, the map root edge lies
    on tree 1 and serves as its root, and every other tree carries its own
    root dart (2 m_i choices).
    """
    return _forests(sphere_qangulations(q, f), list(sizes),
                    rooted_labeled)


# -- catalog persistence --------------------------------------------------------

_CATALOG_FIELDS = ("q", "f", "e", "perim", "simple", "bridgeless", "count")


def catalog_to_text(cat: Catalog) -> str:
    filt = cat.filter
    lines = [
        f"catalog q={filt.q} f={filt.f} e={filt.e} perim={filt.perimeter} "
        f"simple={int(filt.simple)} bridgeless={int(filt.bridgeless)} "
        f"count={len(cat.entries)} version={CATALOG_VERSION}"
    ]
    lines.extend(",".join(str(v) for v in c.code) for c in cat.entries)
    body = "".join(line + "\n" for line in lines)
    return body + _checksum_line(body) + "\n"


def _checksum_line(body: str) -> str:
    return "checksum=sha256:" + sha256(body.encode()).hexdigest()


def catalog_from_text(text: str) -> Catalog:
    """The catalog a file holds, refused with FormatError unless its
    checksum, version and header hold and its entries are strictly
    increasing canonical codes of maps of the family its header names.

    The header's count must equal the entry lines, and for an unfiltered
    general level (q = 0, no face count, perimeter, simplicity or
    bridgelessness) it must also be the number of rooted maps with e
    edges, 2·3^e·C(2e,e)/((e+1)(e+2)), so a file missing maps is refused.
    Filtered and q-angulation families have no count to check against
    yet: that waits for an exact count kernel of maps with a boundary.
    """
    lines = text.splitlines()
    if len(lines) < 2 or not lines[-1].startswith("checksum="):
        raise FormatError("missing checksum line")
    body = "".join(line + "\n" for line in lines[:-1])
    if lines[-1] != _checksum_line(body):
        raise FormatError("catalog checksum mismatch")
    head = _record(lines[0], "catalog", _CATALOG_FIELDS, ("version",))
    if "version" not in head:
        raise FormatError("catalog header has no format version")
    if head["version"] != CATALOG_VERSION:
        raise FormatError(f"catalog format version {head['version']}, "
                          f"expected {CATALOG_VERSION}")
    q, f, e, perim, simple, bridgeless, count = _ints(
        ",".join(head[k] for k in _CATALOG_FIELDS), count=7)
    filt = CatalogFilter(q, f, e, perim, bool(simple), bool(bridgeless))
    codes = [tuple(_ints(ln)) for ln in lines[1:-1]]
    if len(codes) != count:
        raise FormatError("catalog count does not match the entry lines")
    if filt == CatalogFilter(e=e) and e > 0:
        expected = 2 * 3 ** e * comb(2 * e, e) // ((e + 1) * (e + 2))
        if count != expected:
            raise FormatError(f"catalog count {count} is not the "
                              f"{expected} rooted maps with {e} edges")
    if any(a >= b for a, b in zip(codes, codes[1:])):
        raise FormatError("catalog entries are not strictly increasing")
    # the one place where a code becomes a map, so every map is validated
    shared: dict = {}
    maps = [build_map(*_halves(c, shared), 1) for c in codes]
    for code, pm in zip(codes, maps):
        if _canonical(pm.sigma, pm.alpha, (1,))[0] != code:
            raise FormatError(f"catalog entry {code} is not a canonical code")
        if not _in_family(pm, filt):
            raise FormatError(f"catalog entry {code} is not a map of {filt}")
    return Catalog(filt, tuple([CanonicalCode(pm.sigma, pm.alpha)
                                for pm in maps]), tuple(maps))


def _in_family(pm: PlanarMap, filt: CatalogFilter) -> bool:
    """Whether ``pm`` is a map of the family ``filt``."""
    return ((not filt.e or pm.edge_count == filt.e)
            and (not filt.perimeter
                 or len(pm.root_face()) == filt.perimeter)
            and (not (filt.q or filt.f) or pm.face_count - 1 == filt.f)
            and (not filt.q or all(len(c) == filt.q for c in pm.faces()
                                   if pm.root not in c))
            and (not filt.simple or BoundaryMap(pm).is_simple())
            and (not filt.bridgeless or BoundaryMap(pm).is_bridgeless()))


def catalog_dir() -> str | None:
    return os.environ.get("MAPGLUE_CATALOG_DIR")


def _catalog_filename(filt: CatalogFilter) -> str:
    return (f"q{filt.q}_f{filt.f}_e{filt.e}_p{filt.perimeter}"
            f"_s{int(filt.simple)}_b{int(filt.bridgeless)}.cat")


def save_catalog(cat: Catalog, directory: str | None = None) -> str:
    directory = directory or catalog_dir()
    if directory is None:
        raise FormatError("no catalog directory configured")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, _catalog_filename(cat.filter))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(catalog_to_text(cat))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def load_catalog(filt: CatalogFilter, directory: str | None = None) -> Catalog | None:
    directory = directory or catalog_dir()
    if directory is None:
        return None
    path = os.path.join(directory, _catalog_filename(filt))
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        cat = catalog_from_text(fh.read())
    if cat.filter != filt:
        raise FormatError(f"{path} holds the catalog of {cat.filter}, "
                          f"not of {filt}")
    return cat


_CATALOG_MEMO: dict[CatalogFilter, Catalog] = {}


def get_catalog(q: int = 0, f: int = 0, e: int = 0, perimeter: int = 0,
                simple: bool = False, bridgeless: bool = False) -> Catalog:
    """Fetch a catalog from memory or disk, building it on a miss."""
    _check_boundary_family(q, f, e, perimeter)
    filt = CatalogFilter(q, f, e, perimeter, simple, bridgeless)
    if filt in _CATALOG_MEMO:
        return _CATALOG_MEMO[filt]
    cat = load_catalog(filt)
    if cat is None:
        cat = enumerate_boundary_maps(q, f, e, perimeter, simple, bridgeless)
        if catalog_dir() is not None:
            save_catalog(cat)
    _CATALOG_MEMO[filt] = cat
    return cat
