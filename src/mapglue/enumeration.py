"""Exhaustive generation of rooted planar maps and filtered catalogs.

General rooted maps are generated by edge insertion.  Every rooted map with
e >= 2 edges contains a removable edge (a non-bridge, or a pendant edge)
that does not carry the root dart, so inserting one edge in every possible
way into the maps with e-1 edges and deduplicating by canonical code yields
each rooted map with e edges exactly once.

Boundary catalogs of q-angulations need more edges than the general growth
can afford, so they are grown separately: starting from a plane tree (whose
single face is the external face), each level splits the external face with
a chord that closes off one new internal q-gon.  The reverse move (deleting
one edge shared by an internal face and the external face) reduces any map
whose internal faces are all q-gons to a plane tree, so this growth is also
exhaustive.

Everything is computed at most once per process: each general level (its
catalog, and that catalog's decoded maps), each q-angulation boundary level,
each filtered pool of sphere q-angulations, and each catalog fetched through
:func:`get_catalog`.  The size cap is checked before every one of these
memos is consulted, so a warm call refuses exactly what a cold call refuses.

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
from dataclasses import dataclass, field
from itertools import combinations

try:  # the builtin module, as random.py does: hashlib also loads OpenSSL
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

from .errors import CapExceeded, FormatError, Infeasible
from .maps import (BoundaryMap, CanonicalCode, PlanarMap, build_map,
                   is_q_angulation)
from .trees import contour_to_tree, enumerate_trees

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
    filter: CatalogFilter
    entries: tuple[CanonicalCode, ...]
    _maps: list[PlanarMap] | None = field(default=None, init=False,
                                          repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.entries)

    def maps(self) -> list[PlanarMap]:
        """The entries as maps.  The first call decodes and validates every
        entry; later calls return a new list of the same maps."""
        if self._maps is None:
            object.__setattr__(self, "_maps",
                               [decode_code(c) for c in self.entries])
        return list(self._maps)


def decode_code(code: CanonicalCode) -> PlanarMap:
    half = len(code.code) // 2
    return build_map(code.code[:half], code.code[half:], 1)


def _code_of(canonical: PlanarMap) -> CanonicalCode:
    """Code of a map that is already in canonical form."""
    return CanonicalCode(canonical.sigma + canonical.alpha)


def _check_cap(edges: int, cap: int | None, default: int) -> None:
    cap = default if cap is None else cap
    if edges > cap:
        raise CapExceeded(f"{edges} edges exceeds cap {cap}")


# -- general rooted maps, by edge count ----------------------------------------

def _base_maps() -> list[PlanarMap]:
    edge = build_map((1, 2), (2, 1), 1)
    loop = build_map((2, 1), (2, 1), 1)
    return [edge, loop]


def _with_edge_inserted(pmap: PlanarMap) -> list[PlanarMap]:
    """All maps obtained by inserting one edge, keeping the root dart.

    A corner is named by the dart it precedes in the rotation; the corner of
    dart d lies on the face of d, so an edge may join two corners exactly
    when their darts share a face.  The two new darts are interchangeable,
    hence unordered corner pairs suffice up to isomorphism.
    """
    n = pmap.dart_count
    x, y = n + 1, n + 2
    sigma = pmap.sigma
    alpha = pmap.alpha + (y, x)
    pred = [0] * n
    for d in range(1, n + 1):
        pred[sigma[d - 1] - 1] = d
    face = [pmap.face_of(d) for d in range(1, n + 1)]
    out = []
    for c1 in range(1, n + 1):
        p1 = pred[c1 - 1]
        # pendant edge hanging into the face at this corner
        s = list(sigma) + [c1, y]
        s[p1 - 1] = x
        out.append(build_map(s, alpha, pmap.root))
        # trivial loop inside the corner
        s = list(sigma) + [y, c1]
        s[p1 - 1] = x
        out.append(build_map(s, alpha, pmap.root))
        for c2 in range(c1 + 1, n + 1):
            if face[c1 - 1] != face[c2 - 1]:
                continue  # joining distinct faces would raise the genus
            p2 = pred[c2 - 1]
            s = list(sigma) + [c1, c2]
            s[p1 - 1] = x
            s[p2 - 1] = y
            out.append(build_map(s, alpha, pmap.root))
    return out


_LEVELS: dict[int, Catalog] = {}


def _level(e: int) -> Catalog:
    """All rooted planar maps with e edges, sorted by code."""
    if e not in _LEVELS:
        if e == 1:
            candidates = _base_maps()
        else:  # streamed: only the distinct codes are kept
            candidates = (cand for pm in _level(e - 1).maps()
                          for cand in _with_edge_inserted(pm))
        codes = {cand.canonical_code() for cand in candidates}
        _LEVELS[e] = Catalog(CatalogFilter(e=e), tuple(sorted(codes)))
    return _LEVELS[e]


def enumerate_maps(e: int, cap: int | None = None) -> Catalog:
    """Catalog of all rooted planar maps with e edges, built once per
    process."""
    if e < 1:
        raise Infeasible("edge count must be at least 1")
    _check_cap(e, cap, EDGE_CAP)
    return _level(e)


# -- q-angulation boundary growth ----------------------------------------------

def _external_canonical(pmap: PlanarMap) -> CanonicalCode:
    """Identity of (map, external face): minimum code over external rootings."""
    return min(pmap.rerooted(d).canonical_code() for d in pmap.root_face())


def _add_qgon(pmap: PlanarMap, i: int, q: int) -> PlanarMap:
    """Split the external face with a chord closing a q-gon over the
    external darts at positions i..i+q-2 of the boundary walk."""
    walk = pmap.root_face()
    p = len(walk)
    n = pmap.dart_count
    x, y = n + 1, n + 2
    face1 = [x] + [walk[(i + k) % p] for k in range(q - 1)]
    face2 = [y] + [walk[(i + k) % p] for k in range(q - 1, p)]
    phi = [0] * (n + 2)
    ext = pmap.face_of(pmap.root)
    for d in pmap.darts():
        if pmap.face_of(d) != ext:
            phi[d - 1] = pmap.phi_of(d)
    for cyc in (face1, face2):
        for k, d in enumerate(cyc):
            phi[d - 1] = cyc[(k + 1) % len(cyc)]
    alpha = pmap.alpha + (y, x)
    sigma = [phi[alpha[d - 1] - 1] for d in range(1, n + 3)]
    return build_map(sigma, alpha, y)


_QANG_LEVELS: dict[tuple[int, int, int], tuple[PlanarMap, ...]] = {}


def _qangulation_boundary_maps(q: int, f: int, perimeter: int) -> tuple[PlanarMap, ...]:
    """Rooted maps with f internal q-gon faces and external (root) face of
    the given degree, each rooted-map exactly once, sorted by code."""
    key = (q, f, perimeter)
    if key in _QANG_LEVELS:
        return _QANG_LEVELS[key]
    p0 = perimeter + f * (q - 2)
    if p0 % 2 or p0 < 2:
        _QANG_LEVELS[key] = ()
        return ()
    # representatives keyed by external-rooting-invariant identity
    level: dict[CanonicalCode, PlanarMap] = {}
    for path in enumerate_trees(p0 // 2):
        t = contour_to_tree(path)
        level.setdefault(_external_canonical(t), t)
    for _ in range(f):
        nxt: dict[CanonicalCode, PlanarMap] = {}
        for pm in level.values():
            p = len(pm.root_face())
            for i in range(p):
                cand = _add_qgon(pm, i, q)
                nxt.setdefault(_external_canonical(cand), cand)
        level = nxt
    rooted: dict[CanonicalCode, PlanarMap] = {}
    for pm in level.values():
        for d in pm.root_face():
            form = pm.rerooted(d).canonical_form()
            rooted.setdefault(_code_of(form), form)
    result = tuple(rooted[c] for c in sorted(rooted))
    _QANG_LEVELS[key] = result
    return result


def _check_boundary_family(q: int, f: int, e: int, perimeter: int,
                           cap: int | None) -> None:
    """Raise unless the boundary family is feasible and within the cap."""
    if q == 0:
        if e < 1:
            raise Infeasible("general boundary catalogs need an edge count")
        _check_cap(e, cap, EDGE_CAP)
        return
    total = q * f + perimeter
    if total % 2:
        raise Infeasible(f"q={q}, f={f}, perimeter={perimeter}: "
                         "odd total degree")
    _check_cap(total // 2, cap, QANG_EDGE_CAP)
    if perimeter < 2:
        raise Infeasible("perimeter must be at least 2")


def enumerate_boundary_maps(q: int = 0, f: int = 0, e: int = 0,
                            perimeter: int = 0, simple: bool = False,
                            bridgeless: bool = False,
                            cap: int | None = None) -> Catalog:
    """Catalog of rooted maps whose root face matches the boundary filter."""
    _check_boundary_family(q, f, e, perimeter, cap)
    filt = CatalogFilter(q, f, e, perimeter, simple, bridgeless)
    if q == 0:
        pool = enumerate_maps(e, cap=cap).maps()
    else:
        pool = _qangulation_boundary_maps(q, f, perimeter)
    entries = []
    for pm in pool:
        b = BoundaryMap(pm)
        if perimeter and b.perimeter != perimeter:
            continue
        if f and pm.face_count - 1 != f:
            continue
        if q and not is_q_angulation(pm, q, skip_external=True):
            continue
        if simple and not b.is_simple():
            continue
        if bridgeless and not b.is_bridgeless():
            continue
        entries.append(_code_of(pm))
    return Catalog(filt, tuple(sorted(entries)))


# -- decorated brute-force counts -----------------------------------------------

def _edge_endpoints(pmap: PlanarMap) -> dict[int, tuple[int, int]]:
    return {d: (pmap.vertex_of(d), pmap.vertex_of(pmap.alpha_of(d)))
            for d in pmap.edges()}


def _is_tree_subset(ends: dict[int, tuple[int, int]], combo) -> bool:
    parent: dict[int, int] = {}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in combo:
        for v in ends[e]:
            parent.setdefault(v, v)
        a, b = find(ends[e][0]), find(ends[e][1])
        if a == b:
            return False
        parent[a] = b
    return len(parent) == len(combo) + 1


def tree_submaps(pmap: PlanarMap, m: int) -> list[frozenset[int]]:
    """All m-edge tree submaps, as frozensets of edge ids."""
    ends = _edge_endpoints(pmap)
    return [frozenset(c) for c in combinations(pmap.edges(), m)
            if _is_tree_subset(ends, c)]


def _tree_vertices(pmap: PlanarMap, edges: frozenset[int]) -> frozenset[int]:
    out = set()
    for e in edges:
        out.add(pmap.vertex_of(e))
        out.add(pmap.vertex_of(pmap.alpha_of(e)))
    return frozenset(out)


_SPHERES: dict[tuple[int, int], list[PlanarMap]] = {}


def sphere_qangulations(q: int, f: int, cap: int | None = None) -> list[PlanarMap]:
    """All rooted maps of the sphere whose faces all have degree q."""
    if q * f % 2:
        raise Infeasible(f"q={q}, f={f}: odd total degree")
    e = q * f // 2
    _check_cap(e, cap, EDGE_CAP)
    if (q, f) not in _SPHERES:
        _SPHERES[q, f] = [pm for pm in enumerate_maps(e, cap=cap).maps()
                          if is_q_angulation(pm, q)]
    return list(_SPHERES[q, f])


def brute_count_decorated(q: int, f: int | None = None, e: int | None = None,
                          tree_sizes=(1,), root_mode: str = "on-tree",
                          cap: int | None = None) -> int:
    """Count (rooted map, decoration) pairs by exhaustive search.

    The family is sphere q-angulations with f faces when q is 3 or 4, and
    general maps with e edges when q is 0.  Since the catalogs contain each
    rooted map exactly once and a rooted map has no nontrivial automorphism,
    the count is a direct sum over catalog entries.
    """
    if root_mode not in ("on-tree", "anywhere"):
        raise ValueError(f"unknown root mode {root_mode!r}")
    sizes = list(tree_sizes)
    if len(sizes) != 1:
        raise Infeasible("single-tree decorations only; see brute_count_forest")
    m = sizes[0]
    if q == 0:
        if e is None:
            raise Infeasible("general family needs an edge count")
        pool = enumerate_maps(e, cap=cap).maps()
    else:
        if f is None:
            raise Infeasible("q-angulation family needs a face count")
        pool = sphere_qangulations(q, f, cap=cap)
    total = 0
    for pm in pool:
        subs = tree_submaps(pm, m)
        if root_mode == "on-tree":
            root_edge = pm.edge_of(pm.root)
            total += sum(1 for s in subs if root_edge in s)
        else:
            total += len(subs)
    return total


def brute_count_forest(q: int, f: int, sizes, rooted_labeled: bool,
                       cap: int | None = None) -> int:
    """Exhaustive count of forest-decorated sphere q-angulations.

    Unlabeled: the map is rooted anywhere and the decoration is an unordered
    set of vertex-disjoint unrooted tree submaps with the given size
    multiset.  Rooted-labeled: the trees are ordered, the map root edge lies
    on tree 1 and serves as its root, and every other tree carries its own
    root dart (2 m_i choices).
    """
    sizes = list(sizes)
    pool = sphere_qangulations(q, f, cap=cap)
    total = 0
    for pm in pool:
        by_size = {k: [(s, _tree_vertices(pm, s)) for s in tree_submaps(pm, k)]
                   for k in set(sizes)}
        if rooted_labeled:
            root_edge = pm.edge_of(pm.root)

            def rec(i: int, used: frozenset[int]) -> int:
                if i == len(sizes):
                    return 1
                n = 0
                for s, verts in by_size[sizes[i]]:
                    if verts & used:
                        continue
                    if i == 0:
                        if root_edge not in s:
                            continue
                        weight = 1
                    else:
                        weight = 2 * sizes[i]
                    n += weight * rec(i + 1, used | verts)
                return n

            total += rec(0, frozenset())
        else:
            found: set[frozenset[frozenset[int]]] = set()

            def rec_sets(i: int, used: frozenset[int], chosen):
                if i == len(sizes):
                    found.add(frozenset(chosen))
                    return
                for s, verts in by_size[sizes[i]]:
                    if verts & used or s in chosen:
                        continue
                    rec_sets(i + 1, used | verts, chosen + [s])

            rec_sets(0, frozenset(), [])
            total += len(found)
    return total


# -- catalog persistence --------------------------------------------------------

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
    lines = text.splitlines()
    if len(lines) < 2 or not lines[-1].startswith("checksum="):
        raise FormatError("missing checksum line")
    body = "".join(line + "\n" for line in lines[:-1])
    if lines[-1] != _checksum_line(body):
        raise FormatError("catalog checksum mismatch")
    head = lines[0].split()
    if not head or head[0] != "catalog":
        raise FormatError("not a catalog file")
    try:
        kv = dict(tok.split("=", 1) for tok in head[1:])
    except ValueError as exc:
        raise FormatError("malformed catalog header") from exc
    if "version" not in kv:
        raise FormatError("catalog header has no format version")
    if kv["version"] != CATALOG_VERSION:
        raise FormatError(f"catalog format version {kv['version']}, "
                          f"expected {CATALOG_VERSION}")
    try:
        filt = CatalogFilter(int(kv["q"]), int(kv["f"]), int(kv["e"]),
                             int(kv["perim"]), bool(int(kv["simple"])),
                             bool(int(kv["bridgeless"])))
        count = int(kv["count"])
    except (KeyError, ValueError) as exc:
        raise FormatError("malformed catalog header") from exc
    try:
        entries = tuple([CanonicalCode(tuple([int(v) for v in ln.split(",")]))
                         for ln in lines[1:-1]])
    except ValueError as exc:
        raise FormatError("malformed catalog entry") from exc
    if len(entries) != count:
        raise FormatError("catalog count does not match the entry lines")
    return Catalog(filt, entries)


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
                simple: bool = False, bridgeless: bool = False,
                cap: int | None = None) -> Catalog:
    """Fetch a catalog from memory or disk, building it on a miss."""
    _check_boundary_family(q, f, e, perimeter, cap)
    filt = CatalogFilter(q, f, e, perimeter, simple, bridgeless)
    if filt in _CATALOG_MEMO:
        return _CATALOG_MEMO[filt]
    cat = load_catalog(filt)
    if cat is None:
        cat = enumerate_boundary_maps(q, f, e, perimeter, simple, bridgeless,
                                      cap=cap)
        if catalog_dir() is not None:
            save_catalog(cat)
    _CATALOG_MEMO[filt] = cat
    return cat
