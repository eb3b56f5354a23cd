from functools import cache
from hashlib import sha256
from math import comb
from random import Random

import pytest

from mapglue.enumeration import (Catalog, CatalogFilter, _subtrees,
                                 brute_count_decorated,
                                 brute_count_forest, catalog_from_text,
                                 catalog_to_text, enumerate_boundary_maps,
                                 enumerate_maps, get_catalog, load_catalog,
                                 save_catalog, sphere_qangulations,
                                 tree_submaps)
from mapglue.errors import (CapExceeded, Disconnected, FormatError,
                            Infeasible, InternalMismatch)
from mapglue.maps import BoundaryMap, PlanarMap, _canonical, build_map
from mapglue.trees import contour_to_tree, enumerate_trees
from mapglue.verify import _grid

from relabelling import min_code

TRIANGLE = build_map([2, 1, 4, 3, 6, 5], [4, 5, 6, 1, 2, 3], 1)


def is_q_angulation(pmap, q, skip_external=False):
    """Reference filter: every face has degree q; with ``skip_external``,
    every face but the external one, the face that holds the root."""
    return all(len(f) == q for f in pmap.faces()
               if not (skip_external and pmap.root in f))


def test_enumerate_maps_counts():
    # rooted planar maps with e edges: 2 3^e C(2e, e) / ((e + 1)(e + 2))
    sizes = [len(enumerate_maps(e)) for e in range(1, 7)]
    assert sizes == [2 * 3 ** e * comb(2 * e, e) // ((e + 1) * (e + 2))
                     for e in range(1, 7)]
    assert sizes == [2, 9, 54, 378, 2916, 24057]


def test_level_build_canonicalises_each_map_once_and_validates_none(
        monkeypatch):
    from mapglue import enumeration
    before = enumerate_maps(5)
    monkeypatch.setattr(enumeration, "_LEVELS", {})
    canonical, built = [], []
    monkeypatch.setattr(enumeration, "_canonical",
                        _counting(canonical, enumeration._canonical))
    monkeypatch.setattr(enumeration, "build_map",
                        _counting(built, enumeration.build_map))
    sizes = [len(enumerate_maps(e)) for e in range(1, 6)]
    # each level map is built and canonicalised once; its map holds its
    # code's arrays, so nothing is decoded or validated
    assert len(canonical) == sum(sizes) == 3359
    assert built == []
    again = enumerate_maps(5)
    assert again is not before and again == before
    assert again.maps() == before.maps()


def _with_edge_inserted(pmap):
    """Canonical codes of all maps obtained by inserting one edge, keeping
    the root dart.

    A corner is named by the dart it precedes in the rotation; the corner of
    dart d lies on the face of d, so an edge may join two corners exactly
    when their darts share a face.  The two new darts are interchangeable,
    hence unordered corner pairs suffice up to isomorphism.
    """
    n = pmap.dart_count
    x, y = n + 1, n + 2
    sigma = pmap.sigma
    alpha = pmap.alpha + (y, x)
    root = (pmap.root,)
    pred = [0] * n
    for d in range(1, n + 1):
        pred[sigma[d - 1] - 1] = d
    face = [0] * n
    for f, cyc in enumerate(pmap.faces()):
        for d in cyc:
            face[d - 1] = f
    for c1 in range(1, n + 1):
        p1 = pred[c1 - 1]
        # pendant edge hanging into the face at this corner
        s = list(sigma) + [c1, y]
        s[p1 - 1] = x
        yield _canonical(s, alpha, root)[0]
        # trivial loop inside the corner
        s = list(sigma) + [y, c1]
        s[p1 - 1] = x
        yield _canonical(s, alpha, root)[0]
        for c2 in range(c1 + 1, n + 1):
            if face[c1 - 1] != face[c2 - 1]:
                continue  # joining distinct faces would raise the genus
            p2 = pred[c2 - 1]
            s = list(sigma) + [c1, c2]
            s[p1 - 1] = x
            s[p2 - 1] = y
            yield _canonical(s, alpha, root)[0]


def test_root_edge_levels_match_edge_insertion():
    # the reference: every rooted map with e >= 2 edges has a removable
    # edge off the root dart (a non-bridge, or a pendant edge), so
    # inserting one edge in every way into the maps with e - 1 edges and
    # deduplicating by code gives each map with e edges once
    codes = {(1, 2, 2, 1), (2, 1, 2, 1)}  # the edge and the loop
    for e in range(1, 7):
        if e > 1:
            codes = {c for pm in maps for c in _with_edge_inserted(pm)}
        level = enumerate_maps(e)
        assert sorted(codes) == [c.code for c in level.entries]
        # the level's maps are built unchecked: each is a valid map, the
        # one its code describes
        maps = [build_map(c.code[:2 * e], c.code[2 * e:], 1)
                for c in level.entries]
        assert maps == level.maps()


def test_map_built_twice_raises(monkeypatch):
    from mapglue import enumeration
    monkeypatch.setattr(enumeration, "_LEVELS", {})
    real = enumeration._root_chords

    def chords(pmap):
        built = list(real(pmap))
        yield from built
        yield built[-1]

    monkeypatch.setattr(enumeration, "_root_chords", chords)
    with pytest.raises(InternalMismatch):
        enumerate_maps(1)


def _with_loose_loop(pmap):
    """Raw rotation arrays of ``pmap`` plus a loop at a new vertex."""
    n = pmap.dart_count
    loop = (n + 2, n + 1)
    return list(pmap.sigma) + list(loop), pmap.alpha + loop


@pytest.mark.parametrize("bad_candidate, error", [
    (_with_loose_loop, Disconnected),
])
def test_invalid_insertion_candidate_raises(monkeypatch, bad_candidate,
                                            error):
    # the bad candidate rides along with the root chords of the loop; it
    # is rooted at its first new dart, as every root chord is
    from mapglue import enumeration
    monkeypatch.setattr(enumeration, "_LEVELS", {})
    real = enumeration._root_chords

    def chords(pmap):
        yield from real(pmap)
        if pmap is not None and pmap.face_count > 1:
            yield bad_candidate(pmap)

    monkeypatch.setattr(enumeration, "_root_chords", chords)
    with pytest.raises(error):
        enumerate_maps(2)


def _counting(calls, real):
    """``real``, appending each call's arguments to ``calls``."""
    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    return counted


def _add_qgon(sigma, alpha, walk, i: int, q: int):
    """Split the external face, whose cycle is ``walk``, with a chord
    closing a q-gon over the external darts at positions i..i+q-2 of the
    walk; the raw ``sigma`` and ``alpha`` lists and the new external face
    cycle, which starts at the new external dart."""
    p = len(walk)
    n = len(sigma)
    x, y = n + 1, n + 2
    face1 = [x] + [walk[(i + k) % p] for k in range(q - 1)]
    face2 = [y] + [walk[(i + k) % p] for k in range(q - 1, p)]
    alpha = list(alpha) + [y, x]
    # sigma(alpha(d)) = phi(d): only the darts of the two new faces change
    sigma = list(sigma) + [0, 0]
    for cyc in (face1, face2):
        for k, d in enumerate(cyc):
            sigma[alpha[d - 1] - 1] = cyc[(k + 1) % len(cyc)]
    return sigma, alpha, face2


def _grown_boundary_codes(q, f, perimeter):
    """The reference: codes of the rooted maps with f internal q-gons and
    a root face of degree ``perimeter``, sorted, grown from the plane
    trees by splitting the external face with a chord that closes a new
    q-gon.  Deleting an edge shared by an internal face and the external
    face reduces every such map to a plane tree, so the growth is
    exhaustive; each step keeps one candidate per (map, external face),
    keyed by its smallest code over the external rootings."""
    p0 = perimeter + f * (q - 2)  # perimeter of the seed tree
    if f < 0 or p0 % 2 or p0 < 0:
        return []
    if p0 == 0:  # q = 1, seeded by the vertex map's one child, the loop
        seeds, steps = [build_map([2, 1], [2, 1], 1)], f - 1
    else:
        seeds = [contour_to_tree(path) for path in enumerate_trees(p0 // 2)]
        steps = f
    level = {}
    for t in seeds:
        walk = t.root_face()
        key = min_code(t.sigma, t.alpha, [(d,) for d in walk])[0]
        level.setdefault(key, (t.sigma, t.alpha, walk))
    for _ in range(steps):
        nxt = {}
        for sigma, alpha, walk in level.values():
            for i in range(len(walk)):
                cand = _add_qgon(sigma, alpha, walk, i, q)
                key = min_code(cand[0], cand[1],
                               [(d,) for d in cand[2]])[0]
                nxt.setdefault(key, cand)
        level = nxt
    return sorted({_canonical(sigma, alpha, (d,))[0]
                   for sigma, alpha, walk in level.values() for d in walk})


def _cells(q, max_edges, min_perimeter=1):
    """``(f, p)`` of every cell of q-angulations with at most
    ``max_edges`` edges and a root face of degree at least
    ``min_perimeter``."""
    return [(f, p) for f in range(2 * max_edges + 1)
            for p in range(min_perimeter, 2 * max_edges + 1)
            if (q * f + p) % 2 == 0 and q * f + p <= 2 * max_edges]


def test_qangulation_cells_match_growth(monkeypatch):
    from mapglue import enumeration
    monkeypatch.setattr(enumeration, "_QANG_LEVELS", {})
    cells = [(q, f, p) for q in range(1, 7) for f, p in _cells(q, 7)]
    assert len(cells) == 147
    for q, f, p in cells:
        cat = enumeration._qangulation_boundary_maps(
            CatalogFilter(q, f, perimeter=p))
        assert [c.code for c in cat.entries] == \
            _grown_boundary_codes(q, f, p), (q, f, p)


def _tutte_count(q, f, p):
    """W(f, p), the rooted maps with f internal q-gons and a root face of
    degree p, by the root-edge recursion: a root chord closing a q-gon
    (p >= 1) or a root bridge between two cells."""
    @cache
    def w(f, p):
        if f == p == 0:
            return 1
        if f < 0 or p < 1:
            return 0
        return w(f - 1, p + q - 2) + sum(
            w(f1, p1) * w(f - f1, p - 2 - p1)
            for f1 in range(f + 1) for p1 in range(p - 1))
    return w(f, p)


def test_qangulation_cell_sizes_follow_the_recursion():
    for q in (3, 4):
        for f, p in _cells(q, 8, min_perimeter=2):
            assert len(enumerate_boundary_maps(q=q, f=f, perimeter=p)) == \
                _tutte_count(q, f, p), (q, f, p)
    assert len(sphere_qangulations(4, 5)) == _tutte_count(4, 4, 4) == 2916
    assert len(sphere_qangulations(3, 6)) == _tutte_count(3, 5, 3)


def test_qangulation_cell_canonicalises_each_kept_map_once_and_validates_none(
        monkeypatch):
    from mapglue import enumeration
    whole = enumerate_boundary_maps(q=4, f=3, perimeter=4)
    before = enumerate_boundary_maps(q=4, f=3, perimeter=4, simple=True)
    monkeypatch.setattr(enumeration, "_QANG_LEVELS", {})
    canonical, built = [], []
    monkeypatch.setattr(enumeration, "_canonical",
                        _counting(canonical, enumeration._canonical))
    monkeypatch.setattr(enumeration, "build_map",
                        _counting(built, enumeration.build_map))
    again = enumerate_boundary_maps(q=4, f=3, perimeter=4, simple=True)
    assert again == before and again.maps() == before.maps()
    # the filter runs on the raw maps first, and neither the kept maps
    # nor the intermediate cells are validated
    assert len(canonical) == len(again) < len(whole)
    assert built == []


def test_qangulation_growth_memoised(monkeypatch):
    from mapglue import enumeration
    monkeypatch.setattr(enumeration, "_QANG_LEVELS", {})
    first = enumerate_boundary_maps(q=4, f=2, perimeter=4)
    calls = []
    for name in ("_root_chords", "_bridge"):
        monkeypatch.setattr(enumeration, name,
                            _counting(calls, getattr(enumeration, name)))
    assert enumerate_boundary_maps(q=4, f=2, perimeter=4) is first
    assert calls == []
    # the memo is keyed by the whole filter
    simple = enumerate_boundary_maps(q=4, f=2, perimeter=4, simple=True)
    assert calls and len(simple) < len(first)
    assert list(enumeration._QANG_LEVELS) == [
        CatalogFilter(4, 2, perimeter=4),
        CatalogFilter(4, 2, perimeter=4, simple=True)]


def _same_map(pmap):
    """Raw rotation arrays of ``pmap`` itself."""
    return pmap.sigma, pmap.alpha


@pytest.mark.parametrize("bad_candidate, error", [
    (_with_loose_loop, Disconnected),
    (_same_map, InternalMismatch),
])
def test_invalid_qangulation_candidate_raises(monkeypatch, bad_candidate,
                                              error):
    # the bad candidate rides along with the maps of the requested cell;
    # it is rooted at its last dart but one, as every built map is
    from mapglue import enumeration
    monkeypatch.setattr(enumeration, "_QANG_LEVELS", {})
    real = enumeration._cell_maps

    def cell_maps(q, f, p, factors):
        built = list(real(q, f, p, factors))
        yield from built
        if (f, p) == (1, 4):
            sigma, alpha = bad_candidate(built[-1])
            yield PlanarMap(tuple(sigma), alpha, len(sigma) - 1)

    monkeypatch.setattr(enumeration, "_cell_maps", cell_maps)
    with pytest.raises(error):
        enumerate_boundary_maps(q=4, f=1, perimeter=4)


def test_grown_maps_are_valid():
    # the growth builds its maps unchecked: build_map gives each one back
    pools = [sphere_qangulations(4, 5), sphere_qangulations(3, 6)]
    pools += [enumerate_boundary_maps(q=q, f=f, perimeter=2 * m,
                                      simple=True).maps()
              for q in (3, 4) for f, m in _grid(q)]
    assert len(pools[0]) == 2916
    for pool in pools:
        assert pool
        for pm in pool:
            assert build_map(pm.sigma, pm.alpha, pm.root) == pm


def test_enumerate_maps_entries_are_canonical_and_distinct():
    cat = enumerate_maps(2)
    assert len(set(cat.entries)) == len(cat)
    assert [pm.canonical_code() for pm in cat.maps()] == list(cat.entries)
    for pm in cat.maps():
        assert pm.edge_count == 2


def _distinct_shared_alphas(cat) -> int:
    """The number of distinct alpha arrays of ``cat``, after checking
    that each entry holds its map's own sigma and alpha tuples and that
    equal alpha arrays are one tuple."""
    maps = cat.maps()
    assert len(maps) == len(cat)
    for entry, pm in zip(cat.entries, maps):
        assert entry.sigma is pm.sigma and entry.alpha is pm.alpha
    alphas = [pm.alpha for pm in maps]
    assert len({id(a) for a in alphas}) == len(set(alphas))
    return len(set(alphas))


def test_catalog_holds_each_map_once():
    assert [_distinct_shared_alphas(enumerate_maps(e))
            for e in range(1, 7)] == [1, 2, 4, 10, 26, 73]
    cell = enumerate_boundary_maps(q=4, f=4, perimeter=4, simple=True)
    assert len(cell) == 810
    for cat in (enumerate_maps(5), cell):
        again = catalog_from_text(catalog_to_text(cat))
        assert again == cat
        assert _distinct_shared_alphas(again) == _distinct_shared_alphas(cat)


def test_entry_order_is_code_order():
    # entries of one edge count compare as their concatenated codes
    for e in (5, 6):
        entries = list(enumerate_maps(e).entries)
        shuffled = Random(e).sample(entries, len(entries))
        assert sorted(shuffled) == sorted(shuffled, key=lambda c: c.code)
        assert sorted(shuffled) == entries


def test_cap_exceeded():
    with pytest.raises(CapExceeded):
        enumerate_maps(99)
    with pytest.raises(CapExceeded):
        enumerate_boundary_maps(q=4, f=40, perimeter=2)
    # sphere pools are grown, so QANG_EDGE_CAP (10 edges) bounds them
    assert len(sphere_qangulations(4, 5)) > 0
    with pytest.raises(CapExceeded):
        sphere_qangulations(4, 6)


def test_boundary_map_anchors():
    assert len(enumerate_boundary_maps(q=3, f=2, perimeter=2,
                                       simple=True)) == 3
    assert len(enumerate_boundary_maps(q=4, f=1, perimeter=2,
                                       simple=True)) == 2
    assert len(enumerate_boundary_maps(q=3, f=2, perimeter=4,
                                       simple=True)) == 2
    # an edge count, when given, must be the one q, f and the perimeter fix
    assert enumerate_boundary_maps(q=4, f=1, e=3, perimeter=2).entries == \
        enumerate_boundary_maps(q=4, f=1, perimeter=2).entries
    with pytest.raises(Infeasible):
        enumerate_boundary_maps(q=4, f=1, e=5, perimeter=2)


def test_boundary_catalogs_match_direct_filter():
    for q in (1, 2, 3, 4):
        for f in (1, 2):
            for m in (1, 2):
                total = q * f + 2 * m
                if total % 2 or total // 2 > 5:
                    continue
                e = total // 2
                direct = 0
                for pm in enumerate_maps(e).maps():
                    b = BoundaryMap(pm)
                    if (b.perimeter == 2 * m and pm.face_count - 1 == f
                            and is_q_angulation(pm, q, skip_external=True)):
                        direct += 1
                grown = len(enumerate_boundary_maps(q=q, f=f,
                                                    perimeter=2 * m))
                assert grown == direct, (q, f, m)


def test_sphere_pools_match_filtered_level():
    # the reference: every map of the e-edge level whose faces all have
    # degree q, in level order; q = 1 at f = 2 (the one-loop map) is grown
    # from no seed tree
    cases = [(q, f) for q in range(1, 7) for f in range(1, 13)
             if q * f % 2 == 0 and q * f // 2 <= 6]
    assert (1, 2) in cases
    for q, f in cases:
        e = q * f // 2
        direct = [pm for pm in enumerate_maps(e).maps()
                  if is_q_angulation(pm, q)]
        assert sphere_qangulations(q, f) == direct, (q, f)


def test_is_q_angulation():
    assert is_q_angulation(TRIANGLE, 3)
    assert not is_q_angulation(TRIANGLE, 4)
    assert is_q_angulation(TRIANGLE, 3, skip_external=True)


def test_tree_submaps():
    assert len(tree_submaps(TRIANGLE, 1)) == 3
    assert len(tree_submaps(TRIANGLE, 2)) == 3  # any two edges of the cycle
    assert tree_submaps(TRIANGLE, 3) == []  # the full cycle is not a tree


def test_subtrees_through_an_edge_are_the_filtered_subtrees():
    """On every map with at most 4 edges, for every size m (0 included)
    and every edge: the trees grown through the edge are exactly the
    m-edge trees that hold it, with the same vertex sets."""
    for e in range(1, 5):
        for pmap in enumerate_maps(e).maps():
            for m in range(e + 1):
                trees = list(_subtrees(pmap, m))
                for edge in pmap.edges():
                    through = list(_subtrees(pmap, m, edge))
                    assert len({s for s, _ in through}) == len(through)
                    assert {(s, frozenset(v)) for s, v in through} == \
                        {(s, frozenset(v)) for s, v in trees if edge in s}
                    assert tree_submaps(pmap, m, edge) == \
                        [s for s, _ in through]


def test_brute_counts_anchor():
    assert brute_count_decorated(3, f=2, tree_sizes=[1],
                                 root_mode="anywhere") == 9
    assert brute_count_decorated(4, f=1, tree_sizes=[1],
                                 root_mode="anywhere") == 4
    assert brute_count_forest(4, 2, [1, 1], rooted_labeled=False) == 6


def test_catalog_text_round_trip():
    cat = enumerate_boundary_maps(q=4, f=1, perimeter=2, simple=True)
    text = catalog_to_text(cat)
    again = catalog_from_text(text)
    assert again == cat
    assert text.startswith("catalog q=4 f=1 ")
    assert text.rstrip().splitlines()[-1].startswith("checksum=")


@pytest.mark.parametrize("kwargs, digest", [
    (dict(e=6, perimeter=4),
     "cdffd3f99af18d17463eea8869323f7ca343b8e3f64d577d0555bc8ab82fcdd0"),
    (dict(q=4, f=4, perimeter=4, simple=True),
     "a8772ecc2c0184c53344fffb1845040aacf6718fdbf84e5988ac428769727638"),
    (dict(q=3, f=5, perimeter=3),
     "3e1d6030590f17409b2ffd0fb7570ebaf3c9999a0da6ac8026175223cbac9989"),
    (dict(q=4, f=3, perimeter=6, simple=True),
     "b845011ef19196c570947731056b8660b9fbb89c5d754fb5df8a5d3b09cd2b2b"),
    (dict(q=3, f=4, perimeter=4, simple=True),
     "64dba0dd4a5c4ffc3288965b2f07a37c095fbbac8cc4b04e37c5114000ad9863"),
])
def test_catalog_bytes_unchanged(kwargs, digest):
    # the SHA-256 of the whole text, so saved catalog files stay valid
    text = catalog_to_text(enumerate_boundary_maps(**kwargs))
    assert sha256(text.encode()).hexdigest() == digest


def test_catalog_text_corruption_detected():
    cat = enumerate_maps(1)
    text = catalog_to_text(cat)
    lines = text.splitlines()
    lines[1] = lines[1].replace("1", "2", 1)
    with pytest.raises(FormatError):
        catalog_from_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError):
        catalog_from_text("catalog nope\n")
    # malformed bodies that carry a matching checksum
    from mapglue.enumeration import _checksum_line
    good_head = text.splitlines()[0]
    for body in ("\n", "catalog nope\n", good_head + "\n1,x\n"):
        with pytest.raises(FormatError):
            catalog_from_text(body + _checksum_line(body) + "\n")


def _with_header(text: str, head: str) -> str:
    """``text`` with its header line replaced and its checksum redone."""
    from mapglue.enumeration import _checksum_line
    body = "".join(line + "\n" for line in [head] + text.splitlines()[1:-1])
    return body + _checksum_line(body) + "\n"


def test_catalog_format_version_required():
    text = catalog_to_text(enumerate_maps(2))
    head = text.splitlines()[0]
    assert head.endswith(" version=1")
    assert catalog_from_text(_with_header(text, head)) == enumerate_maps(2)
    with pytest.raises(FormatError, match="no format version"):
        catalog_from_text(_with_header(text, head[:-len(" version=1")]))
    with pytest.raises(FormatError, match="version 2"):
        catalog_from_text(_with_header(text, head[:-1] + "2"))


def test_catalog_disk_round_trip(tmp_path):
    cat = enumerate_boundary_maps(q=3, f=2, perimeter=2, simple=True)
    path = save_catalog(cat, str(tmp_path))
    assert path.endswith(".cat")
    again = load_catalog(cat.filter, str(tmp_path))
    assert again == cat
    assert load_catalog(CatalogFilter(q=9), str(tmp_path)) is None


def test_save_catalog_failed_write_keeps_old_file(tmp_path, monkeypatch):
    from mapglue import enumeration
    cat = enumerate_boundary_maps(q=4, f=1, perimeter=2, simple=True)
    target = tmp_path / "q4_f1_e0_p2_s1_b0.cat"
    assert save_catalog(cat, str(tmp_path)) == str(target)
    before = target.read_bytes()
    # a lone surrogate cannot be encoded, so the write raises partway
    monkeypatch.setattr(enumeration, "catalog_to_text",
                        lambda cat: before.decode()[:40] + "\udc80")
    with pytest.raises(UnicodeEncodeError):
        save_catalog(cat, str(tmp_path))
    assert list(tmp_path.iterdir()) == [target]
    assert target.read_bytes() == before


def test_get_catalog_uses_env_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("MAPGLUE_CATALOG_DIR", str(tmp_path))
    from mapglue import enumeration
    filt = CatalogFilter(q=4, f=1, e=0, perimeter=4, simple=True)
    enumeration._CATALOG_MEMO.pop(filt, None)
    cat = get_catalog(q=4, f=1, perimeter=4, simple=True)
    assert (tmp_path / "q4_f1_e0_p4_s1_b0.cat").exists()
    enumeration._CATALOG_MEMO.pop(filt, None)
    again = get_catalog(q=4, f=1, perimeter=4, simple=True)
    assert again == cat


def test_catalog_is_value_object():
    cat = enumerate_maps(1)
    assert isinstance(cat, Catalog)
    assert len(cat.maps()) == len(cat) == 2


def test_catalog_reordered_entries_detected():
    lines = catalog_to_text(enumerate_maps(3)).splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    with pytest.raises(FormatError):
        catalog_from_text("\n".join(lines) + "\n")


def test_load_catalog_refuses_other_filter_and_old_checksum(tmp_path):
    from mapglue import enumeration
    cat = enumerate_boundary_maps(q=4, f=1, perimeter=2, simple=True)
    path = save_catalog(cat, str(tmp_path))
    other = CatalogFilter(q=4, f=1, perimeter=2)
    (tmp_path / enumeration._catalog_filename(other)).write_text(
        catalog_to_text(cat))
    with pytest.raises(FormatError):
        load_catalog(other, str(tmp_path))
    # a file with the earlier byte-sum checksum
    body = catalog_to_text(cat).rsplit("checksum=", 1)[0]
    with open(path, "w") as fh:
        fh.write(body + f"checksum={sum(body.encode()) & 0xFFFFFFFF:08x}\n")
    with pytest.raises(FormatError):
        load_catalog(cat.filter, str(tmp_path))


def test_cap_checked_on_warm_calls(monkeypatch):
    monkeypatch.delenv("MAPGLUE_CATALOG_DIR", raising=False)
    assert len(get_catalog(q=4, f=2, perimeter=4, simple=True)) == 10
    assert enumerate_boundary_maps(q=4, f=2, perimeter=4, simple=True) is \
        enumerate_boundary_maps(q=4, f=2, perimeter=4, simple=True)
    with pytest.raises(CapExceeded):
        enumerate_boundary_maps(q=4, f=2, perimeter=4, simple=True, cap=3)
    assert enumerate_maps(6) is enumerate_maps(6)
    with pytest.raises(CapExceeded):
        enumerate_maps(6, cap=5)


def test_catalog_maps_validated_on_first_call_only(tmp_path, monkeypatch):
    # only a catalog read from a file is validated, each entry once, when
    # get_catalog first loads it
    from mapglue import enumeration
    monkeypatch.setenv("MAPGLUE_CATALOG_DIR", str(tmp_path))
    monkeypatch.setattr(enumeration, "_CATALOG_MEMO", {})
    calls = []
    monkeypatch.setattr(enumeration, "build_map",
                        _counting(calls, enumeration.build_map))
    cat = enumerate_maps(4)
    first = cat.maps()
    second = cat.maps()
    assert second == first and second is not first
    second.clear()
    assert len(cat.maps()) == 378
    built = get_catalog(e=4, perimeter=4)  # a miss: built and saved
    assert len(built.maps()) == len(built) == 58
    assert calls == []
    monkeypatch.setattr(enumeration, "_CATALOG_MEMO", {})
    loaded = get_catalog(e=4, perimeter=4)
    assert len(calls) == len(loaded) == 58
    assert loaded == built and loaded.maps() == built.maps()
    assert get_catalog(e=4, perimeter=4) is loaded
    assert len(calls) == 58
