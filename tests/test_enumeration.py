import pytest

from mapglue.enumeration import (Catalog, CatalogFilter, brute_count_decorated,
                                 brute_count_forest, catalog_from_text,
                                 catalog_to_text, enumerate_boundary_maps,
                                 enumerate_maps, get_catalog, load_catalog,
                                 save_catalog, sphere_qangulations,
                                 tree_submaps)
from mapglue.errors import CapExceeded, FormatError
from mapglue.maps import BoundaryMap, build_map, is_q_angulation


def test_enumerate_maps_counts():
    # rooted planar maps with e edges: 2, 9, 54, 378
    assert [len(enumerate_maps(e)) for e in range(1, 5)] == [2, 9, 54, 378]


def test_enumerate_maps_entries_are_canonical_and_distinct():
    cat = enumerate_maps(2)
    assert len(set(cat.entries)) == len(cat)
    for pm in cat.maps():
        assert pm.canonical_code().code == pm.canonical_code().code
        assert pm.edge_count == 2


def test_cap_exceeded():
    with pytest.raises(CapExceeded):
        enumerate_maps(99)
    with pytest.raises(CapExceeded):
        enumerate_boundary_maps(q=4, f=40, perimeter=2)


def test_boundary_map_anchors():
    assert len(enumerate_boundary_maps(q=3, f=2, perimeter=2,
                                       simple=True)) == 3
    assert len(enumerate_boundary_maps(q=4, f=1, perimeter=2,
                                       simple=True)) == 2
    assert len(enumerate_boundary_maps(q=3, f=2, perimeter=4,
                                       simple=True)) == 2


def test_boundary_catalogs_match_direct_filter():
    for q in (3, 4):
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


def test_tree_submaps():
    tri = build_map([2, 1, 4, 3, 6, 5], [4, 5, 6, 1, 2, 3], 1)
    assert len(tree_submaps(tri, 1)) == 3
    assert len(tree_submaps(tri, 2)) == 3  # any two edges of the 3-cycle
    assert tree_submaps(tri, 3) == []  # the full cycle is not a tree


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
    with pytest.raises(CapExceeded):
        get_catalog(q=4, f=2, perimeter=4, simple=True, cap=3)
    assert enumerate_maps(6) is enumerate_maps(6)
    with pytest.raises(CapExceeded):
        enumerate_maps(6, cap=5)
    assert len(sphere_qangulations(4, 3)) > 0
    with pytest.raises(CapExceeded):
        sphere_qangulations(4, 3, cap=5)


def test_catalog_maps_validated_on_first_call_only(monkeypatch):
    from mapglue import enumeration
    cat = Catalog(CatalogFilter(e=4), enumerate_maps(4).entries)
    calls = []
    real = enumeration.build_map

    def counting_build_map(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(enumeration, "build_map", counting_build_map)
    first = cat.maps()
    assert len(calls) == len(cat) == 378
    second = cat.maps()
    assert len(calls) == 378
    assert second == first and second is not first
    second.clear()
    assert len(cat.maps()) == 378
