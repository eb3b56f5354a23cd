"""Malformed-input contract: every text format, mutated.

Each deterministic mutation of a valid record must either parse or raise a
``MapGlueError``; through the CLI it must exit 0 or 2, never with a Python
exception.
"""

import contextlib
import io
import re
import time

import pytest

from mapglue.bijection import decorated_from_line
from mapglue.cli import SERIES_BOUNDS, main
from mapglue.enumeration import (EDGE_CAP, QANG_EDGE_CAP, Catalog,
                                 CatalogFilter, _catalog_filename,
                                 _checksum_line, catalog_from_text,
                                 catalog_to_text, enumerate_boundary_maps,
                                 enumerate_maps, get_catalog)
from mapglue.errors import Disconnected, FormatError, MapGlueError, NonPlanar
from mapglue.maps import PlanarMap, build_map, map_from_line
from mapglue.sampler import (SampleSpec, draw_tree_decorated,
                             export_decorated, parse_decorated)

from relabelling import relabel

SQUARE = ("map E=4 root=1 sigma=2,1,5,6,3,4,8,7 alpha=3,4,1,2,7,8,5,6 "
          "labels=2:a")


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def mutations(text: str):
    """Each integer replaced by ``x``, nothing, 0, -1, 99 or 1; each
    space-separated word dropped or doubled; each line dropped or
    doubled."""
    for m in re.finditer(r"\d+", text):
        for new in ("x", "", "0", "-1", "99", "1"):
            yield text[:m.start()] + new + text[m.end():]
    lines = text.split("\n")
    for i, line in enumerate(lines):
        words = line.split(" ")
        for j, word in enumerate(words):
            for rep in ([], [word, word]):
                yield "\n".join(lines[:i] + [
                    " ".join(words[:j] + rep + words[j + 1:])] + lines[i + 1:])
    for i, line in enumerate(lines):
        yield "\n".join(lines[:i] + lines[i + 1:])
        yield "\n".join(lines[:i] + [line] + lines[i:])


def _cli_survives(*argv):
    code, _, err = run(*argv)
    assert code in (0, 2), (argv, err)
    assert "Traceback" not in err


# Each flag-only subcommand with small valid arguments, and its numeric
# flags, each with the first value above its cap or domain (None where the
# flag has no cap, as a draw count).
FLAG_SWEEP = [
    (("count", "--family", "decorated", "--q", "4", "--faces", "2",
      "--tree-edges", "1"),
     {"--q": 5, "--faces": None, "--tree-edges": 4}),
    (("count", "--family", "spanning", "--q", "4", "--faces", "2"),
     {"--q": 5, "--faces": None}),
    (("count", "--family", "boundary-decorated", "--q", "4", "--faces", "2",
      "--m1", "1", "--m2", "1"),
     {"--m1": 3, "--m2": 3}),
    (("count", "--family", "forest", "--q", "4", "--faces", "2",
      "--sizes", "1"),
     {"--q": 5, "--faces": None}),
    (("count", "--family", "spanning-forest", "--q", "4", "--faces", "2",
      "--sizes", "3"),
     {"--q": 5, "--faces": None}),
    (("count", "--family", "bubble", "--edges", "2", "--tree-edges", "1"),
     {"--edges": None, "--tree-edges": None}),
    (("count", "--family", "mullin", "--edges", "2"), {"--edges": None}),
    (("count", "--family", "catalan", "--m", "2", "--n", "2"),
     {"--m": None, "--n": None}),
    (("series", "--which", "B", "--max-x", "2", "--max-y", "2"),
     {"--max-x": SERIES_BOUNDS["max-x"] + 1,
      "--max-y": SERIES_BOUNDS["max-y"] + 1}),
    (("series", "--which", "B1", "--max-x", "2"),
     {"--max-x": SERIES_BOUNDS["max-x"] + 1}),
    (("series", "--which", "S", "--max-x", "2", "--max-z", "2"),
     {"--max-x": SERIES_BOUNDS["max-x"] + 1,
      "--max-z": SERIES_BOUNDS["max-z"] + 1}),
    (("enumerate", "--edges", "2"),
     {"--q": None, "--faces": None, "--edges": EDGE_CAP + 1,
      "--perimeter": None, "--cap": EDGE_CAP + 1}),
    (("enumerate", "--q", "4", "--faces", "1", "--perimeter", "2"),
     {"--q": 5, "--faces": QANG_EDGE_CAP // 2,
      "--perimeter": 2 * QANG_EDGE_CAP, "--cap": None}),
    (("sample", "--q", "4", "--faces", "1", "--tree-edges", "1", "--seed",
      "1", "--count", "1"),
     {"--q": 5, "--faces": QANG_EDGE_CAP // 2, "--tree-edges": 3,
      "--seed": None, "--count": None}),
    (("verify", "--suite", "roundtrip", "--cap", "1"),
     {"--cap": EDGE_CAP + 1}),
]


def _with_flag(base, flag, value):
    argv = list(base)
    if flag in argv:
        argv[argv.index(flag) + 1] = str(value)
    else:
        argv += [flag, str(value)]
    return argv


@pytest.mark.parametrize("base,flags", FLAG_SWEEP,
                         ids=[" ".join(b[:3]) for b, _ in FLAG_SWEEP])
def test_flag_only_subcommands_out_of_range(base, flags):
    """-1, 0 and the first value above each numeric flag's cap exit 0 or
    2 with no traceback; -1 is a usage or input error for every flag but a
    seed."""
    assert run(*base)[0] == 0
    for flag, above in flags.items():
        for value in (-1, 0) if above is None else (-1, 0, above):
            argv = _with_flag(base, flag, value)
            code, _, err = run(*argv)
            assert code in (0, 2), (argv, err)
            assert "Traceback" not in err
            if value == -1 and flag != "--seed":
                assert code == 2 and err.strip(), argv


def _parses_or_refuses(parse, text):
    try:
        parse(text)
    except MapGlueError:
        pass


def _two_sphere_bubble() -> str:
    boundary = "map E=4 root=1 sigma=2,1,5,3,6,4,8,7 alpha=3,4,1,2,7,8,5,6"
    code, text, _ = run("glue", "--boundary", boundary, "--tree", "UDUD",
                        "--bridgeless")
    assert code == 0 and text.startswith("bubble spheres=2\n")
    return text.strip()


def test_map_record_mutations():
    assert run("glue", "--boundary", SQUARE, "--tree", "UUDD")[0] == 0
    for text in mutations(SQUARE):
        _cli_survives("glue", "--boundary", text, "--tree", "UUDD")


def test_decorated_record_mutations():
    code, out, _ = run("glue", "--boundary", SQUARE, "--tree", "UUDD")
    line = out.strip()
    assert code == 0 and " labels=" in line and " tree=" in line
    assert run("unglue", "--decorated", line)[0] == 0
    for text in mutations(line):
        _cli_survives("unglue", "--decorated", text)


def test_bubble_text_mutations():
    text = _two_sphere_bubble()
    assert run("unglue", "--decorated", text, "--bridgeless")[0] == 0
    for mutated in mutations(text):
        _cli_survives("unglue", "--decorated", mutated, "--bridgeless")


def test_circuit_taking_a_dart_twice_refused():
    # it walks the loop's one edge twice in the same direction
    text = "bubble spheres=1\nmap E=1 root=1 sigma=2,1 alpha=2,1\ncircuit=1,1"
    code, out, err = run("unglue", "--decorated", text, "--bridgeless")
    assert code == 2 and out == ""
    assert "MalformedCircuit" in err and "Traceback" not in err


def test_export_mutations():
    spec = SampleSpec(q=4, f=2, m=1, seed=3, count=1)
    text = export_decorated(draw_tree_decorated(spec, 0))
    parse_decorated(text)
    for mutated in mutations(text):
        _parses_or_refuses(parse_decorated, mutated)


def test_export_header_with_a_large_edge_count_refused_at_once():
    # the dart count is compared with 2 * edges before the range of
    # 1..2 * edges is built, which would take terabytes here
    spec = SampleSpec(q=4, f=2, m=1, seed=3, count=1)
    text = export_decorated(draw_tree_decorated(spec, 0))
    head, _, rest = text.partition("\n")
    head = re.sub(r"edges=\d+", f"edges={10 ** 12}", head)
    start = time.perf_counter()
    with pytest.raises(FormatError, match="do not list darts"):
        parse_decorated(head + "\n" + rest)
    assert time.perf_counter() - start < 0.1


def test_catalog_mutations():
    text = catalog_to_text(enumerate_maps(2))
    body = text[:text.index("checksum=")]
    assert catalog_from_text(body + _checksum_line(body) + "\n")
    for mutated in mutations(body):
        _parses_or_refuses(catalog_from_text,
                           mutated + _checksum_line(mutated) + "\n")


@pytest.mark.parametrize("code, error", [
    ((2, 3, 4, 1, 3, 4, 1, 2), NonPlanar),  # two crossing loops: a torus
    ((2, 1, 4, 3, 2, 1, 4, 3), Disconnected),  # two loops, two vertices
])
def test_catalog_file_with_an_invalid_map_refused(tmp_path, monkeypatch,
                                                  code, error):
    # the checksum holds, so only the validation on load can refuse it
    from mapglue import enumeration
    monkeypatch.setenv("MAPGLUE_CATALOG_DIR", str(tmp_path))
    monkeypatch.setattr(enumeration, "_CATALOGS", {})
    filt = CatalogFilter(q=4, f=1, perimeter=2, simple=True)
    (tmp_path / _catalog_filename(filt)).write_text(
        catalog_to_text(Catalog(filt, (PlanarMap(code[:4], code[4:], 1),))))
    with pytest.raises(error):
        get_catalog(q=4, f=1, perimeter=2, simple=True)
    status, out, err = run("sample", "--q", "4", "--faces", "1",
                           "--tree-edges", "1", "--seed", "1", "--count", "1")
    assert status == 2 and out == ""
    assert error.__name__ in err and "Traceback" not in err


def _relabelled(entry):
    """The code ``entry`` with darts 2 and 3 swapped: the same map, rooted
    at dart 1, under a labelling that is not the canonical one."""
    return relabel(entry, [0, 1, 3, 2] + list(range(4, entry.dart_count + 1)))


@pytest.mark.parametrize("entries, message", [
    # the entries of q = 3 under the q = 4 header
    (lambda: enumerate_boundary_maps(q=3, f=2, perimeter=2,
                                     simple=True).entries[:2],
     "is not a map of"),
    (lambda: enumerate_boundary_maps(q=4, f=1, perimeter=2,
                                     simple=True).entries[::-1],
     "not strictly increasing"),
    (lambda: enumerate_boundary_maps(q=4, f=1, perimeter=2,
                                     simple=True).entries[:1] * 2,
     "not strictly increasing"),
    (lambda: [_relabelled(enumerate_boundary_maps(
        q=4, f=1, perimeter=2, simple=True).entries[0])],
     "not a canonical code"),
])
def test_catalog_file_of_another_family_refused(tmp_path, monkeypatch,
                                                entries, message):
    # the checksum holds and every entry is a valid map
    from mapglue import enumeration
    monkeypatch.setenv("MAPGLUE_CATALOG_DIR", str(tmp_path))
    filt = CatalogFilter(q=4, f=1, perimeter=2, simple=True)
    (tmp_path / _catalog_filename(filt)).write_text(
        catalog_to_text(Catalog(filt, tuple(entries()))))
    # entries() may hold the family in the store, which get_catalog
    # would return without reading the file
    monkeypatch.setattr(enumeration, "_CATALOGS", {})
    with pytest.raises(FormatError, match=message):
        get_catalog(q=4, f=1, perimeter=2, simple=True)
    status, out, err = run("sample", "--q", "4", "--faces", "1",
                           "--tree-edges", "1", "--seed", "1", "--count", "1")
    assert status == 2 and out == ""
    assert "FormatError" in err and "Traceback" not in err


# the family that the sampler reads through get_catalog, at whose
# filename the files of general families below are placed: the file is
# checked before its header's filter is compared with the one requested
SAMPLED = CatalogFilter(q=4, f=1, perimeter=2, simple=True)


def _sampled_file_refused(tmp_path, monkeypatch, text, message):
    from mapglue import enumeration
    monkeypatch.setenv("MAPGLUE_CATALOG_DIR", str(tmp_path))
    monkeypatch.setattr(enumeration, "_CATALOGS", {})
    (tmp_path / _catalog_filename(SAMPLED)).write_text(text)
    with pytest.raises(FormatError, match=message):
        get_catalog(4, 1, 2, simple=True)


def _sampling_refused(monkeypatch, directory, kind, path):
    # the sampler's family read through get_catalog from ``directory``
    from mapglue import enumeration
    monkeypatch.setenv("MAPGLUE_CATALOG_DIR", str(directory))
    monkeypatch.setattr(enumeration, "_CATALOGS", {})
    status, out, err = run("sample", "--q", "4", "--faces", "1",
                           "--tree-edges", "1", "--seed", "1", "--count", "1")
    assert status == 2 and out == ""
    assert f"error: {kind}: " in err and str(path) in err
    assert "Traceback" not in err


def test_catalog_directory_that_is_a_file_refused(tmp_path, monkeypatch):
    directory = tmp_path / "file"
    directory.write_text("")
    _sampling_refused(monkeypatch, directory, "MapGlueError",
                      directory / _catalog_filename(SAMPLED))


def test_directory_at_the_catalog_file_refused(tmp_path, monkeypatch):
    path = tmp_path / _catalog_filename(SAMPLED)
    path.mkdir()
    _sampling_refused(monkeypatch, tmp_path, "MapGlueError", path)


def test_catalog_file_that_is_not_utf8_refused(tmp_path, monkeypatch):
    path = tmp_path / _catalog_filename(SAMPLED)
    path.write_bytes(b"\xff\xfecatalog q=4\n")
    _sampling_refused(monkeypatch, tmp_path, "FormatError", path)


def test_at_file_that_is_not_utf8_refused(tmp_path):
    path = tmp_path / "decorated.txt"
    path.write_bytes(b"\xff\xfemap E=1\n")
    status, out, err = run("unglue", "--decorated", f"@{path}")
    assert status == 2 and out == ""
    assert err.startswith(f"usage error: cannot read {str(path)!r}")
    assert "Traceback" not in err


def test_general_level_missing_a_map_refused(tmp_path, monkeypatch):
    # the checksum holds and every entry is a canonical map of the level:
    # only the number of rooted maps with 3 edges shows one is missing
    level = enumerate_maps(3)
    assert len(level) == 54
    short = catalog_to_text(Catalog(level.filter, level.entries[1:]))
    with pytest.raises(FormatError, match="not the 54 rooted maps"):
        catalog_from_text(short)
    _sampled_file_refused(tmp_path, monkeypatch, short,
                          "not the 54 rooted maps")
    assert catalog_from_text(catalog_to_text(level)).entries == level.entries


def test_general_boundary_family_missing_a_map_refused(tmp_path,
                                                       monkeypatch):
    # the checksum holds and every entry is a canonical map of the
    # family: only the number of rooted maps with 4 edges and a root face
    # of degree 4 shows one is missing
    family = enumerate_boundary_maps(e=4, perimeter=4)
    assert len(family) == 58
    short = catalog_to_text(Catalog(family.filter, family.entries[:-1]))
    message = "not the 58 rooted maps with 4 edges and a root face of degree 4"
    with pytest.raises(FormatError, match=message):
        catalog_from_text(short)
    _sampled_file_refused(tmp_path, monkeypatch, short, message)
    assert catalog_from_text(catalog_to_text(family)) == family


@pytest.mark.parametrize("perimeter", [4, 0])
def test_header_of_a_large_general_family_refused_at_once(
        tmp_path, monkeypatch, perimeter):
    # G(100, p) is at least Catalan(99) for 1 <= p <= 200, so an empty
    # family of 100 edges is refused before the O(e^4) count table of
    # its level is built, which takes seconds
    body = (f"catalog q=0 f=0 e=100 perim={perimeter} simple=0 "
            f"bridgeless=0 count=0 version=1\n")
    text = body + _checksum_line(body) + "\n"
    start = time.perf_counter()
    with pytest.raises(FormatError, match="count 0 is impossible"):
        catalog_from_text(text)
    assert time.perf_counter() - start < 0.1
    start = time.perf_counter()
    _sampled_file_refused(tmp_path, monkeypatch, text,
                          "count 0 is impossible")
    assert time.perf_counter() - start < 0.1


def test_level_six_text_loads():
    # the largest general level passes the header bound and its count
    level = enumerate_maps(6)
    assert catalog_from_text(catalog_to_text(level)) == level


def test_header_above_the_largest_root_face_holds_no_map():
    # no map with e edges has a root face of degree above 2e
    body = ("catalog q=0 f=0 e=100 perim=201 simple=0 bridgeless=0 "
            "count={} version=1\n")
    empty = body.format(0)
    assert len(catalog_from_text(empty + _checksum_line(empty) + "\n")) == 0
    line = catalog_to_text(enumerate_maps(1)).splitlines()[1]
    one = body.format(1) + line + "\n"
    with pytest.raises(FormatError, match="count 1 is impossible"):
        catalog_from_text(one + _checksum_line(one) + "\n")


def test_record_fields_in_any_order():
    words = SQUARE.split()
    again = map_from_line(" ".join(words[:1] + words[:0:-1]))
    assert again == map_from_line(SQUARE) and again.labels == ((2, "a"),)
    head = "map E=1 root=1 sigma=1,2 alpha=2,1"
    assert (decorated_from_line(head + " tree=1 labels=1:a")
            == decorated_from_line(head + " labels=1:a tree=1"))
    header = "decorated root=1 edges=1 vertices=2\n"
    edge = "vertex 1: 1/2\nvertex 2: 2/1\ntree: 1\n"
    assert parse_decorated(header + edge).tree_edges == {1}


def test_labels_on_darts_of_the_map():
    sigma, alpha = [1, 2], [2, 1]
    assert build_map(sigma, alpha, 1, [(2, "b"), (1, "a")]).labels == (
        (1, "a"), (2, "b"))
    for labels in ([(3, "a")], [(0, "a")], [(-1, "a")],
                   [(1, "a"), (1, "b")]):
        with pytest.raises(FormatError):
            build_map(sigma, alpha, 1, labels)
    code, _, err = run("unglue", "--decorated",
                       "map E=1 root=1 sigma=1,2 alpha=2,1 labels=99:z "
                       "tree=1")
    assert code == 2 and "FormatError" in err

