"""Malformed-input contract: every text format, mutated.

Each deterministic mutation of a valid record must either parse or raise a
``MapGlueError``; through the CLI it must exit 0 or 2, never with a Python
exception.
"""

import contextlib
import io
import re

import pytest

from mapglue.bijection import (MultiBoundaryMap, decorated_from_line,
                               forest_from_line, forest_to_line, glue_forest)
from mapglue.cli import main
from mapglue.enumeration import (EDGE_CAP, QANG_EDGE_CAP, Catalog,
                                 CatalogFilter, _catalog_filename,
                                 _checksum_line, catalog_from_text,
                                 catalog_to_text, enumerate_boundary_maps,
                                 enumerate_maps, get_catalog)
from mapglue.errors import Disconnected, FormatError, MapGlueError, NonPlanar
from mapglue.maps import CanonicalCode, build_map, map_from_line
from mapglue.sampler import (SampleSpec, draw_tree_decorated,
                             export_decorated, parse_decorated)
from mapglue.trees import DyckPath, contour_to_tree

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
# flag has no cap, as a series order or a draw count).
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
     {"--max-x": None, "--max-y": None}),
    (("series", "--which", "B1", "--max-x", "2"), {"--max-x": None}),
    (("series", "--which", "S", "--max-x", "2", "--max-z", "2"),
     {"--max-x": None, "--max-z": None}),
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


def test_forest_record_mutations():
    # two digons joined by a bridge, each glued shut along a one-edge tree
    host = build_map([3, 4, 1, 5, 2, 9, 6, 10, 7, 8],
                     [2, 1, 4, 3, 6, 5, 8, 7, 10, 9], 1)
    tree = contour_to_tree(DyckPath.from_word("UD"))
    line = forest_to_line(glue_forest(MultiBoundaryMap(host, (1, 7)),
                                      (tree, tree)))
    assert len(forest_from_line(line).trees) == 2
    for text in mutations(line):
        _parses_or_refuses(forest_from_line, text)


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
    monkeypatch.setattr(enumeration, "_CATALOG_MEMO", {})
    filt = CatalogFilter(q=4, f=1, perimeter=2, simple=True)
    (tmp_path / _catalog_filename(filt)).write_text(
        catalog_to_text(Catalog(filt, (CanonicalCode(code[:4], code[4:]),),
                                ())))
    with pytest.raises(error):
        get_catalog(q=4, f=1, perimeter=2, simple=True)
    status, out, err = run("sample", "--q", "4", "--faces", "1",
                           "--tree-edges", "1", "--seed", "1", "--count", "1")
    assert status == 2 and out == ""
    assert error.__name__ in err and "Traceback" not in err


def _relabelled(entry):
    """The code ``entry`` with darts 2 and 3 swapped: the same map, rooted
    at dart 1, under a labelling that is not the canonical one."""
    n = len(entry.sigma)
    pm = relabel(build_map(entry.sigma, entry.alpha, 1),
                 [0, 1, 3, 2] + list(range(4, n + 1)))
    return CanonicalCode(pm.sigma, pm.alpha)


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
    monkeypatch.setattr(enumeration, "_CATALOG_MEMO", {})
    filt = CatalogFilter(q=4, f=1, perimeter=2, simple=True)
    (tmp_path / _catalog_filename(filt)).write_text(
        catalog_to_text(Catalog(filt, tuple(entries()), ())))
    with pytest.raises(FormatError, match=message):
        get_catalog(q=4, f=1, perimeter=2, simple=True)
    status, out, err = run("sample", "--q", "4", "--faces", "1",
                           "--tree-edges", "1", "--seed", "1", "--count", "1")
    assert status == 2 and out == ""
    assert "FormatError" in err and "Traceback" not in err


def test_general_level_missing_a_map_refused(tmp_path, monkeypatch):
    # the checksum holds and every entry is a canonical map of the level:
    # only the number of rooted maps with 3 edges shows one is missing
    from mapglue import enumeration
    monkeypatch.setenv("MAPGLUE_CATALOG_DIR", str(tmp_path))
    monkeypatch.setattr(enumeration, "_CATALOG_MEMO", {})
    level = enumerate_maps(3)
    assert len(level) == 54
    short = catalog_to_text(Catalog(level.filter, level.entries[1:], ()))
    with pytest.raises(FormatError, match="not the 54 rooted maps"):
        catalog_from_text(short)
    (tmp_path / _catalog_filename(level.filter)).write_text(short)
    with pytest.raises(FormatError, match="not the 54 rooted maps"):
        get_catalog(e=3)
    assert catalog_from_text(catalog_to_text(level)).entries == level.entries


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

