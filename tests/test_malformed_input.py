"""Malformed-input contract: every text format, mutated.

Each deterministic mutation of a valid record must either parse or raise a
``MapGlueError``; through the CLI it must exit 0 or 2, never with a Python
exception.
"""

import contextlib
import io
import re

import pytest

from mapglue.bijection import decorated_from_line
from mapglue.cli import main
from mapglue.enumeration import (_checksum_line, catalog_from_text,
                                 catalog_to_text, enumerate_maps)
from mapglue.errors import FormatError, MapGlueError
from mapglue.maps import build_map, map_from_line
from mapglue.sampler import (SampleSpec, draw_tree_decorated,
                             export_decorated, parse_decorated)

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


def test_export_mutations():
    spec = SampleSpec(q=4, f=2, m=1, seed=3, count=1)
    text = export_decorated(draw_tree_decorated(spec, 0))
    parse_decorated(text)
    for mutated in mutations(text):
        _parses_or_refuses(parse_decorated, mutated)


def test_catalog_mutations():
    text = catalog_to_text(enumerate_maps(2))
    body = text[:text.index("checksum=")]
    assert catalog_from_text(body + _checksum_line(body) + "\n")
    for mutated in mutations(body):
        _parses_or_refuses(catalog_from_text,
                           mutated + _checksum_line(mutated) + "\n")


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

