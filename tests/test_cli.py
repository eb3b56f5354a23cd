import io
import contextlib
import os
import subprocess
import sys

import pytest

import mapglue
from mapglue import verify
from mapglue.cli import main
from mapglue.counting import count_tree_decorated
from mapglue.enumeration import enumerate_boundary_maps, enumerate_maps
from mapglue.maps import BoundaryMap, map_to_line


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_count_anchor():
    code, out, _ = run("count", "--family", "spanning", "--q", "4",
                       "--faces", "2", "--root", "on-tree")
    assert code == 0
    assert out.strip() == "15"


def test_count_families():
    assert run("count", "--family", "decorated", "--q", "3", "--faces", "2",
               "--tree-edges", "1")[1].strip() == "9"
    assert run("count", "--family", "mullin", "--edges", "2")[1].strip() == "10"
    assert run("count", "--family", "bubble", "--edges", "0",
               "--tree-edges", "1")[1].strip() == "2"
    assert run("count", "--family", "catalan", "--m", "2",
               "--n", "2")[1].strip() == "15"
    assert run("count", "--family", "forest", "--q", "4", "--faces", "2",
               "--sizes", "1,1")[1].strip() == "6"


def test_count_usage_errors():
    code, _, err = run("count", "--family", "decorated")
    assert code == 2 and "required" in err
    code, _, err = run("count", "--family", "decorated", "--q", "3",
                       "--faces", "1", "--tree-edges", "1")
    assert code == 2 and "Infeasible" in err


def test_series_output():
    code, out, _ = run("series", "--which", "S", "--max-x", "5",
                       "--max-z", "3")
    assert code == 0
    assert "x^3 z^2 : 5" in out.splitlines()
    code, out, _ = run("series", "--which", "B1", "--max-x", "3")
    assert code == 0
    assert out.splitlines() == ["x^0 : 1", "x^1 : 2", "x^2 : 9", "x^3 : 54"]
    code, out, _ = run("series", "--which", "B", "--max-x", "2",
                       "--max-y", "4")
    assert code == 0
    assert "x^1 y^2 : 1" in out.splitlines()


def test_enumerate_prints_catalog():
    code, out, _ = run("enumerate", "--q", "4", "--faces", "1",
                       "--perimeter", "2", "--simple")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("catalog q=4 f=1 ")
    assert lines[-1].startswith("checksum=")
    assert len(lines) == 4  # header + 2 maps + checksum


def test_enumerate_save(tmp_path, monkeypatch):
    monkeypatch.setenv("MAPGLUE_CATALOG_DIR", str(tmp_path))
    code, out, _ = run("enumerate", "--q", "4", "--faces", "1",
                       "--perimeter", "4", "--simple", "--save")
    assert code == 0
    assert "saved" in out
    assert list(tmp_path.glob("*.cat"))


def test_glue_unglue_round_trip():
    pm = enumerate_boundary_maps(q=4, f=1, perimeter=2,
                                 simple=True).maps()[0]
    code, decorated, _ = run("glue", "--boundary", map_to_line(pm),
                             "--tree", "UD")
    assert code == 0
    code, pair, _ = run("unglue", "--decorated", decorated.strip())
    assert code == 0
    word, map_line = pair.splitlines()
    assert word == "tree=UD"
    code, again, _ = run("glue", "--boundary", map_line, "--tree", "UD")
    assert code == 0
    assert again == decorated


def test_glue_file_input(tmp_path):
    pm = enumerate_boundary_maps(q=4, f=1, perimeter=2,
                                 simple=True).maps()[0]
    path = tmp_path / "boundary.map"
    path.write_text(map_to_line(pm) + "\n")
    code, out, _ = run("glue", "--boundary", f"@{path}", "--tree", "UD")
    assert code == 0 and out.startswith("map ")


def test_glue_bridgeless_round_trip(tmp_path):
    for pm in enumerate_maps(2).maps():
        bm = BoundaryMap(pm)
        if bm.perimeter == 2 and bm.is_bridgeless() and not bm.is_simple():
            break
    code, bubble_text, _ = run("glue", "--boundary", map_to_line(pm),
                               "--tree", "UD", "--bridgeless")
    assert code == 0 and bubble_text.startswith("bubble spheres=")
    path = tmp_path / "one.bubble"
    path.write_text(bubble_text)
    code, out, _ = run("unglue", "--decorated", f"@{path}", "--bridgeless")
    assert code == 0
    assert out.splitlines()[0] == "tree=UD"


def test_glue_input_errors():
    code, _, err = run("glue", "--boundary", "nonsense", "--tree", "UD")
    assert code == 2 and "error" in err
    code, _, err = run("glue", "--boundary", "@/no/such/file",
                       "--tree", "UD")
    assert code == 2
    for labels in ("x", "a:x", ""):
        code, _, err = run("glue", "--boundary", "map E=1 root=1 sigma=1,2 "
                           f"alpha=2,1 labels={labels}", "--tree", "UD")
        assert code == 2 and "FormatError" in err
    square = "map E=4 root=1 sigma=2,1,5,6,3,4,8,7 alpha=3,4,1,2,7,8,5,6"
    for labels in ("99:a", "-1:x", "0:x", "1:a,1:b"):
        code, _, err = run("glue", "--boundary", f"{square} labels={labels}",
                           "--tree", "UUDD")
        assert code == 2 and "FormatError" in err


def test_unglue_input_errors():
    path2 = "map E=2 root=2 sigma=1,3,2,4 alpha=2,1,4,3"
    for tree in ("a", ""):
        code, _, err = run("unglue", "--decorated", f"{path2} tree={tree}")
        assert code == 2 and "FormatError" in err
        assert "Traceback" not in err
    for pm in enumerate_maps(2).maps():
        bm = BoundaryMap(pm)
        if bm.perimeter == 2 and bm.is_bridgeless() and not bm.is_simple():
            break
    code, text, _ = run("glue", "--boundary", map_to_line(pm), "--tree",
                        "UD", "--bridgeless")
    assert code == 0
    lines = text.splitlines()
    assert lines[-2].startswith("pinch=") and lines[-1].startswith("circuit=")
    for i, bad in ((-2, "pinch=1.x~2.1"), (-2, "pinch=1.1"),
                   (-1, "circuit=1,x")):
        mutated = lines.copy()
        mutated[i] = bad
        code, _, err = run("unglue", "--decorated", "\n".join(mutated),
                           "--bridgeless")
        assert code == 2 and "FormatError" in err
        assert "Traceback" not in err
    code, _, err = run("unglue", "--decorated", "map E=3 root=1 "
                       "sigma=2,1,4,3,6,5 alpha=4,5,6,1,2,3 tree=2")
    assert code == 2 and err.startswith("error: RootNotOnTree")


def test_count_beyond_str_digit_limit():
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, _ = run("count", "--family", "decorated", "--q", "4",
                       "--faces", "10000", "--tree-edges", "1")
    assert code == 0
    digits = out.strip()
    assert len(digits) == 10787
    value = 0  # parse in chunks: int() of the whole string hits the limit
    for i in range(0, len(digits), 1000):
        chunk = digits[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    assert value == count_tree_decorated(4, 10000, 1)
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_sample_deterministic():
    argv = ("sample", "--q", "4", "--faces", "1", "--tree-edges", "1",
            "--seed", "11", "--count", "5")
    code, a, _ = run(*argv)
    _, b, _ = run(*argv)
    assert code == 0
    assert a == b
    assert a.count("decorated vertices=") == 5


def test_sample_unknown_format():
    code, _, err = run("sample", "--q", "4", "--faces", "1", "--tree-edges",
                       "1", "--seed", "1", "--count", "1",
                       "--format", "json")
    assert code == 2 and "UnknownFormat" in err


@pytest.mark.parametrize("suite", sorted(verify.SUITES))
def test_verify_suites(suite):
    code, out, _ = run("verify", "--suite", suite, "--cap", "3")
    assert code == 0
    assert out.splitlines()[-1] == f"suite {suite}: ok"


def test_verify_roundtrip_small_cap():
    code, out, _ = run("verify", "--suite", "roundtrip", "--cap", "3")
    assert code == 0
    assert "0 failures" in out


def test_verify_series_reports_each_check(monkeypatch):
    monkeypatch.setitem(verify.PRINTED_S, (3, 2), 6)
    code, out, _ = run("verify", "--suite", "series")
    assert code == 1
    lines = out.splitlines()
    assert "s(3,2) = 5 (expected 6) FAIL" in lines
    assert "s coefficients vs enumeration, e <= 4: ok" in lines
    assert lines[-1] == "suite series: FAIL"


def test_verify_counts_reports_divergences():
    code, out, _ = run("verify", "--suite", "counts")
    assert code == 0
    flagged = [ln for ln in out.splitlines()
               if ln.startswith("flagged divergence")]
    assert any("spanning triangulations f=2" in ln and "3" in ln
               and "6" in ln for ln in flagged)
    assert len(flagged) >= 4
    assert out.strip().endswith("suite counts: ok")


def test_usage_exit_codes():
    assert run()[0] == 2
    assert run("bogus")[0] == 2
    assert run("verify", "--suite", "bogus")[0] == 2
    for cap in ("7", "0", "-3"):
        code, out, err = run("verify", "--suite", "roundtrip", "--cap", cap)
        assert code == 2 and out == "" and "--cap" in err
    for argv in (("--which", "S", "--max-x", "-1", "--max-z", "2"),
                 ("--which", "B1", "--max-x", "-1"),
                 ("--which", "B", "--max-x", "0", "--max-y", "-1")):
        code, out, err = run("series", *argv)
        assert code == 2 and out == "" and len(err.splitlines()) == 1, argv
    code, out, err = run("sample", "--q", "4", "--faces", "1",
                         "--tree-edges", "1", "--seed", "1", "--count", "-1")
    assert code == 2 and out == "" and "--count" in err
    assert run("--help")[0] == 0


def test_python_dash_m_runs_the_cli():
    # the checkout's src directory, as PYTHONPATH=src gives it
    src = os.path.dirname(os.path.dirname(os.path.abspath(mapglue.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "mapglue", "--help"],
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0
    assert "verify" in done.stdout
