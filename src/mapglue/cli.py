"""Command-line front end: counting, series, catalogs, glue/unglue,
sampling, and the verification suites of :mod:`mapglue.verify`.

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
All flags are long-form; the only environment configuration is
``MAPGLUE_CATALOG_DIR``, a directory where ``sample`` caches the catalog
it draws from (see :func:`mapglue.enumeration.get_catalog`).  Output is
line-oriented and stable.
"""

from __future__ import annotations

import argparse
import sys

from .bijection import (decorated_from_line, decorated_to_line, glue,
                        glue_partial, unglue)
from .bubbles import (bubble_from_text, bubble_to_text, glue_bridgeless,
                      unglue_bubble)
from .counting import (catalan_ext, count_boundary_decorated, count_bubble,
                       count_forest, count_spanning, count_spanning_forest,
                       count_tree_decorated, mullin_count)
from .enumeration import EDGE_CAP, catalog_to_text, enumerate_boundary_maps
from .errors import CapExceeded, MapGlueError
from .maps import BoundaryMap, map_from_line, map_to_line
from .sampler import SampleSpec, export_decorated, sample_tree_decorated
from .series import format_series, series_B, series_B1, series_S
from .trees import DyckPath, contour_to_tree, tree_to_contour
from .verify import SUITES


class UsageError(Exception):
    pass


def _read_arg(value: str) -> str:
    """Inline text, or the contents of a file when prefixed with ``@``."""
    if value.startswith("@"):
        try:
            with open(value[1:]) as fh:
                return fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read {value[1:]!r}: {exc}") from exc
    return value


def _need(args, *names):
    for name in names:
        if getattr(args, name.replace("-", "_")) is None:
            raise UsageError(f"--{name} is required here")


def _parse_sizes(text: str) -> list[int]:
    """The tree sizes of a comma-separated ``--sizes`` value; an empty
    item (``,``, ``1,,2`` or ``2,``) is refused like any other non-integer."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad --sizes value {text!r}") from exc


# -- count ---------------------------------------------------------------------

def _cmd_count(args) -> int:
    family = args.family
    if family == "decorated":
        _need(args, "q", "faces", "tree-edges")
        value = count_tree_decorated(args.q, args.faces, args.tree_edges,
                                     args.root)
    elif family == "spanning":
        _need(args, "q", "faces")
        value = count_spanning(args.q, args.faces, args.root)
    elif family == "boundary-decorated":
        _need(args, "q", "faces", "m1", "m2")
        value = count_boundary_decorated(args.q, args.faces, args.m1, args.m2)
    elif family == "forest":
        _need(args, "q", "faces", "sizes")
        value = count_forest(args.q, args.faces, _parse_sizes(args.sizes),
                             rooted_labeled=args.labeled)
    elif family == "spanning-forest":
        _need(args, "q", "faces", "sizes")
        value = count_spanning_forest(args.q, args.faces,
                                      _parse_sizes(args.sizes))
    elif family == "bubble":
        _need(args, "edges", "tree-edges")
        value = count_bubble(args.edges, args.tree_edges)
    elif family == "mullin":
        _need(args, "edges")
        value = mullin_count(args.edges)
    else:  # catalan
        _need(args, "m", "n")
        value = catalan_ext(args.m, args.n)
    # exact counts can exceed the int-to-str digit limit that Python 3.11
    # sets by default (older releases have no limit and no setter)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        print(value)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    return 0


# -- series --------------------------------------------------------------------

# The largest value each series order flag accepts.  The largest accepted
# command, ``series --which S --max-x 90 --max-z 20``, takes about 2 s, and
# ``--which B --max-x 90 --max-y 180`` about 1.6 s (series_B grows as the
# fourth power of --max-x; a root face of e edges has at most 2e darts).
SERIES_BOUNDS = {"max-x": 90, "max-y": 180, "max-z": 20}


def _cmd_series(args) -> int:
    for name, bound in SERIES_BOUNDS.items():
        order = getattr(args, name.replace("-", "_"))
        if order is not None and order > bound:
            raise CapExceeded(f"--{name} {order} exceeds the bound {bound}")
    if args.which == "B":
        _need(args, "max-x", "max-y")
        print(format_series(series_B(args.max_x, args.max_y), yname="y"))
    elif args.which == "B1":
        _need(args, "max-x")
        b1 = series_B1(args.max_x)
        for e in range(args.max_x + 1):
            print(f"x^{e} : {int(b1.coeff(e, 0))}")
    else:  # S
        _need(args, "max-x", "max-z")
        print(format_series(series_S(args.max_x, args.max_z), yname="z"))
    return 0


# -- enumerate -----------------------------------------------------------------

def _cmd_enumerate(args) -> int:
    cat = enumerate_boundary_maps(q=args.q or 0, f=args.faces or 0,
                                  e=args.edges or 0,
                                  perimeter=args.perimeter or 0,
                                  simple=args.simple,
                                  bridgeless=args.bridgeless, cap=args.cap)
    sys.stdout.write(catalog_to_text(cat))
    return 0


# -- glue / unglue -------------------------------------------------------------

def _cmd_glue(args) -> int:
    bmap = BoundaryMap(map_from_line(_read_arg(args.boundary).strip()))
    tree = contour_to_tree(DyckPath.from_word(_read_arg(args.tree).strip()))
    if args.bridgeless:
        bubble, circuit = glue_bridgeless(bmap, tree)
        print(bubble_to_text(bubble, circuit))
    elif args.partial:
        print(decorated_to_line(glue_partial(bmap, tree)))
    else:
        print(decorated_to_line(glue(bmap, tree)))
    return 0


def _cmd_unglue(args) -> int:
    text = _read_arg(args.decorated)
    if args.bridgeless:
        bubble, circuit = bubble_from_text(text)
        if circuit is None:
            raise UsageError("bubble input must carry a circuit= line")
        tree, bmap = unglue_bubble(bubble, circuit)
    else:
        tree, bmap = unglue(decorated_from_line(text.strip()))
    print(f"tree={tree_to_contour(tree).to_word()}")
    print(map_to_line(bmap.map))
    return 0


# -- sample --------------------------------------------------------------------

def _cmd_sample(args) -> int:
    if args.count < 0:
        raise UsageError("--count must be nonnegative")
    spec = SampleSpec(args.q, args.faces, args.tree_edges, args.seed,
                      args.count)
    for tdm in sample_tree_decorated(spec):
        sys.stdout.write(export_decorated(tdm))
    return 0


# -- verify --------------------------------------------------------------------

def _cmd_verify(args) -> int:
    if not 1 <= args.cap <= EDGE_CAP:
        raise UsageError(f"--cap must be between 1 and {EDGE_CAP}")
    ok = True
    for line, line_ok in SUITES[args.suite](args.cap):
        print(line)
        ok &= line_ok
    print(f"suite {args.suite}: " + ("ok" if ok else "FAIL"))
    return 0 if ok else 1


# -- parser --------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mapglue",
        description="Tree-decorated planar maps: gluing, counting, series, "
                    "enumeration, and sampling.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="evaluate a counting formula")
    p.add_argument("--family", required=True,
                   choices=["decorated", "spanning", "boundary-decorated",
                            "forest", "spanning-forest", "bubble", "mullin",
                            "catalan"])
    p.add_argument("--q", type=int)
    p.add_argument("--faces", type=int)
    p.add_argument("--tree-edges", type=int)
    p.add_argument("--root", choices=["anywhere", "on-tree"],
                   default="anywhere")
    p.add_argument("--m1", type=int)
    p.add_argument("--m2", type=int)
    p.add_argument("--sizes", help="comma-separated tree sizes")
    p.add_argument("--labeled", action="store_true",
                   help="rooted-labeled forest convention")
    p.add_argument("--edges", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("series", help="print truncated series coefficients")
    p.add_argument("--which", required=True, choices=["B", "B1", "S"])
    p.add_argument("--max-x", type=int)
    p.add_argument("--max-y", type=int)
    p.add_argument("--max-z", type=int)
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("enumerate", help="build a catalog of maps")
    p.add_argument("--q", type=int, default=0)
    p.add_argument("--faces", type=int, default=0)
    p.add_argument("--edges", type=int, default=0)
    p.add_argument("--perimeter", type=int, default=0)
    p.add_argument("--simple", action="store_true")
    p.add_argument("--bridgeless", action="store_true")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("glue", help="sew a boundary shut along a tree")
    p.add_argument("--boundary", required=True,
                   help="map record, or @file containing one")
    p.add_argument("--tree", required=True,
                   help="Dyck word (U/D), or @file containing one")
    p.add_argument("--partial", action="store_true")
    p.add_argument("--bridgeless", action="store_true",
                   help="bubble-map mode for non-simple boundaries")
    p.set_defaults(func=_cmd_glue)

    p = sub.add_parser("unglue", help="cut a decorated map along its tree")
    p.add_argument("--decorated", required=True,
                   help="decorated map record (or bubble text), or @file")
    p.add_argument("--bridgeless", action="store_true",
                   help="input is a bubble with a circuit")
    p.set_defaults(func=_cmd_unglue)

    p = sub.add_parser("sample", help="draw uniform tree-decorated maps")
    p.add_argument("--q", type=int, required=True, choices=[3, 4])
    p.add_argument("--faces", type=int, required=True)
    p.add_argument("--tree-edges", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--cap", type=int, default=5)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except MapGlueError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
