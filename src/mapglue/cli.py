"""Command-line front end: counting, series, catalogs, glue/unglue,
sampling, and self-contained verification suites.

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
All flags are long-form; the only environment configuration is
``MAPGLUE_CATALOG_DIR`` (catalog directory, honoured by the enumeration
module).  Output is line-oriented and stable.
"""

from __future__ import annotations

import argparse
import sys

from .bijection import (TreeDecoratedMap, decorated_from_line,
                        decorated_to_line, glue, glue_partial, unglue)
from .bubbles import (bubble_from_text, bubble_to_text, circuit_to_contour,
                      glue_bridgeless, unglue_bubble)
from .counting import (catalan_ext, count_boundary_decorated,
                       count_boundary_decorated_tri_printed, count_bubble,
                       count_forest, count_forest_printed, count_spanning,
                       count_spanning_forest, count_spanning_forest_printed,
                       count_spanning_tri_printed, count_tree_decorated,
                       mullin_count, reroot_check, verify_integrality)
from .enumeration import (brute_count_decorated, enumerate_boundary_maps,
                          enumerate_maps, save_catalog, tree_submaps)
from .errors import MapGlueError, FormatError
from .maps import BoundaryMap, map_from_line, map_to_line
from .sampler import SampleSpec, export_decorated, sample_tree_decorated
from .series import (TruncatedSeries2, format_series, series_B, series_B1,
                     series_S)
from .trees import DyckPath, contour_to_tree, enumerate_trees, tree_to_contour


class UsageError(Exception):
    pass


def _read_arg(value: str) -> str:
    """Inline text, or the contents of a file when prefixed with ``@``."""
    if value.startswith("@"):
        try:
            with open(value[1:]) as fh:
                return fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read {value[1:]!r}: {exc}") from exc
    return value


def _need(args, *names):
    for name in names:
        if getattr(args, name.replace("-", "_")) is None:
            raise UsageError(f"--{name} is required here")


def _parse_sizes(text: str) -> list[int]:
    try:
        sizes = [int(x) for x in text.split(",") if x]
    except ValueError as exc:
        raise UsageError(f"bad --sizes value {text!r}") from exc
    if not sizes:
        raise UsageError("--sizes must list at least one tree size")
    return sizes


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

def _cmd_series(args) -> int:
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
    from .enumeration import catalog_to_text

    cat = enumerate_boundary_maps(q=args.q or 0, f=args.faces or 0,
                                  e=args.edges or 0,
                                  perimeter=args.perimeter or 0,
                                  simple=args.simple,
                                  bridgeless=args.bridgeless, cap=args.cap)
    if args.save:
        path = save_catalog(cat)
        print(f"saved {len(cat)} maps to {path}")
    else:
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
    spec = SampleSpec(args.q, args.faces, args.tree_edges, args.seed,
                      args.count)
    for tdm in sample_tree_decorated(spec):
        sys.stdout.write(export_decorated(tdm, format=args.format))
    return 0


# -- verify suites -------------------------------------------------------------

def _suite_roundtrip(cap: int) -> bool:
    checked = failures = 0
    # decorated map -> (tree, boundary map) -> decorated map, dart-exact
    for e in range(1, cap + 1):
        for pmap in enumerate_maps(e).maps():
            root_edge = pmap.edge_of(pmap.root)
            for m in range(1, pmap.vertex_count):
                for sub in tree_submaps(pmap, m):
                    if root_edge not in sub:
                        continue
                    tdm = TreeDecoratedMap(pmap, sub)
                    tree, bmap = unglue(tdm)
                    back = glue(bmap, tree)
                    checked += 1
                    if back.map != tdm.map or back.tree_edges != tdm.tree_edges:
                        failures += 1
    print(f"decorated->pair->decorated: {checked} cases, "
          f"{failures} failures")
    ok = failures == 0
    # (boundary map, tree) -> decorated map -> (boundary map, tree)
    checked = failures = 0
    for m in range(1, cap + 1):
        trees = enumerate_trees(m)
        for e in range(m, cap + 1):
            for pm in enumerate_boundary_maps(e=e, perimeter=2 * m,
                                              simple=True).maps():
                bmap = BoundaryMap(pm)
                for path in trees:
                    tdm = glue(bmap, contour_to_tree(path))
                    tree2, bmap2 = unglue(tdm)
                    checked += 1
                    if (tree_to_contour(tree2) != path
                            or bmap2.map.canonical_code()
                            != pm.canonical_code()):
                        failures += 1
    print(f"pair->decorated->pair: {checked} cases, {failures} failures")
    return ok and failures == 0


def _grid(q: int):
    fmax = 4 if q == 3 else 3
    step = 2 if q == 3 else 1
    for f in range(step, fmax + 1, step):
        mmax = f // 2 + 1 if q == 3 else f + 1
        for m in range(1, mmax + 1):
            yield f, m


def _suite_counts(cap: int) -> bool:
    ok = True
    for q in (3, 4):
        for f, m in _grid(q):
            for mode in ("anywhere", "on-tree"):
                formula = count_tree_decorated(q, f, m, mode)
                brute = brute_count_decorated(q, f=f, tree_sizes=[m],
                                              root_mode=mode)
                line_ok = formula == brute
                ok &= line_ok
                print(f"decorated q={q} f={f} m={m} {mode}: "
                      f"formula {formula} oracle {brute}"
                      + ("" if line_ok else " FAIL"))
    for f in range(1, 5):
        lhs = count_spanning(4, f, "on-tree")
        rhs = catalan_ext(2, f)
        ok &= lhs == rhs
        print(f"spanning quadrangulations f={f} on-tree: {lhs} "
              f"= C_(2,{f}) = {rhs}" + ("" if lhs == rhs else " FAIL"))
    for e in range(1, 4):
        brute = 0
        for pm in enumerate_maps(e).maps():
            v = pm.vertex_count
            brute += 1 if v == 1 else len(tree_submaps(pm, v - 1))
        line_ok = mullin_count(e) == brute
        ok &= line_ok
        print(f"mullin e={e}: formula {mullin_count(e)} oracle {brute}"
              + ("" if line_ok else " FAIL"))
    # known divergences between published closed forms and the oracle;
    # the corrected functions are the defaults, the published forms are
    # kept for reporting and are expected to differ
    print("flagged divergence: spanning triangulations f=2: published "
          f"form gives {count_spanning_tri_printed(2)}, oracle "
          f"{count_spanning(3, 2)} (oracle normative)")
    print("flagged divergence: spanning triangulations f=4: published "
          f"form gives {count_spanning_tri_printed(4)}, oracle "
          f"{count_spanning(3, 4)} (oracle normative)")
    print("flagged divergence: unlabeled forests q=4 f=2 sizes=1,1: "
          f"published symmetry factor gives {count_forest_printed(4, 2, [1, 1])}, "
          f"oracle {count_forest(4, 2, [1, 1])} (oracle normative)")
    print("flagged divergence: spanning forests q=3 f=2 sizes=2: published "
          f"double factorial gives {count_spanning_forest_printed(3, 2, [2])}, "
          f"oracle {count_spanning_forest(3, 2, [2])} (oracle normative)")
    print("flagged divergence: boundary-decorated triangulations f=2 m1=0 "
          "m2=2: published denominator gives "
          f"{count_boundary_decorated_tri_printed(2, 0, 2)} (not integral), "
          f"oracle {count_boundary_decorated(3, 2, 0, 2)} (oracle normative)")
    return ok


def _suite_series(cap: int) -> bool:
    ok = True
    printed = {(1, 1): 1, (2, 1): 2, (1, 2): 1, (3, 1): 9, (2, 2): 1,
               (4, 1): 54, (3, 2): 5, (5, 1): 378, (3, 3): 1}
    s = series_S(5, 3)
    for (e, p), want in sorted(printed.items()):
        got = s.coeff(e, p)
        ok &= got == want
        print(f"s({e},{p}) = {got} (expected {want})"
              + ("" if got == want else " FAIL"))
    b = series_B(8, 8)
    x = TruncatedSeries2.variable("x", 8, 8)
    y = TruncatedSeries2.variable("y", 8, 8)
    sub_ok = series_S(8, 8).substitute(x, y * b) == b
    ok &= sub_ok
    print("substitution identity S(x, yB) = B to order (8,8): "
          + ("ok" if sub_ok else "FAIL"))
    s44 = series_S(4, 4)
    for e in range(1, 5):
        counts: dict[int, int] = {}
        for pm in enumerate_maps(e).maps():
            bm = BoundaryMap(pm)
            if bm.is_vertex_simple():
                counts[bm.perimeter] = counts.get(bm.perimeter, 0) + 1
        for p in range(1, 5):
            got, want = int(s44.coeff(e, p)), counts.get(p, 0)
            ok &= got == want
            if got != want:
                print(f"s({e},{p}) = {got} vs enumeration {want} FAIL")
    print("s coefficients vs enumeration, e <= 4: " + ("ok" if ok else "FAIL"))
    b1 = series_B1(4)
    row = [int(b1.coeff(e, 0)) for e in range(5)]
    row_ok = row == [1, 2, 9, 54, 378]
    ok &= row_ok
    print(f"B(x,1) coefficients {row}" + ("" if row_ok else " FAIL"))
    return ok


def _suite_rerooting(cap: int) -> bool:
    ok = True
    for q in (3, 4):
        for f, m in _grid(q):
            line_ok = reroot_check(q, f, [m])
            ok &= line_ok
            print(f"reroot q={q} f={f} sizes=[{m}]: "
                  + ("ok" if line_ok else "FAIL"))
    for q, f, sizes in ((4, 2, [1, 1]), (4, 3, [1, 2]), (3, 4, [1, 1])):
        line_ok = reroot_check(q, f, sizes)
        ok &= line_ok
        print(f"reroot q={q} f={f} sizes={sizes}: "
              + ("ok" if line_ok else "FAIL"))
    return ok


def _suite_integrality(cap: int) -> bool:
    ok = True
    for m in range(1, 7):
        row_ok = all(verify_integrality(m, n) for n in range(41))
        ok &= row_ok
        print(f"C_({m},n) integral for n <= 40: "
              + ("ok" if row_ok else "FAIL"))
    return ok


def _suite_bubbles(cap: int) -> bool:
    cap = min(cap, 4)
    checked = multi = failures = 0
    for e in range(1, cap + 1):
        for pm in enumerate_maps(e).maps():
            bm = BoundaryMap(pm)
            if bm.perimeter % 2 or not bm.is_bridgeless():
                continue
            for path in enumerate_trees(bm.perimeter // 2):
                tree = contour_to_tree(path)
                bubble, circuit = glue_bridgeless(bm, tree)
                checked += 1
                multi += len(bubble.spheres) > 1
                tree2, bm2 = unglue_bubble(bubble, circuit)
                if (circuit_to_contour(circuit) != path
                        or not circuit.is_non_crossing()
                        or tree_to_contour(tree2) != path
                        or bm2.map.canonical_code() != pm.canonical_code()):
                    failures += 1
    print(f"bridgeless round trips, <= {cap} edges: {checked} cases "
          f"({multi} multi-sphere), {failures} failures")
    return failures == 0


_SUITES = {
    "roundtrip": _suite_roundtrip,
    "counts": _suite_counts,
    "series": _suite_series,
    "rerooting": _suite_rerooting,
    "integrality": _suite_integrality,
    "bubbles": _suite_bubbles,
}


def _cmd_verify(args) -> int:
    ok = _SUITES[args.suite](args.cap)
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
    p.add_argument("--save", action="store_true",
                   help="store under MAPGLUE_CATALOG_DIR instead of printing")
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
    p.add_argument("--format", default="plain")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=sorted(_SUITES))
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
    except (MapGlueError, FormatError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
