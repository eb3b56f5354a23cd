"""Dart relabellings of a map, for the tests that compare a map with its
relabelled copies; the library itself only ever needs canonical codes."""

from mapglue.maps import PlanarMap, _canonical


def relabel(pmap: PlanarMap, image) -> PlanarMap:
    """``pmap`` under the dart relabelling ``old -> new`` (a bijection on
    1..2E), given as a dict or as an image array such as
    :func:`canonical_relabelling` returns."""
    n = pmap.dart_count
    sigma = [0] * n
    alpha = [0] * n
    for d in pmap.darts():
        sigma[image[d] - 1] = image[pmap.sigma[d - 1]]
        alpha[image[d] - 1] = image[pmap.alpha_of(d)]
    labels = tuple(sorted((image[d], v) for d, v in pmap.labels))
    return PlanarMap(tuple(sigma), tuple(alpha), image[pmap.root], labels)


def canonical_relabelling(pmap: PlanarMap) -> list[int]:
    """First-visit order of the breadth-first exploration from the root,
    alternating sigma then alpha, as an image array: dart ``d`` becomes
    ``image[d]`` (index 0 is unused)."""
    return _canonical(pmap.sigma, pmap.alpha, (pmap.root,))[1]


def min_code(sigma, alpha, roots):
    """The smallest code of :func:`~mapglue.maps._canonical` over the seed
    tuples ``roots`` (a plain root is a 1-tuple), and the seed tuples that
    give it, in order."""
    codes = [_canonical(sigma, alpha, seeds)[0] for seeds in roots]
    best = min(codes)
    return best, [seeds for seeds, c in zip(roots, codes) if c == best]
