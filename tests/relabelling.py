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
    return _canonical(pmap.sigma, pmap.alpha, pmap.root)[2]


def reference_code(sigma, alpha, root: int) -> tuple[int, ...]:
    """The canonical code of :func:`~mapglue.maps._canonical` as one tuple,
    sigma then alpha, written out independently of that kernel: label the
    darts breadth-first from ``root``, sigma before alpha, then read both
    arrays in label order (darts the root does not reach are left out)."""
    image = [0] * (len(sigma) + 1)
    image[root] = 1
    order = [root]
    for d in order:  # also visits the darts appended while it runs
        for e in (sigma[d - 1], alpha[d - 1]):
            if not image[e]:
                order.append(e)
                image[e] = len(order)
    return tuple([image[sigma[d - 1]] for d in order]
                 + [image[alpha[d - 1]] for d in order])


def min_code(sigma, alpha, roots) -> tuple[int, ...]:
    """The smallest :func:`reference_code` over the darts ``roots``."""
    return min(reference_code(sigma, alpha, root) for root in roots)
