"""Plane trees and their contour encoding.

A planted plane tree with ``m`` edges is a rooted map with a single face.
Its contour function records the height of the vertex visited by a walker
going around the tree (left hand on the tree, starting along the root dart),
which is the face walk of the map.  Two contour positions are the same
vertex exactly when both achieve the minimum of the contour between them;
that equivalence is what the gluing operations consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from random import Random

from .errors import EmptyTree, NotDyck
from .maps import PlanarMap


@dataclass(frozen=True)
class DyckPath:
    """Step sequence over {+1, -1} with nonnegative prefix sums and sum 0."""

    steps: tuple[int, ...]

    def __post_init__(self):
        h = 0
        for s in self.steps:
            if s not in (1, -1):
                raise NotDyck(f"step {s!r} is not +-1")
            h += s
            if h < 0:
                raise NotDyck("prefix sum became negative")
        if h != 0:
            raise NotDyck("steps do not sum to zero")
        if len(self.steps) % 2:
            raise NotDyck("odd length")

    @property
    def m(self) -> int:
        """Number of tree edges."""
        return len(self.steps) // 2

    def heights(self) -> tuple[int, ...]:
        """Values C(0..2m)."""
        out = [0]
        for s in self.steps:
            out.append(out[-1] + s)
        return tuple(out)

    def to_word(self) -> str:
        return "".join("U" if s == 1 else "D" for s in self.steps)

    @classmethod
    def from_word(cls, word: str) -> "DyckPath":
        try:
            steps = tuple({"U": 1, "D": -1}[c] for c in word.strip())
        except KeyError as exc:
            raise NotDyck(f"bad character in {word!r}") from exc
        return cls(steps)


def catalan(n: int) -> int:
    if n < 0:
        raise ValueError("n must be nonnegative")
    return math.comb(2 * n, n) // (n + 1)


def class_starts(path: DyckPath) -> list[int]:
    """First position of the contour class of each position 0..2m.

    Positions i <= j are one vertex when C(i) = C(j) = min C on [i, j].
    One scan keeps the first position of each vertex on the way back to
    the root: an up step opens a class, a down step returns to the class
    one level lower.
    """
    starts = [0]
    stack = [0]
    for j, s in enumerate(path.steps, 1):
        if s == 1:
            stack.append(j)
        else:
            stack.pop()
        starts.append(stack[-1])
    return starts


def contour_to_tree(path: DyckPath) -> PlanarMap:
    """Plane tree whose contour is ``path``.

    Dart ``i+1`` is the contour step from position ``i``; alpha pairs the two
    traversals of each edge, and the rotation at a vertex runs through its
    class positions in increasing order.  Trees are immutable, so a tree
    with at most ``_MEMO_EDGES`` edges is built once and then shared.
    """
    if path.m == 0:
        raise EmptyTree("a tree must have at least one edge")
    if path.m <= _MEMO_EDGES:
        return _memo_tree(path)
    return _tree(path)


def _tree(path: DyckPath) -> PlanarMap:
    n = 2 * path.m
    alpha = [0] * n
    stack: list[int] = []
    for i, s in enumerate(path.steps):
        if s == 1:
            stack.append(i)
        else:
            j = stack.pop()
            alpha[i] = j + 1
            alpha[j] = i + 1
    # the rotation at a vertex runs through its class's positions below n:
    # each position points to the next one of its class, and the last one
    # wraps round to the first, which names the class
    sigma = [0] * n
    last = list(range(n))  # the last position seen of each class
    for p, c in zip(range(n), class_starts(path)):
        sigma[last[c]] = p + 1
        last[c] = p
        sigma[p] = c + 1
    # a Dyck path encodes a plane tree, so no map check is needed
    return PlanarMap(tuple(sigma), tuple(alpha), 1)


_MEMO_EDGES = 6
# room for every tree with at most _MEMO_EDGES edges: 1 + 2 + 5 + ... + 132
_memo_tree = lru_cache(maxsize=256)(_tree)


def tree_to_contour(tree: PlanarMap) -> DyckPath:
    """Contour function of a plane tree (read off the single face walk;
    the first traversal of an edge is the up step).  The map is a tree
    exactly when its root face takes every dart."""
    if tree.edge_count == 0:
        raise EmptyTree("a tree must have at least one edge")
    walk = tree.root_face()
    if len(walk) != tree.dart_count:
        raise NotDyck("map is not a plane tree (more than one face)")
    return _walk_contour(map(tree.edge_of, walk))


def _walk_contour(edges) -> DyckPath:
    """Contour of a closed walk given by the edge of each step: the first
    step along an edge goes up, every later one down.  Raises NotDyck
    when the steps are no Dyck path."""
    seen: set[int] = set()
    steps = []
    for e in edges:
        if e in seen:
            steps.append(-1)
        else:
            seen.add(e)
            steps.append(1)
    return DyckPath(tuple(steps))


def enumerate_trees(m: int) -> list[DyckPath]:
    """All Dyck paths of length 2m, lexicographic with U before D."""
    out: list[DyckPath] = []

    def rec(prefix: list[int], height: int, remaining: int):
        if remaining == 0:
            out.append(DyckPath(tuple(prefix)))
            return
        if height < remaining:
            prefix.append(1)
            rec(prefix, height + 1, remaining - 1)
            prefix.pop()
        if height > 0:
            prefix.append(-1)
            rec(prefix, height - 1, remaining - 1)
            prefix.pop()

    rec([], 0, 2 * m)
    return out


def sample_dyck_uniform(m: int, rng: Random) -> DyckPath:
    """Exactly uniform Dyck path of length 2m by the cycle lemma: shuffle a
    word with m up and m+1 down steps, rotate to start after the first
    prefix-sum minimum, drop the final down step."""
    if m < 1:
        raise EmptyTree("m must be at least 1")
    word = [1] * m + [-1] * (m + 1)
    rng.shuffle(word)
    best, run, cut = 0, 0, 0
    for i, s in enumerate(word):
        run += s
        if run < best:
            best, cut = run, i + 1
    rotated = word[cut:] + word[:cut]
    return DyckPath(tuple(rotated[:-1]))

