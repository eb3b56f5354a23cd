"""Reference tools for circuit-decorated bubble-maps, for the tests: global
dart addressing, rerooting, and a canonical key that searches every
rooting of each attached sphere.  The library needs none of them."""

from bisect import bisect_left

from mapglue.bubbles import BubbleMap

from relabelling import canonical_relabelling, relabel


def to_local(bubble, g):
    """(sphere, local dart) of global dart ``g``."""
    offs = bubble._offsets
    k = bisect_left(offs, g, 1) - 1
    return k, g - offs[k]


def rerooted(bubble, g):
    """``bubble`` rooted at global dart ``g``, whose sphere moves to the
    front, and the image of each old global dart."""
    k, d = to_local(bubble, g)
    order = [k] + [i for i in range(len(bubble.spheres)) if i != k]
    new = {old: i for i, old in enumerate(order)}
    out = BubbleMap(
        tuple(bubble.spheres[old].rerooted(d) if old == k
              else bubble.spheres[old] for old in order),
        tuple((new[a], va, new[b], vb) for a, va, b, vb in bubble.pinches))
    mapping = {bubble._offsets[old] + x: out._offsets[i] + x
               for i, old in enumerate(order)
               for x in bubble.spheres[old].darts()}
    return out, mapping


def branching_key(bubble, circuit, cyclic=False):
    """Relabelling-invariant identity of a circuit-decorated bubble-map:
    root every newly attached sphere at every dart of its pinch vertex, and
    keep the smallest assembled key.  With ``cyclic`` the circuit counts
    up to rotation; otherwise its first dart is part of the identity."""
    best = None
    stack = [({0: canonical_relabelling(bubble.spheres[0])}, [0])]
    while stack:
        images, order = stack.pop()
        if len(order) == len(bubble.spheres):
            key = _assembled_key(bubble, images, order, circuit.darts, cyclic)
            if best is None or key < best:
                best = key
            continue
        options = []
        for a, va, b, vb in bubble.pinches:
            for known, new, vk, vn in ((a, b, va, vb), (b, a, vb, va)):
                if known in order and new not in order:
                    rank = (order.index(known), _image_vertex(
                        bubble.spheres[known], images[known], vk))
                    options.append((rank, new, vn))
        options.sort()
        for rank, new, vn in options:
            if rank != options[0][0]:
                break
            sph = bubble.spheres[new]
            for d in sph.darts():
                if sph.vertex_of(d) == vn:
                    image = canonical_relabelling(sph.rerooted(d))
                    stack.append(({**images, new: image}, order + [new]))
    return best


def _image_vertex(sphere, image, v):
    return min(image[d] for d in sphere.darts() if sphere.vertex_of(d) == v)


def _assembled_key(bubble, images, order, circuit_darts, cyclic):
    pos = {old: new for new, old in enumerate(order)}
    offs_new = [0]
    for old in order:
        offs_new.append(offs_new[-1] + bubble.spheres[old].dart_count)
    codes = []
    for new, old in enumerate(order):
        s = relabel(bubble.spheres[old], images[old])
        codes.append(s.sigma + s.alpha + ((s.root,) if new == 0 else ()))
    pinches = tuple(sorted(
        tuple(sorted(((pos[a], _image_vertex(bubble.spheres[a], images[a],
                                             va)),
                      (pos[b], _image_vertex(bubble.spheres[b], images[b],
                                             vb)))))
        for a, va, b, vb in bubble.pinches))
    circ = []
    for g in circuit_darts:
        k, d = to_local(bubble, g)
        circ.append(offs_new[pos[k]] + images[k][d])
    if cyclic:
        circ = min(circ[i:] + circ[:i] for i in range(len(circ)))
    return tuple(codes), pinches, tuple(circ)
