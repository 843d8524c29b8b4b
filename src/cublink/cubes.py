"""Finite cube complexes, their barycentric subdivisions, and vertex-link tests.

A cube complex is presented by its cubes: a d-cube is a tuple of 2^d vertex
labels indexed by the bitmasks 0..2^d-1 (bit i is the i-th coordinate), and
faces are glued wherever they share a vertex set.  This vertex-determined
presentation covers the desk-scale corpora used here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

from .complexes import _clique_masks, order_complex
from .errors import MalformedCubeComplex
from .poset import Poset, _bits, _label_order


def _cube_dim(size):
    d = size.bit_length() - 1
    if not size or 1 << d != size:
        raise MalformedCubeComplex(f"cube with {size} vertices is not a power of two")
    return d


@lru_cache(maxsize=None)
def _face_patterns(size):
    """The faces of a cube with size vertices, by dimension, each with its facets.

    A face is a pair: the tuple of its vertex positions, and the indices in
    this list of its facets, the faces of one dimension less.
    """
    dims = range(_cube_dim(size))
    index, faces = {}, []
    for kept_count in range(len(dims) + 1):
        for kept in combinations(dims, kept_count):
            fixed = [i for i in dims if i not in kept]
            for values in product((0, 1), repeat=len(fixed)):
                base = sum(v << i for i, v in zip(fixed, values))
                index[kept, base] = len(faces)
                facets = tuple(index[kept[:j] + kept[j + 1:], base + (b << i)]
                               for j, i in enumerate(kept) for b in (0, 1))
                faces.append((tuple(base + sum(b << i for i, b in zip(kept, bits))
                                    for bits in product((0, 1), repeat=kept_count)), facets))
    return tuple(faces)


class CubeComplex:
    """Immutable cube complex with vertex-determined faces.

    Index i stands for ``vertices[i]``, in label order, and a face is the
    ascending tuple of its corners' indices.  facets maps each face to the
    set of its facets.  Faces are keyed by these tuples, not by index
    masks: an int hashes modulo 2**61 - 1, so the masks of faces whose
    indices agree modulo 61 collide.
    """

    def __init__(self, cubes):
        cubes = [tuple(c) for c in cubes]
        for c in cubes:
            if len(set(c)) != len(c):
                raise MalformedCubeComplex(f"repeated vertex in cube {c}")
            _cube_dim(len(c))
        # corners repeat across cubes; face_label names faces by their corners' string forms
        self.vertices, index = _label_order(dict.fromkeys(x for c in cubes for x in c), "vertex")
        # every face of every cube, deduplicated by its corners; the faces of a cube come
        # by dimension, so a face glued two ways first shows as two different facet sets
        facets = {}
        for c in cubes:
            patterns = _face_patterns(len(c))
            idx = [index[x] for x in c]
            faces = [tuple(sorted([idx[i] for i in face])) for face, _ in patterns]
            for key, (_, below) in zip(faces, patterns):
                mine = frozenset(faces[j] for j in below)
                if facets.setdefault(key, mine) != mine:
                    raise MalformedCubeComplex(
                        f"face {[str(x) for x in self._corners(key)]} is glued with incompatible structure"
                    )
        self.facets = facets

    def _corners(self, face):
        """The corners of a face, in label order."""
        return [self.vertices[i] for i in face]

    def face_poset(self):
        """All faces, each named by face_label, ordered by the structural face relation."""
        # the corners print distinctly, so the names do too, and sorted they are the label order
        faces = list(self.facets)
        names = [face_label(self._corners(f)) for f in faces]
        order = sorted(range(len(faces)), key=names.__getitem__)
        position = {faces[k]: p for p, k in enumerate(order)}
        preds = [[position[g] for g in self.facets[faces[k]]] for k in order]
        return Poset._from_preds([names[k] for k in order], preds)


def face_label(face_set):
    """The face's vertex labels in label order, joined by "+".

    If a label holds a "+", each label is instead written with "\\" doubled
    and "+" as "\\p", and ended by "+": such a name ends in "+" and a plain
    join does not, so no two faces share a name.
    """
    joined = "+".join(sorted(map(str, face_set)))
    if joined.count("+") < len(face_set):
        return joined
    return "".join(x.replace("\\", "\\\\").replace("+", "\\p") + "+" for x in sorted(map(str, face_set)))


def barycentric_cube_subdivision(cubes):
    """The order complex of the face poset of a cube complex, as a type-C complex.

    Vertices are face barycenters and simplex orders run by face dimension,
    so one square yields 9 vertices and 8 maximal triangles.  check_type_C
    needs no subdivision: it takes the face poset itself.
    """
    K = cubes if isinstance(cubes, CubeComplex) else CubeComplex(cubes)
    return order_complex(K.face_poset())


# -- the direct vertex-link test ----------------------------------------------------


@dataclass(frozen=True)
class LinkReport:
    """Per-vertex outcome of the cube-complex link test."""

    vertex: object
    simplicial: bool
    flag: bool
    witness: object

    @property
    def ok(self):
        return self.simplicial and self.flag


def cube_link_reports(K):
    """Check each vertex link directly on the cube complex.

    The link of v has one vertex per edge at v and one simplex per corner of
    a cube at v; v itself is the empty corner, so an isolated vertex's link
    is the empty simplex and passes.  It must be a simplicial complex
    (corners determine distinct simplices) and flag (pairwise-cornered edge
    sets span a corner).  The witness is the first two faces at v, in the
    order of their sorted vertex labels, with the same edges at v, or else
    the first maximal clique of edges that spans no corner, in face-label
    order.
    """
    K = K if isinstance(K, CubeComplex) else CubeComplex(K)
    at = [[] for _ in K.vertices]  # the faces at each vertex, in the order of their sorted vertex labels
    for f in sorted(K.facets):
        for v in f:
            at[v].append(f)
    name = {f: face_label(K._corners(f)) for f in K.facets if len(f) == 2}
    reports = []
    for v, faces in enumerate(at):
        edges = sorted((f for f in faces if len(f) == 2), key=name.__getitem__)  # the link's vertices
        span = {e: 1 << k for k, e in enumerate(edges)}  # the edges at v of each face at v, as a mask over edges
        for f in sorted(faces, key=len):  # bottom-up from those of its facets at v
            if f not in span:
                span[f] = 0
                for g in K.facets[f]:
                    if v in g:
                        span[f] |= span[g]
        corner, duplicate = {}, None
        for f in faces:
            if span[f] in corner:
                duplicate = (corner[span[f]], f)
                break
            corner[span[f]] = f
        if duplicate is not None:
            reports.append(LinkReport(K.vertices[v], False, False, tuple(frozenset(K._corners(f)) for f in duplicate)))
            continue
        adjacency = [0] * len(edges)
        for s in corner:
            for k in _bits(s):
                adjacency[k] |= s
        missing = _clique_masks([m & ~(1 << k) for k, m in enumerate(adjacency)], corner)
        flag_witness = None
        if missing:
            clique = min(missing, key=lambda c: tuple(_bits(c)))
            flag_witness = tuple(frozenset(K._corners(edges[k])) for k in _bits(clique))
        reports.append(LinkReport(K.vertices[v], True, flag_witness is None, flag_witness))
    return reports


def gromov_link_condition(K):
    """True iff every vertex link is a flag simplicial complex."""
    return all(r.ok for r in cube_link_reports(K))


# -- small corpus builders -------------------------------------------------------------


def single_square():
    return [("a", "b", "c", "d")]


def single_cube():
    return [tuple(f"v{m}" for m in range(8))]


def squares_sharing_edge():
    return [("a", "b", "c", "d"), ("c", "d", "e", "f")]


def squares_sharing_vertex():
    return [("v", "a", "b", "c"), ("v", "p", "q", "r")]


def squares_sharing_two_edges():
    """Two squares glued along two consecutive edges: the classic doubled corner."""
    return [("v", "a", "b", "c"), ("v", "a", "b", "d")]


def three_squares_corner():
    """Three squares pairwise sharing edges around a corner, with no filling cube."""
    return [
        ("v", "x", "y", "xy"),
        ("v", "y", "z", "yz"),
        ("v", "x", "z", "xz"),
    ]


def corner_with_cube():
    """The same three squares, filled: they bound a corner of a 3-cube."""
    return [("v", "x", "y", "xy", "z", "xz", "yz", "xyz")]


def square_grid(w, h):
    cubes = []
    for i in range(w):
        for j in range(h):
            cubes.append((f"g{i}_{j}", f"g{i+1}_{j}", f"g{i}_{j+1}", f"g{i+1}_{j+1}"))
    return cubes


def cube_corpus():
    """A varied corpus of small cube complexes with known link behaviour."""
    corpus = {
        "single_square": single_square(),
        "single_cube": single_cube(),
        "squares_sharing_edge": squares_sharing_edge(),
        "squares_sharing_vertex": squares_sharing_vertex(),
        "squares_sharing_two_edges": squares_sharing_two_edges(),
        "three_squares_corner": three_squares_corner(),
        "corner_with_cube": corner_with_cube(),
        "grid_2x2": square_grid(2, 2),
        "grid_3x2": square_grid(3, 2),
        "strip_4x1": square_grid(4, 1),
        "two_cubes_sharing_square": [
            tuple(f"a{m}" for m in range(8)),
            ("a4", "a5", "a6", "a7", "b0", "b1", "b2", "b3"),
        ],
        "two_cubes_sharing_edge": [
            tuple(f"c{m}" for m in range(8)),
            ("c6", "c7", "d0", "d1", "d2", "d3", "d4", "d5"),
        ],
        "two_cubes_sharing_vertex": [
            tuple(f"e{m}" for m in range(8)),
            ("e7", "f1", "f2", "f3", "f4", "f5", "f6", "f7"),
        ],
        "cube_with_flap": [
            tuple(f"h{m}" for m in range(8)),
            ("h6", "h7", "w0", "w1"),
        ],
        "four_squares_around_vertex": [
            ("m", "e1", "e2", "q1"),
            ("m", "e2", "e3", "q2"),
            ("m", "e3", "e4", "q3"),
            ("m", "e4", "e1", "q4"),
        ],
        "five_squares_around_vertex": [
            ("m", "e1", "e2", "q1"),
            ("m", "e2", "e3", "q2"),
            ("m", "e3", "e4", "q3"),
            ("m", "e4", "e5", "q4"),
            ("m", "e5", "e1", "q5"),
        ],
        "tree_of_squares": [
            ("t0", "t1", "t2", "t3"),
            ("t2", "t3", "t4", "t5"),
            ("t4", "t5", "t6", "t7"),
            ("t5", "t8", "t7", "t9"),
        ],
        "corner_plus_flap": three_squares_corner() + [("xy", "k0", "k1", "k2")],
        "doubled_corner_in_context": squares_sharing_two_edges()
        + [("b", "c", "n0", "n1"), ("b", "d", "n2", "n3")],
        "single_edge": [("p", "q")],
        "path_of_edges": [("p0", "p1"), ("p1", "p2"), ("p2", "p3")],
        "square_with_diagonal_flags": single_square() + [("a", "z0"), ("d", "z1")],
    }
    return corpus
