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

from .complexes import maximal_cliques, order_complex
from .errors import MalformedCubeComplex
from .poset import Poset, _key


def _cube_dim(size):
    d = size.bit_length() - 1
    if not size or 1 << d != size:
        raise MalformedCubeComplex(f"cube with {size} vertices is not a power of two")
    return d


@lru_cache(maxsize=None)
def _face_patterns(size):
    """The faces of a cube with size vertices, as tuples of its vertex positions.

    Each face lists its vertices in its own bitmask order, by dimension.
    """
    dims = range(_cube_dim(size))
    faces = []
    for kept_count in range(len(dims) + 1):
        for kept in combinations(dims, kept_count):
            fixed = [i for i in dims if i not in kept]
            for values in product((0, 1), repeat=len(fixed)):
                base = sum(v << i for i, v in zip(fixed, values))
                faces.append(tuple(base + sum(b << i for i, b in zip(kept, bits))
                                   for bits in product((0, 1), repeat=kept_count)))
    return tuple(faces)


def _structural_faces(cube):
    """All faces of one cube as tuples in their own bitmask order, by dimension."""
    return [tuple(cube[i] for i in face) for face in _face_patterns(len(cube))]


class CubeComplex:
    """Immutable cube complex with vertex-determined faces.

    face_dims maps the vertex set of each face to its dimension, and
    face_subfaces maps it to the vertex sets of its proper faces.
    """

    def __init__(self, cubes):
        cubes = [tuple(c) for c in cubes]
        for c in cubes:
            if len(set(c)) != len(c):
                raise MalformedCubeComplex(f"repeated vertex in cube {c}")
            _cube_dim(len(c))
        # every face of every cube, deduplicated by vertex set; a face's dimension is
        # log2 of its vertex count, so two faces on one vertex set differ only in their sub-faces
        face_dims, subfaces = {}, {}
        for c in cubes:
            for f in _structural_faces(c):
                key = frozenset(f)
                proper = frozenset(frozenset(g) for g in _structural_faces(f) if len(g) < len(f))
                if subfaces.setdefault(key, proper) != proper:
                    raise MalformedCubeComplex(
                        f"face {sorted(map(str, key))} is glued with incompatible structure"
                    )
                face_dims[key] = _cube_dim(len(f))
        self.face_dims = face_dims
        self.face_subfaces = subfaces

    def vertices(self):
        return sorted({v for f in self.face_dims if len(f) == 1 for v in f}, key=_key)

    def faces_at(self, v, dim=None):
        out = [f for f in self.face_dims if v in f and (dim is None or self.face_dims[f] == dim)]
        return sorted(out, key=lambda f: tuple(sorted(map(_key, f))))

    def face_poset(self):
        """All faces, each named by face_label, ordered by the structural face relation."""
        labels = {f: face_label(f) for f in self.face_dims}
        covers = [(labels[g], labels[f]) for f, subs in self.face_subfaces.items()
                  for g in subs if self.face_dims[g] == self.face_dims[f] - 1]
        return Poset.from_covers(labels.values(), covers)


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
    a cube at v.  It must be a simplicial complex (corners determine distinct
    simplices) and flag (pairwise-cornered edge sets span a corner).
    """
    K = K if isinstance(K, CubeComplex) else CubeComplex(K)
    reports = []
    for v in K.vertices():
        corner = {}
        duplicate = None
        for f in K.faces_at(v):
            if K.face_dims[f] < 1:
                continue
            edges = frozenset(g for g in K.face_subfaces[f] | {f}
                              if v in g and K.face_dims.get(g) == 1)
            if edges in corner and corner[edges] != f:
                duplicate = (corner[edges], f)
                break
            corner[edges] = f
        if duplicate is not None:
            reports.append(LinkReport(v, False, False, duplicate))
            continue
        link_vertices = sorted((f for f in K.faces_at(v, dim=1)), key=face_label)
        adjacency = {e: set() for e in link_vertices}
        for edges in corner:
            for a, b in combinations(sorted(edges, key=face_label), 2):
                adjacency[a].add(b)
                adjacency[b].add(a)
        adjacency = {e: frozenset(nb) for e, nb in adjacency.items()}
        flag_witness = None
        for clique in maximal_cliques(link_vertices, adjacency):
            if frozenset(clique) not in corner:
                flag_witness = clique
                break
        reports.append(LinkReport(v, True, flag_witness is None, flag_witness))
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
