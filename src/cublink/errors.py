"""Exception types shared across the library.

Every error raised by cublink derives from CublinkError, so callers can
catch the whole family at once.  Errors that carry a combinatorial witness
expose it as an attribute.
"""


class CublinkError(Exception):
    """Base class for all cublink errors."""


class UnknownLabel(CublinkError):
    """A label was referenced that is not an element of the structure."""


class DuplicateLabel(CublinkError):
    """Two elements were declared with the same label."""


class CycleDetected(CublinkError):
    """The supplied relation contains a directed cycle, so it is not an order."""


class NotGraded(CublinkError):
    """The operation requires a graded poset."""


class NoMinimum(CublinkError):
    """The operation requires a poset with a global minimum."""


class InconsistentOrder(CublinkError):
    """Two simplices induce different orders on a shared face."""

    def __init__(self, face):
        self.face = face
        super().__init__(f"inconsistent induced orders on face {sorted(map(str, face))}")


class NotFlag(CublinkError):
    """A clique of the 1-skeleton spans no simplex."""

    def __init__(self, clique):
        self.clique = clique
        super().__init__(f"empty clique {sorted(map(str, clique))} spans no simplex")


class NotLocalPoset(CublinkError):
    """The star relation at some vertex orders a cycle, so it generates no partial order."""

    def __init__(self, vertex, cycle):
        self.vertex = vertex
        self.cycle = cycle
        super().__init__(f"star relation at {vertex} not transitive on {cycle}")


class MalformedCubeComplex(CublinkError):
    """The cube-complex input violates the cube format or glues faces inconsistently."""


class ParameterTooLarge(CublinkError):
    """A parameter or input exceeds the supported desk-scale size; nothing that grows with it has run."""


class PreconditionFailed(CublinkError):
    """A checker precondition (validation, flagness, local poset) failed.

    The underlying error is kept in ``cause`` so the witness is not lost.
    """

    def __init__(self, cause):
        self.cause = cause
        super().__init__(f"precondition failed: {cause}")


class NotAutomorphism(CublinkError):
    """The supplied vertex map is not an order-preserving simplicial automorphism."""


class GarsideCheckFailed(CublinkError):
    """A quotient was requested for a pair that fails the Garside conditions."""


class NotSumZero(CublinkError):
    """The polyhedral norm is only defined on the sum-zero hyperplane."""


class NoCommonChamber(CublinkError):
    """Two points admit no representation on a common maximal chain or simplex."""


class Disconnected(CublinkError):
    """No path exists between the two query points."""


class NotComparableToAll(CublinkError):
    """The product decomposition needs an element comparable to every other."""


class TooManyPoints(CublinkError):
    """Tight-span computation is limited to small point counts."""


class NotAMetric(CublinkError):
    """The matrix is not a metric (symmetry, zero diagonal, or triangle inequality fails)."""


class NotASubgroup(CublinkError):
    """A declared face subgroup is not contained in its ambient vertex group."""


class IncompatibleInclusions(CublinkError):
    """Face subgroups are not monotone under inclusion of face index sets."""
