"""Exception hierarchy shared across the package."""


class SignedVoterError(Exception):
    """Base class for all errors raised by this package."""


class GraphDataError(SignedVoterError):
    """Bad input data: malformed files, invalid edges, broken graph invariants."""


class ZeroWeightEdge(GraphDataError):
    pass


class NonFiniteWeight(GraphDataError):
    """An edge weight is NaN or infinite."""


class DuplicateEdge(GraphDataError):
    pass


class DanglingNode(GraphDataError):
    """Some node has no outgoing edge, so the degree matrix is singular."""


class MalformedLine(GraphDataError):
    pass


class InvalidConfig(GraphDataError):
    pass


class GenerationFailed(SignedVoterError):
    """Random generation exhausted its retry budget without a valid graph."""


class NotStronglyConnected(SignedVoterError):
    """A node set handed to a component-level operation is not a single SCC."""


class PeriodicComponent(SignedVoterError):
    """A sink component is periodic; long-term closed forms do not apply."""


class NumericFailure(SignedVoterError):
    """An iterative numeric routine failed to reach its tolerance."""


class NoConvergence(NumericFailure):
    pass


class SlowMixing(NumericFailure):
    """Propagation hit the step cap before same-parity convergence."""


class LeftUnitInterval(NumericFailure):
    """A computed white probability left [0, 1] by more than roundoff."""


class WrongKind(SignedVoterError):
    """Operation applied to a steady state or component of the wrong kind."""


class TooLarge(SignedVoterError):
    """Instance exceeds the size gate of an exhaustive routine."""
