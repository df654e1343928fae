"""Exception hierarchy shared by all eigenalign modules."""


class EigenalignError(Exception):
    """Base class for every error raised by this package."""


class EmptyNullSpace(EigenalignError):
    """The matrix has full row rank: the interference spans the whole
    receive space and no zero-forcing direction exists."""


class MalformedDocument(EigenalignError):
    """A serialized document could not be parsed.

    The ``location`` attribute points at the offending field.
    """

    def __init__(self, message, location=""):
        super().__init__(f"{message} (at {location})" if location else message)
        self.location = location


class ShapeMismatch(EigenalignError):
    """A matrix does not have the shape implied by the network dimensions."""


class DimensionMismatch(EigenalignError):
    """The network dimensions do not satisfy a method's requirements."""


class SingularChannel(EigenalignError):
    """A cross-channel matrix that must be inverted is (numerically) singular:
    its condition estimate is not below the cap.

    Callers surface this instead of regularizing: for generically drawn
    channels it flags a measure-zero event or a malformed input. ``pair``
    holds the offending (receiver, transmitter) index pair, 0-based.
    """

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class NoUsableEigenpair(EigenalignError):
    """No eigenpair yields precoders (each has a near-zero eigenvalue or
    per-user block), or the eigenvalue kept overflows the float range."""


class RankDeficientSolution(EigenalignError):
    """Interference aligns but the desired signal falls into the interference
    subspace for some user, so the direct link carries no stream.

    ``user`` is the offending 0-based user index; ``solution`` carries the
    aligned-but-useless solution for inspection.
    """

    def __init__(self, message, user=None, solution=None):
        super().__init__(message)
        self.user = user
        self.solution = solution


class ConfigMismatch(EigenalignError):
    """An iterative-solver configuration is inconsistent with the network."""


class UnverifiedSolution(EigenalignError):
    """Rates were requested for a solution that fails verification; the
    interference-free rate formula would be meaningless."""
