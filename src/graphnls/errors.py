"""Exception types raised across the package.

Everything derives from GraphNLSError so callers can catch package
failures with a single except clause.  Errors that indicate bad input
values also derive from ValueError.
"""


class GraphNLSError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(GraphNLSError, ValueError):
    """A numeric argument is outside the domain where the quantity is defined."""


class ContinuityError(GraphNLSError):
    """Edge values disagree at the shared vertex beyond tolerance.

    Attributes
    ----------
    defect : float
        The measured vertex mismatch max_e |psi_e(0) - psi_0(0)|.
    """

    def __init__(self, message, defect):
        super().__init__(message)
        self.defect = float(defect)


class DegenerateStateError(GraphNLSError):
    """An operation needs a nonzero state (e.g. rescaling the zero function)."""


class OffsetError(DomainError):
    """No real offset matches the requested masses (needs m2 >= 2*m1)."""


class ZeroEdgeMassError(GraphNLSError):
    """A comparison state is undefined because one edge carries exactly zero mass.

    The energy of such configurations is still controlled by the infimum
    -M^3/96; use energy_infimum for the bound instead of a comparison state.
    """


class StepFailureError(GraphNLSError):
    """The implicit time step did not converge.

    Attributes
    ----------
    step_index : int
        Index of the failing step within the evolution.
    """

    def __init__(self, message, step_index):
        super().__init__(message)
        self.step_index = int(step_index)


class ProbeError(GraphNLSError):
    """A second-difference probe left the regime where it is meaningful."""


class AliasingError(GraphNLSError):
    """Phase advances too fast for the sampling stride to resolve unambiguously."""


class TruncationError(DomainError):
    """The requested profile does not fit on the truncated edges.

    Attributes
    ----------
    m1_floor : float
        Approximate smallest head mass still representable on this grid.
    """

    def __init__(self, message, m1_floor):
        super().__init__(message)
        self.m1_floor = float(m1_floor)
