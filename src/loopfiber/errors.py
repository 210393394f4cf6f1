"""Exception types shared across the toolkit.

Numerical failure modes get their own classes so callers (and the CLI exit
code table) can tell a malformed input from a genuine geometric obstruction.
"""

__all__ = [
    "LoopFiberError",
    "RankDeficiency",
    "IntersectionDimension",
    "UnitarityViolation",
    "PhaseStepTooLarge",
    "NonAntiHermitianSample",
    "PeriodicityDefect",
    "NonConstantReducedTransition",
]


class LoopFiberError(Exception):
    """Base class for all toolkit-specific errors."""


class RankDeficiency(LoopFiberError):
    """A generator family fails to span the dimension it claims."""


class IntersectionDimension(LoopFiberError):
    """The shift-complement intersection has the wrong dimension.

    Constructing a unitary loop from a subspace needs the intersection
    W cap (zW)^perp to have dimension exactly n.  Anything else means the
    subspace does not come from a loop of invertible matrices.
    """

    def __init__(self, got, expected):
        self.got = got
        self.expected = expected
        super().__init__(
            f"intersection dimension {got}, expected {expected}")


class UnitarityViolation(LoopFiberError):
    """A matrix loop fails pointwise unitarity beyond tolerance."""

    def __init__(self, defect, theta):
        self.defect = defect
        self.theta = theta
        super().__init__(
            f"pointwise unitarity defect {defect:.3e} at theta={theta:.6f}")


class PhaseStepTooLarge(LoopFiberError):
    """A winding number or a certificate cannot be resolved.

    Raised when a loop's frequencies need a certificate grid beyond
    loopgroup.CERTIFICATE_MAX_GRID; when the determinant winding read from
    a certified loop's band is not certainly the nearest whole number
    (loopgroup.det_winding); or when the ends of transport.chern_winding
    do not resolve its winding.
    """


class NonAntiHermitianSample(LoopFiberError):
    """A connection form returned a sample that is not anti-Hermitian."""

    def __init__(self, defect, t):
        self.defect = defect
        self.t = t
        super().__init__(f"anti-Hermitian defect {defect:.3e} at t={t:.6f}")


class PeriodicityDefect(LoopFiberError):
    """An untwisted section failed to close up over one period."""

    def __init__(self, residual):
        self.residual = residual
        super().__init__(f"periodicity residual {residual:.3e}")


class NonConstantReducedTransition(LoopFiberError):
    """A reduced transition retained genuine loop dependence.

    Carries the offending edge, the measured variation, and the total
    determinant winding of the input transitions, which is the obstruction
    that forbids a constant reduction; and `uncarried`, the (edge,
    residual) of the first transition that does not carry its window onto
    the next, when there is one (else None): then no reduction can exist.
    """

    def __init__(self, edge, variation, winding_sum, uncarried=None):
        self.edge = edge
        self.variation = variation
        self.winding_sum = winding_sum
        self.uncarried = uncarried
        message = (f"reduced transition on edge {edge} varies by "
                   f"{variation:.3e} (total det winding {winding_sum})")
        if uncarried is not None:
            message += (f"; the transition on edge {uncarried[0]} does not "
                        f"carry its window: residual {uncarried[1]:.3e}")
        super().__init__(message)
