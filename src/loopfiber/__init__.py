"""Truncated-Fourier loop spaces: frequency splittings, subspace-to-loop
reconstruction, parallel transport holonomy, and twisted loop bundles.

The submodules layer bottom-up:

  fourier     banded coefficient loops, Parseval pairing, the +/- splitting
  subspaces   orthonormal frames, shift filtrations, principal angles
  loopgroup   unitary matrix loops and the subspace -> loop construction
  transport   base loops, connection presets, RK4 transport, windings
  twistbundle holonomy-twisted sections and their trivializations
  decomp      subspace families over a base: audits and cocycle reduction
  cli         the `loopfiber` command-line front door
"""

from .errors import (
    IntersectionDimension,
    LoopFiberError,
    NonAntiHermitianSample,
    NonConstantReducedTransition,
    PeriodicityDefect,
    PhaseStepTooLarge,
    RankDeficiency,
    UnitarityViolation,
)
from .fourier import (
    TruncatedLoop,
    constant_loop,
    project_minus,
    project_plus,
    scalar_multiply,
)
from .subspaces import FiltrationSubspace, SubspaceFrame, expand_filtration
from .loopgroup import LoopGroupElement, loop_from_subspace, random_loop
from .transport import BaseLoop, ConnectionSpec, holonomy, parallel_transport
from .twistbundle import TwistedSection, j_embed, phi_inverse
from .decomp import SubspaceFamily, audit_family, reduction_cocycle

__version__ = "0.1.0"

__all__ = [
    "BaseLoop",
    "ConnectionSpec",
    "FiltrationSubspace",
    "IntersectionDimension",
    "LoopFiberError",
    "LoopGroupElement",
    "NonAntiHermitianSample",
    "NonConstantReducedTransition",
    "PeriodicityDefect",
    "PhaseStepTooLarge",
    "RankDeficiency",
    "SubspaceFamily",
    "SubspaceFrame",
    "TruncatedLoop",
    "TwistedSection",
    "UnitarityViolation",
    "audit_family",
    "constant_loop",
    "expand_filtration",
    "holonomy",
    "j_embed",
    "loop_from_subspace",
    "parallel_transport",
    "phi_inverse",
    "project_minus",
    "project_plus",
    "random_loop",
    "reduction_cocycle",
    "scalar_multiply",
    "__version__",
]
