"""Certification and reduction of sampled shift-filtered subspace families.

A SubspaceFamily carries, over a finite path or cycle of base samples, a
shift-filtration window at each point plus optional loop-group transition
data between neighbours.  `audit_family` checks the three fiberwise axioms
that make the family a genuine frequency-split structure:

  (a) shifting by z maps the depth-P window into the depth-(P+1) window,
  (b) the window dimension grows by exactly n per depth step,
  (c) the fiber meets the shifted complement in exactly n directions and
      those directions assemble into a pointwise-unitary loop.

`reduction_cocycle` takes an audit report, which carries its family and the
per-point loops from (c), and conjugates each transition, certified
unitary, by those loops; for a certified family the conjugated transitions
are constant in the loop parameter, producing a plain unitary cocycle.  A
transition with nonzero determinant winding can never reduce this way, and
the failure is reported together with the family's total winding.  Each
certificate takes its module constant as its tolerance.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    IntersectionDimension,
    NonConstantReducedTransition,
    UnitarityViolation,
)
from .fourier import _integer, _to_pairs, basis_loop
from .loopgroup import (
    UNITARITY_TOL,
    _polar,
    _stack_defect,
    constant_element,
    det_winding,
    element_from_dict,
    element_to_dict,
    inverse,
    loop_from_subspace,
    multiply,
    theta_variation,
    unitarity_defect,
)
from .subspaces import (FiltrationSubspace, _leading_frame, _residual_norms,
                        expand_filtration, filtration_from_dict,
                        filtration_to_dict, orthonormalize, principal_angles)

__all__ = [
    "SubspaceFamily",
    "PointAudit",
    "AuditReport",
    "audit_family",
    "ReductionCertificate",
    "reduction_cocycle",
    "build_model_decomposition",
    "filtration",
    "family_to_dict",
    "family_from_dict",
]

SHIFT_RESIDUAL_TOL = 1e-8
CONTINUITY_COS = 0.9
VARIATION_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class SubspaceFamily:
    """Filtration windows over a sampled base with optional transitions.

    points are opaque labels; edges index into them (a path or a cycle).
    transitions, when present, run parallel to edges: transitions[e] maps
    the trivialized fiber at edges[e][0] to the one at edges[e][1].
    """

    points: tuple
    edges: tuple
    psi: tuple
    transitions: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "edges", tuple(
            tuple(_integer(i, "edge index") for i in e) for e in self.edges))
        object.__setattr__(self, "psi", tuple(self.psi))
        if self.transitions is not None:
            object.__setattr__(self, "transitions", tuple(self.transitions))
        m = len(self.points)
        if len(self.psi) != m:
            raise ValueError("one filtration window per base point required")
        if m == 0:
            raise ValueError("family needs at least one base point")
        n = self.psi[0].n
        if any(f.n != n for f in self.psi):
            raise ValueError("fiber dimension varies across the family")
        for e in self.edges:
            if len(e) != 2 or not all(0 <= i < m for i in e):
                raise ValueError(f"edge {e} does not index the point list")
        if self.transitions is not None:
            if len(self.transitions) != len(self.edges):
                raise ValueError("one transition per edge required")
            if any(c.n != n for c in self.transitions):
                raise ValueError("transition dimension mismatch")

    @property
    def size(self):
        return len(self.points)


@dataclass(frozen=True)
class PointAudit:
    point: int
    shift_residual: float
    dim_at_depth: int
    dim_above: int
    growth: int
    intersection_dim: int
    unitarity_defect: float | None  # None when no loop was built
    failure: str
    passed_a: bool
    passed_b: bool
    passed_c: bool

    @property
    def passed(self):
        return self.passed_a and self.passed_b and self.passed_c

    def to_dict(self):
        """Every field, with passed_a..passed_c as the list "passed"."""
        d = {k: v for k, v in vars(self).items() if not k.startswith("passed")}
        d["passed"] = [self.passed_a, self.passed_b, self.passed_c]
        return d


@dataclass(frozen=True)
class AuditReport:
    """The audit of a family.  gammas[x] is the loop certified at point x,
    or None where (c) failed; it and the audited family are kept for
    reduction_cocycle, not reported."""

    point_audits: tuple
    edge_cosines: tuple
    continuity_ok: bool
    gammas: tuple = field(repr=False, compare=False)
    family: SubspaceFamily = field(repr=False, compare=False)

    @property
    def axioms_ok(self):
        return all(p.passed for p in self.point_audits)

    @property
    def all_ok(self):
        return self.axioms_ok and self.continuity_ok

    def to_dict(self):
        return {
            "points": [p.to_dict() for p in self.point_audits],
            "edge_min_cosines": list(self.edge_cosines),
            "continuity_ok": self.continuity_ok,
            "axioms_ok": self.axioms_ok,
            "all_ok": self.all_ok,
        }


def _shift_residual(frame_p, frame_p1):
    """max over the depth-P frame of the part of z*w outside the P+1 frame."""
    zw = frame_p.stack._replace(kmin=frame_p.stack.kmin + 1)
    return float(_residual_norms(frame_p1, zw).max())


def _audit_point(x, f):
    """(PointAudit, the certified loop or None) at point x."""
    n = f.n
    # one QR per point: the depth-P window is the depth-(P+1) frame's head
    frame_p1 = expand_filtration(f, f.depth + 1)
    frame_p = _leading_frame(frame_p1, f.stack.data.shape[2] * (f.depth + 1))
    residual = _shift_residual(frame_p, frame_p1)
    growth = frame_p1.dim - frame_p.dim

    # loop_from_subspace raises IntersectionDimension unless the
    # intersection has dimension n
    inter_dim, defect, failure, gamma = n, None, "", None
    try:
        gamma = loop_from_subspace(frame_p)
    except IntersectionDimension as exc:
        failure = str(exc)
        inter_dim = exc.got
    except UnitarityViolation as exc:
        failure = str(exc)
        defect = exc.defect
    else:
        defect = unitarity_defect(gamma)[0]  # the certificate gamma keeps
    return PointAudit(
        point=x,
        shift_residual=residual,
        dim_at_depth=frame_p.dim,
        dim_above=frame_p1.dim,
        growth=growth,
        intersection_dim=inter_dim,
        unitarity_defect=defect,
        failure=failure,
        passed_a=residual <= SHIFT_RESIDUAL_TOL,
        passed_b=growth == n,
        passed_c=gamma is not None,
    ), gamma


def _window_key(f):
    """A key equal for two windows exactly when they have the same depth
    and bit-identical generator stacks.  Bytes, not ==, so that -0.0 and
    +0.0 stay apart."""
    return f.depth, f.stack.kmin, f.stack.data.shape, f.stack.data.tobytes()


def audit_family(fam):
    """Check the fiberwise axioms at every base point.

    Failures land in the report: per point the shift residual (a), the
    window growth (b), the intersection dimension and loop unitarity (c),
    plus per-edge continuity cosines between neighbouring generator spans.
    A window with dependent shifted generators raises RankDeficiency.

    Equal windows (same depth, bit-identical generators; a constant-loop
    reduction has one window everywhere) are audited once, at their first
    point: the other points share its result and its loop, and each edge
    takes the principal angles of its pair of windows once.
    """
    keys = {}  # window key -> the first point with that window
    first = [keys.setdefault(_window_key(f), x) for x, f in enumerate(fam.psi)]
    audited = {x: _audit_point(x, fam.psi[x]) for x in dict.fromkeys(first)}
    point_audits = tuple(
        audited[x0][0] if x0 == x else replace(audited[x0][0], point=x)
        for x, x0 in enumerate(first))
    gammas = tuple(audited[x0][1] for x0 in first)
    spans = {x0: orthonormalize(fam.psi[x0].stack) for x0 in audited}
    edges = [(first[i], first[j]) for i, j in fam.edges]
    angles = {(i, j): float(principal_angles(spans[i], spans[j]).min())
              for i, j in dict.fromkeys(edges)}
    cosines = tuple(angles[e] for e in edges)
    continuity_ok = all(c >= CONTINUITY_COS for c in cosines)
    return AuditReport(point_audits, cosines, continuity_ok, gammas, fam)


@dataclass(frozen=True, eq=False)
class ReductionCertificate:
    """Constant unitary transitions obtained by conjugating the cocycle.

    constants[e] is the polar-projected mean of the conjugated transition
    over edge e; variations[e] its grid variation (certified <= 1e-6);
    gammas[x] the per-point loop used for the conjugation, whose
    determinant windings are recorded alongside.
    """

    edges: tuple
    constants: tuple
    variations: tuple
    gammas: tuple
    gamma_windings: tuple

    @property
    def max_variation(self):
        return max(self.variations) if self.variations else 0.0

    def to_dict(self):
        return {
            "edges": [list(e) for e in self.edges],
            "constants": _to_pairs(self.constants),
            "variations": list(self.variations),
            "gamma_windings": list(self.gamma_windings),
            "max_variation": self.max_variation,
        }


def reduction_cocycle(audit):
    """Conjugate each transition of the audited family into a constant
    unitary, or refuse.

    `audit` is the audit_family report of the family; an audit whose
    axioms failed raises ValueError, as does a family without transitions
    or with a transition whose unitarity defect is above UNITARITY_TOL
    (not in LU(n)).  Each transition c over an edge (x, y) is replaced by
    gamma_y^{-1} c gamma_x, with gamma_x the pointwise-unitary loop the
    audit certified at x from axiom (c).  For a certified family this is
    constant in the loop parameter; the constants form the reduced cocycle.
    A variation above VARIATION_TOL raises NonConstantReducedTransition
    carrying the total determinant winding of the input transitions, the
    integer obstruction that forbids any such reduction.  A mean with a
    unitarity defect above 2 var + var^2 + UNITARITY_TOL, more than a
    unitary loop within var of it allows, raises ValueError.

    The loops' determinant windings, read from their bands (det_winding),
    are taken after every edge has reduced: a loop lent without being
    unitary meets the mean check first.
    """
    fam, gammas = audit.family, audit.gammas
    if fam.transitions is None:
        raise ValueError("family carries no transition data")
    if not audit.axioms_ok:
        raise ValueError("the audit of this family failed its axioms")
    for e_idx, c in enumerate(fam.transitions):  # each certificate is kept
        defect = unitarity_defect(c)[0]
        if not (defect <= UNITARITY_TOL):
            raise ValueError(f"transition {e_idx} on edge {fam.edges[e_idx]} "
                             f"is not unitary: defect {defect:.3e}")
    constants = []
    variations = []
    for e_idx, (i, j) in enumerate(fam.edges):
        c = fam.transitions[e_idx]
        reduced = multiply(inverse(gammas[j]), multiply(c, gammas[i]))
        var, mean = theta_variation(reduced)
        if not (var <= VARIATION_TOL):
            total = sum(det_winding(t) for t in fam.transitions)
            raise NonConstantReducedTransition((i, j), var, winding_sum=total)
        defect = _stack_defect(mean[None])[0]
        if not (defect <= 2.0 * var + var * var + UNITARITY_TOL):
            raise ValueError(f"transition {e_idx} on edge {(i, j)} is not "
                             f"unitary: reduced mean defect {defect:.3e}")
        constants.append(_polar(mean))
        variations.append(float(var))
    return ReductionCertificate(fam.edges, tuple(constants),
                                tuple(variations), gammas,
                                tuple(det_winding(g) for g in gammas))


def build_model_decomposition(U_cocycle, depth=3):
    """The constant-window family over a cycle with the given transitions.

    Each fiber is the nonnegative-frequency window on constant generators;
    constant unitary transitions preserve it, so the audit passes by
    construction and reduction recovers the input cocycle.
    """
    mats = [np.asarray(U, dtype=complex) for U in U_cocycle]
    if not mats:
        raise ValueError("inconsistent cocycle: no transitions given")
    n = mats[0].shape[0]
    if any(U.shape != (n, n) for U in mats):
        raise ValueError("inconsistent cocycle: mixed matrix shapes")
    if not (_stack_defect(np.array(mats))[0] <= UNITARITY_TOL):
        raise ValueError("inconsistent cocycle: transition not unitary")
    m = len(mats)
    gens = [basis_loop(n, component=j, frequency=0) for j in range(n)]
    window = FiltrationSubspace(gens, depth)
    return SubspaceFamily(
        points=tuple(range(m)),
        edges=tuple((i, (i + 1) % m) for i in range(m)),
        psi=tuple(window for _ in range(m)),
        transitions=tuple(constant_element(U) for U in mats),
    )


def filtration(fam, k):
    """The k-th member of the exhausting chain: every window shifted by -k."""
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError("k must be a nonnegative integer")
    if k == 0:
        return fam
    psi = tuple(FiltrationSubspace(f.stack._replace(kmin=f.stack.kmin - k),
                                   f.depth) for f in fam.psi)
    return SubspaceFamily(fam.points, fam.edges, psi, fam.transitions)


def family_to_dict(fam):
    return {
        "points": list(fam.points),
        "edges": [list(e) for e in fam.edges],
        "psi": [filtration_to_dict(f) for f in fam.psi],
        "transitions": (None if fam.transitions is None
                        else [element_to_dict(c) for c in fam.transitions]),
    }


def family_from_dict(d):
    transitions = d.get("transitions")
    return SubspaceFamily(
        points=tuple(d["points"]),
        edges=tuple(tuple(e) for e in d["edges"]),
        psi=tuple(filtration_from_dict(f) for f in d["psi"]),
        transitions=(None if transitions is None
                     else tuple(element_from_dict(c) for c in transitions)),
    )
