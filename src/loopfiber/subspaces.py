"""Finite-dimensional subspaces of truncated loop space.

A frame stores its orthonormal columns, and a filtration window its
generators, once, as one fourier.BandStack; no other module lays frames
or windows out.  Padding is an isometry for the Parseval pairing, so Gram
matrices, QR and rank decisions are dense linear algebra on the stacks.
"""

import numpy as np

from .errors import RankDeficiency
from .fourier import (BandStack, TruncatedLoop, _bands_from_pairs,
                      _check_band, _integer, inner_product, loop_to_dict,
                      stack_columns, union_band)  # noqa: F401 (re-exported)

__all__ = [
    "SubspaceFrame",
    "FiltrationSubspace",
    "orthonormalize",
    "expand_filtration",
    "intersect_shift_complement",
    "principal_angles",
    "project_onto",
    "frame_to_dict",
    "frame_from_dict",
    "filtration_to_dict",
    "filtration_from_dict",
]

GRAM_TOL = 1e-10          # frame orthonormality tolerance
DROP_TOL = 1e-10          # least |R_jj| of a vector orthonormalize keeps
FILTRATION_SV_TOL = 1e-8  # smallest admissible Gram singular value
# Most complex entries a stacked shifted family may hold (256 MB); its Q is
# as large again
FILTRATION_MAX_ENTRIES = 2 ** 24


def _as_stack(loops, what):
    """A BandStack as it is; a nonempty list of loops of one n stacked over
    the hull of their bands.  ValueError naming `what` otherwise."""
    if isinstance(loops, BandStack):
        return loops
    if not loops:
        raise ValueError(f"need at least one {what}")
    if any(a.n != loops[0].n for a in loops):
        raise ValueError(f"{what} dimension mismatch")
    return stack_columns(loops)


def _frozen(stack):
    """`stack` with its data made read-only; ValueError unless finite."""
    if not np.isfinite(stack.data).all():
        raise ValueError("coefficients must be finite (NaN or inf found)")
    stack.data.setflags(write=False)
    return stack


def _loops(stack):
    """The columns of a BandStack as loops."""
    return tuple(TruncatedLoop.from_band(stack.n, stack.kmin, c)
                 for c in np.moveaxis(stack.data, 2, 0))


def cross_gram(A, B):
    """Matrix of pairings G[i, j] = <A[i], B[j]> (conjugate-linear in A) of
    two lists of loops or two BandStacks."""
    return inner_product(_as_stack(A, "loop"), _as_stack(B, "loop"))


class SubspaceFrame:
    """An orthonormal frame spanning a subspace of truncated loop space.

    Built from a list of loops in C^n or their BandStack, kept read-only
    as `stack`; `columns` builds the loops on access.  Invariant: the Gram
    matrix of the columns is the identity to GRAM_TOL.
    """

    def __init__(self, n, columns):
        stack = _frozen(_as_stack(columns, "column"))
        if stack.n != n:
            raise ValueError("column dimension mismatch")
        G = cross_gram(stack, stack)
        defect = np.abs(G - np.eye(len(G))).max()
        if not (defect <= GRAM_TOL):
            raise ValueError(
                f"frame is not orthonormal (Gram defect {defect:.3e})")
        self.n, self.stack = n, stack

    @property
    def dim(self):
        return self.stack.data.shape[2]

    @property
    def columns(self):
        return _loops(self.stack)


class FiltrationSubspace:
    """Generators g_1..g_m together with a shift depth P.

    Stands for span{ z^p g_j : 0 <= p <= P, 1 <= j <= m }, the finite
    shift-filtration window used to approximate a z-stable subspace.
    Stored as a frame is (`stack`; `generators` builds the loops).  The
    full-rank condition on the shifted family is enforced lazily by
    expand_filtration, which is where a depth is actually consumed.
    """

    def __init__(self, generators, depth):
        stack = _frozen(_as_stack(generators, "generator"))
        if not stack.data.any(axis=(0, 1)).all():
            raise ValueError("zero generator")
        if depth < 0:
            raise ValueError("depth must be >= 0")
        self.stack, self.depth = stack, depth

    @property
    def n(self):
        return self.stack.n

    @property
    def generators(self):
        return _loops(self.stack)


def _shifted_stack(stack, depth):
    """The BandStack of z^p g_j, 0 <= p <= depth, in column p * m + j, for
    the m columns g_j of `stack`, each shift written into one array."""
    width, n, m = stack.data.shape
    data = np.zeros((width + depth, n, m * (depth + 1)), dtype=complex)
    for p in range(depth + 1):
        data[p:p + width, :, p * m:(p + 1) * m] = stack.data
    return stack._replace(data=data)


def orthonormalize(vectors):
    """Orthonormal frame of the span of a list of loops or of a BandStack's
    columns: Householder QR of the (width * n, m) matrix with R's diagonal
    made real and positive, so column j is vector j's residual against the
    vectors kept before it, normalized, as in Gram-Schmidt.  The first
    vector with |R_jj| <= DROP_TOL is dropped and the rest factored again
    (past it the R_jj measure no residuals); vectors past the row count
    have no R_jj and are dependent.  ValueError when nothing survives.
    """
    stack = _as_stack(vectors, "vector")
    width, n, m = stack.data.shape
    A, keep = stack.data.reshape(width * n, m), np.arange(m)
    while keep.size:
        Q, R = np.linalg.qr(A[:, keep])
        d = np.diagonal(R)
        small = np.flatnonzero(~(np.abs(d) > DROP_TOL))
        if not small.size:
            return SubspaceFrame(stack.n, stack._replace(
                data=(Q * (d / np.abs(d))).reshape(width, n, -1)))
        keep = np.delete(keep, small[0])
    raise ValueError("all input vectors are zero (or dependent to DROP_TOL)")


def expand_filtration(f, depth=None):
    """Orthonormal frame for span{ z^p g_j : 0 <= p <= depth }, of
    dimension n_gen * (depth + 1) for n_gen generators.

    One QR of the shifted family gives the frame, as in `orthonormalize`,
    and decides its rank: RankDeficiency unless sigma_min(R)^2, the least
    Gram eigenvalue, exceeds FILTRATION_SV_TOL (then every |R_jj| >
    DROP_TOL).  Before the family is built, a band wider than
    MAX_BAND_WIDTH or a family of more than FILTRATION_MAX_ENTRIES entries
    raises ValueError, and one of more members than rows RankDeficiency.
    """
    P = f.depth if depth is None else depth
    kmin, (base, n, m_gen) = f.stack.kmin, f.stack.data.shape
    width, m = base + P, m_gen * (P + 1)
    _check_band(kmin, width)
    if width * n * m > FILTRATION_MAX_ENTRIES:
        raise ValueError(
            f"the depth-{P} shifted family has {m} members of {width * n} "
            f"entries each, more than {FILTRATION_MAX_ENTRIES} in all")
    if m > width * n:
        raise RankDeficiency(
            f"shifted generator family is rank deficient ({m} members in "
            f"{width * n} rows)")
    stack = _shifted_stack(f.stack, P)
    Q, R = np.linalg.qr(stack.data.reshape(width * n, m))
    smin = np.linalg.svd(R, compute_uv=False)[-1] ** 2
    if not (smin > FILTRATION_SV_TOL):
        raise RankDeficiency(
            f"shifted generator family is rank deficient "
            f"(smallest Gram singular value {smin:.3e})")
    d = np.diagonal(R)
    return SubspaceFrame(stack.n, stack._replace(
        data=(Q * (d / np.abs(d))).reshape(width, n, m)))


def _leading_frame(frame, dim):
    """The first `dim` columns of a filtration's depth-(P+1) frame, its
    top block (0 there) dropped: the depth-P frame for dim = n_gen * (P+1),
    as the first k columns of a Householder Q depend only on the first k
    of A (Golub & Van Loan 5.2).  Copied: a strided view rounds later
    products differently."""
    stack = frame.stack
    return SubspaceFrame(stack.n, stack._replace(
        data=np.ascontiguousarray(stack.data[:-1, :, :dim])))


def intersect_shift_complement(W):
    """Orthonormal frame for W cap (zW)^perp, or None when it is trivial.

    With w_i the frame columns, a member u = sum_j x_j w_j of W is
    orthogonal to zW exactly when M x = 0 for the cross-Gram
    M[i, j] = <z w_i, w_j>.  The SVD nullspace of M (cutoff 1e-9, absolute
    as ||M|| <= 1; a relative one is roundoff where M is, as at depth 0)
    therefore gives coefficient combinations; since the w_j are
    orthonormal, orthonormal nullspace vectors produce an orthonormal
    frame directly.
    """
    stack = W.stack
    M = cross_gram(stack._replace(kmin=stack.kmin + 1), stack)  # z w_i
    _, s, Vh = np.linalg.svd(M)
    rank = int(np.sum(s > 1e-9))
    if rank == W.dim:
        return None
    null_vecs = Vh[rank:].conj()  # rows x with M x = 0
    return SubspaceFrame(W.n, stack._replace(data=stack.data @ null_vecs.T))


def principal_angles(A, B):
    """Cosines of the principal angles between two frames, descending.

    Singular values of the cross-Gram, clipped into [0, 1] to absorb
    roundoff at the endpoints.
    """
    s = np.linalg.svd(cross_gram(A.stack, B.stack), compute_uv=False)
    return np.clip(s, 0.0, 1.0)


def project_onto(frame, a):
    """Orthogonal projection of the loop `a` onto span(frame)."""
    stack = frame.stack
    weights = inner_product(stack, a)  # <w_i, a>
    return TruncatedLoop.from_band(a.n, stack.kmin, stack.data @ weights)


def _residual_norms(frame, stack):
    """Norm of the part of each column of a BandStack outside span(frame)."""
    B = frame.stack
    lo = min(B.kmin, stack.kmin)
    resid = np.zeros((max(B.kmin + len(B.data), stack.kmin + len(stack.data))
                      - lo,) + stack.data.shape[1:], dtype=complex)
    resid[stack.kmin - lo:][:len(stack.data)] = stack.data
    resid[B.kmin - lo:][:len(B.data)] -= B.data @ inner_product(B, stack)
    return np.linalg.norm(resid.reshape(-1, resid.shape[2]), axis=0)


def frame_to_dict(fr):
    return {"n": fr.n, "columns": [loop_to_dict(c) for c in fr.columns]}


def _stack_loop_dicts(loops):
    """BandStack of a nonempty list of loop_to_dict dicts sharing one n,
    read in one pass."""
    if not loops:
        raise ValueError("need at least one loop")
    n = _integer(loops[0]["n"], "n")
    if any(_integer(a["n"], "n") != n for a in loops):
        raise ValueError("loop dimension mismatch")
    return BandStack(n, *_bands_from_pairs([a["coeffs"] for a in loops], n, 1))


def frame_from_dict(d):
    """Inverse of frame_to_dict; the columns are read straight into the
    frame's stack."""
    return SubspaceFrame(_integer(d["n"], "n"),
                         _stack_loop_dicts(d["columns"]))


def filtration_to_dict(f):
    return {
        "generators": [loop_to_dict(g) for g in f.generators],
        "depth": int(f.depth),
    }


def filtration_from_dict(d):
    """Inverse of filtration_to_dict; the generators are read straight into
    the window's stack."""
    return FiltrationSubspace(_stack_loop_dicts(d["generators"]),
                              _integer(d["depth"], "depth"))
