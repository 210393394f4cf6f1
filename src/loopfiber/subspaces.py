"""Finite-dimensional subspaces of truncated loop space.

Frames are lists of orthonormal TruncatedLoops.  Internally the columns of
a frame are padded into one common frequency band, so Gram matrices and
rank decisions reduce to dense linear algebra on small matrices.  Padding
is an isometry for the Parseval pairing.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import RankDeficiency
from .fourier import (TruncatedLoop, inner_product, loop_from_dict,
                      loop_to_dict, shift, stack_columns, union_band)

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
DROP_TOL = 1e-10          # Gram-Schmidt residual drop threshold
FILTRATION_SV_TOL = 1e-8  # smallest admissible Gram singular value


def stack_loops(loops, band=None):
    """Flatten loops to rows of a matrix over a common band.

    Row layout: coefficient vectors concatenated frequency by frequency,
    so the Euclidean pairing of rows equals the loop inner product.
    """
    data = stack_columns(loops, band).data
    return data.transpose(2, 0, 1).reshape(len(loops), -1)


def unstack_rows(rows, band, n):
    """Inverse of stack_loops for each row."""
    return [TruncatedLoop.from_band(n, band[0], row.reshape(-1, n))
            for row in np.atleast_2d(rows)]


def cross_gram(A, B):
    """Matrix of pairings G[i, j] = <A[i], B[j]> (conjugate-linear in A)."""
    return inner_product(stack_columns(A), stack_columns(B))


@dataclass(frozen=True, eq=False)
class SubspaceFrame:
    """An orthonormal frame spanning a subspace of truncated loop space.

    Invariant: the Gram matrix of `columns` is the identity to 1e-10.
    """

    n: int
    columns: list = field(default_factory=list)

    def __post_init__(self):
        if not self.columns:
            raise ValueError("frame needs at least one column")
        if any(c.n != self.n for c in self.columns):
            raise ValueError("column dimension mismatch")
        G = cross_gram(self.columns, self.columns)
        defect = np.abs(G - np.eye(len(self.columns))).max()
        if not (defect <= GRAM_TOL):
            raise ValueError(
                f"frame is not orthonormal (Gram defect {defect:.3e})")

    @property
    def dim(self):
        return len(self.columns)

    @property
    def band(self):
        return union_band(self.columns)


@dataclass(frozen=True, eq=False)
class FiltrationSubspace:
    """Generators g_1..g_n together with a shift depth P.

    Stands for span{ z^p g_j : 0 <= p <= P, 1 <= j <= n }, the finite
    shift-filtration window used to approximate a z-stable subspace.
    The full-rank condition on the shifted family is enforced lazily by
    expand_filtration, which is where a depth is actually consumed.
    """

    generators: list
    depth: int

    def __post_init__(self):
        if not self.generators:
            raise ValueError("need at least one generator")
        n = self.generators[0].n
        if any(g.n != n for g in self.generators):
            raise ValueError("generator dimension mismatch")
        if any(g.is_zero for g in self.generators):
            raise ValueError("zero generator")
        if self.depth < 0:
            raise ValueError("depth must be >= 0")

    @property
    def n(self):
        return self.generators[0].n


def orthonormalize(vectors):
    """Orthonormalize loops by modified Gram-Schmidt with reorthogonalization.

    Vectors whose residual after projection falls below DROP_TOL are
    dropped, so the returned frame's dimension is the retained rank.
    Raises ValueError when nothing survives (all-zero input).
    """
    if not vectors:
        raise ValueError("empty input")
    band = union_band(vectors)
    rows = stack_loops(vectors, band)
    kept = []
    for row in rows:
        w = row.copy()
        for _ in range(2):  # second pass mops up cancellation error
            for q in kept:
                w -= q * np.vdot(q, w)
        r = np.linalg.norm(w)
        if r > DROP_TOL:
            kept.append(w / r)
    if not kept:
        raise ValueError(
            "all input vectors are zero (or dependent to DROP_TOL)")
    n = vectors[0].n
    return SubspaceFrame(n, unstack_rows(np.array(kept), band, n))


def expand_filtration(f, depth=None):
    """Orthonormal frame for span{ z^p g_j : 0 <= p <= depth }.

    Validates the filtration invariant first: the Gram matrix of the raw
    shifted family must have smallest singular value above 1e-8, otherwise
    RankDeficiency is raised.  The resulting frame has dimension
    n_gen * (depth + 1) where n_gen = number of generators.
    """
    P = f.depth if depth is None else depth
    shifted = [shift(g, p) for p in range(P + 1) for g in f.generators]
    G = cross_gram(shifted, shifted)
    smin = np.linalg.eigvalsh(G)[0]
    if not (smin > FILTRATION_SV_TOL):
        raise RankDeficiency(
            f"shifted generator family is rank deficient "
            f"(smallest Gram singular value {smin:.3e})")
    frame = orthonormalize(shifted)
    expected = len(f.generators) * (P + 1)
    if frame.dim != expected:
        raise RankDeficiency(
            f"retained rank {frame.dim}, expected {expected}")
    return frame


def intersect_shift_complement(W):
    """Orthonormal frame for W cap (zW)^perp, or None when it is trivial.

    With w_i the frame columns, a member u = sum_j x_j w_j of W is
    orthogonal to zW exactly when M x = 0 for the cross-Gram
    M[i, j] = <z w_i, w_j>.  The SVD nullspace of M (relative cutoff
    1e-9 * sigma_max) therefore gives coefficient combinations; since the
    w_j are orthonormal, orthonormal nullspace vectors produce an
    orthonormal frame directly.
    """
    cols = W.columns
    stack = stack_columns(cols)
    M = inner_product(stack._replace(kmin=stack.kmin + 1), stack)  # z w_i
    _, s, Vh = np.linalg.svd(M)
    cutoff = 1e-9 * s[0] if s.size and s[0] > 0 else 0.0
    rank = int(np.sum(s > cutoff))
    if rank == len(cols):
        return None
    null_vecs = Vh[rank:].conj()  # rows x with M x = 0
    combo = null_vecs @ stack_loops(cols)
    return SubspaceFrame(W.n, unstack_rows(combo, W.band, W.n))


def principal_angles(A, B):
    """Cosines of the principal angles between two frames, descending.

    Singular values of the cross-Gram, clipped into [0, 1] to absorb
    roundoff at the endpoints.
    """
    G = cross_gram(A.columns, B.columns)
    s = np.linalg.svd(G, compute_uv=False)
    return np.clip(s, 0.0, 1.0)


def project_onto(frame, a):
    """Orthogonal projection of the loop `a` onto span(frame)."""
    stack = stack_columns(frame.columns)
    weights = inner_product(stack, a)  # <w_i, a>
    return TruncatedLoop.from_band(a.n, stack.kmin, stack.data @ weights)


def frame_to_dict(fr):
    return {"n": fr.n, "columns": [loop_to_dict(c) for c in fr.columns]}


def frame_from_dict(d):
    return SubspaceFrame(int(d["n"]), [loop_from_dict(c) for c in d["columns"]])


def filtration_to_dict(f):
    return {
        "generators": [loop_to_dict(g) for g in f.generators],
        "depth": int(f.depth),
    }


def filtration_from_dict(d):
    return FiltrationSubspace(
        [loop_from_dict(g) for g in d["generators"]], int(d["depth"]))
