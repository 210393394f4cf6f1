"""Matrix-valued loops with pointwise-unitary values.

A LoopGroupElement is a trigonometric polynomial gamma(theta) =
sum_k A_k e^{ik theta} with n x n matrix coefficients whose values on the
circle are unitary (to tolerance).  Products and applications to vector
loops are exact coefficient convolutions, so the group operations never
truncate; unitarity defects only ever come from the inputs.

The central constructor is loop_from_subspace, which rebuilds the loop
gamma from the subspace W = gamma . (truncated nonnegative-frequency
space): the columns of gamma are an orthonormal basis of W cap (zW)^perp,
and pointwise unitarity of the result certifies the construction; each
loop computes that certificate once, on the grid of one rule,
`_first_grid`.  The determinant winding is read from the coefficients of a
certified loop (`det_winding`) and samples no grid of its own.
"""

import math
from functools import cached_property

import numpy as np

from .errors import IntersectionDimension, PhaseStepTooLarge, UnitarityViolation
from .fourier import (BandStack, TruncatedLoop, _BandedLoop, _bands_from_pairs,
                      _blocks_to_pairs, _convolve, _integer)
from .subspaces import (FiltrationSubspace, expand_filtration,
                        intersect_shift_complement)

__all__ = [
    "LoopGroupElement",
    "identity_element",
    "constant_element",
    "diag_zpowers",
    "multiply",
    "inverse",
    "apply",
    "unitarity_defect",
    "theta_variation",
    "det_winding",
    "random_loop",
    "window_frame",
    "loop_from_subspace",
    "element_to_dict",
    "element_from_dict",
]

UNITARITY_TOL = 1e-8         # every unitarity check of the package
CERTIFICATE_START_GRID = 256    # least grid of a certificate
CERTIFICATE_MAX_GRID = 2 ** 16  # largest grid of a certificate
CANONICAL_SV_TOL = 1e-8      # least singular value of an invertible block
RANDOM_LOOP_SCALE = 0.8      # random_loop's generator amplitude
RANDOM_LOOP_GRID = 512       # random_loop's exponentiation grid
POLAR_MAX_STEPS = 8          # Newton-Schulz steps before _polar takes the SVD
# _polar's converged defect: a computed n x n unitary keeps ||X^H X - I||
# below n * POLAR_ROUNDOFF (over 2e4 Haar matrices for each n = 1..8, the
# largest was 1 eps at n = 1 and under 4 eps at n = 8)
POLAR_ROUNDOFF = 4.0 * np.finfo(float).eps
MATMUL_ENTRYWISE_MAX = 3     # largest block _matmul builds entry by entry
MATMUL_BROADCAST_MAX = 1024  # longest stack _matmul builds in one broadcast


class LoopGroupElement(_BandedLoop):
    """Matrix-coefficient loop sum_k A_k e^{ik theta} as a dense band: data
    has shape (width, n, n); `mcoeffs` is a read-only {k: A_k} view of the
    nonzero A_k."""

    _block_ndim = 2
    mcoeffs = property(_BandedLoop._nonzero_blocks)

    @cached_property
    def _certificate(self):
        """unitarity_defect's (defect, theta), kept: data is read-only."""
        N, S = _certificate_samples(self)
        defect, i = _stack_defect(S)
        return defect, 2.0 * np.pi * i / N

    def column(self, j):
        """Column j as a TruncatedLoop (gamma(theta) e_j)."""
        return TruncatedLoop.from_band(self.n, self.kmin, self.data[:, :, j])


def identity_element(n):
    return LoopGroupElement(n, {0: np.eye(n, dtype=complex)})


def constant_element(U):
    U = np.asarray(U, dtype=complex)
    return LoopGroupElement(U.shape[0], {0: U})


def diag_zpowers(powers):
    """diag(z^{p_1}, ..., z^{p_n}) as a LoopGroupElement."""
    n = len(powers)
    mc = {}
    for j, p in enumerate(powers):
        A = mc.setdefault(int(p), np.zeros((n, n), dtype=complex))
        A[j, j] = 1.0
    return LoopGroupElement(n, mc)


def multiply(g, h):
    """Pointwise product gamma(theta) eta(theta); coefficients convolve."""
    if g.n != h.n:
        raise ValueError("dimension mismatch")
    return LoopGroupElement.from_band(
        g.n, *_convolve(g.kmin, g.data, h.kmin, h.data))


def inverse(g):
    """Pointwise inverse, which for unitary values is gamma(theta)^H.

    Coefficientwise: the inverse has coefficients A_{-k}^H.
    """
    return LoopGroupElement.from_band(
        g.n, -g.band[1], np.swapaxes(g.data[::-1].conj(), -1, -2))


def apply(g, a):
    """The vector loop gamma(theta) a(theta) by matrix-vector convolution."""
    if g.n != a.n:
        raise ValueError("dimension mismatch")
    kmin, out = _convolve(g.kmin, g.data, a.kmin, a.data[..., None])
    return TruncatedLoop.from_band(a.n, kmin, out[..., 0])


def _first_grid(g, need):
    """The grid of a check on g's samples: the least power of two >=
    max(CERTIFICATE_START_GRID, need).  PhaseStepTooLarge, naming g's band,
    past CERTIFICATE_MAX_GRID."""
    N = 1 << (max(CERTIFICATE_START_GRID, need) - 1).bit_length()
    if N > CERTIFICATE_MAX_GRID:
        kmin, kmax = g.band
        raise PhaseStepTooLarge(f"band [{kmin}, {kmax}] needs a certificate "
                                f"grid of {N}, beyond {CERTIFICATE_MAX_GRID}")
    return N


def _certificate_samples(g):
    """(N, grid values) on the certificate grid, need max(4 (kmax - kmin),
    max |k| + 1).  gamma^H gamma - I reaches frequency kmax - kmin, and four
    samples per period of it keep a defect from hiding between grid points;
    above every |k|, no nonzero frequency (as of z^256 U) folds onto the
    grid mean."""
    kmin, kmax = g.band
    N = _first_grid(g, max(4 * (kmax - kmin), abs(kmin) + 1, abs(kmax) + 1))
    return N, g.grid_samples(N)


def _entry_major(S):
    """A contiguous copy of a stack of (n, m) blocks, shape (..., n, m),
    laid out entry-major, shape (n, m, ...): entry S[i, j] is one
    contiguous array over the stack.  Every stacked kernel below but
    `_stack_defect` takes and returns this layout; a single (n, m) matrix
    is both layouts at once."""
    return np.ascontiguousarray(np.moveaxis(S, (-2, -1), (0, 1)))


def _block_major(S):
    """The (..., n, m) stack of an entry-major (n, m, ...) stack, as a
    contiguous copy: the inverse of `_entry_major`."""
    return np.ascontiguousarray(np.moveaxis(S, (0, 1), (-2, -1)))


def _matmul(A, B):
    """A @ B for entry-major stacks of (n, m) and (m, p) blocks, of shapes
    (n, m, ...) and (m, p, ...), their batch axes broadcast.

    np.matmul makes one BLAS call per block, which dominates for the small
    blocks of transport.  Blocks no larger than MATMUL_ENTRYWISE_MAX are
    instead built from products of contiguous arrays over the whole stack,
    adding A[i, 0] B[0, k] and then A[i, j] B[j, k] for j = 1..m-1 in turn
    into out[i, k].  On 4096 complex n x n blocks (2-vCPU Xeon, OpenBLAS
    0.3.31 on one thread) entry by entry takes, against np.matmul on the
    same blocks laid out as a C-ordered (4096, n, n) array,

        n           1      2      3      4      5      6      7      8
        entrywise  0.005  0.04   0.15   0.42   1.0    1.9    2.8    4.3  ms
        matmul     0.018  1.0    1.2    1.3    2.0    1.8    2.4    1.8  ms

    (single runs on a shared host, which differ by up to a third from run
    to run).  Larger blocks go to np.matmul through a block-major copy.
    Entry by entry would still win at n = 4 and 5, but np.matmul keeps the
    bits those blocks have always had.

    Within MATMUL_ENTRYWISE_MAX there are two ways, which add the same
    products in the same order and so give the same bits:

      * a stack of at most MATMUL_BROADCAST_MAX blocks (the product of the
        broadcast batch shape: the upper levels of the scan and of the tree
        product, the polars of tree roots) takes one broadcast product of
        A's column j and B's row j per inner index, 2m - 1 numpy calls in
        all, where entry by entry would pay numpy's per-call dispatch, not
        arithmetic, n p (2m - 1) times (12 calls at n = 2, 45 at n = 3).
        Both operands first get the same number of batch axes;
      * a longer stack (a whole frame, a refinement) is built entry by
        entry, whose temporaries are one entry long: there the broadcast's
        temporaries the size of the whole product cost more than the calls
        they save.

    Against the entry loop at every length, a cutoff of 256, 1024, 2048
    or 4096 blocks changed the median transport-nonabelian iteration by
    -1.2%, -1.0%, +8.1% or +3.8% (in-process, interleaved over 150 rounds
    on a noisy 2-vCPU host), and the broadcast at every length made it
    2.5-4.9% slower in three of three benchmark pairs.  Each block of the
    result depends only on its own operands and gets the bits it gets in
    any stack (the entry loop never sees a one-block stack, on whose single
    elements numpy may round a complex product without its vector loop's
    fused multiply-add), and NaN and inf propagate.
    """
    (n, m), p = A.shape[:2], B.shape[1]
    if B.shape[0] != m:
        raise ValueError(f"cannot multiply ({n}, {m}) blocks by "
                         f"{B.shape[:2]} blocks")
    if not 1 <= m <= MATMUL_ENTRYWISE_MAX or max(n, p) > MATMUL_ENTRYWISE_MAX:
        return _entry_major(np.matmul(_block_major(A), _block_major(B)))
    batch = A.shape[2:]
    if batch != B.shape[2:]:
        batch = np.broadcast_shapes(batch, B.shape[2:])
    if math.prod(batch) <= MATMUL_BROADCAST_MAX:
        if A.ndim != B.ndim:
            k = len(batch) + 2
            A = A.reshape(A.shape[:2] + (1,) * (k - A.ndim) + A.shape[2:])
            B = B.reshape(B.shape[:2] + (1,) * (k - B.ndim) + B.shape[2:])
        out = A[:, 0, None] * B[None, 0]
        for j in range(1, m):
            out += A[:, j, None] * B[None, j]
        return out
    out = np.empty((n, p) + batch, dtype=np.result_type(A, B))
    for i in range(n):
        for k in range(p):
            entry = out[i, k, ...]
            np.multiply(A[i, 0], B[0, k], out=entry)
            for j in range(1, m):
                entry += A[i, j] * B[j, k]
    return out


def _fro_norms(S):
    """The Frobenius norm of every block of an entry-major stack, bit for
    bit np.linalg.norm(axis=(-2, -1)) of the same blocks laid out as a
    C-ordered (..., n, m) stack.

    NumPy adds fewer than eight contiguous terms one at a time, so a block
    of fewer than 8 entries sums its squares |S_ij|^2 over the entry axis
    in row-major order, one contiguous array over the stack per entry;
    larger blocks go to np.linalg.norm through a block-major copy.
    Overflow and NaN give inf and NaN as there.
    """
    n, m = S.shape[:2]
    if n * m >= 8:
        return np.linalg.norm(_block_major(S), axis=(-2, -1))
    squares = (S.conj() * S).real
    return np.sqrt(squares.reshape((n * m,) + S.shape[2:]).sum(axis=0))


def _adjoint(S):
    """The conjugate transpose of every block of an entry-major stack."""
    return np.swapaxes(S.conj(), 0, 1)


def _gram_defects(S):
    """(S_t^H S_t, ||S_t^H S_t - I||) for every matrix S_t of an entry-major
    stack (n, n, T); the defect is inf or NaN, without a warning, where
    S_t^H S_t overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        G = _matmul(_adjoint(S), S)
        return G, _fro_norms(G - np.eye(S.shape[1])[:, :, None])


def _polar(S):
    """Closest unitary to each matrix of an entry-major stack (n, n, ...),
    its unitary polar factor.

    Newton-Schulz: X <- X + X (I - X^H X) / 2, which converges quadratically
    to the polar factor while ||X^H X - I|| < 1 (Higham, Functions of
    Matrices, ch. 8).  Every matrix takes at least one step and stops once
    its own defect is at roundoff; a matrix whose starting defect is not
    below 1 (or not finite), or that has not converged within
    POLAR_MAX_STEPS, takes the SVD U V^H instead.  Each result depends on
    its own matrix alone, not on the rest of the stack.
    """
    shape = np.shape(S)
    S = np.asarray(S, dtype=complex).reshape(shape[:2] + (-1,))
    n = shape[1]
    I = np.eye(n)[:, :, None]
    X = S.copy()
    G, defect = _gram_defects(X)
    svd = ~(defect < 1.0)
    todo = np.flatnonzero(~svd)
    for _ in range(POLAR_MAX_STEPS):
        if todo.size == X.shape[-1]:  # no matrix has stopped: no gather
            X += _matmul(X, 0.5 * (I - G))
            G, defect = _gram_defects(X)
        else:
            Y = X[..., todo]
            Y += _matmul(Y, 0.5 * (I - G[..., todo]))
            X[..., todo] = Y
            G[..., todo], defect = _gram_defects(Y)
        todo = todo[~(defect <= n * POLAR_ROUNDOFF)]
        if not todo.size:
            break
    svd[todo] = True
    if svd.any():
        U, _, Vh = np.linalg.svd(_block_major(S[..., svd]))
        X[..., svd] = _entry_major(U @ Vh)
    return X.reshape(shape)


def _stack_defect(S):
    """(max over t of ||S_t^H S_t - I||, the first t attaining it) for a
    stack S of square matrices, shape (T, n, n); a NaN defect is the max."""
    D = _gram_defects(_entry_major(S))[1]
    i = int(np.argmax(D))
    return float(D[i]), i


def unitarity_defect(g):
    """(max Frobenius defect ||gamma^H gamma - I|| on the certificate grid,
    theta at the max), computed once per loop and kept (`_certificate`)."""
    return g._certificate


def _certified(g):
    """g, once its certificate shows it unitary to UNITARITY_TOL;
    UnitarityViolation at the theta of the largest defect otherwise."""
    defect, theta = unitarity_defect(g)
    if not (defect <= UNITARITY_TOL):
        raise UnitarityViolation(defect, theta)
    return g


def det_winding(g):
    """Winding number of theta -> det gamma(theta), read from the band of a
    loop certified unitary (UnitarityViolation otherwise).

    For unitary values d log det gamma = tr(gamma^H gamma') dtheta, so by
    Parseval the winding is s = sum_k k ||A_k||_F^2, rounded to w; no grid
    is sampled.  A certified loop is unitary only to within the supremum
    delta_sup of its defect: w - s = (1/2 pi i) oint tr((gamma^-1 -
    gamma^H) gamma') dtheta with gamma^-1 - gamma^H = -gamma^-1 (gamma
    gamma^H - I), so Cauchy-Schwarz and Parseval give |w - s| <= delta_sup
    / sqrt(1 - delta_sup) * sqrt(sum_k k^2 ||A_k||_F^2).  The certificate
    delta is a maximum over at least 4 (kmax - kmin) points, so delta_sup
    <= sqrt(2) delta (Ehlich and Zeller, Math. Z. 86, 1964), and the bound
    is below 2 delta sqrt(sum_k k^2 ||A_k||_F^2) for every delta <= 0.3.
    PhaseStepTooLarge unless |s - w| plus that bound is below 1/2.
    """
    delta = unitarity_defect(_certified(g))[0]
    k = g.kmin + np.arange(len(g.data), dtype=float)
    power = (g.data.conj() * g.data).real.sum(axis=(1, 2))  # ||A_k||_F^2
    s = float(k @ power)
    w = round(s)
    slack = abs(s - w) + 2.0 * delta * math.sqrt(float(k * k @ power))
    if not (slack < 0.5):
        kmin, kmax = g.band
        raise PhaseStepTooLarge(
            f"band [{kmin}, {kmax}] gives a determinant winding of {s:.6g} "
            f"turns, too far from a whole number: slack {slack:.3g}")
    return w


def theta_variation(g):
    """Max Frobenius deviation of gamma(theta) from its mean on the
    certificate grid of unitarity_defect.  That grid lies above every |k|
    of the band, so no nonzero frequency folds onto the mean.

    Returns (variation, mean_matrix).  Zero exactly when the loop is a
    constant matrix; used to certify theta-independence.
    """
    _, S = _certificate_samples(g)
    mean = S.mean(axis=0)
    var = float(np.linalg.norm(S - mean, axis=(1, 2)).max())
    return var, mean


def random_loop(n, band, seed):
    """A reproducible random element of the unitary loop group.

    Draws an anti-Hermitian trigonometric polynomial X with generator band
    [-band, band], exponentiates it pointwise on a RANDOM_LOOP_GRID-point
    circle, truncates the resulting Fourier tail, and re-unitarizes the
    truncated samples by polar projection.  The returned element carries the
    (fast decaying) band of the projected samples, so `band` controls how
    wiggly the loop is rather than the literal final band.
    """
    if band < 1:
        raise ValueError("band must be >= 1")
    rng = np.random.default_rng(seed)
    scale, grid = RANDOM_LOOP_SCALE, RANDOM_LOOP_GRID

    def draw():
        return (rng.standard_normal((n, n))
                + 1j * rng.standard_normal((n, n)))

    C0 = draw()
    xco = {0: scale * 0.5 * (C0 - C0.conj().T)}
    for k in range(1, band + 1):
        Ck = scale / (1 + k) * draw()
        xco[k] = Ck
        xco[-k] = -Ck.conj().T

    # evaluate X on the grid, then exp(X) = U e^{i lam} U^H with H = -iX
    X = LoopGroupElement(n, xco).grid_samples(grid)
    lam, U = np.linalg.eigh(-1j * X)
    S = np.einsum("tij,tj,tkj->tik", U, np.exp(1j * lam), U.conj())

    spec = np.fft.fft(S, axis=0) / grid
    mags = np.linalg.norm(spec, axis=(1, 2))
    spec[mags <= 1e-11 * mags.max()] = 0.0
    S_trunc = np.fft.ifft(spec, axis=0) * grid

    S_fixed = _block_major(_polar(_entry_major(S_trunc)))
    spec2 = np.fft.fft(S_fixed, axis=0) / grid
    mags2 = np.linalg.norm(spec2, axis=(1, 2))
    spec2[mags2 <= 1e-14 * mags2.max()] = 0.0
    return _certified(LoopGroupElement._from_spectrum(spec2))


def _canonical_basis_rotation(kmin, blocks):
    """Constant unitary fixing the intersection basis ambiguity.

    Right-multiplying all blocks by X makes the lowest-frequency invertible
    block Hermitian positive definite, so e.g. the standard nonnegative
    window reproduces the identity loop exactly rather than an arbitrary
    constant rotation of it.  Loops with no invertible block (such as
    diag(1, z)) are left untouched.
    """
    ks = range(kmin, kmin + len(blocks))
    for k in sorted(ks, key=lambda k: (abs(k), k)):
        U, sv, Vh = np.linalg.svd(blocks[k - kmin])
        if sv[-1] > CANONICAL_SV_TOL:
            return Vh.conj().T @ U.conj().T
    return np.eye(blocks.shape[1], dtype=complex)


def window_frame(g, depth):
    """Orthonormal frame of the window g . span{z^p e_j : 0 <= p <= depth},
    the subspace `loop_from_subspace` rebuilds g from, rank-checked."""
    return expand_filtration(FiltrationSubspace(
        BandStack(g.n, g.kmin, g.data), depth))


def loop_from_subspace(W):
    """Rebuild the unitary loop whose shifted column span is W.

    W must be an orthonormal frame for gamma . span{ z^p e_j : 0 <= p <= P }.
    The intersection W cap (zW)^perp is computed; its dimension must be
    exactly n (else IntersectionDimension).  Its orthonormal basis loops
    w_1..w_n become the columns of gamma, i.e. the k-th Fourier coefficient
    of w_j is column j of A_k, so gamma(theta) e_j = w_j(theta).  Pointwise
    unitarity to UNITARITY_TOL on the band-sized grid of unitarity_defect
    certifies the result (UnitarityViolation otherwise); it is equivalent
    to the w_j forming orthonormal frames of the values for every theta.

    The basis of the intersection is only defined up to a constant unitary;
    it is canonicalized so the lowest-frequency invertible coefficient
    block comes out Hermitian positive definite.
    """
    inter = intersect_shift_complement(W)
    d = 0 if inter is None else inter.dim
    if d != W.n:
        raise IntersectionDimension(d, W.n)
    stack = inter.stack  # column j of A_k is w_j's c_k
    blocks = stack.data @ _canonical_basis_rotation(stack.kmin, stack.data)
    return _certified(LoopGroupElement.from_band(W.n, stack.kmin, blocks))


def element_to_dict(g):
    """JSON-ready dict {"n": n, "mcoeffs": {"k": [[[re, im] x n] x n]}}."""
    return {"n": g.n, "mcoeffs": _blocks_to_pairs(g)}


def element_from_dict(d):
    """Inverse of element_to_dict; ValueError unless n is an integer and
    every coefficient a finite JSON number, or on a band wider than
    fourier.MAX_BAND_WIDTH."""
    n = _integer(d["n"], "n")
    kmin, data = _bands_from_pairs([d["mcoeffs"]], n, 2)
    return LoopGroupElement.from_band(n, kmin, data[..., 0])
