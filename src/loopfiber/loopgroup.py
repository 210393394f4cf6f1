"""Matrix-valued loops with pointwise-unitary values.

A LoopGroupElement is a trigonometric polynomial gamma(theta) =
sum_k A_k e^{ik theta} with n x n matrix coefficients whose values on the
circle are unitary (to tolerance).  Products and applications to vector
loops are exact coefficient convolutions, so the group operations never
truncate; unitarity defects only ever come from the inputs.

The central constructor is loop_from_subspace, which rebuilds the loop
gamma from the subspace W = gamma . (truncated nonnegative-frequency
space): the columns of gamma are an orthonormal basis of W cap (zW)^perp,
and pointwise unitarity of the result certifies the construction.
"""

import numpy as np

from .errors import IntersectionDimension, PhaseStepTooLarge, UnitarityViolation
from .fourier import (BandStack, TruncatedLoop, _BandedLoop, _bands_from_pairs,
                      _blocks_to_pairs, _convolve, _integer)
from .subspaces import (_shifted_stack, intersect_shift_complement,
                        orthonormalize)

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

UNITARITY_TOL = 1e-8
WINDING_START_GRID = 256     # det_winding's first grid
WINDING_MAX_GRID = 2 ** 16   # det_winding's largest grid
CANONICAL_SV_TOL = 1e-8      # least singular value of an invertible block
RANDOM_LOOP_SCALE = 0.8      # random_loop's generator amplitude
RANDOM_LOOP_GRID = 512       # random_loop's exponentiation grid
POLAR_MAX_STEPS = 8          # Newton-Schulz steps before _polar takes the SVD
# _polar's converged defect: a computed n x n unitary keeps ||X^H X - I||
# below n * POLAR_ROUNDOFF (over 2e4 Haar matrices for each n = 1..8, the
# largest was 1 eps at n = 1 and under 4 eps at n = 8)
POLAR_ROUNDOFF = 4.0 * np.finfo(float).eps
MATMUL_ENTRYWISE_MAX = 3     # largest block _matmul builds entry by entry


class LoopGroupElement(_BandedLoop):
    """Matrix-coefficient loop sum_k A_k e^{ik theta} as a dense band: data
    has shape (width, n, n); `mcoeffs` is a read-only {k: A_k} view of the
    nonzero A_k."""

    _block_ndim = 2
    mcoeffs = property(_BandedLoop._nonzero_blocks)

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


def _certificate_samples(g):
    """(N, grid values) for N the least power of two >= max(256, 4 (kmax -
    kmin), max |k| + 1); PhaseStepTooLarge past WINDING_MAX_GRID.  gamma^H
    gamma - I reaches frequency kmax - kmin, and four samples per period of
    it keep a defect from hiding between grid points; above every |k|, no
    nonzero frequency (as of z^256 U) folds onto the grid mean."""
    kmin, kmax = g.band
    need = max(256, 4 * (kmax - kmin), abs(kmin) + 1, abs(kmax) + 1)
    N = 1 << (need - 1).bit_length()
    if N > WINDING_MAX_GRID:
        raise PhaseStepTooLarge(f"band [{kmin}, {kmax}] needs a certificate "
                                f"grid of {N}, beyond {WINDING_MAX_GRID}")
    return N, g.grid_samples(N)


def _entry_major(S):
    """A contiguous copy of a stack of (n, m) blocks, shape (..., n, m),
    laid out entry-major, shape (n, m, ...): entry S[i, j] is one
    contiguous array over the stack.  Every stacked kernel below takes and
    returns this layout; a single (n, m) matrix is both layouts at once."""
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
    instead built entry by entry: out[i, k] is A[i, 0] B[0, k] plus
    A[i, j] B[j, k] for j = 1..m-1 in turn, one product of two contiguous
    arrays over the whole stack per term.  On 4096 complex n x n blocks
    (2-vCPU Xeon, OpenBLAS 0.3.31 on one thread) it takes, against
    np.matmul on the same blocks laid out as a C-ordered (4096, n, n) array,

        n           1      2      3      4      5      6      7      8
        entrywise  0.005  0.04   0.15   0.42   1.0    1.9    2.8    4.3  ms
        matmul     0.018  1.0    1.2    1.3    2.0    1.8    2.4    1.8  ms

    (single runs on a shared host, which differ by up to a third from run
    to run).  Larger blocks go to np.matmul through a block-major copy.
    Entry by entry would still win at n = 4 and 5, but np.matmul keeps the
    bits those blocks have always had.  Both ways each block of the result
    depends only on its own operands, and NaN and inf propagate.
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
    """(max over t of ||S_t^H S_t - I||, the first t attaining it) for an
    entry-major stack S of square matrices, shape (n, n, T); a NaN defect
    is the max."""
    D = _gram_defects(S)[1]
    i = int(np.argmax(D))
    return float(D[i]), i


def _phase_winding(z, near_zero):
    """Turns of the phase along the closed path z[0], ..., z[-1] ~ z[0].

    Sums the phase steps between neighbours and rounds to whole turns, or
    returns None when a step is not below pi/2 (the grid is too coarse to
    tell the winding).  Raises PhaseStepTooLarge(near_zero) when some |z|
    is below 1e-8 or NaN, where the phase means nothing.
    """
    if not (np.abs(z).min() >= 1e-8):
        raise PhaseStepTooLarge(near_zero)
    steps = np.angle(z[1:] / z[:-1])
    if np.abs(steps).max() < np.pi / 2:
        return int(round(steps.sum() / (2.0 * np.pi)))
    return None


def _det(S):
    """The determinant of every matrix of an entry-major stack (n, n, ...).

    np.linalg.det makes one LAPACK LU call per matrix, which dominates for
    the small matrices of det_winding.  Up to MATMUL_ENTRYWISE_MAX the
    determinant is instead the closed-form cofactor expansion along the
    first row, a few products of contiguous arrays over the whole stack: on
    2048 3 x 3 complex matrices 0.07 ms against 0.51 ms (2-vCPU Xeon,
    OpenBLAS on one thread).  The two agree to roundoff, not bit for bit;
    larger n go to np.linalg.det.  NaN and inf propagate.
    """
    n = S.shape[0]
    if n > MATMUL_ENTRYWISE_MAX:
        return np.linalg.det(_block_major(S))
    if n == 1:
        return S[0, 0].copy()
    if n == 2:
        return S[0, 0] * S[1, 1] - S[0, 1] * S[1, 0]
    return (S[0, 0] * (S[1, 1] * S[2, 2] - S[1, 2] * S[2, 1])
            - S[0, 1] * (S[1, 0] * S[2, 2] - S[1, 2] * S[2, 0])
            + S[0, 2] * (S[1, 0] * S[2, 1] - S[1, 1] * S[2, 0]))


def unitarity_defect(g):
    """Max Frobenius defect ||gamma^H gamma - I|| over a grid sized by the band.

    Returns (defect, theta_at_max).
    """
    N, S = _certificate_samples(g)
    defect, i = _stack_defect(_entry_major(S))
    return defect, 2.0 * np.pi * i / N


def det_winding(g):
    """Winding number of theta -> det gamma(theta) by phase accumulation.

    The grid doubles until every successive phase step is below pi/2;
    PhaseStepTooLarge is raised past WINDING_MAX_GRID, or when |det| falls
    below 1e-8 (impossible for genuinely unitary values, so it signals a
    corrupt input rather than insufficient resolution).

    The start grid is sized from the frequency band: a near-unitary
    determinant is close to a unimodular monomial c z^w with |w| bounded
    by n * max|k|, so sampling 8x faster than that rules out phase
    aliasing that the step criterion alone cannot detect.  The grid
    determinants are closed-form cofactor expansions up to n = 3 (`_det`).
    """
    kmin, kmax = g.band
    speed = g.n * max(abs(kmin), abs(kmax), 1)
    N = WINDING_START_GRID
    while N < 8 * speed:
        N *= 2
        if N > WINDING_MAX_GRID:
            raise PhaseStepTooLarge(f"band implies phase speed ~{speed}, "
                                    f"beyond grid {WINDING_MAX_GRID}")
    while True:
        d = _det(_entry_major(g.grid_samples(N)))
        winding = _phase_winding(
            np.append(d, d[:1]),
            "determinant passes near zero; input is not a unitary loop")
        if winding is not None:
            return winding
        N *= 2
        if N > WINDING_MAX_GRID:
            raise PhaseStepTooLarge(
                f"phase steps still exceed pi/2 at grid {WINDING_MAX_GRID}")


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
    g = LoopGroupElement._from_spectrum(spec2)
    defect, theta = unitarity_defect(g)
    if not (defect <= UNITARITY_TOL):
        raise UnitarityViolation(defect, theta)
    return g


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
    the subspace `loop_from_subspace` rebuilds g from."""
    return orthonormalize(_shifted_stack(BandStack(g.n, g.kmin, g.data),
                                         depth))


def loop_from_subspace(W, tol=UNITARITY_TOL):
    """Rebuild the unitary loop whose shifted column span is W.

    W must be an orthonormal frame for gamma . span{ z^p e_j : 0 <= p <= P }.
    The intersection W cap (zW)^perp is computed; its dimension must be
    exactly n (else IntersectionDimension).  Its orthonormal basis loops
    w_1..w_n become the columns of gamma, i.e. the k-th Fourier coefficient
    of w_j is column j of A_k, so gamma(theta) e_j = w_j(theta).  Pointwise
    unitarity on the band-sized grid of unitarity_defect certifies the
    result (UnitarityViolation otherwise); it is equivalent to the w_j
    forming orthonormal frames of the values for every theta.

    The basis of the intersection is only defined up to a constant unitary;
    it is canonicalized so the lowest-frequency invertible coefficient
    block comes out Hermitian positive definite.
    """
    return _certified_loop(W, tol)[0]


def _certified_loop(W, tol):
    """(gamma, its unitarity defect) for `loop_from_subspace`, which
    returns gamma alone; the same refusals."""
    inter = intersect_shift_complement(W)
    d = 0 if inter is None else inter.dim
    if d != W.n:
        raise IntersectionDimension(d, W.n)
    stack = inter.stack  # column j of A_k is w_j's c_k
    blocks = stack.data @ _canonical_basis_rotation(stack.kmin, stack.data)
    g = LoopGroupElement.from_band(W.n, stack.kmin, blocks)
    defect, theta = unitarity_defect(g)
    if not (defect <= tol):
        raise UnitarityViolation(defect, theta)
    return g, defect


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
