"""Shared helpers for the test suite."""

import numpy as np

from loopfiber.fourier import TruncatedLoop, inner_product, norm
from loopfiber.transport import BaseLoop

CLOSURE_TOL = 1e-12  # largest |x(1) - x(0)| of a closed base loop

# the Pauli matrices
S1 = np.array([[0, 1], [1, 0]], dtype=complex)
S2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
S3 = np.array([[1, 0], [0, -1]], dtype=complex)


def haar_unitary(n, rng):
    """Haar-distributed unitary via QR of a Ginibre matrix."""
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R)))


def loop_from_function(d, fn):
    """BaseLoop(d, fn); ValueError unless it closes to CLOSURE_TOL."""
    loop = BaseLoop(d, fn)
    x, _ = loop.xv(np.array([0.0, 1.0]))
    gap = float(np.linalg.norm(x[1] - x[0]))
    if not (gap <= CLOSURE_TOL):
        raise ValueError(f"loop does not close: |x(1)-x(0)| = {gap:.3e}")
    return loop


def is_zero(a):
    """True for the zero loop or element, which stores no block."""
    return not len(a.data)


def zero_loop(n):
    return TruncatedLoop(n, {})


def loop_allclose(a, b, tol=1e-12):
    """True when ||a - b|| <= tol in the loop norm."""
    return norm(a - b) <= tol


def project_onto(frame, a):
    """Orthogonal projection of the loop `a` onto span(frame)."""
    stack = frame.stack
    weights = inner_product(stack, a)  # <w_i, a>
    return TruncatedLoop.from_band(a.n, stack.kmin, stack.data @ weights)


def su2sample_curvature(x):
    """Analytic curvature F_01 = d0 A1 - d1 A0 + [A0, A1] of su2sample."""
    a, b, c, dd, e = 0.3, 0.2, 0.4, -0.1, 0.15
    coef1 = dd + 2.0 * b * c * x[1]
    coef2 = 2.0 * a * e - 2.0 * b * dd * x[0] * x[1]
    coef3 = -(b + 2.0 * a * c)
    return 1j * (coef1 * S1 + coef2 * S2 + coef3 * S3)
