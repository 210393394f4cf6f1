"""Shared helpers for the test suite."""

import numpy as np

from loopfiber.fourier import TruncatedLoop, inner_product, norm
from loopfiber.transport import BaseLoop, ConnectionSpec

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


def constant_generator(K):
    """The form A = K (x dy - y dx) for a constant anti-Hermitian K."""
    K = np.asarray(K, dtype=complex)

    def form(x, v):
        num = x[..., 0] * v[..., 1] - x[..., 1] * v[..., 0]
        return num[..., None, None] * K

    return ConnectionSpec(len(K), 2, form, name=f"constant-n{len(K)}")


def gauge_transformed(conn, g, dg):
    """conn under the gauge g: M -> U(n), the form A' = g A g^-1 - (dg) g^-1.

    g(x) maps (..., d) positions to (..., n, n) unitaries, and dg(x, v) to
    their derivative along the velocities v.  Transport solves
    T' = -A T, so T'(t) = g(x(t)) T(t) g(x(0))^-1 solves the transformed
    equation: a loop's holonomy becomes g(x(0)) Hol g(x(0))^-1 and its
    twist T Hol T^-1 becomes g tau g^-1 pointwise (Kobayashi and Nomizu,
    Foundations of Differential Geometry I, 1963, ch. II).
    """

    def form(x, v):
        G = g(x)
        GH = np.conj(np.swapaxes(G, -1, -2))  # g^-1
        return G @ conn.form(x, v) @ GH - dg(x, v) @ GH

    return ConnectionSpec(conn.n, conn.d, form, name=f"{conn.name}-gauged")


def _pauli_exp(theta, S):
    """exp(i theta S) = cos(theta) I + i sin(theta) S for a Pauli matrix S,
    one per entry of the array theta."""
    c, s = np.cos(theta)[..., None, None], np.sin(theta)[..., None, None]
    return c * np.eye(2) + 1j * s * S


def pauli_gauge(a=0.8, b=1.3):
    """(g, dg) of the SU(2) gauge g(x) = exp(i a x0 s1) exp(-i b x1 s2) on
    the plane: dg(x, v) = i a v0 s1 g(x) - i b v1 E1 s2 E2, with E1 and E2
    the two factors of g."""

    def g(x):
        return _pauli_exp(a * x[..., 0], S1) @ _pauli_exp(-b * x[..., 1], S2)

    def dg(x, v):
        E1, E2 = _pauli_exp(a * x[..., 0], S1), _pauli_exp(-b * x[..., 1], S2)
        return ((1j * a * v[..., 0])[..., None, None] * (S1 @ E1 @ E2)
                - (1j * b * v[..., 1])[..., None, None] * (E1 @ S2 @ E2))

    return g, dg


def exp_gauge(X):
    """(g, dg) of the U(n) gauge g(x) = exp(x0 X) for a constant
    anti-Hermitian X: with i X = V diag(lam) V^H by eigh,
    g(x) = V diag(exp(-i x0 lam)) V^H, and dg(x, v) = v0 X g(x)."""
    X = np.asarray(X, dtype=complex)
    lam, V = np.linalg.eigh(1j * X)

    def g(x):
        phases = np.exp(-1j * x[..., 0, None] * lam)  # (..., n)
        return (V * phases[..., None, :]) @ V.conj().T

    def dg(x, v):
        return v[..., 0, None, None] * (X @ g(x))

    return g, dg
