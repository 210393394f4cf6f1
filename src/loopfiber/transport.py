"""Parallel transport and holonomy over loops in a chart.

Conventions, fixed once for the whole package:

  * base loops are maps x : R/Z -> R^d, closed to 1e-12;
  * a connection is an anti-Hermitian-matrix-valued 1-form, sampled as
    A(x, v), linear in the velocity v;
  * transport solves T'(t) = -A(x(t), x'(t)) T(t), T(0) = I, by classical
    RK4 with polar re-unitarization after every step; the raw, uncorrected
    chain is kept as its step offsets and multiplied out only when its
    drift or endpoint is read;
  * the holonomy of a loop is T(1), so an abelian connection gives
    Hol = exp(-loop integral of A).

Loops and forms take arrays: a loop's `fn(t)` maps a float array t to
positions and velocities of shape t.shape + (d,), and a connection's
`form(x, v)` maps (..., d) arrays to (..., n, n) matrices.  Transport never
calls either per point.

The ODE is linear, so one RK4 step of size h is a matrix P_i applied to
T(t_i).  Transport runs as one batched pipeline for every fiber dimension n,
on entry-major stacks: a stack of S matrices has shape (n, n, S), so each
matrix entry is one contiguous array over the stack (loopgroup._entry_major).

  1. sample the loop and -A in one call each on all 2 steps + 1 half-step
     nodes t0 + j h/2 (a step's endpoint is the next step's start), the
     step ends first and the midpoints after them; check every sample for
     shape and anti-Hermiticity, and copy the samples once into an
     entry-major stack, in which the starts, ends and midpoints of the
     steps are three contiguous runs;
  2. build every propagator P_i = I + h/6 (k1 + 2 k2 + 2 k3 + k4) with
     stacked matrix products;
  3. unitarize each step once, Q_i = polar(P_i), by Newton-Schulz steps
     (loopgroup._polar); since polar(P T) = polar(P) T for unitary T, this
     equals re-unitarizing after every step;
  4. form T(t_i) = Q_{i-1} ... Q_0 by a work-efficient (Blelloch) scan of
     about 2 steps products, re-project T with one more batched polar so the
     frame stays unitary to roundoff, and lay the frames out as the
     (steps + 1, n, n) array `TransportFrame.Ts`, the one conversion back.

Every stacked product of steps 2-4 goes through loopgroup._matmul: for the
small blocks of transport (n <= 3) it builds each entry of the product with
one multiply-add of two contiguous arrays over the stack per inner index,
where np.matmul would make one BLAS call per block, and it hands larger
blocks to np.matmul; the path is the same for every n.  The stacked
Frobenius norms of the checks go through loopgroup._fro_norms, which sums
the squares of a block of fewer than 8 entries over the entry axis in the
same way and hands larger blocks to np.linalg.norm.

A holonomy alone needs only T(1): `holonomy` runs the scan's up-sweep, a
pairwise tree product of the Q_i, to its root and takes one final polar; it
gives the same bits as the last frame of `parallel_transport`.

Under these conventions the plane preset with form (i B / 2)(x dy - y dx)
gives Hol = exp(-i B pi r^2) on a counterclockwise radius-r circle, and the
sphere preset below gives the classical solid-angle holonomy on latitude
circles.
"""

import csv
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonAntiHermitianSample, PhaseStepTooLarge
from .loopgroup import (_adjoint, _block_major, _entry_major, _fro_norms,
                        _matmul, _phase_winding, _polar, _stack_defect)

__all__ = [
    "BaseLoop",
    "ConnectionSpec",
    "flat",
    "abelian2d",
    "monopole",
    "su2sample",
    "TransportFrame",
    "parallel_transport",
    "holonomy",
    "transport_reversed",
    "refinement_delta",
    "rotated_twist",
    "latitude_loop",
    "latitude_family",
    "chern_sweep",
    "save_loop_csv",
    "load_loop_csv",
]

CLOSURE_TOL = 1e-12
ANTIHERM_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class BaseLoop:
    """A closed parametrized curve t -> x(t) in R^d with period 1.

    `fn(t)` takes a float array t and returns (position, velocity), both of
    shape t.shape + (d,); sampled curves are interpolated with a periodic
    cubic spline (`from_samples`), computed in numpy alone.
    """

    d: int
    fn: object

    @classmethod
    def from_function(cls, d, fn):
        loop = cls(d, fn)
        x, _ = loop.xv(np.array([0.0, 1.0]))
        gap = float(np.linalg.norm(x[1] - x[0]))
        if not (gap <= CLOSURE_TOL):
            raise ValueError(f"loop does not close: |x(1)-x(0)| = {gap:.3e}")
        return loop

    @classmethod
    def from_samples(cls, points):
        """Periodic cubic spline through samples y_j on the uniform grid j/M.

        With s = M t - j and r = 1 - s on [j/M, (j + 1)/M], the spline is

            r y_j + s y_{j+1} + (r^3 - r) c_j + (s^3 - s) c_{j+1},

        where c_j is its second derivative at j/M divided by 6 M^2.
        Continuity of the first derivative at every node is the circulant
        system c_{j-1} + 4 c_j + c_{j+1} = y_{j+1} - 2 y_j + y_{j-1}, whose
        eigenvalues 4 + 2 cos(2 pi k / M) lie in [2, 6], so one FFT division
        solves it; no factor M^2 multiplies the data.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 4:
            raise ValueError("need at least 4 sample points, shape (M, d)")
        if not np.isfinite(pts).all():
            raise ValueError("sample points must be finite (NaN or inf found)")
        M, d = pts.shape
        bend = np.roll(pts, -1, axis=0) - 2.0 * pts + np.roll(pts, 1, axis=0)
        eig = 4.0 + 2.0 * np.cos(2.0 * math.pi * np.arange(M // 2 + 1) / M)
        c = np.fft.irfft(np.fft.rfft(bend, axis=0) / eig[:, None], n=M, axis=0)
        # closed tables: row M repeats row 0
        y, c = np.vstack([pts, pts[:1]]), np.vstack([c, c[:1]])

        def fn(t):
            u = M * t
            j = np.minimum(np.floor(u).astype(int), M - 1)
            s = (u - j)[..., None]
            r = 1.0 - s
            y0, y1, c0, c1 = y[j], y[j + 1], c[j], c[j + 1]
            x = r * y0 + s * y1 + (r * r * r - r) * c0 + (s * s * s - s) * c1
            v = M * ((y1 - y0) + (1.0 - 3.0 * r * r) * c0
                     + (3.0 * s * s - 1.0) * c1)
            return x, v

        return cls(d, fn)

    @classmethod
    def circle(cls, radius=1.0, center=(0.0, 0.0)):
        cx, cy = center
        w = 2.0 * math.pi

        def fn(t):
            c, s = np.cos(w * t), np.sin(w * t)
            x = np.stack([cx + radius * c, cy + radius * s], axis=-1)
            v = np.stack([-w * radius * s, w * radius * c], axis=-1)
            return x, v

        return cls(2, fn)

    def xv(self, t):
        """Positions and velocities at the times t, of shape t.shape + (d,)."""
        t = np.asarray(t, dtype=float)
        x, v = self.fn(np.where(t == 1.0, 1.0, t % 1.0))
        x, v = np.asarray(x, dtype=float), np.asarray(v, dtype=float)
        expected = t.shape + (self.d,)
        if x.shape != expected or v.shape != expected:
            raise ValueError(f"loop samples have shapes {x.shape} and "
                             f"{v.shape}, expected {expected}")
        return x, v

    def point(self, t):
        return self.xv(t)[0]

    def rotated(self, s0):
        """The reparametrized loop t -> x(t + s0)."""
        base = self.fn

        def fn(t):
            return base((t + s0) % 1.0)

        return BaseLoop(self.d, fn)


@dataclass(frozen=True, eq=False)
class ConnectionSpec:
    """An anti-Hermitian n x n matrix 1-form on a d-dimensional chart.

    `form(x, v)` takes positions and velocities as (..., d) arrays and
    returns the (..., n, n) stack of matrices A(x, v).  It must be linear in
    v and anti-Hermitian to 1e-10 at every sampled point; transport verifies
    the latter sample by sample.
    """

    n: int
    d: int
    form: object
    name: str = "custom"


def flat(n=1, d=2):
    def form(x, v):
        return np.zeros(x.shape[:-1] + (n, n), dtype=complex)

    return ConnectionSpec(n, d, form, name="flat")


def abelian2d(B=1.0):
    """Uniform-curvature U(1) form -(i B / 2)(x dy - y dx) on the plane.

    Stokes: the holonomy of a counterclockwise circle of radius r is
    exp(+i B pi r^2), i.e. the holonomy phase equals the enclosed flux
    B pi r^2.
    """

    def form(x, v):
        num = x[..., 0] * v[..., 1] - x[..., 1] * v[..., 0]
        return (-0.5j * B * num)[..., None, None]

    return ConnectionSpec(1, 2, form, name="abelian2d")


def monopole(q):
    """Charge-q U(1) monopole field around the origin of R^3.

    The chart is R^3 minus the nonpositive x3-axis (where the potential's
    string sits); on the unit sphere this is the sphere minus its south
    pole.  In spherical terms the form is (i q / 2)(1 - cos u) d phi, which
    is regular along the north direction.  A counterclockwise latitude
    circle at polar angle u picks up exp(-i q Omega / 2) with
    Omega = 2 pi (1 - cos u) the enclosed solid angle.

    q must be an integer for the field to be globally consistent; the
    evaluation itself never needs that.
    """

    def form(x, v):
        num = x[..., 0] * v[..., 1] - x[..., 1] * v[..., 0]
        # where num is exactly 0 the motion is radial or stationary and the
        # d phi term vanishes (this also covers v = 0 sitting on the axis,
        # where A . 0 = 0 by linearity); elsewhere rho2 and r are positive
        moving = num != 0.0
        rho2 = x[..., 0] * x[..., 0] + x[..., 1] * x[..., 1]
        r = np.sqrt(rho2 + x[..., 2] * x[..., 2])
        cos_u = np.divide(x[..., 2], r, out=np.zeros_like(r), where=moving)
        coef = np.divide(0.5 * q * (1.0 - cos_u) * num, rho2,
                         out=np.zeros_like(r), where=moving)
        return (1j * coef)[..., None, None]

    return ConnectionSpec(1, 3, form, name="monopole")


_S1 = np.array([[0, 1], [1, 0]], dtype=complex)
_S2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_S3 = np.array([[1, 0], [0, -1]], dtype=complex)


def su2sample():
    """A fixed nonabelian SU(2) form on the plane with polynomial coefficients.

    A = A0 dx + A1 dy with A0 = i(0.3 s1 + 0.2 y s3) and
    A1 = i(0.4 s2 - 0.1 x s1 + 0.15 s3), s* the Pauli matrices.  Chosen so
    the curvature F = dA + A ^ A is position dependent and noncommuting.
    """

    def form(x, v):
        # A = i (a1 s1 + a2 s2 + a3 s3), entries assembled from the three
        # Pauli coefficients without a (..., 2, 2) temporary per term
        x0, x1, v0, v1 = x[..., 0], x[..., 1], v[..., 0], v[..., 1]
        a1 = v0 * 0.3 - v1 * (0.1 * x0)
        a2 = v1 * 0.4
        a3 = v0 * (0.2 * x1) + v1 * 0.15
        A = np.zeros(np.shape(a1) + (2, 2), dtype=complex)
        A.imag[..., 0, 0], A.imag[..., 1, 1] = a3, -a3
        A.imag[..., 0, 1] = A.imag[..., 1, 0] = a1
        A.real[..., 0, 1], A.real[..., 1, 0] = a2, -a2
        return A

    return ConnectionSpec(2, 2, form, name="su2sample")


def su2sample_curvature(x):
    """Analytic curvature F_01 = d0 A1 - d1 A0 + [A0, A1] of su2sample."""
    a, b, c, dd, e = 0.3, 0.2, 0.4, -0.1, 0.15
    coef1 = dd + 2.0 * b * c * x[1]
    coef2 = 2.0 * a * e - 2.0 * b * dd * x[0] * x[1]
    coef3 = -(b + 2.0 * a * c)
    return 1j * (coef1 * _S1 + coef2 * _S2 + coef3 * _S3)


@dataclass(frozen=True, eq=False)
class TransportFrame:
    """Transport matrices T(t_i) on the uniform grid t_i = i/N.

    Ts[i] = polar(Q_{i-1} ... Q_0), where Q_k is the polar factor of step k's
    RK4 propagator P_k = I + step_offsets[:, :, k] (the offsets stay the
    entry-major (n, n, N) stack transport built); the outer polar re-projects
    the prefix product, so Ts[i] is unitary to roundoff.  The never-corrected
    chain P_{i-1} ... P_0 is built from the stored step offsets only when
    `raw_defect` (its worst unitarity defect) or `raw_holonomy` (its
    endpoint) is first read.
    """

    loop: BaseLoop
    conn: ConnectionSpec
    N: int
    Ts: np.ndarray
    step_offsets: np.ndarray

    @property
    def n(self):
        return self.conn.n

    @property
    def holonomy(self):
        return self.Ts[-1]

    def unitarity_defect(self):
        return _stack_defect(_entry_major(self.Ts))[0]

    @cached_property
    def _raw_chain(self):
        """(endpoint, worst defect) of the raw chain; ValueError when it
        overflows."""
        with np.errstate(over="ignore", invalid="ignore"):
            E = _prefix_products(self.step_offsets)
            EH = _adjoint(E)
            defect = float(_fro_norms(E + EH + _matmul(EH, E)).max())
        # the defect of a non-finite chain is inf or NaN
        if not math.isfinite(defect):
            raise ValueError(
                f"the raw transport chain is not finite (N={self.N}): the "
                "connection form is too large for the grid")
        return np.eye(self.n, dtype=complex) + E[..., -1], defect

    @property
    def raw_holonomy(self):
        return self._raw_chain[0]

    @property
    def raw_defect(self):
        return self._raw_chain[1]


def _compose(later, earlier):
    """C with I + C = (I + later)(I + earlier), for entry-major stacks of
    offsets.

    Products are kept as offsets from I, so factors close to I are never
    rounded against 1; a uniform loop would otherwise repeat the same
    rounding at every step.
    """
    return later + earlier + _matmul(later, earlier)


def _pair_level(E):
    """One level of the pairwise product: neighbours composed from the last
    factor down, an unpaired first factor kept as it is."""
    odd = E.shape[-1] % 2
    return np.concatenate([E[..., :odd],
                           _compose(E[..., odd + 1::2], E[..., odd::2])],
                          axis=-1)


def _prefix_products(E):
    """C_i with I + C_i = (I + E_i) ... (I + E_0) for the matrices E_i of an
    entry-major stack, by a work-efficient scan.

    Blelloch's scan, written recursively: the up-sweep is one `_pair_level`,
    whose entries end at every second factor; the scan of that level gives
    the prefixes ending there, and each skipped factor is composed onto the
    prefix just before it.  About 2 len(E) products in all, and the last
    matrix is `_tree_product(E)` bit for bit.
    """
    if E.shape[-1] == 1:
        return E.copy()
    S = _prefix_products(_pair_level(E))
    # S holds the prefixes that end at the factors E[..., 1 - odd::2]
    odd = E.shape[-1] % 2
    C = np.empty(E.shape, E.dtype)
    C[..., 0] = E[..., 0]
    C[..., 1 - odd::2] = S
    C[..., 2 - odd::2] = _compose(E[..., 2 - odd::2], S[..., :-1])
    return C


def _tree_product(E):
    """C with I + C = (I + E_last) ... (I + E_0), one (n, n) matrix: the
    up-sweep of `_prefix_products` run to its root without the down-sweep."""
    while E.shape[-1] > 1:
        E = _pair_level(E)
    return E[..., 0]


def _sample_forms(conn, xv, ts):
    """-A at every node t in ts as an entry-major (n, n, len(ts)) stack,
    checked for shape and anti-Hermiticity; a failure names the least t."""
    n = conn.n
    A = np.asarray(conn.form(*xv(ts)), dtype=complex)
    if A.shape != (len(ts), n, n):
        raise ValueError(f"connection form on {len(ts)} nodes has shape "
                         f"{A.shape}, expected ({len(ts)}, {n}, {n})")
    A = _entry_major(A)
    with np.errstate(invalid="ignore"):
        defect = _fro_norms(A + _adjoint(A))
    # written so that a NaN defect fails the check too
    bad = np.flatnonzero(~(defect <= ANTIHERM_TOL))
    if bad.size:
        i = bad[np.argmin(ts[bad])]
        raise NonAntiHermitianSample(float(defect[i]), float(ts[i]))
    return -A


def _step_offsets(conn, xv, t0, t1, steps):
    """The entry-major (n, n, steps) stack of the D_i with P_i = I + D_i
    the RK4 propagator of step i; ValueError at the first step that
    overflows."""
    h = (t1 - t0) / steps
    ts = np.linspace(t0, t1, 2 * steps + 1)
    M = _sample_forms(conn, xv, np.concatenate([ts[::2], ts[1::2]]))
    M0, M1, Mh = M[..., :steps], M[..., 1:steps + 1], M[..., steps + 1:]
    with np.errstate(over="ignore", invalid="ignore"):
        K2 = Mh + (0.5 * h) * _matmul(Mh, M0)
        K3 = Mh + (0.5 * h) * _matmul(Mh, K2)
        K4 = M1 + h * _matmul(M1, K3)
        D = (h / 6.0) * (M0 + 2.0 * K2 + 2.0 * K3 + K4)
    bad = np.flatnonzero(~np.isfinite(D).all(axis=(0, 1)))
    if bad.size:
        raise ValueError(
            f"transport step at t={t0 + bad[0] * h:.6f} is not finite "
            f"(N={steps}): the connection form is too large for the grid")
    return D


def _transport_chain(conn, xv, t0, t1, steps):
    """Frames T(t0 + i h), i = 0..steps, and the step offsets they came from."""
    I = np.eye(conn.n, dtype=complex)[:, :, None]  # a stack of one
    D = _step_offsets(conn, xv, t0, t1, steps)
    Ts = _polar(I + _prefix_products(_polar(I + D) - I))
    return _block_major(np.concatenate([I, Ts], axis=-1)), D


def _end_transport(conn, xv, t0, t1, steps):
    """T(t1) alone: the polar of the tree product of the step polar factors."""
    I = np.eye(conn.n, dtype=complex)[:, :, None]  # a stack of one
    D = _step_offsets(conn, xv, t0, t1, steps)
    return _polar(I[..., 0] + _tree_product(_polar(I + D) - I))


def _check_grid(conn, loop, N):
    if conn.d != loop.d:
        raise ValueError(
            f"chart dimension mismatch: connection d={conn.d}, loop d={loop.d}")
    if N < 1:
        raise ValueError("N must be >= 1")


def parallel_transport(conn, loop, N=2048):
    """Integrate the transport frame over the whole loop on an N-grid."""
    _check_grid(conn, loop, N)
    return TransportFrame(loop, conn, N, *_transport_chain(
        conn, loop.xv, 0.0, 1.0, N))


def holonomy(conn, loop, N=2048):
    """Transport once around: Hol = T(1)."""
    _check_grid(conn, loop, N)
    return _end_transport(conn, loop.xv, 0.0, 1.0, N)


def transport_reversed(conn, loop, t, N=2048):
    """Transport along the time-reversed partial path s -> x(t - s), s in [0, t].

    Starts at x(t) and runs backwards to x(0); the result approximates
    T(t)^{-1}, which is how untwisting maps are realized geometrically.
    """
    steps = max(int(round(t * N)), 1)

    def xv(s):
        x, v = loop.xv(t - s)
        return x, -v

    return _end_transport(conn, xv, 0.0, t, steps)


def refinement_delta(conn, loop, N=2048):
    """Frobenius change of the holonomy when the grid is refined to 2N."""
    return float(np.linalg.norm(holonomy(conn, loop, N)
                                - holonomy(conn, loop, 2 * N)))


def rotated_twist(frame, t):
    """The twist of the loop rotated by t: tau = T(t) Hol T(t)^{-1}.

    t must lie on the frame's grid (t = i/N for integer i).
    """
    pos = t * frame.N
    i = int(round(pos))
    if abs(pos - i) > 1e-9 or not (0 <= i <= frame.N):
        raise ValueError(f"t={t} is not on the {frame.N}-point grid")
    T = frame.Ts[i]
    return T @ frame.holonomy @ T.conj().T


def latitude_loop(u):
    """Counterclockwise latitude circle at polar angle u on the unit sphere."""
    su, cu = math.sin(u), math.cos(u)
    w = 2.0 * math.pi

    def fn(t):
        c, sn = np.cos(w * t), np.sin(w * t)
        x = np.stack([su * c, su * sn, np.full_like(c, cu)], axis=-1)
        v = np.stack([-w * su * sn, w * su * c, np.zeros_like(c)], axis=-1)
        return x, v

    return BaseLoop(3, fn)


def latitude_family():
    """Latitude circles on the unit sphere, swept from south pole to north.

    family(s) is the counterclockwise latitude circle at polar angle
    u = pi (1 - s); the endpoint loops are the constant loops at the poles,
    so a holonomy along the family is a closed path in U(1).  Under the
    monopole(q) preset the winding of that path is exactly q.
    """

    def family(s):
        return latitude_loop(math.pi * (1.0 - s))

    return family


def chern_sweep(conn, family, N=256, M=64, max_family_grid=4096):
    """Winding number of s -> holonomy(family(s)) for a U(1) connection,
    with the sweep it was read from.

    The family grid M doubles until successive phase steps are below
    pi/2; PhaseStepTooLarge is raised beyond `max_family_grid`.  For a
    closed family (constant endpoint loops) the sum of steps is a whole
    number of turns, which is the first Chern number of the bundle the
    family sweeps out.  Returns (winding, h) with h[j] the holonomy of
    family(j / (len(h) - 1)).
    """
    if conn.n != 1:
        raise ValueError("winding needs a U(1) connection (n = 1)")
    while True:
        h = np.array([holonomy(conn, family(j / M), N)[0, 0]
                      for j in range(M + 1)])
        winding = _phase_winding(h, "holonomy sample too close to zero")
        if winding is not None:
            return winding, h
        M *= 2
        if M > max_family_grid:
            raise PhaseStepTooLarge(
                f"family phase steps still exceed pi/2 at grid {max_family_grid}")


def chern_winding(conn, family, N=256, M=64, max_family_grid=4096):
    """The winding of `chern_sweep`; out of __all__, kept while the
    benchmark metric `transport.chern_winding.self_s` names it."""
    return chern_sweep(conn, family, N, M, max_family_grid)[0]


def save_loop_csv(loop, path, M=256):
    """Write samples t, x1, ..., xd at t = j/M, j = 0..M-1."""
    ts = np.arange(M) / M
    xs = loop.point(ts)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t"] + [f"x{i + 1}" for i in range(loop.d)])
        w.writerows([repr(c) for c in [t] + x]
                    for t, x in zip(ts.tolist(), xs.tolist()))


def load_loop_csv(path):
    """Read a loop from CSV with header t, x1, ..., xd; t uniform in [0, 1)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or not rows[0] or rows[0][0].strip() != "t":
        raise ValueError("expected header t,x1,...,xd")
    d = len(rows[0]) - 1
    if d < 1:
        raise ValueError("no coordinate columns")
    data = np.array([[float(c) for c in row] for row in rows[1:]])
    if data.ndim != 2 or data.shape[1] != d + 1:
        raise ValueError("ragged CSV rows")
    ts, pts = data[:, 0], data[:, 1:]
    M = len(ts)
    # written so that a NaN anywhere in t fails
    if not (np.all(np.diff(ts) > 0) and ts[0] == 0.0 and ts[-1] < 1.0):
        raise ValueError("t column must be sorted in [0, 1) starting at 0")
    if not np.abs(ts - np.arange(M) / M).max() <= 1e-9:
        raise ValueError("t column must be the uniform grid j/M")
    return BaseLoop.from_samples(pts)
