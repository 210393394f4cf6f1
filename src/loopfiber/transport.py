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
calls either per point, and the loops of a `LoopFamily` (`family_loops`)
are sampled together, one broadcast call per chunk.

The ODE is linear, so one RK4 step of size h is a matrix P_i applied to
T(t_i).  Transport runs as one batched pipeline for every fiber dimension n
and for a whole family of loops at once, on entry-major stacks: a stack of
matrices has shape (n, n, B, S) for B loops of S steps each, so each matrix
entry is one contiguous array over the stack (loopgroup._entry_major), and
every kernel works per step along the last axis.  A lone loop is the batch
of one.

  1. sample each loop on all 2 steps + 1 half-step nodes j h/2, h = 1/steps,
     in t order, so the step ends are the even nodes (a step's endpoint is
     the next step's start) and the midpoints the odd ones, and -A in one
     call on the B (2 steps + 1) nodes of all the loops; refuse a loop
     sample that is not finite, check every -A for shape and
     anti-Hermiticity, and copy the samples once into an entry-major stack,
     whose strided views are the starts, ends and midpoints of the steps;
  2. build every propagator P_i = I + h/6 (k1 + 2 k2 + 2 k3 + k4) with
     stacked matrix products;
  3. unitarize each step once, Q_i = polar(P_i), by Newton-Schulz steps
     (loopgroup._polar); since polar(P T) = polar(P) T for unitary T, this
     equals re-unitarizing after every step;
  4. form T(t_i) = Q_{i-1} ... Q_0 by a work-efficient (Blelloch) scan of
     about 2 steps products, re-project T with one more batched polar so the
     frame stays unitary to roundoff, and lay the frames out as the
     (steps + 1, n, n) arrays `TransportFrame.Ts`, the one conversion back.

Every stacked product and norm of steps 2-4 goes through loopgroup._matmul
and loopgroup._fro_norms, which say how small and large blocks are taken;
the anti-Hermiticity check of step 1 sums its squares entry by entry itself.

Each matrix of the stack depends on its own loop's samples alone, so every
loop of a batch gets the bits it gets alone.  Loops go through the pipeline
in chunks of at most TRANSPORT_NODE_BUDGET nodes (at least one loop per
chunk): a batch too large for the cache runs slower than one loop at a time.
A batch raises what its first failing loop raises alone: a chunk that fails
runs again loop by loop.  One loop's step stack may hold at most
TRANSPORT_MAX_ENTRIES matrix entries (n^2 N), checked before any work.

A refinement run reuses samples: the 2N run's step ends are the N run's
nodes in the same order, because linspace(0, 1, 4N + 1)[2i] ==
linspace(0, 1, 2N + 1)[i] bit for bit (fl(1/4N) is fl(1/2N) / 2).  A
`TransportFrame` keeps its samples, and `holonomy(conn, loop, 2N,
coarse=frame)` takes them as they lie for its step ends and samples only
the 2N midpoints; `refinement_delta(frame)` runs it.

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
from .loopgroup import (_adjoint, _block_major, _fro_norms, _matmul, _polar,
                        _stack_defect)

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
    "LoopFamily",
    "family_loops",
    "latitude_loop",
    "latitude_family",
    "chern_winding",
    "save_loop_csv",
    "load_loop_csv",
]

ANTIHERM_TOL = 1e-10
STEP_RESOLUTION_MAX = math.pi / 2  # chern_winding's largest step h |A|
WINDING_MARGIN = 0.1  # chern_winding's largest distance of turns from a whole
TRANSPORT_NODE_BUDGET = 2 ** 14  # half-step nodes of one batched pass
TRANSPORT_MAX_ENTRIES = 2 ** 21  # n^2 N of one loop's pass, under 0.6 GB


def _wrap(t):
    """t % 1.0, but 1.0 for t = 1.0, for a float array t.

    Written t - floor(t): the same bits as numpy's remainder (NaN and the
    sign of zero included) at a fraction of its cost.  Both are the exact
    fraction t - floor(t) rounded once: fmod(t, 1) is exact, and numpy adds
    1 to it for a negative t, which is the same real number as t + k for
    k = -floor(t).
    """
    return np.where(t == 1.0, 1.0, t - np.floor(t))


def _checked(xv, expected, what):
    """The positions and velocities xv as float arrays; ValueError, naming
    `what` samples, unless both have the shape `expected`."""
    x, v = (np.asarray(a, dtype=float) for a in xv)
    if x.shape != expected or v.shape != expected:
        raise ValueError(f"{what} samples have shapes {x.shape} and "
                         f"{v.shape}, expected {expected}")
    return x, v


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
        eig = 4.0 + 2.0 * np.cos(2.0 * math.pi * np.arange(M // 2 + 1) / M)
        with np.errstate(over="ignore", invalid="ignore"):
            bend = (np.roll(pts, -1, axis=0) - 2.0 * pts
                    + np.roll(pts, 1, axis=0))
            c = np.fft.irfft(np.fft.rfft(bend, axis=0) / eig[:, None], n=M,
                             axis=0)
        if not np.isfinite(c).all():
            raise ValueError("the spline through the sample points is not "
                             "finite: the points are too large")
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
        """Positions and velocities at the times t, of shape t.shape + (d,).

        fn sees t wrapped into [0, 1) by `_wrap`, except that t = 1.0 stays
        1.0, so a spline's last node is its closing row.
        """
        t = np.asarray(t, dtype=float)
        return _checked(self.fn(_wrap(t)), t.shape + (self.d,), "loop")

    def point(self, t):
        return self.xv(t)[0]

    def rotated(self, s0):
        """The reparametrized loop t -> x(t + s0)."""
        base = self.fn

        def fn(t):
            t = t + s0
            return base(t - np.floor(t))

        return BaseLoop(self.d, fn)


@dataclass(frozen=True, eq=False)
class ConnectionSpec:
    """An anti-Hermitian n x n matrix 1-form on a d-dimensional chart.

    `form(x, v)` takes positions and velocities as (..., d) arrays and
    returns the (..., n, n) stack of matrices A(x, v).  It must be linear in
    v and anti-Hermitian to 1e-10 at every sampled point; transport verifies
    the latter sample by sample.  Any (..., n, n) array will do, a view
    included: the presets `flat` and `su2sample` fill an entry-major
    (n, n, ...) array and return its (..., n, n) view, which transport
    reads back in its own entry-major layout without a transposing copy.
    """

    n: int
    d: int
    form: object
    name: str = "custom"


def flat(n=1, d=2):
    def form(x, v):
        A = np.zeros((n, n) + x.shape[:-1], dtype=complex)  # entry-major
        return np.moveaxis(A, (0, 1), (-2, -1))

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


def su2sample():
    """A fixed nonabelian SU(2) form on the plane with polynomial coefficients.

    A = A0 dx + A1 dy with A0 = i(0.3 s1 + 0.2 y s3) and
    A1 = i(0.4 s2 - 0.1 x s1 + 0.15 s3), s* the Pauli matrices.  Chosen so
    the curvature F = dA + A ^ A is position dependent and noncommuting.
    """

    def form(x, v):
        # A = i (a1 s1 + a2 s2 + a3 s3), entries assembled from the three
        # Pauli coefficients without a (..., 2, 2) temporary per term, into
        # an entry-major (2, 2, ...) array, each entry written contiguously
        x0, x1, v0, v1 = x[..., 0], x[..., 1], v[..., 0], v[..., 1]
        a1 = v0 * 0.3 - v1 * (0.1 * x0)
        a2 = v1 * 0.4
        a3 = v0 * (0.2 * x1) + v1 * 0.15
        A = np.zeros((2, 2) + np.shape(a1), dtype=complex)
        A.imag[0, 0], A.imag[1, 1] = a3, -a3
        A.imag[0, 1] = A.imag[1, 0] = a1
        A.real[0, 1], A.real[1, 0] = a2, -a2
        return np.moveaxis(A, (0, 1), (-2, -1))

    return ConnectionSpec(2, 2, form, name="su2sample")


@dataclass(frozen=True, eq=False)
class TransportFrame:
    """Transport matrices T(t_i) on the uniform grid t_i = i/N.

    Ts[i] = polar(Q_{i-1} ... Q_0), where Q_k is the polar factor of step k's
    RK4 propagator P_k = I + step_offsets[:, :, k] (the offsets stay the
    entry-major (n, n, N) stack transport built); the outer polar re-projects
    the prefix product, so Ts[i] is unitary to roundoff.  The never-corrected
    chain P_{i-1} ... P_0 is built from the stored step offsets only when
    `raw_defect` (its worst unitarity defect) or `raw_holonomy` (its
    endpoint) is first read.  `samples` is -A at the 2N + 1 nodes j/(2N) in
    t order, entry-major (n, n, 2N + 1): the step ends of the 2N run
    (`holonomy(coarse=)`).
    """

    loop: BaseLoop
    conn: ConnectionSpec
    N: int
    Ts: np.ndarray
    step_offsets: np.ndarray
    samples: np.ndarray

    @property
    def n(self):
        return self.conn.n

    @property
    def holonomy(self):
        return self.Ts[-1]

    def unitarity_defect(self):
        return _stack_defect(self.Ts)[0]

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


def _sample_forms(conn, xvs, ts):
    """-A at every node t in ts along the B loops of xvs, as an entry-major
    (n, n, B, len(ts)) stack, from one form call on the concatenated
    B len(ts) nodes.  xvs is a list of per-loop samplers xv(ts), whose
    samples are concatenated, or the loops of a family (`_FamilyLoops`),
    all sampled by one broadcast call.  A loop sample that is not finite is
    refused with ValueError, and -A is checked for shape and
    anti-Hermiticity; a failure names the least failing t.  The loops and
    the form run with numpy's overflow warnings off: what overflows is
    refused here, as input.

    -A is written once, straight into the entry-major layout (a form that
    returns the (..., n, n) view of an entry-major array, as the presets
    `flat` and `su2sample` do, is read contiguously), and the
    defect ||A + A^H|| is summed over the entries on and above the diagonal
    (the (j, i) entry of A + A^H is the conjugate of the (i, j) entry) in
    real arithmetic, so that no temporary the size of the whole stack is
    made.
    """
    T = len(ts)
    n, nodes = conn.n, len(xvs) * T
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(xvs, _FamilyLoops):
            x, v = (a.reshape(nodes, a.shape[-1]) for a in xvs.xv(ts))
        else:
            x, v = (np.concatenate(parts)
                    for parts in zip(*(xv(ts) for xv in xvs)))
        # flat indices of the (B T, d) samples, divided down to their nodes
        bad = np.flatnonzero(~(np.isfinite(x) & np.isfinite(v))) // x.shape[-1]
        if bad.size:
            raise ValueError(f"loop sample at t={ts[bad % T].min():.6f} is "
                             "not finite")
        A = np.asarray(conn.form(x, v), dtype=complex)
        if A.shape != (nodes, n, n):
            raise ValueError(f"connection form on {nodes} nodes has shape "
                             f"{A.shape}, expected ({nodes}, {n}, {n})")
        M = np.empty((n, n, len(xvs), T), dtype=complex)
        np.negative(np.moveaxis(A, (1, 2), (0, 1)), out=M.reshape(n, n, nodes))
        squares = np.zeros(nodes)
        for i in range(n):
            for j in range(i, n):
                re = M[i, j].real + M[j, i].real
                im = M[i, j].imag - M[j, i].imag
                re *= re
                im *= im
                re += im
                squares += re.ravel() if i == j else 2.0 * re.ravel()
    defect = np.sqrt(squares)
    # written so that a NaN defect fails the check too
    bad = np.flatnonzero(~(defect <= ANTIHERM_TOL))
    if bad.size:
        k = bad[np.argmin(ts[bad % T])]
        raise NonAntiHermitianSample(float(defect[k]), float(ts[k % T]))
    return M


def _step_offsets(conn, xvs, steps, coarse=None):
    """(D, M) for the loop samplers xvs: D is the entry-major
    (n, n, B, steps) stack of the D_i with P_i = I + D_i the RK4 propagator
    of step i, M the (n, n, B, 2 steps + 1) samples of -A it came from, at
    the nodes j / (2 steps) in t order: the step ends are the even nodes
    and the midpoints the odd ones.  ValueError at the first step that
    overflows.

    `coarse`, the samples M of the steps/2 run over the same loops, is the
    step ends as it lies, so only the midpoints are sampled; then M is None.
    """
    h = 1.0 / steps
    ts = np.linspace(0.0, 1.0, 2 * steps + 1)
    if coarse is None:
        M = _sample_forms(conn, xvs, ts)
        ends, Mh = M[..., ::2], M[..., 1::2]
    else:
        M, ends = None, coarse
        Mh = _sample_forms(conn, xvs, ts[1::2])
    M0, M1 = ends[..., :-1], ends[..., 1:]
    # K2 = Mh + h/2 Mh M0, K3 = Mh + h/2 Mh K2, K4 = M1 + h M1 K3 and
    # D = h/6 (M0 + 2 K2 + 2 K3 + K4), each operation in place where its
    # operand is not needed again: the same bits with three fewer temporary
    # stacks alive at once
    with np.errstate(over="ignore", invalid="ignore"):
        K2 = _matmul(Mh, M0)
        K2 *= 0.5 * h
        K2 += Mh
        K3 = _matmul(Mh, K2)
        K3 *= 0.5 * h
        K3 += Mh
        K4 = _matmul(M1, K3)
        K4 *= h
        K4 += M1
        D = K2
        D *= 2.0
        D += M0
        K3 *= 2.0
        D += K3
        D += K4
        D *= h / 6.0
    bad = np.flatnonzero(~np.isfinite(D).all(axis=(0, 1)))
    if bad.size:
        raise ValueError(
            f"transport step at t={bad[0] % steps * h:.6f} is not "
            f"finite (N={steps}): the connection form is too large for the "
            "grid")
    return D, M


def _batch(conn, loop, N):
    """(the loops of `loop`, a BaseLoop or a sequence of them, as a list or
    as the `family_loops` batch it was, whether it was one BaseLoop),
    checked against conn, N >= 1 and n^2 N <= TRANSPORT_MAX_ENTRIES before
    anything is allocated."""
    single = isinstance(loop, BaseLoop)
    family = isinstance(loop, _FamilyLoops)
    loops = loop if family else [loop] if single else list(loop)
    for one in [loop] if family else loops:  # a family has one d
        if conn.d != one.d:
            raise ValueError(f"chart dimension mismatch: connection "
                             f"d={conn.d}, loop d={one.d}")
    if N < 1:
        raise ValueError("N must be >= 1")
    n = conn.n
    if n * n * N > TRANSPORT_MAX_ENTRIES:
        raise ValueError(f"N={N} steps of n={n} exceed the "
                         f"{TRANSPORT_MAX_ENTRIES} matrix entries (n^2 N) one "
                         "loop's transport may hold")
    return loops, single


def _samplers(chunk):
    """The xvs of `_sample_forms` for a chunk of loops: a family's loops as
    they are, else each loop's xv."""
    return chunk if isinstance(chunk, _FamilyLoops) else [
        one.xv for one in chunk]


def _in_chunks(run, loops, steps):
    """[run(chunk) for each chunk], the loops cut into chunks of
    TRANSPORT_NODE_BUDGET // (2 steps + 1) loops, at least one (a family's
    loops are sliced).  A chunk of several loops that fails a check runs
    again loop by loop, each a BaseLoop, so it raises what its first
    failing loop raises alone."""
    size = max(1, TRANSPORT_NODE_BUDGET // (2 * steps + 1))
    out = []
    for lo in range(0, len(loops), size):
        chunk = loops[lo:lo + size]
        try:
            out.append(run(chunk))
        except (ValueError, NonAntiHermitianSample):
            if len(chunk) > 1:
                for one in chunk:
                    run([one])
            raise
    return out


def parallel_transport(conn, loop, N=2048):
    """Integrate the transport frame over the whole loop on an N-grid.

    For a sequence of loops, the list of their frames, from one batched
    pass; each is bit for bit the frame of its loop alone.
    """
    loops, single = _batch(conn, loop, N)

    def run(chunk):
        I = np.eye(conn.n, dtype=complex)[:, :, None, None]  # a stack of one
        D, M = _step_offsets(conn, _samplers(chunk), N)
        Ts = _polar(I + _prefix_products(_polar(I + D) - I))
        starts = np.broadcast_to(I, Ts.shape[:3] + (1,))
        Ts = _block_major(np.concatenate([starts, Ts], axis=-1))
        return [TransportFrame(one, conn, N, Ts[b], D[:, :, b], M[:, :, b])
                for b, one in enumerate(chunk)]

    frames = [frame for part in _in_chunks(run, loops, N) for frame in part]
    return frames[0] if single else frames


def holonomy(conn, loop, N=2048, coarse=None):
    """Transport once around: Hol = T(1).

    For a sequence of loops, the (B, n, n) array of their holonomies, from
    one batched pass; each is bit for bit the holonomy of its loop alone.
    `coarse`, the frame `parallel_transport(conn, loop, N // 2)` of a single
    loop, gives the step ends, so only the N midpoints are sampled; a frame
    of another connection, loop or grid is refused with ValueError.
    """
    loops, single = _batch(conn, loop, N)
    ends = None
    if coarse is not None:
        if (coarse.conn is not conn or coarse.loop is not loop
                or 2 * coarse.N != N):
            raise ValueError(f"a coarse frame must be the N={N / 2:g} "
                             "transport of the same connection and loop")
        ends = coarse.samples[:, :, None]

    def run(chunk):
        # T(1) alone: the polar of the tree product of the step polar
        # factors; the offsets and samples are dropped before those are made
        I = np.eye(conn.n, dtype=complex)[:, :, None, None]  # a stack of one
        P = I + _step_offsets(conn, _samplers(chunk), N, ends)[0]
        return _block_major(_polar(I[..., 0] + _tree_product(_polar(P) - I)))

    parts = _in_chunks(run, loops, N)
    if single:
        return parts[0][0]
    return np.concatenate(parts) if parts else np.empty((0, conn.n, conn.n),
                                                         dtype=complex)


def transport_reversed(conn, loop, t, N=2048):
    """Transport along the time-reversed partial path from x(t) back to x(0).

    The path s -> x(t (1 - s)), s in [0, 1], with velocity -t x'(t (1 - s)),
    runs through `holonomy` on round(t N) steps, at least one; the result
    approximates T(t)^{-1}, which is how untwisting maps are realized
    geometrically.
    """

    def fn(s):
        x, v = loop.xv(t * (1.0 - s))
        return x, -t * v

    return holonomy(conn, BaseLoop(loop.d, fn), max(round(t * N), 1))


def refinement_delta(frame):
    """Frobenius change of a frame's holonomy when its grid N is refined to
    2N; the 2N run takes its step ends from the frame's samples."""
    return float(np.linalg.norm(frame.holonomy - holonomy(
        frame.conn, frame.loop, 2 * frame.N, coarse=frame)))


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


def _latitudes(su, cu, t):
    """Positions and velocities at the times t on the counterclockwise
    latitude circles with sin u = su and cos u = cu on the unit sphere: su
    and cu are floats, or arrays that broadcast against t, and the samples
    have their broadcast shape + (3,)."""
    w = 2.0 * math.pi
    c, sn = np.cos(w * t), np.sin(w * t)
    x = np.empty(np.broadcast_shapes(np.shape(su), c.shape) + (3,))
    v = np.empty_like(x)
    x[..., 0], x[..., 1], x[..., 2] = su * c, su * sn, cu
    v[..., 0], v[..., 1], v[..., 2] = -w * su * sn, w * su * c, 0.0
    return x, v


def latitude_loop(u):
    """Counterclockwise latitude circle at polar angle u on the unit sphere."""
    su, cu = math.sin(u), math.cos(u)
    return BaseLoop(3, lambda t: _latitudes(su, cu, t))


@dataclass(frozen=True, eq=False)
class LoopFamily:
    """Loops s -> family(s) in R^d that can be sampled many at once.

    `fn(s, t)` takes a tuple s of parameters and a float array t of times
    in [0, 1], of any shape, and returns the positions and velocities of
    every loop at every time, each of shape (len(s),) + t.shape + (d,).
    family(s) is the BaseLoop of row 0 of fn((s,), t), so a family's loops
    are the rows of its sampler by construction.  `family_loops` hands a
    family's loops to transport as one batch that is sampled by one fn call
    per chunk.
    """

    d: int
    fn: object

    def __call__(self, s):
        fn = self.fn
        return BaseLoop(self.d, lambda t: tuple(a[0] for a in fn((s,), t)))


@dataclass(frozen=True, eq=False)
class _FamilyLoops:
    """The loops family(s) for s in `s` (a tuple), as a sequence: an item
    is a BaseLoop, a slice is again a _FamilyLoops, and `xv` samples them
    all."""

    family: LoopFamily
    s: tuple

    @property
    def d(self):
        return self.family.d

    def __len__(self):
        return len(self.s)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _FamilyLoops(self.family, self.s[i])
        return self.family(self.s[i])

    def xv(self, t):
        """Positions and velocities of every loop at the 1-d times t, of
        shape (len(s), len(t), d), bit for bit each loop's own `xv(t)`."""
        t = np.asarray(t, dtype=float)
        return _checked(self.family.fn(self.s, _wrap(t)),
                        (len(self.s),) + t.shape + (self.d,), "family")


def family_loops(family, s):
    """The loops family(x) for x in s, as a batch for `parallel_transport`,
    `holonomy` and `chern_winding`: a LoopFamily's loops are sampled by one
    broadcast call per chunk, any other callable's one loop at a time."""
    if isinstance(family, LoopFamily):
        return _FamilyLoops(family, tuple(s))
    return [family(x) for x in s]


def latitude_family():
    """Latitude circles on the unit sphere, swept from south pole to north.

    family(s) is the counterclockwise latitude circle at polar angle
    u = pi (1 - s), sampled as `latitude_loop(u)` is.  family(1) is the
    constant loop at the north pole; family(0) circles the monopole's Dirac
    string at radius sin(pi) ~ 1.2e-16, where its holonomy e^{-2 pi i q} is
    1, so a holonomy along the family is a closed path in U(1).  Under the
    monopole(q) preset the winding of that path is exactly q.

    The family is a LoopFamily: its sampler takes sin u and cos u per loop
    by `math`, as latitude_loop does, and cos and sin of 2 pi t once for
    all the loops.
    """

    def fn(s, t):
        u = [math.pi * (1.0 - x) for x in s]
        rows = (-1,) + (1,) * np.ndim(t)  # one row per loop, against t
        su = np.array([math.sin(a) for a in u]).reshape(rows)
        cu = np.array([math.cos(a) for a in u]).reshape(rows)
        return _latitudes(su, cu, t)

    return LoopFamily(3, fn)


def chern_winding(conn, family, N=256):
    """(winding of s -> holonomy(family(s)), turns, rho) for a U(1)
    connection, read from the step offsets of family(0.0) and family(1.0),
    transported as one batch (`family_loops`).

    A loop's holonomy is e^{i Phi}, Phi the sum of the principal angles of
    its N step propagators: i times the flux of dA it encloses, continuous
    along a family of loops in the form's chart (the abelian Wilson loop of
    Yu, Qi, Bernevig, Fang and Dai, PRB 84, 075119, 2011).  So the winding
    is turns = (Phi(1) - Phi(0)) / 2 pi, rounded; for a closed family, the
    first Chern number.  Every loop must lie in the chart: the monopole's
    latitude_family()(0.0) circles the Dirac string at radius sin(pi), and
    its Phi(0) = -2 pi q arg R(i theta) / theta carries the charge (R the
    RK4 stability polynomial, theta = 2 pi q / N).  rho = max h |A| over
    both ends; up to rho = pi/2 an RK4 step of a constant form lags by at
    most rho^5 / 120, so the ends lag by lag = N rho^5 / (120 pi) turns.
    PhaseStepTooLarge unless rho <= STEP_RESOLUTION_MAX, |turns - winding|
    <= WINDING_MARGIN and lag + WINDING_MARGIN < 1.
    """
    if conn.n != 1:
        raise ValueError("winding needs a U(1) connection (n = 1)")
    loops, _ = _batch(conn, family_loops(family, (0.0, 1.0)), N)

    def run(chunk):
        D, M = _step_offsets(conn, _samplers(chunk), N)
        return np.angle(1.0 + D[0, 0]).sum(-1), np.abs(M).max()

    parts = _in_chunks(run, loops, N)
    phi = np.concatenate([part for part, _ in parts]).tolist()
    rho = float(max(m for _, m in parts)) / N
    turns = (phi[1] - phi[0]) / (2.0 * math.pi)
    winding = round(turns)
    lag = N * rho ** 5 / (120.0 * math.pi)
    if not (rho <= STEP_RESOLUTION_MAX
            and abs(turns - winding) <= WINDING_MARGIN
            and lag + WINDING_MARGIN < 1.0):
        raise PhaseStepTooLarge(
            f"sweep of {turns:.4f} turns is not resolved at N={N}: step "
            f"resolution {rho:.4f}, RK4 phase lag up to {lag:.4f} turns")
    return winding, turns, rho


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
    if len(rows) < 2:
        raise ValueError("no sample rows")
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != d + 1:
            raise ValueError(f"ragged CSV rows: line {line} has {len(row)} "
                             f"fields, the header {d + 1}")
    data = np.array([[float(c) for c in row] for row in rows[1:]])
    ts, pts = data[:, 0], data[:, 1:]
    M = len(ts)
    # written so that a NaN anywhere in t fails
    if not (np.all(np.diff(ts) > 0) and ts[0] == 0.0 and ts[-1] < 1.0):
        raise ValueError("t column must be sorted in [0, 1) starting at 0")
    if not np.abs(ts - np.arange(M) / M).max() <= 1e-9:
        raise ValueError("t column must be the uniform grid j/M")
    return BaseLoop.from_samples(pts)
