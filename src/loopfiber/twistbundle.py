"""Sections of holonomy-twisted loop bundles and their trivializations.

A twist is a gauge transformation tau sampled on the grid t_i = i/N; a
twisted section is a vector path sigma with the quasi-periodic seam
sigma(t + 1) = tau(t) sigma(t), stored as samples sigma_0 .. sigma_N
together with its twist.  Every section carries the values of its twist,
so its seam can always be checked and it can always be rotated; a plainly
periodic section carries `identity_twist(n, N)`.

For the twist tau(t) = T(t) Hol T(t)^* induced by a transport frame, the
maps here realize the bundle's flat trivialization: `section_from_loop`
sends an ordinary coefficient loop p to sigma(t) = T(t) p(t), and
`phi_inverse` undoes it, p(t) = T(t)^* sigma(t), which is genuinely
periodic and so has a Fourier expansion.  `j_embed` and `j_extend` are the
special cases p = v and p = f v that exhibit the section space as a free
module over scalar loops.
"""

import copy
from dataclasses import dataclass

import numpy as np

from .errors import PeriodicityDefect
from .fourier import (evaluate_grid, from_grid_samples, project_minus,
                      project_plus)
from .loopgroup import (_adjoint, _block_major, _entry_major, _matmul,
                        _stack_defect)

__all__ = [
    "GaugeTwist",
    "identity_twist",
    "holonomy_twist",
    "shifted_twist",
    "TwistedSection",
    "j_embed",
    "j_extend",
    "section_from_loop",
    "module_scale",
    "phi_inverse",
    "fourier_decompose_twisted",
    "rotate",
    "untwisted_comparison",
    "fiber_intertwiner",
]

SEAM_TOL = 1e-7
TWIST_UNITARY_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class GaugeTwist:
    """Unitary twist values tau(t_i) on the grid t_i = i/N, i = 0..N-1.

    tau itself is 1-periodic, so N samples determine it on the grid.
    """

    n: int
    N: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=complex)
        if vals.shape != (self.N, self.n, self.n):
            raise ValueError(
                f"twist values must have shape {(self.N, self.n, self.n)}, "
                f"got {vals.shape}")
        defect = _stack_defect(_entry_major(vals))[0]
        if not (defect <= TWIST_UNITARY_TOL):
            raise ValueError(f"twist values not unitary: defect {defect:.3e}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def identity_twist(n, N):
    vals = np.broadcast_to(np.eye(n, dtype=complex), (N, n, n)).copy()
    return GaugeTwist(n, N, vals)


def holonomy_twist(frame):
    """tau(t_i) = T_i Hol T_i^* from a transport frame."""
    Ts = _entry_major(frame.Ts[:-1])
    vals = _matmul(_matmul(Ts, frame.holonomy), _adjoint(Ts))
    return GaugeTwist(frame.n, frame.N, _block_major(vals))


def _frame_twist(frame):
    """holonomy_twist(frame), built on the first call for a frame and kept
    in the frame's instance dict, as functools.cached_property keeps a
    value: a twist is read-only, so every section over the frame can share
    it."""
    cache = vars(frame)
    if "_holonomy_twist" not in cache:
        cache["_holonomy_twist"] = holonomy_twist(frame)
    return cache["_holonomy_twist"]


def shifted_twist(twist, steps):
    """The twist seen from the loop rotated by steps/N: values rolled.

    The rolled values are the matrices already checked unitary, so the
    twist is copied without its constructor's check.
    """
    vals = np.roll(twist.values, -steps, axis=0)
    vals.setflags(write=False)
    rolled = copy.copy(twist)
    object.__setattr__(rolled, "values", vals)
    return rolled


@dataclass(frozen=True, eq=False)
class TwistedSection:
    """Samples sigma(t_i), i = 0..N, with seam sigma_N = tau(0) sigma_0.

    `twist` is the GaugeTwist tau on the section's own grid.  The seam is
    checked on construction (to 1e-7).
    """

    samples: np.ndarray
    twist: GaugeTwist

    def __post_init__(self):
        arr = np.array(self.samples, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] < 2:
            raise ValueError("samples must have shape (N + 1, n) with N >= 1")
        if not np.isfinite(arr).all():
            raise ValueError("samples must be finite (NaN or inf found)")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)
        _require_match(self.twist, self)
        residual = self.seam_residual()
        if not (residual <= SEAM_TOL):
            raise PeriodicityDefect(residual)

    @property
    def N(self):
        return self.samples.shape[0] - 1

    @property
    def n(self):
        return self.samples.shape[1]

    def seam_residual(self):
        """||sigma_N - tau(0) sigma_0||."""
        tau0 = self.twist.values[0]
        return float(np.linalg.norm(self.samples[-1] - tau0 @ self.samples[0]))


def _require_match(a, b):
    """Refuse two grids (frames, sections or twists) that differ in N or n."""
    if (a.N, a.n) != (b.N, b.n):
        raise ValueError(f"grid (N={a.N}, n={a.n}) does not match "
                         f"grid (N={b.N}, n={b.n})")


def _closed_grid(loop, N):
    """Values of a loop at t_i = i/N, i = 0..N; the last repeats the first,
    so a section built from them keeps its seam exact."""
    vals = evaluate_grid(loop, N)
    return np.vstack([vals, vals[:1]])


def j_embed(frame, v):
    """The twisted section sigma(t) = T(t) v of a fiber vector v."""
    v = np.asarray(v, dtype=complex)
    if v.shape != (frame.n,):
        raise ValueError(f"fiber vector must have shape ({frame.n},)")
    samples = np.einsum("tij,j->ti", frame.Ts, v)
    return TwistedSection(samples, _frame_twist(frame))


def j_extend(frame, f, v):
    """sigma(t) = f(t) T(t) v for a scalar loop f: the module structure."""
    if f.n != 1:
        raise ValueError(f"scalar loop must have n=1, got n={f.n}")
    v = np.asarray(v, dtype=complex)
    samples = _closed_grid(f, frame.N) * np.einsum("tij,j->ti", frame.Ts, v)
    return TwistedSection(samples, _frame_twist(frame))


def section_from_loop(frame, p):
    """Trivialization inverse: the section sigma(t) = T(t) p(t).

    Generalizes j_embed (constant p) and j_extend (p = f v); every twisted
    section over the frame arises this way.
    """
    if p.n != frame.n:
        raise ValueError(f"loop dimension {p.n} != fiber dimension {frame.n}")
    samples = np.einsum("tij,tj->ti", frame.Ts, _closed_grid(p, frame.N))
    return TwistedSection(samples, _frame_twist(frame))


def module_scale(f, section):
    """Multiply a section pointwise by a scalar loop, twist unchanged."""
    if f.n != 1:
        raise ValueError(f"scalar loop must have n=1, got n={f.n}")
    return TwistedSection(_closed_grid(f, section.N) * section.samples,
                          section.twist)


def phi_inverse(frame, section):
    """Untwist a section into an ordinary loop: p(t) = T(t)^* sigma(t).

    For a section quasi-periodic under the frame's own holonomy twist, p is
    1-periodic; its first N samples determine the coefficient loop on the
    band [-N/2, N/2 - 1].  The periodicity residual ||p_N - p_0|| is
    enforced (1e-7): a section under another twist is refused.
    """
    _require_match(frame, section)
    p = np.einsum("tji,tj->ti", frame.Ts.conj(), section.samples)
    residual = float(np.linalg.norm(p[-1] - p[0]))
    if not (residual <= SEAM_TOL):
        raise PeriodicityDefect(residual)
    return from_grid_samples(p[:-1])


def fourier_decompose_twisted(frame, section):
    """Split a twisted section into nonnegative and negative frequency parts.

    Returns (plus, minus): untwist, split the coefficient loop at frequency
    zero, and re-twist each part.  Their samples sum back to the section.
    """
    p = phi_inverse(frame, section)
    return (section_from_loop(frame, project_plus(p)),
            section_from_loop(frame, project_minus(p)))


def rotate(section, steps):
    """The section shifted by steps/N: sigma'(t) = sigma(t + steps/N).

    Samples beyond the stored window are continued through the seam rule
    sigma(t + 1) = tau(t) sigma(t).  The result carries the correspondingly
    shifted twist.  |steps| must not exceed N.
    """
    N = section.N
    if not -N <= steps <= N:
        raise ValueError(f"|steps| must be <= {N}")
    tau = section.twist.values
    old = section.samples
    if steps >= 0:  # sigma_{N + j} = tau(j) sigma_j for j = 1..steps
        js = np.arange(1, steps + 1)
        above = (tau[js % N] @ old[js, :, None])[..., 0]
        new = np.concatenate([old[steps:], above])
    else:  # sigma_j = tau(j)^* sigma_{N + j} for j = steps..-1
        js = np.arange(steps, 0)
        below = (np.swapaxes(tau[js % N].conj(), -1, -2)
                 @ old[js + N, :, None])[..., 0]
        new = np.concatenate([below, old[:N + 1 + steps]])
    return TwistedSection(new, shifted_twist(section.twist, steps))


def untwisted_comparison(frame0, frame1):
    """Grid comparison maps H(t_i) = T1(t_i)^* T0(t_i), shape (N+1, n, n).

    Each H(t_i) is unitary.  H is 1-periodic only when the two holonomies
    agree: the seam gap ||H_N - H_0|| equals ||Hol1 - Hol0||, which is the
    obstruction to comparing the two twisted bundles by a plain loop map.
    """
    _require_match(frame0, frame1)
    T0, T1 = _entry_major(frame0.Ts), _entry_major(frame1.Ts)
    return _block_major(_matmul(_adjoint(T1), T0))


def fiber_intertwiner(frame0, frame1):
    """G(t_i) = T1(t_i) T0(t_i)^*, intertwining the two twists.

    Continued through the seam (G(t + 1) = T1 Hol1 (T0 Hol0)^*), it
    satisfies G(t + 1) tau0(t) = tau1(t) G(t).
    """
    _require_match(frame0, frame1)
    T0, T1 = _entry_major(frame0.Ts), _entry_major(frame1.Ts)
    return _block_major(_matmul(T1, _adjoint(T0)))

