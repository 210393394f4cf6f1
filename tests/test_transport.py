"""Transport and holonomy tests against closed-form references.

Each oracle here is computed analytically and frozen, independently of the
implementation: planar flux phases by Stokes, sphere holonomies by enclosed
solid angle, the small-loop expansion from a hand-computed curvature.
"""

import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from loopfiber import transport
from loopfiber.errors import NonAntiHermitianSample, PhaseStepTooLarge
from loopfiber.loopgroup import _block_major, _entry_major, _polar
from loopfiber.transport import (
    BaseLoop,
    ConnectionSpec,
    TransportFrame,
    _prefix_products,
    _step_offsets,
    _transport_chain,
    _tree_product,
    abelian2d,
    chern_sweep,
    flat,
    holonomy,
    latitude_family,
    load_loop_csv,
    monopole,
    parallel_transport,
    refinement_delta,
    rotated_twist,
    save_loop_csv,
    su2sample,
    su2sample_curvature,
    transport_reversed,
)

S1 = np.array([[0, 1], [1, 0]], dtype=complex)
S2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
S3 = np.array([[1, 0], [0, -1]], dtype=complex)


def u1_distance(h, exact):
    # distance between phases, insensitive to 2 pi wrapping
    return abs(np.angle(complex(h) * np.conj(complex(exact))))


def latitude_loop(u):
    su, cu = math.sin(u), math.cos(u)
    w = 2.0 * math.pi

    def fn(t):
        c, s = np.cos(w * t), np.sin(w * t)
        return (np.stack([su * c, su * s, np.full_like(c, cu)], axis=-1),
                np.stack([-w * su * s, w * su * c, np.zeros_like(c)], axis=-1))

    return BaseLoop(3, fn)


class TestBaseLoop:
    def test_circle_points(self):
        loop = BaseLoop.circle(2.0, center=(1.0, -1.0))
        assert np.allclose(loop.point(0.0), [3.0, -1.0])
        assert np.allclose(loop.point(0.25), [1.0, 1.0])
        x, v = loop.xv(0.0)
        assert np.allclose(v, [0.0, 4.0 * math.pi])

    def test_open_curve_rejected(self):
        with pytest.raises(ValueError, match="does not close"):
            BaseLoop.from_function(2, lambda t: (
                np.stack([t, np.zeros_like(t)], axis=-1),
                np.stack([np.ones_like(t), np.zeros_like(t)], axis=-1)))

    def test_rotation_shifts_parameter(self):
        loop = BaseLoop.circle(1.0)
        rot = loop.rotated(0.3)
        for t in [0.0, 0.41, 0.9]:
            assert np.allclose(rot.point(t), loop.point(t + 0.3))

    def test_from_samples_interpolates_nodes(self):
        base = BaseLoop.circle(1.0)
        M = 128
        pts = np.array([base.point(j / M) for j in range(M)])
        loop = BaseLoop.from_samples(pts)
        for j in [0, 17, 127]:
            assert np.allclose(loop.point(j / M), pts[j], atol=1e-12)
        # midpoints: cubic accuracy on a smooth curve
        assert np.allclose(loop.point(0.5 / M), base.point(0.5 / M), atol=1e-6)


class TestSpline:
    """`BaseLoop.from_samples` against closed forms and against scipy."""

    @pytest.mark.parametrize("M, k", [(4, 1), (7, 2), (37, 5), (64, 3),
                                      (512, 100)])
    def test_cosine_samples_closed_form(self, M, k):
        # for y_j = cos(j theta) the circulant system is diagonal: c_j is
        # lam y_j, so the spline is known in closed form between the nodes
        theta = 2.0 * math.pi * k / M
        lam = (2.0 * math.cos(theta) - 2.0) / (4.0 + 2.0 * math.cos(theta))
        j = np.arange(M)
        y = np.cos(2.0 * math.pi * (k * j % M) / M)  # argument reduced exactly
        y1 = np.roll(y, -1)
        loop = BaseLoop.from_samples(y[:, None])
        mid = loop.point((j + 0.5) / M)[:, 0]
        assert np.abs(mid - (0.5 - 3.0 * lam / 8.0) * (y + y1)).max() <= 1e-14
        _, v = loop.xv(j / M)
        slope = M * ((y1 - y) - 2.0 * lam * y - lam * y1)
        assert np.abs(v[:, 0] - slope).max() <= 1e-14 * M

    @pytest.mark.parametrize("M", [4, 5, 37, 64, 1000])
    def test_matches_scipy_cubic_spline(self, M):
        interpolate = pytest.importorskip("scipy.interpolate")
        pts = np.random.default_rng(M).normal(size=(M, 3))
        spline = interpolate.CubicSpline(
            np.linspace(0.0, 1.0, M + 1), np.vstack([pts, pts[:1]]), axis=0,
            bc_type="periodic")
        t = np.concatenate([np.arange(M + 1) / M,
                            np.random.default_rng(0).random(2000)])
        x, v = BaseLoop.from_samples(pts).xv(t)
        for got, want in [(x, spline(t)), (v, spline.derivative()(t))]:
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestFlux:
    """Plane with uniform curvature B: holonomy phase equals the flux."""

    @pytest.mark.parametrize("B", [1.0, 2.5])
    @pytest.mark.parametrize("r", [0.5, 1.0, 1.5])
    def test_circle_flux_phase(self, B, r):
        h = holonomy(abelian2d(B), BaseLoop.circle(r), N=2048)[0, 0]
        exact = np.exp(1j * B * math.pi * r * r)
        assert abs(abs(h) - 1.0) < 1e-12
        assert u1_distance(h, exact) < 1e-8

    def test_flux_independent_of_center(self):
        # uniform curvature: only enclosed area matters
        conn = abelian2d(1.0)
        h = holonomy(conn, BaseLoop.circle(0.8, center=(2.0, -3.0)), N=2048)[0, 0]
        assert u1_distance(h, np.exp(1j * math.pi * 0.64)) < 1e-8

    def test_flat_transport_is_identity(self):
        frame = parallel_transport(flat(n=2), BaseLoop.circle(1.0), N=64)
        assert np.allclose(frame.holonomy, np.eye(2), atol=1e-14)
        assert frame.raw_defect < 1e-14
        assert frame.Ts.shape == (65, 2, 2)

    def test_rk4_fourth_order_on_raw_chain(self):
        conn = abelian2d(1.0)
        loop = BaseLoop.circle(1.0)
        exact = np.exp(1j * math.pi)
        errs = []
        for N in (256, 512):
            raw = parallel_transport(conn, loop, N=N).raw_holonomy[0, 0]
            errs.append(abs(raw - exact))
        ratio = errs[0] / errs[1]
        assert 12.0 < ratio < 20.0

    def test_refinement_delta_small(self):
        delta = refinement_delta(abelian2d(1.0), BaseLoop.circle(1.0), N=512)
        assert delta < 1e-10


class TestMonopole:
    def test_latitude_holonomy_solid_angle(self):
        for q in (1, 2):
            conn = monopole(q)
            for u in (math.pi / 3, math.pi / 2, 2 * math.pi / 3):
                h = holonomy(conn, latitude_loop(u), N=2048)[0, 0]
                exact = np.exp(-1j * q * math.pi * (1.0 - math.cos(u)))
                assert u1_distance(h, exact) < 1e-8

    def test_constant_loop_at_pole(self):
        north = BaseLoop.from_function(
            3, lambda t: (np.zeros(t.shape + (3,)) + [0.0, 0.0, 1.0],
                          np.zeros(t.shape + (3,))))
        h = holonomy(monopole(1), north, N=16)[0, 0]
        assert abs(h - 1.0) < 1e-14

    def test_form_vanishes_on_pole_loop(self):
        # the north pole loop of the latitude family is exactly constant: no
        # d phi term, and the masked divide must not touch rho2 = 0 there
        # (no warning)
        conn = monopole(1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            A = conn.form(*latitude_family()(1.0).xv(np.linspace(0.0, 1.0, 9)))
            assert A.shape == (9, 1, 1)
            assert np.all(A == 0.0)
            # an equatorial node in the same batch is not masked
            x = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
            v = np.array([[0.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.0]])
            A = conn.form(x, v)[:, 0, 0]
        # (i q / 2)(1 - cos u) d phi with q = 1, cos u = 0, d phi = 2
        assert list(A) == [0.0, 1j, 0.0]

    @pytest.mark.parametrize("q", [1, 2, -1])
    def test_family_winding_equals_charge(self, q):
        assert chern_sweep(monopole(q), latitude_family())[0] == q

    def test_flat_family_winding_zero(self):
        fam = latitude_family()

        def flat3_family(s):
            return fam(s)

        conn = ConnectionSpec(1, 3, lambda x, v: np.zeros(x.shape[:-1] + (1, 1)),
                              name="flat3")
        assert chern_sweep(conn, flat3_family, N=32, M=16)[0] == 0

    def test_winding_rejects_matrix_connection(self):
        with pytest.raises(ValueError, match="n = 1"):
            chern_sweep(su2sample(), latitude_family())[0]

    def test_unresolvable_family_raises(self):
        # discontinuous family: a 0.9 pi phase jump survives every
        # refinement, so the sweep must refuse rather than alias
        conn = abelian2d(1.2)

        def family(s):
            return BaseLoop.circle(0.5 if s < 0.5 else 1.0)

        with pytest.raises(PhaseStepTooLarge):
            chern_sweep(conn, family, N=64, M=8, max_family_grid=64)[0]


class TestSu2:
    def test_curvature_helper_matches_frozen_matrix(self):
        # hand-derived at x = (0.7, -0.4):
        #   F = i(-0.164 s1 + 0.0788 s2 - 0.44 s3)
        F = su2sample_curvature(np.array([0.7, -0.4]))
        frozen = 1j * (-0.164 * S1 + 0.0788 * S2 - 0.44 * S3)
        assert np.allclose(F, frozen, atol=1e-15)

    def test_small_circle_expansion(self):
        # Hol(circle of radius eps at x0) = I - pi eps^2 F(x0) + O(eps^3)
        conn = su2sample()
        x0 = np.array([0.7, -0.4])
        F = 1j * (-0.164 * S1 + 0.0788 * S2 - 0.44 * S3)
        errs = []
        for eps in (0.2, 0.1, 0.05):
            h = holonomy(conn, BaseLoop.circle(eps, center=tuple(x0)), N=256)
            errs.append(np.linalg.norm(h - (np.eye(2) - math.pi * eps * eps * F)))
        # third-order remainder: log-log slope across the three radii
        slope = np.polyfit(np.log([0.2, 0.1, 0.05]), np.log(errs), 1)[0]
        assert slope > 2.7, (slope, errs)
        assert errs[2] < 2e-3, errs

    def test_form_assembled_from_pauli_coefficients(self):
        # the 8193 nodes of `holonomy --preset su2sample --N 2048`'s 2N run
        x, v = BaseLoop.circle(1.0).xv(np.linspace(0.0, 1.0, 8193))
        x0, x1 = x[..., 0, None, None], x[..., 1, None, None]
        v0, v1 = v[..., 0, None, None], v[..., 1, None, None]
        A0 = 1j * (0.3 * S1 + 0.2 * x1 * S3)
        A1 = 1j * (0.4 * S2 - 0.1 * x0 * S1 + 0.15 * S3)
        form = su2sample().form
        assert np.array_equal(form(x, v), v0 * A0 + v1 * A1)
        tracemalloc.start()
        try:
            A = form(x, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * A.nbytes, (peak, A.nbytes)

    def test_holonomy_unitary(self):
        frame = parallel_transport(su2sample(), BaseLoop.circle(1.3), N=512)
        h = frame.holonomy
        assert np.linalg.norm(h.conj().T @ h - np.eye(2)) < 1e-12
        assert frame.unitarity_defect() < 1e-12
        assert frame.raw_defect < 1e-9


class TestSegments:
    def test_composition_of_partial_transports(self):
        conn = su2sample()
        loop = BaseLoop.circle(1.3, center=(0.2, -0.1))
        frame = parallel_transport(conn, loop, N=512)
        first, _ = _transport_chain(conn, loop.xv, 0.0, 0.5, 256)
        second, _ = _transport_chain(conn, loop.xv, 0.5, 1.0, 256)
        assert np.linalg.norm(second[-1] @ first[-1] - frame.holonomy) < 1e-8
        assert np.linalg.norm(first[-1] - frame.Ts[256]) < 1e-10

    @pytest.mark.parametrize("t", [0.25, 0.5, 0.75])
    def test_reversed_partial_path_inverts(self, t):
        conn = su2sample()
        loop = BaseLoop.circle(1.3)
        frame = parallel_transport(conn, loop, N=512)
        V = transport_reversed(conn, loop, t, N=512)
        T = frame.Ts[int(round(t * 512))]
        assert np.linalg.norm(V - T.conj().T) < 1e-8

    def test_reversed_whole_loop_inverts_holonomy(self):
        conn = su2sample()
        loop = BaseLoop.circle(1.3)
        h = holonomy(conn, loop, N=512)
        hrev = transport_reversed(conn, loop, 1.0, N=512)
        assert np.linalg.norm(hrev - h.conj().T) < 1e-8


class TestRotatedTwist:
    def test_matches_holonomy_of_rotated_loop(self):
        conn = su2sample()
        loop = BaseLoop.circle(1.1, center=(0.3, 0.0))
        frame = parallel_transport(conn, loop, N=512)
        for t in (0.25, 0.625):
            tau = rotated_twist(frame, t)
            direct = holonomy(conn, loop.rotated(t), N=512)
            assert np.linalg.norm(tau - direct) < 1e-7

    def test_off_grid_rejected(self):
        frame = parallel_transport(flat(n=1), BaseLoop.circle(1.0), N=100)
        with pytest.raises(ValueError, match="grid"):
            rotated_twist(frame, 1.0 / 3.0)
        assert np.allclose(rotated_twist(frame, 0.13), np.eye(1))

    def test_endpoints_give_holonomy(self):
        frame = parallel_transport(su2sample(), BaseLoop.circle(1.0), N=64)
        assert np.allclose(rotated_twist(frame, 0.0), frame.holonomy)
        hol = frame.holonomy
        conj = hol @ hol @ hol.conj().T
        assert np.allclose(rotated_twist(frame, 1.0), conj)


class TestValidation:
    def test_hermitian_sample_rejected(self):
        bad = ConnectionSpec(2, 2, lambda x, v: v[..., 0, None, None] * S3,
                             name="bad")
        with pytest.raises(NonAntiHermitianSample) as info:
            parallel_transport(bad, BaseLoop.circle(1.0), N=16)
        assert info.value.defect > 1.0

    def test_scalar_hermitian_sample_rejected(self):
        bad = ConnectionSpec(1, 2, lambda x, v: v[..., 0, None, None],
                             name="bad")
        with pytest.raises(NonAntiHermitianSample):
            holonomy(bad, BaseLoop.circle(1.0), N=16)

    def test_dimension_mismatch(self):
        for run in (parallel_transport, holonomy):
            with pytest.raises(ValueError, match="dimension mismatch"):
                run(abelian2d(1.0), latitude_loop(1.0))

    @pytest.mark.parametrize("n", [1, 2])
    def test_nan_sample_rejected_at_its_node(self, n):
        # NaN on the lower half of the unit circle; on the N=16 grid the
        # first half-step node there is t = 17/32
        def form(x, v):
            lower = (x[..., 1] < 0)[..., None, None]
            return np.where(lower, np.nan, 0.0) * np.ones((n, n), dtype=complex)

        with pytest.raises(NonAntiHermitianSample) as info:
            holonomy(ConnectionSpec(n, 2, form), BaseLoop.circle(1.0), N=16)
        assert info.value.t == 17 / 32

    def test_inf_sample_rejected(self):
        bad = ConnectionSpec(
            1, 2, lambda x, v: np.full(x.shape[:-1] + (1, 1), 1j * np.inf))
        with pytest.raises(NonAntiHermitianSample):
            parallel_transport(bad, BaseLoop.circle(1.0), N=16)

    @pytest.mark.parametrize("n, shape", [(1, (2, 2)), (2, (1, 1))])
    def test_wrong_sample_shape_rejected(self, n, shape):
        bad = ConnectionSpec(
            n, 2, lambda x, v: np.zeros(x.shape[:-1] + shape, dtype=complex))
        with pytest.raises(ValueError, match=rf"expected \(33, {n}, {n}\)"):
            holonomy(bad, BaseLoop.circle(1.0), N=16)

    @pytest.mark.parametrize("run", [parallel_transport, holonomy])
    @pytest.mark.parametrize("n", [1, 2])
    def test_per_point_form_rejected(self, run, n):
        # a form written for one point returns (n, n) for the whole batch
        per_point = ConnectionSpec(
            n, 2, lambda x, v: np.zeros((n, n), dtype=complex))
        with pytest.raises(ValueError,
                           match=rf"shape \({n}, {n}\), expected \(33, {n}, {n}\)"):
            run(per_point, BaseLoop.circle(1.0), N=16)

    def test_misshapen_loop_samples_rejected(self):
        # a loop written for one point returns (d,) for the whole batch
        loop = BaseLoop(2, lambda t: (np.array([1.0, 0.0]), np.zeros(2)))
        with pytest.raises(ValueError, match=r"expected \(33, 2\)"):
            holonomy(flat(n=1), loop, N=16)


def sequential_transport(conn, loop, N):
    """Reference: RK4 step by step, polar re-unitarization after each."""
    I = np.eye(conn.n, dtype=complex)
    Ts, R, h = [I], I, 1.0 / N

    def step(Y, t):
        M0, Mh, M1 = (-np.asarray(conn.form(*loop.xv(np.array([s]))),
                                  dtype=complex)[0]
                      for s in (t, t + 0.5 * h, t + h))
        k1 = M0 @ Y
        k2 = Mh @ (Y + (0.5 * h) * k1)
        k3 = Mh @ (Y + (0.5 * h) * k2)
        k4 = M1 @ (Y + h * k3)
        return Y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    for i in range(N):
        R = step(R, i * h)
        U, _, Vh = np.linalg.svd(step(Ts[-1], i * h))
        Ts.append(U @ Vh)
    return np.array(Ts), R


def constant_generator(K):
    """The form A = K (x dy - y dx) for a constant anti-Hermitian K."""
    K = np.asarray(K, dtype=complex)

    def form(x, v):
        num = x[..., 0] * v[..., 1] - x[..., 1] * v[..., 0]
        return num[..., None, None] * K

    return ConnectionSpec(len(K), 2, form, name=f"constant-n{len(K)}")


def anti_hermitian(n, seed):
    Z = np.random.default_rng(seed).standard_normal((n, 2 * n)).view(complex)
    return 0.5 * (Z - Z.conj().T)


def constant_generator_holonomy(K, r):
    """exp(-2 pi r^2 K), the holonomy of A = K (x dy - y dx) on the
    counterclockwise radius-r circle: A there is the constant K 2 pi r^2 dt,
    so all its values commute.  With i K = V diag(lam) V^H Hermitian,
    exp(-2 pi r^2 K) = V diag(exp(2 pi i r^2 lam)) V^H."""
    lam, V = np.linalg.eigh(1j * K)
    return (V * np.exp(2j * math.pi * r * r * lam)) @ V.conj().T


REFERENCE_CASES = {
    "su2sample": (su2sample(), BaseLoop.circle(1.3, center=(0.2, -0.1))),
    "abelian2d": (abelian2d(1.7), BaseLoop.circle(0.9)),
    "monopole": (monopole(2), latitude_loop(1.1)),
}
# fiber dimensions on both sides of loopgroup.MATMUL_ENTRYWISE_MAX, with
# holonomy phases of about 2 pi
CONSTANT_CASES = {
    "constant-n3": (constant_generator(anti_hermitian(3, 3)),
                    BaseLoop.circle(0.5)),
    "constant-n5": (constant_generator(anti_hermitian(5, 5)),
                    BaseLoop.circle(0.6)),
}
ALL_CASES = {**REFERENCE_CASES, **CONSTANT_CASES}


class TestConstantGenerator:
    """A = K (x dy - y dx) on a circle: a closed form for every n."""

    def test_n1_is_abelian2d_stokes_convention(self):
        # K = -i B / 2 is abelian2d's form, whose circle holonomy is the
        # flux phase exp(+i B pi r^2)
        B, r = 1.7, 0.9
        K = np.array([[-0.5j * B]])
        exact = constant_generator_holonomy(K, r)
        assert abs(exact[0, 0] - np.exp(1j * B * math.pi * r * r)) < 1e-15
        loop = BaseLoop.circle(r)
        h = holonomy(constant_generator(K), loop, N=1024)
        assert np.array_equal(h, holonomy(abelian2d(B), loop, N=1024))
        assert np.abs(h - exact).max() < 1e-10

    @pytest.mark.parametrize("name", sorted(CONSTANT_CASES))
    def test_holonomy_matches_closed_form(self, name):
        conn, loop = CONSTANT_CASES[name]
        K = conn.form(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        r = float(np.linalg.norm(loop.point(0.0)))
        exact = constant_generator_holonomy(K, r)
        assert np.abs(holonomy(conn, loop, N=2048) - exact).max() < 1e-10
        # a coarse grid misses it by RK4's error, so the oracle is not vacuous
        assert np.abs(holonomy(conn, loop, N=16) - exact).max() > 1e-8


class TestBatchedTransport:
    """The batched propagator pipeline against the step-by-step reference."""

    @pytest.mark.parametrize("name", sorted(ALL_CASES))
    def test_matches_sequential_reference(self, name):
        conn, loop = ALL_CASES[name]
        Ts, R = sequential_transport(conn, loop, 1024)
        frame = parallel_transport(conn, loop, N=1024)
        assert np.abs(frame.Ts - Ts).max() < 1e-12
        assert np.abs(frame.raw_holonomy - R).max() < 1e-12

    @pytest.mark.parametrize("name", sorted(ALL_CASES))
    def test_frames_unitary_at_fine_grid(self, name):
        conn, loop = ALL_CASES[name]
        assert parallel_transport(conn, loop, N=8192).unitarity_defect() < 1e-13

    def test_form_sampled_once_per_half_step_node(self):
        conn, loop = REFERENCE_CASES["su2sample"]
        calls = []

        def counted(x, v):
            calls.append(x.shape)
            return conn.form(x, v)

        spec = ConnectionSpec(conn.n, conn.d, counted)
        for run in (parallel_transport, holonomy):
            for N in (1, 64):
                calls.clear()
                run(spec, loop, N=N)
                assert calls == [(2 * N + 1, conn.d)]

    @pytest.mark.parametrize("name", sorted(ALL_CASES))
    @pytest.mark.parametrize("N", [1, 7, 1024])
    def test_tree_holonomy_matches_frame(self, name, N):
        conn, loop = ALL_CASES[name]
        frame = parallel_transport(conn, loop, N=N)
        assert np.array_equal(holonomy(conn, loop, N=N), frame.holonomy)


class TestKernels:
    """The step polar and the scan behind every transport."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
    @pytest.mark.parametrize("N", [256, 2048])
    def test_step_polars_match_svd(self, name, N):
        conn, loop = REFERENCE_CASES[name]
        P = np.eye(conn.n) + _block_major(
            _step_offsets(conn, loop.xv, 0.0, 1.0, N))
        U, _, Vh = np.linalg.svd(P)
        Q = _block_major(_polar(_entry_major(P)))
        assert np.abs(Q - U @ Vh).max() < 1e-15

    @pytest.mark.parametrize("length", range(1, 41))
    def test_scan_matches_sequential_product(self, length):
        rng = np.random.default_rng(length)
        E = 0.1 * (rng.standard_normal((length, 2, 2))
                   + 1j * rng.standard_normal((length, 2, 2)))
        C = _block_major(_prefix_products(_entry_major(E)))
        P = np.eye(2)
        for i in range(length):
            P = (np.eye(2) + E[i]) @ P
            assert np.abs(np.eye(2) + C[i] - P).max() < 1e-13
        assert np.array_equal(C[-1], _tree_product(_entry_major(E)))

    def test_su2_transport_runs_without_svd(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("SVD called on the su2sample transport path")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        conn, loop = su2sample(), BaseLoop.circle(1.3)
        frame = parallel_transport(conn, loop, N=2048)
        assert np.array_equal(holonomy(conn, loop, N=2048), frame.holonomy)
        assert frame.unitarity_defect() < 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_overflowing_step_raises(self, n):
        # finite anti-Hermitian samples whose products overflow: the step
        # check must see the inf and NaN the stacked products make
        K = 1e200j * np.diag(np.arange(1.0, n + 1.0))
        conn = constant_generator(K)
        with pytest.raises(ValueError, match=r"not finite \(N=16\)"):
            _step_offsets(conn, BaseLoop.circle(1.0).xv, 0.0, 1.0, 16)

    def test_raw_chain_built_only_when_read(self, monkeypatch):
        calls = []

        def counted(E):
            calls.append(E.shape[-1])
            return _prefix_products(E)

        monkeypatch.setattr(transport, "_prefix_products", counted)
        frame = parallel_transport(su2sample(), BaseLoop.circle(1.3), N=64)
        assert calls.count(64) == 1  # the frame's own scan, no raw chain
        for _ in range(2):
            assert frame.raw_defect < 1e-6
            assert frame.raw_holonomy.shape == (2, 2)
        assert calls.count(64) == 2  # one raw-chain scan, then cached


class TestCsv:
    def test_roundtrip_preserves_holonomy(self, tmp_path):
        loop = BaseLoop.circle(1.0)
        path = os.path.join(tmp_path, "circle.csv")
        save_loop_csv(loop, path, M=512)
        back = load_loop_csv(path)
        h0 = holonomy(abelian2d(1.0), loop, N=1024)[0, 0]
        h1 = holonomy(abelian2d(1.0), back, N=1024)[0, 0]
        assert u1_distance(h0, h1) < 1e-6

    def test_nodes_exact(self, tmp_path):
        loop = BaseLoop.circle(0.7, center=(0.1, 0.2))
        path = os.path.join(tmp_path, "c.csv")
        save_loop_csv(loop, path, M=64)
        back = load_loop_csv(path)
        assert np.allclose(back.point(5 / 64), loop.point(5 / 64), atol=1e-12)

    def test_bad_header_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "bad.csv")
        with open(path, "w") as fh:
            fh.write("time,x1\n0.0,1.0\n")
        with pytest.raises(ValueError, match="header"):
            load_loop_csv(path)

    @pytest.mark.parametrize("row", [0, 3, 7])
    def test_nan_t_rejected(self, tmp_path, row):
        # every check of the t column must fail on NaN, wherever it sits
        path = os.path.join(tmp_path, "nan_t.csv")
        with open(path, "w") as fh:
            fh.write("t,x1,x2\n")
            for j in range(8):
                t = "nan" if j == row else repr(j / 8)
                fh.write(f"{t},{math.cos(j * math.pi / 4)!r},"
                         f"{math.sin(j * math.pi / 4)!r}\n")
        with pytest.raises(ValueError, match="t column"):
            load_loop_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_coordinate_rejected(self, tmp_path, value):
        path = os.path.join(tmp_path, "bad_x.csv")
        with open(path, "w") as fh:
            fh.write("t,x1,x2\n")
            for j in range(8):
                x2 = value if j == 3 else repr(math.sin(j * math.pi / 4))
                fh.write(f"{j / 8!r},{math.cos(j * math.pi / 4)!r},{x2}\n")
        with pytest.raises(ValueError, match="finite"):
            load_loop_csv(path)

    def test_nonuniform_grid_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "bad.csv")
        with open(path, "w") as fh:
            fh.write("t,x1,x2\n")
            for t in [0.0, 0.3, 0.5, 0.75]:
                fh.write(f"{t},1.0,0.0\n")
        with pytest.raises(ValueError, match="uniform"):
            load_loop_csv(path)

