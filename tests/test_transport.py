"""Transport and holonomy tests against closed-form references.

Each oracle here is computed analytically and frozen, independently of the
implementation: planar flux phases by Stokes, sphere holonomies by enclosed
solid angle, the small-loop expansion from a hand-computed curvature.
"""

import math
import os
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from loopfiber import transport
from loopfiber.errors import NonAntiHermitianSample, PhaseStepTooLarge
from loopfiber.loopgroup import _block_major, _entry_major, _polar
from loopfiber.transport import (
    BaseLoop,
    ConnectionSpec,
    LoopFamily,
    TransportFrame,
    _prefix_products,
    _step_offsets,
    _tree_product,
    abelian2d,
    chern_winding,
    family_loops,
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
    transport_reversed,
)

from util import (S1, S2, S3, constant_generator, exp_gauge,
                  gauge_transformed, loop_from_function, pauli_gauge,
                  su2sample_curvature)


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
            loop_from_function(2, lambda t: (
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

    def test_overflowing_spline_rejected(self):
        # finite points whose second differences overflow; warnings become
        # errors, so the refusal comes without a numpy warning
        pts = [[0.0, 0.0], [1e308, 0.0], [0.0, 1e308], [-1e308, 0.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="spline .* is not finite"):
                BaseLoop.from_samples(pts)


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
        frame = parallel_transport(abelian2d(1.0), BaseLoop.circle(1.0), N=512)
        delta = refinement_delta(frame)
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
        north = loop_from_function(
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
        assert chern_winding(monopole(q), latitude_family())[0] == q

    def test_flat_family_winding_zero(self):
        fam = latitude_family()

        def flat3_family(s):
            return fam(s)

        conn = ConnectionSpec(1, 3, lambda x, v: np.zeros(x.shape[:-1] + (1, 1)),
                              name="flat3")
        assert chern_winding(conn, flat3_family, N=32)[0] == 0

    def test_winding_rejects_matrix_connection(self):
        with pytest.raises(ValueError, match="n = 1"):
            chern_winding(su2sample(), latitude_family())

    def test_unresolvable_family_raises(self):
        # discontinuous family: the end circles of radius 0.5 and 1 enclose
        # the fluxes 0.3 pi and 1.2 pi, so the transports read 0.45 turns,
        # far from any whole number, and the winding must refuse rather
        # than round
        conn = abelian2d(1.2)

        def family(s):
            return BaseLoop.circle(0.5 if s < 0.5 else 1.0)

        with pytest.raises(PhaseStepTooLarge, match=r"sweep of 0\.4500 turns"):
            chern_winding(conn, family, N=64)

    def test_winding_reads_only_the_end_loops(self, monkeypatch):
        # the winding samples the loops s = 0 and 1 once each, on their
        # 2N + 1 half-step nodes, in one form call on both, and builds no
        # frame or holonomy
        fam, sampled, nodes = latitude_family(), [], []
        conn = monopole(3)

        def family(s):
            loop = fam(s)

            def fn(t):
                sampled.append((s, len(t)))
                return loop.fn(t)

            return BaseLoop(loop.d, fn)

        def form(x, v):
            nodes.append(len(x))
            return conn.form(x, v)

        for run in ("parallel_transport", "holonomy"):
            monkeypatch.setattr(transport, run, None)
        winding, _, _ = chern_winding(ConnectionSpec(1, 3, form), family,
                                      N=64)
        assert winding == 3
        assert sampled == [(0.0, 129), (1.0, 129)] and nodes == [258]

    def test_winding_raises_its_first_failing_end(self):
        # the form overflows RK4's products on family(0.0), below the
        # equator, and is NaN on family(1.0): the NaN samples fail the
        # batch first, but the winding raises what family(0.0) raises alone
        fam = latitude_family()

        def form(x, v):
            south = (x[..., 2] < 0.0)[..., None, None]
            return np.where(south, 1e200j, np.nan) * np.ones((1, 1))

        spec = ConnectionSpec(1, 3, form)
        with pytest.raises(ValueError) as alone:
            holonomy(spec, fam(0.0), N=64)
        assert "not finite" in str(alone.value)
        with pytest.raises(ValueError) as info:
            chern_winding(spec, fam, N=64)
        assert type(info.value) is type(alone.value)
        assert str(info.value) == str(alone.value)

    def test_aliased_sweep_confirmed_on_finer_grids(self):
        # at q = 2 the holonomy exp(-i q pi (1 + cos pi s)) is 1 at s = 0,
        # 1/2 and 1, so three samples of the family alias to a winding of
        # 0; the transports' own phases still read 2
        fam = latitude_family()
        aliased = holonomy(monopole(2), [fam(0.0), fam(0.5), fam(1.0)], N=64)
        assert np.abs(aliased[:, 0, 0] - 1.0).max() < 1e-3
        assert chern_winding(monopole(2), fam, N=64)[0] == 2

    def test_turns_are_the_end_frames_phases(self):
        # the phases are those of the end loops' full transport frames, bit
        # for bit: no frame is built, but the step offsets are the same
        fam = latitude_family()
        ends = parallel_transport(monopole(5), [fam(0.0), fam(1.0)], N=128)
        phi = [float(np.angle(1.0 + f.step_offsets[0, 0]).sum())
               for f in ends]
        rho = max(float(np.abs(f.samples).max()) for f in ends) / 128
        _, turns, got = chern_winding(monopole(5), fam, N=128)
        assert turns == (phi[1] - phi[0]) / (2.0 * math.pi)
        assert got == rho

    @pytest.mark.parametrize("q, N", [(1, 256), (-1, 256), (3, 64),
                                      (30, 256), (100, 2048)])
    def test_turns_are_the_rk4_phase(self, q, N):
        # the s = 0 loop circles the Dirac string with h |A| = theta =
        # 2 pi |q| / N at every node, so its N steps turn by
        # N arg R(-i theta) for R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, and
        # the north pole loop does not turn: turns = q arg R(i theta) /
        # theta with theta = 2 pi q / N (q = 30, N = 256 reads 29.9402)
        theta = 2.0 * math.pi * q / N
        z = 1j * theta
        R = 1.0 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24
        winding, turns, rho = chern_winding(monopole(q), latitude_family(),
                                            N=N)
        assert winding == q
        assert abs(turns - q * np.angle(R) / theta) < 1e-9
        assert abs(rho - abs(theta)) < 1e-12

    @pytest.mark.parametrize("q, N, message", [
        # steps of 1.1997 < pi/2 lag by 0.907 turns in all, so the ends
        # read 96.093 turns, within the margin of the wrong winding 96; the
        # lag bound N rho^5 / (120 pi) = 3.35 refuses it
        (97, 508, r"sweep of 96\.0934 turns .* lag up to 3\.3494 turns"),
        # steps of 1.885 > pi/2, where rho^5 / 120 no longer bounds a
        # step's lag: refused, though its 3.0014 turns round to q
        (3, 10, r"sweep of 3\.0014 turns .* step resolution 1\.8850"),
    ], ids=["lag", "step"])
    def test_unresolved_ends_refused(self, q, N, message):
        with pytest.raises(PhaseStepTooLarge, match=message):
            chern_winding(monopole(q), latitude_family(), N=N)


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

        def half(start):
            # the half loop s -> x(start + s / 2), s in [0, 1]
            def fn(s):
                x, v = loop.xv(start + 0.5 * s)
                return x, 0.5 * v
            return BaseLoop(2, fn)

        first, second = parallel_transport(conn, [half(0.0), half(0.5)],
                                           N=256)
        assert np.linalg.norm(second.holonomy @ first.holonomy
                              - frame.holonomy) < 1e-8
        assert np.linalg.norm(first.holonomy - frame.Ts[256]) < 1e-10

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
        # the reversed path goes through the same door
        with pytest.raises(ValueError, match="^chart dimension mismatch"):
            transport_reversed(monopole(1), BaseLoop.circle(1.0), 0.5)

    @pytest.mark.parametrize("call, message", [
        (lambda path: BaseLoop.from_samples(np.zeros((3, 2))),
         "need at least 4 sample points, shape (M, d)"),
        (lambda path: parallel_transport(flat(), BaseLoop.circle(1.0), N=0),
         "N must be >= 1"),
        (lambda path: load_loop_csv(path), "no coordinate columns"),
    ], ids=["three-samples", "N0", "csv-without-coordinates"])
    def test_refusals(self, tmp_path, call, message):
        path = os.path.join(tmp_path, "t_only.csv")
        with open(path, "w") as fh:
            fh.write("t\n0.0\n0.5\n")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(path)

    def test_grid_bounded_by_the_step_limit(self, monkeypatch):
        # TRANSPORT_MAX_ENTRIES bounds every transport's grid: at the bound
        # a loop runs, past it each entry point refuses before sampling
        monkeypatch.setattr(transport, "TRANSPORT_MAX_ENTRIES", 16)
        fam, nodes = latitude_family(), []

        def form(x, v):
            nodes.append(len(x))
            return monopole(1).form(x, v)

        conn = ConnectionSpec(1, 3, form)
        past = "^N=17 steps of n=1 exceed the 16 matrix entries"
        for run in (parallel_transport, holonomy):
            with pytest.raises(ValueError, match=past):
                run(conn, fam(0.5), N=17)
        with pytest.raises(ValueError, match=past):
            chern_winding(conn, fam, N=17)
        # round(t N) steps of the reversed path
        with pytest.raises(ValueError, match=past):
            transport_reversed(conn, fam(0.5), 0.5, N=34)
        assert nodes == []
        transport_reversed(conn, fam(0.5), 0.5, N=32)
        assert nodes == [33]
        frame = parallel_transport(conn, fam(0.5), N=16)
        with pytest.raises(ValueError, match="^N=32 steps of n=1 exceed"):
            refinement_delta(frame)
        assert nodes == [33, 33]

    def test_step_limit_scales_with_the_fiber(self, monkeypatch):
        # n^2 N entries: an n = 2 form may take a quarter of the n = 1 steps
        monkeypatch.setattr(transport, "TRANSPORT_MAX_ENTRIES", 16)
        loop = BaseLoop.circle(1.0)
        assert np.array_equal(holonomy(flat(n=2), loop, N=4), np.eye(2))
        for run in (parallel_transport, holonomy):
            with pytest.raises(ValueError, match="^N=5 steps of n=2 exceed"):
                run(flat(n=2), loop, N=5)

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

    @pytest.mark.parametrize("run", [parallel_transport, holonomy])
    def test_non_finite_loop_samples_rejected(self, run):
        # a velocity 1e308 (1 + 4t) that overflows from t = 7/32 on, a NaN
        # position from 17/32 on: the least failing node is named, with no
        # numpy warning
        def fn(t):
            x = np.stack([np.where(t < 0.5, 0.0, np.nan), t], axis=-1)
            v = np.stack([np.ones_like(t), 1e308 * (1.0 + 4.0 * t)], axis=-1)
            return x, v

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^loop sample at "
                               r"t=0\.218750 is not finite$"):
                run(flat(n=2), [BaseLoop.circle(1.0), BaseLoop(2, fn)], N=16)


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


class TestGaugeCovariance:
    """A nonabelian closed form: under a gauge g the holonomy from x0 turns
    into g(x0) Hol g(x0)^-1, checked for the Pauli gauge of tests/util.py
    at n = 2 and its U(n) gauge exp(x0 X) at n = 3 and 5, each of whose
    transformed forms takes noncommuting values along the loop."""

    @staticmethod
    def cases():
        K = 1j * (0.3 * S1 - 0.2 * S2 + 0.5 * S3)
        cases = {
            # Hol by its closed form: the loop is an origin-centred circle
            "constant": (constant_generator(K), BaseLoop.circle(0.7),
                         constant_generator_holonomy(K, 0.7), pauli_gauge()),
            # Hol by transport, on the fine grid
            "su2sample": (su2sample(),
                          BaseLoop.circle(1.3, center=(0.2, -0.1)), None,
                          pauli_gauge()),
        }
        for name, (conn, loop) in CONSTANT_CASES.items():
            K = conn.form(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
            r = float(np.linalg.norm(loop.point(0.0)))
            cases[name] = (conn, loop, constant_generator_holonomy(K, r),
                           exp_gauge(anti_hermitian(conn.n, 10 + conn.n)))
        return cases

    @pytest.mark.parametrize("name", ["constant", "su2sample",
                                      *sorted(CONSTANT_CASES)])
    def test_holonomy_conjugated_by_the_gauge_at_the_base_point(self, name):
        conn, loop, exact, (g, dg) = self.cases()[name]
        gauged = gauge_transformed(conn, g, dg)
        A = gauged.form(*loop.xv(np.array([0.1, 0.4])))
        assert np.abs(A[0] @ A[1] - A[1] @ A[0]).max() > 0.1
        G0 = g(loop.point(0.0))
        hol = exact if exact is not None else holonomy(conn, loop, N=8192)
        expected = G0 @ hol @ G0.conj().T
        assert np.abs(holonomy(gauged, loop, N=8192) - expected).max() < 1e-12
        # a coarse grid misses it by RK4's error, so the oracle is not vacuous
        assert np.abs(holonomy(gauged, loop, N=64) - expected).max() > 1e-7


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
            _step_offsets(conn, [loop.xv], N)[0][:, :, 0])
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
            _step_offsets(conn, [BaseLoop.circle(1.0).xv], 16)

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


def spline_loop(d, seed):
    """A periodic spline through 16 points near the unit circle of the
    x1 x2 plane, lifted to x3 = 0.5 when d = 3 (off the monopole string)."""
    rng = np.random.default_rng(seed)
    theta = 2.0 * math.pi * np.arange(16) / 16
    pts = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    pts = pts * (1.0 + 0.1 * rng.standard_normal((16, 1)))
    if d == 3:
        pts = np.concatenate([pts, np.full((16, 1), 0.5)], axis=-1)
    return BaseLoop.from_samples(pts)


def family_of_five(d):
    """Five distinct loops on a d-dimensional chart, one a spline."""
    if d == 2:
        loops = [BaseLoop.circle(r, center=(0.3 * r, -0.2))
                 for r in (0.4, 0.9, 1.3, 1.7)]
    else:
        loops = [latitude_loop(u) for u in (0.3, 1.1, 1.9, 2.6)]
    return loops[:2] + [spline_loop(d, seed=d)] + loops[2:]


# fiber dimensions 1, 2 and 3: every preset, and a dense 3 x 3 form
BATCH_CASES = {
    "flat-n1": flat(n=1),
    "flat-n3": flat(n=3),
    "abelian2d": abelian2d(1.7),
    "monopole": monopole(2),
    "su2sample": su2sample(),
    "constant-n3": CONSTANT_CASES["constant-n3"][0],
}


def assert_same_frame(batched, alone):
    assert batched.loop is alone.loop and batched.N == alone.N
    for name in ("Ts", "step_offsets", "samples"):
        assert np.array_equal(getattr(batched, name), getattr(alone, name))
    assert np.array_equal(batched.raw_holonomy, alone.raw_holonomy)
    assert batched.raw_defect == alone.raw_defect


class TestFamilyBatch:
    """A family of loops in one batched pass gets the bits of each loop
    alone: frames, step offsets, samples, raw chains and holonomies."""

    @pytest.mark.parametrize("name", sorted(BATCH_CASES))
    @pytest.mark.parametrize("B", [1, 2, 5])
    @pytest.mark.parametrize("N", [1, 7, 64, 1000])
    def test_batch_matches_loops_alone(self, name, B, N):
        conn = BATCH_CASES[name]
        loops = family_of_five(conn.d)[:B]
        frames = parallel_transport(conn, loops, N=N)
        hols = holonomy(conn, loops, N=N)
        fine = holonomy(conn, loops, N=2 * N)
        assert len(frames) == B and hols.shape == fine.shape == (B, conn.n,
                                                                 conn.n)
        for b, loop in enumerate(loops):
            alone = parallel_transport(conn, loop, N=N)
            assert_same_frame(frames[b], alone)
            assert np.array_equal(hols[b], holonomy(conn, loop, N=N))
            assert np.array_equal(hols[b], alone.holonomy)
            assert np.array_equal(fine[b], holonomy(conn, loop, N=2 * N))
            # the 2N run on the frame's samples, from a batch or alone
            for frame in (frames[b], alone):
                assert np.array_equal(
                    fine[b], holonomy(conn, loop, N=2 * N, coarse=frame))

    @pytest.mark.parametrize("loops_per_chunk", [1, 2])
    def test_chunk_boundaries(self, monkeypatch, loops_per_chunk):
        conn, N = su2sample(), 7
        loops = family_of_five(2)
        frames = parallel_transport(conn, loops, N=N)
        hols = holonomy(conn, loops, N=N)
        monkeypatch.setattr(transport, "TRANSPORT_NODE_BUDGET",
                            loops_per_chunk * (2 * N + 1) + 2 * N)
        for b, frame in enumerate(parallel_transport(conn, loops, N=N)):
            assert_same_frame(frame, frames[b])
        assert np.array_equal(holonomy(conn, loops, N=N), hols)

    def test_one_form_call_per_chunk(self, monkeypatch):
        conn, loop = REFERENCE_CASES["su2sample"]
        calls = []

        def counted(x, v):
            calls.append(x.shape)
            return conn.form(x, v)

        spec = ConnectionSpec(conn.n, conn.d, counted)
        loops = [loop] * 5
        parallel_transport(spec, loops, N=7)
        assert calls == [(5 * 15, 2)]
        calls.clear()
        monkeypatch.setattr(transport, "TRANSPORT_NODE_BUDGET", 2 * 15)
        holonomy(spec, loops, N=7)
        assert calls == [(30, 2), (30, 2), (15, 2)]

    def test_coarse_frame_samples_only_midpoints(self):
        conn, loop = REFERENCE_CASES["su2sample"]
        calls = []

        def counted(x, v):
            calls.append(x.shape)
            return conn.form(x, v)

        spec = ConnectionSpec(conn.n, conn.d, counted)
        frame = parallel_transport(spec, loop, N=64)
        calls.clear()
        h = holonomy(spec, loop, N=128, coarse=frame)
        assert calls == [(128, 2)]
        assert np.array_equal(h, holonomy(spec, loop, N=128))
        assert refinement_delta(frame) == float(
            np.linalg.norm(frame.holonomy - h))

    @pytest.mark.parametrize("N", [1, 7, 64])
    def test_frame_samples_in_t_order(self, N):
        # samples[:, :, j] is -A at t = j/(2N): the step ends are the even
        # nodes and the midpoints the odd ones
        conn, loop = REFERENCE_CASES["su2sample"]
        frame = parallel_transport(conn, loop, N=N)
        ts = np.linspace(0.0, 1.0, 2 * N + 1)  # j/(2N), as linspace rounds it
        A = conn.form(*loop.xv(ts))
        assert frame.samples.shape == (2, 2, 2 * N + 1)
        for j in range(2 * N + 1):
            assert np.array_equal(frame.samples[:, :, j], -A[j])

    def test_coarse_frame_of_another_run_refused(self):
        conn, loop = REFERENCE_CASES["su2sample"]
        frame = parallel_transport(conn, loop, N=64)
        for other, N in [(dict(conn=su2sample()), 128),
                         (dict(loop=BaseLoop.circle(1.3)), 128),
                         ({}, 64), ({}, 256)]:
            args = {"conn": conn, "loop": loop, **other}
            with pytest.raises(ValueError, match="coarse frame"):
                holonomy(args["conn"], args["loop"], N=N, coarse=frame)
        with pytest.raises(ValueError, match="coarse frame"):
            holonomy(conn, [loop], N=128, coarse=frame)

    @pytest.mark.parametrize("run", [parallel_transport, holonomy])
    @pytest.mark.parametrize("order", [(0, 1, 2), (0, 2, 1), (2, 1, 0)])
    def test_batch_raises_its_first_failing_loop(self, run, order):
        # the form overflows RK4's products on the loop right of x1 = 5 and
        # is NaN on the loop left of x1 = -5; a batch raises what its first
        # failing loop raises alone, even where a later loop fails earlier
        # in the pipeline (NaN samples are seen before any step)
        def form(x, v):
            scale = np.where(x[..., 0] > 5.0, 1e200, 1.0)
            scale = np.where(x[..., 0] < -5.0, np.nan, scale)
            return 1j * scale[..., None, None] * np.diag([1.0, 2.0])

        conn = ConnectionSpec(2, 2, form)
        loops = [BaseLoop.circle(1.0, center=(c, 0.0))
                 for c in (0.0, 10.0, -10.0)]
        batch = [loops[i] for i in order]
        first = next(loop for loop in batch if loop is not loops[0])
        errors = (ValueError, NonAntiHermitianSample)
        with pytest.raises(errors) as alone:
            run(conn, first, N=16)
        with pytest.raises(errors) as batched:
            run(conn, batch, N=16)
        assert type(batched.value) is type(alone.value)
        assert str(batched.value) == str(alone.value)
        kinds = {1: "not finite", 2: "anti-Hermitian"}
        assert kinds[loops.index(first)] in str(alone.value)

    def test_nan_node_of_the_first_failing_loop(self):
        # NaN below x2 = 0: the circle about (0, 0.5) first dips there at
        # t = 19/32 on the N = 16 half-step grid, the unit circle at 17/32
        def form(x, v):
            lower = (x[..., 1] < 0)[..., None, None]
            return np.where(lower, np.nan, 0.0) * np.ones((1, 1), complex)

        conn = ConnectionSpec(1, 2, form)
        loops = [BaseLoop.circle(1.0, center=(0.0, 5.0)),
                 BaseLoop.circle(1.0, center=(0.0, 0.5)),
                 BaseLoop.circle(1.0)]
        with pytest.raises(NonAntiHermitianSample) as info:
            holonomy(conn, loops, N=16)
        assert info.value.t == 19 / 32

    def test_empty_batch(self):
        assert parallel_transport(su2sample(), [], N=8) == []
        assert holonomy(su2sample(), [], N=8).shape == (0, 2, 2)


def block_major_flat(n):
    """flat's form as it was written before its entry-major layout."""
    def form(x, v):
        return np.zeros(x.shape[:-1] + (n, n), dtype=complex)

    return form


def block_major_su2sample(x, v):
    """su2sample's form as it was written before its entry-major layout."""
    x0, x1, v0, v1 = x[..., 0], x[..., 1], v[..., 0], v[..., 1]
    a1 = v0 * 0.3 - v1 * (0.1 * x0)
    a2 = v1 * 0.4
    a3 = v0 * (0.2 * x1) + v1 * 0.15
    A = np.zeros(np.shape(a1) + (2, 2), dtype=complex)
    A.imag[..., 0, 0], A.imag[..., 1, 1] = a3, -a3
    A.imag[..., 0, 1] = A.imag[..., 1, 0] = a1
    A.real[..., 0, 1], A.real[..., 1, 0] = a2, -a2
    return A


def bits(a):
    """The bit patterns of an array of floats or complex numbers, signs of
    zero and NaN payloads included."""
    return np.ascontiguousarray(a).view(np.uint64)


def remainder_wrap(t):
    """The wrap BaseLoop.xv took as t % 1.0, with 1.0 kept."""
    return np.where(t == 1.0, 1.0, t % 1.0)


class TestSamplingBits:
    """Each sampling pass gives the bits of its plain form: the floor wrap
    those of the remainder, the entry-major preset forms those of their
    block-major forms, and a family sampled in one broadcast call those of
    its loops sampled one at a time."""

    @given(st.lists(st.floats(width=64), min_size=1, max_size=32),
           st.floats(min_value=0.0, max_value=1.0))
    @example([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, 5e-324,
              -5e-324, 2.0 ** 53, -2.0 ** 53, 1.0 - 2.0 ** -53, -1e-20,
              0.75], 0.25)
    def test_wrap_is_the_remainder(self, ts, s0):
        t = np.array(ts)
        with np.errstate(invalid="ignore"):
            assert np.array_equal(bits(transport._wrap(t)),
                                  bits(remainder_wrap(t)))
            # the loop's fn sees the wrapped t; a rotated loop wraps t + s0
            loop = BaseLoop(1, lambda u: (u[..., None], u[..., None]))
            assert np.array_equal(bits(loop.xv(t)[0][..., 0]),
                                  bits(remainder_wrap(t)))
            rotated = loop.rotated(s0).fn(t)[0][..., 0]
            assert np.array_equal(bits(rotated), bits((t + s0) % 1.0))

    @pytest.mark.parametrize("shape", [(), (1,), (9,), (3, 5)])
    @pytest.mark.parametrize("name", ["flat", "su2sample"])
    def test_preset_form_is_its_block_major_form(self, name, shape):
        rng = np.random.default_rng(len(shape))
        x = rng.normal(size=shape + (2,)) * 3.0
        v = rng.normal(size=shape + (2,)) * 3.0
        x[..., 0].flat[0] = -0.0  # a signed zero goes through as it is
        conn, old = {"flat": (flat(n=3), block_major_flat(3)),
                     "su2sample": (su2sample(), block_major_su2sample)}[name]
        A = conn.form(x, v)
        assert A.shape == shape + (conn.n, conn.n) and A.dtype == complex
        assert np.array_equal(bits(A), bits(old(x, v)))
        # the view of an entry-major array: transport reads it contiguously
        assert np.moveaxis(A, (-2, -1), (0, 1)).flags.c_contiguous

    @pytest.mark.parametrize("u", [1e-300, 0.1, 0.7, 1.0, math.pi / 2, 2.0,
                                   3.0, math.pi - 1e-9])
    def test_latitude_samples_are_the_stacked_construction(self, u):
        # latitude_loop against this module's np.stack construction, for
        # scalar, 1-d and 2-d times, ends and out-of-range times included
        rng = np.random.default_rng(17)
        for t in (np.array(0.3), np.array(1.0), np.linspace(0.0, 1.0, 9),
                  np.linspace(0.0, 1.0, 513)[1::2],
                  np.array([-0.0, 0.0, 1.0, 1.0 - 2.0 ** -53, 2.5, -0.25]),
                  rng.uniform(-3.0, 3.0, (4, 5)), rng.uniform(0.0, 1.0, 100)):
            for got, want in zip(transport.latitude_loop(u).xv(t),
                                 latitude_loop(u).xv(t), strict=True):
                assert got.shape == t.shape + (3,)
                assert np.array_equal(bits(got), bits(want))

    def test_latitude_family_samples_are_the_stacked_construction(self):
        # a family's loop, and a batch of M = 64 loops, against the same
        # construction at u = pi (1 - s)
        fam = latitude_family()
        t = np.linspace(0.0, 1.0, 257)
        for s in (0.0, 0.25, 1.0 / 3.0, 0.5, 1.0):
            for got, want in zip(fam(s).xv(t),
                                 latitude_loop(math.pi * (1.0 - s)).xv(t),
                                 strict=True):
                assert np.array_equal(bits(got), bits(want))
        s = [j / 64 for j in range(65)]
        for nodes in (t, t[1::2]):
            want = [latitude_loop(math.pi * (1.0 - x)).xv(nodes) for x in s]
            for got, part in zip(family_loops(fam, s).xv(nodes), zip(*want),
                                 strict=True):
                assert np.array_equal(bits(got), bits(np.stack(part)))

    @pytest.mark.parametrize("M", [1, 2, 8, 64])
    @pytest.mark.parametrize("N", [16, 256])
    def test_family_samples_are_its_loops_samples(self, M, N):
        fam = latitude_family()
        s = [j / M for j in range(M + 1)]
        loops = family_loops(fam, s)
        ts = np.linspace(0.0, 1.0, 2 * N + 1)
        for nodes in (ts, ts[1::2]):  # a run's nodes and a refinement's
            x, v = loops.xv(nodes)
            assert x.shape == v.shape == (M + 1, len(nodes), 3)
            for b, one in enumerate(s):
                xb, vb = fam(one).xv(nodes)
                assert np.array_equal(bits(x[b]), bits(xb))
                assert np.array_equal(bits(v[b]), bits(vb))
        alone = holonomy(monopole(1), [fam(one) for one in s], N)
        assert np.array_equal(bits(holonomy(monopole(1), loops, N)),
                              bits(alone))

    def test_family_sampled_once_per_chunk(self, monkeypatch):
        # 9 loops of 2 N + 1 = 33 nodes in chunks of 4: one sampler call
        # and one form call per chunk, and each loop's holonomy its own
        fam, calls, nodes = latitude_family(), [], []

        def fn(s, t):
            calls.append((list(s), len(t)))
            return fam.fn(s, t)

        def form(x, v):
            nodes.append(len(x))
            return monopole(2).form(x, v)

        counted = LoopFamily(3, fn)
        conn = ConnectionSpec(1, 3, form)
        monkeypatch.setattr(transport, "TRANSPORT_NODE_BUDGET", 4 * 33)
        s = [j / 8 for j in range(9)]
        hols = holonomy(conn, family_loops(counted, s), N=16)
        assert calls == [(s[:4], 33), (s[4:8], 33), (s[8:], 33)]
        assert nodes == [4 * 33, 4 * 33, 33]
        for one, hol in zip(s, hols):
            assert np.array_equal(hol, holonomy(monopole(2), fam(one), N=16))
        frames = parallel_transport(conn, family_loops(counted, s[:2]), N=16)
        assert [frame.loop.d for frame in frames] == [3, 3]

    def test_family_sample_shapes_checked(self):
        def fn(s, t):
            x = np.zeros((len(s), len(t), 2))
            return x, x

        family = LoopFamily(3, fn)
        with pytest.raises(ValueError, match=r"family samples have shapes "
                           r"\(2, 5, 2\) and \(2, 5, 2\), expected "
                           r"\(2, 5, 3\)"):
            family_loops(family, [0.0, 1.0]).xv(np.linspace(0.0, 1.0, 5))
        # a family's loop is its sampler's row, checked as a loop
        with pytest.raises(ValueError, match=r"loop samples have shapes "
                           r"\(5, 2\) and \(5, 2\), expected \(5, 3\)"):
            family(0.0).xv(np.linspace(0.0, 1.0, 5))

    def test_plain_callable_family_is_a_list(self):
        fam = latitude_family()
        loops = family_loops(lambda s: fam(s), [0.0, 0.5])
        assert isinstance(loops, list) and len(loops) == 2
        assert all(isinstance(one, BaseLoop) for one in loops)


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

    def test_header_without_rows_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "h.csv")
        with open(path, "w") as fh:
            fh.write("t,x1,x2\n")
        with pytest.raises(ValueError, match="^no sample rows$"):
            load_loop_csv(path)

    @pytest.mark.parametrize("text, line, fields", [
        ("t,x1,x2\n0.0,1.0,0.0\n0.5,-1.0,0.0\n\n", 4, 0),
        ("t,x1,x2\n0.0,1.0,0.0\n0.25,0.0,1.0\n0.5,-1.0\n0.75,0.0,-1.0\n",
         4, 2),
        ("t,x1,x2\n0.0,1.0,0.0,9.0\n0.5,-1.0,0.0,9.0\n", 2, 4)])
    def test_ragged_rows_rejected(self, tmp_path, text, line, fields):
        # the first row whose length differs from the header's is named,
        # also when the other rows are full length
        path = os.path.join(tmp_path, "ragged.csv")
        with open(path, "w") as fh:
            fh.write(text)
        with pytest.raises(ValueError, match=f"^ragged CSV rows: line {line} "
                                             f"has {fields} fields, the "
                                             f"header 3$"):
            load_loop_csv(path)

    def test_nonuniform_grid_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "bad.csv")
        with open(path, "w") as fh:
            fh.write("t,x1,x2\n")
            for t in [0.0, 0.3, 0.5, 0.75]:
                fh.write(f"{t},1.0,0.0\n")
        with pytest.raises(ValueError, match="uniform"):
            load_loop_csv(path)

