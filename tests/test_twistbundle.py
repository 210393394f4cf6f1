"""Twisted-section trivialization tests.

The frames come from actual transported connections so the twists are
genuine holonomy conjugates, not synthetic unitaries.
"""

import dataclasses
import re

import numpy as np
import pytest

from loopfiber import twistbundle
from loopfiber.errors import PeriodicityDefect
from loopfiber.fourier import (
    basis_loop,
    constant_loop,
    scalar_multiply,
    TruncatedLoop,
)
from loopfiber.transport import (
    BaseLoop,
    abelian2d,
    flat,
    parallel_transport,
    su2sample,
)
from loopfiber.twistbundle import (
    GaugeTwist,
    TwistedSection,
    fiber_intertwiner,
    fourier_decompose_twisted,
    holonomy_twist,
    identity_twist,
    j_embed,
    j_extend,
    module_scale,
    phi_inverse,
    rotate,
    section_from_loop,
    shifted_twist,
    untwisted_comparison,
)

from util import (S1, S2, S3, constant_generator, gauge_transformed,
                  loop_allclose, pauli_gauge)

N = 256


@pytest.fixture(scope="module")
def su2_frame():
    return parallel_transport(su2sample(), BaseLoop.circle(1.3), N=N)


@pytest.fixture(scope="module")
def u1_frame():
    return parallel_transport(abelian2d(1.0), BaseLoop.circle(1.0), N=N)


@pytest.fixture
def stack_checks(monkeypatch):
    """The shapes of the unitarity checks twistbundle makes, in order."""
    checks = []
    real = twistbundle._stack_defect

    def spy(stack):
        checks.append(stack.shape)
        return real(stack)

    monkeypatch.setattr(twistbundle, "_stack_defect", spy)
    return checks


def rand_loop(n, band, rng, scale=1.0):
    coeffs = {k: scale * (rng.normal(size=n) + 1j * rng.normal(size=n))
              for k in range(-band, band + 1)}
    return TruncatedLoop(n, coeffs)


class TestEmbedding:
    def test_j_embed_values_and_seam(self, su2_frame):
        v = np.array([1.0, -2.0j])
        sec = j_embed(su2_frame, v)
        assert sec.N == N and sec.n == 2
        assert np.allclose(sec.samples[17], su2_frame.Ts[17] @ v)
        assert sec.seam_residual() < 1e-12

    def test_roundtrip_constant(self, su2_frame, u1_frame):
        flat_frame = parallel_transport(flat(n=2), BaseLoop.circle(1.0), N=N)
        for frame, v in [(su2_frame, np.array([1.0, 2.0 + 1.0j])),
                         (u1_frame, np.array([0.5j])),
                         (flat_frame, np.array([1.0, 0.0]))]:
            p = phi_inverse(frame, j_embed(frame, v))
            assert loop_allclose(p, constant_loop(v), tol=1e-9)

    def test_roundtrip_extended(self, su2_frame):
        rng = np.random.default_rng(5)
        f = rand_loop(1, 4, rng)
        v = np.array([0.3, 1.0 - 0.5j])
        p = phi_inverse(su2_frame, j_extend(su2_frame, f, v))
        assert loop_allclose(p, scalar_multiply(f, constant_loop(v)), tol=1e-9)

    def test_extend_rejects_vector_scalar(self, su2_frame):
        with pytest.raises(ValueError, match="n=1"):
            j_extend(su2_frame, constant_loop([1.0, 0.0]), np.ones(2))

    def test_general_section_roundtrip(self, su2_frame):
        rng = np.random.default_rng(11)
        p = rand_loop(2, 5, rng)
        sec = section_from_loop(su2_frame, p)
        back = phi_inverse(su2_frame, sec)
        assert loop_allclose(p, back, tol=1e-9)
        again = section_from_loop(su2_frame, back)
        assert np.allclose(again.samples, sec.samples, atol=1e-12)

    def test_sections_share_the_frames_one_twist(self, stack_checks):
        frame = parallel_transport(su2sample(), BaseLoop.circle(0.7), N=32)
        twist = holonomy_twist(frame)
        assert holonomy_twist(frame) is twist
        v = np.array([1.0, 0.5j])
        rng = np.random.default_rng(12)
        for sec in (j_embed(frame, v),
                    j_extend(frame, rand_loop(1, 2, rng), v),
                    section_from_loop(frame, rand_loop(2, 2, rng))):
            assert sec.twist is twist
        assert stack_checks == [(32, 2, 2)]


class TestValidation:
    def test_corrupt_seam_rejected(self, su2_frame):
        sec = j_embed(su2_frame, np.array([1.0, 0.0]))
        bad = np.array(sec.samples)
        bad[-1] += 1e-3
        with pytest.raises(PeriodicityDefect) as info:
            TwistedSection(bad, sec.twist)
        assert info.value.residual > 1e-4

    def test_phi_inverse_checks_periodicity(self, su2_frame):
        # periodic under the identity twist, so not quasi-periodic under
        # the su2 frame's holonomy twist: its untwisted loop does not close
        samples = np.array(j_embed(su2_frame, np.array([1.0, 0.0])).samples)
        samples[-1] = samples[0]
        periodic = TwistedSection(samples, identity_twist(2, N))
        with pytest.raises(PeriodicityDefect) as info:
            phi_inverse(su2_frame, periodic)
        assert info.value.residual > 1e-3

    def test_twist_must_be_unitary(self):
        vals = np.stack([np.eye(2) * 2.0] * 8)
        with pytest.raises(ValueError, match="unitary"):
            GaugeTwist(2, 8, vals)

    def test_twist_shape_checked(self):
        with pytest.raises(ValueError, match="shape"):
            GaugeTwist(2, 8, np.stack([np.eye(3)] * 8))

    def test_nan_twist_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            GaugeTwist(1, 4, np.full((4, 1, 1), np.nan))

    @pytest.mark.parametrize("row", [0, 1, -1])
    def test_nan_samples_rejected(self, row):
        samples = np.ones((3, 1), dtype=complex)
        samples[row] = np.nan
        with pytest.raises(ValueError, match="finite"):
            TwistedSection(samples, identity_twist(1, 2))

    def test_nan_frame_fails_periodicity(self, su2_frame):
        sec = j_embed(su2_frame, np.array([1.0, 0.0]))
        nan_frame = dataclasses.replace(
            su2_frame, Ts=np.full_like(su2_frame.Ts, np.nan))
        with pytest.raises(PeriodicityDefect):
            phi_inverse(nan_frame, sec)

    @pytest.mark.parametrize("call, message", [
        (lambda frame: TwistedSection(np.zeros((1, 2)), identity_twist(2, 1)),
         "samples must have shape (N + 1, n) with N >= 1"),
        (lambda frame: j_embed(frame, np.ones(3)),
         "fiber vector must have shape (2,)"),
        (lambda frame: section_from_loop(frame, constant_loop([1.0])),
         "loop dimension 1 != fiber dimension 2"),
    ], ids=["one-sample", "embed-dimension", "loop-dimension"])
    def test_refusals(self, su2_frame, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(su2_frame)

    def test_grid_mismatch_rejected(self, su2_frame, u1_frame):
        sec = j_embed(u1_frame, np.array([1.0]))
        with pytest.raises(ValueError, match="match"):
            phi_inverse(su2_frame, sec)


class TestModuleAction:
    def test_scale_matches_extend(self, su2_frame):
        rng = np.random.default_rng(3)
        f = rand_loop(1, 3, rng)
        v = np.array([1.0, 0.25j])
        a = module_scale(f, j_embed(su2_frame, v))
        b = j_extend(su2_frame, f, v)
        assert np.array_equal(a.samples, b.samples)
        assert a.twist is b.twist

    def test_scale_commutes_with_untwisting(self, su2_frame):
        rng = np.random.default_rng(4)
        f = rand_loop(1, 4, rng)
        p = rand_loop(2, 5, rng)
        sec = section_from_loop(su2_frame, p)
        lhs = phi_inverse(su2_frame, module_scale(f, sec))
        rhs = scalar_multiply(f, p)
        assert loop_allclose(lhs, rhs, tol=1e-8)


class TestDecomposition:
    def test_parts_sum_and_split_at_zero(self, su2_frame):
        rng = np.random.default_rng(9)
        p = rand_loop(2, 6, rng)
        sec = section_from_loop(su2_frame, p)
        plus, minus = fourier_decompose_twisted(su2_frame, sec)
        assert np.allclose(plus.samples + minus.samples, sec.samples,
                           atol=1e-11)
        pp = phi_inverse(su2_frame, plus)
        pm = phi_inverse(su2_frame, minus)
        # untwisting reintroduces float noise, so compare mass not keys
        from loopfiber.fourier import norm as loop_norm, project_minus, project_plus
        assert loop_norm(project_minus(pp)) < 1e-11
        assert loop_norm(project_plus(pm)) < 1e-11
        assert loop_allclose(pp + pm, p, tol=1e-9)

    def test_plus_part_of_embed_is_everything(self, su2_frame):
        # constant loops sit entirely in the nonnegative half
        sec = j_embed(su2_frame, np.array([1.0, 1.0j]))
        plus, minus = fourier_decompose_twisted(su2_frame, sec)
        assert np.allclose(plus.samples, sec.samples, atol=1e-11)
        assert np.linalg.norm(minus.samples) < 1e-11


def seam_reference(section, steps):
    """sigma_{i + steps}, i = 0..N, continued one sample at a time through
    the seam rule sigma(t + 1) = tau(t) sigma(t)."""
    N, tau = section.N, section.twist.values
    ext = dict(enumerate(section.samples))
    for j in range(N + 1, N + steps + 1):
        ext[j] = tau[(j - N) % N] @ ext[j - N]
    for j in range(-1, steps - 1, -1):
        ext[j] = tau[j % N].conj().T @ ext[j + N]
    return np.array([ext[i + steps] for i in range(N + 1)])


class TestRotation:
    @pytest.mark.parametrize("steps", [-N, -N // 4, -1, 0, 1, N // 4,
                                       N - 1, N])
    def test_matches_sequential_seam_steps(self, su2_frame, u1_frame, steps):
        rng = np.random.default_rng(6)
        for frame in (u1_frame, su2_frame):
            sec = section_from_loop(frame, rand_loop(frame.n, 3, rng))
            assert np.array_equal(rotate(sec, steps).samples,
                                  seam_reference(sec, steps))

    def test_composition_and_inverse(self, su2_frame):
        rng = np.random.default_rng(2)
        sec = section_from_loop(su2_frame, rand_loop(2, 4, rng))
        a = rotate(rotate(sec, 40), 24)
        b = rotate(sec, 64)
        assert np.allclose(a.samples, b.samples, atol=1e-12)
        assert np.allclose(rotate(sec, 0).samples, sec.samples)
        back = rotate(rotate(sec, 77), -77)
        assert np.allclose(back.samples, sec.samples, atol=1e-12)

    def test_negative_rotation_seam(self, su2_frame):
        sec = j_embed(su2_frame, np.array([1.0, -1.0]))
        rot = rotate(sec, -31)
        assert rot.seam_residual() < 1e-12

    def test_full_turn_applies_twist(self, su2_frame):
        sec = j_embed(su2_frame, np.array([0.0, 1.0]))
        turned = rotate(sec, N)
        tau = sec.twist.values
        expect = np.einsum("tij,tj->ti", tau, sec.samples[:-1])
        assert np.allclose(turned.samples[:-1], expect, atol=1e-12)

    def test_matches_fresh_transport_of_rotated_loop(self):
        conn = su2sample()
        loop = BaseLoop.circle(1.3)
        frame = parallel_transport(conn, loop, N=N)
        k = 64
        v = np.array([1.0, 0.5j])
        rot_frame = parallel_transport(conn, loop.rotated(k / N), N=N)
        lhs = rotate(j_embed(frame, v), k)
        rhs = j_embed(rot_frame, frame.Ts[k] @ v)
        assert np.max(np.abs(lhs.samples - rhs.samples)) < 1e-6

    def test_identity_kind_rotation(self):
        samples = np.tile(np.array([1.0, 2.0j]), (9, 1))
        sec = TwistedSection(samples, identity_twist(2, 8))
        rot = rotate(sec, 3)
        assert np.allclose(rot.samples, samples)

    def test_shifted_twist_checks_each_roll_once(self, su2_frame,
                                                 stack_checks):
        # a rolled twist is built by GaugeTwist, so it passes one
        # unitarity check, and its values are np.roll's bit for bit
        twist = j_embed(su2_frame, np.array([1.0, 0.5j])).twist
        for steps in (-N, -5, 0, 3, N):
            stack_checks.clear()
            rolled = shifted_twist(twist, steps)
            assert stack_checks == [(N, 2, 2)]
            assert np.array_equal(rolled.values,
                                  np.roll(twist.values, -steps, 0))
            assert not rolled.values.flags.writeable
            assert (rolled.n, rolled.N) == (2, N)

    def test_step_bound(self, su2_frame):
        sec = j_embed(su2_frame, np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="steps"):
            rotate(sec, N + 1)


class TestComparison:
    def test_comparison_seam_equals_holonomy_gap(self, u1_frame):
        other = parallel_transport(abelian2d(2.0), BaseLoop.circle(1.0), N=N)
        H = untwisted_comparison(u1_frame, other)
        assert H.shape == (N + 1, 1, 1)
        assert np.allclose(H[0], np.eye(1))
        gram = np.einsum("tji,tjk->tik", H.conj(), H)
        assert np.linalg.norm(gram - np.eye(1), axis=(1, 2)).max() < 1e-12
        gap = np.linalg.norm(H[-1] - H[0])
        hol_gap = np.linalg.norm(other.holonomy - u1_frame.holonomy)
        assert abs(gap - hol_gap) < 1e-10

    def test_intertwiner_relation(self, su2_frame):
        other = parallel_transport(su2sample(), BaseLoop.circle(0.9), N=N)
        G = fiber_intertwiner(su2_frame, other)
        tau0 = holonomy_twist(su2_frame).values
        tau1 = holonomy_twist(other).values
        hol0, hol1 = su2_frame.holonomy, other.holonomy
        Gext = np.einsum("tij,jk,tlk->til", other.Ts[:-1] @ hol1,
                         hol0.conj().T, su2_frame.Ts[:-1].conj())
        lhs = np.einsum("tij,tjk->tik", Gext, tau0)
        rhs = np.einsum("tij,tjk->tik", tau1, G[:-1])
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_identical_frames_give_identity(self, su2_frame):
        H = untwisted_comparison(su2_frame, su2_frame)
        assert np.linalg.norm(H - np.eye(2), axis=(1, 2)).max() < 1e-12


class TestGaugeCovariance:
    """The twist against an independent value: under a gauge g the frame
    becomes g(x(t)) T(t) g(x(0))^-1, so the twist T Hol T^-1 becomes
    g tau g^-1 at every grid point."""

    @pytest.mark.parametrize("name", ["constant", "su2sample"])
    def test_twist_conjugated_pointwise(self, name):
        conn = {"constant": constant_generator(
                    1j * (0.3 * S1 - 0.2 * S2 + 0.5 * S3)),
                "su2sample": su2sample()}[name]
        loop = BaseLoop.circle(1.3, center=(0.2, -0.1))
        g, dg = pauli_gauge()
        G = g(loop.point(np.arange(4096) / 4096))
        GH = np.conj(np.swapaxes(G, -1, -2))
        for steps, within in ((4096, lambda err: err < 1e-10),
                              (256, lambda err: err > 1e-8)):
            tau = holonomy_twist(parallel_transport(conn, loop, N=steps))
            gauged = holonomy_twist(parallel_transport(
                gauge_transformed(conn, g, dg), loop, N=steps))
            grid = slice(None, None, 4096 // steps)
            err = np.abs(gauged.values
                         - G[grid] @ tau.values @ GH[grid]).max()
            # the coarse grid misses by RK4's error: the check is not vacuous
            assert within(err), (steps, err)


class TestIdentityTwist:
    def test_flat_frame_twist_trivial(self):
        frame = parallel_transport(flat(n=2), BaseLoop.circle(1.0), N=32)
        tau = holonomy_twist(frame)
        assert np.allclose(tau.values, np.eye(2), atol=1e-13)
        ident = identity_twist(2, 32)
        assert np.allclose(ident.values, tau.values, atol=1e-13)

    def test_identity_section_plain_periodicity(self):
        samples = np.tile(np.array([1.0 + 0.5j]), (17, 1))
        sec = TwistedSection(samples, identity_twist(1, 16))
        assert sec.seam_residual() == 0.0


class TestBasisCompatibility:
    def test_extend_with_pure_frequency(self, su2_frame):
        # f = z: untwisting must shift the constant loop up one frequency
        f = basis_loop(1, component=0, frequency=1)
        v = np.array([1.0, 0.0])
        p = phi_inverse(su2_frame, j_extend(su2_frame, f, v))
        assert set(p.coeffs) == {1} or (
            max(p.coeffs, key=lambda k: np.linalg.norm(p.coeffs[k])) == 1)
        assert np.allclose(p.coeffs[1], v, atol=1e-10)
