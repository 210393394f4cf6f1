"""Acceptance gate: eight end-to-end checks against analytic oracles.

Each criterion is one test function, so a verbose run prints one pass/fail
line per criterion.  Tolerances are pinned here on purpose; loosening them
is a contract change, not a test fix.
"""

import math
import time

import numpy as np
import pytest

from loopfiber import fourier, loopgroup, subspaces, transport, twistbundle
from loopfiber.decomp import (
    SubspaceFamily,
    audit_family,
    build_model_decomposition,
    reduction_cocycle,
)
from loopfiber.errors import NonConstantReducedTransition

from util import S1, S3, haar_unitary, loop_allclose, loop_from_function


def u1_dist(a, b):
    return abs(a / abs(a) - b / abs(b))


def test_criterion_1_subspace_loop_roundtrip():
    # 20 seeded loops, n in {1,2,3}, band <= 4, window depth 6: rebuilding
    # the loop from its shifted-window subspace must recover it up to a
    # constant unitary factor
    start = time.monotonic()
    worst_defect = 0.0
    worst_variation = 0.0
    for i in range(20):
        n = (1, 2, 3)[i % 3]
        band = 1 + (i % 4)
        g = loopgroup.random_loop(n, band, seed=100 + i)
        frame = loopgroup.window_frame(g, depth=6)
        ghat = loopgroup.loop_from_subspace(frame)
        defect = loopgroup.unitarity_defect(ghat)[0]
        residue = loopgroup.multiply(loopgroup.inverse(ghat), g)
        variation = loopgroup.theta_variation(residue)[0]
        worst_defect = max(worst_defect, defect)
        worst_variation = max(worst_variation, variation)
        assert defect <= 1e-8
        assert variation <= 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"ACCEPTANCE 1 subspace-loop roundtrip: PASS "
          f"(defect {worst_defect:.2e}, variation {worst_variation:.2e}, "
          f"{elapsed:.2f}s)")


def test_criterion_2_frequency_splitting_counts():
    # projector algebra to 1e-12 and exact window dimension counts on 50
    # seeded instances, half of them twisted by a random unitary loop
    rng = np.random.default_rng(7)
    for i in range(50):
        n = int(rng.integers(1, 4))
        b = int(rng.integers(1, 7))
        coeffs = {int(k): rng.normal(size=n) + 1j * rng.normal(size=n)
                  for k in range(-b, b + 1)}
        a = fourier.TruncatedLoop(n, coeffs)

        pp, pm = fourier.project_plus(a), fourier.project_minus(a)
        assert loop_allclose(fourier.project_plus(pp), pp, tol=1e-12)
        assert loop_allclose(pp + pm, a, tol=1e-12)
        assert abs(fourier.inner_product(pp, pm)) <= 1e-12

        depth = int(rng.integers(0, 5))
        if i % 2 == 0:
            gens = tuple(fourier.basis_loop(n, component=j) for j in range(n))
            filt = subspaces.FiltrationSubspace(gens, depth)
            lower = subspaces.expand_filtration(filt)
            upper = subspaces.expand_filtration(filt, depth + 1)
        else:
            g = loopgroup.random_loop(n, 2, seed=300 + i)
            lower = loopgroup.window_frame(g, depth)
            upper = loopgroup.window_frame(g, depth + 1)
        assert lower.dim == n * (depth + 1)
        assert upper.dim - lower.dim == n

        shifted = [fourier.shift(w, 1) for w in lower.columns]
        # one row per loop over the common band, so the Euclidean pairing
        # of rows is the loop inner product
        both = fourier.stack_columns(shifted + list(upper.columns)).data
        both = both.transpose(2, 0, 1).reshape(both.shape[2], -1)
        rows, basis = both[:len(shifted)], both[len(shifted):]
        resid = rows - (rows @ basis.conj().T) @ basis
        assert float(np.linalg.norm(resid, axis=1).max()) <= 1e-10
    print("ACCEPTANCE 2 frequency splitting and window counts: PASS "
          "(50 instances, growth exactly n)")


def test_criterion_3_flux_holonomy_oracle():
    # uniform-curvature holonomy phase equals the enclosed flux B pi r^2
    # (compared in U(1)); the uncorrected integrator shows 4th-order decay
    start = time.monotonic()
    worst = 0.0
    for B in (1.0, 2.5):
        conn = transport.abelian2d(B)
        for r in (0.5, 1.0, 1.5):
            h = transport.holonomy(conn, transport.BaseLoop.circle(r),
                                   N=2048)[0, 0]
            err = u1_dist(h, np.exp(1j * B * math.pi * r * r))
            worst = max(worst, err)
            assert err <= 1e-6

    conn = transport.abelian2d(1.0)
    loop = transport.BaseLoop.circle(1.0)
    exact = np.exp(1j * math.pi)
    errs = [abs(transport.parallel_transport(conn, loop, N=N)
                .raw_holonomy[0, 0] - exact) for N in (256, 512)]
    ratio = errs[0] / errs[1]
    assert 12.0 <= ratio <= 20.0
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"ACCEPTANCE 3 flux holonomy oracle: PASS "
          f"(phase err {worst:.2e}, halving ratio {ratio:.2f}, "
          f"{elapsed:.2f}s)")


def test_criterion_4_winding_obstruction_integers():
    # the latitude sweep of a charge-q field winds exactly q times
    start = time.monotonic()
    family = transport.latitude_family()
    got = {}
    for q in (1, 2, -1):
        w = transport.chern_winding(transport.monopole(q), family,
                                    N=256)[0]
        got[q] = w
        assert w == q
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"ACCEPTANCE 4 winding obstruction: PASS ({got}, {elapsed:.2f}s)")


def _five_plane_loops():
    def wobble(t):
        th = 2.0 * math.pi * t
        x = np.stack([1.1 * np.cos(th) + 0.2 * np.cos(2 * th),
                      1.1 * np.sin(th) - 0.15 * np.sin(2 * th)], axis=-1)
        v = 2.0 * math.pi * np.stack(
            [-1.1 * np.sin(th) - 0.4 * np.sin(2 * th),
             1.1 * np.cos(th) - 0.3 * np.cos(2 * th)], axis=-1)
        return x, v

    return [
        transport.BaseLoop.circle(1.0),
        transport.BaseLoop.circle(0.6),
        transport.BaseLoop.circle(1.3, center=(0.4, -0.3)),
        transport.BaseLoop.circle(0.85, center=(-0.5, 0.6)),
        loop_from_function(2, wobble),
    ]


def test_criterion_5_trivialization_bijectivity():
    # the twisted-section trivialization and its inverse undo each other on
    # three connections and five loops each; all images close up under the
    # holonomy seam rule
    rng = np.random.default_rng(11)
    conns = [transport.flat(n=2), transport.abelian2d(1.0),
             transport.su2sample()]
    N = 1024
    worst_jphi = worst_phij = worst_seam = 0.0
    for conn in conns:
        for loop in _five_plane_loops():
            frame = transport.parallel_transport(conn, loop, N=N)
            n = conn.n

            p = fourier.TruncatedLoop(
                n, {int(k): rng.normal(size=n) + 1j * rng.normal(size=n)
                    for k in range(-5, 6)})
            section = twistbundle.section_from_loop(frame, p)
            rebuilt = twistbundle.section_from_loop(
                frame, twistbundle.phi_inverse(frame, section))
            jphi = float(np.abs(rebuilt.samples - section.samples).max())
            worst_jphi = max(worst_jphi, jphi)
            assert jphi <= 1e-7
            worst_seam = max(worst_seam, section.seam_residual())

            for _ in range(10):
                f = fourier.TruncatedLoop(
                    1, {int(k): rng.normal(size=1) + 1j * rng.normal(size=1)
                        for k in range(-3, 4)})
                v = rng.normal(size=n) + 1j * rng.normal(size=n)
                image = twistbundle.j_extend(frame, f, v)
                worst_seam = max(worst_seam, image.seam_residual())
                back = twistbundle.phi_inverse(frame, image)
                target = fourier.scalar_multiply(f, fourier.constant_loop(v))
                phij = fourier.norm(back - target)
                worst_phij = max(worst_phij, phij)
                assert phij <= 1e-8
            assert worst_seam <= 1e-7
    print(f"ACCEPTANCE 5 trivialization bijectivity: PASS "
          f"(j∘Φ {worst_jphi:.2e}, Φ∘j {worst_phij:.2e}, "
          f"seam {worst_seam:.2e})")


def test_criterion_6_rotation_conjugation_identity():
    # the conjugated holonomy T(t) Hol T(t)^-1 matches a fresh integration
    # of the rotated loop at eight base points
    conn = transport.su2sample()
    loop = transport.BaseLoop.circle(1.3)
    N = 1024
    frame = transport.parallel_transport(conn, loop, N=N)
    worst = 0.0
    for k in range(8):
        t = k / 8.0
        predicted = transport.rotated_twist(frame, t)
        direct = transport.holonomy(conn, loop.rotated(t), N=N)
        err = float(np.linalg.norm(predicted - direct))
        worst = max(worst, err)
        assert err <= 1e-6
    print(f"ACCEPTANCE 6 rotation conjugation identity: PASS "
          f"(max deviation {worst:.2e})")


def test_criterion_7_model_families_and_winding_refusal():
    # forward: 20 random constant cocycles build model families that pass
    # the audit and reduce back to the input constants; backward: a
    # once-winding transition is refused and the winding is reported
    rng = np.random.default_rng(23)
    worst = 0.0
    for i in range(20):
        m = int(rng.integers(3, 7))
        n = int(rng.integers(1, 4))
        cocycle = [haar_unitary(n, rng) for _ in range(m)]
        fam = build_model_decomposition(cocycle, depth=3)
        report = audit_family(fam)
        assert report.all_ok
        cert = reduction_cocycle(report)
        assert cert.gamma_windings == (0,) * m
        for got, want in zip(cert.constants, cocycle):
            worst = max(worst, float(np.linalg.norm(got - want)))
        assert worst <= 1e-9

    cocycle = [haar_unitary(2, rng) for _ in range(4)]
    fam = build_model_decomposition(cocycle, depth=3)
    transitions = list(fam.transitions)
    transitions[-1] = loopgroup.multiply(loopgroup.diag_zpowers([1, 0]),
                                         transitions[-1])
    bad = SubspaceFamily(fam.points, fam.edges, fam.psi, tuple(transitions))
    assert audit_family(bad).all_ok
    with pytest.raises(NonConstantReducedTransition) as info:
        reduction_cocycle(audit_family(bad))
    assert info.value.winding_sum == 1
    assert info.value.variation > 1e-3
    print(f"ACCEPTANCE 7 model families and winding refusal: PASS "
          f"(recovery err {worst:.2e}, refused winding "
          f"{info.value.winding_sum})")


def test_criterion_8_connection_independence():
    # two connections on the same chart: untwisting through one frame and
    # embedding through the other stays pointwise unitary, so the twisted
    # bundles are isomorphic; the only seam mismatch is the holonomy gap
    pairs = [
        (transport.abelian2d(1.0), transport.abelian2d(1.15),
         transport.BaseLoop.circle(1.0)),
        (transport.su2sample(), _perturbed_su2(), transport.BaseLoop.circle(1.1)),
    ]
    N = 2048
    worst_unit = worst_raw = worst_gap = 0.0
    for conn0, conn1, loop in pairs:
        frame0 = transport.parallel_transport(conn0, loop, N=N)
        frame1 = transport.parallel_transport(conn1, loop, N=N)
        assert frame0.raw_defect <= 1e-6
        assert frame1.raw_defect <= 1e-6
        worst_raw = max(worst_raw, frame0.raw_defect, frame1.raw_defect)

        H = twistbundle.untwisted_comparison(frame0, frame1)
        eye = np.eye(conn0.n)
        defects = np.linalg.norm(
            np.einsum("tji,tjk->tik", H.conj(), H) - eye, axis=(1, 2))
        worst_unit = max(worst_unit, float(defects.max()))
        assert worst_unit <= 1e-6

        # the composite fails to be 1-periodic exactly by the holonomy gap
        gap = float(np.linalg.norm(H[-1] - H[0]))
        hol_gap = float(np.linalg.norm(frame1.holonomy - frame0.holonomy))
        worst_gap = max(worst_gap, abs(gap - hol_gap))
        assert abs(gap - hol_gap) <= 1e-10

        # the reverse-transport realization agrees with the frame inverse
        for t in (0.25, 0.5, 0.75):
            V1 = transport.transport_reversed(conn1, loop, t, N=N)
            i = int(round(t * N))
            err = float(np.linalg.norm(V1 @ frame0.Ts[i] - H[i]))
            assert err <= 1e-6
    print(f"ACCEPTANCE 8 connection independence: PASS "
          f"(unitarity {worst_unit:.2e}, raw drift {worst_raw:.2e}, "
          f"seam gap consistency {worst_gap:.2e})")


def _perturbed_su2():
    base = transport.su2sample()

    def form(x, v):
        v0, v1 = v[..., 0, None, None], v[..., 1, None, None]
        return base.form(x, v) + 0.1j * (v0 * S3 + v1 * S1)

    return transport.ConnectionSpec(2, 2, form, name="su2perturbed")
