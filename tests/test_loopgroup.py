import json
import warnings

import numpy as np
import pytest

from loopfiber import loopgroup
from loopfiber.errors import (IntersectionDimension, PhaseStepTooLarge,
                              UnitarityViolation)
from loopfiber.fourier import (TruncatedLoop, basis_loop, inner_product,
                               evaluate, loop_allclose)
from loopfiber.loopgroup import (LoopGroupElement, apply, constant_element,
                                 det_winding, diag_zpowers, element_from_dict,
                                 element_to_dict, identity_element, inverse,
                                 loop_from_subspace, multiply, random_loop,
                                 theta_variation, unitarity_defect,
                                 window_frame)
from loopfiber.subspaces import (FiltrationSubspace, SubspaceFrame,
                                 expand_filtration, orthonormalize)

from util import haar_unitary

S2 = 1.0 / np.sqrt(2.0)


class TestAlgebra:
    def test_identity_acts_trivially(self):
        g = identity_element(3)
        a = basis_loop(3, component=2, frequency=-2)
        assert loop_allclose(apply(g, a), a, tol=0.0)

    def test_multiply_matches_pointwise_product(self):
        g = diag_zpowers([1, -2])
        rng = np.random.default_rng(2)
        U = haar_unitary(2, rng)
        h = constant_element(U)
        gh = multiply(g, h)
        th = np.linspace(0.0, 6.0, 7)
        want = g.evaluate(th) @ h.evaluate(th)
        np.testing.assert_allclose(gh.evaluate(th), want, atol=1e-12)

    def test_band_adds(self):
        g = diag_zpowers([2, -1])
        h = diag_zpowers([3, 3])
        assert multiply(g, h).band == (2, 5)

    def test_inverse_coefficients(self):
        # pointwise adjoint: coefficient at k is A_{-k}^H
        rng = np.random.default_rng(4)
        g = random_loop(2, 2, seed=9)
        gi = inverse(g)
        for k, A in g.mcoeffs.items():
            np.testing.assert_allclose(gi.mcoeffs[-k], A.conj().T, atol=0)

    def test_group_inverse(self):
        g = random_loop(2, 3, seed=5)
        prod = multiply(inverse(g), g)
        var, mean = theta_variation(prod)
        assert var < 1e-9
        np.testing.assert_allclose(mean, np.eye(2), atol=1e-9)

    def test_apply_preserves_inner_products(self):
        g = random_loop(3, 2, seed=21)
        rng = np.random.default_rng(0)
        a = TruncatedLoop(3, {0: rng.standard_normal(3) * (1 + 0j),
                              2: rng.standard_normal(3) * (1 + 0j)})
        b = TruncatedLoop(3, {-1: rng.standard_normal(3) * (1 + 0j),
                              2: rng.standard_normal(3) * (1 + 0j)})
        lhs = inner_product(apply(g, a), apply(g, b))
        assert lhs == pytest.approx(inner_product(a, b), abs=1e-9)

    def test_cancelling_top_coefficient_trims_band(self):
        # (P z + I)(Q z + I) = I + z I: the z^2 block P Q vanishes exactly
        P, Q = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        g = LoopGroupElement(2, {0: np.eye(2), 1: P})
        h = LoopGroupElement(2, {0: np.eye(2), 1: Q})
        assert multiply(g, h).band == (0, 1)
        assert apply(g, basis_loop(2, component=1, frequency=1)).band == (1, 1)

    @pytest.mark.parametrize("n", [2, 3])
    def test_cancelling_edge_coefficients_trim_band(self, n):
        # P Q = Q P = 0, so both edge blocks of g h and of h g vanish exactly:
        # g = P/z + I + P z (width 3), h = Q/z + X + Q z^2 (width 4)
        P = np.zeros((n, n))
        P[0, 0] = 1.0
        Q = np.eye(n) - P
        X = np.random.default_rng(n).standard_normal((n, n))
        g = LoopGroupElement(n, {-1: P, 0: np.eye(n), 1: P})
        h = LoopGroupElement(n, {-1: Q, 0: X, 2: Q})
        assert multiply(g, h).band == (-1, 2)
        assert multiply(h, g).band == (-1, 2)
        assert apply(g, h.column(1)).band == (-1, 2)
        # g e_0 = e_0 (1/z + 1 + z) and Q e_0 = 0 clear z^-2, z^2 and z^3
        assert apply(h, g.column(0)).band == (-1, 1)

    def test_column_extraction(self):
        g = diag_zpowers([1, 0])
        col0 = g.column(0)
        assert loop_allclose(col0, basis_loop(2, component=0, frequency=1),
                             tol=0.0)

    def test_grid_matches_evaluate(self):
        g = random_loop(2, 2, seed=3)
        N = 64
        th = 2 * np.pi * np.arange(N) / N
        np.testing.assert_allclose(g.grid_samples(N), g.evaluate(th),
                                   atol=1e-10)


class TestDetWinding:
    def test_identity_winds_zero(self):
        assert det_winding(identity_element(2)) == 0

    def test_diag_powers(self):
        # det diag(z^2, z^-1) = z, one turn
        assert det_winding(diag_zpowers([2, -1])) == 1
        assert det_winding(diag_zpowers([3, 2])) == 5
        assert det_winding(diag_zpowers([-4])) == -4

    def test_homomorphism(self):
        g = multiply(diag_zpowers([1, 1]), constant_element(
            haar_unitary(2, np.random.default_rng(8))))
        h = random_loop(2, 2, seed=17)
        assert det_winding(multiply(g, h)) == det_winding(g) + det_winding(h)

    def test_random_plus_inverse_cancels(self):
        g = random_loop(3, 3, seed=30)
        assert det_winding(g) + det_winding(inverse(g)) == 0

    def test_near_zero_determinant_rejected(self):
        bad = LoopGroupElement(1, {0: [[1e-9]]})
        with pytest.raises(PhaseStepTooLarge):
            det_winding(bad)

    def test_grid_refinement_resolves_moderate_winding(self):
        # winding 200 would alias on the 256-point start grid
        assert det_winding(diag_zpowers([200])) == 200

    def test_band_beyond_max_grid_rejected(self):
        fast = diag_zpowers([70000])
        with pytest.raises(PhaseStepTooLarge):
            det_winding(fast)


class TestRandomLoop:
    def test_deterministic(self):
        g1 = random_loop(2, 3, seed=42)
        g2 = random_loop(2, 3, seed=42)
        assert set(g1.mcoeffs) == set(g2.mcoeffs)
        for k in g1.mcoeffs:
            assert np.array_equal(g1.mcoeffs[k], g2.mcoeffs[k])

    def test_seed_changes_value(self):
        g1 = random_loop(2, 3, seed=1)
        g2 = random_loop(2, 3, seed=2)
        d = sum(np.linalg.norm(g1.mcoeffs[k] - g2.mcoeffs[k])
                for k in set(g1.mcoeffs) & set(g2.mcoeffs))
        assert d > 0.1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_unitary_on_and_off_grid(self, n):
        g = random_loop(n, 4, seed=100 + n)
        for N in (256, 384):  # 384 points lie off the build grid
            S = g.evaluate(2 * np.pi * np.arange(N) / N)
            G = np.einsum("tji,tjk->tik", S.conj(), S)
            assert np.linalg.norm(G - np.eye(n), axis=(1, 2)).max() <= 1e-8

    def test_band_parameter_validated(self):
        with pytest.raises(ValueError):
            random_loop(2, 0, seed=1)


def svd_polar(S):
    U, _, Vh = np.linalg.svd(S)
    return U @ Vh


class TestPolar:
    """loopgroup._polar, Newton-Schulz with an SVD fallback."""

    @pytest.mark.parametrize("c", [1e-3, 0.5, 0.9, 1.0, 1.1, 3.0, 1e3])
    def test_scaled_unitary(self, c):
        # polar(c U) = U for every c > 0; c far from 1 takes the SVD
        U = haar_unitary(3, np.random.default_rng(1))
        assert np.abs(loopgroup._polar(c * U) - U).max() < 1e-14

    @pytest.mark.parametrize("eps", [1e-9, 1e-4, 0.1, 0.6])
    def test_stretched_unitary(self, eps):
        # U diag(1 + eps, 1 - eps) V is already in SVD form: polar is U V
        rng = np.random.default_rng(2)
        U, V = haar_unitary(2, rng), haar_unitary(2, rng)
        S = U @ np.diag([1.0 + eps, 1.0 - eps]) @ V
        assert np.abs(loopgroup._polar(S) - U @ V).max() < 1e-14

    def mixed_stack(self):
        """Near-unitary matrices around four that take the SVD: a random
        one, a singular one, diag(1, 0.05) (defect below 1, but too slow to
        converge within POLAR_MAX_STEPS) and one whose Gram overflows."""
        rng = np.random.default_rng(3)
        near = [haar_unitary(2, rng) + 1e-7 * rng.standard_normal((2, 2))
                for _ in range(4)]
        random = 2.0 * (rng.standard_normal((2, 2))
                        + 1j * rng.standard_normal((2, 2)))
        singular = np.outer([1.0, 2.0j], [0.5, 1.0])
        slow = np.diag([1.0, 0.05])
        huge = 1e200 * haar_unitary(2, rng)
        stack = np.array([near[0], random, near[1], singular, near[2], slow,
                          huge, near[3]], dtype=complex)
        return stack, [1, 3, 5, 6]

    def test_fallback_takes_exactly_the_unconverged(self, monkeypatch):
        stack, fallback = self.mixed_stack()
        seen = []
        svd = np.linalg.svd

        def recording_svd(S, *args, **kwargs):
            seen.append(S.copy())
            return svd(S, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Q = loopgroup._polar(stack)
        assert len(seen) == 1 and np.array_equal(seen[0], stack[fallback])
        assert np.array_equal(Q[fallback], svd_polar(stack[fallback]))
        G = np.einsum("tji,tjk->tik", Q.conj(), Q)
        assert np.linalg.norm(G - np.eye(2), axis=(1, 2)).max() < 1e-14

    def test_each_result_independent_of_its_batch(self):
        stack, _ = self.mixed_stack()
        Q = loopgroup._polar(stack)
        for i in range(len(stack)):
            assert np.array_equal(loopgroup._polar(stack[i]), Q[i])
        assert np.array_equal(loopgroup._polar(stack[::-1]), Q[::-1])


class TestCertificateGrid:
    def test_grid_resolves_the_band(self):
        # gamma = 1 + i sin(256 theta) equals 1 at every point of a 256-grid
        g = LoopGroupElement(1, {0: [[1.0]], 256: [[0.5]], -256: [[-0.5]]})
        assert unitarity_defect(g)[0] == pytest.approx(1.0, abs=1e-12)
        assert theta_variation(g)[0] == pytest.approx(1.0, abs=1e-12)


class TestLoopFromSubspace:
    def test_model_plus_space_returns_constant(self):
        W = expand_filtration(FiltrationSubspace(
            [basis_loop(2, component=0), basis_loop(2, component=1)], 3))
        g = loop_from_subspace(W)
        var, mean = theta_variation(g)
        assert var < 1e-10
        np.testing.assert_allclose(mean.conj().T @ mean, np.eye(2),
                                   atol=1e-10)
        assert det_winding(g) == 0

    def test_shifted_plus_space_returns_z(self):
        W = expand_filtration(FiltrationSubspace(
            [basis_loop(1, frequency=1)], 4))
        g = loop_from_subspace(W)
        assert det_winding(g) == 1
        assert set(g.mcoeffs) == {1}

    def test_columns_span_the_intersection(self):
        g = random_loop(2, 2, seed=55)
        W = window_frame(g, 4)
        ghat = loop_from_subspace(W)
        # each rebuilt column must lie in W and be orthogonal to zW
        for j in range(2):
            col = ghat.column(j)
            from loopfiber.fourier import shift
            for w in W.columns:
                assert abs(inner_product(shift(w, 1), col)) < 1e-8

    @pytest.mark.parametrize("n,seed", [(1, 7), (2, 8), (3, 9)])
    def test_roundtrip_recovers_up_to_constant(self, n, seed):
        g = random_loop(n, 3, seed=seed)
        W = window_frame(g, 5)
        ghat = loop_from_subspace(W)
        resid = multiply(inverse(ghat), g)
        var, mean = theta_variation(resid)
        assert var <= 1e-6
        np.testing.assert_allclose(mean.conj().T @ mean, np.eye(n), atol=1e-6)

    def test_winding_detected_through_subspace(self):
        g = diag_zpowers([1, 0])
        W = window_frame(g, 3)
        ghat = loop_from_subspace(W)
        assert det_winding(ghat) == 1

    def test_wrong_dimension_low(self):
        # the symmetric two-mode generator's window meets (zW)^perp trivially
        gen = TruncatedLoop(1, {-1: [S2], 1: [S2]})
        W = expand_filtration(FiltrationSubspace([gen], 3))
        with pytest.raises(IntersectionDimension) as ei:
            loop_from_subspace(W)
        assert ei.value.got == 0 and ei.value.expected == 1

    def test_wrong_dimension_high(self):
        # a frequency gap (no z^2 block) inflates the intersection
        cols = [basis_loop(2, component=j, frequency=p)
                for p in (0, 1, 3) for j in range(2)]
        W = SubspaceFrame(2, cols)
        with pytest.raises(IntersectionDimension) as ei:
            loop_from_subspace(W)
        # six columns, the shift map pairs up only two of them: rank 2
        assert ei.value.got == 4 and ei.value.expected == 2

    def test_nan_defect_fails_closed(self, monkeypatch):
        W = expand_filtration(FiltrationSubspace([basis_loop(1)], 2))
        monkeypatch.setattr(loopgroup, "unitarity_defect",
                            lambda g: (float("nan"), 0.0))
        with pytest.raises(UnitarityViolation):
            loop_from_subspace(W)

    def test_nonunimodular_member_rejected(self):
        # W = span{(1 + z^2)/sqrt 2}: meets (zW)^perp in itself, but the
        # loop values vanish at theta = pi/2, so no unitary loop exists
        gen = TruncatedLoop(1, {0: [S2], 2: [S2]})
        W = orthonormalize([gen])
        with pytest.raises(UnitarityViolation):
            loop_from_subspace(W)


class TestSerialization:
    def test_roundtrip_bit_exact(self):
        g = random_loop(2, 2, seed=77)
        blob = json.dumps(element_to_dict(g))
        h = element_from_dict(json.loads(blob))
        assert set(g.mcoeffs) == set(h.mcoeffs)
        for k in g.mcoeffs:
            assert np.array_equal(g.mcoeffs[k], h.mcoeffs[k])

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_rejected(self, bad):
        d = element_to_dict(identity_element(2))
        d["mcoeffs"]["0"][1][1] = [bad, 0.0]
        with pytest.raises(ValueError):
            element_from_dict(d)

    def test_schema_shape(self):
        g = diag_zpowers([1])
        d = element_to_dict(g)
        assert d == {"n": 1, "mcoeffs": {"1": [[[1.0, 0.0]]]}}
