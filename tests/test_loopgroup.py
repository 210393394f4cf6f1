import itertools
import json
import warnings

import numpy as np
import pytest

from loopfiber import loopgroup
from loopfiber.loopgroup import _block_major, _entry_major
from loopfiber.errors import (IntersectionDimension, PhaseStepTooLarge,
                              UnitarityViolation)
from loopfiber.fourier import (TruncatedLoop, basis_loop, inner_product,
                               evaluate, shift)
from loopfiber.loopgroup import (LoopGroupElement, apply, constant_element,
                                 det_winding, diag_zpowers, element_from_dict,
                                 element_to_dict, identity_element, inverse,
                                 loop_from_subspace, multiply, random_loop,
                                 theta_variation, unitarity_defect,
                                 window_frame)
from loopfiber.subspaces import (FiltrationSubspace, SubspaceFrame,
                                 expand_filtration, orthonormalize)

from util import haar_unitary, loop_allclose

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

    @pytest.mark.parametrize("call", [
        lambda: multiply(identity_element(1), identity_element(2)),
        lambda: apply(identity_element(2), basis_loop(1)),
    ], ids=["multiply", "apply"])
    def test_dimension_mismatch_refused(self, call):
        with pytest.raises(ValueError, match="^dimension mismatch$"):
            call()

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


@pytest.fixture
def sampled_grids(monkeypatch):
    """The grid N of every LoopGroupElement.grid_samples call, in order."""
    grids, grid_samples = [], LoopGroupElement.grid_samples

    def recorded(self, N):
        grids.append(N)
        return grid_samples(self, N)

    monkeypatch.setattr(LoopGroupElement, "grid_samples", recorded)
    return grids


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
        # the band is read only from a loop certified unitary
        bad = LoopGroupElement(1, {0: [[1e-9]]})
        with pytest.raises(UnitarityViolation, match=r"defect 1.000e\+00"):
            det_winding(bad)

    def test_grid_refinement_resolves_moderate_winding(self):
        # winding 200 aliases on a 256-point grid; the band has no grid
        assert det_winding(diag_zpowers([200])) == 200

    def test_band_beyond_max_grid_rejected(self):
        fast = diag_zpowers([70000])
        with pytest.raises(PhaseStepTooLarge, match="certificate grid"):
            det_winding(fast)

    @pytest.mark.parametrize("powers", [(1, -2, 4), (0, 0, 3), (-5, 2, 1),
                                        (2, -1), (3, -1, 0, 2),
                                        (-7, 0, 5, 5), (240, -1, 0),
                                        (-240, 3), (1000, -2000, 0, 7),
                                        (-16000, 0, 0)])
    def test_rotated_diag_powers(self, powers):
        # det V diag(z^a, z^b, ...) W = det V det W z^(a + b + ...)
        rng = np.random.default_rng(abs(sum(powers)) + 10)
        V, W = (constant_element(haar_unitary(len(powers), rng))
                for _ in "VW")
        g = multiply(V, multiply(diag_zpowers(powers), W))
        assert det_winding(g) == sum(powers)

    # (powers, grid): grid is the least power of two at or above 8 n max|k|,
    # where a winding from sampled phases would start.  The band needs no
    # grid, so only the loop's certificate grid of 256 points is sampled.
    @pytest.mark.parametrize("powers,grid", [
        ((42, -5, 2), 1024),       # 8 * 3 * 42 = 1008, just below 1024
        ((32, -3, 0, 5), 1024),    # 8 * 4 * 32 = 1024, on it
        ((-43, 7, 1), 2048),       # 8 * 3 * 43 = 1032, just above 1024
    ])
    def test_first_grid_around_a_power_of_two(self, powers, grid,
                                              sampled_grids):
        # det V diag(z^a, z^b, ...) W = det V det W z^(a + b + ...)
        rng = np.random.default_rng(len(powers) + abs(powers[0]))
        V, W = (constant_element(haar_unitary(len(powers), rng))
                for _ in "VW")
        g = multiply(V, multiply(diag_zpowers(powers), W))
        assert g.band == (min(powers), max(powers))
        assert det_winding(g) == sum(powers)
        assert grid > 256 and sampled_grids == [256]

    @pytest.mark.parametrize("a", [1.0 - 1e-5, 1.0 + 1e-5])
    def test_a_plus_z_is_not_unitary(self, a):
        # |a + z|^2 - 1 reaches (1 + a)^2 - 1, about 3, at theta = 0
        g = LoopGroupElement(1, {0: [[a]], 1: [[1.0]]})
        with pytest.raises(UnitarityViolation, match=r"defect 3.000e\+00 at "
                                                     r"theta=0.000000"):
            det_winding(g)

    def test_band_past_the_largest_winding_grid(self):
        # 8 * 3 * 2731 = 65544 is past 2^16, the largest grid; the
        # certificate needs 4 * 2731 points, and the band none
        assert det_winding(diag_zpowers([2731, 0, 0])) == 2731

    # gamma = (1 + eps) z^100 has defect (1 + eps)^2 - 1 and band sum
    # s = 100 (1 + eps)^2; |s - w| + 2 delta sqrt(sum k^2 ||A_k||^2) is
    # 0.02 + 0.04 at eps = 1e-4, and 0.01 + 4.06 at eps = 0.01, where
    # rounding s = 102.01 would be wrong by 2
    @pytest.mark.parametrize("eps,winding", [(1e-4, 100), (0.01, None)])
    def test_rounding_within_the_certificate_bound(self, eps, winding,
                                                   monkeypatch):
        monkeypatch.setattr(loopgroup, "UNITARITY_TOL", 0.1)
        g = LoopGroupElement(1, {100: [[1.0 + eps]]})
        if winding is not None:
            assert det_winding(g) == winding
        else:
            with pytest.raises(PhaseStepTooLarge,
                               match="102.01 turns, too far from a whole "
                                     "number: slack 4.07"):
                det_winding(g)

    def test_singular_loop_rejected(self):
        # det V diag(1, 1, (1 + z) / 2) W vanishes at theta = pi, where
        # gamma^H gamma - I has norm 1
        rng = np.random.default_rng(9)
        V, W = (constant_element(haar_unitary(3, rng)) for _ in "VW")
        half = LoopGroupElement(3, {0: np.diag([1.0, 1.0, 0.5]),
                                    1: np.diag([0.0, 0.0, 0.5])})
        with pytest.raises(UnitarityViolation, match=r"defect 1.000e\+00 "
                                                     r"at theta=3.141593"):
            det_winding(multiply(V, multiply(half, W)))


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


# The stacked kernels take entry-major (n, m, ...) stacks; these run them on
# the (..., n, m) stacks the tests build, converting at the boundary as the
# package's callers do.
def polar(S):
    return _block_major(loopgroup._polar(_entry_major(S)))


def matmul(A, B):
    return _block_major(loopgroup._matmul(_entry_major(A), _entry_major(B)))


def fro_norms(S):
    return loopgroup._fro_norms(_entry_major(S))


def block_major_polar(S):
    """_polar as it ran on (..., n, n) stacks, its products by
    broadcast_matmul and its norms by np.linalg.norm, the kernels whose
    bits it had: the reference _polar must equal bit for bit."""
    S = np.asarray(S, dtype=complex)
    n = S.shape[-1]

    def gram_defects(X):
        with np.errstate(over="ignore", invalid="ignore"):
            G = broadcast_matmul(np.swapaxes(X.conj(), -1, -2), X)
            return G, np.linalg.norm(G - np.eye(n), axis=(-2, -1))

    X = S.copy()
    G, defect = gram_defects(X)
    svd = ~(defect < 1.0)
    todo = np.flatnonzero(~svd)
    for _ in range(loopgroup.POLAR_MAX_STEPS):
        Y = X[todo]
        Y += broadcast_matmul(Y, 0.5 * (np.eye(n) - G[todo]))
        X[todo] = Y
        G[todo], defect = gram_defects(Y)
        todo = todo[~(defect <= n * loopgroup.POLAR_ROUNDOFF)]
        if not todo.size:
            break
    svd[todo] = True
    if svd.any():
        X[svd] = svd_polar(S[svd])
    return X


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
            Q = polar(stack)
        assert len(seen) == 1 and np.array_equal(seen[0], stack[fallback])
        assert np.array_equal(Q[fallback], svd_polar(stack[fallback]))
        G = np.einsum("tji,tjk->tik", Q.conj(), Q)
        assert np.linalg.norm(G - np.eye(2), axis=(1, 2)).max() < 1e-14

    def test_each_result_independent_of_its_batch(self):
        stack, _ = self.mixed_stack()
        Q = polar(stack)
        for i in range(len(stack)):
            assert np.array_equal(loopgroup._polar(stack[i]), Q[i])
        assert np.array_equal(polar(stack[::-1]), Q[::-1])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bit_exact_against_block_major_reference(self, n):
        rng = np.random.default_rng(60 + n)
        # Haar unitaries plus roundoff converge at the first step, so every
        # step runs on the whole stack
        unitary = np.array([haar_unitary(n, rng) for _ in range(64)])
        unitary += 1e-15 * random_blocks(rng, 64, n, n)
        # near-unitary matrices that stop after different steps, among
        # ones that take the SVD
        mixed = unitary + 10.0 ** rng.integers(-9, 1, (64, 1, 1)) * (
            random_blocks(rng, 64, n, n))
        for S in (unitary, mixed):
            assert np.array_equal(polar(S), block_major_polar(S))
        assert np.array_equal(polar(self.mixed_stack()[0]),
                              block_major_polar(self.mixed_stack()[0]))


def random_blocks(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def broadcast_matmul(A, B):
    """_matmul as it summed small blocks before it went entry by entry:
    the reference its results must equal bit for bit."""
    (n, m), p = A.shape[-2:], B.shape[-1]
    if not 1 <= m <= 3 or max(n, p) > 3:
        return np.matmul(A, B)
    out = A[..., :, :1] * B[..., :1, :]
    for j in range(1, m):
        out += A[..., :, j:j + 1] * B[..., j:j + 1, :]
    return out


def assert_matches_matmul(A, B):
    C, D = matmul(A, B), np.matmul(A, B)
    assert C.shape == D.shape
    assert np.abs(C - D).max(initial=0.0) <= 1e-15 * np.abs(D).max(initial=0.0)


class TestMatmul:
    """loopgroup._matmul, the stacked product behind transport and _polar."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_square_blocks_match_matmul(self, n):
        # n <= MATMUL_ENTRYWISE_MAX is built entry by entry, larger n goes
        # to np.matmul
        rng = np.random.default_rng(n)
        assert_matches_matmul(random_blocks(rng, 33, n, n),
                              random_blocks(rng, 33, n, n))

    @pytest.mark.parametrize("n, m, p", [(2, 3, 1), (3, 2, 1), (3, 1, 2),
                                         (1, 3, 3), (2, 1, 3), (4, 2, 1),
                                         (2, 5, 3)])
    def test_rectangular_blocks_match_matmul(self, n, m, p):
        rng = np.random.default_rng(10 * n + m + p)
        assert_matches_matmul(random_blocks(rng, 17, n, m),
                              random_blocks(rng, 17, m, p))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_broadcasts_against_one_matrix(self, n):
        rng = np.random.default_rng(20 + n)
        S, U = random_blocks(rng, 9, n, n), random_blocks(rng, n, n)
        assert_matches_matmul(S, U)
        assert_matches_matmul(U, S)
        assert_matches_matmul(random_blocks(rng, 4, 1, n, n), S)

    @pytest.mark.parametrize("n", [2, 4])
    def test_empty_stack(self, n):
        E = np.zeros((0, n, n), dtype=complex)
        assert matmul(E, E).shape == (0, n, n)

    def test_mismatched_blocks_rejected(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError, match="cannot multiply"):
            matmul(random_blocks(rng, 5, 2, 1), random_blocks(rng, 5, 2, 2))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_each_block_independent_of_its_batch(self, n):
        # _polar's results depend on their own matrix alone only if this
        # holds bit for bit
        rng = np.random.default_rng(30 + n)
        A, B = random_blocks(rng, 65, n, n), random_blocks(rng, 65, n, n)
        C = matmul(A, B)
        for i in range(len(A)):
            assert np.array_equal(matmul(A[i:i + 1], B[i:i + 1])[0], C[i])

    @pytest.mark.parametrize("n, m, p", list(itertools.product([1, 2, 3],
                                                                repeat=3)))
    def test_bit_exact_against_broadcast_sum(self, n, m, p):
        rng = np.random.default_rng(100 * n + 10 * m + p)
        A, B = random_blocks(rng, 257, n, m), random_blocks(rng, 257, m, p)
        assert np.array_equal(matmul(A, B), broadcast_matmul(A, B))
        # one matrix against a stack (as transport's Ts against the
        # holonomy), and stacks whose batch axes broadcast
        for X, Y in [(A, B[0]), (A[0], B), (A[:4, None], B[:9])]:
            C = matmul(X, Y)
            assert C.shape == np.matmul(X, Y).shape
            assert np.array_equal(C, broadcast_matmul(X, Y))
        E = np.zeros((0, n, m), dtype=complex)
        assert matmul(E, B[:0]).shape == (0, n, p)

    @pytest.mark.parametrize("n, m, p", list(itertools.product([1, 2, 3],
                                                                repeat=3)))
    def test_broadcast_and_entry_loop_agree_bit_for_bit(self, n, m, p,
                                                        monkeypatch):
        # stacks of at most MATMUL_BROADCAST_MAX blocks take one broadcast
        # product per inner index, longer ones the entry loop; with the
        # cutoff at 0 every call takes the entry loop
        rng = np.random.default_rng(1000 + 100 * n + 10 * m + p)
        cutoff = loopgroup.MATMUL_BROADCAST_MAX
        cases = []
        for L in (1, 7, cutoff, cutoff + 1):
            b = next((d for d in range(2, L + 1) if L % d == 0), 1)
            for batch in ((L,), (b, L // b)):
                A = _entry_major(random_blocks(rng, *batch, n, m))
                B = _entry_major(random_blocks(rng, *batch, m, p))
                cases += [(A, B), (A, B[..., *(0,) * len(batch)]),
                          (A[..., *(0,) * len(batch)], B)]
            # batch axes that broadcast against each other, (b, 1) by (L,);
            # the one-block case is test_one_block_gets_its_bits_in_any_stack
            if L > 1:
                cases.append((_entry_major(random_blocks(rng, b, 1, n, m)),
                              _entry_major(random_blocks(rng, L, m, p))))
        got = [loopgroup._matmul(X, Y) for X, Y in cases]
        monkeypatch.setattr(loopgroup, "MATMUL_BROADCAST_MAX", 0)
        for (X, Y), C in zip(cases, got):
            want = loopgroup._matmul(X, Y)
            assert C.shape == want.shape
            assert np.array_equal(C, want)

    @pytest.mark.parametrize("n, m, p", list(itertools.product([1, 2, 3],
                                                                repeat=3)))
    def test_one_block_gets_its_bits_in_any_stack(self, n, m, p,
                                                  monkeypatch):
        # the entry loop on one block of two lone matrices, or of batch
        # ranks that differ, multiplies single elements, for which numpy
        # leaves its vector loop for a scalar one that may round a complex
        # product differently (without fused multiply-add); the broadcast
        # gives the bits the block gets in a longer stack
        rng = np.random.default_rng(2000 + 100 * n + 10 * m + p)
        for batch_a, batch_b in [((), ()), ((1, 1), (1,)), ((1,), (1, 1))]:
            for _ in range(20):
                A = random_blocks(rng, n, m, *batch_a)
                B = random_blocks(rng, m, p, *batch_b)
                C = loopgroup._matmul(A, B)
                with monkeypatch.context() as mp:
                    mp.setattr(loopgroup, "MATMUL_BROADCAST_MAX", 0)
                    D = loopgroup._matmul(np.stack([A, A], axis=-1),
                                          np.stack([B, B], axis=-1))
                assert C.shape == D.shape[:-1]
                assert np.array_equal(C, D[..., 0])

    @pytest.mark.parametrize("L", [7, 1025])
    def test_broadcast_and_entry_loop_agree_on_nan_and_inf(self, L,
                                                           monkeypatch):
        rng = np.random.default_rng(60 + L)
        A, B = random_blocks(rng, L, 3, 3), random_blocks(rng, L, 3, 3)
        A[2, 0, 1], A[2, 1, 2], B[2, 2, 0] = np.nan, np.inf, -np.inf
        A, B = _entry_major(A), _entry_major(B)
        with np.errstate(invalid="ignore"):
            C = loopgroup._matmul(A, B)
            monkeypatch.setattr(loopgroup, "MATMUL_BROADCAST_MAX", 0)
            D = loopgroup._matmul(A, B)
        for part in (np.real, np.imag):
            assert np.array_equal(part(C), part(D), equal_nan=True)
            assert np.array_equal(np.isinf(part(C)), np.isinf(part(D)))
        assert np.isnan(C[..., 2]).any() and np.isinf(C[..., 2]).any()
        assert np.isfinite(np.delete(C, 2, axis=-1)).all()

    @pytest.mark.parametrize("n", range(4, 9))
    def test_bit_exact_against_matmul_above_entrywise_max(self, n):
        rng = np.random.default_rng(70 + n)
        A, B = random_blocks(rng, 33, n, n), random_blocks(rng, 33, n, n)
        for X, Y in [(A, B), (A, B[0]), (A[0], B)]:
            assert np.array_equal(matmul(X, Y), np.matmul(X, Y))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bit_exact_on_strided_operands(self, n):
        # transport passes adjoint views and every-second-factor slices
        rng = np.random.default_rng(50 + n)
        S, E = (_entry_major(random_blocks(rng, 129, n, n)) for _ in "SE")
        SH = loopgroup._adjoint(S)
        for X, Y in [(SH, S), (S, SH), (E[..., 1::2], E[..., 0:-1:2]),
                     (E[..., 2::2], SH[..., 1::2])]:
            assert np.array_equal(
                _block_major(loopgroup._matmul(X, Y)),
                broadcast_matmul(_block_major(X), _block_major(Y)))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_nan_and_inf_propagate(self, n):
        rng = np.random.default_rng(40 + n)
        A, B = random_blocks(rng, 6, n, n), random_blocks(rng, 6, n, n)
        A[2, 0, 1], A[4, 1, 0] = np.nan, np.inf
        with np.errstate(invalid="ignore"):
            C = matmul(A, B)
            defects = loopgroup._gram_defects(_entry_major(A))[1]
        assert np.isnan(C[2, 0]).all() and not np.isfinite(C[4, 1]).all()
        assert np.isfinite(np.delete(C, [2, 4], axis=0)).all()
        # a NaN or inf block fails every `defect <= tol` check
        assert not (defects[[2, 4]] <= 1e300).any()


class TestFroNorms:
    """loopgroup._fro_norms, the stacked norm of the unitarity, anti-
    Hermiticity and raw-drift checks."""

    # every block up to 4 x 4, which includes 2 x 4 and 4 x 2, and 1 x 7
    # and 7 x 1: both sides of the 8-entry split between the sum over the
    # entry axis and np.linalg.norm; then 64 and 169 entries, where NumPy
    # sums pairwise
    @pytest.mark.parametrize("n, m", [*itertools.product(range(1, 5),
                                                         repeat=2),
                                      (1, 7), (7, 1), (8, 8), (13, 13)])
    def test_bit_exact_against_linalg_norm(self, n, m):
        rng = np.random.default_rng(10 * n + m)
        # magnitudes from 1e-200 to 1e200: squares underflow, are
        # subnormal, or overflow to inf
        S = random_blocks(rng, 512, n, m) * 10.0 ** rng.integers(
            -200, 201, (512, 1, 1))
        S[3, 0, -1], S[5, -1, 0] = np.nan, complex(np.inf, 1.0)
        S[7, 0, 0] = complex(-np.inf, np.nan)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore", invalid="ignore"):
                got = fro_norms(S)
                want = np.linalg.norm(S, axis=(-2, -1))
        assert np.array_equal(got, want, equal_nan=True)
        assert np.isinf(got).any() and np.isnan(got[3])
        assert not np.isfinite(got[[5, 7]]).any()
        assert np.array_equal(fro_norms(S[:0]), want[:0])
        assert np.array_equal(fro_norms(S[:3, :0]), np.zeros(3))


class TestCertificateGrid:
    @pytest.mark.parametrize("need,grid", [
        (0, 256), (1, 256), (256, 256), (257, 512), (1008, 1024),
        (1024, 1024), (1032, 2048), (2 ** 16, 2 ** 16)])
    def test_one_grid_rule(self, need, grid):
        # the least power of two at or above max(256, need)
        g = identity_element(1)
        assert loopgroup._first_grid(g, need) == grid

    def test_one_grid_rule_refuses_past_the_largest_grid(self):
        g = diag_zpowers([7])
        with pytest.raises(PhaseStepTooLarge,
                           match=r"band \[7, 7\] needs a certificate grid"
                                 r" of 131072, beyond 65536"):
            loopgroup._first_grid(g, 2 ** 16 + 1)

    def test_one_certificate_per_loop(self, monkeypatch):
        # loop_from_subspace certifies its loop once; unitarity_defect then
        # returns that value without sampling again
        W = window_frame(random_loop(2, 2, seed=5), 3)
        sampled = []
        certificate_samples = loopgroup._certificate_samples

        def recorded(g):
            sampled.append(g)
            return certificate_samples(g)

        monkeypatch.setattr(loopgroup, "_certificate_samples", recorded)
        g = loop_from_subspace(W)
        assert sampled == [g]
        first = unitarity_defect(g)
        assert unitarity_defect(g) == first and sampled == [g]
        N, S = certificate_samples(g)
        want = np.linalg.norm(np.conj(np.swapaxes(S, 1, 2)) @ S - np.eye(2),
                              axis=(1, 2)).max()
        assert first[0] == pytest.approx(want, rel=1e-6, abs=1e-15)

    def test_grid_resolves_the_band(self):
        # gamma = 1 + i sin(256 theta) equals 1 at every point of a 256-grid
        g = LoopGroupElement(1, {0: [[1.0]], 256: [[0.5]], -256: [[-0.5]]})
        assert unitarity_defect(g)[0] == pytest.approx(1.0, abs=1e-12)
        assert theta_variation(g)[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("K", [255, 256, 257, 1024])
    def test_variation_sees_a_frequency_above_the_band_width(self, K):
        # z^K U folds onto the mean of any grid that K is a multiple of;
        # its true deviation from its mean A_0 = 0 is ||U|| = sqrt(2)
        U = haar_unitary(2, np.random.default_rng(K))
        var, mean = theta_variation(LoopGroupElement(2, {K: U}))
        assert var == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert np.abs(mean).max() < 1e-12

    def test_frequency_beyond_the_largest_grid_raises(self):
        top = loopgroup.CERTIFICATE_MAX_GRID
        U = haar_unitary(2, np.random.default_rng(0))
        assert theta_variation(LoopGroupElement(2, {top - 1: U}))[0] == \
            pytest.approx(np.sqrt(2.0), abs=1e-12)
        for k in (top, -top, 10 ** 30):
            with pytest.raises(PhaseStepTooLarge, match="certificate grid"):
                theta_variation(LoopGroupElement(2, {k: U}))


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

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_depth0_window_recovers_up_to_constant(self, n):
        # at depth 0, <z g a, g b> = integral of conj(z) a^H b = 0, so the
        # cross-Gram of W and zW is pure roundoff and W is the intersection
        for seed in range(8):
            g = random_loop(n, 2, seed=seed)
            assert g.band[0] < g.band[1]
            ghat = loop_from_subspace(window_frame(g, 0))
            var, mean = theta_variation(multiply(inverse(g), ghat))
            assert var <= 1e-9
            np.testing.assert_allclose(mean.conj().T @ mean, np.eye(n),
                                       atol=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_window_frame_orthonormalizes_applied_basis(self, n):
        # window_frame's column (p, j) is g applied to z^p e_j, exactly
        g = random_loop(n, 2, seed=30 + n)
        depth = 4
        want = orthonormalize([apply(g, basis_loop(n, component=j,
                                                   frequency=p))
                               for p in range(depth + 1) for j in range(n)])
        got = window_frame(g, depth)
        assert got.dim == want.dim == n * (depth + 1)
        for a, b in zip(got.columns, want.columns):
            assert a.kmin == b.kmin and np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_window_frame_is_the_shifted_columns(self, n):
        # the columns of g placed at each shift are g.column(j) shifted
        g = random_loop(n, 2, seed=40 + n)
        for depth in (0, 1, 4):
            want = orthonormalize([shift(g.column(j), p)
                                   for p in range(depth + 1)
                                   for j in range(n)])
            got = window_frame(g, depth)
            assert got.stack.kmin == want.stack.kmin
            assert np.array_equal(got.stack.data, want.stack.data)

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

    def test_zero_element_roundtrip(self):
        d = {"n": 2, "mcoeffs": {}}
        g = element_from_dict(d)
        assert g.data.shape == (0, 2, 2)
        assert element_to_dict(g) == d

    def test_leaves_and_dimension_checked(self):
        d = element_to_dict(identity_element(2))
        d["mcoeffs"]["0"][1][0] = [0.0, False]
        with pytest.raises(ValueError) as info:
            element_from_dict(d)
        assert str(info.value) == (
            "coefficient at k=0 holds a value that is not a number")
        d = element_to_dict(identity_element(2)) | {"n": 2.0}
        with pytest.raises(ValueError, match="^n must be an integer"):
            element_from_dict(d)
