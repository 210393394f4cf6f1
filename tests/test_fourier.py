import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from loopfiber.fourier import (TruncatedLoop, basis_loop, constant_loop,
                               evaluate, evaluate_grid, from_grid_samples,
                               inner_product, loop_allclose, loop_from_dict,
                               loop_to_dict, norm, project_minus,
                               project_plus, scalar_multiply, shift,
                               zero_loop)
from loopfiber.loopgroup import LoopGroupElement, apply, multiply
from loopfiber.subspaces import cross_gram

finite = st.floats(min_value=-2.0, max_value=2.0,
                   allow_nan=False, allow_infinity=False)


@st.composite
def loops(draw, n=None):
    if n is None:
        n = draw(st.integers(1, 3))
    ks = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=5,
                       unique=True))
    coeffs = {}
    for k in ks:
        parts = draw(st.lists(st.tuples(finite, finite),
                              min_size=n, max_size=n))
        coeffs[k] = np.array([complex(re, im) for re, im in parts])
    return TruncatedLoop(n, coeffs)


def random_loop_vec(rng, n, band=4, modes=3):
    ks = rng.choice(np.arange(-band, band + 1), size=modes, replace=False)
    return TruncatedLoop(n, {
        int(k): rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for k in ks})


class TestBasics:
    def test_constant_has_unit_norm(self):
        # circle measure is normalized, so the constant e_1 has norm 1
        assert norm(basis_loop(2)) == pytest.approx(1.0)

    def test_zero_vectors_dropped(self):
        a = TruncatedLoop(2, {0: [1, 0], 3: [0, 0]})
        assert set(a.coeffs) == {0}
        assert a.band == (0, 0)

    def test_band_hull(self):
        a = TruncatedLoop(1, {-3: [1.0], 5: [2.0]})
        assert a.band == (-3, 5)
        assert zero_loop(1).band == (0, 0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TruncatedLoop(2, {0: [1.0, 0.0, 0.0]})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            TruncatedLoop(1, {0: [bad]})

    def test_cancellation_trims_to_zero_loop(self):
        a = TruncatedLoop(2, {-3: [1.0, 2j], 4: [0.5, 0.0]})
        zero = a + (-a)
        assert zero.is_zero
        assert zero.band == (0, 0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            inner_product(basis_loop(1), basis_loop(2))


class TestInnerProduct:
    def test_hand_expansion_orthogonal_shift(self):
        # a = (z^-1 + z)/sqrt(2) e1 lives on frequencies {-1, 1}; z*a lives
        # on {0, 2}, so the Parseval sum has no shared terms at all.
        s = 1.0 / np.sqrt(2.0)
        a = TruncatedLoop(1, {-1: [s], 1: [s]})
        assert inner_product(a, a) == pytest.approx(1.0)
        assert inner_product(a, shift(a, 1)) == 0.0

    def test_conjugate_linear_first_argument(self):
        a = basis_loop(2, component=0, frequency=1)
        b = basis_loop(2, component=0, frequency=1, amplitude=2.0)
        assert inner_product(1j * a, b) == pytest.approx(-2.0j)
        assert inner_product(a, 1j * b) == pytest.approx(2.0j)

    @given(loops(n=2), loops(n=2))
    def test_conjugate_symmetry(self, a, b):
        assert inner_product(a, b) == pytest.approx(
            np.conj(inner_product(b, a)))

    @given(loops())
    def test_parseval_against_grid_mean(self, a):
        kmin, kmax = a.band
        N = max(kmax - kmin + 1, 8)
        vals = evaluate_grid(a, N)
        grid_mean = (np.abs(vals) ** 2).sum() / N
        assert inner_product(a, a).real == pytest.approx(grid_mean, abs=1e-10)
        assert abs(inner_product(a, a).imag) < 1e-12


class TestShift:
    def test_band_shifts(self):
        a = TruncatedLoop(1, {-2: [1.0], 3: [1.0]})
        assert shift(a, 5).band == (3, 8)

    @given(loops(n=1), loops(n=1), st.integers(-5, 5))
    def test_shift_is_unitary(self, a, b, p):
        lhs = inner_product(shift(a, p), shift(b, p))
        rhs = inner_product(a, b)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_shift_inverse(self):
        rng = np.random.default_rng(3)
        a = random_loop_vec(rng, 2)
        assert loop_allclose(shift(shift(a, 4), -4), a, tol=0.0)


class TestHardySplitting:
    @given(loops())
    def test_idempotent_and_complementary(self, a):
        plus, minus = project_plus(a), project_minus(a)
        assert loop_allclose(project_plus(plus), plus, tol=0.0)
        assert loop_allclose(project_minus(minus), minus, tol=0.0)
        assert loop_allclose(plus + minus, a, tol=0.0)
        assert project_minus(plus).is_zero
        assert project_plus(minus).is_zero

    @given(loops(n=2), loops(n=2))
    def test_images_orthogonal(self, a, b):
        assert abs(inner_product(project_plus(a), project_minus(b))) <= 1e-12

    def test_shift_preserves_plus_space(self):
        rng = np.random.default_rng(11)
        a = project_plus(random_loop_vec(rng, 2))
        assert shift(a, 1).band[0] >= 1
        assert project_minus(shift(a, 1)).is_zero


class TestEvaluation:
    def test_pointwise_formula(self):
        a = TruncatedLoop(1, {-1: [0.5], 2: [1.0 + 1j]})
        th = 0.7
        want = 0.5 * np.exp(-1j * th) + (1 + 1j) * np.exp(2j * th)
        got = evaluate(a, th)
        np.testing.assert_allclose(got, [want], atol=1e-14)

    def test_grid_matches_direct_evaluation(self):
        rng = np.random.default_rng(5)
        a = random_loop_vec(rng, 3, band=6, modes=5)
        N = 16
        th = 2 * np.pi * np.arange(N) / N
        np.testing.assert_allclose(evaluate_grid(a, N), evaluate(a, th),
                                   atol=1e-12)

    def test_grid_folds_a_frequency_beyond_int64(self):
        # 10**30 = 2**30 5**30 lands in bin 0 of an 8-point grid
        a = TruncatedLoop(1, {10 ** 30: [1.0], 10 ** 30 + 3: [2.0j]})
        want = evaluate_grid(TruncatedLoop(1, {0: [1.0], 3: [2.0j]}), 8)
        assert np.array_equal(evaluate_grid(a, 8), want)

    def test_frequency_beyond_float_precision_refused(self):
        # the message names the band
        with pytest.raises(ValueError, match=rf"\[{10 ** 30}, {10 ** 30}\]"):
            TruncatedLoop(1, {10 ** 30: [1.0]}).evaluate(0.3)
        with pytest.raises(ValueError, match=r"2\*\*53"):
            evaluate(TruncatedLoop(1, {-2 ** 53 - 1: [1.0]}), 0.3)

    @pytest.mark.parametrize("k", [2 ** 53, -2 ** 53])
    def test_band_reaching_float_precision_evaluates(self, k):
        a = TruncatedLoop(1, {k: [1.0], k - np.sign(k): [0.5]})
        th = np.array([0.0, 0.3])
        want = np.exp(1j * th * float(k)) + 0.5 * np.exp(
            1j * th * float(k - np.sign(k)))
        np.testing.assert_allclose(a.evaluate(th), want[:, None], rtol=0,
                                   atol=1e-15)

    def test_dft_roundtrip_256(self):
        rng = np.random.default_rng(7)
        a = random_loop_vec(rng, 2, band=10, modes=6)
        b = from_grid_samples(evaluate_grid(a, 256))
        assert loop_allclose(a, b, tol=1e-12)

    def test_roundtrip_at_minimal_grid(self):
        # band [-3, 3] has width 7; any N >= 7 must reproduce coefficients
        a = TruncatedLoop(1, {-3: [1.0], 0: [2.0], 3: [1j]})
        b = from_grid_samples(evaluate_grid(a, 7))
        assert loop_allclose(a, b, tol=1e-12)


class TestModuleAction:
    def test_hand_convolution(self):
        f = TruncatedLoop(1, {0: [1.0], 1: [1.0]})        # 1 + z
        a = basis_loop(2, component=1, frequency=-1)      # z^-1 e2
        fa = scalar_multiply(f, a)
        assert set(fa.coeffs) == {-1, 0}
        np.testing.assert_allclose(fa.coeffs[-1], [0, 1])
        np.testing.assert_allclose(fa.coeffs[0], [0, 1])

    def test_band_adds(self):
        f = TruncatedLoop(1, {-2: [1.0], 1: [1.0]})
        a = TruncatedLoop(2, {3: [1.0, 0], 5: [0, 1.0]})
        assert scalar_multiply(f, a).band == (1, 6)

    @given(loops(n=1), loops(n=2))
    def test_pointwise_product(self, f, a):
        fa = scalar_multiply(f, a)
        th = np.linspace(0.1, 6.0, 5)
        want = evaluate(f, th) * evaluate(a, th)
        np.testing.assert_allclose(evaluate(fa, th), want, atol=1e-10)

    def test_rejects_matrix_sized_scalar(self):
        with pytest.raises(ValueError):
            scalar_multiply(basis_loop(2), basis_loop(2))


class TestSerialization:
    def test_roundtrip_bit_exact(self):
        rng = np.random.default_rng(13)
        a = random_loop_vec(rng, 3, band=5, modes=4)
        blob = json.dumps(loop_to_dict(a))
        b = loop_from_dict(json.loads(blob))
        assert a.n == b.n
        assert set(a.coeffs) == set(b.coeffs)
        for k in a.coeffs:
            assert np.array_equal(a.coeffs[k], b.coeffs[k])

    def test_schema_shape(self):
        # entries are [re, im] pairs, one per vector component
        d = loop_to_dict(constant_loop([1.0, 2.0j]))
        assert d == {"n": 2, "coeffs": {"0": [[1.0, 0.0], [0.0, 2.0]]}}

    @pytest.mark.parametrize("coeffs", [{}, {"2": [[0.0, -0.0]]}])
    def test_zero_loop_roundtrip(self, coeffs):
        assert loop_to_dict(TruncatedLoop(1, {})) == {"n": 1, "coeffs": {}}
        a = loop_from_dict({"n": 1, "coeffs": coeffs})
        assert a.is_zero and a.data.shape == (0, 1)
        assert loop_to_dict(a) == {"n": 1, "coeffs": {}}

    def test_gap_frequencies_not_written(self):
        a = TruncatedLoop(2, {-3: [1.0, 0.0], 3: [0.0, 1j]})
        assert list(loop_to_dict(a)["coeffs"]) == ["-3", "3"]

    def test_wrong_block_shape_names_its_frequency(self):
        d = {"n": 2, "coeffs": {"0": [[1.0, 0.0], [0.0, 0.0]],
                                "1": [[1.0, 0.0]],
                                "2": [[0.0, 0.0], [1.0, 0.0]]}}
        with pytest.raises(ValueError) as info:
            loop_from_dict(d)
        assert str(info.value) == (
            "coefficient at k=1 has shape (1,), expected (2,)")

    def test_huge_frequency_loads(self):
        k = 10 ** 30
        a = loop_from_dict({"n": 1, "coeffs": {str(k): [[1.0, 0.5]]}})
        assert a.band == (k, k)
        assert a.coeffs[k] == np.array([1.0 + 0.5j])

    @pytest.mark.parametrize("leaf", ["2", True, None])
    def test_leaves_must_be_numbers(self, leaf):
        # float() reads "2" and true as numbers, and numpy reads null as NaN
        d = {"n": 1, "coeffs": {"0": [[1.0, 0.0]], "1": [[leaf, 0.0]]}}
        with pytest.raises(ValueError) as info:
            loop_from_dict(d)
        assert str(info.value) == (
            "coefficient at k=1 holds a value that is not a number")

    @pytest.mark.parametrize("leaf", [[1.0], {}])
    def test_nested_leaf_names_its_frequency(self, leaf):
        d = {"n": 1, "coeffs": {"-4": [[leaf, 0.0]]}}
        with pytest.raises(ValueError) as info:
            loop_from_dict(d)
        assert str(info.value) == "coefficient at k=-4 is not [re, im] pairs"

    def test_integer_leaves_read_as_floats(self):
        a = loop_from_dict({"n": 2, "coeffs": {"0": [[1, 0], [0, -2]]}})
        assert np.array_equal(a.coeffs[0], [1.0, -2.0j])

    @pytest.mark.parametrize("n", [1.9, 2.0, True, "2"])
    def test_dimension_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match="^n must be an integer"):
            loop_from_dict({"n": n, "coeffs": {"0": [[1.0, 0.0]] * 2}})

    def test_band_refusals(self):
        wide = {"0": [[1.0, 0.0]], str(2 ** 20): [[1.0, 0.0]]}
        with pytest.raises(ValueError, match="more than"):
            loop_from_dict({"n": 1, "coeffs": wide})
        # a zero block is not part of the band, however far away it is
        far = {"0": [[1.0, 0.0]], str(10 ** 30): [[0.0, -0.0]]}
        assert loop_from_dict({"n": 1, "coeffs": far}).band == (0, 0)
        with pytest.raises(ValueError, match="finite"):
            loop_from_dict({"n": 1, "coeffs": {"0": [[1e308, 1e309]]}})

    def test_edges_trimmed_and_inner_zeros_kept(self):
        # explicit zero blocks at the band edges trim away; a -0.0 block
        # inside the band keeps its sign bits, as the per-key path does
        coeffs = {"-3": [[0.0, 0.0], [-0.0, 0.0]],
                  "-1": [[0.5, -0.0], [0.0, 0.0]],
                  "0": [[-0.0, 0.0], [0.0, -0.0]],
                  "2": [[0.0, 0.0], [1.0, 0.25]],
                  "7": [[-0.0, -0.0], [0.0, 0.0]]}
        a = loop_from_dict({"n": 2, "coeffs": coeffs})
        ref = TruncatedLoop(2, {int(k): np.array(v).view(complex)[..., 0]
                                for k, v in coeffs.items()})
        assert a.band == ref.band == (-1, 2)
        assert a.data.tobytes() == ref.data.tobytes()
        assert np.signbit(a.data[1].view(float)).tolist() == [
            True, False, False, True]


def dict_convolve(a, b, pair):
    """Reference: sum_{k+l=m} pair(a_k, b_l) over two coefficient dicts."""
    out = {}
    for k, x in a.items():
        for l, y in b.items():
            out[k + l] = out.get(k + l, 0) + pair(x, y)
    return out


def dict_pairing(a, b):
    """Reference: Parseval sum over the keys two coefficient dicts share."""
    return sum((np.vdot(a[k], b[k]) for k in a.keys() & b.keys()), 0j)


def assert_same_coeffs(got, want):
    for k in got.keys() | want.keys():
        assert np.abs(got.get(k, 0) - want.get(k, 0)).max() <= 1e-12


def element(cols):
    """The matrix loop whose column j is the loop cols[j]."""
    n = len(cols)
    keys = set().union(*(c.coeffs for c in cols))
    return LoopGroupElement(n, {k: np.column_stack(
        [c.coeffs.get(k, np.zeros(n)) for c in cols]) for k in keys})


class TestDictReference:
    """Dense band arithmetic against per-frequency dict reference code."""

    @given(loops(n=2), loops(n=2), loops(n=2), loops(n=2), loops(n=2))
    def test_multiply_and_apply(self, c0, c1, d0, d1, a):
        g, h = element([c0, c1]), element([d0, d1])
        assert_same_coeffs(multiply(g, h).mcoeffs,
                           dict_convolve(g.mcoeffs, h.mcoeffs, np.matmul))
        assert_same_coeffs(apply(g, a).coeffs,
                           dict_convolve(g.mcoeffs, a.coeffs, np.matmul))

    @pytest.mark.parametrize("n", [1, 3])
    @given(data=st.data())
    def test_multiply_and_apply_n1_n3(self, n, data):
        g, h = (element([data.draw(loops(n=n)) for _ in range(n)])
                for _ in range(2))
        a = data.draw(loops(n=n))
        assert_same_coeffs(multiply(g, h).mcoeffs,
                           dict_convolve(g.mcoeffs, h.mcoeffs, np.matmul))
        assert_same_coeffs(apply(g, a).coeffs,
                           dict_convolve(g.mcoeffs, a.coeffs, np.matmul))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("wg, wh", [(1, 13), (13, 1)])
    def test_unequal_widths(self, n, wg, wh):
        rng = np.random.default_rng(7 * n + wg)
        g, h = (LoopGroupElement(n, {k - 6: rng.standard_normal((n, n))
                                     + 1j * rng.standard_normal((n, n))
                                     for k in range(w)})
                for w in (wg, wh))
        a = h.column(0)
        assert_same_coeffs(multiply(g, h).mcoeffs,
                           dict_convolve(g.mcoeffs, h.mcoeffs, np.matmul))
        assert_same_coeffs(apply(g, a).coeffs,
                           dict_convolve(g.mcoeffs, a.coeffs, np.matmul))
        f = TruncatedLoop(1, {k: h.data[k, :1, 0] for k in range(wh)})
        b = g.column(0)
        assert_same_coeffs(scalar_multiply(f, b).coeffs,
                           dict_convolve(f.coeffs, b.coeffs, np.multiply))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_zero_operand(self, n):
        rng = np.random.default_rng(n)
        g = LoopGroupElement(n, {k: rng.standard_normal((n, n))
                                 for k in (-2, 0, 3)})
        zero = LoopGroupElement(n, {})
        for product in (multiply(g, zero), multiply(zero, g),
                        apply(g, zero_loop(n)), apply(zero, g.column(0)),
                        scalar_multiply(zero_loop(1), g.column(0)),
                        scalar_multiply(TruncatedLoop(1, {1: [2.0]}),
                                        zero_loop(n))):
            assert product.is_zero and product.band == (0, 0)

    @given(loops(n=1), loops(n=3))
    def test_scalar_multiply(self, f, a):
        assert_same_coeffs(scalar_multiply(f, a).coeffs,
                           dict_convolve(f.coeffs, a.coeffs, np.multiply))

    @given(st.lists(loops(n=2), min_size=1, max_size=4),
           st.lists(loops(n=2), min_size=1, max_size=4))
    def test_pairings(self, A, B):
        want = np.array([[dict_pairing(a.coeffs, b.coeffs) for b in B]
                         for a in A])
        assert np.abs(cross_gram(A, B) - want).max() <= 1e-12
        assert abs(inner_product(A[0], B[0]) - want[0, 0]) <= 1e-12
        assert abs(norm(A[0]) - np.sqrt(
            dict_pairing(A[0].coeffs, A[0].coeffs).real)) <= 1e-12
