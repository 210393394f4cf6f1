import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopfiber import subspaces
from loopfiber.errors import RankDeficiency
from loopfiber.fourier import (MAX_BAND_WIDTH, BandStack, TruncatedLoop,
                               basis_loop, inner_product, loop_from_dict,
                               norm, shift, stack_columns)
from loopfiber.loopgroup import apply, random_loop
from loopfiber.subspaces import (FiltrationSubspace, SubspaceFrame,
                                 _leading_frame, _shifted_stack, cross_gram,
                                 expand_filtration,
                                 filtration_from_dict, filtration_to_dict,
                                 frame_from_dict, frame_to_dict,
                                 intersect_shift_complement, orthonormalize,
                                 principal_angles)

from util import is_zero, loop_allclose, project_onto

S2 = 1.0 / np.sqrt(2.0)


def symmetric_generator():
    # (z^-1 + z)/sqrt(2) e1: unit norm, but correlated with its double shift
    return TruncatedLoop(1, {-1: [S2], 1: [S2]})


def plus_filtration(n, depth):
    gens = [basis_loop(n, component=j) for j in range(n)]
    return FiltrationSubspace(gens, depth)


def refuse_call(*args, **kwargs):
    raise AssertionError("called before the refusal")


def sequential_mgs(vectors, drop=1e-10):
    """Reference orthonormalization: modified Gram-Schmidt on loops, one
    vector at a time, with a second pass; a residual <= drop is dropped."""
    kept = []
    for v in vectors:
        w = v
        for _ in range(2):
            for q in kept:
                w = w - inner_product(q, w) * q
        r = norm(w)
        if r > drop:
            kept.append((1.0 / r) * w)
    return kept


def assert_spans(frame, vectors, tol):
    for v in vectors:
        assert norm(v - project_onto(frame, v)) <= tol


class TestOrthonormalize:
    def test_near_dependent_pair_resolved(self):
        e1 = basis_loop(1)
        nearly = e1 + 1e-3 * basis_loop(1, frequency=1)
        fr = orthonormalize([e1, nearly])
        assert fr.dim == 2
        # the second column is the z e1 direction, up to phase
        overlap = abs(inner_product(fr.columns[1],
                                    basis_loop(1, frequency=1)))
        assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_exact_duplicate_dropped(self):
        e1 = basis_loop(2)
        fr = orthonormalize([e1, e1, basis_loop(2, component=1)])
        assert fr.dim == 2

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            orthonormalize([TruncatedLoop(1, {}), TruncatedLoop(1, {})])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            orthonormalize([])

    def test_gram_identity_on_random_input(self):
        rng = np.random.default_rng(0)
        vecs = [TruncatedLoop(2, {int(k): rng.standard_normal(2)
                                  + 1j * rng.standard_normal(2)
                                  for k in rng.choice(7, 3, replace=False) - 3})
                for _ in range(5)]
        fr = orthonormalize(vecs)
        G = cross_gram(fr.columns, fr.columns)
        np.testing.assert_allclose(G, np.eye(fr.dim), atol=1e-10)

    def test_mid_list_dependence_keeps_later_direction(self):
        # 2 = 2 * 1 depends on the first vector; 1 + z after it leaves the
        # residual z, so the frame is exactly {1, z}
        one, z = basis_loop(1), basis_loop(1, frequency=1)
        vecs = [one, 2.0 * one, one + z]
        fr = orthonormalize(vecs)
        assert fr.dim == 2
        assert loop_allclose(fr.columns[0], one, tol=1e-12)
        assert loop_allclose(fr.columns[1], z, tol=1e-12)
        assert_spans(fr, vecs, 1e-12)

    def test_more_inputs_than_frequencies(self):
        # four vectors in the three frequencies 0..2; 1 + z depends on 1, z
        z0, z1, z2 = (basis_loop(1, frequency=p) for p in range(3))
        vecs = [z0, z1, z0 + z1, z2]
        fr = orthonormalize(vecs)
        assert fr.dim == 3
        for got, want in zip(fr.columns, (z0, z1, z2)):
            assert loop_allclose(got, want, tol=1e-12)
        assert_spans(fr, vecs, 1e-12)

    @pytest.mark.parametrize("n,m", [(1, 3), (2, 5), (3, 8)])
    def test_matches_sequential_mgs_on_random_input(self, n, m):
        rng = np.random.default_rng(10 * n + m)
        vecs = [TruncatedLoop(n, {k: rng.standard_normal(n)
                                  + 1j * rng.standard_normal(n)
                                  for k in range(-3, 4)})
                for _ in range(m)]
        fr, want = orthonormalize(vecs), sequential_mgs(vecs)
        assert fr.dim == len(want) == m
        for got, ref in zip(fr.columns, want):
            assert norm(got - ref) <= 1e-13

    def test_matches_sequential_mgs_on_window(self):
        # the depth-8 window of a unitary loop in C^3: 27 columns
        g = random_loop(3, 4, seed=12)
        vecs = [apply(g, basis_loop(3, component=j, frequency=p))
                for p in range(9) for j in range(3)]
        fr, want = orthonormalize(vecs), sequential_mgs(vecs)
        assert fr.dim == len(want) == 27
        for got, ref in zip(fr.columns, want):
            assert norm(got - ref) <= 1e-13


class TestFrameValidation:
    def test_non_orthonormal_rejected(self):
        e1 = basis_loop(1)
        with pytest.raises(ValueError):
            SubspaceFrame(1, [e1, e1])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SubspaceFrame(2, [basis_loop(2), basis_loop(1)])

    def test_stored_stack_is_read_only(self):
        fr = expand_filtration(plus_filtration(2, 1))
        with pytest.raises(ValueError):
            fr.stack.data[0, 0, 0] = 2.0
        assert fr.dim == fr.stack.data.shape[2] == len(fr.columns) == 4


class TestExpandFiltration:
    def test_model_plus_space_dimensions(self):
        for n in (1, 2):
            for P in (0, 2, 4):
                fr = expand_filtration(plus_filtration(n, P))
                assert fr.dim == n * (P + 1)

    def test_codimension_growth_is_n(self):
        for n in (1, 2, 3):
            f = plus_filtration(n, 3)
            d3 = expand_filtration(f).dim
            d4 = expand_filtration(f, depth=4).dim
            assert d4 - d3 == n

    def test_symmetric_generator_full_rank(self):
        # Gram of {g, zg, z^2 g} is [[1,0,.5],[0,1,0],[.5,0,1]]: eigenvalues
        # 1.5, 1.0, 0.5, comfortably nonsingular, so rank is 3
        f = FiltrationSubspace([symmetric_generator()], 2)
        shifted = [shift(symmetric_generator(), p) for p in range(3)]
        G = cross_gram(shifted, shifted)
        np.testing.assert_allclose(
            G, [[1, 0, 0.5], [0, 1, 0], [0.5, 0, 1]], atol=1e-14)
        assert expand_filtration(f).dim == 3

    def test_duplicate_generators_rank_deficient(self):
        e1 = basis_loop(2)
        with pytest.raises(RankDeficiency):
            expand_filtration(FiltrationSubspace([e1, e1], 1))

    @pytest.mark.parametrize("eps, full_rank", [(2e-4, True), (1e-4, False)])
    def test_rank_rule_bounds_least_gram_eigenvalue(self, eps, full_rank):
        # the Gram of {e1, e1 + eps e2} is [[1, 1], [1, 1 + eps^2]], whose
        # least eigenvalue is about eps^2 / 2: 2e-8 and 5e-9 against the
        # bound 1e-8
        e1, e2 = basis_loop(2), basis_loop(2, component=1)
        f = FiltrationSubspace([e1, e1 + eps * e2], 0)
        if full_rank:
            assert expand_filtration(f).dim == 2
        else:
            with pytest.raises(RankDeficiency):
                expand_filtration(f)

    def test_more_members_than_rows_rank_deficient(self, monkeypatch):
        # {1, z} at depth 1 is four members over the three frequencies 0..2,
        # refused before any factorization
        f = FiltrationSubspace([basis_loop(1), basis_loop(1, frequency=1)], 1)
        monkeypatch.setattr(np.linalg, "qr", refuse_call)
        with pytest.raises(RankDeficiency, match="4 members in 3 rows"):
            expand_filtration(f)

    def test_window_over_entry_budget_refused_before_allocation(
            self, monkeypatch):
        # depth 3000 on two generators in C^2: 6002 members of 6002
        # entries, about 0.6 GB once stacked
        monkeypatch.setattr(np.linalg, "qr", refuse_call)
        monkeypatch.setattr(subspaces, "_shifted_stack", refuse_call)
        with pytest.raises(ValueError, match="more than 16777216"):
            expand_filtration(plus_filtration(2, 3000))

    def test_entry_budget_edge(self, monkeypatch):
        # the depth-2 window of two generators in C^2 has 6 members of 6
        # entries: built under a budget of those 36 entries, refused under
        # one of 35
        f = plus_filtration(2, 2)
        monkeypatch.setattr(subspaces, "FILTRATION_MAX_ENTRIES", 36)
        assert expand_filtration(f).dim == 6
        monkeypatch.setattr(subspaces, "FILTRATION_MAX_ENTRIES", 35)
        with pytest.raises(ValueError, match="6 members of 6 entries"):
            expand_filtration(f)

    def test_huge_depth_refused_before_allocation(self):
        # the band of the shifted family is checked before it is built
        f = FiltrationSubspace([basis_loop(2, frequency=-3)], 2 ** 62)
        for depth in (None, 2 ** 62, MAX_BAND_WIDTH):
            with pytest.raises(ValueError, match="more than"):
                expand_filtration(f, depth)

    def test_shift_invariance_residual(self):
        # z . (depth-P window) sits inside the depth-(P+1) window
        f = plus_filtration(2, 3)
        frP = expand_filtration(f)
        frP1 = expand_filtration(f, depth=4)
        worst = 0.0
        for w in frP.columns:
            zw = shift(w, 1)
            res = norm(zw - project_onto(frP1, zw))
            worst = max(worst, res)
        assert worst <= 1e-10


def random_generators(rng, n, count):
    """`count` loops in C^n with Gaussian coefficients over a random band
    of one to three frequencies."""
    lo, width = int(rng.integers(-2, 2)), int(rng.integers(1, 4))
    return [TruncatedLoop(n, {k: rng.standard_normal(n)
                              + 1j * rng.standard_normal(n)
                              for k in range(lo, lo + width)})
            for _ in range(count)]


class TestLeadingFrame:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_head_of_deeper_window_is_the_window(self, n):
        # the depth-P family is the head of the depth-(P+1) family, so the
        # head of its Q is the depth-P frame, zero in the top block
        rng = np.random.default_rng(60 + n)
        for P in range(7):
            for _ in range(3):
                n_gen = int(rng.integers(1, n + 1))
                f = FiltrationSubspace(random_generators(rng, n, n_gen), P)
                k = n_gen * (P + 1)
                deeper = expand_filtration(f, P + 1)
                assert not deeper.stack.data[-1, :, :k].any()
                head, want = _leading_frame(deeper, k), expand_filtration(f)
                assert head.stack.kmin == want.stack.kmin
                assert head.stack.data.shape == want.stack.data.shape
                np.testing.assert_allclose(head.stack.data, want.stack.data,
                                           rtol=0, atol=1e-14)


def signed_zero_window(rng, n, count, depth):
    """A window of `count` generators in C^n, each over its own random band
    of one to four frequencies (three or four for the first), the first
    holding a -0.0 inside its band, where no trim reaches it."""
    gens = []
    for i in range(count):
        lo, width = int(rng.integers(-3, 3)), int(rng.integers(1, 5))
        width = max(width, 3) if i == 0 else width
        gens.append({k: rng.standard_normal(n) + 1j * rng.standard_normal(n)
                     for k in range(lo, lo + width)})
    gens[0][min(gens[0]) + 1][0] = complex(-0.0, -0.0)
    return FiltrationSubspace([TruncatedLoop(n, g) for g in gens], depth)


def reference_shifted_stack(f, depth):
    """The shifted family as loops: z^p g_j by `shift`, stacked over the
    hull of their bands, the generators' hull widened by the depth."""
    return stack_columns([shift(g, p) for p in range(depth + 1)
                          for g in f.generators])


def reference_frame(stack):
    """The frame of a full-rank stack: numpy's Q with R's diagonal made
    real and positive."""
    width, n, m = stack.data.shape
    Q, R = np.linalg.qr(stack.data.reshape(width * n, m))
    d = np.diagonal(R)
    return (Q * (d / np.abs(d))).reshape(width, n, m)


class TestWindowStack:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_shifted_family_is_the_shifted_loops(self, n):
        rng = np.random.default_rng(70 + n)
        for depth in range(5):
            f = signed_zero_window(rng, n, int(rng.integers(1, n + 1)),
                                   depth)
            re = f.stack.data.real
            assert ((re == 0) & np.signbit(re)).any()  # the -0.0 is kept
            want = reference_shifted_stack(f, depth)
            got = _shifted_stack(f.stack, depth)
            assert (got.n, got.kmin) == (want.n, want.kmin)
            assert got.data.shape == want.data.shape
            assert got.data.tobytes() == want.data.tobytes()
            frame = expand_filtration(f)
            assert frame.stack.kmin == want.kmin
            assert np.array_equal(frame.stack.data, reference_frame(want))

    def test_window_stores_its_stack_and_depth(self):
        f = signed_zero_window(np.random.default_rng(80), 2, 2, 3)
        assert set(vars(f)) == {"stack", "depth"}
        assert f.n == 2 and f.depth == 3
        with pytest.raises(ValueError):
            f.stack.data[0, 0, 0] = 1.0
        back = stack_columns(f.generators)
        assert back.kmin == f.stack.kmin
        assert back.data.tobytes() == f.stack.data.tobytes()

    def test_window_refusals(self):
        e1 = basis_loop(2)
        with pytest.raises(ValueError, match="need at least one generator"):
            FiltrationSubspace([], 1)
        with pytest.raises(ValueError, match="generator dimension mismatch"):
            FiltrationSubspace([e1, basis_loop(1)], 1)
        with pytest.raises(ValueError, match="zero generator"):
            FiltrationSubspace([e1, TruncatedLoop(2, {})], 1)
        with pytest.raises(ValueError, match="depth must be >= 0"):
            FiltrationSubspace([e1], -1)
        data = np.zeros((2, 2, 1), dtype=complex)
        data[0, 0, 0], data[1, 1, 0] = 1.0, np.nan
        with pytest.raises(ValueError, match="finite"):
            FiltrationSubspace(BandStack(2, 0, data), 1)
        with pytest.raises(ValueError, match="finite"):
            filtration_from_dict({"generators": [
                {"n": 1, "coeffs": {"0": [[1.0, 0.0]],
                                    "1": [[float("nan"), 0.0]]}}],
                "depth": 1})
        with pytest.raises(ValueError, match="zero generator"):
            filtration_from_dict({"generators": [
                {"n": 1, "coeffs": {"0": [[1.0, 0.0]]}},
                {"n": 1, "coeffs": {"3": [[0.0, -0.0]]}}], "depth": 1})


class TestIntersectShiftComplement:
    def test_model_plus_space_gives_constants(self):
        W = expand_filtration(plus_filtration(1, 3))
        inter = intersect_shift_complement(W)
        assert inter is not None and inter.dim == 1
        cos = principal_angles(inter, orthonormalize([basis_loop(1)]))
        assert cos[0] == pytest.approx(1.0, abs=1e-10)

    def test_shifted_plus_space_gives_z_line(self):
        gens = FiltrationSubspace([basis_loop(1, frequency=1)], 3)
        W = expand_filtration(gens)
        inter = intersect_shift_complement(W)
        assert inter is not None and inter.dim == 1
        target = orthonormalize([basis_loop(1, frequency=1)])
        assert principal_angles(inter, target)[0] == pytest.approx(
            1.0, abs=1e-10)

    def test_multicomponent_dimension(self):
        W = expand_filtration(plus_filtration(3, 2))
        inter = intersect_shift_complement(W)
        assert inter is not None and inter.dim == 3

    def test_symmetric_generator_has_trivial_intersection(self):
        # solved by hand: the 4x4 homogeneous system from the pairings
        # q_0 = 1, q_{+-2} = 1/2 forces every coefficient to zero
        W = expand_filtration(FiltrationSubspace([symmetric_generator()], 3))
        assert intersect_shift_complement(W) is None

    def test_members_orthogonal_to_shifted_space(self):
        W = expand_filtration(plus_filtration(2, 3))
        inter = intersect_shift_complement(W)
        for u in inter.columns:
            for w in W.columns:
                assert abs(inner_product(shift(w, 1), u)) < 1e-10


class TestPrincipalAngles:
    def test_hand_value(self):
        A = orthonormalize([basis_loop(2, component=0)])
        mixed = TruncatedLoop(2, {0: [S2, S2]})
        B = orthonormalize([mixed])
        np.testing.assert_allclose(principal_angles(A, B), [S2], atol=1e-12)

    def test_identical_spaces(self):
        fr = expand_filtration(plus_filtration(2, 1))
        cos = principal_angles(fr, fr)
        np.testing.assert_allclose(cos, np.ones(fr.dim), atol=1e-12)

    def test_orthogonal_spaces(self):
        A = orthonormalize([basis_loop(1, frequency=-1)])
        B = orthonormalize([basis_loop(1, frequency=2)])
        np.testing.assert_allclose(principal_angles(A, B), [0.0], atol=1e-14)

    def test_range_clipped(self):
        fr = expand_filtration(plus_filtration(3, 2))
        cos = principal_angles(fr, fr)
        assert np.all(cos <= 1.0) and np.all(cos >= 0.0)


def spell(k, style):
    """One of three spellings of the frequency k: "5", "05" or "+5", and
    "-5", "-05" or "-005"."""
    sign, digits = ("-", str(-k)) if k < 0 else ("", str(k))
    if style == 2:
        sign, digits = sign or "+", ("00" if sign else "") + digits
    return sign + ("0" if style == 1 else "") + digits


@st.composite
def unit_frame_dicts(draw):
    """Frame dicts whose columns are unit blocks at distinct (frequency,
    component) slots, among zero and -0.0 blocks at and inside the band's
    edges.  A frequency may be spelled twice, its first block nonzero and
    overridden by the second, which for a unit block may be zero.  The
    frequencies start near 0, at the int64 edge or beyond it."""
    n = draw(st.integers(1, 2))
    base = draw(st.sampled_from([0, -2, 2 ** 63 - 3, -2 ** 63 - 1, 10 ** 30]))
    pair = st.lists(st.sampled_from([0.0, -0.0]), min_size=2, max_size=2)
    zero = st.lists(pair, min_size=n, max_size=n)
    slots = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, n - 1)),
                          min_size=1, max_size=3, unique=True))
    columns = []
    for k, c in slots:
        unit = draw(zero)
        unit[c] = draw(st.sampled_from([[1.0, 0.0], [-1.0, -0.0],
                                        [0.0, -1.0]]))
        entries = draw(st.lists(
            st.tuples(st.integers(-2, 5).filter(lambda f: f != k), zero),
            max_size=5, unique_by=lambda e: e[0]))
        stale = [[2.0, -3.0]] * n
        if draw(st.integers(0, 3)) == 0:  # the unit block is overridden
            stale, unit = unit, draw(zero)
        entries.insert(draw(st.integers(0, len(entries))), (k, unit))
        coeffs = {}
        for f, block in entries:
            style = draw(st.integers(0, 2))
            if f == k or draw(st.booleans()):
                coeffs[spell(base + f, (style + 1) % 3)] = stale
            coeffs[spell(base + f, style)] = block
        columns.append({"n": n, "coeffs": coeffs})
    return {"n": n, "columns": columns}


class TestSerialization:
    def test_frame_roundtrip(self):
        fr = expand_filtration(plus_filtration(2, 1))
        blob = json.dumps(frame_to_dict(fr))
        back = frame_from_dict(json.loads(blob))
        assert back.dim == fr.dim
        for a, b in zip(fr.columns, back.columns):
            assert loop_allclose(a, b, tol=0.0)

    def test_filtration_roundtrip(self):
        f = FiltrationSubspace([symmetric_generator()], 5)
        back = filtration_from_dict(json.loads(
            json.dumps(filtration_to_dict(f))))
        assert back.depth == 5
        assert loop_allclose(back.generators[0], f.generators[0], tol=0.0)

    def per_key_loops(self, d):
        """The columns of a frame dict by the per-key path: one loop per
        column from a {k: block} dict, where a repeated k keeps its last
        block."""
        return [TruncatedLoop(c["n"], {
            int(k): np.array(v, dtype=float).view(complex)[..., 0]
            for k, v in c["coeffs"].items()}) for c in d["columns"]]

    def per_key_stack(self, d):
        """The stack of a frame dict by the per-key path, padded by
        stack_columns."""
        return stack_columns(self.per_key_loops(d))

    def assert_stacks_identical(self, got, want):
        assert got.n == want.n and got.kmin == want.kmin
        assert got.data.shape == want.data.shape
        assert got.data.tobytes() == want.data.tobytes()  # -0.0 bits too

    def test_bulk_frame_matches_per_column_loops(self):
        frame = orthonormalize([apply(random_loop(3, 2, seed=9),
                                      basis_loop(3, component=j, frequency=p))
                                for p in range(3) for j in range(3)])
        d = json.loads(json.dumps(frame_to_dict(frame)))
        got = frame_from_dict(d).stack
        self.assert_stacks_identical(got, self.per_key_stack(d))
        self.assert_stacks_identical(got, stack_columns(
            [loop_from_dict(c) for c in d["columns"]]))
        # the file leaves out all-zero blocks, so their -0.0 bits read as +0
        assert got.kmin == frame.stack.kmin
        assert np.array_equal(got.data, frame.stack.data)

    def test_bulk_frame_edges_signed_zeros_and_huge_keys(self):
        # column 0 carries explicit zero blocks past both band edges and a
        # -0.0 block inside its band; column 1 starts at 10**30 - 1, so the
        # hull spans frequencies no int64 holds
        big = 10 ** 30
        d = {"n": 2, "columns": [
            {"n": 2, "coeffs": {str(big - 4): [[0.0, 0.0], [0.0, 0.0]],
                                str(big - 2): [[0.6, -0.0], [0.0, 0.0]],
                                str(big - 1): [[-0.0, 0.0], [0.0, -0.0]],
                                str(big): [[0.0, 0.0], [0.0, 0.8]],
                                str(big + 5): [[-0.0, -0.0], [0.0, 0.0]]}},
            {"n": 2, "coeffs": {str(big - 1): [[0.0, 0.0], [-0.0, 1.0]],
                                str(big + 1): [[0.0, -0.0], [0.0, 0.0]]}}]}
        got = frame_from_dict(d).stack
        assert got.kmin == big - 2 and len(got.data) == 3
        self.assert_stacks_identical(got, self.per_key_stack(d))
        self.assert_stacks_identical(got, stack_columns(
            [loop_from_dict(c) for c in d["columns"]]))

    def test_repeated_frequency_keeps_its_last_block(self):
        # "2" and "02" are one frequency, as are "1" and "+1": the block read
        # last wins, also when it is zero and so moves the band's edge; a
        # zero block far outside every band is dropped
        d = {"n": 1, "columns": [
            {"n": 1, "coeffs": {"0": [[1.0, 0.0]], "2": [[0.3, 0.0]],
                                "02": [[0.0, -0.0]]}},
            {"n": 1, "coeffs": {"+1": [[0.5, 0.0]],
                                str(-10 ** 30): [[0.0, 0.0]],
                                "1": [[0.0, 1.0]]}}]}
        got = frame_from_dict(d).stack
        assert got.kmin == 0
        assert got.data.tobytes() == np.array(
            [[[1.0, 0.0]], [[0.0, 1j]]]).tobytes()
        assert loop_from_dict(
            {"n": 1, "coeffs": {"1": [[2.0, 0.0]], "01": [[3.0, 0.0]]}}
        ).data.tolist() == [[3.0]]

    @settings(max_examples=300, deadline=None)
    @given(unit_frame_dicts())
    def test_bulk_frame_matches_per_key_loops(self, d):
        loops = self.per_key_loops(d)
        if any(map(is_zero, loops)):  # a zero block was read last
            with pytest.raises(ValueError, match="not orthonormal"):
                frame_from_dict(d)
        else:
            self.assert_stacks_identical(frame_from_dict(d).stack,
                                         stack_columns(loops))

    def test_bulk_frame_refusals(self):
        def column(k, value=1.0):
            return {"n": 1, "coeffs": {str(k): [[value, 0.0]]}}

        # each column is a unit vector, but their hull is too wide to store
        with pytest.raises(ValueError, match="more than"):
            frame_from_dict({"n": 1, "columns": [column(0), column(2 ** 20)]})
        with pytest.raises(ValueError, match="finite"):
            frame_from_dict({"n": 1, "columns": [column(0, float("nan"))]})
        with pytest.raises(ValueError, match="^column dimension mismatch"):
            frame_from_dict({"n": 2, "columns": [column(0)]})
        with pytest.raises(ValueError, match="^need at least one loop"):
            frame_from_dict({"n": 1, "columns": []})
        pair = {"n": 2, "coeffs": {"0": [[1.0, 0.0], [0.0, 0.0]]}}
        with pytest.raises(ValueError, match="^loop dimension mismatch$"):
            frame_from_dict({"n": 1, "columns": [column(0), pair]})
        with pytest.raises(ValueError, match="^n must be an integer"):
            frame_from_dict({"n": 1.0, "columns": [column(0)]})

    @pytest.mark.parametrize("field, value", [
        ("n", 1.9), ("n", True), ("depth", 2.7), ("depth", "2"),
        ("depth", False)])
    def test_filtration_integers(self, field, value):
        d = {"generators": [{"n": 1, "coeffs": {"0": [[1, 0]]}}], "depth": 2}
        if field == "n":
            d["generators"][0]["n"] = value
        else:
            d["depth"] = value
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            filtration_from_dict(d)
