"""Family certification and cocycle reduction tests."""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from loopfiber import decomp, loopgroup
from loopfiber.decomp import (
    _audit_point,
    _window_key,
    audit_family,
    build_model_decomposition,
    family_from_dict,
    family_to_dict,
    filtration,
    reduction_cocycle,
    SubspaceFamily,
)
from loopfiber.errors import NonConstantReducedTransition
from loopfiber.fourier import basis_loop, shift, TruncatedLoop
from loopfiber.loopgroup import (
    apply,
    constant_element,
    diag_zpowers,
    det_winding,
    identity_element,
    multiply,
    random_loop,
    unitarity_defect,
)
from loopfiber.subspaces import (expand_filtration, FiltrationSubspace,
                                 filtration_from_dict, filtration_to_dict,
                                 orthonormalize, principal_angles)
from util import haar_unitary


def plus_window(n, depth=3):
    gens = [basis_loop(n, component=j, frequency=0) for j in range(n)]
    return FiltrationSubspace(gens, depth)


def symmetric_window(depth=3):
    g = TruncatedLoop(1, {1: [1.0 / math.sqrt(2.0)], -1: [1.0 / math.sqrt(2.0)]})
    return FiltrationSubspace([g], depth)


class TestAudit:
    def test_one_certificate_per_loop(self, monkeypatch):
        # the audit reports the certificate its one loop kept from
        # loop_from_subspace, at every point, without sampling again
        fam = build_model_decomposition([np.eye(2)] * 3)
        sampled = []
        certificate_samples = loopgroup._certificate_samples

        def recorded(g):
            sampled.append(g)
            return certificate_samples(g)

        monkeypatch.setattr(loopgroup, "_certificate_samples", recorded)
        report = audit_family(fam)
        assert len(sampled) == 1 and sampled[0] is report.gammas[0]
        defect = unitarity_defect(report.gammas[0])[0]
        assert [p.unitarity_defect for p in report.point_audits] == [defect] * 3
        assert len(sampled) == 1

    def test_model_family_passes(self):
        fam = build_model_decomposition([np.eye(2)] * 3)
        report = audit_family(fam)
        assert report.all_ok
        for p in report.point_audits:
            assert p.shift_residual < 1e-12
            assert p.growth == 2
            assert p.intersection_dim == 2
            assert p.unitarity_defect < 1e-10
        assert all(c > 1.0 - 1e-12 for c in report.edge_cosines)

    def test_twisted_image_family_passes(self):
        g = random_loop(2, band=2, seed=41)
        gens = [apply(g, basis_loop(2, component=j, frequency=0))
                for j in range(2)]
        window = FiltrationSubspace(gens, 4)
        fam = SubspaceFamily(points=(0, 1), edges=((0, 1),),
                             psi=(window, window))
        report = audit_family(fam)
        assert report.axioms_ok
        assert report.all_ok

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_depth0_twisted_window_passes(self, n):
        # the depth-0 window g . C^n is its own intersection with (zW)^perp
        g = random_loop(n, band=2, seed=70 + n)
        window = FiltrationSubspace([g.column(j) for j in range(n)], 0)
        report = audit_family(SubspaceFamily((0,), (), (window,)))
        (point,) = report.point_audits
        assert point.passed_c and point.passed
        assert point.intersection_dim == n
        assert point.dim_at_depth == n and point.dim_above == 2 * n

    def test_rigid_fiber_fails_intersection(self):
        # the symmetric generator vanishes at theta = pi/2 so its window
        # meets the shifted complement trivially: axiom (c) must fail there
        fam = SubspaceFamily(
            points=(0, 1, 2),
            edges=((0, 1), (1, 2)),
            psi=(plus_window(1), symmetric_window(), plus_window(1)),
        )
        report = audit_family(fam)
        assert not report.axioms_ok
        good0, bad, good2 = report.point_audits
        assert good0.passed and good2.passed
        assert not bad.passed_c
        assert bad.intersection_dim == 0
        assert bad.passed_a and bad.passed_b
        assert "dimension" in bad.failure

    def test_nonunitary_rebuilt_loop_fails_c(self, monkeypatch):
        # 1 + 0.1z spans a shift-stable window whose rebuilt loop is
        # unitary only to about 2.2e-9: under a 1e-9 tolerance the point
        # fails (c) with the intersection found and the defect named
        monkeypatch.setattr(loopgroup, "UNITARITY_TOL", 1e-9)
        window = FiltrationSubspace([TruncatedLoop(1, {0: [1.0], 1: [0.1]})],
                                    8)
        report = audit_family(SubspaceFamily((0,), (), (window,)))
        point = report.point_audits[0]
        assert point.passed_a and point.passed_b and not point.passed_c
        assert point.intersection_dim == 1
        assert point.unitarity_defect == pytest.approx(2.2e-9, rel=0.01)
        assert point.failure.startswith("pointwise unitarity defect "
                                        f"{point.unitarity_defect:.3e} at")

    def test_discontinuous_family_flagged(self):
        far = FiltrationSubspace([basis_loop(1, component=0, frequency=7)], 3)
        fam = SubspaceFamily(points=(0, 1), edges=((0, 1),),
                             psi=(plus_window(1), far))
        report = audit_family(fam)
        assert report.axioms_ok  # each fiber is fine on its own
        assert not report.continuity_ok
        assert report.edge_cosines[0] < 0.1
        assert not report.all_ok

    def test_equal_windows_share_the_per_point_audit(self):
        # points 2 and 3 repeat the windows of points 0 and 1 as separate,
        # bit-identical objects: the report is the one a per-point audit
        # gives, and equal windows share one loop
        g = random_loop(2, band=2, seed=41)
        twisted = FiltrationSubspace([g.column(j) for j in range(2)], 3)
        windows = (twisted, plus_window(2))
        psi = windows + tuple(filtration_from_dict(filtration_to_dict(f))
                              for f in windows)
        edges = ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 1))
        report = audit_family(SubspaceFamily(range(4), edges, psi))
        spans = [orthonormalize(f.generators) for f in psi]
        assert report.point_audits == tuple(_audit_point(x, f)[0]
                                            for x, f in enumerate(psi))
        assert report.edge_cosines == tuple(
            float(principal_angles(spans[i], spans[j]).min())
            for i, j in edges)
        assert report.gammas[2] is report.gammas[0]
        assert report.gammas[3] is report.gammas[1]
        assert report.gammas[0] is not report.gammas[1]

    def test_report_serializes(self):
        report = audit_family(build_model_decomposition([np.eye(1)]))
        blob = json.dumps(report.to_dict(), sort_keys=True)
        assert "all_ok" in blob


class TestReduction:
    def test_identity_cocycle_reduces_to_identity(self):
        fam = build_model_decomposition([np.eye(2)] * 4)
        cert = reduction_cocycle(audit_family(fam))
        for U in cert.constants:
            assert np.linalg.norm(U - np.eye(2)) < 1e-9
        assert cert.max_variation < 1e-9
        assert cert.gamma_windings == (0, 0, 0, 0)

    def test_constant_cocycle_recovered(self):
        rng = np.random.default_rng(17)
        mats = [haar_unitary(2, rng) for _ in range(4)]
        cert = reduction_cocycle(
            audit_family(build_model_decomposition(mats)))
        for U, M in zip(cert.constants, mats):
            assert np.linalg.norm(U - M) < 1e-9

    def test_path_base_supported(self):
        rng = np.random.default_rng(3)
        mats = [haar_unitary(3, rng) for _ in range(2)]
        window = plus_window(3)
        fam = SubspaceFamily(
            points=("a", "b", "c"),
            edges=((0, 1), (1, 2)),
            psi=(window,) * 3,
            transitions=tuple(constant_element(M) for M in mats),
        )
        cert = reduction_cocycle(audit_family(fam))
        for U, M in zip(cert.constants, mats):
            assert np.linalg.norm(U - M) < 1e-9

    def test_winding_transition_refused(self):
        window = plus_window(1)
        transitions = (
            identity_element(1),
            identity_element(1),
            identity_element(1),
            diag_zpowers([1]),
        )
        fam = SubspaceFamily(
            points=(0, 1, 2, 3),
            edges=((0, 1), (1, 2), (2, 3), (3, 0)),
            psi=(window,) * 4,
            transitions=transitions,
        )
        with pytest.raises(NonConstantReducedTransition) as info:
            reduction_cocycle(audit_family(fam))
        assert info.value.edge == (3, 0)
        assert info.value.winding_sum == 1
        assert info.value.variation > 0.1

    def test_matrix_winding_transition_refused(self):
        window = plus_window(2)
        fam = SubspaceFamily(
            points=(0, 1),
            edges=((0, 1), (1, 0)),
            psi=(window, window),
            transitions=(diag_zpowers([1, 0]), identity_element(2)),
        )
        with pytest.raises(NonConstantReducedTransition) as info:
            reduction_cocycle(audit_family(fam))
        assert info.value.winding_sum == 1
        assert "winding" in str(info.value)

    def test_gamma_windings_constant_for_twisted_family(self):
        g = random_loop(2, band=2, seed=23)
        gens = [apply(g, basis_loop(2, component=j, frequency=0))
                for j in range(2)]
        window = FiltrationSubspace(gens, 4)
        fam = SubspaceFamily(
            points=(0, 1, 2),
            edges=((0, 1), (1, 2), (2, 0)),
            psi=(window,) * 3,
            transitions=(identity_element(2),) * 3,
        )
        cert = reduction_cocycle(audit_family(fam))
        assert len(set(cert.gamma_windings)) == 1
        assert cert.gamma_windings[0] == det_winding(g)

    def test_audit_lends_its_loops(self):
        rng = np.random.default_rng(11)
        fam = build_model_decomposition([haar_unitary(2, rng)
                                         for _ in range(3)])
        report = audit_family(fam)
        cert = reduction_cocycle(report)
        assert all(g is h for g, h in zip(cert.gammas, report.gammas))
        again = reduction_cocycle(audit_family(fam))
        for U, V in zip(cert.constants, again.constants):
            assert np.array_equal(U, V)

    def test_loops_and_windings_once_per_window(self, monkeypatch):
        # the audit builds one loop for the three equal windows read back
        # from a file, and the reduction reads the winding of each point's
        # loop from its band
        rng = np.random.default_rng(12)
        fam = family_from_dict(json.loads(json.dumps(family_to_dict(
            build_model_decomposition([haar_unitary(2, rng)
                                       for _ in range(3)])))))
        calls = []
        for name in ("loop_from_subspace", "det_winding"):
            def counted(*args, _f=getattr(decomp, name), _name=name):
                calls.append(_name)
                return _f(*args)
            monkeypatch.setattr(decomp, name, counted)
        cert = reduction_cocycle(audit_family(fam))
        assert calls == ["loop_from_subspace"] + ["det_winding"] * 3
        assert cert.gammas[0] is cert.gammas[1] is cert.gammas[2]
        assert cert.gamma_windings == (0, 0, 0)

    @pytest.mark.parametrize("transition,defect", [
        ({}, "1.414e+00"),                              # ||0 - I|| = sqrt 2
        ({0: 2.0 * np.eye(2)}, "4.243e+00"),            # ||4I - I|| = 3 sqrt 2
        ({0: (1.0 + 6e-9) * np.eye(2)}, "1.697e-08"),   # sqrt 2 (2 delta + ...)
    ])
    def test_nonunitary_reduced_mean_refused(self, transition, defect):
        # constant transitions reduce with zero variation, to a mean with
        # the transition's defect; the transition's own certificate (bound
        # UNITARITY_TOL) refuses them before any reduction
        window = plus_window(2)
        fam = SubspaceFamily(
            points=(0, 1), edges=((0, 1), (1, 0)), psi=(window, window),
            transitions=(identity_element(2),
                         loopgroup.LoopGroupElement(2, transition)))
        with pytest.raises(ValueError, match=r"transition 1 on edge \(1, 0\) "
                           r"is not unitary: defect " + re.escape(defect)):
            reduction_cocycle(audit_family(fam))

    def test_mean_check_refuses_lent_nonunitary_loops(self):
        # the mean check still guards the reduction itself: loops lent as
        # 2 I reduce the identity transitions to 4 I, defect 15 sqrt 2
        window = plus_window(2)
        fam = SubspaceFamily(
            points=(0, 1), edges=((0, 1), (1, 0)), psi=(window, window),
            transitions=(identity_element(2),) * 2)
        audit = replace(audit_family(fam),
                        gammas=(constant_element(2.0 * np.eye(2)),) * 2)
        with pytest.raises(ValueError, match=r"transition 0 on edge \(0, 1\) "
                           r"is not unitary: reduced mean defect 2\.121e\+01"):
            reduction_cocycle(audit)

    def test_near_unitary_reduced_mean_accepted(self):
        # (1 + 3e-9) I has defect sqrt 2 (6e-9 + 9e-18), within 1e-8
        window = plus_window(2)
        fam = SubspaceFamily(
            points=(0, 1), edges=((0, 1), (1, 0)), psi=(window, window),
            transitions=(identity_element(2),
                         constant_element((1.0 + 3e-9) * np.eye(2))))
        assert reduction_cocycle(audit_family(fam)).max_variation < 1e-12

    def test_unitary_loop_passes_the_mean_check(self, monkeypatch):
        # diag(z, 1) is unitary, with mean diag(0, 1) (defect 1) and
        # variation 1: within 2 var + var^2 = 3, so a loose variation
        # tolerance reduces it to the polar factor of diag(0, 1)
        window = plus_window(2)
        fam = SubspaceFamily(
            points=(0, 1), edges=((0, 1), (1, 0)), psi=(window, window),
            transitions=(identity_element(2), diag_zpowers([1, 0])))
        monkeypatch.setattr(decomp, "VARIATION_TOL", 10.0)
        cert = reduction_cocycle(audit_family(fam))
        assert cert.variations[1] == pytest.approx(1.0, abs=1e-12)

    def test_failed_audit_refused(self):
        # axiom (c) fails at the symmetric window, which has no loop to
        # conjugate by, so the family has no reduction
        fam = SubspaceFamily(
            points=(0, 1), edges=((0, 1), (1, 0)),
            psi=(plus_window(1), symmetric_window()),
            transitions=(identity_element(1),) * 2)
        report = audit_family(fam)
        assert not report.point_audits[1].passed_c
        assert report.gammas[1] is None
        with pytest.raises(ValueError, match="failed its axioms"):
            reduction_cocycle(report)

    def test_requires_transitions(self):
        fam = SubspaceFamily(points=(0,), edges=(), psi=(plus_window(1),))
        with pytest.raises(ValueError, match="transition"):
            reduction_cocycle(audit_family(fam))

    def test_certificate_serializes(self):
        cert = reduction_cocycle(
            audit_family(build_model_decomposition([np.eye(1)] * 2)))
        d = cert.to_dict()
        blob = json.dumps(d, sort_keys=True)
        assert d["gamma_windings"] == [0, 0]
        assert "max_variation" in blob


class TestModelBuilder:
    @pytest.mark.parametrize("delta,ok", [(4e-9, True), (6e-9, False)])
    def test_unitarity_tolerance(self, delta, ok):
        # diag(1, 1 + delta) has defect 2 delta + delta^2 against 1e-8
        U = np.diag([1.0, 1.0 + delta])
        if ok:
            build_model_decomposition([np.eye(2), U])
        else:
            with pytest.raises(ValueError, match="not unitary"):
                build_model_decomposition([np.eye(2), U])

    def test_rejects_nonunitary(self):
        with pytest.raises(ValueError, match="inconsistent cocycle"):
            build_model_decomposition([np.eye(2) * 2.0])

    def test_rejects_mixed_shapes(self):
        with pytest.raises(ValueError, match="inconsistent cocycle"):
            build_model_decomposition([np.eye(2), np.eye(3)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="inconsistent cocycle"):
            build_model_decomposition([])

    def test_cycle_shape(self):
        fam = build_model_decomposition([np.eye(1)] * 5, depth=2)
        assert fam.size == 5
        assert fam.edges == ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0))
        assert all(f.depth == 2 for f in fam.psi)


class TestFiltration:
    def test_k_zero_is_identity(self):
        fam = build_model_decomposition([np.eye(1)])
        assert filtration(fam, 0) is fam

    def test_negative_k_rejected(self):
        fam = build_model_decomposition([np.eye(1)])
        with pytest.raises(ValueError, match="nonnegative"):
            filtration(fam, -1)

    def test_shifted_window_contains_unshifted(self):
        fam = build_model_decomposition([np.eye(2)], depth=3)
        lower = expand_filtration(fam.psi[0])
        deeper = expand_filtration(filtration(fam, 1).psi[0], 4)
        cos = principal_angles(lower, deeper)
        assert cos.min() > 1.0 - 1e-10

    def test_union_exhausts_band(self):
        # depth 3, k = 0..3: frequencies -3..3, so 7 n dimensions in total
        for n in (1, 2):
            fam = build_model_decomposition([np.eye(n)], depth=3)
            cols = []
            for k in range(4):
                cols.extend(expand_filtration(filtration(fam, k).psi[0]).columns)
            merged = orthonormalize(cols)
            assert merged.dim == 7 * n


    def test_shift_moves_each_generator(self):
        g = random_loop(2, band=2, seed=43)
        fam = SubspaceFamily((0,), (), (FiltrationSubspace(
            [g.column(j) for j in range(2)], 2),))
        for k in (1, 3):
            got = filtration(fam, k).psi[0]
            assert got.depth == 2
            for a, b in zip(got.generators, fam.psi[0].generators):
                want = shift(b, -k)
                assert a.kmin == want.kmin
                assert a.data.tobytes() == want.data.tobytes()


class TestWindowKey:
    @staticmethod
    def window(zero, depth=2, kmin=0):
        # a generator whose first block holds `zero` beside a nonzero entry
        return FiltrationSubspace([
            TruncatedLoop(2, {kmin: [zero, 1.0], kmin + 1: [0.5j, 0.0]}),
            basis_loop(2, component=1, frequency=kmin - 1)], depth)

    def test_equal_for_a_window_and_its_dict_round_trip(self):
        g = random_loop(2, band=2, seed=44)
        for f in (self.window(-0.0),
                  FiltrationSubspace([g.column(j) for j in range(2)], 3)):
            back = filtration_from_dict(json.loads(json.dumps(
                filtration_to_dict(f))))
            assert _window_key(back) == _window_key(f)

    def test_signed_zero_depth_and_band_tell_windows_apart(self):
        key = _window_key(self.window(0.0))
        assert _window_key(self.window(0.0)) == key
        assert _window_key(self.window(-0.0)) != key
        assert _window_key(self.window(0.0, depth=3)) != key
        assert _window_key(self.window(0.0, kmin=1)) != key


class TestFamilyStructure:
    def test_psi_count_checked(self):
        with pytest.raises(ValueError, match="per base point"):
            SubspaceFamily(points=(0, 1), edges=(), psi=(plus_window(1),))

    def test_edge_bounds_checked(self):
        with pytest.raises(ValueError, match="edge"):
            SubspaceFamily(points=(0,), edges=((0, 1),), psi=(plus_window(1),))

    def test_transition_count_checked(self):
        with pytest.raises(ValueError, match="per edge"):
            SubspaceFamily(points=(0, 1), edges=((0, 1),),
                           psi=(plus_window(1), plus_window(1)),
                           transitions=())

    @pytest.mark.parametrize("points, edges, psi, transitions, message", [
        ((), (), (), None, "family needs at least one base point"),
        ((0, 1), ((0, 1),), (plus_window(1),) * 2,
         (constant_element(np.eye(2)),), "transition dimension mismatch"),
    ], ids=["no-points", "transition-dimension"])
    def test_refusals(self, points, edges, psi, transitions, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SubspaceFamily(points, edges, psi, transitions)

    def test_fiber_dimensions_checked(self):
        with pytest.raises(ValueError, match="dimension"):
            SubspaceFamily(points=(0, 1), edges=(),
                           psi=(plus_window(1), plus_window(2)))

    @pytest.mark.parametrize("edge", [(0.0, 1), (True, 1), ("0", 1)])
    def test_edge_indices_must_be_integers(self, edge):
        # 0.0 would pass the range check and fail later as a list index;
        # True would be read as point 1
        with pytest.raises(ValueError, match="^edge index must be an integer"):
            SubspaceFamily(points=(0, 1), edges=(edge,),
                           psi=(plus_window(1),) * 2)

    def test_numpy_edge_indices_become_ints(self):
        fam = SubspaceFamily(points=(0, 1), edges=((np.int64(0), 1),),
                             psi=(plus_window(1),) * 2)
        assert fam.edges == ((0, 1),)
        assert type(fam.edges[0][0]) is int

    def test_serialization_roundtrip(self):
        rng = np.random.default_rng(8)
        fam = build_model_decomposition([haar_unitary(2, rng)
                                         for _ in range(3)])
        blob = json.dumps(family_to_dict(fam), sort_keys=True)
        back = family_from_dict(json.loads(blob))
        assert back.points == fam.points
        assert back.edges == fam.edges
        cert0 = reduction_cocycle(audit_family(fam))
        cert1 = reduction_cocycle(audit_family(back))
        for a, b in zip(cert0.constants, cert1.constants):
            assert np.allclose(a, b, atol=1e-12)

    def test_serialization_without_transitions(self):
        fam = SubspaceFamily(points=(0,), edges=(), psi=(plus_window(1),))
        back = family_from_dict(json.loads(json.dumps(family_to_dict(fam))))
        assert back.transitions is None
        assert audit_family(back).all_ok
