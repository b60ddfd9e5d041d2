import dataclasses

import numpy as np
import pytest

from gptforge import compact_rep as cr
from gptforge import state_space as ss
from gptforge.errors import DomainError


class TestBuildStructure:
    def test_bloch_radius_one(self, bloch_2000):
        assert ss.sphere_check(bloch_2000) < 1e-8
        radii = np.linalg.norm(bloch_2000.points - bloch_2000.mixed, axis=1)
        assert abs(radii.mean() - 1.0) < 1e-10

    def test_leading_coordinate_is_one(self, bloch_2000, deformable_2000):
        for s in (bloch_2000, deformable_2000):
            assert np.all(s.points[:, 0] == 1.0)

    def test_trivial_rep_constant_orbit(self):
        rep = cr.so_fundamental(1)
        s = ss.build_structure(rep, None, np.array([1.0]), 50, 0)
        assert np.max(np.abs(s.points - s.points[0])) == 0.0
        assert ss.sphere_check(s) == 0.0

    def test_single_point(self):
        s = ss.bloch_structure(1, 0)
        assert ss.sphere_check(s) == 0.0

    def test_deformable_family_reference(self, deformable_2000):
        # reference is a combination of the two diagonal basis directions only
        assert np.max(np.abs(deformable_2000.reference[:-2])) < 1e-12

    def test_non_invariant_reference_rejected(self):
        ref = np.zeros(8)
        ref[0] = 1.0  # an off-diagonal direction, moved by the torus
        with pytest.raises(DomainError, match="violation"):
            ss.build_structure(cr.su_adjoint(3), cr.full_torus(), ref, 10, 0)

    def test_zero_reference_rejected(self):
        with pytest.raises(DomainError):
            ss.build_structure(cr.su_adjoint(2), None, np.zeros(3), 10, 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_reference_rejected(self, bad):
        with pytest.raises(DomainError, match="non-finite"):
            ss.build_structure(cr.su_adjoint(2), None,
                               np.array([0.0, bad, 1.0]), 10, 0)

    def test_seeded_reproducibility(self):
        a = ss.bloch_structure(64, 9)
        b = ss.bloch_structure(64, 9)
        assert np.array_equal(a.points, b.points)

    def test_corrupted_sample_detected(self, bloch_2000):
        pts = bloch_2000.points.copy()
        pts[7, 1:] *= 1.1
        bad = dataclasses.replace(bloch_2000, points=pts)
        dev = ss.sphere_check(bad)
        assert 0.05 < dev < 0.15

    def test_mixed_state_group_fixed(self, bloch_2000):
        gammas = cr.rep_matrices(bloch_2000.rep,
                                 cr.haar_samples(bloch_2000.rep, 20, 5))
        moved = gammas @ bloch_2000.mixed[1:]
        assert np.max(np.abs(moved - bloch_2000.mixed[1:])) < 1e-12


class TestPairedStructures:
    def test_bloch_spin2_alignment(self):
        s0, s1 = ss.bloch_spin2_pair(100, 0)
        assert s0.n_points == s1.n_points == 100
        assert np.array_equal(s0.elements, s1.elements)
        # same rotation stream: z components correlate deterministically
        z0 = s0.points[:, 3]
        v5 = s1.points[:, 1:]
        # spin-2 z-value is the Legendre P2 of the spin-1 z-value
        p2 = 0.5 * (3 * z0**2 - 1)
        assert np.max(np.abs(v5[:, -1] - p2)) < 1e-10

    def test_incompatible_groups_rejected(self):
        with pytest.raises(DomainError, match="fundamental group"):
            ss.paired_structures(cr.su_adjoint(2), np.array([0, 0, 1.0]),
                                 cr.su_adjoint(3), np.zeros(8), 10, 0)


class TestAugmentedLayout:
    def test_orbit_points_prefix_one(self):
        rep = cr.su_adjoint(3)
        g = cr.haar_samples(rep, 7, 3)
        v = np.array([0, 0, 0, 0, 0, 0, 0.6, 0.8])
        pts = ss.orbit_points(rep, g, v)
        assert pts.shape == (7, 9)
        assert np.all(pts[:, 0] == 1.0)
        assert np.array_equal(pts[:, 1:], cr.act(rep, g, v))

    def test_affine_effect(self, bloch_2000):
        w = np.array([0.1, -0.2, 0.3])
        e = ss.Effect.affine(0.4, w, "f")
        assert e.label == "f"
        assert np.array_equal(e.vector, [0.4, 0.1, -0.2, 0.3])
        assert np.allclose(e(bloch_2000.points),
                           0.4 + bloch_2000.points[:, 1:] @ w, atol=1e-15)


class TestEffects:
    def test_unit_effect(self, bloch_2000):
        v = ss.effect_valid(bloch_2000, ss.unit_effect(bloch_2000))
        assert v.valid and v.min_value == v.max_value == 1.0

    def test_zero_effect(self, bloch_2000):
        zero = ss.Effect(np.zeros(4), "0")
        v = ss.effect_valid(bloch_2000, zero)
        assert v.valid and v.min_value == v.max_value == 0.0

    def test_out_of_range_effect(self, bloch_2000):
        e = ss.Effect(np.array([0.5, 0.0, 0.0, 1.0]))
        v = ss.effect_valid(bloch_2000, e)
        assert not v.valid and v.max_value > 1.0

    def test_dimension_mismatch(self, bloch_2000):
        with pytest.raises(DomainError):
            ss.effect_valid(bloch_2000, ss.Effect(np.zeros(5)))


class TestWitnessEffect:
    def test_value_one_at_anchor(self, bloch_2000):
        e = ss.witness_effect(bloch_2000, anchor=3)
        assert abs(bloch_2000.points[3] @ e.vector - 1.0) < 1e-12

    def test_valid_on_whole_sample(self, bloch_2000):
        e = ss.witness_effect(bloch_2000, anchor=0)
        assert ss.effect_valid(bloch_2000, e).valid

    def test_haar_average_one_half(self, bloch_2000):
        e = ss.witness_effect(bloch_2000, anchor=0)
        mean = (bloch_2000.points @ e.vector).mean()
        assert abs(mean - 0.5) < 5.0 / np.sqrt(bloch_2000.n_points)

    def test_zero_anchor_block_rejected(self, bloch_2000):
        pts = bloch_2000.points.copy()
        pts[0, 1:] = 0.0
        bad = dataclasses.replace(bloch_2000, points=pts)
        with pytest.raises(DomainError, match="zero component"):
            ss.witness_effect(bad, anchor=0)


class TestOrbitKernel:
    @pytest.mark.parametrize("rep, sub, ref", [
        (cr.su_adjoint(3), cr.full_torus(),
         [0, 0, 0, 0, 0, 0, 0.6, 0.8]),
        (cr.so_traceless_symmetric(3), cr.full_torus(), [0, 0, 0, 0, 1.0]),
        (cr.so_fundamental(3), cr.full_torus(), [0, 0, 1.0]),
        (cr.su_fundamental(3), None, [0.1, -0.4, 0.3, 0.5, 0.2, -0.6]),
    ])
    def test_orbit_matches_rep_matrices(self, rep, sub, ref):
        s = ss.build_structure(rep, sub, np.array(ref), 300, 4)
        gammas = cr.rep_matrices(rep, s.elements)
        assert np.max(np.abs(s.points[:, 1:] - gammas @ s.reference)) < 1e-14


class TestCovariance:
    def test_orbit_covariance_hausdorff(self):
        s = ss.bloch_structure(1000, 3)
        g = cr.haar_samples(s.rep, 1, 17)[0]
        moved = ss.transform_structure(s, g)
        a = s.points[:, 1:]
        b = moved.points[:, 1:]
        d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
        hausdorff = np.sqrt(max(d2.min(axis=0).max(), d2.min(axis=1).max()))
        spacing = np.sqrt(np.where(np.eye(len(a), dtype=bool),
                                   np.inf,
                                   np.sum((a[:, None] - a[None]) ** 2, axis=2)
                                   ).min(axis=1).max())
        assert hausdorff <= 2.0 * spacing

    def test_bloch_inner_products_fill_range(self, bloch_2000):
        v = bloch_2000.points[:, 1:]
        gram = v @ v.T
        assert gram.min() < -0.99
        assert gram.max() > 0.999


class TestStockStructures:
    def test_quartic_reference_block_invariance(self):
        s = ss.quartic_structure(2, 50, 0)
        h = cr.subgroup_samples(s.rep, cr.block_subgroup(2, 2), 5, 4)
        gammas = cr.rep_matrices(s.rep, h)
        assert np.max(np.abs(gammas @ s.reference - s.reference)) < 1e-10

    def test_deformable_alpha_roundtrip(self):
        ref = ss.deformable_reference([0.5, 0.3, 0.2])
        t = cr.gell_mann_basis(3)
        m = np.einsum("a,aij->ij", ref, t)
        diag = np.real(np.diag(m))
        # proportional to alpha - 1/3
        alpha = np.array([0.5, 0.3, 0.2]) - 1.0 / 3.0
        ratio = diag / alpha
        assert np.max(np.abs(ratio - ratio[0])) < 1e-10

    def test_fully_degenerate_alpha_rejected(self):
        with pytest.raises(DomainError):
            ss.deformable_reference([1 / 3, 1 / 3, 1 / 3])
