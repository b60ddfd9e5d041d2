import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from gptforge import compact_rep as cr
from gptforge import state_space as ss
from gptforge.errors import DomainError
from gptforge.numerics import DEFAULT_TOL
from oracles import transform_structure


def _scaled_exactly(v, j):
    """``2**j * v``, or a hypothesis reject when the product overflows or
    loses bits to the subnormal range."""
    with np.errstate(over="ignore", under="ignore"):
        scaled = np.ldexp(v, j)
    nonzero = np.abs(scaled[np.asarray(v) != 0])
    if not np.all(np.isfinite(scaled)) or np.any(nonzero < 2.0 ** -1022):
        reject()
    return scaled


FINITE = st.floats(allow_nan=False, allow_infinity=False,
                   allow_subnormal=False)


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

    @pytest.mark.parametrize("build", [
        lambda n: ss.bloch_structure(n, 1),
        lambda n: ss.bloch_structure(n, 1, via="so3"),
        lambda n: ss.spin2_structure(n, 1),
        lambda n: ss.deformable_structure([0.5, 0.3, 0.2], n, 1),
    ])
    @pytest.mark.parametrize("n", [0, -2])
    def test_no_samples_refused(self, build, n):
        with pytest.raises(DomainError, match="n_samples"):
            build(n)

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

    @settings(max_examples=100, deadline=None)
    @given(st.lists(FINITE, min_size=3, max_size=3), st.integers(-2000, 2000))
    @example([1e308, 1e308, 1e308], -1)
    @example([1e-13, 0.0, 0.0], 0)
    @example([1e-200, 1e-200, 1e-200], 1)
    def test_power_of_two_scaling_keeps_the_reference(self, r, j):
        scaled = _scaled_exactly(r, j)
        rep = cr.so_fundamental(3)
        if not np.any(r):
            for v in (r, scaled):
                with pytest.raises(DomainError, match="zero"):
                    ss.build_structure(rep, None, v, 2, 0)
            return
        a, b = (ss.build_structure(rep, None, v, 2, 0) for v in (r, scaled))
        assert np.array_equal(a.reference, b.reference)
        assert np.array_equal(a.points, b.points)
        assert abs(np.linalg.norm(a.reference) - 1.0) <= 1e-15

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
        s0 = ss.bloch_structure(100, 0, via="so3")
        s1 = ss.spin2_structure(100, 0)
        assert s0.n_points == s1.n_points == 100
        assert np.array_equal(s0.elements, s1.elements)
        # same rotation stream: z components correlate deterministically
        z0 = s0.points[:, 3]
        v5 = s1.points[:, 1:]
        # spin-2 z-value is the Legendre P2 of the spin-1 z-value
        p2 = 0.5 * (3 * z0**2 - 1)
        assert np.max(np.abs(v5[:, -1] - p2)) < 1e-10

    def test_generator_draws_one_seed(self):
        # builds align on one integer seed; two builds from one Generator
        # draw two streams and do not align
        gen = np.random.default_rng(4)
        s0 = ss.bloch_structure(50, gen, via="so3")
        assert not np.array_equal(s0.elements,
                                  ss.spin2_structure(50, gen).elements)


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
        assert np.all(ss.unit_effect(bloch_2000)(bloch_2000.points) == 1.0)


class TestWitnessEffect:
    def test_value_one_at_anchor(self, bloch_2000):
        e = ss.witness_effect(bloch_2000, anchor=3)
        assert abs(bloch_2000.points[3] @ e.vector - 1.0) < 1e-12

    def test_valid_on_whole_sample(self, bloch_2000):
        vals = ss.witness_effect(bloch_2000, anchor=0)(bloch_2000.points)
        assert vals.min() >= -DEFAULT_TOL and vals.max() <= 1.0 + DEFAULT_TOL

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
        moved = transform_structure(s, g)
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
        # equal entries, to rounding, at any scale
        for alpha in ([1 / 3, 1 / 3, 1 / 3], [0.1, 0.1, 0.1], [0.0] * 3,
                      [1e300] * 3, [1e-300] * 3):
            with pytest.raises(DomainError, match="degenerate"):
                ss.deformable_reference(alpha)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(FINITE, min_size=3, max_size=3), st.integers(-2000, 2000))
    @example([1e200, 1e199, 0.0], -1)
    @example([1e-200, 1e-201, 0.0], 1)
    def test_power_of_two_scaling_keeps_alpha_reference(self, alpha, j):
        scaled = _scaled_exactly(alpha, j)
        try:
            ref = ss.deformable_reference(alpha)
        except DomainError:
            with pytest.raises(DomainError, match="degenerate"):
                ss.deformable_reference(scaled)
            return
        assert np.array_equal(ref, ss.deformable_reference(scaled))
        assert abs(np.linalg.norm(ref) - 1.0) <= 1e-15
