import numpy as np
import pytest

from gptforge import compact_rep as cr
from gptforge import deformation as dm
from gptforge import discrimination as dc
from gptforge import state_space as ss
from gptforge.errors import DomainError


class TestRigidityBound:
    def test_values(self):
        assert dm.rigidity_bound(4) == pytest.approx(1 / 12)
        assert dm.rigidity_bound(2) == pytest.approx(1 / 4)

    def test_domain(self):
        with pytest.raises(DomainError):
            dm.rigidity_bound(1)


class TestSchurAverage:
    def test_unit_effect(self, bloch_2000):
        r = dm.schur_average_check(bloch_2000, [ss.unit_effect(bloch_2000)],
                                   1000, 0)[0]
        assert r.mc_average == pytest.approx(1.0, abs=1e-12)
        assert r.exact == pytest.approx(1.0, abs=1e-12)

    def test_zero_effect(self, bloch_2000):
        r = dm.schur_average_check(bloch_2000, [ss.Effect(np.zeros(4))], 500,
                                   0)[0]
        assert r.mc_average == 0.0 and r.exact == 0.0

    def test_bloch_hand_value(self, bloch_2000):
        e = ss.Effect(np.array([0.5, 0.0, 0.0, 0.5]), "(1+z)/2")
        r = dm.schur_average_check(bloch_2000, [e], 5000, 0)[0]
        assert r.exact == pytest.approx(1 / 3, abs=1e-12)
        assert r.deviation <= 4 * r.sigma

    def test_random_effects_within_4_sigma(self, bloch_2000, deformable_2000):
        rng = np.random.default_rng(21)
        for s in (bloch_2000, deformable_2000):
            dim = s.ambient_dim - 1
            for trial in range(10):
                c0 = rng.uniform(0.3, 0.7)
                w = rng.standard_normal(dim)
                w *= rng.uniform(0.1, 1.0) * min(c0, 1 - c0) / np.linalg.norm(w)
                e = ss.Effect(np.concatenate([[c0], w]))
                r = dm.schur_average_check(s, [e], 5000, rng)[0]
                assert r.deviation <= 4 * r.sigma + 1e-12


class TestLowerBound:
    def test_bloch_vs_spin2(self):
        s0, s1 = ss.bloch_spin2_pair(4000, 0)
        r = dm.structure_distance_lower_bound(s0, s1)
        assert r.bound == pytest.approx(1 / 12)
        assert r.block_dim == 3
        assert r.verified

    def test_spin2_direction_gives_one_twentieth(self):
        s0, s1 = ss.bloch_spin2_pair(4000, 0)
        r = dm.structure_distance_lower_bound(s1, s0)
        assert r.bound == pytest.approx(1 / 20)
        assert r.block_dim == 5
        assert r.verified

    def test_shared_block_rejected(self, bloch_2000):
        with pytest.raises(DomainError, match="present in both"):
            dm.structure_distance_lower_bound(bloch_2000, bloch_2000)


class TestSymmetrizedDistance:
    def test_identical_structures_near_zero(self, deformable_2000):
        r = dm.symmetrized_distance_estimate(deformable_2000, deformable_2000,
                                             rng=0)
        assert r.estimate < 0.02

    def test_symmetric_by_construction(self, deformable_2000):
        path = dm.make_deformation_path(deformable_2000)
        st = dm.deform(path, 0.05)
        r = dm.symmetrized_distance_estimate(deformable_2000, st, rng=0)
        assert r.estimate == max(r.directed_01, r.directed_10)
        assert r.estimate >= r.directed_01 and r.estimate >= r.directed_10

    def test_argument_order_irrelevant(self, deformable_2000):
        st = dm.deform(dm.make_deformation_path(deformable_2000), 0.3)
        r01 = dm.symmetrized_distance_estimate(deformable_2000, st, rng=0)
        r10 = dm.symmetrized_distance_estimate(st, deformable_2000, rng=0)
        assert r01.estimate == r10.estimate
        assert r01.directed_01 == r10.directed_10
        assert r01.directed_10 == r10.directed_01

    def test_generator_draws_one_seed(self, deformable_2000):
        st = dm.deform(dm.make_deformation_path(deformable_2000), 0.1)
        seed = int(np.random.default_rng(4).integers(2**63))
        r = dm.symmetrized_distance_estimate(deformable_2000, st,
                                             rng=np.random.default_rng(4))
        by_seed = dm.symmetrized_distance_estimate(deformable_2000, st,
                                                   rng=seed)
        assert r.seed is None
        assert (r.directed_01, r.directed_10) == (by_seed.directed_01,
                                                  by_seed.directed_10)

    def test_small_deformation_close(self, deformable_2000):
        path = dm.make_deformation_path(deformable_2000)
        st = dm.deform(path, 0.05)
        r = dm.symmetrized_distance_estimate(deformable_2000, st, rng=0)
        assert r.estimate <= 0.10 + 0.02

    def test_bloch_vs_spin2_respects_bound(self):
        s0, s1 = ss.bloch_spin2_pair(2000, 0)
        r = dm.symmetrized_distance_estimate(s0, s1, rng=0)
        assert r.lower_bound == pytest.approx(1 / 12)
        assert r.estimate >= r.lower_bound - 0.02

    def test_misaligned_samples_rejected(self, deformable_2000):
        other = ss.deformable_structure([0.5, 0.3, 0.2], 100, 0)
        with pytest.raises(DomainError, match="aligned"):
            dm.symmetrized_distance_estimate(deformable_2000, other)


class TestDeformationPath:
    def test_t_zero_identical(self, deformable_2000):
        path = dm.make_deformation_path(deformable_2000)
        s0 = dm.deform(path, 0.0)
        assert np.array_equal(s0.points, deformable_2000.points)

    def test_t_out_of_range(self, deformable_2000):
        path = dm.make_deformation_path(deformable_2000)
        with pytest.raises(DomainError):
            dm.deform(path, 1.5)

    def test_rotated_reference_stays_invariant(self, deformable_2000):
        path = dm.make_deformation_path(deformable_2000)
        proj = cr.invariant_projector(deformable_2000.rep,
                                      deformable_2000.subgroup).projector
        for t in (0.3, 0.7, 1.0):
            v = path.rotation(t)(path.w1)
            assert np.linalg.norm(proj @ v - v) < 1e-10

    def test_endpoint_changes_hexagon(self, deformable_2000):
        path = dm.make_deformation_path(deformable_2000)
        s1 = dm.deform(path, 1.0)
        a0 = dc.recover_alpha(deformable_2000).values
        a1 = dc.recover_alpha(s1).values
        assert np.max(np.abs(np.sort(a0) - np.sort(a1))) > 1e-3

    def test_rigidity_guard(self):
        s = ss.quartic_structure(2, 50, 0)
        with pytest.raises(DomainError, match="rigid"):
            dm.make_deformation_path(s)

    def test_linear_response_window(self, deformable_2000):
        path = dm.make_deformation_path(deformable_2000)
        for t in (0.02, 0.05, 0.1):
            st = dm.deform(path, t)
            r = dm.symmetrized_distance_estimate(deformable_2000, st, rng=0)
            assert 0.0 < r.estimate / t <= 2.2


class TestPureStateDistance:
    def test_self_distance_zero(self, bloch_2000):
        assert dm.pure_state_distance(bloch_2000, 4, 4) == pytest.approx(0.0,
                                                                         abs=1e-9)

    def test_antipodal_near_one(self):
        s = ss.bloch_structure(400, 2)
        v = s.points[:, 1:]
        j = int(np.argmin(v @ v[0]))
        d = dm.pure_state_distance(s, 0, j)
        assert 0.99 < d <= 1.0 + 1e-9

    def test_symmetry(self):
        s = ss.bloch_structure(200, 3)
        assert dm.pure_state_distance(s, 1, 9) == pytest.approx(
            dm.pure_state_distance(s, 9, 1), abs=1e-8)

    def test_triangle_inequality(self):
        s = ss.bloch_structure(150, 4)
        rng = np.random.default_rng(0)
        for _ in range(10):
            i, j, k = rng.integers(0, s.n_points, size=3)
            dij = dm.pure_state_distance(s, i, j)
            djk = dm.pure_state_distance(s, j, k)
            dik = dm.pure_state_distance(s, i, k)
            assert dik <= dij + djk + 1e-6

    def test_group_invariance(self):
        s = ss.bloch_structure(150, 5)
        g = cr.haar_samples(s.rep, 1, 8)[0]
        moved = ss.transform_structure(s, g)
        for i, j in ((0, 10), (3, 77)):
            assert dm.pure_state_distance(s, i, j) == pytest.approx(
                dm.pure_state_distance(moved, i, j), abs=1e-6)


class TestSweep:
    def test_rows_schema(self, deformable_2000):
        rows = dm.deformation_sweep(deformable_2000, [0.0, 0.05], rng=0)
        assert [r["t"] for r in rows] == [0.0, 0.05]
        assert rows[0]["d_sym_estimate"] < 0.02
        assert rows[0]["seed"] == 0
        assert rows[0]["n"] == 2000


class TestSweepCsv:
    def test_five_columns(self, deformable_2000):
        rows = dm.deformation_sweep(deformable_2000, [0.0], rng=0)
        out = dm.sweep_csv(rows)
        lines = out.strip().split("\n")
        assert lines[0] == "t,d_sym_estimate,seed,n"
        assert len(lines[1].split(",")) == 4
