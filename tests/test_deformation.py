import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gptforge import compact_rep as cr
from gptforge import deformation as dm
from gptforge import discrimination as dc
from gptforge import state_space as ss
from gptforge.errors import DomainError
from oracles import coordinate_polish, directed_estimate, transform_structure


@st.composite
def polish_inputs(draw):
    """(y, x, beta, sweeps, probes) for the polish: 1 to 40 points (1 to 3
    often), 1 to 9 columns, x and y scaled by 1e-6 to 1e6, optionally a
    column of ones, a zero column, the second half of the rows duplicating
    or mirroring the first (ties in |r|) and an exact fit (every residual
    0); otherwise beta is y's least-squares fit."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.one_of(st.integers(1, 3), st.integers(4, 40)))
    m = draw(st.integers(1, 9))
    x = rng.standard_normal((n, m)) * 10.0 ** draw(st.integers(-6, 6))
    y = rng.uniform(0.0, 1.0, n) * 10.0 ** draw(st.integers(-6, 6))
    if draw(st.booleans()):
        x[:, 0] = 1.0
    if draw(st.booleans()):
        x[:, draw(st.integers(0, m - 1))] = 0.0
    half = n // 2
    sign = draw(st.sampled_from([0.0, 1.0, -1.0]))
    if sign:
        x[n - half:] = sign * x[:half]
        y[n - half:] = sign * y[:half]
    if draw(st.booleans()):
        beta = rng.standard_normal(m)
        y = x @ beta
    else:
        beta, *_ = np.linalg.lstsq(x, y, rcond=None)
    return y, x, beta, draw(st.integers(1, 3)), draw(st.integers(1, 12))


@pytest.fixture(scope="module")
def sample_pairs(deformable_2000):
    """(witness sample, matched sample) pairs, point-aligned."""
    moved = dm.deform(dm.make_deformation_path(deformable_2000), 0.05)
    bloch = ss.bloch_structure(2000, 0, via="so3")
    spin2 = ss.spin2_structure(2000, 0)
    return {"deformable": (deformable_2000, moved),
            "bloch/spin2": (bloch, spin2), "spin2/bloch": (spin2, bloch)}


class TestSchurAverage:
    def test_unit_effect(self, bloch_2000):
        r = dm.schur_average_check(bloch_2000,
                                   [ss.unit_effect(bloch_2000)])[0]
        assert r.mc_average == pytest.approx(1.0, abs=1e-12)
        assert r.exact == pytest.approx(1.0, abs=1e-12)
        assert r.ok

    def test_one_sample_rejected(self):
        # the sigma of one sample is undefined, not 0
        s = ss.bloch_structure(1, 0)
        with pytest.raises(DomainError, match="at least 2 samples"):
            dm.schur_average_check(s, [ss.unit_effect(s)])

    def test_zero_effect(self, bloch_2000):
        r = dm.schur_average_check(bloch_2000, [ss.Effect(np.zeros(4))])[0]
        assert r.mc_average == 0.0 and r.exact == 0.0

    def test_bloch_hand_value(self):
        e = ss.Effect(np.array([0.5, 0.0, 0.0, 0.5]), "(1+z)/2")
        r = dm.schur_average_check(ss.bloch_structure(5000, 0), [e])[0]
        assert r.exact == pytest.approx(1 / 3, abs=1e-12)
        assert r.deviation <= 4 * r.sigma

    def test_random_effects_within_4_sigma(self):
        # each effect averaged over its own 5,000-point sample
        rng = np.random.default_rng(21)
        for build, dim in ((lambda g: ss.bloch_structure(5000, g), 3),
                           (lambda g: ss.deformable_structure(
                               [0.5, 0.3, 0.2], 5000, g), 8)):
            for trial in range(10):
                c0 = rng.uniform(0.3, 0.7)
                w = rng.standard_normal(dim)
                w *= rng.uniform(0.1, 1.0) * min(c0, 1 - c0) / np.linalg.norm(w)
                e = ss.Effect(np.concatenate([[c0], w]))
                r = dm.schur_average_check(build(rng), [e])[0]
                assert r.deviation <= 4 * r.sigma + 1e-12
                assert r.ok


class TestLowerBound:
    def test_bloch_vs_spin2(self):
        s0 = ss.bloch_structure(4000, 0, via="so3")
        s1 = ss.spin2_structure(4000, 0)
        r = dm.structure_distance_lower_bound(s0, s1)
        assert r.bound == pytest.approx(1 / 12)
        assert r.block_dim == 3
        assert r.verified

    def test_spin2_direction_gives_one_twentieth(self):
        s0 = ss.bloch_structure(4000, 0, via="so3")
        s1 = ss.spin2_structure(4000, 0)
        r = dm.structure_distance_lower_bound(s1, s0)
        assert r.bound == pytest.approx(1 / 20)
        assert r.block_dim == 5
        assert r.verified

    def test_shared_block_rejected(self, bloch_2000):
        with pytest.raises(DomainError, match="present in both"):
            dm.structure_distance_lower_bound(bloch_2000, bloch_2000)

    def test_one_sample_rejected(self):
        # a sigma from one squared residual would be NaN
        s0 = ss.bloch_structure(1, 0, via="so3")
        s1 = ss.spin2_structure(1, 0)
        with pytest.raises(DomainError, match="at least 2 samples"):
            dm.structure_distance_lower_bound(s0, s1)


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

    @pytest.mark.parametrize("pair", ["deformable", "bloch/spin2",
                                      "spin2/bloch", "t=0.02", "t=0.05",
                                      "t=0.1"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_one_solve_matches_one_per_witness(self, sample_pairs,
                                               deformable_2000, pair, seed):
        # the whole family on one factorisation against one lstsq per
        # witness: LAPACK's many-rhs path differs in the last bits only
        if pair.startswith("t="):
            path = dm.make_deformation_path(deformable_2000)
            sa, sb = deformable_2000, dm.deform(path, float(pair[2:]))
        else:
            sa, sb = sample_pairs[pair]
        for a, b in ((sa, sb), (sb, sa)):
            assert dm._directed_estimate(a, b, seed) == pytest.approx(
                directed_estimate(a, b, seed), rel=0, abs=1e-12)

    def test_two_least_squares_solves(self, deformable_2000, monkeypatch):
        moved = dm.deform(dm.make_deformation_path(deformable_2000), 0.05)
        calls, lstsq = [], np.linalg.lstsq

        def counting_lstsq(*args, **kwargs):
            calls.append(args)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
        dm.symmetrized_distance_estimate(deformable_2000, moved, rng=0)
        assert len(calls) == 2  # one per direction, for all 8 witnesses
        assert all(b.shape == (2000, dm.WITNESSES) for _, b in calls)

    @pytest.mark.parametrize("rng", [np.random.default_rng(0), -1, 0.0,
                                     None, True])
    def test_non_integer_seed_rejected(self, deformable_2000, rng):
        with pytest.raises(DomainError, match="non-negative integer seed"):
            dm.symmetrized_distance_estimate(deformable_2000,
                                             deformable_2000, rng=rng)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_random_witnesses_own_stream(self, monkeypatch, seed):
        # the structures' Haar draw reads default_rng(seed)'s normals; no
        # random witness direction is a normalised run of D of them
        base = ss.deformable_structure([0.5, 0.3, 0.2], 200, seed)
        moved = dm.deform(dm.make_deformation_path(base), 0.05)
        witnesses, family = [], dm._witness_family

        def recording_family(*args):
            effects = family(*args)
            witnesses.extend(e for e in effects
                             if e.label == "witness[random]")
            return effects

        monkeypatch.setattr(dm, "_witness_family", recording_family)
        dm.symmetrized_distance_estimate(base, moved, rng=seed)
        d = base.rep.real_dimension
        normals = np.random.default_rng(seed).standard_normal(4096)
        runs = np.lib.stride_tricks.sliding_window_view(normals, d)
        runs = runs / np.linalg.norm(runs, axis=1, keepdims=True)
        assert witnesses
        for e in witnesses:
            w = 2.0 * e.vector[1:]
            assert np.min(np.max(np.abs(runs - w), axis=1)) > 1e-6

    def test_small_deformation_close(self, deformable_2000):
        path = dm.make_deformation_path(deformable_2000)
        st = dm.deform(path, 0.05)
        r = dm.symmetrized_distance_estimate(deformable_2000, st, rng=0)
        assert r.estimate <= 0.10 + 0.02

    def test_bloch_vs_spin2_respects_bound(self):
        s0 = ss.bloch_structure(2000, 0, via="so3")
        s1 = ss.spin2_structure(2000, 0)
        r = dm.symmetrized_distance_estimate(s0, s1, rng=0)
        bound = dm.structure_distance_lower_bound(s0, s1).bound
        assert bound == pytest.approx(1 / 12)
        assert r.estimate >= bound - 0.02

    def test_misaligned_samples_rejected(self, deformable_2000):
        other = ss.deformable_structure([0.5, 0.3, 0.2], 100, 0)
        with pytest.raises(DomainError, match="aligned"):
            dm.symmetrized_distance_estimate(deformable_2000, other)

    @pytest.mark.parametrize("distance", [
        dm.symmetrized_distance_estimate, dm.structure_distance_lower_bound])
    def test_equal_length_other_seed_rejected(self, deformable_2000,
                                              distance):
        # the same structure drawn at seed 1: equal lengths, other elements
        other = ss.deformable_structure([0.5, 0.3, 0.2], 2000, 1)
        with pytest.raises(DomainError, match="aligned"):
            distance(deformable_2000, other)

    @pytest.mark.parametrize("seed", range(16))
    def test_polish_matches_fresh_temporaries(self, seed):
        # the in-place probe buffer and the skipped steps give the same
        # coefficients as every probe run in fresh arrays
        rng = np.random.default_rng(seed)
        x = np.concatenate([np.ones((500, 1)),
                            rng.standard_normal((500, 8))], axis=1)
        y = rng.uniform(0.0, 1.0, 500)
        beta, *_ = np.linalg.lstsq(x, y, rcond=None)
        got = dm._coordinate_polish(y, x, beta, 3, 12)
        assert np.array_equal(got, coordinate_polish(y, x, beta, 3, 12)[0])

    @settings(max_examples=150, deadline=None)
    @given(polish_inputs())
    def test_polish_matches_oracle(self, case):
        y, x, beta, sweeps, probes = case
        got = dm._coordinate_polish(y, x, beta, sweeps, probes)
        want = coordinate_polish(y, x, beta, sweeps, probes)[0]
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("pair", ["deformable", "bloch/spin2",
                                      "spin2/bloch"])
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_polish_matches_oracle_on_samples(self, sample_pairs, pair,
                                              seed):
        # a random witness on one sample matched on the other's points:
        # 9, 6 and 4 columns at 2,000 points
        sa, sb = sample_pairs[pair]
        w = np.random.default_rng(seed).standard_normal(sa.ambient_dim - 1)
        y = sa.points @ np.concatenate([[0.5], w / (2 * np.linalg.norm(w))])
        beta, *_ = np.linalg.lstsq(sb.points, y, rcond=None)
        got = dm._coordinate_polish(y, sb.points, beta, dm.POLISH_SWEEPS,
                                    dm.POLISH_PROBES)
        want = coordinate_polish(y, sb.points, beta, dm.POLISH_SWEEPS,
                                 dm.POLISH_PROBES)[0]
        assert np.array_equal(got, want)

    def test_floors_skip_most_full_probes(self, deformable_2000,
                                          monkeypatch):
        moved = dm.deform(dm.make_deformation_path(deformable_2000), 0.05)
        steps, probes = [], []
        polish, probe = dm._coordinate_polish, dm._probe

        def counting_polish(y, x, beta, sweeps, n_probes):
            steps.append(coordinate_polish(y, x, beta, sweeps, n_probes)[1])
            return polish(y, x, beta, sweeps, n_probes)

        def counting_probe(*args):
            probes.append(args)
            return probe(*args)

        monkeypatch.setattr(dm, "_coordinate_polish", counting_polish)
        monkeypatch.setattr(dm, "_probe", counting_probe)
        dm.symmetrized_distance_estimate(deformable_2000, moved)
        assert 3 * len(probes) < sum(steps)

    @pytest.mark.parametrize("beta,nu", [((0.5, 0.8), 0.5 / 0.8),
                                         ((0.3, 0.5), 0.5 / 0.7)])
    def test_force_valid_shrinks_low_side(self, beta, nu):
        # x @ beta is (-0.3, 1.3) (the first gives (0.5, 0.5)) or
        # (-0.2, 0.8): the value below 0 sets the shrink 0.5 / (0.5 - lo)
        # toward the coin flip (0.5, 0), which puts that value on 0
        x = np.array([[1.0, -1.0], [1.0, 1.0]])
        beta = np.array(beta)
        got = dm._force_valid(x, beta)
        want = nu * beta + (1.0 - nu) * np.array([0.5, 0.0])
        assert np.allclose(got, want, rtol=0, atol=1e-15)
        vals = x @ got
        assert abs(vals.min()) <= 1e-15 and vals.max() <= 1.0 + 1e-15

    def test_exact_fit_floors_stay_small(self):
        # every residual is exactly 0, so every point ties for the largest:
        # the near set is capped, not 2,000 points x 256 columns x 12 probes
        rng = np.random.default_rng(0)
        x = np.concatenate([np.ones((2000, 1)),
                            rng.integers(-3, 4, (2000, 255))], axis=1)
        beta = rng.integers(-3, 4, 256).astype(float)
        y = x @ beta
        tracemalloc.start()
        try:
            got = dm._coordinate_polish(y, x, beta, dm.POLISH_SWEEPS,
                                        dm.POLISH_PROBES)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, beta)
        assert peak < 2 * 2**20


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
            v = path.reference(t)
            assert np.linalg.norm(proj @ v - v) < 1e-10

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
           st.floats(0.0, 1.0))
    def test_plane_of_two_orbits_is_the_orbit_of_the_reference(self, alpha,
                                                               t):
        assume(np.ptp(alpha) > 1e-3)
        base = ss.deformable_structure(alpha, 50, 0)
        path = dm.make_deformation_path(base)
        moved = dm.deform(path, t)
        direct = cr.act(base.rep, base.elements, path.reference(t))
        assert np.max(np.abs(moved.points[:, 1:] - direct)) <= 1e-12
        assert np.array_equal(moved.points[:, 0], np.ones(50))
        assert np.array_equal(moved.reference, path.reference(t))

    def test_deform_builds_and_projects_nothing(self, deformable_2000,
                                                monkeypatch):
        path = dm.make_deformation_path(deformable_2000)
        calls = []
        for mod in (cr, ss, dm):
            for name in ("invariant_projector", "build_structure", "act",
                         "haar_samples"):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, lambda *a, _name=name,
                                        **k: calls.append(_name))
        dm.deform(path, 0.3)
        assert calls == []

    def test_trivial_group_moves_its_mixed_state(self):
        # SU(1) fixes its single orbit point, which is also the mixed state
        rep = cr.CompactRepSpec("su_fundamental", 1)
        base = ss.build_structure(rep, cr.full_torus(), [1.0, 0.0], 5, 0)
        moved = dm.deform(dm.make_deformation_path(base), 0.4)
        rebuilt = ss.build_structure(rep, cr.full_torus(), moved.reference, 5,
                                     0)
        assert np.max(np.abs(moved.mixed - rebuilt.mixed)) <= 1e-15
        assert np.max(np.abs(moved.points - rebuilt.points)) <= 1e-15

    def test_endpoint_changes_hexagon(self, deformable_2000):
        path = dm.make_deformation_path(deformable_2000)
        s1 = dm.deform(path, 1.0)
        a0 = dc.recover_alpha(deformable_2000).values
        a1 = dc.recover_alpha(s1).values
        assert np.max(np.abs(np.sort(a0) - np.sort(a1))) > 1e-3

    @pytest.mark.parametrize("rank", [2, 3])
    def test_plane_is_a_function_of_the_projector(self, deformable_2000,
                                                  monkeypatch, rank):
        base = deformable_2000
        if rank == 3:  # SU(4) torus, a generic diagonal reference
            rep = cr.su_adjoint(4)
            ref = rep.coordinates(np.diag([0.25, 0.05, -0.1, -0.2]))
            base = ss.build_structure(rep, cr.full_torus(),
                                      ref / np.linalg.norm(ref), 50, 0)
        path = dm.make_deformation_path(base)
        proj = cr.invariant_projector(base.rep, base.subgroup)
        p, w1, w2 = proj.projector, path.w1, path.w2
        assert proj.rank == rank
        assert abs(w1 @ w2) < 1e-12 and abs(np.linalg.norm(w2) - 1.0) < 1e-12
        assert np.linalg.norm(p @ w2 - w2) < 1e-12
        noise = np.random.default_rng(3).standard_normal(p.shape)
        noisy = p + 1e-15 * (noise + noise.T) / 2.0
        monkeypatch.setattr(dm, "invariant_projector", lambda rep, sub:
                            cr.InvariantProjector(noisy, proj.rank,
                                                  proj.eigenvalues))
        again = dm.make_deformation_path(base)
        assert np.max(np.abs(again.w2 - w2)) < 1e-13

    def test_no_subgroup_rejected(self):
        s = ss.build_structure(cr.su_adjoint(3), None,
                               ss.deformable_reference([0.5, 0.3, 0.2]), 20, 0)
        with pytest.raises(DomainError, match="no subgroup"):
            dm.make_deformation_path(s)

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

    @settings(max_examples=20, deadline=None)
    @given(pair=st.lists(st.integers(0, 1999), min_size=2, max_size=2,
                         unique=True))
    def test_symmetry(self, deformable_2000, pair):
        i, j = pair
        assert (dm.pure_state_distance(deformable_2000, i, j)
                == dm.pure_state_distance(deformable_2000, j, i))

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
        moved = transform_structure(s, g)
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
