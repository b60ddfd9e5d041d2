import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptforge import discrimination as dc
from gptforge import state_space as ss
from gptforge.errors import DomainError
from gptforge.numerics import DEFAULT_TOL


class TestAlphaTriple:
    def test_renormalized(self):
        a = dc.AlphaTriple.of([1.0, 0.6, 0.4])
        assert abs(sum(a.values) - 1.0) < 1e-15

    def test_degeneracy_flags(self):
        assert dc.AlphaTriple.of([0.4, 0.4, 0.2]).equal_pairs() == ((0, 1),)
        assert dc.AlphaTriple.of([0.5, 0.3, 0.2]).generic

    def test_zero_sum_rejected(self):
        with pytest.raises(DomainError):
            dc.AlphaTriple.of([1.0, -1.0, 0.0])


class TestHexagonVertices:
    def test_generic_six(self):
        h = dc.hexagon_vertices([0.5, 0.3, 0.2])
        assert len(h.vertices) == 6

    def test_quantum_triangle(self):
        h = dc.hexagon_vertices([1.0, 0.0, 0.0])
        assert len(h.vertices) == 3

    def test_fully_degenerate_point(self):
        h = dc.hexagon_vertices([1 / 3, 1 / 3, 1 / 3])
        assert len(h.vertices) == 1

    def test_vertices_sum_to_one(self):
        h = dc.hexagon_vertices([0.6, 0.25, 0.15])
        assert np.max(np.abs(h.labeled.sum(axis=1) - 1.0)) < 1e-12

    def test_permutation_invariance_exact(self):
        h = dc.hexagon_vertices([0.5, 0.3, 0.2])
        rows = {tuple(r) for r in h.labeled}
        for sigma in itertools.permutations(range(3)):
            permuted = {tuple(r[list(sigma)]) for r in h.labeled}
            assert permuted == rows

    def test_opposite_sides_parallel(self):
        h = dc.hexagon_vertices([0.5, 0.3, 0.2])
        y = h.labeled
        pairs = [(y[0] - y[1]), (y[5] - y[2]), (y[4] - y[3])]
        for a, b in itertools.combinations(pairs, 2):
            assert np.linalg.norm(np.cross(a, b)) < 1e-12
        direction = np.array([0.0, 1.0, -1.0])
        for d in pairs:
            assert np.linalg.norm(np.cross(d, direction)) < 1e-12

    def test_plane_coordinates_isometric(self):
        h = dc.hexagon_vertices([0.5, 0.3, 0.2])
        flat = dc.plane_coordinates(h.labeled)
        for i, j in itertools.combinations(range(6), 2):
            d3 = np.linalg.norm(h.labeled[i] - h.labeled[j])
            d2 = np.linalg.norm(flat[i] - flat[j])
            assert abs(d3 - d2) < 1e-12

    def test_csv_schema(self):
        out = dc.hexagon_csv(dc.hexagon_vertices([0.5, 0.3, 0.2]))
        lines = out.strip().split("\n")
        assert lines[0] == "vertex,c1,c2,c3,plane_x,plane_y"
        assert len(lines) == 7


class TestMaxDistinguishable:
    def test_generic_two(self):
        r = dc.max_distinguishable(dc.hexagon_vertices([0.5, 0.3, 0.2]))
        assert r.n == 2

    def test_quantum_three(self):
        r = dc.max_distinguishable(dc.hexagon_vertices([1.0, 0.0, 0.0]))
        assert r.n == 3

    def test_fully_degenerate_one(self):
        r = dc.max_distinguishable(dc.hexagon_vertices([1 / 3, 1 / 3, 1 / 3]))
        assert r.n == 1

    def test_effects_form_valid_measurement(self):
        h = dc.hexagon_vertices([0.5, 0.3, 0.2])
        r = dc.max_distinguishable(h)
        states = h.vertices[list(r.states)]
        for i, a in enumerate(r.effects):
            vals = states @ a
            assert np.max(np.abs(vals - np.eye(r.n)[i])) < 1e-8
            all_vals = h.vertices @ a
            assert all_vals.min() > -1e-8 and all_vals.max() < 1 + 1e-8
        assert np.max(np.abs(r.effects.sum(axis=0) - 1.0)) < 1e-8

    def test_merging_never_exceeds_quantum(self):
        for alpha in ([0.4, 0.4, 0.2], [0.5, 0.25, 0.25], [0.7, 0.3, 0.0],
                      [1.0, 0.0, 0.0], [0.5, 0.5, 0.0]):
            r = dc.max_distinguishable(dc.hexagon_vertices(alpha))
            assert r.n <= 3


class TestEncodingGame:
    def test_generic_regression_value(self):
        g = dc.encoding_game_value([0.5, 0.3, 0.2])
        assert g.bit1_success == pytest.approx(1.0, abs=1e-9)
        # frozen from the LP oracle's first run
        assert g.bit2_success == pytest.approx(0.75, abs=1e-9)
        assert not g.degenerate

    def test_quantum_case(self):
        g = dc.encoding_game_value([1.0, 0.0, 0.0])
        assert g.bit1_success == pytest.approx(1.0, abs=1e-12)
        assert g.bit2_success == 0.5
        assert g.degenerate

    def test_fully_degenerate(self):
        g = dc.encoding_game_value([1 / 3, 1 / 3, 1 / 3])
        assert g.bit2_success == 0.5
        assert g.degenerate

    def test_tiny_objective(self):
        # a1 - a3 = 1.6e-6 puts the game objectives near 1e-7 per entry, the
        # size of HiGHS's absolute dual tolerance; values are the vertex
        # oracle's (tests/oracles.py) with a 1e9 box
        g = dc.encoding_game_value([0.5951756036511849, 0.33721119341209316,
                                    0.5951739926862741])
        assert g.bit1_success == pytest.approx(0.5 + 3.12245574754e-06,
                                               abs=1e-12)
        assert g.bit2_success == pytest.approx(0.5 + 1.56122787378e-06,
                                               abs=1e-12)

    def test_merged_states_keep_success_at_most_one(self):
        # a2 and a3 are 1e-9 apart, so hexagon_vertices merges labeled states;
        # objective and validity rows must then use the same merged vertex
        g = dc.encoding_game_value([0.5234375, 0.5, 0.5 - 1e-9])
        assert g.bit1_success == pytest.approx(1.0, abs=1e-12)

    def test_continuity_along_generic_path(self):
        previous = None
        for s in np.arange(0.0, 0.05 + 1e-12, 0.01):
            g = dc.encoding_game_value([0.5 - s, 0.3 + s, 0.2])
            if previous is not None:
                assert abs(g.bit2_success - previous) < 0.02
            previous = g.bit2_success


class TestNearEqual:
    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.0, 0.3), st.floats(0.02, 0.5), st.floats(0.02, 0.5),
           st.integers(0, 1), st.floats(-9.0, -6.0))
    def test_answers_certified(self, low, gap1, gap2, j, log_gap):
        # descending a1 > a2 > a3, then a_j and a_(j+1) 1e-9 to 1e-6 apart
        a = np.array([low + gap1 + gap2, low + gap2, low])
        a[j + 1] = a[j] - 10.0 ** log_gap
        h = dc.hexagon_vertices(a / a.sum())
        r = dc.max_distinguishable(h)
        e = r.effects
        assert np.max(np.abs(e.sum(axis=0) - 1.0)) <= DEFAULT_TOL
        vals = e @ h.vertices.T
        assert vals.min() >= -DEFAULT_TOL and vals.max() <= 1.0 + DEFAULT_TOL
        delta = e @ h.vertices[list(r.states)].T - np.eye(r.n)
        assert np.max(np.abs(delta)) <= DEFAULT_TOL
        # a1 > a3 with a gap of at least 0.02: the first bit stays perfect
        g = dc.encoding_game_value(h.alpha)
        assert abs(g.bit1_success - 1.0) < 1e-6


@pytest.fixture(scope="module")
def family_sample():
    return ss.deformable_structure([0.5, 0.3, 0.2], 1000, 0)


class TestSampled:
    def test_family_two_feasible(self, family_sample):
        assert dc.max_distinguishable_sampled(family_sample, 2)

    def test_family_three_infeasible(self, family_sample):
        assert not dc.max_distinguishable_sampled(family_sample, 3)

    def test_quantum_three_feasible(self):
        s = ss.deformable_structure([1.0, 0.0, 0.0], 1000, 0)
        assert dc.max_distinguishable_sampled(s, 3)

    def test_recover_alpha_is_affine_image(self, family_sample):
        a = dc.recover_alpha(family_sample)
        assert abs(sum(a.values) - 1.0) < 1e-12
        # ordering of the coefficients survives the rescaling
        assert a.a1 > a.a2 > a.a3

    def test_wrong_rep_rejected(self, bloch_2000):
        with pytest.raises(DomainError):
            dc.recover_alpha(bloch_2000)
