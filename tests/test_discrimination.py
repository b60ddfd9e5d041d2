import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from gptforge import discrimination as dc
from gptforge import numerics
from gptforge import state_space as ss
from gptforge.cli import main
from gptforge.errors import (
    DomainError,
    LpSolverFailure,
    NumericalConsistencyError,
)
from gptforge.numerics import (
    COINCIDENCE_TOL,
    DEFAULT_TOL,
    check_feasible,
    effect_program,
    lp_solve,
)

# HiGHS's default primal feasibility tolerance, at which the LP reference runs
HIGHS_FEASIBILITY_TOL = 1e-7


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

    # None: an independent coefficient; else the gap to the previous one
    GAPS = (st.sampled_from([None, 0.0])
            | st.floats(-10.0, -8.0).map(lambda e: 10.0 ** e))

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.05, 0.6), st.floats(0.05, 0.6), GAPS, GAPS,
           st.permutations(range(3)))
    @example(0.3, 0.3, 0.0, 0.0, [0, 1, 2])
    def test_coincidence_rule_matches_pairwise(self, a, b, gap1, gap2, order):
        v = [a, b if gap1 is None else a + gap1]
        v.append(0.6 - b if gap2 is None else v[1] + gap2)
        alpha = dc.AlphaTriple.of(np.array(v)[list(order)])
        # the pairwise rule the label rule replaced
        h = dc.hexagon_vertices(alpha)
        y = h.vertices[list(h.label_to_vertex)]
        pairwise = any(np.max(np.abs(y[i] - y[j])) <= COINCIDENCE_TOL
                       for i, j in itertools.combinations((0, 1, 3, 4), 2))
        assert dc.encoding_game_value(alpha).degenerate == pairwise


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


def _three_state_program(points, anchors):
    """The feasibility LP that decided three states before the direct
    solve: e_i . a_j = delta_ij and sum e_i = (1, 1, 1) over effects valid
    on ``points``."""
    k, dim = anchors.shape
    a_eq = np.zeros((k * k + dim, k * dim))
    for i in range(k):
        a_eq[i * k:(i + 1) * k, i * dim:(i + 1) * dim] = anchors
        a_eq[k * k:, i * dim:(i + 1) * dim] = np.eye(dim)
    b_eq = np.concatenate([np.eye(k).ravel(), np.ones(dim)])
    return effect_program(points, np.zeros((k, dim)), eq=(a_eq, b_eq))


def _lp_three_states(p):
    """Reference verdict on the LP ``p``: feasible when HiGHS returns a
    point that passes the DEFAULT_TOL check, either through lp_solve, the
    old route, or from one more run with presolve off at the tolerances of
    lp_solve's re-solve.  Presolve calls the LP of some nearly degenerate
    triangles infeasible although inv(Y)^T meets it within 1e-15 (see the
    examples of the triangle test).  None when no run gives an answer."""
    try:
        verdict = lp_solve(p).optimal
    except (LpSolverFailure, NumericalConsistencyError):
        verdict = None
    if verdict:
        return True
    res = linprog(p.objective, A_ub=p.ub[0], b_ub=p.ub[1], A_eq=p.eq[0],
                  b_eq=p.eq[1], bounds=(None, None), method="highs",
                  options={"presolve": False,
                           "primal_feasibility_tolerance": DEFAULT_TOL / 10,
                           "dual_feasibility_tolerance": DEFAULT_TOL / 10})
    if res.status == 0:
        try:
            check_feasible(p, res.x)
            return True
        except NumericalConsistencyError:
            pass
    return False if res.status in (0, 2) else verdict


def _barycentric_violation(p, anchors):
    """Worst violation of the equalities and validity rows of ``p`` by the
    only candidate effects, the rows of inv(Y)^T; inf when the anchors are
    singular."""
    try:
        x = np.linalg.inv(anchors).T.ravel()
    except np.linalg.LinAlgError:
        return np.inf
    if not np.all(np.isfinite(x)):  # singular, seen through a subnormal pivot
        return np.inf
    return max(np.max(np.abs(p.eq[0] @ x - p.eq[1])),
               np.max(p.ub[0] @ x - p.ub[1]))


def _assert_certified(effects, points, states):
    """The effects pass the DEFAULT_TOL check of the three-state LP."""
    check_feasible(_three_state_program(points, states), effects.ravel())


def _assert_three_states_match_lp(a):
    """Every labeled triple (repeats make singular anchors) gets the same
    answer from the direct solve as from the LP reference."""
    h = dc.hexagon_vertices(np.asarray(a) / np.sum(a))
    for chosen in itertools.combinations(range(6), 3):
        anchors = h.labeled[list(chosen)]
        effects = dc._perfect_measurement(h.vertices, anchors, np.ones(3))
        program = _three_state_program(h.vertices, anchors)
        violation = _barycentric_violation(program, anchors)
        assert (effects is not None) == (violation <= DEFAULT_TOL)
        if effects is not None:
            _assert_certified(effects, h.vertices, anchors)
        # lp_solve runs HiGHS at 1e-7 first: between that and DEFAULT_TOL / 10
        # the LP's answer depends on the point HiGHS returns
        if not DEFAULT_TOL / 10 < violation <= HIGHS_FEASIBILITY_TOL:
            assert _lp_three_states(program) == (effects is not None)
    r = dc.max_distinguishable(h)
    if r.n == 3:
        _assert_certified(r.effects, h.vertices, h.vertices[list(r.states)])


class TestThreeStatesByLinearSolve:
    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.0, 0.3), st.floats(0.02, 0.5), st.floats(0.02, 0.5))
    def test_generic_agrees_with_lp(self, low, gap1, gap2):
        _assert_three_states_match_lp([low + gap1 + gap2, low + gap2, low])

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.0, 0.3), st.floats(0.02, 0.5), st.floats(0.02, 0.5),
           st.integers(0, 1), st.floats(-9.0, -6.0))
    def test_near_equal_agrees_with_lp(self, low, gap1, gap2, j, log_gap):
        a = np.array([low + gap1 + gap2, low + gap2, low])
        a[j + 1] = a[j] - 10.0 ** log_gap
        _assert_three_states_match_lp(a)

    @settings(max_examples=15, deadline=None)
    @given(st.floats(0.0, 0.5), st.integers(0, 2))
    @example(2.225073858507e-311, 0)  # subnormal: inv gives inf, no error
    # presolve at 1e-9 calls the (1, 2, 3) LP infeasible, and at 1e-7 the
    # (0, 2, 4) LP of the second triangle; inv(Y)^T meets both
    @example(1e-8, 1)
    @example(1.3509405486230396e-09, 1)
    def test_triangle_agrees_with_lp(self, t, odd):
        a = np.full(3, t)
        a[odd] = 1.0 - 2.0 * t
        _assert_three_states_match_lp(a)

    def test_all_equal_agrees_with_lp(self):
        _assert_three_states_match_lp([1.0, 1.0, 1.0])

    @pytest.mark.parametrize("a, states", [
        # every candidate triple violates by about 9.39e-9; the LP route
        # refused (0, 1, 3) and chose (0, 3, 5)
        ([0.43131754154468194, 0.4313175387850538, 0.13736491967026423],
         (0, 1, 3)),
        # every candidate triple violates by about 8.61e-9; the LP route
        # refused them all and chose the pair (0, 3)
        ([0.4981173188635495, 0.4981173146090928, 0.0037653665273576723],
         (0, 1, 3)),
        # inv(Y)^T meets the LP within 3e-16, but HiGHS presolve called it
        # infeasible and the LP route chose the pair (0, 1)
        ([1.005438050730057e-09, 0.9999999979891239, 1.005438050730057e-09],
         (0, 1, 2)),
    ])
    def test_choice_where_lp_route_differed(self, a, states):
        # the first triple in combinations order that certifies at
        # DEFAULT_TOL
        h = dc.hexagon_vertices(a)
        r = dc.max_distinguishable(h)
        assert r.states == states
        _assert_certified(r.effects, h.vertices, h.vertices[list(states)])


@pytest.fixture()
def lp_calls(monkeypatch):
    """Every lp_solve call, wherever the package binds it."""
    calls = []
    lp_solve = numerics.lp_solve

    def counted(p):
        calls.append(p)
        return lp_solve(p)

    monkeypatch.setattr(numerics, "lp_solve", counted)
    monkeypatch.setattr(dc, "lp_solve", counted, raising=False)
    return calls


class TestLpCount:
    def test_generic_game_five_lps(self, capsys, lp_calls):
        # three pair LPs to the first feasible pair, two game LPs
        assert main(["hexagon", "0.5", "0.3", "0.2", "--game"]) == 0
        capsys.readouterr()
        assert len(lp_calls) == 5

    def test_triangle_no_lp(self, lp_calls):
        r = dc.max_distinguishable(dc.hexagon_vertices([0.5, 0.5, 0.0]))
        assert r.n == 3
        assert lp_calls == []


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
