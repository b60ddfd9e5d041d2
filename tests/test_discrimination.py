import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from gptforge import deformation
from gptforge import discrimination as dc
from gptforge import numerics
from gptforge import state_space as ss
from gptforge.cli import main
from gptforge.errors import DomainError, NumericalConsistencyError
from gptforge.numerics import (
    COINCIDENCE_TOL,
    DEFAULT_TOL,
    check_feasible,
    effect_lp,
    effect_program,
)

from oracles import barycentric_oracle, game_lp_oracle, highs_lp

# HiGHS's default primal feasibility tolerance, at which the LP reference runs
HIGHS_FEASIBILITY_TOL = 1e-7
# float evaluation of e . x errs by about |e| |x| eps, so float checks of a
# three-state answer (check_feasible, HiGHS) resolve DEFAULT_TOL only on
# effects up to this size; a triangle of width w has effects near 1 / w
FLOAT_EFFECT_BOUND = DEFAULT_TOL / (64 * np.finfo(float).eps)


class TestAlphaTriple:
    def test_renormalized(self):
        a = dc.AlphaTriple.of([1.0, 0.6, 0.4])
        assert abs(sum(a.values) - 1.0) < 1e-15

    def test_zero_sum_rejected(self):
        with pytest.raises(DomainError):
            dc.AlphaTriple.of([1.0, -1.0, 0.0])
        with pytest.raises(DomainError):
            dc.AlphaTriple.of([0.0, 0.0, 0.0])
        with pytest.raises(DomainError):  # zero up to roundoff
            dc.AlphaTriple.of([0.1, 0.2, -0.3])
        # within the sum's rounding error: 1e20 + 1 - 1e20 is 0 in floats
        for a in ([1e20, -1e20, 1.0], [1e20, 1.0, -1e20]):
            with pytest.raises(DomainError):
                dc.AlphaTriple.of(a)

    @pytest.mark.parametrize("a, expected", [
        ([5e-14, 3e-14, 2e-14], [0.5, 0.3, 0.2]),  # sum below ZERO_NORM
        ([1e308, 1e308, 1e308], [1 / 3] * 3),  # sum overflows
        ([1e13, -1e13, 1.0], [1e13, -1e13, 1.0]),  # exact, cancelling sum
    ])
    def test_extreme_magnitudes(self, a, expected):
        assert dc.AlphaTriple.of(a).values == pytest.approx(expected,
                                                            abs=1e-15)


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


def _oracle_game(h):
    """(bit1, bit2) from the exact game-LP oracle, each rounded once; bit 2 is
    1/2 when two game labels share a vertex."""
    y = h.vertices[list(h.label_to_vertex)]

    def guess(plus, minus):
        return float(Fraction(1, 2)
                     + game_lp_oracle(h.vertices, y[plus], y[minus]))

    bit1 = guess([0, 1], [3, 4])
    if len({h.label_to_vertex[i] for i in (0, 1, 3, 4)}) < 4:
        return bit1, 0.5
    return bit1, guess([0, 4], [1, 3])


@st.composite
def game_triples(draw):
    """Generic triples (unsorted, some entries negative), near-equal pairs,
    chains of two near-equal pairs, or three equal entries, at a random
    scale and sign.  Gaps run from 1e-17 to 1e-5 and cluster around
    COINCIDENCE_TOL, where labelled rows start to merge."""
    gap = (st.floats(-17.0, -5.0).map(lambda e: 10.0 ** e)
           | st.floats(0.4 * COINCIDENCE_TOL, 1.1 * COINCIDENCE_TOL))
    signed_gap = st.tuples(gap, st.sampled_from([1.0, -1.0])).map(
        lambda p: p[0] * p[1])
    kind = draw(st.sampled_from(["generic", "generic", "pair", "chain",
                                 "equal"]))
    x = draw(st.floats(-2.0, 2.0))
    if kind == "generic":
        y = draw(st.floats(-2.0, 2.0))
        a = [x, y, 1.0 - x - y]
    elif kind == "pair":
        g = draw(signed_gap)
        a = [x, x + g, 1.0 - 2.0 * x - g]
    elif kind == "chain":
        g1, g2 = draw(signed_gap), draw(signed_gap)
        x = (1.0 - 2.0 * g1 - g2) / 3.0
        a = [x, x + g1, x + g1 + g2]
    else:
        a = [x, x, x]
    scale = draw(st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e))
    sign = draw(st.sampled_from([1.0, -1.0]))
    return [sign * scale * a[i] for i in draw(st.permutations(range(3)))]


class TestGameClosedForm:
    @settings(max_examples=150, deadline=None)
    @given(game_triples())
    @example([0.5, 0.3, 0.2])
    @example([1.0, 0.0, 0.0])
    @example([1 / 3, 1 / 3, 1 / 3])
    @example([0.5234375, 0.5, 0.5 - 1e-9])
    @example(list(0.0625 + np.array([0.0, 1e-10, 2e-10])))
    def test_matches_exact_lp_oracle(self, a):
        try:
            g = dc.encoding_game_value(a)
        except DomainError:  # coefficients summing to zero
            reject()
        h = dc.hexagon_vertices(a)
        assert len(h.vertices) in {1, 2, 3, 6}
        assert (g.bit1_success, g.bit2_success) == _oracle_game(h)
        merged = len({h.label_to_vertex[i] for i in (0, 1, 3, 4)}) < 4
        assert g.degenerate == merged


class TestScaleInvariance:
    @settings(max_examples=100, deadline=None)
    @given(game_triples(), st.integers(-1000, 1000))
    @example([0.5, 0.3, 0.2], 1000)
    @example([0.5, 0.3, 0.2], -1000)
    def test_power_of_two_scaling_changes_nothing(self, a, k):
        scaled = np.ldexp(a, k)
        nonzero = np.abs(scaled[np.asarray(a) != 0])
        if not np.all(np.isfinite(scaled)) or np.any(nonzero < 2.0 ** -1022):
            reject()  # overflowed, or lost bits to the subnormal range
        try:
            alpha = dc.AlphaTriple.of(a)
        except DomainError:  # coefficients summing to zero
            with pytest.raises(DomainError):
                dc.AlphaTriple.of(scaled)
            return
        other = dc.AlphaTriple.of(scaled)
        assert np.array_equal(alpha.values, other.values)
        r, s = (dc.max_distinguishable(dc.hexagon_vertices(x))
                for x in (alpha, other))
        assert (r.n, r.states) == (s.n, s.states)
        g, f = (dc.encoding_game_value(x) for x in (a, scaled))
        assert (g.bit1_success, g.bit2_success) == (f.bit1_success,
                                                    f.bit2_success)


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
    """Reference verdict on the LP ``p`` from HiGHS alone: feasible when
    HiGHS returns a point that passes the DEFAULT_TOL check, at its defaults,
    at DEFAULT_TOL / 10, or with presolve off at DEFAULT_TOL / 10.
    Presolve calls the LP of some nearly degenerate triangles infeasible
    although inv(Y)^T meets it within 1e-15 (see the examples of the
    triangle test).  None when no run gives an answer."""
    status = highs_lp(p)[0]
    if status == "optimal":
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
    return False if res.status in (0, 2) or status else None


def _assert_certified(effects, points, states):
    """The effects pass the DEFAULT_TOL check of the three-state LP, in exact
    rationals and, where floats resolve it, by check_feasible."""
    program = _three_state_program(points, states)
    if np.max(np.abs(effects)) <= FLOAT_EFFECT_BOUND:
        check_feasible(program, effects.ravel())
    assert _exact_excess(program, effects) <= DEFAULT_TOL


def _exact_excess(p, x):
    """The largest equality residual or inequality excess of ``x`` on ``p``,
    the quantity check_feasible bounds, in exact rationals."""
    x = [Fraction(float(v)) for v in np.ravel(x)]

    def rows(a, b):
        return [sum(Fraction(float(u)) * v for u, v in zip(row, x) if u)
                - Fraction(float(r)) for row, r in zip(a, b)]

    return max([abs(v) for v in rows(*p.eq)] + rows(*p.ub))


def _rounded(exact):
    return [[float(v) for v in e] for e in exact]


def _assert_barycentric(effects, points, states):
    """The effects are the oracle's exact barycentric effects rounded once,
    and they are certified."""
    assert effects.tolist() == _rounded(barycentric_oracle(points, states)[0])
    _assert_certified(effects, points, states)


def _assert_three_states_match_lp(a):
    """Every labeled triple (repeats make singular anchors) gets the same
    answer from the exact kernel as from the exact barycentric oracle, and
    from the LP reference where HiGHS decides at DEFAULT_TOL."""
    h = dc.hexagon_vertices(np.asarray(a) / np.sum(a))
    nv = len(h.vertices)
    for chosen in itertools.combinations(range(6), 3):
        anchors = h.labeled[list(chosen)]
        rows, scale = dc._dyadic_rows(np.concatenate([h.vertices, anchors]))
        effects = dc._triangle_measurement(rows, scale, (nv, nv + 1, nv + 2))
        exact, violation = barycentric_oracle(h.vertices, anchors)
        assert (effects is not None) == (violation <= DEFAULT_TOL)
        size = 0.0 if exact is None else np.max(np.abs(_rounded(exact)))
        # labeled rows an ulp apart give valid effects near 1e16, which
        # neither floats nor their rounding resolve; they are never vertices
        unresolved = effects is not None and size > FLOAT_EFFECT_BOUND
        if effects is not None:
            assert effects.tolist() == _rounded(exact)
            if not unresolved:
                _assert_certified(effects, h.vertices, anchors)
        program = _three_state_program(h.vertices, anchors)
        # the reference runs HiGHS at 1e-7 first: between that and
        # DEFAULT_TOL / 10 the LP's answer depends on the point HiGHS
        # returns, and HiGHS evaluates e . x with an error up to about
        # size * 64 eps
        slack = size * 64 * np.finfo(float).eps
        undecided = (DEFAULT_TOL / 10 < violation
                     <= HIGHS_FEASIBILITY_TOL + slack)
        if not (unresolved or undecided):
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
    # the labeled rows differ by an ulp: nearly singular anchors, effects
    # near 1e16, exactly valid on the one merged vertex
    @example(1 / 3, 0)
    def test_triangle_agrees_with_lp(self, t, odd):
        a = np.full(3, t)
        a[odd] = 1.0 - 2.0 * t
        _assert_three_states_match_lp(a)

    def test_all_equal_agrees_with_lp(self):
        _assert_three_states_match_lp([1.0, 1.0, 1.0])

    def test_kernel_solves_lp_that_presolve_refused(self):
        # HiGHS presolve called this three-state LP infeasible, although
        # inv(Y)^T meets it within 3e-16; the numpy kernel certifies it
        h = dc.hexagon_vertices([1.005438050730057e-09, 0.9999999979891239,
                                 1.005438050730057e-09])
        program = _three_state_program(h.vertices, h.vertices)
        res = numerics.lp_solve(program)
        assert res.optimal
        check_feasible(program, res.x)

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


class TestThinTriangles:
    def test_pinned_cli_triangle(self, capsys):
        # 1.7e-9 wide after normalisation: the float inv(Y)^T rule refused
        # it and answered n = 2
        assert main(["hexagon", "0.4", "0.4", "0.399999998"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["n_distinguishable"] == 3 and out["states"] == [0, 1, 2]
        vertices = np.array(out["vertices"])
        _assert_barycentric(np.array(out["effects"]), vertices, vertices)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-9.0, -2.0), st.sampled_from([1.0, -1.0]),
           st.integers(0, 2))
    @example(-8.78, 1.0, 2)
    def test_three_vertices_give_three_states(self, log_gap, sign, odd):
        # (t, t, 1 - 2t) with 1 - 3t = +-10^log_gap
        t = (1.0 - sign * 10.0 ** log_gap) / 3.0
        a = np.full(3, t)
        a[odd] = 1.0 - 2.0 * t
        h = dc.hexagon_vertices(a)
        if len(h.vertices) != 3:  # merged to one point at COINCIDENCE_TOL
            reject()
        r = dc.max_distinguishable(h)
        assert r.n == 3 and r.states == (0, 1, 2)
        _assert_barycentric(r.effects, h.vertices, h.vertices)


def _lp_states(h):
    """The (n, states) of a reference route: three states by the exact
    barycentric oracle at DEFAULT_TOL, pairs and single states by
    feasibility LP, as before the exact pair kernel."""
    nv = len(h.vertices)
    for k in range(min(3, nv), 0, -1):
        for chosen in itertools.combinations(range(nv), k):
            anchors = h.vertices[list(chosen)]
            # the same program for any number of anchors
            program = _three_state_program(h.vertices, anchors)
            if k == 3:
                if barycentric_oracle(h.vertices, anchors)[1] <= DEFAULT_TOL:
                    return k, chosen
            elif highs_lp(program)[0] == "optimal":
                return k, chosen


def _lp_game(h):
    """(bit1, bit2) of the replaced route: one LP over the valid effects per
    bit, with the objective over the merged game states."""
    y = h.vertices[list(h.label_to_vertex)]

    def guess(plus, minus):
        objective = 0.25 * (np.sum(plus, axis=0) - np.sum(minus, axis=0))
        return 0.5 + highs_lp(effect_program(h.vertices, [objective]))[1]

    bit1 = guess([y[0], y[1]], [y[3], y[4]])
    if len({h.label_to_vertex[i] for i in (0, 1, 3, 4)}) < 4:
        return bit1, 0.5
    return bit1, guess([y[0], y[4]], [y[1], y[3]])


def _assert_matches_lp_route(a, same_states):
    h = dc.hexagon_vertices(np.asarray(a) / np.sum(a))
    n, states = _lp_states(h)
    r = dc.max_distinguishable(h)
    assert r.n == n
    if same_states:
        assert r.states == states
    _assert_certified(r.effects, h.vertices, h.vertices[list(r.states)])
    g = dc.encoding_game_value(h.alpha)
    bit1, bit2 = _lp_game(h)
    assert abs(g.bit1_success - bit1) <= 1e-8
    assert abs(g.bit2_success - bit2) <= 1e-8


class TestExactKernels:
    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.0, 0.3), st.floats(0.02, 0.5), st.floats(0.02, 0.5))
    def test_generic_matches_lp_route(self, low, gap1, gap2):
        _assert_matches_lp_route([low + gap1 + gap2, low + gap2, low], True)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.0, 0.3), st.floats(0.02, 0.5), st.floats(0.02, 0.5),
           st.integers(0, 1), st.floats(-9.0, -6.0))
    def test_near_equal_matches_lp_route(self, low, gap1, gap2, j, log_gap):
        a = np.array([low + gap1 + gap2, low + gap2, low])
        a[j + 1] = a[j] - 10.0 ** log_gap
        # the chosen pair may move: see test_pair_where_lp_route_differed
        _assert_matches_lp_route(a, False)

    @settings(max_examples=15, deadline=None)
    @given(st.floats(0.0, 0.5), st.integers(0, 2))
    def test_triangle_matches_lp_route(self, t, odd):
        a = np.full(3, t)
        a[odd] = 1.0 - 2.0 * t
        _assert_matches_lp_route(a, True)

    @pytest.mark.parametrize("a, states", [
        ([0.4642953150413933, 0.464295311083312, 0.07140937387529463],
         (0, 1)),
        ([0.6816554574364346, 0.1591722746483285, 0.1591722679152368],
         (0, 2)),
    ])
    def test_pair_where_lp_route_differed(self, a, states):
        # the LP route chose (0, 3); the exact rule at DEFAULT_TOL finds an
        # earlier pair in combinations order, which certifies
        h = dc.hexagon_vertices(a)
        r = dc.max_distinguishable(h)
        assert r.states == states
        _assert_certified(r.effects, h.vertices, h.vertices[list(states)])
        g = dc.encoding_game_value(h.alpha)
        assert (g.bit1_success, g.bit2_success) == _oracle_game(h)

    def test_pair_effects_are_segment_middle(self):
        # the first bit's pair: the feasible segment's middle, exactly
        h = dc.hexagon_vertices([0.5, 0.3, 0.2])
        r = dc.max_distinguishable(h)
        assert r.states == (0, 3)
        lo, hi = _pair_segment(h, 0, 3)
        assert np.allclose(r.effects[0], (lo + hi) / 2, atol=1e-12)

    def test_fewer_than_three_vertices(self):
        # one vertex: every game objective is zero
        g = dc.encoding_game_value([1 / 3, 1 / 3, 1 / 3])
        assert (g.bit1_success, g.bit2_success) == (0.5, 0.5)
        # two vertices 1.07e-9 apart, each merging three labels: they are
        # perfectly distinguishable, and so is the first bit
        a = 0.0625 + np.array([0.0, 1e-10, 2e-10])
        h = dc.hexagon_vertices(a)
        assert h.label_to_vertex == (0, 0, 0, 1, 1, 1)
        assert dc.max_distinguishable(h).n == 2
        g = dc.encoding_game_value(a)
        assert g.bit1_success == 1.0 and g.degenerate


def _pair_segment(h, i, j):
    """End points of the segment of effects e with e . y_i = 1, e . y_j = 0
    and -DEFAULT_TOL <= e . x, (1 - e) . x <= 1 + DEFAULT_TOL on every vertex,
    by two LPs along the line's direction."""
    a, b = h.vertices[i], h.vertices[j]
    d = np.cross(a, b)
    ends = []
    for sign in (1.0, -1.0):
        program = _three_state_program(h.vertices, np.stack([a, b]))
        res = linprog(-sign * np.concatenate([d, -d]), A_ub=program.ub[0],
                      b_ub=program.ub[1] + DEFAULT_TOL, A_eq=program.eq[0],
                      b_eq=program.eq[1], bounds=(None, None), method="highs",
                      options={"primal_feasibility_tolerance": 1e-10})
        ends.append(res.x[:3])
    return ends


@pytest.fixture()
def lp_calls(monkeypatch):
    """Every lp_solve call, wherever the package binds it."""
    calls = []
    solve = numerics.lp_solve

    def counted(p, *warm):
        calls.append(p)
        return solve(p, *warm)

    monkeypatch.setattr(numerics, "lp_solve", counted)
    monkeypatch.setattr(dc, "lp_solve", counted, raising=False)
    return calls


class TestLpCount:
    def test_generic_game_no_lp(self, capsys, lp_calls):
        # pairs and the game are decided by the exact kernels
        assert main(["hexagon", "0.5", "0.3", "0.2", "--game"]) == 0
        capsys.readouterr()
        assert lp_calls == []

    def test_triangle_no_lp(self, lp_calls):
        r = dc.max_distinguishable(dc.hexagon_vertices([0.5, 0.5, 0.0]))
        assert r.n == 3
        assert lp_calls == []


class TestRowGeneration:
    @pytest.mark.parametrize("i, j", [(3, 7), (100, 1500), (42, 1999)])
    def test_pure_state_distance_solves_small_subsets(self, deformable_2000,
                                                      lp_calls, i, j):
        d = deformation.pure_state_distance(deformable_2000, i, j)
        assert 0.0 <= d <= 1.0 + DEFAULT_TOL
        full = 2 * deformable_2000.n_points
        assert lp_calls and max(len(p.ub[1]) for p in lp_calls) <= full / 10

    @pytest.mark.parametrize("k, feasible", [(2, True), (3, False)])
    def test_sampled_discrimination_solves_small_subsets(
            self, deformable_2000, lp_calls, k, feasible):
        assert dc.max_distinguishable_sampled(deformable_2000, k) == feasible
        # the k target states join the sample
        full = 2 * k * (deformable_2000.n_points + k)
        assert lp_calls and max(len(p.ub[1]) for p in lp_calls) <= full / 10

    def test_reruns_are_bit_identical(self, deformable_2000):
        p = deformable_2000.points
        first, second = (effect_lp(p, [p[3] - p[7]]) for _ in range(2))
        assert first.optimal and first.value == second.value
        assert np.array_equal(first.x, second.x)


@pytest.fixture(scope="module")
def family_sample():
    return ss.deformable_structure([0.5, 0.3, 0.2], 1000, 0)


class TestSampled:
    def test_family_two_feasible(self, family_sample):
        assert dc.max_distinguishable_sampled(family_sample, 2)

    def test_family_three_infeasible(self, family_sample):
        assert not dc.max_distinguishable_sampled(family_sample, 3)

    def test_more_states_than_vertices(self):
        # a1 > a2 = a3: the hexagon degenerates to 3 vertices, so 4 states
        # are answered False before any LP
        s = ss.deformable_structure([0.5, 0.25, 0.25], 200, 0)
        assert len(dc.hexagon_vertices(dc.recover_alpha(s)).vertices) == 3
        assert dc.max_distinguishable_sampled(s, 4) is False

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
