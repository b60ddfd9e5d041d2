"""Distinguishability analysis of the three-coefficient deformable family.

All exact work happens on the projection of the state space onto the diagonal,
which is the convex hull of the six permutations of the coefficient vector
(alpha_1, alpha_2, alpha_3).  Perfect discrimination of one or two states
and the two-bit encoding game are linear programs over effects on that
polygon; three states, which fix their effects uniquely, take one linear
solve.  An LP on the full sampled eight-dimensional orbit serves as a
consistency check.

Vertex labels follow the fixed convention

    y1 = (a1, a2, a3)   y2 = (a1, a3, a2)   y3 = (a2, a1, a3)
    y4 = (a3, a2, a1)   y5 = (a3, a1, a2)   y6 = (a2, a3, a1)

so that y1, y2 and y4, y5 are the pairs singled out by the first-bit
measurement and opposite sides of the hexagon are y1-y2 / y6-y3 / y5-y4.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalConsistencyError
from .numerics import (
    COINCIDENCE_TOL,
    ZERO_NORM,
    check_feasible,
    effect_lp,
    effect_program,
    lp_solve,
)
from .state_space import StructureSample, orbit_points, unit_effect

_SIGMA = (  # images (s(1), s(2), s(3)) as 0-based index triples into alpha
    (0, 1, 2),
    (0, 2, 1),
    (1, 0, 2),
    (2, 1, 0),
    (2, 0, 1),
    (1, 2, 0),
)


@dataclass(frozen=True)
class AlphaTriple:
    """Three real coefficients normalized to sum exactly 1."""

    a1: float
    a2: float
    a3: float

    @classmethod
    def of(cls, values):
        v = np.asarray(values, dtype=float)
        if v.shape != (3,) or not np.all(np.isfinite(v)):
            raise DomainError("alpha needs exactly three finite components")
        total = v.sum()
        if abs(total) < ZERO_NORM:
            raise DomainError("alpha components sum to zero")
        v = v / total
        return cls(float(v[0]), float(v[1]), float(v[2]))

    @property
    def values(self):
        return np.array([self.a1, self.a2, self.a3])

    def equal_pairs(self):
        """Index pairs (i, j) with alpha_i == alpha_j (degeneracy flags)."""
        v = self.values
        return tuple(
            (i, j)
            for i, j in ((0, 1), (0, 2), (1, 2))
            if abs(v[i] - v[j]) <= COINCIDENCE_TOL
        )

    @property
    def generic(self):
        return not self.equal_pairs()


@dataclass(frozen=True, eq=False)
class HexagonProjection:
    """Diagonal projection of one family member.

    ``labeled`` holds the six y-vectors in the label order above (duplicates
    included); ``vertices`` the distinct ones in first-appearance order;
    ``label_to_vertex`` maps each label 0..5 to its distinct-vertex index.
    """

    alpha: AlphaTriple
    labeled: np.ndarray
    vertices: np.ndarray
    label_to_vertex: tuple

    @property
    def multiplicity(self):
        out = {}
        for lab, v in enumerate(self.label_to_vertex):
            out.setdefault(v, []).append(lab)
        return out


def hexagon_vertices(alpha):
    """The up-to-six extreme points of the diagonal projection."""
    if not isinstance(alpha, AlphaTriple):
        alpha = AlphaTriple.of(alpha)
    a = alpha.values
    labeled = np.array([[a[s[0]], a[s[1]], a[s[2]]] for s in _SIGMA])
    vertices = []
    label_to_vertex = []
    for row in labeled:
        for k, v in enumerate(vertices):
            if np.max(np.abs(row - v)) <= COINCIDENCE_TOL:
                label_to_vertex.append(k)
                break
        else:
            label_to_vertex.append(len(vertices))
            vertices.append(row)
    return HexagonProjection(alpha, labeled, np.array(vertices),
                             tuple(label_to_vertex))


def plane_coordinates(points):
    """Isometric coordinates of diagonal vectors inside the plane sum = 1."""
    e1 = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    e2 = np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0)
    centered = np.asarray(points, dtype=float) - 1.0 / 3.0
    return np.stack([centered @ e1, centered @ e2], axis=-1)


def hexagon_csv(h):
    """Figure data: vertex label, diagonal coordinates, plane coordinates."""
    plane = plane_coordinates(h.labeled)
    lines = ["vertex,c1,c2,c3,plane_x,plane_y"]
    for i in range(6):
        row = [f"y{i + 1}"] + [f"{v:.12g}" for v in h.labeled[i]] \
            + [f"{v:.12g}" for v in plane[i]]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# perfect discrimination on the hexagon


@dataclass(frozen=True, eq=False)
class Distinguishability:
    n: int
    states: tuple       # indices into the distinct vertex list
    effects: np.ndarray  # (n, 3) dual vectors, rows sum to the unit effect


def _perfect_measurement(points, anchors, unit):
    """Effects e_i with e_i . a_j = delta_ij that sum to ``unit`` and are
    valid on every point, as a (k, dim) array; None when there are none.

    Fewer anchors than dimensions leave a feasibility LP.  One anchor per
    dimension fixes the effects as the rows of inv(A)^T, which are checked
    by the rule every LP point passes; a singular A admits none.
    """
    anchors = np.asarray(anchors, dtype=float)
    k, dim = anchors.shape
    a_eq = np.zeros((k * k + dim, k * dim))
    for i in range(k):
        a_eq[i * k:(i + 1) * k, i * dim:(i + 1) * dim] = anchors
        a_eq[k * k:, i * dim:(i + 1) * dim] = np.eye(dim)
    b_eq = np.concatenate([np.eye(k).ravel(), unit])
    program = effect_program(points, np.zeros((k, dim)), eq=(a_eq, b_eq))
    if k != dim:
        res = lp_solve(program)
        return res.x.reshape(k, dim) if res.optimal else None
    try:
        effects = np.linalg.inv(anchors).T
        check_feasible(program, effects.ravel())
    except (np.linalg.LinAlgError, NumericalConsistencyError):
        return None
    return effects


def max_distinguishable(h):
    """Largest number of perfectly distinguishable diagonal states.

    Tries vertex subsets from three states down to one, each size in
    ``itertools.combinations`` order, and returns the first one that a
    measurement discriminates.  Perfectly distinguishable states are
    linearly independent 3-vectors, so no more than three fit.  Three, the
    plane's dimension plus one, need no LP: dim + 1 perfectly
    distinguishable states force the state space to be their simplex.  The
    only candidate effects are then the barycentric coordinates of that
    triangle, the rows of inv(Y)^T for the matrix Y of the three states, and
    they are valid on every vertex exactly when the polygon is the triangle.
    That is checked within ``DEFAULT_TOL``, the rule every LP point passes.
    Pairs and single states are found by LP.
    """
    nv = len(h.vertices)
    for k in range(min(3, nv), 0, -1):
        for chosen in itertools.combinations(range(nv), k):
            effects = _perfect_measurement(
                h.vertices, h.vertices[list(chosen)], np.ones(3))
            if effects is not None:
                return Distinguishability(k, chosen, effects)
    raise DomainError("hexagon has no vertices")


# ---------------------------------------------------------------------------
# the two-bit encoding game


@dataclass(frozen=True)
class EncodingGame:
    bit1_success: float
    bit2_success: float
    degenerate: bool
    note: str


def _best_two_class_guess(vertices, plus, minus):
    """max over valid effects B of mean success guessing class(plus) vs class(minus)."""
    objective = 0.25 * (np.sum(plus, axis=0) - np.sum(minus, axis=0))
    res = effect_lp(vertices, [objective])
    if not res.optimal:
        raise DomainError(f"encoding-game LP came back {res.status}")
    return 0.5 + float(res.value)


def encoding_game_value(alpha):
    """Success probabilities of the two-bit game on states y1, y2, y4, y5.

    Bit 1 splits {y1, y2} against {y4, y5}; bit 2 splits {y1, y5} against
    {y2, y4}.  Both answers are optimal two-outcome measurement values under
    a uniform prior over the four states.  When any of the four game states
    coincide the encoding is not injective; the second bit is then reported
    as uninformative (1/2) with the degeneracy flagged.
    """
    if not isinstance(alpha, AlphaTriple):
        alpha = AlphaTriple.of(alpha)
    h = hexagon_vertices(alpha)
    y = h.vertices[list(h.label_to_vertex)]  # merged, as in the validity rows
    y1, y2, y4, y5 = y[0], y[1], y[3], y[4]
    bit1 = _best_two_class_guess(h.vertices, [y1, y2], [y4, y5])

    game_states = [y1, y2, y4, y5]
    degenerate = any(
        np.max(np.abs(a - b)) <= COINCIDENCE_TOL
        for a, b in itertools.combinations(game_states, 2)
    )
    if degenerate:
        return EncodingGame(
            bit1, 0.5, True,
            "game states coincide; the second bit carries no information",
        )
    bit2 = _best_two_class_guess(h.vertices, [y1, y5], [y2, y4])
    return EncodingGame(bit1, bit2, False, "")


# ---------------------------------------------------------------------------
# sampled cross-check in the full carrier space


def recover_alpha(s):
    """Diagonal coefficients encoded by a deformable-family sample.

    The reference was normalized when the structure was built, which rescales
    the hexagon about its center; all LP answers are invariant under that
    affine change, so the recovered triple is interchangeable with the
    original for discrimination purposes.
    """
    if s.rep.kind != "su_adjoint" or s.rep.d != 3:
        raise DomainError("expected an SU(3)-adjoint structure sample")
    m = s.rep.matrix(s.reference)
    return AlphaTriple.of(np.real(np.diag(m)) + 1.0 / 3.0)


def _vertex_targets(s, labels):
    """Exact orbit points whose diagonals are the requested labeled vertices.

    Each is the reference conjugated by the permutation matrix of its label.
    """
    perms = np.eye(3)[[list(_SIGMA[lab]) for lab in labels]]
    return orbit_points(s.rep, perms, s.reference)


def max_distinguishable_sampled(s: StructureSample, k):
    """Feasibility of perfect k-state discrimination on the sampled orbit.

    Target states are the exact orbit points over the diagonal states that
    the hexagon LP singles out; they are appended to the sample (they are
    genuine orbit members), so the sampled LP is a true relaxation of the
    continuum problem: any continuum-feasible measurement stays feasible
    here, and infeasibility here certifies infeasibility of the exact
    problem.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    alpha = recover_alpha(s)
    h = hexagon_vertices(alpha)
    exact = max_distinguishable(h)

    if k <= exact.n:
        vertex_ids = exact.states[:k]
    else:
        # spread k distinct vertices as far apart as possible
        nv = len(h.vertices)
        if k > nv:
            return False
        best, best_spread = None, -1.0
        for combo in itertools.combinations(range(nv), k):
            pts = h.vertices[list(combo)]
            spread = min(
                np.linalg.norm(a - b)
                for a, b in itertools.combinations(pts, 2)
            )
            if spread > best_spread + 1e-15:
                best, best_spread = combo, spread
        vertex_ids = best
    labels = [h.label_to_vertex.index(v) for v in vertex_ids]
    targets = _vertex_targets(s, labels)
    points = np.concatenate([s.points, targets], axis=0)
    unit = unit_effect(s).vector
    return _perfect_measurement(points, targets, unit) is not None
