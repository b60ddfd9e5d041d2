"""Distinguishability analysis of the three-coefficient deformable family.

All exact work happens on the projection of the state space onto the diagonal,
which is the convex hull of the six permutations of the coefficient vector
(alpha_1, alpha_2, alpha_3).  An effect there is a 3-vector and validity is
at most 12 rows, so no question on the polygon needs an LP solver:

- three states fix their effects uniquely, as their barycentric
  coordinates, which are checked on the other vertices in exact integers;
- a pair is decided by intersecting intervals on a line of effects, in exact
  integers;
- each bit of the two-bit encoding game has a closed form, by the
  rearrangement inequality, evaluated in exact integers.

An LP on the full sampled eight-dimensional orbit serves as a consistency
check.

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

from .errors import DomainError
from .numerics import (
    COINCIDENCE_TOL,
    DEFAULT_TOL,
    TIE_TOL,
    effect_lp,
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
        # a power of two puts max |a_i| in [2^1019, 2^1020): exact, as it
        # scales subnormal components up, not down; the sum cannot overflow
        # and v / total keeps its bits
        v = np.ldexp(v, 1020 - np.frexp(np.max(np.abs(v)))[1])
        total = v.sum()
        # zero up to the sum's own rounding error, at most 3 eps max |a_i|
        if abs(total) <= 4 * np.finfo(float).eps * np.max(np.abs(v)):
            raise DomainError("alpha components sum to zero")
        v = v / total
        return cls(float(v[0]), float(v[1]), float(v[2]))

    @property
    def values(self):
        return np.array([self.a1, self.a2, self.a3])


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
# exact arithmetic on the hexagon
#
# Every float is a dyadic rational, so a hexagon's coordinates, scaled by one
# power of two, are exact Python integers.  Decisions on those integers cannot
# be flipped by roundoff.


def _dyadic_rows(points):
    """The rows of ``points`` as tuples of integers over one power of two
    ``scale``, so that points == rows / scale exactly."""
    ratios = [float(v).as_integer_ratio() for v in np.ravel(points)]
    scale = max(den for _, den in ratios)
    ints = [num * (scale // den) for num, den in ratios]
    return [tuple(ints[i:i + 3]) for i in range(0, len(ints), 3)], scale


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


# ---------------------------------------------------------------------------
# perfect discrimination on the hexagon


@dataclass(frozen=True, eq=False)
class Distinguishability:
    n: int
    states: tuple       # indices into the distinct vertex list
    effects: np.ndarray  # (n, 3) dual vectors, rows sum to the unit effect


def _triangle_measurement(rows, scale, anchors):
    """Effects that discriminate the three points ``anchors`` of a hexagon,
    as a (3, 3) array; None when there are none.

    ``rows`` and ``scale`` are the hexagon's vertices as exact integers
    (:func:`_dyadic_rows`).  For anchors a, b, c the only effects with
    e_i . a_j = delta_ij are their barycentric coordinates scale (b x c) / det
    and its cyclic shifts, det = a . (b x c); collinear anchors (det = 0)
    have none.  The vertices permute one alpha, so they share one coordinate
    sum s and the effects sum to (1, 1, 1) / s, the unit effect up to the
    roundoff of normalising alpha.  Every other point x must meet
    -tol <= e_i . x <= 1 + tol, with tol = ``DEFAULT_TOL``: the rule
    ``numerics.check_feasible`` applies to an LP point.  Each test is exact
    in integers, and the effects are rounded once.
    """
    a, b, c = (rows[k] for k in anchors)
    cofactors = (_cross(b, c), _cross(c, a), _cross(a, b))
    det = _dot(a, cofactors[0])
    if det == 0:
        return None
    tol_num, tol_den = DEFAULT_TOL.as_integer_ratio()
    # -tol <= w . x / det <= 1 + tol, times |det| tol_den
    lo, hi = -tol_num * abs(det), (tol_den + tol_num) * abs(det)
    sign = tol_den if det > 0 else -tol_den  # |det| tol_den / det
    for k, x in enumerate(rows):
        if k not in anchors:
            for w in cofactors:
                if not lo <= sign * _dot(w, x) <= hi:
                    return None
    return np.array([[scale * v / det for v in w] for w in cofactors])


def _pair_measurement(rows, scale, anchors):
    """Effects (e, unit - e) that discriminate the two points ``anchors`` of
    a hexagon, as a (2, 3) array; None when there are none.

    ``rows`` and ``scale`` are the hexagon's vertices as exact integers
    (:func:`_dyadic_rows`).  The effects with e . a = 1 and e . b = 0, for
    anchors a, b, form the line e0 + w (a x b).  Each point x cuts it
    to an interval in w through -tol <= e . x <= 1 + tol and
    -tol <= (unit - e) . x <= 1 + tol, with tol = ``DEFAULT_TOL``: the rule
    ``numerics.check_feasible`` applies to an LP point.  The intervals are
    intersected in exact rationals, so roundoff cannot flip the answer; the
    returned e is the middle of the feasible segment, rounded once.
    """
    a, b = (rows[k] for k in anchors)
    d = _cross(a, b)
    norm2 = _dot(d, d)
    if norm2 == 0:  # parallel anchors: no effect is 1 on one, 0 on the other
        return None
    base = _cross(b, d)  # e(w) = scale (base + w d / s) / norm2, s below
    tol_num, tol_den = DEFAULT_TOL.as_integer_ratio()
    s = scale * tol_den
    lower = upper = None  # (num, den > 0) bounds on w
    for x in rows:
        total = sum(x)
        lo = max(0, total - scale) * tol_den - tol_num * scale
        hi = min(scale, total) * tol_den + tol_num * scale
        p, q = _dot(base, x) * s, _dot(d, x)
        # lo norm2 <= (p + w q) <= hi norm2, all over scale * tol_den
        lo, hi = lo * norm2 - p, hi * norm2 - p
        if q == 0:
            if lo > 0 or hi < 0:
                return None
            continue
        if q < 0:
            lo, hi, q = -hi, -lo, -q
        if lower is None or lo * lower[1] > lower[0] * q:
            lower = (lo, q)
        if upper is None or hi * upper[1] < upper[0] * q:
            upper = (hi, q)
    if lower is None:
        w_num, w_den = 0, 1
    elif lower[0] * upper[1] > upper[0] * lower[1]:
        return None
    else:
        w_num = lower[0] * upper[1] + upper[0] * lower[1]
        w_den = 2 * lower[1] * upper[1]
    den = norm2 * tol_den * w_den
    e = np.array([(base[k] * s * w_den + w_num * d[k]) / den
                  for k in range(3)])
    return np.stack([e, 1.0 - e])


def _perfect_measurement(points, anchors, unit):
    """Effects e_i with e_i . a_j = delta_ij that sum to ``unit`` and are
    valid on every point, as a (k, dim) array; None when the feasibility LP
    has none."""
    anchors = np.asarray(anchors, dtype=float)
    k, dim = anchors.shape
    a_eq = np.zeros((k * k + dim, k * dim))
    for i in range(k):
        a_eq[i * k:(i + 1) * k, i * dim:(i + 1) * dim] = anchors
        a_eq[k * k:, i * dim:(i + 1) * dim] = np.eye(dim)
    b_eq = np.concatenate([np.eye(k).ravel(), unit])
    res = effect_lp(points, np.zeros((k, dim)), eq=(a_eq, b_eq))
    return res.x.reshape(k, dim) if res.optimal else None


def max_distinguishable(h):
    """Largest number of perfectly distinguishable diagonal states.

    Tries vertex subsets from three states down to one, each size in
    ``itertools.combinations`` order, and returns the first one that a
    measurement discriminates; no LP is solved.

    Triples and pairs are decided on one copy of the vertices in exact
    integers (:func:`_dyadic_rows`), so roundoff cannot flip the answer:

    - Perfectly distinguishable states are linearly independent 3-vectors,
      so no more than three fit.  Three, the plane's dimension plus one,
      force the state space to be their triangle, and the only candidate
      effects are its barycentric coordinates
      (:func:`_triangle_measurement`).
    - A pair is decided on the line of effects that are 1 on one state and
      0 on the other (:func:`_pair_measurement`).
    - One state is always discriminated, by the unit effect.
    """
    nv = len(h.vertices)
    if nv == 0:
        raise DomainError("hexagon has no vertices")
    rows, scale = _dyadic_rows(h.vertices)
    for k, measure in ((3, _triangle_measurement), (2, _pair_measurement)):
        for states in itertools.combinations(range(nv), k):
            effects = measure(rows, scale, states)
            if effects is not None:
                return Distinguishability(k, states, effects)
    return Distinguishability(1, (0,), np.ones((1, 3)))


# ---------------------------------------------------------------------------
# the two-bit encoding game
#
# Each bit is max c . e over the valid effects, c = (sum of plus states - sum
# of minus states) / 4, and has a closed form.  Write e = mu (1, 1, 1) + eps
# with sum(eps) = 0; on a vertex y, a permutation of alpha, e . y =
# mu sum(alpha) + eps . y.  By the rearrangement inequality (Hardy, Littlewood
# & Polya, Inequalities, 1934, sec. 10.2) eps . y spans an interval of length
# (max eps - min eps) D over the six vertices, D = max alpha - min alpha, so e
# is valid for some mu exactly when max eps - min eps <= 1 / D.  As sum(c) = 0,
# c . e = c . eps, whose maximum there is max_k |c_k| / D.  With six distinct
# vertices the success is (2 D + m) / (4 D), m = max_k |4 c_k|, in exact
# integers rounded once: 1/2 + |a1 - a3| / (2 D) for bit 1 and
# 1/2 + |a1 - a3| / (4 D) for bit 2.  hexagon_vertices keeps 1, 2, 3 or 6
# vertices: rows merge by which coefficient pairs lie within COINCIDENCE_TOL
# (none: 6, one: 3, two: 2, three: 1).  Distinct permutohedron vertices are
# never collinear and sum(alpha) != 0, so three or fewer are linearly
# independent: e . y takes any values in [0, 1] on them, and with
# 4 c = sum_v w_v y_v the optimum is 1/2 + sum_v max(w_v, 0) / 4.


@dataclass(frozen=True)
class EncodingGame:
    bit1_success: float
    bit2_success: float
    degenerate: bool
    note: str


def _best_two_class_guess(vertices, plus, minus):
    """max over valid effects B of mean success guessing class(plus) vs
    class(minus), for two lists of vertex indices, in closed form (above)."""
    nv = len(vertices)
    weights = (np.bincount(plus, minlength=nv)
               - np.bincount(minus, minlength=nv)).tolist()  # 4 c over Y
    if nv <= 3:
        return 0.5 + 0.25 * sum(max(w, 0) for w in weights)
    rows, _ = _dyadic_rows(vertices)  # six permutations of alpha
    m = max(abs(sum(w * y[k] for w, y in zip(weights, rows)))
            for k in range(3))
    spread = max(rows[0]) - min(rows[0])
    return (2 * spread + m) / (4 * spread)


def encoding_game_value(alpha):
    """Success probabilities of the two-bit game on states y1, y2, y4, y5.

    Bit 1 splits {y1, y2} against {y4, y5}; bit 2 splits {y1, y5} against
    {y2, y4}.  Both answers are optimal two-outcome measurement values under
    a uniform prior over the four states, taken as the merged vertices that
    the validity rows see.  When any of the four game states coincide the
    encoding is not injective; the second bit is then reported as
    uninformative (1/2) with the degeneracy flagged.
    """
    if not isinstance(alpha, AlphaTriple):
        alpha = AlphaTriple.of(alpha)
    h = hexagon_vertices(alpha)
    v1, v2, _, v4, v5, _ = h.label_to_vertex
    bit1 = _best_two_class_guess(h.vertices, [v1, v2], [v4, v5])

    # distinct hexagon vertices lie more than COINCIDENCE_TOL apart, so game
    # states coincide exactly when two labels share a vertex
    if len({v1, v2, v4, v5}) < 4:
        return EncodingGame(
            bit1, 0.5, True,
            "game states coincide; the second bit carries no information",
        )
    bit2 = _best_two_class_guess(h.vertices, [v1, v5], [v2, v4])
    return EncodingGame(bit1, bit2, False, "")


# ---------------------------------------------------------------------------
# sampled cross-check in the full carrier space


def recover_alpha(s):
    """Diagonal coefficients encoded by a deformable-family sample.

    The reference was normalized when the structure was built, which rescales
    the hexagon about its center; all discrimination answers are invariant
    under that affine change, so the recovered triple is interchangeable with
    the original for discrimination purposes.
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
    the exact hexagon answer singles out; they are appended to the sample
    (they are genuine orbit members), so the sampled LP is a true relaxation
    of the continuum problem: any continuum-feasible measurement stays
    feasible here, and infeasibility here certifies infeasibility of the
    exact problem.
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
            if spread > best_spread + TIE_TOL:
                best, best_spread = combo, spread
        vertex_ids = best
    labels = [h.label_to_vertex.index(v) for v in vertex_ids]
    targets = _vertex_targets(s, labels)
    points = np.concatenate([s.points, targets], axis=0)
    unit = unit_effect(s).vector
    return _perfect_measurement(points, targets, unit) is not None
