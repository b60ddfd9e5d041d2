"""Dense linear-algebra kernel and a small linear-program solver.

Every other module funnels its matrix work through here, and the package's
tolerance policy lives here: each tolerance shared by several checks is one
named constant below.  Problems are tiny (at most a few hundred variables),
so everything is dense float64: eigendecompositions go through LAPACK
(``numpy.linalg.eigh``).  The LPs are those over sampled orbit points, the
pure-state metric and sampled discrimination; the hexagon's small problems
are solved exactly in ``discrimination``.

:func:`lp_solve` runs a dual simplex method in numpy, on the free variables
and dense rows that :func:`effect_program` builds, and checks a certificate
for every answer before it returns it: dual multipliers that close the
duality gap for "optimal", a Farkas vector for "infeasible", a ray for
"unbounded".  An answer without a checked certificate is not returned: it
is an :class:`~gptforge.errors.LpSolverFailure` (CLI exit 4).

An effect LP over n sampled points has 2kn validity rows, of which only a
few bind, so the kernel prices a working set of rows (row generation,
Kelley, J. SIAM 8, 1960): :func:`effect_lp` seeds it with the rows of the
extreme points along the objective rows and the coordinate axes, and the
kernel adds the most violated rows outside it whenever its point meets
the set, then certifies its answer once, on every row.  Adding rows keeps
the basis dual feasible, so the pivots go on from where they were: there
are no rounds and no restarts.

Two rules hold for every check in the package.  Input is checked once,
where it enters: every count, size, index and seed passes
:func:`check_int`, and group elements that a caller hands in are checked
unitary by ``compact_rep.rep_matrices`` (on the conjugation carriers),
while ``compact_rep.act`` trusts the elements the package made unitary by
construction.  And a refusal check passes only when its comparison holds,
written ``x <= tol`` (or ``gap >= tol``), so a NaN fails it: ``x > tol``
would let a NaN through.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, LpSolverFailure, NumericalConsistencyError

# Feasibility and exactness checks: LP points, character tables, effects.
DEFAULT_TOL = 1e-8
# Two diagonal (hexagon) states closer than this, entrywise, are one state.
COINCIDENCE_TOL = 1e-9
# A unit vector within this norm of its projection is subgroup-invariant.
INVARIANCE_TOL = 1e-6
# A group element is unitary when |g^H g - 1| stays below this, entrywise.
UNITARY_TOL = 1e-10
# A powered quadrature average is a projector within this, entrywise.
IDEMPOTENCE_TOL = 1e-4
# Gram eigenvalues below this, relative to the largest (or 1), span a kernel.
NULL_SPACE_RTOL = 1e-9
# A vector (or coefficient sum) below this norm counts as zero.
ZERO_NORM = 1e-12
# Coefficients meant to sum to 1 that miss by more are renormalized loudly.
NORMALIZATION_TOL = 1e-6
# A matrix is symmetric when |a - a^T| stays below this, entrywise.
SYMMETRY_TOL = 1e-10
# A value further than this from the nearest integer is not integral.
INTEGRALITY_TOL = 1e-4
# Two float scores within this of each other tie: the first one found stays.
TIE_TOL = 1e-15
# Character tables: class-sum eigenvalues closer than this (relative) are
# degenerate; irrep dimensions and conjugate characters match within it.
CHARACTER_TOL = 1e-6
# An eigenvector entry below this modulus is too small to normalise by.
PIVOT_TOL = 1e-10

# The LP kernel (numerics.lp_solve): its artificial box starts at this
# size and grows by the factor up to the cap; a ratio-column entry must
# exceed RATIO_PIVOT to leave the basis; the basis inverse is recomputed
# every REFACTOR_PIVOTS pivots and the pivots stop at PIVOT_CAP_PER_ROW per
# row; the pivots follow costs perturbed by COST_PERTURBATION (relative);
# a row within INDEPENDENCE_RTOL (relative) of the span of others
# does not join a start basis; and an infeasibility certificate rules out
# every point of 1-norm up to CERTIFIED_RADIUS.
BOX_START = 1e4
BOX_GROWTH = 1e3
BOX_MAX = 1e10
RATIO_PIVOT = 1e-9
REFACTOR_PIVOTS = 32
PIVOT_CAP_PER_ROW = 4
COST_PERTURBATION = 1e-10
INDEPENDENCE_RTOL = 1e-6
CERTIFIED_RADIUS = 1e6

# Fixed counts: witness effects per direction of a distance estimate,
# coordinate sweeps and probes per step of the best-match polish, and
# squarings of an averaged rep operator.
WITNESSES = 8
POLISH_SWEEPS = 3
POLISH_PROBES = 12
PROJECTOR_SQUARINGS = 5
# The polish's near set: the points with |residual| >= POLISH_NEAR_FRACTION
# times the largest, at most POLISH_NEAR_MAX of them, so the floor array is
# at most POLISH_PROBES x POLISH_NEAR_MAX x columns.  Any values keep the
# results exact; they set only how many steps are skipped.
POLISH_NEAR_FRACTION = 0.95
POLISH_NEAR_MAX = 32


def check_int(value, what, low, high=None):
    """``value`` as a Python int, when it is an ``int`` or a numpy integer
    (not a ``bool``) from ``low`` to ``high`` (no upper end when ``high`` is
    None); otherwise :class:`DomainError`, called ``what`` in the message."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    if high is None and value < low:
        raise DomainError(f"need {what} >= {low}, got {value}")
    if high is not None and not low <= value <= high:
        raise DomainError(f"{what} {value} is outside {low}..{high}")
    return int(value)


def as_finite(m, name="matrix", ndim=2):
    """Coerce to an ``ndim``-dimensional float64 array with finite entries
    (a scalar counts as 1-dimensional)."""
    a = np.asarray(m, dtype=float)
    if ndim == 1:
        a = np.atleast_1d(a)
    if a.ndim != ndim:
        raise DomainError(
            f"{name} must be {ndim}-dimensional, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError(f"{name} has non-finite entries")
    return a


def symmetric_eigen(m):
    """Eigendecomposition of a real symmetric matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues in descending
    order and eigenvectors as orthonormal columns, so that
    ``m @ v[:, i] == w[i] * v[:, i]``.

    Raises
    ------
    DomainError
        If ``m`` is not square or not symmetric within ``SYMMETRY_TOL``.
    """
    a = as_finite(m)
    if a.shape[0] != a.shape[1]:
        raise DomainError(f"matrix is not square: shape {a.shape}")
    asym = np.max(np.abs(a - a.T)) if a.size else 0.0
    if not asym <= SYMMETRY_TOL:
        raise DomainError(f"matrix is not symmetric: max |a - a.T| = {asym:.3e}")
    w, v = np.linalg.eigh((a + a.T) / 2.0)
    order = np.argsort(w)[::-1]
    return w[order], v[:, order]


@dataclass
class LinearProgram:
    """A maximization LP: max c.x subject to A_eq x = b_eq, A_ub x <= b_ub.

    Every variable is free (note: this differs from scipy's default of
    x >= 0); a box on a variable is written as ``ub`` rows.
    """

    objective: np.ndarray
    eq: tuple | None = None  # (matrix, rhs)
    ub: tuple | None = None  # (matrix, rhs)

    def _validate(self):
        n = len(as_finite(self.objective, "objective", 1))
        for label, pair in (("eq", self.eq), ("ub", self.ub)):
            if pair is None:
                continue
            a = as_finite(pair[0], f"{label} matrix")
            if a.shape[1] != n:
                raise DomainError(
                    f"{label} matrix has {a.shape[1]} columns, expected {n}"
                )
            if a.shape[0] != len(as_finite(pair[1], f"{label} rhs", 1)):
                raise DomainError(f"{label} rhs length mismatch")


@dataclass
class LpResult:
    """The answer to one LP, with the evidence for it.

    ``certificate`` is what the numpy kernel proved (see :func:`lp_solve`):
    for "optimal" the multipliers of the ``eq`` rows then the ``ub`` rows,
    for "infeasible" a Farkas vector in the same layout, and for
    "unbounded" a ray in the variables (``x`` is then a feasible point).
    Every answer of :func:`lp_solve` carries one.  ``working_rows`` is the
    number of ``ub`` rows in the kernel's final working set, the rows it
    priced (see :func:`_dual_simplex`).
    """

    status: str  # "optimal" | "infeasible" | "unbounded"
    value: float | None = None
    x: np.ndarray | None = None
    certificate: np.ndarray | None = None
    working_rows: int | None = None

    @property
    def optimal(self):
        return self.status == "optimal"


def lp_solve(p: LinearProgram, _rows=None):
    """Solve a small dense LP, maximizing the objective.

    Returns an :class:`LpResult`.  The numpy dual simplex
    (:func:`_dual_simplex`) answers, pricing at first the ``ub`` rows
    ``_rows`` (all of them when None) and adding the rest as they are
    violated, and each of its answers is checked on the whole program
    before it is returned:

    - "optimal": the point passes :func:`check_feasible`, the ``ub``
      multipliers are non-negative, the multipliers reproduce the objective
      and the duality gap is closed, each within ``DEFAULT_TOL`` (relative
      to the objective's size);
    - "infeasible": a Farkas vector ``(z, y)``, ``y >= 0``, whose row
      combination ``A_eq^T z + A_ub^T y`` is so small that no point of
      1-norm up to ``CERTIFIED_RADIUS`` can meet every row within
      ``DEFAULT_TOL``;
    - "unbounded": a point that passes :func:`check_feasible` and a ray
      ``d`` (largest entry 1) that raises the objective by more than
      ``ZERO_NORM`` (relative) while no row rises along it by more than
      ``ZERO_NORM``.

    Raises
    ------
    LpSolverFailure
        If no answer checks, or rounding makes a basis singular.  The
        message gives the program's shape.
    """
    p._validate()
    try:
        res = _dual_simplex(p, _rows)
    except np.linalg.LinAlgError:  # a basis that rounding made singular
        res = None
    if res is None:
        eq, ub = (0 if pair is None else len(np.atleast_1d(pair[1]))
                  for pair in (p.eq, p.ub))
        raise LpSolverFailure(
            f"LP kernel found no certified answer ({eq} eq rows, {ub} ub "
            f"rows, {len(np.atleast_1d(p.objective))} variables)")
    return res


def _dual_simplex(p, hint=None):
    """Solve ``p`` by the dual simplex method on a boxed copy of it; the
    checked LpResult, or None when no answer checks.

    Every variable is free, so a basis is a set of n linearly independent
    rows, met with equality by its point x; it is dual feasible when the
    objective is a combination of them with a non-negative multiplier on
    each inequality row.  The rows are numbered as in the stack

        [I; -I] (rhs the box size), A_eq, A_ub

    and the kernel prices only a working set of them (row generation,
    Kelley, J. SIAM 8, 1960): the box and ``eq`` rows and the ``ub`` rows
    ``hint`` (every ``ub`` row when None), kept as one dense matrix and
    read by position in it.  Each pivot brings in the working row that x
    violates most, and the ratio test sends out the basic row whose
    multiplier first reaches zero, so the basis stays dual feasible.
    After a pivot that leaves the multipliers where they were
    (degenerate), Bland's rule (lowest position first) picks both rows
    until one moves them, so the method cannot cycle.  When x meets the
    working set, the rows outside it are priced: up to 2n of the most
    violated join it, which keeps the basis dual feasible, and the pivots
    go on.  Once none is violated, x is an answer for the whole program,
    and it is certified on the whole program; a Farkas vector of the
    working set is one of the whole program too.

    The box ``|x_j| <= BOX_START`` makes every program bounded and gives a
    dual-feasible start, ``sign(c_j) e_j`` for each j.  The start takes,
    before those, the linearly independent ``eq`` rows and, when the
    working ``ub`` rows are ``[P; -P]`` (the layout of
    :func:`effect_program`, on whole points), rows of P, each turned to
    whichever of ``p`` and ``-p`` takes a non-negative multiplier.  When
    the box binds at the end, the answer is "unbounded" if the box's own
    direction is a ray; otherwise, and when the box is in a Farkas vector,
    the box grows by ``BOX_GROWTH`` and the pivots go on, up to
    ``BOX_MAX``.
    """
    c = np.atleast_1d(np.asarray(p.objective, dtype=float))
    n = len(c)
    eq = _rows(p.eq, n)
    ub = _rows(p.ub, n)
    m, lead = len(ub[1]), 2 * n + len(eq[1])  # lead: the first ub row
    picked = np.arange(m) if hint is None else np.unique(
        np.asarray(hint, dtype=int))
    ids = np.concatenate([np.arange(lead), lead + picked])  # working rows
    rows = np.concatenate([np.eye(n), -np.eye(n), eq[0], ub[0][picked]])
    rhs = np.concatenate([np.full(2 * n, BOX_START), eq[1], ub[1][picked]])
    free = np.zeros(len(rows), dtype=bool)
    free[2 * n:lead] = True
    dual_tol = ZERO_NORM * max(1.0, np.max(np.abs(c), initial=0.0))
    # the pivots follow perturbed costs, so that ratios seldom tie; the
    # answer is decided and certified with the true ones
    spread = (1.0 + np.arange(n) * 0.6180339887498949) % 1.0  # golden ratio
    cost = c + COST_PERTURBATION * (1.0 + np.abs(c)) * (0.5 + spread / 2)
    half = len(picked) // 2
    paired = half and np.array_equal(rows[lead + half:],
                                     -rows[lead:lead + half])
    basis = _independent_rows(rows, [
        np.arange(2 * n, lead), lead + np.arange(half if paired else 0),
        np.arange(n)], n)
    flip = (np.linalg.solve(rows[basis].T, cost) < 0) & ~free[basis]
    basis[flip] += np.where(basis[flip] < n, n, half)

    inv, pivots, bland = np.linalg.inv(rows[basis]), 0, False
    for _ in range(PIVOT_CAP_PER_ROW * (lead + m)):
        x = inv @ rhs[basis]
        w = cost @ inv
        excess = rows @ x - rhs
        sign = np.where(free & (excess < 0), -1.0, 1.0)
        excess *= sign
        excess[basis] = 0.0
        violated = np.flatnonzero(excess > DEFAULT_TOL / 10)
        if violated.size:
            r = violated[0] if bland else violated[np.argmax(excess[violated])]
            alpha = rows[r] @ inv
            col = sign[r] * alpha
            out = np.flatnonzero((col > RATIO_PIVOT) & ~free[basis])
        if pivots and (violated.size == 0 or out.size == 0):
            # decide on a fresh inverse, not on one updated by pivots
            inv, pivots = np.linalg.inv(rows[basis]), 0
            continue
        if violated.size == 0:
            outside = ub[0] @ x - ub[1]
            outside[ids[lead:] - lead] = 0.0
            new = np.flatnonzero(outside > DEFAULT_TOL / 10)
            if new.size:
                new = new[np.argsort(-outside[new], kind="stable")[:2 * n]]
                ids = np.concatenate([ids, lead + new])
                rows = np.concatenate([rows, ub[0][new]])
                rhs = np.concatenate([rhs, ub[1][new]])
                free = np.concatenate([free, np.zeros(len(new), dtype=bool)])
                continue
            boxed = basis < 2 * n
            w = c @ inv
            if np.all(w[boxed] <= dual_tol):
                return _optimum(p, c, x, w, ids[basis], eq, ub,
                                len(ids) - lead)
            ray = inv @ boxed.astype(float)
            res = _unbounded(p, c, x, ray / np.max(np.abs(ray)), eq, ub,
                             len(ids) - lead)
        elif out.size == 0:
            farkas = np.zeros(lead + m)
            farkas[ids[basis]] = -col
            farkas[ids[r]] = sign[r]
            if np.all(farkas[:2 * n] <= dual_tol):
                return _infeasible(farkas[2 * n:], eq, ub, len(ids) - lead)
            res = None
        else:
            ratio = np.maximum(w[out], 0.0) / col[out]
            ties = out[ratio <= ratio.min() + dual_tol]
            leave = (ties[np.argmin(basis[ties])] if bland
                     else ties[np.argmax(col[ties])])
            bland = ratio.min() <= dual_tol
            old = inv[:, leave] / alpha[leave]
            inv -= np.outer(old, alpha)  # row ``leave`` of the basis is r
            inv[:, leave] += old
            basis[leave] = r
            pivots += 1
            if pivots == REFACTOR_PIVOTS:
                inv, pivots = np.linalg.inv(rows[basis]), 0
            continue
        if res is not None or rhs[0] * BOX_GROWTH > BOX_MAX:
            return res
        rhs[:2 * n] *= BOX_GROWTH  # the box binds: grow it, keep the basis
    return None


def _rows(pair, n):
    """(matrix, rhs) of an optional constraint pair, empty when absent."""
    if pair is None:
        return np.zeros((0, n)), np.zeros(0)
    return np.asarray(pair[0], dtype=float), np.asarray(pair[1], dtype=float)


def _independent_rows(rows, tiers, n):
    """Indices of n linearly independent rows, taken tier by tier, each the
    candidate farthest from the span of those taken, relative to its norm
    (Gram-Schmidt with pivoting); a candidate within ``INDEPENDENCE_RTOL``
    of that span is not taken.  The last tier must span."""
    picked, span = [], np.zeros((0, rows.shape[1]))
    for tier in tiers:
        resid = rows[tier] - (rows[tier] @ span.T) @ span
        norms = np.linalg.norm(rows[tier], axis=1)
        norms[norms == 0.0] = np.inf
        while len(picked) < n and len(tier):
            size = np.linalg.norm(resid, axis=1)
            i = int(np.argmax(size / norms))
            if size[i] <= INDEPENDENCE_RTOL * norms[i]:
                break
            u = resid[i] / size[i]
            picked.append(tier[i])
            span = np.vstack([span, u])
            resid -= np.outer(resid @ u, u)
    return np.array(picked)


def _optimum(p, c, x, w, basis, eq, ub, working):
    """The "optimal" LpResult at x with the multipliers w of the basic rows
    ``basis`` (numbered in the kernel's stack; the box's dropped), or None
    unless the certificate of :func:`lp_solve` checks."""
    n, q = len(c), len(eq[1])
    mult = np.zeros(2 * n + q + len(ub[1]))
    mult[basis] = w
    z, y = mult[2 * n:2 * n + q], np.maximum(mult[2 * n + q:], 0.0)
    value = float(c @ x)
    resid = np.max(np.abs(c - eq[0].T @ z - ub[0].T @ y), initial=0.0)
    gap = abs(value - eq[1] @ z - ub[1] @ y)
    if not (resid <= DEFAULT_TOL * max(1.0, np.max(np.abs(c)))
            and gap <= DEFAULT_TOL * max(1.0, abs(value)) and _meets(p, x)):
        return None
    return LpResult("optimal", value=value, x=x,
                    certificate=np.concatenate([z, y]), working_rows=working)


def _infeasible(farkas, eq, ub, working):
    """The "infeasible" LpResult for the Farkas vector (eq part, ub part),
    or None unless it rules out every point of 1-norm up to
    ``CERTIFIED_RADIUS`` that meets every row within ``DEFAULT_TOL``."""
    q = len(eq[1])
    f = np.concatenate([farkas[:q], np.maximum(farkas[q:], 0.0)])
    f /= np.sum(np.abs(f))
    combo = np.max(np.abs(eq[0].T @ f[:q] + ub[0].T @ f[q:]), initial=0.0)
    # for x meeting the rows within DEFAULT_TOL, combo . x - f . rhs <=
    # DEFAULT_TOL |f|_1 = DEFAULT_TOL
    bound = eq[1] @ f[:q] + ub[1] @ f[q:]
    if not bound + DEFAULT_TOL + CERTIFIED_RADIUS * combo < 0.0:
        return None
    return LpResult("infeasible", certificate=f, working_rows=working)


def _unbounded(p, c, x, d, eq, ub, working):
    """The "unbounded" LpResult for the point x and the direction d, or None
    unless x passes :func:`check_feasible`, d (largest entry 1) raises the
    objective by more than ``ZERO_NORM`` times its largest entry (or 1), and
    no row rises along d by more than ``ZERO_NORM``."""
    slip = max(np.max(np.abs(eq[0] @ d), initial=0.0),
               np.max(ub[0] @ d, initial=0.0))
    if not (c @ d > ZERO_NORM * max(1.0, np.max(np.abs(c)))
            and slip <= ZERO_NORM and _meets(p, x)):
        return None
    return LpResult("unbounded", x=x, certificate=d, working_rows=working)


def _meets(p, x):
    """Whether ``x`` passes :func:`check_feasible` on ``p``."""
    try:
        check_feasible(p, x)
    except NumericalConsistencyError:
        return False
    return True


def effect_program(points, objective, eq=None):
    """The LP that maximizes over k stacked effects, each valid
    (0 <= e.x <= 1) on every row of ``points``.

    ``objective`` has shape (k, dim), one row per effect; the variables are
    the k effect vectors flattened row-major, and ``eq`` is an optional
    (matrix, rhs) pair over them.  The validity rows are
    ``[blockdiag(P); -blockdiag(P)]`` with rhs ``[1...; 0...]``.
    """
    pts = np.asarray(points, dtype=float)
    obj = np.asarray(objective, dtype=float)
    k, dim = obj.shape
    n = len(pts)
    block = np.zeros((2 * k * n, k * dim))
    for i in range(k):
        block[i * n:(i + 1) * n, i * dim:(i + 1) * dim] = pts
        block[(k + i) * n:(k + i + 1) * n, i * dim:(i + 1) * dim] = -pts
    rhs = np.concatenate([np.ones(k * n), np.zeros(k * n)])
    return LinearProgram(obj.ravel(), eq=eq, ub=(block, rhs))


def effect_lp(points, objective, eq=None):
    """Solve :func:`effect_program` with one :func:`lp_solve` call.

    An effect LP over n sampled points has 2kn validity rows, of which
    only a few bind, so the kernel's working set starts from the rows of a
    few points: the lowest and highest point along each objective row and
    each coordinate axis, all 2k validity rows of each.  The kernel adds
    the other rows as its optimum violates them and certifies the answer
    on every row.
    """
    pts = as_finite(points, "points")
    obj = as_finite(objective, "objective")
    k, dim = obj.shape
    n = len(pts)
    seeds = np.zeros(0, dtype=int)
    if n:
        proj = pts @ np.concatenate([obj, np.eye(dim)]).T
        seeds = np.concatenate([proj.argmin(axis=0), proj.argmax(axis=0)])
    rows = np.arange(2 * k)[:, None] * n + seeds
    return lp_solve(effect_program(pts, obj, eq), rows.ravel())


def check_feasible(p: LinearProgram, x):
    """Raise :class:`NumericalConsistencyError` unless ``x`` meets every
    equality and inequality of ``p`` within ``DEFAULT_TOL``; every variable
    is free, so there are no bounds to check."""
    if not np.all(np.isfinite(x)):
        raise NumericalConsistencyError("point has non-finite entries")
    if p.eq is not None:
        resid = np.max(np.abs(np.asarray(p.eq[0]) @ x - np.asarray(p.eq[1])))
        if not resid <= DEFAULT_TOL:
            raise NumericalConsistencyError(
                f"optimal point violates equalities by {resid:.3e}"
            )
    if p.ub is not None:
        excess = np.max(np.asarray(p.ub[0]) @ x - np.asarray(p.ub[1]), initial=0.0)
        if not excess <= DEFAULT_TOL:
            raise NumericalConsistencyError(
                f"optimal point violates inequalities by {excess:.3e}"
            )


def round_to_int(x, soft_tol=DEFAULT_TOL, what="value"):
    """Round to the nearest integer, failing loudly when the value is not
    structurally integral.

    Deviation <= ``soft_tol`` rounds silently; deviation beyond
    ``INTEGRALITY_TOL``, or a NaN or infinite value, raises
    :class:`NumericalConsistencyError` (solver drift caught early).  The
    band in between rounds with a warning.
    """
    import warnings

    if not np.isfinite(x):
        raise NumericalConsistencyError(f"{what} = {x} is not finite")
    n = round(float(np.real(x)))
    dev = abs(complex(x) - n)
    if not dev <= INTEGRALITY_TOL:
        raise NumericalConsistencyError(
            f"{what} = {x} deviates from integer {n} by {dev:.3e}"
        )
    if not dev <= soft_tol:
        warnings.warn(
            f"{what} = {x} rounded to {n} with large deviation {dev:.3e}",
            stacklevel=2,
        )
    return int(n)
