"""Dense linear-algebra kernel and a small linear-program front end.

Every other module funnels its matrix work through here, and the package's
tolerance policy lives here: each tolerance shared by several checks is one
named constant below.  Problems are tiny (at most a few hundred variables),
so everything is dense float64: eigendecompositions go through LAPACK
(``numpy.linalg.eigh``) and linear programs through HiGHS
(``scipy.optimize.linprog``, imported by the first solve: loading it takes
longer than most commands that solve no LP).  The LPs are those over sampled
orbit points, the pure-state metric and sampled discrimination; the
hexagon's small problems are solved exactly in ``discrimination`` and never
load HiGHS.

An effect LP over n sampled points has 2kn validity rows, of which only a
few bind, so :func:`effect_lp` solves it by row generation (Kelley, J. SIAM
8, 1960): it starts from the extreme points along the objective rows and the
coordinate axes, and each round adds the inactive points whose rows the
round's optimum violates most.  An optimum valid on every row within
``DEFAULT_TOL`` is the full optimum; an infeasible subset certifies that the
full LP is infeasible; an unbounded subset sends the next round to every row.
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

# Fixed iteration counts: coordinate sweeps and probes per step of the
# best-match polish, and squarings of an averaged rep operator.
POLISH_SWEEPS = 3
POLISH_PROBES = 12
PROJECTOR_SQUARINGS = 5


def as_real_matrix(m, name="matrix"):
    """Coerce to a 2-D float64 array with finite entries."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise DomainError(f"{name} must be 2-dimensional, got shape {a.shape}")
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
    a = as_real_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DomainError(f"matrix is not square: shape {a.shape}")
    asym = np.max(np.abs(a - a.T)) if a.size else 0.0
    if asym > SYMMETRY_TOL:
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
        n = len(np.atleast_1d(self.objective))
        for label, pair in (("eq", self.eq), ("ub", self.ub)):
            if pair is None:
                continue
            a = as_real_matrix(pair[0], name=f"{label} matrix")
            if a.shape[1] != n:
                raise DomainError(
                    f"{label} matrix has {a.shape[1]} columns, expected {n}"
                )
            if a.shape[0] != len(np.atleast_1d(pair[1])):
                raise DomainError(f"{label} rhs length mismatch")


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: float | None = None
    x: np.ndarray | None = None

    @property
    def optimal(self):
        return self.status == "optimal"


def lp_solve(p: LinearProgram):
    """Solve a small dense LP, maximizing the objective.

    Returns an :class:`LpResult`.  An optimal point is feasibility-checked
    within ``DEFAULT_TOL`` before being returned.  HiGHS runs at its own
    defaults (feasibility tolerance 1e-7) first; when its point fails the
    check, or it stops without a status certificate, the LP is solved once
    more with feasibility tolerances of ``DEFAULT_TOL / 10`` and the
    objective scaled to a largest entry of 1 (the tolerances are absolute).

    Raises
    ------
    LpSolverFailure
        If the re-solve also stops without a status certificate.
    NumericalConsistencyError
        If the re-solved optimal point also fails the check.
    """
    from scipy.optimize import linprog

    p._validate()
    c = -np.atleast_1d(np.asarray(p.objective, dtype=float))
    a_eq, b_eq = (None, None) if p.eq is None else p.eq
    a_ub, b_ub = (None, None) if p.ub is None else p.ub

    def solve(scale=1.0, options=None):
        res = linprog(c / scale, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                      bounds=(None, None), method="highs", options=options)
        return _certify(p, res, scale)

    try:
        return solve()
    except (LpSolverFailure, NumericalConsistencyError):
        return solve(np.max(np.abs(c)) or 1.0, dict.fromkeys(
            ("primal_feasibility_tolerance", "dual_feasibility_tolerance"),
            DEFAULT_TOL / 10))


def _certify(p, res, scale):
    """The LpResult of one HiGHS run; raises when the run certifies nothing."""
    if res.status == 2:
        return LpResult("infeasible")
    if res.status == 3:
        return LpResult("unbounded")
    if res.status != 0:
        raise LpSolverFailure(f"LP solver stopped: {res.message}")
    x = np.asarray(res.x, dtype=float)
    check_feasible(p, x)
    return LpResult("optimal", value=-float(res.fun) * scale, x=x)


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
    """Solve :func:`effect_program` with :func:`lp_solve`, by row generation.

    Each round solves the program on the points of an active set.  It
    starts as the lowest and highest point along each objective row and
    each coordinate axis; after each round, up to ``2 * dim`` inactive
    points join it, those whose validity rows the round's optimum violates
    most.  The answer is

    - the round's optimum, once it meets every validity row within
      ``DEFAULT_TOL`` (the rule of :func:`check_feasible`, read off
      ``points @ effects.T``): a relaxation optimum feasible on all rows is
      the full optimum;
    - "infeasible" as soon as a round is: an infeasible subset certifies
      that the full program is infeasible;
    - the answer of a round on every point.  An unbounded round, or one
      whose optimum only active rows violate (by roundoff), sends the next
      round to every point.
    """
    pts = as_real_matrix(points, "points")  # every row, read by a round or not
    obj = np.asarray(objective, dtype=float)
    k, dim = obj.shape
    n = len(pts)
    active = np.zeros(n, dtype=bool)
    if n:
        proj = pts @ np.concatenate([obj, np.eye(dim)]).T
        active[proj.argmin(axis=0)] = active[proj.argmax(axis=0)] = True
    while True:
        res = lp_solve(effect_program(pts[active], obj, eq))
        if active.all() or res.status == "infeasible":
            return res
        if res.status == "unbounded":
            active[:] = True
            continue
        vals = pts @ res.x.reshape(k, dim).T
        excess = np.maximum(vals - 1.0, -vals).max(axis=1)
        if excess.max() <= DEFAULT_TOL:
            return res
        excess[active] = 0.0
        violated = np.flatnonzero(excess > DEFAULT_TOL)
        if violated.size == 0:
            active[:] = True
            continue
        worst = np.argsort(-excess[violated], kind="stable")[:2 * dim]
        active[violated[worst]] = True


def check_feasible(p: LinearProgram, x):
    """Raise :class:`NumericalConsistencyError` unless ``x`` meets every
    equality and inequality of ``p`` within ``DEFAULT_TOL``; every variable
    is free, so there are no bounds to check."""
    if not np.all(np.isfinite(x)):
        raise NumericalConsistencyError("point has non-finite entries")
    if p.eq is not None:
        resid = np.max(np.abs(np.asarray(p.eq[0]) @ x - np.asarray(p.eq[1])))
        if resid > DEFAULT_TOL:
            raise NumericalConsistencyError(
                f"optimal point violates equalities by {resid:.3e}"
            )
    if p.ub is not None:
        excess = np.max(np.asarray(p.ub[0]) @ x - np.asarray(p.ub[1]), initial=0.0)
        if excess > DEFAULT_TOL:
            raise NumericalConsistencyError(
                f"optimal point violates inequalities by {excess:.3e}"
            )


def round_to_int(x, soft_tol=DEFAULT_TOL, what="value"):
    """Round to the nearest integer, failing loudly when the value is not
    structurally integral.

    Deviation <= ``soft_tol`` rounds silently; deviation beyond
    ``INTEGRALITY_TOL`` raises :class:`NumericalConsistencyError` (solver
    drift caught early).  The band in between rounds with a warning.
    """
    import warnings

    n = round(float(np.real(x)))
    dev = abs(complex(x) - n)
    if dev > INTEGRALITY_TOL:
        raise NumericalConsistencyError(
            f"{what} = {x} deviates from integer {n} by {dev:.3e}"
        )
    if dev > soft_tol:
        warnings.warn(
            f"{what} = {x} rounded to {n} with large deviation {dev:.3e}",
            stacklevel=2,
        )
    return int(n)
