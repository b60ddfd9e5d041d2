"""Dense linear-algebra kernel and a small linear-program front end.

Every other module funnels its matrix work through here so that tolerances
are applied uniformly.  Problems are tiny (at most a few hundred variables),
so everything is dense float64: eigendecompositions go through LAPACK
(``numpy.linalg.eigh``) and linear programs through HiGHS
(``scipy.optimize.linprog``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from .errors import DomainError, LpSolverFailure, NumericalConsistencyError

# Global default tolerance; every check quotes its tolerance relative to this.
DEFAULT_TOL = 1e-8


def as_real_matrix(m, name="matrix"):
    """Coerce to a 2-D float64 array with finite entries."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise DomainError(f"{name} must be 2-dimensional, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError(f"{name} has non-finite entries")
    return a


def symmetric_eigen(m, tol=1e-10):
    """Eigendecomposition of a real symmetric matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues in descending
    order and eigenvectors as orthonormal columns, so that
    ``m @ v[:, i] == w[i] * v[:, i]``.

    Raises
    ------
    DomainError
        If ``m`` is not square or not symmetric within ``tol``.
    """
    a = as_real_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DomainError(f"matrix is not square: shape {a.shape}")
    asym = np.max(np.abs(a - a.T)) if a.size else 0.0
    if asym > tol:
        raise DomainError(f"matrix is not symmetric: max |a - a.T| = {asym:.3e}")
    w, v = np.linalg.eigh((a + a.T) / 2.0)
    order = np.argsort(w)[::-1]
    return w[order], v[:, order]


def orthonormalize(columns, rank_tol=1e-10):
    """Orthonormalize the columns of a matrix, preserving their span.

    Uses a QR factorization with the diagonal of R forced non-negative, so an
    already-orthonormal input is returned unchanged up to column signs.

    Raises
    ------
    DomainError
        If the columns are linearly dependent within ``rank_tol``; the message
        reports the numerical rank.
    """
    a = as_real_matrix(m=columns, name="columns")
    if a.shape[1] == 0:
        return a.copy()
    svals = np.linalg.svd(a, compute_uv=False)
    rank = int(np.sum(svals > rank_tol * max(a.shape)))
    if rank < a.shape[1]:
        raise DomainError(
            f"columns are rank deficient: numerical rank {rank} < {a.shape[1]}"
        )
    q, r = np.linalg.qr(a)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


@dataclass
class LinearProgram:
    """A maximization LP: max c.x subject to A_eq x = b_eq, A_ub x <= b_ub.

    ``bounds`` holds one (lo, hi) pair per variable with ``None`` for an
    unbounded side; variables are free by default (note: this differs from
    scipy's default of x >= 0).
    """

    objective: np.ndarray
    eq: tuple | None = None  # (matrix, rhs)
    ub: tuple | None = None  # (matrix, rhs)
    bounds: list = field(default_factory=list)

    def n_vars(self):
        return len(np.atleast_1d(self.objective))

    def _validate(self):
        n = self.n_vars()
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
        if self.bounds and len(self.bounds) != n:
            raise DomainError("bounds length must equal variable count")


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: float | None = None
    x: np.ndarray | None = None

    @property
    def optimal(self):
        return self.status == "optimal"


def lp_solve(p: LinearProgram, tol=DEFAULT_TOL):
    """Solve a small dense LP, maximizing the objective.

    Returns an :class:`LpResult`.  An optimal point is feasibility-checked
    within ``tol`` before being returned.

    Raises
    ------
    LpSolverFailure
        If the backend stops without a status certificate.
    """
    p._validate()
    c = -np.atleast_1d(np.asarray(p.objective, dtype=float))
    a_eq, b_eq = (None, None) if p.eq is None else p.eq
    a_ub, b_ub = (None, None) if p.ub is None else p.ub
    bounds = p.bounds if p.bounds else [(None, None)] * p.n_vars()
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs",
    )
    if res.status == 2:
        return LpResult("infeasible")
    if res.status == 3:
        return LpResult("unbounded")
    if res.status != 0:
        raise LpSolverFailure(f"LP solver stopped: {res.message}")
    x = np.asarray(res.x, dtype=float)
    _check_feasible(p, x, tol)
    return LpResult("optimal", value=-float(res.fun), x=x)


def effect_lp(points, objective, eq=None, tol=DEFAULT_TOL):
    """Maximize over k stacked effects, each valid (0 <= e.x <= 1) on every
    row of ``points``.

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
    return lp_solve(LinearProgram(obj.ravel(), eq=eq, ub=(block, rhs)),
                    tol=tol)


def _check_feasible(p: LinearProgram, x, tol):
    if p.eq is not None:
        resid = np.max(np.abs(np.asarray(p.eq[0]) @ x - np.asarray(p.eq[1])))
        if resid > tol:
            raise NumericalConsistencyError(
                f"optimal point violates equalities by {resid:.3e}"
            )
    if p.ub is not None:
        excess = np.max(np.asarray(p.ub[0]) @ x - np.asarray(p.ub[1]), initial=0.0)
        if excess > tol:
            raise NumericalConsistencyError(
                f"optimal point violates inequalities by {excess:.3e}"
            )
    for i, (lo, hi) in enumerate(p.bounds or []):
        if lo is not None and x[i] < lo - tol:
            raise NumericalConsistencyError(f"variable {i} below lower bound")
        if hi is not None and x[i] > hi + tol:
            raise NumericalConsistencyError(f"variable {i} above upper bound")


def round_to_int(x, soft_tol=DEFAULT_TOL, hard_tol=1e-4, what="value"):
    """Round to the nearest integer, failing loudly when the value is not
    structurally integral.

    Deviation <= ``soft_tol`` rounds silently; deviation beyond ``hard_tol``
    raises :class:`NumericalConsistencyError` (solver drift caught early).
    The band in between rounds with a warning.
    """
    import warnings

    n = round(float(np.real(x)))
    dev = abs(complex(x) - n)
    if dev > hard_tol:
        raise NumericalConsistencyError(
            f"{what} = {x} deviates from integer {n} by {dev:.3e}"
        )
    if dev > soft_tol:
        warnings.warn(
            f"{what} = {x} rounded to {n} with large deviation {dev:.3e}",
            stacklevel=2,
        )
    return int(n)
