"""Distances between probabilistic structures and deformation machinery.

The directed distance between structures is a max-min over effects of the
worst-case discrimination error; it is estimated here by matching a family of
witness effects on the rival structure's points in one least-squares solve (one
SVD of the n x (1+D) points) and polishing each match with a coordinate-wise
search on the sup-norm objective.  Each polish step probes a few shifts of one
coefficient and needs, for each, the largest |residual| over all points; most
steps find no improving shift.  Over the near points alone (a bounded set of
points whose |residual| is within a few percent of the largest) the same float
operations give, per probe, a value no larger than its maximum over all points,
so their minimum over the probes is an exact floor: a column whose floor is not
below the current best cannot improve, and its full probe is skipped.  The
floors of every column come from one small array after each accepted step, and
the polished coefficients are bit for bit those of probing every step.

The analytic lower bound 1 / (4 d) for a missing irreducible block of
dimension d is cross-checked by a least-squares Monte-Carlo minimum, and
``schur_average_check`` tests a sample against the Schur orthogonality
identity

    integral over g of f(g x)^2  =  c_0^2 + |w|^2 |v|^2 / D

for an effect f(x) = c_0 + <w, x> on the orbit of a reference v in one
irrep carrier of dimension D.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .compact_rep import act, invariant_projector
from .errors import DomainError
from .numerics import (DEFAULT_TOL, INVARIANCE_TOL, POLISH_NEAR_FRACTION,
                       POLISH_NEAR_MAX, POLISH_PROBES, POLISH_SWEEPS,
                       WITNESSES, ZERO_NORM, effect_lp)
from .state_space import Effect, _witness, witness_effect

# ---------------------------------------------------------------------------
# the Schur average identity


@dataclass(frozen=True)
class SchurAverageResult:
    mc_average: float
    exact: float
    sigma: float

    @property
    def deviation(self):
        return abs(self.mc_average - self.exact)

    @property
    def ok(self):
        """The average lies within 4 sigma of the exact value (ZERO_NORM
        lets an effect constant on the orbit, sigma 0, pass)."""
        return bool(self.deviation <= 4.0 * self.sigma + ZERO_NORM)


def schur_average_check(s, effects):
    """Monte-Carlo estimates of the Haar average of f^2 over the orbit
    sample ``s.points`` against its exact value, one
    :class:`SchurAverageResult` per effect in ``effects``.

    The exact value is c_0^2 + |w|^2 |v|^2 / D for the effect c_0 + <w, x>,
    the reference v and the carrier dimension D.
    """
    r = np.linalg.norm(s.reference)
    results = []
    for e in effects:
        vec = np.asarray(e.vector, dtype=float)
        mc, sigma = _mean_and_sigma((s.points @ vec) ** 2)
        c = np.linalg.norm(vec[1:])
        exact = vec[0] ** 2 + (c * r) ** 2 / s.rep.real_dimension
        results.append(SchurAverageResult(mc, float(exact), sigma))
    return results


def _mean_and_sigma(sq):
    if len(sq) < 2:
        raise DomainError(f"the check needs at least 2 samples for its "
                          f"sigma, got {len(sq)}")
    return float(sq.mean()), float(sq.std(ddof=1) / np.sqrt(len(sq)))


# ---------------------------------------------------------------------------
# analytic lower bound for a missing block


@dataclass(frozen=True)
class LowerBoundReport:
    bound: float
    block_dim: int
    mc_min: float
    sigma: float
    verified: bool


def structure_distance_lower_bound(s0, s1):
    """Lower bound 1 / (4 d0) when s0's irrep is absent from s1, verified.

    Requires at least two point-aligned samples (built on one fundamental
    group from one integer seed): the verification minimizes the
    sampled average of (f0(g x0) - f1(g x0))^2 over all linear effects f1 of
    s1 by least squares and checks that it stays above the bound within
    3 sigma.
    """
    _check_aligned(s0, s1)
    if s0.label == s1.label:
        raise DomainError(
            f"block {s0.label!r} is present in both structures; the "
            "missing-block bound does not apply"
        )
    d0 = s0.rep.real_dimension
    bound = 1.0 / (4.0 * d0)

    f0 = _witness(s0.reference, "witness[reference]")
    y = s0.points @ f0.vector
    beta, *_ = np.linalg.lstsq(s1.points, y, rcond=None)
    mc_min, sigma = _mean_and_sigma((y - s1.points @ beta) ** 2)
    return LowerBoundReport(bound, d0, mc_min, sigma,
                            mc_min >= bound - 3.0 * sigma)


def _check_aligned(s0, s1):
    if not np.array_equal(s0.elements, s1.elements):
        raise DomainError("samples must be point-aligned: built on one "
                          "fundamental group from one integer seed")


# ---------------------------------------------------------------------------
# symmetrized distance estimate


@dataclass(frozen=True)
class DistanceReport:
    estimate: float
    directed_01: float
    directed_10: float


def symmetrized_distance_estimate(s0, s1, rng=0):
    """Estimate of the symmetrized max-min discrimination distance.

    ``WITNESSES`` witness effects on one structure are matched on the other
    by one least-squares solve per direction (one SVD of the n x (1+D)
    matched points), each match then polished coordinate-wise on the
    sup-norm objective and forced back into the valid range.  ``rng`` is a
    non-negative integer seed.  The random witnesses have their own stream,
    ``SeedSequence(rng, spawn_key=(1,))``, apart from the ``default_rng(rng)``
    draws that build the samples; each direction starts it afresh, so
    swapping s0 and s1 swaps ``directed_01`` and ``directed_10`` and leaves
    the estimate, the larger of the two, bit for bit the same.  The samples
    must be point-aligned, as in :func:`structure_distance_lower_bound`,
    which gives the floor under the estimate when the two blocks differ.
    """
    _check_aligned(s0, s1)
    if (isinstance(rng, bool) or not isinstance(rng, (int, np.integer))
            or rng < 0):
        raise DomainError(f"rng must be a non-negative integer seed, "
                          f"got {rng!r}")
    d01 = _directed_estimate(s0, s1, rng)
    d10 = _directed_estimate(s1, s0, rng)
    return DistanceReport(max(d01, d10), d01, d10)


def _witness_family(s, rng):
    effects = [_witness(s.reference, "witness[reference]")]
    anchors = np.linspace(0, s.n_points - 1, (WITNESSES - 1) // 2, dtype=int)
    for idx in np.unique(anchors):
        effects.append(witness_effect(s, anchor=int(idx)))
    while len(effects) < WITNESSES:
        w = rng.standard_normal(s.rep.real_dimension)
        w /= np.linalg.norm(w)
        effects.append(Effect.affine(0.5, w / 2.0, "witness[random]"))
    return effects


def _directed_estimate(sa, sb, seed):
    """max over sa's witnesses f0 of min over valid effects f1 of
    max_x |f0(x) - f1(x)| (approximate)."""
    x = sb.points
    worst = 0.0
    # spawned from the seed, a stream no integer seed gives: the samples'
    # Haar draws read default_rng(seed) itself
    stream = np.random.SeedSequence(seed, spawn_key=(1,))
    family = _witness_family(sa, np.random.default_rng(stream))
    ys = sa.points @ np.stack([f0.vector for f0 in family], axis=1)
    betas, *_ = np.linalg.lstsq(x, ys, rcond=None)
    for y, beta in zip(ys.T, betas.T.copy()):  # C-contiguous betas
        beta = _coordinate_polish(y, x, beta, POLISH_SWEEPS, POLISH_PROBES)
        beta = _force_valid(x, beta)
        worst = max(worst, float(np.max(np.abs(y - x @ beta))))
    return worst


def _coordinate_polish(y, x, beta, sweeps, probes):
    resid = y - x @ beta
    best = np.max(np.abs(resid))
    # one buffer for every step: fresh (probes, n) temporaries page-fault
    buf = np.empty((probes, len(resid)))
    deltas, floors = _probe_floors(resid, x, best, probes)
    for _ in range(sweeps):
        improved = False
        for c in range(len(beta)):
            # floors[c] is min over probes of max over the near points of
            # |r_i - delta x_ic|, the same float operations as the full
            # probe's on a subset of its points, so every probe value of
            # column c is at least floors[c]: such a step would be rejected
            # below, and its (probes, n) probe is skipped
            if floors[c] >= best - ZERO_NORM:
                continue
            col = x[:, c]
            vals = _probe(resid, col, deltas, buf)
            k = int(np.argmin(vals))
            if vals[k] < best - ZERO_NORM:
                beta = beta.copy()
                beta[c] += deltas[k]
                resid = resid - deltas[k] * col
                best = vals[k]
                improved = True
                deltas, floors = _probe_floors(resid, x, best, probes)
        if not improved:
            break
    return beta


def _probe(resid, col, deltas, buf):
    """max_i |r_i - delta_p x_i| for every probe p, computed in ``buf``."""
    np.multiply.outer(deltas, col, out=buf)
    np.subtract(resid, buf, out=buf)
    np.abs(buf, out=buf)
    return buf.max(axis=1)


def _probe_floors(resid, x, best, probes):
    """The probe steps at residual ``resid`` and, for every column c,
    min_p max_{i near} |r_i - delta_p x_ic|: a lower bound on that column's
    best probe value, by the same float operations.  The near points are
    the first ``POLISH_NEAR_MAX`` in sample order with |r_i| >=
    ``POLISH_NEAR_FRACTION`` best; samples come in random order, so they
    spread over every region where the residual is near its maximum."""
    scale = max(best, ZERO_NORM)
    deltas = np.linspace(-scale, scale, probes)
    near = np.flatnonzero(np.abs(resid) >= POLISH_NEAR_FRACTION * best)
    near = near[:POLISH_NEAR_MAX]
    t = np.multiply.outer(deltas, x[near])
    np.subtract(resid[near][:, None], t, out=t)
    np.abs(t, out=t)
    return deltas, t.max(axis=1).min(axis=0)


def _force_valid(x, beta):
    """Shrink an effect toward the coin-flip effect until valid on x."""
    vals = x @ beta
    lo, hi = vals.min(), vals.max()
    if lo >= -DEFAULT_TOL and hi <= 1.0 + DEFAULT_TOL:
        return beta
    nu = 1.0
    if hi > 1.0:
        nu = min(nu, 0.5 / (hi - 0.5))
    if lo < 0.0:
        nu = min(nu, 0.5 / (0.5 - lo))
    center = np.zeros_like(beta)
    center[0] = 0.5
    return nu * beta + (1.0 - nu) * center


# ---------------------------------------------------------------------------
# deformation paths


@dataclass(frozen=True, eq=False)
class DeformationPath:
    """A fixed plane of two orbits in the H-fixed space.

    At parameter t the reference has turned by t radians from w1 toward w2,
    so the pointwise perturbation scale is 2 sin(t/2) ~ t.  Gamma(g) is
    linear, so its orbit is cos t orbit(w1) + sin t orbit(w2); ``orbit2``
    holds orbit(w2) over the base elements.  Any unit w2 in the fixed space
    orthogonal to w1 works; this pick is recorded.
    """

    base: object
    w1: np.ndarray
    w2: np.ndarray
    orbit2: np.ndarray

    def reference(self, t):
        """The reference at parameter t: cos t w1 + sin t w2."""
        return np.cos(t) * self.w1 + np.sin(t) * self.w2


def make_deformation_path(base):
    """Build a deformation path from a structure with a >= 2-dim fixed space.

    Raises :class:`DomainError` for rigid structures (fixed-space rank < 2:
    there is no invariant plane to rotate in).
    """
    if base.subgroup is None:
        raise DomainError("the base structure has no subgroup attached")
    proj = invariant_projector(base.rep, base.subgroup)
    if proj.rank < 2:
        raise DomainError(
            f"fixed space has rank {proj.rank}; the structure is rigid and "
            "admits no deformation plane"
        )
    # w2: the largest column of P - w1 w1^T P, a function of P alone (an
    # SVD basis of the degenerate P could flip with its last bits)
    w1 = base.reference
    resid = proj.projector - np.outer(w1, w1 @ proj.projector)
    norms = np.linalg.norm(resid, axis=0)
    j = int(np.argmax(norms))
    w2 = resid[:, j] / norms[j]
    viol = np.linalg.norm(proj.projector @ w2 - w2)
    if viol > INVARIANCE_TOL:
        raise DomainError(
            f"the second plane axis leaves the fixed space (violation "
            f"{viol:.3e}); the plane is not invariant"
        )
    return DeformationPath(base, w1, w2, act(base.rep, base.elements, w2))


def deform(path, t):
    """The base with points (1, cos t orbit(w1) + sin t orbit(w2)) and
    reference ``path.reference(t)``: nothing is sampled, projected or acted
    on."""
    if not 0.0 <= t <= 1.0:
        raise DomainError("t must lie in [0, 1]")
    base = path.base
    ref = path.reference(t)
    points = base.points.copy()
    points[:, 1:] = np.cos(t) * points[:, 1:] + np.sin(t) * path.orbit2
    return replace(base, reference=ref, points=points)


def deformation_sweep(base, ts, rng=0):
    """Distance-from-base estimates along a deformation path.

    Returns one dict per t with the estimate and its reproducibility data:
    the sample size and the integer seed ``rng``.
    """
    path = make_deformation_path(base)
    rows = []
    for t in ts:
        st = deform(path, float(t))
        rep = symmetrized_distance_estimate(base, st, rng)
        rows.append({
            "t": float(t),
            "d_sym_estimate": rep.estimate,
            "n": base.n_points,
            "seed": rng,
        })
    return rows


def sweep_csv(rows):
    """Distance sweep rows as CSV: t, estimate, seed, n.

    No lower-bound column: a deformation keeps the representation, so no
    block goes missing and the missing-block bound is 0 on every row.
    """
    lines = ["t,d_sym_estimate,seed,n"]
    for r in rows:
        lines.append(
            f"{r['t']:.12g},{r['d_sym_estimate']:.12g},{r['seed']},{r['n']}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the pure-state metric


def pure_state_distance(s, i, j):
    """sup over valid effects of f(x_i) - f(x_j), computed by LP.

    The supremum runs over all linear effects valid on the sampled orbit, so
    the value lies in [0, 1] and satisfies the triangle inequality up to LP
    tolerance.  It is symmetric bit for bit: f -> 1 - f maps the valid
    effects onto themselves, and the LP is solved lower index first.
    """
    n = s.n_points
    if not (0 <= i < n and 0 <= j < n):
        raise DomainError("point index out of range")
    res = effect_lp(s.points, [s.points[min(i, j)] - s.points[max(i, j)]])
    if not res.optimal:
        raise DomainError(f"pure-state distance LP came back {res.status}")
    return float(res.value)
