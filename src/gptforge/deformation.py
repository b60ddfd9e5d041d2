"""Distances between probabilistic structures and deformation machinery.

The directed distance between structures is a max-min over effects of the
worst-case discrimination error; it is estimated here by sweeping a family of
witness effects, projecting each onto the rival structure's effects by least
squares, and polishing with a coordinate-wise search on the sup-norm
objective.  Analytic lower bounds (1 / (4 d) for a missing irreducible block,
1 / (4 (d - 1)) for rigidity) are computed exactly and cross-checked by a
Monte-Carlo average that realizes the Schur orthogonality identity

    integral over g of f(g x)^2  =  c_0^2 + |w|^2 |v|^2 / D

for an effect f(x) = c_0 + <w, x> on the orbit of a reference v in one
irrep carrier of dimension D.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compact_rep import ensure_rng, haar_samples, invariant_projector
from .errors import DomainError
from .numerics import INVARIANCE_TOL, effect_lp
from .state_space import Effect, build_structure, orbit_points, witness_effect

# ---------------------------------------------------------------------------
# the rigidity bound


def rigidity_bound(d0):
    """Distance floor 1 / (4 (d0 - 1)) separating inequivalent structures of
    total dimension d0."""
    if d0 < 2:
        raise DomainError("total dimension must be >= 2")
    return 1.0 / (4.0 * (d0 - 1))


# ---------------------------------------------------------------------------
# the Schur average identity


@dataclass(frozen=True)
class SchurAverageResult:
    mc_average: float
    exact: float
    sigma: float
    n: int

    @property
    def deviation(self):
        return abs(self.mc_average - self.exact)


def schur_average_check(s, effects, n, rng):
    """Monte-Carlo estimates of the Haar average of f^2 against its exact
    value, one :class:`SchurAverageResult` per effect in ``effects``.

    The exact value is c_0^2 + |w|^2 |v|^2 / D for the effect c_0 + <w, x>,
    the reference v and the carrier dimension D.  All effects are averaged
    over one Haar draw and one orbit.
    """
    fresh = haar_samples(s.rep, n, ensure_rng(rng))
    points = orbit_points(s.rep, fresh, s.reference)
    r = np.linalg.norm(s.reference)
    results = []
    for e in effects:
        vec = np.asarray(e.vector, dtype=float)
        sq = (points @ vec) ** 2
        mc = float(sq.mean())
        sigma = float(sq.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        c = np.linalg.norm(vec[1:])
        exact = vec[0] ** 2 + (c * r) ** 2 / s.rep.real_dimension
        results.append(SchurAverageResult(mc, float(exact), sigma, n))
    return results


# ---------------------------------------------------------------------------
# analytic lower bound for a missing block


@dataclass(frozen=True)
class LowerBoundReport:
    bound: float
    block_dim: int
    mc_min: float
    sigma: float
    n: int
    verified: bool


def structure_distance_lower_bound(s0, s1):
    """Lower bound 1 / (4 d0) when s0's irrep is absent from s1, verified.

    Requires point-aligned samples (built from one element stream, see
    ``paired_structures``): the verification minimizes the sampled average of
    (f0(g x0) - f1(g x0))^2 over all linear effects f1 of s1 by least squares
    and checks that it stays above the bound within 3 sigma.
    """
    if s0.label == s1.label:
        raise DomainError(
            f"block {s0.label!r} is present in both structures; the "
            "missing-block bound does not apply"
        )
    if s0.n_points != s1.n_points:
        raise DomainError("samples must be point-aligned (equal lengths)")
    d0 = s0.rep.real_dimension
    bound = 1.0 / (4.0 * d0)

    f0 = _reference_witness(s0)
    y = s0.points @ f0.vector
    beta, *_ = np.linalg.lstsq(s1.points, y, rcond=None)
    resid = y - s1.points @ beta
    sq = resid**2
    mc_min = float(sq.mean())
    sigma = float(sq.std(ddof=1) / np.sqrt(len(sq)))
    return LowerBoundReport(bound, d0, mc_min, sigma, s0.n_points,
                            mc_min >= bound - 3.0 * sigma)


def _reference_witness(s):
    """Witness effect 1/2 + <v, x>/2 anchored at the (nonzero) reference v."""
    v = s.reference
    nv = np.linalg.norm(v)
    return Effect.affine(0.5, v / (2.0 * nv * nv), "witness[reference]")


# ---------------------------------------------------------------------------
# symmetrized distance estimate


@dataclass(frozen=True)
class DistanceReport:
    estimate: float
    lower_bound: float
    directed_01: float
    directed_10: float
    n: int
    seed: int | None
    effect_family_size: int
    missing_blocks: tuple  # (s0.label, s1.label) when the irreps differ


def symmetrized_distance_estimate(s0, s1, effect_family_size=8, rng=0):
    """Estimate of the symmetrized max-min discrimination distance.

    Witness effects on one structure are matched on the other by least-squares
    projection plus a coordinate-wise polish of the sup-norm objective, with
    the match forced back into the valid effect range.  Each direction draws
    its random witnesses from a fresh stream of one seed (``rng`` itself when
    it is an integer, else one integer drawn from it), so swapping s0 and s1
    swaps ``directed_01`` and ``directed_10`` and leaves the estimate, the
    larger of the two, bit for bit the same.
    """
    if s0.n_points != s1.n_points:
        raise DomainError("samples must be point-aligned (equal lengths)")
    seed = rng if isinstance(rng, (int, np.integer)) else None
    stream = seed if seed is not None else int(ensure_rng(rng).integers(2**63))
    d01 = _directed_estimate(s0, s1, effect_family_size, stream)
    d10 = _directed_estimate(s1, s0, effect_family_size, stream)

    missing = (s0.label, s1.label) if s0.label != s1.label else ()
    # the smaller irrep sets the larger of the two missing-block bounds
    d = min(s0.rep.real_dimension, s1.rep.real_dimension)
    lower = 1.0 / (4.0 * d) if missing else 0.0
    return DistanceReport(max(d01, d10), lower, d01, d10, s0.n_points, seed,
                          effect_family_size, missing)


def _witness_family(s, size, rng):
    effects = [_reference_witness(s)]
    n = s.n_points
    n_anchor = max(0, (size - 1) // 2)
    for idx in np.unique(np.linspace(0, n - 1, n_anchor, dtype=int)):
        effects.append(witness_effect(s, anchor=int(idx)))
    while len(effects) < size:
        w = rng.standard_normal(s.rep.real_dimension)
        w /= np.linalg.norm(w)
        effects.append(Effect.affine(0.5, w / 2.0, "witness[random]"))
    return effects


def _directed_estimate(sa, sb, family_size, seed):
    worst = 0.0
    for f0 in _witness_family(sa, family_size, np.random.default_rng(seed)):
        y = sa.points @ f0.vector
        worst = max(worst, _best_match_distance(y, sb))
    return worst


def _best_match_distance(y, sb, sweeps=3, probes=12):
    """min over valid effects f1 of max_x |y(x) - f1(x)| (approximate)."""
    x = sb.points
    beta, *_ = np.linalg.lstsq(x, y, rcond=None)
    beta = _coordinate_polish(y, x, beta, sweeps, probes)
    beta = _force_valid(x, beta)
    return float(np.max(np.abs(y - x @ beta)))


def _coordinate_polish(y, x, beta, sweeps, probes):
    resid = y - x @ beta
    best = np.max(np.abs(resid))
    for _ in range(sweeps):
        improved = False
        for c in range(len(beta)):
            col = x[:, c]
            scale = max(best, 1e-12)
            deltas = np.linspace(-scale, scale, probes)
            vals = np.max(np.abs(resid[None, :] - np.outer(deltas, col)), axis=1)
            k = int(np.argmin(vals))
            if vals[k] < best - 1e-12:
                beta = beta.copy()
                beta[c] += deltas[k]
                resid = resid - deltas[k] * col
                best = vals[k]
                improved = True
        if not improved:
            break
    return beta


def _force_valid(x, beta, tol=1e-9):
    """Shrink an effect toward the coin-flip effect until valid on x."""
    vals = x @ beta
    lo, hi = vals.min(), vals.max()
    if lo >= -tol and hi <= 1.0 + tol:
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
    """A one-parameter rotation of the reference inside the H-fixed plane.

    The rotation has unit speed: at parameter t the reference has turned by
    t radians from w1 toward w2, so the pointwise perturbation scale is
    2 sin(t/2) ~ t.  The generator is the canonical rotation of the chosen
    plane (any rotation of span(w1, w2) works; this pick is recorded).
    """

    base: object
    w1: np.ndarray
    w2: np.ndarray

    def rotation(self, t):
        w1, w2 = self.w1, self.w2
        def apply(x):
            c1 = x @ w1
            c2 = x @ w2
            return (x + (np.cos(t) - 1.0) * (c1 * w1 + c2 * w2)
                    + np.sin(t) * (c1 * w2 - c2 * w1))
        return apply


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
    w1 = base.reference
    basis = np.linalg.svd(proj.projector)[0][:, :proj.rank]
    resid = basis - np.outer(w1, w1 @ basis)
    norms = np.linalg.norm(resid, axis=0)
    w2 = resid[:, int(np.argmax(norms))]
    w2 /= np.linalg.norm(w2)
    path = DeformationPath(base, w1, w2)
    for t in (0.25, 0.5, 0.75, 1.0):
        v = path.rotation(t)(w1)
        viol = np.linalg.norm(proj.projector @ v - v)
        if viol > INVARIANCE_TOL:
            raise DomainError(
                f"rotated reference leaves the fixed space at t = {t} "
                f"(violation {viol:.3e}); the plane is not invariant"
            )
    return path


def deform(path, t):
    """The structure at parameter t, sampled with the base element stream."""
    if not 0.0 <= t <= 1.0:
        raise DomainError("t must lie in [0, 1]")
    base = path.base
    ref = path.rotation(t)(path.w1)
    return build_structure(base.rep, base.subgroup, ref, base.n_points,
                           None, elements=base.elements)


def deformation_sweep(base, ts, effect_family_size=8, rng=0):
    """Distance-from-base estimates along a deformation path.

    Returns one dict per t with the estimate and its reproducibility data.
    """
    path = make_deformation_path(base)
    rows = []
    for t in ts:
        st = deform(path, float(t))
        rep = symmetrized_distance_estimate(base, st, effect_family_size, rng)
        rows.append({
            "t": float(t),
            "d_sym_estimate": rep.estimate,
            "n": rep.n,
            "seed": rep.seed,
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
    the value lies in [0, 1], is symmetric, and satisfies the triangle
    inequality up to LP tolerance.
    """
    n = s.n_points
    if not (0 <= i < n and 0 <= j < n):
        raise DomainError("point index out of range")
    res = effect_lp(s.points, [s.points[i] - s.points[j]])
    if not res.optimal:
        raise DomainError(f"pure-state distance LP came back {res.status}")
    return float(res.value)
