"""Embedded state spaces: group orbits of subgroup-invariant reference vectors.

A structure sample holds a seeded Monte-Carlo picture of one probabilistic
structure: the orbit points Gamma(g_i) v prefixed with an explicit leading
coordinate fixed to 1 (the unit-effect / normalization component), the
maximally mixed state, and block metadata describing how the ambient
coordinates split into irreducible pieces.  Orthogonality of the group action
puts every orbit on a hypersphere around the mixed state, which is the basic
consistency check exposed here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .classification import quartic_reference
from .compact_rep import (
    CompactRepSpec,
    act,
    block_subgroup,
    ensure_rng,
    full_torus,
    haar_samples,
    invariant_projector,
    so_fundamental,
    so_traceless_symmetric,
    su_adjoint,
)
from .errors import DomainError
from .numerics import DEFAULT_TOL, INVARIANCE_TOL, ZERO_NORM


@dataclass(frozen=True)
class Block:
    """One isotypic block of the ambient coordinates: [start, stop)."""

    label: str
    start: int
    stop: int

    @property
    def dim(self):
        return self.stop - self.start


@dataclass(frozen=True, eq=False)
class StructureSample:
    """A seeded orbit sample of one probabilistic structure.

    ``points`` has shape (n, 1 + D) with column 0 identically 1; rows are
    the embedded pure states.  ``elements`` keeps the fundamental-picture
    group samples so deformations and paired builds can reuse the stream.
    """

    rep: CompactRepSpec
    subgroup: object
    reference: np.ndarray
    points: np.ndarray
    elements: np.ndarray
    mixed: np.ndarray
    blocks: tuple
    seed: int | None = None

    @property
    def n_points(self):
        return self.points.shape[0]

    @property
    def ambient_dim(self):
        return self.points.shape[1]

    def block_labels(self):
        return tuple(b.label for b in self.blocks)

    def block_slice(self, j):
        b = self.blocks[j]
        return slice(b.start, b.stop)


@dataclass(frozen=True, eq=False)
class Effect:
    """A dual vector evaluated against augmented state coordinates."""

    vector: np.ndarray
    label: str = ""

    def __call__(self, points):
        return np.asarray(points) @ np.asarray(self.vector, dtype=float)


def unit_effect(s):
    v = np.zeros(s.ambient_dim)
    v[0] = 1.0
    return Effect(v, "u")


def build_structure(rep, sub, reference, n_samples, rng, elements=None):
    """Sample the orbit of an H-invariant unit reference vector.

    ``reference`` is given in the rep's carrier coordinates (length
    ``rep.real_dimension``) and is normalized here.  When ``sub`` is given,
    the reference must be fixed by the subgroup's invariant projector within
    ``INVARIANCE_TOL``.  Passing ``elements`` reuses an existing stream of
    fundamental-picture group samples (paired builds, deformations).
    """
    v = np.asarray(reference, dtype=float).copy()
    if v.shape != (rep.real_dimension,):
        raise DomainError(
            f"reference has shape {v.shape}, expected ({rep.real_dimension},)"
        )
    norm = np.linalg.norm(v)
    if norm < ZERO_NORM:
        raise DomainError("reference vector is zero")
    v /= norm
    if sub is not None:
        proj = invariant_projector(rep, sub).projector
        viol = np.linalg.norm(proj @ v - v)
        if viol > INVARIANCE_TOL:
            raise DomainError(
                f"reference is not subgroup-invariant: violation norm {viol:.3e}"
            )
    seed = rng if isinstance(rng, (int, np.integer)) else None
    if elements is None:
        elements = haar_samples(rep, n_samples, ensure_rng(rng))
    orbit = act(rep, elements, v)
    points = np.concatenate([np.ones((len(orbit), 1)), orbit], axis=1)

    mixed = np.zeros(points.shape[1])
    mixed[0] = 1.0
    if rep.d == 1:  # trivial group: the orbit is a single fixed point
        mixed[1:] = v
    blocks = (Block("trivial", 0, 1),
              Block(rep.block_label, 1, points.shape[1]))
    return StructureSample(rep, sub, v, points, np.asarray(elements), mixed,
                           blocks, seed=seed)


def paired_structures(rep0, ref0, rep1, ref1, n_samples, rng, sub0=None,
                      sub1=None):
    """Two structures of the same dynamical group driven by one sample stream.

    Both reps must consume the same fundamental picture (same group and d);
    row i of both point sets then corresponds to the same group element.
    """
    if (rep0.is_unitary_group, rep0.d) != (rep1.is_unitary_group, rep1.d):
        raise DomainError(
            "paired structures need the same fundamental group: "
            f"{rep0.kind}(d={rep0.d}) vs {rep1.kind}(d={rep1.d})"
        )
    elements = haar_samples(rep0, n_samples, ensure_rng(rng))
    seed = rng if isinstance(rng, (int, np.integer)) else None
    s0 = build_structure(rep0, sub0, ref0, n_samples, seed, elements=elements)
    s1 = build_structure(rep1, sub1, ref1, n_samples, seed, elements=elements)
    return s0, s1


def transform_structure(s, g):
    """Apply one group element (fundamental picture) to every sampled point."""
    pts = s.points.copy()
    pts[:, 1:] = act(s.rep, g, s.points[:, 1:])
    elements = np.asarray(g) @ s.elements
    return replace(s, points=pts, elements=elements)


def sphere_check(s):
    """Max deviation of point radii about the mixed state from their mean."""
    if s.n_points < 1:
        raise DomainError("empty sample")
    radii = np.linalg.norm(s.points - s.mixed, axis=1)
    return float(np.max(np.abs(radii - radii.mean())))


@dataclass(frozen=True)
class EffectValidity:
    valid: bool
    min_value: float
    max_value: float


def effect_valid(s, e):
    """Check 0 <= e . point <= 1 within ``DEFAULT_TOL`` over all sampled
    points."""
    vec = np.asarray(e.vector, dtype=float)
    if vec.shape != (s.ambient_dim,):
        raise DomainError(
            f"effect has dimension {vec.shape}, sample needs ({s.ambient_dim},)"
        )
    vals = s.points @ vec
    lo, hi = float(vals.min()), float(vals.max())
    return EffectValidity(lo >= -DEFAULT_TOL and hi <= 1.0 + DEFAULT_TOL,
                          lo, hi)


def witness_effect(s, block=1, anchor=0):
    """The effect f(x) = 1/2 + <anchor, x>/2 restricted to one block.

    Block components are renormalized to unit length, which makes the effect
    valid on the whole orbit and equal to 1 at the anchor point.
    """
    sl = s.block_slice(block)
    a = s.points[anchor, sl]
    na = np.linalg.norm(a)
    if na < ZERO_NORM:
        raise DomainError("anchor point has zero component in the block")
    vec = np.zeros(s.ambient_dim)
    vec[0] = 0.5
    vec[sl] = a / (2.0 * na * na)
    return Effect(vec, f"witness[{s.blocks[block].label}@{anchor}]")


def sample_csv(s):
    """Orbit export: one row per point, block boundaries in the header."""
    blocks = " ".join(f"{b.label}={b.start}:{b.stop}" for b in s.blocks)
    lines = ["# blocks " + blocks,
             ",".join(f"c{i}" for i in range(s.ambient_dim))]
    for row in s.points:
        lines.append(",".join(f"{v:.12g}" for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# stock structures


def bloch_structure(n_samples, rng, via="su2"):
    """Qubit (spin-1) orbit: the Bloch sphere with the z axis as reference.

    ``via='su2'`` uses the SU(2) adjoint picture, ``via='so3'`` the SO(3)
    vector picture; the two embed the same structure.
    """
    if via == "su2":
        rep = su_adjoint(2)
        ref = np.array([0.0, 0.0, 1.0])
        return build_structure(rep, full_torus(), ref, n_samples, rng)
    if via == "so3":
        rep = so_fundamental(3)
        ref = np.array([0.0, 0.0, 1.0])
        return build_structure(rep, full_torus(), ref, n_samples, rng)
    raise DomainError("via must be 'su2' or 'so3'")


def spin2_structure(n_samples, rng):
    """Spin-2 orbit over the same pure states as the Bloch sphere."""
    rep = so_traceless_symmetric(3)
    ref = np.zeros(rep.real_dimension)
    ref[-1] = 1.0  # the diag(1, 1, -2)-direction, fixed by z rotations
    return build_structure(rep, full_torus(), ref, n_samples, rng)


def bloch_spin2_pair(n_samples, rng):
    """Bloch and spin-2 structures driven by one SO(3) sample stream."""
    ref3 = np.array([0.0, 0.0, 1.0])
    rep5 = so_traceless_symmetric(3)
    ref5 = np.zeros(rep5.real_dimension)
    ref5[-1] = 1.0
    return paired_structures(so_fundamental(3), ref3, rep5, ref5, n_samples,
                             rng, sub0=full_torus(), sub1=full_torus())


def deformable_reference(alpha):
    """su(3)-adjoint coordinates of diag(alpha) minus its trace part, unit norm."""
    a = np.asarray(alpha, dtype=float)
    if a.shape != (3,):
        raise DomainError("alpha must have three components")
    coords = su_adjoint(3).coordinates(np.diag(a - a.sum() / 3.0))
    norm = np.linalg.norm(coords)
    if norm < ZERO_NORM:
        raise DomainError("alpha is fully degenerate: reference vanishes")
    return coords / norm


def deformable_structure(alpha, n_samples, rng):
    """A member of the deformable SU(3)/torus family with coefficients alpha."""
    ref = deformable_reference(alpha)
    return build_structure(su_adjoint(3), full_torus(), ref, n_samples, rng)


def quartic_structure(k, n_samples, rng):
    """Rank-k projector orbit under SU(k^2) adjoint (k = 2 is the 4-level case).

    The traceless basis drops the trace part of the projector by itself.
    """
    rho = quartic_reference(k)
    rep = su_adjoint(k * k)
    return build_structure(rep, block_subgroup(k, k * k - k),
                           rep.coordinates(rho), n_samples, rng)
