"""Embedded state spaces: group orbits of subgroup-invariant reference vectors.

A structure sample holds a seeded Monte-Carlo picture of one probabilistic
structure: the augmented orbit of one irrep carrier, that is the orbit points
Gamma(g_i) v prefixed with an explicit leading coordinate fixed to 1 (the
unit-effect / normalization component), and the maximally mixed state.  This
module builds that layout: ``orbit_points`` builds augmented points and
``Effect.affine`` builds effects on them; elsewhere only ``deformation``'s
``deform``, ``schur_average_check`` and ``_force_valid`` index column 0.
Orthogonality of the group action puts every orbit on a hypersphere around
the mixed state, which is the basic consistency check exposed here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classification import quartic_reference
from .compact_rep import (
    CompactRepSpec,
    act,
    block_subgroup,
    full_torus,
    haar_samples,
    invariant_projector,
    so_fundamental,
    so_traceless_symmetric,
    su_adjoint,
)
from .errors import DomainError
from .numerics import INVARIANCE_TOL, ZERO_NORM, check_int


@dataclass(frozen=True, eq=False)
class StructureSample:
    """A seeded orbit sample of one probabilistic structure.

    ``points`` has shape (n, 1 + D): column 0 is identically 1 (the trivial
    block) and columns 1..D carry the irrep ``rep``; rows are the embedded
    pure states.  ``elements`` keeps the fundamental-picture group samples:
    deformations reuse them, and two samples built on one fundamental group
    from one integer seed share them, which makes the samples point-aligned.
    """

    rep: CompactRepSpec
    subgroup: object
    reference: np.ndarray
    points: np.ndarray
    elements: np.ndarray

    @property
    def mixed(self):
        """The maximally mixed state: the trivial group fixes its single
        orbit point; otherwise the carrier part vanishes."""
        v = self.reference
        return np.concatenate([[1.0], v if self.rep.d == 1 else
                               np.zeros_like(v)])

    @property
    def n_points(self):
        return self.points.shape[0]

    @property
    def ambient_dim(self):
        return self.points.shape[1]

    @property
    def label(self):
        """The label of the irrep the orbit carries."""
        return self.rep.block_label


@dataclass(frozen=True, eq=False)
class Effect:
    """A dual vector evaluated against augmented state coordinates."""

    vector: np.ndarray
    label: str = ""

    @classmethod
    def affine(cls, c0, w, label=""):
        """The effect x -> c0 + <w, x> on augmented points (1, x)."""
        return cls(np.concatenate([[c0], w]), label)


def unit_effect(s):
    return Effect.affine(1.0, np.zeros(s.ambient_dim - 1), "u")


def orbit_points(rep, elements, v):
    """Augmented orbit rows (1, Gamma(g) v): ``act`` with a leading 1 per row."""
    orbit = act(rep, elements, v)
    return np.concatenate([np.ones((len(orbit), 1)), orbit], axis=1)


def build_structure(rep, sub, reference, n_samples, rng):
    """Sample the orbit of an H-invariant unit reference vector.

    ``reference``, in the rep's carrier coordinates (length
    ``rep.real_dimension``), may have any nonzero scale: it is normalized
    here.  When ``sub`` is given, it must be fixed by the subgroup's
    invariant projector within ``INVARIANCE_TOL``.  ``n_samples`` must be at
    least 1, and ``rng`` a numpy ``Generator`` or a non-negative integer
    seed.
    """
    n_samples = check_int(n_samples, "n_samples", 1)
    if not isinstance(rng, np.random.Generator):
        rng = check_int(rng, "seed", 0)
    v = np.asarray(reference, dtype=float)
    if v.shape != (rep.real_dimension,):
        raise DomainError(
            f"reference has shape {v.shape}, expected ({rep.real_dimension},)"
        )
    if not np.all(np.isfinite(v)):
        raise DomainError("reference has non-finite entries")
    if not np.any(v):
        raise DomainError("reference vector is zero")
    v = _prescale(v)
    v /= np.linalg.norm(v)
    if sub is not None:
        proj = invariant_projector(rep, sub).projector
        viol = np.linalg.norm(proj @ v - v)
        if not viol <= INVARIANCE_TOL:
            raise DomainError(
                f"reference is not subgroup-invariant: violation norm {viol:.3e}"
            )
    elements = haar_samples(rep, n_samples, rng)
    return StructureSample(rep, sub, v, orbit_points(rep, elements, v),
                           elements)


def _prescale(v):
    """``v`` times the power of two that puts max |v_i| in [1/2, 1): an
    exact scaling, whose norm can neither overflow nor underflow."""
    return np.ldexp(v, -np.frexp(np.max(np.abs(v)))[1])


def sphere_check(s):
    """Max deviation of point radii about the mixed state from their mean."""
    if s.n_points < 1:
        raise DomainError("empty sample")
    radii = np.linalg.norm(s.points - s.mixed, axis=1)
    return float(np.max(np.abs(radii - radii.mean())))


def witness_effect(s, anchor=0):
    """The effect f(x) = 1/2 + <a, x>/2 with a the anchor point's carrier part.

    The carrier part is renormalized to unit length, which makes the effect
    valid on the whole orbit and equal to 1 at the anchor point.
    """
    return _witness(s.points[anchor, 1:], f"witness[{s.label}@{anchor}]")


def _witness(a, label):
    """The effect 1/2 + <a, x> / (2 |a|^2), equal to 1 at the carrier point a
    and valid on its orbit."""
    na = np.linalg.norm(a)
    if na < ZERO_NORM:
        raise DomainError("anchor point has zero component in the carrier")
    return Effect.affine(0.5, a / (2.0 * na * na), label)


# ---------------------------------------------------------------------------
# stock structures


# references fixed by z rotations: the z axis (spin 1) and the
# diag(1, 1, -2) direction of the traceless symmetric carrier (spin 2)
_SPIN1_REFERENCE = np.array([0.0, 0.0, 1.0])
_SPIN2_REFERENCE = np.array([0.0, 0.0, 0.0, 0.0, 1.0])


def bloch_structure(n_samples, rng, via="su2"):
    """Qubit (spin-1) orbit: the Bloch sphere with the z axis as reference.

    ``via='su2'`` uses the SU(2) adjoint picture, ``via='so3'`` the SO(3)
    vector picture; the two embed the same structure.
    """
    if via not in ("su2", "so3"):
        raise DomainError("via must be 'su2' or 'so3'")
    rep = su_adjoint(2) if via == "su2" else so_fundamental(3)
    return build_structure(rep, full_torus(), _SPIN1_REFERENCE, n_samples, rng)


def spin2_structure(n_samples, rng):
    """Spin-2 orbit over the same pure states as the Bloch sphere."""
    return build_structure(so_traceless_symmetric(3), full_torus(),
                           _SPIN2_REFERENCE, n_samples, rng)


def deformable_reference(alpha):
    """su(3)-adjoint coordinates of diag(alpha) minus its trace part, unit norm."""
    a = np.asarray(alpha, dtype=float)
    if a.shape != (3,) or not np.all(np.isfinite(a)):
        raise DomainError("alpha must have three finite components")
    a = _prescale(a)
    coords = su_adjoint(3).coordinates(np.diag(a - a.sum() / 3.0))
    norm = np.linalg.norm(coords)
    # zero up to the rounding error of a - sum(a) / 3, a few eps max |a_i|
    if norm <= 8 * np.finfo(float).eps * np.max(np.abs(a)):
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
