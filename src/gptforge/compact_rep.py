"""Compact groups acting on real carrier spaces, through one kernel.

Supported carriers:

* ``su_fundamental(d)``  - C^d viewed as a real 2d-dimensional space,
* ``su_adjoint(d)``      - traceless Hermitian d x d matrices in a
  generalized Gell-Mann basis with tr(T_a T_b) = 2 delta_ab,
* ``so_fundamental(d)``  - R^d,
* ``so_traceless_symmetric(d)`` - traceless symmetric d x d real matrices
  under X -> R X R^T (for d = 3 this is the spin-2 carrier).

Group elements are always held in the fundamental picture (d x d unitary or
orthogonal matrices).  :func:`act` applies them to carrier vectors directly:
the two conjugation carriers map coordinates v to X = sum_a v_a B_a
(:meth:`CompactRepSpec.matrix`), conjugate X -> g X g^H and read the result
back as 1/2 Re tr(B_a X) (:meth:`CompactRepSpec.coordinates`); the two
fundamental carriers multiply v by g.  An orbit point Gamma(g) v therefore
costs O(d^3) per element, without forming the D x D matrix Gamma(g).
:func:`rep_matrices` is the same kernel applied to the identity, for the
few callers that need Gamma(g) itself (Monte-Carlo and grid averages).

Haar sampling is Ginibre + QR with the R-diagonal phase fixed, then
det-normalized into SU(d) / SO(d).  Invariant projectors onto the
H-fixed subspace come either from the exact common kernel of the subgroup's
Lie-algebra action (every subgroup here is connected: tori and unitary block
subgroups), from an exact grid average (tori), or from a Monte-Carlo average
that is symmetrized, powered, and spectrally rounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AccuracyError, DomainError
from .numerics import INVARIANCE_TOL, symmetric_eigen

# ---------------------------------------------------------------------------
# rng plumbing


def ensure_rng(rng):
    """Accept an integer seed or a Generator; default stream is PCG64."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


# ---------------------------------------------------------------------------
# carrier bases


@lru_cache(maxsize=None)
def gell_mann_basis(d):
    """Generalized Gell-Mann matrices for su(d), tr(T_a T_b) = 2 delta_ab.

    Ordering: for each index pair j < k the symmetric then the antisymmetric
    element, followed by the d - 1 diagonal elements.  Keeping the diagonal
    (weight-zero) elements last makes torus projectors block out cleanly.
    """
    mats = []
    for j in range(d):
        for k in range(j + 1, d):
            s = np.zeros((d, d), dtype=complex)
            s[j, k] = s[k, j] = 1.0
            mats.append(s)
            a = np.zeros((d, d), dtype=complex)
            a[j, k] = -1.0j
            a[k, j] = 1.0j
            mats.append(a)
    for l in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        m[:l, :l] = np.eye(l)
        m[l, l] = -l
        mats.append(m * np.sqrt(2.0 / (l * (l + 1))))
    return np.array(mats)


@lru_cache(maxsize=None)
def symmetric_traceless_basis(d):
    """Real symmetric traceless basis with tr(B_a B_b) = 2 delta_ab: the real
    rows of :func:`gell_mann_basis` (all but the antisymmetric ones), in the
    same order."""
    antisymmetric = range(1, d * (d - 1), 2)
    rows = np.delete(gell_mann_basis(d), antisymmetric, axis=0)
    return np.ascontiguousarray(rows.real)


_KINDS = ("su_fundamental", "su_adjoint", "so_fundamental",
          "so_traceless_symmetric")


@dataclass(frozen=True)
class CompactRepSpec:
    """A concrete real representation of SU(d) or SO(d)."""

    kind: str
    d: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown rep kind {self.kind!r}")
        if self.d < 1:
            raise DomainError("d must be >= 1")

    @property
    def is_unitary_group(self):
        return self.kind.startswith("su_")

    @property
    def real_dimension(self):
        d = self.d
        if self.kind == "su_fundamental":
            return 2 * d
        if self.kind == "su_adjoint":
            return d * d - 1
        if self.kind == "so_fundamental":
            return d
        return d * (d + 1) // 2 - 1

    @property
    def block_label(self):
        """Canonical name of the (real) irrep carried, for absence checks.

        SU(2)-adjoint and SO(3)-vector are the same spin-1 irrep and share a
        label; SO(3) symmetric-traceless is spin-2.
        """
        d = self.d
        if self.kind == "su_adjoint":
            return "su2:spin1" if d == 2 else f"su{d}:adjoint"
        if self.kind == "so_fundamental":
            return "su2:spin1" if d == 3 else f"so{d}:vector"
        if self.kind == "so_traceless_symmetric":
            return "su2:spin2" if d == 3 else f"so{d}:sym2"
        return f"su{d}:fund_real"

    def basis(self):
        if self.kind == "su_adjoint":
            return gell_mann_basis(self.d)
        if self.kind == "so_traceless_symmetric":
            return symmetric_traceless_basis(self.d)
        raise DomainError(f"{self.kind} carrier uses the coordinate basis")

    def matrix(self, v):
        """The d x d matrix sum_a v_a B_a of carrier coordinates (batched)."""
        return np.tensordot(np.asarray(v, dtype=float), self.basis(), axes=1)

    def coordinates(self, m):
        """Carrier coordinates 1/2 Re tr(B_a m) of d x d matrices (batched)."""
        return 0.5 * np.real(np.tensordot(m, self.basis(),
                                          axes=([-1, -2], [1, 2])))


def su_adjoint(d):
    return CompactRepSpec("su_adjoint", d)


def so_fundamental(d):
    return CompactRepSpec("so_fundamental", d)


def so_traceless_symmetric(d):
    return CompactRepSpec("so_traceless_symmetric", d)


def su_fundamental(d):
    return CompactRepSpec("su_fundamental", d)


# ---------------------------------------------------------------------------
# Haar sampling


def _ginibre(rng, n, d, unitary):
    """n Haar samples from U(d) (``unitary``) or O(d): Ginibre + QR with the
    R-diagonal phase (the sign, for O(d)) fixed."""
    z = rng.standard_normal((n, d, d))
    if unitary:
        z = (z + 1j * rng.standard_normal((n, d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.einsum("nii->ni", r)
    return q * (diag / np.abs(diag))[:, None, :]


def _unit_det(q):
    """Rescale a batch of unitaries by a phase into SU(d)."""
    det = np.linalg.det(q)
    return q * np.exp(-1j * np.angle(det) / q.shape[-1])[:, None, None]


def haar_samples(spec, n, rng):
    """n Haar samples from ``spec``'s group, SU(d) or SO(d), in the
    fundamental picture: Ginibre + QR, phases fixed, then the determinant
    brought to 1 by a phase (SU) or by flipping the last column (SO)."""
    rng = ensure_rng(rng)
    unitary = spec.is_unitary_group
    if spec.d == 1:
        return np.ones((n, 1, 1), dtype=complex if unitary else float)
    q = _ginibre(rng, n, spec.d, unitary)
    if unitary:
        return _unit_det(q)
    q[np.linalg.det(q) < 0, :, -1] *= -1.0
    return q


# ---------------------------------------------------------------------------
# the group action


def _check_unitary(u, tol):
    u = np.asarray(u)
    d = u.shape[-1]
    err = np.max(np.abs(np.swapaxes(u.conj(), -1, -2) @ u - np.eye(d)))
    if err > tol:
        raise DomainError(f"matrix is not unitary within {tol:g} (error {err:.3e})")


_CONJUGATION = ("su_adjoint", "so_traceless_symmetric")


def act(spec, elements, vectors):
    """Gamma(g) v for fundamental-picture elements g and carrier vectors v.

    ``elements`` is one d x d matrix or a batch (n, d, d); ``vectors`` is one
    carrier vector (D,) or a batch (m, D), and a batch is acted on by every
    element.  The result has shape ([n,] [m,] D).  Conjugation carriers
    compute g X g^H on X = sum_a v_a B_a and require unitary g; the
    fundamental carriers compute g v (through v_re + i v_im for
    ``su_fundamental``), which is linear in g.
    """
    g = np.asarray(elements, dtype=complex if spec.is_unitary_group else float)
    v = np.asarray(vectors, dtype=float)
    if v.ndim == 2:
        g = g[..., None, :, :]
    if spec.kind in _CONJUGATION:
        _check_unitary(g, 1e-10)
        gh = np.swapaxes(g.conj(), -1, -2)
        return spec.coordinates(g @ spec.matrix(v) @ gh)
    if spec.kind == "so_fundamental":
        return (g @ v[..., None])[..., 0]
    d = spec.d
    w = (g @ (v[..., :d] + 1j * v[..., d:])[..., None])[..., 0]
    return np.concatenate([w.real, w.imag], axis=-1)


def rep_matrices(spec, elements):
    """Real orthogonal matrices of ``spec`` at fundamental-picture elements."""
    columns = act(spec, elements, np.eye(spec.real_dimension))
    return np.swapaxes(columns, -1, -2)


# ---------------------------------------------------------------------------
# subgroups


@dataclass(frozen=True, eq=False)
class SubgroupSpec:
    """A sampling description of a closed connected subgroup in the
    fundamental picture.

    kinds: ``full_torus`` (maximal torus) and ``block_su_u1`` (block-diagonal
    unitaries with overall determinant 1, block sizes in ``blocks``).
    """

    kind: str
    blocks: tuple | None = None

    def __post_init__(self):
        if self.kind not in ("full_torus", "block_su_u1"):
            raise DomainError(f"unknown subgroup kind {self.kind!r}")
        if self.kind == "block_su_u1" and not self.blocks:
            raise DomainError("block_su_u1 needs block sizes")


def full_torus():
    return SubgroupSpec("full_torus")


def block_subgroup(*blocks):
    return SubgroupSpec("block_su_u1", blocks=tuple(int(b) for b in blocks))


def _check_blocks(spec, sub):
    if not spec.is_unitary_group:
        raise DomainError("block_su_u1 subgroups live in SU(d)")
    if sum(sub.blocks) != spec.d:
        raise DomainError(
            f"block sizes {sub.blocks} do not sum to d = {spec.d}"
        )


def _torus_elements(spec, angles):
    """Maximal-torus elements at angles of shape (n, axes).

    SU(d), d - 1 axes: diag(exp(i phi)) with a last phase closing the
    determinant to 1; SO(d), d // 2 axes: one plane rotation per consecutive
    coordinate pair.
    """
    d = spec.d
    if spec.is_unitary_group:
        full = np.concatenate([angles, -angles.sum(axis=1, keepdims=True)],
                              axis=1)
        out = np.zeros((len(full), d, d), dtype=complex)
        ii = np.arange(d)
        out[:, ii, ii] = np.exp(1j * full)
        return out
    out = np.tile(np.eye(d), (len(angles), 1, 1))
    for p in range(d // 2):
        c, s = np.cos(angles[:, p]), np.sin(angles[:, p])
        i, j = 2 * p, 2 * p + 1
        out[:, i, i] = c
        out[:, i, j] = -s
        out[:, j, i] = s
        out[:, j, j] = c
    return out


def subgroup_samples(spec, sub, n, rng):
    """n elements of the subgroup, in the fundamental picture."""
    rng = ensure_rng(rng)
    d = spec.d
    if sub.kind == "full_torus":
        if spec.is_unitary_group:
            angles = rng.uniform(0.0, 2.0 * np.pi, size=(n, d - 1))
        else:  # drawn one plane at a time
            angles = rng.uniform(0.0, 2.0 * np.pi, size=(d // 2, n)).T
        return _torus_elements(spec, angles)
    _check_blocks(spec, sub)
    out = np.zeros((n, d, d), dtype=complex)
    start = 0
    for b in sub.blocks:
        # unrestricted U(b) blocks; the overall phase is fixed below
        block = _ginibre(rng, n, b, unitary=True)
        out[:, start:start + b, start:start + b] = block
        start += b
    return _unit_det(out)


def subgroup_lie_generators(spec, sub):
    """Fundamental-picture Lie-algebra generators spanning the subgroup."""
    d = spec.d
    gens = []
    if sub.kind == "full_torus":
        if spec.is_unitary_group:
            for m in gell_mann_basis(d)[-(d - 1):] if d > 1 else []:
                gens.append(1j * m)
        else:
            for p in range(d // 2):
                a = np.zeros((d, d))
                a[2 * p, 2 * p + 1] = -1.0
                a[2 * p + 1, 2 * p] = 1.0
                gens.append(a)
        return gens
    _check_blocks(spec, sub)
    start = 0
    for b in sub.blocks:
        if b > 1:
            for m in gell_mann_basis(b):
                g = np.zeros((d, d), dtype=complex)
                g[start:start + b, start:start + b] = 1j * m
                gens.append(g)
        start += b
    # relative phases between consecutive blocks (traceless diagonal part)
    starts = np.cumsum((0,) + sub.blocks)
    for i in range(len(sub.blocks) - 1):
        g = np.zeros((d, d), dtype=complex)
        b0 = slice(starts[i], starts[i + 1])
        b1 = slice(starts[i + 1], starts[i + 2])
        g[b0, b0] = 1j * np.eye(sub.blocks[i]) / sub.blocks[i]
        g[b1, b1] = -1j * np.eye(sub.blocks[i + 1]) / sub.blocks[i + 1]
        gens.append(g)
    return gens


def _generator_action(spec, a):
    """Matrix of the rep's Lie-algebra action for fundamental generator a.

    Conjugation carriers differentiate g X g^H into the commutator a X - X a;
    the fundamental carriers are linear in g, so ``act`` applies a as is.
    """
    if spec.kind in _CONJUGATION:
        b = spec.basis()
        return spec.coordinates(a @ b - b @ a).T
    return act(spec, a, np.eye(spec.real_dimension)).T


# ---------------------------------------------------------------------------
# invariant projectors


@dataclass(frozen=True)
class TorusGrid:
    """Exact phase-grid quadrature (tori only); n points per phase."""

    n: int = 16


@dataclass(frozen=True)
class MonteCarlo:
    """Haar Monte-Carlo quadrature over the subgroup."""

    n: int = 2000
    seed: int = 0


@dataclass(frozen=True, eq=False)
class InvariantProjector:
    projector: np.ndarray
    rank: int
    eigenvalues: np.ndarray  # of the averaged operator, descending


def _round_average_to_projector(avg, n_power=5):
    """Power an averaged rep operator toward its eigenvalue-1 projector.

    Subgroup-invariant vectors are exact fixed points of the average, so
    powering shrinks everything else; the result is then symmetrized,
    eigen-split at 1/2, and rounded to an exact orthogonal projector.
    """
    a = avg
    for _ in range(n_power):
        a = a @ a
    a = (a + a.T) / 2.0
    idem = np.max(np.abs(a @ a - a))
    if idem > 1e-4:
        raise AccuracyError(
            f"quadrature too coarse: powered average has idempotence error "
            f"{idem:.3e} > 1e-4; use a finer grid or more samples"
        )
    evals, evecs = symmetric_eigen(a)
    rank = int(np.sum(evals > 0.5))
    basis = evecs[:, :rank]
    return basis @ basis.T, rank, evals


def invariant_projector(spec, sub, quadrature=None):
    """Orthogonal projector onto the subspace fixed by the subgroup.

    ``quadrature=None`` takes the exact structural route: the common kernel
    of the subgroup's Lie-algebra action.  :class:`TorusGrid` and
    :class:`MonteCarlo` force the corresponding numerical averages; rank is
    the number of averaged eigenvalues above 1/2.

    Raises :class:`AccuracyError` when the requested quadrature is too coarse:
    the powered average is off idempotent by more than 1e-4, or the rounded
    projector drifts by more than ``INVARIANCE_TOL`` under fresh subgroup
    samples.
    """
    dim = spec.real_dimension

    if quadrature is None:
        gens = subgroup_lie_generators(spec, sub)
        if not gens:  # trivial connected subgroup: everything is fixed
            return InvariantProjector(np.eye(dim), dim, np.ones(dim))
        # the common kernel is the null space of sum A^T A, built in O(D^2)
        gram = sum(m.T @ m for m in (_generator_action(spec, a) for a in gens))
        w, v = np.linalg.eigh(gram)
        null = v[:, w <= 1e-9 * max(w[-1], 1.0)]
        proj = null @ null.T
        evals = np.concatenate([np.ones(null.shape[1]),
                                np.zeros(dim - null.shape[1])])
        return InvariantProjector(proj, null.shape[1], evals)

    if isinstance(quadrature, TorusGrid):
        if sub.kind != "full_torus":
            raise DomainError("torus_grid quadrature needs a torus subgroup")
        axes = spec.d - 1 if spec.is_unitary_group else spec.d // 2
        ticks = 2.0 * np.pi * np.arange(quadrature.n) / quadrature.n
        grids = np.meshgrid(*[ticks] * axes, indexing="ij")
        angles = np.stack([g.ravel() for g in grids], axis=1)
        elements = _torus_elements(spec, angles)
    elif isinstance(quadrature, MonteCarlo):
        elements = subgroup_samples(spec, sub, quadrature.n,
                                    ensure_rng(quadrature.seed))
    else:
        raise DomainError(f"unknown quadrature {quadrature!r}")

    gammas = rep_matrices(spec, elements)
    avg = gammas.mean(axis=0)
    # averaging h and h^-1 together keeps the operator symmetric
    avg = (avg + avg.T) / 2.0
    proj, rank, evals = _round_average_to_projector(avg)

    check = rep_matrices(spec, subgroup_samples(spec, sub, 8, ensure_rng(1)))
    drift = np.max(np.abs(check @ proj - proj))
    if drift > INVARIANCE_TOL:
        raise AccuracyError(
            f"projector not invariant under fresh subgroup samples "
            f"(drift {drift:.3e} > {INVARIANCE_TOL:g}); refine the quadrature"
        )
    return InvariantProjector(proj, rank, evals)


@dataclass(frozen=True)
class WitnessResult:
    consistent: bool
    rank: int


def is_gelfand_witness(spec, sub, quadrature=None):
    """Check an irreducible rep for a >= 2-dimensional H-fixed subspace.

    The caller asserts irreducibility (true for SU(d) adjoint, d >= 2).  A
    fixed subspace of rank >= 2 witnesses that (G, H) is not a Gelfand pair.
    """
    result = invariant_projector(spec, sub, quadrature=quadrature)
    return WitnessResult(result.rank < 2, result.rank)
