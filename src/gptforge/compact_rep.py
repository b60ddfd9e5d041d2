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
costs O(d^3) per element, without forming the D x D matrix Gamma(g); a
single v shared by a stack of n elements makes g X (or g v) one 2-D product
on the (n d, d) reshape of the stack.

Haar sampling factors a whole Ginibre stack at once by d - 1 Householder
reflections applied across the batch, fixes the phases of R's diagonal, and
reads each determinant off the reflectors: (-1)^(d-1) times the product of
those phases.  A phase (SU) or a last-column flip (SO) then brings it to 1,
with no per-matrix LAPACK call.

Invariant projectors onto the H-fixed subspace come either from the exact
common kernel of the subgroup's Lie-algebra action A_a (every subgroup here
is connected: tori and unitary block subgroups), from an exact grid average
(tori), or from a Monte-Carlo average that is symmetrized, powered, and
spectrally rounded.  The average and the kernel's Gram matrix -sum_a A_a^2
are each one fundamental-side operator: :func:`rep_matrices` at mean g and
at -sum_a a^2 on the fundamental carriers, which are linear in g, and on the
conjugation carriers the d^2 x d^2 operators mean g (x) conj(g) and
X -> -sum_a [a, [a, X]], contracted with the carrier basis once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AccuracyError, DomainError
from .numerics import (IDEMPOTENCE_TOL, INVARIANCE_TOL, NULL_SPACE_RTOL,
                       PROJECTOR_SQUARINGS, UNITARY_TOL, symmetric_eigen)

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


def _phase(x):
    """x / |x| elementwise, with the phase of 0 taken as 1."""
    size = np.abs(x)
    return np.divide(x, size, out=np.ones_like(x), where=size > 0)


def _ginibre(rng, n, d, unitary):
    """n Haar samples from U(d) (``unitary``) or O(d), and their determinants.

    A Ginibre stack z = QR is factored by d - 1 Householder reflections
    H = 1 - tau u u^H applied across the whole (n, d, d) stack at once, and
    Q is multiplied by the phases (signs, for O(d)) of R's diagonal, which
    makes the sample Haar (Mezzadri, Notices AMS 54, 2007).  Each reflection
    has determinant -1, so det = (-1)^(d-1) prod_j phase(R_jj) comes off the
    reflectors without a factorisation.
    """
    z = rng.standard_normal((n, d, d))
    if unitary:
        z = (z + 1j * rng.standard_normal((n, d, d))) / np.sqrt(2.0)
    phases = np.empty((n, d), dtype=z.dtype)
    reflectors = []
    for k in range(d - 1):
        x = z[:, k:, k]
        lead, phase = np.abs(x[:, 0]), _phase(x[:, 0])
        norm = np.linalg.norm(x, axis=1)
        # LAPACK's scaling: u_0 = 1 and a real tau = 1 + |x_0| / |x| make H
        # Hermitian and unitary, with H x = R_kk e_0, R_kk = -phase(x_0) |x|
        u = x / (x[:, 0] + phase * norm)[:, None]
        u[:, 0] = 1.0
        tau_u = ((norm + lead) / norm)[:, None, None] * u[:, :, None]
        u_h = u.conj()[:, None, :]
        phases[:, k] = -phase
        rest = z[:, k:, k + 1:]
        rest -= tau_u * (u_h @ rest)
        reflectors.append((tau_u, u_h))
    phases[:, d - 1] = _phase(z[:, d - 1, d - 1])
    # Q diag(phases) = H_0 ... H_(d-2) diag(phases), applied right to left
    q = np.zeros_like(z)
    q[:, range(d), range(d)] = phases
    for k in reversed(range(d - 1)):
        tau_u, u_h = reflectors[k]
        rest = q[:, k:, k:]
        rest -= tau_u * (u_h @ rest)
    return q, (-1) ** (d - 1) * np.prod(phases, axis=1)


def _check_count(n, least):
    if n < least:
        raise DomainError(f"need n >= {least}, got {n}")


def _unit_det(q, det):
    """Rescale a batch of unitaries with determinants ``det`` by a phase into
    SU(d)."""
    return q * np.exp(-1j * np.angle(det) / q.shape[-1])[:, None, None]


def haar_samples(spec, n, rng):
    """n Haar samples from ``spec``'s group, SU(d) or SO(d), in the
    fundamental picture: Ginibre + Householder QR, phases fixed, then the
    determinant brought to 1 by a phase (SU) or by flipping the last column
    (SO)."""
    _check_count(n, 0)
    rng = np.random.default_rng(rng)
    unitary = spec.is_unitary_group
    if spec.d == 1:
        return np.ones((n, 1, 1), dtype=complex if unitary else float)
    q, det = _ginibre(rng, n, spec.d, unitary)
    if unitary:
        return _unit_det(q, det)
    q[det < 0, :, -1] *= -1.0
    return q


# ---------------------------------------------------------------------------
# the group action


def _check_unitary(u, tol):
    u = np.asarray(u)
    d = u.shape[-1]
    err = np.max(np.abs(np.swapaxes(u.conj(), -1, -2) @ u - np.eye(d)),
                 initial=0.0)
    if not err <= tol:  # a NaN entry fails too
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
        _check_unitary(g, UNITARY_TOL)
        gh = np.swapaxes(g.conj(), -1, -2)
        return spec.coordinates(_left_product(g, spec.matrix(v)) @ gh)
    if spec.kind == "so_fundamental":
        return _left_product(g, v[..., None])[..., 0]
    d = spec.d
    w = _left_product(g, (v[..., :d] + 1j * v[..., d:])[..., None])[..., 0]
    return np.concatenate([w.real, w.imag], axis=-1)


def _left_product(g, x):
    """g @ x.  One d x d or d x 1 factor x shared by every element is one
    2-D product on the (n d, d) reshape of g, not n small ones."""
    if x.ndim > 2:
        return g @ x
    return (g.reshape(-1, g.shape[-1]) @ x).reshape(g.shape[:-1]
                                                    + x.shape[-1:])


def rep_matrices(spec, elements):
    """Real orthogonal matrices Gamma(g) of ``spec`` at fundamental-picture
    elements g.  The fundamental carriers are linear in g, so the projectors
    also build Gamma(mean g) and Gamma(-sum_a a^2) over generators a."""
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
        out[:, i, i], out[:, i, j], out[:, j, i], out[:, j, j] = c, -s, s, c
    return out


def subgroup_samples(spec, sub, n, rng):
    """n elements of the subgroup, in the fundamental picture."""
    _check_count(n, 0)
    rng = np.random.default_rng(rng)
    d = spec.d
    if sub.kind == "full_torus":
        if spec.is_unitary_group:
            angles = rng.uniform(0.0, 2.0 * np.pi, size=(n, d - 1))
        else:  # drawn one plane at a time
            angles = rng.uniform(0.0, 2.0 * np.pi, size=(d // 2, n)).T
        return _torus_elements(spec, angles)
    _check_blocks(spec, sub)
    out = np.zeros((n, d, d), dtype=complex)
    det = np.ones(n, dtype=complex)
    start = 0
    for b in sub.blocks:
        # unrestricted U(b) blocks; the overall phase is fixed below
        block, block_det = _ginibre(rng, n, b, unitary=True)
        out[:, start:start + b, start:start + b] = block
        det *= block_det
        start += b
    return _unit_det(out, det)


def subgroup_lie_generators(spec, sub):
    """Fundamental-picture Lie-algebra generators spanning the subgroup."""
    d = spec.d
    if sub.kind == "full_torus":
        if spec.is_unitary_group:  # i times the diagonal Gell-Mann elements
            return list(1j * gell_mann_basis(d)[d * (d - 1):])
        gens = [np.zeros((d, d)) for _ in range(d // 2)]
        for p, a in enumerate(gens):  # one plane rotation per pair
            a[2 * p, 2 * p + 1], a[2 * p + 1, 2 * p] = -1.0, 1.0
        return gens
    _check_blocks(spec, sub)
    gens = []
    starts = np.cumsum((0,) + sub.blocks)
    for b, s in zip(sub.blocks, starts):
        for m in gell_mann_basis(b):  # none for b = 1
            g = np.zeros((d, d), dtype=complex)
            g[s:s + b, s:s + b] = 1j * m
            gens.append(g)
    # relative phases between consecutive blocks (traceless diagonal part)
    for b0, b1, s, t in zip(sub.blocks, sub.blocks[1:], starts, starts[1:]):
        g = np.zeros((d, d), dtype=complex)
        g[s:t, s:t] = 1j * np.eye(b0) / b0
        g[t:t + b1, t:t + b1] = -1j * np.eye(b1) / b1
        gens.append(g)
    return gens


def _conjugation_sum(stack):
    """sum_g g (x) conj(g): the d^2 x d^2 matrix of X -> sum_g g X g^H on
    row-major vec(X), in O(n d^4)."""
    n, d = len(stack), stack.shape[-1]
    flat = stack.reshape(n, d * d)
    # [(i, k), (j, l)] = sum g_ik conj(g_jl), reordered to [(i, j), (k, l)]
    s = (flat.T @ flat.conj()).reshape(d, d, d, d).transpose(0, 2, 1, 3)
    return s.reshape(d * d, d * d)


def _carrier_operator(spec, op):
    """1/2 Re tr(B_a op(B_b)) on a conjugation carrier for a d^2 x d^2
    operator ``op``, in O(D d^4 + D^2 d^2); tr(B_a Y) = vec(B_a^T) vec(Y)."""
    d, b = spec.d, spec.basis()
    left = np.swapaxes(b, 1, 2).reshape(len(b), d * d)
    return 0.5 * np.real(left @ op @ b.reshape(len(b), d * d).T)


def _lie_gram(spec, gens):
    """sum_a A_a^T A_a = -sum_a A_a^2 over the (antisymmetric) carrier
    actions A_a of the generators a; its null space is their common kernel.

    With C = sum_a a^2 this is Gamma(-C) on the fundamental carriers, which
    are linear in g.  On the conjugation carriers A_a X = [a, X] and a is
    anti-Hermitian, so -sum_a [a, [a, X]] = -2 sum_a a X a^H - C X - X C:
    one d^2 x d^2 operator, O(k d^4 + D d^4 + D^2 d^2) in all, with no
    D x D matrix per generator.
    """
    a = np.array(gens)
    c = (a @ a).sum(axis=0)
    if spec.kind not in _CONJUGATION:
        return rep_matrices(spec, -c)
    eye = np.eye(spec.d)
    return _carrier_operator(spec, -2.0 * _conjugation_sum(a)
                             - np.kron(c, eye) - np.kron(eye, c.T))


# ---------------------------------------------------------------------------
# invariant projectors


@dataclass(frozen=True)
class TorusGrid:
    """Exact phase-grid quadrature (tori only); n points per phase."""

    n: int = 16

    def __post_init__(self):
        _check_count(self.n, 1)


@dataclass(frozen=True)
class MonteCarlo:
    """Haar Monte-Carlo quadrature over the subgroup."""

    n: int = 2000
    seed: int = 0

    def __post_init__(self):
        _check_count(self.n, 1)


@dataclass(frozen=True, eq=False)
class InvariantProjector:
    projector: np.ndarray
    rank: int
    eigenvalues: np.ndarray  # descending; of the powered average avg^32


def _averaged_operator(spec, elements):
    """mean_g Gamma(g) over fundamental-picture elements, without an
    (n, D, D) stack: Gamma(mean g) on the fundamental carriers, which are
    linear in g, and on the conjugation carriers, where Gamma(g)_ab =
    1/2 Re tr(B_a g B_b g^H), the carrier operator of mean g (x) conj(g)."""
    g = np.asarray(elements)
    if spec.kind not in _CONJUGATION:
        return rep_matrices(spec, g.mean(axis=0))
    _check_unitary(g, UNITARY_TOL)
    return _carrier_operator(spec, _conjugation_sum(g) / len(g))


def _round_average_to_projector(avg):
    """Power an averaged rep operator toward its eigenvalue-1 projector.

    Subgroup-invariant vectors are exact fixed points of the average, so
    powering shrinks everything else; the result is then symmetrized,
    eigen-split at 1/2, and rounded to an exact orthogonal projector.
    """
    a = avg
    for _ in range(PROJECTOR_SQUARINGS):
        a = a @ a
    a = (a + a.T) / 2.0
    idem = np.max(np.abs(a @ a - a))
    if idem > IDEMPOTENCE_TOL:
        raise AccuracyError(
            f"quadrature too coarse: powered average has idempotence error "
            f"{idem:.3e} > {IDEMPOTENCE_TOL:g}; use a finer grid or more "
            "samples"
        )
    evals, evecs = symmetric_eigen(a)
    rank = int(np.sum(evals > 0.5))
    basis = evecs[:, :rank]
    return basis @ basis.T, rank, evals


def invariant_projector(spec, sub, quadrature=None):
    """Orthogonal projector onto the subspace fixed by the subgroup.

    ``quadrature=None`` takes the exact structural route: the common kernel
    of the subgroup's Lie-algebra action.  :class:`TorusGrid` and
    :class:`MonteCarlo` force the corresponding numerical averages; the
    reported eigenvalues are those of the powered average avg^32 (the average
    squared ``PROJECTOR_SQUARINGS`` times), and rank is the number of them
    above 1/2.

    Raises :class:`AccuracyError` when the requested quadrature is too coarse:
    the powered average is off idempotent by more than ``IDEMPOTENCE_TOL``,
    or the rounded projector drifts by more than ``INVARIANCE_TOL`` under
    fresh subgroup samples.
    """
    dim = spec.real_dimension

    if quadrature is None:
        gens = subgroup_lie_generators(spec, sub)
        if not gens:  # trivial connected subgroup: everything is fixed
            return InvariantProjector(np.eye(dim), dim, np.ones(dim))
        # the common kernel is the null space of sum A^T A
        w, v = np.linalg.eigh(_lie_gram(spec, gens))
        null = v[:, w <= NULL_SPACE_RTOL * max(w[-1], 1.0)]
        rank = null.shape[1]
        return InvariantProjector(null @ null.T, rank,
                                  (np.arange(dim) < rank).astype(float))

    if isinstance(quadrature, TorusGrid):
        if sub.kind != "full_torus":
            raise DomainError("torus_grid quadrature needs a torus subgroup")
        axes = spec.d - 1 if spec.is_unitary_group else spec.d // 2
        n = quadrature.n
        ticks = np.indices((n,) * axes).reshape(axes, n ** axes).T
        elements = _torus_elements(spec, 2.0 * np.pi * ticks / n)
    elif isinstance(quadrature, MonteCarlo):
        elements = subgroup_samples(spec, sub, quadrature.n, quadrature.seed)
    else:
        raise DomainError(f"unknown quadrature {quadrature!r}")

    avg = _averaged_operator(spec, elements)
    # averaging h and h^-1 together keeps the operator symmetric
    avg = (avg + avg.T) / 2.0
    proj, rank, evals = _round_average_to_projector(avg)

    # fresh samples from a spawned stream, which no integer seed reproduces,
    # so never a MonteCarlo quadrature's own elements
    fresh = np.random.SeedSequence(1, spawn_key=(0,))
    check = rep_matrices(spec, subgroup_samples(spec, sub, 8, fresh))
    drift = np.max(np.abs(check @ proj - proj))
    if drift > INVARIANCE_TOL:
        raise AccuracyError(
            f"projector not invariant under fresh subgroup samples "
            f"(drift {drift:.3e} > {INVARIANCE_TOL:g}); refine the quadrature"
        )
    return InvariantProjector(proj, rank, evals)
