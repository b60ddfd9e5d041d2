"""Finite permutation groups, character tables, and the Gelfand-pair decision.

Groups are stored as fully enumerated lists of permutations (orders here stay
small, so indexing beats abstraction).  Character tables come from Burnside's
class-algebra method: the class-sum matrices commute, and a random real linear
combination of them separates the common eigenvectors, which after
normalization are exactly the columns of the table.

The key derived quantities are the multiplicity of the trivial representation
in a restriction to a subgroup (a plain character average over the subgroup),
the Frobenius-Schur indicator (average of the character over squares), and the
enumeration of multiplicity-free direct sums of spherical irreps under a
dimension cap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericalConsistencyError, ResourceError
from .numerics import DEFAULT_TOL, round_to_int

DEFAULT_ORDER_CAP = 10_000

# ---------------------------------------------------------------------------
# permutations


def compose(p, q):
    """(p o q)(i) = p(q(i)); both are tuples of images."""
    return tuple(p[q[i]] for i in range(len(p)))


def inverse(p):
    inv = [0] * len(p)
    for i, pi in enumerate(p):
        inv[pi] = i
    return tuple(inv)


def cycles_to_perm(degree, cycles):
    """Build a permutation from a list of cycles (each a list of indices)."""
    images = list(range(degree))
    seen = set()
    for cyc in cycles:
        for a in cyc:
            if not (0 <= a < degree):
                raise DomainError(f"cycle index {a} out of range for degree {degree}")
            if a in seen:
                raise DomainError(f"index {a} repeated across cycles")
            seen.add(a)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a] = b
    return tuple(images)


def _check_perm(p, degree):
    if len(p) != degree or sorted(p) != list(range(degree)):
        raise DomainError(f"not a permutation of 0..{degree - 1}: {p}")


# ---------------------------------------------------------------------------
# groups


def _closure(seeds, steps):
    """Yield the seeds, then each new point the maps in ``steps`` reach:
    breadth-first, each point once, lazily so that a caller can stop early."""
    queue = list(dict.fromkeys(seeds))
    seen = set(queue)
    yield from queue
    for p in queue:  # the queue grows while it is read
        for step in steps:
            q = step(p)
            if q not in seen:
                seen.add(q)
                queue.append(q)
                yield q


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A fully enumerated permutation group.

    ``elements[0]`` is the identity.  ``index`` maps a permutation tuple back
    to its position, which makes composition and inversion table lookups.
    ``generators`` holds the element indices of the generating set.
    """

    degree: int
    elements: tuple
    index: dict = field(repr=False)
    inverses: tuple = field(repr=False)
    generators: tuple = field(repr=False)

    @property
    def order(self):
        return len(self.elements)

    def compose(self, i, j):
        return self.index[compose(self.elements[i], self.elements[j])]

    def inverse(self, i):
        return self.inverses[i]

    def __iter__(self):
        return iter(range(self.order))


def generate_group(generators, degree=None, max_order=DEFAULT_ORDER_CAP):
    """Close a generator list under composition (breadth-first, deterministic).

    ``degree`` is only needed when ``generators`` is empty (the trivial
    group).  Raises :class:`ResourceError` once the closure exceeds
    ``max_order``.
    """
    gens = [tuple(g) for g in generators]
    if gens:
        degs = {len(g) for g in gens}
        if len(degs) != 1:
            raise DomainError(f"generators have mixed degrees {sorted(degs)}")
        degree = degs.pop()
        for g in gens:
            _check_perm(g, degree)
    elif degree is None:
        degree = 1
    if max_order < 1:
        raise DomainError("max_order must be at least 1")

    steps = [lambda p, g=g: compose(p, g) for g in gens]
    elems = tuple(itertools.islice(_closure([tuple(range(degree))], steps),
                                   max_order + 1))  # stop before a huge group
    if len(elems) > max_order:
        raise ResourceError(f"group order exceeds max_order = {max_order}")
    index = {p: i for i, p in enumerate(elems)}
    inv = tuple(index[inverse(p)] for p in elems)
    return FiniteGroup(degree, elems, index, inv, tuple(index[g] for g in gens))


@dataclass(frozen=True, eq=False)
class Subgroup:
    """Member indices of a subgroup inside a parent group: distinct, with the
    identity, closed under composition (so, being finite, under inverses)."""

    parent: FiniteGroup
    members: tuple

    @property
    def order(self):
        return len(self.members)

    def __post_init__(self):
        g = self.parent
        mem = set(self.members)
        if len(mem) != len(self.members) or not {0} <= mem <= set(range(g.order)):
            raise DomainError("subgroup members must be distinct element indices "
                              f"in 0..{g.order - 1}, the identity 0 among them")
        span, steps = {0}, []  # the span at least doubles with each step
        for i in self.members:
            if i not in span:
                steps.append(lambda x, i=i: g.compose(x, i))
                grown = set()
                for x in _closure(span, steps):
                    if x not in mem:
                        raise DomainError("subgroup not closed under composition")
                    grown.add(x)
                span = grown


def subgroup_from_generators(group, generators):
    """Subgroup of ``group`` generated by permutations (or element indices)."""
    idxs = []
    for g in generators:
        if isinstance(g, int):
            idxs.append(g)
        else:
            p = tuple(g)
            if p not in group.index:
                raise DomainError(f"generator {p} is not an element of the group")
            idxs.append(group.index[p])
    steps = [lambda i, j=j: group.compose(i, j) for j in idxs]
    return Subgroup(group, tuple(sorted(_closure([0], steps))))


def trivial_subgroup(group):
    return Subgroup(group, (0,))


def full_subgroup(group):
    return Subgroup(group, tuple(range(group.order)))


# common concrete groups ----------------------------------------------------


def cyclic_group(n):
    if n < 1:
        raise DomainError("n must be >= 1")
    return generate_group([tuple(list(range(1, n)) + [0])])


def symmetric_group(n):
    if n < 1:
        raise DomainError("n must be >= 1")
    swap = list(range(n))
    swap[:2] = swap[1::-1]  # the identity when n = 1
    cycle = list(range(1, n)) + [0]
    return generate_group([tuple(swap), tuple(cycle)])


def dihedral_group(n):
    """Symmetries of the regular n-gon, acting on its n vertices."""
    if n < 3:
        raise DomainError("n must be >= 3")
    rot = tuple(list(range(1, n)) + [0])
    ref = tuple((n - i) % n for i in range(n))
    return generate_group([rot, ref])


_QUAT_TABLE = {  # (a, b) -> (sign, letter) for letters 1=0, i=1, j=2, k=3
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
    (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
}


def quaternion_group():
    """The order-8 quaternion group in its regular action on 8 points.

    Points are (sign, letter) pairs encoded as letter + 4 * (sign < 0); the
    generators are right multiplication by i and by j.
    """

    def enc(sign, letter):
        return letter + (4 if sign < 0 else 0)

    def mul(x, y):
        sx, lx = (1 if x < 4 else -1), x % 4
        sy, ly = (1 if y < 4 else -1), y % 4
        s, l = _QUAT_TABLE[(lx, ly)]
        return enc(sx * sy * s, l)

    right_i = tuple(mul(x, enc(1, 1)) for x in range(8))
    right_j = tuple(mul(x, enc(1, 2)) for x in range(8))
    return generate_group([right_i, right_j])


# ---------------------------------------------------------------------------
# conjugacy classes and the character table


def conjugacy_classes(group):
    """Classes in deterministic order (identity class first).

    Returns (classes, class_of) where classes is a tuple of index tuples and
    class_of maps an element index to its class index.  A class is closed
    under conjugation by the generators alone.
    """
    n = group.order
    class_of = np.full(n, -1, dtype=int)
    classes = []
    c, inv = group.compose, group.inverse
    steps = [lambda x, g=g: c(c(g, x), inv(g)) for g in group.generators]
    for i in range(n):
        if class_of[i] < 0:
            orbit = sorted(_closure([i], steps))
            class_of[orbit] = len(classes)
            classes.append(tuple(orbit))
    return tuple(classes), class_of


@dataclass(frozen=True, eq=False)
class CharacterTable:
    group: FiniteGroup
    classes: tuple
    class_of: np.ndarray = field(repr=False)
    chars: np.ndarray = field(repr=False)  # (n_irreps, n_classes) complex

    @property
    def n_irreps(self):
        return self.chars.shape[0]

    @property
    def class_sizes(self):
        return tuple(len(c) for c in self.classes)

    @property
    def dims(self):
        ident_class = self.class_of[0]
        return tuple(round_to_int(v, what="irrep dimension")
                     for v in self.chars[:, ident_class].real)

    def value(self, irrep, element):
        """Character value of ``irrep`` at group element index ``element``."""
        return self.chars[irrep, self.class_of[element]]


def _class_constant_matrices(group, classes, class_of):
    """a[i][j, l] = #{x in class i : x^-1 z_l in class j} for representatives z_l."""
    k = len(classes)
    mats = np.zeros((k, k, k))
    reps = [c[0] for c in classes]
    for l, z in enumerate(reps):
        for x in group:
            y = group.compose(group.inverse(x), z)
            mats[class_of[x], class_of[y], l] += 1.0
    return mats


def character_table(group, order_cap=DEFAULT_ORDER_CAP):
    """Irreducible complex characters of a finite group (Burnside's method).

    Simultaneous eigenvectors of the class-sum matrices are isolated with a
    random (but internally seeded, hence reproducible) linear combination;
    degenerate draws are retried.  The table is verified against row
    orthogonality (within ``DEFAULT_TOL``) and the sum-of-squares rule
    before being returned.
    """
    if group.order > order_cap:
        raise ResourceError(
            f"group order {group.order} exceeds cap {order_cap}"
        )
    classes, class_of = conjugacy_classes(group)
    k = len(classes)
    sizes = np.array([len(c) for c in classes], dtype=float)
    if k == 1:
        chars = np.ones((1, 1), dtype=complex)
        return CharacterTable(group, classes, class_of, chars)

    mats = _class_constant_matrices(group, classes, class_of)
    rng = np.random.default_rng(0x5EED ^ group.order)
    last_err = None
    for _ in range(40):
        coeff = rng.standard_normal(k)
        m = np.tensordot(coeff, mats, axes=(0, 0))
        evals, evecs = np.linalg.eig(m)
        gaps = np.abs(evals[:, None] - evals[None, :])
        np.fill_diagonal(gaps, np.inf)
        if gaps.min() < 1e-6 * (1 + np.abs(evals).max()):
            continue  # degenerate draw; resample the combination
        try:
            chars = _eigenvectors_to_characters(evecs, sizes, group.order)
            _verify_table(chars, sizes, group.order)
        except NumericalConsistencyError as err:
            last_err = err
            continue
        order = sorted(
            range(k),
            key=lambda i: (np.round(chars[i, 0].real, 8),)
            + tuple(
                (-np.round(chars[i, l].real, 8), -np.round(chars[i, l].imag, 8))
                for l in range(k)
            ),
        )
        return CharacterTable(group, classes, class_of, chars[order])
    raise NumericalConsistencyError(
        f"character table failed to converge: {last_err}"
    )


def _eigenvectors_to_characters(evecs, sizes, order):
    k = len(sizes)
    chars = np.zeros((k, k), dtype=complex)
    for i in range(k):
        v = evecs[:, i]
        if abs(v[0]) < 1e-10:
            raise NumericalConsistencyError("eigenvector vanishes at identity class")
        omega = v / v[0]
        norm = np.sum(np.abs(omega) ** 2 / sizes)
        dim = np.sqrt(order / norm)
        round_to_int(dim, soft_tol=1e-6, what="irrep dimension")
        chars[i] = dim * omega / sizes
    return chars


def _verify_table(chars, sizes, order):
    k = chars.shape[0]
    gram = (chars * sizes) @ chars.conj().T / order
    if np.max(np.abs(gram - np.eye(k))) > DEFAULT_TOL:
        raise NumericalConsistencyError("row orthogonality violated")
    dims = [round_to_int(chars[i, 0], soft_tol=1e-6, what="irrep dimension")
            for i in range(k)]
    if sum(d * d for d in dims) != order:
        raise NumericalConsistencyError("sum of squared dimensions != |G|")


# ---------------------------------------------------------------------------
# restriction multiplicities, Gelfand decision, Frobenius-Schur


def trivial_restriction_multiplicity(table, irrep, sub):
    """Multiplicity of the trivial representation in the restriction to ``sub``.

    This is the character average (1/|H|) sum_{h in H} chi(h), rounded to the
    integer it must be.
    """
    if sub.parent is not table.group:
        raise DomainError("subgroup does not belong to the table's group")
    total = sum(table.value(irrep, h) for h in sub.members)
    return round_to_int(total / sub.order, what="restriction multiplicity")


@dataclass(frozen=True)
class GelfandDecision:
    gelfand: bool
    multiplicities: tuple
    witness_irrep: int | None = None
    witness_multiplicity: int | None = None


def is_gelfand_pair(group, sub, table=None):
    """Decide whether (G, H) is a Gelfand pair.

    Every irrep may contain the trivial representation of H at most once; the
    first violation is reported as a witness.
    """
    if table is None:
        table = character_table(group)
    mults = tuple(
        trivial_restriction_multiplicity(table, i, sub)
        for i in range(table.n_irreps)
    )
    for i, m in enumerate(mults):
        if m > 1:
            return GelfandDecision(False, mults, witness_irrep=i,
                                   witness_multiplicity=m)
    return GelfandDecision(True, mults)


def frobenius_schur(table, irrep):
    """Indicator (1/|G|) sum_g chi(g^2) = (1/|G|) sum_C |C| chi(c^2) over the
    classes C, c in C: +1 real, 0 complex, -1 quaternionic."""
    g = table.group
    total = sum(len(c) * table.value(irrep, g.compose(c[0], c[0]))
                for c in table.classes)
    val = total / g.order
    ind = round_to_int(val, what="Frobenius-Schur indicator")
    if ind not in (-1, 0, 1):
        raise NumericalConsistencyError(
            f"Frobenius-Schur indicator {val} not in {{-1, 0, 1}}"
        )
    return ind


def conjugate_irrep(table, irrep):
    """Index of the irrep whose character is the complex conjugate (within
    1e-6 entrywise)."""
    target = np.conj(table.chars[irrep])
    for j in range(table.n_irreps):
        if np.max(np.abs(table.chars[j] - target)) < 1e-6:
            return j
    raise NumericalConsistencyError("conjugate character not found in table")


@dataclass(frozen=True)
class SphericalUnit:
    """One real-irreducible building block of a probabilistic structure.

    Real-type spherical irreps stand alone; complex-type ones enter together
    with their conjugate partner and contribute twice their complex dimension.
    """

    irreps: tuple
    real_dim: int
    kind: str  # "real" | "complex-pair"


def spherical_units(group, sub, table=None):
    """Spherical irreps grouped into real-irreducible units (see above)."""
    if table is None:
        table = character_table(group)
    decision = is_gelfand_pair(group, sub, table=table)
    if not decision.gelfand:
        raise DomainError(
            "not a Gelfand pair (witness irrep "
            f"{decision.witness_irrep} has multiplicity "
            f"{decision.witness_multiplicity}); use the deformation analysis "
            "for non-rigid structures"
        )
    dims = table.dims
    units = []
    used = set()
    for i, m in enumerate(decision.multiplicities):
        if m != 1 or i in used:
            continue
        fs = frobenius_schur(table, i)
        if fs == 1:
            units.append(SphericalUnit((i,), dims[i], "real"))
            used.add(i)
        elif fs == 0:
            j = conjugate_irrep(table, i)
            units.append(SphericalUnit(tuple(sorted((i, j))), 2 * dims[i],
                                       "complex-pair"))
            used.update((i, j))
        else:
            raise NumericalConsistencyError(
                "quaternionic spherical irrep in a Gelfand pair; this "
                "contradicts the real/complex structure constraint"
            )
    return units, table, decision


def count_probabilistic_structures(group, sub, dim_cap, table=None):
    """All multiplicity-free direct sums of spherical irreps under a cap.

    Returns a list of tuples of irrep indices (conjugate pairs appear with
    both indices), each with total real dimension <= ``dim_cap``.  Requires a
    Gelfand pair; the correspondence with probabilistic structures is
    one-to-one exactly then.
    """
    units, _, _ = spherical_units(group, sub, table=table)
    out = []
    for r in range(1, len(units) + 1):
        for combo in itertools.combinations(units, r):
            total = sum(u.real_dim for u in combo)
            if total <= dim_cap:
                idxs = tuple(sorted(i for u in combo for i in u.irreps))
                out.append((idxs, total))
    out.sort(key=lambda t: (t[1], t[0]))
    return [idxs for idxs, _ in out]
