"""Finite permutation groups, character tables, and the Gelfand-pair decision.

Groups are stored fully enumerated, as one (|G|, degree) array of permutation
rows with an exact row -> index lookup, so closing generators, conjugating and
multiplying all of G are array gathers, not loops over compositions.
Character tables come from Burnside's class-algebra method: the class-sum
matrices commute, and a random real linear combination of them separates the
common eigenvectors, which after normalization are exactly the columns of the
table.  A few class matrices usually have such a combination already (Dixon
1967), so the matrices of the generators' classes are built first and the
others only when those fail to separate the irreps.

The key derived quantities are the multiplicity of the trivial representation
in a restriction to a subgroup (a plain character average over the subgroup),
the Frobenius-Schur indicator (average of the character over squares), and the
enumeration of multiplicity-free direct sums of spherical irreps under a
dimension cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, NumericalConsistencyError, ResourceError
from .numerics import CHARACTER_TOL, DEFAULT_TOL, PIVOT_TOL, round_to_int

DEFAULT_ORDER_CAP = 10_000
MAX_STRUCTURES = 10_000  # listed sums; Z_32 over its trivial subgroup has 131,071

# ---------------------------------------------------------------------------
# permutations


def compose(p, q):
    """(p o q)(i) = p(q(i)); both are tuples of images."""
    return tuple(p[q[i]] for i in range(len(p)))


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


def _row_keys(rows):
    """One exact sort key per permutation row: the row's bytes, read as one
    uint64 when they fit in 8 bytes and as a fixed-width byte string else."""
    rows = np.ascontiguousarray(rows)
    width = rows.shape[1] * rows.itemsize
    if width > 8:
        return rows.view(np.dtype((np.void, width))).ravel()
    padded = np.zeros((len(rows), 8), dtype=np.uint8)
    padded[:, :width] = rows.view(np.uint8)
    return padded.view(np.uint64).ravel()


class _RowIndex:
    """Element indices of permutation rows, by binary search over row keys."""

    def __init__(self, perms):
        self.dtype, self.degree = perms.dtype, perms.shape[1]
        keys = _row_keys(perms)
        self.order = np.argsort(keys)
        self.keys = keys[self.order]

    def __getitem__(self, rows):
        """Index of one permutation, or indices of an (m, degree) array."""
        rows = np.asarray(rows)
        keys = _row_keys(rows.reshape(-1, self.degree).astype(self.dtype))
        pos = np.searchsorted(self.keys, keys) % len(self.keys)  # past the end: 0
        if np.any(self.keys[pos] != keys):
            raise KeyError("permutation is not a group element")
        return int(self.order[pos[0]]) if rows.ndim == 1 else self.order[pos]

    def __contains__(self, perm):
        try:
            return sorted(perm) == list(range(self.degree)) and self[perm] >= 0
        except KeyError:
            return False


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A fully enumerated permutation group.

    Row ``perms[i]`` holds the images of element i, in the smallest unsigned
    dtype that holds ``degree - 1``; ``perms[0]`` is the identity.  ``index``
    maps a permutation, or an (m, degree) array of them, to element indices.
    ``generators`` holds the element indices of the generating set.
    """

    degree: int
    perms: np.ndarray = field(repr=False)
    index: _RowIndex = field(repr=False)
    inverses: np.ndarray = field(repr=False)
    generators: tuple = field(repr=False)

    @property
    def order(self):
        return len(self.perms)

    @cached_property
    def elements(self):
        """The elements as tuples of images."""
        return tuple(map(tuple, self.perms.tolist()))

    def compose(self, i, j):
        return self.index[self.perms[i][self.perms[j]]]

    def inverse(self, i):
        return int(self.inverses[i])

    def __iter__(self):
        return iter(range(self.order))


def generate_group(generators, degree=None, max_order=DEFAULT_ORDER_CAP):
    """Close a generator list under composition (breadth-first, deterministic).

    Each level is the previous one composed with every generator, each row's
    images kept together and only first occurrences of new rows kept, so an
    element's index is its place in breadth-first order.  ``degree`` is only
    needed when ``generators`` is empty (the trivial group).  Raises
    :class:`ResourceError` once the closure exceeds ``max_order``.
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

    steps = np.array(gens, dtype=np.min_scalar_type(degree - 1)).reshape(-1, degree)
    frontier = np.arange(degree, dtype=steps.dtype)[None]
    levels, seen = [frontier], _row_keys(frontier)
    while len(frontier):
        rows = frontier[:, steps].reshape(-1, degree)  # p o g for each p, g
        keys = _row_keys(rows)
        first = np.sort(np.unique(keys, return_index=True)[1])
        pos = np.searchsorted(seen, keys[first]) % len(seen)
        fresh = first[seen[pos] != keys[first]]
        if len(seen) + len(fresh) > max_order:  # stop before a huge group
            raise ResourceError(f"group order exceeds max_order = {max_order}")
        frontier = rows[fresh]
        levels.append(frontier)
        seen = np.sort(np.concatenate([seen, keys[fresh]]))
    perms = np.concatenate(levels)
    perms.flags.writeable = False
    index = _RowIndex(perms)
    return FiniteGroup(degree, perms, index, index[np.argsort(perms, axis=1)],
                       tuple(index[steps].tolist()))


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
                steps.append(i)
                try:  # a span larger than the members cannot lie among them
                    grown = generate_group(g.perms[steps], max_order=len(mem))
                except ResourceError:
                    grown = None
                if grown is None or not (
                        span := set(g.index[grown.perms].tolist())) <= mem:
                    raise DomainError("subgroup not closed under composition")

    @classmethod
    def _closed(cls, parent, members):
        """A subgroup whose members are closed by construction: skips the
        checks of ``__post_init__``, which are for member lists from users."""
        sub = object.__new__(cls)
        object.__setattr__(sub, "parent", parent)
        object.__setattr__(sub, "members", members)
        return sub


def subgroup_from_generators(group, generators):
    """Subgroup of ``group`` generated by permutations (or element indices)."""
    idxs = []
    for g in generators:
        if isinstance(g, (int, np.integer)):
            if not 0 <= g < group.order:
                raise DomainError(
                    f"generator index {g} is outside 0..{group.order - 1}")
            idxs.append(int(g))
        else:
            p = tuple(g)
            if p not in group.index:
                raise DomainError(f"generator {p} is not an element of the group")
            idxs.append(group.index[p])
    sub = generate_group(group.perms[idxs], group.degree, max_order=group.order)
    return Subgroup._closed(group,
                            tuple(np.sort(group.index[sub.perms]).tolist()))


def trivial_subgroup(group):
    return Subgroup._closed(group, (0,))


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


def quaternion_group():
    """The order-8 quaternion group in its regular action on 8 points.

    Point letter + 4 * (sign < 0) is the unit sign * letter, letters 1, i, j,
    k = 0, 1, 2, 3 (so 0..7 are 1, i, j, k, -1, -i, -j, -k); the generators
    are right multiplication by i and by j.
    """
    return generate_group([(1, 4, 7, 2, 5, 0, 3, 6), (2, 3, 4, 5, 6, 7, 0, 1)])


# ---------------------------------------------------------------------------
# conjugacy classes and the character table


def conjugacy_classes(group):
    """Classes in deterministic order (identity class first).

    Returns (classes, class_of) where classes is a tuple of sorted index
    tuples, ordered by their smallest element, and class_of maps an element
    index to its class index.  A class is closed under conjugation by the
    generators alone: each gives one index map x -> g x g^-1, and every
    element takes the smallest label of its orbit under them.
    """
    perms = group.perms
    maps = [group.index[perms[g][perms[:, perms[group.inverses[g]]]]]
            for g in group.generators]
    label, last = np.arange(group.order), None
    while not np.array_equal(label, last):
        last = label
        for m in maps:  # pull labels from images, push them to images
            label = np.minimum(label, label[m])
            label[m] = np.minimum(label[m], label)
        label = label[label]
    _, class_of = np.unique(label, return_inverse=True)
    members = np.argsort(class_of, kind="stable")
    bounds = np.cumsum(np.bincount(class_of))[:-1]
    return tuple(tuple(c.tolist()) for c in np.split(members, bounds)), class_of


@dataclass(frozen=True, eq=False)
class CharacterTable:
    group: FiniteGroup
    classes: tuple
    class_of: np.ndarray = field(repr=False)
    chars: np.ndarray = field(repr=False)  # (n_irreps, n_classes) complex
    retries: int = field(default=0, repr=False)  # random combinations discarded
    classes_used: int = field(default=0, repr=False)  # class matrices built

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


def _class_constant_matrices(group, classes, class_of, which):
    """a[i][j, l] = #{x in class which[i] : x^-1 z_l in class j} for
    representatives z_l; ``which`` names the classes i.

    Only the members of the named classes are multiplied by the k
    representatives, so the work is (their count) * k row lookups and the
    result (len(which), k, k).
    """
    k, perms = len(classes), group.perms
    xs = np.concatenate([classes[i] for i in which])
    row = np.repeat(np.arange(len(which)), [len(classes[i]) for i in which])
    reps = perms[[c[0] for c in classes]]
    y = group.index[perms[group.inverses[xs]][:, reps].reshape(-1, group.degree)]
    cells = (row[:, None] * k + class_of[y].reshape(-1, k)) * k + np.arange(k)
    return np.bincount(cells.ravel(), minlength=len(which) * k * k).reshape(
        len(which), k, k).astype(float)


def character_table(group):
    """Irreducible complex characters of a finite group (Burnside's method).

    Simultaneous eigenvectors of the class-sum matrices are isolated with a
    random (but internally seeded, hence reproducible) linear combination.
    The first combination is drawn over the matrices of the generators'
    classes alone; if it is degenerate or its table fails verification, the
    matrices of the remaining classes are added and the combination is drawn
    over all k, retried while degenerate.  The table is verified against row
    orthogonality (within ``DEFAULT_TOL``) and the sum-of-squares rule
    before being returned.  The group's size was capped when it was built
    (``generate_group(max_order)``); the table adds no cap of its own.
    """
    classes, class_of = conjugacy_classes(group)
    k = len(classes)
    sizes = np.array([len(c) for c in classes], dtype=float)
    if k == 1:
        chars = np.ones((1, 1), dtype=complex)
        return CharacterTable(group, classes, class_of, chars)

    used = sorted(set(class_of[list(group.generators)].tolist()))
    mats = _class_constant_matrices(group, classes, class_of, used)
    rng = np.random.default_rng(0x5EED ^ group.order)
    last_err = None
    for retries in range(40):
        coeff = rng.standard_normal(len(used))
        evals, evecs = np.linalg.eig(np.tensordot(coeff, mats, axes=(0, 0)))
        gaps = np.abs(evals[:, None] - evals[None, :])
        np.fill_diagonal(gaps, np.inf)
        try:
            if gaps.min() < CHARACTER_TOL * (1 + np.abs(evals).max()):
                raise NumericalConsistencyError("degenerate random combination")
            chars = _eigenvectors_to_characters(evecs, sizes, group.order)
            _verify_table(chars, sizes, group.order)
        except NumericalConsistencyError as err:
            last_err = err
            if len(used) < k:  # these classes may not separate the irreps
                rest = sorted(set(range(k)) - set(used))
                mats = np.concatenate(
                    [mats, _class_constant_matrices(group, classes, class_of,
                                                    rest)])
                used += rest
            continue
        # stable: by dimension, then (-re, -im) class by class, to 8 digits
        re, im = np.round(chars.real, 8), np.round(chars.imag, 8)
        keys = [re[:, 0], *np.stack([-re, -im], axis=2).reshape(k, -1).T]
        order = np.lexsort(keys[::-1])  # the last key sorts first
        return CharacterTable(group, classes, class_of, chars[order], retries,
                              len(used))
    raise NumericalConsistencyError(
        f"character table failed to converge: {last_err}"
    )


def _eigenvectors_to_characters(evecs, sizes, order):
    k = len(sizes)
    chars = np.zeros((k, k), dtype=complex)
    for i in range(k):
        v = evecs[:, i]
        if abs(v[0]) < PIVOT_TOL:
            raise NumericalConsistencyError("eigenvector vanishes at identity class")
        omega = v / v[0]
        norm = np.sum(np.abs(omega) ** 2 / sizes)
        dim = np.sqrt(order / norm)
        round_to_int(dim, soft_tol=CHARACTER_TOL, what="irrep dimension")
        chars[i] = dim * omega / sizes
    return chars


def _verify_table(chars, sizes, order):
    k = chars.shape[0]
    gram = (chars * sizes) @ chars.conj().T / order
    if np.max(np.abs(gram - np.eye(k))) > DEFAULT_TOL:
        raise NumericalConsistencyError("row orthogonality violated")
    dims = [round_to_int(chars[i, 0], soft_tol=CHARACTER_TOL,
                         what="irrep dimension")
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
    total = table.chars[irrep, table.class_of[list(sub.members)]].sum()
    return round_to_int(total / sub.order, what="restriction multiplicity")


@dataclass(frozen=True)
class GelfandDecision:
    gelfand: bool
    multiplicities: tuple
    witness_irrep: int | None = None
    witness_multiplicity: int | None = None


def _double_coset_count(table, sub):
    """(r, |G:H|) with r = |H\\G/H| = <pi, pi> for the permutation character
    pi = Ind_H^G 1, in exact integers from the class data: on a class c,
    pi(c) = |G:H| |c meet H| / |c|, and r = sum_c |c| pi(c)^2 / |G|."""
    def exact(num, den):
        q, rem = divmod(num, den)
        if rem:
            raise NumericalConsistencyError(
                f"permutation character: {num} / {den} is not an integer")
        return q

    order = table.group.order
    index = exact(order, sub.order)
    meets = np.bincount(table.class_of[list(sub.members)],
                        minlength=len(table.classes)).tolist()
    pis = [exact(index * m, size) for m, size in zip(meets, table.class_sizes)]
    return exact(sum(size * pi * pi for size, pi in zip(table.class_sizes, pis)),
                 order), index


def is_gelfand_pair(table, sub):
    """Decide whether (G, H) is a Gelfand pair, G being the table's group.

    Every irrep may contain the trivial representation of H at most once; the
    first violation is reported as a witness.  The rounded multiplicities m_i
    are checked in exact integers against the class data: sum m_i^2 must be
    the double-coset count |H\\G/H| and sum m_i d_i the index |G:H|.

    Raises
    ------
    NumericalConsistencyError
        If either identity fails.
    """
    mults = tuple(
        trivial_restriction_multiplicity(table, i, sub)
        for i in range(table.n_irreps)
    )
    double_cosets, index = _double_coset_count(table, sub)
    if sum(m * m for m in mults) != double_cosets:
        raise NumericalConsistencyError(
            f"restriction multiplicities {mults} have squares summing to "
            f"{sum(m * m for m in mults)}, not |H\\G/H| = {double_cosets}")
    if sum(m * d for m, d in zip(mults, table.dims)) != index:
        raise NumericalConsistencyError(
            f"restriction multiplicities {mults} give a permutation "
            f"representation of dimension other than |G:H| = {index}")
    for i, m in enumerate(mults):
        if m > 1:
            return GelfandDecision(False, mults, witness_irrep=i,
                                   witness_multiplicity=m)
    return GelfandDecision(True, mults)


def frobenius_schur(table, irrep):
    """Indicator (1/|G|) sum_g chi(g^2) = (1/|G|) sum_C |C| chi(c^2) over the
    classes C, c in C: +1 real, 0 complex, -1 quaternionic."""
    g = table.group
    reps = g.perms[[c[0] for c in table.classes]]
    squares = g.index[np.take_along_axis(reps, reps, axis=1)]  # c o c
    total = sum(len(c) * table.value(irrep, s)
                for c, s in zip(table.classes, squares))
    val = total / g.order
    ind = round_to_int(val, what="Frobenius-Schur indicator")
    if ind not in (-1, 0, 1):
        raise NumericalConsistencyError(
            f"Frobenius-Schur indicator {val} not in {{-1, 0, 1}}"
        )
    return ind


def conjugate_irrep(table, irrep):
    """Index of the irrep whose character is the complex conjugate (within
    ``CHARACTER_TOL`` entrywise)."""
    target = np.conj(table.chars[irrep])
    for j in range(table.n_irreps):
        if np.max(np.abs(table.chars[j] - target)) < CHARACTER_TOL:
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


def spherical_units(table, decision):
    """Spherical irreps of (G, H), grouped into real-irreducible units (see
    above), read off the pair's decision ``is_gelfand_pair(table, sub)``."""
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
    return units


def count_probabilistic_structures(units, dim_cap):
    """All multiplicity-free direct sums of spherical units under a cap.

    ``units`` are a Gelfand pair's :func:`spherical_units`; the sums
    correspond one-to-one with the pair's probabilistic structures.  Returns
    a list of tuples of irrep indices (conjugate pairs appear with both
    indices), each with total real dimension <= ``dim_cap``, sorted by
    (total, indices).  A sum is extended only while its total stays within
    the cap, so the work grows with the number of sums listed; more than
    ``MAX_STRUCTURES`` of them raise :class:`ResourceError`.
    """
    units = sorted(units, key=lambda u: u.real_dim)
    out = []

    def extend(start, irreps, total):
        for k in range(start, len(units)):
            t = total + units[k].real_dim
            if t > dim_cap:
                break  # every later unit is at least as large
            idxs = irreps + units[k].irreps
            out.append((t, tuple(sorted(idxs))))
            if len(out) > MAX_STRUCTURES:
                raise ResourceError(
                    f"more than {MAX_STRUCTURES} structures fit under "
                    f"dim_cap = {dim_cap}")
            extend(k + 1, idxs, t)

    extend(0, (), 0)
    out.sort()
    return [idxs for _, idxs in out]
