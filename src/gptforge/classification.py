"""Spherical-partition enumeration and reality typing for unitary Grassmannians.

Partitions label SU(m+n) irreps (Young diagrams padded with a redundant
trailing zero so the length is m+n).  The subgroup-invariant ("spherical")
ones are parametrized by weakly decreasing integer tuples b, through two
explicit shapes:

    m = n:      (2 b1, b1 + b2, ..., b1 + bm,              b1 - bm, ..., b1 - b2, 0)
    n >= m + 1: (2 b1, b1 + b2, ..., b1 + bm, b1 (n-m times), b1 - bm, ..., b1 - b2, 0)

For m = 1 the inner ellipses are empty ranges: the shapes collapse to
(2 b1, 0) and (2 b1, b1, ..., b1, 0) respectively.  Consecutive differences
(Dynkin indices) of every spherical partition are palindromic, which combined
with the d mod 4 rule forces a real structure on each of these irreps; the
audit below recomputes that end to end.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, NumericalConsistencyError, ResourceError
from .numerics import check_int

import numpy as np


def validate_partition(parts):
    """A weakly decreasing tuple of non-negative ints ending in 0."""
    p = tuple(check_int(x, "partition entry", 0) for x in parts)
    if len(p) < 1:
        raise DomainError("partition must have at least one entry")
    if any(a < b for a, b in zip(p, p[1:])):
        raise DomainError(f"partition is not weakly decreasing: {p}")
    if p[-1] != 0:
        raise DomainError("partition must end with the redundant 0 entry")
    return p


def spherical_partitions(m, n, b1_max):
    """All spherical partitions for the (m, n) unitary Grassmannian with
    leading part at most 2 * b1_max, sorted."""
    m, n = check_int(m, "m", 1), check_int(n, "n", 1)
    if m > n:
        raise DomainError(f"m = {m} > n = {n}: swap the arguments")
    b1_max = check_int(b1_max, "b1_max", 0)
    out = set()
    for rev in itertools.combinations_with_replacement(range(b1_max + 1), m):
        b = tuple(reversed(rev))  # b1 >= b2 >= ... >= bm >= 0
        b1 = b[0]
        head = (2 * b1,) + tuple(b1 + b[i] for i in range(1, m))
        tail = tuple(b1 - b[i] for i in range(m - 1, 0, -1)) + (0,)
        middle = (b1,) * (n - m)
        out.add(validate_partition(head + middle + tail))
    return sorted(out, reverse=True)


def partition_to_dynkin(parts):
    """Dynkin indices: consecutive differences of the partition."""
    p = validate_partition(parts)
    return tuple(p[i] - p[i + 1] for i in range(len(p) - 1))


def reality_type(dynkin):
    """Real / complex / quaternionic type of the SU(d) irrep with these indices.

    Non-palindromic index strings are complex.  Palindromic ones are real
    unless d = 4k + 2 with an odd central index, which is quaternionic.
    """
    j = tuple(check_int(x, "Dynkin index", 0) for x in dynkin)
    if len(j) < 1:
        raise DomainError("Dynkin label must have at least one index")
    d = len(j) + 1
    if j != tuple(reversed(j)):
        return "complex"
    if d % 2 == 1 or d % 4 == 0:
        return "real"
    central = j[(d - 2) // 2]
    return "real" if central % 2 == 0 else "quaternionic"


def irrep_dimension(parts):
    """Dimension of the SU(d) irrep labeled by the partition (Weyl formula).

    dim = prod over i < j of (p_i - p_j + j - i) / (j - i), exact integer
    arithmetic throughout.
    """
    p = validate_partition(parts)
    d = len(p)
    dim = Fraction(1)
    for i in range(d):
        for j in range(i + 1, d):
            dim *= Fraction(p[i] - p[j] + j - i, j - i)
    if dim.denominator != 1:
        raise NumericalConsistencyError(f"Weyl product is not integral for {p}")
    value = dim.numerator
    if value >= 2**63:
        raise ResourceError(f"irrep dimension overflows 2^63 for {p}")
    return value


@dataclass(frozen=True)
class SphericalAuditRow:
    partition: tuple
    dynkin: tuple
    dim: int
    type: str


@dataclass(frozen=True)
class SphericalAudit:
    rows: tuple
    all_real: bool


def spherical_reality_audit(m, n, b1_max):
    """Enumerate spherical partitions and type each one; all must be real.

    A non-real entry would numerically falsify the real-structure property of
    spherical irreps for these pairs, so it raises.
    """
    rows = []
    for lam in spherical_partitions(m, n, b1_max):
        j = partition_to_dynkin(lam)
        typ = reality_type(j)
        rows.append(SphericalAuditRow(lam, j, irrep_dimension(lam), typ))
    bad = [r for r in rows if r.type != "real"]
    if bad:
        raise NumericalConsistencyError(
            f"spherical partition {bad[0].partition} typed {bad[0].type}; "
            "expected every spherical irrep to carry a real structure"
        )
    return SphericalAudit(tuple(rows), True)


# ---------------------------------------------------------------------------
# the two-point homogeneous catalog


@dataclass(frozen=True)
class CatalogEntry:
    space: str
    coset: str
    group: str
    stabilizer: str
    gelfand: bool


_CATALOG = (
    CatalogEntry("S^(d-1)", "SO(d)/SO(d-1)", "SO(d)", "SO(d-1)", True),
    CatalogEntry("PR^d", "O(d)/(O(d-1) x O(1))", "O(d)", "O(d-1) x O(1)", True),
    CatalogEntry("PC^d", "SU(d)/S(U(d-1) x U(1))", "SU(d)",
                 "S(U(d-1) x U(1))", True),
    CatalogEntry("PH^d", "Sp(d)/(Sp(d-1) x Sp(1))", "Sp(d)",
                 "Sp(d-1) x Sp(1)", True),
    CatalogEntry("PO^3", "F(4)/Spin(9)", "F(4)", "Spin(9)", True),
)


def two_point_catalog():
    """The five compact connected two-point homogeneous families."""
    return list(_CATALOG)


def grassmann_spaces(m, n):
    """Descriptors of the rank-m Grassmannian dynamical structures over the
    three base fields (spherical enumeration is implemented for C only)."""
    if m > n:
        raise DomainError(f"m = {m} > n = {n}: swap the arguments")
    d = m + n
    return [
        {"field": "C", "space": f"Gr({m}, C^{d})",
         "coset": f"SU({d})/S(U({m}) x U({n}))", "enumerable": True},
        {"field": "R", "space": f"Gr({m}, R^{d})",
         "coset": f"SO({d})/S(O({m}) x O({n}))", "enumerable": False},
        {"field": "H", "space": f"Gr({m}, H^{d})",
         "coset": f"Sp({d})/(Sp({m}) x Sp({n}))", "enumerable": False},
    ]


def quartic_reference(k):
    """The rank-k diagonal projector on C^(k^2), as a real matrix.

    Its orbit under the adjoint dynamical group generates the level-k
    quartic state space; the stabilizer is the (k, k^2 - k) block subgroup.
    """
    k = check_int(k, "k", 2)
    d = k * k
    rho = np.zeros((d, d))
    rho[:k, :k] = np.eye(k)
    return rho
