"""Reference Gelfand decisions that do not use character tables.

G acts on the cosets X = G/H.  The G-orbits on X x X (orbitals) correspond
one to one with the double cosets H\\G/H, and their 0/1 adjacency matrices
span the commutant of the permutation representation on X.  (G, H) is a
Gelfand pair exactly when that commutant (the Hecke algebra) is commutative,
so the decision reduces to multiplying a few |X| x |X| integer matrices.
Only permutation composition and hashing are used here; nothing is shared
with the library under test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def compose(p, q):
    """(p o q)(i) = p(q(i)), the library's convention."""
    return tuple(p[i] for i in q)


def inverse(p):
    inv = [0] * len(p)
    for i, pi in enumerate(p):
        inv[pi] = i
    return tuple(inv)


def perm_from_cycles(degree, cycles):
    images = list(range(degree))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a] = b
    return tuple(images)


def closure(degree, gens):
    """All elements generated by ``gens`` (breadth-first), as a set."""
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = compose(p, g)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


@dataclass(frozen=True)
class Reference:
    group_order: int
    subgroup_order: int
    double_cosets: int
    gelfand: bool


def gelfand_reference(degree, group_cycles, subgroup_cycles):
    """Decide (G, H) from generator cycle lists via the orbital algebra."""
    g_gens = [perm_from_cycles(degree, c) for c in group_cycles]
    h_gens = [perm_from_cycles(degree, c) for c in subgroup_cycles]
    h_set = closure(degree, h_gens)

    # left cosets xH, found by breadth-first search from H itself
    reps = [tuple(range(degree))]
    rep_inv = [reps[0]]

    def coset_of(x):
        for k, r_inv in enumerate(rep_inv):
            if compose(r_inv, x) in h_set:
                return k
        return -1

    action = [[] for _ in g_gens]
    i = 0
    while i < len(reps):
        for s, g in enumerate(g_gens):
            x = compose(g, reps[i])
            k = coset_of(x)
            if k < 0:
                k = len(reps)
                reps.append(x)
                rep_inv.append(inverse(x))
            action[s].append(k)
        i += 1
    n = len(reps)

    # orbitals: G-orbits on X x X under the diagonal action
    label = -np.ones((n, n), dtype=int)
    n_orbitals = 0
    for a in range(n):
        for b in range(n):
            if label[a, b] >= 0:
                continue
            label[a, b] = n_orbitals
            stack = [(a, b)]
            while stack:
                u, v = stack.pop()
                for act in action:
                    pu, pv = act[u], act[v]
                    if label[pu, pv] < 0:
                        label[pu, pv] = n_orbitals
                        stack.append((pu, pv))
            n_orbitals += 1

    mats = [(label == k).astype(np.int64) for k in range(n_orbitals)]
    commutative = all(
        np.array_equal(mats[p] @ mats[q], mats[q] @ mats[p])
        for p in range(n_orbitals)
        for q in range(p + 1, n_orbitals)
    )
    order = len(closure(degree, g_gens))
    return Reference(order, len(h_set), n_orbitals, commutative)
