"""Deciding Gelfand pairs for finite permutation groups.

Walks through the full finite-group pipeline: generate a group from
permutations, compute its character table, restrict each irrep to a
subgroup, and decide whether every restriction contains the trivial
representation at most once.  When it does, the probabilistic structures of
the pair correspond one-to-one with multiplicity-free sums of spherical
irreps, which we enumerate under a dimension cap.
"""

import gptforge as gf
from gptforge import finite_rep as fr

s4 = gf.symmetric_group(4)
table = gf.character_table(s4)
print(f"S4: order {s4.order}, irrep dimensions {table.dims}")

pairs = {
    "point stabilizer S3": fr.subgroup_from_generators(
        s4, [(1, 0, 2, 3), (1, 2, 0, 3)]),
    "normal Klein four-group": fr.subgroup_from_generators(
        s4, [(1, 0, 3, 2), (2, 3, 0, 1)]),
    "a single transposition": fr.subgroup_from_generators(s4, [(1, 0, 2, 3)]),
    "trivial subgroup": fr.trivial_subgroup(s4),
}

for name, sub in pairs.items():
    decision = gf.is_gelfand_pair(table, sub)
    verdict = "Gelfand" if decision.gelfand else "NOT Gelfand"
    print(f"\n(S4, {name}), |H| = {sub.order}: {verdict}")
    print(f"  trivial-restriction multiplicities: {decision.multiplicities}")
    if decision.gelfand:
        structures = gf.count_probabilistic_structures(
            fr.spherical_units(table, decision), dim_cap=s4.order // sub.order)
        print(f"  structures with dim <= |G/H| = {s4.order // sub.order}: "
              f"{structures}")
    else:
        print(f"  witness: irrep {decision.witness_irrep} "
              f"(dim {table.dims[decision.witness_irrep]}) restricts with "
              f"multiplicity {decision.witness_multiplicity}")

print("\nFrobenius-Schur indicators tell real (+1) from complex (0) and")
print("quaternionic (-1) irreps; the quaternion group carries the classic -1:")
q8 = gf.quaternion_group()
t8 = gf.character_table(q8)
for i in range(t8.n_irreps):
    print(f"  Q8 irrep {i} (dim {t8.dims[i]}): "
          f"indicator {gf.frobenius_schur(t8, i):+d}")
