"""Distances between probabilistic structures and their analytic floors.

Two structures over the same pure states (the sphere) but with different
irreducible blocks, the spin-1 Bloch embedding and the spin-2 embedding,
must stay at distance at least 1 / (4 d) where d is the dimension of the
block the rival lacks.  The same machinery checks the block-average
identity: the Haar average of f^2 equals the sum of squared block norms
divided by block dimensions.
"""

import numpy as np

import gptforge as gf
from gptforge import deformation as dm
from gptforge import state_space as ss

s_bloch, s_spin2 = ss.bloch_spin2_pair(10_000, 0)

report = dm.structure_distance_lower_bound(s_bloch, s_spin2)
print("Bloch (spin-1, d = 3) against spin-2 only:")
print(f"  analytic lower bound 1/(4*3) = {report.bound:.6f}")
print(f"  Monte-Carlo minimum of the averaged squared difference: "
      f"{report.mc_min:.6f} +- {report.sigma:.6f}")
print(f"  verified above bound - 3 sigma: {report.verified}")

rev = dm.structure_distance_lower_bound(s_spin2, s_bloch)
print(f"\nReverse direction (missing block d = 5): bound = {rev.bound:.6f}, "
      f"verified: {rev.verified}")

est = dm.symmetrized_distance_estimate(s_bloch, s_spin2, rng=0)
print(f"\nSymmetrized distance estimate: {est.estimate:.4f} "
      f"(directed {est.directed_01:.4f} / {est.directed_10:.4f}), "
      f"floor {est.lower_bound:.4f}")

print("\nRigidity floor for any rival of the same total dimension:")
for d0 in (2, 4, 9):
    print(f"  dim {d0}: 1/(4 (d0 - 1)) = {dm.rigidity_bound(d0):.6f}")

print("\nBlock-average identity on the Bloch orbit:")
bloch = ss.bloch_structure(2000, 0, via="su2")
hand = ss.Effect(np.array([0.5, 0.0, 0.0, 0.5]), "(1+z)/2")
r = dm.schur_average_check(bloch, hand, 5000, 0)
print(f"  effect (1+z)/2: exact 1/4 + (1/4)/3 = {r.exact:.6f}, "
      f"Monte Carlo {r.mc_average:.6f} +- {r.sigma:.6f}")

print("\nThe pure-state metric (LP over valid effects) on the Bloch sample:")
s = ss.bloch_structure(200, 1)
v = s.points[:, 1:]
far = int(np.argmin(v @ v[0]))
print(f"  nearly antipodal pair: {dm.pure_state_distance(s, 0, far):.4f}")
print(f"  same point:            {dm.pure_state_distance(s, 0, 0):.4f}")
