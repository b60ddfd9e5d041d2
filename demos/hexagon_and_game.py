"""State discrimination on the deformable three-coefficient family.

The diagonal projection of each family member is the convex hull of the six
permutations of (a1, a2, a3).  Exact computations over effects on that
hexagon (barycentric coordinates checked in exact integers for three
states, an interval test in exact integers for pairs, and for the game a
closed form from the rearrangement inequality, 1/2 + max_k |c_k| /
(max alpha - min alpha) for a bit's objective c) decide how many states are
perfectly distinguishable (two, generically; three in the quantum limit)
and how well a second bit can ride on top of a perfectly encoded first bit.
"""

import numpy as np

import gptforge as gf
from gptforge import discrimination as dc
from gptforge import state_space as ss

for alpha in ([0.5, 0.3, 0.2], [1.0, 0.0, 0.0], [1 / 3, 1 / 3, 1 / 3]):
    h = dc.hexagon_vertices(alpha)
    r = gf.max_distinguishable(h)
    game = gf.encoding_game_value(alpha)
    print(f"alpha = {np.round(alpha, 4)}:")
    print(f"  distinct vertices: {len(h.vertices)}")
    print(f"  perfectly distinguishable states: {r.n}")
    print(f"  encoding game: bit1 = {game.bit1_success:.4f}, "
          f"bit2 = {game.bit2_success:.4f}"
          + ("  (degenerate: states merged)" if game.degenerate else ""))
    print()

print("Figure data for the generic hexagon (plane coordinates):")
print(dc.hexagon_csv(dc.hexagon_vertices([0.5, 0.3, 0.2])))

print("Cross-check in the full eight-dimensional carrier: the sampled orbit")
print("admits a perfect pair but no perfect triple, while the quantum orbit")
print("admits a triple.")
family = ss.deformable_structure([0.5, 0.3, 0.2], 1000, 0)
quantum = ss.deformable_structure([1.0, 0.0, 0.0], 1000, 0)
print(f"  family  k=2: {gf.max_distinguishable_sampled(family, 2)}")
print(f"  family  k=3: {gf.max_distinguishable_sampled(family, 3)}")
print(f"  quantum k=3: {gf.max_distinguishable_sampled(quantum, 3)}")
