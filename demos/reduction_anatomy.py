"""Dissecting one bunch reduction into its pattern blocks.

A bunch reduction happens in two stages: an ordinary partial trace onto
the bunched qubits, then a sum of compressions onto pattern subspaces.
Each pattern fixes the relative flips of the non-anchor bunch members
and contributes a 4x4 block with weight eta. This script walks through
the W state, whose blocks are genuinely different, and then shows the
three canonical splits of a tripartite state in one call.

Run: python demos/reduction_anatomy.py
"""

import numpy as np

from bunchent import (
    BunchPartition,
    bunch_reduce,
    normalize,
    tripartite_triple,
)

w_state = normalize([0, 1, 1, 0, 1, 0, 0, 0])  # (|001> + |010> + |100>)/sqrt(3)

red = bunch_reduce(w_state, BunchPartition((1,), (2, 3)))
print("W state, qubit 1 vs bunch (2, 3):")
for comp in red.components:
    mask = "".join(map(str, comp.pattern.mask_b))
    print(f"\n  pattern mask_b={mask}: eta = {comp.eta:.6f}")
    if comp.rho_pattern is None:
        print("  (weight below the floor, block dropped)")
        continue
    print(np.array_str(comp.rho_pattern.entries.real, precision=4, suppress_small=True))

print("\nsummed two-qubit state rho_ab:")
print(np.array_str(red.rho_ab.entries.real, precision=4, suppress_small=True))
print(f"weights sum to {sum(red.etas):.12f}")

# all three splits of a 3-qubit state at once; the middle one is
# anchored at qubit 3 so the splits cycle through the subsystems
print("\netas of the three canonical splits:")
for red in tripartite_triple(w_state):
    a = "-".join(map(str, red.partition.bunch_a))
    b = "-".join(map(str, red.partition.bunch_b))
    print(f"  {a} vs {b}: etas {tuple(round(e, 6) for e in red.etas)}")
