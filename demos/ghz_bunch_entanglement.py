"""GHZ states are all-or-nothing under bunch reduction.

Split the N qubits of a GHZ state into two bunches. When the bunches
together cover every qubit, the reduced two-qubit state is a maximally
entangled Bell projector. Drop even one qubit from the cover and the
reduction collapses to a classical mixture with zero concurrence.

Run: python demos/ghz_bunch_entanglement.py
"""

from bunchent import enumerate_partitions, eof_bunches, ghz

for n in range(3, 7):
    state = ghz(n)
    full = []
    partial = []
    for part in enumerate_partitions(n):
        rep = eof_bunches(state, part)
        (full if part.m + part.n == n else partial).append(rep)
    print(f"GHZ on {n} qubits")
    print(f"  full covers:    {len(full):3d} splits, "
          f"eof range [{min(r.eof for r in full):.12f}, {max(r.eof for r in full):.12f}]")
    print(f"  partial covers: {len(partial):3d} splits, "
          f"max concurrence {max(r.concurrence for r in partial):.2e}")

# the pairwise picture: every two-qubit marginal is separable, the
# entanglement only appears when the bunches exhaust the state
state = ghz(4)
print("\nGHZ on 4 qubits, singleton pairs:")
for part in enumerate_partitions(4, max_bunch=1):
    rep = eof_bunches(state, part)
    print(f"  qubits {part.bunch_a[0]} vs {part.bunch_b[0]}: concurrence {rep.concurrence:.1f}")
