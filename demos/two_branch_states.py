"""Two-branch superpositions behave like oversized Bell pairs.

bell_w_state(n, w) superposes one branch holding w zeros then ones with
its bitwise complement. Like GHZ, any bunch split that covers all qubits
is maximally entangled and any partial cover is separable, independent
of where the 0/1 boundary w sits.

Run: python demos/two_branch_states.py
"""

from bunchent import bell_w_state, enumerate_partitions, eof_bunches, survey_csv, survey

n = 5
for w in range(1, n):
    state = bell_w_state(n, w)
    full_eofs = [
        eof_bunches(state, part).eof
        for part in enumerate_partitions(n, full_cover=True)
    ]
    partial_eofs = [
        eof_bunches(state, part).eof
        for part in enumerate_partitions(n)
        if part.m + part.n < n
    ]
    print(f"n={n} w={w}: full covers min eof {min(full_eofs):.9f}, "
          f"partial covers max eof {max(partial_eofs):.2e}")

# the survey helper emits the same numbers as a CSV table
print("\nfull-cover survey of bell_w_state(4, 2):")
state = bell_w_state(4, 2)
print(survey_csv(survey(state, full_cover=True)), end="")
