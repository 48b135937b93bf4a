"""Symmetries of the bunch reduction, as property tests.

Concurrence is invariant under local unitaries (Wootters, PRL 80, 2245
(1998)). An operation that acts on the bunches as a local unitary on the
logical pair must therefore move rho_ab by that unitary and leave C, EoF
and the lambdas as they were; one that only relabels patterns or qubits
must permute the pattern weights and nothing else. Inputs are GHZ or
two-branch states mixed with a low-rank random state, on full covers of
the bunched qubits, so that C > 0 and the measures have something to keep.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from bunchent import BunchPartition, PatternPair, bunch_reduce, eof_bunches, enumerate_patterns
from helpers import X_GATE, Z_GATE, entangled_mixture, on_qubits, phase_gate, random_gate, relabelled

_I2 = np.eye(2)
_SWAP = np.eye(4)[[0, 2, 1, 3]]


def _case(seed: int, n: int, outsiders: int = 0):
    """A structured state and a full-cover split of its entangled qubits."""
    rng = np.random.default_rng(seed)
    labels = [int(x) + 1 for x in rng.permutation(n)[: n - outsiders]]
    cut = int(rng.integers(1, len(labels)))
    part = BunchPartition(tuple(labels[:cut]), tuple(labels[cut:]))
    return rng, entangled_mixture(rng, n, labels), part


def _reduce(state, part):
    """rho_ab and the report (C, EoF, lambdas, etas) of one split."""
    report = eof_bunches(state, part)
    assert report.concurrence > 1e-3
    return bunch_reduce(state, part).rho_ab.entries, report


def _assert_same_measures(got, want) -> None:
    assert abs(got.concurrence - want.concurrence) <= 1e-12
    assert abs(got.eof - want.eof) <= 1e-12
    assert np.abs(np.subtract(got.lambdas, want.lambdas)).max() <= 1e-12


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), on_b=st.booleans())
def test_x_on_a_whole_bunch_flips_its_logical_qubit(seed, n, on_b):
    _, state, part = _case(seed, n)
    rho_ab, report = _reduce(state, part)
    flip = np.kron(_I2, X_GATE) if on_b else np.kron(X_GATE, _I2)
    moved, moved_report = _reduce(on_qubits(state, part.bunch_b if on_b else part.bunch_a, X_GATE), part)
    assert np.abs(moved - flip @ rho_ab @ flip).max() <= 1e-13
    assert np.abs(np.subtract(moved_report.etas, report.etas)).max() <= 1e-13
    _assert_same_measures(moved_report, report)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 6), pick=st.integers(0, 2**16))
def test_x_on_a_non_anchor_member_permutes_the_patterns(seed, n, pick):
    _, state, part = _case(seed, n)
    rho_ab, report = _reduce(state, part)
    members = [(0, t) for t in range(1, part.m)] + [(1, t) for t in range(1, part.n)]
    side, t = members[pick % len(members)]
    label = (part.bunch_a, part.bunch_b)[side][t]
    moved, moved_report = _reduce(on_qubits(state, [label], X_GATE), part)

    def flipped(p: PatternPair) -> PatternPair:
        masks = [list(p.mask_a), list(p.mask_b)]
        masks[side][t - 1] ^= 1
        return PatternPair(tuple(masks[0]), tuple(masks[1]))

    patterns = enumerate_patterns(part)
    eta = dict(zip(patterns, report.etas))
    assert np.abs(np.subtract(moved_report.etas, [eta[flipped(p)] for p in patterns])).max() <= 1e-13
    assert np.abs(moved - rho_ab).max() <= 1e-13
    _assert_same_measures(moved_report, report)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 6),
    on_b=st.booleans(),
    phi=st.floats(-np.pi, np.pi),
    z=st.booleans(),
    pick=st.integers(0, 2**16),
)
def test_a_phase_on_a_member_is_a_logical_phase(seed, n, on_b, phi, z, pick):
    # Z on any member, or diag(1, e^{i phi}) on an anchor; the latter on a
    # non-anchor member is pattern-dependent and no identity
    _, state, part = _case(seed, n)
    rho_ab, report = _reduce(state, part)
    bunch = part.bunch_b if on_b else part.bunch_a
    gate, label = (Z_GATE, bunch[pick % len(bunch)]) if z else (phase_gate(phi), bunch[0])
    logical = np.kron(_I2, gate) if on_b else np.kron(gate, _I2)
    moved, moved_report = _reduce(on_qubits(state, [label], gate), part)
    assert np.abs(moved - logical @ rho_ab @ logical.conj().T).max() <= 1e-13
    assert np.abs(np.subtract(moved_report.etas, report.etas)).max() <= 1e-13
    _assert_same_measures(moved_report, report)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 6), outsiders=st.integers(1, 3))
def test_a_unitary_on_an_outsider_changes_nothing(seed, n, outsiders):
    rng, state, part = _case(seed, n, min(outsiders, n - 2))
    rho_ab, report = _reduce(state, part)
    outside = [x for x in range(1, n + 1) if x not in part.labels]
    label = outside[int(rng.integers(len(outside)))]
    moved, moved_report = _reduce(on_qubits(state, [label], random_gate(rng)), part)
    assert np.abs(moved - rho_ab).max() <= 1e-13
    assert np.abs(np.subtract(moved_report.etas, report.etas)).max() <= 1e-13
    _assert_same_measures(moved_report, report)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), outsiders=st.integers(0, 2))
def test_relabelling_the_qubits_keeps_the_report(seed, n, outsiders):
    rng, state, part = _case(seed, n, min(outsiders, n - 2))
    rho_ab, report = _reduce(state, part)
    perm = dict(zip(range(1, n + 1), (int(x) + 1 for x in rng.permutation(n))))
    moved_part = BunchPartition(tuple(map(perm.get, part.bunch_a)), tuple(map(perm.get, part.bunch_b)))
    moved, moved_report = _reduce(relabelled(state, perm), moved_part)
    assert np.abs(moved - rho_ab).max() <= 1e-13
    assert np.abs(np.subtract(moved_report.etas, report.etas)).max() <= 1e-13
    _assert_same_measures(moved_report, report)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6))
def test_swapping_the_bunches_swaps_the_logical_qubits(seed, n):
    _, state, part = _case(seed, n)
    rho_ab, report = _reduce(state, part)
    moved, moved_report = _reduce(state, BunchPartition(part.bunch_b, part.bunch_a))
    assert np.abs(moved - _SWAP @ rho_ab @ _SWAP).max() <= 1e-13
    # patterns count mask_a before mask_b, so the weights transpose
    etas = np.reshape(report.etas, (2 ** (part.m - 1), 2 ** (part.n - 1))).T.ravel()
    assert np.abs(moved_report.etas - etas).max() <= 1e-13
    _assert_same_measures(moved_report, report)
