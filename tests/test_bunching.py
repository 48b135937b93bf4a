"""Pattern subspaces and the two-stage bunch reduction."""

from collections import Counter
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bunchent import (
    BunchPartition,
    PatternPair,
    bell_w_state,
    bunch_reduce,
    densify,
    enumerate_partitions,
    enumerate_patterns,
    eof_bunches,
    ghz,
    mix,
    normalize,
    partial_trace,
    reduction_report,
    state_defects,
    tripartite_triple,
)
from bunchent import bunching, measures
from bunchent.bunching import _pattern_blocks, _pattern_weights
from bunchent.bunching import _union_blocks as union_blocks
from bunchent.measures import _measure_splits
from bunchent.states import _HERMITIAN_TOL, _PSD_TOL, _TRACE_TOL
from helpers import (
    build_projector,
    compress_operator,
    logical_index,
    oracle_blocks,
    ordered_reduction,
    random_mixed,
    random_partition,
    random_pure,
    random_split,
    sparse_state,
    tripartite_oracle,
)

_BELL_PROJECTOR = np.array(
    [
        [0.5, 0.0, 0.0, 0.5],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [0.5, 0.0, 0.0, 0.5],
    ],
    dtype=np.complex128,
)


def test_partition_validation():
    with pytest.raises(ValueError):
        BunchPartition((), (1,))
    with pytest.raises(ValueError):
        BunchPartition((1, 2), (2,))
    with pytest.raises(ValueError):
        BunchPartition((1, 1), (2,))
    with pytest.raises(ValueError):
        BunchPartition((0,), (1,))
    part = BunchPartition((2, 4), (1,))
    assert (part.m, part.n) == (2, 1)
    assert part.labels == (2, 4, 1)


def test_enumerate_patterns_binary_order():
    pats = enumerate_patterns(BunchPartition((1, 2), (3, 4)))
    masks = [(p.mask_a, p.mask_b) for p in pats]
    assert masks == [
        ((0,), (0,)),
        ((0,), (1,)),
        ((1,), (0,)),
        ((1,), (1,)),
    ]
    assert len(enumerate_patterns(BunchPartition((1,), (2,)))) == 1


def test_logical_index_singleton_pair():
    part = BunchPartition((1,), (2, 3))
    aligned = PatternPair((), (0,))
    flipped = PatternPair((), (1,))
    # aligned pair: bits (i, j, j); flipped pair: bits (i, j, 1-j)
    assert [logical_index(part, aligned, i, j) for i, j in ((0, 0), (0, 1), (1, 0), (1, 1))] == [0, 3, 4, 7]
    assert [logical_index(part, flipped, i, j) for i, j in ((0, 0), (0, 1), (1, 0), (1, 1))] == [1, 2, 5, 6]


def test_logical_index_wrapped_anchor():
    # bunch (3, 1) is anchored at qubit 3, so qubit 1 carries the flip
    part = BunchPartition((2,), (3, 1))
    aligned = PatternPair((), (0,))
    flipped = PatternPair((), (1,))
    assert [logical_index(part, aligned, i, j) for i, j in ((0, 0), (0, 1), (1, 0), (1, 1))] == [0, 5, 2, 7]
    assert [logical_index(part, flipped, i, j) for i, j in ((0, 0), (0, 1), (1, 0), (1, 1))] == [4, 1, 6, 3]


def test_projector_rows_orthonormal():
    for part in (
        BunchPartition((1,), (2, 3)),
        BunchPartition((1, 2), (3, 4)),
        BunchPartition((2,), (3, 1)),
    ):
        for pattern in enumerate_patterns(part):
            proj = build_projector(part, pattern)
            assert np.allclose(proj @ proj.conj().T, np.eye(4))


def test_projectors_resolve_the_identity():
    # pattern subspaces tile the full space: sum of P^dagger P is the identity
    for part in (
        BunchPartition((1,), (2, 3)),
        BunchPartition((1, 2), (3, 4)),
        BunchPartition((1, 2, 3), (4,)),
    ):
        dim = 2 ** (part.m + part.n)
        total = np.zeros((dim, dim), dtype=np.complex128)
        for pattern in enumerate_patterns(part):
            proj = build_projector(part, pattern)
            total += proj.conj().T @ proj
        assert np.allclose(total, np.eye(dim))


def test_compress_matches_projector_product(rng):
    for n in (3, 4):
        for _ in range(10):
            rho = random_mixed(rng, n)
            part = random_partition(rng, n)
            if part.labels != tuple(range(1, n + 1)):
                continue
            for pattern in enumerate_patterns(part):
                proj = build_projector(part, pattern)
                want = proj @ rho.entries @ proj.conj().T
                got = compress_operator(rho.entries, part, pattern)
                assert np.abs(got - want).max() < 1e-15


def test_ghz_reduction_is_bell_projector():
    red = bunch_reduce(densify(ghz(3)), BunchPartition((1,), (2, 3)))
    assert np.allclose(red.rho_ab.entries, _BELL_PROJECTOR)
    assert red.etas[0] == pytest.approx(1.0, abs=1e-12)
    assert red.etas[1] == 0.0  # floored, block dropped
    assert red.components[1].rho_pattern is None


def test_w_state_reduction_frozen():
    w = normalize([0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    red = bunch_reduce(densify(w), BunchPartition((1,), (2, 3)))
    third = 1.0 / 3.0
    want = np.array(
        [
            [third, third, 0.0, 0.0],
            [third, third, 0.0, 0.0],
            [0.0, 0.0, third, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ]
    )
    assert np.abs(red.rho_ab.entries - want).max() < 1e-15
    assert red.etas == pytest.approx((third, 2.0 * third))


def test_eta_sum_and_reassembly(rng):
    for n in (3, 4, 5, 6):
        for _ in range(10):
            rho = random_mixed(rng, n)
            part = random_partition(rng, n)
            red = bunch_reduce(rho, part)
            assert sum(red.etas) == pytest.approx(1.0, abs=1e-12)
            assert all(0.0 <= eta <= 1.0 + 1e-12 for eta in red.etas)
            rebuilt = sum(
                c.eta * c.rho_pattern.entries
                for c in red.components
                if c.rho_pattern is not None
            )
            assert np.abs(rebuilt - red.rho_ab.entries).max() < 1e-12


def _assert_meets_contract(state):
    herm, trace, low = (defect for _, defect, _, _ in state_defects("mixed", state.entries))
    assert herm <= _HERMITIAN_TOL
    assert trace <= _TRACE_TOL
    assert low >= -_PSD_TOL
    assert not state.entries.flags.writeable


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 6),
    rank=st.sampled_from([1, 2, None]),
)
def test_derived_states_meet_contract(seed, n, rank):
    # derived states skip the constructor's check, so the contract is
    # asserted here on every path that builds one
    rng = np.random.default_rng(seed)
    rho = random_mixed(rng, n, rank)
    psi = random_pure(rng, n)
    pure = densify(psi)
    weight = float(rng.uniform(0.1, 0.9))
    mixed = mix([(weight, rho), (1.0 - weight, pure)])
    keep = sorted(int(x) + 1 for x in rng.choice(n, int(rng.integers(1, n + 1)), replace=False))
    part = random_split(rng, n)
    red = bunch_reduce(mixed, part)
    derived = [pure, mixed, partial_trace(mixed, keep), red.rho_ab]
    derived += [c.rho_pattern for c in red.components if c.rho_pattern is not None]
    for state in derived:
        _assert_meets_contract(state)

    blocks = oracle_blocks(mixed, part)
    assert len(blocks) == len(red.components)
    assert np.abs(sum(blocks) - red.rho_ab.entries).max() < 1e-13
    for block, pattern, comp in zip(blocks, enumerate_patterns(part), red.components):
        assert comp.pattern == pattern
        assert abs(comp.eta - block.trace().real) < 1e-13
        if comp.rho_pattern is not None:
            assert np.abs(comp.eta * comp.rho_pattern.entries - block).max() < 1e-13

    # a pure state gathers amplitudes, never densified, to the same bits
    assert _pattern_blocks(psi, [part]).tobytes() == _pattern_blocks(pure, [part]).tobytes()
    from_psi, from_rho = bunch_reduce(psi, part), bunch_reduce(pure, part)
    assert from_psi.rho_ab.entries.tobytes() == from_rho.rho_ab.entries.tobytes()
    assert from_psi.etas == from_rho.etas


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 7),
    outsiders=st.integers(0, 5),
    pure=st.booleans(),
    count=st.integers(1, 4),
    shared=st.booleans(),
    zeros=st.booleans(),
    rows=st.integers(0, 3),
)
@example(seed=0, n=7, outsiders=5, pure=False, count=2, shared=False, zeros=False, rows=0)  # 32 rows per pattern
@example(seed=0, n=7, outsiders=0, pure=True, count=2, shared=False, zeros=False, rows=0)  # 32 patterns per split
@example(seed=0, n=7, outsiders=4, pure=True, count=3, shared=True, zeros=False, rows=0)  # 16 rows, one gather
@example(seed=0, n=7, outsiders=3, pure=False, count=3, shared=True, zeros=False, rows=3)  # 8 rows in gathers of 3
@example(seed=1, n=6, outsiders=2, pure=True, count=4, shared=True, zeros=True, rows=1)  # zeros, a row per gather
def test_sums_follow_the_row_order_bit_for_bit(seed, n, outsiders, pure, count, shared, zeros, rows):
    # printed numbers depend on the order of every sum, so the gathered
    # blocks, bunch_reduce's rho_ab and the survey's stacked rho_ab and
    # etas must equal a one-term-at-a-time loop to the bit; -0.0 against
    # 0.0 counts. Splits of one union take the union route, and `rows`
    # shrinks its gathers so that a union's rows span several of them.
    rng = np.random.default_rng(seed)
    if zeros:
        state = sparse_state(rng, n, pure)
    else:
        state = random_pure(rng, n) if pure else random_mixed(rng, n, int(rng.integers(1, 5)))
    size = n - min(outsiders, n - 2)
    union = [int(x) + 1 for x in rng.permutation(n)[:size]]
    splits = []
    for _ in range(count):  # one union size, so they share one gather
        if shared:  # one union, so the union route runs
            labels = [union[int(x)] for x in rng.permutation(size)]
        else:
            labels = [int(x) + 1 for x in rng.permutation(n)[:size]]
        cut = int(rng.integers(1, size))
        splits.append(BunchPartition(tuple(labels[:cut]), tuple(labels[cut:])))
    budget = (rows << 2 * size) if rows else bunching._GATHER_ENTRIES
    read = []

    def record(reduced, unions, placed):
        blocks = union_blocks(reduced, unions, placed)
        read.extend(zip((part for _, part in placed), blocks))
        return blocks

    with mock.patch.object(
        measures, "_spin_flip_spectrum", wraps=measures._spin_flip_spectrum
    ) as chain, mock.patch.object(bunching, "_union_blocks", side_effect=record), \
            mock.patch.object(bunching, "_GATHER_ENTRIES", budget):
        reports = _measure_splits(state, splits)
    stack = chain.call_args.args[0]
    gathered = _pattern_blocks(state, splits)
    sharing = Counter(frozenset(p.labels) for p in splits)
    assert len(read) == (sum(c for c in sharing.values() if c > 1) if 4 ** size <= budget else 0)

    def bits(x):
        return np.ascontiguousarray(x).view(np.int64)

    reference = {part: ordered_reduction(state, part) for part in splits}
    for k, part in enumerate(splits):
        blocks, rho_ab = reference[part]
        assert np.array_equal(bits(gathered[k]), bits(blocks))
        assert np.array_equal(bits(bunch_reduce(state, part).rho_ab.entries), bits(rho_ab))
        assert np.array_equal(bits(stack[k]), bits(rho_ab))
        assert np.array_equal(bits(np.array(reports[k].etas)), bits(_pattern_weights(blocks)))
    for part, blocks in read:
        assert np.array_equal(bits(blocks), bits(reference[part][0]))


def test_singleton_pair_equals_partial_trace(rng):
    rho = random_mixed(rng, 4)
    red = bunch_reduce(rho, BunchPartition((2,), (4,)))
    want = partial_trace(rho, [2, 4])
    assert np.abs(red.rho_ab.entries - want.entries).max() < 1e-14
    assert red.etas == (pytest.approx(1.0, abs=1e-12),)


def test_reversed_singletons_swap_factors(rng):
    rho = random_mixed(rng, 3)
    fwd = bunch_reduce(rho, BunchPartition((1,), (3,))).rho_ab.entries
    rev = bunch_reduce(rho, BunchPartition((3,), (1,))).rho_ab.entries
    swap = np.array([0, 2, 1, 3])
    assert np.abs(rev - fwd[np.ix_(swap, swap)]).max() < 1e-14


def test_bunch_reduce_rejects_out_of_range(rng):
    rho = random_mixed(rng, 3)
    # one split raises the survey's message before anything is gathered
    with mock.patch.object(bunching, "_gather_sums") as gather:
        for reduce in (bunch_reduce, eof_bunches):
            with pytest.raises(ValueError, match=r"\(1, 4\) exceed the state's 3 qubits"):
                reduce(rho, BunchPartition((1,), (4,)))
    assert gather.call_count == 0
    # a batch raises for its bad split, gathered apart from or with a good one
    for good in (BunchPartition((1,), (2, 3)), BunchPartition((1,), (2,))):
        with pytest.raises(ValueError, match="exceed"):
            _measure_splits(rho, [good, BunchPartition((1,), (4,))])
    # and beside two splits that share a union, before that union is reduced
    shared = [BunchPartition((1,), (2, 3)), BunchPartition((1, 2), (3,))]
    with mock.patch.object(bunching, "_union_states") as route:
        with pytest.raises(ValueError, match=r"\(2, 4\) exceed"):
            _measure_splits(rho, [*shared, BunchPartition((2,), (4,))])
    assert route.call_count == 0


def test_tripartite_triple_matches_index_oracle(rng):
    for _ in range(10):
        rho = random_mixed(rng, 3)
        triple = tripartite_triple(rho)
        oracle = tripartite_oracle(rho.entries)
        for red, want in zip(triple, oracle):
            assert np.abs(red.rho_ab.entries - want).max() < 1e-14
    with pytest.raises(ValueError):
        tripartite_triple(random_mixed(rng, 2))


def test_tripartite_triple_partitions():
    triple = tripartite_triple(densify(ghz(3)))
    splits = [(r.partition.bunch_a, r.partition.bunch_b) for r in triple]
    assert splits == [((1,), (2, 3)), ((2,), (3, 1)), ((3,), (1, 2))]


def test_bellw_full_cover_reduction_is_bell():
    rho = densify(bell_w_state(4, 2))
    red = bunch_reduce(rho, BunchPartition((1, 2), (3, 4)))
    # the two branches land in one pattern block as a maximally
    # entangled logical pair
    assert max(red.etas) == pytest.approx(1.0)
    lead = red.components[int(np.argmax(red.etas))].rho_pattern.entries
    vals = np.linalg.eigvalsh(lead)
    assert vals[-1] == pytest.approx(1.0)


def test_enumerate_partitions_counts_and_order():
    full3 = enumerate_partitions(3, full_cover=True)
    assert [(p.bunch_a, p.bunch_b) for p in full3] == [
        ((1,), (2, 3)),
        ((1, 2), (3,)),
        ((1, 3), (2,)),
    ]
    assert len(enumerate_partitions(3)) == 6
    assert len(enumerate_partitions(4)) == 25
    assert len(enumerate_partitions(4, full_cover=True)) == 7
    assert len(enumerate_partitions(4, max_bunch=1)) == 6

    for part in enumerate_partitions(5):
        assert part.bunch_a[0] < part.bunch_b[0]
        assert not set(part.bunch_a) & set(part.bunch_b)

    # brute force: every ordered pair of disjoint ascending bunches, filtered, sorted
    for n in range(2, 7):
        labels = range(1, n + 1)
        subsets = [s for k in labels for s in combinations(labels, k)]
        for max_bunch in (None, *range(1, n + 2)):
            cap = n if max_bunch is None else max_bunch
            for full_cover in (False, True):
                want = sorted(
                    (a, b)
                    for a in subsets
                    for b in subsets
                    if a[0] < b[0] and not set(a) & set(b)
                    and len(a) <= cap and len(b) <= cap
                    and (not full_cover or len(a) + len(b) == n)
                )
                got = enumerate_partitions(n, max_bunch, full_cover)
                assert [(p.bunch_a, p.bunch_b) for p in got] == want
                # built without __post_init__, equal to checked partitions
                assert got == [BunchPartition(a, b) for a, b in want]

    with pytest.raises(ValueError):
        enumerate_partitions(1)
    with pytest.raises(ValueError):
        enumerate_partitions(3, max_bunch=0)


def test_reduction_report_shape():
    red = bunch_reduce(densify(ghz(3)), BunchPartition((1,), (2, 3)))
    report = reduction_report(red)
    assert report["bunch_a"] == [1]
    assert report["bunch_b"] == [2, 3]
    assert [entry["mask_b"] for entry in report["etas"]] == ["0", "1"]
    assert report["etas"][0]["eta"] == pytest.approx(1.0)
    assert report["rho_ab"][0][0] == [pytest.approx(0.5), 0.0]
