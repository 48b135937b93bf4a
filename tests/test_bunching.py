"""Pattern subspaces and the two-stage bunch reduction."""

from collections import Counter
from itertools import combinations, groupby
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bunchent import (
    BunchPartition,
    CapacityError,
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
from bunchent.bunching import _pattern_count, _pattern_weights, _plan, _split_blocks, _split_count, _union_positions
from bunchent.states import _HERMITIAN_TOL, _PSD_TOL, _TRACE_TOL, MAX_SURVEY_PATTERNS
from helpers import (
    build_projector,
    chained_states,
    compress_operator,
    label_pairs,
    logical_index,
    measured,
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
    ((_, from_amplitudes, *_),) = _split_blocks(psi, label_pairs([part]))
    ((_, from_entries, *_),) = _split_blocks(pure, label_pairs([part]))
    assert from_amplitudes.tobytes() == from_entries.tobytes()
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
@example(seed=2, n=10, outsiders=2, pure=True, count=3, shared=True, zeros=False, rows=0)  # a union of 8 beyond 4^7 sums
@example(seed=3, n=10, outsiders=2, pure=False, count=3, shared=True, zeros=False, rows=0)  # the same, mixed
@example(seed=4, n=11, outsiders=2, pure=True, count=2, shared=True, zeros=False, rows=0)  # a union of 9: 4^9 sums
def test_sums_follow_the_row_order_bit_for_bit(seed, n, outsiders, pure, count, shared, zeros, rows):
    # printed numbers depend on the order of every sum, so each split's
    # blocks (from the batch and reduced alone), bunch_reduce's rho_ab, the
    # rho_ab its task's chain took and the survey's etas must equal a
    # one-term-at-a-time loop to the bit; -0.0 against 0.0 counts. In the
    # batch, splits of one union take the union route, and `rows` shrinks
    # its gathers so that a union's rows span several of them.
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
    with mock.patch.object(
        measures, "_chain", wraps=measures._chain
    ) as chain, mock.patch.object(bunching, "_GATHER_ENTRIES", budget):
        if shared and count > 1:  # every split read from its union's partial trace
            assert all(index is not None for *_, index in _plan(n, label_pairs(splits)))
        reports = measured(state, splits)
        batch = [None] * len(splits)
        for members, blocks, *_ in _split_blocks(state, label_pairs(splits)):
            for k, split_blocks in zip(members, blocks):
                batch[k] = split_blocks
        stack = chained_states(chain, n, splits)  # one call per task, members in task order
        alone = [next(_split_blocks(state, label_pairs([part])))[1][0] for part in splits]

    def bits(x):
        return np.ascontiguousarray(x).view(np.int64)

    reference = {part: ordered_reduction(state, part) for part in splits}
    for k, part in enumerate(splits):
        blocks, rho_ab = reference[part]
        assert np.array_equal(bits(batch[k]), bits(blocks))
        assert np.array_equal(bits(alone[k]), bits(blocks))
        assert np.array_equal(bits(bunch_reduce(state, part).rho_ab.entries), bits(rho_ab))
        assert np.array_equal(bits(stack[k]), bits(rho_ab))
        assert np.array_equal(bits(np.array(reports[k].etas)), bits(_pattern_weights(blocks)))


@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(2, 6),
    outsiders=st.integers(0, 3),
    pure=st.booleans(),
    zeros=st.booleans(),
    share=st.floats(0, 1, exclude_max=True),
    split_budget=st.integers(1, 15),
)
@example(seed=0, k=6, outsiders=2, pure=False, zeros=False, share=0.25, split_budget=1)  # K = 64: 4 blocks a row
@example(seed=0, k=6, outsiders=0, pure=True, zeros=True, share=0.0, split_budget=4)  # K = 64: 64 blocks
def test_blocks_of_term_rows_keep_the_bits(seed, k, outsiders, pure, zeros, share, split_budget):
    # a budget below K^2 splits every K x K term into blocks of its rows
    # (K = 2^k for partial_trace, which gets `share` of K^2 entries; K = 4
    # for a split's patterns, which get `split_budget`); each block
    # carries the running sum into its first row, so partial_trace and every
    # split's blocks keep the unsplit bits and the one-term-at-a-time order,
    # -0.0 against 0.0 included
    rng = np.random.default_rng(seed)
    n = k + outsiders
    if zeros:
        state = sparse_state(rng, n, pure)
    else:
        state = random_pure(rng, n) if pure else random_mixed(rng, n)
    keep = sorted(int(x) + 1 for x in rng.permutation(n)[:k])
    splits = [random_split(rng, n) for _ in range(3)]
    traced_budget = 1 + int(share * (4 ** k - 1))  # 1 .. K^2 - 1

    def bits(x):
        return np.ascontiguousarray(x).view(np.int64)

    want = partial_trace(state, keep).entries
    with mock.patch.object(bunching, "_GATHER_ENTRIES", traced_budget):
        assert np.array_equal(bits(partial_trace(state, keep).entries), bits(want))
    unsplit = [next(_split_blocks(state, label_pairs([part])))[1][0] for part in splits]
    with mock.patch.object(bunching, "_GATHER_ENTRIES", split_budget):
        batch = [None] * len(splits)
        for members, blocks, *_ in _split_blocks(state, label_pairs(splits)):
            for m, split_blocks in zip(members, blocks):
                batch[m] = split_blocks
    for part, got, whole in zip(splits, batch, unsplit):
        assert np.array_equal(bits(got), bits(whole))
        assert np.array_equal(bits(got), bits(ordered_reduction(state, part)[0]))


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 16),
    pool=st.integers(1, 6),
    count=st.integers(1, 40),
    budget=st.integers(4, 17),
)
@example(seed=0, n=16, pool=3, count=40, budget=15)  # 16 qubits: no gather, only the plan
def test_plan_routes_and_chunks_every_split(seed, n, pool, count, budget):
    # the plan reads labels alone, so it is checked on shapes too large to
    # gather; splits drawn from a few unions share them
    rng = np.random.default_rng(seed)
    unions = [rng.permutation(n)[:rng.integers(2, n + 1)] + 1 for _ in range(pool)]
    splits = []
    for _ in range(count):
        labels = [int(x) for x in rng.permutation(unions[rng.integers(pool)])]
        cut = int(rng.integers(1, len(labels)))
        splits.append(BunchPartition(tuple(labels[:cut]), tuple(labels[cut:])))
    sharing = Counter(frozenset(p.labels) for p in splits)
    with mock.patch.object(bunching, "_GATHER_ENTRIES", 2 ** budget):
        tasks = list(_plan(n, label_pairs(splits)))
        with pytest.raises(ValueError, match="exceed"):  # before the first task
            next(_plan(n, label_pairs([*splits, BunchPartition((1,), (n + 1,))])))
    assert sorted(k for members, *_ in tasks for k in members) == list(range(count))
    for members, rows, columns, _, index in tasks:
        size = len(splits[members[0]].labels)
        for k in members:  # the union route exactly for a shared union of 4^k <= budget entries, or of k <= 9
            # qubits with two outsiders or more
            assert (index is not None) == (sharing[frozenset(splits[k].labels)] > 1
                                           and (4 ** size <= 2 ** budget or size <= min(9, n - 2)))
        if index is not None:
            assert index.shape == (len(members), 1 << (size - 2), 4, 4)
    # an item keeps 2^groups sums of K^2 entries, K = 2^len(columns), and 2^len(rows) row offsets:
    # a task keeps each within the budget, and every task but the last of its (route, size) is full
    for _, group in groupby(tasks, lambda task: (task[4] is not None, len(splits[task[0][0]].labels))):
        *full, last = [(len(rows), max(1 << groups + 2 * len(columns[0]), 1 << len(rows[0])))
                       for _, rows, columns, groups, _ in group]
        for items, kept in [*full, last]:
            assert items == 1 or items * kept <= 2 ** budget
        assert all(items == max(1, 2 ** budget // kept) for items, kept in full)


def test_readme_survey_counts_from_the_plan():
    # README: a 10-qubit --max-bunch 2 survey has 1,035 splits over 375
    # unions; 990 of them share 330 unions, and the other 45 reduce alone
    splits = enumerate_partitions(10, 2)
    tasks = list(_plan(10, label_pairs(splits)))
    assert (len(splits), len({frozenset(p.labels) for p in splits})) == (1035, 375)
    shared = [(members, rows) for members, rows, *_, index in tasks if index is not None]
    assert sum(len(members) for members, _ in shared) == 990
    assert sum(len(rows) for _, rows in shared) == 330  # one item per union
    assert sum(len(members) for members, *_, index in tasks if index is None) == 45


def test_singleton_pair_equals_partial_trace(rng):
    rho = random_mixed(rng, 4)
    red = bunch_reduce(rho, BunchPartition((2,), (4,)))
    want = partial_trace(rho, [2, 4])
    assert red.rho_ab.entries.tobytes() == want.entries.tobytes()
    assert red.etas == (pytest.approx(1.0, abs=1e-12),)


@pytest.mark.parametrize("pure", [False, True])
def test_split_blocks_read_the_partial_trace_of_their_union(rng, pure):
    # the reduction's two stages: every split's blocks, on either route, are
    # partial_trace onto its union read at _union_positions, to the bit
    state = random_pure(rng, 6) if pure else random_mixed(rng, 6)
    splits = enumerate_partitions(6, 2)
    for members, blocks, *_ in _split_blocks(state, label_pairs(splits)):
        for k, got in zip(members, blocks):
            union = sorted(splits[k].labels)
            ranks = [tuple(map(union.index, bunch)) for bunch in (splits[k].bunch_a, splits[k].bunch_b)]
            want = partial_trace(state, union).entries.reshape(-1)[_union_positions(*ranks)]
            assert got.tobytes() == want.tobytes()


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
            measured(rho, [good, BunchPartition((1,), (4,))])
    # and beside two splits that share a union, before that union is reduced
    shared = [BunchPartition((1,), (2, 3)), BunchPartition((1, 2), (3,))]
    with mock.patch.object(bunching, "_gather_sums") as gather:
        with pytest.raises(ValueError, match=r"\(2, 4\) exceed"):
            measured(rho, [*shared, BunchPartition((2,), (4,))])
    assert gather.call_count == 0


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
    # a cap far beyond n lists every split at once: subset sizes stop at n
    assert enumerate_partitions(4, max_bunch=10 ** 12) == enumerate_partitions(4)

    for part in enumerate_partitions(5):
        assert part.bunch_a[0] < part.bunch_b[0]
        assert not set(part.bunch_a) & set(part.bunch_b)

    # brute force: every ordered pair of disjoint ascending bunches, filtered, sorted
    for n in range(2, 9):
        labels = range(1, n + 1)
        subsets = [s for k in labels for s in combinations(labels, k)]
        disjoint = sorted((a, b) for a in subsets for b in subsets if a[0] < b[0] and not set(a) & set(b))
        for max_bunch in (None, *range(1, n + 2)):
            cap = n if max_bunch is None else max_bunch
            for full_cover in (False, True):
                want = [
                    (a, b)
                    for a, b in disjoint
                    if len(a) <= cap and len(b) <= cap
                    and (not full_cover or len(a) + len(b) == n)
                ]
                got = enumerate_partitions(n, max_bunch, full_cover)
                assert [(p.bunch_a, p.bunch_b) for p in got] == want
                # built without __post_init__, equal to checked partitions, hashed alike
                assert got == [BunchPartition(a, b) for a, b in want]
                assert [hash(p) for p in got] == [hash(BunchPartition(a, b)) for a, b in want]

    with pytest.raises(ValueError):
        enumerate_partitions(1)
    with pytest.raises(ValueError):
        enumerate_partitions(3, max_bunch=0)


@pytest.mark.parametrize("n", range(1, 11))
def test_pattern_count_matches_enumeration(n):
    # the closed forms a survey meets its pattern cap with, and enumerate_partitions
    # its split cap, before either enumerates
    for max_bunch in (None, *range(-1, n + 2)):
        for full_cover in (False, True):
            count, splits_count = _pattern_count(n, max_bunch, full_cover), _split_count(n, max_bunch, full_cover)
            if n < 2 or (max_bunch is not None and max_bunch < 1):
                assert count == splits_count == 0  # enumerate_partitions raises its own error
                continue
            splits = enumerate_partitions(n, max_bunch, full_cover)
            assert count == sum(1 << (p.m + p.n - 2) for p in splits)
            assert splits_count == len(splits)
    if n >= 2:
        assert _split_count(n, None, False) == (3 ** n - 2 ** (n + 1) + 1) // 2


def test_enumerate_partitions_refuses_more_splits_than_the_cap_before_listing():
    # 21,457,825 splits of 16 qubits (about 3.4 GB of partitions) exceed MAX_SURVEY_PATTERNS: each
    # split keeps a pattern weight or more, so no survey measures them; 15 qubits and capped 17 list
    assert _split_count(15, None, False) == 7141686 <= MAX_SURVEY_PATTERNS < _split_count(16, None, False)
    with mock.patch.object(bunching, "_subsets", side_effect=AssertionError("listed")) as listed:
        with pytest.raises(CapacityError, match="21457825 splits exceed the cap of 16777216 pattern weights"):
            enumerate_partitions(16)
    listed.assert_not_called()
    assert len(enumerate_partitions(17, max_bunch=1)) == 136


def test_reduction_report_shape():
    red = bunch_reduce(densify(ghz(3)), BunchPartition((1,), (2, 3)))
    report = reduction_report(red)
    assert report["bunch_a"] == [1]
    assert report["bunch_b"] == [2, 3]
    assert [entry["mask_b"] for entry in report["etas"]] == ["0", "1"]
    assert report["etas"][0]["eta"] == pytest.approx(1.0)
    assert report["rho_ab"][0][0] == [pytest.approx(0.5), 0.0]
