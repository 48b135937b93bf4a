"""Two-stage reduction of a multiqubit state onto a pair of qubit bunches.

A bunch is an ordered, disjoint group of qubit labels read as one logical
qubit. The first member is the anchor and carries the logical value; every
other member is tied to the anchor by a relative flip bit. Choosing the
flip bits of both bunches picks a four-dimensional pattern subspace of the
bunched qubits. The reduction first performs an ordinary partial trace
onto the union of the bunches, then compresses the result onto every
pattern subspace and sums the compressed blocks into a single two-qubit
operator. Each block contributes its trace as the pattern weight eta, and
the weights over all patterns sum to one.

Both stages pick entries of rho by basis index, a sum of the bit weights
2^(n - x) of qubits x. _gather_sums, the one gather, is entered by row and
column weights: it sums each group's rows in one order into one result,
reads a pure state's amplitudes undensified, and alone bounds the terms it
forms, in blocks of at most _GATHER_ENTRIES = 2^15 entries (512 KiB) at
any qubit count. partial_trace, the first stage, gathers the outsiders'
rows against the kept qubits' columns. Splits travel as (bunch A, bunch B)
label tuples, which _split_labels lists in enumerate_partitions' order.
_plan reads labels alone, sizes tasks by the sums and row offsets they keep,
and owns the route rule: two or more splits that share a union of k qubits
read their blocks at _union_positions from the union's partial trace if
4^k <= 2^15 (k <= 7), or if k <= 9 with two outsiders or more, as a task
alone whose 4^k sums exceed _GATHER_ENTRIES while each gather block stays
within it; every other split gathers its flip and outsider rows
(_split_weights) against its four columns, to the same bits. _split_blocks
runs the plan for bunch_reduce, eof_bunches and survey after a freed 1 MiB
block lifts glibc's mmap and trim thresholds, so chunk temporaries stay in
the heap, and yields each task's blocks, etas and rho_AB as arrays: it alone
sums the pattern blocks. The projector route is a test reference; data is
checked where it enters.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import chain, combinations, product, repeat
from math import comb
from typing import Sequence

import numpy as np

from .errors import CapacityError
from .states import _ETA_FLOOR, MAX_SURVEY_PATTERNS, DensityMatrix, StateVector, _check_cap, _freeze, _Record, _trusted


class _Value(_Record):
    """A record equal to, and hashed as, the tuple of its fields, as a frozen dataclass is."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())


class BunchPartition(_Value):
    """Two disjoint ordered bunches of qubit labels; each anchor comes first."""

    __match_args__ = ("bunch_a", "bunch_b")

    def __init__(self, bunch_a: Sequence[int], bunch_b: Sequence[int]) -> None:
        a = tuple(map(operator.index, bunch_a))
        b = tuple(map(operator.index, bunch_b))
        if not a or not b:
            raise ValueError("both bunches must be non-empty")
        labels = a + b
        if any(x < 1 for x in labels):
            raise ValueError(f"qubit labels must be positive, got {labels}")
        if len(set(labels)) != len(labels):
            raise ValueError(f"bunches must not share or repeat labels: {a} and {b}")
        super().__init__(a, b)

    @property
    def m(self) -> int:
        return len(self.bunch_a)

    @property
    def n(self) -> int:
        return len(self.bunch_b)

    @property
    def labels(self) -> tuple[int, ...]:
        return self.bunch_a + self.bunch_b


class PatternPair(_Value):
    """Relative flip bits for the non-anchor members of each bunch."""

    __match_args__ = ("mask_a", "mask_b")

    def __init__(self, mask_a: tuple[int, ...], mask_b: tuple[int, ...]) -> None:
        super().__init__(mask_a, mask_b)


class ReductionComponent(_Record):
    """One pattern block: its weight and, when the weight is nonzero,
    the normalized two-qubit state carried by the block."""

    __match_args__ = ("pattern", "eta", "rho_pattern")

    def __init__(self, pattern: PatternPair, eta: float, rho_pattern: DensityMatrix | None) -> None:
        super().__init__(pattern, eta, rho_pattern)


class BunchReduction(_Record):
    """Result of a bunch reduction: the summed two-qubit operator plus
    the per-pattern decomposition."""

    __match_args__ = ("partition", "rho_ab", "components")

    def __init__(self, partition: BunchPartition, rho_ab: DensityMatrix,
                 components: tuple[ReductionComponent, ...]) -> None:
        super().__init__(partition, rho_ab, components)

    @property
    def etas(self) -> tuple[float, ...]:
        return tuple(c.eta for c in self.components)


def enumerate_patterns(partition: BunchPartition) -> list[PatternPair]:
    """All flip-bit choices for a partition, masks counted in binary order."""
    return [
        PatternPair(ma, mb)
        for ma in product((0, 1), repeat=partition.m - 1)
        for mb in product((0, 1), repeat=partition.n - 1)
    ]


# complex entries one gather may hold (512 KiB): survey times matched from
# 2^14 to 2^16, and 2^16 raised a GHZ-8 full cover's peak RSS by 2.4 MB
_GATHER_ENTRIES = 2 ** 15


@lru_cache(maxsize=None)
def _row_bits(k: int) -> np.ndarray:
    """The (k, 2^k) bits of every row index, most significant first, read-only."""
    return _freeze((np.arange(2 ** k, dtype=np.int64) >> np.arange(k - 1, -1, -1)[:, None]) & 1)


def _outsider_weights(labels: tuple[int, ...], n: int) -> list[int]:
    """The weights of the qubits outside `labels`, ascending labels: counted
    with the lowest most significant, the row order every reduction sums in."""
    return [1 << (n - x) for x in range(1, n + 1) if x not in labels]


def _split_weights(weights_a: list[int], weights_b: list[int]) -> list[int]:
    """From each bunch's member weights, anchor first: the non-anchor flip
    weights (A, then B), counting the patterns in enumerate_patterns order,
    then [sum(A), sum(B)], whose bits span the four columns: column 2i+j
    xors logical i into all of bunch A and j into all of B."""
    return weights_a[1:] + weights_b[1:] + [sum(weights_a), sum(weights_b)]


def _gather_sums(state: StateVector | DensityMatrix, rows: list, columns: list, groups: int) -> np.ndarray:
    """The (items * 2^groups, K, K) sums of items given by bit weights. The
    bits of an item's row weights span its row offsets, and each setting of
    the first `groups` of them is one group; the bits of its column weights
    span its K column offsets. A group adds, over its row offsets r in
    order, the K x K term of the basis states r ^ c of its column offsets c,
    the outer product of their amplitudes for a pure state or the block of
    rho between them.

    A gather holds at most _GATHER_ENTRIES term entries, at every K: it
    takes whole groups, row offsets and term rows while they fit, and sums
    each block into its slab of one result, allocated once, a block after
    the first adding the slab's running sum into its first row so that
    every sum keeps its row order."""
    rows, columns = np.array(rows, dtype=np.int64), np.array(columns, dtype=np.int64)
    outer = (rows @ _row_bits(rows.shape[1])).reshape(len(rows) << groups, -1)
    inner = (columns @ _row_bits(columns.shape[1])).repeat(1 << groups, axis=0)
    (count, length), width = outer.shape, inner.shape[1]
    cols = max(1, min(width, _GATHER_ENTRIES // width))  # term rows per block: all of them up to K = 2^7
    per_block = max(1, min(count, _GATHER_ENTRIES // (length * width * cols)))  # groups per block
    step = max(1, _GATHER_ENTRIES // (per_block * width * cols))
    for g, lo, c in product(range(0, count, per_block), range(0, length, step), range(0, width, cols)):
        table = outer[g:g + per_block, lo:lo + step, None] ^ inner[g:g + per_block, None, :]
        if isinstance(state, StateVector):
            amp = state.amplitudes[table]
            terms = amp[..., c:c + cols, None] * amp.conj()[..., None, :]
        else:
            terms = state.entries[table[..., c:c + cols, None], table[..., None, :]]
        # numpy sums a C-ordered middle axis a row at a time, an innermost one pairwise
        terms = np.ascontiguousarray(terms)
        if not (g or lo or c):  # after the first block: allocated first, a GHZ-8 full cover's CLI peaked 0.25 MB higher
            sums = np.empty((count, width, width), dtype=complex)
        slab = sums[g:g + per_block, c:c + cols]  # C-contiguous: one group when cols < K
        if lo:  # carry the sum of the rows before this block
            terms[:, 0] += slab
        terms.sum(axis=1, out=slab)
        del terms  # one block alive at a time: the next one is gathered without it
    return sums


def partial_trace(state: StateVector | DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Trace out every qubit not listed in `keep` (ascending labels): the
    reduction's first stage, one gather of the outsiders' rows against the
    kept qubits' columns, which reads a pure state undensified.

    The kept qubits preserve their relative order and are relabeled
    1..len(keep) in the result.
    """
    keep = tuple(map(operator.index, keep))
    if not keep:
        raise ValueError("keep list must not be empty")
    if list(keep) != sorted(set(keep)):
        raise ValueError(f"keep labels must be strictly ascending, got {keep}")
    n = state.n_qubits
    if keep[0] < 1 or keep[-1] > n:
        raise ValueError(f"keep labels {keep} not contained in 1..{n}")
    _check_cap("mixed", len(keep))
    (reduced,) = _gather_sums(state, [_outsider_weights(keep, n)], [[1 << (n - x) for x in keep]], 0)
    return _trusted(DensityMatrix, n_qubits=len(keep), entries=reduced)


@lru_cache(maxsize=4096)
def _union_positions(ranks_a: tuple[int, ...], ranks_b: tuple[int, ...]) -> np.ndarray:
    """The (P, 4, 4) flat positions of a split's pattern blocks in its
    union's reduced state, from the bunches' places in the union; read-only.
    A pattern's offset is xored into the columns', which hold its flip bits."""
    k = len(ranks_a) + len(ranks_b)
    weights = np.array(_split_weights(*([1 << (k - 1 - r) for r in ranks] for ranks in (ranks_a, ranks_b))))
    pos = (weights[:-2] @ _row_bits(k - 2))[:, None] ^ (weights[-2:] @ _row_bits(2))
    return _freeze((pos[:, :, None] << k) | pos[:, None, :])


def _pattern_weights(blocks: np.ndarray) -> np.ndarray:
    """Each block's trace eta, with weights below 1e-14 set to exactly 0."""
    etas = blocks.trace(axis1=-2, axis2=-1).real
    return np.where(etas < _ETA_FLOOR, 0.0, etas)


def _plan(n: int, splits: list[tuple]):
    """The gather tasks of label pairs on n qubits, lazily, by the module's route rule:
    per task (members, rows, columns, groups, index), its indices into `splits`,
    _gather_sums' arguments and its (S, P, 4, 4) block positions on the union
    route, else None. A task takes as many items (unions or splits) as keep its sums
    and its row offsets each within _GATHER_ENTRIES, or one: an 8- or 9-qubit union
    keeps its 4^k sums, above it. _gather_sums keeps the terms it forms within it.
    A label beyond n raises at the first next()."""
    unions: dict[tuple[int, ...], list[int]] = {}
    for k, (a, b) in enumerate(splits):
        union = tuple(sorted(a + b))
        if union[-1] > n:
            raise ValueError(f"partition labels {a + b} exceed the state's {n} qubits")
        unions.setdefault(union, []).append(k)
    tasks: dict[tuple[bool, int], list] = {}  # (union route?, union size): its unions, or its splits
    for union, indices in unions.items():
        # up to 4^9 sums in a task of their own with two outsiders or more: a pure full cover is faster per split,
        # and with one outsider a 9-qubit union's task (about 17 MB) would outweigh a pure-10 survey's weights
        shared = len(indices) > 1 and (4 ** len(union) <= _GATHER_ENTRIES or len(union) <= min(9, n - 2))
        tasks.setdefault((shared, len(union)), []).extend([union] if shared else indices)
    for (shared, size), items in tasks.items():
        sums, offsets = (4 ** size, 1 << n - size) if shared else (4 << size, 1 << n - 2)  # of one item; a split: 16 a pattern
        step = max(1, _GATHER_ENTRIES // max(sums, offsets))
        for chunk in (items[lo:lo + step] for lo in range(0, len(items), step)):
            if shared:
                placed = [(c, k) for c, union in enumerate(chunk) for k in unions[union]]
                ranks = [{x: r for r, x in enumerate(union)}.__getitem__ for union in chunk]
                index = np.array([_union_positions(tuple(map(ranks[c], splits[k][0])),
                                                   tuple(map(ranks[c], splits[k][1]))) for c, k in placed])
                index += np.array([c for c, _ in placed])[:, None, None, None] << 2 * size
                members = [k for _, k in placed]
                rows = [_outsider_weights(union, n) for union in chunk]
                columns = [[1 << (n - x) for x in union] for union in chunk]
            else:
                members, rows, columns, index = chunk, [], [], None
                for a, b in (splits[k] for k in chunk):  # one union size: one pattern count
                    *flips, fa, fb = _split_weights(*([1 << (n - x) for x in bunch] for bunch in (a, b)))
                    rows.append(flips + _outsider_weights(a + b, n))
                    columns.append([fa, fb])
            yield members, rows, columns, 0 if shared else size - 2, index


def _split_blocks(state: StateVector | DensityMatrix, splits: list[tuple]):
    """Each _plan task gathered: (members, blocks, etas, rho), its splits' (S, P, 4, 4) pattern blocks, (S, P)
    _pattern_weights and (S, 4, 4) rho_AB, the blocks summed in pattern order here alone. Tasks are independent.
    Each allocates its index table, gather result and reshape in that order, the result after the gather's first
    block, and drops its blocks once resumed, so a caller that drops them too holds one task's at a time."""
    np.empty(32 * _GATHER_ENTRIES, dtype=np.uint8)  # the heap lift
    for members, rows, columns, groups, index in _plan(state.n_qubits, splits):
        blocks = _gather_sums(state, rows, columns, groups)
        # rebound here, so the union's reduced states are freed before the yield
        blocks = blocks.reshape(len(members), -1, 4, 4) if index is None else blocks.reshape(-1)[index]
        yield members, blocks, _pattern_weights(blocks), blocks.sum(axis=1)
        del blocks


def bunch_reduce(state: StateVector | DensityMatrix, partition: BunchPartition) -> BunchReduction:
    """Reduce a state onto a bunch pair: partial trace, then pattern sums.

    Patterns whose weight falls below 1e-14 are reported with eta 0 and no
    normalized block.
    """
    ((_, (blocks,), (etas,), (rho_ab,)),) = _split_blocks(state, [(partition.bunch_a, partition.bunch_b)])  # one task
    components = tuple(
        ReductionComponent(p, eta, _trusted(DensityMatrix, n_qubits=2, entries=block / eta) if eta else None)
        for p, block, eta in zip(enumerate_patterns(partition), blocks, etas.tolist())
    )
    return BunchReduction(partition, _trusted(DensityMatrix, n_qubits=2, entries=rho_ab), components)


def tripartite_triple(
    state: StateVector | DensityMatrix,
) -> tuple[BunchReduction, BunchReduction, BunchReduction]:
    """The three bunch reductions of a three-qubit state.

    The splits are 1/(2,3), 2/(3,1) and 3/(1,2); the middle one is
    anchored at qubit 3, matching the cyclic ordering of the subsystems.
    """
    if state.n_qubits != 3:
        raise ValueError(f"expected a 3-qubit state, got {state.n_qubits} qubits")
    return (
        bunch_reduce(state, BunchPartition((1,), (2, 3))),
        bunch_reduce(state, BunchPartition((2,), (3, 1))),
        bunch_reduce(state, BunchPartition((3,), (1, 2))),
    )


def _subsets(labels: tuple[int, ...], cap: int) -> list[tuple[int, ...]]:
    """Non-empty subsets of ascending labels, at most cap long, in tuple order."""
    return sorted(chain.from_iterable(combinations(labels, k) for k in range(1, min(cap, len(labels)) + 1)))


def _split_labels(n_qubits: int, max_bunch: int | None, full_cover: bool) -> list[tuple]:
    """The pairs of enumerate_partitions, in its order, as (bunch A, bunch B) label tuples."""
    if n_qubits < 2:
        raise ValueError(f"need at least 2 qubits to split, got {n_qubits}")
    cap = n_qubits if max_bunch is None else operator.index(max_bunch)
    if cap < 1:
        raise ValueError(f"max_bunch must be positive, got {max_bunch}")
    if (count := _split_count(n_qubits, cap, full_cover)) > MAX_SURVEY_PATTERNS:  # every split keeps a weight or more
        raise CapacityError(f"{count} splits exceed the cap of {MAX_SURVEY_PATTERNS} pattern weights; lower max_bunch")
    labels = tuple(range(1, n_qubits + 1))
    found = []
    for a in _subsets(labels, cap):
        # bunch B draws from the labels above A's anchor that A leaves
        rest = tuple(x for x in labels if x > a[0] and x not in a)
        if not full_cover:
            found.extend(zip(repeat(a), _subsets(rest, cap)))
        elif a[0] == 1 and 0 < len(rest) <= cap:
            found.append((a, rest))
    return found


def enumerate_partitions(n_qubits: int, max_bunch: int | None = None, full_cover: bool = False) -> list[BunchPartition]:
    """All unordered bunch pairs on 1..n_qubits, anchors at the lowest labels.

    Each pair appears once with the lexicographically smaller bunch first,
    and the list is sorted by (bunch_a, bunch_b). `max_bunch` caps the size
    of either bunch; `full_cover` keeps only pairs covering every qubit.
    More than MAX_SURVEY_PATTERNS pairs, more than any survey measures, raise
    CapacityError before one is listed.
    """
    return [_trusted(BunchPartition, bunch_a=a, bunch_b=b) for a, b in _split_labels(n_qubits, max_bunch, full_cover)]


def _pair_counts(n_qubits: int, max_bunch: int | None, full_cover: bool) -> list[tuple[int, int]]:
    """(m + n, count) of enumerate_partitions(...)'s ordered bunch pairs of each size pair (each split twice)."""
    n, cap = n_qubits, n_qubits if max_bunch is None else operator.index(max_bunch)
    return [(a + b, comb(n, a) * comb(n - a, b)) for a in range(1, min(cap, n - 1) + 1)
            for b in range(1, min(cap, n - a) + 1) if not full_cover or a + b == n]


def _split_count(n_qubits: int, max_bunch: int | None, full_cover: bool) -> int:
    """len(enumerate_partitions(...)) in closed form: (3^n - 2^(n + 1) + 1) / 2 with no cap or cover."""
    return sum(count for _, count in _pair_counts(n_qubits, max_bunch, full_cover)) >> 1


def _pattern_count(n_qubits: int, max_bunch: int | None, full_cover: bool) -> int:
    """The sum of 2^(m + n - 2) over enumerate_partitions(...) in closed form."""
    return sum(count << size for size, count in _pair_counts(n_qubits, max_bunch, full_cover)) >> 3


def reduction_report(reduction: BunchReduction) -> dict:
    """JSON-ready form of a reduction: bunches, eta table and rho_ab entries."""
    rho = reduction.rho_ab.entries
    return {
        "bunch_a": list(reduction.partition.bunch_a),
        "bunch_b": list(reduction.partition.bunch_b),
        "etas": [
            {
                "mask_a": "".join(str(b) for b in c.pattern.mask_a),
                "mask_b": "".join(str(b) for b in c.pattern.mask_b),
                "eta": c.eta,
            }
            for c in reduction.components
        ],
        "rho_ab": [[[z.real, z.imag] for z in row] for row in rho],
    }
