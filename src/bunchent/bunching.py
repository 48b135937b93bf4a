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

Both stages pick entries of rho by basis index, so one function,
_gather_sums, takes them: it sums the terms of each outsider row in one
order, within one budget of _GATHER_ENTRIES = 2^15 gathered entries
(512 KiB), and gathers a pure state's amplitudes without densifying it.
_split_blocks is the one entry for a list of splits: bunch_reduce, and
measures' eof_bunches and survey, reduce through it, in chunks. It checks
every split's labels first, then groups the splits by label union. Where
two or more splits share a union of k qubits with 4^k <= 2^15 (k <= 7),
_union_states hands _gather_sums the union's 2^k columns once, and
_union_blocks reads every split's pattern blocks out of that partial
trace, to the same bits (a union has at most 2^(k-1) - 1 splits, so a
chunk's blocks fit the budget too). Every other split goes to
_pattern_blocks, each pattern's four columns, with the splits of its
union size. Before the first chunk, _split_blocks frees an untouched
block twice the largest gather (1 MiB), which lifts glibc's mmap and trim
thresholds, so chunk temporaries stay in the heap instead of being mapped
and faulted in per chunk. The stage-by-stage projector route is a test
reference.
Only caller data is validated.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .states import _ETA_FLOOR, DensityMatrix, StateVector, _derived, _freeze


@dataclass(frozen=True)
class BunchPartition:
    """Two disjoint ordered bunches of qubit labels; each anchor comes first."""

    bunch_a: tuple[int, ...]
    bunch_b: tuple[int, ...]

    def __post_init__(self) -> None:
        a = tuple(map(operator.index, self.bunch_a))
        b = tuple(map(operator.index, self.bunch_b))
        if not a or not b:
            raise ValueError("both bunches must be non-empty")
        labels = a + b
        if any(x < 1 for x in labels):
            raise ValueError(f"qubit labels must be positive, got {labels}")
        if len(set(labels)) != len(labels):
            raise ValueError(f"bunches must not share or repeat labels: {a} and {b}")
        object.__setattr__(self, "bunch_a", a)
        object.__setattr__(self, "bunch_b", b)

    @property
    def m(self) -> int:
        return len(self.bunch_a)

    @property
    def n(self) -> int:
        return len(self.bunch_b)

    @property
    def labels(self) -> tuple[int, ...]:
        return self.bunch_a + self.bunch_b


def _split(bunch_a: tuple[int, ...], bunch_b: tuple[int, ...]) -> BunchPartition:
    """A partition of labels already checked, without __post_init__: only
    enumerate_partitions uses it."""
    partition = object.__new__(BunchPartition)
    object.__setattr__(partition, "bunch_a", bunch_a)
    object.__setattr__(partition, "bunch_b", bunch_b)
    return partition


@dataclass(frozen=True)
class PatternPair:
    """Relative flip bits for the non-anchor members of each bunch."""

    mask_a: tuple[int, ...]
    mask_b: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class ReductionComponent:
    """One pattern block: its weight and, when the weight is nonzero,
    the normalized two-qubit state carried by the block."""

    pattern: PatternPair
    eta: float
    rho_pattern: DensityMatrix | None


@dataclass(frozen=True, eq=False)
class BunchReduction:
    """Result of a bunch reduction: the summed two-qubit operator plus
    the per-pattern decomposition."""

    partition: BunchPartition
    rho_ab: DensityMatrix
    components: tuple[ReductionComponent, ...]

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


def _pattern_layout(weights_a: list[int], weights_b: list[int]) -> tuple[list[int], list[int]]:
    """From each bunch's member weights, anchor first: the non-anchor flip bits'
    weights (A, then B), counting the patterns in enumerate_patterns order, and
    the columns; column 2i+j xors logical i into all of bunch A, j into all of B."""
    flip_a, flip_b = sum(weights_a), sum(weights_b)
    return weights_a[1:] + weights_b[1:], [0, flip_b, flip_a, flip_a ^ flip_b]


def _gather_sums(state: StateVector | DensityMatrix, outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """The (G, K, K) sums of G groups, given as (G, R) row offsets and
    (G, K) column offsets: group g adds, over its rows r in order, the
    K x K term of the basis states outer[g, r] ^ inner[g], the outer product
    of their amplitudes for a pure state or the block of rho between them.

    No gather holds more than _GATHER_ENTRIES term entries: it takes as many
    whole groups as fit, or one group in blocks of rows, each block adding
    the running sum into its first row so that the sums keep their order."""
    (count, rows), width = outer.shape, inner.shape[1]
    groups = max(1, min(count, _GATHER_ENTRIES // (rows * width * width)))
    step = max(1, _GATHER_ENTRIES // (groups * width * width))
    sums = []
    for g in range(0, count, groups):
        for lo in range(0, rows, step):
            table = outer[g:g + groups, lo:lo + step, None] ^ inner[g:g + groups, None, :]
            if isinstance(state, StateVector):
                amp = state.amplitudes[table]
                terms = amp[..., :, None] * amp.conj()[..., None, :]
            else:
                terms = state.entries[table[..., :, None], table[..., None, :]]
            # numpy sums a C-ordered middle axis a row at a time, an innermost one pairwise
            terms = np.ascontiguousarray(terms)
            if lo:  # carry the sum of the rows before this block
                terms[:, 0] += total
            total = terms.sum(axis=1)
            del terms  # one block alive at a time: the next one is gathered without it
        sums.append(total)
    return np.concatenate(sums) if len(sums) > 1 else total


def _pattern_blocks(state: StateVector | DensityMatrix, partitions: list[BunchPartition]) -> np.ndarray:
    """The (S, P, 4, 4) pattern blocks of S splits that share one union
    size m + n, each split's in enumerate_patterns order. Each pattern is a
    group of _gather_sums: its columns, and its split's outsider rows with
    its flip bits set. Only _split_blocks calls it, with labels it has checked."""
    n, weights = state.n_qubits, []
    for p in partitions:
        flips, columns = _pattern_layout(*([1 << (n - x) for x in bunch] for bunch in (p.bunch_a, p.bunch_b)))
        weights.append(flips + _outsider_weights(p.labels, n) + columns)
    weights, patterns = np.array(weights, dtype=np.int64), 1 << len(flips)  # one union size: one P
    rows = (weights[:, :-4] @ _row_bits(n - 2)).reshape(len(partitions) * patterns, -1)  # flip bits lead
    blocks = _gather_sums(state, rows, weights[:, -4:].repeat(patterns, axis=0))
    return blocks.reshape(len(partitions), patterns, 4, 4)


def _union_states(state: StateVector | DensityMatrix, unions: list[tuple[int, ...]]) -> np.ndarray:
    """The (C, 2^k, 2^k) partial traces of a state onto C ascending label
    unions of one size k: each union is a group of _gather_sums, its 2^k
    offsets the columns, so a block read from it has _pattern_blocks' bits."""
    n, k = state.n_qubits, len(unions[0])
    outer = np.array([_outsider_weights(union, n) for union in unions], dtype=np.int64) @ _row_bits(n - k)
    inner = np.array([[1 << (n - x) for x in union] for union in unions], dtype=np.int64) @ _row_bits(k)
    return _gather_sums(state, outer, inner)


@lru_cache(maxsize=4096)
def _union_positions(ranks_a: tuple[int, ...], ranks_b: tuple[int, ...]) -> np.ndarray:
    """The (P, 4, 4) flat positions of a split's pattern blocks in its
    union's reduced state, from the bunches' places in the union; read-only."""
    k = len(ranks_a) + len(ranks_b)
    free, columns = _pattern_layout(*([1 << (k - 1 - r) for r in ranks] for ranks in (ranks_a, ranks_b)))
    pos = (np.array(free, dtype=np.int64) @ _row_bits(k - 2))[:, None] ^ np.array(columns)
    return _freeze((pos[:, :, None] << k) | pos[:, None, :])


def _union_blocks(reduced: np.ndarray, unions: list[tuple[int, ...]],
                  placed: list[tuple[int, BunchPartition]]) -> np.ndarray:
    """The (S, P, 4, 4) pattern blocks of S splits, each given as (c, split)
    with reduced[c] the reduced state of its union, unions[c]."""
    ranks = [{x: r for r, x in enumerate(union)}.__getitem__ for union in unions]
    index = np.array([
        _union_positions(tuple(map(ranks[c], p.bunch_a)), tuple(map(ranks[c], p.bunch_b)))
        for c, p in placed
    ])
    index += np.array([c for c, _ in placed])[:, None, None, None] * reduced[0].size
    return reduced.reshape(-1)[index]


def _pattern_weights(blocks: np.ndarray) -> np.ndarray:
    """Each block's trace eta, with weights below 1e-14 set to exactly 0."""
    etas = blocks.trace(axis1=-2, axis2=-1).real
    return np.where(etas < _ETA_FLOOR, 0.0, etas)


def _split_blocks(state: StateVector | DensityMatrix, partitions: list[BunchPartition]):
    """The reduction of a list of splits, one chunk at a time, by the route
    rule of the module docstring: each chunk yields (members, blocks, etas),
    its splits' indices into `partitions`, their (S, P, 4, 4) pattern blocks
    and _pattern_weights as lists. A chunk reads only the state and its own
    splits, so chunks are independent. A label beyond the state's qubits
    raises before anything is gathered."""
    n, budget = state.n_qubits, _GATHER_ENTRIES
    np.empty(32 * budget, dtype=np.uint8)  # the heap lift
    unions: dict[tuple[int, ...], list[int]] = {}
    for k, partition in enumerate(partitions):
        union = tuple(sorted(partition.labels))
        if union[-1] > n:
            raise ValueError(f"partition labels {partition.labels} exceed the state's {n} qubits")
        unions.setdefault(union, []).append(k)
    shared: dict[int, list[tuple[int, ...]]] = {}
    alone: dict[int, list[int]] = {}
    for union, members in unions.items():
        if len(members) > 1 and 4 ** len(union) <= budget:
            shared.setdefault(len(union), []).append(union)
        else:
            alone.setdefault(len(union), []).extend(members)

    def chunks(items: list, width: int) -> list[list]:
        # an item gathers `width` columns (a split 4, a union 2^k) of all 2^n basis states
        step = max(1, budget // (width << n))
        return [items[lo:lo + step] for lo in range(0, len(items), step)]

    for chunk in (c for group in alone.values() for c in chunks(group, 4)):
        blocks = _pattern_blocks(state, [partitions[k] for k in chunk])
        yield chunk, blocks, _pattern_weights(blocks).tolist()
    for size, group in shared.items():
        for chunk in chunks(group, 1 << size):
            placed = [(c, k) for c, union in enumerate(chunk) for k in unions[union]]
            splits = [(c, partitions[k]) for c, k in placed]
            blocks = _union_blocks(_union_states(state, chunk), chunk, splits)
            yield [k for _, k in placed], blocks, _pattern_weights(blocks).tolist()


def bunch_reduce(state: StateVector | DensityMatrix, partition: BunchPartition) -> BunchReduction:
    """Reduce a state onto a bunch pair: partial trace, then pattern sums.

    Patterns whose weight falls below 1e-14 are reported with eta 0 and no
    normalized block.
    """
    ((_, blocks, etas),) = _split_blocks(state, [partition])  # one split: one chunk
    components = tuple(
        ReductionComponent(pattern, eta, _derived(2, block / eta) if eta else None)
        for pattern, block, eta in zip(enumerate_patterns(partition), blocks[0], etas[0])
    )
    return BunchReduction(partition, _derived(2, blocks[0].sum(axis=0)), components)


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


def _subsets(labels: tuple[int, ...], cap: int):
    """Non-empty subsets of ascending labels, at most cap long, in tuple order."""
    for k, x in enumerate(labels):
        yield (x,)
        if cap > 1:
            for rest in _subsets(labels[k + 1:], cap - 1):
                yield (x,) + rest


def enumerate_partitions(
    n_qubits: int, max_bunch: int | None = None, full_cover: bool = False
) -> list[BunchPartition]:
    """All unordered bunch pairs on 1..n_qubits, anchors at the lowest labels.

    Each pair appears once with the lexicographically smaller bunch first,
    and the list is sorted by (bunch_a, bunch_b). `max_bunch` caps the size
    of either bunch; `full_cover` keeps only pairs covering every qubit.
    """
    if n_qubits < 2:
        raise ValueError(f"need at least 2 qubits to split, got {n_qubits}")
    if max_bunch is not None and max_bunch < 1:
        raise ValueError(f"max_bunch must be positive, got {max_bunch}")
    labels = tuple(range(1, n_qubits + 1))
    cap = n_qubits if max_bunch is None else max_bunch
    found = []
    for a in _subsets(labels, cap):
        # bunch B draws from the labels above A's anchor that A leaves
        rest = tuple(x for x in labels if x > a[0] and x not in a)
        if not full_cover:
            found.extend(_split(a, b) for b in _subsets(rest, cap))
        elif a[0] == 1 and 0 < len(rest) <= cap:
            found.append(_split(a, rest))
    return found


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
