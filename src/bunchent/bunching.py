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

Both stages pick entries of rho by basis index, so _pattern_blocks takes
them in one gather; a pure state gathers its amplitudes through the same
table and is never densified. This is the package's only reduction; the
stage-by-stage projector route is a test reference. bunch_reduce wraps one
split's blocks in pattern objects; a survey gathers same-size splits
together, in bounded chunks, and keeps each split's rho_ab and weights.
Where several of a survey's splits share one label union of k <= 7
qubits, _union_states takes the first stage once for all of them, the
union's 2^k x 2^k partial trace, and _union_blocks reads each split's
pattern blocks out of it. Both routes add the same terms in the same
order, so every block has the same bits on either.
Only caller data is validated.
"""

from __future__ import annotations

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
        a = tuple(int(x) for x in self.bunch_a)
        b = tuple(int(x) for x in self.bunch_b)
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


@lru_cache(maxsize=None)
def _row_bits(k: int) -> np.ndarray:
    """The (k, 2^k) bits of every row index, most significant first, read-only."""
    return _freeze((np.arange(2 ** k, dtype=np.int64) >> np.arange(k - 1, -1, -1)[:, None]) & 1)


def _union(partition: BunchPartition, n: int) -> tuple[int, ...]:
    """A split's labels in ascending order; a label beyond n qubits raises."""
    union = tuple(sorted(partition.labels))
    if union[-1] > n:
        raise ValueError(f"partition labels {partition.labels} exceed the state's {n} qubits")
    return union


def _pattern_blocks(state: StateVector | DensityMatrix, partitions: list[BunchPartition]) -> np.ndarray:
    """The (S, P, 4, 4) pattern blocks of S splits that share one union
    size m + n, each split's in enumerate_patterns order.

    Both stages are one gather through a (S, 2^(n-2), 4) table of basis
    indices. A row's bits are the flip bits of the non-anchor members
    (bunch A, then B, as in enumerate_patterns), then the outsider bits in
    ascending label order; column 2i+j xors logical i into every qubit of
    bunch A and j into every qubit of bunch B. Each row picks a 4x4 block
    of rho, or for a pure state the outer product of four amplitudes, the
    same numbers; summing over a pattern's rows gives its block. A split's
    sums run in the same order however many splits share the gather. Its
    callers check the labels against the state with _union.
    """
    n, rows = state.n_qubits, []
    for partition in partitions:
        a, b, labels = partition.bunch_a, partition.bunch_b, partition.labels
        outsiders = tuple(x for x in range(1, n + 1) if x not in labels)
        flip_a, flip_b = (sum(1 << (n - x) for x in bunch) for bunch in (a, b))
        # the free labels' weights, then the four columns
        rows.append([1 << (n - x) for x in a[1:] + b[1:] + outsiders]
                    + [0, flip_b, flip_a, flip_a ^ flip_b])
    rows = np.array(rows, dtype=np.int64)
    table = (rows[:, :-4] @ _row_bits(n - 2))[:, :, None] ^ rows[:, None, -4:]
    if isinstance(state, StateVector):
        amp = state.amplitudes[table]
        blocks = amp[..., :, None] * amp.conj()[..., None, :]
    else:
        blocks = state.entries[table[..., :, None], table[..., None, :]]
    return blocks.reshape(len(partitions), 2 ** (len(labels) - 2), -1, 4, 4).sum(axis=2)


def _union_states(
    state: StateVector | DensityMatrix, unions: list[tuple[int, ...]], rows: int
) -> np.ndarray:
    """The (C, 2^k, 2^k) partial traces of a state onto C ascending label
    unions of one size k, the union's bits most significant first.

    Each entry adds one term per outsider row, the outsider bits counted
    in ascending label order as _pattern_blocks counts them, so a block
    read from it has _pattern_blocks' bits. At most `rows` outsider rows of
    each union are gathered at once; a later gather adds the running sum
    into its first row, so the additions keep their order.
    """
    n, k = state.n_qubits, len(unions[0])
    weights = np.array([[1 << (n - x) for x in range(1, n + 1) if x not in union]
                        + [1 << (n - x) for x in union] for union in unions], dtype=np.int64)
    outer = weights[:, :n - k] @ _row_bits(n - k)   # (C, 2^(n-k)) outsider offsets
    inner = weights[:, n - k:] @ _row_bits(k)       # (C, 2^k) union offsets
    total = None
    for lo in range(0, outer.shape[1], rows):
        table = outer[:, lo:lo + rows, None] | inner[:, None, :]
        if isinstance(state, StateVector):
            amp = state.amplitudes[table]
            terms = amp[..., :, None] * amp.conj()[..., None, :]
        else:
            terms = state.entries[table[..., :, None], table[..., None, :]]
        # numpy sums a C-ordered middle axis a row at a time, an innermost one pairwise
        terms = np.ascontiguousarray(terms)
        if total is not None:
            terms[:, 0] += total
        total = terms.sum(axis=1)
        del terms  # one block alive at a time: the next one is gathered without it
    return total


@lru_cache(maxsize=4096)
def _union_positions(ranks_a: tuple[int, ...], ranks_b: tuple[int, ...]) -> np.ndarray:
    """The (P, 4, 4) flat positions of a split's pattern blocks in its
    union's reduced state, from the bunches' places in the union; read-only."""
    k = len(ranks_a) + len(ranks_b)
    flip_a, flip_b = (sum(1 << (k - 1 - r) for r in ranks) for ranks in (ranks_a, ranks_b))
    free = np.array([1 << (k - 1 - r) for r in ranks_a[1:] + ranks_b[1:]], dtype=np.int64)
    pos = (free @ _row_bits(k - 2))[:, None] ^ np.array([0, flip_b, flip_a, flip_a ^ flip_b])
    return _freeze((pos[:, :, None] << k) | pos[:, None, :])


def _union_blocks(
    reduced: np.ndarray, unions: list[tuple[int, ...]], placed: list[tuple[int, BunchPartition]]
) -> np.ndarray:
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


def bunch_reduce(state: StateVector | DensityMatrix, partition: BunchPartition) -> BunchReduction:
    """Reduce a state onto a bunch pair: partial trace, then pattern sums.

    Patterns whose weight falls below 1e-14 are reported with eta 0 and no
    normalized block.
    """
    _union(partition, state.n_qubits)
    blocks = _pattern_blocks(state, [partition])[0]
    components = tuple(
        ReductionComponent(pattern, eta, _derived(2, block / eta) if eta else None)
        for pattern, block, eta in zip(
            enumerate_patterns(partition), blocks, _pattern_weights(blocks).tolist()
        )
    )
    return BunchReduction(partition, _derived(2, blocks.sum(axis=0)), components)


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
