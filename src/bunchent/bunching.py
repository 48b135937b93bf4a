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

Both stages pick entries of rho by basis index, so bunch_reduce takes them
in one gather; logical_index, build_projector and compress_operator keep
the stage-by-stage reference. Only caller data is validated.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .states import DensityMatrix, _derived

_ETA_FLOOR = 1e-14
_LOGICAL_ORDER = ((0, 0), (0, 1), (1, 0), (1, 1))


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


@dataclass(frozen=True)
class PatternPair:
    """Relative flip bits for the non-anchor members of each bunch."""

    mask_a: tuple[int, ...]
    mask_b: tuple[int, ...]

    def __post_init__(self) -> None:
        a = tuple(int(x) for x in self.mask_a)
        b = tuple(int(x) for x in self.mask_b)
        if any(bit not in (0, 1) for bit in a + b):
            raise ValueError(f"pattern masks must hold bits, got {a} and {b}")
        object.__setattr__(self, "mask_a", a)
        object.__setattr__(self, "mask_b", b)


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


def logical_index(
    partition: BunchPartition, pattern: PatternPair, i: int, j: int
) -> int:
    """Basis index carrying logical value i on bunch A and j on bunch B.

    The partition must span qubits 1..(m+n) exactly, i.e. the reduction to
    the bunched qubits has already been applied. Anchors take the logical
    value directly; other members take it xor their flip bit.
    """
    if i not in (0, 1) or j not in (0, 1):
        raise ValueError(f"logical values must be bits, got ({i}, {j})")
    size = partition.m + partition.n
    if sorted(partition.labels) != list(range(1, size + 1)):
        raise ValueError(
            f"partition {partition.bunch_a} / {partition.bunch_b} does not span 1..{size}"
        )
    if len(pattern.mask_a) != partition.m - 1 or len(pattern.mask_b) != partition.n - 1:
        raise ValueError(
            f"pattern {pattern} does not match bunch sizes ({partition.m}, {partition.n})"
        )
    bits = [0] * size
    bits[partition.bunch_a[0] - 1] = i
    for lab, flip in zip(partition.bunch_a[1:], pattern.mask_a):
        bits[lab - 1] = i ^ flip
    bits[partition.bunch_b[0] - 1] = j
    for lab, flip in zip(partition.bunch_b[1:], pattern.mask_b):
        bits[lab - 1] = j ^ flip
    index = 0
    for bit in bits:
        index = 2 * index + bit
    return index


def build_projector(partition: BunchPartition, pattern: PatternPair) -> np.ndarray:
    """4 x 2^(m+n) projection onto a pattern subspace.

    Row 2i+j holds a single 1 at the basis index of logical (i, j); the
    conjugate transpose is the matching interior injection.
    """
    size = 2 ** (partition.m + partition.n)
    proj = np.zeros((4, size), dtype=np.complex128)
    for i, j in _LOGICAL_ORDER:
        proj[2 * i + j, logical_index(partition, pattern, i, j)] = 1.0
    return proj


def compress_operator(
    operator, partition: BunchPartition, pattern: PatternPair
) -> np.ndarray:
    """Compress a 2^(m+n) operator onto a pattern subspace by bit indexing.

    Equals build_projector(...) @ operator @ build_projector(...).conj().T;
    the direct entry selection avoids the matrix products.
    """
    mat = np.asarray(getattr(operator, "entries", operator), dtype=np.complex128)
    size = 2 ** (partition.m + partition.n)
    if mat.shape != (size, size):
        raise ValueError(f"operator has shape {mat.shape}, expected {(size, size)}")
    idx = [logical_index(partition, pattern, i, j) for i, j in _LOGICAL_ORDER]
    return mat[np.ix_(idx, idx)].copy()


def bunch_reduce(rho: DensityMatrix, partition: BunchPartition) -> BunchReduction:
    """Reduce a state onto a bunch pair: partial trace, then pattern sums.

    Both stages are one gather through a (2^(n-2), 4) table of basis
    indices of rho. A row's bits are the flip bits of the non-anchor
    members (bunch A, then B, as in enumerate_patterns), then the outsider
    bits in ascending label order; column 2i+j xors logical i into every
    qubit of bunch A and j into every qubit of bunch B. Summing the 4x4
    blocks over a pattern's outsider rows gives that pattern's block.
    Patterns whose weight falls below 1e-14 are reported with eta 0 and no
    normalized block.
    """
    labels = partition.labels
    if max(labels) > rho.n_qubits:
        raise ValueError(
            f"partition labels {labels} exceed the state's {rho.n_qubits} qubits"
        )
    n, a, b = rho.n_qubits, partition.bunch_a, partition.bunch_b
    outsiders = tuple(x for x in range(1, n + 1) if x not in labels)
    free = np.array(a[1:] + b[1:] + outsiders, dtype=np.int64)
    rows = np.arange(2 ** free.size, dtype=np.int64)
    base = ((rows[:, None] >> np.arange(free.size - 1, -1, -1)) & 1) @ (1 << (n - free))
    flip_a, flip_b = (sum(1 << (n - x) for x in bunch) for bunch in (a, b))
    table = base[:, None] ^ np.array([0, flip_b, flip_a, flip_a ^ flip_b])
    patterns = enumerate_patterns(partition)
    blocks = rho.entries[table[:, :, None], table[:, None, :]]
    blocks = blocks.reshape(len(patterns), -1, 4, 4).sum(axis=1)
    components = []
    for pattern, block in zip(patterns, blocks):
        eta = float(block.trace().real)
        if eta < _ETA_FLOOR:
            components.append(ReductionComponent(pattern, 0.0, None))
        else:
            components.append(
                ReductionComponent(pattern, eta, _derived(2, block / eta))
            )
    return BunchReduction(partition, _derived(2, blocks.sum(axis=0)), tuple(components))


def tripartite_triple(
    rho: DensityMatrix,
) -> tuple[BunchReduction, BunchReduction, BunchReduction]:
    """The three bunch reductions of a three-qubit state.

    The splits are 1/(2,3), 2/(3,1) and 3/(1,2); the middle one is
    anchored at qubit 3, matching the cyclic ordering of the subsystems.
    """
    if rho.n_qubits != 3:
        raise ValueError(f"expected a 3-qubit state, got {rho.n_qubits} qubits")
    return (
        bunch_reduce(rho, BunchPartition((1,), (2, 3))),
        bunch_reduce(rho, BunchPartition((2,), (3, 1))),
        bunch_reduce(rho, BunchPartition((3,), (1, 2))),
    )


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
    labels = range(1, n_qubits + 1)
    found = []
    for size_a in range(1, n_qubits):
        for a in combinations(labels, size_a):
            if max_bunch is not None and len(a) > max_bunch:
                continue
            rest = [x for x in labels if x not in a]
            for size_b in range(1, len(rest) + 1):
                if max_bunch is not None and size_b > max_bunch:
                    continue
                if full_cover and size_a + size_b != n_qubits:
                    continue
                for b in combinations(rest, size_b):
                    if a[0] > b[0]:
                        continue
                    found.append(BunchPartition(a, b))
    found.sort(key=lambda p: (p.bunch_a, p.bunch_b))
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
