"""Random-state builders and hand-rolled oracles shared across test modules.

The oracles include the reduction's stage-by-stage projector route: a
plain numpy partial trace (traced_onto), then logical_index,
build_projector and compress_operator. The package takes both stages,
partial_trace included, through one gather, and the spin flip through
one stacked chain per gather task. The gate helpers (on_qubits,
relabelled) act on a state as local unitaries and qubit permutations do.
Random builders take an explicit numpy Generator so seeds stay visible at
the call sites.
"""

from itertools import product

import numpy as np

from bunchent import (
    BunchPartition,
    DensityMatrix,
    EntanglementReport,
    PatternPair,
    StateVector,
    densify,
    embedded_bell,
    enumerate_partitions,
    enumerate_patterns,
    ghz,
    mix,
    normalize,
)
from bunchent.bunching import _plan
from bunchent.measures import _SPIN_FLIP, _measure_splits

_LOGICAL_ORDER = ((0, 0), (0, 1), (1, 0), (1, 1))

X_GATE = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
Z_GATE = np.diag([1.0, -1.0]).astype(np.complex128)


def phase_gate(phi: float) -> np.ndarray:
    return np.diag([1.0, np.exp(1j * phi)])


def random_gate(rng: np.random.Generator) -> np.ndarray:
    """A Haar-random single-qubit unitary."""
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def on_qubits(rho: DensityMatrix, labels, gate: np.ndarray) -> DensityMatrix:
    """U rho U^dagger for U the single-qubit gate on each of `labels`."""
    op = np.ones((1, 1))
    for x in range(1, rho.n_qubits + 1):
        op = np.kron(op, gate if x in labels else np.eye(2))
    return DensityMatrix(rho.n_qubits, op @ rho.entries @ op.conj().T)


def relabelled(rho: DensityMatrix, perm: dict[int, int]) -> DensityMatrix:
    """The state with qubit x moved to qubit perm[x], perm a bijection of 1..n."""
    n = rho.n_qubits
    axes = [x - 1 for x in sorted(perm, key=perm.get)]  # new axis j holds old axis axes[j]
    moved = rho.entries.reshape((2,) * 2 * n).transpose(axes + [n + a for a in axes])
    return DensityMatrix(n, moved.reshape(2 ** n, 2 ** n))


def traced_onto(rho: DensityMatrix, keep: list[int]) -> np.ndarray:
    """The partial trace onto ascending `keep` by plain numpy, apart from
    the package's gather: the kept qubits moved first, the rest traced out."""
    rest = [x for x in range(1, rho.n_qubits + 1) if x not in keep]
    moved = relabelled(rho, {x: t for t, x in enumerate(keep + rest, 1)}).entries
    dk, dr = 2 ** len(keep), 2 ** len(rest)
    return moved.reshape(dk, dr, dk, dr).trace(axis1=1, axis2=3)


def random_pure(rng: np.random.Generator, n_qubits: int) -> StateVector:
    d = 2 ** n_qubits
    raw = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return StateVector(n_qubits, raw / np.linalg.norm(raw))


def random_mixed(rng: np.random.Generator, n_qubits: int, rank: int | None = None) -> DensityMatrix:
    """Full-rank (or rank-limited) state from a Gram matrix G G^dagger."""
    d = 2 ** n_qubits
    r = d if rank is None else rank
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    gram = g @ g.conj().T
    return DensityMatrix(n_qubits, gram / gram.trace().real)


def sparse_state(
    rng: np.random.Generator, n_qubits: int, pure: bool
) -> StateVector | DensityMatrix:
    """A state holding exact zeros: GHZ and a two-branch state on random
    labels, superposed with a random complex weight (pure) or mixed."""
    size = int(rng.integers(2, n_qubits + 1))
    subset = sorted(int(x) + 1 for x in rng.permutation(n_qubits)[:size])
    branch = embedded_bell(n_qubits, subset, int(rng.integers(1, len(subset))))
    if pure:
        weight = complex(rng.standard_normal(), rng.standard_normal())
        return normalize(ghz(n_qubits).amplitudes + weight * branch.amplitudes)
    weight = float(rng.uniform(0.1, 0.9))
    return mix([(weight, densify(ghz(n_qubits))), (1.0 - weight, densify(branch))])


def entangled_mixture(rng: np.random.Generator, n_qubits: int, subset: list[int]) -> DensityMatrix:
    """0.85 of a two-branch state on `subset` (or of GHZ when the subset is
    every qubit) and 0.15 of a random rank-2 state: a full cover of the
    subset reduces to C > 0, where random states almost always give C = 0."""
    subset = sorted(subset)
    if len(subset) == n_qubits and rng.integers(2):
        branch = ghz(n_qubits)
    else:
        branch = embedded_bell(n_qubits, subset, int(rng.integers(1, len(subset))))
    return mix([(0.85, branch), (0.15, random_mixed(rng, n_qubits, 2))])


def label_pairs(parts: list[BunchPartition]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Splits as the (bunch A, bunch B) label tuples the survey's internals take."""
    return [(p.bunch_a, p.bunch_b) for p in parts]


def chained_states(chain, n_qubits: int, parts: list[BunchPartition]) -> list[np.ndarray]:
    """Each split's rho_AB as a spy on measures._chain saw it: one call per _plan task of
    `parts`, in task order, each a (S, 4, 4) stack of its task's members."""
    tasks = list(_plan(n_qubits, label_pairs(parts)))
    assert chain.call_count == len(tasks)
    states = [None] * len(parts)
    for (members, *_), call in zip(tasks, chain.call_args_list):
        assert call.args[0].shape == (len(members), 4, 4)
        for k, rho_ab in zip(members, call.args[0]):
            states[k] = rho_ab
    assert all(rho_ab is not None for rho_ab in states)
    return states


def measured(state, parts: list[BunchPartition]) -> list:
    """The reports a survey makes of `parts`: one table of arrays, then a report per row."""
    heads, etas, offsets = _measure_splits(state, label_pairs(parts))
    etas, bounds = etas.tolist(), offsets.tolist()
    return [EntanglementReport(c, e, tuple(lambdas), p, tuple(etas[lo:hi]))
            for (c, e, *lambdas), p, lo, hi in zip(heads.tolist(), parts, bounds, bounds[1:])]


def random_partition(rng: np.random.Generator, n_qubits: int) -> BunchPartition:
    pool = enumerate_partitions(n_qubits)
    return pool[int(rng.integers(len(pool)))]


def random_split(rng: np.random.Generator, n_qubits: int) -> BunchPartition:
    """Any bunch sizes, any anchors, partial covers included."""
    labels = [int(x) + 1 for x in rng.permutation(n_qubits)[: int(rng.integers(2, n_qubits + 1))]]
    cut = int(rng.integers(1, len(labels)))
    return BunchPartition(tuple(labels[:cut]), tuple(labels[cut:]))


def logical_index(partition: BunchPartition, pattern: PatternPair, i: int, j: int) -> int:
    """Basis index carrying logical value i on bunch A and j on bunch B.

    The partition must span qubits 1..(m+n) exactly, i.e. the reduction to
    the bunched qubits has already been applied. Anchors take the logical
    value directly; other members take it xor their flip bit.
    """
    size = partition.m + partition.n
    bits = [0] * size
    bits[partition.bunch_a[0] - 1] = i
    for lab, flip in zip(partition.bunch_a[1:], pattern.mask_a):
        bits[lab - 1] = i ^ flip
    bits[partition.bunch_b[0] - 1] = j
    for lab, flip in zip(partition.bunch_b[1:], pattern.mask_b):
        bits[lab - 1] = j ^ flip
    return sum(bit << (size - k) for k, bit in enumerate(bits, 1))


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


def compress_operator(operator, partition: BunchPartition, pattern: PatternPair) -> np.ndarray:
    """Compress a 2^(m+n) operator onto a pattern subspace by bit indexing:
    build_projector(...) @ operator @ build_projector(...).conj().T."""
    mat = np.asarray(getattr(operator, "entries", operator), dtype=np.complex128)
    idx = [logical_index(partition, pattern, i, j) for i, j in _LOGICAL_ORDER]
    return mat[np.ix_(idx, idx)]


def spin_flip(rho) -> np.ndarray:
    """Spin-flipped companion (sigma_y x sigma_y) conj(rho) (sigma_y x sigma_y)."""
    mat = np.asarray(getattr(rho, "entries", rho), dtype=np.complex128)
    return _SPIN_FLIP @ mat.conj() @ _SPIN_FLIP


def oracle_blocks(rho: DensityMatrix, part: BunchPartition) -> list[np.ndarray]:
    """traced_onto the bunched qubits, relabelled 1..m+n, then one
    compress_operator per pattern: the reduction's two stages taken apart."""
    keep = sorted(part.labels)
    pos = {lab: t + 1 for t, lab in enumerate(keep)}
    local = BunchPartition(
        tuple(pos[x] for x in part.bunch_a), tuple(pos[x] for x in part.bunch_b)
    )
    reduced = traced_onto(rho, keep)
    return [compress_operator(reduced, local, p) for p in enumerate_patterns(local)]


def tripartite_oracle(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three bunch reductions of a 3-qubit matrix, written as explicit
    index sums over the 8x8 entries. Row/column order is 2i+j with i the
    logical value of the single qubit and j the anchor of the pair."""

    def e(x, y, z, u, v, w):
        return mat[4 * x + 2 * y + z, 4 * u + 2 * v + w]

    first = np.empty((4, 4), dtype=np.complex128)
    second = np.empty((4, 4), dtype=np.complex128)
    third = np.empty((4, 4), dtype=np.complex128)
    for i, j, k, l in product((0, 1), repeat=4):
        row, col = 2 * i + j, 2 * k + l
        first[row, col] = e(i, j, j, k, l, l) + e(i, j, 1 - j, k, l, 1 - l)
        second[row, col] = e(j, i, j, l, k, l) + e(1 - j, i, j, 1 - l, k, l)
        third[row, col] = e(j, j, i, l, l, k) + e(j, 1 - j, i, l, 1 - l, k)
    return first, second, third


def ordered_reduction(
    state: StateVector | DensityMatrix, part: BunchPartition
) -> tuple[np.ndarray, np.ndarray]:
    """A split's (P, 4, 4) pattern blocks and its rho_ab, each summed one
    term at a time from +0.0: the order the printed numbers depend on.

    A block adds one 4x4 term per outsider assignment, the outsiders'
    bits counted in binary with the lowest label most significant; a
    term is the gathered 4x4 block of rho, or for a pure state the outer
    product of four amplitudes. rho_ab adds the blocks in
    enumerate_patterns order.
    """
    n = state.n_qubits
    outsiders = [x for x in range(1, n + 1) if x not in part.labels]

    def index(pattern, rest, i, j):
        bits = dict(zip(outsiders, rest))
        bits[part.bunch_a[0]], bits[part.bunch_b[0]] = i, j
        bits.update((lab, i ^ flip) for lab, flip in zip(part.bunch_a[1:], pattern.mask_a))
        bits.update((lab, j ^ flip) for lab, flip in zip(part.bunch_b[1:], pattern.mask_b))
        return sum(bit << (n - lab) for lab, bit in bits.items())

    blocks = []
    for pattern in enumerate_patterns(part):
        acc = np.zeros((4, 4), dtype=np.complex128)
        for rest in product((0, 1), repeat=len(outsiders)):
            idx = np.array([index(pattern, rest, i, j) for i, j in _LOGICAL_ORDER])
            if isinstance(state, StateVector):
                amp = state.amplitudes[idx]
                term = amp[:, None] * amp.conj()[None, :]
            else:
                term = state.entries[np.ix_(idx, idx)]
            acc = acc + term
        blocks.append(acc)
    rho_ab = np.zeros((4, 4), dtype=np.complex128)
    for block in blocks:
        rho_ab = rho_ab + block
    return np.array(blocks), rho_ab
