"""Random-state builders and hand-rolled oracles shared across test modules.

Everything takes an explicit numpy Generator so seeds stay visible at the
call sites.
"""

from itertools import product

import numpy as np

from bunchent import (
    BunchPartition,
    DensityMatrix,
    StateVector,
    compress_operator,
    enumerate_partitions,
    enumerate_patterns,
    partial_trace,
)


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


def random_partition(rng: np.random.Generator, n_qubits: int) -> BunchPartition:
    pool = enumerate_partitions(n_qubits)
    return pool[int(rng.integers(len(pool)))]


def random_split(rng: np.random.Generator, n_qubits: int) -> BunchPartition:
    """Any bunch sizes, any anchors, partial covers included."""
    labels = [int(x) + 1 for x in rng.permutation(n_qubits)[: int(rng.integers(2, n_qubits + 1))]]
    cut = int(rng.integers(1, len(labels)))
    return BunchPartition(tuple(labels[:cut]), tuple(labels[cut:]))


def oracle_blocks(rho: DensityMatrix, part: BunchPartition) -> list[np.ndarray]:
    """Partial trace onto the bunched qubits, relabelled 1..m+n, then one
    compress_operator per pattern: the reduction's two stages taken apart."""
    keep = sorted(part.labels)
    pos = {lab: t + 1 for t, lab in enumerate(keep)}
    local = BunchPartition(
        tuple(pos[x] for x in part.bunch_a), tuple(pos[x] for x in part.bunch_b)
    )
    reduced = partial_trace(rho, keep)
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
