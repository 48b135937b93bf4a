"""Correctness oracle for survey output, written from the definitions.

It imports nothing from bunchent. The reduction onto a bunch pair is an
index permutation followed by an ordinary partial trace: each anchor XORs
its bit into the other members of its bunch (a CNOT from anchor to
member), after which a member's bit is its relative flip bit, so the
pattern-f block is the (anchor, anchor) block at member value f, traced
over every qubit outside the bunches. Concurrence is Wootters' formula
(PRL 80, 2245 (1998)) on np.linalg; EoF is h((1 + sqrt(1 - C^2)) / 2).

Labels are 1-based, qubit 1 is the most significant index bit, and the
4x4 row index is 2i + j with i the logical value of bunch A.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

TOL = 1e-9

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)


def splits(n_qubits: int, max_bunch: int | None = None, full_cover: bool = False):
    """Unordered pairs of disjoint bunches, each bunch ascending, the bunch
    with the lower first label listed first, sorted by (bunch_a, bunch_b)."""
    labels = range(1, n_qubits + 1)
    sizes = range(1, n_qubits if max_bunch is None else min(max_bunch, n_qubits - 1) + 1)
    found = []
    for size_a in sizes:
        for a in combinations(labels, size_a):
            rest = [x for x in labels if x not in a]
            for size_b in sizes:
                if full_cover and size_a + size_b != n_qubits:
                    continue
                found.extend((a, b) for b in combinations(rest, size_b) if a[0] < b[0])
    return sorted(found)


def _cnot_order(n: int, a, b):
    """Index permutation for the anchor-to-member CNOTs, and the qubit order
    (anchors, members of A, members of B, outsiders), 0-based."""
    idx = np.arange(2 ** n)
    perm = idx.copy()
    for bunch in (a, b):
        anchor_bit = (idx >> (n - bunch[0])) & 1
        for member in bunch[1:]:
            perm ^= anchor_bit << (n - member)
    inside = set(a) | set(b)
    order = [a[0], b[0], *a[1:], *b[1:], *(q for q in range(1, n + 1) if q not in inside)]
    return perm, [q - 1 for q in order]


def pattern_blocks(state: np.ndarray, a, b) -> np.ndarray:
    """Unnormalised pattern blocks, shape (patterns, 4, 4), masks in binary
    order with bunch A's members first. `state` is an amplitude vector or a
    density matrix."""
    n = state.shape[0].bit_length() - 1
    perm, order = _cnot_order(n, a, b)
    n_patterns = 2 ** (len(a) + len(b) - 2)
    n_env = 2 ** (n - len(a) - len(b))
    if state.ndim == 1:
        t = state[perm].reshape((2,) * n).transpose(order).reshape(4, n_patterns, n_env)
        return np.einsum("ife,jfe->fij", t, t.conj())
    t = state[np.ix_(perm, perm)].reshape((2,) * (2 * n))
    t = t.transpose(order + [n + q for q in order])
    t = t.reshape(4, n_patterns, n_env, 4, n_patterns, n_env)
    return np.einsum("ifejfe->fij", t)


def wootters(rho: np.ndarray) -> tuple[float, float]:
    """Concurrence and entanglement of formation of a 4x4 density matrix.

    Wootters' lambdas, the square roots of the eigenvalues of
    rho (sy x sy) rho* (sy x sy), are the singular values of
    W^T (sy x sy) W for any rho = W W^dagger. Taking singular values
    avoids square roots of rounding noise when rho is rank deficient.
    """
    w, v = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    half = v * np.sqrt(np.clip(w, 0.0, None))
    lam = np.linalg.svd(half.T @ _YY @ half, compute_uv=False)
    c = min(1.0, max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3])))
    x = (1.0 + math.sqrt(max(0.0, 1.0 - c * c))) / 2.0
    eof = -sum(t * math.log2(t) for t in (x, 1.0 - x) if t > 0.0)
    return c, eof


@dataclass(frozen=True)
class Row:
    bunch_a: tuple[int, ...]
    bunch_b: tuple[int, ...]
    concurrence: float
    eof: float
    etas: tuple[float, ...]
    exact: float | None = None   # known value of both C and EoF, if any


def expected_rows(state: np.ndarray, split_list, ghz: bool = False) -> list[Row]:
    """Oracle rows; for a GHZ state (up to a relative phase) every row also
    carries its exact value: C = EoF = 1 on full covers, 0 elsewhere."""
    n = state.shape[0].bit_length() - 1
    rows = []
    for a, b in split_list:
        blocks = pattern_blocks(state, a, b)
        etas = tuple(float(x) for x in np.einsum("fii->f", blocks).real)
        c, e = wootters(blocks.sum(axis=0))
        exact = float(len(a) + len(b) == n) if ghz else None
        rows.append(Row(a, b, c, e, etas, exact))
    return rows


def _labels(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split("-"))


def parse_rows(text: str, fmt: str) -> list[Row]:
    """Rows of a survey output file; raises ValueError on malformed text."""
    if fmt == "json":
        return [
            Row(tuple(r["bunch_a"]), tuple(r["bunch_b"]), float(r["concurrence"]),
                float(r["eof"]), tuple(float(x) for x in r["etas"]))
            for r in json.loads(text)
        ]
    reader = csv.DictReader(io.StringIO(text))
    rows = []
    for r in reader:
        a, b = _labels(r["bunch_a"]), _labels(r["bunch_b"])
        if (int(r["m"]), int(r["n"])) != (len(a), len(b)):
            raise ValueError(f"row {a}/{b}: m, n columns disagree with the labels")
        rows.append(Row(a, b, float(r["concurrence"]), float(r["eof"]),
                        tuple(float(x) for x in r["eta_list"].split(";"))))
    return rows


def row_ok(got: Row, want: Row) -> bool:
    if (got.bunch_a, got.bunch_b) != (want.bunch_a, want.bunch_b):
        return False
    if len(got.etas) != len(want.etas):
        return False
    pairs = [(got.concurrence, want.concurrence), (got.eof, want.eof), *zip(got.etas, want.etas)]
    if want.exact is not None:
        pairs += [(x, want.exact) for x in (got.concurrence, got.eof, want.concurrence, want.eof)]
    return all(abs(x - y) <= TOL for x, y in pairs)


def count_failed(text: str, fmt: str, want: list[Row]) -> int:
    """Expected rows that are missing, malformed or wrong in `text`.

    Rows are matched by position. A file that does not parse fails every
    row; surplus rows count as failures too, up to the expected count."""
    try:
        got = parse_rows(text, fmt)
    except (ValueError, KeyError, TypeError, AttributeError):
        return len(want)
    bad = sum(not row_ok(g, w) for g, w in zip(got, want))
    return min(len(want), bad + abs(len(want) - len(got)))
