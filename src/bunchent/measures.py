"""Two-qubit entanglement measures applied to bunch reductions.

Concurrence follows Wootters' tau form (PRL 80, 2245 (1998)): factor
rho = W W^dagger from its eigendecomposition, W = V sqrt(diag(w)); the
singular values l1 >= l2 >= l3 >= l4 of W^T (sigma_y x sigma_y) W are the
square roots of the eigenvalues of sqrt(rho) flipped(rho) sqrt(rho). Then
C = max(0, l1 - l2 - l3 - l4), and the entanglement of formation is
h((1 + sqrt(1 - C^2)) / 2) with h the binary entropy. Both
decompositions are LAPACK calls (np.linalg.eigh, np.linalg.svd) on a
stack of states: a survey gathers same-size splits together, in bounded
chunks, then measures the whole list of splits with one eigh and one svd.
Its CSV and JSON tables are written directly, one template per record.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .bunching import BunchPartition, _pattern_blocks, _pattern_weights, enumerate_partitions
from .states import _CHAIN_EIG_FLOOR, _ENTROPY_SLACK, _LOG_FLOOR, DensityMatrix, StateVector

# sigma_y (x) sigma_y; real because the i factors cancel pairwise
_SPIN_FLIP = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ],
    dtype=np.complex128,
)

# complex entries one gather may hold (512 KiB): survey times matched from
# 2^14 to 2^16, and 2^16 raised a GHZ-8 full cover's peak RSS by 2.4 MB
_GATHER_ENTRIES = 2 ** 15


@dataclass(frozen=True, eq=False)
class EntanglementReport:
    """Concurrence, entanglement of formation and the spin-flip spectrum,
    optionally tagged with the partition and pattern weights it came from."""

    concurrence: float
    eof: float
    lambdas: tuple[float, float, float, float]
    partition: BunchPartition | None = None
    etas: tuple[float, ...] | None = None


def binary_entropy(x: float) -> float:
    """Binary entropy h(x) in bits, with h(0) = h(1) = 0."""
    x = float(x)
    if not -_ENTROPY_SLACK <= x <= 1.0 + _ENTROPY_SLACK:  # negated, so NaN fails
        raise ValueError(f"entropy argument {x} outside [0, 1]")
    x = min(max(x, 0.0), 1.0)
    total = 0.0
    for t in (x, 1.0 - x):
        if t > _LOG_FLOOR:
            total -= t * math.log2(t)
    return total


def _as_two_qubit(rho) -> np.ndarray:
    if not isinstance(rho, DensityMatrix):
        rho = DensityMatrix(2, rho)
    if rho.n_qubits != 2:
        raise ValueError(f"expected a two-qubit state, got {rho.n_qubits} qubits")
    return rho.entries


def spin_flip(rho) -> np.ndarray:
    """Spin-flipped companion (sigma_y x sigma_y) conj(rho) (sigma_y x sigma_y)."""
    mat = np.asarray(getattr(rho, "entries", rho), dtype=np.complex128)
    if mat.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {mat.shape}")
    return _SPIN_FLIP @ mat.conj() @ _SPIN_FLIP


def _spin_flip_spectrum(mats: np.ndarray) -> np.ndarray:
    """Descending lambdas, shape (S, 4), of a (S, 4, 4) stack of states."""
    w, v = np.linalg.eigh(mats)
    w = np.where(w < _CHAIN_EIG_FLOOR, 0.0, w)
    factor = v * np.sqrt(w)[:, None, :]   # rho = factor @ factor^dagger
    lam = np.linalg.svd(factor.swapaxes(1, 2) @ _SPIN_FLIP @ factor, compute_uv=False)
    # the floor applies to the squares, the eigenvalues of
    # sqrt(rho) flipped(rho) sqrt(rho): lambdas below 1e-7 read as exactly 0
    return np.where(lam * lam < _CHAIN_EIG_FLOOR, 0.0, lam)


def concurrence(rho) -> float:
    """Concurrence of a two-qubit density matrix (DensityMatrix or 4x4 array)."""
    return eof(rho).concurrence


def _report(
    lambdas: np.ndarray,
    partition: BunchPartition | None = None,
    etas: tuple[float, ...] | None = None,
) -> EntanglementReport:
    lam = tuple(lambdas.tolist())
    conc = max(0.0, min(1.0, lam[0] - lam[1] - lam[2] - lam[3]))
    formation = binary_entropy((1.0 + math.sqrt(max(0.0, 1.0 - conc * conc))) / 2.0)
    return EntanglementReport(conc, formation, lam, partition, etas)


def eof(rho) -> EntanglementReport:
    """Entanglement report for a two-qubit density matrix."""
    return _report(_spin_flip_spectrum(_as_two_qubit(rho)[None])[0])


def _measure_splits(
    state: StateVector | DensityMatrix, partitions: list[BunchPartition]
) -> list[EntanglementReport]:
    """Reports for a list of splits, in order: splits of one union size are
    gathered together, at most _GATHER_ENTRIES entries per gather, and each
    chunk's rows fill their splits' own slots; one chain runs on the stack.

    It first frees an untouched block twice the largest gather (1 MiB up to
    13 qubits, 8 MiB at 16); that lifts glibc's mmap and trim thresholds, so
    chunk temporaries stay in the heap, not mapped and faulted in per chunk."""
    np.empty(32 * max(_GATHER_ENTRIES, 4 << state.n_qubits), dtype=np.uint8)
    groups: dict[int, list[int]] = {}
    for k, partition in enumerate(partitions):
        groups.setdefault(len(partition.labels), []).append(k)
    step = max(1, _GATHER_ENTRIES >> (state.n_qubits + 2))  # 2^(n-2) rows of 16 per split
    stack = np.empty((len(partitions), 4, 4), dtype=np.complex128)
    etas: list = [None] * len(partitions)
    for chunk in (g[lo:lo + step] for g in groups.values() for lo in range(0, len(g), step)):
        blocks = _pattern_blocks(state, [partitions[k] for k in chunk])
        for k, rho_ab, row in zip(chunk, blocks.sum(axis=1), _pattern_weights(blocks).tolist()):
            stack[k] = rho_ab
            etas[k] = tuple(row)
    return [
        _report(lam, partition, eta)
        for lam, partition, eta in zip(_spin_flip_spectrum(stack), partitions, etas)
    ]


def eof_bunches(
    state: StateVector | DensityMatrix, partition: BunchPartition
) -> EntanglementReport:
    """Reduce onto a bunch pair and measure the resulting two-qubit state."""
    return _measure_splits(state, [partition])[0]


def survey(
    state: StateVector | DensityMatrix, max_bunch: int | None = None, full_cover: bool = False
) -> list[EntanglementReport]:
    """Measure every bunch pair of a state, in enumeration order."""
    return _measure_splits(state, enumerate_partitions(state.n_qubits, max_bunch, full_cover))


# ---------------------------------------------------------------------------
# report serialization. Survey writers fill one template per record; json writes a number as
# repr(float(format_float(x))): for 0 and 1e-300 <= |x| < 1e11, %.12g plus ".0" if no "." or "e".

def format_float(x: float) -> str:
    """Decimal form with 12 significant digits."""
    return f"{float(x):.12g}"


def report_json_dict(report: EntanglementReport) -> dict:
    """JSON-ready form of one report, floats rounded to 12 significant digits."""
    payload: dict = {
        "concurrence": float(format_float(report.concurrence)),
        "eof": float(format_float(report.eof)),
        "lambdas": [float(format_float(v)) for v in report.lambdas],
    }
    if report.partition is not None:
        payload["bunch_a"] = list(report.partition.bunch_a)
        payload["bunch_b"] = list(report.partition.bunch_b)
    if report.etas is not None:
        payload["etas"] = [float(format_float(v)) for v in report.etas]
    return payload


def survey_csv(reports: list[EntanglementReport]) -> str:
    """CSV table of survey results.

    Bunches are dash-joined label runs and eta_list is semicolon-joined,
    so every row stays a flat comma-separated record.
    """
    lines = ["bunch_a,bunch_b,m,n,concurrence,eof,eta_list"]
    for rep in reports:
        part = rep.partition
        if part is None or rep.etas is None:
            raise ValueError("survey rows need partition context")
        row = "%s,%s,%d,%d,%.12g,%.12g," + ";".join(["%.12g"] * len(rep.etas))
        lines.append(row % ("-".join(map(str, part.bunch_a)), "-".join(map(str, part.bunch_b)),
                            part.m, part.n, rep.concurrence, rep.eof, *rep.etas))
    return "\n".join(lines) + "\n"


def _json_list(items) -> str:
    return "[\n      " + ",\n      ".join(map(str, items)) + "\n    ]" if items else "[]"


_JSON_RECORD = ('  {\n    "concurrence": %s,\n    "eof": %s,\n    "lambdas": %s,\n'
                '    "bunch_a": %s,\n    "bunch_b": %s,\n    "etas": %s\n  }')


def survey_json(reports: list[EntanglementReport]) -> str:
    """Survey results as JSON: json.dumps(report_json_dict records, indent=2) + newline."""
    records = []
    for rep in reports:
        part = rep.partition
        if part is None or rep.etas is None:
            raise ValueError("survey rows need partition context")
        values = (rep.concurrence, rep.eof, *rep.lambdas, *rep.etas)
        text = [(s if "." in s or "e" in s else s + ".0")
                if 1e-300 <= abs(x) < 1e11 or x == 0.0 else json.dumps(float(s))
                for x, s in zip(values, ("%.12g " * len(values) % values).split())]
        lists = map(_json_list, (text[2:6], part.bunch_a, part.bunch_b, text[6:]))
        records.append(_JSON_RECORD % (text[0], text[1], *lists))
    return "[\n" + ",\n".join(records) + "\n]\n" if records else "[]\n"
