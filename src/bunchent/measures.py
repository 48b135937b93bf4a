"""Two-qubit entanglement measures applied to bunch reductions.

Concurrence follows Wootters' tau form (PRL 80, 2245 (1998)): factor
rho = W W^dagger from its eigendecomposition, W = V sqrt(diag(w)); the
singular values l1 >= l2 >= l3 >= l4 of W^T (sigma_y x sigma_y) W are the
square roots of the eigenvalues of sqrt(rho) flipped(rho) sqrt(rho). Then
C = max(0, l1 - l2 - l3 - l4), and the entanglement of formation is
h((1 + sqrt(1 - C^2)) / 2) with h the binary entropy. Both
decompositions are LAPACK calls (np.linalg.eigh, np.linalg.svd) on a
stack of states: a survey reduces its splits in bounded chunks through
bunching._split_blocks, then measures them all with one eigh and one svd.
Its CSV and JSON tables are written directly, one template per record.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .bunching import BunchPartition, _pattern_count, _split_blocks, enumerate_partitions
from .errors import CapacityError
from .states import _CHAIN_EIG_FLOOR, _ENTROPY_SLACK, _LOG_FLOOR, MAX_SURVEY_PATTERNS, DensityMatrix, StateVector, _Record

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


class EntanglementReport(_Record):
    """Concurrence, entanglement of formation and the spin-flip spectrum,
    optionally tagged with the partition and pattern weights it came from."""

    __match_args__ = ("concurrence", "eof", "lambdas", "partition", "etas")

    def __init__(self, concurrence: float, eof: float, lambdas: tuple[float, float, float, float],
                 partition: BunchPartition | None = None, etas: tuple[float, ...] | None = None) -> None:
        super().__init__(concurrence, eof, lambdas, partition, etas)


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


def _reports(lambdas: np.ndarray, partitions: list, etas: list) -> list[EntanglementReport]:
    """One report per row of a (S, 4) stack of descending lambdas; C and
    the entropy argument are taken for the whole stack at once."""
    # l1 - l2 - l3 - l4 from the left; 0.0 second, since np.maximum(0.0, -0.0)
    # is -0.0 and np.maximum(-0.0, 0.0) is 0.0, as max(0.0, -0.0) is
    conc = np.maximum(np.minimum(np.subtract.reduce(lambdas, axis=1), 1.0), 0.0)
    arg = (np.sqrt(1.0 - conc * conc) + 1.0) / 2.0  # conc <= 1, so conc^2 <= 1
    rows = zip(conc.tolist(), arg.tolist(), lambdas.tolist(), partitions, etas)
    # binary_entropy keeps math.log2, whose bits np.log2 need not match; at 1.0 it gives 0.0
    return [EntanglementReport(c, binary_entropy(x) if x < 1.0 else 0.0, tuple(lam), part, eta)
            for c, x, lam, part, eta in rows]


def eof(rho) -> EntanglementReport:
    """Entanglement report for a two-qubit density matrix."""
    if not isinstance(rho, DensityMatrix):
        rho = DensityMatrix(2, rho)
    if rho.n_qubits != 2:
        raise ValueError(f"expected a two-qubit state, got {rho.n_qubits} qubits")
    return _reports(_spin_flip_spectrum(rho.entries[None]), [None], [None])[0]


def _measure_splits(
    state: StateVector | DensityMatrix, partitions: list[BunchPartition]
) -> list[EntanglementReport]:
    """Reports for a list of splits, in order: each chunk of
    bunching._split_blocks fills its splits' rows of one stack of rho_ab,
    and one chain runs on the whole stack."""
    stack = np.empty((len(partitions), 4, 4), dtype=np.complex128)
    etas: list = [None] * len(partitions)
    for members, blocks, weights in _split_blocks(state, partitions):
        for k, rho_ab, row in zip(members, blocks.sum(axis=1), weights):
            stack[k], etas[k] = rho_ab, tuple(row)
    return _reports(_spin_flip_spectrum(stack), partitions, etas)


def eof_bunches(
    state: StateVector | DensityMatrix, partition: BunchPartition
) -> EntanglementReport:
    """Reduce onto a bunch pair and measure the resulting two-qubit state."""
    return _measure_splits(state, [partition])[0]


def survey(
    state: StateVector | DensityMatrix, max_bunch: int | None = None, full_cover: bool = False
) -> list[EntanglementReport]:
    """Measure every bunch pair of a state, in enumeration order, within MAX_SURVEY_PATTERNS."""
    if (count := _pattern_count(state.n_qubits, max_bunch, full_cover)) > MAX_SURVEY_PATTERNS:
        raise CapacityError(f"a survey of {count} pattern weights exceeds the cap of {MAX_SURVEY_PATTERNS}; "
                            "lower --max-bunch")
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
