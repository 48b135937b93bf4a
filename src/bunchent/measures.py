"""Two-qubit entanglement measures applied to bunch reductions.

Concurrence follows Wootters' tau form (PRL 80, 2245 (1998)): factor
rho = W W^dagger from its eigendecomposition, W = V sqrt(diag(w)); the
singular values l1 >= l2 >= l3 >= l4 of W^T (sigma_y x sigma_y) W are the
square roots of the eigenvalues of sqrt(rho) flipped(rho) sqrt(rho). Then
C = max(0, l1 - l2 - l3 - l4), and the entanglement of formation is
h((1 + sqrt(1 - C^2)) / 2) with h the binary entropy. Both
decompositions are LAPACK calls (np.linalg.eigh, np.linalg.svd) on a
stack of states. The states come from bunching._split_blocks, which sums
each split's pattern blocks into rho_AB; no pattern block is read here. A
survey keeps its splits and results in arrays: each task's (S, 4, 4)
rho_AB stack is measured, by one eigh and one svd, into its rows of one
(S, 6) table C, EoF, l1..l4, and its etas go into one flat float64
store. One writer per format turns the arrays into CSV or JSON text in
pieces of rows; survey's reports and survey_csv's text are built from the
same arrays.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .bunching import BunchPartition, _pattern_count, _split_blocks, _split_labels
from .errors import CapacityError
from .states import (_CHAIN_EIG_FLOOR, _ENTROPY_SLACK, _LOG_FLOOR, MAX_SURVEY_PATTERNS, DensityMatrix, StateVector,
                     _Record, _trusted)

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


def concurrence(rho) -> float:
    """Concurrence of a two-qubit density matrix (DensityMatrix or 4x4 array)."""
    return eof(rho).concurrence


def _chain(mats: np.ndarray) -> np.ndarray:
    """The (S, 6) float64 rows C, EoF, l1..l4 (descending) of a (S, 4, 4) stack of states; eigh,
    svd and the matmul act per matrix and the rest elementwise, so no row's bits depend on S."""
    w, v = np.linalg.eigh(mats)
    w = np.where(w < _CHAIN_EIG_FLOOR, 0.0, w)
    factor = v * np.sqrt(w)[:, None, :]   # rho = factor @ factor^dagger
    lam = np.linalg.svd(factor.swapaxes(1, 2) @ _SPIN_FLIP @ factor, compute_uv=False)
    # the floor applies to the squares, the eigenvalues of
    # sqrt(rho) flipped(rho) sqrt(rho): lambdas below 1e-7 read as exactly 0
    lam = np.where(lam * lam < _CHAIN_EIG_FLOOR, 0.0, lam)
    # l1 - l2 - l3 - l4 from the left; 0.0 second, since np.maximum(0.0, -0.0)
    # is -0.0 and np.maximum(-0.0, 0.0) is 0.0, as max(0.0, -0.0) is
    conc = np.maximum(np.minimum(np.subtract.reduce(lam, axis=1), 1.0), 0.0)
    arg = (np.sqrt(1.0 - conc * conc) + 1.0) / 2.0  # conc <= 1, so conc^2 <= 1
    # binary_entropy keeps math.log2, whose bits np.log2 need not match; at 1.0 it gives 0.0
    return np.column_stack((conc, [binary_entropy(x) if x < 1.0 else 0.0 for x in arg.tolist()], lam))


def eof(rho) -> EntanglementReport:
    """Entanglement report for a two-qubit density matrix."""
    if not isinstance(rho, DensityMatrix):
        rho = DensityMatrix(2, rho)
    if rho.n_qubits != 2:
        raise ValueError(f"expected a two-qubit state, got {rho.n_qubits} qubits")
    ((c, e, *lambdas),) = _chain(rho.entries[None]).tolist()
    return EntanglementReport(c, e, tuple(lambdas))


def _measure_splits(state: StateVector | DensityMatrix, splits: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (heads, etas, offsets) of (bunch A, bunch B) label pairs: the (S, 6) rows C, EoF,
    l1..l4 that one chain per task fills from its rho_AB out of bunching._split_blocks, holding one
    task's blocks at a time, and one flat store with split k's 2^(m + n - 2) etas at offsets[k]:offsets[k + 1]."""
    offsets = np.cumsum([0, *(1 << len(a) + len(b) - 2 for a, b in splits)])
    heads, etas = np.empty((len(splits), 6)), np.empty(offsets[-1])
    for members, blocks, weights, rho in _split_blocks(state, splits):
        heads[members] = _chain(rho)
        etas[offsets[members][:, None] + np.arange(weights.shape[1])] = weights
        del blocks, weights, rho  # before the next task's gather, which can then reuse their memory
    return heads, etas, offsets


def eof_bunches(state: StateVector | DensityMatrix, partition: BunchPartition) -> EntanglementReport:
    """Reduce onto a bunch pair and measure the resulting two-qubit state."""
    ((_, _, (etas,), rho),) = _split_blocks(state, [(partition.bunch_a, partition.bunch_b)])  # one task
    ((c, e, *lambdas),) = _chain(rho).tolist()
    return EntanglementReport(c, e, tuple(lambdas), partition, tuple(etas.tolist()))


def _survey_table(state: StateVector | DensityMatrix, max_bunch: int | None, full_cover: bool) -> tuple:
    """A survey within MAX_SURVEY_PATTERNS as (splits, heads, etas, offsets): its label pairs in
    enumeration order, then _measure_splits' arrays."""
    if (count := _pattern_count(state.n_qubits, max_bunch, full_cover)) > MAX_SURVEY_PATTERNS:
        raise CapacityError(f"a survey of {count} pattern weights exceeds the cap of {MAX_SURVEY_PATTERNS}; "
                            "lower --max-bunch")
    splits = _split_labels(state.n_qubits, max_bunch, full_cover)
    return (splits, *_measure_splits(state, splits))


def survey(state: StateVector | DensityMatrix, max_bunch: int | None = None,
           full_cover: bool = False) -> list[EntanglementReport]:
    """Measure every bunch pair of a state, in enumeration order, within MAX_SURVEY_PATTERNS."""
    splits, heads, etas, offsets = _survey_table(state, max_bunch, full_cover)
    etas, bounds = etas.tolist(), offsets.tolist()
    return [EntanglementReport(c, e, tuple(lam), _trusted(BunchPartition, bunch_a=a, bunch_b=b), tuple(etas[lo:hi]))
            for (c, e, *lam), (a, b), lo, hi in zip(heads.tolist(), splits, bounds, bounds[1:])]


# ---------------------------------------------------------------------------
# report serialization. One writer per format turns a survey's arrays into text; survey_csv runs
# the CSV one on reports. json writes a number as repr(float(format_float(x))): for 0 and
# 1e-300 <= |x| < 1e11, %.12g plus ".0" if no "." or "e".

_PIECE_ETAS = 2 ** 15  # etas a writer formats at once (one row at least): about 0.5 MB of CSV, 1 MB of JSON


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


def _json_list(items) -> str:
    return "[\n      " + ",\n      ".join(map(str, items)) + "\n    ]" if items else "[]"


def _json_numbers(values: np.ndarray) -> list[str]:
    """The text json gives each value rounded to 12 significant digits, by the rule above."""
    text = [s if "." in s or "e" in s else s + ".0" for s in ("%.12g " * len(values) % tuple(values.tolist())).split()]
    size = np.abs(values)
    for k in np.flatnonzero(~((size >= 1e-300) & (size < 1e11) | (values == 0.0))).tolist():
        text[k] = json.dumps(float(format_float(values[k])))
    return text


_JSON_RECORD = ('  {\n    "concurrence": %s,\n    "eof": %s,\n    "lambdas": %s,\n'
                '    "bunch_a": %s,\n    "bunch_b": %s,\n    "etas": %s\n  }')


def _survey_text(table: tuple, fmt: str):
    """A survey's (splits, heads, etas, offsets) as CSV or JSON text, in pieces of whole rows in
    order, each of at most _PIECE_ETAS etas (one row at least). A piece fills its rows' templates
    by one % over their values in writing order: each row's leading heads (C and EoF, then the
    lambdas in JSON), then its etas. The first piece opens with the head and the last ends with
    the tail, so a table of one piece is one write, as a whole text was. In CSV, bunches are
    dash-joined label runs and eta_list is semicolon-joined, so every row stays a flat
    comma-separated record; JSON is json.dumps of report_json_dict records, indent=2, and "\n"."""
    splits, heads, etas, offsets = table
    sizes, bunches = np.diff(offsets).tolist(), {x for split in splits for x in split}
    if fmt == "csv":
        runs = {x: "-".join(map(str, x)) for x in bunches}
        lists = {k: ";".join(["%.12g"] * k) for k in set(sizes)}
        head, sep, tail, width, numbers = "bunch_a,bunch_b,m,n,concurrence,eof,eta_list\n", "", "", 2, np.ndarray.tolist
        record = lambda ab, k: f"{runs[ab[0]]},{runs[ab[1]]},{len(ab[0])},{len(ab[1])},%.12g,%.12g,{lists[k]}\n"
    else:
        runs = {x: _json_list(x) for x in bunches}
        lists = {k: _json_list(["%s"] * k) for k in {4, *sizes}}  # 4: the lambdas
        head, sep, tail, width, numbers = "[\n", ",\n", "\n]\n", 6, _json_numbers
        record = lambda ab, k: _JSON_RECORD % ("%s", "%s", lists[4], runs[ab[0]], runs[ab[1]], lists[k])
    if not splits:
        yield head if fmt == "csv" else "[]\n"
    bounds, lo = offsets.tolist(), 0
    while lo < len(splits):
        hi = max(lo + 1, int(offsets.searchsorted(bounds[lo] + _PIECE_ETAS, "right")) - 1)
        at = np.repeat(offsets[lo:hi] - bounds[lo], width)  # np.insert keeps equal positions in order
        values = np.insert(etas[bounds[lo]:bounds[hi]], at, heads[lo:hi, :width].ravel())
        rows = sep.join(map(record, splits[lo:hi], sizes[lo:hi])) % tuple(numbers(values))
        yield (sep if lo else head) + rows + (tail if hi == len(splits) else "")
        lo = hi


def _table(reports: list[EntanglementReport]) -> tuple:
    """The (splits, heads, etas, offsets) of survey reports, as _survey_table gives them."""
    if any(rep.partition is None or rep.etas is None for rep in reports):
        raise ValueError("survey rows need partition context")
    heads = np.array([(rep.concurrence, rep.eof, *rep.lambdas) for rep in reports], dtype=float).reshape(-1, 6)
    offsets = np.cumsum([0, *(len(rep.etas) for rep in reports)])
    etas = np.array([eta for rep in reports for eta in rep.etas], dtype=float)
    return [(rep.partition.bunch_a, rep.partition.bunch_b) for rep in reports], heads, etas, offsets


def survey_csv(reports: list[EntanglementReport]) -> str:
    """CSV table of survey results, the text the CLI writes for the same rows."""
    return "".join(_survey_text(_table(reports), "csv"))
