"""Multiqubit pure states, density matrices, and the standard constructions.

Index convention: qubit labels are 1-based and qubit 1 is the most
significant bit of the flattened basis index, so the basis state
|i1 i2 ... iN> lives at index sum_k i_k * 2^(N - k).

Everything is dense, but the bunch reduction never densifies a pure
state. Pure states are capped at 16 qubits and density matrices at 10;
the BUNCHENT_MAX_QUBITS environment variable sets both caps to one value.
"""

from __future__ import annotations

import io
import json
import math
import operator
import os
import re
from typing import Mapping, Sequence

import numpy as np

from .errors import CapacityError, FileFormatError, InvariantError

MAX_MIXED_QUBITS = 10
MAX_PURE_QUBITS = 16
MAX_SURVEY_PATTERNS = 2 ** 24  # pattern weights a survey keeps, 8 B each, beside about 300 B a split (CHANGES.md:78)
CAPACITY_ENV = "BUNCHENT_MAX_QUBITS"

# every tolerance and floor of the package
_NORM_TOL = 1e-12          # |squared norm - 1| of a pure state
_HERMITIAN_TOL = 1e-10     # density contract: max |rho - rho^dagger|
_TRACE_TOL = 1e-10         # density contract: |trace - 1|
_PSD_TOL = 1e-9            # density contract: most negative eigenvalue
_WEIGHT_TOL = 1e-12        # |sum of mixture weights - 1|
_ETA_FLOOR = 1e-14         # pattern weights below it read as exactly 0
_CHAIN_EIG_FLOOR = 1e-14   # eigenvalues and lambda^2 in the chain read as 0 below it
_ENTROPY_SLACK = 1e-12     # binary entropy accepts arguments this far outside [0, 1]
_LOG_FLOOR = 1e-300        # binary entropy terms t log t with t at or below it read as 0


def capacity_caps() -> tuple[int, int]:
    """Return the (mixed, pure) qubit caps, honoring BUNCHENT_MAX_QUBITS."""
    raw = os.environ.get(CAPACITY_ENV)
    if raw is None:
        return MAX_MIXED_QUBITS, MAX_PURE_QUBITS
    if not (raw.isascii() and raw.isdigit()):  # int() also reads "9_0", " 9", "٩"
        raise ValueError(f"{CAPACITY_ENV} must be an integer, got {raw!r}")
    value = int(raw)
    if value < 1:
        raise ValueError(f"{CAPACITY_ENV} must be positive, got {value}")
    return value, value


def _freeze(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _check_cap(kind: str, n_qubits: int) -> int:
    """Return a qubit count as a plain int, refusing one that is no positive integer (a numpy
    integer passes, a bool or float does not), or above its kind's cap, before allocating."""
    try:
        count = operator.index(n_qubits)
    except TypeError:
        count = 0
    if count < 1 or isinstance(n_qubits, bool):
        raise ValueError(f"n_qubits must be a positive integer, got {n_qubits!r}")
    mixed_cap, pure_cap = capacity_caps()
    cap, noun = (pure_cap, "pure state") if kind == "pure" else (mixed_cap, "density matrix")
    if count > cap:
        raise CapacityError(f"{noun} on {count} qubits exceeds the dense cap of {cap}")
    return count


def state_defects(kind: str, array) -> list[tuple[str, float, bool, str]]:
    """The state contract as ordered (name, defect, holds, message) rows: the
    rows `bunchent check` prints and the constructors and load_state enforce.

    A pure vector has one, its squared-norm defect. A mixed matrix has three:
    max |m - m^dagger|, |trace - 1| and the lowest eigenvalue of the Hermitian
    part (m + m^dagger) / 2. A NaN or infinite entry raises InvariantError
    before any eigensolver runs; a NaN defect fails its row. ValueError: a kind
    not "pure" or "mixed", a pure array not 1-D, a mixed one not square.
    """
    if kind not in ("pure", "mixed"):
        raise ValueError(f"kind must be 'pure' or 'mixed', got {kind!r}")
    m = np.asarray(array, dtype=np.complex128)
    if kind == "pure":
        if m.ndim != 1:
            raise ValueError(f"expected an amplitude vector, got shape {m.shape}")
        norm_defect = abs(float(np.vdot(m, m).real) - 1.0)
        return [("norm_defect", norm_defect, norm_defect <= _NORM_TOL,
                 f"squared norm deviates from 1 by {norm_defect:.3e}")]
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvariantError("matrix holds a NaN or infinite entry")
    h = m.conj().T  # the one conjugate copy; it becomes the Hermitian part in place
    herm = float(np.abs(m - h).max())
    trace = float(abs(m.trace() - 1.0))
    h += m
    low = float(np.linalg.eigvalsh(np.multiply(h, 0.5, out=h))[0])
    return [
        ("hermiticity_defect", herm, herm <= _HERMITIAN_TOL, f"not Hermitian: max asymmetry {herm:.3e}"),
        ("trace_defect", trace, trace <= _TRACE_TOL, f"trace deviates from 1 by {trace:.3e}"),
        ("min_eigenvalue", low, low >= -_PSD_TOL, f"not positive semidefinite: min eigenvalue {low:.3e}"),
    ]


def _enforce(kind: str, array: np.ndarray) -> None:
    """Raise InvariantError with the message of the first failing contract row."""
    for _, _, holds, message in state_defects(kind, array):
        if not holds:
            raise InvariantError(message)


class _Record:
    """A frozen record of the fields named in __match_args__, set once and in order by __init__ or
    _trusted: it cannot be assigned or deleted, prints as a dataclass does and compares by identity."""

    def __init__(self, *values) -> None:
        for name, value in zip(self.__match_args__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{k}={getattr(self, k)!r}' for k in self.__match_args__)})"


class StateVector(_Record):
    """Pure state of n_qubits qubits as a flat amplitude vector.

    The amplitudes must already be normalized; use :func:`normalize` to
    build a state from a raw vector.
    """

    __match_args__ = ("n_qubits", "amplitudes")

    def __init__(self, n_qubits: int, amplitudes: np.ndarray) -> None:
        n_qubits = _check_cap("pure", n_qubits)
        amps = np.array(amplitudes, dtype=np.complex128).reshape(-1)
        if amps.size != 2 ** n_qubits:
            raise ValueError(f"amplitude vector has length {amps.size}, expected {2 ** n_qubits}")
        _enforce("pure", amps)
        super().__init__(n_qubits, _freeze(amps))


class DensityMatrix(_Record):
    """Mixed state of n_qubits qubits: Hermitian, trace one, positive semidefinite."""

    __match_args__ = ("n_qubits", "entries")

    def __init__(self, n_qubits: int, entries: np.ndarray) -> None:
        n_qubits = _check_cap("mixed", n_qubits)
        mat = np.array(entries, dtype=np.complex128)
        d = 2 ** n_qubits
        if mat.shape != (d, d):
            raise ValueError(f"entries have shape {mat.shape}, expected {(d, d)}")
        _enforce("mixed", mat)
        super().__init__(n_qubits, _freeze(mat))


def _trusted(cls, **fields):
    """A StateVector, DensityMatrix or BunchPartition from fields checked where their data
    entered, or derived from checked objects: no __init__, arrays frozen in place."""
    obj = object.__new__(cls)
    for name, value in fields.items():  # vars(obj).update would build a __dict__, 150 B more each
        object.__setattr__(obj, name, _freeze(value) if isinstance(value, np.ndarray) else value)
    return obj


def normalize(amplitudes) -> StateVector:
    """Rescale a raw amplitude vector to unit norm and wrap it as a state."""
    amps = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
    if amps.size < 2 or amps.size & (amps.size - 1):
        raise ValueError(f"amplitude vector length {amps.size} is not a power of two")
    norm = float(np.linalg.norm(amps))
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return StateVector(int(math.log2(amps.size)), amps / norm)


def ket_basis(n_qubits: int, bits: Sequence[int]) -> StateVector:
    """Computational basis state |b1 b2 ... bn> with qubit 1 leftmost."""
    bits = tuple(map(operator.index, bits))
    if len(bits) != n_qubits:
        raise ValueError(f"got {len(bits)} bits for {n_qubits} qubits")
    n_qubits = _check_cap("pure", n_qubits)
    if any(b not in (0, 1) for b in bits):
        raise ValueError(f"bits must be 0 or 1, got {bits}")
    amps = np.zeros(2 ** n_qubits, dtype=np.complex128)
    amps[sum(b << (n_qubits - k) for k, b in enumerate(bits, 1))] = 1.0
    return _trusted(StateVector, n_qubits=n_qubits, amplitudes=amps)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product; the qubits of `a` become the most significant labels."""
    n = a.n_qubits + b.n_qubits
    _check_cap("pure", n)
    return _trusted(StateVector, n_qubits=n, amplitudes=np.kron(a.amplitudes, b.amplitudes))


def ghz(n_qubits: int) -> StateVector:
    """(|00...0> + |11...1>) / sqrt(2) on n_qubits >= 2 qubits."""
    if n_qubits < 2:
        raise ValueError(f"ghz needs at least 2 qubits, got {n_qubits}")
    n_qubits = _check_cap("pure", n_qubits)
    amps = np.zeros(2 ** n_qubits, dtype=np.complex128)
    amps[0] = amps[-1] = 1.0 / math.sqrt(2.0)
    return _trusted(StateVector, n_qubits=n_qubits, amplitudes=amps)


def bell_w_state(n_qubits: int, w: int) -> StateVector:
    """Two-branch state (|0..0 1..1> + |1..1 0..0>) / sqrt(2).

    The first branch has w leading zeros; the second is its bitwise
    complement. Requires 1 <= w < n_qubits. The count meets its cap before
    its labels are listed; then it is :func:`embedded_bell` over every qubit.
    """
    return embedded_bell(n_qubits, range(1, _check_cap("pure", n_qubits) + 1), w)


def embedded_bell(m_total: int, subset: Sequence[int], w: int) -> StateVector:
    """Place the two-branch state on `subset` (ascending), rest in |0>.

    The k-th subset member receives the k-th bit of each branch, so the
    first w members carry 0 in the first branch and 1 in the second.
    """
    subset, w = tuple(map(operator.index, subset)), operator.index(w)
    n = len(subset)
    if n < 2:
        raise ValueError(f"subset needs at least 2 qubits, got {subset}")
    if list(subset) != sorted(set(subset)):
        raise ValueError(f"subset must be strictly ascending, got {subset}")
    if subset[0] < 1 or subset[-1] > m_total:
        raise ValueError(f"subset {subset} not contained in 1..{m_total}")
    if not (1 <= w < n):
        raise ValueError(f"w must satisfy 1 <= w < {n}, got {w}")
    m_total = _check_cap("pure", m_total)
    amps = np.zeros(2 ** m_total, dtype=np.complex128)
    for flip in (0, 1):
        index = sum(((k >= w) ^ flip) << (m_total - lab) for k, lab in enumerate(subset))
        amps[index] = 1.0 / math.sqrt(2.0)
    return _trusted(StateVector, n_qubits=m_total, amplitudes=amps)


def densify(psi: StateVector) -> DensityMatrix:
    """Rank-one density matrix |psi><psi|."""
    _check_cap("mixed", psi.n_qubits)
    amps = psi.amplitudes
    return _trusted(DensityMatrix, n_qubits=psi.n_qubits, entries=np.outer(amps, amps.conj()))


def mix(terms: Sequence[tuple[float, StateVector | DensityMatrix]]) -> DensityMatrix:
    """Convex combination of states on a common qubit count; pure terms are
    densified one at a time inside the running sum."""
    if not terms:
        raise ValueError("mix needs at least one term")
    weights = [float(w) for w, _ in terms]
    if not all(w > 0.0 for w in weights):  # negated, so a NaN weight fails
        raise ValueError(f"mixture weights must be positive, got {weights}")
    if not abs(sum(weights) - 1.0) <= _WEIGHT_TOL:
        raise ValueError(f"mixture weights sum to {sum(weights)!r}, expected 1")
    n = terms[0][1].n_qubits
    if any(state.n_qubits != n for _, state in terms):
        raise ValueError("all mixture terms must share the same qubit count")
    dense = (densify(s) if isinstance(s, StateVector) else s for _, s in terms)
    return _trusted(DensityMatrix, n_qubits=n, entries=sum(w * rho.entries for w, rho in zip(weights, dense)))


def entanglement_molecule(
    m_total: int, n: int, w: int, weights: Mapping[Sequence[int], float]
) -> DensityMatrix:
    """Mixture of embedded two-branch states over n-qubit subsets of 1..m_total.

    `weights` maps each ascending subset to its positive weight; the
    weights must sum to 1.
    """
    if not weights:
        raise ValueError("molecule needs at least one subset")
    m_total = _check_cap("mixed", m_total)
    terms = []
    seen: set[tuple[int, ...]] = set()
    for subset, weight in weights.items():
        key = tuple(map(operator.index, subset))
        if len(key) != n:
            raise ValueError(f"subset {key} does not have {n} elements")
        if key in seen:
            raise ValueError(f"duplicate subset {key}")
        seen.add(key)
        terms.append((weight, embedded_bell(m_total, key, w)))
    return mix(terms)


# ---------------------------------------------------------------------------
# state files

def state_payload(state: StateVector | DensityMatrix) -> dict:
    """JSON-ready form of a state, with [re, im] pairs for every entry."""
    if isinstance(state, StateVector):
        kind, field, array = "pure", "amplitudes", state.amplitudes
    elif isinstance(state, DensityMatrix):
        kind, field, array = "mixed", "matrix", state.entries
    else:
        raise ValueError(f"cannot serialize object of type {type(state).__name__}")
    pairs = np.stack([array.real, array.imag], axis=-1).tolist()
    return {"kind": kind, "n_qubits": state.n_qubits, field: pairs}


def _state_text(state: StateVector | DensityMatrix) -> str:
    """The text of a state file, in the one layout _read_layout reads in pieces."""
    return json.dumps(state_payload(state)) + "\n"  # one string: json.dump feeds many small chunks


def save_state(state: StateVector | DensityMatrix, path) -> None:
    """Write a state to a JSON file."""
    text = _state_text(state)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# the layout save_state writes: json.dumps's default separators, then a newline
_LAYOUT_HEAD = re.compile(rb'\{"kind": "(pure|mixed)", "n_qubits": ([1-9][0-9]?), "(amplitudes|matrix)": ')
_NUMBER_BYTES = b"0123456789.-+eE"
_BRACKETS_AS_SPACES = bytes.maketrans(b"[]", b"  ")
_PIECE_BYTES = 2 ** 16


def _no_integer(token: str):
    raise ValueError(f"integer entry {token}")  # the json path gives integers their own dtype


def _read_layout(fh) -> tuple[str, int, np.ndarray] | None:
    """The (kind, n_qubits, [re, im] float64 array) of a seekable binary input in save_state's exact
    layout, read in 64 KiB pieces without nested lists; None or ValueError for any input it cannot
    vouch for, and CapacityError for a head that declares more qubits than its kind's cap, before the
    body is read. An input shorter than its head's count of entries needs ("[0.0, 0.0]" each) is
    None before anything is built from that count.

    Each piece ends after a "], ". Its skeleton (the piece less its number characters) must be the
    expected one at the same offset. Less its digits, it may show no empty slot ("[," or " ]"): a
    number moved out of its slot leaves one, and so does an integer. With its brackets blanked, not
    deleted, so that no two numbers join, it must parse by JSON's grammar as floats. Then every
    number is a JSON float in its own slot.
    """
    size = fh.seek(0, io.SEEK_END)
    fh.seek(0)
    text = fh.read(_PIECE_BYTES)
    head = _LAYOUT_HEAD.match(text)
    if head is None or (head[1] == b"pure") != (head[3] == b"amplitudes"):
        return None
    kind = head[1].decode()
    n_qubits = _check_cap(kind, int(head[2]))  # the declared count, before any byte of the body
    d = 2 ** n_qubits
    if size < head.end() + len(b"[0.0, 0.0]") * d ** (2 if kind == "mixed" else 1):
        return None
    skeleton = b"[" + b", ".join([b"[, ]"] * d) + b"]"
    if kind == "mixed":
        skeleton = b"[" + b", ".join([skeleton] * d) + b"]"
    raw = np.empty((d, d, 2) if kind == "mixed" else (d, 2))
    flat, done, at, text, more = raw.reshape(-1), 0, 0, text[head.end():], True
    while more:
        more = fh.read(_PIECE_BYTES)
        text += more
        cut = text.rfind(b"], ") + 3 if more else len(text) - 2  # the last piece ends before "}\n"
        piece, text = text[:cut], text[cut:]
        lean = piece.translate(None, b"0123456789")  # a float keeps a "." or an "e"
        bare = lean.translate(None, _NUMBER_BYTES)
        if (cut < 3 or skeleton[at:at + len(bare)] != bare or b"[," in lean or b" ]" in lean
                or not (more or text == b"}\n")):
            return None
        blanked = piece.translate(_BRACKETS_AS_SPACES).rstrip(b", ")
        values = json.loads(b"[%s]" % blanked, parse_int=_no_integer)
        flat[done:done + len(values)] = values
        at, done = at + len(bare), done + len(values)
    if at != len(skeleton) or done != flat.size or not np.isfinite(flat).all():
        return None
    return kind, n_qubits, raw


def read_state_file(path) -> tuple[str, int, np.ndarray]:
    """Parse a state file without enforcing state invariants (:func:`state_defects` holds them).

    Returns (kind, n_qubits, array), the amplitude vector or density matrix of dimension 2**n_qubits.
    A bad BUNCHENT_MAX_QUBITS raises ValueError before the file is opened. The file is opened once;
    an input that cannot seek, such as a pipe, is read into memory first, and both readers read the
    one handle. A file with save_state's head meets its cap (CapacityError) from the count it
    declares, before its body is read in pieces, and one too short for that count goes no further;
    any other goes through json.load and meets it from the larger of the declared and implied
    counts, before its array is built. Structural problems raise FileFormatError; both give the
    same floats.
    """
    capacity_caps()  # a bad BUNCHENT_MAX_QUBITS raises here, before the file is opened
    with open(path, "rb") as opened:
        fh = opened if opened.seekable() else io.BytesIO(opened.read())
        try:
            parsed = _read_layout(fh)
        except ValueError:  # JSON's number grammar or an integer entry in the body
            parsed = None
        kind, n_qubits, raw = parsed or _read_json(fh, path)
    return kind, n_qubits, raw[..., 0] + 1j * raw[..., 1]


def _read_json(fh, path) -> tuple[str, int, np.ndarray]:
    """read_state_file for any JSON layout, through json.load of the binary input `fh` from its
    start, read as UTF-8 text; `path` names it in messages. The array is [re, im] float64."""
    fh.seek(0)
    text = io.TextIOWrapper(fh, encoding="utf-8")
    try:
        payload = json.load(text)
    except (ValueError, RecursionError) as exc:  # bad JSON or bytes, too many digits, too deep
        raise FileFormatError(f"{path}: not valid JSON ({exc})") from None
    finally:
        text.detach()  # read_state_file's with block closes the file, not the wrapper's finaliser
    if not isinstance(payload, dict):
        raise FileFormatError(f"{path}: expected a JSON object at top level")
    kind = payload.get("kind")
    if kind not in ("pure", "mixed"):
        raise FileFormatError(f"{path}: kind must be 'pure' or 'mixed', got {kind!r}")
    field = "amplitudes" if kind == "pure" else "matrix"
    if field not in payload:
        raise FileFormatError(f"{path}: missing field {field!r}")
    n_qubits, entries = payload.get("n_qubits"), payload[field]
    if n_qubits is not None and (type(n_qubits) is not int or n_qubits < 1):  # bool is no count
        raise FileFormatError(f"{path}: n_qubits must be a positive integer")
    # the larger of the declared and the implied count: an understated n_qubits passes no big file
    _check_cap(kind, max(n_qubits or 1, len(entries).bit_length() - 1 if type(entries) is list else 1))
    try:
        raw = np.asarray(entries)  # no dtype: a float64 cast would parse strings
        if raw.dtype.kind not in "iuf":
            raise TypeError(raw.dtype)
    except (TypeError, ValueError):
        raise FileFormatError(f"{path}: field {field!r} is not a numeric array") from None
    if not np.isfinite(raw).all():
        raise FileFormatError(f"{path}: field {field!r} holds a NaN or infinite number")
    expected_ndim = 2 if kind == "pure" else 3
    if raw.ndim != expected_ndim or raw.shape[-1] != 2:
        raise FileFormatError(f"{path}: field {field!r} has shape {raw.shape}")
    size = raw.shape[0]
    if kind == "mixed" and raw.shape[0] != raw.shape[1]:
        raise FileFormatError(f"{path}: matrix is not square: shape {raw.shape[:-1]}")
    if size < 2 or size & (size - 1):
        raise FileFormatError(f"{path}: dimension {size} is not a power of two")
    if n_qubits is None:
        n_qubits = size.bit_length() - 1
    elif n_qubits != size.bit_length() - 1:
        raise FileFormatError(f"{path}: dimension {size} does not match n_qubits {n_qubits}")
    return kind, n_qubits, raw


def load_state(path) -> StateVector | DensityMatrix:
    """Load a state file written by :func:`save_state`, checking its contract once."""
    kind, n_qubits, array = read_state_file(path)
    _enforce(kind, array)
    cls, field = (StateVector, "amplitudes") if kind == "pure" else (DensityMatrix, "entries")
    return _trusted(cls, n_qubits=n_qubits, **{field: array})
