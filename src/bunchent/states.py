"""Multiqubit pure states, density matrices, and the standard constructions.

Index convention: qubit labels are 1-based and qubit 1 is the most
significant bit of the flattened basis index, so the basis state
|i1 i2 ... iN> lives at index sum_k i_k * 2^(N - k).

Everything is dense, but the bunch reduction never densifies a pure
state. Pure states are capped at 16 qubits and density matrices at 10;
the BUNCHENT_MAX_QUBITS environment variable sets both caps to one value.
"""

from __future__ import annotations

import json
import math
import operator
import os
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import CapacityError, FileFormatError, InvariantError

MAX_MIXED_QUBITS = 10
MAX_PURE_QUBITS = 16
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
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{CAPACITY_ENV} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{CAPACITY_ENV} must be positive, got {value}")
    return value, value


def _freeze(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _check_cap(kind: str, n_qubits: int) -> None:
    """Refuse a qubit count that is no positive int, or above its kind's cap, before allocating."""
    if not isinstance(n_qubits, int) or isinstance(n_qubits, bool) or n_qubits < 1:
        raise ValueError(f"n_qubits must be a positive integer, got {n_qubits!r}")
    mixed_cap, pure_cap = capacity_caps()
    cap, noun = (pure_cap, "pure state") if kind == "pure" else (mixed_cap, "density matrix")
    if n_qubits > cap:
        raise CapacityError(f"{noun} on {n_qubits} qubits exceeds the dense cap of {cap}")


def state_defects(kind: str, array) -> list[tuple[str, float, bool, str]]:
    """The state contract as ordered (name, defect, holds, message) rows: the
    rows `bunchent check` prints and every constructor enforces.

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
    herm = float(np.abs(m - m.conj().T).max())
    trace = float(abs(m.trace() - 1.0))
    low = float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0])
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


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state of n_qubits qubits as a flat amplitude vector.

    The amplitudes must already be normalized; use :func:`normalize` to
    build a state from a raw vector.
    """

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        _check_cap("pure", self.n_qubits)
        amps = np.array(self.amplitudes, dtype=np.complex128).reshape(-1)
        if amps.size != 2 ** self.n_qubits:
            raise ValueError(
                f"amplitude vector has length {amps.size}, expected {2 ** self.n_qubits}"
            )
        _enforce("pure", amps)
        object.__setattr__(self, "amplitudes", _freeze(amps))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Mixed state of n_qubits qubits: Hermitian, trace one, positive semidefinite."""

    n_qubits: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        _check_cap("mixed", self.n_qubits)
        mat = np.array(self.entries, dtype=np.complex128)
        d = 2 ** self.n_qubits
        if mat.shape != (d, d):
            raise ValueError(f"entries have shape {mat.shape}, expected {(d, d)}")
        _enforce("mixed", mat)
        object.__setattr__(self, "entries", _freeze(mat))


def _derived(n_qubits: int, entries: np.ndarray) -> DensityMatrix:
    """Freeze a matrix derived from validated states, without re-checking
    the contract: only densify, mix, partial_trace and bunch_reduce use it."""
    rho = object.__new__(DensityMatrix)
    object.__setattr__(rho, "n_qubits", n_qubits)
    object.__setattr__(rho, "entries", _freeze(entries))
    return rho


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
    _check_cap("pure", n_qubits)
    if any(b not in (0, 1) for b in bits):
        raise ValueError(f"bits must be 0 or 1, got {bits}")
    amps = np.zeros(2 ** n_qubits, dtype=np.complex128)
    amps[sum(b << (n_qubits - k) for k, b in enumerate(bits, 1))] = 1.0
    return StateVector(n_qubits, amps)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product; the qubits of `a` become the most significant labels."""
    _check_cap("pure", a.n_qubits + b.n_qubits)
    return StateVector(a.n_qubits + b.n_qubits, np.kron(a.amplitudes, b.amplitudes))


def ghz(n_qubits: int) -> StateVector:
    """(|00...0> + |11...1>) / sqrt(2) on n_qubits >= 2 qubits."""
    if n_qubits < 2:
        raise ValueError(f"ghz needs at least 2 qubits, got {n_qubits}")
    _check_cap("pure", n_qubits)
    amps = np.zeros(2 ** n_qubits, dtype=np.complex128)
    amps[0] = amps[-1] = 1.0 / math.sqrt(2.0)
    return StateVector(n_qubits, amps)


def bell_w_state(n_qubits: int, w: int) -> StateVector:
    """Two-branch state (|0..0 1..1> + |1..1 0..0>) / sqrt(2).

    The first branch has w leading zeros; the second is its bitwise
    complement. Requires 1 <= w < n_qubits; it is :func:`embedded_bell`
    over every qubit, which validates n_qubits and w and checks the cap.
    """
    return embedded_bell(n_qubits, range(1, n_qubits + 1), w)


def embedded_bell(m_total: int, subset: Sequence[int], w: int) -> StateVector:
    """Place the two-branch state on `subset` (ascending), rest in |0>.

    The k-th subset member receives the k-th bit of each branch, so the
    first w members carry 0 in the first branch and 1 in the second.
    """
    subset = tuple(map(operator.index, subset))
    n = len(subset)
    if n < 2:
        raise ValueError(f"subset needs at least 2 qubits, got {subset}")
    if list(subset) != sorted(set(subset)):
        raise ValueError(f"subset must be strictly ascending, got {subset}")
    if subset[0] < 1 or subset[-1] > m_total:
        raise ValueError(f"subset {subset} not contained in 1..{m_total}")
    if not (1 <= w < n):
        raise ValueError(f"w must satisfy 1 <= w < {n}, got {w}")
    _check_cap("pure", m_total)
    amps = np.zeros(2 ** m_total, dtype=np.complex128)
    for flip in (0, 1):
        index = sum(((k >= w) ^ flip) << (m_total - lab) for k, lab in enumerate(subset))
        amps[index] = 1.0 / math.sqrt(2.0)
    return StateVector(m_total, amps)


def densify(psi: StateVector) -> DensityMatrix:
    """Rank-one density matrix |psi><psi|."""
    _check_cap("mixed", psi.n_qubits)
    amps = psi.amplitudes
    return _derived(psi.n_qubits, np.outer(amps, amps.conj()))


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
    return _derived(n, sum(w * rho.entries for w, rho in zip(weights, dense)))


def entanglement_molecule(
    m_total: int, n: int, w: int, weights: Mapping[Sequence[int], float]
) -> DensityMatrix:
    """Mixture of embedded two-branch states over n-qubit subsets of 1..m_total.

    `weights` maps each ascending subset to its positive weight; the
    weights must sum to 1.
    """
    if not weights:
        raise ValueError("molecule needs at least one subset")
    _check_cap("mixed", m_total)
    terms = []
    seen: set[tuple[int, ...]] = set()
    for subset, weight in weights.items():
        key = tuple(int(s) for s in subset)
        if len(key) != n:
            raise ValueError(f"subset {key} does not have {n} elements")
        if key in seen:
            raise ValueError(f"duplicate subset {key}")
        seen.add(key)
        terms.append((weight, embedded_bell(m_total, key, w)))
    return mix(terms)


def partial_trace(rho: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Trace out every qubit not listed in `keep` (ascending labels).

    The kept qubits preserve their relative order and are relabeled
    1..len(keep) in the result.
    """
    keep = tuple(map(operator.index, keep))
    if not keep:
        raise ValueError("keep list must not be empty")
    if list(keep) != sorted(set(keep)):
        raise ValueError(f"keep labels must be strictly ascending, got {keep}")
    n = rho.n_qubits
    if keep[0] < 1 or keep[-1] > n:
        raise ValueError(f"keep labels {keep} not contained in 1..{n}")
    kept = [k - 1 for k in keep]
    kept_set = set(kept)
    tens = rho.entries.reshape((2,) * (2 * n))
    subs = list(range(n)) + [n + q if q in kept_set else q for q in range(n)]
    out = kept + [n + q for q in kept]
    reduced = np.einsum(tens, subs, out)
    d = 2 ** len(keep)
    return _derived(len(keep), reduced.reshape(d, d))


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


def save_state(state: StateVector | DensityMatrix, path) -> None:
    """Write a state to a JSON file."""
    payload = state_payload(state)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def read_state_file(path) -> tuple[str, int, np.ndarray]:
    """Parse a state file without enforcing state invariants.

    Returns (kind, n_qubits, array) where the array is the amplitude
    vector or the density matrix, of dimension 2**n_qubits. Structural problems
    raise FileFormatError, and a state above its kind's qubit cap CapacityError
    before its array is built; :func:`state_defects` holds the invariants.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise FileFormatError(f"{path}: not valid JSON ({exc})") from None
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
    array = raw[..., 0] + 1j * raw[..., 1]
    size = array.shape[0]
    if kind == "mixed" and array.shape[0] != array.shape[1]:
        raise FileFormatError(f"{path}: matrix is not square: shape {array.shape}")
    if size < 2 or size & (size - 1):
        raise FileFormatError(f"{path}: dimension {size} is not a power of two")
    if n_qubits is None:
        n_qubits = size.bit_length() - 1
    elif n_qubits != size.bit_length() - 1:
        raise FileFormatError(f"{path}: dimension {size} does not match n_qubits {n_qubits}")
    return kind, n_qubits, array


def load_state(path) -> StateVector | DensityMatrix:
    """Load and validate a state file written by :func:`save_state`."""
    kind, n_qubits, array = read_state_file(path)
    if kind == "pure":
        return StateVector(n_qubits, array)
    return DensityMatrix(n_qubits, array)
