"""State constructors, mixtures, the partial trace, and state files.

The index convention under test: qubit 1 is the most significant bit, so
|b1 b2 ... bn> sits at index sum b_k 2^(n-k).
"""

import json
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from bunchent import (
    BunchPartition,
    CapacityError,
    DensityMatrix,
    FileFormatError,
    InvariantError,
    StateVector,
    bell_w_state,
    capacity_caps,
    densify,
    embedded_bell,
    entanglement_molecule,
    ghz,
    ket_basis,
    load_state,
    mix,
    normalize,
    partial_trace,
    save_state,
    state_defects,
    tensor,
)
from bunchent.states import read_state_file
from helpers import random_mixed, random_pure

_INV = 1.0 / np.sqrt(2.0)


def _pt_oracle(mat: np.ndarray, n: int, keep: tuple[int, ...]) -> np.ndarray:
    """Partial trace by direct bit bookkeeping, as slow and explicit as possible."""
    drop = [q for q in range(1, n + 1) if q not in keep]
    dk = 2 ** len(keep)
    out = np.zeros((dk, dk), dtype=np.complex128)
    for i in range(2 ** n):
        for j in range(2 ** n):
            ib = [(i >> (n - q)) & 1 for q in range(1, n + 1)]
            jb = [(j >> (n - q)) & 1 for q in range(1, n + 1)]
            if any(ib[q - 1] != jb[q - 1] for q in drop):
                continue
            row = col = 0
            for q in keep:
                row = 2 * row + ib[q - 1]
                col = 2 * col + jb[q - 1]
            out[row, col] += mat[i, j]
    return out


# ---------------------------------------------------------------------------
# constructors

def test_ket_basis_index():
    psi = ket_basis(3, [1, 0, 1])
    assert psi.amplitudes[5] == 1.0
    assert np.count_nonzero(psi.amplitudes) == 1


def test_ket_basis_rejects_bad_bits():
    with pytest.raises(ValueError):
        ket_basis(2, [0, 2])
    with pytest.raises(ValueError):
        ket_basis(3, [0, 1])


@pytest.mark.parametrize("build, bad, good", [
    (lambda xs: BunchPartition(xs[:1], xs[1:]), (1.9, "2", 3.0), np.array([1, 2, 3])),
    (lambda xs: partial_trace(densify(ghz(3)), xs), (1.5, 2), np.array([1, 2])),
    (lambda xs: ket_basis(2, xs), (0.7, 1), np.array([0, 1])),
    (lambda xs: embedded_bell(4, xs, 1), (1.5, 3), np.array([1, 3])),
], ids=["BunchPartition", "partial_trace", "ket_basis", "embedded_bell"])
def test_integer_arguments_reject_floats_and_strings(build, bad, good):
    # int() would cut these labels and bits: 1.9 to qubit 1, 0.7 to bit 0
    with pytest.raises(TypeError):
        build(bad)
    build(good)  # numpy integers still pass


def test_normalize_scales_and_rejects():
    psi = normalize([3.0, 4.0])
    assert np.allclose(psi.amplitudes, [0.6, 0.8])
    with pytest.raises(ValueError):
        normalize([0.0, 0.0])
    with pytest.raises(ValueError):
        normalize([1.0, 0.0, 0.0])


def test_tensor_orders_first_factor_high():
    psi = tensor(ket_basis(1, [0]), ket_basis(1, [1]))
    assert psi.n_qubits == 2
    assert psi.amplitudes[1] == 1.0


def test_ghz_amplitudes():
    psi = ghz(3)
    assert psi.amplitudes[0] == pytest.approx(_INV)
    assert psi.amplitudes[7] == pytest.approx(_INV)
    assert np.count_nonzero(psi.amplitudes) == 2
    with pytest.raises(ValueError):
        ghz(1)


def test_bell_w_state_branch_indices():
    psi = bell_w_state(3, 1)
    # branches |011> and |100>
    assert psi.amplitudes[3] == pytest.approx(_INV)
    assert psi.amplitudes[4] == pytest.approx(_INV)

    psi = bell_w_state(4, 2)
    assert psi.amplitudes[3] == pytest.approx(_INV)    # |0011>
    assert psi.amplitudes[12] == pytest.approx(_INV)   # |1100>

    with pytest.raises(ValueError):
        bell_w_state(3, 0)
    with pytest.raises(ValueError):
        bell_w_state(3, 3)
    with pytest.raises(ValueError):
        bell_w_state(1, 1)

    # bell_w_state is embedded_bell over every qubit, amplitude for amplitude
    for n in range(2, 9):
        for w in range(1, n):
            full = embedded_bell(n, range(1, n + 1), w).amplitudes
            assert bell_w_state(n, w).amplitudes.tobytes() == full.tobytes()


def test_embedded_bell_places_subset():
    psi = embedded_bell(4, (2, 4), 1)
    # branches |0001> and |0100>: qubits 1 and 3 stay zero
    assert psi.amplitudes[1] == pytest.approx(_INV)
    assert psi.amplitudes[4] == pytest.approx(_INV)
    assert np.count_nonzero(psi.amplitudes) == 2


def test_embedded_bell_full_subset_matches_bellw():
    for n in (3, 4, 5):
        for w in range(1, n):
            a = embedded_bell(n, range(1, n + 1), w)
            b = bell_w_state(n, w)
            assert np.allclose(a.amplitudes, b.amplitudes)


def test_embedded_bell_validation():
    with pytest.raises(ValueError):
        embedded_bell(4, (4, 2), 1)        # not ascending
    with pytest.raises(ValueError):
        embedded_bell(4, (2, 5), 1)        # out of range
    with pytest.raises(ValueError):
        embedded_bell(4, (2, 4), 2)        # w not below subset size
    with pytest.raises(ValueError):
        embedded_bell(4, (2,), 1)


# ---------------------------------------------------------------------------
# wrappers and validation

def test_state_vector_validation():
    with pytest.raises(ValueError):
        StateVector(2, np.zeros(3))
    with pytest.raises(InvariantError):
        StateVector(1, np.array([1.0, 1.0]))
    with pytest.raises(InvariantError):
        StateVector(1, np.array([np.nan, 1.0]))
    psi = ket_basis(1, [0])
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.0  # frozen


def test_density_matrix_validation():
    with pytest.raises(InvariantError):
        DensityMatrix(1, np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(InvariantError):
        DensityMatrix(1, np.diag([0.7, 0.5]))
    with pytest.raises(InvariantError):
        DensityMatrix(1, np.diag([1.5, -0.5]))
    with pytest.raises(InvariantError):
        DensityMatrix(1, np.diag([np.nan, np.nan]))
    with pytest.raises(ValueError):
        DensityMatrix(2, np.eye(2) / 2.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: StateVector(True, [1.0, 0.0]),
        lambda: DensityMatrix(True, np.eye(2) / 2.0),
        lambda: ket_basis(True, [1]),
        lambda: ghz(True),
        lambda: bell_w_state(True, 1),
        lambda: embedded_bell(True, (1, 2), 1),
        lambda: entanglement_molecule(True, 2, 1, {(1, 2): 1.0}),
    ],
    ids=["StateVector", "DensityMatrix", "ket_basis", "ghz", "bell_w_state",
         "embedded_bell", "entanglement_molecule"],
)
def test_bool_qubit_count_rejected(build):
    # bool is an int subclass, so True would otherwise pass as one qubit
    with pytest.raises(ValueError):
        build()


@pytest.mark.filterwarnings("error")
def test_density_matrix_rejects_non_finite_before_eigensolver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigensolver reached on a non-finite matrix")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    for bad in (np.nan, np.inf):
        with pytest.raises(InvariantError, match="NaN or infinite"):
            DensityMatrix(1, [[bad, 0.0], [0.0, 1.0]])


def _defects(kind, array):
    return {name: (defect, holds) for name, defect, holds, _ in state_defects(kind, array)}


def test_state_defects_clean_state():
    defects = _defects("mixed", np.diag([0.5, 0.5]))
    assert list(defects) == ["hermiticity_defect", "trace_defect", "min_eigenvalue"]
    assert defects["hermiticity_defect"] == (0.0, True)
    assert defects["trace_defect"] == (0.0, True)
    assert defects["min_eigenvalue"][0] == pytest.approx(0.5)
    assert _defects("pure", np.array([_INV, _INV])) == {"norm_defect": (pytest.approx(0.0), True)}


def test_state_defects_reports_defects():
    asym = np.array([[1.0, 0.2], [0.0, 0.0]])
    defects = _defects("mixed", asym)
    assert defects["hermiticity_defect"] == (pytest.approx(0.2), False)
    assert defects["trace_defect"] == (0.0, True)
    assert defects["min_eigenvalue"][0] < 0.0
    assert not defects["min_eigenvalue"][1]

    off_trace = np.diag([0.6, 0.5])
    assert _defects("mixed", off_trace)["trace_defect"] == (pytest.approx(0.1), False)
    assert _defects("pure", np.array([1.0, 1.0]))["norm_defect"] == (pytest.approx(1.0), False)


def test_state_defects_rejects_bad_input():
    with pytest.raises(ValueError, match="square"):
        state_defects("mixed", np.zeros((2, 3)))
    with pytest.raises(ValueError, match="square"):
        state_defects("mixed", np.zeros(4))
    with pytest.raises(ValueError, match="amplitude vector"):
        state_defects("pure", np.eye(2) / np.sqrt(2.0))
    with pytest.raises(ValueError, match="kind"):
        state_defects("density", np.eye(2) / 2)


def test_densify_rank_one(rng):
    psi = random_pure(rng, 3)
    rho = densify(psi)
    assert rho.entries.trace().real == pytest.approx(1.0)
    assert np.allclose(rho.entries @ rho.entries, rho.entries)


def test_mix_validation():
    half = densify(ket_basis(1, [0]))
    other = densify(ket_basis(1, [1]))
    rho = mix([(0.5, half), (0.5, other)])
    assert np.allclose(rho.entries, np.diag([0.5, 0.5]))
    with pytest.raises(ValueError):
        mix([])
    with pytest.raises(ValueError):
        mix([(0.7, half), (0.7, other)])
    with pytest.raises(ValueError):
        mix([(0.5, half), (0.5, densify(ket_basis(2, [0, 0])))])
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            mix([(bad, half)])
        with pytest.raises(ValueError):
            mix([(0.5, half), (bad, other)])
    # pure terms are densified inside the sum, to the same bytes
    psi, phi = ghz(3), embedded_bell(3, (1, 3), 1)
    pure = mix([(0.3, psi), (0.7, phi)])
    dense = mix([(0.3, densify(psi)), (0.7, densify(phi))])
    assert pure.entries.tobytes() == dense.entries.tobytes()
    both = mix([(0.3, psi), (0.7, densify(phi))])
    assert both.entries.tobytes() == dense.entries.tobytes()


def test_molecule_is_valid_mixture():
    weights = {(1, 2, 3): 0.25, (1, 2, 4): 0.25, (1, 3, 4): 0.25, (2, 3, 4): 0.25}
    rho = entanglement_molecule(4, 3, 1, weights)
    assert rho.n_qubits == 4
    assert rho.entries.trace().real == pytest.approx(1.0)


def test_molecule_validation():
    with pytest.raises(ValueError):
        entanglement_molecule(4, 3, 1, {})
    with pytest.raises(ValueError):
        entanglement_molecule(4, 3, 1, {(1, 2): 1.0})
    # mix refuses a sum other than 1, a weight that is not positive, and NaN
    for weight in (0.5, 0.0, 1.5, float("nan")):
        with pytest.raises(ValueError):
            entanglement_molecule(4, 3, 1, {(1, 2, 3): weight})
    with pytest.raises(ValueError):
        entanglement_molecule(4, 3, 1, {(1, 2, 3): float("nan"), (2, 3, 4): 1.0})
    # two keys that normalize to the same subset
    with pytest.raises(ValueError):
        entanglement_molecule(4, 3, 1, {(1, 2, 3): 0.5, ("1", "2", "3"): 0.5})


def test_molecule_holds_one_dense_term():
    # a molecule of 70 components on 8 qubits: every dense term is 1 MiB,
    # and only the running sum and the current term are alive at once
    subsets = list(combinations(range(1, 9), 4))
    weights = {s: 1.0 / len(subsets) for s in subsets}
    tracemalloc.start()
    try:
        rho = entanglement_molecule(8, 4, 1, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    expected = sum(w * densify(embedded_bell(8, s, 1)).entries for s, w in weights.items())
    assert rho.entries.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# partial trace

def test_partial_trace_ghz_pairs():
    rho = densify(ghz(3))
    pair = partial_trace(rho, [1, 2])
    assert np.allclose(pair.entries, np.diag([0.5, 0.0, 0.0, 0.5]))
    one = partial_trace(rho, [2])
    assert np.allclose(one.entries, np.diag([0.5, 0.5]))


def test_partial_trace_recovers_product_factor(rng):
    left = random_pure(rng, 2)
    right = random_pure(rng, 1)
    rho = densify(tensor(left, right))
    got = partial_trace(rho, [1, 2])
    assert np.allclose(got.entries, densify(left).entries, atol=1e-12)


def test_partial_trace_matches_oracle(rng):
    for n in (2, 3, 4):
        rho = random_mixed(rng, n)
        for keep in ([1], [n], [1, 2], [1, n], list(range(1, n + 1))):
            keep = sorted(set(keep))
            got = partial_trace(rho, keep)
            want = _pt_oracle(rho.entries, n, tuple(keep))
            assert np.abs(got.entries - want).max() < 1e-13
            assert got.entries.trace().real == pytest.approx(1.0)


def test_partial_trace_composes(rng):
    rho = random_mixed(rng, 4)
    two_step = partial_trace(partial_trace(rho, [1, 3, 4]), [1, 3])
    one_step = partial_trace(rho, [1, 4])
    assert np.abs(two_step.entries - one_step.entries).max() < 1e-13


def test_partial_trace_validation(rng):
    rho = random_mixed(rng, 2)
    with pytest.raises(ValueError):
        partial_trace(rho, [])
    with pytest.raises(ValueError):
        partial_trace(rho, [2, 1])
    with pytest.raises(ValueError):
        partial_trace(rho, [1, 3])


# ---------------------------------------------------------------------------
# capacity

def test_pure_cap_blocks_before_allocating():
    with pytest.raises(CapacityError):
        ghz(capacity_caps()[1] + 1)
    with pytest.raises(CapacityError):
        bell_w_state(40, 1)


def test_mixed_cap_blocks_densify():
    with pytest.raises(CapacityError):
        densify(ghz(11))


def test_capacity_env_override(monkeypatch):
    monkeypatch.setenv("BUNCHENT_MAX_QUBITS", "4")
    assert capacity_caps() == (4, 4)
    with pytest.raises(CapacityError):
        ghz(5)
    monkeypatch.setenv("BUNCHENT_MAX_QUBITS", "18")
    assert capacity_caps() == (18, 18)
    monkeypatch.setenv("BUNCHENT_MAX_QUBITS", "zero")
    with pytest.raises(ValueError):
        capacity_caps()
    monkeypatch.setenv("BUNCHENT_MAX_QUBITS", "0")
    with pytest.raises(ValueError):
        capacity_caps()


# ---------------------------------------------------------------------------
# state files

def test_state_file_round_trip_pure(tmp_path, rng):
    psi = random_pure(rng, 3)
    path = tmp_path / "pure.json"
    save_state(psi, path)
    back = load_state(path)
    assert isinstance(back, StateVector)
    assert np.allclose(back.amplitudes, psi.amplitudes)


def test_state_file_round_trip_mixed(tmp_path, rng):
    rho = random_mixed(rng, 2)
    path = tmp_path / "mixed.json"
    save_state(rho, path)
    back = load_state(path)
    assert isinstance(back, DensityMatrix)
    assert np.allclose(back.entries, rho.entries)


def test_load_state_enforces_invariants(tmp_path):
    path = tmp_path / "bad_norm.json"
    payload = {"kind": "pure", "n_qubits": 1, "amplitudes": [[1.0, 0.0], [1.0, 0.0]]}
    path.write_text(json.dumps(payload))
    with pytest.raises(InvariantError):
        load_state(path)


def test_read_state_file_rejections(tmp_path):
    cases = [
        ("not json at all", FileFormatError),
        (json.dumps([1, 2, 3]), FileFormatError),
        (json.dumps({"kind": "funky"}), FileFormatError),
        (json.dumps({"kind": "pure"}), FileFormatError),
        (json.dumps({"kind": "pure", "amplitudes": "text"}), FileFormatError),
        (json.dumps({"kind": "pure", "amplitudes": [1.0, 0.0]}), FileFormatError),
        (json.dumps({"kind": "mixed", "matrix": [[[1.0, 0.0]], [[0.0, 0.0]]]}), FileFormatError),
        (json.dumps({"kind": "pure", "amplitudes": [[1.0, 0.0]] * 3}), FileFormatError),
        (json.dumps({"kind": "pure", "n_qubits": "two", "amplitudes": [[1.0, 0.0]] * 4}), FileFormatError),
        (json.dumps({"kind": "pure", "n_qubits": True, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}), FileFormatError),
        # array size against the declared n_qubits
        (json.dumps({"kind": "pure", "n_qubits": 2, "amplitudes": [[1.0, 0.0]] * 3}), FileFormatError),
        (json.dumps({"kind": "mixed", "n_qubits": 1, "matrix": [[[1 / 3, 0.0]] * 3] * 3}), FileFormatError),
        (json.dumps({"kind": "mixed", "n_qubits": 3, "matrix": [[[0.5, 0.0]] * 2] * 2}), FileFormatError),
        # Python's json reads NaN and Infinity
        (json.dumps({"kind": "pure", "amplitudes": [[float("nan"), 0.0], [1.0, 0.0]]}), FileFormatError),
        (json.dumps({"kind": "pure", "amplitudes": [[1.0, float("inf")], [0.0, 0.0]]}), FileFormatError),
        (json.dumps({"kind": "mixed", "matrix": [[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}), FileFormatError),
    ]
    for k, (text, exc) in enumerate(cases):
        path = tmp_path / f"case{k}.json"
        path.write_text(text)
        with pytest.raises(exc):
            read_state_file(path)


def test_read_state_file_infers_qubit_count(tmp_path):
    path = tmp_path / "no_n.json"
    payload = {"kind": "pure", "amplitudes": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}
    path.write_text(json.dumps(payload))
    kind, n, array = read_state_file(path)
    assert (kind, n) == ("pure", 2)
    assert array.shape == (4,)
