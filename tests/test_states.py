"""State constructors, mixtures, the partial trace, and state files.

The index convention under test: qubit 1 is the most significant bit, so
|b1 b2 ... bn> sits at index sum b_k 2^(n-k).
"""

import io
import json
import re
import tracemalloc
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    enumerate_partitions,
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
from bunchent import states
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
    (lambda cap: enumerate_partitions(4, cap), 1.5, np.int64(2)),
    (lambda w: bell_w_state(4, w), 1.5, np.int64(2)),
    (lambda key: entanglement_molecule(3, 2, 1, {key: 1.0}), (1.5, 2), tuple(np.arange(1, 3))),
], ids=["BunchPartition", "partial_trace", "ket_basis", "embedded_bell",
        "enumerate_partitions", "bell_w_state", "entanglement_molecule"])
def test_integer_arguments_reject_floats_and_strings(build, bad, good):
    # int() would cut these labels, bits and counts: 1.9 to qubit 1, 0.7 to
    # bit 0, a bunch cap or a branch width of 1.5 to 1
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


@pytest.mark.parametrize(
    "build",
    [
        lambda n: StateVector(n, np.eye(8)[5]),
        lambda n: DensityMatrix(n, np.eye(8) / 8.0),
        lambda n: ket_basis(n, [1, 0, 1]),
        lambda n: ghz(n),
        lambda n: bell_w_state(n, 1),
        lambda n: embedded_bell(n, (1, 3), 1),
    ],
    ids=["StateVector", "DensityMatrix", "ket_basis", "ghz", "bell_w_state", "embedded_bell"],
)
def test_numpy_integer_qubit_count_is_stored_as_int(build, tmp_path):
    # a count passes as labels and bunch caps do, through operator.index
    state, expected = build(np.int64(3)), build(3)
    assert type(state) is type(expected) and type(state.n_qubits) is int and state.n_qubits == 3
    field = "amplitudes" if isinstance(state, StateVector) else "entries"
    np.testing.assert_array_equal(getattr(state, field), getattr(expected, field))
    save_state(state, tmp_path / "state.json")  # json refuses an np.int64
    save_state(expected, tmp_path / "expected.json")
    assert (tmp_path / "state.json").read_bytes() == (tmp_path / "expected.json").read_bytes()


def test_float_qubit_counts_keep_their_messages():
    with pytest.raises(ValueError, match=r"^n_qubits must be a positive integer, got 3\.0$"):
        ghz(3.0)
    with pytest.raises(ValueError, match="^ghz needs at least 2 qubits, got True$"):
        ghz(True)
    with pytest.raises(ValueError, match=r"^n_qubits must be a positive integer, got 2\.0$"):
        StateVector(2.0, np.eye(4)[0])
    with pytest.raises(ValueError, match=r"^n_qubits must be a positive integer, got 3\.0$"):
        bell_w_state(3.0, 1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: ket_basis(3, [1, 0, 1]),
        lambda: ghz(4),
        lambda: embedded_bell(5, (2, 4), 1),
        lambda: bell_w_state(4, 2),
        lambda: tensor(ghz(2), ket_basis(1, [1])),
    ],
    ids=["ket_basis", "ghz", "embedded_bell", "bell_w_state", "tensor"],
)
def test_builders_skip_the_contract(build, monkeypatch):
    # their states are exact by construction: the arguments are checked, the contract is not
    def refuse(*args, **kwargs):
        raise AssertionError("state contract run on a built state")

    monkeypatch.setattr(states, "state_defects", refuse)
    psi = build()
    assert not psi.amplitudes.flags.writeable
    assert np.vdot(psi.amplitudes, psi.amplitudes).real == pytest.approx(1.0, abs=1e-15)


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
    with pytest.raises(ValueError, match="duplicate"):
        entanglement_molecule(4, 3, 1, {(1, 2, 3): 0.5, range(1, 4): 0.5})
    # labels are integers: a string key is refused, not parsed
    with pytest.raises(TypeError):
        entanglement_molecule(4, 3, 1, {("1", "2", "3"): 1.0})


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


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), data=st.data())
def test_partial_trace_reads_a_pure_state_as_its_density_matrix(seed, n, data):
    # the gather reads amplitudes without densifying, to the same bits
    psi = random_pure(np.random.default_rng(seed), n)
    keep = sorted(data.draw(st.sets(st.integers(1, n), min_size=1)))
    got, want = partial_trace(psi, keep), partial_trace(densify(psi), keep)
    assert got.n_qubits == len(keep) and got.entries.tobytes() == want.entries.tobytes()


def test_partial_trace_of_a_pure_state_beyond_the_mixed_cap():
    # [3, 11]: 2^14 outsider rows of 4 entries each, gathered in bounded
    # blocks. 1..k for k = 8, 9, 10: 2^(16 - k) rows of 2^k x 2^k entries,
    # each row summed in blocks of its term rows (2^15 entries, 512 KiB)
    # into the one result (1, 4 and 16 MiB); all rows at once
    # would take 256 MiB. A mixed 9-qubit state kept whole is one row in
    # such blocks. A first call builds the cached row-bit tables, not a
    # gather
    psi = random_pure(np.random.default_rng(16), 16)
    rho = random_mixed(np.random.default_rng(9), 9)
    for state, keep, bound in ((psi, [3, 11], 2 * 2**20), (psi, range(1, 9), 4 * 2**20),
                               (psi, range(1, 10), 6 * 2**20), (psi, range(1, 11), 18 * 2**20),
                               (rho, range(1, 10), 5.5 * 2**20)):
        partial_trace(state, keep)
        tracemalloc.start()
        try:
            reduced = partial_trace(state, keep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound
        assert abs(reduced.entries.trace() - 1.0) < 1e-12
    with pytest.raises(CapacityError, match="density matrix on 11 qubits"):
        partial_trace(psi, range(1, 12))


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


@pytest.mark.parametrize("obj", [np.eye(2) / 2.0, {"kind": "pure"}, BunchPartition((1,), (2,))],
                         ids=["ndarray", "dict", "BunchPartition"])
def test_only_states_serialize(obj, tmp_path):
    name = type(obj).__name__
    with pytest.raises(ValueError, match=f"^cannot serialize object of type {name}$"):
        states.state_payload(obj)
    with pytest.raises(ValueError, match=f"^cannot serialize object of type {name}$"):
        save_state(obj, tmp_path / "state.json")
    assert not (tmp_path / "state.json").exists()


def test_save_state_writes_the_json_dump_text(tmp_path, rng):
    # save_state writes json.dumps(payload) + "\n" in one write; the text is what
    # json.dump(payload, fh) then fh.write("\n") wrote, signed zeros and tiny values included
    psi = StateVector(1, [0.6, -0.8j])  # -0.8j has a real part of -0.0
    tiny = complex(5e-324, -0.0)
    rho = DensityMatrix(1, [[complex(0.5, -0.0), tiny], [tiny.conjugate(), 0.5]])
    expected = {
        psi: '{"kind": "pure", "n_qubits": 1, "amplitudes": [[0.6, 0.0], [-0.0, -0.8]]}\n',
        rho: '{"kind": "mixed", "n_qubits": 1, "matrix": [[[0.5, -0.0], [5e-324, -0.0]], '
             '[[5e-324, 0.0], [0.5, 0.0]]]}\n',
    }
    for state in (*expected, random_pure(rng, 4), random_mixed(rng, 3)):
        dumped = io.StringIO()
        json.dump(states.state_payload(state), dumped)
        dumped.write("\n")
        save_state(state, tmp_path / "state.json")
        text = (tmp_path / "state.json").read_bytes().decode()
        assert text == dumped.getvalue() == expected.get(state, text)


@pytest.mark.parametrize("kind", ["pure", "mixed"])
def test_load_state_checks_the_read_array_once(kind, tmp_path, rng):
    # the contract runs once, on the very array read_state_file built, which the state keeps frozen
    path = tmp_path / "state.json"
    save_state(random_pure(rng, 3) if kind == "pure" else random_mixed(rng, 3), path)
    read = []

    def reader(file):
        read.append(read_state_file(file))
        return read[-1]

    with mock.patch.object(states, "read_state_file", side_effect=reader), \
            mock.patch.object(states, "state_defects", wraps=states.state_defects) as contract:
        loaded = load_state(path)
    ((_, _, array),) = read
    assert contract.call_count == 1
    assert (loaded.amplitudes if kind == "pure" else loaded.entries) is array
    assert not array.flags.writeable


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


def _layout(path):
    """_read_layout of a file, opened as read_state_file opens it."""
    with open(path, "rb") as fh:
        return states._read_layout(fh)


@given(seed=st.integers(0, 2**32 - 1), pure=st.booleans(), data=st.data())
def test_read_state_file_reads_both_layouts_to_the_same_bits(seed, pure, data, tmp_path_factory):
    # save_state's layout takes the piecewise reader; the same payload dumped with
    # indent=1 takes json.load; kind, n and array bits agree
    rng = np.random.default_rng(seed)
    n = data.draw(st.integers(1, 6 if pure else 4))
    state = random_pure(rng, n) if pure else random_mixed(rng, n)
    folder = tmp_path_factory.mktemp("layouts")
    save_state(state, folder / "saved.json")
    with open(folder / "indented.json", "w", encoding="utf-8") as fh:
        json.dump(states.state_payload(state), fh, indent=1)
    assert _layout(folder / "saved.json") is not None
    assert _layout(folder / "indented.json") is None
    (kind, n_saved, saved), (kind_indented, n_indented, indented) = (
        read_state_file(folder / name) for name in ("saved.json", "indented.json"))
    assert (kind, n_saved) == (kind_indented, n_indented) == ("pure" if pure else "mixed", n)
    assert saved.shape == indented.shape and saved.tobytes() == indented.tobytes()


def test_read_state_file_keeps_the_json_paths_signed_zeros(tmp_path):
    # both readers build re + 1j * im, which turns an imaginary part's -0.0 into +0.0
    path = tmp_path / "zeros.json"
    path.write_text(json.dumps({"kind": "mixed", "n_qubits": 1, "matrix": [
        [[0.5, -0.0], [-0.0, -0.0]], [[-0.0, 0.0], [0.5, -0.0]]]}) + "\n")
    assert _layout(path) is not None
    _, _, array = read_state_file(path)
    with mock.patch.object(states, "_read_layout", return_value=None):
        _, _, via_json = read_state_file(path)
    assert array.tobytes() == via_json.tobytes()
    assert not np.signbit(array.imag).any()  # a view of the [re, im] pairs would keep four


def test_read_state_file_memory_is_bounded(tmp_path):
    # a mixed 9-qubit file (13 MB of text, a 4 MiB matrix) is read in pieces
    # into one float64 array; json.load's nested lists took 48.5 MiB here
    path = tmp_path / "mixed9.json"
    save_state(densify(random_pure(np.random.default_rng(9), 9)), path)
    tracemalloc.start()
    try:
        kind, n, array = read_state_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (kind, n, array.shape) == ("mixed", 9, (512, 512))
    assert peak < 4 * array.nbytes


def test_read_state_file_meets_the_cap_from_the_head(tmp_path, monkeypatch):
    # a head over its kind's cap raises _check_cap's error before any byte of
    # the body is read; json.load of the mixed 9-qubit file took 48.5 MiB here
    mixed9, pure3, truncated = tmp_path / "mixed9.json", tmp_path / "pure3.json", tmp_path / "truncated.json"
    save_state(densify(random_pure(np.random.default_rng(9), 9)), mixed9)
    save_state(random_pure(np.random.default_rng(3), 3), pure3)
    truncated.write_text('{"kind": "mixed", "n_qubits": 11, "matrix": [[[0.1, ')
    cases = [
        ("8", mixed9, "density matrix on 9 qubits exceeds the dense cap of 8"),
        ("2", pure3, "pure state on 3 qubits exceeds the dense cap of 2"),
        (None, truncated, "density matrix on 11 qubits exceeds the dense cap of 10"),
    ]
    for cap, path, message in cases:
        if cap is None:
            monkeypatch.delenv("BUNCHENT_MAX_QUBITS", raising=False)
        else:
            monkeypatch.setenv("BUNCHENT_MAX_QUBITS", cap)
        tracemalloc.start()
        try:
            with mock.patch.object(states, "_read_json", side_effect=AssertionError("json path")), \
                    pytest.raises(CapacityError, match=f"^{message}$"):
                read_state_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, path.name


def test_read_state_file_builds_nothing_for_a_body_too_short_for_its_head(tmp_path):
    # a saved mixed-2 file (about 250 bytes) whose head claims 10 qubits holds
    # fewer bytes than 2^20 entries of at least "[0.0, 0.0]" need: json.load
    # gives its message, with no array or skeleton built from the head's count
    # (that took 22.1 MiB here before the file's size was checked)
    path = tmp_path / "edited.json"
    save_state(densify(ket_basis(2, [0, 0])), path)
    path.write_text(path.read_text().replace('"n_qubits": 2', '"n_qubits": 10'))
    assert path.stat().st_size < 300
    tracemalloc.start()
    try:
        with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: dimension 4 does not match n_qubits 10$"):
            read_state_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_read_state_file_reads_the_caps_before_the_file(tmp_path, monkeypatch):
    monkeypatch.setenv("BUNCHENT_MAX_QUBITS", "abc")
    with pytest.raises(ValueError, match="^BUNCHENT_MAX_QUBITS must be an integer, got 'abc'$"):
        read_state_file(tmp_path / "missing.json")


def test_read_state_file_infers_qubit_count(tmp_path):
    path = tmp_path / "no_n.json"
    payload = {"kind": "pure", "amplitudes": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}
    path.write_text(json.dumps(payload))
    kind, n, array = read_state_file(path)
    assert (kind, n) == ("pure", 2)
    assert array.shape == (4,)
