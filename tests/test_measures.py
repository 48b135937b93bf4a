"""Concurrence and entanglement of formation, against independent routes.

Frozen reference values:
  - Werner mixture 0.5 * Bell + 0.5 * I/4: C = 0.25,
    E_f = 0.11761887377091781
  - binary_entropy(0.8) = 0.7219280948873623
"""

import cmath
import io
import json
import math
import platform
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stdout
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bunchent import (
    BunchPartition,
    CapacityError,
    DensityMatrix,
    EntanglementReport,
    InvariantError,
    bell_w_state,
    binary_entropy,
    bunch_reduce,
    concurrence,
    densify,
    enumerate_partitions,
    eof,
    eof_bunches,
    ghz,
    mix,
    normalize,
    partial_trace,
    save_state,
    survey,
    survey_csv,
)
from bunchent import bunching, measures
from bunchent.bunching import _pattern_count
from bunchent.cli import main
from bunchent.measures import _survey_text, _table, format_float, report_json_dict
from bunchent.states import MAX_SURVEY_PATTERNS
from helpers import (chained_states, label_pairs, measured, oracle_blocks, random_gate, random_mixed, random_pure,
                     random_split, spin_flip)

_WERNER_C = 0.25
_WERNER_EOF = 0.11761887377091781


def _bell() -> DensityMatrix:
    return densify(normalize([1.0, 0.0, 0.0, 1.0]))


def _werner() -> DensityMatrix:
    return mix([(0.5, _bell()), (0.5, DensityMatrix(2, np.eye(4) / 4.0))])


def _concurrence_product_route(mat: np.ndarray) -> float:
    """Independent route: square roots of the eigenvalues of rho @ flipped."""
    vals = np.linalg.eigvals(mat @ spin_flip(mat))
    lam = np.sort(np.sqrt(np.clip(vals.real, 0.0, None)))[::-1]
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


# ---------------------------------------------------------------------------
# binary entropy and spin flip

def test_binary_entropy_anchors():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.8) == pytest.approx(0.7219280948873623, abs=1e-15)


def test_binary_entropy_symmetric(rng):
    for _ in range(20):
        x = float(rng.uniform(0.0, 1.0))
        assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-14)


def test_binary_entropy_rejects_outside_range():
    with pytest.raises(ValueError):
        binary_entropy(-0.1)
    with pytest.raises(ValueError):
        binary_entropy(1.1)
    with pytest.raises(ValueError):
        binary_entropy(float("nan"))


def test_spin_flip_involution(rng):
    rho = random_mixed(rng, 2)
    assert np.allclose(spin_flip(spin_flip(rho)), rho.entries)


def test_spin_flip_fixed_points():
    bell = _bell()
    assert np.allclose(spin_flip(bell), bell.entries)
    werner = _werner()
    assert np.allclose(spin_flip(werner), werner.entries)


# ---------------------------------------------------------------------------
# concurrence and eof

def test_bell_state_maximally_entangled():
    report = eof(_bell())
    assert report.concurrence == pytest.approx(1.0, abs=1e-12)
    assert report.eof == pytest.approx(1.0, abs=1e-12)
    assert report.lambdas[0] == pytest.approx(1.0, abs=1e-12)
    assert report.lambdas[1] == 0.0


def test_product_state_unentangled():
    report = eof(densify(normalize([1.0, 0.0, 0.0, 0.0])))
    assert report.concurrence == 0.0
    assert report.eof == 0.0


def test_diagonal_states_unentangled(rng):
    for _ in range(20):
        probs = rng.uniform(0.0, 1.0, size=4)
        probs /= probs.sum()
        assert concurrence(np.diag(probs)) == 0.0


def test_werner_frozen_values():
    report = eof(_werner())
    assert report.concurrence == pytest.approx(_WERNER_C, abs=1e-12)
    assert report.eof == pytest.approx(_WERNER_EOF, abs=1e-12)
    # cross-check against the non-symmetrized product route
    assert _concurrence_product_route(_werner().entries) == pytest.approx(_WERNER_C, abs=1e-10)


def test_pure_state_cross_term_formula(rng):
    # for amplitudes (a, b, c, d): C = 2 |a d - b c|
    for _ in range(50):
        psi = random_pure(rng, 2)
        a, b, c, d = psi.amplitudes
        want = 2.0 * abs(a * d - b * c)
        assert concurrence(densify(psi)) == pytest.approx(want, abs=1e-10)


def test_pure_state_entropy_oracle(rng):
    # E_f of a pure two-qubit state is the entropy of either marginal
    for _ in range(50):
        psi = random_pure(rng, 2)
        rho = densify(psi)
        probs = np.linalg.eigvalsh(partial_trace(rho, [1]).entries)
        entropy = float(sum(-p * math.log2(p) for p in probs if p > 1e-15))
        assert eof(rho).eof == pytest.approx(entropy, abs=1e-8)


def test_mixed_state_product_route(rng):
    for _ in range(50):
        rho = random_mixed(rng, 2)
        ours = concurrence(rho)
        ref = _concurrence_product_route(rho.entries)
        assert ours == pytest.approx(ref, abs=1e-8)


def test_local_unitary_invariance(rng):
    for _ in range(20):
        rho = random_mixed(rng, 2)
        u = np.kron(random_gate(rng), random_gate(rng))
        rotated = u @ rho.entries @ u.conj().T
        assert concurrence(rotated) == pytest.approx(concurrence(rho), abs=1e-9)


def test_eof_consistent_with_concurrence(rng):
    for _ in range(20):
        report = eof(random_mixed(rng, 2))
        want = binary_entropy((1.0 + math.sqrt(1.0 - report.concurrence**2)) / 2.0)
        assert report.eof == pytest.approx(want, abs=1e-12)
        assert report.lambdas == tuple(sorted(report.lambdas, reverse=True))


@st.composite
def _x_states(draw):
    """An X state's diagonal p and coherences z = rho_14, w = rho_23, with
    |z| <= sqrt(p1 p4) and |w| <= sqrt(p2 p3) and random phases."""
    raw = [draw(st.floats(0, 1)) for _ in range(4)]
    assume(sum(raw) > 0)
    p = tuple(x / sum(raw) for x in raw)
    z, w = (draw(st.floats(0, 1)) * math.sqrt(p[i] * p[j]) * cmath.exp(1j * draw(st.floats(0, 2 * math.pi)))
            for i, j in ((0, 3), (1, 2)))
    return p, z, w


@given(x=_x_states())
@example(x=((0.020571610413992726, 0.5297229142104177, 1.5891158289262755e-07, 0.44970531646400674),
            0.026947039576221885 + 0.055049300246102904j, 8.066001541315687e-05 + 0.00019930307150728998j))
def test_x_state_concurrence_closed_form(x):
    # Yu & Eberly (2007): C = 2 max(0, |z| - sqrt(p2 p3), |w| - sqrt(p1 p4)),
    # with lambdas sqrt(p1 p4) +- |z| and sqrt(p2 p3) +- |w|. Away from the
    # chain's floor (no lambda in (0, 1e-6)) the error grows as rho nears
    # singular: the example, whose smallest lambda is 7.5e-5, prints
    # C = 0.12200142900783344 against 0.122001429008036146, 2.0e-13 off
    p, z, w = x
    a, b = math.sqrt(p[0] * p[3]), math.sqrt(p[1] * p[2])
    lambdas = [lam for lam in (a + abs(z), abs(a - abs(z)), b + abs(w), abs(b - abs(w))) if lam]
    assume(min(lambdas, default=1.0) >= 1e-6)
    rho = np.diag(np.array(p, dtype=complex))
    rho[0, 3], rho[3, 0], rho[1, 2], rho[2, 1] = z, z.conjugate(), w, w.conjugate()
    want = 2 * max(0.0, abs(z) - b, abs(w) - a)
    assert abs(concurrence(rho) - want) <= 1e-14 + 1e-15 / min(lambdas, default=math.inf)


def _lambdas_eigen_route(mat: np.ndarray) -> np.ndarray:
    """Descending square roots of the eigenvalues of sqrt(rho) flipped(rho) sqrt(rho),
    with sqrt(rho) from np.linalg.eigh and the chain's 1e-14 floor on both spectra."""
    w, v = np.linalg.eigh(mat)
    w = np.where(w < 1e-14, 0.0, w)
    root = (v * np.sqrt(w)) @ v.conj().T
    chained = root @ spin_flip(mat) @ root
    squares = np.linalg.eigvalsh(0.5 * (chained + chained.conj().T))[::-1]
    return np.sqrt(np.where(squares < 1e-14, 0.0, squares))


def _assert_report_consistent(report: EntanglementReport) -> None:
    """What _reports makes hold by construction: C in [0, 1], lambdas
    descending, and EoF equal to h((1 + sqrt(1 - C^2)) / 2) to 1e-12."""
    assert 0.0 <= report.concurrence <= 1.0
    assert list(report.lambdas) == sorted(report.lambdas, reverse=True)
    want = binary_entropy((1.0 + math.sqrt(1.0 - report.concurrence**2)) / 2.0)
    assert abs(report.eof - want) <= 1e-12


@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
def test_tau_form_matches_eigen_route(seed, rank):
    # rank-deficient inputs leave zero columns in the tau-form factor W
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    gram = g @ g.conj().T
    mat = gram / gram.trace().real
    report = eof(mat)
    lam = np.array(report.lambdas)
    assert np.abs(lam - _lambdas_eigen_route(mat)).max() < 1e-10
    assert np.all(lam >= 0.0)
    _assert_report_consistent(report)


def _row(report: EntanglementReport) -> tuple:
    return report.partition, report.lambdas, report.etas, report.concurrence, report.eof


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 6),
    rank=st.sampled_from([1, 2, None]),
    count=st.integers(1, 6),
)
def test_batched_splits_match_single_and_reference(seed, n, rank, count):
    # eof_bunches measures a stack of one and survey each gather task's splits at
    # once, so neither the stack size nor a cut may change a single bit of any row
    rng = np.random.default_rng(seed)
    rho = random_mixed(rng, n, rank)
    parts = [random_split(rng, n) for _ in range(count)]
    with mock.patch.object(measures, "_chain", wraps=measures._chain) as chain:
        rows = measured(rho, parts)
        stack = chained_states(chain, n, parts)  # one call per task, members in task order
    assert [_row(r) for r in rows] == [_row(measured(rho, [p])[0]) for p in parts]
    bounds = [0, *sorted(int(x) for x in rng.integers(0, count + 1, size=3)), count]
    chunked = [r for lo, hi in zip(bounds, bounds[1:]) for r in measured(rho, parts[lo:hi])]
    assert [_row(r) for r in chunked] == [_row(r) for r in rows]

    # each row against the stage-by-stage reduction and the eigen route
    for part, row, rho_ab in zip(parts, rows, stack):
        blocks = oracle_blocks(rho, part)
        assert row.partition == part
        assert np.abs(np.array(row.etas) - [b.trace().real for b in blocks]).max() < 1e-13
        assert np.abs(rho_ab - sum(blocks)).max() < 1e-13
        assert np.abs(np.array(row.lambdas) - _lambdas_eigen_route(sum(blocks))).max() < 1e-10
        _assert_report_consistent(row)

    # a pure state measures to the same bits as its density matrix
    psi = random_pure(rng, n)
    assert [_row(r) for r in measured(psi, parts)] == [
        _row(r) for r in measured(densify(psi), parts)
    ]


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 7), pure=st.booleans())
def test_chunked_gather_matches_unchunked(seed, n, pure):
    # splits of mixed union sizes in random order: every chunk size, down
    # to one split per gather, must write each split's rows into its own slot
    rng = np.random.default_rng(seed)
    state = random_pure(rng, n) if pure else random_mixed(rng, n)
    parts = [random_split(rng, n) for _ in range(12)]
    rows = [_row(r) for r in measured(state, parts)]
    assert rows == [_row(measured(state, [p])[0]) for p in parts]
    # a split keeps 2^(k+2) sums, k its union's size, and 2^(n-2) row offsets, so
    # these chunks hold 1 to 7 splits of n qubits and more of smaller unions
    for entries in (1, int(rng.integers(1, 8 << (n + 2)))):
        with mock.patch.object(bunching, "_GATHER_ENTRIES", entries):
            assert [_row(r) for r in measured(state, parts)] == rows


def test_survey_gathers_in_bounded_chunks():
    # 2,211 splits of a 12-qubit state: one unchunked gather would hold
    # about 580 MB; each of its 11 tasks forms terms in blocks of 512 KiB
    psi = random_pure(np.random.default_rng(12), 12)
    tracemalloc.start()
    try:
        rows = survey(psi, max_bunch=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 2211
    assert peak < 16 * 2**20



def test_cli_survey_keeps_8_bytes_a_pattern():
    # pure-10, all 28,501 splits: the CLI's survey keeps each of its 1,205,941 pattern weights
    # in one float64 store (8 B), and per split its label pair and its (S, 6) row, about 300 B;
    # the chain measures one gather task at a time, so no whole-survey (S, 4, 4) stack or its
    # LAPACK temporaries are held (those came to about 1.5 KB a split). Reports of Python floats
    # and one whole text peaked at 114 MB (95 B a pattern) in CSV, 162 MB in JSON.
    table, peak = _traced(measures._survey_table, random_pure(np.random.default_rng(10), 10), None, False)
    splits, heads, etas, offsets = table
    assert etas.dtype == np.float64 and len(etas) == offsets[-1] == _pattern_count(10, None, False)
    assert peak < 8 * len(etas) + 512 * len(splits)
    # its writer holds one piece at a time: three pieces of text peak below 200 B an eta of one
    k = int(offsets.searchsorted(3 * measures._PIECE_ETAS))
    part = (splits[:k], heads[:k], etas[:offsets[k]], offsets[:k + 1])
    for fmt in ("csv", "json"):
        size, peak = _traced(lambda: sum(map(len, measures._survey_text(part, fmt))))
        assert size > 2**20 and peak < 200 * measures._PIECE_ETAS

def _traced(call, *args):
    """call(*args) and the peak bytes it allocated, by tracemalloc."""
    tracemalloc.start()
    try:
        return call(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_union_route_bounds_its_gathers():
    # three splits share the union 1-4 of a 14-qubit state: its 1,024
    # outsider rows of 256 entries (4 MiB) are gathered 128 rows at a time
    psi = random_pure(np.random.default_rng(14), 14)
    parts = [BunchPartition((1, 2), (3, 4)), BunchPartition((1, 3), (2, 4)), BunchPartition((1, 4), (2, 3))]
    ((_, _, columns, _, index),) = bunching._plan(14, label_pairs(parts))  # one task: one gather
    assert index is not None and len(columns[0]) == 4  # 4 member weights: the union's 16 columns
    rows, peak = _traced(measured, psi, parts)
    assert [_row(r) for r in rows] == [_row(measured(psi, [p])[0]) for p in parts]
    assert peak < 3 * 2**20
    # one pure 16-qubit pair split: 2^14 outsider rows of 16 entries (4 MiB)
    # are gathered 2,048 rows at a time on the per-split route too, so the
    # peak is about the 1 MiB block freed to lift glibc's thresholds. A first
    # call builds the cached (14, 2^14) row-bit table (1.75 MiB), not a gather.
    psi = random_pure(np.random.default_rng(16), 16)
    for reduce in (eof_bunches, bunch_reduce):
        reduce(psi, BunchPartition((3,), (11,)))
        assert _traced(reduce, psi, BunchPartition((3,), (11,)))[1] < 2 * 2**20
    # the 255 splits of the union 1-9 of a pure 11-qubit state are one task, the one kind
    # above _GATHER_ENTRIES: its 4^9 sums (4 MiB), its (255, 128, 4, 4) int64 positions
    # and the complex blocks read at them are alive at once, and nothing else of that
    # size. A first call builds the cached positions (another 4.2 MB), not the task.
    psi = random_pure(np.random.default_rng(11), 11)
    splits = label_pairs(enumerate_partitions(9, full_cover=True))
    ((_, _, columns, _, index),) = bunching._plan(11, splits)
    assert index is not None and len(columns[0]) == 9
    measures._measure_splits(psi, splits)
    assert _traced(measures._measure_splits, psi, splits)[1] < 4 ** 9 * 16 + 255 * 128 * 16 * (8 + 16) + 2**20


def test_union_route_choice():
    # the union route runs only where two or more splits share a union of
    # at most 7 qubits, or of 8 or 9 with two outsiders or more: never for
    # one split, nor for an 8-qubit full cover or a 9-qubit union of 10
    def routes(n, parts):
        return {index is not None for *_, index in bunching._plan(n, label_pairs(parts))}

    assert routes(6, [BunchPartition((1, 3), (2, 5))]) == {False}
    assert len(survey(ghz(8), full_cover=True)) == 127
    assert routes(8, enumerate_partitions(8, full_cover=True)) == {False}
    assert routes(6, enumerate_partitions(6, 2)) == {False, True}
    nine = enumerate_partitions(9, full_cover=True)  # 255 splits of the union 1..9
    assert (routes(10, nine), routes(11, nine), routes(11, nine[:1])) == ({False}, {True}, {False})


def test_survey_refuses_patterns_above_the_cap_before_enumerating():
    # a pure 16-qubit survey of every split would keep about 1.9e10 pattern
    # weights; it is refused before a single split is listed
    with mock.patch.object(measures, "_split_labels", side_effect=AssertionError("enumerated")) as listed:
        with pytest.raises(CapacityError, match="19062724648 pattern weights exceeds the cap of 16777216"):
            survey(ghz(16))
    listed.assert_not_called()
    # the cap admits mixed-10 and pure-11 surveys of every split, not pure-12
    assert _pattern_count(10, None, False) < _pattern_count(11, None, False) <= MAX_SURVEY_PATTERNS
    assert _pattern_count(12, None, False) > MAX_SURVEY_PATTERNS
    with pytest.raises(ValueError, match="max_bunch must be positive"):
        survey(ghz(3), max_bunch=0)


_FAULTS_SCRIPT = """
import resource
import numpy as np
from bunchent import StateVector, survey
rng = np.random.default_rng(12)
raw = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
psi = StateVector(12, raw / np.linalg.norm(raw))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
assert len(survey(psi, max_bunch=2)) == 2211
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc thresholds")
def test_survey_chunks_stay_in_the_heap():
    # without the threshold lift each chunk's temporaries are mapped and
    # unmapped again: about 249,000 minor faults, against about 1,200
    run = subprocess.run([sys.executable, "-c", _FAULTS_SCRIPT], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) < 25_000


def test_input_validation():
    three = random_mixed(np.random.default_rng(0), 3)
    for measure in (eof, concurrence):
        with pytest.raises(ValueError, match="expected a two-qubit state, got 3 qubits"):
            measure(three)
    with pytest.raises(ValueError):
        concurrence(np.eye(2))
    skew = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    skew[0, 1] = 0.3  # asymmetric
    with pytest.raises(InvariantError):
        concurrence(skew)
    with pytest.raises(InvariantError):
        concurrence(np.diag([1.5, -0.5, 0.0, 0.0]))
    # a raw array meets the DensityMatrix contract, PSD tolerance 1e-9 included
    near = np.diag([0.5 + 5e-10, 0.5, 0.0, -5e-10])
    raw, wrapped = eof(near), eof(DensityMatrix(2, near))
    assert (raw.concurrence, raw.eof, raw.lambdas) == (wrapped.concurrence, wrapped.eof, wrapped.lambdas)
    beyond = np.diag([0.5 + 5e-9, 0.5, 0.0, -5e-9])
    with pytest.raises(InvariantError):
        eof(beyond)
    with pytest.raises(InvariantError):
        eof(DensityMatrix(2, beyond))


@pytest.mark.filterwarnings("error")
def test_eof_rejects_non_finite_matrix():
    for bad in (np.nan, np.inf):
        with pytest.raises(InvariantError, match="NaN or infinite"):
            eof(np.full((4, 4), bad))


@pytest.mark.filterwarnings("error")
def test_concurrence_rejects_non_finite_matrix():
    rho = np.eye(4, dtype=complex) / 4.0
    for bad in (np.nan, np.inf):
        rho[0, 3] = rho[3, 0] = bad
        with pytest.raises(InvariantError, match="NaN or infinite"):
            concurrence(rho)


# ---------------------------------------------------------------------------
# bunch-level measures

def test_ghz_bunch_measures():
    rho = densify(ghz(3))
    full = eof_bunches(rho, BunchPartition((1,), (2, 3)))
    assert full.concurrence == pytest.approx(1.0, abs=1e-12)
    assert full.eof == pytest.approx(1.0, abs=1e-12)
    assert full.partition == BunchPartition((1,), (2, 3))
    assert full.etas is not None and full.etas[0] == pytest.approx(1.0, abs=1e-12)

    partial = eof_bunches(rho, BunchPartition((1,), (2,)))
    assert partial.concurrence == 0.0
    assert partial.eof == 0.0


def test_bellw_full_cover_measure():
    rho = densify(bell_w_state(4, 2))
    report = eof_bunches(rho, BunchPartition((1, 2), (3, 4)))
    assert report.concurrence == pytest.approx(1.0, abs=1e-12)
    assert report.eof == pytest.approx(1.0, abs=1e-12)


def test_survey_matches_pointwise(rng):
    rho = random_mixed(rng, 3)
    reports = survey(rho)
    assert len(reports) == 6
    for rep in reports:
        single = eof_bunches(rho, rep.partition)
        assert rep.concurrence == pytest.approx(single.concurrence, abs=1e-12)
    full = survey(rho, full_cover=True)
    assert [r.partition.labels for r in full] == [(1, 2, 3), (1, 2, 3), (1, 3, 2)]


# ---------------------------------------------------------------------------
# serialization

def test_format_float_significant_digits():
    assert format_float(0.25) == "0.25"
    assert format_float(1.0 / 3.0) == "0.333333333333"
    assert format_float(1.0) == "1"


def test_report_json_dict_keys():
    rho = densify(ghz(3))
    report = eof_bunches(rho, BunchPartition((1,), (2, 3)))
    payload = report_json_dict(report)
    assert payload["bunch_a"] == [1]
    assert payload["bunch_b"] == [2, 3]
    assert payload["concurrence"] == 1.0
    assert payload["eof"] == 1.0
    assert len(payload["lambdas"]) == 4
    assert payload["etas"][0] == 1.0

    bare = report_json_dict(eof(_bell()))
    assert "bunch_a" not in bare and "etas" not in bare


def test_survey_csv_layout():
    rho = densify(ghz(3))
    text = survey_csv(survey(rho, full_cover=True))
    lines = text.strip().split("\n")
    assert lines[0] == "bunch_a,bunch_b,m,n,concurrence,eof,eta_list"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "1"
    assert first[1] == "2-3"
    assert (first[2], first[3]) == ("1", "2")
    assert float(first[4]) == pytest.approx(1.0, abs=1e-11)
    assert ";" in first[6]
    for writer in (survey_csv, _table):  # _table: the arrays the JSON writer takes
        with pytest.raises(ValueError, match="partition context"):
            writer([eof(_bell())])


# every double, with the edges of the 12-digit rule drawn on purpose: signed
# zero, the smallest subnormal, the switch to exponent form below 1e-4, and
# the 1e11 bound below which json's repr and %.12g agree digit for digit
_REPORT_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-05, 0.0001, 99999999999.4, 1e11, 1e16]),
    st.floats(),
)


@st.composite
def _survey_reports(draw) -> list[EntanglementReport]:
    reports = []
    for _ in range(draw(st.integers(0, 3))):
        labels = draw(st.lists(st.integers(1, 64), min_size=2, max_size=32, unique=True))
        cut = draw(st.integers(max(1, len(labels) - 16), min(16, len(labels) - 1)))
        reports.append(EntanglementReport(
            draw(_REPORT_FLOATS),
            draw(_REPORT_FLOATS),
            tuple(draw(st.lists(_REPORT_FLOATS, min_size=4, max_size=4))),
            BunchPartition(tuple(labels[:cut]), tuple(labels[cut:])),
            tuple(draw(st.lists(_REPORT_FLOATS, max_size=8))),
        ))
    return reports


@given(reports=_survey_reports())
def test_survey_json_is_the_json_encoder(reports):
    expected = json.dumps([report_json_dict(r) for r in reports], indent=2) + "\n"
    assert "".join(_survey_text(_table(reports), "json")) == expected


@given(reports=_survey_reports())
def test_survey_csv_formats_each_value_as_format_float(reports):
    lines = ["bunch_a,bunch_b,m,n,concurrence,eof,eta_list"]
    for rep in reports:
        part = rep.partition
        lines.append(",".join([
            "-".join(str(x) for x in part.bunch_a), "-".join(str(x) for x in part.bunch_b),
            str(part.m), str(part.n), format_float(rep.concurrence), format_float(rep.eof),
            ";".join(format_float(e) for e in rep.etas),
        ]))
    assert survey_csv(reports) == "\n".join(lines) + "\n"


def _cli_survey(path: str, fmt: str, max_bunch: int | None, full_cover: bool) -> str:
    """What `bunchent survey` prints for these options."""
    argv = ["survey", path, "--format", fmt, *(["--max-bunch", str(max_bunch)] if max_bunch else []),
            *(["--full-cover"] if full_cover else [])]
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@settings(max_examples=30)
@given(n=st.integers(3, 7), pure=st.booleans(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_cli_survey_is_the_report_survey(n, pure, seed, data):
    # at any cap and cover: the CLI's arrays print what the public reports print, each row
    # holds eof_bunches' bits, and a survey cut into writer pieces prints as one piece
    max_bunch = data.draw(st.none() | st.integers(1, n), label="max_bunch")
    full_cover, piece = data.draw(st.booleans(), label="full_cover"), data.draw(st.integers(1, 64), label="piece")
    rng = np.random.default_rng(seed)
    state = random_pure(rng, n) if pure else random_mixed(rng, n)
    reports = survey(state, max_bunch, full_cover)
    assert [r.partition for r in reports] == enumerate_partitions(n, max_bunch, full_cover)
    for r in reports:
        want = eof_bunches(state, r.partition)
        assert np.array([r.concurrence, r.eof, *r.lambdas, *r.etas]).tobytes() == np.array(
            [want.concurrence, want.eof, *want.lambdas, *want.etas]).tobytes()
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/state.json"
        save_state(state, path)
        texts = [_cli_survey(path, fmt, max_bunch, full_cover) for fmt in ("csv", "json")]
        assert texts == [survey_csv(reports), json.dumps([report_json_dict(r) for r in reports], indent=2) + "\n"]
        with mock.patch.object(measures, "_PIECE_ETAS", piece):
            assert [_cli_survey(path, fmt, max_bunch, full_cover) for fmt in ("csv", "json")] == texts
