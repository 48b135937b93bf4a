"""End-to-end command tests, run in process through cli.main."""

import io
import json
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bunchent import densify, entanglement_molecule, ghz, load_state, save_state
from bunchent import measures, states
from bunchent.cli import _EXIT_CODES, main
from bunchent.errors import CapacityError, FileFormatError, InvariantError
from helpers import random_mixed, random_pure


@pytest.fixture(scope="module")
def ghz4(tmp_path_factory):
    path = tmp_path_factory.mktemp("states") / "ghz4.json"
    assert main(["build", "ghz", "--n", "4", "--out", str(path)]) == 0
    return str(path)


@pytest.fixture(scope="module")
def ghz3(tmp_path_factory):
    path = tmp_path_factory.mktemp("states") / "ghz3.json"
    assert main(["build", "ghz", "--n", "3", "--out", str(path)]) == 0
    return str(path)


def test_build_ghz_file_round_trip(ghz4):
    state = load_state(ghz4)
    assert state.n_qubits == 4
    assert state.amplitudes[0] == pytest.approx(2.0**-0.5)
    assert state.amplitudes[15] == pytest.approx(2.0**-0.5)


def test_build_basis_stdout(capsys):
    assert main(["build", "basis", "--bits", "101"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "pure"
    assert payload["n_qubits"] == 3
    assert payload["amplitudes"][5] == [1.0, 0.0]


@pytest.mark.parametrize("bits", ["", "01x", "1 0"])
def test_build_basis_rejects_bad_bits(bits, capsys):
    assert main(["build", "basis", "--bits", bits]) == 2
    assert capsys.readouterr().err == f"error: --bits expects a 0/1 string, got {bits!r}\n"


def test_build_bellw_and_embedded(tmp_path):
    bw = tmp_path / "bw.json"
    assert main(["build", "bellw", "--n", "4", "--w", "2", "--out", str(bw)]) == 0
    state = load_state(str(bw))
    assert state.amplitudes[3] == pytest.approx(2.0**-0.5)
    assert state.amplitudes[12] == pytest.approx(2.0**-0.5)

    emb = tmp_path / "emb.json"
    assert main(["build", "embedded", "--m", "4", "--subset", "2,4", "--w", "1", "--out", str(emb)]) == 0
    state = load_state(str(emb))
    assert state.amplitudes[1] == pytest.approx(2.0**-0.5)
    assert state.amplitudes[4] == pytest.approx(2.0**-0.5)


def test_build_molecule_uniform_and_weighted(tmp_path):
    uni = tmp_path / "uni.json"
    assert main(["build", "molecule", "--m", "4", "--n", "3", "--w", "1", "--uniform", "--out", str(uni)]) == 0
    rho = load_state(str(uni))
    assert rho.n_qubits == 4

    wtd = tmp_path / "wtd.json"
    weights = json.dumps({"1-2-3": 0.5, "2-3-4": 0.5})
    assert main(["build", "molecule", "--m", "4", "--n", "3", "--w", "1", "--weights", weights, "--out", str(wtd)]) == 0
    assert load_state(str(wtd)).n_qubits == 4


def test_eof_golden_lines(ghz4, tmp_path, monkeypatch, capsys):
    assert main(["eof", ghz4, "--a", "1", "--b", "2,3,4"]) == 0
    assert capsys.readouterr().out == "concurrence 1.000000000000\neof 1.000000000000\n"

    # "-" is the default: the same two lines, and no report file
    monkeypatch.chdir(tmp_path)
    assert main(["eof", ghz4, "--a", "1", "--b", "2,3,4", "--out", "-"]) == 0
    assert capsys.readouterr().out == "concurrence 1.000000000000\neof 1.000000000000\n"
    assert list(tmp_path.iterdir()) == []

    assert main(["eof", ghz4, "--a", "1", "--b", "2,3"]) == 0
    assert capsys.readouterr().out == "concurrence 0.000000000000\neof 0.000000000000\n"


def test_eof_report_file(ghz4, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["eof", ghz4, "--a", "1,2", "--b", "3,4", "--out", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["concurrence"] == 1.0
    assert payload["bunch_a"] == [1, 2]
    assert len(payload["etas"]) == 4


def test_reduce_report(ghz3, capsys):
    assert main(["reduce", ghz3, "--a", "1", "--b", "2,3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["bunch_a"] == [1]
    assert [e["mask_b"] for e in payload["etas"]] == ["0", "1"]
    assert payload["etas"][0]["eta"] == pytest.approx(1.0, abs=1e-12)
    assert payload["etas"][1]["eta"] == 0.0
    rho = np.array([[re + 1j * im for re, im in row] for row in payload["rho_ab"]])
    assert rho[0, 3] == pytest.approx(0.5, abs=1e-12)


def test_survey_csv_and_jobs_determinism(ghz3, ghz4, tmp_path, rng, capsys):
    assert main(["survey", ghz3, "--full-cover"]) == 0
    serial = capsys.readouterr().out
    lines = serial.strip().split("\n")
    assert lines[0].startswith("bunch_a,")
    assert len(lines) == 4
    for line in lines[1:]:
        assert float(line.split(",")[5]) == pytest.approx(1.0, abs=1e-11)

    assert main(["survey", ghz3, "--full-cover", "--jobs", "2"]) == 0
    assert capsys.readouterr().out == serial

    assert main(["survey", ghz3, "--full-cover", "--jobs", "2"]) == 0
    assert capsys.readouterr().out == serial

    # 25 splits of a mixed state
    path = tmp_path / "mixed4.json"
    save_state(random_mixed(rng, 4), path)
    assert main(["survey", str(path)]) == 0
    serial = capsys.readouterr().out
    assert serial.count("\n") == 26
    for jobs in ("2", "3"):
        assert main(["survey", str(path), "--jobs", jobs]) == 0
        assert capsys.readouterr().out == serial

    # no split at all: header only, with or without --jobs
    for jobs in ([], ["--jobs", "2"]):
        assert main(["survey", ghz4, "--full-cover", "--max-bunch", "1", *jobs]) == 0
        assert capsys.readouterr().out == "bunch_a,bunch_b,m,n,concurrence,eof,eta_list\n"


def test_survey_json_format(ghz3, capsys):
    assert main(["survey", ghz3, "--format", "json", "--max-bunch", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 3  # singleton pairs of three qubits
    assert all(row["concurrence"] == 0.0 for row in payload)


def test_check_clean_state(ghz3, tmp_path, capsys):
    # a pure file has one contract row, a mixed file three
    assert main(["check", ghz3]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert len(out) == 1 and out[0].startswith("norm_defect ")

    mixed = tmp_path / "ghz3_mixed.json"
    save_state(densify(ghz(3)), mixed)
    assert main(["check", str(mixed)]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert [line.split()[0] for line in out] == ["hermiticity_defect", "trace_defect", "min_eigenvalue"]


def test_check_flags_bad_trace(tmp_path, capsys):
    path = tmp_path / "off.json"
    payload = {"kind": "mixed", "n_qubits": 1, "matrix": [[[0.7, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}
    path.write_text(json.dumps(payload))
    assert main(["check", str(path)]) == 4
    captured = capsys.readouterr()
    assert "trace_defect" in captured.err
    assert captured.err.startswith("error: ")


def _write_state(path, kind, array):
    field = "amplitudes" if kind == "pure" else "matrix"
    pairs = np.stack([array.real, array.imag], axis=-1).tolist()
    path.write_text(json.dumps({"kind": kind, field: pairs}))


def test_check_rejects_pure_norm_band(ghz3, tmp_path, capsys):
    # squared norm 1 + 5e-11 lies inside the density trace tolerance (1e-10)
    # but outside the pure norm tolerance (1e-12): every command exits 4
    path = tmp_path / "ghz3_long.json"
    _write_state(path, "pure", load_state(ghz3).amplitudes * (1 + 5e-11) ** 0.5)
    assert main(["check", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out.startswith("norm_defect ")
    assert captured.err.startswith("error: norm_defect ") and captured.err.count("\n") == 1
    for argv in (["eof", str(path), "--a", "1", "--b", "2"], ["survey", str(path)]):
        assert main(argv) == 4
        assert "squared norm deviates from 1" in capsys.readouterr().err


# defect sizes on both sides of each tolerance: 1e-12 (squared norm),
# 1e-10 (hermiticity, trace) and 1e-9 (most negative eigenvalue)
_DEFECT_SIZES = [0.0, 3e-13, 3e-12, 5e-11, 3e-10, 5e-10, 3e-9, 1e-6]


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 3),
    defect=st.sampled_from(["norm", "hermiticity", "trace", "eigenvalue"]),
    size=st.sampled_from(_DEFECT_SIZES),
    sign=st.sampled_from([1.0, -1.0]),
)
def test_check_agrees_with_load_state(tmp_path_factory, seed, n, defect, size, sign):
    # check exits with the code of eof, which loads the file through load_state
    rng = np.random.default_rng(seed)
    path = tmp_path_factory.mktemp("contract") / "state.json"
    if defect == "norm":
        amps = random_pure(rng, n).amplitudes * (1.0 + sign * size) ** 0.5
        _write_state(path, "pure", amps)
    else:
        rho = np.array(random_mixed(rng, n).entries)
        if defect == "hermiticity":
            rho[0, 1] += sign * size
        elif defect == "trace":
            rho *= 1.0 + sign * size
        else:  # lowest eigenvalue -size, trace 1, exactly Hermitian
            w = rng.random(2 ** n)
            w[0] = -size
            w[1:] *= (1.0 + size) / w[1:].sum()
            u, _ = np.linalg.qr(rng.standard_normal(rho.shape) + 1j * rng.standard_normal(rho.shape))
            rho = (u * w) @ u.conj().T
            rho = 0.5 * (rho + rho.conj().T)
        _write_state(path, "mixed", rho)
    verdict = main(["check", str(path)])
    assert verdict in (0, 4)
    assert main(["eof", str(path), "--a", "1", "--b", "2"]) == verdict


def test_check_pure_file_at_pure_cap(tmp_path, capsys):
    # a pure file meets the pure cap (16), as in survey; its 4^16 matrix is never built
    path = tmp_path / "ghz16.json"
    assert main(["build", "ghz", "--n", "16", "--out", str(path)]) == 0
    assert main(["check", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("norm_defect ") and out.count("\n") == 1


def test_exit_code_usage_error(ghz3, capsys):
    assert main(["eof", ghz3, "--a", "1", "--b", "1,2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_usage_errors_come_before_the_file(tmp_path, monkeypatch, capsys):
    # a bad bunch pair or BUNCHENT_MAX_QUBITS exits 2 even when the file is missing
    # or malformed; the file is not opened, where it once exited 5
    garbled = tmp_path / "garbled.json"
    garbled.write_text('{"kind": "pure", "amplitudes": [[1.0, 0.0], [0.0')
    for path in (tmp_path / "missing.json", garbled):
        assert main(["eof", str(path), "--a", "1", "--b", "1"]) == 2
        assert capsys.readouterr() == ("", "error: bunches must not share or repeat labels: (1,) and (1,)\n")
        monkeypatch.setenv("BUNCHENT_MAX_QUBITS", "abc")
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr() == ("", "error: BUNCHENT_MAX_QUBITS must be an integer, got 'abc'\n")
        monkeypatch.delenv("BUNCHENT_MAX_QUBITS")


def test_survey_rejects_zero_jobs(ghz3, capsys):
    assert main(["survey", ghz3, "--jobs", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_pure_file_above_mixed_cap(tmp_path, capsys):
    # reduce, eof and survey gather a pure file's amplitudes, so a 12-qubit
    # file passes where its 4^12 density matrix would exceed the mixed cap
    path = tmp_path / "ghz12.json"
    assert main(["build", "ghz", "--n", "12", "--out", str(path)]) == 0
    assert main(["eof", str(path), "--a", "1", "--b", ",".join(str(x) for x in range(2, 13))]) == 0
    assert capsys.readouterr().out == "concurrence 1.000000000000\neof 1.000000000000\n"
    assert main(["survey", str(path), "--max-bunch", "1"]) == 0
    assert capsys.readouterr().out.count("\n") == 67  # header and 66 pairs
    assert main(["reduce", str(path), "--a", "1,2", "--b", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["bunch_b"] == [3]


def test_exit_code_capacity(tmp_path, capsys):
    assert main(["build", "ghz", "--n", "40"]) == 3
    assert "exceeds the dense cap" in capsys.readouterr().err
    # every split of GHZ-16 would keep about 1.9e10 pattern weights; should the
    # cap not hold, the survey stops at enumeration instead of running out of memory
    path = tmp_path / "ghz16.json"
    assert main(["build", "ghz", "--n", "16", "--out", str(path)]) == 0
    with mock.patch.object(measures, "enumerate_partitions", side_effect=AssertionError("enumerated")):
        assert main(["survey", str(path)]) == 3
    assert capsys.readouterr().err == (
        "error: a survey of 19062724648 pattern weights exceeds the cap of 16777216; lower --max-bunch\n")


def test_check_pure_file_capacity(ghz3, tmp_path, monkeypatch, capsys):
    # each kind meets its cap when the file is read, before any array work;
    # no command builds the outer product of a pure file
    def refuse(*args):
        raise AssertionError("array work reached past the capacity check")

    mixed = tmp_path / "ghz3_mixed.json"
    save_state(densify(ghz(3)), mixed)
    # above the cap and malformed: the cap is met first, so this exits 3, not 5
    malformed = tmp_path / "malformed.json"
    malformed.write_text(json.dumps({"kind": "mixed", "matrix": [[["x", "0"]] * 8] * 8}))
    # declaring fewer qubits than the entries hold does not lower the count the cap meets
    understated = tmp_path / "understated.json"
    understated.write_text(json.dumps({"kind": "mixed", "n_qubits": 1, "matrix": [[[0.0, 0.0]] * 8] * 8}))
    monkeypatch.setenv("BUNCHENT_MAX_QUBITS", "2")
    monkeypatch.setattr(np, "outer", refuse)
    monkeypatch.setattr(np, "asarray", refuse)
    for argv in (
        ["check", ghz3],
        ["survey", ghz3],
        ["check", str(mixed)],
        ["check", str(malformed)],
        ["check", str(understated)],
        ["survey", str(understated)],
    ):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "exceeds the dense cap of 2" in err
        assert err.count("\n") == 1


def test_exit_code_invariant(tmp_path, capsys):
    # load_state is the only check a surveyed or measured input meets
    path = tmp_path / "bad.json"
    payload = {"kind": "pure", "n_qubits": 1, "amplitudes": [[1.0, 0.0], [1.0, 0.0]]}
    path.write_text(json.dumps(payload))
    not_psd = tmp_path / "not_psd.json"
    matrix = np.diag([1.5, -0.5, 0.0, 0.0])
    payload = {"kind": "mixed", "n_qubits": 2, "matrix": [[[x, 0.0] for x in row] for row in matrix]}
    not_psd.write_text(json.dumps(payload))
    for argv in (
        ["eof", str(path), "--a", "1", "--b", "2"],
        ["reduce", str(path), "--a", "1", "--b", "2"],
        ["survey", str(path)],
        ["survey", str(not_psd)],
        ["eof", str(not_psd), "--a", "1", "--b", "2"],
    ):
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1


def test_exit_code_file_problems(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["check", str(missing)]) == 5
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["check", str(garbled)]) == 5
    capsys.readouterr()
    # undecodable bytes are a file problem too, named with the file's path
    latin = tmp_path / "latin.json"
    latin.write_bytes(b"\xff\xfe{")
    assert main(["check", str(latin)]) == 5
    assert capsys.readouterr().err.startswith(f"error: {latin}: not valid JSON (")

    # array sizes that contradict the declared n_qubits, NaN and Infinity
    # entries, which Python's json reads as numbers, and a boolean n_qubits
    nan, inf = float("nan"), float("inf")
    payloads = [
        {"kind": "pure", "n_qubits": 2, "amplitudes": [[3**-0.5, 0.0]] * 3},
        {"kind": "mixed", "n_qubits": 1, "matrix": [[[1 / 3, 0.0]] * 3] * 3},
        {"kind": "mixed", "n_qubits": 3, "matrix": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]},
        {"kind": "pure", "n_qubits": 2, "amplitudes": [[nan, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]},
        {"kind": "pure", "n_qubits": 2, "amplitudes": [[inf, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]},
        {"kind": "mixed", "n_qubits": 1, "matrix": [[[nan, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
        # a JSON true is not a qubit count, though Python's bool is an int
        {"kind": "pure", "n_qubits": True, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]},
        # strings are not numbers, though a float64 cast would parse them,
        # and neither is an array made only of booleans
        {"kind": "pure", "n_qubits": 1, "amplitudes": [["1", "0"], [False, 0]]},
        {"kind": "pure", "n_qubits": 1, "amplitudes": [[True, False], [False, False]]},
    ]
    for k, payload in enumerate(payloads):
        path = tmp_path / f"bad{k}.json"
        path.write_text(json.dumps(payload))
        for argv in (
            ["check", str(path)],
            ["survey", str(path)],
            ["eof", str(path), "--a", "1", "--b", "2"],
            ["reduce", str(path), "--a", "1", "--b", "2"],
        ):
            assert main(argv) == 5
            err = capsys.readouterr().err
            assert err.startswith("error: ")
            assert err.count("\n") == 1

    # json's nesting depth and Python's integer digit limit are file problems,
    # named with the path, not a RecursionError traceback or a bare exit 2
    digits = "1" + "0" * 4999
    texts = {
        "deep2000": "[" * 2000 + "]" * 2000,
        "deep100000": "[" * 100_000 + "]" * 100_000,
        "digits_n": '{"kind": "pure", "n_qubits": %s, "amplitudes": [[1.0, 0.0]]}' % digits,
        "digits_amp": '{"kind": "pure", "n_qubits": 1, "amplitudes": [[%s, 0.0], [0.0, 0.0]]}' % digits,
    }
    for name, text in texts.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        for command in ("check", "survey"):
            assert main([command, str(path)]) == 5
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: not valid JSON (")
            assert err.count("\n") == 1

    # save_state's head over the cap: refused from the head, with the body never
    # read, where json.load would have met the truncated body first (exit 5)
    path = tmp_path / "over-cap.json"
    path.write_text('{"kind": "mixed", "n_qubits": 11, "matrix": [[[0.1, ')
    with mock.patch.object(states, "_read_json", side_effect=AssertionError("json path")):
        assert main(["check", str(path)]) == 3
    assert capsys.readouterr() == ("", "error: density matrix on 11 qubits exceeds the dense cap of 10\n")

    # save_state's layout with one fault each: the piecewise reader hands every
    # such file to json.load, so check exits and prints as without that reader
    valid = tmp_path / "valid.json"
    save_state(densify(random_pure(np.random.default_rng(2), 2)), valid)
    text = valid.read_text()
    first, imag = text.split('"matrix": [[[', 1)[1].split("]", 1)[0].split(", ")  # the first entry
    faults = {token: text.replace(first, token, 1) for token in
              ("+1", "01", "1.", ".5", "1e999", "NaN", "true", "1", "1" + "0" * 4999)}
    faults.update({
        "deleted bracket": text.replace("]", "", 1),
        # invalid JSON with the right skeleton and the right numbers once brackets are deleted
        "number moved past its bracket": text.replace(f", {imag}]", f", ]{imag}", 1),
        "number split by a bracket": text.replace(f", {imag}]", f", {imag[:3]}]{imag[3:]}", 1),
        "ragged row": text.replace("[%s], " % text.split("], [", 2)[1], "", 1),
        "extra pair": text.replace("]], [[", "], [0.0, 0.0]], [[", 1),
        "n_qubits one too small": text.replace('"n_qubits": 2', '"n_qubits": 1'),
        "no final newline": text[:-1],
    })
    with mock.patch.object(states, "_read_json", side_effect=AssertionError("json path")):
        assert main(["check", str(valid)]) == 0
    capsys.readouterr()
    for name, fault in faults.items():
        path = tmp_path / "fault.json"
        path.write_text(fault)
        with mock.patch.object(states, "_read_json", wraps=states._read_json) as json_path:
            code = main(["check", str(path)])
        out, err = capsys.readouterr()
        assert json_path.call_count == 1, name
        with mock.patch.object(states, "_read_layout", return_value=None):
            assert (main(["check", str(path)]), *capsys.readouterr()) == (code, out, err), name


@pytest.fixture(scope="module")
def saved_texts(tmp_path_factory):
    """A folder for edited files, and the bytes save_state writes for a mixed-2 and a pure-3 state."""
    folder = tmp_path_factory.mktemp("edits")
    rng = np.random.default_rng(5)
    for name, state in (("mixed", random_mixed(rng, 2)), ("pure", random_pure(rng, 3))):
        save_state(state, folder / f"{name}.json")
    return folder, {name: (folder / f"{name}.json").read_bytes() for name in ("mixed", "pure")}


def _main_bytes(argv):
    """main(argv) as (exit code, stdout, stderr); an argparse usage error exits through SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


_EDIT_BYTES = b'0123456789.-+eE[], {}"x'


@given(
    kind=st.sampled_from(["mixed", "pure"]),
    edits=st.lists(st.tuples(st.sampled_from(["replace", "insert", "delete"]), st.integers(0, 2**16),
                             st.sampled_from(_EDIT_BYTES)), min_size=1, max_size=3),
)
@example(kind="mixed", edits=[("insert", 31, ord("9"))])  # "n_qubits": 29, over the mixed cap
@example(kind="pure", edits=[("insert", 30, ord("7"))])  # "n_qubits": 37, over the pure cap
@example(kind="mixed", edits=[("replace", 30, ord("9"))])  # "n_qubits": 9, under the cap
def test_check_agrees_across_readers_on_edited_files(saved_texts, kind, edits):
    # one to three byte edits to a saved file: check prints and exits the same with
    # the piecewise reader live and with every file sent to json.load, except that
    # a head declaring more qubits than its kind's cap exits 3 from the head alone
    folder, texts = saved_texts
    text = bytearray(texts[kind])
    for op, at, byte in edits:
        at %= len(text) + (op == "insert")
        if op == "replace":
            text[at] = byte
        elif op == "insert":
            text.insert(at, byte)
        else:
            del text[at]
    path = folder / "edited.json"
    path.write_bytes(text)
    live = _main_bytes(["check", str(path)])
    head = states._LAYOUT_HEAD.match(text)
    if head and (head[1] == b"pure") == (head[3] == b"amplitudes"):
        noun, cap = ("pure state", states.MAX_PURE_QUBITS) if head[1] == b"pure" else (
            "density matrix", states.MAX_MIXED_QUBITS)
        if int(head[2]) > cap:
            message = f"error: {noun} on {int(head[2])} qubits exceeds the dense cap of {cap}\n"
            assert live == (3, "", message)
            return
    with mock.patch.object(states, "_read_layout", return_value=None):
        assert _main_bytes(["check", str(path)]) == live


def test_molecule_weights_validation(capsys):
    assert main(["build", "molecule", "--m", "4", "--n", "3", "--w", "1", "--weights", "{bad"]) == 2
    capsys.readouterr()
    for weights in (
        '{"1-2-3": null}',
        '{"1-2-3": [1]}',
        '{"1-2-3": NaN}',
        '{"1-2-3": 0.5}',
        '{"1-2-3": true}',
        '{"1-2-3": "1"}',
        '{"1-2-3": ' + "[" * 3000 + "]" * 3000 + "}",
    ):
        assert main(["build", "molecule", "--m", "4", "--n", "3", "--w", "1", "--weights", weights]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1


@pytest.mark.parametrize("weights", ["[]", '[{"1-2-3": 1.0}]', "1.0", '"1-2-3"', "null"])
def test_molecule_weights_must_be_an_object(weights, capsys):
    assert main(["build", "molecule", "--m", "4", "--n", "3", "--w", "1", "--weights", weights]) == 2
    assert capsys.readouterr() == ("", "error: --weights must be a JSON object\n")


@pytest.mark.parametrize("key", ["1-x", "1--2", "1-2,x", "1,2,3", "1_0-2-3", "+1-2-3", " 1-2-3", "\u0661-2-3"])
def test_molecule_weights_key_is_named_as_given(key, capsys):
    # keys are dash-separated ASCII digits, quoted as written in the message
    assert main(["build", "molecule", "--m", "4", "--n", "3", "--w", "1", "--weights", json.dumps({key: 1.0})]) == 2
    assert capsys.readouterr() == ("", f"error: --weights key expects dash-separated integers, got {key!r}\n")


@pytest.mark.parametrize("label", ["1_0", "+2", " 1", "\u0661", "1,", ""])
def test_labels_are_ascii_digits(label, ghz3, capsys):
    # int() alone would read "1_0" as 10, "+2" as 2, " 1" and an Arabic-Indic one as 1
    for flag, argv in (
        ("--a", ["eof", ghz3, "--a", label, "--b", "2"]),
        ("--b", ["eof", ghz3, "--a", "2", "--b", label]),
        ("--subset", ["build", "embedded", "--m", "3", "--subset", label, "--w", "1"]),
    ):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {flag} expects comma-separated integers, got {label!r}\n")


def test_uniform_molecule_meets_cap_and_size_before_listing(capsys):
    # C(22, 11) = 705,432 subsets, about 200 MB of tuples, are never listed
    tracemalloc.start()
    try:
        assert main(["build", "molecule", "--m", "22", "--n", "11", "--w", "1", "--uniform"]) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert capsys.readouterr().err == "error: density matrix on 22 qubits exceeds the dense cap of 10\n"
    for n in ("-1", "1", "5"):
        assert main(["build", "molecule", "--m", "4", "--n", n, "--w", "1", "--uniform"]) == 2
        assert capsys.readouterr().err == f"error: --n must satisfy 2 <= n <= 4, got {n}\n"


GOLDEN_EOF = "concurrence 1.000000000000\neof 1.000000000000\n"

# (raised class, command, exit code, stdout): a success row, then one row per
# class of the exit table; an OSError is an --out into a missing directory
EXIT_ROWS = [
    (None, ["eof", "{ghz3}", "--a", "1", "--b", "2,3", "--out", "{tmp}/r.json"], 0, GOLDEN_EOF),
    (ValueError, ["eof", "{ghz3}", "--a", "x", "--b", "2"], 2, ""),
    (CapacityError, ["build", "ghz", "--n", "17"], 3, ""),
    (InvariantError, ["survey", "{trace2}"], 4, ""),
    (FileFormatError, ["survey", "{garbled}"], 5, ""),
    (OSError, ["survey", "{ghz3}", "--out", "{tmp}/missing/x"], 5, ""),
    (OSError, ["reduce", "{ghz3}", "--a", "1", "--b", "2", "--out", "{tmp}/missing/x"], 5, ""),
    (OSError, ["build", "ghz", "--n", "3", "--out", "{tmp}/missing/x"], 5, ""),
    # eof prints its two lines before it writes --out
    (OSError, ["eof", "{ghz3}", "--a", "1", "--b", "2,3", "--out", "{tmp}/missing/x"], 5, GOLDEN_EOF),
]


def test_exit_rows_cover_the_table():
    assert {kind for kind, *_ in EXIT_ROWS} == {None, *_EXIT_CODES}
    assert all(code == _EXIT_CODES.get(kind, 0) for kind, _, code, _ in EXIT_ROWS)


@pytest.mark.parametrize(
    "kind, argv, code, stdout", EXIT_ROWS,
    ids=[f"{getattr(kind, '__name__', 'success')}-{argv[0]}" for kind, argv, *_ in EXIT_ROWS],
)
def test_exit_table_row(kind, argv, code, stdout, ghz3, tmp_path, capsys):
    trace2, garbled = tmp_path / "trace2.json", tmp_path / "garbled.json"
    trace2.write_text(json.dumps({"kind": "mixed", "matrix": [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}))
    garbled.write_text('{"kind": "pure", "amplitudes": [[1.0, 0.0], [0.0')
    paths = {"ghz3": ghz3, "tmp": tmp_path, "trace2": trace2, "garbled": garbled}
    assert main([arg.format(**paths) for arg in argv]) == code
    out, err = capsys.readouterr()
    assert out == stdout
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert err == ""


def test_out_fails_before_the_survey(ghz3, capsys):
    # an --out that cannot be opened stops survey before a split is listed
    with mock.patch.object(measures, "enumerate_partitions", side_effect=AssertionError("enumerated")) as listed:
        assert main(["survey", ghz3, "--out", "/nonexistent/x"]) == 5
    listed.assert_not_called()
    assert capsys.readouterr().err == "error: [Errno 2] No such file or directory: '/nonexistent/x'\n"


def test_failed_command_leaves_out_as_it_was(tmp_path, capsys):
    # survey, reduce and build open --out first; a failure after that removes
    # a file they created and leaves an existing file's bytes alone
    trace2 = tmp_path / "trace2.json"
    trace2.write_text(json.dumps({"kind": "mixed", "matrix": [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}))
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    old.write_bytes(b"kept\n")
    for argv, code in (
        (["survey", str(trace2)], 4),
        (["reduce", str(trace2), "--a", "1", "--b", "2"], 4),
        (["build", "molecule", "--m", "4", "--n", "5", "--w", "1", "--uniform"], 2),
    ):
        for out in (new, old):
            assert main([*argv, "--out", str(out)]) == code
            assert capsys.readouterr().out == ""
        assert not new.exists()
        assert old.read_bytes() == b"kept\n"
    assert main(["build", "ghz", "--n", "2", "--out", str(old)]) == 0
    assert json.loads(old.read_text())["n_qubits"] == 2


def test_build_writes_the_bytes_save_state_writes(tmp_path):
    # one text for a state file, in the layout the piecewise reader reads
    uniform = {subset: 0.25 for subset in combinations(range(1, 5), 3)}
    cases = [
        (["ghz", "--n", "3"], ghz(3)),
        (["molecule", "--m", "4", "--n", "3", "--w", "1", "--uniform"], entanglement_molecule(4, 3, 1, uniform)),
    ]
    built, saved = tmp_path / "built.json", tmp_path / "saved.json"
    for argv, state in cases:
        assert main(["build", *argv, "--out", str(built)]) == 0
        save_state(state, saved)
        assert built.read_bytes() == saved.read_bytes()
        with open(built, "rb") as fh:
            assert states._read_layout(fh) is not None


def test_check_and_survey_read_a_pipe(tmp_path):
    # a pipe cannot seek, so it is read once, into memory, and a file that
    # the piecewise reader cannot vouch for still reaches json.load whole,
    # for a mixed state and a pure one
    saved, indented, pure = tmp_path / "saved.json", tmp_path / "indented.json", tmp_path / "pure.json"
    state = random_mixed(np.random.default_rng(3), 3)
    save_state(state, saved)
    indented.write_text(json.dumps(states.state_payload(state), indent=1))
    pure.write_text(json.dumps(states.state_payload(ghz(3)), indent=1))
    for path in (saved, indented, pure):
        for argv in (["check"], ["survey"]):
            via_file, via_pipe = (subprocess.run(
                [sys.executable, "-m", "bunchent", *argv, name], input=text, capture_output=True, text=True)
                for name, text in ((str(path), None), ("/dev/stdin", path.read_text())))
            assert via_file.returncode == 0 and via_file.stdout
            assert (via_pipe.returncode, via_pipe.stdout, via_pipe.stderr) == (0, via_file.stdout, via_file.stderr)


def test_argparse_rejects_unknown(ghz3):
    for argv in (
        ["eof", ghz3],  # missing --a/--b
        ["reduce", ghz3, "--a", "1", "--b", "2", "--format", "csv"],
        ["build", "molecule", "--m", "4", "--n", "3", "--w", "1"],  # neither --uniform nor --weights
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize("weighting", [[], ["--uniform", "--weights", '{"1-2-3": 1.0}']], ids=["neither", "both"])
def test_molecule_takes_exactly_one_weighting(weighting, tmp_path, capsys):
    # argparse refuses the molecule before --out is opened: its usage line, then one error line
    out = tmp_path / "x.json"
    with pytest.raises(SystemExit) as exc:
        main(["build", "molecule", "--m", "4", "--n", "3", "--w", "1", *weighting, "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith("usage: bunchent build molecule ")
    assert err.count("\nbunchent build molecule: error: ") == 1 and "--uniform" in err.splitlines()[-1]


def test_module_entry_point(tmp_path):
    path = tmp_path / "g.json"
    build = subprocess.run(
        [sys.executable, "-m", "bunchent", "build", "ghz", "--n", "3", "--out", str(path)],
        capture_output=True,
        text=True,
    )
    assert build.returncode == 0
    run = subprocess.run(
        [sys.executable, "-m", "bunchent", "eof", str(path), "--a", "1", "--b", "2,3"],
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0
    assert run.stdout == "concurrence 1.000000000000\neof 1.000000000000\n"
    # the entry turns the collector back on after freezing the start-up heap
    code = ("import gc, json, sys\nfrom bunchent.__main__ import run\n"
            f"sys.argv = ['bunchent', 'survey', {str(path)!r}, '--out', {str(tmp_path / 's.csv')!r}]\n"
            "print(json.dumps([run(), gc.isenabled(), gc.get_freeze_count() > 0]))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert json.loads(run.stdout) == [0, True, True], run.stderr
    # and changes no byte of what main() prints: a survey, a label beyond the state, a usage error
    for argv in (["survey", str(path)], ["eof", str(path), "--a", "1", "--b", "9"],
                 ["survey", str(path), "--format", "xml"]):
        run = subprocess.run([sys.executable, "-m", "bunchent", *argv], capture_output=True, text=True)
        assert (run.returncode, run.stdout, run.stderr) == _main_bytes(argv)
