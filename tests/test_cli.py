"""End-to-end command tests, run in process through cli.main."""

import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bunchent import densify, ghz, load_state, save_state
from bunchent.cli import main
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


def test_eof_golden_lines(ghz4, capsys):
    assert main(["eof", ghz4, "--a", "1", "--b", "2,3,4"]) == 0
    assert capsys.readouterr().out == "concurrence 1.000000000000\neof 1.000000000000\n"

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


def test_exit_code_capacity(capsys):
    assert main(["build", "ghz", "--n", "40"]) == 3
    assert "exceeds the dense cap" in capsys.readouterr().err


def test_check_pure_file_capacity(ghz3, tmp_path, monkeypatch, capsys):
    # each kind meets its cap when the file is read, before any array work;
    # no command builds the outer product of a pure file
    def refuse(*args):
        raise AssertionError("np.outer reached past the capacity check")

    mixed = tmp_path / "ghz3_mixed.json"
    save_state(densify(ghz(3)), mixed)
    monkeypatch.setenv("BUNCHENT_MAX_QUBITS", "2")
    monkeypatch.setattr(np, "outer", refuse)
    for argv in (["check", ghz3], ["survey", ghz3], ["check", str(mixed)]):
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

    # array sizes that contradict the declared n_qubits, then NaN and
    # Infinity entries, which Python's json reads as numbers
    nan, inf = float("nan"), float("inf")
    payloads = [
        {"kind": "pure", "n_qubits": 2, "amplitudes": [[3**-0.5, 0.0]] * 3},
        {"kind": "mixed", "n_qubits": 1, "matrix": [[[1 / 3, 0.0]] * 3] * 3},
        {"kind": "mixed", "n_qubits": 3, "matrix": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]},
        {"kind": "pure", "n_qubits": 2, "amplitudes": [[nan, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]},
        {"kind": "pure", "n_qubits": 2, "amplitudes": [[inf, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]},
        {"kind": "mixed", "n_qubits": 1, "matrix": [[[nan, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
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


def test_molecule_weights_validation(capsys):
    assert main(["build", "molecule", "--m", "4", "--n", "3", "--w", "1"]) == 2
    assert main(["build", "molecule", "--m", "4", "--n", "3", "--w", "1", "--weights", "{bad"]) == 2
    capsys.readouterr()
    for weights in ('{"1-2-3": null}', '{"1-2-3": [1]}', '{"1-2-3": NaN}', '{"1-2-3": 0.5}'):
        assert main(["build", "molecule", "--m", "4", "--n", "3", "--w", "1", "--weights", weights]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1


def test_argparse_rejects_unknown(ghz3):
    with pytest.raises(SystemExit):
        main(["eof", ghz3])  # missing --a/--b
    with pytest.raises(SystemExit):
        main(["reduce", ghz3, "--a", "1", "--b", "2", "--format", "csv"])


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
