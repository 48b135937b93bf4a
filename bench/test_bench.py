"""Self-test of the benchmark on GHZ-4 with all 25 splits.

    python3 -m pytest -q bench

Checks that the oracle reproduces known values, that every metric is
printed by name with its unit, and that a corrupted survey row is counted
as failed.
"""

import json
import os
import sys

import numpy as np
import pytest

import oracle
import run
from workloads import Workload, draw_state

GHZ4 = Workload("ghz4-all", "ghz", 4, why="self-test")


@pytest.fixture(scope="module", autouse=True)
def program():
    run._import_program()


def test_oracle_ghz4_all_or_nothing():
    psi = draw_state("ghz", 4, seed=3)
    split_list = oracle.splits(4)
    assert len(split_list) == 25
    rho = np.outer(psi, psi.conj())
    for (a, b), row in zip(split_list, oracle.expected_rows(psi, split_list, ghz=True)):
        full = len(a) + len(b) == 4
        assert row.concurrence == pytest.approx(1.0 if full else 0.0, abs=1e-12)
        assert row.eof == pytest.approx(1.0 if full else 0.0, abs=1e-12)
        assert row.exact == (1.0 if full else 0.0)
        assert sum(row.etas) == pytest.approx(1.0, abs=1e-12)
        # the amplitude and density-matrix paths of the reduction agree
        np.testing.assert_allclose(oracle.pattern_blocks(psi, a, b),
                                   oracle.pattern_blocks(rho, a, b), atol=1e-14)


def test_oracle_wootters_known_states():
    bell = np.zeros(4)
    bell[[0, 3]] = 2.0 ** -0.5
    assert oracle.wootters(np.outer(bell, bell)) == pytest.approx((1.0, 1.0), abs=1e-12)
    assert oracle.wootters(np.diag([1.0, 0, 0, 0])) == pytest.approx((0.0, 0.0), abs=1e-12)
    for p in (0.2, 0.5, 0.9):
        werner = p * np.outer(bell, bell) + (1 - p) * np.eye(4) / 4
        assert oracle.wootters(werner)[0] == pytest.approx(max(0.0, (3 * p - 1) / 2), abs=1e-12)


def test_every_end_to_end_metric_printed_with_unit(capsys):
    result = run.run_workload(GHZ4, seed=3, seconds=0.1, trace=False)
    run.report(result, trace=False)
    print(run.result_line(result, trace=False))
    lines = capsys.readouterr().out.splitlines()
    for name, unit in [*run.END_TO_END.items(), ("failed_frac", "ratio")]:
        assert any(line.split()[:1] == [name] and line.split()[2] == unit for line in lines), name
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 25
    assert {k: v["unit"] for k, v in last["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in last["metrics"].values())


def test_every_per_layer_metric_printed_with_unit(capsys):
    result = run.run_workload(GHZ4, seed=3, seconds=0.1, trace=True)
    run.report(result, trace=True)
    print(run.result_line(result, trace=True))
    lines = capsys.readouterr().out.splitlines()
    for name, unit in run.PER_LAYER.items():
        assert any(line.split()[:1] == [name] and line.split()[2] == unit for line in lines), name
    last = json.loads(lines[-1])
    assert last["correct"] and last["failed"] == 0
    assert {k: v["unit"] for k, v in last["metrics"].items()} == run.PER_LAYER
    patterns = sum(2 ** (len(a) + len(b) - 2) for a, b in oracle.splits(4))
    assert last["metrics"]["bunching.patterns"]["value"] == patterns


def test_corrupted_row_raises_failed_frac(monkeypatch):
    real_survey = run.survey

    def corrupting_survey(w, path, out):
        res = real_survey(w, path, out)
        lines = res["output"].decode().splitlines(keepends=True)
        fields = lines[3].split(",")
        fields[4] = "0.5"  # concurrence column
        lines[3] = ",".join(fields)
        res["output"] = "".join(lines).encode()
        return res

    monkeypatch.setattr(run, "survey", corrupting_survey)
    result = run.run_workload(GHZ4, seed=3, seconds=0.1, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] // 25
    assert result["failed_frac"] == pytest.approx(1 / 25)


def test_process_times_carry_a_core_speed_scale():
    assert run._current_cpu(os.getpid()) in os.sched_getaffinity(0)
    res = run.run_process([sys.executable, "-c", "sum(range(3_000_000))"])
    assert res["returncode"] == 0 and res["scale"] > 0
    case = run.Case(GHZ4, seed=3)
    times = run.latencies(run.load_density(case.path), run.partitions(case))
    assert len(times) == 25 and all(raw > 0 and scaled > 0 for raw, scaled in times)


def test_failure_counting():
    case = run.Case(GHZ4, seed=3)
    good = run.survey(GHZ4, case.path, run.OUT / "selftest.out")
    assert case.failed_rows(good) == 0
    text = good["output"]
    assert case.failed_rows(dict(good, output=text.rsplit(b"\n", 2)[0] + b"\n")) == 1
    assert case.failed_rows(dict(good, output=b"not a table")) == 25
    assert case.failed_rows(dict(good, returncode=3)) == 25
    lines = text.splitlines()
    lines[2] = b"x"
    assert run.differing_lines(text, b"\n".join(lines)) == 1
