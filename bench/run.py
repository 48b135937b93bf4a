"""Survey benchmark for bunchent.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; the program is imported and run
from ./src. Each workload writes a seeded input file, then:

--trace 0  times `python -m bunchent survey` processes (wall, CPU, peak
           RSS), fresh set-up processes, and in-process eof_bunches calls;
           prints the end-to-end metrics. Times are scaled to a reference
           core speed by a calibration loop timed on the same core at the
           same moments (see CALIBRATION_REF_MS); the unscaled figures are
           printed too.
--trace 1  calls the public functions of each layer on the same splits,
           one span per call, and prints the per-layer metrics. Spans go to
           .bench_out/ as JSON lines.

Every survey output is checked against the oracle in oracle.py. The last
stdout line is one JSON object: correct, attempted, failed, metrics.
`attempted` counts checked survey rows and `failed` the rows that were
missing, errored or wrong, so failed_frac = failed / attempted.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path

import numpy as np

import oracle
from workloads import WORKLOADS, Workload, draw_state, write_state

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUPS_PER_ROUND = 2  # fresh set-up processes per measurement round
MIN_PASSES = 3        # in-process passes over every split per run
TAIL_BEYOND = 10      # samples that must lie above the reported tail percentile
# On a shared virtual machine each core's speed can switch between levels
# as far apart as 1.6x (measured on a 2-vCPU VM), every second or so, and
# the cores switch independently. Each end-to-end time is therefore
# reported scaled to the speed at which a calibration loop takes
# CALIBRATION_REF_MS: measured * REF / loop time, with the loop timed on
# the same core at the same moments: before each in-process call, and
# every FOLLOW_PERIOD_S on whichever core a measured process is running at
# that moment. The loop is the benchmark's own fixed code, so a change to
# the program moves the reported times in full, while a slow spell of a
# core slows the loop and the measurement together. The loops taken during
# a process cost it about 1% of its time; the unscaled times are printed
# beside the scaled ones.
CALIBRATION_REF_MS = 0.5
CALIBRATION_SAMPLES = 5   # loops per speed estimate of an in-process call
FOLLOW_PERIOD_S = 0.05
_CALIBRATION_MATRIX = np.array([[4.0, 1.0, 0.5, 0.0], [1.0, 3.0, 0.2, 0.1],
                                [0.5, 0.2, 2.0, 0.3], [0.0, 0.1, 0.3, 1.0]])
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "wall_s": "s",
    "splits_per_s": "1/s",
    "setup_s": "s",
    "split_p50_ms": "ms",
    "split_tail_ms": "ms",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "states.load_s": "s",
    "states.densify_s": "s",
    "states.partial_trace_ms": "ms",
    "states.partial_trace_bytes": "bytes",
    "states.validate_ms": "ms",
    "bunching.reduce_ms": "ms",
    "bunching.pattern_sum_ms": "ms",
    "bunching.patterns": "count",
    "bunching.live_patterns": "count",
    "bunching.live_ratio": "ratio",
    "measures.eof_ms": "ms",
    "measures.serialise_ms": "ms",
    "linalg.hermitian_eig_ms": "ms",
    "linalg.eig_solves": "count",
    "cli.tasks": "count",
    "cli.task_bytes": "bytes",
    "cli.fanout_s": "s",
    "trace.overhead_s": "s",
}
# how a per-layer number was obtained, when it was not timed directly
LAYER_NOTES = {
    "states.partial_trace_bytes": "computed: 16*4^n bytes read + 16*4^k written per split",
    "bunching.pattern_sum_ms": "derived: reduce_ms - partial_trace_ms",
    "bunching.live_ratio": "live_patterns / patterns",
    "linalg.hermitian_eig_ms": "timed: one chain solve per split, on rho_ab",
    "linalg.eig_solves": "computed: 2 per split",
    "cli.tasks": "computed: splits of the --jobs survey, 0 where there is none",
    "cli.task_bytes": "computed: tasks * 16*4^n bytes pickled",
    "cli.fanout_s": "derived: wall_s of the --jobs survey (else serial) - setup_s - sum(reduce + eof) / jobs",
    "trace.overhead_s": "traced pass - untraced in-process pass (load..serialise), medians",
}

_SETUP_CODE = (
    "import sys\n"
    "from bunchent import StateVector, densify, load_state\n"
    "state = load_state(sys.argv[1])\n"
    "if isinstance(state, StateVector):\n"
    "    state = densify(state)\n"
)


# ---------------------------------------------------------------------------
# processes

def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def calibration_loop() -> None:
    """Fixed work of the kinds the program does: interpreter arithmetic,
    small LAPACK calls and complex-number objects."""
    total = 0
    for i in range(1500):
        total += i * i % 7
    for _ in range(15):
        np.linalg.eigvalsh(_CALIBRATION_MATRIX)
    [complex(i, 1.0) * 0.5 for i in range(750)]


def calibration_ms(n: int = CALIBRATION_SAMPLES) -> list[float]:
    samples = []
    for _ in range(n):
        t0 = time.perf_counter()
        calibration_loop()
        samples.append(1e3 * (time.perf_counter() - t0))
    return samples


def _current_cpu(pid: int) -> int:
    """The CPU a process's main thread last ran on (field 39 of its stat)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


def _follow(pid: int, stop: threading.Event, samples: list[float]) -> None:
    """Until `stop`, run a calibration loop on the CPU where `pid` runs,
    every FOLLOW_PERIOD_S. Only this thread is pinned; the measured process
    keeps the affinity it inherited."""
    while True:
        try:
            os.sched_setaffinity(0, {_current_cpu(pid)})
        except OSError:  # the process has been reaped
            return
        samples += calibration_ms(1)
        if stop.wait(FOLLOW_PERIOD_S):
            return


def run_process(cmd: list[str]) -> dict:
    """Run to completion; wall time from launch to exit, CPU time and peak
    RSS of the process together with every child it waited for, and the
    core-speed scale from calibration loops that followed it (see
    CALIBRATION_REF_MS): the mean over the loops of REF / loop time, since
    the process's time adds up its work over the speeds it ran at."""
    samples: list[float] = []
    stop = threading.Event()
    with open(OUT / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        follower = threading.Thread(target=_follow, args=(proc.pid, stop, samples))
        follower.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            stop.set()
            follower.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "scale": statistics.fmean(CALIBRATION_REF_MS / ms for ms in samples or calibration_ms()),
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "returncode": proc.returncode,
        "stderr": (OUT / "stderr.txt").read_text(errors="replace").strip(),
    }


def survey(w: Workload, path: Path, out: Path, jobs: int = 1) -> dict:
    pool = ["--jobs", str(jobs)] if jobs != 1 else []
    cmd = [sys.executable, "-m", "bunchent", "survey", str(path), *w.survey_args, *pool, "--out", str(out)]
    out.unlink(missing_ok=True)
    res = run_process(cmd)
    res["output"] = out.read_bytes() if res["returncode"] == 0 and out.exists() else b""
    return res


def setup_time(path: Path) -> tuple[float, float]:
    """Wall seconds of one fresh set-up process, raw and scaled."""
    res = run_process([sys.executable, "-c", _SETUP_CODE, str(path)])
    if res["returncode"] != 0:
        raise RuntimeError(f"set-up process failed: {res['stderr']}")
    return res["wall_s"], res["wall_s"] * res["scale"]


# ---------------------------------------------------------------------------
# inputs and checks

class Case:
    """One workload at one seed: input file, expected rows and split list."""

    def __init__(self, w: Workload, seed: int):
        self.w, self.seed = w, seed
        (OUT / "inputs").mkdir(parents=True, exist_ok=True)
        self.array = draw_state(w.kind, w.n_qubits, seed)
        self.path = OUT / "inputs" / f"{w.kind}{w.n_qubits}-seed{seed}.json"
        self.file_bytes = write_state(self.array, self.path)
        self.splits = oracle.splits(w.n_qubits, w.max_bunch, w.full_cover)
        self.expected = oracle.expected_rows(self.array, self.splits, ghz=w.kind == "ghz")

    def failed_rows(self, res: dict) -> int:
        """Rows of one survey run that are missing, errored or wrong; a
        nonzero exit fails every split."""
        if res["returncode"] != 0:
            return len(self.splits)
        text = res["output"].decode(errors="replace")
        return oracle.count_failed(text, self.w.fmt, self.expected)

    def info(self) -> dict:
        return {"workload": self.w.name, "seed": self.seed, "n_qubits": self.w.n_qubits,
                "input": self.w.kind, "splits": len(self.splits), "input_bytes": self.file_bytes,
                "command": " ".join(["bunchent survey <input>", *self.w.survey_args]), "why": self.w.why}


def differing_lines(a: bytes, b: bytes) -> int:
    la, lb = a.splitlines(), b.splitlines()
    return sum(x != y for x, y in zip(la, lb)) + abs(len(la) - len(lb))


def load_density(path: Path):
    from bunchent import StateVector, densify, load_state
    state = load_state(path)
    return densify(state) if isinstance(state, StateVector) else state


def partitions(case: Case):
    from bunchent import BunchPartition
    return [BunchPartition(a, b) for a, b in case.splits]


# ---------------------------------------------------------------------------
# end-to-end run (tracing off)

def tail(samples: list[float]) -> tuple[float, float]:
    """Highest order statistic with TAIL_BEYOND samples above it, and its
    percentile rank."""
    ordered = sorted(samples)
    k = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def latencies(rho, parts) -> list[tuple[float, float]]:
    """In-process eof_bunches latency of each partition in ms, raw and
    scaled by the median of the last CALIBRATION_SAMPLES calibration loops,
    one of which runs before each call."""
    from bunchent import eof_bunches
    recent = deque(calibration_ms(CALIBRATION_SAMPLES - 1), maxlen=CALIBRATION_SAMPLES)
    times = []
    for p in parts:
        recent.extend(calibration_ms(1))
        t0 = time.perf_counter()
        eof_bunches(rho, p)
        ms = 1e3 * (time.perf_counter() - t0)
        times.append((ms, ms * CALIBRATION_REF_MS / statistics.median(recent)))
    return times


def run_end_to_end(case: Case, seconds: float) -> dict:
    """Rounds of (set-up processes, one survey process, one in-process pass
    over every split) until `seconds` have passed, then further passes until
    there are MIN_PASSES.

    Every time is scaled by calibration loops timed next to it (see
    CALIBRATION_REF_MS). Process metrics are medians over the run. Each
    split's latency is its median over the passes; the median and tail are
    then taken across splits."""
    from bunchent import eof_bunches
    w, n_splits = case.w, len(case.splits)
    out = OUT / f"survey-{w.name}.out"
    rho, parts = load_density(case.path), partitions(case)
    eof_bunches(rho, parts[0])  # lazy imports and caches settle before timing
    attempted = failed = 0
    setups, runs, passes = [], [], []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        setups += [setup_time(case.path) for _ in range(SETUPS_PER_ROUND)]
        res = survey(w, case.path, out)
        if runs and res["output"] == runs[0]["output"]:
            res["failed"] = runs[0]["failed"]
        else:
            res["failed"] = case.failed_rows(res)
        runs.append(res)
        attempted += n_splits
        failed += res["failed"]
        passes.append(latencies(rho, parts))
    while len(passes) < MIN_PASSES:
        passes.append(latencies(rho, parts))

    def split_stats(which: int) -> tuple[float, float, float]:
        per_split = [statistics.median(s[which] for s in samples) for samples in zip(*passes)]
        return (statistics.median(per_split), *tail(per_split))

    p50_ms, tail_ms, tail_pct = split_stats(1)
    wall = statistics.median(r["wall_s"] * r["scale"] for r in runs)
    metrics = {
        "wall_s": wall,
        "splits_per_s": n_splits / wall,
        "setup_s": statistics.median(scaled for _, scaled in setups),
        "split_p50_ms": p50_ms,
        "split_tail_ms": tail_ms,
        "cpu_s": statistics.median(r["cpu_s"] * r["scale"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    raw_wall = statistics.median(r["wall_s"] for r in runs)
    raw_p50, raw_tail, _ = split_stats(0)
    raw = {
        "wall_s": raw_wall,
        "splits_per_s": n_splits / raw_wall,
        "setup_s": statistics.median(t for t, _ in setups),
        "split_p50_ms": raw_p50,
        "split_tail_ms": raw_tail,
        "cpu_s": statistics.median(r["cpu_s"] for r in runs),
    }
    notes = {
        "wall_s": f"median of {len(runs)} survey processes",
        "splits_per_s": f"{n_splits} splits / wall_s",
        "setup_s": f"median of {len(setups)} fresh processes",
        "split_p50_ms": f"median over {n_splits} splits of each split's median of {len(passes)} "
                        "in-process eof_bunches calls",
        "split_tail_ms": f"p{tail_pct:.2f} of the same {n_splits} samples, {TAIL_BEYOND} beyond it",
        "cpu_s": f"user + sys of the survey and its workers, median of {len(runs)}",
        "peak_rss_mb": f"largest RSS of the survey or any worker, median of {len(runs)}",
    }
    for name, value in raw.items():
        notes[name] = f"unscaled {value:.6g}; " + notes[name]
    errors = sorted({r["stderr"] for r in runs if r["returncode"] != 0})
    return {"metrics": metrics, "notes": notes, "attempted": attempted, "failed": failed,
            "errors": errors, "failed_frac": failed / attempted}


# ---------------------------------------------------------------------------
# traced run

class Tracer:
    """Spans kept in memory: (id, parent, name, workload, split, start_ns, end_ns)."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[tuple] = []

    def call(self, name: str, split: int, parent: int | None, fn, *args):
        t0 = time.perf_counter_ns()
        result = fn(*args)
        t1 = time.perf_counter_ns()
        self.spans.append((len(self.spans), parent, name, self.workload, split, t0, t1))
        return result, (t1 - t0) * 1e-6

    def open(self, name: str, split: int) -> int:
        self.spans.append((len(self.spans), None, name, self.workload, split, time.perf_counter_ns(), None))
        return len(self.spans) - 1

    def close(self, span_id: int) -> None:
        s = self.spans[span_id]
        self.spans[span_id] = s[:-1] + (time.perf_counter_ns(),)

    def write(self, path: Path) -> None:
        keys = ("id", "parent", "name", "workload", "split", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")


def serialise(reports, fmt: str) -> str:
    """Survey output text, as the cli writes it."""
    from bunchent import survey_csv
    from bunchent.measures import report_json_dict
    if fmt == "json":
        return json.dumps([report_json_dict(r) for r in reports], indent=2) + "\n"
    return survey_csv(reports)


def untraced_pass(case: Case) -> float:
    """Seconds for the same work as a traced pass, without the tracer."""
    from bunchent import eof_bunches
    t0 = time.perf_counter()
    rho = load_density(case.path)
    serialise([eof_bunches(rho, p) for p in partitions(case)], case.w.fmt)
    return time.perf_counter() - t0


def traced_pass(case: Case, tracer: Tracer) -> tuple[dict, bytes]:
    """Call each layer's public functions once per split, from outside."""
    import bunchent
    from bunchent import (DensityMatrix, EntanglementReport, StateVector, bunch_reduce,
                          densify, eof, load_state, partial_trace)
    # the Jacobi solver may be retired from the chain; its metrics then read 0
    hermitian_eig = getattr(bunchent, "hermitian_eig", None)

    t_start = time.perf_counter()
    state, load_ms = tracer.call("states.load_state", -1, None, load_state, case.path)
    densify_ms = 0.0
    if isinstance(state, StateVector):
        state, densify_ms = tracer.call("states.densify", -1, None, densify, state)
    sums = dict.fromkeys(("pt", "validate", "reduce", "eof", "eig"), 0.0)
    patterns = live = 0
    reports = []
    for i, p in enumerate(partitions(case)):
        top = tracer.open("split", i)
        keep = sorted(p.labels)
        reduced, ms = tracer.call("states.partial_trace", i, top, partial_trace, state, keep)
        sums["pt"] += ms
        sums["validate"] += tracer.call("states.DensityMatrix", i, top, DensityMatrix,
                                        len(keep), reduced.entries)[1]
        red, ms = tracer.call("bunching.bunch_reduce", i, top, bunch_reduce, state, p)
        sums["reduce"] += ms
        rep, ms = tracer.call("measures.eof", i, top, eof, red.rho_ab)
        sums["eof"] += ms
        if hermitian_eig is not None:
            sums["eig"] += tracer.call("linalg.hermitian_eig", i, top, hermitian_eig, red.rho_ab.entries)[1]
        tracer.close(top)
        patterns += len(red.etas)
        live += sum(e > 0.0 for e in red.etas)
        reports.append(EntanglementReport(rep.concurrence, rep.eof, rep.lambdas, p, red.etas))

    text, serialise_ms = tracer.call("measures.serialise", -1, None, serialise, reports, case.w.fmt)
    total_s = time.perf_counter() - t_start
    n_splits = len(case.splits)
    layer = {
        "states.load_s": load_ms * 1e-3,
        "states.densify_s": densify_ms * 1e-3,
        "states.partial_trace_ms": sums["pt"],
        "states.partial_trace_bytes": float(sum(16 * (4 ** case.w.n_qubits + 4 ** (len(a) + len(b)))
                                                for a, b in case.splits)),
        "states.validate_ms": sums["validate"],
        "bunching.reduce_ms": sums["reduce"],
        "bunching.pattern_sum_ms": sums["reduce"] - sums["pt"],
        "bunching.patterns": float(patterns),
        "bunching.live_patterns": float(live),
        "bunching.live_ratio": live / patterns,
        "measures.eof_ms": sums["eof"],
        "measures.serialise_ms": serialise_ms,
        "linalg.hermitian_eig_ms": sums["eig"],
        "linalg.eig_solves": float(2 * n_splits if hermitian_eig is not None else 0),
        "pass_s": total_s,
    }
    return layer, text.encode()


def run_traced(case: Case, seconds: float) -> dict:
    w, n_splits = case.w, len(case.splits)
    out = OUT / f"survey-{w.name}.out"
    serial = survey(w, case.path, out)
    runs = [serial]
    if w.pool_jobs:
        # the pooled survey must equal the serial one byte for byte
        runs.append(survey(w, case.path, out, jobs=w.pool_jobs))
    attempted = n_splits * len(runs)
    failed = sum(case.failed_rows(r) for r in runs)
    if len(runs) == 2 and runs[1]["returncode"] == 0 and serial["returncode"] == 0:
        failed += min(n_splits, differing_lines(runs[1]["output"], serial["output"]))
    setup_s = statistics.median(setup_time(case.path)[0] for _ in range(3))

    tracer = Tracer(w.name)
    passes, plain = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        plain.append(untraced_pass(case))
        layer, text = traced_pass(case, tracer)
        passes.append(layer)
        attempted += n_splits
        # the traced pass must also reproduce the untraced serial output exactly
        mismatched = differing_lines(text, serial["output"]) if serial["returncode"] == 0 else 0
        failed += max(case.failed_rows({"returncode": 0, "output": text}), min(n_splits, mismatched))
    metrics = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
    pass_s = metrics.pop("pass_s")
    jobs = w.pool_jobs or 1
    metrics["cli.tasks"] = float(n_splits if w.pool_jobs else 0)
    metrics["cli.task_bytes"] = metrics["cli.tasks"] * 16 * 4 ** w.n_qubits
    split_s = (metrics["bunching.reduce_ms"] + metrics["measures.eof_ms"]) * 1e-3
    metrics["cli.fanout_s"] = runs[-1]["wall_s"] - setup_s - split_s / jobs
    metrics["trace.overhead_s"] = pass_s - statistics.median(plain)
    tracer.write(OUT / f"trace-{w.name}-seed{case.seed}.jsonl")
    notes = dict(LAYER_NOTES, **{"states.load_s": f"each timing: median of {len(passes)} traced passes"})
    errors = sorted({r["stderr"] for r in runs if r["returncode"] != 0})
    return {"metrics": {k: metrics[k] for k in PER_LAYER}, "notes": notes, "attempted": attempted,
            "failed": failed, "errors": errors, "failed_frac": failed / attempted}


# ---------------------------------------------------------------------------
# context and report

def run_context() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = res.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v, "unset") for v in BLAS_THREAD_VARS},
        "git_commit": commit,
        "machine": platform.machine(),
    }


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    case = Case(w, seed)
    result = (run_traced if trace else run_end_to_end)(case, seconds)
    result["workload"] = case.info()
    result["context"] = run_context()
    result["correct"] = result["failed"] == 0 and not result["errors"]
    return result


def report(result: dict, trace: bool) -> None:
    """Human-readable lines; the caller prints the JSON line after them."""
    units = PER_LAYER if trace else END_TO_END
    info = result["workload"]
    print("workload " + " ".join(f"{k}={info[k]}" for k in ("workload", "seed", "n_qubits", "input",
                                                          "splits", "input_bytes")))
    print(f"  command: {info['command']}")
    print(f"  why: {info['why']}")
    print("context " + json.dumps(result["context"], sort_keys=True))
    for name, unit in units.items():
        note = result["notes"].get(name, "")
        print(f"  {name} {result['metrics'][name]:.6g} {unit}" + (f"  ({note})" if note else ""))
    print(f"  failed_frac {result['failed_frac']:.6g} ratio  ({result['failed']} of "
          f"{result['attempted']} checked rows)")
    for err in result["errors"]:
        print(f"  error: {err}")


def result_line(result: dict, trace: bool) -> str:
    units = PER_LAYER if trace else END_TO_END
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": result["metrics"][k], "unit": u} for k, u in units.items()},
    })


def _import_program() -> None:
    """Import bunchent from this checkout's src/, never from elsewhere."""
    if not (SRC / "bunchent" / "__init__.py").is_file():
        raise SystemExit(f"error: no bunchent sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bunchent
    if Path(bunchent.__file__).resolve().parent != (SRC / "bunchent").resolve():
        raise SystemExit(f"error: bunchent imported from {bunchent.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    OUT.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        report(result, bool(args.trace))
        line = result_line(result, bool(args.trace))
        with open(OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
            json.dump(dict(result, line=json.loads(line)), fh, indent=2)
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
