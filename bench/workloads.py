"""Workload table and seeded input generator for the survey benchmark.

Each workload is one state file plus one `bunchent survey` command line.
The input is built from the seed alone, with numpy and without bunchent,
so the program under test only ever sees the generated file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str               # "ghz", "mixed" or "pure": how the input is drawn
    n_qubits: int
    why: str
    full_cover: bool = False
    max_bunch: int | None = None
    fmt: str = "csv"
    pool_jobs: int | None = None  # traced runs also survey with --jobs this

    @property
    def survey_args(self) -> list[str]:
        args = ["--full-cover"] if self.full_cover else []
        if self.max_bunch is not None:
            args += ["--max-bunch", str(self.max_bunch)]
        if self.fmt != "csv":
            args += ["--format", self.fmt]
        return args


# Why each workload is here: every layer that the planned reduction,
# validation and measure-chain changes touch does most of the work in one
# workload and little in another.
WORKLOADS = {
    w.name: w
    for w in (
        # 127 splits, 8,128 pattern blocks, 127 live (eta > 0). Each split
        # re-validates a 256x256 intermediate; the 4x4 chain is about 3%, so
        # measure-chain work should leave it unchanged. Exact answer on every
        # row: C = EoF = 1. Stands in for GHZ-10 (200 s per survey).
        Workload(
            "ghz8-cover", "ghz", 8, full_cover=True,
            why="reduction dominates: 256x256 re-validation per split, 98% dead "
            "pattern blocks, measure chain ~3%; every row is exactly C = EoF = 1",
        ),
        # 966 splits, 9,219 live patterns on a full-rank random mixed state.
        # Stands in for mixed-8 (3,025 splits, 17 s per survey). Its traced
        # runs also survey with --jobs 2, the only use of the cli process
        # pool (each task pickles the 128x128 matrix), and require output
        # byte-identical to the serial survey. BLAS threading stays at the
        # user's default, so worker oversubscription on few cores shows.
        Workload(
            "mixed7-all", "mixed", 7, pool_jobs=2,
            why="the 4x4 concurrence/EoF chain dominates, about half of it in "
            "Jacobi; mixed input bypasses any pure-only shortcut",
        ),
        # 1,035 splits, 3,285 patterns; the largest pure input survey accepts
        # while it densifies pure states.
        Workload(
            "pure10-pairs", "pure", 10, max_bunch=2, fmt="json",
            why="setup densifies and validates 1024x1024; each split traces a "
            "16 MiB operand; at most 4 patterns per split; the JSON serialiser",
        ),
    )
}


def draw_state(kind: str, n_qubits: int, seed: int) -> np.ndarray:
    """Amplitude vector (ghz, pure) or density matrix (mixed) for a seed."""
    rng = np.random.default_rng(seed)
    d = 2 ** n_qubits
    if kind == "ghz":
        # a seeded relative phase keeps the input seed-dependent while every
        # full cover still reduces to a maximally entangled pair
        amps = np.zeros(d, dtype=np.complex128)
        amps[0] = 2.0 ** -0.5
        amps[-1] = np.exp(2j * np.pi * rng.random()) * 2.0 ** -0.5
        return amps
    if kind == "pure":
        raw = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        return raw / np.linalg.norm(raw)
    if kind == "mixed":
        # full-rank Gram matrix G G^dagger, trace-normalised
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        gram = g @ g.conj().T
        gram = 0.5 * (gram + gram.conj().T)
        return gram / gram.trace().real
    raise ValueError(f"unknown input kind {kind!r}")


def write_state(array: np.ndarray, path) -> int:
    """Write a state file in bunchent's JSON format; return its size in bytes."""
    pairs = np.stack([array.real, array.imag], axis=-1).tolist()
    n_qubits = array.shape[0].bit_length() - 1
    if array.ndim == 1:
        payload = {"kind": "pure", "n_qubits": n_qubits, "amplitudes": pairs}
    else:
        payload = {"kind": "mixed", "n_qubits": n_qubits, "matrix": pairs}
    data = (json.dumps(payload) + "\n").encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)
