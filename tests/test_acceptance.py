"""Acceptance gate.

Each numbered check prints a single PASS/FAIL verdict line directly to the
terminal (bypassing capture) and then asserts. Tolerances are part of the
contract and must not be loosened to make a check pass.
"""

import json
import math

import numpy as np
import pytest

from bunchent import (
    BunchPartition,
    bell_w_state,
    bunch_reduce,
    densify,
    embedded_bell,
    entanglement_molecule,
    enumerate_partitions,
    enumerate_patterns,
    eof,
    eof_bunches,
    ghz,
    partial_trace,
    state_defects,
    tripartite_triple,
)
from bunchent.cli import main
from helpers import (
    build_projector,
    compress_operator,
    random_mixed,
    random_partition,
    random_pure,
    traced_onto,
    tripartite_oracle,
)


def _verdict(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {num}: {'PASS' if ok else 'FAIL'}  {detail}")


@pytest.fixture(scope="module")
def ghz_densities():
    return {n: densify(ghz(n)) for n in range(3, 9)}


def test_criterion_1_ghz_all_or_nothing(ghz_densities, capsys):
    worst_full = 0.0
    worst_partial = 0.0
    for n, rho in ghz_densities.items():
        for part in enumerate_partitions(n):
            rep = eof_bunches(rho, part)
            if part.m + part.n == n:
                worst_full = max(worst_full, abs(rep.eof - 1.0))
            else:
                worst_partial = max(worst_partial, rep.concurrence, rep.eof)
    ok = worst_full < 1e-9 and worst_partial < 1e-9
    _verdict(
        capsys, 1, ok,
        f"ghz N=3..8: full covers |eof-1| max {worst_full:.2e}, "
        f"partial covers max {worst_partial:.2e} (tol 1e-9)",
    )
    assert ok


def test_criterion_2_ghz_pairs_disentangled(ghz_densities, capsys):
    worst = 0.0
    for n, rho in ghz_densities.items():
        for part in enumerate_partitions(n, max_bunch=1):
            worst = max(worst, eof_bunches(rho, part).concurrence)
    ok = worst < 1e-12
    _verdict(capsys, 2, ok, f"ghz singleton pairs: concurrence max {worst:.2e} (tol 1e-12)")
    assert ok


def test_criterion_3_two_branch_states(capsys):
    worst_partial = 0.0
    worst_full = 0.0
    for n in range(3, 7):
        for w in range(1, n):
            rho = densify(bell_w_state(n, w))
            for part in enumerate_partitions(n):
                rep = eof_bunches(rho, part)
                if part.m + part.n == n:
                    worst_full = max(worst_full, abs(rep.eof - 1.0))
                else:
                    worst_partial = max(worst_partial, rep.eof)
    ok = worst_partial < 1e-9 and worst_full < 1e-9
    _verdict(
        capsys, 3, ok,
        f"two-branch N=3..6 all w: partial eof max {worst_partial:.2e}, "
        f"full covers |eof-1| max {worst_full:.2e} (tol 1e-9)",
    )
    assert ok


def _binary_entropy(p: float) -> float:
    return -sum(q * math.log2(q) for q in (p, 1.0 - p) if q > 0.0)


def _x_state_concurrence(coherence: float, p00: float, p11: float) -> float:
    """Concurrence of a two-qubit X-state whose only coherence is |rho_01,10|."""
    return max(0.0, 2.0 * (coherence - math.sqrt(p00 * p11)))


def test_criterion_4_molecule_mixture(capsys):
    """Uniform 3-of-4 molecule: which cover classes carry bunch entanglement.

    The expected values are derived from the documented definitions:
    embedded_bell puts the two-branch state on its subset with the rest in
    |0>, and bunch_reduce is a partial trace followed by a sum of pattern
    compressions.

    1. bunch_reduce is linear in rho, so the molecule's rho_ab is the
       1/4-weighted sum of its components' rho_ab.
    2. Every full cover is separable. A component's outsider o is |0> in
       both branches and sits in some bunch. If o is alone there, that
       bunch's logical value is fixed and rho_ab is a product. Otherwise the
       bunch also holds a subset member, which flips between the branches
       while o does not, so the branches land in different patterns and
       rho_ab is diagonal. A mixture of separable states is separable, so
       EoF = 0 on all 7 full covers.
    3. A 3-qubit cover of subset S traces out the fourth qubit. The S
       component keeps its coherence, |rho_01,10| = 1/8 at weight 1/4; in
       every other component the traced qubit flips, so it turns diagonal.
       rho_ab is an X-state with C = 2 max(0, 1/8 - sqrt(rho_00 rho_11)).
       Qubit 1 is 1 only in the second branch of a subset it heads, where
       all other qubits are 0, so rho_11 = 0 whenever qubit 1 is an anchor:
       C = 1/4 and EoF = h((1 + sqrt(15)/4) / 2) on the 9 covers of
       (1,2,3), (1,2,4) and (1,3,4). On the 3 covers of (2,3,4),
       rho_00 = 3/8 and rho_11 = 1/8, so C = 0.
    4. A 2-qubit cover traces out two qubits. In every component at least
       one of them is a subset member, which flips between the branches, so
       no coherence is left: C = 0 on all 6.
    """
    subsets = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    rho = entanglement_molecule(4, 3, 1, {s: 0.25 for s in subsets})
    components = [densify(embedded_bell(4, s, 1)) for s in subsets]

    c_headed = _x_state_concurrence(1 / 8, 0.0, 0.0)
    c_tail = _x_state_concurrence(1 / 8, 3 / 8, 1 / 8)
    derived = {
        "full cover": (7, 0.0, 0.0),
        "3-cover with qubit 1": (
            9, c_headed, _binary_entropy((1 + math.sqrt(1 - c_headed**2)) / 2)
        ),
        "3-cover of 2-3-4": (3, c_tail, 0.0),
        "2-cover": (6, 0.0, 0.0),
    }

    def cover_class(part: BunchPartition) -> str:
        covered = set(part.labels)
        if len(covered) == 4:
            return "full cover"
        if len(covered) == 2:
            return "2-cover"
        return "3-cover with qubit 1" if 1 in covered else "3-cover of 2-3-4"

    worst_component = 0.0
    worst_linear = 0.0
    measured = {name: [] for name in derived}
    for part in enumerate_partitions(4):
        rep = eof_bunches(rho, part)
        measured[cover_class(part)].append((rep.concurrence, rep.eof))
        if part.m + part.n == 4:
            worst_component = max(
                worst_component, *(eof_bunches(c, part).eof for c in components)
            )
        summed = sum(0.25 * bunch_reduce(c, part).rho_ab.entries for c in components)
        got = bunch_reduce(rho, part).rho_ab.entries
        worst_linear = max(worst_linear, float(np.abs(got - summed).max()))

    counts_ok = all(len(measured[name]) == count for name, (count, _, _) in derived.items())
    worst_class = 0.0
    lines = []
    for name, (count, want_c, want_e) in derived.items():
        values = measured[name]
        for c, e in values:
            worst_class = max(worst_class, abs(c - want_c), abs(e - want_e))
        eofs = [e for _, e in values]
        lines.append(
            f"{name} x{len(values)}/{count}: eof derived {want_e:.12f} "
            f"measured {min(eofs, default=math.nan):.12f}..{max(eofs, default=math.nan):.12f}"
        )
    ok = counts_ok and worst_component < 1e-9 and worst_linear < 1e-14 and worst_class < 1e-9
    _verdict(
        capsys, 4, ok,
        f"uniform 3-of-4 molecule: component full-cover eof max {worst_component:.2e} "
        f"(tol 1e-9), linearity diff max {worst_linear:.2e} (tol 1e-14), "
        f"class |C, eof - derived| max {worst_class:.2e} (tol 1e-9); "
        + "; ".join(lines),
    )
    assert ok


def test_criterion_5_pure_state_entropy_oracle(capsys):
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(1000):
        rho = densify(random_pure(rng, 2))
        probs = np.linalg.eigvalsh(partial_trace(rho, [1]).entries)
        entropy = float(sum(-p * math.log2(p) for p in probs if p > 1e-15))
        worst = max(worst, abs(eof(rho).eof - entropy))
    ok = worst < 1e-8
    _verdict(capsys, 5, ok, f"1000 pure pairs: |eof - marginal entropy| max {worst:.2e} (tol 1e-8)")
    assert ok


def test_criterion_6_projector_route_equivalence(capsys):
    rng = np.random.default_rng(6)
    worst = 0.0
    for n in (3, 4):
        for _ in range(50):
            rho = random_mixed(rng, n)
            for part in enumerate_partitions(n):
                keep = sorted(part.labels)
                reduced = traced_onto(rho, keep)
                pos = {lab: t + 1 for t, lab in enumerate(keep)}
                local = BunchPartition(
                    tuple(pos[x] for x in part.bunch_a),
                    tuple(pos[x] for x in part.bunch_b),
                )
                red = bunch_reduce(rho, part)
                for pattern, comp in zip(enumerate_patterns(local), red.components):
                    proj = build_projector(local, pattern)
                    want = proj @ reduced @ proj.conj().T
                    got = compress_operator(reduced, local, pattern)
                    worst = max(worst, float(np.abs(got - want).max()))
                    assembled = (
                        comp.eta * comp.rho_pattern.entries
                        if comp.rho_pattern is not None
                        else np.zeros((4, 4))
                    )
                    worst = max(worst, float(np.abs(assembled - want).max()))
    ok = worst < 1e-13
    _verdict(capsys, 6, ok, f"bit-index vs projector blocks: entry diff max {worst:.2e} (tol 1e-13)")
    assert ok


def test_criterion_7_eta_normalization(capsys):
    rng = np.random.default_rng(7)
    worst_sum = 0.0
    worst_range = 0.0
    worst_defect = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        rho = random_mixed(rng, n)
        part = random_partition(rng, n)
        red = bunch_reduce(rho, part)
        worst_sum = max(worst_sum, abs(sum(red.etas) - 1.0))
        worst_range = max(worst_range, *(max(-e, e - 1.0) for e in red.etas))
        herm, trace, low = (defect for _, defect, _, _ in state_defects("mixed", red.rho_ab.entries))
        worst_defect = max(worst_defect, herm, trace, -low)
    ok = worst_sum < 1e-12 and worst_range <= 0.0 + 1e-12 and worst_defect < 1e-9
    _verdict(
        capsys, 7, ok,
        f"200 random reductions: |sum eta - 1| max {worst_sum:.2e} (tol 1e-12), "
        f"density defect max {worst_defect:.2e}",
    )
    assert ok


def test_criterion_8_tripartite_templates(capsys):
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(50):
        rho = random_mixed(rng, 3)
        triple = tripartite_triple(rho)
        for red, want in zip(triple, tripartite_oracle(rho.entries)):
            worst = max(worst, float(np.abs(red.rho_ab.entries - want).max()))
    ok = worst < 1e-14
    _verdict(capsys, 8, ok, f"50 tripartite triples vs index oracle: entry diff max {worst:.2e} (tol 1e-14)")
    assert ok


def test_criterion_9_cli_golden_run(tmp_path, capsys):
    ghz4 = tmp_path / "ghz4.json"
    ghz5 = tmp_path / "ghz5.json"
    checks = []

    checks.append(main(["build", "ghz", "--n", "4", "--out", str(ghz4)]) == 0)
    checks.append(main(["build", "ghz", "--n", "5", "--out", str(ghz5)]) == 0)
    capsys.readouterr()

    main(["eof", str(ghz4), "--a", "1", "--b", "2,3,4"])
    checks.append(capsys.readouterr().out == "concurrence 1.000000000000\neof 1.000000000000\n")

    main(["eof", str(ghz4), "--a", "1", "--b", "2,3"])
    checks.append(capsys.readouterr().out == "concurrence 0.000000000000\neof 0.000000000000\n")

    main(["survey", str(ghz5), "--full-cover"])
    first = capsys.readouterr().out
    rows = first.strip().split("\n")[1:]
    checks.append(len(rows) == 15)
    checks.append(all(row.split(",")[5] == "1" for row in rows))

    main(["survey", str(ghz5), "--full-cover"])
    checks.append(capsys.readouterr().out == first)
    main(["survey", str(ghz5), "--full-cover", "--jobs", "3"])
    checks.append(capsys.readouterr().out == first)

    ok = all(checks)
    _verdict(capsys, 9, ok, f"cli goldens and determinism: {sum(checks)}/{len(checks)} checks")
    assert ok
