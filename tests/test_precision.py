"""The concurrence/EoF chain against a 40-digit oracle (mpmath).

The oracle takes the float64 matrix the chain sees, exactly as stored, and
works at 40 digits: lambda_i are the square roots of the eigenvalues of
sqrt(rho) flipped(rho) sqrt(rho), flipped(rho) = (sigma_y x sigma_y) rho*
(sigma_y x sigma_y), and C = max(0, l1 - l2 - l3 - l4). The common case
meets the X-state test's bound (tests/test_measures.py). Three known
deviations are pinned at the size they have today, so that a change to the
chain's floor, to the entropy's 1 - x or to the clamp of C must change
these bounds on purpose:
  - the floor: a lambda whose square is below _CHAIN_EIG_FLOOR (1e-14)
    reads as 0, so C is off by that lambda;
  - EoF at small C: h((1 + sqrt(1 - C^2)) / 2) cancels in 1 - x, which
    holds about C^2 / 4 on a grid of 2^-53;
  - roundoff C: a split whose true C is 0 can print a C of a few 1e-17,
    roundoff past the max(0, .) clamp.
"""

import math
from itertools import combinations

import numpy as np
from mpmath import mp

from bunchent import bunch_reduce, concurrence, entanglement_molecule, enumerate_partitions, eof, survey
from bunchent.measures import _SPIN_FLIP
from helpers import random_mixed

mp.dps = 40

_FLIP = mp.matrix(_SPIN_FLIP.real.tolist())


def _oracle_lambdas(rho: np.ndarray) -> list:
    """Descending lambdas of a 4x4 float64 state, at 40 digits."""
    m = mp.matrix(rho.tolist())
    m = (m + m.H) / 2
    w, v = mp.eigh(m)
    root = v * mp.diag([mp.sqrt(max(x, 0)) for x in w]) * v.H
    chained = root * _FLIP * m.conjugate() * _FLIP * root
    squares = mp.eigh((chained + chained.H) / 2, eigvals_only=True)
    return sorted((mp.sqrt(max(s, 0)) for s in squares), reverse=True)


def _oracle_margin(rho: np.ndarray):
    """l1 - l2 - l3 - l4 at 40 digits, before the max(0, .) clamp."""
    lam = _oracle_lambdas(rho)
    return lam[0] - lam[1] - lam[2] - lam[3]


def _entropy(x):
    """Binary entropy in bits at 40 digits."""
    return -x * mp.log(x, 2) - (1 - x) * mp.log(1 - x, 2)


def test_random_states_meet_the_oracle():
    # 40 seeded Gram states of each rank 4, 2 and 1; a rank-deficient float64
    # rho has roundoff lambdas (below 1e-12) in place of its zeros, which the
    # floor reads as 0, and the bound takes the smallest of the others
    rng = np.random.default_rng(8)
    for rank in (4, 2, 1):
        for _ in range(40):
            rho = random_mixed(rng, 2, rank).entries
            lam = _oracle_lambdas(rho)
            assert all(x < 1e-12 or x >= 1e-6 for x in lam)
            lam_min = min(x for x in lam if x >= 1e-6)
            want = max(0, lam[0] - lam[1] - lam[2] - lam[3])
            assert abs(eof(rho).concurrence - want) <= 1e-14 + 1e-15 / lam_min


def _x_state(p, z: complex, w: complex) -> np.ndarray:
    """The X state with diagonal p and coherences z = rho_14, w = rho_23."""
    rho = np.diag(np.asarray(p, dtype=complex))
    rho[0, 3], rho[3, 0], rho[1, 2], rho[2, 1] = z, np.conj(z), w, np.conj(w)
    return rho


def _x_closed_form(rho: np.ndarray):
    """Yu & Eberly (2007) on a float64 X state, at 40 digits: the lambdas
    sqrt(p1 p4) +- |z| and sqrt(p2 p3) +- |w| (z = rho_14, w = rho_23), and
    C = 2 max(0, |z| - sqrt(p2 p3), |w| - sqrt(p1 p4))."""
    p = [mp.mpf(float(rho[i, i].real)) for i in range(4)]
    z, w = (abs(mp.mpc(complex(rho[i, j]))) for i, j in ((0, 3), (1, 2)))
    a, b = mp.sqrt(p[0] * p[3]), mp.sqrt(p[1] * p[2])
    return sorted((a + z, abs(a - z), b + w, abs(b - w)), reverse=True), 2 * max(0, z - b, w - a)


def _molecule_x_states() -> list:
    """The reductions of the uniform 7-qubit molecule (n = 3, w = 1) that are
    X-shaped: 511 of its 966 splits, the others have entries off the X."""
    subsets = list(combinations(range(1, 8), 3))
    state = entanglement_molecule(7, 3, 1, dict.fromkeys(subsets, 1.0 / len(subsets)))
    off_x = np.ones((4, 4), dtype=bool)
    off_x[[0, 1, 2, 3, 0, 3, 1, 2], [0, 1, 2, 3, 3, 0, 2, 1]] = False
    reductions = (bunch_reduce(state, pair).rho_ab.entries for pair in enumerate_partitions(7))
    return [rho for rho in reductions if not rho[off_x].any()]


def test_x_states_meet_the_closed_form():
    # seeded X states, the X-state test's hypothesis example (smallest lambda
    # 7.5e-5) and the molecule's X-shaped reductions (every row of its survey
    # with C above 1e-12 among them), under the X-state test's bound
    # (tests/test_measures.py); roundoff lambdas (below 1e-12) count as 0, as
    # in the random-state test. The general oracle agrees with the closed form.
    # Measured: |dC| at most 1.3e-15 on the drawn states, 3.8e-17 on the molecule
    rng = np.random.default_rng(9)
    drawn = []
    for p in rng.dirichlet(np.ones(4), size=120):
        z, w = (rng.uniform() * math.sqrt(p[i] * p[j]) * np.exp(2j * math.pi * rng.uniform())
                for i, j in ((0, 3), (1, 2)))
        drawn.append(_x_state(p, z, w))
    example = _x_state((0.020571610413992726, 0.5297229142104177, 1.5891158289262755e-07, 0.44970531646400674),
                       0.026947039576221885 + 0.055049300246102904j, 8.066001541315687e-05 + 0.00019930307150728998j)
    molecule = _molecule_x_states()
    assert len(molecule) == 511
    for rho in [*drawn, example, *molecule]:
        lam, want = _x_closed_form(rho)
        assert all(abs(x - y) <= 1e-30 for x, y in zip(lam, _oracle_lambdas(rho)))
        assert all(x < 1e-12 or x >= 1e-6 for x in lam)
        lam_min = min(x for x in lam if x >= 1e-6)
        assert abs(concurrence(rho) - want) <= 1e-14 + 1e-15 / lam_min


def _bell_diagonal(e: float) -> np.ndarray:
    """(1 - e) Phi+ + e Phi-, whose C is 1 - 2e."""
    plus, minus = (np.array([1.0, 0.0, 0.0, sign]) / math.sqrt(2.0) for sign in (1.0, -1.0))
    return (1 - e) * np.outer(plus, plus) + e * np.outer(minus, minus)


def test_floor_drops_a_small_lambda():
    # lambda_2 = e: its square, e^2, falls under the 1e-14 floor below
    # e = 1e-7, and C reads l1 = 1 - e instead of 1 - 2e (at e = 1e-7 itself,
    # roundoff decides); at e = 2e-7 C is right to a few ulps
    for e, floored in ((5e-8, True), (2e-7, False)):
        rho = _bell_diagonal(e)
        want = _oracle_margin(rho)
        assert abs(want - (1 - 2 * e)) <= 1e-15
        error = eof(rho).concurrence - want
        if floored:
            assert 0.99 * e <= error <= 1.01 * e
        else:
            assert abs(error) <= 1e-15


def test_eof_loses_digits_at_small_concurrence():
    # cos t |00> + sin t |11> has C = sin 2t. The entropy's 1 - x is about
    # C^2 / 4 rounded to a multiple of 2^-53, so its relative error reaches
    # 2^-54 / (C^2 / 4) = 2.2e-16 / C^2 (with C's own error, 4.4e-16 / C^2).
    # Measured: 2.6e-10 at C = 1e-3, 7.9e-8 at 1e-5, 2.2e-2 at 1e-7
    for c, measured in ((1e-3, 2.6e-10), (1e-5, 7.9e-8), (1e-7, 2.2e-2)):
        t = math.asin(c) / 2
        psi = np.array([math.cos(t), 0.0, 0.0, math.sin(t)])
        rho = np.outer(psi, psi)
        true_c = _oracle_margin(rho)
        assert abs(true_c - c) <= 1e-15 * c
        want = _entropy((1 + mp.sqrt(1 - true_c**2)) / 2)
        report = eof(rho)
        assert abs(report.concurrence - true_c) <= 1e-15 * c
        assert measured / 10 <= abs(report.eof - want) / want <= 4.4e-16 / c**2
    # at C = 1e-8 the only lambda, 1e-8, is under the floor: C and EoF print
    # 0 against a true EoF of 1.4e-15
    t = math.asin(1e-8) / 2
    psi = np.array([math.cos(t), 0.0, 0.0, math.sin(t)])
    report = eof(np.outer(psi, psi))
    assert (report.concurrence, report.eof) == (0.0, 0.0)
    assert 1.3e-15 <= _entropy((1 + mp.sqrt(1 - mp.mpf(1e-8) ** 2)) / 2) <= 1.5e-15


def test_molecule_roundoff_concurrence():
    # the uniform molecule on 7 qubits (n = 3, w = 1), all 966 splits: some
    # rows print 0 < C < 1e-12, each with EoF 0; on some of those the split,
    # reduced alone, still gives C > 0 while the 40-digit l1 - l2 - l3 - l4 is
    # <= 0, so the printed C is roundoff past the clamp. The counts (274 such rows of
    # 319 with C > 0 here) depend on LAPACK, so only the property is asserted
    subsets = list(combinations(range(1, 8), 3))
    state = entanglement_molecule(7, 3, 1, dict.fromkeys(subsets, 1.0 / len(subsets)))
    reports = survey(state)
    assert len(reports) == 966
    roundoff = [rep for rep in reports if 0.0 < rep.concurrence < 1e-12]
    assert roundoff
    assert all(rep.eof == 0.0 for rep in roundoff)
    past_clamp = 0
    for rep in roundoff:
        rho = bunch_reduce(state, rep.partition).rho_ab.entries
        past_clamp += 0.0 < eof(rho).concurrence and _oracle_margin(rho) <= 0
    assert past_clamp
