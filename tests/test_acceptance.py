"""Acceptance gate: eleven numbered criteria, one verdict line each.

Run with ``pytest -v tests/test_acceptance.py``; every test prints
``criterion NN: PASS/FAIL`` (visible with -s or in the captured output
of a failure) and asserts the same condition.  Seeds and tolerances are
pinned so the whole module is deterministic.
"""

import math
import time
from fractions import Fraction

import numpy as np

from partition_lab.core import ExtParams
from partition_lab.deletion import decrement_matrix
from partition_lab.eppf import (
    addition_residual,
    eppf,
    first_color_count_law,
    first_color_tail,
    stick_fraction_law,
)
from partition_lab.oracle import (
    chi_square,
    deletion_law_check,
    exact_law,
    iter_partitions,
    ks_two_sample,
    leem_check,
    tau_perm_law,
    tau_regen_check,
    xi_order_enumeration_residual,
)
from partition_lab.regen import (
    LevyImageMeasure,
    compound_poisson_set,
    decrement_from_phi,
    leftmost_deletion_counts,
    stick_breaking_set,
)
from partition_lab.samplers import (
    RngHandle,
    crp_assignments,
    size_biased_perms,
    stick_fraction_matrix,
    xi_arrangements,
)

SEED = 20260815

GRID = (
    ExtParams.two_param(0, 1),
    ExtParams.two_param(0, 2),
    ExtParams.two_param(Fraction(1, 2), Fraction(1, 2)),
    ExtParams.two_param(Fraction(1, 3), Fraction(2, 3)),
    ExtParams.two_param(Fraction(2, 3), 0),
    ExtParams.neg_alpha(-1, 3),
    ExtParams.coupon(4),
)
TWO_PARAM_GRID = GRID[:5]


def _verdict(num: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _compositions(n):
    for cuts in range(2 ** (n - 1)):
        parts, run = [], 1
        for i in range(n - 1):
            if cuts >> i & 1:
                parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        yield tuple(parts)


def test_criterion_01_eppf_normalization():
    t0 = time.monotonic()
    ok = True
    for params in GRID:
        for n in range(1, 9):
            total = sum(eppf(params, pi.block_sizes()) for pi in iter_partitions(n))
            ok = ok and total == 1
    elapsed = time.monotonic() - t0
    _verdict("01", ok and elapsed < 30.0, f"exact sums over n<=8 grid, {elapsed:.1f}s")


def test_criterion_02_addition_rule():
    ok = True
    for params in GRID:
        for n in range(1, 8):
            for parts in _compositions(n):
                ok = ok and addition_residual(params, parts) == 0
    _verdict("02", ok, "residual 0 for every composition of n<=7")


def test_criterion_03_deletion_characterization():
    ok = True
    for params in GRID:
        for n in range(2, 9):
            ok = ok and deletion_law_check(params, n) == 0
    # bounded-colour range shifts down one colour
    ok = ok and ExtParams.coupon(4).shifted() == ExtParams.coupon(3)
    # negative control: a perturbed law must be seen
    params = ExtParams.two_param(0, 1)
    law = exact_law(params, 5)
    target = next(iter_partitions(5))
    deviation = deletion_law_check(params, 5, law.perturbed(target, Fraction(1, 1000)))
    ok = ok and deviation > Fraction(1, 10_000)
    _verdict("03", ok, f"exact n<=8 grid, control deviation {float(deviation):.2e} > 1e-4")


def test_criterion_04_tau_regeneration():
    ok = True
    for params in TWO_PARAM_GRID:  # alpha, theta >= 0 points
        for n in range(2, 9):
            ok = ok and tau_regen_check(params, n) == 0
    _verdict("04", ok, "deleted size and remainder exact for n<=8")


def test_criterion_05_decrement_consistency():
    ok = True
    for params in TWO_PARAM_GRID:
        measure = LevyImageMeasure.alpha_theta(params.alpha, params.theta)
        ok = ok and decrement_from_phi(measure, 20) == decrement_matrix(params, 20)
        ok = ok and all(s == 1 for s in decrement_matrix(params, 50).row_sums())
    _verdict("05", ok, "subordinator route == kernel route n<=20, row sums to n=50")


def test_criterion_06_pick_order_identity():
    ok = True
    for k in range(1, 6):
        x = tuple(Fraction(i, k * (k + 1) // 2) for i in range(1, k + 1))
        for tau in (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1):
            ok = ok and leem_check(x, tau) == 0
    # k = 8 by simulation: compose size-biased order with an independent
    # xi order and test against the direct tau-biased law over all 8!
    k, tau = 8, Fraction(1, 4)
    xi = (1 - tau) / tau
    x = tuple(Fraction(i, 36) for i in range(1, 9))
    rng = RngHandle(SEED)
    sigma = size_biased_perms(x, 1_000_000, rng)
    word = xi_arrangements(k, xi, 1_000_000, rng)
    composed = np.take_along_axis(sigma, word - 1, axis=1)
    fact = np.array([math.factorial(k - 1 - t) for t in range(k)], dtype=np.int64)
    idx = np.zeros(composed.shape[0], dtype=np.int64)
    for t in range(k - 1):
        idx += (composed[:, t + 1 :] < composed[:, t : t + 1]).sum(axis=1) * fact[t]
    counts = np.bincount(idx, minlength=math.factorial(k))
    # the law's orders are lexicographic, the order the Lehmer index counts
    probs = list(tau_perm_law([float(v) for v in x], float(tau)).values())
    stat, dof, pval = chi_square(counts, probs)
    ok = ok and pval > 1e-3
    _verdict("06", ok, f"exact k<=5; k=8 MC chi2 p={pval:.4f}")


def test_criterion_07_record_formula():
    ok = True
    for xi in (Fraction(1, 2), 1, 2, 3):
        for k in range(1, 7):
            ok = ok and xi_order_enumeration_residual(k, xi) == 0
    _verdict("07", ok, "closed form == enumeration for k<=6")


def test_criterion_08_crp_goodness_of_fit():
    t0 = time.monotonic()
    params = ExtParams.two_param(Fraction(1, 2), Fraction(1, 2))
    words = crp_assignments(params, 6, 1_000_000, RngHandle(SEED))
    code = (words * (6 ** np.arange(6))[None, :]).sum(axis=1)
    cell, probs = {}, []
    for pi in iter_partitions(6):
        w = np.array(pi.assignment_word()) - 1
        cell[int((w * 6 ** np.arange(6)).sum())] = len(probs)
        probs.append(float(eppf(params, pi.block_sizes())))
    counts = np.bincount(
        np.array([cell[int(c)] for c in code]), minlength=len(probs)
    )
    stat, dof, pval = chi_square(counts, probs)
    elapsed = time.monotonic() - t0
    _verdict("08", pval > 1e-3 and elapsed < 60.0, f"p={pval:.4f}, {elapsed:.1f}s")


def test_criterion_09_gem_moments():
    ok = True
    worst = 0.0
    for params in TWO_PARAM_GRID:
        draws = stick_fraction_matrix(params, 3, 100_000, RngHandle(7))
        for k in range(1, 4):
            law = stick_fraction_law(params, k)
            col = draws[:, k - 1]
            for sample, want in (
                (col, law.moment(1, 0)),
                (col**2, law.moment(2, 0)),
                (col * (1 - col), law.moment(1, 1)),
            ):
                se = sample.std(ddof=1) / math.sqrt(sample.size)
                z = abs(sample.mean() - float(want)) / se
                worst = max(worst, z)
                ok = ok and z <= 4.0
    _verdict("09", ok, f"all moments within 4 SE (worst z={worst:.2f})")


def test_criterion_10_regenerative_set_laws():
    # (a) two constructions of the same theta = 1 set
    rng = RngHandle(SEED)
    n_draws = 100_000

    def first3(iv):
        lengths = [right - left for (left, right) in iv.intervals[:3]]
        return lengths + [0.0] * (3 - len(lengths))

    a = np.array([first3(compound_poisson_set(1.0, 1e-6, rng)[1]) for _ in range(n_draws)])
    b = np.array([first3(stick_breaking_set(1.0, 1e-6, rng)) for _ in range(n_draws)])
    ks_p = [ks_two_sample(a[:, j], b[:, j])[1] for j in range(3)]
    ok = all(p > 1e-3 for p in ks_p)
    # (b) leftmost deletion from an arranged GEM(1/2, 1/2) set, n = 10
    params = ExtParams.two_param(Fraction(1, 2), Fraction(1, 2))
    counts = leftmost_deletion_counts(params, 10, 100_000, 4e-3, RngHandle(SEED))
    row = [float(v) for v in decrement_matrix(params, 10).row(10)]
    stat, dof, chi_p = chi_square(counts[1:], row)
    ok = ok and chi_p > 1e-3
    _verdict(
        "10",
        ok,
        f"KS p={min(ks_p):.4f} (worst of 3), deleted-size chi2 p={chi_p:.4f}",
    )


def test_criterion_11_first_color_tail():
    # documented caps: the tail decays like m**-(alpha+theta) (geometric
    # for the coupon range), so the cap grows as the exponent shrinks
    caps = {
        GRID[0]: 10**9,
        GRID[1]: 10**5,
        GRID[2]: 10**9,
        GRID[3]: 10**9,
        GRID[4]: 10**13,
        GRID[5]: 3 * 10**5,
        GRID[6]: 200,
    }
    ok = True
    worst = 0.0
    for params, cap in caps.items():
        pf = params.as_float()
        for n in range(1, 7):
            # partial sum through the exact complement; the identity
            # partial + tail == 1 is itself checked below
            tail = float(first_color_tail(pf, n, cap))
            worst = max(worst, tail)
            ok = ok and 1.0 - tail >= 1.0 - 1e-8
        explicit = sum(first_color_count_law(pf, 4, m) for m in range(1, 51))
        ok = ok and abs(float(explicit) - (1.0 - float(first_color_tail(pf, 4, 50)))) < 1e-12
    # bounded-colour point reaches the bound exactly
    coupon = GRID[6]
    partial = sum(first_color_count_law(coupon, 4, m) for m in range(1, 201))
    ok = ok and partial == 1 - first_color_tail(coupon, 4, 200)
    _verdict("11", ok, f"partial sums >= 1 - 1e-8 at documented caps (worst tail {worst:.1e})")
