"""Partition probabilities, moments, and the first-block laws."""

import hashlib
import importlib
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_deletion import ulps, worst_twin_ulps

from partition_lab import core
from partition_lab.cli import _VERIFY_GRID
from partition_lab.core import COUPON, ConvergenceError, ExtParams, ParameterError, rising_ratio
from partition_lab.deletion import _compositions
from partition_lab.eppf import (
    BetaParams,
    addition_residual,
    derived_eppf,
    eppf,
    eppf_from_moments,
    first_color_count_law,
    first_color_tail,
    q_first_block,
    residual_moment_family,
    rising_factorial,
    stick_fraction_law,
)
from partition_lab.oracle import enumerate_partitions

eppf_module = importlib.import_module("partition_lab.eppf")  # the package's eppf is the function

GRID = (
    ExtParams.two_param(0, 1),
    ExtParams.two_param(0, 2),
    ExtParams.two_param(Fraction(1, 2), Fraction(1, 2)),
    ExtParams.two_param(Fraction(1, 3), Fraction(2, 3)),
    ExtParams.two_param(Fraction(2, 3), 0),
    ExtParams.neg_alpha(-1, 3),
    ExtParams.coupon(4),
)


def test_rising_factorial():
    assert rising_factorial(3, 0) == 1
    assert rising_factorial(3, 4) == 3 * 4 * 5 * 6
    assert rising_factorial(Fraction(1, 2), 2) == Fraction(3, 4)
    with pytest.raises(ParameterError):
        rising_factorial(1, -1)


def test_beta_moments_exact():
    w = BetaParams(Fraction(1, 2), Fraction(1, 2))
    assert w.moment(1, 0) == Fraction(1, 2)
    assert w.moment(2, 0) == Fraction(3, 8)
    assert w.moment(1, 1) == Fraction(1, 8)
    assert w.moment(0, 0) == 1


def test_float_beta_moment_stays_finite():
    got = BetaParams(0.5, 1.5).moment(400, 400)
    want = float(BetaParams(Fraction(1, 2), Fraction(3, 2)).moment(400, 400))
    assert math.isfinite(got)
    assert got == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize(
    ("params", "parts", "value"),
    [
        (ExtParams.two_param(0, 1), (2, 1), Fraction(1, 6)),
        (ExtParams.two_param(0, 1), (1, 1, 1), Fraction(1, 6)),
        (ExtParams.two_param(Fraction(1, 2), Fraction(1, 2)), (2,), Fraction(1, 3)),
        (ExtParams.two_param(Fraction(1, 3), Fraction(2, 3)), (2, 2), Fraction(3, 110)),
        (ExtParams.neg_alpha(-1, 3), (1, 1), Fraction(1, 2)),
        (ExtParams.neg_alpha(-1, 3), (2, 1), Fraction(1, 5)),
        (ExtParams.neg_alpha(-1, 3), (1, 1, 1, 1), 0),  # more blocks than m
        (ExtParams.coupon(4), (1, 1), Fraction(3, 4)),
        (ExtParams.coupon(4), (2,), Fraction(1, 4)),
        (ExtParams.coupon(2), (1, 1), Fraction(1, 2)),
    ],
)
def test_eppf_frozen_values(params, parts, value):
    got = eppf(params, parts)
    assert got == value


FROZEN_COMPOSITIONS = ((1, 1), (2, 1), (3, 1, 2), (7, 7), (25, 1, 12), (60, 60), (40, 30, 20, 10), (120,))


@pytest.mark.parametrize(
    ("alpha", "theta", "reprs"),
    [
        (0.5, 0.5, ("0.6666666666666666", "0.13333333333333333", "0.0017316017316017316",
                    "1.0124333721049296e-06", "7.501539201900303e-15", "1.5010640024492782e-40",
                    "5.087546709390461e-61", "0.0041841004184100415")),
        (0.3, 0.5, ("0.5333333333333333", "0.14933333333333335", "0.002256592592592593",
                    "3.114137083149312e-06", "2.5096167335076347e-14", "1.1446946159493265e-39",
                    "8.325521550656081e-60", "0.0148616293902936")),
        (1 / 3, 1 / 7, ("0.4166666666666667", "0.12962962962962968", "0.0017412548454126446",
                        "4.067822626328743e-06", "3.2380586058126116e-14", "2.7817033852841804e-39",
                        "9.141418200524814e-60", "0.07084348529313694")),
    ],
)
def test_float_eppf_frozen_reprs(alpha, theta, reprs):
    # in range, float eppf is the plain product, so its bytes are pinned
    params = ExtParams.two_param(alpha, theta)
    assert tuple(repr(eppf(params, c)) for c in FROZEN_COMPOSITIONS) == reprs


def _reference_eppf(params, parts):
    """eppf by one rising_ratio call, the route it took before its integer quotient."""
    n, k = sum(parts), len(parts)
    if params.max_blocks is not None and k > params.max_blocks:
        return 0
    if params.kind == COUPON:
        return Fraction(math.perm(params.m, k), params.m ** n)
    alpha, theta = params.alpha, params.theta
    return rising_ratio([(1 - alpha, p - 1) for p in parts], ((theta + 1, n - 1),),
                        [theta + i * alpha for i in range(1, k)])


# Every exact verify-grid point, a negative theta (T < 0 in the integer
# scale) and int parameters; neg_alpha(-1, 3) past 3 blocks gives int 0.
EXACT_POINTS = tuple(p for p in _VERIFY_GRID if p.is_exact_mode) + (
    ExtParams.two_param(Fraction(1, 2), Fraction(-1, 4)),
)
COMPOSITIONS = [c for n in range(1, 9) for c in _compositions(n)] + [(60, 40)]
EXACT_CASES = tuple(itertools.product(EXACT_POINTS, COMPOSITIONS))

# sha256 of "<type name> <repr>" per line for eppf over EXACT_CASES, in order
EXACT_EPPF_GOLDEN = "9e51c9c146e9537532ff1d9d724be431d1db3bd1c175d52e23b2959d55a21b8b"


def test_exact_eppf_golden():
    lines = [f"{type(v).__name__} {v!r}" for v in (eppf(p, c) for p, c in EXACT_CASES)]
    assert len(lines) == len(EXACT_POINTS) * 256
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == EXACT_EPPF_GOLDEN


def test_exact_eppf_is_the_rising_ratio_route():
    for params, parts in EXACT_CASES:
        got, want = eppf(params, parts), _reference_eppf(params, parts)
        assert (type(got), got) == (type(want), want), (params, parts)


def _product_eppf(params, parts):
    """p(lambda) as a product of rising_factorial Fractions, one factor per term of the formula."""
    n, k = sum(parts), len(parts)
    if params.kind == COUPON:  # m (m - 1) ... (m - k + 1) / m^n; 0 past m blocks
        return rising_factorial(Fraction(params.m - k + 1), k) / Fraction(params.m) ** n
    alpha, theta = Fraction(params.alpha), Fraction(params.theta)
    value = math.prod((theta + i * alpha for i in range(1, k)), start=Fraction(1))
    for p in parts:
        value *= rising_factorial(1 - alpha, p - 1)
    return value / rising_factorial(theta + 1, n - 1)


@pytest.mark.parametrize("params", _VERIFY_GRID, ids=str)
def test_exact_eppf_is_the_rising_factorial_product(params):
    # every composition of n <= 8; the bounded ranges give the int 0 past
    # their blocks, every other value is a Fraction
    for parts in (c for n in range(1, 9) for c in _compositions(n)):
        got, want = eppf(params, parts), _product_eppf(params, parts)
        past = params.max_blocks is not None and len(parts) > params.max_blocks
        assert got == want and type(got) is (int if past else Fraction), (parts, got, want)


def test_eppf_is_symmetric_in_parts():
    params = ExtParams.two_param(Fraction(1, 3), Fraction(2, 3))
    assert eppf(params, (3, 1, 2)) == eppf(params, (1, 2, 3))


@pytest.mark.parametrize(("alpha", "theta"), [(Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 3), Fraction(1, 7))])
@pytest.mark.parametrize("parts", [(171,), (172,), (300,), (100, 100, 100)])
def test_float_eppf_stays_finite_past_171(alpha, theta, parts):
    # (theta + 1)_{n-1} leaves the float range at n = 172
    want = float(eppf(ExtParams.two_param(alpha, theta), parts))
    got = eppf(ExtParams.two_param(float(alpha), float(theta)), parts)
    assert got == pytest.approx(want, rel=1e-12, abs=0)


# Float eppf and BetaParams.moment against their exact twins at the floats'
# own values (tests/test_deletion.py::ulps).  Each grid runs on both routes
# of rising_ratio: the plain product, and log-gamma once that leaves the
# float range, which happens at smaller n for larger theta + 1 or a + b.
# Each bound is twice the worst error measured when this gate was added:
#   eppf (1/3, 1/7): plain 63.5 ulp at (100, 40, 20, 10, 1), log 43,749.5 at (3002,);
#   eppf (0.3, 0.7): plain 12.9 ulp at (50, 30, 20), log 6,196.7 at (1000, 2);
#   moment (0.5, 1.5): plain 2.5 ulp at (80, 80), log 45,724.2 at (2999, 1);
#   moment (2.5, 0.1): plain 33.0 ulp at (80, 80), log 12,389.1 at (2999, 1).
# On the log route the error grows with n, to about 15 n ulp.
_EPPF_CASES = ((3, 1, 2), (50, 30, 20), (100, 40, 20, 10, 1), (150,), (171,), (172,), (300,),
               (100, 100, 100), (1000, 2), (3002,))
_MOMENT_CASES = ((2, 3), (60, 100), (80, 80), (85, 85), (86, 86), (200, 100), (400, 400), (1000, 30),
                 (2999, 1))


def _worst_by_route(monkeypatch, f, cases):
    """{took log-gamma: worst ulps of f(float, case) against f(Fraction, case)} over the cases."""
    log_calls = []
    log_route = core._log_rising_ratio
    monkeypatch.setattr(core, "_log_rising_ratio", lambda *a: log_calls.append(a) or log_route(*a))
    worst = {}
    for case in cases:
        exact = f(Fraction, case)
        del log_calls[:]
        error = ulps(f(float, case), exact)
        worst[bool(log_calls)] = max(worst.get(bool(log_calls), 0.0), error)
    return worst


@pytest.mark.parametrize(("alpha", "theta", "plain_bound", "log_bound"), [
    (1 / 3, 1 / 7, 2 * 63.5, 2 * 43749.5),
    (0.3, 0.7, 2 * 12.9, 2 * 6196.7),
])
def test_float_eppf_against_its_exact_twin(monkeypatch, alpha, theta, plain_bound, log_bound):
    def f(kind, parts):
        return eppf(ExtParams.two_param(kind(alpha), kind(theta)), parts)

    worst = _worst_by_route(monkeypatch, f, _EPPF_CASES)
    assert worst.keys() == {False, True}
    assert worst[False] <= plain_bound and worst[True] <= log_bound


@pytest.mark.parametrize(("a", "b", "plain_bound", "log_bound"), [
    (0.5, 1.5, 2 * 2.5, 2 * 45724.2),
    (2.5, 0.1, 2 * 33.0, 2 * 12389.1),
])
def test_float_beta_moment_against_its_exact_twin(monkeypatch, a, b, plain_bound, log_bound):
    def f(kind, ij):
        return BetaParams(kind(a), kind(b)).moment(*ij)

    worst = _worst_by_route(monkeypatch, f, _MOMENT_CASES)
    assert worst.keys() == {False, True}
    assert worst[False] <= plain_bound and worst[True] <= log_bound


# Float eppf, BetaParams.moment and first_color_tail at theta (or b) from
# 1e6 to 1e300 against their exact twins.  A rising term whose base is at
# least 1024 max(n, 2) takes log B from its asymptotic series, where
# lgamma(x + n) - lgamma(x) cancelled: eppf at theta = 1e12, lambda = (27,)
# read 4.2e-3 relative off, at theta = 1e20, lambda = (40,) 1.8e45 for an
# exact value that underflows, and moment(1, 20) of beta(2.5, 1e20) 2.5
# for 2.5e-20.  Each bound is twice the worst error measured, in ulp:
#   eppf (0.3, theta): 433.7 at 60 singletons, theta = 1e6; 184.5 at
#     (2,) * 5 + (1,) * 50, 1e10; 8,191.9 and 163,840 at 60 singletons,
#     1e20 and 1e300 (at 1e300 each factor theta + i alpha has a log near 690);
#   moment beta(2.5, b): 3,089.3, 10,158.9 and 5,750.1 at (3, 200) for
#     b = 1e6, 1e10, 1e20; 2,492.7 at (1, 20), 1e300;
#   first_color_tail (0.3, theta): 221.6 at n = 10, m_cap = 10, theta = 1e6;
#     483.3 and 187.8 at n = 3, m_cap = 10, 1e10 and 1e20; 0 at 1e300,
#     where every case is 1 or underflows.
_LARGE_EPPF_CASES = ((2, 1), (27,), (40,), (100, 100), (1,) * 20, (1,) * 60, (2,) * 5 + (1,) * 50)


@pytest.mark.parametrize(("theta", "bound"), [(1e6, 2 * 433.7), (1e10, 2 * 184.5), (1e20, 2 * 8191.9),
                                              (1e300, 2 * 163840)], ids=str)
def test_float_eppf_at_large_theta_against_its_exact_twin(theta, bound):
    def f(kind, parts):
        return eppf(ExtParams.two_param(kind(0.3), kind(theta)), parts)

    assert worst_twin_ulps(f, _LARGE_EPPF_CASES) <= bound


@pytest.mark.parametrize(("b", "bound"), [(1e6, 2 * 3089.3), (1e10, 2 * 10158.9), (1e20, 2 * 5750.1),
                                          (1e300, 2 * 2492.7)], ids=str)
def test_float_beta_moment_at_large_b_against_its_exact_twin(b, bound):
    def f(kind, ij):
        return BetaParams(kind(2.5), kind(b)).moment(*ij)

    assert worst_twin_ulps(f, [(1, 20), (20, 1), (1, 40), (2, 100), (3, 200)]) <= bound


@pytest.mark.parametrize(("theta", "bound"), [(1e6, 2 * 221.6), (1e10, 2 * 483.3), (1e20, 2 * 187.8),
                                              (1e300, 0)], ids=str)
def test_float_first_color_tail_at_large_theta_against_its_exact_twin(theta, bound):
    def f(kind, case):
        return first_color_tail(ExtParams.two_param(kind(0.3), kind(theta)), *case)

    assert worst_twin_ulps(f, [(n, m_cap) for n in (1, 3, 10) for m_cap in (0, 10, 100)]) <= bound


@given(
    alpha=st.fractions(0, 1, max_denominator=12).filter(lambda a: a < 1),
    theta=st.fractions(0, 5, max_denominator=12),
    parts=st.lists(st.integers(1, 100), min_size=1, max_size=4),
)
def test_eppf_symmetric_and_float_twin_close(alpha, theta, parts):
    if alpha == 0 and theta == 0:
        theta = Fraction(1)
    params = ExtParams.two_param(alpha, theta)
    want = eppf(params, parts)
    for perm in set(itertools.permutations(parts)):
        assert eppf(params, perm) == want
    got = eppf(ExtParams.two_param(float(alpha), float(theta)), parts)
    assert got == pytest.approx(float(want), rel=1e-11, abs=0)


@pytest.mark.parametrize("params", GRID, ids=str)
def test_eppf_normalizes_over_partitions(params):
    for n in range(1, 6):
        total = sum(eppf(params, pi.block_sizes()) for pi in enumerate_partitions(n))
        assert total == 1


@pytest.mark.parametrize("params", GRID, ids=str)
@pytest.mark.parametrize("parts", [(1,), (2,), (2, 1), (3, 1, 2), (1, 1, 1)])
def test_addition_rule_exact(params, parts):
    assert addition_residual(params, parts) == 0


@pytest.mark.parametrize("params", GRID, ids=str)
def test_moment_route_matches_direct(params):
    # the same probability through stick-fraction moments; distinct code path
    moment = residual_moment_family(params)
    for parts in [(2, 1), (1, 1, 1), (3, 2), (4,)]:
        assert eppf_from_moments(moment, parts) == eppf(params, parts)


def test_stick_fraction_law_shapes():
    law = stick_fraction_law(ExtParams.two_param(Fraction(1, 2), Fraction(1, 2)), 2)
    assert law == BetaParams(Fraction(1, 2), Fraction(3, 2))
    assert stick_fraction_law(ExtParams.coupon(4), 1) == Fraction(1, 4)
    assert stick_fraction_law(ExtParams.coupon(4), 4) == 1
    assert stick_fraction_law(ExtParams.neg_alpha(-1, 3), 3) == 1
    with pytest.raises(ParameterError):
        stick_fraction_law(ExtParams.coupon(4), 5)


def test_q_first_block_values():
    # E[W^(m-1) Wbar^(n-m)]: one fixed m-subset through 1, no binomial factor
    ph = ExtParams.two_param(Fraction(1, 2), Fraction(1, 2))
    assert q_first_block(ph, 2, 1) == Fraction(2, 3)
    assert q_first_block(ph, 2, 2) == Fraction(1, 3)
    p01 = ExtParams.two_param(0, 1)
    assert [q_first_block(p01, 3, m) for m in (1, 2, 3)] == [
        Fraction(1, 3),
        Fraction(1, 6),
        Fraction(1, 3),
    ]


@pytest.mark.parametrize("params", GRID, ids=str)
def test_first_block_size_law_normalizes(params):
    from math import comb

    for n in (2, 4):
        total = sum(comb(n - 1, m - 1) * q_first_block(params, n, m) for m in range(1, n + 1))
        assert total == 1


def test_first_color_law_and_tail_are_complementary():
    ph = ExtParams.two_param(Fraction(1, 2), Fraction(1, 2))
    assert first_color_count_law(ph, 2, 1) == Fraction(8, 15)
    assert first_color_count_law(ph, 2, 2) == Fraction(16, 105)
    assert first_color_tail(ph, 2, 3) == Fraction(5, 21)
    partial = sum(first_color_count_law(ph, 2, m) for m in (1, 2, 3))
    assert partial + first_color_tail(ph, 2, 3) == 1


@pytest.mark.parametrize("params", GRID, ids=str)
def test_first_color_partial_plus_tail_is_one(params):
    for n in (2, 3):
        partial = sum(first_color_count_law(params, n, m) for m in range(1, 9))
        assert partial + first_color_tail(params, n, 8) == 1


def test_first_color_tail_monotone():
    ph = ExtParams.two_param(Fraction(1, 3), Fraction(2, 3))
    tails = [first_color_tail(ph, 3, cap) for cap in (1, 2, 4, 8, 16)]
    assert all(a > b for a, b in zip(tails, tails[1:]))


@pytest.mark.parametrize("params", GRID[:6], ids=str)
def test_float_first_color_tail_matches_exact(params):
    fparams = params.as_float()
    for n in range(1, 7):
        for cap in (0, 1, 5, 50, 400):
            exact = first_color_tail(params, n, cap)
            got = first_color_tail(fparams, n, cap)
            assert isinstance(got, float)
            assert abs(Fraction(got) - exact) <= Fraction(1e-12) * exact, (n, cap)


def test_float_first_color_tail_with_subnormal_first_term():
    # E[W^h] is about 1e-320, below the normal range, while the sum is about 1e-289
    params = ExtParams.two_param(Fraction(1, 2), Fraction(639, 2))
    exact = first_color_tail(params, 20, 1000)
    got = first_color_tail(params.as_float(), 20, 1000)
    assert abs(Fraction(got) - exact) <= Fraction(1e-12) * exact


DERIVED_CASES = [(params, mu, 1e-9) for params in GRID for mu in ((2,), (1, 1), (3, 1), (40,), (150,))]
# the float workload's own case: float (1/2, 1/2) at (150,), summed to tol=1e-6
DERIVED_CASES.append((ExtParams.two_param(0.5, 0.5), (150,), 1e-6))


@pytest.mark.parametrize(("params", "mu", "tol"), DERIVED_CASES, ids=str)
def test_derived_eppf_matches_shifted_parameters(params, mu, tol):
    want = Fraction(eppf(params.shifted(), mu))
    got = derived_eppf(params, mu, tol=tol)
    assert abs(Fraction(got) - want) <= Fraction(tol) * want


@pytest.mark.parametrize("params", GRID, ids=str)
@pytest.mark.parametrize("mu", [(2,), (3, 1), (40,)])
def test_tail_bracket_holds_exact_tail(params, mu):
    # the exact tail after t_1 ... t_{M-1} is the shifted eppf minus their sum
    n = sum(mu)
    tail = eppf(params.shifted(), mu)
    for M in range(1, 65):
        t_M = math.comb(M + n - 2, M - 1) * eppf(params, (M,) + mu)
        if M in (1, 2, 5, 17, 64):
            bracket = eppf_module._tail_bracket(params, n, M, t_M)
            if M >= 17:
                assert bracket is not None, M
            if bracket is not None:
                lo, hi = bracket
                assert lo <= tail <= hi, (M, lo, tail, hi)
        tail -= t_M


def test_derived_eppf_respects_block_bound():
    assert derived_eppf(ExtParams.neg_alpha(-1, 3), (1, 1, 1)) == 0.0
    assert derived_eppf(ExtParams.coupon(2), (1, 1)) == 0.0


def test_derived_eppf_raises_when_tolerance_unreachable(monkeypatch):
    # (40,) needs more than one block of 1,024 terms to bracket its tail to 1e-9
    monkeypatch.setattr(eppf_module, "TERM_BUDGET", 1024)
    with pytest.raises(ConvergenceError):
        derived_eppf(ExtParams.two_param(Fraction(1, 2), Fraction(1, 2)), (40,))


@pytest.mark.parametrize("params", GRID, ids=str)
@pytest.mark.parametrize("parts", [(1,), (2, 1), (2, 2, 1), (3, 1)])
def test_eppf_factorizes_at_the_first_block(params, parts):
    # p(lambda) = q(n : lambda_1) p'(lambda_2, ...), with p' the eppf at the shifted parameters
    rest = eppf(params.shifted(), parts[1:]) if len(parts) > 1 else 1
    assert eppf(params, parts) == q_first_block(params, sum(parts), parts[0]) * rest


def test_eppf_rejects_bad_parts():
    with pytest.raises(ParameterError):
        eppf(ExtParams.two_param(0, 1), ())
    with pytest.raises(ParameterError):
        eppf(ExtParams.two_param(0, 1), (0, 1))
