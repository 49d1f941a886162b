"""Partition probability functions for the extended two-parameter family.

The central object is the probability p(lambda) that an exchangeable
partition of [n] equals a fixed partition with block sizes lambda, in
order of appearance:

    p(lambda) = prod_{i<k} (theta + i*alpha) / (theta + 1)_{n-1}
                * prod_j (1 - alpha)_{lambda_j - 1}

on the range 0 <= alpha < 1, theta > -alpha, extended to alpha < 0 with
theta = -m*alpha (at most m blocks) and to the m-colour coupon limit

    p_m(lambda) = m (m - 1) ... (m - k + 1) / m^n.

All functions preserve exact (Fraction) arithmetic when the parameters
are exact, except stick_b_shape and stick_float_laws, which give the
float stick laws.  Every sampler that breaks GEM sticks draws them from
stick_float_laws: gem_sample, stick_fraction_matrix, the bulk harness's
stick block, stick_breaking_set and stage one of crossbreed_set (at
alpha = 0); crossbreed_set's (alpha, 0) stage takes its shapes from
stick_b_shape.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator

import numpy as np

from .core import (
    COUPON,
    NEG_ALPHA,
    Composition,
    ConvergenceError,
    ExtParams,
    ParameterError,
    Scalar,
    exact_div,
    is_exact,
    rising_factorial,  # noqa: F401  (re-exported: eppf.rising_factorial)
    rising_ratio,
    _integer_scale,
    _log_rising_ratio,
)

TERM_BUDGET = 50_000_000  # derived_eppf series terms before giving up


@dataclass(frozen=True)
class BetaParams:
    """Shape parameters of a beta distribution, both positive."""

    a: Scalar
    b: Scalar

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise ParameterError(f"beta shapes must be positive, got ({self.a}, {self.b})")

    def moment(self, i: int, j: int) -> Scalar:
        """E[W^i (1-W)^j] = (a)_i (b)_j / (a+b)_{i+j} for W ~ beta(a, b)."""
        return rising_ratio(((self.a, i), (self.b, j)), ((self.a + self.b, i + j),))


def stick_fraction_law(params: ExtParams, i: int) -> BetaParams | Scalar:
    """Law of the i-th stick-breaking fraction W_i.

    Returns BetaParams(1 - alpha, theta + i*alpha) while that is a
    proper beta law, or the deterministic value W_i takes otherwise
    (1 at i = m for the bounded ranges, 1/(m - i + 1) for coupon).
    """
    if not (isinstance(i, int) and i >= 1):
        raise ParameterError(f"stick index must be a positive integer, got {i}")
    if params.kind == COUPON:
        if i > params.m:
            raise ParameterError(f"stick index {i} beyond {params.m} colours")
        return Fraction(1, params.m - i + 1)
    if params.kind == NEG_ALPHA:
        if i > params.m:
            raise ParameterError(f"stick index {i} beyond {params.m} blocks")
        if i == params.m:
            return 1
    return BetaParams(1 - params.alpha, params.theta + i * params.alpha)


def stick_b_shape(params: ExtParams) -> Callable[[int], float]:
    """k -> float(theta + k*alpha), the second beta shape of W_k, with no Fraction.

    In the A, T, L of core._integer_scale this is (T + k*A) / L.  For
    exact parameters that is an int/int division, which CPython rounds
    correctly, and float() of a Fraction is numerator / denominator, so
    both give the double nearest the exact shape; float parameters have
    L = 1.  Needs a two_param or neg_alpha range.
    """
    A, T, L, _ = _integer_scale(params.alpha, params.theta)
    return lambda k: (T + k * A) / L


def stick_float_laws(params: ExtParams) -> Iterator[tuple[float, float] | float]:
    """The laws of W_1, W_2, ... that stick_fraction_law gives, as floats for drawing.

    Yields the float beta shapes (a, b_k) of W_k, or the float value of a
    deterministic W_k, after which the stream ends.  Every value equals
    float() of the matching stick_fraction_law entry, but a is converted
    once and b_k comes from stick_b_shape, so no Fraction or BetaParams is
    built per stick.  ExtParams keeps the shapes positive, and the gamma
    sampler rejects any that are not.
    """
    if params.kind == COUPON:
        for j in range(params.m, 0, -1):
            yield 1 / j
        return
    a, b = float(1 - params.alpha), stick_b_shape(params)
    for k in itertools.count(1):
        if k == params.m:  # None on the two_param range: never ends
            yield 1.0
            return
        yield a, b(k)


def residual_moment_family(params: ExtParams) -> Callable[[int, int, int], Scalar]:
    """Moment oracle (i, r, s) -> E[W_i^r (1 - W_i)^s] for the stick fractions."""

    return lambda i, r, s: _stick_moment(stick_fraction_law(params, i), r, s)


def _stick_moment(law: BetaParams | Scalar, i: int, j: int) -> Scalar:
    """E[W^i (1 - W)^j] for W with a law from stick_fraction_law."""
    if isinstance(law, BetaParams):
        return law.moment(i, j)
    # deterministic W; 0**0 == 1 keeps the degenerate W = 1 case right
    return law ** i * (1 - law) ** j


def eppf(params: ExtParams, parts: Composition | Iterable[int]) -> Scalar:
    """Probability of a fixed partition of [n] with the given block sizes.

    The sizes are taken in order of appearance; the value is symmetric
    in them.  Compositions with more blocks than the bounded ranges
    allow get probability 0.

    Exact parameters take their split from core._integer_scale: with
    alpha = A/L and theta = T/L the value is the one integer quotient

        prod_{i<k} (T + i A) prod_j prod_{i<n_j-1} (L - A + i L)
            / prod_{i<n-1} (T + L + i L),

    since the k - 1 + (n - k) factors of L above cancel the n - 1 below;
    Fraction reduces it once.  Float parameters go through rising_ratio:
    the plain product, and log-gamma when it leaves the float range.
    """
    lam = Composition.of(parts)
    n, k = lam.n, lam.k
    if k == 0:
        raise ParameterError("eppf needs at least one part")
    if params.max_blocks is not None and k > params.max_blocks:
        return 0
    if params.kind == COUPON:
        return Fraction(math.perm(params.m, k), params.m ** n)
    alpha, theta = params.alpha, params.theta
    if is_exact(alpha) and is_exact(theta):
        A, T, L, _ = _integer_scale(alpha, theta)
        top = math.prod(range(T + A, T + k * A, A)) if A else T ** (k - 1)
        for p in lam.parts:
            if p > 1:
                top *= math.prod(range(L - A, p * L - A, L))
        return Fraction(top, math.prod(range(T + L, T + n * L, L)))
    shape = 1 - alpha
    return rising_ratio([(shape, p - 1) for p in lam.parts], ((theta + 1, n - 1),),
                        [theta + i * alpha for i in range(1, k)])


def addition_residual(params: ExtParams, parts: Composition | Iterable[int]) -> Scalar:
    """p(lambda) minus the sum of p over all one-element extensions.

    Extending means growing one existing part by 1 or appending a new
    part of size 1; consistency of the family makes the residual 0.
    """
    lam = Composition.of(parts)
    total: Scalar = 0
    for j in range(lam.k):
        grown = list(lam.parts)
        grown[j] += 1
        total = total + eppf(params, grown)
    total = total + eppf(params, lam.parts + (1,))
    return eppf(params, lam) - total


def eppf_from_moments(
    moment: Callable[[int, int, int], Scalar],
    parts: Composition | Iterable[int],
) -> Scalar:
    """Evaluate the partition probability from stick-fraction moments.

    For independent stick fractions the probability factorizes as
    prod_i E[W_i^{lambda_i - 1} (1 - W_i)^{Lambda_{i+1}}] with
    Lambda_{i+1} the sum of the later parts.
    """
    lam = Composition.of(parts)
    if lam.k == 0:
        raise ParameterError("need at least one part")
    tails = lam.tail_sums()
    out: Scalar = 1
    for i, p in enumerate(lam.parts, start=1):
        out = out * moment(i, p - 1, tails[i])
        if out == 0:
            return 0
    return out


def q_first_block(params: ExtParams, n: int, m: int) -> Scalar:
    """Probability that the block containing 1 meets [n] in exactly [m].

    Equals E[W_1^{m-1} (1 - W_1)^{n-m}] where W_1 is the first stick
    fraction (the size-biased frequency of the block of 1).
    """
    if not (isinstance(n, int) and isinstance(m, int) and 1 <= m <= n):
        raise ParameterError(f"need integers 1 <= m <= n, got m={m}, n={n}")
    return _stick_moment(stick_fraction_law(params, 1), m - 1, n - m)


def first_color_count_law(params: ExtParams, n: int, m: int) -> Scalar:
    """P(T_n = m): mass of m in the size of the block of 1 at its deletion time.

    T_n counts the elements of the block containing 1 seen strictly
    before the n-th element outside that block, so that

        P(T_n = m) = C(m + n - 2, m - 1) E[W_1^{m-1} (1 - W_1)^n].
    """
    if not (isinstance(n, int) and n >= 1 and isinstance(m, int) and m >= 1):
        raise ParameterError(f"need integers n >= 1, m >= 1, got n={n}, m={m}")
    return math.comb(m + n - 2, m - 1) * q_first_block(params, n + m, m)


def first_color_tail(params: ExtParams, n: int, m_cap: int) -> Scalar:
    """P(T_n > m_cap), the mass missed by summing the law up to m_cap.

    The event is that the first m_cap + n - 1 arrivals after element 1
    contain at most n - 1 elements outside the block of 1, a finite
    binomial sum:

        sum_{r<n} C(m_cap + n - 1, r) E[W_1^{m_cap + n - 1 - r} (1 - W_1)^r].

    Exact parameters give an exact value (cost grows with m_cap).  Float
    parameters take the r = 0 term E[W_1^h] = (a)_h / (a + b)_h from one
    log-gamma call, so astronomically large caps are cheap, and each later
    term from its ratio (h - r)/(r + 1) * (b + r)/(a + h - r - 1) to the
    one before; a r = 0 term below the normal range would carry too few
    digits, so there each term gets its own log-gamma call.
    """
    if not (isinstance(n, int) and n >= 1 and isinstance(m_cap, int) and m_cap >= 0):
        raise ParameterError(f"need integers n >= 1, m_cap >= 0, got n={n}, m_cap={m_cap}")
    horizon = m_cap + n - 1
    law = stick_fraction_law(params, 1)
    if isinstance(law, BetaParams) and not (is_exact(law.a) and is_exact(law.b)):
        a, b = float(law.a), float(law.b)
        term = _log_rising_ratio([(a, horizon)], [(a + b, horizon)], ())
        if term < sys.float_info.min:
            # C(h, r) = (h - r + 1)_r / (1)_r
            return sum(_log_rising_ratio([(horizon - r + 1, r), (a, horizon - r), (b, r)],
                                         [(1, r), (a + b, horizon)], ())
                       for r in range(n))
        total = term
        for r in range(n - 1):
            term *= (horizon - r) / (r + 1) * (b + r) / (a + horizon - r - 1)
            total += term
        return total
    return sum(math.comb(horizon, r) * _stick_moment(law, horizon - r, r) for r in range(n))


def _tail_bracket(params: ExtParams, n: int, M: int, t_M: Scalar) -> tuple[Scalar, Scalar] | None:
    """Bounds (lo, hi) on the tail sum_{m >= M} t_m of derived_eppf's series.

    n is the size of the kept composition and t_M the series' M-th term;
    exact inputs give exact bounds.  Returns None while M is too small
    for the comparison below to hold.

    Two-parameter and negative-alpha kinds: with s = 1 + alpha + theta,
    the term ratio rho(m) = (m + n - 1)(m - alpha) / (m (m + theta + n))
    is compared with the ratio (m + x)/(m + x + s) of the telescoping
    quotient u_m = Gamma(m + x) / Gamma(m + x + s), whose tail is
    u_M (M + x + s - 1)/(s - 1).  Over the positive denominator
    m (m + theta + n)(m + x + s), rho(m) minus that ratio is -f(m) with
    f(m) = m (s (x - x0) + A) + A (x + s), x0 = n - 1 - alpha and
    A = alpha (n - 1) (the m^2 terms cancel).  f is linear in m, so it
    keeps one sign on m >= M when it does at m = M and in slope: f >= 0
    (rho below the ratio, an upper bound) for x >= x_hi and f <= 0 (a
    lower bound) for x <= x_lo, where x_lo, x_hi are the min and max of
    x* = (M s x0 - A (M + s)) / (M s + A) and x0 - A/s.

    Coupon kind (c colours): rho(m) = (m + n - 1)/(m c) decreases to
    1/c, so the tail lies between the geometric sums t_M / (1 - 1/c) and
    t_M / (1 - rho(M)).
    """
    if params.kind == COUPON:
        c = params.m
        rho = Fraction(M + n - 1, M * c)
        if rho >= 1:
            return None
        return t_M / (1 - Fraction(1, c)), t_M / (1 - rho)
    alpha, theta = params.alpha, params.theta
    s = 1 + alpha + theta
    x0, A = n - 1 - alpha, alpha * (n - 1)
    if M * s + A <= 0:
        return None
    x_star = exact_div(M * s * x0 - A * (M + s), M * s + A)
    x_lim = x0 - exact_div(A, s)
    x_lo, x_hi = min(x_star, x_lim), max(x_star, x_lim)
    if M + x_lo <= 0:
        return None
    return (t_M * exact_div(M + x_lo + s - 1, s - 1),
            t_M * exact_div(M + x_hi + s - 1, s - 1))


def derived_eppf(
    params: ExtParams,
    parts: Composition | Iterable[int],
    tol: float = 1e-9,
) -> float:
    """Partition probability after deleting the block containing 1.

    Sums t_m = C(m + n_mu - 2, m - 1) p((m,) + mu) over the unseen size
    m of the deleted block; the binomial counts configurations with the
    last kept element forced outside the block of 1, which makes the
    events disjoint across m.  The summation runs in float blocks with
    the term recurrence

        t_{m+1}/t_m = (n_mu + m - 1)/m * (m - alpha)/(theta + n_mu + m)

    (coupon kind with c colours: (n_mu + m - 1)/(m c)).  After each
    block, _tail_bracket bounds the unsummed tail sum_{m >= M} t_m from
    both sides by comparing this ratio with that of a telescoping gamma
    quotient whose tail has a closed form (a geometric sum for coupon).
    The sum stops once half the bracket's width is at most tol times the
    partial sum and returns the partial sum plus the bracket's midpoint,
    which is then within tol relative of the full series (up to float
    rounding).  tol is relative; ConvergenceError is raised at
    TERM_BUDGET terms.

    The closed-form counterpart is eppf at the shifted parameters
    (alpha, theta + alpha) (bounded ranges: m - 1), which the test
    suite compares against; the stopping rule does not use it.
    """
    mu = Composition.of(parts)
    if mu.k == 0:
        raise ParameterError("need at least one part")
    if params.max_blocks is not None and mu.k + 1 > params.max_blocks:
        return 0.0
    n_mu = mu.n
    fparams = params.as_float()
    if params.kind == COUPON:
        inv_m = 1.0 / params.m
    else:
        alpha, theta = float(params.alpha), float(params.theta)
        inv_m = None
    term = float(eppf(fparams, (1,) + mu.parts))
    total = 0.0
    m = 1
    block = 1024
    while m <= TERM_BUDGET:
        j = np.arange(m, m + block, dtype=float)
        if inv_m is not None:
            ratios = (n_mu + j - 1.0) / j * inv_m
        else:
            ratios = (n_mu + j - 1.0) / j * (j - alpha) / (theta + n_mu + j)
        terms = term * np.concatenate(([1.0], np.cumprod(ratios[:-1])))
        total += float(terms.sum())
        term = float(terms[-1] * ratios[-1])
        m += block
        if term == 0.0:  # every later float term is 0.0 too
            return total
        bracket = _tail_bracket(fparams, n_mu, m, term)
        if bracket is not None:
            lo, hi = bracket
            if hi - lo <= 2 * tol * total:
                return total + (lo + hi) / 2
        block = min(2 * block, 1 << 18)
    raise ConvergenceError(
        f"first-block sum did not reach tolerance {tol} within {TERM_BUDGET} terms"
    )

