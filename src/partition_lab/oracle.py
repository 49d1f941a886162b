"""Independent verification routes: exact enumeration and test statistics.

Everything here recomputes laws by brute force (enumerating set
partitions, permutations, or rank sequences) so the closed-form modules
can be checked against a second, slower route.  Deviations are returned
as numbers, 0 in exact arithmetic when a claimed identity holds; the
perturbation hooks confirm that the checks actually reject wrong laws.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np
from scipy.stats import chi2 as _chi2
from scipy.stats import ks_2samp as _ks_2samp

from .core import (
    ExtParams,
    ParameterError,
    Scalar,
    SetPartition,
    delete_block,
    exact_div,
    is_exact,
    partition_from_assignment,
)
from .deletion import decrement_entry, deletion_kernel
from .eppf import eppf, q_first_block
from .samplers import order_probability, tau_perm_probability

MAX_ENUM_N = 12
MIN_EXPECTED = 5.0  # chi_square pools cells expected below this count


def iter_partitions(n: int) -> Iterator[SetPartition]:
    """All set partitions of [n] in restricted-growth order, canonical form."""
    if not (isinstance(n, int) and 0 <= n <= MAX_ENUM_N):
        raise ParameterError(f"need 0 <= n <= {MAX_ENUM_N}, got {n}")
    if n == 0:
        yield SetPartition(0, ())
        return
    word = [1] * n

    def rec(i: int, used: int) -> Iterator[SetPartition]:
        if i == n:
            yield partition_from_assignment(word)
            return
        for c in range(1, used + 2):
            word[i] = c
            yield from rec(i + 1, max(used, c))

    yield from rec(1, 1)


def enumerate_partitions(n: int) -> list[SetPartition]:
    """List of all Bell(n) partitions of [n]; prefer iter_partitions for n > 10."""
    return list(iter_partitions(n))


@dataclass
class ExactLaw:
    """A finite exact law over set partitions of [n]."""

    n: int
    probs: dict[SetPartition, Scalar]

    def total(self) -> Scalar:
        return sum(self.probs.values())

    def perturbed(self, pi: SetPartition, amount: Scalar) -> "ExactLaw":
        """Add mass to one partition and renormalize; breaks exactness claims."""
        if pi not in self.probs:
            raise ParameterError("perturbation target is not a partition of [n]")
        new = dict(self.probs)
        new[pi] = new[pi] + amount
        scale = 1 + amount
        return ExactLaw(self.n, {k: exact_div(v, scale) for k, v in new.items()})


def _size_key(pi: SetPartition) -> tuple[int, ...]:
    """Block sizes of pi as a plain tuple, in block order.

    The memo key of `exact_law` and `tau_regen_check`: the same parts as
    `pi.block_sizes()`, without re-validating them in a `Composition` for
    every enumerated partition.
    """
    return tuple(len(b) for b in pi.blocks)


def exact_law(params: ExtParams, n: int) -> ExactLaw:
    """Exact partition law on [n] by direct enumeration, n <= 10.

    The probability of a set partition depends only on its block sizes,
    so `eppf` is evaluated once per block-size vector (in order of
    appearance) and every partition with that vector shares the value.
    """
    if not (isinstance(n, int) and 1 <= n <= 10):
        raise ParameterError(f"need 1 <= n <= 10, got {n}")
    by_sizes: dict[tuple[int, ...], Scalar] = {}
    probs: dict[SetPartition, Scalar] = {}
    for pi in iter_partitions(n):
        sizes = _size_key(pi)
        p = by_sizes.get(sizes)
        if p is None:
            p = by_sizes[sizes] = eppf(params, sizes)
        probs[pi] = p
    return ExactLaw(n, probs)


def _law_distance(law: dict[SetPartition, Scalar], target: dict[SetPartition, Scalar]) -> Scalar:
    keys = set(law) | set(target)
    worst: Scalar = 0
    for k in keys:
        dev = abs(law.get(k, 0) - target.get(k, 0))
        if dev > worst:
            worst = dev
    return worst


def deletion_law_check(params: ExtParams, n: int, law: ExactLaw | None = None) -> Scalar:
    """Worst deviation in the delete-first-block characterization.

    Under the partition law on [n], condition on the block containing 1
    having size m < n; the relabeled remainder must follow the law of
    the shifted parameters (alpha, theta + alpha) on [n - m], and the
    size itself the law C(n-1, m-1) q(n : m).  Returns the largest
    absolute deviation across both claims (0 for the family; pass a
    perturbed law to see the check fail).
    """
    if law is None:
        law = exact_law(params, n)
    worst: Scalar = 0
    joint: dict[int, dict[SetPartition, Scalar]] = {m: {} for m in range(1, n)}
    size_mass: dict[int, Scalar] = {m: 0 for m in range(1, n)}
    for pi, p in law.probs.items():
        m = len(pi.blocks[0])
        if m == n:
            continue
        rem = delete_block(pi, 1)
        joint[m][rem] = joint[m].get(rem, 0) + p
        size_mass[m] = size_mass[m] + p
    for m in range(1, n):
        mass = size_mass[m]
        size_target = math.comb(n - 1, m - 1) * q_first_block(params, n, m)
        dev = abs(mass - size_target)
        worst = dev if dev > worst else worst
        if mass == 0:
            continue
        cond = {k: exact_div(v, mass) for k, v in joint[m].items()}
        target = exact_law(params.shifted(), n - m).probs
        dev = _law_distance(cond, target)
        worst = dev if dev > worst else worst
    return worst


def tau_regen_check(params: ExtParams, n: int, law: ExactLaw | None = None) -> Scalar:
    """Worst deviation in the invariant-deletion characterization.

    Delete a block by the kernel at tau = alpha/(alpha + theta).  The
    deleted size must follow the decrement row q(n, .), and conditional
    on size m < n the relabeled remainder must follow the same family
    on [n - m].  Returns the largest absolute deviation (0 expected).
    """
    if law is None:
        law = exact_law(params, n)
    worst: Scalar = 0
    joint: dict[int, dict[SetPartition, Scalar]] = {m: {} for m in range(1, n + 1)}
    size_mass: dict[int, Scalar] = {m: 0 for m in range(1, n + 1)}
    # the kernel depends only on the block sizes; p stays per partition,
    # since a passed-in law need not be a function of the sizes
    rows: dict[tuple[int, ...], list[Scalar]] = {}
    for pi, p in law.probs.items():
        sizes = _size_key(pi)
        row = rows.get(sizes)
        if row is None:
            row = rows[sizes] = [deletion_kernel(sizes, j, params=params)
                                 for j in range(1, len(sizes) + 1)]
        for j, (m, d) in enumerate(zip(sizes, row), start=1):
            w = p * d
            size_mass[m] = size_mass[m] + w
            rem = delete_block(pi, j)
            joint[m][rem] = joint[m].get(rem, 0) + w
    for m in range(1, n + 1):
        dev = abs(size_mass[m] - decrement_entry(params, n, m))
        worst = dev if dev > worst else worst
        if m == n or size_mass[m] == 0:
            continue
        cond = {k: exact_div(v, size_mass[m]) for k, v in joint[m].items()}
        target = exact_law(params, n - m).probs
        dev = _law_distance(cond, target)
        worst = dev if dev > worst else worst
    return worst


def leem_check(x: Sequence[Scalar], tau: Scalar) -> Scalar:
    """Worst deviation in the pick-order identity, brute force over k!^2 terms.

    The tau-biased pick order of weights x must be distributed as a
    size-biased pick order rearranged by an independent xi-biased order
    with xi = (1 - tau)/tau.  Compares both laws on every permutation
    and returns the largest absolute difference (0 expected).
    """
    k = len(x)
    if k == 0:
        raise ParameterError("need at least one weight")
    if not (0 <= tau <= 1):
        raise ParameterError(f"need 0 <= tau <= 1, got {tau}")
    perms = list(itertools.permutations(range(1, k + 1)))
    xi = math.inf if tau == 0 else exact_div(1 - tau, tau)
    worst: Scalar = 0
    sb = {sigma: tau_perm_probability(x, 0, sigma) for sigma in perms}
    for pi in perms:
        lhs = tau_perm_probability(x, tau, pi)
        if tau == 0:
            rhs: Scalar = sb[pi]
        else:
            rhs = 0
            for sigma in perms:
                inv = {v: i for i, v in enumerate(sigma, start=1)}
                word = tuple(inv[v] for v in pi)
                rhs = rhs + sb[sigma] * order_probability(xi, word)
        dev = abs(lhs - rhs)
        worst = dev if dev > worst else worst
    return worst


def record_independence_residual(x: Sequence[Scalar]) -> Scalar:
    """Worst deviation from independence of the pick-order record events.

    Under the size-biased order of x, event A_j says index j is picked
    before all of j+1, ..., k.  The A_j are independent with
    P(A_j) = x_j / (x_j + ... + x_k); checked for every subset of
    events by enumeration.
    """
    k = len(x)
    perms = list(itertools.permutations(range(1, k + 1)))
    sb = {sigma: tau_perm_probability(x, 0, sigma) for sigma in perms}
    tail = [sum(x[j:]) for j in range(k)]
    singles = [exact_div(x[j], tail[j]) for j in range(k)]
    worst: Scalar = 0
    for subset in itertools.product([False, True], repeat=k):
        prob: Scalar = 0
        for sigma in perms:
            pos = {v: i for i, v in enumerate(sigma)}
            ok = True
            for j in range(1, k + 1):
                if subset[j - 1] and any(pos[v] < pos[j] for v in range(j + 1, k + 1)):
                    ok = False
                    break
            if ok:
                prob = prob + sb[sigma]
        expected: Scalar = 1
        for j in range(1, k + 1):
            if subset[j - 1]:
                expected = expected * singles[j - 1]
        dev = abs(prob - expected)
        worst = dev if dev > worst else worst
    return worst


def xi_order_enumeration_residual(k: int, xi: Scalar) -> Scalar:
    """Worst gap between order_probability and rank-process enumeration.

    Walks all rank sequences (rho_2, ..., rho_k), accumulates the exact
    probability of each resulting arrangement, and compares with the
    closed form; also checks the arrangement probabilities sum to 1.
    """
    from .samplers import arrangement_from_ranks

    if not (isinstance(k, int) and 1 <= k <= 8):
        raise ParameterError(f"need 1 <= k <= 8, got {k}")
    if is_exact(xi):
        xi = Fraction(xi)
    accum: dict[tuple[int, ...], Scalar] = {}
    ranges = [range(1, j + 1) for j in range(1, k + 1)]
    for ranks in itertools.product(*ranges):
        prob: Scalar = 1
        for j, r in enumerate(ranks[1:], start=2):
            if math.isinf(xi):
                prob = prob * (1 if r == j else 0)
            else:
                prob = prob * (xi if r == j else 1) / (j - 1 + xi)
        arr = arrangement_from_ranks(ranks)
        accum[arr] = accum.get(arr, 0) + prob
    worst: Scalar = abs(sum(accum.values()) - 1)
    for arr in itertools.permutations(range(1, k + 1)):
        dev = abs(accum.get(arr, 0) - order_probability(xi, arr))
        worst = dev if dev > worst else worst
    return worst


# ---------------------------------------------------------------------------
# sampling statistics

def chi_square(observed: Sequence[int], probs: Sequence[Scalar]) -> tuple[float, int, float]:
    """Pearson chi-square of observed counts against cell probabilities.

    Cells with expected count below MIN_EXPECTED are pooled into one
    bin.  Returns (statistic, degrees of freedom, p-value); requires at
    least two bins after pooling.
    """
    obs = np.asarray(observed, dtype=float)
    p = np.asarray([float(v) for v in probs])
    if obs.shape != p.shape:
        raise ParameterError("observed and probs must have equal length")
    if (p < 0).any():
        raise ParameterError("negative cell probability")
    total = obs.sum()
    exp = p * total
    leftover = max(0.0, 1.0 - p.sum()) * total
    keep = exp >= MIN_EXPECTED
    o_bins = list(obs[keep])
    e_bins = list(exp[keep])
    pooled_o = obs[~keep].sum()
    pooled_e = exp[~keep].sum() + leftover
    if pooled_e > 0:
        o_bins.append(pooled_o)
        e_bins.append(pooled_e)
    elif pooled_o > 0:
        raise ParameterError("observed mass on zero-probability cells")
    if len(o_bins) < 2:
        raise ParameterError("fewer than two bins after pooling")
    stat = float(((np.asarray(o_bins) - np.asarray(e_bins)) ** 2 / np.asarray(e_bins)).sum())
    dof = len(o_bins) - 1
    return stat, dof, float(_chi2.sf(stat, dof))


def ks_two_sample(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov statistic and p-value."""
    res = _ks_2samp(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    return float(res.statistic), float(res.pvalue)
