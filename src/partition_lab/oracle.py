"""Independent verification routes: exact enumeration and test statistics.

Everything here recomputes laws by a second, slower route (enumerating
set partitions, integer partitions, permutations, or rank sequences) so
the closed-form modules can be checked against it.  Deviations are
returned as numbers, 0 in exact arithmetic when a claimed identity
holds; the deletion checks take the law under test as an EPPF, so a
perturbed one confirms that they reject wrong laws.

The partition law of an exchangeable family gives a set partition of
[n] a probability p(lambda) that depends only on its block sizes
lambda.  So the deletion checks (`deletion_law_check` and
`tau_regen_check`) and `eppf_total` sum over the integer partitions
lambda of n, each weighted by N(lambda), the number of set partitions
of [n] with those block sizes: 627 types at n = 20, where [10] alone
has 115,975 set partitions.  `_type_table` lists the types of each
n <= MAX_TYPE_N once per process, and `_type_walk` runs both deletion
rules over them, for the family's EPPF or one passed in.  At exact
parameters these checks, like the pick-order checks, add integer
numerators over one denominator (the family's from
`eppf._eppf_integers`) and compare them with their targets by
cross-multiplication, so they build a Fraction only for a nonzero gap.

`exact_law` enumerates a set partition of [n] as its restricted-growth
assignment word: it keys its law by word and builds `SetPartition`
objects only when the public `ExactLaw.probs` mapping is read.  The
words of [n] and their block sizes are enumerated once per n, by
`_word_table`, and kept for the process.  scipy is imported inside
`chi_square` and `ks_two_sample`, so importing the library does not
load it.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import (
    ExtParams,
    ParameterError,
    Scalar,
    SetPartition,
    exact_div,
    is_exact,
    partition_from_assignment,
)
from .deletion import decrement_entry, deletion_kernel
from .eppf import _eppf_integers, eppf, q_first_block
from .samplers import order_probability, tau_pick_law

MAX_ENUM_N = 12
MAX_EXACT_N = 10  # exact_law's bound, and the largest n whose word table is kept
MAX_TYPE_N = 20  # the type walk's bound
MIN_EXPECTED = 5.0  # chi_square pools cells expected below this count


def _words(n: int) -> Iterator[bytes]:
    """Restricted-growth words of length n, in lexicographic order.

    Byte i is the block of element i + 1, blocks labelled in order of
    appearance, so each word is the assignment word of one set partition.
    """
    if n == 0:
        yield b""
        return
    word = [1] * n

    def rec(i: int, used: int) -> Iterator[bytes]:
        if i == n:
            yield bytes(word)
            return
        for c in range(1, used + 2):
            word[i] = c
            yield from rec(i + 1, max(used, c))

    yield from rec(1, 1)


def iter_partitions(n: int) -> Iterator[SetPartition]:
    """All set partitions of [n] in restricted-growth order, canonical form."""
    if not (isinstance(n, int) and 0 <= n <= MAX_ENUM_N):
        raise ParameterError(f"need 0 <= n <= {MAX_ENUM_N}, got {n}")
    for word in _words(n):
        yield partition_from_assignment(word)


def enumerate_partitions(n: int) -> list[SetPartition]:
    """List of all Bell(n) partitions of [n]; prefer iter_partitions for n > 10."""
    return list(iter_partitions(n))


def _block_sizes(word: bytes) -> tuple[int, ...]:
    """Block sizes of the partition with assignment word `word`, in block order.

    The same parts as `pi.block_sizes()`, as a plain tuple, without
    building pi; the key by which laws and rows are memoized.
    """
    return tuple(map(word.count, range(1, max(word, default=0) + 1)))


@functools.cache
def _word_table(n: int) -> tuple[tuple[bytes, ...], tuple[tuple[int, ...], ...]]:
    """The words of [n] in `_words` order and the block sizes of each.

    Built once per n and kept for the process, so exact laws do not
    enumerate [n] again; its one caller, `exact_law`, has checked
    n <= MAX_EXACT_N.
    """
    words = tuple(_words(n))
    return words, tuple(map(_block_sizes, words))


@dataclass
class ExactLaw:
    """A finite exact law over set partitions of [n], keyed by assignment word.

    words holds restricted-growth words (`bytes`, byte i the block of
    element i + 1) and values their probabilities, in the same order.
    The public mapping `probs` from `SetPartition` to probability is built
    on first read and kept; the checks read words and values only.
    """

    n: int
    words: Sequence[bytes]
    values: Sequence[Scalar]

    @functools.cached_property
    def probs(self) -> dict[SetPartition, Scalar]:
        return {partition_from_assignment(w): v for w, v in zip(self.words, self.values)}

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(n={self.n!r}, probs={self.probs!r})"

    def total(self) -> Scalar:
        """The sum of the values: exact for an exact law, math.fsum's correctly rounded sum otherwise."""
        if all(map(is_exact, self.values)):
            return sum(self.values)
        return math.fsum(self.values)


def exact_law(params: ExtParams, n: int) -> ExactLaw:
    """Exact partition law on [n] by direct enumeration, n <= 10.

    The probability of a set partition depends only on its block sizes,
    so `eppf` is evaluated once per block-size vector (in order of
    appearance) and every word with that vector shares the value.  No
    `SetPartition` is built until `probs` is read.
    """
    if not (isinstance(n, int) and 1 <= n <= MAX_EXACT_N):
        raise ParameterError(f"need 1 <= n <= {MAX_EXACT_N}, got {n}")
    words, keys = _word_table(n)
    by_sizes: dict[tuple[int, ...], Scalar] = {}
    values = []
    for sizes in keys:
        p = by_sizes.get(sizes)
        if p is None:
            p = by_sizes[sizes] = eppf(params, sizes)
        values.append(p)
    return ExactLaw(n, words, values)


def _over_common_denominator(values: Sequence[Scalar]) -> tuple[list[Scalar], int | None]:
    """Integer numerators of exact values over their least common denominator.

    Sums of the numerators are exact sums of the values times the
    denominator, and cost no gcd per term.  When any value is a float the
    values come back unchanged with denominator None, so sums of them
    keep the bits of summing the values themselves.
    """
    if not all(is_exact(v) for v in values):
        return list(values), None
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _integer_partitions(r: int, largest: int) -> Iterator[tuple[int, ...]]:
    """Integer partitions of r into parts <= largest, parts descending, reverse lexicographic."""
    if r == 0:
        yield ()
        return
    for first in range(min(r, largest), 0, -1):
        for rest in _integer_partitions(r - first, first):
            yield (first,) + rest


@functools.cache
def _type_table(r: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(lambda, N(lambda)) for each integer partition lambda of r.

    lambda lists its parts in descending order, and

        N(lambda) = r! / (prod_i lambda_i! prod_j m_j!),

    with m_j the number of parts equal to j, is the number of set
    partitions of [r] with block sizes lambda.  Built once per r and kept
    for the process; every caller has checked r <= MAX_TYPE_N.
    """
    return tuple(
        (lam, math.factorial(r)
         // math.prod(map(math.factorial, lam + tuple(Counter(lam).values()))))
        for lam in _integer_partitions(r, r)
    )


def _check_type_n(n: int) -> None:
    if not (isinstance(n, int) and 1 <= n <= MAX_TYPE_N):
        raise ParameterError(f"need 1 <= n <= {MAX_TYPE_N}, got {n}")


def eppf_total(params: ExtParams, n: int) -> Scalar:
    """Total mass sum_lambda N(lambda) p(lambda) of the partition law on [n], n <= 20.

    The value of `exact_law(params, n).total()`, summed over the integer
    partitions of n instead of the Bell(n) set partitions.  Exact
    parameters sum the integer numerators of `eppf._eppf_integers` over
    their shared denominator and build one Fraction.
    """
    _check_type_n(n)
    integers = _eppf_integers(params)
    if integers is None:
        return sum(count * eppf(params, lam) for lam, count in _type_table(n))
    top, bottom = integers
    return Fraction(sum(count * top(lam) for lam, count in _type_table(n)), bottom(n))


def _law_under_test(params: ExtParams, n: int, p: Callable[[tuple[int, ...]], Scalar] | None
                    ) -> tuple[Callable[[tuple[int, ...]], Scalar], int | None]:
    """The law under test on [n] for `_type_walk`: (values, den).

    Every integer partition of n is read once.  With exact parameters
    den is an int and the values integer numerators over it: the
    family's from `eppf._eppf_integers`, or a passed p's put over
    `_over_common_denominator`.  Float parameters, or a p with a float
    value, give den None and p's own values (the family's EPPF by
    default).
    """
    types = [lam for lam, _ in _type_table(n)]
    if not params.is_exact_mode:
        return dict(zip(types, map(p or functools.partial(eppf, params), types))).__getitem__, None
    if p is None:
        top, bottom = _eppf_integers(params)
        nums, den = list(map(top, types)), bottom(n)
    else:
        nums, den = _over_common_denominator(list(map(p, types)))
    return dict(zip(types, nums)).__getitem__, den


def _wider(worst: Scalar, gap: int, den: int) -> Scalar:
    """The larger of worst and the deviation |gap / den|; a Fraction is built only for a nonzero gap."""
    if not gap:
        return worst
    dev = Fraction(abs(gap), abs(den))
    return dev if dev > worst else worst


def _type_walk(p: Callable[[tuple[int, ...]], Scalar], den: int | None, n: int,
               weight: Callable[[tuple[int, ...]], Scalar], deleted_sizes: range,
               size_target: Callable[[int], Scalar], remainder_params: Callable[[], ExtParams]) -> Scalar:
    """Worst deviation of a block deletion from its targets, over integer partitions.

    The law on [n] gives each set partition of block sizes lambda the
    probability p(lambda), as an exchangeable law does.  A set partition
    of sizes (m, *mu) loses its block of size m and leaves the remainder
    word of one set partition of [n - m], of sizes mu.  weight((m, *mu))
    is the number of set partitions that leave a given remainder word
    times the chance of deleting that block; it must depend only on m and
    on the number of blocks, and is called once per pair.  So each
    remainder word of sizes mu has mass weight((m, *mu)) p(m u mu), and
    the N(mu) words of sizes mu share it.  For m in deleted_sizes, the
    mass of deleting size m, the sum of those masses, must be
    size_target(m); given m < n with mass, each remainder word must have
    the conditional mass eppf(remainder_params(), mu), and that is called
    only then, as some parameters cannot shift.  p takes an integer
    partition of n, in descending order.

    With den an int (exact parameters, from `_law_under_test`) p gives
    integer numerators over den.  Each m's weights then go over
    `_over_common_denominator`, so its joint masses and their sum are
    integers over one denominator; the targets, the conditional ones
    from `eppf._eppf_integers`, are compared by cross-multiplication,
    and only a nonzero gap builds a Fraction.  With den None p gives the
    masses themselves, summed as they are.
    """
    worst: Scalar = 0
    target = None
    if den is None:
        weight_of: dict[tuple[int, int], Scalar] = {}
        for m in deleted_sizes:
            table = _type_table(n - m)
            joint = []
            mass: Scalar = 0
            for mu, count in table:
                w = weight_of.get((m, len(mu)))
                if w is None:
                    w = weight_of[m, len(mu)] = weight((m, *mu))
                v = w * p(tuple(sorted((m, *mu), reverse=True)))
                joint.append(v)
                mass = mass + count * v
            dev = abs(mass - size_target(m))
            worst = dev if dev > worst else worst
            if m == n or mass == 0:
                continue
            if target is None:
                target = remainder_params()
            for (mu, _), v in zip(table, joint):
                dev = abs(exact_div(v, mass) - eppf(target, mu))
                worst = dev if dev > worst else worst
        return worst
    for m in deleted_sizes:
        table = _type_table(n - m)
        firsts: dict[int, tuple[int, ...]] = {}
        for mu, _ in table:
            firsts.setdefault(len(mu), mu)
        w_nums, w_den = _over_common_denominator([weight((m, *mu)) for mu in firsts.values()])
        w_of = dict(zip(firsts, w_nums))
        joint = [w_of[len(mu)] * p(tuple(sorted((m, *mu), reverse=True))) for mu, _ in table]
        mass = sum(count * v for (_, count), v in zip(table, joint))
        mass_den = w_den * den
        goal = size_target(m)
        worst = _wider(worst, mass * goal.denominator - goal.numerator * mass_den, mass_den * goal.denominator)
        if m == n or mass == 0:
            continue
        if target is None:
            target = _eppf_integers(remainder_params())
        top, bottom = target
        t_den = bottom(n - m)
        for (mu, _), v in zip(table, joint):
            worst = _wider(worst, v * t_den - top(mu) * mass, mass * t_den)
    return worst


def deletion_law_check(params: ExtParams, n: int,
                       p: Callable[[tuple[int, ...]], Scalar] | None = None) -> Scalar:
    """Worst deviation in the delete-first-block characterization.

    Under the partition law on [n], condition on the block containing 1
    having size m < n; the relabeled remainder must follow the law of
    the shifted parameters (alpha, theta + alpha) on [n - m], and the
    size itself the law C(n-1, m-1) q(n : m).  Returns the largest
    absolute deviation across both claims (0 for the family; pass a
    perturbed EPPF to see the check fail).

    Per composition this is the factorization of p: the pair (size m,
    remainder rho) has mass C(n-1, m-1) p(m, rho), so the two claims
    together say p(lambda) = q(n : lambda_1) p'(lambda_2, ...) for every
    composition lambda of n, with p' the EPPF at the shifted parameters.

    The law under test is the EPPF p on descending block sizes, the
    family's own by default; the targets are always the family's.  It is
    checked over the integer partitions of n <= MAX_TYPE_N, where every
    remainder word of sizes mu has mass C(n-1, m-1) p(m, mu).
    """
    def size_target(m):
        return math.comb(n - 1, m - 1) * q_first_block(params, n, m)

    _check_type_n(n)
    return _type_walk(*_law_under_test(params, n, p), n, lambda sizes: math.comb(n - 1, sizes[0] - 1),
                      range(1, n), size_target, params.shifted)


def tau_regen_check(params: ExtParams, n: int,
                    p: Callable[[tuple[int, ...]], Scalar] | None = None) -> Scalar:
    """Worst deviation in the invariant-deletion characterization.

    Delete a block by the kernel at tau = alpha/(alpha + theta).  The
    deleted size must follow the decrement row q(n, .), and conditional
    on size m < n the relabeled remainder must follow the same family
    on [n - m].  Returns the largest absolute deviation (0 expected).

    Per composition this is the first-block consistency of the kernel:
    the pair (size m, remainder rho) has mass C(n, m) p(m, rho) d(m, rho; 1),
    with d the kernel's chance of deleting the block of size m, and both
    claims together say that it equals q(n, m) p(rho).

    The law under test is the EPPF p on descending block sizes, the
    family's own by default; the targets are always the family's.  It is
    checked over the integer partitions of n <= MAX_TYPE_N: d depends
    only on m, n and the number of blocks, so every remainder word of
    sizes mu has that mass.
    """
    _check_type_n(n)
    return _type_walk(*_law_under_test(params, n, p), n,
                      lambda sizes: math.comb(n, sizes[0]) * deletion_kernel(sizes, 1, params=params),
                      range(1, n + 1), functools.partial(decrement_entry, params, n), lambda: params)


def tau_perm_law(x: Sequence[Scalar], tau: Scalar) -> dict[tuple[int, ...], Scalar]:
    """Law of the tau-biased pick order of weights x, every order at once.

    Maps each permutation of 1..k, in lexicographic order, to the chance
    that `tau_biased_perm` picks in that order.  One `tau_pick_law` per
    remaining subset serves every order that reaches it, and each
    probability is the product of its picks in pick order, as
    `tau_perm_probability` takes it: exact weights and tau give Fractions,
    multiplied as integer numerators over one denominator, and otherwise
    the floats are `tau_perm_probability`'s bit for bit.
    """
    k = len(x)
    everyone = tuple(range(1, k + 1))
    laws = {sub: tau_pick_law([x[i - 1] for i in sub], tau)
            for size in range(k, 0, -1) for sub in itertools.combinations(everyone, size)}
    flat, den = _over_common_denominator([v for law in laws.values() for v in law])
    if den is not None:
        it = iter(flat)
        laws = {sub: [next(it) for _ in law] for sub, law in laws.items()}
    law: dict[tuple[int, ...], Scalar] = {}

    def rec(prefix: tuple[int, ...], remaining: tuple[int, ...], prob: Scalar) -> None:
        if not remaining:
            law[prefix] = prob
            return
        picks = laws[remaining]
        for i, target in enumerate(remaining):
            rec(prefix + (target,), remaining[:i] + remaining[i + 1:], prob * picks[i])

    rec((), everyone, 1)
    if den is not None:
        den **= k
        law = {perm: Fraction(num, den) for perm, num in law.items()}
    return law


def leem_check(x: Sequence[Scalar], tau: Scalar) -> Scalar:
    """Worst deviation in the pick-order identity, brute force over k!^2 terms.

    The tau-biased pick order of weights x must be distributed as a
    size-biased pick order rearranged by an independent xi-biased order
    with xi = (1 - tau)/tau.  Compares both laws on every permutation
    and returns the largest absolute difference (0 expected).

    Each xi-order probability is computed once per relative word, and
    exact sums run over integer numerators, compared with the tau-biased
    law by cross-multiplication: only a nonzero gap builds a Fraction.
    """
    k = len(x)
    if k == 0:
        raise ParameterError("need at least one weight")
    if not (0 <= tau <= 1):
        raise ParameterError(f"need 0 <= tau <= 1, got {tau}")
    xi = math.inf if tau == 0 else exact_div(1 - tau, tau)
    sb_law = tau_perm_law(x, 0)
    lhs = tau_perm_law(x, tau).values()
    worst: Scalar = 0
    if tau == 0:
        rhs = list(sb_law.values())
    else:
        perms, sb = list(sb_law), list(sb_law.values())
        ops = [order_probability(xi, w) for w in perms]
        sb_num, sb_den = _over_common_denominator(sb)
        op_num, op_den = _over_common_denominator(ops)
        exact = sb_den is not None and op_den is not None
        if exact:
            sb, ops = sb_num, op_num
        op_of = dict(zip(perms, ops))
        # positions, 1-based, of each element in each size-biased order
        invs = []
        for sigma in perms:
            inv = [0] * (k + 1)
            for i, v in enumerate(sigma, start=1):
                inv[v] = i
            invs.append(inv)
        rhs = []
        for pi in perms:
            total: Scalar = 0
            for inv, p in zip(invs, sb):
                total = total + p * op_of[tuple(map(inv.__getitem__, pi))]
            rhs.append(total)
        if exact:
            den = sb_den * op_den
            for left, total in zip(lhs, rhs):
                worst = _wider(worst, left.numerator * den - total * left.denominator, left.denominator * den)
            return worst
    for left, right in zip(lhs, rhs):
        dev = abs(left - right)
        worst = dev if dev > worst else worst
    return worst


def record_independence_residual(x: Sequence[Scalar]) -> Scalar:
    """Worst deviation from independence of the pick-order record events.

    Under the size-biased order of x, event A_j says index j is picked
    before all of j+1, ..., k.  The A_j are independent with
    P(A_j) = x_j / (x_j + ... + x_k); checked for every subset of
    events by enumeration, with exact sums over integer numerators.
    """
    k = len(x)
    law = tau_perm_law(x, 0)
    sb, den = _over_common_denominator(list(law.values()))
    tail = [sum(x[j:]) for j in range(k)]
    singles = [exact_div(x[j], tail[j]) for j in range(k)]
    positions = [{v: i for i, v in enumerate(sigma)} for sigma in law]
    worst: Scalar = 0
    for subset in itertools.product([False, True], repeat=k):
        prob: Scalar = 0
        for pos, p in zip(positions, sb):
            ok = True
            for j in range(1, k + 1):
                if subset[j - 1] and any(pos[v] < pos[j] for v in range(j + 1, k + 1)):
                    ok = False
                    break
            if ok:
                prob = prob + p
        if den is not None:
            prob = Fraction(prob, den)
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

    An exact xi = p/q is summed in integers: step j multiplies by p (rank
    j) or q (any other rank) over p + (j - 1) q, so each rank sequence
    weighs p^records q^(k - 1 - records) over the common denominator
    D = (p + q)(p + 2q) ... (p + (k - 1) q).  Each arrangement's sum is
    compared with order_probability by the cross-multiplied integer gap,
    and only a nonzero gap builds its Fraction.
    A float xi multiplies the step probabilities in turn.
    """
    from .samplers import arrangement_from_ranks

    if not (isinstance(k, int) and 1 <= k <= 8):
        raise ParameterError(f"need 1 <= k <= 8, got {k}")
    if not (xi >= 0):
        raise ParameterError(f"need xi >= 0, got {xi}")
    ranges = [range(1, j + 1) for j in range(1, k + 1)]
    if is_exact(xi):
        p, q = xi.numerator, xi.denominator
        den = math.prod(range(p + q, p + k * q, q))
        weight = [p ** r * q ** (k - 1 - r) for r in range(k)]
        sums: dict[tuple[int, ...], int] = {}
        for ranks in itertools.product(*ranges):
            records = sum(r == j for j, r in enumerate(ranks[1:], start=2))
            arr = arrangement_from_ranks(ranks)
            sums[arr] = sums.get(arr, 0) + weight[records]
        gap = abs(sum(sums.values()) - den)
        # k = 1 takes no step, so its gap stays an int, as the float loop's does
        worst: Scalar = Fraction(gap, den) if k > 1 else gap
        for arr in itertools.permutations(range(1, k + 1)):
            target = order_probability(xi, arr)
            worst = _wider(worst, sums.get(arr, 0) * target.denominator - target.numerator * den,
                           den * target.denominator)
        return worst
    accum: dict[tuple[int, ...], Scalar] = {}
    for ranks in itertools.product(*ranges):
        prob: Scalar = 1
        for j, r in enumerate(ranks[1:], start=2):
            if math.isinf(xi):
                prob = prob * (1 if r == j else 0)
            else:
                prob = prob * (xi if r == j else 1) / (j - 1 + xi)
        arr = arrangement_from_ranks(ranks)
        accum[arr] = accum.get(arr, 0) + prob
    worst = abs(sum(accum.values()) - 1)
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
    from scipy.stats import chi2
    return stat, dof, float(chi2.sf(stat, dof))


def ks_two_sample(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov statistic and p-value."""
    from scipy.stats import ks_2samp
    res = ks_2samp(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    return float(res.statistic), float(res.pvalue)
