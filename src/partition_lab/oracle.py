"""Independent verification routes: exact enumeration and test statistics.

Everything here recomputes laws by a second, slower route (enumerating
set partitions, integer partitions, permutations, or rank sequences) so
the closed-form modules can be checked against it.  Deviations are
returned as numbers, 0 in exact arithmetic when a claimed identity
holds; the perturbation hooks confirm that the checks actually reject
wrong laws.

The partition law of an exchangeable family gives a set partition of
[n] a probability p(lambda) that depends only on its block sizes
lambda.  So the family's own checks (`deletion_law_check`,
`tau_regen_check` and `eppf_total`) sum over the integer partitions
lambda of n, each weighted by N(lambda), the number of set partitions
of [n] with those block sizes: 627 types at n = 20, where [10] alone
has 115,975 set partitions.  `_type_table` lists the types of each
n <= MAX_TYPE_N once per process, and `_type_walk` runs both deletion
rules over them.

A law passed in as an `ExactLaw` (a perturbed law, which need not be
exchangeable) is checked set partition by set partition, on the word
walk `_deletion_walk`; it is also the reference the type walk is
tested against for n <= 8.  A set partition of [n] is enumerated as its
restricted-growth assignment word: `exact_law` keys its law by word and
builds `SetPartition` objects only when the public `ExactLaw.probs`
mapping is read.  The words of [n] and their block sizes are
enumerated once per n <= 10, by `_word_table`, and kept for the
process.  The word walk's exact gap loops (remainder laws, xi orders)
cross-multiply: each word's integer numerators are compared with its
target's, and a Fraction deviation is built only where the gap is
nonzero.  scipy is imported inside `chi_square` and `ks_two_sample`,
so importing the library does not load it.
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
from .eppf import eppf, q_first_block
from .samplers import order_probability, tau_pick_law

MAX_ENUM_N = 12
MAX_EXACT_N = 10  # exact_law's bound, and the largest n whose word table is kept
MAX_TYPE_N = 20  # the type walk's bound, and the largest n whose type table is kept
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


_WORD_TABLES: dict[int, tuple[tuple[bytes, ...], tuple[tuple[int, ...], ...]]] = {}


def _word_table(n: int) -> tuple[tuple[bytes, ...], tuple[tuple[int, ...], ...]]:
    """The words of [n] in `_words` order and the block sizes of each.

    Built once per n <= MAX_EXACT_N and kept for the process, so exact
    laws and remainder comparisons do not enumerate [n] again; a larger
    n is built afresh on each call and never kept.
    """
    table = _WORD_TABLES.get(n)
    if table is None:
        words = tuple(_words(n))
        table = words, tuple(map(_block_sizes, words))
        if n <= MAX_EXACT_N:
            _WORD_TABLES[n] = table
    return table


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

    def perturbed(self, pi: SetPartition, amount: Scalar) -> "ExactLaw":
        """Add mass to one partition and renormalize; breaks exactness claims."""
        word = bytes(pi.assignment_word())
        try:
            i = self.words.index(word)
        except ValueError:
            raise ParameterError("perturbation target is not a partition of [n]") from None
        new = list(self.values)
        new[i] = new[i] + amount
        scale = 1 + amount
        return ExactLaw(self.n, self.words, [exact_div(v, scale) for v in new])


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


# _LOWER[j] maps each label c to c - (c > j); _LABEL[j] is label j alone
_LOWER = [bytes(range(j + 1)) + bytes(range(j, 255)) for j in range(MAX_ENUM_N + 1)]
_LABEL = [bytes((j,)) for j in range(MAX_ENUM_N + 1)]


def _remainder_word(word: bytes, j: int) -> bytes:
    """Assignment word of delete_block(pi, j), from the word of pi.

    Dropping block j's entries and lowering the labels above j keeps
    the labels in order of appearance, so the result is canonical.
    """
    return word.translate(_LOWER[j], _LABEL[j])


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


def _remainder_distance(joint: dict[bytes, Scalar], mass: Scalar, den: int | None,
                        r: int, params: ExtParams, memo: dict[tuple[int, ...], Scalar]) -> Scalar:
    """Worst gap between joint / mass and the law of params on [r].

    joint maps remainder words to their mass (numerators over den when
    den is not None, so the quotient needs no den); words of [r] it lacks
    have conditional mass 0.  The target eppf is memoized by block sizes.
    With den set and an exact target t, a word is tested by the integer
    gap |v t.den - t.num mass|, and only a nonzero gap builds its
    Fraction deviation, gap / |mass t.den|.
    """
    worst: Scalar = 0
    for word, sizes in zip(*_word_table(r)):
        target = memo.get(sizes)
        if target is None:
            target = memo[sizes] = eppf(params, sizes)
        v = joint.get(word)
        if den is not None and is_exact(target):
            gap = abs((v or 0) * target.denominator - target.numerator * mass)
            if not gap:
                continue
            dev = Fraction(gap, abs(mass) * target.denominator)
        else:
            if v is None:
                cond: Scalar = 0
            else:
                cond = Fraction(v, mass) if den is not None else exact_div(v, mass)
            dev = abs(cond - target)
        worst = dev if dev > worst else worst
    return worst


def _deletion_walk(law: ExactLaw, n: int, row: Callable[[tuple[int, ...]], list[Scalar]],
                   deleted_sizes: range, size_target: Callable[[int], Scalar],
                   remainder_params: Callable[[], ExtParams]) -> Scalar:
    """Worst deviation of a block deletion from its targets.

    A partition with block sizes b loses block j with chance row(b)[j - 1]
    (blocks past the row's end stay).  For m in deleted_sizes, the mass of
    deleting size m must be size_target(m), and given m < n with mass, the
    relabeled remainder must follow remainder_params() on [n - m]; that is
    called only then, as some parameters cannot shift.  Rows are built
    once per size vector, p read per word (a passed-in law need not be a
    function of the sizes).  The walk reads the law's words and values and
    keys remainders by assignment word, so it builds no `SetPartition`;
    the masses are collected per key and added once: exact ones as integer
    numerators over the law's denominator times the rows', float ones by
    math.fsum, so their sums do not drift with Bell(n).  A law on the kept
    word table of [n] (every `exact_law` and its `perturbed` laws) reuses
    the table's block sizes.
    """
    if law.n != n:
        raise ParameterError(f"law is on [{law.n}], check needs [{n}]")
    words, keys = _WORD_TABLES.get(n, (None, None))
    if law.words is not words:
        keys = list(map(_block_sizes, law.words))
    rows = {key: row(key) for key in dict.fromkeys(keys)}
    probs = law.values
    law_num, law_den = _over_common_denominator(probs)
    row_num, row_den = _over_common_denominator([d for r in rows.values() for d in r])
    den = None
    if law_den is not None and row_den is not None:
        den = law_den * row_den
        probs, it = law_num, iter(row_num)
        rows = {key: [next(it) for _ in r] for key, r in rows.items()}
    # (block, size, chance) per size vector, zipped once, not per partition
    picks = {key: list(zip(itertools.count(1), key, r)) for key, r in rows.items()}
    size_terms: dict[int, list[Scalar]] = {}
    joint_terms: dict[bytes, list[Scalar]] = {}
    for word, key, p in zip(law.words, keys, probs):
        for j, m, d in picks[key]:
            w = p * d
            size_terms.setdefault(m, []).append(w)
            joint_terms.setdefault(_remainder_word(word, j), []).append(w)
    add = sum if den is not None else math.fsum
    size_mass = {m: add(t) for m, t in size_terms.items()}
    joint = {rem: add(t) for rem, t in joint_terms.items()}
    worst: Scalar = 0
    target = None
    memo: dict[tuple[int, ...], Scalar] = {}
    for m in deleted_sizes:
        mass = size_mass.get(m, 0)
        dev = abs((mass if den is None else Fraction(mass, den)) - size_target(m))
        worst = dev if dev > worst else worst
        if m == n or mass == 0:
            continue
        if target is None:
            target = remainder_params()
        dev = _remainder_distance(joint, mass, den, n - m, target, memo)
        worst = dev if dev > worst else worst
    return worst


def _integer_partitions(r: int, largest: int) -> Iterator[tuple[int, ...]]:
    """Integer partitions of r into parts <= largest, parts descending, reverse lexicographic."""
    if r == 0:
        yield ()
        return
    for first in range(min(r, largest), 0, -1):
        for rest in _integer_partitions(r - first, first):
            yield (first,) + rest


_TYPE_TABLES: dict[int, tuple[tuple[tuple[int, ...], int], ...]] = {}


def _type_table(r: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(lambda, N(lambda)) for each integer partition lambda of r.

    lambda lists its parts in descending order, and

        N(lambda) = r! / (prod_i lambda_i! prod_j m_j!),

    with m_j the number of parts equal to j, is the number of set
    partitions of [r] with block sizes lambda.  Built once per
    r <= MAX_TYPE_N and kept for the process; a larger r is built afresh
    on each call and never kept.
    """
    table = _TYPE_TABLES.get(r)
    if table is None:
        table = tuple(
            (lam, math.factorial(r)
             // math.prod(map(math.factorial, lam + tuple(Counter(lam).values()))))
            for lam in _integer_partitions(r, r)
        )
        if r <= MAX_TYPE_N:
            _TYPE_TABLES[r] = table
    return table


def _check_type_n(n: int) -> None:
    if not (isinstance(n, int) and 1 <= n <= MAX_TYPE_N):
        raise ParameterError(f"need 1 <= n <= {MAX_TYPE_N}, got {n}")


def eppf_total(params: ExtParams, n: int) -> Scalar:
    """Total mass sum_lambda N(lambda) p(lambda) of the partition law on [n], n <= 20.

    The value of `exact_law(params, n).total()`, summed over the integer
    partitions of n instead of the Bell(n) set partitions.
    """
    _check_type_n(n)
    return sum(count * eppf(params, lam) for lam, count in _type_table(n))


def _type_walk(p: Callable[[tuple[int, ...]], Scalar], n: int,
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
    only then, as some parameters cannot shift.  p is read once per
    integer partition of n, in descending order.  These are the
    deviations that `_deletion_walk` finds on the law's words.
    """
    worst: Scalar = 0
    target = None
    p_of: dict[tuple[int, ...], Scalar] = {}
    weight_of: dict[tuple[int, int], Scalar] = {}
    for m in deleted_sizes:
        table = _type_table(n - m)
        joint = []
        mass: Scalar = 0
        for mu, count in table:
            lam = tuple(sorted((m, *mu), reverse=True))
            pv = p_of.get(lam)
            if pv is None:
                pv = p_of[lam] = p(lam)
            w = weight_of.get((m, len(mu)))
            if w is None:
                w = weight_of[m, len(mu)] = weight((m, *mu))
            v = w * pv
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


def deletion_law_check(params: ExtParams, n: int, law: ExactLaw | None = None) -> Scalar:
    """Worst deviation in the delete-first-block characterization.

    Under the partition law on [n], condition on the block containing 1
    having size m < n; the relabeled remainder must follow the law of
    the shifted parameters (alpha, theta + alpha) on [n - m], and the
    size itself the law C(n-1, m-1) q(n : m).  Returns the largest
    absolute deviation across both claims (0 for the family; pass a
    perturbed law to see the check fail).

    Per composition this is the factorization of p: the pair (size m,
    remainder rho) has mass C(n-1, m-1) p(m, rho), so the two claims
    together say p(lambda) = q(n : lambda_1) p'(lambda_2, ...) for every
    composition lambda of n, with p' the EPPF at the shifted parameters.

    Without a law, the family's own law is checked over the integer
    partitions of n <= MAX_TYPE_N, where every remainder word of sizes mu
    has mass C(n-1, m-1) p(m, mu).  A passed-in law is checked word by
    word, with the deletion row [1] on block 1, empty when that block is
    all of [n].
    """
    def size_target(m):
        return math.comb(n - 1, m - 1) * q_first_block(params, n, m)

    if law is not None:
        return _deletion_walk(law, n, lambda sizes: [1] if len(sizes) > 1 else [], range(1, n),
                              size_target, params.shifted)
    _check_type_n(n)
    return _type_walk(functools.partial(eppf, params), n, lambda sizes: math.comb(n - 1, sizes[0] - 1),
                      range(1, n), size_target, params.shifted)


def tau_regen_check(params: ExtParams, n: int, law: ExactLaw | None = None) -> Scalar:
    """Worst deviation in the invariant-deletion characterization.

    Delete a block by the kernel at tau = alpha/(alpha + theta).  The
    deleted size must follow the decrement row q(n, .), and conditional
    on size m < n the relabeled remainder must follow the same family
    on [n - m].  Returns the largest absolute deviation (0 expected).

    Per composition this is the first-block consistency of the kernel:
    the pair (size m, remainder rho) has mass C(n, m) p(m, rho) d(m, rho; 1),
    with d the kernel's chance of deleting the block of size m, and both
    claims together say that it equals q(n, m) p(rho).

    Without a law, the family's own law is checked over the integer
    partitions of n <= MAX_TYPE_N: d depends only on m, n and the number
    of blocks, so every remainder word of sizes mu has that mass.  A
    passed-in law is checked word by word, each block deleted with its
    kernel chance.
    """
    size_target = functools.partial(decrement_entry, params, n)
    if law is not None:
        return _deletion_walk(law, n, lambda sizes: [deletion_kernel(sizes, j, params=params)
                                                     for j in range(1, len(sizes) + 1)],
                              range(1, n + 1), size_target, lambda: params)
    _check_type_n(n)
    return _type_walk(functools.partial(eppf, params), n,
                      lambda sizes: math.comb(n, sizes[0]) * deletion_kernel(sizes, 1, params=params),
                      range(1, n + 1), size_target, lambda: params)


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
    exact sums run over integer numerators.
    """
    k = len(x)
    if k == 0:
        raise ParameterError("need at least one weight")
    if not (0 <= tau <= 1):
        raise ParameterError(f"need 0 <= tau <= 1, got {tau}")
    xi = math.inf if tau == 0 else exact_div(1 - tau, tau)
    sb_law = tau_perm_law(x, 0)
    lhs = tau_perm_law(x, tau).values()
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
            rhs = [Fraction(total, sb_den * op_den) for total in rhs]
    worst: Scalar = 0
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
            gap = abs(sums.get(arr, 0) * target.denominator - target.numerator * den)
            if gap:
                dev = Fraction(gap, den * target.denominator)
                worst = dev if dev > worst else worst
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
