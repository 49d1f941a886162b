"""Enumeration oracles, exact consistency checks, and sampling statistics."""

import functools
import hashlib
import itertools
import math
import time
from fractions import Fraction

import pytest

from partition_lab import cli, oracle
from partition_lab.cli import _VERIFY_GRID
from partition_lab.core import (
    ExtParams,
    ParameterError,
    canonicalize,
    delete_block,
    exact_div,
    partition_from_assignment,
)
from partition_lab.deletion import decrement_entry, deletion_kernel
from partition_lab.eppf import addition_residual, eppf, q_first_block
from partition_lab.samplers import tau_perm_probability
from partition_lab.oracle import (
    _type_table,
    _word_table,
    _words,
    chi_square,
    deletion_law_check,
    enumerate_partitions,
    eppf_total,
    exact_law,
    iter_partitions,
    ks_two_sample,
    leem_check,
    record_independence_residual,
    tau_perm_law,
    tau_regen_check,
    xi_order_enumeration_residual,
)

GRID = (
    ExtParams.two_param(0, 1),
    ExtParams.two_param(0, 2),
    ExtParams.two_param(Fraction(1, 2), Fraction(1, 2)),
    ExtParams.two_param(Fraction(1, 3), Fraction(2, 3)),
    ExtParams.two_param(Fraction(2, 3), 0),
    ExtParams.neg_alpha(-1, 3),
    ExtParams.coupon(4),
)


# ---------------------------------------------------------------------------
# enumeration

@pytest.mark.parametrize(("n", "bell"), [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203)])
def test_enumeration_hits_bell_numbers(n, bell):
    parts = enumerate_partitions(n)
    assert len(parts) == bell
    assert len(set(parts)) == bell
    for pi in parts:
        assert pi.n == n


def test_enumeration_bounds_and_order():
    assert next(iter_partitions(3)).blocks == ((1, 2, 3),)
    with pytest.raises(ParameterError):
        enumerate_partitions(-1)
    with pytest.raises(ParameterError):
        enumerate_partitions(13)


def test_word_table_is_the_enumeration():
    for n in range(9):
        words, keys = _word_table(n)
        assert words == tuple(_words(n))
        assert len(keys) == len(words)
        for word, key in zip(words, keys):
            assert key == partition_from_assignment(word).block_sizes().parts
        # built once: a second call hands back the same objects
        assert _word_table(n)[0] is words and _word_table(n)[1] is keys


def test_word_table_is_built_only_within_the_bound(monkeypatch):
    start = time.perf_counter()
    first = list(itertools.islice(iter_partitions(11), 3))
    # streamed: the first of Bell(11) = 678570 partitions without the rest
    assert time.perf_counter() - start < 0.5
    assert [pi.k for pi in first] == [1, 2, 2]
    # _word_table keeps every table it builds, so exact_law checks n
    # against MAX_EXACT_N before it asks for one
    calls = []
    real = oracle._word_table
    monkeypatch.setattr(oracle, "_word_table", lambda n: calls.append(n) or real(n))
    for n in (0, oracle.MAX_EXACT_N + 1, 10**6):
        with pytest.raises(ParameterError):
            exact_law(_HALF, n)
    assert calls == []
    exact_law(_HALF, 5)
    assert calls == [5] and real(5) is real(5)


@pytest.mark.parametrize("params", GRID, ids=str)
def test_exact_law_is_a_probability(params):
    law = exact_law(params, 5)
    assert law.total() == 1
    assert all(p >= 0 for p in law.probs.values())


def test_exact_law_value_and_bound():
    law = exact_law(ExtParams.two_param(0, 1), 3)
    assert law.probs[canonicalize([[1, 2, 3]])] == Fraction(1, 3)
    with pytest.raises(ParameterError):
        exact_law(ExtParams.two_param(0, 1), 11)


@pytest.mark.parametrize("params", _VERIFY_GRID + (ExtParams.two_param(0.3, 0.5),), ids=str)
def test_exact_law_is_eppf_of_each_partition(params):
    # one eppf call per block-size vector must give each partition the
    # value, and the type, of its own call
    for n in range(1, 7):
        got = exact_law(params, n).probs
        want = {pi: eppf(params, pi.block_sizes()) for pi in iter_partitions(n)}
        assert list(got) == list(want)
        for pi, p in want.items():
            assert got[pi] == p and type(got[pi]) is type(p)


# sha256 of repr(exact_law(params, n)) for n = 1..7, one line each, recorded
# from the SetPartition-keyed law; the repr is the public text of the law
# and what the benchmark digests
LAW_REPR_GOLDEN = {
    _VERIFY_GRID[0]: "920e46af373337b7709a83d5c15625e0e46d27a61f69a9b53e9e0dd34afa8e35",
    _VERIFY_GRID[1]: "e93a559a9272bc6840a5d73b10cfc13d00af2717230afaff2bcfa9d0559157f1",
    _VERIFY_GRID[2]: "02240c24b3c514c1c06ef5206c237cfb804a23a1a220b0103911420768516371",
    _VERIFY_GRID[3]: "50e714547fd4a9abe7faa2c88202c44b6ecfe6114419c32556b5615269145af6",
    _VERIFY_GRID[4]: "9b8fd053f7b8ab71a8c4903b48a810383e93a9a64232189dd7136d2b150c7cd2",
    _VERIFY_GRID[5]: "76ff6aad254e0b5bd179673101d9906351656fd39303a4e66fd13a7e2ad7c7bc",
    _VERIFY_GRID[6]: "53fefd5f8bcf10334ba3f35f1c4b5f61e409f4df5bcfbde41ff7e352d7770634",
}


@pytest.mark.parametrize("params", _VERIFY_GRID, ids=str)
def test_exact_law_repr_golden(params):
    text = "\n".join(repr(exact_law(params, n)) for n in range(1, 8))
    assert hashlib.sha256(text.encode()).hexdigest() == LAW_REPR_GOLDEN[params]


def test_exact_law_repr_golden_n8():
    law = exact_law(ExtParams.two_param(Fraction(1, 2), Fraction(1, 2)), 8)
    digest = hashlib.sha256(repr(law).encode()).hexdigest()
    assert digest == "1fa279c09b0ecada1e5d6fd19f7697a0fd77025e20fd1fdc99d5b3e95df20d15"


# ---------------------------------------------------------------------------
# characterization checks (zero for the family, positive when perturbed)

@pytest.mark.parametrize("params", GRID, ids=str)
def test_deletion_law_check_zero(params):
    for n in (1, 2, 3, 4, 5):
        assert deletion_law_check(params, n) == 0


@pytest.mark.parametrize("params", GRID[:5], ids=str)
def test_tau_regen_check_zero(params):
    for n in (2, 3, 4, 5):
        assert tau_regen_check(params, n) == 0


@pytest.mark.parametrize("params", [ExtParams.coupon(1), ExtParams.neg_alpha(-1, 1)], ids=str)
def test_deletion_law_check_one_block_never_shifts(params, monkeypatch):
    # one block only: no remainder has mass, and these params cannot shift
    calls = []
    monkeypatch.setattr(ExtParams, "shifted", lambda self: calls.append(self))
    for n in range(1, 6):
        got = deletion_law_check(params, n)
        assert got == 0 and type(got) is int
    assert calls == []


_CRP = ExtParams.two_param(0, 1)
_HALF = ExtParams.two_param(Fraction(1, 2), Fraction(1, 2))


def _perturbed(params, lam, amount):
    """The family's EPPF with `amount` of mass moved onto type lam, renormalized.

    The N(lam) set partitions of type lam share the amount, so at
    N(lam) = 1 it all goes to one set partition.
    """
    lam = tuple(sorted(lam, reverse=True))
    share = exact_div(amount, dict(_type_table(sum(lam)))[lam])

    def p(sizes):
        value = eppf(params, sizes)
        return exact_div(value + share if tuple(sorted(sizes, reverse=True)) == lam else value, 1 + amount)

    return p


@functools.cache
def _deletions(n):
    """Each set partition of [n]: its block sizes and (j, |B_j|, delete_block(pi, j)) per block."""
    return tuple((pi.block_sizes().parts,
                  tuple((j, len(block), delete_block(pi, j)) for j, block in enumerate(pi.blocks, start=1)))
                 for pi in iter_partitions(n))


def _brute_force(check, params, n, p):
    """check(params, n, p) set partition by set partition: the type walk's reference.

    Each set partition of [n] has mass p(its sizes, descending) and loses
    block j with the rule's chance: block 1, unless it is all of [n], for
    deletion_law_check, and the kernel's chance for tau_regen_check.  The
    mass of each deleted size m, and given m < n with mass the conditional
    mass of each set partition left on [n - m], are held to the check's
    targets.
    """
    if check is deletion_law_check:
        deleted_sizes, target = range(1, n), params.shifted

        def size_target(m):
            return math.comb(n - 1, m - 1) * q_first_block(params, n, m)

        def chance(sizes, j):
            return 1 if j == 1 and len(sizes) > 1 else 0
    else:
        deleted_sizes, target = range(1, n + 1), lambda: params
        size_target = functools.partial(decrement_entry, params, n)

        @functools.cache
        def chance(sizes, j):
            return deletion_kernel(sizes, j, params=params)
    size_mass, joint = {}, {}
    for sizes, blocks in _deletions(n):
        mass = p(tuple(sorted(sizes, reverse=True)))
        for j, m, rest in blocks:
            w = mass * chance(sizes, j)
            size_mass[m] = size_mass.get(m, 0) + w
            joint[rest] = joint.get(rest, 0) + w
    worst = 0
    for m in deleted_sizes:
        mass = size_mass.get(m, 0)
        worst = max(worst, abs(mass - size_target(m)))
        if m < n and mass != 0:
            for rho in iter_partitions(n - m):
                worst = max(worst, abs(exact_div(joint.get(rho, 0), mass) - eppf(target(), rho.block_sizes())))
    return worst


# 1/1000 of mass moved onto one type of [n]; the one-block type (n,) is a
# single set partition, so there the mass moves onto one set partition.
# The first line is criterion 03's control.
@pytest.mark.parametrize(("check", "params", "n", "lam", "dev"), [
    (deletion_law_check, _CRP, 5, (5,), Fraction(1, 5005)),
    (deletion_law_check, _CRP, 3, (3,), Fraction(1, 3003)),
    (deletion_law_check, _CRP, 5, (3, 2), Fraction(3, 2006)),
    (deletion_law_check, _CRP, 6, (4, 2), Fraction(1, 502)),
    (tau_regen_check, _HALF, 4, (4,), Fraction(6, 7007)),
    (tau_regen_check, _HALF, 5, (3, 2), Fraction(14, 4021)),
    (tau_regen_check, _HALF, 6, (4, 2), Fraction(154, 30231)),
])
def test_checks_see_perturbation(check, params, n, lam, dev):
    p = _perturbed(params, lam, Fraction(1, 1000))
    assert check(params, n, p) == dev == _brute_force(check, params, n, p)


# at n = 7; the all-singleton type, like the one-block type, is a single
# set partition
@pytest.mark.parametrize(("params", "lam", "deletion_dev", "tau_dev"), [
    (_VERIFY_GRID[3], (5, 2), Fraction(34, 8151), Fraction(51, 11335)),
    (_VERIFY_GRID[3], (1,) * 7, Fraction(917609, 240102711), Fraction(365, 149974)),
    (_VERIFY_GRID[4], (5, 2), Fraction(8748, 1235935), Fraction(486, 49729)),
    (_VERIFY_GRID[4], (1,) * 7, Fraction(6698781, 3435550349), Fraction(211, 162243)),
])
def test_checks_on_perturbed_grid_laws(params, lam, deletion_dev, tau_dev):
    p = _perturbed(params, lam, Fraction(1, 1000))
    assert deletion_law_check(params, 7, p) == deletion_dev == _brute_force(deletion_law_check, params, 7, p)
    assert tau_regen_check(params, 7, p) == tau_dev == _brute_force(tau_regen_check, params, 7, p)


def test_oracle_builds_no_partition_until_probs_is_read(monkeypatch, capsys):
    def refuse(word):
        raise AssertionError(f"built the SetPartition of {word!r}")

    monkeypatch.setattr(oracle, "partition_from_assignment", refuse)
    law = exact_law(_HALF, 8)
    assert law.total() == 1
    assert deletion_law_check(_HALF, 8) == 0
    assert tau_regen_check(_HALF, 8) == 0
    assert cli.main(["verify", "--suite", "deletion"]) == 0
    assert capsys.readouterr().out.endswith('{"checks":12,"failures":0}\n')
    monkeypatch.undo()
    # the mapping, built on first read, is keyed and ordered as enumeration is
    want = {pi: eppf(_HALF, pi.block_sizes()) for pi in iter_partitions(8)}
    assert list(law.probs.items()) == list(want.items())


@pytest.mark.parametrize("tau", [0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1])
def test_leem_check_zero_exact(tau):
    assert leem_check((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)), tau) == 0


@pytest.mark.parametrize("tau", [0, Fraction(1, 4), Fraction(1, 2), 1, 0.25], ids=repr)
def test_tau_perm_law_is_tau_perm_probability(tau):
    # every order at once, with the per-order reference's values: equal
    # Fractions for exact weights, the same float bits otherwise
    for k in range(1, 6):
        total = k * (k + 1) // 2
        for x in (tuple(Fraction(i, total) for i in range(1, k + 1)),
                  tuple(i / total for i in range(1, k + 1)), tuple(range(k, 0, -1))):
            law = tau_perm_law(x, tau)
            assert list(law) == list(itertools.permutations(range(1, k + 1)))
            for perm, p in law.items():
                want = tau_perm_probability(x, tau, perm)
                if isinstance(want, float):
                    assert type(p) is float and p.hex() == want.hex()
                else:
                    assert type(p) is Fraction and p == want


@pytest.mark.parametrize("tau", [Fraction(1, 2), Fraction(1, 3), 1], ids=repr)
def test_leem_check_sees_mass_moved_between_relative_words(monkeypatch, tau):
    # 1/1000 of the xi-order mass moves from the relative word (1, 2, 3) to
    # (3, 2, 1); the order (1, 2, 3) then reads (sb(3, 2, 1) - sb(1, 2, 3))/1000
    # = (1/3 - 1/15)/1000 off, the largest gap, seen through the
    # cross-multiplied comparison
    real = oracle.order_probability
    moved = {(1, 2, 3): Fraction(-1, 1000), (3, 2, 1): Fraction(1, 1000)}
    monkeypatch.setattr(oracle, "order_probability",
                        lambda xi, arrangement: real(xi, arrangement) + moved.get(tuple(arrangement), 0))
    got = leem_check((Fraction(1, 6), Fraction(2, 6), Fraction(3, 6)), tau)
    assert got == Fraction(1, 3750) and type(got) is Fraction


def test_leem_check_handles_ties_and_validates():
    # equal float weights exercise the tie branches
    assert leem_check((0.25, 0.25, 0.5), 0.5) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ParameterError):
        leem_check((), Fraction(1, 2))
    with pytest.raises(ParameterError):
        leem_check((Fraction(1, 2),), 2)


# sha256 of one line per call, "<case>: <result type> <repr>" or the error,
# recorded from the SetPartition-keyed, per-pair Fraction checks (the xi
# family from the per-step Fraction product, the record family from the
# integer numerators of the oracle's private pick-order walk); pins the
# exact values, their types and the float bits.  The grid family's float
# lines and the errors family's n bounds were re-recorded when the checks
# without a law moved to the type walk; its exact lines did not move.
_FLOAT_POINTS = (
    ExtParams.two_param(0.3, 0.5),
    ExtParams.two_param(0.5, 0.5),
    ExtParams.two_param(0.25, 2.0),
)
_LEEM_TAUS = (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1, 0.25, 0.0, 1.0)
CHECK_GOLDEN = {
    "grid": "0d688d29dda52eb45492ecf4f30199ea492f03acca2ea51e5413bb13e1342388",
    # re-recorded when the law under test became an EPPF: 1/1000 of mass
    # moved onto a type, not a set partition; every exact line whose type
    # is a single set partition reads as it did on the word walk
    "perturbed": "8a6272ed119b862605a2762d00623cacede2185710afb462f51cfbb9420cada8",
    "leem": "65f1749ada36fab2f4ba1fba866f7181faccd861570898ab73232a368272855c",
    "record": "66056a8fe8154f3ad5c3cb93b92a63998e35a2c385f809c71c23d719465d2c54",
    "errors": "0384bcc6c9b9e5c8d4ed89c76424bde71007cb452c0500232218acfe054d2240",
    "xi": "bf0b4b9335ffe1d2473bb7e3e0cb0cd92f9db5c6c3ad883dc0413d355bd64c3d",
}


def _outcome(fn, *args):
    try:
        r = fn(*args)
    except Exception as e:  # the message is part of what is pinned
        return f"{type(e).__name__}: {e}"
    return f"{type(r).__name__} {r!r}"


def _golden_lines(family):
    if family == "grid":
        for params in _VERIFY_GRID + _FLOAT_POINTS:
            for n in range(1, 8):
                for check in (deletion_law_check, tau_regen_check):
                    yield f"{check.__name__} {params} {n}", check, params, n
    elif family == "perturbed":
        cases = [(deletion_law_check, p) for p in (_CRP, _HALF, _FLOAT_POINTS[0],
                                                   ExtParams.coupon(4), ExtParams.neg_alpha(-1, 3))]
        cases += [(tau_regen_check, p) for p in (_CRP, _HALF, _FLOAT_POINTS[1],
                                                 ExtParams.two_param(Fraction(2, 3), 0))]
        for check, params in cases:
            for n in (4, 6):
                for lam in ((n,), (n - 2, 2), (1,) * n):
                    for amount in (Fraction(1, 1000), Fraction(-1, 1000), 0.001, -0.001):
                        p = _perturbed(params, lam, amount)
                        yield f"{check.__name__} {params} {n} {lam} {amount}", check, params, n, p
    elif family == "leem":
        for k in range(1, 6):
            total = k * (k + 1) // 2
            for x in (tuple(Fraction(i, total) for i in range(1, k + 1)),
                      tuple(i / total for i in range(1, k + 1))):
                for tau in _LEEM_TAUS:
                    yield f"leem_check {x} {tau!r}", leem_check, x, tau
        for tau in _LEEM_TAUS:
            yield f"leem_check ties {tau!r}", leem_check, (0.25, 0.25, 0.5), tau
            yield f"leem_check ints {tau!r}", leem_check, (1, 2, 3, 4), tau
    elif family == "record":
        for k in range(1, 6):
            total = k * (k + 1) // 2
            for x in (tuple(Fraction(i, total) for i in range(1, k + 1)),
                      tuple(i / total for i in range(1, k + 1)),
                      tuple(range(1, k + 1)), tuple(range(k, 0, -1)),
                      tuple(1 / (i + 1.5) for i in range(k))):
                yield f"record_independence_residual {x}", record_independence_residual, x
        yield "record_independence_residual ties", record_independence_residual, (0.25, 0.25, 0.5)
    elif family == "xi":
        for xi in (0, Fraction(1, 2), 1, 2, 3, Fraction(7, 3), 0.0, 0.5, 2.0, math.inf):
            for k in range(1, 8):
                yield f"xi_order_enumeration_residual {k} {xi!r}", xi_order_enumeration_residual, k, xi
    else:
        for x, tau in [((), Fraction(1, 2)), ((Fraction(1, 2),), 2), ((0, 1), Fraction(1, 2)),
                       ((-1, 2), Fraction(1, 2)), ((1, math.inf), 0.5), ((1, math.nan), 0.5),
                       ((1, 2), math.nan), ((1, 2), -0.5)]:
            yield f"leem_check {x} {tau!r}", leem_check, x, tau
        for check, params, n in [(deletion_law_check, _CRP, 0), (deletion_law_check, _CRP, 21),
                                 (tau_regen_check, _CRP, 0), (tau_regen_check, ExtParams.neg_alpha(-1, 3), 4),
                                 (tau_regen_check, ExtParams.coupon(4), 3),
                                 (tau_regen_check, ExtParams.two_param(Fraction(1, 2), Fraction(-1, 4)), 4)]:
            yield f"{check.__name__} {params} {n}", check, params, n


@pytest.mark.parametrize("family", sorted(CHECK_GOLDEN))
def test_check_outputs_golden(family):
    lines = [f"{case}: {_outcome(fn, *args)}" for case, fn, *args in _golden_lines(family)]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == CHECK_GOLDEN[family], "\n".join(lines)


# ---------------------------------------------------------------------------
# the type walk: integer partitions of n, each weighted by its set partitions

def test_type_table_counts_the_set_partitions():
    for n in range(9):
        words, keys = _word_table(n)
        table = _type_table(n)
        want = {}
        for key in keys:
            lam = tuple(sorted(key, reverse=True))
            want[lam] = want.get(lam, 0) + 1
        assert dict(table) == want and len(table) == len(want)
        assert [lam for lam, _ in table] == sorted(want, reverse=True)
    # the number of integer partitions of 20, and Bell(20) set partitions
    assert len(_type_table(20)) == 627
    assert sum(count for _, count in _type_table(20)) == 51724158235372
    assert _type_table(20) is _type_table(20)


@pytest.mark.parametrize("check", [eppf_total, deletion_law_check, tau_regen_check])
def test_type_table_is_built_only_within_the_bound(check, monkeypatch):
    # _type_table keeps every table it builds, so each caller checks n
    # against MAX_TYPE_N before it asks for one
    calls = []
    real = oracle._type_table
    monkeypatch.setattr(oracle, "_type_table", lambda r: calls.append(r) or real(r))
    for n in (0, oracle.MAX_TYPE_N + 1, 10**6):
        with pytest.raises(ParameterError):
            check(_HALF, n)
    assert calls == []
    check(_HALF, oracle.MAX_TYPE_N)
    assert calls and max(calls) <= oracle.MAX_TYPE_N


@pytest.mark.parametrize("params", _VERIFY_GRID + _FLOAT_POINTS, ids=str)
def test_eppf_total_is_the_exact_law_total(params):
    for n in range(1, 9):
        got, want = eppf_total(params, n), exact_law(params, n).total()
        if params.is_exact_mode:
            assert got == want == 1 and type(got) is type(want)
        else:
            # the word total is math.fsum's; the two differ by up to 2.2e-16
            assert abs(got - 1) <= 4 * 2 ** -52 and abs(got - want) <= 2 * 2 ** -52
    if params.is_exact_mode:
        assert eppf_total(params, 20) == 1
    for n in (0, 21):
        with pytest.raises(ParameterError, match="need 1 <= n <= 20"):
            eppf_total(params, n)


@pytest.mark.parametrize("check", [deletion_law_check, tau_regen_check])
@pytest.mark.parametrize("params", _VERIFY_GRID, ids=str)
def test_type_walk_matches_the_brute_force(check, params):
    # the family's law and two perturbed ones: equal values of equal type,
    # or the same error, set partition by set partition
    family = functools.partial(eppf, params)
    for n in range(1, 7):
        types = [(n,), (n - 1, 1)] if n > 1 else [(1,)]
        for p in [None] + [_perturbed(params, lam, Fraction(1, 1000)) for lam in types]:
            assert _outcome(check, params, n, p) == _outcome(_brute_force, check, params, n, p or family)
    if params == _HALF:
        assert _outcome(check, params, 7) == _outcome(_brute_force, check, params, 7, family)


@pytest.mark.parametrize("check", [deletion_law_check, tau_regen_check])
@pytest.mark.parametrize("params", _FLOAT_POINTS, ids=str)
def test_type_walk_in_floats(check, params):
    # the type walk stays within an ulp of 1 of the true 0; the brute force
    # adds its masses one set partition at a time and read up to 1.73e-15
    # (tau_regen_check at (0.3, 0.5), n = 6), so the gap is held to twice that
    for n in range(1, 7):
        got = check(params, n)
        assert 0 <= got <= 2 ** -53
        assert abs(got - _brute_force(check, params, n, functools.partial(eppf, params))) <= 3.5e-15


@pytest.mark.parametrize("move", ["two types", "one block"])
@pytest.mark.parametrize("n", [7, 12])
@pytest.mark.parametrize("params", [_HALF, _VERIFY_GRID[3], _VERIFY_GRID[4]], ids=str)
def test_type_walk_sees_mass_moved_between_types(params, n, move):
    # 1e-4 of mass moves between types of [n], each holding more than that:
    # from (3, 1, ..., 1) to (2, 2, 1, ..., 1), which moves the deleted
    # sizes and the remainders; or from one block to every other type in
    # proportion, which moves only the deleted sizes, as the remainders'
    # conditional laws keep their ratios.  The remainder targets stay the
    # family's, so both deletion rules must see the move: at n = 7 with the
    # brute force's values, exactly.
    amount = Fraction(1, 10 ** 4)
    counts = dict(_type_table(n))
    source, dest = (3,) + (1,) * (n - 3), (2, 2) + (1,) * (n - 4)
    scale = 1 + amount / (1 - eppf(params, (n,)))

    def p(lam):
        value = eppf(params, lam)
        if move == "one block":
            return value - amount if lam == (n,) else value * scale
        return value + {source: -amount / counts[source], dest: amount / counts[dest]}.get(lam, 0)

    assert deletion_law_check(params, n) == tau_regen_check(params, n) == 0
    assert sum(count * p(lam) for lam, count in counts.items()) == 1
    assert min(p(lam) for lam in counts) >= 0
    for check in (deletion_law_check, tau_regen_check):
        got = check(params, n, p)
        assert got > 0
        if n == 7:
            assert got == _brute_force(check, params, n, p)


def test_record_independence_residual_zero():
    assert record_independence_residual((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))) == 0
    assert record_independence_residual((Fraction(2, 7), Fraction(5, 7))) == 0


@pytest.mark.parametrize("xi", [Fraction(1, 2), 1, 2, 3, math.inf])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_xi_order_enumeration_residual_zero(k, xi):
    assert xi_order_enumeration_residual(k, xi) == 0


def test_xi_order_enumeration_sees_mass_moved_between_arrangements(monkeypatch):
    # 1/1000 of the closed form's mass moves from the standard order (mass
    # 1/945 at xi = 1/2, k = 5) to the reversed one; the total stays 1, so
    # only the cross-multiplied gap per arrangement can see it
    real = oracle.order_probability
    moved = {(1, 2, 3, 4, 5): Fraction(-1, 1000), (5, 4, 3, 2, 1): Fraction(1, 1000)}
    monkeypatch.setattr(oracle, "order_probability",
                        lambda xi, arrangement: real(xi, arrangement) + moved.get(tuple(arrangement), 0))
    got = xi_order_enumeration_residual(5, Fraction(1, 2))
    assert got == Fraction(1, 1000) and type(got) is Fraction


def test_exact_checks_keep_their_return_types():
    # exact parameters give exact zeros, never floats: eppf past the bounded
    # ranges' blocks is the int 0, and so is an addition residual whose
    # terms all are; the type walk returns the int 0 it starts from
    for params, parts in [(ExtParams.neg_alpha(-1, 3), (2, 1, 1, 1)), (ExtParams.coupon(3), (1, 1, 1, 1))]:
        got = eppf(params, parts)
        assert got == 0 and type(got) is int
    for params in _VERIFY_GRID:
        for parts in [(1,), (2, 1), (1, 1, 1), (1, 1, 1, 1), (2, 1, 1, 1, 1)]:
            got = addition_residual(params, parts)
            past = params.max_blocks is not None and len(parts) > params.max_blocks
            assert got == 0 and type(got) is (int if past else Fraction), (params, parts)
        got = eppf_total(params, 5)
        assert got == 1 and type(got) is Fraction
        checks = [deletion_law_check] + [tau_regen_check] * (params.kind == "two_param")
        for check in checks:
            got = check(params, 5)
            assert got == 0 and type(got) is int
    for xi in (0, Fraction(1, 2), 1, 2):
        got = [xi_order_enumeration_residual(k, xi) for k in (1, 2, 5)]
        assert got == [0, 0, 0] and list(map(type, got)) == [int, Fraction, Fraction]


def test_xi_order_enumeration_bounds():
    with pytest.raises(ParameterError):
        xi_order_enumeration_residual(0, 1)
    with pytest.raises(ParameterError):
        xi_order_enumeration_residual(9, 1)
    # -1 makes the step denominator j - 1 + xi zero at j = 2
    for xi in (-1, -1.0, Fraction(-1, 2), -0.5, math.nan):
        with pytest.raises(ParameterError, match="need xi >= 0"):
            xi_order_enumeration_residual(3, xi)


# ---------------------------------------------------------------------------
# sampling statistics

def test_chi_square_values():
    assert chi_square([50, 50], [0.5, 0.5]) == (0.0, 1, 1.0)
    stat, dof, pval = chi_square([60, 40], [0.5, 0.5])
    assert stat == pytest.approx(4.0)
    assert dof == 1
    assert pval == pytest.approx(0.0455, abs=1e-4)


def test_chi_square_pools_small_cells():
    stat, dof, pval = chi_square([95, 3, 2], [0.9, 0.05, 0.05])
    assert dof == 2  # the two small cells merge into one bin
    assert 0 < pval < 1


def test_chi_square_validation():
    with pytest.raises(ParameterError):
        chi_square([10, 10], [0.5])
    with pytest.raises(ParameterError):
        chi_square([10, 10], [0.5, -0.5])
    with pytest.raises(ParameterError):
        chi_square([10, 10], [1.0, 0.0])  # observed mass on a dead cell
    with pytest.raises(ParameterError):
        chi_square([100, 0], [1.0, 0.0])  # single bin after pooling


def test_ks_two_sample_sanity():
    same = [1.0, 2.0, 3.0] * 30
    assert ks_two_sample(same, same) == (0.0, 1.0)
    stat, pval = ks_two_sample([0.0] * 50, [1.0] * 50)
    assert stat == 1.0
    assert pval < 1e-10
