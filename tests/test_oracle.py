"""Enumeration oracles, exact consistency checks, and sampling statistics."""

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
    partition_from_assignment,
)
from partition_lab.eppf import eppf
from partition_lab.samplers import tau_perm_probability
from partition_lab.oracle import (
    ExactLaw,
    _remainder_word,
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


def test_remainder_word_is_the_deleted_partition():
    # the checks key remainders by this word instead of calling delete_block
    for n in range(1, 8):
        for pi in iter_partitions(n):
            word = bytes(pi.assignment_word())
            for j in range(1, pi.k + 1):
                assert tuple(_remainder_word(word, j)) == delete_block(pi, j).assignment_word()


def test_word_table_is_the_enumeration():
    for n in range(9):
        words, keys = _word_table(n)
        assert words == tuple(_words(n))
        assert len(keys) == len(words)
        for word, key in zip(words, keys):
            assert key == partition_from_assignment(word).block_sizes().parts
        # built once: a second call hands back the same objects
        assert _word_table(n)[0] is words and _word_table(n)[1] is keys


def test_word_table_keeps_no_n_past_exact_law(monkeypatch):
    exact_law(ExtParams.two_param(0, 1), 5)
    start = time.perf_counter()
    first = list(itertools.islice(iter_partitions(11), 3))
    # streamed: the first of Bell(11) = 678570 partitions without the rest
    assert time.perf_counter() - start < 0.5
    assert [pi.k for pi in first] == [1, 2, 2]
    assert 5 in oracle._WORD_TABLES and max(oracle._WORD_TABLES) <= oracle.MAX_EXACT_N
    # past the bound a table is built on each call and never kept
    monkeypatch.setattr(oracle, "_WORD_TABLES", {})
    monkeypatch.setattr(oracle, "MAX_EXACT_N", 3)
    first, again = _word_table(4), _word_table(4)
    assert first == again and first[0] is not again[0]
    assert list(oracle._WORD_TABLES) == []
    assert _word_table(3)[0] is _word_table(3)[0] and list(oracle._WORD_TABLES) == [3]


@pytest.mark.parametrize("params", GRID, ids=str)
def test_exact_law_is_a_probability(params):
    law = exact_law(params, 5)
    assert law.total() == 1
    assert all(p >= 0 for p in law.probs.values())


def test_exact_law_and_perturbation():
    law = exact_law(ExtParams.two_param(0, 1), 3)
    one_block = canonicalize([[1, 2, 3]])
    assert law.probs[one_block] == Fraction(1, 3)
    pert = law.perturbed(one_block, Fraction(1, 1000))
    assert pert.total() == 1
    assert pert.probs[one_block] > law.probs[one_block]
    with pytest.raises(ParameterError):
        law.perturbed(canonicalize([[1, 2]]), Fraction(1, 1000))
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


# the one-block rows move mass to [n] itself; {1, 3} {2, 4, ...} shares
# its sizes with the unperturbed {1, 2} {3, 4, ...}, so a check that read
# p once per size vector would miss it
@pytest.mark.parametrize(("check", "params", "n", "blocks", "dev"), [
    (deletion_law_check, _CRP, 3, [[1, 2, 3]], Fraction(1, 3003)),
    (deletion_law_check, _CRP, 5, [[1, 3], [2, 4, 5]], Fraction(2, 603)),
    (deletion_law_check, _CRP, 6, [[1, 3], [2, 4, 5, 6]], Fraction(9, 2012)),
    (tau_regen_check, _HALF, 4, [[1, 2, 3, 4]], Fraction(6, 7007)),
    (tau_regen_check, _HALF, 5, [[1, 3], [2, 4, 5]], Fraction(14, 4021)),
    (tau_regen_check, _HALF, 6, [[1, 3], [2, 4, 5, 6]], Fraction(154, 30231)),
])
def test_checks_see_perturbation(check, params, n, blocks, dev):
    law = exact_law(params, n).perturbed(canonicalize(blocks), Fraction(1, 1000))
    assert check(params, n, law) == dev


# recorded from the SetPartition-keyed law at two more grid points, n = 7
@pytest.mark.parametrize(("params", "blocks", "deletion_dev", "tau_dev"), [
    (_VERIFY_GRID[3], [[1, 3], [2, 4, 5, 6, 7]], Fraction(289289, 53462187), Fraction(51, 11335)),
    (_VERIFY_GRID[3], [[i] for i in range(1, 8)], Fraction(917609, 240102711), Fraction(365, 149974)),
    (_VERIFY_GRID[4], [[1, 3], [2, 4, 5, 6, 7]], Fraction(45927, 6824114), Fraction(486, 49729)),
    (_VERIFY_GRID[4], [[i] for i in range(1, 8)], Fraction(6698781, 3435550349),
     Fraction(211, 162243)),
])
def test_checks_on_perturbed_grid_laws(params, blocks, deletion_dev, tau_dev):
    law = exact_law(params, 7).perturbed(canonicalize(blocks), Fraction(1, 1000))
    assert deletion_law_check(params, 7, law) == deletion_dev
    assert tau_regen_check(params, 7, law) == tau_dev


def test_oracle_builds_no_partition_until_probs_is_read(monkeypatch, capsys):
    def refuse(word):
        raise AssertionError(f"built the SetPartition of {word!r}")

    monkeypatch.setattr(oracle, "partition_from_assignment", refuse)
    law = exact_law(_HALF, 8)
    assert law.total() == 1
    assert deletion_law_check(_HALF, 8) == 0
    assert tau_regen_check(_HALF, 8) == 0
    pert = law.perturbed(canonicalize([[1, 3], [2, 4, 5, 6, 7, 8]]), Fraction(1, 1000))
    assert pert.total() == 1 and deletion_law_check(_HALF, 8, pert) > 0
    assert cli.main(["verify", "--suite", "deletion"]) == 0
    assert capsys.readouterr().out.endswith('{"checks":12,"failures":0}\n')
    monkeypatch.undo()
    # the mapping, built on first read, is keyed and ordered as enumeration is
    want = {pi: eppf(_HALF, pi.block_sizes()) for pi in iter_partitions(8)}
    assert list(law.probs.items()) == list(want.items())


@pytest.mark.parametrize("check", [deletion_law_check, tau_regen_check])
def test_checks_reject_a_law_on_another_n(check):
    for law_n in (4, 6):
        with pytest.raises(ParameterError, match=r"law is on \[%d\]" % law_n):
            check(_HALF, 5, exact_law(_HALF, law_n))


@pytest.mark.parametrize("check", [deletion_law_check, tau_regen_check])
@pytest.mark.parametrize("perturb", [False, True])
@pytest.mark.parametrize("params", [_HALF, ExtParams.two_param(0.3, 0.5)], ids=str)
def test_checks_on_a_copied_word_list(check, perturb, params, monkeypatch):
    # a law whose words are not the table's maps its block sizes itself
    # and must give the table-backed law's value, and type, exactly
    n = 6
    law = exact_law(params, n)
    if perturb:
        law = law.perturbed(canonicalize([[1, 3], [2, 4, 5, 6]]), Fraction(1, 1000))
    assert law.words is _word_table(n)[0]
    copy = ExactLaw(n, list(law.words), law.values)
    want = check(params, n, law)  # builds every remainder table it needs
    calls = []
    real = oracle._block_sizes
    monkeypatch.setattr(oracle, "_block_sizes", lambda word: calls.append(word) or real(word))
    assert check(params, n, law) == want and calls == []
    got = check(params, n, copy)
    assert got == want and type(got) is type(want)
    assert calls == copy.words
    if params is _HALF:
        assert (want > 0) is perturb


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
    # the float lines carry the word walk's math.fsum masses
    "perturbed": "56ad4cdeabcd8d1516aa32b13ffb411c73a9f4134bc754673708b3d929bcd2f5",
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
                for blocks in ([list(range(1, n + 1))], [[1, 3], [2, *range(4, n + 1)]],
                               [[i] for i in range(1, n + 1)]):
                    for amount in (Fraction(1, 1000), Fraction(-1, 1000), 0.001, -0.001):
                        law = exact_law(params, n).perturbed(canonicalize(blocks), amount)
                        yield f"{check.__name__} {params} {n} {blocks} {amount}", check, params, n, law
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


def test_type_table_keeps_no_n_past_the_bound(monkeypatch):
    monkeypatch.setattr(oracle, "_TYPE_TABLES", {})
    monkeypatch.setattr(oracle, "MAX_TYPE_N", 3)
    first, again = _type_table(4), _type_table(4)
    assert first == again and first is not again
    assert list(oracle._TYPE_TABLES) == []
    assert _type_table(3) is _type_table(3) and list(oracle._TYPE_TABLES) == [3]


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
@pytest.mark.parametrize("params", _VERIFY_GRID + _FLOAT_POINTS, ids=str)
def test_type_walk_matches_the_word_walk(check, params):
    # without a law the check sums over integer partitions; the word walk
    # on the family's exact law is the reference: equal values of equal
    # type (or the same error) at exact parameters.  In floats the type
    # walk stays within an ulp of 1 of the true 0, and the word walk, which
    # adds its masses by math.fsum, within 9.8e-17 of it (2.8e-17 at n = 8).
    for n in range(1, 9):
        got = _outcome(check, params, n)
        want = _outcome(lambda: check(params, n, exact_law(params, n)))
        if params.is_exact_mode:
            assert got == want
        else:
            got, want = check(params, n), check(params, n, exact_law(params, n))
            assert 0 <= got <= 2 ** -53
            assert abs(got - want) <= (2e-16 if n <= 7 else 6e-17)


@pytest.mark.parametrize("move", ["two types", "one block"])
@pytest.mark.parametrize("n", [7, 12])
@pytest.mark.parametrize("params", [_HALF, _VERIFY_GRID[3], _VERIFY_GRID[4]], ids=str)
def test_type_walk_sees_mass_moved_between_types(params, n, move, monkeypatch):
    # 1e-4 of mass moves between types of [n], each holding more than that:
    # from (3, 1, ..., 1) to (2, 2, 1, ..., 1), which moves the deleted
    # sizes and the remainders; or from one block to every other type in
    # proportion, which moves only the deleted sizes, as the remainders'
    # conditional laws keep their ratios.  Only p on [n] changes, so the
    # remainder targets stay the family's and both deletion rules must see
    # the move: at n = 7 with the word walk's values on the moved law,
    # exactly; n = 12 lies past the word tables.
    amount = Fraction(1, 10 ** 4)
    counts = dict(_type_table(n))
    source, dest = (3,) + (1,) * (n - 3), (2, 2) + (1,) * (n - 4)
    scale = 1 + amount / (1 - eppf(params, (n,)))

    def p(params, sizes):
        lam = tuple(sorted(sizes, reverse=True))
        value = eppf(params, lam)
        if sum(lam) != n:
            return value
        if move == "one block":
            return value - amount if lam == (n,) else value * scale
        return value + {source: -amount / counts[source], dest: amount / counts[dest]}.get(lam, 0)

    assert deletion_law_check(params, n) == tau_regen_check(params, n) == 0
    monkeypatch.setattr(oracle, "eppf", p)
    assert sum(count * p(params, lam) for lam, count in counts.items()) == 1
    assert min(p(params, lam) for lam in counts) >= 0
    for check in (deletion_law_check, tau_regen_check):
        got = check(params, n)
        assert got > 0
        if n <= oracle.MAX_EXACT_N:
            words, keys = _word_table(n)
            assert got == check(params, n, ExactLaw(n, words, [p(params, key) for key in keys]))


def test_record_independence_residual_zero():
    assert record_independence_residual((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))) == 0
    assert record_independence_residual((Fraction(2, 7), Fraction(5, 7))) == 0


@pytest.mark.parametrize("xi", [Fraction(1, 2), 1, 2, 3, math.inf])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_xi_order_enumeration_residual_zero(k, xi):
    assert xi_order_enumeration_residual(k, xi) == 0


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
