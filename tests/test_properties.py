"""Property tests: partition invariants, the float stick laws and rising
factorials against their plain product.

Hypothesis runs with the derandomized profile of conftest.py, so each run
draws the same examples.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from partition_lab.core import (
    ExtParams,
    ParameterError,
    SetPartition,
    canonicalize,
    delete_block,
    parse_scalar,
    partition_from_assignment,
    rising_factorial,
    rising_ratio,
)
from partition_lab.eppf import BetaParams, stick_b_shape, stick_float_laws, stick_fraction_law


def _maybe_float(draw, values):
    """The values as they are (exact) or all turned to floats."""
    return [float(v) for v in values] if draw(st.booleans()) else list(values)


@st.composite
def set_partitions(draw):
    labels = draw(st.lists(st.integers(0, 5), max_size=12))
    blocks: dict[int, list[int]] = {}
    for e, lab in enumerate(labels, start=1):
        blocks.setdefault(lab, []).append(e)
    return canonicalize(blocks.values(), n=len(labels))


@given(set_partitions(), st.randoms(use_true_random=False))
def test_canonicalize_is_idempotent(pi, rnd):
    shuffled = [rnd.sample(b, len(b)) for b in pi.blocks]
    rnd.shuffle(shuffled)
    once = canonicalize(shuffled, n=pi.n)
    assert once == pi
    assert canonicalize(once.blocks, n=once.n) == once


@given(set_partitions(), st.data())
def test_delete_block_drops_one_block_and_its_elements(pi, data):
    if pi.k == 0:
        return
    j = data.draw(st.integers(1, pi.k))
    rest = delete_block(pi, j)
    assert isinstance(rest, SetPartition)
    assert rest.n == pi.n - len(pi.blocks[j - 1])
    assert rest.k == pi.k - 1
    # the relabelling is increasing, so the other blocks keep their order
    sizes = pi.block_sizes().parts
    assert rest.block_sizes().parts == sizes[:j - 1] + sizes[j:]


@st.composite
def restricted_growth_words(draw):
    """Words whose labels first appear in the order 1, 2, 3, ..."""
    word: list[int] = []
    for c in draw(st.lists(st.integers(1, 6), max_size=12)):
        word.append(min(c, max(word, default=0) + 1))
    return word


def _blocks_of(word):
    """The blocks of a word, in no particular order."""
    return [[i for i, c in enumerate(word, start=1) if c == lab] for lab in set(word)]


@given(restricted_growth_words(), st.data())
def test_partition_from_assignment_and_delete_block_are_canonical(word, data):
    pi = partition_from_assignment(word)
    assert pi == canonicalize(_blocks_of(word), n=len(word))
    # any relabelling of the word names the same partition
    perm = data.draw(st.permutations(range(1, 13)))
    assert partition_from_assignment([perm[c - 1] for c in word]) == pi
    if pi.k == 0:
        return
    j = data.draw(st.integers(1, pi.k))
    removed = pi.blocks[j - 1]
    relabelled = [[e - sum(r < e for r in removed) for e in b]
                  for i, b in enumerate(pi.blocks, start=1) if i != j]
    assert delete_block(pi, j) == canonicalize(relabelled[::-1], n=pi.n - len(removed))


@given(st.one_of(
    st.integers(-10**6, 10**6),
    st.fractions(max_denominator=1000),
    st.floats(allow_nan=False),
))
def test_parse_scalar_round_trips_text(x):
    # str(Fraction(3)) is "3", which parses as an int, so spell it "3/1"
    text = f"{x.numerator}/{x.denominator}" if isinstance(x, Fraction) else str(x)
    got = parse_scalar(text)
    assert got == x and type(got) is type(x)


@st.composite
def gem_params(draw):
    """Two-param points with denominators up to 10**6, exact or float, and neg_alpha points."""
    kind = draw(st.sampled_from(["exact", "int", "float", "neg_alpha"]))
    if kind == "int":
        return ExtParams.two_param(0, draw(st.integers(1, 10**6)))
    if kind == "float":
        alpha = draw(st.floats(0, 1, exclude_max=True))
        return ExtParams.two_param(alpha, draw(st.floats(-alpha, 1e6).filter(lambda t: t > -alpha)))
    if kind == "neg_alpha":
        alpha = -draw(st.fractions(0, 50, max_denominator=10**6).filter(lambda a: a > 0))
        return ExtParams.neg_alpha(*_maybe_float(draw, [alpha]), draw(st.integers(1, 10**7)))
    alpha = draw(st.fractions(0, 1, max_denominator=10**6).filter(lambda a: a < 1))
    theta = draw(st.fractions(0, 10**6, max_denominator=10**6).filter(lambda t: t > 0)) - alpha
    return ExtParams.two_param(alpha, theta)


def _float_law(law):
    if isinstance(law, BetaParams):
        return (float(law.a), float(law.b))
    return float(law)


@given(gem_params(), st.integers(1, 10**7))
def test_stick_b_shape_is_the_rounded_exact_shape(params, k):
    if params.m is not None:
        k = min(k, params.m - 1)
        if k == 0:
            return
    assert stick_b_shape(params)(k) == float(stick_fraction_law(params, k).b)


@given(st.one_of(gem_params(), st.builds(ExtParams.coupon, st.integers(1, 60))))
def test_stick_float_laws_equal_float_stick_fraction_laws(params):
    head = list(itertools.islice(stick_float_laws(params), 50))
    sticks = 50 if params.m is None else min(params.m, 50)
    assert head == [_float_law(stick_fraction_law(params, k)) for k in range(1, sticks + 1)]
    # a bounded range ends with W_m = 1
    if params.m is not None and params.m <= 50:
        assert len(head) == params.m and head[-1] == 1.0


# rising factorials: the plain product, one factor at a time, is the reference

def _rising_loop(x, n):
    out = 1
    for i in range(n):
        out = out * (x + i)
    return out


def _ratio_loop(num, den, factors):
    """factors, / denominator, * numerator terms; (x)_0 = x ** 0 is 1 in the mode of x."""
    out = 1
    for f in factors:
        out = out * f
    d = 1
    for (y, m) in den:
        d = d * (_rising_loop(y, m) if m else y ** 0)
    out = Fraction(out, d) if isinstance(out, int) and isinstance(d, int) else out / d
    for (x, n) in num:
        out = out * (_rising_loop(x, n) if n else x ** 0)
    return out


def _same(got, want):
    return type(got) is type(want) and repr(got) == repr(want)


_exact = st.one_of(st.integers(-6, 6), st.fractions(-6, 6, max_denominator=7))
_positive = st.one_of(st.integers(1, 6), st.fractions(Fraction(1, 7), 6, max_denominator=7),
                      st.floats(0.1, 6))


def _terms(base):
    return st.lists(st.tuples(base, st.integers(0, 5)), max_size=3)


@given(st.one_of(_exact, st.floats(-6, 6)), st.integers(0, 8))
def test_rising_factorial_is_the_plain_product(x, n):
    assert _same(rising_factorial(x, n), _rising_loop(x, n))


@given(_terms(_exact), _terms(_exact), st.lists(_exact, max_size=3))
def test_exact_rising_ratio_is_the_plain_product(num, den, factors):
    try:
        want = _ratio_loop(num, den, factors)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            rising_ratio(num, den, factors)
        return
    assert _same(rising_ratio(num, den, factors), want)


@given(_terms(_positive), _terms(_positive), st.lists(_positive, max_size=3))
def test_float_and_mixed_rising_ratio_keep_their_bits(num, den, factors):
    assume(any(isinstance(v, float) for v in (*factors, *(b for b, _ in num + den))))
    assert _same(rising_ratio(num, den, factors), _ratio_loop(num, den, factors))


def test_rising_ratio_errors():
    with pytest.raises(ZeroDivisionError):
        rising_ratio([(Fraction(1, 2), 2)], [(0, 1)])
    with pytest.raises(ZeroDivisionError):
        rising_ratio([], [(Fraction(-2), 3)], [Fraction(1, 3)])
    for bad in (-1, Fraction(1, 2), 1.5):
        with pytest.raises(ParameterError):
            rising_factorial(Fraction(1, 2), bad)
        with pytest.raises(ParameterError):
            rising_ratio([(Fraction(1, 2), bad)], [(2, 1)])
        with pytest.raises(ParameterError):
            rising_ratio([(1, 1)], [(Fraction(1, 3), bad)])
