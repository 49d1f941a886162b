"""Scalars, parameters, partitions, frequencies, interval sets."""

import hashlib
import math
import random
from fractions import Fraction

import pytest

from partition_lab import deletion, regen
from partition_lab.core import (
    TWO_PARAM,
    Composition,
    ExtParams,
    FrequencyVector,
    IntervalSet,
    MalformedPartitionError,
    ParameterError,
    ResidualFractions,
    SetPartition,
    break_sticks,
    canonicalize,
    delete_block,
    dumps,
    exact_div,
    parse_scalar,
    partition_from_assignment,
    rising_ratio,
)
from partition_lab.samplers import RngHandle


# ---------------------------------------------------------------------------
# scalars

@pytest.mark.parametrize(
    ("text", "value"),
    [
        ("1/2", Fraction(1, 2)),
        ("-2/3", Fraction(-2, 3)),
        ("3", 3),
        ("-1", -1),
        ("0.5", 0.5),
        ("1e-3", 1e-3),
    ],
)
def test_parse_scalar(text, value):
    got = parse_scalar(text)
    assert got == value
    assert type(got) is type(value)


@pytest.mark.parametrize("text", ["", "1/0", "x", "1/2/3"])
def test_parse_scalar_rejects(text):
    with pytest.raises(ParameterError):
        parse_scalar(text)


def test_exact_div_keeps_rationals():
    assert exact_div(1, 6) == Fraction(1, 6)
    assert isinstance(exact_div(1, 6), Fraction)
    assert exact_div(Fraction(1, 2), 3) == Fraction(1, 6)
    assert exact_div(1.0, 4) == 0.25
    assert isinstance(exact_div(1.0, 4), float)


def test_rising_ratio_plain_product_and_log_fallback():
    # exact: 3 * (1/2)_3 / (2)_2 = 3 * (15/8) / 6
    got = rising_ratio([(Fraction(1, 2), 3)], [(2, 2)], [3])
    assert got == Fraction(15, 16) and isinstance(got, Fraction)
    # in range a float is the plain product: factors, / denominator, * numerator
    assert rising_ratio([(0.5, 3), (0.25, 0)], [(1.5, 2)], [0.3]) == 0.3 / (1.5 * 2.5) * (0.5 * 1.5 * 2.5)
    # 300!/301! overflows in both terms, 1e-200/170! underflows to 0
    assert rising_ratio([(1.0, 300)], [(1.0, 301)]) == pytest.approx(1 / 301, rel=1e-12)
    assert rising_ratio([(1.0, 169)], [(1.0, 170)], [1e-200]) == pytest.approx(1e-200 / 170, rel=1e-12)
    # the sign of a factor survives the fallback
    assert rising_ratio([(1.0, 200)], [(1.0, 199)], [-2.0]) == pytest.approx(-400.0, rel=1e-12)
    # a ratio beyond the float range has no float value
    with pytest.raises(OverflowError):
        rising_ratio([(1.0, 400)], [])


def test_rising_ratio_float_base_of_length_zero_gives_float():
    for got, want in (
        (rising_ratio([(0.5, 0)], [(1.5, 0)]), 1.0),
        (rising_ratio([(Fraction(1, 2), 0)], [(1.5, 0)], [Fraction(1, 4)]), 0.25),
        (rising_ratio([(1, 0)], [(0.5, 0)], [3]), 3.0),
    ):
        assert got == want and type(got) is float
    got = rising_ratio([(Fraction(1, 2), 0)], [(2, 0)], [Fraction(1, 4)])
    assert got == Fraction(1, 4) and type(got) is Fraction


def test_dumps_is_key_sorted_and_compact():
    assert dumps({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


# ---------------------------------------------------------------------------
# parameters

def test_two_param_validation():
    ExtParams.two_param(0, Fraction(1, 2))
    ExtParams.two_param(Fraction(1, 2), Fraction(-1, 4))
    with pytest.raises(ParameterError):
        ExtParams.two_param(1, 1)
    with pytest.raises(ParameterError):
        ExtParams.two_param(Fraction(-1, 2), 1)
    with pytest.raises(ParameterError):
        ExtParams.two_param(Fraction(1, 2), Fraction(-1, 2))


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_constructors_reject_non_finite_floats(bad):
    with pytest.raises(ParameterError):
        ExtParams.two_param(0.25, bad)
    with pytest.raises(ParameterError):
        ExtParams.two_param(0, bad)
    with pytest.raises(ParameterError):
        ExtParams.neg_alpha(-bad, 3)


def test_huge_exact_parameters_stay_valid():
    # past the float range, where math.isfinite would raise OverflowError
    huge = Fraction(10 ** 400, 3)
    assert ExtParams.two_param(Fraction(1, 2), huge).theta == huge
    assert ExtParams.neg_alpha(-huge, 2).theta == 2 * huge


def test_neg_alpha_and_coupon_validation():
    p = ExtParams.neg_alpha(-1, 3)
    assert p.theta == 3 and p.max_blocks == 3
    with pytest.raises(ParameterError):
        ExtParams.neg_alpha(Fraction(1, 2), 3)
    with pytest.raises(ParameterError):
        ExtParams.coupon(0)


def test_xi():
    assert ExtParams.two_param(Fraction(1, 2), Fraction(1, 2)).xi() == 1
    assert ExtParams.two_param(Fraction(1, 3), Fraction(2, 3)).xi() == 2
    assert math.isinf(ExtParams.two_param(0, 1).xi())
    with pytest.raises(ParameterError):
        ExtParams.coupon(3).xi()
    with pytest.raises(ParameterError):
        ExtParams.two_param(0, 0.0)  # theta > -alpha fails at 0, 0 only via float 0


def test_shifted():
    p = ExtParams.two_param(Fraction(1, 2), Fraction(1, 2))
    assert p.shifted() == ExtParams.two_param(Fraction(1, 2), 1)
    assert ExtParams.neg_alpha(-1, 3).shifted() == ExtParams.neg_alpha(-1, 2)
    assert ExtParams.coupon(4).shifted() == ExtParams.coupon(3)
    with pytest.raises(ParameterError):
        ExtParams.coupon(1).shifted()


def test_exact_mode_flag():
    assert ExtParams.two_param(Fraction(1, 2), 1).is_exact_mode
    assert not ExtParams.two_param(0.5, 1).is_exact_mode
    assert ExtParams.coupon(5).is_exact_mode


# ---------------------------------------------------------------------------
# compositions and set partitions

def test_composition_basics():
    c = Composition((2, 1, 3))
    assert c.n == 6 and c.k == 3
    assert c.tail_sums() == (6, 4, 3, 0)  # trailing 0 is the empty tail
    assert Composition.of([2, 1]) == Composition.of(Composition((2, 1)))
    with pytest.raises(ParameterError):
        Composition((2, 0))


def test_canonicalize_orders_by_least_element():
    pi = canonicalize([[4, 2], [5], [3, 1]])
    assert pi.blocks == ((1, 3), (2, 4), (5,))
    assert pi.block_sizes() == Composition((2, 2, 1))
    assert pi.block_of(4) == 2
    assert pi.assignment_word() == (1, 2, 1, 2, 3)


def test_partition_validation():
    with pytest.raises(MalformedPartitionError):
        SetPartition(3, ((1, 2),))  # 3 missing
    with pytest.raises(MalformedPartitionError):
        canonicalize([[1, 2], [2, 3]])
    with pytest.raises(MalformedPartitionError):
        SetPartition(2, ((2,), (1,)))


def test_assignment_round_trip():
    pi = canonicalize([[1, 4], [2], [3, 5, 6]])
    assert partition_from_assignment(pi.assignment_word()) == pi


def test_delete_block_relabels():
    pi = canonicalize([[1, 4], [2, 5], [3]])
    rest = delete_block(pi, 2)
    # survivors 1, 3, 4 are renamed 1, 2, 3
    assert rest == canonicalize([[1, 3], [2]])
    assert delete_block(canonicalize([[1]]), 1).n == 0
    with pytest.raises(MalformedPartitionError):
        delete_block(pi, 4)


# ---------------------------------------------------------------------------
# frequencies

def test_residual_fractions_termination_rules():
    ResidualFractions((Fraction(1, 2), Fraction(1, 3)))
    ResidualFractions((Fraction(1, 2), 1), terminated=True)
    with pytest.raises(ParameterError):
        ResidualFractions((1, Fraction(1, 2)), terminated=True)
    with pytest.raises(ParameterError):
        ResidualFractions((Fraction(1, 2), 1), terminated=False)
    rf = ResidualFractions.from_raw([Fraction(1, 2), 1, Fraction(1, 4)])
    assert rf.terminated and rf.fractions == (Fraction(1, 2), 1)


def test_break_sticks_stopping_rules():
    assert break_sticks([Fraction(1, 2), Fraction(1, 3)]) == ([Fraction(1, 2), Fraction(1, 6)], Fraction(1, 3))
    assert break_sticks([Fraction(1, 2), 1, Fraction(1, 3)]) == ([Fraction(1, 2), Fraction(1, 2)], 0)
    assert break_sticks(iter([0.5, 0.5, 0.5]), eps=0.25) == ([0.5, 0.25], 0.25)
    # without eps a leftover that underflows to 0.0 does not end the loop
    lengths, leftover = break_sticks([1 - 2.0 ** -53] * 40 + [0.5])
    assert len(lengths) == 41 and leftover == 0.0


def test_frequency_vector_mass_check():
    with pytest.raises(ParameterError):
        FrequencyVector((Fraction(1, 2), Fraction(1, 2)), residual=Fraction(1, 4))


# ---------------------------------------------------------------------------
# interval sets

def test_interval_set_layout_and_locate():
    iv = IntervalSet.from_lengths([Fraction(1, 4), Fraction(1, 2)], residual=Fraction(1, 4))
    assert iv.intervals == ((0, Fraction(1, 4)), (Fraction(1, 4), Fraction(3, 4)))
    assert iv.total_length == Fraction(3, 4)
    assert iv.locate(Fraction(1, 8)) == 0
    assert iv.locate(Fraction(1, 2)) == 1
    assert iv.locate(Fraction(7, 8)) is None
    assert iv.locate(Fraction(1, 4)) is None  # endpoints belong to no open interval


def _random_interval_sets(rng, exact):
    """Sets with gaps from sorted cut points, float or Fraction endpoints."""
    yield IntervalSet((), residual=1)
    for size in (1, 2, 5, 18, 60):
        if exact:
            cuts = sorted(set(Fraction(rng.randrange(1, 10_000), 10_000) for _ in range(2 * size)))
        else:
            cuts = sorted(set(rng.random() for _ in range(2 * size)))
        cuts = [0] + cuts if rng.random() < 0.5 else cuts
        cuts = cuts + [1] if rng.random() < 0.5 else cuts
        # adjacent intervals too: split some of them at an interior point
        split = []
        for l, r in zip(cuts[::2], cuts[1::2]):
            if rng.random() < 0.3:
                mid = l + (r - l) / 2
                split += [(l, mid), (mid, r)]
            else:
                split.append((l, r))
        total = sum((r - l for l, r in split), 0)
        yield IntervalSet(tuple(split), residual=1 - total)


@pytest.mark.parametrize("exact", [False, True], ids=["float", "fraction"])
def test_locate_matches_linear_scan(exact):
    rng = random.Random(20090921)
    for iv in _random_interval_sets(rng, exact):
        points = [p for interval in iv.intervals for p in interval]
        queries = points + [0, 1, Fraction(1, 2), 0.5] + [rng.random() for _ in range(200)]
        for u in queries:
            want = next((i for i, (l, r) in enumerate(iv.intervals) if l < u < r), None)
            assert iv.locate(u) == want, (iv, u)


def test_interval_set_validation():
    with pytest.raises(ParameterError):
        IntervalSet(((Fraction(1, 2), Fraction(1, 4)),), residual=Fraction(3, 4))
    with pytest.raises(ParameterError):
        IntervalSet(
            ((0, Fraction(1, 2)), (Fraction(1, 4), Fraction(3, 4))), residual=Fraction(1, 4)
        )
    with pytest.raises(ParameterError):
        IntervalSet(((0, Fraction(1, 2)),), residual=0)  # mass short of 1


def test_from_lengths_skips_float_underflow():
    # a length too small to move the cursor must not create an empty interval
    iv = IntervalSet.from_lengths([0.5, 1e-18, 0.25], residual=0.25)
    assert len(iv.intervals) == 2
    assert iv.intervals[1] == (0.5, 0.75)


# sha256 of dumps(x.to_json()) for one instance of every serialized record
# type, recorded from the hand-written per-type to_json methods; the
# instances cover Fractions, floats, ints, inf, bools, nested tuples and
# the fields the coupon and alpha_theta variants leave out
def _json_golden_instances():
    return {
        "ExtParams two_param": ExtParams.two_param(Fraction(1, 3), Fraction(2, 7)),
        # the raw constructor does not validate; it pins the "inf" encoding
        "ExtParams float inf": ExtParams(TWO_PARAM, 0.25, math.inf),
        "ExtParams neg_alpha": ExtParams.neg_alpha(Fraction(-1, 2), 3),
        "ExtParams coupon": ExtParams.coupon(4),
        "Composition": Composition((3, 1, 2)),
        "SetPartition": canonicalize([[2, 5], [1, 3], [4]]),
        "ResidualFractions": ResidualFractions((Fraction(1, 2), 0.25, 1), terminated=True),
        "FrequencyVector": FrequencyVector(
            (Fraction(1, 2), Fraction(1, 4)), dust=Fraction(1, 8), residual=Fraction(1, 8)
        ),
        "IntervalSet": IntervalSet(
            ((0, Fraction(1, 3)), (Fraction(1, 2), Fraction(3, 4))), residual=Fraction(5, 12)
        ),
        "DecrementMatrix": deletion.decrement_matrix(
            ExtParams.two_param(Fraction(1, 2), Fraction(1, 3)), 4
        ),
        "LevyImageMeasure alpha_theta": regen.LevyImageMeasure.alpha_theta(Fraction(1, 2), 0.5),
        "LevyImageMeasure finite_atoms": regen.LevyImageMeasure.finite_atoms(
            [(Fraction(1, 2), 1), (1, 0.25)]
        ),
        "SubordinatorPath": regen.compound_poisson_set(1.0, 1e-2, RngHandle(5))[0],
    }


JSON_GOLDEN = {
    "ExtParams two_param": "aa337b1c969ca3f3c41b772bf5d157309c64698aa55afc8889e4e46210d58c2f",
    "ExtParams float inf": "f328c5de1955da904361b30f9f0483dcc04c2e8305bd3e2d8fd332fccb9621b8",
    "ExtParams neg_alpha": "d4016636404c6bd7e64b38a7371be12b6941e536aaa536c3fcfc61064947e8e5",
    "ExtParams coupon": "09f6ccf5d9698a8c098834874229b0fbb897fe816c815ef615be19640c7d624a",
    "Composition": "46f4c8d3d0ba232890e4cf5bf0733477ac37e82e0106ba25b302207e91f1829d",
    "SetPartition": "a6e67ef953e27658871914c8e18c1e63daeca271a776cd053d702fad9edcc2d7",
    "ResidualFractions": "6be763854a37f4ffe53f23774e79807094af706566411efba09325518f5a6f51",
    "FrequencyVector": "629c23c4f0aa4db6522ac74cde43c90dd63099a781027a74b08d56331383755f",
    "IntervalSet": "fd63f56a386f93f7497d0a6b28d38ff5656a9b0f00c3dff5340207a788db784a",
    "DecrementMatrix": "81ffe00396c45f062f6b2d9e3562de878b0fe0f4e34c775babc32f8d5868109e",
    "LevyImageMeasure alpha_theta": "8eb727d80f76f3eb9feac94317bdb35f20b56444918ec387a6db52a69af623db",
    "LevyImageMeasure finite_atoms": "9bafbde6baa055511efb6e38a39c168c48db39c14667e981b02af134fef0420e",
    "SubordinatorPath": "cdb10e2d90cb0fc7e7fd4be725058a04f50275a70ed71d778d9920df4f56c046",
}


def test_to_json_golden():
    instances = _json_golden_instances()
    assert sorted(instances) == sorted(JSON_GOLDEN)
    for name, value in instances.items():
        text = dumps(value.to_json())
        assert hashlib.sha256(text.encode()).hexdigest() == JSON_GOLDEN[name], (name, text)
