"""Deletion kernel, decrement matrix, and block-removal samplers."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partition_lab.core import (
    ExtParams,
    FrequencyVector,
    ParameterError,
    ResidualPickError,
    UnsupportedKernelError,
    canonicalize,
    exact_div,
)
from partition_lab.deletion import (
    bulk_delete,
    decrement_entry,
    decrement_matrix,
    deletion_kernel,
    f1_consistency,
    tau_delete,
)
from partition_lab.eppf import eppf
from partition_lab.oracle import chi_square
from partition_lab.regen import LevyImageMeasure, decrement_from_phi, laplace_exponent, phi_nm
from partition_lab.samplers import RngHandle

TWO_PARAM_GRID = (
    ExtParams.two_param(0, 1),
    ExtParams.two_param(0, 2),
    ExtParams.two_param(Fraction(1, 2), Fraction(1, 2)),
    ExtParams.two_param(Fraction(1, 3), Fraction(2, 3)),
    ExtParams.two_param(Fraction(2, 3), 0),
)


# ---------------------------------------------------------------------------
# kernel

@pytest.mark.parametrize(
    ("parts", "j", "params", "value"),
    [
        ((2, 1, 1), 1, ExtParams.two_param(0, 1), Fraction(1, 2)),
        ((2, 1, 1), 1, ExtParams.two_param(Fraction(2, 3), 0), Fraction(1, 4)),
        ((3, 1), 2, ExtParams.two_param(Fraction(1, 2), Fraction(1, 2)), Fraction(1, 2)),
    ],
)
def test_kernel_frozen_values(parts, j, params, value):
    assert deletion_kernel(parts, j, params=params) == value


def test_kernel_depends_only_on_tau():
    # (1, 2) and (2, 4) share tau = 1/3
    a = ExtParams.two_param(Fraction(1, 4), Fraction(1, 2))
    b = ExtParams.two_param(Fraction(1, 3), Fraction(2, 3))
    for j in (1, 2, 3):
        assert deletion_kernel((3, 2, 2), j, params=a) == deletion_kernel(
            (3, 2, 2), j, params=b
        )
        assert deletion_kernel((3, 2, 2), j, params=a) == deletion_kernel(
            (3, 2, 2), j, tau=Fraction(1, 3)
        )


def test_kernel_rows_normalize():
    for params in TWO_PARAM_GRID:
        if params.alpha == 0 and params.theta == 0:
            continue
        total = sum(deletion_kernel((3, 1, 2), j, params=params) for j in (1, 2, 3))
        assert total == 1


def test_single_block_values_keep_the_arithmetic_mode():
    exact, floats = ExtParams.two_param(Fraction(1, 2), Fraction(1, 3)), ExtParams.two_param(0.5, 0.25)
    for params, kind in ((exact, (int, Fraction)), (floats, float)):
        for got in (
            deletion_kernel((3,), 1, params=params),
            decrement_entry(params, 1, 1),
            decrement_matrix(params, 3).value(1, 1),
            eppf(params, (1,)),
        ):
            assert got == 1 and isinstance(got, kind) and not isinstance(got, bool)


def test_kernel_argument_validation():
    with pytest.raises(ParameterError):
        deletion_kernel((2, 1), 3, tau=0)
    with pytest.raises(ParameterError):
        deletion_kernel((2, 1), 1)  # neither params nor tau
    with pytest.raises(ParameterError):
        deletion_kernel((2, 1), 1, params=ExtParams.two_param(0, 1), tau=0)
    with pytest.raises(UnsupportedKernelError):
        deletion_kernel((2, 1), 1, params=ExtParams.coupon(3))


# ---------------------------------------------------------------------------
# decrement matrix

@pytest.mark.parametrize(
    ("params", "n", "row"),
    [
        (ExtParams.two_param(0, 1), 2, [Fraction(1, 2), Fraction(1, 2)]),
        (
            ExtParams.two_param(Fraction(1, 2), Fraction(1, 2)),
            3,
            [Fraction(3, 5), Fraction(1, 5), Fraction(1, 5)],
        ),
        (
            ExtParams.two_param(Fraction(2, 3), 0),
            4,
            [Fraction(2, 3), Fraction(1, 9), Fraction(4, 81), Fraction(14, 81)],
        ),
    ],
)
def test_decrement_frozen_rows(params, n, row):
    assert [decrement_entry(params, n, m) for m in range(1, n + 1)] == row


@pytest.mark.parametrize("params", TWO_PARAM_GRID, ids=str)
def test_decrement_rows_sum_to_one_exactly(params):
    dm = decrement_matrix(params, 20)
    assert all(s == 1 for s in dm.row_sums())


def test_decrement_matrix_is_consistent_with_entries():
    params = ExtParams.two_param(Fraction(1, 3), Fraction(2, 3))
    dm = decrement_matrix(params, 8)
    for n in range(1, 9):
        for m in range(1, n + 1):
            assert dm.value(n, m) == decrement_entry(params, n, m)
    with pytest.raises(ParameterError):
        dm.value(9, 1)


def test_decrement_rejects_bounded_ranges():
    with pytest.raises(UnsupportedKernelError):
        decrement_entry(ExtParams.coupon(4), 3, 1)
    with pytest.raises(UnsupportedKernelError):
        decrement_matrix(ExtParams.neg_alpha(-1, 3), 3)


def test_decrement_json_round_trip():
    import json

    from partition_lab.core import dumps
    from partition_lab.deletion import DecrementMatrix

    dm = decrement_matrix(ExtParams.two_param(Fraction(1, 2), Fraction(1, 2)), 5)
    again = DecrementMatrix.from_json(json.loads(dumps(dm.to_json())))
    assert again == dm


def _both_routes(params, n_max):
    measure = LevyImageMeasure.alpha_theta(params.alpha, params.theta)
    return decrement_matrix(params, n_max), decrement_from_phi(measure, n_max)


@pytest.mark.parametrize(
    "params",
    [
        ExtParams.two_param(0.3, 0.5),
        ExtParams.two_param(Fraction(1, 3), Fraction(1, 7)).as_float(),
    ],
    ids=str,
)
def test_float_decrement_rows_stay_finite(params):
    # the closed form's rising factorials overflow from n = 172 in floats
    twin = ExtParams.two_param(
        Fraction(params.alpha).limit_denominator(10), Fraction(params.theta).limit_denominator(10)
    )
    for dm in _both_routes(params, 2000):
        for row in dm.rows:
            assert all(math.isfinite(v) for v in row)
            assert abs(math.fsum(row) - 1) <= 1e-12
        for n in (171, 172, 300, 2000):
            ms = range(1, n + 1) if n <= 300 else (1, 2, 3, 17, 1000, 1998, 1999, 2000)
            for m in ms:
                exact = float(decrement_entry(twin, n, m))
                assert dm.value(n, m) == pytest.approx(exact, rel=1e-12, abs=0)


def test_float_decrement_entry_past_the_float_binomial():
    # C(n, m) and the rising factorials leave the float range from n = 1020
    params = ExtParams.two_param(0.3, 0.5)
    for n in (1020, 1030, 1100):
        assert all(math.isfinite(decrement_entry(params, n, m)) for m in range(1, n + 1))
    twin = ExtParams.two_param(Fraction(3, 10), Fraction(1, 2))
    for n, m in ((1020, 510), (1030, 515), (1100, 550), (2000, 1000), (2000, 2000)):
        exact = decrement_entry(twin, n, m)
        assert abs(Fraction(decrement_entry(params, n, m)) - exact) <= Fraction(1e-11) * exact


_exact_alpha = st.one_of(st.just(0), st.fractions(0, 1, max_denominator=12).filter(lambda a: a < 1))
_exact_theta = st.one_of(st.integers(0, 5), st.fractions(0, 5, max_denominator=12))


@settings(deadline=None)
@given(
    alpha=_exact_alpha,
    theta=_exact_theta,
    n_max=st.integers(1, 20),
    as_float=st.sampled_from([(False, False), (True, True), (True, False), (False, True)]),
)
def test_decrement_routes_match_closed_forms(alpha, theta, n_max, as_float):
    if alpha == 0 and theta == 0:
        theta = 1
    alpha = float(alpha) if as_float[0] else alpha
    theta = float(theta) if as_float[1] else theta
    params = ExtParams.two_param(alpha, theta)
    measure = LevyImageMeasure.alpha_theta(alpha, theta)
    kernel, phi = _both_routes(params, n_max)
    for n in range(1, n_max + 1):
        phin = laplace_exponent(measure, n)
        for m in range(1, n + 1):
            for got, want in (
                (kernel.value(n, m), decrement_entry(params, n, m)),
                (phi.value(n, m), exact_div(phi_nm(measure, n, m), phin)),
            ):
                # exact entries are Fractions and float entries floats, q(1, 1) included
                assert type(got) is type(want)
                if isinstance(want, float):
                    assert got == pytest.approx(want, rel=1e-12, abs=0)
                else:
                    assert got == want


# ---------------------------------------------------------------------------
# kernel-times-EPPF route (second route to the decrement row)

@pytest.mark.parametrize("params", TWO_PARAM_GRID, ids=str)
def test_f1_consistency_zero(params):
    if params.alpha == 0 and params.theta == 0:
        return
    for n, lam1 in ((3, 1), (4, 2), (5, 1), (5, 5)):
        assert f1_consistency(params, n, lam1) == 0


# ---------------------------------------------------------------------------
# samplers

def test_tau_delete_matches_kernel_law():
    pi = canonicalize([[1, 2], [3], [4, 5, 6]])
    params = ExtParams.two_param(Fraction(1, 2), Fraction(1, 2))
    sizes = pi.block_sizes()
    probs = [deletion_kernel(sizes, j, params=params) for j in (1, 2, 3)]
    rng = RngHandle(3)
    counts = np.zeros(3, dtype=np.int64)
    for _ in range(3000):
        j, size, rest = tau_delete(pi, rng, params=params)
        assert size == sizes.parts[j - 1]
        assert rest.n == 6 - size
        counts[j - 1] += 1
    stat, dof, pval = chi_square(counts, probs)
    assert pval > 1e-3


def test_bulk_delete_trivial_and_law():
    fv = FrequencyVector((Fraction(1, 2), Fraction(1, 2)))
    j, rem = bulk_delete(fv, RngHandle(3))
    assert rem.entries == (Fraction(1, 1),) and rem.residual == 0
    # removal frequencies are the entries themselves
    fv = FrequencyVector((0.2, 0.3, 0.5))
    rng = RngHandle(21)
    counts = np.zeros(3, dtype=np.int64)
    for _ in range(4000):
        j, _ = bulk_delete(fv, rng)
        counts[j - 1] += 1
    stat, dof, pval = chi_square(counts, [0.2, 0.3, 0.5])
    assert pval > 1e-3


def test_bulk_delete_residual_pick_raises():
    fv = FrequencyVector((0.4,), residual=0.6)
    rng = RngHandle(0)
    hits = 0
    for _ in range(200):
        try:
            bulk_delete(fv, rng)
        except ResidualPickError:
            hits += 1
    # leftover mass 0.6 should be hit often
    assert 80 <= hits <= 160
