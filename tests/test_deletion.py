"""Deletion kernel, decrement matrix, and block-removal samplers."""

import hashlib
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partition_lab import cli
from partition_lab.core import (
    _ROW_BLOCK,
    ExtParams,
    FrequencyVector,
    ParameterError,
    ResidualPickError,
    UnsupportedKernelError,
    canonicalize,
    delete_block,
    dumps,
    exact_div,
)
from partition_lab.deletion import (
    _compositions,
    bulk_delete,
    decrement_entry,
    decrement_matrix,
    deletion_kernel,
)
from partition_lab.eppf import eppf
from partition_lab.oracle import chi_square
from partition_lab.regen import LevyImageMeasure, decrement_from_phi, laplace_exponent, phi_nm
from partition_lab.samplers import RngHandle, tau_biased_pick, tau_pick_law

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
        assert deletion_kernel((3, 2, 2), j, params=a) == tau_pick_law((3, 2, 2), Fraction(1, 3))[j - 1]


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
        deletion_kernel((2, 1), 3, params=ExtParams.two_param(0, 1))
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


def _both_routes(params, n_max):
    measure = LevyImageMeasure.alpha_theta(params.alpha, params.theta)
    return decrement_matrix(params, n_max), decrement_from_phi(measure, n_max)


# sha256 of dumps(M.to_json()) at n_max = 100 for (kernel route, phi route),
# recorded from the Fraction-per-step recurrences: the kernel points of the
# verify grid, three more exact points and four float points; theta = 0.7 is
# not dyadic, so a regrouped float sum such as theta + (n - m - 1) shows
DECREMENT_GOLDEN = {
    (0, 1): ("be6a33770230bd589dc2417c713f0dc9ab30207173f66ee1aa333746112b6bff",) * 2,
    (0, 2): ("a580ad54b1cb2da711094865970a4f062811c3a49c001665e77b2e436c50e7a0",) * 2,
    (Fraction(1, 2), Fraction(1, 2)): (
        "d85ebf9c71f720917df8698432db7c2b3310c7bb8b03d691eb731ae633365ab7",) * 2,
    (Fraction(1, 3), Fraction(2, 3)): (
        "dce7738bcec1d32f91823fe44c0483f2ff4fd7497f7f8b6b9611c3405f961b67",) * 2,
    (Fraction(2, 3), 0): ("eb80534119df94da9b74ea584655720cbdec1fac876f787081b5acf7d7e009ad",) * 2,
    (Fraction(1, 3), Fraction(1, 7)): (
        "f7e65b52aadd400382352d517816519a62618908b03981e88be8ead130410692",) * 2,
    (Fraction(7, 11), Fraction(5, 13)): (
        "83a6ae17e6012aa2a130eeeb9931fbf64930c8eba42f8107cf2f94fd37a980f7",) * 2,
    (Fraction(1, 2), 3): ("6fdb0ca3fc0e93fa3112d79d8a16669662ff374c1b9730f3ddb11595f6dd0672",) * 2,
    (0.3, 0.5): (
        "06b6909c859696c6d8e374024dcc988710a7836dae932214ab43e87caff706b7",
        "6269ff1754d4e37876128974cfeefd47463c60134afbed929bb37db1e8e3edd1",
    ),
    (0.3, 0.7): (
        "bac16d39cb2a8cc699ffcd106c95e2e0cc9f7fa8da4c78eb341a8edc244ef790",
        "8c21df04db7d8e1c084a4e0e6e3b51433d691257e4ee475c4edf843839a01feb",
    ),
    # float edges of the parameter range: theta = 0 and alpha = 0
    (0.5, 0.0): ("9eeede8e5e1891175f4b322190f7eee099f8b31ecd9df60deff54bab4e0ebc09",) * 2,
    (0.0, 2.5): (
        "1091b2e6280661562730c54b536dbc5f47a1f35c566771695a602dbc7d6d968e",
        "cfb8dde2596fb669032356786538bda08a1abf38197ad955870507f77088cbc9",
    ),
}


def test_decrement_golden_covers_the_verify_grid():
    points = {(p.alpha, p.theta) for p in cli._kernel_points(cli._VERIFY_GRID)}
    assert points <= set(DECREMENT_GOLDEN)


@pytest.mark.parametrize("point", list(DECREMENT_GOLDEN), ids=str)
def test_decrement_routes_golden(point):
    alpha, theta = point
    kernel, phi = _both_routes(ExtParams.two_param(alpha, theta), 100)
    got = tuple(hashlib.sha256(dumps(m.to_json()).encode()).hexdigest() for m in (kernel, phi))
    assert got == DECREMENT_GOLDEN[point]


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


def _scalar_step(q, top, bottom):
    return q * (top / bottom)


# The references for the array pass: both float recurrences one entry at a
# time, with the scale L = 1 of core._integer_scale, in their own order of
# float operations.
def _scalar_kernel_rows(A, T, n_max, L=1, step=_scalar_step):
    last = step(1, 1, 1)
    rows = [(last,)]
    for n in range(2, n_max + 1):
        q = step(1, (n - 1) * A + T, T + n * L - L)
        row = [q]
        for m in range(1, n - 1):
            q = step(
                q,
                (n - m) * (m * L - A) * ((n - m - 1) * A + (m + 1) * T),
                (m + 1) * ((n - m) * A + m * T) * (T + n * L - m * L - L),
            )
            row.append(q)
        last = step(last, n * L - L - A, T + n * L - L)
        row.append(last)
        rows.append(tuple(row))
    return tuple(rows)


def _scalar_phi_rows(A, T, n_max, L=1, step=_scalar_step):
    rows = [[None] * n for n in range(1, n_max + 1)]
    for j in range(n_max):
        q = step(1, T + j * A, j * L + T) if j else step(1, 1, 1)
        rows[j][0] = q
        for n in range(j + 1, n_max):
            m = n - j
            if j == 0:
                q = step(q, n * L - A, T + n * L)
            else:
                q = step(
                    q,
                    n * (m * L - A) * ((m + 1) * T + j * A),
                    (m + 1) * (m * T + j * A) * (T + n * L),
                )
            rows[n][m] = q
    return tuple(tuple(r) for r in rows)


@pytest.mark.parametrize(
    ("alpha", "theta", "n_max"),
    [
        (0.0, 1.5, 300),
        (0.4, 0.0, 300),
        (0.999, 0.7, 300),
        (0.3, 1e-12, 300),
        (0.3, 1e300, 300),  # products overflow to inf; the rows go to 0 quietly
        (0.3, 0.7, 300),
        # mixed: the phi route keeps the Fraction, ExtParams makes both floats
        (Fraction(1, 3), 0.5, 120),
        (0.3, Fraction(1, 2), 120),
        # mixed with an integer theta: (m + 1) theta is past int64
        (0.3, 10**18, 30),
        (0.3, 10**19, 30),
        (0.3, 0.5, 1),
        (0.3, 0.5, 2),
        # the first rows with one and two inner steps
        (0.3, 0.5, 3),
        (0.3, 0.5, 4),
        # one row past the first block: lanes go on from the block before
        (0.3, 0.5, _ROW_BLOCK + 1),
    ],
    ids=str,
)
def test_float_routes_are_the_scalar_loop_bit_for_bit(alpha, theta, n_max):
    params = ExtParams.two_param(alpha, theta)
    measure = LevyImageMeasure.alpha_theta(alpha, theta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kernel, phi = decrement_matrix(params, n_max), decrement_from_phi(measure, n_max)
    for matrix, want in (
        (kernel, _scalar_kernel_rows(params.alpha, params.theta, n_max)),
        (phi, _scalar_phi_rows(measure.alpha, measure.theta, n_max)),
    ):
        assert matrix.rows == want
        assert all(type(v) is float for row in matrix.rows for v in row)


def ulps(x: float, exact: Fraction) -> float:
    """|x - exact| in units in the last place of the float nearest exact."""
    return float(abs(Fraction(x) - exact) / Fraction(math.ulp(float(exact))))


# The exact route at Fraction(alpha), Fraction(theta), the floats' own
# values, is the true value of every float entry.  Each bound is twice the
# worst error the routes had when this gate was added: at (1/3, 1/7)
# 162.1 ulp at q(82, 81) on the kernel route and 41.4 ulp at q(64, 63) on
# the phi route; at (0.3, 0.7) 101.8 ulp at q(64, 63) and 37.9 ulp at q(80, 42).
@pytest.mark.parametrize(
    ("alpha", "theta", "kernel_bound", "phi_bound"),
    [(1 / 3, 1 / 7, 2 * 162.1, 2 * 41.4), (0.3, 0.7, 2 * 101.8, 2 * 37.9)],
    ids=str,
)
def test_float_routes_against_their_exact_twin(alpha, theta, kernel_bound, phi_bound):
    # exact, both routes give the closed form (test_decrement_routes_match_closed_forms),
    # so one twin serves both
    twin = decrement_matrix(ExtParams.two_param(Fraction(alpha), Fraction(theta)), 100)
    for matrix, bound in (
        (decrement_matrix(ExtParams.two_param(alpha, theta), 100), kernel_bound),
        (decrement_from_phi(LevyImageMeasure.alpha_theta(alpha, theta), 100), phi_bound),
    ):
        errors = [ulps(x, q) for row, exact in zip(matrix.rows, twin.rows) for x, q in zip(row, exact)]
        assert max(errors) <= bound


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
# denominators up to 10^4, so that lcm(den alpha, den theta) reaches about 10^8
_big_den = st.integers(1, 10**4)
_big_alpha = _big_den.flatmap(lambda q: st.integers(0, q - 1).map(lambda p: Fraction(p, q)))
_big_theta = st.one_of(
    st.integers(0, 5), _big_den.flatmap(lambda q: st.integers(0, 5 * q).map(lambda p: Fraction(p, q)))
)


def _assert_routes_match_closed_forms(alpha, theta, n_max):
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
    _assert_routes_match_closed_forms(alpha, theta, n_max)


@settings(deadline=None)
@given(alpha=_big_alpha, theta=_big_theta, n_max=st.integers(1, 12))
def test_decrement_routes_match_closed_forms_large_denominators(alpha, theta, n_max):
    if alpha == 0 and theta == 0:
        theta = 1
    _assert_routes_match_closed_forms(alpha, theta, n_max)


# ---------------------------------------------------------------------------
# kernel-times-EPPF route (second route to the decrement row)

@pytest.mark.parametrize("params", TWO_PARAM_GRID, ids=str)
def test_first_block_deletion_matches_decrement_entry(params):
    # C(n, m) p(m, rho) d(m, rho; 1) = q(n, m) p(rho) for every composition rho of n - m
    if params.alpha == 0 and params.theta == 0:
        return
    for n, m in ((3, 1), (4, 2), (5, 1), (5, 5)):
        q = decrement_entry(params, n, m)
        for rest in _compositions(n - m):
            lam = (m,) + rest
            mass = math.comb(n, m) * eppf(params, lam) * deletion_kernel(lam, 1, params=params)
            assert mass == q * (eppf(params, rest) if rest else 1)


def test_tau_biased_pick_then_delete_block_matches_kernel_law():
    pi = canonicalize([[1, 2], [3], [4, 5, 6]])
    params = ExtParams.two_param(Fraction(1, 2), Fraction(1, 2))
    sizes = pi.block_sizes()
    probs = [deletion_kernel(sizes, j, params=params) for j in (1, 2, 3)]
    rng = RngHandle(3)
    counts = np.zeros(3, dtype=np.int64)
    for _ in range(3000):
        j = tau_biased_pick(sizes.parts, params.tau(), rng)
        rest = delete_block(pi, j)
        assert rest.n == 6 - sizes.parts[j - 1]
        counts[j - 1] += 1
    stat, dof, pval = chi_square(counts, probs)
    assert pval > 1e-3


# ---------------------------------------------------------------------------
# samplers

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
