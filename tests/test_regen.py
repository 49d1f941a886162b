"""Subordinator route to the decrement matrix and regenerative set samplers."""

import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from partition_lab import cli, core, regen
from partition_lab.core import (
    ConvergenceError,
    ExtParams,
    FrequencyVector,
    IntervalSet,
    ParameterError,
    dumps,
)
from partition_lab.deletion import decrement_entry, decrement_matrix
from partition_lab.oracle import chi_square, ks_two_sample
from partition_lab.regen import (
    LevyImageMeasure,
    ScaledBeta,
    SubordinatorPath,
    _alpha_zero_lengths,
    compound_poisson_set,
    crossbreed_set,
    decrement_from_phi,
    laplace_exponent,
    leftmost_delete,
    leftmost_deletion_counts,
    ordered_arrangement,
    phi_nm,
    stick_breaking_set,
)
from partition_lab.samplers import RngHandle, gem_sample


# ---------------------------------------------------------------------------
# measures and exact transforms

def test_measure_validation():
    with pytest.raises(ParameterError):
        LevyImageMeasure.alpha_theta(1, 1)
    with pytest.raises(ParameterError):
        LevyImageMeasure.alpha_theta(Fraction(1, 2), -1)
    with pytest.raises(ParameterError):
        LevyImageMeasure.alpha_theta(0, 0)
    with pytest.raises(ParameterError):
        LevyImageMeasure.finite_atoms([])
    with pytest.raises(ParameterError):
        LevyImageMeasure.finite_atoms([(0, 1)])
    with pytest.raises(ParameterError):
        LevyImageMeasure.finite_atoms([(Fraction(1, 2), 0)])
    with pytest.raises(ParameterError):
        LevyImageMeasure.alpha_theta(0, 1).scaled(2)
    for bad in (math.inf, math.nan):
        with pytest.raises(ParameterError):
            LevyImageMeasure.alpha_theta(0.5, bad)
        with pytest.raises(ParameterError):
            LevyImageMeasure.finite_atoms([(Fraction(1, 2), 1), (1, bad)])
    with pytest.raises(ParameterError):
        LevyImageMeasure.finite_atoms([(1, 1)]).scaled(math.inf)
    huge = Fraction(10 ** 400, 3)
    assert LevyImageMeasure.alpha_theta(0, huge).theta == huge


def test_measure_json_round_trip():
    for m in (
        LevyImageMeasure.alpha_theta(Fraction(1, 2), Fraction(1, 2)),
        LevyImageMeasure.finite_atoms([(Fraction(1, 2), 3), (1, Fraction(2, 7))]),
    ):
        again = LevyImageMeasure.from_json(json.loads(dumps(m.to_json())))
        assert again == m


def test_scaled_beta_arithmetic():
    assert float(ScaledBeta(1, 1, 1)) == pytest.approx(1.0)
    assert float(ScaledBeta(1, Fraction(1, 2), Fraction(1, 2))) == pytest.approx(math.pi)
    # ratios at integer offsets collapse to rationals
    assert ScaledBeta(1, Fraction(5, 2), 1) / ScaledBeta(1, Fraction(1, 2), 1) == Fraction(1, 5)
    assert float(ScaledBeta(0, 1, 1)) == 0.0
    with pytest.raises(ZeroDivisionError):
        ScaledBeta(1, 1, 1) / ScaledBeta(0, 1, 1)
    with pytest.raises(ParameterError):
        ScaledBeta(1, 0, 1)


# B(x, y) on a quarter-decade grid of y from 10 to 1e300, and past the float
# range; from y = 1024 max(x, 2) the float takes the series in 1/y
_BETA_XS = (Fraction(3, 10), Fraction(2, 3), 1, Fraction(5, 2))
_BETA_YS = [10.0 ** (k / 4) for k in range(4, 1201)] + [10 ** 400, Fraction(10 ** 400, 3)]
# below that, lgamma(y) - lgamma(x + y) keeps the bytes of the pinned phi
# rows (y up to 2000.5) and errs by up to 2.2e-12 on this grid
_LGAMMA_ROUTE_REL = 3e-12


def _series_route(x, y) -> bool:
    return y >= 1024 * max(x, 2)


@pytest.mark.parametrize("x", _BETA_XS, ids=str)
def test_scaled_beta_float_matches_mpmath(x):
    mpmath = pytest.importorskip("mpmath")
    x = Fraction(x)
    for y in _BETA_YS:
        y_mp = Fraction(y)
        with mpmath.workdps(40 + len(str(y_mp.numerator))):
            want = mpmath.beta(mpmath.mpf(x.numerator) / x.denominator,
                               mpmath.mpf(y_mp.numerator) / y_mp.denominator)
            got = float(ScaledBeta(1, x, y))
            if want < 2.2250738585072014e-308:  # below the normal doubles
                assert got < 2.2250738585072014e-308, y
                continue
            rel = abs(mpmath.mpf(got) / want - 1)
        assert rel <= (1e-12 if _series_route(x, y) else _LGAMMA_ROUTE_REL), y


def test_scaled_beta_float_keeps_the_shift_identity():
    # B(x, y) / B(x, y + 1) = (x + y) / y, which needs no mpmath
    for x in _BETA_XS:
        for y in _BETA_YS:
            lo, hi = float(ScaledBeta(1, x, y)), float(ScaledBeta(1, x, y + 1))
            if hi < 2.2250738585072014e-308:
                continue
            bound = 1e-12 if _series_route(x, y) else _LGAMMA_ROUTE_REL
            assert lo / hi == pytest.approx(float((x + y) / y), rel=bound, abs=0), (x, y)


@pytest.mark.parametrize(("theta", "phi_1"), [
    ("1e6", 1.354117187139157816e-4),
    ("1e10", 2.9173586629326545984e-7),
    ("1e15", 1.3541179394263996647e-10),
    ("1e300", 1.3541179394264004169e-200),
])
def test_phi_cli_with_a_large_theta(capsys, theta, phi_1):
    # phi(1) = B(2/3, 1 + theta), by mpmath at 40 digits, where
    # lgamma(1 + theta) - lgamma(5/3 + theta) would cancel
    assert cli.main(["phi", "--alpha", "1/3", "--theta", theta, "--n-max", "1", "--format", "json"]) == 0
    got = json.loads(capsys.readouterr().out)["phi"][0]["phi_n"]
    assert got == pytest.approx(phi_1, rel=1e-12, abs=0)


@pytest.mark.parametrize(("alpha", "theta"), [(Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 3), Fraction(1, 7))])
def test_float_scaled_beta_ratio_past_171(alpha, theta):
    # offsets near 200 overflow the plain float products; at (1/3, 1/7) the
    # phi_nm pair meets a float offset of -199.00000000000003, not an integer
    pairs = [
        (ScaledBeta(3, 200 + alpha, theta), ScaledBeta(2, alpha, theta)),
        (phi_nm(LevyImageMeasure.alpha_theta(alpha, theta), 300, 200), laplace_exponent(
            LevyImageMeasure.alpha_theta(alpha, theta), 300)),
    ]
    for num, den in pairs:
        want = float(num / den)
        fnum = ScaledBeta(float(num.c), float(num.x), float(num.y))
        fden = ScaledBeta(float(den.c), float(den.x), float(den.y))
        got = fnum / fden
        assert math.isfinite(got)
        assert got == pytest.approx(want, rel=1e-12, abs=0)


def test_laplace_exponent_values():
    m = LevyImageMeasure.alpha_theta(0, 1)
    assert float(laplace_exponent(m, 0)) == 0.0
    # alpha = 0: phi(a) = a / (a + theta)
    assert float(laplace_exponent(m, 1)) == pytest.approx(0.5)
    assert laplace_exponent(m, 2) / laplace_exponent(m, 1) == Fraction(4, 3)
    with pytest.raises(ParameterError):
        laplace_exponent(m, -1)
    atoms = LevyImageMeasure.finite_atoms([(Fraction(1, 2), 1)])
    assert laplace_exponent(atoms, 3) == Fraction(7, 8)
    assert laplace_exponent(atoms, 0) == 0
    # an atom at 1 is a kill rate: phi is flat above a = 0
    unit = LevyImageMeasure.finite_atoms([(1, Fraction(5, 3))])
    assert laplace_exponent(unit, 1) == Fraction(5, 3)
    assert laplace_exponent(unit, 7) == Fraction(5, 3)


def test_phi_nm_values():
    atoms = LevyImageMeasure.finite_atoms([(Fraction(1, 2), 1)])
    # binomial thinning of a fair atom: C(n, m) / 2^n
    assert phi_nm(atoms, 4, 2) == Fraction(3, 8)
    assert phi_nm(atoms, 4, 4) == Fraction(1, 16)
    unit = LevyImageMeasure.finite_atoms([(1, 1)])
    assert phi_nm(unit, 5, 5) == 1
    assert phi_nm(unit, 5, 2) == 0
    with pytest.raises(ParameterError):
        phi_nm(atoms, 3, 4)
    with pytest.raises(ParameterError):
        phi_nm(atoms, 3, 0)


def test_phi_nm_past_the_float_binomial():
    # C(n, m) times the float coefficient overflows from n = 1021 at (0.3, 0.5)
    measure = LevyImageMeasure.alpha_theta(0.3, 0.5)
    for n in (1021, 1030, 1100):
        assert all(math.isfinite(float(phi_nm(measure, n, m))) for m in range(1, n + 1))
    alpha, theta = Fraction(3, 10), Fraction(1, 2)
    exact = LevyImageMeasure.alpha_theta(alpha, theta)
    want = float(decrement_entry(ExtParams.two_param(alpha, theta), 1100, 550)) * float(
        laplace_exponent(exact, 1100)
    )
    for mode in (measure, exact):
        assert float(phi_nm(mode, 1100, 550)) == pytest.approx(want, rel=1e-11)


def test_float_scaled_beta_ratio_past_the_float_binomial():
    # phi_nm keeps C(1100, 550) exact; the coefficient ratio must not meet a float
    ratios = []
    for alpha, theta in ((0.3, 0.5), (Fraction(3, 10), Fraction(1, 2))):
        measure = LevyImageMeasure.alpha_theta(alpha, theta)
        ratios.append(phi_nm(measure, 1100, 550) / laplace_exponent(measure, 1100))
    got, exact = ratios
    assert isinstance(got, float)
    assert abs(Fraction(got) - exact) <= Fraction(1e-11) * exact


@pytest.mark.parametrize(
    "params",
    [
        ExtParams.two_param(0, 1),
        ExtParams.two_param(0, 2),
        ExtParams.two_param(Fraction(1, 2), Fraction(1, 2)),
        ExtParams.two_param(Fraction(1, 3), Fraction(2, 3)),
        ExtParams.two_param(Fraction(2, 3), 0),
    ],
    ids=str,
)
def test_decrement_from_phi_matches_kernel_route(params):
    m = LevyImageMeasure.alpha_theta(params.alpha, params.theta)
    assert decrement_from_phi(m, 12) == decrement_matrix(params, 12)


def test_decrement_from_phi_atomic_rows():
    atoms = LevyImageMeasure.finite_atoms([(Fraction(1, 2), 1)])
    dm = decrement_from_phi(atoms, 6)
    for n in range(1, 7):
        assert dm.row(n) == tuple(
            Fraction(math.comb(n, m), 2**n - 1) for m in range(1, n + 1)
        )
    unit = LevyImageMeasure.finite_atoms([(1, 1)])
    assert decrement_from_phi(unit, 4).row(3) == (0, 0, 1)


def test_decrement_from_phi_scale_invariant():
    atoms = LevyImageMeasure.finite_atoms([(Fraction(1, 3), 2), (Fraction(3, 4), 1)])
    assert decrement_from_phi(atoms.scaled(Fraction(7, 2)), 8) == decrement_from_phi(atoms, 8)


# ---------------------------------------------------------------------------
# set constructors

def test_subordinator_path_validation():
    SubordinatorPath((1.0, 2.5), (0.3, 0.1))
    with pytest.raises(ParameterError):
        SubordinatorPath((1.0, 1.0), (0.3, 0.1))
    with pytest.raises(ParameterError):
        SubordinatorPath((1.0,), (0.3, 0.1))
    with pytest.raises(ParameterError):
        SubordinatorPath((1.0,), (0.0,))


def test_compound_poisson_set_structure():
    rng = RngHandle(9)
    path, iv = compound_poisson_set(1.0, 1e-6, rng)
    assert 0 < iv.residual <= 1e-6
    # gap lengths are the jump images scaled by the running leftover
    rem = 1.0
    for (left, right), jump in zip(iv.intervals, path.jumps):
        assert right - left == pytest.approx(rem * -math.expm1(-jump), abs=1e-15)
        rem *= math.exp(-jump)
    with pytest.raises(ParameterError):
        compound_poisson_set(0.0, 1e-6, rng)
    # jumps of mean 1/inf = 0 would spend the whole jump budget first
    with pytest.raises(ParameterError, match="finite theta"):
        compound_poisson_set(math.inf, 1e-3, rng)
    with pytest.raises(ParameterError):
        compound_poisson_set(1.0, 2.0, rng)


def test_exhausted_budgets_raise_convergence_error(monkeypatch):
    rng = RngHandle(12)
    monkeypatch.setattr(regen, "JUMP_BUDGET", 3)
    with pytest.raises(ConvergenceError):
        compound_poisson_set(1.0, 1e-6, rng)
    monkeypatch.setattr(core, "STICK_BUDGET", 64)
    with pytest.raises(ConvergenceError):
        # the (alpha, 0) leftover decays like k**-((1 - alpha)/alpha): ~0.6 after 64 sticks
        _alpha_zero_lengths(0.9, 1e-3, rng)


def test_compound_poisson_set_rejects_a_hopeless_jump_count(monkeypatch):
    # 1 + Poisson(theta ln(1/eps)) jumps are needed: a mean ten standard
    # deviations past the budget or more fails before any draw
    rng = RngHandle(3)
    limit = regen.JUMP_BUDGET + 10 * math.sqrt(regen.JUMP_BUDGET)
    for theta in (1e308, Fraction(10 ** 400), 2 * regen.JUMP_BUDGET / math.log(1e6),
                  1e6, limit / math.log(1e6)):
        with pytest.raises(ConvergenceError, match="past the budget"):
            compound_poisson_set(theta, 1e-6, rng)
    assert rng.exponential(1.0) == RngHandle(3).exponential(1.0)
    # below that the loop's own budget still stops a run that needs more jumps
    monkeypatch.setattr(regen, "JUMP_BUDGET", 3)
    with pytest.raises(ConvergenceError, match="exhausted"):
        compound_poisson_set(0.4, 1e-6, RngHandle(12))


def test_every_stick_loop_has_the_budget(monkeypatch, capsys):
    # at theta = 1 about ln(1/eps) ~ 21 sticks reach 1e-9; seed 1 needs more than 10
    monkeypatch.setattr(core, "STICK_BUDGET", 10)
    assert len(core.break_sticks([0.5] * 10, 1e-9)[0]) == 10  # the budget itself is allowed
    with pytest.raises(ConvergenceError, match="stick budget 10 exhausted"):
        core.break_sticks([0.5] * 11, 1e-9)
    with pytest.raises(ConvergenceError, match="stick budget 10 exhausted"):
        stick_breaking_set(1.0, 1e-9, RngHandle(1))
    with pytest.raises(ConvergenceError, match="stick budget 10 exhausted"):
        crossbreed_set(0.5, 0.5, 1e-9, RngHandle(1))
    argv = ["regen-set", "--model", "stick", "--theta", "1", "--eps", "1e-9", "--seed", "1"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "stick budget 10 exhausted above eps=1e-09" in err


def test_stick_breaking_set_structure():
    iv = stick_breaking_set(1.0, 1e-6, RngHandle(10))
    assert 0 < iv.residual <= 1e-6
    assert all(right > left for (left, right) in iv.intervals)


def test_two_constructions_share_first_length_law():
    # same law, two mechanisms: KS on the first gap length
    rng = RngHandle(2026)
    a = np.array(
        [np.diff(compound_poisson_set(1.0, 1e-6, rng)[1].intervals[0])[0] for _ in range(2000)]
    )
    b = np.array(
        [np.diff(stick_breaking_set(1.0, 1e-6, rng).intervals[0])[0] for _ in range(2000)]
    )
    stat, pval = ks_two_sample(a, b)
    assert pval > 1e-3
    # first gap is beta(1, theta): mean 1/2 at theta = 1
    assert a.mean() == pytest.approx(0.5, abs=4 * a.std() / math.sqrt(a.size))


def test_crossbreed_set_structure():
    iv = crossbreed_set(0.5, 0.5, 1e-3, RngHandle(11))
    assert 0 <= iv.residual < 1e-3
    covered = sum(right - left for (left, right) in iv.intervals)
    assert covered + iv.residual == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ParameterError):
        crossbreed_set(0.0, 1.0, 1e-3, RngHandle(0))
    with pytest.raises(ParameterError):
        crossbreed_set(0.5, 0.0, 1e-3, RngHandle(0))


def test_ordered_arrangement_layout():
    fv = FrequencyVector((0.5, 0.3), residual=0.2)
    iv = ordered_arrangement(fv, math.inf, RngHandle(1))
    # xi = inf keeps appearance order, residual becomes the terminal gap
    assert [round(r - l, 12) for (l, r) in iv.intervals] == [0.5, 0.3]
    assert iv.residual == pytest.approx(0.2)
    with pytest.raises(ParameterError):
        ordered_arrangement(FrequencyVector((0.5,), dust=0.5), 1, RngHandle(1))
    with pytest.raises(ParameterError):
        ordered_arrangement(FrequencyVector((), residual=1), 1, RngHandle(1))


# ---------------------------------------------------------------------------
# leftmost deletion, object path

def test_leftmost_delete_degenerate_sets():
    full = IntervalSet(((0.0, 1.0),))
    m, rest = leftmost_delete(full, 5, RngHandle(3))
    assert m == 5 and rest.n == 0
    dust = IntervalSet((), residual=1.0)
    m, rest = leftmost_delete(dust, 5, RngHandle(3))
    assert m == 1 and rest.n == 4
    with pytest.raises(ParameterError):
        leftmost_delete(full, 0, RngHandle(3))


def test_leftmost_delete_law_matches_decrement_row():
    # object path end to end: GEM sticks -> xi arrangement -> paint and delete
    params = ExtParams.two_param(Fraction(1, 3), Fraction(1, 3))
    n = 5
    rng = RngHandle(404)
    counts = np.zeros(n + 1, dtype=np.int64)
    for _ in range(2000):
        rf, fv = gem_sample(params, rng, eps=1e-4)
        iv = ordered_arrangement(fv, params.xi(), rng)
        m, rest = leftmost_delete(iv, n, rng)
        counts[m] += 1
    row = [float(x) for x in decrement_matrix(params, n).row(n)]
    stat, dof, pval = chi_square(counts[1:], row)
    assert pval > 1e-3


# ---------------------------------------------------------------------------
# leftmost deletion, bulk harness

def test_cover_points_invariants():
    # check every label against an explicit cumulative sum of the recorded stick fractions
    params = ExtParams.two_param(Fraction(1, 2), 0)  # about 5% of the points pass 16 sticks
    rows, n, K = 300, 6, regen.BULK_STICKS
    pts = RngHandle(11).random(rows * n).reshape(rows, n)
    calls = []

    class Recorder(RngHandle):
        def beta(self, a, b, size=None):
            w = super().beta(a, b, size)
            calls.append((a, np.asarray(b), size, w))
            return w

    col = regen._cover_points(params, pts, Recorder(12))
    assert len(calls) == 1
    a, shapes, size, w = calls[0]
    assert a == 0.5 and size == rows * K
    assert (shapes == np.tile(0.5 * np.arange(1, K + 1), rows)).all()
    tails = 0
    for i, ws in enumerate(w.reshape(rows, K)):
        bounds, rem = [0.0], 1.0  # stick k of row i is [bounds[k-1], bounds[k])
        for x in ws:
            bounds.append(bounds[-1] + rem * x)
            rem *= 1.0 - x
        seen = K
        for u, k in zip(pts[i], col[i]):
            # the routine forms 1 - R_k, not the sum: allow rounding at the ends
            if k <= K:
                assert 1 <= k and bounds[k - 1] - 1e-12 <= u < bounds[k] + 1e-12
            else:
                assert u >= bounds[K] - 1e-12
                assert k <= seen + 1  # tail labels appear as K + 1, K + 2, ...
                seen = max(seen, k)
                tails += 1
    assert 0 < tails < rows * n
    with pytest.raises(ParameterError):
        regen._cover_points(ExtParams.coupon(3), pts, RngHandle(0))


@pytest.mark.parametrize("sticks", [1, 4])
@pytest.mark.parametrize(
    ("alpha", "theta"),
    [
        (Fraction(1, 2), Fraction(1, 2)),  # xi = 1
        (Fraction(1, 2), 0),  # xi = 0
        (0, 1),  # xi = inf
    ],
)
def test_bulk_tail_completion_is_exact(monkeypatch, alpha, theta, sticks):
    # with 1 or 4 sticks many rows reach the crp_assignments tail
    monkeypatch.setattr(regen, "BULK_STICKS", sticks)
    params = ExtParams.two_param(alpha, theta)
    counts = leftmost_deletion_counts(params, 10, 20_000, 1e-3, RngHandle(61))
    row = [float(x) for x in decrement_matrix(params, 10).row(10)]
    stat, dof, pval = chi_square(counts[1:], row)
    assert pval > 1e-3
    again = leftmost_deletion_counts(params, 10, 20_000, 1e-3, RngHandle(61))
    assert (again == counts).all()


@pytest.mark.parametrize(
    ("alpha", "theta", "eps", "seed"),
    [
        (Fraction(1, 3), 0, 1e-4, 55),  # xi = 0 branch
        (0, 1, 1e-9, 56),  # xi = inf branch
    ],
)
def test_bulk_counts_match_decrement_row(alpha, theta, eps, seed):
    params = ExtParams.two_param(alpha, theta)
    counts = leftmost_deletion_counts(params, 6, 20_000, eps, RngHandle(seed))
    row = [float(x) for x in decrement_matrix(params, 6).row(6)]
    stat, dof, pval = chi_square(counts[1:], row)
    assert pval > 1e-3


def test_bulk_counts_guards():
    with pytest.raises(ParameterError):
        leftmost_deletion_counts(ExtParams.coupon(3), 5, 10, 1e-3, RngHandle(0))
    with pytest.raises(ParameterError):
        # xi = theta/alpha = 2 needs the object path
        leftmost_deletion_counts(
            ExtParams.two_param(Fraction(1, 4), Fraction(1, 2)), 5, 10, 1e-3, RngHandle(0)
        )


# ---------------------------------------------------------------------------
# seeded goldens, recorded from the per-constructor beta(1, theta) stick loop
# and the float shape arithmetic of _cover_points

def _digest(obj) -> str:
    return hashlib.sha256(dumps(obj).encode()).hexdigest()


@pytest.mark.parametrize(
    ("theta", "eps", "seed", "digest"),
    [
        (Fraction(1, 3), 1e-6, 1, "29b068014cdf93f4f5b91df7601e5128ecd31df708803a0ffafe5d5e863a54d6"),
        (0.7, 1e-6, 2, "8396c689e26e88bd36ab77741c6b6568c0a72b5de822fa77de9c5b74b0c6a0f7"),
        (1, 1e-6, 3, "4955a1aea1836764ef2d73f10ee9de9dd31f7fe20d9b1e9c145d5214e3a0f3f1"),
    ],
)
def test_stick_breaking_set_golden(theta, eps, seed, digest):
    assert _digest(stick_breaking_set(theta, eps, RngHandle(seed)).to_json()) == digest


@pytest.mark.parametrize(
    ("alpha", "theta", "seed", "digest"),
    [
        (Fraction(1, 3), Fraction(1, 3), 1,
         "111ebab1070ccee13b8910a2bf12c792661234de44bce9638c83f6ccd447b583"),
        (0.5, 0.5, 2, "3cc0eda938ba179f9e6ccb1479875d460104e2b40b1dad69c983f0e49d914bd6"),
        (0.25, 2.0, 3, "d00118aa59dd293fc9d2da938b3fcaa96e07bf4b7695be3398b8c58ae44702ad"),
    ],
)
def test_crossbreed_set_golden(alpha, theta, seed, digest):
    assert _digest(crossbreed_set(alpha, theta, 1e-3, RngHandle(seed)).to_json()) == digest


@pytest.mark.parametrize(
    ("args", "digest"),
    [
        (("regen-set", "--model", "stick", "--theta", "1", "--eps", "1e-6", "--seed", "1"),
         "e721771f77cc9db1ea1f75ed36b3441044bd1f898fb2c2ad5b22e0b95856e57d"),
        (("regen-set", "--model", "crossbreed", "--alpha", "0.5", "--theta", "0.5",
          "--eps", "1e-3", "--seed", "1"),
         "5d6277ad91858101168f9de8a10ee5fac1dee25f0470c67bbcbd4c58fec1a593"),
    ],
)
def test_regen_set_cli_golden(capsys, args, digest):
    assert cli.main(list(args)) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert hashlib.sha256(out.out.encode()).hexdigest() == digest


# n = 10, 2000 replicates, seed 12: the three mc-bulk benchmark points and (1/3, 1/3),
# whose float shapes theta + k alpha are not all correctly rounded
LEFTMOST_GOLDEN = {
    (Fraction(1, 2), Fraction(1, 2)): [0, 1031, 289, 154, 89, 78, 55, 50, 65, 62, 127],
    (Fraction(1, 2), 0): [0, 993, 248, 118, 71, 53, 40, 28, 46, 25, 378],
    (0, 1): [0, 211, 188, 196, 185, 234, 187, 197, 223, 184, 195],
    (Fraction(1, 3), Fraction(1, 3)): [0, 706, 234, 150, 106, 92, 95, 91, 98, 114, 314],
}


@pytest.mark.parametrize("point", sorted(LEFTMOST_GOLDEN), ids=str)
def test_leftmost_deletion_counts_golden(point):
    params = ExtParams.two_param(*point)
    counts = leftmost_deletion_counts(params, 10, 2000, 4e-3, RngHandle(12))
    assert counts.tolist() == LEFTMOST_GOLDEN[point]
