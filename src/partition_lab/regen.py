"""Multiplicatively regenerative sets and their deletion laws.

A random closed subset of [0, 1] is multiplicatively regenerative when,
cut at the left end of the gap covering a uniform point, the rescaled
remainder reproduces the law of the whole set.  Such sets arise as
images of subordinator ranges under t -> 1 - exp(-t); everything about
the induced partition laws is encoded by the image Levy measure on
(0, 1] through the binomial integrals

    phi(n)    = integral of (1 - (1 - x)^n),
    phi(n, m) = C(n, m) * integral of x^m (1 - x)^(n - m),

whose ratios phi(n, m)/phi(n) give the deleted-size law q(n, m).
For the alpha_theta measure, decrement_from_phi steps along the
diagonals j = n - m, as the lanes of core._integer_scale's triangle:
exact parameters give one reduced Fraction per entry, float parameters
one array pass per block of rows with the bits of the per-entry float
loop.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .core import (
    TWO_PARAM,
    ConvergenceError,
    ExtParams,
    FrequencyVector,
    IntervalSet,
    JsonRecord,
    ParameterError,
    Scalar,
    SetPartition,
    break_sticks,
    canonicalize,
    check_eps,
    check_finite,
    check_size,
    delete_block,
    exact_div,
    float_param,
    is_exact,
    rising_ratio,
    _integer_scale,
    _log_beta_large_y,
    _log_rising_ratio,
)
from .deletion import DecrementMatrix
from .eppf import stick_b_shape, stick_float_laws
from .samplers import RngHandle, _paint, crp_assignments, xi_order

ALPHA_THETA = "alpha_theta"
FINITE_ATOMS = "finite_atoms"

JUMP_BUDGET = 10_000_000  # compound_poisson_set jumps before giving up
BULK_BATCH = 1024  # leftmost_deletion_counts replicates per batch
BULK_STICKS = 16  # sticks _cover_points breaks per row before the CRP tail


@dataclass(frozen=True)
class LevyImageMeasure(JsonRecord):
    """Image Levy measure on (0, 1], either parametric or purely atomic.

    * alpha_theta: right tail u -> u^(-alpha) (1 - u)^theta on (0, 1),
      with 0 <= alpha < 1, theta >= 0, not both zero;
    * finite_atoms: finitely many atoms u_i with weights w_i > 0.
    """

    kind: str
    alpha: Scalar | None = None
    theta: Scalar | None = None
    atoms: tuple[tuple[Scalar, Scalar], ...] | None = None

    @classmethod
    def alpha_theta(cls, alpha: Scalar, theta: Scalar) -> "LevyImageMeasure":
        if not (0 <= alpha < 1):
            raise ParameterError(f"need 0 <= alpha < 1, got {alpha}")
        if not (theta >= 0):
            raise ParameterError(f"need theta >= 0, got {theta}")
        check_finite("theta", theta)
        if isinstance(alpha, float):  # the float rows take theta into float steps
            float_param("theta", theta)
        if alpha == 0 and theta == 0:
            raise ParameterError("alpha and theta cannot both be 0")
        return cls(ALPHA_THETA, alpha=alpha, theta=theta)

    @classmethod
    def finite_atoms(cls, atoms: Sequence[tuple[Scalar, Scalar]]) -> "LevyImageMeasure":
        atoms = tuple((u, w) for (u, w) in atoms)
        if not atoms:
            raise ParameterError("need at least one atom")
        for (u, w) in atoms:
            if not (0 < u <= 1):
                raise ParameterError(f"atom location {u} outside (0, 1]")
            if not (w > 0):
                raise ParameterError(f"atom weight {w} must be positive")
            check_finite("atom weight", w)
        return cls(FINITE_ATOMS, atoms=atoms)


@dataclass(frozen=True)
class ScaledBeta:
    """The number c * B(x, y), kept in factored form.

    Values of the binomial integrals for the alpha_theta measure are
    transcendental, but their pairwise ratios at integer offsets are
    rational; ScaledBeta division produces those ratios exactly when
    the fields are exact.
    """

    c: Scalar
    x: Scalar
    y: Scalar

    def __post_init__(self):
        if not (self.x > 0 and self.y > 0):
            raise ParameterError(f"beta arguments must be positive, got ({self.x}, {self.y})")

    def __float__(self) -> float:
        x = float(self.x)
        if self.y >= 1024 * max(x, 2):  # lgamma(y) and lgamma(x + y) would cancel
            lb = _log_beta_large_y(x, self.y)
        else:
            lb = math.lgamma(x) + math.lgamma(float(self.y)) - math.lgamma(float(self.x + self.y))
        try:
            value = float(self.c) * math.exp(lb)
            if math.isfinite(value):
                return value
        except OverflowError:  # an exact c past the float range
            pass
        # B(x, y) = Gamma(y) Gamma(x) / Gamma(x + y) = (1)_{y-1} / (x)_y
        return _log_rising_ratio([(1, self.y - 1)], [(self.x, self.y)], [self.c])

    def __truediv__(self, other: "ScaledBeta") -> Scalar:
        if other.c == 0:
            raise ZeroDivisionError("division by a zero ScaledBeta")
        if self.c == 0:
            return 0 if is_exact(self.c) and is_exact(other.c) else 0.0
        num, den = [], []
        for p, q in ((self.x, other.x), (self.y, other.y), (other.x + other.y, self.x + self.y)):
            # Gamma(p)/Gamma(q) is (q)_d for an integer d = p - q >= 0, 1/(p)_{-d} below
            d = p - q
            if d != int(d):  # other offsets divide the float values
                return float(self) / float(other)
            num.append((q, max(int(d), 0)))
            den.append((p, max(-int(d), 0)))
        return rising_ratio(num, den, [exact_div(self.c, other.c)])


def laplace_exponent(measure: LevyImageMeasure, a: Scalar):
    """phi(a) = integral of (1 - (1 - x)^a) against the measure, a >= 0.

    For the alpha_theta measure this is a * B(1 - alpha, a + theta),
    returned as a ScaledBeta; the atomic variant returns a plain scalar
    (exact for exact atoms and integer a).
    """
    if not (a >= 0):
        raise ParameterError(f"need a >= 0, got {a}")
    if measure.kind == ALPHA_THETA:
        if a == 0:
            return ScaledBeta(0, 1 - measure.alpha, measure.theta + 1)
        return ScaledBeta(a, 1 - measure.alpha, a + measure.theta)
    total: Scalar = 0
    if is_exact(a) and Fraction(a).denominator == 1:
        a = int(a)
    for (u, w) in measure.atoms:
        total = total + w * (1 - (1 - u) ** a)
    return total


def phi_nm(measure: LevyImageMeasure, n: int, m: int):
    """phi(n, m) = C(n, m) * integral of x^m (1 - x)^(n - m), 1 <= m <= n.

    For the alpha_theta measure the integral reduces to a single
    beta term,

        phi(n, m) = C(n, m) (m theta + (n - m) alpha) / (n - m + theta)
                    * B(m - alpha, n - m + theta + 1),

    with the m = n case C(n, n) * n * B(n - alpha, theta + 1).
    """
    if not (isinstance(n, int) and isinstance(m, int) and 1 <= m <= n):
        raise ParameterError(f"need integers 1 <= m <= n, got m={m}, n={n}")
    if measure.kind == ALPHA_THETA:
        alpha, theta = measure.alpha, measure.theta
        if m == n:
            return ScaledBeta(n, n - alpha, theta + 1)
        w = m * theta + (n - m) * alpha
        try:
            coeff = exact_div(math.comb(n, m) * w, n - m + theta)
        except OverflowError:
            coeff = math.inf
        if coeff == math.inf:  # a float coefficient cannot hold C(n, m): keep it exact
            coeff = math.comb(n, m) * Fraction(exact_div(w, n - m + theta))
        return ScaledBeta(coeff, m - alpha, n - m + theta + 1)
    total: Scalar = 0
    for (u, w) in measure.atoms:
        total = total + w * u ** m * (1 - u) ** (n - m)
    return math.comb(n, m) * total


def decrement_from_phi(measure: LevyImageMeasure, n_max: int) -> DecrementMatrix:
    """Deleted-size laws q(n, m) = phi(n, m)/phi(n) for n up to n_max.

    This is the subordinator route to the decrement matrix; for the
    alpha_theta measure with exact parameters the entries are exact
    rationals and must agree with deletion.decrement_matrix.

    For the alpha_theta measure the matrix is built along the diagonals
    j = n - m in O(n_max^2) steps.  Dividing phi_nm by
    phi(n) = n B(1 - alpha, n + theta) gives, for j >= 1,

        q(n, m) = C(n, m) (m theta + j alpha) / ((j + theta) n)
                  * B(m - alpha, j + theta + 1) / B(1 - alpha, n + theta),

    and B(x + 1, y)/B(x, y) = x/(x + y), applied to B(m - alpha, j + theta + 1)
    and (mirrored) to B(1 - alpha, n + theta), turns the step from (n, m)
    to (n + 1, m + 1), which keeps j, into

        q(n + 1, m + 1) = q(n, m) n (m - alpha) ((m + 1) theta + j alpha)
                          / ((m + 1) (m theta + j alpha) (theta + n)),

    starting from q(j + 1, 1) = (theta + j alpha)/(j + theta).  On the
    main diagonal q(n, n) = B(n - alpha, theta + 1)/B(1 - alpha, n + theta),
    so q(1, 1) = 1 and q(n + 1, n + 1) = q(n, n) (n - alpha)/(theta + n).
    These steps are written once, in the A, T, L of core._integer_scale
    (alpha = A/L, theta = T/L), and that scale's triangle runs them with
    the diagonals as lanes: exact parameters give integer factors and
    one Fraction per entry, reduced once, diagonal by diagonal; float and
    mixed parameters have L = 1 and a grid whose rows end at its right
    edge, so that each diagonal is a column.  The factors of a whole block
    of rows are evaluated at once, and one sequential
    np.multiply.accumulate(axis=0) per block, taken on from the block
    before, gives the bits of the scalar loop q = q * (top / bottom)
    with the rows already in place.
    The kernel route steps along rows instead, a different identity,
    which keeps the comparison of the two routes a real cross-check.
    Atomic measures divide phi_nm by laplace_exponent entry by entry.
    """
    check_size("n_max", n_max, 1)
    if measure.kind != ALPHA_THETA:
        rows = []
        for n in range(1, n_max + 1):
            phin = laplace_exponent(measure, n)
            rows.append(tuple(exact_div(phi_nm(measure, n, m), phin) for m in range(1, n + 1)))
        return DecrementMatrix(n_max, tuple(rows))
    A, T, L, triangle = _integer_scale(measure.alpha, measure.theta)

    def diagonal_step(n, m):  # q(n + 1, m + 1) / q(n, m)
        j = n - m
        return (
            n * (m * L - A) * ((m + 1) * T + j * A),
            (m + 1) * (m * T + j * A) * (T + n * L),
        )

    rows = triangle(
        lambda n: (T + (n - 1) * A, (n - 1) * L + T),
        diagonal_step,
        lambda n: ((n - 1) * L - A, T + (n - 1) * L),
        n_max,
        diagonal_lanes=True,
    )
    return DecrementMatrix(n_max, rows)


# ---------------------------------------------------------------------------
# subordinator paths and set constructors

@dataclass(frozen=True)
class SubordinatorPath(JsonRecord):
    """Jump times and sizes of a pure-jump subordinator realization."""

    times: tuple[float, ...]
    jumps: tuple[float, ...]
    killed: bool = False

    def __post_init__(self):
        if len(self.times) != len(self.jumps):
            raise ParameterError("times and jumps must have equal length")
        prev = 0.0
        for t in self.times:
            if t <= prev:
                raise ParameterError("jump times must be strictly increasing")
            prev = t
        for j in self.jumps:
            if not (j > 0):
                raise ParameterError("jumps must be positive")


def compound_poisson_set(
    theta: float, eps: float, rng: RngHandle
) -> tuple[SubordinatorPath, IntervalSet]:
    """Gap intervals of {1 - exp(-S_t)} for a compound Poisson S.

    S has unit jump rate and exponential(theta) jump sizes; each jump J
    from level s opens the gap (1 - e^-s, 1 - e^-(s+J)).  Jumps are
    drawn (waiting time first, then size) until the uncovered terminal
    mass e^-S drops to eps, or ConvergenceError after JUMP_BUDGET jumps.
    The jumps needed number 1 + Poisson(theta ln(1/eps)), so a mean of
    JUMP_BUDGET + 10 sqrt(JUMP_BUDGET) or more, ten standard deviations
    past the budget, which would spend it with chance above 1 - 1e-23,
    raises ConvergenceError before any draw.
    """
    if not (theta > 0):
        raise ParameterError(f"need theta > 0, got {theta}")
    check_finite("theta", theta)
    check_eps(eps)
    limit = JUMP_BUDGET + 10 * math.sqrt(JUMP_BUDGET)
    if theta >= limit / -math.log(eps):  # divided, as theta * ln may overflow
        raise ConvergenceError(f"theta={theta} at eps={eps} expects theta*ln(1/eps) >= "
                               f"{limit:.0f} jumps, ten standard deviations past the "
                               f"budget {JUMP_BUDGET}")
    times, jumps, lengths = [], [], []
    t = 0.0
    remaining = 1.0
    while remaining > eps:
        if len(jumps) >= JUMP_BUDGET:
            raise ConvergenceError(f"jump budget {JUMP_BUDGET} exhausted above eps={eps}")
        t += rng.exponential(1.0)
        j = rng.exponential(theta)
        times.append(t)
        jumps.append(j)
        lengths.append(remaining * -math.expm1(-j))
        remaining *= math.exp(-j)
    path = SubordinatorPath(tuple(times), tuple(jumps))
    return path, IntervalSet.from_lengths(lengths, residual=remaining)


def stick_breaking_set(theta: float, eps: float, rng: RngHandle) -> IntervalSet:
    """Gap intervals from stick breaking with beta(1, theta) fractions.

    Same law as compound_poisson_set (the stick fractions are the jump
    images 1 - e^-J) but generated through the beta sampler, which makes
    the pair a useful cross-check.
    """
    if not (theta > 0):
        raise ParameterError(f"need theta > 0, got {theta}")
    check_eps(eps)
    laws = stick_float_laws(ExtParams.two_param(0, theta))
    lengths, remaining = break_sticks((rng.beta(*law) for law in laws), eps)
    return IntervalSet.from_lengths(lengths, residual=remaining)


def ordered_arrangement(freq: FrequencyVector, xi: Scalar, rng: RngHandle) -> IntervalSet:
    """Lay out frequencies left to right in a xi-biased random order.

    The first frequency is a size-biased pick when the vector comes
    from stick breaking, so xi = theta/alpha turns GEM(alpha, theta)
    frequencies into a multiplicatively regenerative set.  The residual
    mass becomes the terminal gap.
    """
    if freq.dust != 0:
        raise ParameterError("ordered_arrangement needs proper frequencies (no dust)")
    if freq.k == 0:
        raise ParameterError("need at least one frequency")
    order = xi_order(freq.k, xi, rng).arrangement
    lengths = [float(freq.entries[e - 1]) for e in order]
    return IntervalSet.from_lengths(lengths, residual=float(freq.residual))


def _alpha_zero_lengths(alpha: float, eps: float, rng: RngHandle) -> tuple[list[float], float]:
    """Relative gap lengths of an (alpha, 0) set on (0, 1), residual last.

    Breaks sticks with beta(1 - alpha, k alpha) fractions (drawn in
    vectorized chunks), then applies the xi = 0 arrangement: every
    stick after the first in uniform random order, the first stick
    rightmost.
    """

    def draws() -> Iterator[float]:
        chunk = 64
        b = stick_b_shape(ExtParams.two_param(alpha, 0))
        for k in itertools.count(1, chunk):
            yield from rng.beta(1.0 - alpha, b(np.arange(k, k + chunk)), size=chunk).tolist()

    lengths, rem = break_sticks(draws(), eps)
    # xi = 0 arrangement: uniform order on sticks 2..K, stick 1 rightmost
    rest = np.argsort(rng.random(len(lengths) - 1)) + 1 if len(lengths) > 1 else []
    arranged = [lengths[i] for i in rest] + [lengths[0]]
    return arranged, rem


def crossbreed_set(alpha: float, theta: float, eps: float, rng: RngHandle) -> IntervalSet:
    """Regenerative set for (alpha, theta) built from two independent stages.

    Stage one breaks (0, 1) by beta(1, theta) sticks; stage two splits
    each stick by an independent copy of the (alpha, 0) set.  Each stage
    is truncated at eps/2, so untracked mass stays below eps.
    """
    if not (0 < alpha < 1):
        raise ParameterError(f"need 0 < alpha < 1, got {alpha}")
    if not (theta > 0):
        raise ParameterError(f"need theta > 0, got {theta}")
    check_eps(eps)
    laws = stick_float_laws(ExtParams.two_param(0, theta))
    sticks, _ = break_sticks((rng.beta(*law) for law in laws), eps / 2)
    intervals = []
    pos = 0.0
    for L in sticks:
        sub, _ = _alpha_zero_lengths(float(alpha), eps / 2, rng)
        # carry the right endpoint forward so rounding cannot reorder
        cursor = pos
        for s in sub:
            right = cursor + L * s
            if right > cursor:  # sublengths can vanish at float resolution
                intervals.append((cursor, right))
                cursor = right
        pos = max(pos + L, cursor)
    iv = tuple(intervals)
    total = sum(r - l for (l, r) in iv)
    return IntervalSet(iv, residual=max(1.0 - total, 0.0))


def leftmost_delete(iv: IntervalSet, n: int, rng: RngHandle) -> tuple[int, SetPartition]:
    """Paint n uniform points on iv, delete the leftmost occupied component.

    Points sharing an interval form a block located at the interval's
    left end; gap points are singletons at their own position.  The
    block with the smallest location is removed and the rest relabeled;
    returns (deleted size, remainder).
    """
    check_size("n", n, 1)
    groups, location = _paint(iv, n, rng)
    pi = canonicalize(groups.values(), n=n)
    leftmost_key = min(groups, key=lambda kk: location[kk])
    j = pi.block_of(groups[leftmost_key][0])
    return len(groups[leftmost_key]), delete_block(pi, j)


def _cover_points(params: ExtParams, pts: np.ndarray, rng: RngHandle) -> np.ndarray:
    """1-based GEM(alpha, theta) stick of every point in pts, one row per replicate.

    Stick k of a row covers [1 - R_{k-1}, 1 - R_k), where R_k is the
    residual after k sticks.  Every row breaks the same K = BULK_STICKS
    sticks, W_k ~ beta(1 - alpha, theta + k alpha) with the shapes of
    eppf.stick_float_laws, in one beta call, and a point's label is
    1 + the number of right ends 1 - R_k at or below it.

    Points past stick K are uniform on the tail, whose frequencies are
    GEM(alpha, theta + K alpha), so they are partitioned exactly by one
    crp_assignments call at those parameters for all rows that have
    any; by the CRP's consistency a row with m tail points reads the
    first m columns.  Tail blocks get the labels K + 1, K + 2, ... in
    order of appearance, so labels never exceed K + n.
    """
    if params.kind != TWO_PARAM:
        raise ParameterError("stick covering needs two_param frequencies")
    b, K = pts.shape[0], BULK_STICKS
    laws = list(itertools.islice(stick_float_laws(params), K))
    shape = np.tile([b_k for _, b_k in laws], b)
    w = rng.beta(laws[0][0], shape, size=b * K).reshape(b, K)
    right_ends = 1.0 - np.cumprod(1.0 - w, axis=1)
    col = 1 + (pts[:, :, None] >= right_ends[:, None, :]).sum(axis=2)
    tail = col > K
    m = tail.sum(axis=1)
    if m.any():
        tail_params = ExtParams.two_param(params.alpha, params.theta + K * params.alpha)
        word = crp_assignments(tail_params, int(m.max()), int((m > 0).sum()), rng)
        rows, cols = np.nonzero(tail)  # row-major, so in order of appearance
        slot = np.cumsum(m > 0)[rows] - 1
        rank = np.cumsum(tail, axis=1)[rows, cols] - 1
        col[rows, cols] = K + 1 + word[slot, rank]
    return col


def leftmost_deletion_counts(
    params: ExtParams,
    n: int,
    count: int,
    eps: float,
    rng: RngHandle,
) -> np.ndarray:
    """Monte Carlo law of the leftmost-deleted block size, vectorized.

    Paints n uniform points per replicate, locates them on GEM(alpha,
    theta) sticks (_cover_points), arranges the sticks by the
    xi = theta/alpha order and deletes the leftmost occupied stick;
    entry m of the returned array counts replicates whose deleted block
    had size m.  Supported arrangements are the exchangeable cases
    xi in {0, 1, inf}; other xi need the object path
    (ordered_arrangement + leftmost_delete).

    The deleted size only depends on which occupied stick the
    arrangement puts first.  For xi = 1 every stick label draws an
    i.i.d. uniform key and the point with the smallest key decides;
    xi = 0 additionally forces stick 1 after everything else.  For
    xi = inf (alpha = 0) the smallest label decides: a covered stick
    whenever any point is covered, and otherwise the block of the first
    tail point, a size-biased pick, which has the law of the leftmost
    occupied stick of a GEM(0, theta) tail.

    The result is exact, with no truncation.  eps is validated for
    compatibility but not used.
    """
    if params.kind != TWO_PARAM:
        raise ParameterError("bulk deletion harness needs two_param frequencies")
    xi = params.xi()
    if not (math.isinf(xi) or xi == 0 or xi == 1):
        raise ParameterError(f"bulk harness supports xi in {{0, 1, inf}}, got {xi}")
    check_size("n", n, 1)
    check_size("count", count, 0)
    check_eps(eps)
    counts = np.zeros(n + 1, dtype=np.int64)
    for start in range(0, count, BULK_BATCH):
        b = min(BULK_BATCH, count - start)
        pts = rng.random(b * n).reshape(b, n)
        col = _cover_points(params, pts, rng)
        if math.isinf(xi):
            win = col.min(axis=1)
        else:
            labels = BULK_STICKS + n + 1
            key = rng.random(b * labels).reshape(b, labels)
            if xi == 0:
                key[:, 1] = 1.5  # stick 1 goes after every uniform key
            pick = np.argmin(np.take_along_axis(key, col, axis=1), axis=1)
            win = col[np.arange(b), pick]
        m = (col == win[:, None]).sum(axis=1)
        counts += np.bincount(m, minlength=n + 1)
    return counts
