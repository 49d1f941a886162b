"""Shared value types for exchangeable partition computations.

Scalars are either exact (int / fractions.Fraction) or float.  Every
function in the package preserves the arithmetic mode of its inputs:
exact in, exact out, unless a routine is documented as float-only
(numerical series, gamma-function evaluations).  Mixing an exact scalar
with a float falls through to float, matching Python semantics.

Ratios of rising factorials go through rising_ratio: the plain product
in the mode of its operands, and log-gamma only when a float product
leaves its range.
Exact eppf, the (alpha, theta) decrement recurrences and
eppf.stick_b_shape take their exact/float split from _integer_scale
instead: in its integers A, T, L the powers of L cancel, so exact eppf
is one integer quotient with no Fraction per factor.
_log_rising_ratio is the one route past the float range: float eppf,
decrement_entry, ScaledBeta and first_color_tail take it, so
decrement_entry and ScaledBeta ratios stay finite past n = 1020.  A
rising term (x)_n with x >= 1024 max(n, 2) takes log B(n, x) from an
asymptotic series, where lgamma(x + n) - lgamma(x) would cancel.
"""

from __future__ import annotations

import bisect
import dataclasses
import json
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Sequence, Union

Scalar = Union[int, Fraction, float]

MASS_TOL = 1e-9
STICK_BUDGET = 1_000_000  # fractions break_sticks consumes before giving up


class ParameterError(ValueError):
    """Raised for parameter values outside the supported ranges."""


class MalformedPartitionError(ValueError):
    """Raised when blocks do not form a partition of {1, ..., n}."""


class UnsupportedKernelError(ValueError):
    """Raised when a deletion kernel is requested outside its domain."""


class ConvergenceError(RuntimeError):
    """Raised when a truncated series fails to meet its tolerance."""


class ResidualPickError(RuntimeError):
    """Raised when a random pick lands in untracked residual mass."""


# ---------------------------------------------------------------------------
# scalar helpers

# Exact types, not isinstance: Fraction is an ABC, so isinstance against
# it is slow, and every float value on an exact/float split would pay it.
_EXACT = {int, Fraction}


def is_exact(x: Scalar) -> bool:
    """True when x is exactly an int or a Fraction (participates in exact mode)."""
    return type(x) in _EXACT


def all_exact(*xs: Scalar) -> bool:
    return all(is_exact(x) for x in xs)


def exact_div(num: Scalar, den: Scalar) -> Scalar:
    """Division that keeps int/int exact instead of floating it."""
    if isinstance(num, int) and isinstance(den, int):
        return Fraction(num, den)
    return num / den


def rising_factorial(x: Scalar, n: int) -> Scalar:
    """(x)_n = x (x+1) ... (x+n-1), with (x)_0 = 1.

    A Fraction x = p/q with n >= 1 gives one Fraction of the integer
    products p (p + q) ... (p + (n-1) q) and q^n, reduced by a single gcd.
    Other bases multiply the factors in turn.
    """
    if not (isinstance(n, int) and n >= 0):
        raise ParameterError(f"rising factorial needs integer n >= 0, got {n}")
    if type(x) is Fraction and n:  # not isinstance, see _EXACT
        p, q = x.numerator, x.denominator
        return Fraction(math.prod(range(p, p + n * q, q)), q ** n)
    out: Scalar = 1
    for i in range(n):
        out = out * (x + i)
    return out


def rising_ratio(num: Sequence[tuple], den: Sequence[tuple], factors: Sequence = ()) -> Scalar:
    """prod(factors) * prod (x)_n over (x, n) in num / prod (y)_m over (y, m) in den.

    The plain product goes factors, / denominator, * numerator terms:
    exact operands give an exact result, and a zero denominator raises
    ZeroDivisionError; a float base makes the result a float even when
    its length is 0.  A float denominator or result out of range (inf,
    nan, 0) sends the ratio to log-gamma, which needs x, y > 0 and
    nonzero factors.
    """
    try:
        out: Scalar = 1
        for f in factors:
            out = out * f
        d: Scalar = 1
        for (y, m) in den:
            if m:
                d = d * rising_factorial(y, m)
            elif isinstance(y, float):
                d = float(d)  # (y)_0 = 1 in the mode of y
        if isinstance(d, float) and not d < math.inf:
            raise OverflowError  # to the log route without the numerator product
        out = exact_div(out, d)
        for (x, n) in num:
            if n:
                out = out * rising_factorial(x, n)
            elif isinstance(x, float):
                out = float(out)  # (x)_0 = 1 in the mode of x
    except OverflowError:  # also an exact factor past the float range meeting a float
        return _log_rising_ratio(num, den, factors)
    if isinstance(out, float) and not 0.0 < abs(out) < math.inf:
        return _log_rising_ratio(num, den, factors)
    return out


# A triangle(first, step, last, n_max, diagonal_lanes) returns the rows
# (q(n, 1), ..., q(n, n)), n = 1..n_max, of a decrement recurrence whose
# factors are (top, bottom) pairs, each one expression in its indices
# that works on ints and on integer arrays alike:
#   q(1, 1) = 1 and q(n, n) = q(n - 1, n - 1) * last(n) along the diagonal;
#   q(n, 1) = first(n) for n >= 2, the start of a lane, which runs
#   along its row, q(n, m + 1) = q(n, m) * step(n, m), m <= n - 2, or,
#   with diagonal_lanes, along its diagonal n - m,
#   q(n + 1, m + 1) = q(n, m) * step(n, m), m < n < n_max.
# Each lane multiplies its factors in turn: q = q * (top / bottom).

def _exact_triangle(first, step, last, n_max: int, diagonal_lanes: bool = False):
    """triangle of the comment above in Fractions, one _exact_chain per lane."""
    diagonal = _exact_chain((1, 1), last, range(2, n_max + 1))
    if diagonal_lanes:
        lanes = [
            iter(_exact_chain(first(j + 1), lambda m, j=j: step(m + j, m), range(1, n_max - j)))
            for j in range(1, n_max)
        ]
        # row n takes the next entry of the diagonals n - 1, n - 2, ..., 1
        inner = (map(next, lanes[n - 2::-1]) for n in range(2, n_max + 1))
    else:
        inner = (_exact_chain(first(n), partial(step, n), range(1, n - 1)) for n in range(2, n_max + 1))
    return ((diagonal[0],),) + tuple((*row, q) for row, q in zip(inner, diagonal[1:]))


def _exact_chain(
    first: tuple[int, int], factor: Callable[[int], tuple[int, int]], ks: range
) -> list[Fraction]:
    q = Fraction(*first)
    out = [q]
    for top, bottom in map(factor, ks):
        q = Fraction(q.numerator * top, q.denominator * bottom)
        out.append(q)
    return out


# Rows per array pass of _float_triangle: a pass's arrays hold at most
# _ROW_BLOCK * n_max cells, whatever n_max is.
_ROW_BLOCK = 128


def _float_triangle(first, step, last, n_max: int, diagonal_lanes: bool = False, dtype=None):
    """triangle of the comment above in floats, one array pass per block of rows.

    Row n of a block takes n cells of a 2-D grid, in order: the lane
    start q(n, 1), the n - 2 step cells, then q(n, n).  Rows start at the
    left edge, and a row lane accumulates along axis 1.  With
    diagonal_lanes rows end at the right edge, so that a diagonal is a
    column; it accumulates along axis 0, and each block goes on from the
    last row of the block before.  step is evaluated once per block on
    the broadcast (row, cell) indices, and only the step cells divide
    top by bottom: every other cell holds 1.0, which multiplies exactly,
    and no cell divides where the scalar loop would not.  q(n, n) comes
    from its own accumulate and is written in after the block's.
    """
    import numpy as np

    # A product past the float range is inf and then 0 or nan, as in
    # Python float arithmetic, which never warns about it.
    with np.errstate(all="ignore"):
        top, bottom = last(np.arange(2, n_max + 1, dtype=dtype))
        diagonal = np.multiply.accumulate(np.concatenate(([1 / 1], top / bottom)))
        rows: list[tuple] = []
        for n0 in range(1, n_max + 1, _ROW_BLOCK):
            ns = np.arange(n0, min(n0 + _ROW_BLOCK, n_max + 1))
            width = int(ns[-1])
            if diagonal_lanes:
                start = width - ns  # the column of q(n, 1)
                at = np.arange(width) - start[:, None]  # 0 at q(n, 1), n - 1 at q(n, n)
                before = ns - 1  # the row of the entry a step multiplies
            else:
                start = np.zeros_like(ns)
                at = np.arange(width)
                before = ns
            grid = np.full((len(ns), width), 1.0, dtype=diagonal.dtype)
            top, bottom = step(np.asarray(before[:, None], dtype), np.asarray(at, dtype))
            np.divide(top, bottom, out=grid, where=(at >= 1) & (at <= ns[:, None] - 2))
            lead = ns >= 2
            top, bottom = first(np.asarray(ns[lead], dtype))
            grid[lead, start[lead]] = top / bottom
            if diagonal_lanes and n0 > 1:
                grid[0, width - len(carry) :] *= carry
            np.multiply.accumulate(grid, axis=0 if diagonal_lanes else 1, out=grid)
            grid[np.arange(len(ns)), start + ns - 1] = diagonal[ns - 1]
            carry = grid[-1]
            for row, i, n in zip(grid, start.tolist(), ns.tolist()):
                rows.append(tuple(row[i : i + n].tolist()))
    return tuple(rows)


def _integer_scale(
    alpha: Scalar, theta: Scalar
) -> tuple[Scalar, Scalar, Scalar, Callable[..., tuple[tuple[Scalar, ...], ...]]]:
    """(A, T, L, triangle) for the decrement recurrences, alpha = A/L and theta = T/L.

    For exact alpha and theta, L = lcm(den alpha, den theta), A = alpha L
    and T = theta L are integers.  Written in A, T and L, every factor of
    the recurrences is an integer, since the L's cancel between numerator
    and denominator, and triangle walks each lane with one Fraction per
    entry: the previous entry's numerator times top over its denominator
    times bottom, reduced once.  Otherwise (A, T, L) = (alpha, theta, 1)
    and triangle makes one array pass per block of rows: it evaluates
    step once on the block's 2-D index grid, divides top by bottom
    elementwise in the step cells and multiplies each lane from its
    start with one np.multiply.accumulate over the block's grid.  The
    entries are then the bits of the scalar loop q = q * (top / bottom):
    with L = 1 a factor written term by term, such as T + n L - m L - L
    for theta + n - m - 1, makes the plain factor's IEEE + - * / steps in
    the same order, numpy rounds each of them as Python floats do, and
    the accumulate runs through each lane in order.  With one exact and
    one float parameter the index arrays hold Python ints (dtype=object),
    since an exact parameter, or its product with an index, may lie past
    int64 (theta = 10**19); each factor is then the scalar loop's Python
    operations, element by element.  The entries come back as Python
    floats (tolist), so their repr is unchanged, and q(1, 1) is 1 in the
    mode of the parameters: Fraction(1) or 1.0.
    """
    if not (is_exact(alpha) or is_exact(theta)):
        return alpha, theta, 1, _float_triangle
    if not all_exact(alpha, theta):
        return alpha, theta, 1, partial(_float_triangle, dtype=object)
    L = math.lcm(alpha.denominator, theta.denominator)
    A, T = alpha.numerator * (L // alpha.denominator), theta.numerator * (L // theta.denominator)
    return A, T, L, _exact_triangle


def _log_beta_large_y(x: float, y: Scalar) -> float:
    """log B(x, y) for y >= 1024 max(x, 2); y may be exact and past the float range.

    log B(x, y) = lgamma(x) - x log y - sum over k >= 1 of
    (-1)^(k+1) (B_{k+1}(x) - B_{k+1}(0)) / (k (k + 1) y^k), with B_j the
    Bernoulli polynomials: the asymptotic series of
    log Gamma(y + x) - log Gamma(y), here to k = 4.  With p = x (x - 1) and
    q = 2x - 1 the numerators are p, p q / 2, p^2 and p q (3p - 1) / 6.
    For x / y <= 1/1024 the remainder, about x (x / y)^5 / 30, is below
    3e-17 x, under the rounding of lgamma(x).
    """
    p, q = x * (x - 1.0), 2.0 * x - 1.0
    r = float(1 / y)
    tail = r * (p / 2 + r * (-p * q / 12 + r * (p * p / 12 - r * p * q * (3 * p - 1) / 120)))
    log_y = math.log(y.numerator) - math.log(y.denominator) if isinstance(y, Fraction) else math.log(y)
    return math.lgamma(x) - x * log_y - tail


def _log_rising(x, n) -> float:
    """log (x)_n for x, x + n > 0.

    lgamma(x + n) - lgamma(x) cancels when x is much larger than n, so a
    base x >= 1024 max(n, 2) takes lgamma(n) - log B(n, x) from the series.
    """
    if x >= 1024 * max(n, 2):
        return math.lgamma(n) - _log_beta_large_y(n, x)
    return math.lgamma(x + n) - math.lgamma(x)


def _log_rising_ratio(num, den, factors) -> float:
    """rising_ratio by log-gamma, for real n, m with x, y, x + n, y + m > 0."""
    sign, log_abs = 1.0, 0.0
    for f in factors:
        sign = sign if f > 0 else -sign
        if is_exact(f):  # an exact f may not fit a float
            log_abs += math.log(abs(f.numerator)) - math.log(f.denominator)
        else:
            log_abs += math.log(abs(f))
    for (x, n) in num:
        if n:
            log_abs += _log_rising(x, n)
    for (y, m) in den:
        if m:
            log_abs -= _log_rising(y, m)
    return sign * math.exp(log_abs)  # OverflowError beyond the float range


def parse_scalar(text: str) -> Scalar:
    """Parse '1/2' or '3' as exact values, '0.5' or 'inf' as floats."""
    s = text.strip()
    if s in ("inf", "Infinity"):
        return math.inf
    if "/" in s:
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError):
            raise ParameterError(f"cannot parse scalar {text!r}") from None
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        raise ParameterError(f"cannot parse scalar {text!r}") from None


def scalar_to_json(x: Scalar):
    """JSON form: ints and floats verbatim, Fractions as {num, den}."""
    if isinstance(x, Fraction):
        return {"num": x.numerator, "den": x.denominator}
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    return x


def _mass_ok(total: Scalar, target: Scalar = 1) -> bool:
    if is_exact(total) and is_exact(target):
        return total == target
    return abs(float(total) - float(target)) <= MASS_TOL


def dumps(obj) -> str:
    """Deterministic JSON encoding used by all serializers."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _value_to_json(v):
    if isinstance(v, tuple):
        return [_value_to_json(x) for x in v]
    return scalar_to_json(v)  # bools and strings pass through unchanged


class JsonRecord:
    """Mixin giving a dataclass record the package's one JSON encoding.

    to_json writes every field that is not None under the field's name:
    tuples become lists, bools and strings stay as they are, and every
    other value goes through scalar_to_json.  The encoding is write-only:
    the CLI prints records and nothing reads them back.
    """

    def to_json(self) -> dict:
        return {
            f.name: _value_to_json(v)
            for f in dataclasses.fields(self)
            if (v := getattr(self, f.name)) is not None
        }


# ---------------------------------------------------------------------------
# parameters of the extended two-parameter family

TWO_PARAM = "two_param"
NEG_ALPHA = "neg_alpha"
COUPON = "coupon"


@dataclass(frozen=True)
class ExtParams(JsonRecord):
    """Parameters of the extended two-parameter partition family.

    Three ranges are supported:

    * ``two_param``: 0 <= alpha < 1, theta > -alpha;
    * ``neg_alpha``: alpha < 0 with theta = -m * alpha for an integer
      m >= 1, so at most m blocks ever appear;
    * ``coupon``: the limit of the previous range as alpha -> -infinity
      with m fixed: n draws from m equally likely colours.

    Use the classmethod constructors; the raw constructor performs no
    validation beyond what they establish.
    """

    kind: str
    alpha: Scalar | None
    theta: Scalar | None
    m: int | None = None

    @classmethod
    def two_param(cls, alpha: Scalar, theta: Scalar) -> "ExtParams":
        if isinstance(alpha, float) or isinstance(theta, float):
            alpha, theta = float_param("alpha", alpha), float_param("theta", theta)
        if not (0 <= alpha < 1):
            raise ParameterError(f"need 0 <= alpha < 1, got {alpha}")
        if not (theta > -alpha):
            raise ParameterError(f"need theta > -alpha, got theta={theta}")
        check_finite("theta", theta)
        return cls(TWO_PARAM, alpha, theta)

    @classmethod
    def neg_alpha(cls, alpha: Scalar, m: int) -> "ExtParams":
        if not (alpha < 0):
            raise ParameterError(f"need alpha < 0, got {alpha}")
        check_finite("alpha", alpha)
        if not (isinstance(m, int) and m >= 1):
            raise ParameterError(f"need integer m >= 1, got {m}")
        return cls(NEG_ALPHA, alpha, -m * alpha, m)

    @classmethod
    def coupon(cls, m: int) -> "ExtParams":
        if not (isinstance(m, int) and m >= 1):
            raise ParameterError(f"need integer m >= 1, got {m}")
        return cls(COUPON, None, None, m)

    @property
    def is_exact_mode(self) -> bool:
        if self.kind == COUPON:
            return True
        return all_exact(self.alpha, self.theta)

    @property
    def max_blocks(self) -> int | None:
        """Upper bound on the number of blocks, None when unbounded."""
        return self.m

    def xi(self) -> Scalar:
        """Order-bias parameter xi = theta / alpha, +inf when alpha = 0."""
        if self.kind != TWO_PARAM:
            raise ParameterError("xi is defined on the two_param range only")
        if self.alpha == 0:
            return math.inf
        return exact_div(self.theta, self.alpha)

    def shifted(self) -> "ExtParams":
        """Parameters after removing the block containing element 1.

        (alpha, theta) moves to (alpha, theta + alpha); the bounded
        ranges drop one block: m moves to m - 1.
        """
        if self.kind == TWO_PARAM:
            return ExtParams.two_param(self.alpha, self.theta + self.alpha)
        if self.m is None or self.m < 2:
            raise ParameterError("cannot shift below one block")
        if self.kind == NEG_ALPHA:
            return ExtParams.neg_alpha(self.alpha, self.m - 1)
        return ExtParams.coupon(self.m - 1)

    def as_float(self) -> "ExtParams":
        if self.kind == COUPON:
            return self
        return ExtParams(self.kind, float(self.alpha), float(self.theta), self.m)


# ---------------------------------------------------------------------------
# compositions and set partitions

@dataclass(frozen=True)
class Composition(JsonRecord):
    """A finite sequence of positive integer parts, order kept."""

    parts: tuple[int, ...]

    def __post_init__(self):
        for p in self.parts:
            if not (isinstance(p, int) and p >= 1):
                raise ParameterError(f"parts must be positive integers, got {p}")

    @classmethod
    def of(cls, parts: "Composition | Iterable[int]") -> "Composition":
        if isinstance(parts, Composition):
            return parts
        return cls(tuple(parts))

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def k(self) -> int:
        return len(self.parts)

    def tail_sums(self) -> tuple[int, ...]:
        """Suffix sums (part_j + ... + part_k) for j = 1..k, plus a final 0."""
        out = [0]
        for p in reversed(self.parts):
            out.append(out[-1] + p)
        return tuple(reversed(out))


@dataclass(frozen=True)
class SetPartition(JsonRecord):
    """A partition of {1, ..., n} in order-of-appearance form.

    Blocks are tuples of increasing integers, listed by their least
    element.  The empty partition (n = 0) is allowed so that deleting
    the last block is total.
    """

    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen = set()
        prev_min = 0
        for b in self.blocks:
            if not b:
                raise MalformedPartitionError("empty block")
            if list(b) != sorted(b):
                raise MalformedPartitionError(f"block {b} not sorted")
            if b[0] <= prev_min:
                raise MalformedPartitionError("blocks not ordered by least element")
            prev_min = b[0]
            for e in b:
                if not (isinstance(e, int) and 1 <= e <= self.n):
                    raise MalformedPartitionError(f"element {e} outside 1..{self.n}")
                if e in seen:
                    raise MalformedPartitionError(f"element {e} repeated")
                seen.add(e)
        if len(seen) != self.n:
            raise MalformedPartitionError("blocks do not cover 1..n")

    @property
    def k(self) -> int:
        return len(self.blocks)

    def block_sizes(self) -> Composition:
        return Composition(tuple(len(b) for b in self.blocks))

    def block_of(self, element: int) -> int:
        """1-based index of the block containing the element."""
        for j, b in enumerate(self.blocks, start=1):
            if element in b:
                return j
        raise MalformedPartitionError(f"element {element} not present")

    def assignment_word(self) -> tuple[int, ...]:
        """Block index of each element 1..n; appearance order makes this canonical."""
        word = [0] * self.n
        for j, b in enumerate(self.blocks, start=1):
            for e in b:
                word[e - 1] = j
        return tuple(word)


def canonicalize(blocks: Iterable[Iterable[int]], n: int | None = None) -> SetPartition:
    """Sort blocks into order-of-appearance form and validate coverage.

    Elements must be exactly 1..n; n defaults to the total element count.
    """
    cleaned = [tuple(sorted(b)) for b in blocks if len(tuple(b)) > 0]
    cleaned.sort(key=lambda b: b[0] if b else 0)
    total = sum(len(b) for b in cleaned)
    if n is None:
        n = total
    return SetPartition(n, tuple(cleaned))


def delete_block(pi: SetPartition, j: int) -> SetPartition:
    """Remove the j-th block (1-based) and relabel what is left.

    The surviving elements are renamed by the unique increasing
    bijection onto {1, ..., n - |B_j|}.
    """
    if not (1 <= j <= pi.k):
        raise MalformedPartitionError(f"block index {j} out of range 1..{pi.k}")
    removed = set(pi.blocks[j - 1])
    survivors = sorted(e for e in range(1, pi.n + 1) if e not in removed)
    relabel = {e: i + 1 for i, e in enumerate(survivors)}
    new_blocks = [tuple(relabel[e] for e in b) for i, b in enumerate(pi.blocks) if i != j - 1]
    return canonicalize(new_blocks, n=len(survivors))


def partition_from_assignment(word: Sequence[int]) -> SetPartition:
    """Inverse of assignment_word for words using labels in appearance order."""
    blocks: dict[int, list[int]] = {}
    for i, lab in enumerate(word, start=1):
        blocks.setdefault(lab, []).append(i)
    return canonicalize(blocks.values(), n=len(word))


# ---------------------------------------------------------------------------
# frequencies

@dataclass(frozen=True)
class ResidualFractions(JsonRecord):
    """Stick-breaking fractions W_1, W_2, ... with a termination flag.

    A fraction equal to 1 exhausts the stick; by convention the sequence
    stops there, so a terminated sequence ends in exactly one 1 and an
    unterminated one contains none.
    """

    fractions: tuple[Scalar, ...]
    terminated: bool = False

    def __post_init__(self):
        fr = self.fractions
        for i, w in enumerate(fr):
            if not (0 <= w <= 1):
                raise ParameterError(f"fraction {w} outside [0, 1]")
            if w == 1 and i != len(fr) - 1:
                raise ParameterError("fraction 1 before the last position")
        if self.terminated:
            if not fr or fr[-1] != 1:
                raise ParameterError("terminated sequence must end in 1")
        elif fr and fr[-1] == 1:
            raise ParameterError("sequence ending in 1 must be flagged terminated")

    @classmethod
    def from_raw(cls, ws: Iterable[Scalar]) -> "ResidualFractions":
        """Truncate a raw sequence at its first 1, flagging termination."""
        kept = []
        for w in ws:
            kept.append(w)
            if w == 1:
                return cls(tuple(kept), terminated=True)
        return cls(tuple(kept), terminated=False)


@dataclass(frozen=True)
class FrequencyVector(JsonRecord):
    """Frequencies in discovery order plus dust and an untracked residual.

    ``entries`` are the atom masses actually produced, ``dust`` is mass
    spread over a continuum (every sample point there is a singleton),
    and ``residual`` is mass beyond a truncation horizon.  The three
    must account for total mass 1, exactly in exact mode and within
    MASS_TOL in float mode.
    """

    entries: tuple[Scalar, ...]
    dust: Scalar = 0
    residual: Scalar = 0

    def __post_init__(self):
        for p in self.entries:
            if not (0 <= p <= 1):
                raise ParameterError(f"frequency {p} outside [0, 1]")
        if not (0 <= self.dust <= 1) or not (0 <= self.residual <= 1):
            raise ParameterError("dust and residual must lie in [0, 1]")
        total = sum(self.entries) + self.dust + self.residual
        if not _mass_ok(total):
            raise ParameterError(f"mass {total} does not account for 1")

    @property
    def k(self) -> int:
        return len(self.entries)


def check_eps(eps: float) -> None:
    """Reject a truncation level outside (0, 1)."""
    if not (0 < eps < 1):
        raise ParameterError(f"need 0 < eps < 1, got {eps}")


def check_finite(name: str, value: Scalar) -> None:
    """Reject an infinite or nan float; exact values are always finite."""
    # isfinite would raise OverflowError on a Fraction past the float range
    if isinstance(value, float) and not math.isfinite(value):
        raise ParameterError(f"need finite {name}, got {value}")


def float_param(name: str, value: Scalar) -> float:
    """float(value); an exact value past the float range is a ParameterError."""
    try:
        return float(value)
    except OverflowError:
        raise ParameterError(f"{name} is past the float range") from None


def check_size(name: str, value: int, least: int) -> None:
    """Reject a size that is not an integer >= least."""
    # int first: the numbers.Integral check alone costs ~0.5 us per call
    if not (isinstance(value, (int, numbers.Integral)) and value >= least):
        raise ParameterError(f"need {name} >= {least}, got {value}")


def break_sticks(
    fractions: Iterable[Scalar], eps: float | None = None
) -> tuple[list[Scalar], Scalar]:
    """Lengths P_i = W_i * prod_{j<i} (1 - W_j) and the leftover prod (1 - W_j).

    Consumes fractions until one equals 1, or, when eps is given, until
    the leftover drops to eps or below.  Without eps only the fractions
    running out ends the loop; a float leftover that underflows to 0
    does not.  Raises ConvergenceError when STICK_BUDGET fractions have
    not stopped it and more follow.
    """
    lengths = []
    remaining: Scalar = 1
    for k, w in enumerate(fractions):
        if k == STICK_BUDGET:
            raise ConvergenceError(f"stick budget {STICK_BUDGET} exhausted above eps={eps}")
        lengths.append(w * remaining)
        remaining = remaining * (1 - w)
        if w == 1 or (eps is not None and remaining <= eps):
            break
    return lengths, remaining


# ---------------------------------------------------------------------------
# interval sets

@dataclass(frozen=True)
class IntervalSet(JsonRecord):
    """Disjoint open subintervals of (0, 1) with an untracked residual mass.

    The intervals are sorted; the residual is mass not covered by any
    stored interval (a truncation artifact), so stored lengths plus the
    residual account for 1.
    """

    intervals: tuple[tuple[Scalar, Scalar], ...]
    residual: Scalar = 0

    def __post_init__(self):
        prev_r: Scalar = 0
        for (l, r) in self.intervals:
            if not (0 <= l < r <= 1):
                raise ParameterError(f"bad interval ({l}, {r})")
            if l < prev_r:
                raise ParameterError("intervals overlap or are unsorted")
            prev_r = r
        if not (0 <= self.residual <= 1):
            raise ParameterError("residual must lie in [0, 1]")
        if not _mass_ok(self.total_length + self.residual):
            raise ParameterError("interval lengths plus residual must reach 1")

    @property
    def total_length(self) -> Scalar:
        return sum((r - l for (l, r) in self.intervals), 0)

    @classmethod
    def from_lengths(cls, lengths: Sequence[Scalar], residual: Scalar = 0) -> "IntervalSet":
        """Lay out lengths contiguously from 0; the residual is the terminal gap."""
        intervals = []
        x: Scalar = 0
        for w in lengths:
            if w < 0:
                raise ParameterError("lengths must be nonnegative")
            # x + w == x when w underflows at float resolution; skip those too
            if w > 0 and x + w > x:
                intervals.append((x, x + w))
                x = x + w
        return cls(tuple(intervals), residual=residual)

    def locate(self, u: Scalar) -> int | None:
        """Index of the interval containing u, None when u falls in a gap."""
        # the last interval with l <= u is the only one that can hold u
        i = bisect.bisect_right(self.intervals, (u, math.inf)) - 1
        if i >= 0 and self.intervals[i][0] < u < self.intervals[i][1]:
            return i
        return None
