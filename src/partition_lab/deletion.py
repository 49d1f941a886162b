"""Block deletion kernels and the law of the deleted size.

A deletion kernel picks a block of a partition at random; the family
studied here interpolates between the size-biased pick (tau = 0) and
the co-size-biased pick (tau = 1), with the partition distribution
invariant under deletion exactly at tau = alpha/(alpha + theta).

The decrement matrix q(n, m) is the chance that the block deleted from
a partition of [n] has size m:

    q(n, m) = C(n, m) (1 - alpha)_{m-1} / (theta + n - m)_m
              * ((n - m) alpha + m theta) / n.

decrement_entry evaluates this closed form and is the reference;
decrement_matrix builds each row from its neighbours in O(n) steps,

    q(n, 1)     = ((n - 1) alpha + theta) / (theta + n - 1),
    q(n, m + 1) = q(n, m) (n - m) (m - alpha) ((n - m - 1) alpha + (m + 1) theta)
                  / ((m + 1) ((n - m) alpha + m theta) (theta + n - m - 1))
                  for m <= n - 2,
    q(n, n)     = q(n - 1, n - 1) (n - 1 - alpha) / (theta + n - 1),

so every factor is O(1): the matrix costs O(n_max^2), and float rows
stay finite where the closed form's rising factorials overflow (from
n = 172).  The last entry has its own rule because theta + n - m - 1
vanishes at m = n - 1 when theta = 0.  decrement_matrix writes each
factor once, as an expression in (n, m), in the A, T, L of
core._integer_scale (alpha = A/L, theta = T/L), and hands the three to
that scale's triangle, with the rows as lanes.  For exact parameters
L = lcm(den alpha, den theta), every factor is an integer, and each
entry is one Fraction of the previous entry's numerator and denominator
times the factors, reduced once, row by row.  Float and mixed
parameters have L = 1: the triangle evaluates each factor once per block
of rows, on the block's 2-D index grid, and multiplies along the rows
with one np.multiply.accumulate(axis=1) per block, and down the
diagonal q(n, n) with one more.  Each quotient takes
the IEEE steps of the factor as written above, in the same order, and
the accumulate multiplies each row left to right, so the entries are the
bits of the scalar loop q = q * (top / bottom).  Where decrement_entry's
float products leave the range, it takes core's one log-gamma route,
with C(n, m) as an exact factor, and stays finite past n = 1020.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import (
    TWO_PARAM,
    Composition,
    ExtParams,
    FrequencyVector,
    JsonRecord,
    ParameterError,
    ResidualPickError,
    Scalar,
    _integer_scale,
    check_size,
    exact_div,
    rising_ratio,
    UnsupportedKernelError,
)
from .samplers import RngHandle, _pick
import math


def _require_kernel_params(params: ExtParams) -> None:
    if params.kind != TWO_PARAM:
        raise UnsupportedKernelError(
            "deletion kernels are defined for the two-parameter range only"
        )
    if params.theta < 0:
        raise UnsupportedKernelError("deletion kernels need theta >= 0")
    if params.alpha == 0 and params.theta == 0:
        raise UnsupportedKernelError("deletion kernel undefined at alpha = theta = 0")


def deletion_kernel(parts: Composition | Iterable[int], j: int, params: ExtParams) -> Scalar:
    """Probability that the deletion kernel removes part j (1-based).

    With parameters (alpha, theta), both nonnegative and not both zero,

        d(lambda; j) = (theta lambda_j + alpha (n - lambda_j))
                       / (n (theta + alpha (k - 1))).

    The kernel depends on (alpha, theta) only through
    tau = alpha/(alpha + theta): it is samplers.tau_pick_law(parts, tau)[j - 1].
    """
    lam = Composition.of(parts)
    if not (1 <= j <= lam.k):
        raise ParameterError(f"part index {j} out of range 1..{lam.k}")
    _require_kernel_params(params)
    if lam.k == 1:
        return 1 if params.is_exact_mode else 1.0
    alpha, theta = params.alpha, params.theta
    n = lam.n
    num = theta * lam.parts[j - 1] + alpha * (n - lam.parts[j - 1])
    den = n * (theta + alpha * (lam.k - 1))
    return exact_div(num, den)


@dataclass(frozen=True)
class DecrementMatrix(JsonRecord):
    """Rows n = 1..n_max of the deleted-size law; rows[n-1][m-1] = q(n, m)."""

    n_max: int
    rows: tuple[tuple[Scalar, ...], ...]

    def value(self, n: int, m: int) -> Scalar:
        if not (1 <= m <= n <= self.n_max):
            raise ParameterError(f"need 1 <= m <= n <= {self.n_max}")
        return self.rows[n - 1][m - 1]

    def row(self, n: int) -> tuple[Scalar, ...]:
        if not (1 <= n <= self.n_max):
            raise ParameterError(f"need 1 <= n <= {self.n_max}")
        return self.rows[n - 1]

    def row_sums(self) -> tuple[Scalar, ...]:
        return tuple(sum(r) for r in self.rows)


def decrement_entry(params: ExtParams, n: int, m: int) -> Scalar:
    """q(n, m) for the invariant deletion at tau = alpha/(alpha + theta)."""
    _require_kernel_params(params)
    if not (1 <= m <= n):
        raise ParameterError(f"need 1 <= m <= n, got m={m}, n={n}")
    alpha, theta = params.alpha, params.theta
    if m == n:
        # the (theta + n - m)_m denominator degenerates at theta = 0;
        # q(n, n) reduces to the single-block probability
        return rising_ratio([(1 - alpha, n - 1)], [(theta + 1, n - 1)])
    return rising_ratio([(1 - alpha, m - 1)], [(theta + n - m, m)],
                        [math.comb(n, m), exact_div((n - m) * alpha + m * theta, n)])


def decrement_matrix(params: ExtParams, n_max: int) -> DecrementMatrix:
    """All rows q(n, .) for n up to n_max, exact when the parameters are.

    Uses the row recurrence of the module docstring; the entries are
    equal to decrement_entry's, including their types.
    """
    check_size("n_max", n_max, 1)
    _require_kernel_params(params)
    A, T, L, triangle = _integer_scale(params.alpha, params.theta)

    def row_step(n, m):  # q(n, m + 1) / q(n, m)
        d = n - m
        return (
            d * (m * L - A) * ((d - 1) * A + (m + 1) * T),
            (m + 1) * (d * A + m * T) * (T + n * L - m * L - L),
        )

    rows = triangle(
        lambda n: ((n - 1) * A + T, T + n * L - L),
        row_step,
        lambda n: (n * L - L - A, T + n * L - L),
        n_max,
    )
    return DecrementMatrix(n_max, rows)


def _compositions(n: int):
    """All compositions of n into positive parts; () for n = 0."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def bulk_delete(freq: FrequencyVector, rng: RngHandle) -> tuple[int, FrequencyVector]:
    """Size-biased deletion of one frequency, remainder renormalized.

    One uniform picks index j with probability exactly freq.entries[j-1].
    Raises ResidualPickError when it lands past the stored prefix
    (probability = residual mass).
    """
    if freq.dust != 0:
        raise ParameterError("bulk_delete needs proper frequencies (no dust)")
    j = _pick(map(float, freq.entries), rng.random())
    if j is None:
        raise ResidualPickError("size-biased pick fell into the residual mass")
    kept = freq.entries[:j] + freq.entries[j + 1 :]
    scale = 1 - freq.entries[j]
    if scale <= 0:
        raise ParameterError("deleted the whole mass, nothing to renormalize")
    entries = tuple(p / scale for p in kept)
    return j + 1, FrequencyVector(entries, dust=0, residual=freq.residual / scale)
