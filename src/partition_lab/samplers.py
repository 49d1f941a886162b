"""Random sampling for partitions, frequencies, picks and orders.

Reproducibility contract: an RngHandle is seeded with a 64-bit integer
and every variate is derived from the PCG64 uniform stream by fixed,
documented algorithms.  For a fixed seed and call sequence the output
is identical across runs and platforms (IEEE doubles):

* uniforms: PCG64 via numpy.random.Generator.random;
* normals: Box-Muller, z = sqrt(-2 log(1 - u1)) * cos(2 pi u2), one
  normal per pair of uniforms (the sine half is discarded);
* gamma(a), a >= 1: Marsaglia-Tsang rejection with d = a - 1/3,
  c = 1/sqrt(9 d); propose v = (1 + c x)^3 from a normal x, accept on
  the squeeze u < 1 - 0.0331 x^4 or on log u < x^2/2 + d(1 - v + log v);
* gamma(a), a < 1: gamma(a + 1) * (1 - u)^(1/a);
* beta(a, b): X/(X + Y) for independent gammas X, Y;
* exponentials: -log(1 - u).

Scalar and vectorized paths follow the same algorithms but consume the
uniform stream in different orders, so they are reproducible separately.
The vector gamma runs the log test on every proposal of a round and the
squeeze only where the log test fails.  In exact arithmetic the squeeze
accepts inside the log test's region; the accept set is still the union
of the two tests, so the stream and the output are those of testing
both on every proposal.  The row-wise pick adds its running sums left
to right, in cumsum's order, so each row picks what the scalar pick
does with the same uniform.

Scalar normals, exponentials and gammas draw uniforms in blocks
(Generator.random(k) gives the same doubles as k scalar calls) and
compute every exponential term and the normal of every adjacent pair of
the block in one array pass; they then read the block in stream order.
The scalar gamma reads the block's uniforms and normals in stream order
itself and refills the block where normal() would.  A scalar random()
reads what is left of the block, then draws directly, and never refills
it; a vector call uses up the unread block first and draws fresh
uniforms after it.  Uniforms are therefore consumed exactly as if each
were drawn on its own, and every seeded output is the same as with no
block.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import (
    COUPON,
    ExtParams,
    FrequencyVector,
    IntervalSet,
    ParameterError,
    ResidualFractions,
    Scalar,
    SetPartition,
    all_exact,
    break_sticks,
    check_eps,
    check_size,
    exact_div,
    canonicalize,
    float_param,
    rising_factorial,
)
from .eppf import stick_float_laws

_MASK64 = (1 << 64) - 1
# scalar variates read uniforms from blocks that start at BLOCK_START
# doubles and double per refill up to BLOCK_CAP; the cap stays small
# because every live handle keeps its leftover block
BLOCK_START = 16
BLOCK_CAP = 256


def _splitmix64(z: int) -> int:
    """One SplitMix64 output step; used only to derive child seeds."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class RngHandle:
    """Deterministic random source; see the module docstring for algorithms."""

    def __init__(self, seed: int):
        if not isinstance(seed, int):
            raise ParameterError(f"seed must be an integer, got {seed!r}")
        self.seed = seed & _MASK64
        self._gen = np.random.Generator(np.random.PCG64(self.seed))
        # the uniform block, its exponential terms -log(1 - u_i) and its
        # Box-Muller normals over (u_i, u_{i+1}); _i is the next unread
        # uniform and _k the size of the next block
        self._u: list[float] = []
        self._e: list[float] = []
        self._z: list[float] = []
        self._i = 0
        self._k = BLOCK_START

    def spawn(self, index: int) -> "RngHandle":
        """Independent child handle number `index`, derived by SplitMix64."""
        return RngHandle(_splitmix64(self.seed ^ _splitmix64(index & _MASK64)))

    # -- the uniform stream ------------------------------------------------
    def _refill(self, i: int) -> int:
        """Draw the next block behind the uniforms unread from i; returns the new read position 0."""
        u = self._gen.random(self._k)
        if i < len(self._u):
            u = np.concatenate((self._u[i:], u))
        e, z = _block_terms(u)
        self._u, self._e, self._z = u.tolist(), e.tolist(), z.tolist()
        self._i = 0
        self._k = min(2 * self._k, BLOCK_CAP)
        return 0

    def _uniforms(self, size: int) -> np.ndarray:
        """The next `size` uniforms: the unread block first, then fresh draws."""
        i = self._i
        if i >= len(self._u):
            return self._gen.random(size)
        head = np.array(self._u[i:i + size])
        self._i = i + len(head)
        if len(head) == size:
            return head
        return np.concatenate((head, self._gen.random(size - len(head))))

    # -- uniforms ----------------------------------------------------------
    def random(self, size: int | None = None):
        """Uniform on [0, 1); a float for size None, else a 1-d array."""
        if size is not None:
            return self._uniforms(size)
        i = self._i
        if i >= len(self._u):  # uniforms alone never pay for a block's terms
            return float(self._gen.random())
        self._i = i + 1
        return self._u[i]

    # -- derived variates --------------------------------------------------
    def normal(self, size: int | None = None):
        if size is None:
            i = self._i
            if i + 1 >= len(self._u):
                i = self._refill(i)
            self._i = i + 2
            return self._z[i]
        u1 = self._uniforms(size)
        u2 = self._uniforms(size)
        return np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * math.pi * u2)

    def exponential(self, rate: float = 1.0, size: int | None = None):
        if not rate > 0:
            raise ParameterError(f"rate must be positive, got {rate}")
        if size is None:
            i = self._i
            if i >= len(self._u):
                i = self._refill(i)
            self._i = i + 1
            return self._e[i] / rate
        return -np.log1p(-self._uniforms(size)) / rate

    def gamma(self, shape, size: int | None = None):
        if size is None:
            return self._gamma_scalar(float(shape))
        a = np.broadcast_to(np.asarray(shape, dtype=float), (size,)).copy()
        return self._gamma_vec(a)

    def beta(self, a, b, size: int | None = None):
        """beta(a, b) as a ratio of two gammas drawn in that order."""
        if size is None:
            x, y = self._gamma_scalar(float(a)), self._gamma_scalar(float(b))
        else:
            x, y = self.gamma(a, size), self.gamma(b, size)
        return x / (x + y)

    def _gamma_scalar(self, a: float) -> float:
        """One Marsaglia-Tsang gamma, reading the block's uniforms and normals in stream order.

        A uniform is read at position i and a normal, the pair (u_i, u_{i+1}),
        at i with i + 1; the block is refilled when it holds fewer than the
        one or two uniforms a read needs, as normal() refills it.
        """
        if not a > 0:
            raise ParameterError(f"gamma shape must be positive, got {a}")
        u_, z_, i = self._u, self._z, self._i
        boost = 1.0
        if a < 1.0:
            if i >= len(u_):
                i = self._refill(i)
                u_, z_ = self._u, self._z
            boost = (1.0 - u_[i]) ** (1.0 / a)
            i += 1
            a = a + 1.0
        d = a - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        while True:
            if i + 1 >= len(u_):
                i = self._refill(i)
                u_, z_ = self._u, self._z
            x = z_[i]
            i += 2
            v = (1.0 + c * x) ** 3
            if v <= 0.0:
                continue
            if i >= len(u_):
                i = self._refill(i)
                u_, z_ = self._u, self._z
            u = u_[i]
            i += 1
            if u < 1.0 - 0.0331 * x ** 4 or (
                    u > 0.0 and math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v))):
                self._i = i
                return boost * d * v

    def _gamma_vec(self, a: np.ndarray) -> np.ndarray:
        if not (a > 0).all():
            raise ParameterError("gamma shapes must be positive")
        small = a < 1.0
        # d and c of the pending shapes, compressed along with pending
        d = np.where(small, a + 1.0, a) - 1.0 / 3.0
        c = 1.0 / np.sqrt(9.0 * d)
        out = np.empty(a.shape[0])
        pending = np.arange(a.shape[0])
        while pending.size:
            x = self.normal(pending.size)
            v = (1.0 + c * x) ** 3
            u = self._uniforms(pending.size)
            with np.errstate(divide="ignore", invalid="ignore"):
                ok = np.log(u) < 0.5 * x * x + d * (1.0 - v + np.log(v))
            # the squeeze accepts inside the log test's region in exact
            # arithmetic, so it is computed only where the log test fails
            miss = np.flatnonzero(~ok)
            ok[miss] = u[miss] < 1.0 - 0.0331 * x[miss] ** 4
            ok &= v > 0.0
            out[pending[ok]] = d[ok] * v[ok]
            keep = ~ok
            pending, d, c = pending[keep], d[keep], c[keep]
        if small.any():
            u = self._uniforms(int(small.sum()))
            out[small] *= (1.0 - u) ** (1.0 / a[small])
        return out


def _block_terms(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(-log(1 - u_i), the Box-Muller normal of each adjacent pair (u_i, u_{i+1})).

    Elementwise the same numpy expressions as the vector paths, so each
    term equals the size-1 result for its uniforms.
    """
    log1m = np.log1p(-u)
    return -log1m, np.sqrt(-2.0 * log1m[:-1]) * np.cos(2.0 * math.pi * u[1:])


def _pick(weights: Iterable[float], u: float) -> int | None:
    """First 0-based j with u < w_0 + ... + w_j; None when u passes the total."""
    acc = 0.0
    for j, w in enumerate(weights):
        acc += w
        if u < acc:
            return j
    return None


def _pick_rows(w: np.ndarray, rng: RngHandle) -> np.ndarray:
    """_pick for every row of w at once: one uniform per row, 0-based columns.

    A row's total weight must be positive.  The running sums are built
    one column at a time, left to right as cumsum adds them, on a
    (columns, rows) array, so each count runs along contiguous rows.
    """
    cum = np.empty(w.shape[::-1])
    cum[0] = w[:, 0]
    for j in range(1, len(cum)):
        np.add(cum[j - 1], w[:, j], out=cum[j])
    u = rng.random(w.shape[0]) * cum[-1]
    return (cum <= u).sum(axis=0)


# ---------------------------------------------------------------------------
# sequential partition sampling

def crp_sample(params: ExtParams, n: int, rng: RngHandle) -> SetPartition:
    """Seat elements 1..n one at a time by the usual reinforcement rule.

    Element i + 1 joins an existing block of size s with probability
    (s - alpha)/(i + theta) and opens a new block with probability
    (theta + k alpha)/(i + theta); the coupon range instead picks one of
    m colours uniformly, i.e. each seen block with probability 1/m.
    Elements are seated straight into blocks kept in appearance order,
    with one uniform per seat, and alpha, theta and m are converted to
    floats once per call.
    """
    check_size("n", n, 1)
    blocks = [[1]]
    if n > 1:  # element 1 needs no draw, so n = 1 converts nothing
        coupon = params.kind == COUPON
        if coupon:
            m = float(params.m)
        else:
            alpha, theta = float(params.alpha), float(params.theta)
        for i in range(1, n):
            k = len(blocks)
            if coupon:
                weights = [1.0] * k + [m - k]
                total = m
            else:
                weights = [len(b) - alpha for b in blocks] + [theta + k * alpha]
                total = i + theta
            pick = _pick(weights, rng.random() * total)
            if pick is None or pick == k:
                blocks.append([i + 1])
            else:
                blocks[pick].append(i + 1)
    return SetPartition(n, tuple(map(tuple, blocks)))


def crp_assignments(params: ExtParams, n: int, count: int, rng: RngHandle) -> np.ndarray:
    """Vectorized crp_sample: (count, n) block labels in appearance order.

    Labels are 0-based; row-wise they form the same law as
    crp_sample(params, n, ...).assignment_word() minus 1.
    """
    check_size("n", n, 1)
    check_size("count", count, 0)
    if params.kind == COUPON:
        alpha = theta = None
    else:
        alpha, theta = float(params.alpha), float(params.theta)
    counts = np.zeros((count, n))
    counts[:, 0] = 1.0
    k = np.ones(count, dtype=np.int64)
    words = np.zeros((count, n), dtype=np.int64)
    rows = np.arange(count)
    for i in range(2, n + 1):
        if params.kind == COUPON:
            w = (counts > 0).astype(float)
            new_w = (params.m - k).astype(float)
        else:
            w = np.where(counts > 0, counts - alpha, 0.0)
            new_w = theta + k * alpha
        w[rows, k] = new_w
        idx = _pick_rows(w, rng)
        words[:, i - 1] = idx
        counts[rows, idx] += 1.0
        k += (idx == k).astype(np.int64)
    return words


def gem_sample(
    params: ExtParams,
    rng: RngHandle,
    eps: float = 1e-9,
) -> tuple[ResidualFractions, FrequencyVector]:
    """Draw stick fractions W_k ~ beta(1 - alpha, theta + k alpha) and break sticks.

    Stops once the unbroken mass falls to eps or below, or when a
    deterministic fraction 1 terminates the stick (bounded ranges).
    Raises ConvergenceError if core.STICK_BUDGET fractions do not get there.
    """
    check_eps(eps)
    ws: list[float] = []

    def draws() -> Iterator[float]:
        for law in stick_float_laws(params):
            ws.append(rng.beta(*law) if isinstance(law, tuple) else law)
            yield ws[-1]

    entries, residual = break_sticks(draws(), eps)
    freq = FrequencyVector(tuple(entries), dust=0.0, residual=residual)
    return ResidualFractions.from_raw(ws), freq


def stick_fraction_matrix(params: ExtParams, k: int, count: int, rng: RngHandle) -> np.ndarray:
    """(count, k) i.i.d. rows of the first k stick fractions (vectorized)."""
    check_size("k", k, 1)
    check_size("count", count, 0)
    laws = list(itertools.islice(stick_float_laws(params), k))
    if len(laws) < k:
        raise ParameterError(f"stick index {k} beyond the {params.m} sticks of {params.kind}")
    out = np.empty((count, k))
    for i, law in enumerate(laws):
        out[:, i] = rng.beta(*law, size=count) if isinstance(law, tuple) else law
    return out


def paintbox_sample(
    freqs: FrequencyVector | IntervalSet,
    n: int,
    rng: RngHandle,
) -> SetPartition:
    """Partition of [n] induced by n uniform points on a painted interval.

    Points falling in the same stored interval share a block; points in
    dust, residual, or any uncovered gap are singletons.
    """
    check_size("n", n, 1)
    if isinstance(freqs, FrequencyVector):
        iv = IntervalSet.from_lengths(
            [float(p) for p in freqs.entries],
            residual=float(freqs.dust) + float(freqs.residual),
        )
    else:
        iv = freqs
    groups, _ = _paint(iv, n, rng)
    return canonicalize(groups.values(), n=n)


def _paint(iv: IntervalSet, n: int, rng: RngHandle) -> tuple[dict, dict]:
    """Groups of 1..n by a uniform point each (gap points alone) and where each group sits."""
    groups: dict[object, list[int]] = {}
    location: dict[object, float] = {}
    for e in range(1, n + 1):
        u = rng.random()
        idx = iv.locate(u)
        key = ("gap", e) if idx is None else ("atom", idx)
        groups.setdefault(key, []).append(e)
        location.setdefault(key, float(iv.intervals[idx][0]) if idx is not None else u)
    return groups, location


# ---------------------------------------------------------------------------
# biased picks and permutations

def _check_weights(x: Sequence[Scalar]) -> None:
    if len(x) == 0:
        raise ParameterError("need at least one weight")
    for v in x:
        if not (0 <= v < math.inf):
            raise ParameterError(f"weight {v} is not a finite nonnegative number")


def tau_pick_law(x: Sequence[Scalar], tau: Scalar) -> list[Scalar]:
    """Probabilities of the tau-biased pick from positive weights x.

    Index j is chosen with probability proportional to
    (1 - tau) x_j + tau (s - x_j), s = sum(x): tau = 0 is the
    size-biased pick, tau = 1/2 uniform, tau = 1 co-size-biased.
    A float total past the float range is a ParameterError.
    """
    _check_weights(x)
    if any(v == 0 for v in x):
        raise ParameterError("tau-biased pick needs strictly positive weights")
    if not (0 <= tau <= 1):
        raise ParameterError(f"need 0 <= tau <= 1, got {tau}")
    k = len(x)
    if k == 1:
        return [1 if all_exact(tau, *x) else 1.0]
    try:
        s = sum(x)
        total = s * (1 - tau + tau * (k - 1))  # >= s, so inf when s is
        if isinstance(total, float) and not total < math.inf:
            raise OverflowError
    except OverflowError:  # also an exact weight past the float range meeting a float
        raise ParameterError("tau-biased pick weights sum past the float range") from None
    weights = [(1 - tau) * v + tau * (s - v) for v in x]
    return [exact_div(w, total) for w in weights]


def tau_biased_pick(x: Sequence[Scalar], tau: Scalar, rng: RngHandle) -> int:
    """Sample the tau-biased pick; returns a 1-based index."""
    j = _pick(map(float, tau_pick_law(x, tau)), rng.random())
    return len(x) if j is None else j + 1


def tau_biased_perm(x: Sequence[Scalar], tau: Scalar, rng: RngHandle) -> tuple[int, ...]:
    """Exhaust x by repeated tau-biased picks without replacement.

    Returns the original indices (1-based) in pick order; tau = 0 gives
    the size-biased permutation.
    """
    _check_weights(x)
    remaining = list(range(len(x)))
    out = []
    while remaining:
        sub = [x[i] for i in remaining]
        j = tau_biased_pick(sub, tau, rng)
        out.append(remaining.pop(j - 1) + 1)
    return tuple(out)


def tau_perm_probability(x: Sequence[Scalar], tau: Scalar, perm: Sequence[int]) -> Scalar:
    """Exact probability that tau_biased_perm produces the given pick order.

    The per-order reference; oracle.tau_perm_law gives every order at once.
    """
    k = len(x)
    if sorted(perm) != list(range(1, k + 1)):
        raise ParameterError(f"{perm} is not a permutation of 1..{k}")
    remaining = list(range(1, k + 1))
    prob: Scalar = 1
    for target in perm:
        law = tau_pick_law([x[i - 1] for i in remaining], tau)
        prob = prob * law[remaining.index(target)]
        remaining.remove(target)
    return prob


# ---------------------------------------------------------------------------
# xi-biased orders

@dataclass(frozen=True)
class XiOrder:
    """A sampled left-to-right arrangement of 1..k with its insertion ranks.

    ``ranks[j-1]`` is the position (1-based from the left) at which
    element j entered; ``arrangement`` lists the elements left to right.
    """

    k: int
    ranks: tuple[int, ...]
    arrangement: tuple[int, ...]


def arrangement_from_ranks(ranks: Sequence[int]) -> tuple[int, ...]:
    """Replay insertions: element j enters at position ranks[j-1]."""
    out: list[int] = []
    for j, r in enumerate(ranks, start=1):
        if not (1 <= r <= j):
            raise ParameterError(f"rank {r} for element {j} outside 1..{j}")
        out.insert(r - 1, j)
    return tuple(out)


def xi_order(k: int, xi: Scalar, rng: RngHandle) -> XiOrder:
    """Sample the xi-biased random order on 1..k.

    Element j enters at the rightmost position with probability
    xi/(j - 1 + xi) and at each of the j - 1 older positions with
    probability 1/(j - 1 + xi).  xi = 1 is the uniform order, xi = 0
    keeps element 1 rightmost (others uniform), xi = inf is the
    standard left-to-right order.
    """
    check_size("k", k, 1)
    if not (xi >= 0):
        raise ParameterError(f"need xi >= 0, got {xi}")
    ranks = list(range(1, k + 1))  # every element rightmost, the order at xi = inf
    xif = float(xi) if k > 1 else math.inf  # k = 1 needs no draw and converts nothing
    if not math.isinf(xif):
        for j in range(2, k + 1):
            u = rng.random() * (j - 1 + xif)
            if u >= xif:
                ranks[j - 1] = 1 + min(int(u - xif), j - 2)
    return XiOrder(k, tuple(ranks), arrangement_from_ranks(ranks))


def xi_arrangements(k: int, xi: Scalar, count: int, rng: RngHandle) -> np.ndarray:
    """Vectorized xi_order: (count, k) arrangements, elements 1..k."""
    check_size("k", k, 1)
    check_size("count", count, 0)
    if not (xi >= 0):
        raise ParameterError(f"need xi >= 0, got {xi}")
    if math.isinf(xi):
        return np.tile(np.arange(1, k + 1), (count, 1))
    xif = float(xi)
    # slot[e - 1] is element e's 0-based position among those inserted so far
    slot = np.zeros((k, count), dtype=np.int64)
    for j in range(2, k + 1):
        u = rng.random(count) * (j - 1 + xif)
        p = np.where(u < xif, j - 1, np.minimum((u - xif).astype(np.int64), j - 2))
        head = slot[: j - 1]
        head += head >= p
        slot[j - 1] = p
    arr = np.empty((count, k), dtype=np.int64)
    np.put_along_axis(arr, slot.T, np.arange(1, k + 1)[None, :], axis=1)
    return arr


def size_biased_perms(x: Sequence[float], count: int, rng: RngHandle) -> np.ndarray:
    """Vectorized size-biased permutations of indices 1..k under weights x.

    The weights as floats, and their sum, must lie in the float range.
    """
    check_size("count", count, 0)
    _check_weights(x)
    k = len(x)
    w0 = np.asarray([float_param("weight", v) for v in x])
    if (w0 <= 0).any():
        raise ParameterError("need strictly positive weights")
    # the running sum _pick_rows takes, left to right; every row's total is at most this
    with np.errstate(over="ignore"):
        if not w0.cumsum()[-1] < math.inf:
            raise ParameterError("size-biased weights sum past the float range")
    alive = np.ones((count, k), dtype=bool)
    out = np.empty((count, k), dtype=np.int64)
    rows = np.arange(count)
    for step in range(k):
        w = np.where(alive, w0[None, :], 0.0)
        idx = _pick_rows(w, rng)
        out[:, step] = idx + 1
        alive[rows, idx] = False
    return out


def right_record_count(arrangement: Sequence[int]) -> int:
    """Number of elements sitting to the right of every smaller element.

    Element 1 always counts.  This is the record statistic governing the
    probability of an arrangement under the xi-biased order.
    """
    k = len(arrangement)
    if sorted(arrangement) != list(range(1, k + 1)):
        raise ParameterError(f"{arrangement} is not an arrangement of 1..{k}")
    pos = {e: i for i, e in enumerate(arrangement)}
    count = 0
    best = -1
    for e in range(1, k + 1):
        if pos[e] > best:
            count += 1
        best = max(best, pos[e])
    return count


def order_probability(xi: Scalar, arrangement: Sequence[int]) -> Scalar:
    """P(the xi-biased order produces this left-to-right arrangement).

    Equals xi^r / (xi)_k where r = right_record_count(arrangement),
    with the degenerate conventions at xi = 0 (element 1 rightmost,
    the rest uniform) and xi = inf (standard order only).
    """
    k = len(arrangement)
    r = right_record_count(arrangement)
    if isinstance(xi, float) and math.isinf(xi):
        return 1.0 if tuple(arrangement) == tuple(range(1, k + 1)) else 0.0
    if not (xi >= 0):
        raise ParameterError(f"need xi >= 0, got {xi}")
    if xi == 0:
        # element 1 rightmost (r = 1), the rest uniform; xi ** 0 is 1 in the mode of xi
        return exact_div(xi ** 0 if r == 1 else xi, math.factorial(k - 1))
    return exact_div(xi ** r, rising_factorial(xi, k))
