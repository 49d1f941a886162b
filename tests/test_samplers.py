"""Random sources, partition samplers, biased picks and orders."""

import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from partition_lab import cli, core, regen, samplers
from partition_lab.core import (
    ConvergenceError,
    ExtParams,
    FrequencyVector,
    IntervalSet,
    ParameterError,
    canonicalize,
)
from partition_lab.eppf import eppf
from partition_lab.oracle import chi_square, enumerate_partitions, tau_perm_law
from partition_lab.samplers import (
    RngHandle,
    arrangement_from_ranks,
    crp_assignments,
    crp_sample,
    gem_sample,
    order_probability,
    paintbox_sample,
    right_record_count,
    size_biased_perms,
    stick_fraction_matrix,
    tau_biased_perm,
    tau_biased_pick,
    tau_perm_probability,
    tau_pick_law,
    xi_arrangements,
    xi_order,
)


# ---------------------------------------------------------------------------
# random source

def test_rng_streams_are_reproducible():
    # frozen stream values; the documented algorithms make these stable
    r = RngHandle(42)
    assert [r.random() for _ in range(2)] == [0.7739560485559633, 0.4388784397520523]
    assert RngHandle(42).random(2).tolist() == [0.7739560485559633, 0.4388784397520523]
    assert RngHandle(42).spawn(0).random() == 0.0022561556741264033
    assert RngHandle(42).spawn(1).random() == 0.5860378445322234


@pytest.mark.parametrize(
    ("method", "args", "scalar", "vector"),
    [
        ("normal", (), [-1.5989268385861057, -0.6422446965832835],
         [1.0875171856576933, -0.34905600789477786]),
        ("gamma", (0.5,), [0.10539870491647062, 1.136325951461815],
         [0.15859105217320818, 0.03793283270263909]),
        ("gamma", (2.5,), [0.5624439671109495, 4.657610351397535],
         [4.194042814917378, 1.6924133975451119]),
        ("beta", (2.0, 3.0), [0.059226498617508484, 0.577264205098416],
         [0.40817406008528584, 0.6221439774409914]),
    ],
    ids=["normal", "gamma_small_shape", "gamma_large_shape", "beta"],
)
def test_variate_streams_frozen(method, args, scalar, vector):
    # scalar and vector paths consume the stream differently, so pin both
    r = RngHandle(42)
    assert [getattr(r, method)(*args) for _ in range(2)] == scalar
    assert getattr(RngHandle(42), method)(*args, size=2).tolist() == vector


MIXED_STREAM_SHA256 = {
    1: "dc8cb479b8a7d0fbf375c6b435158eaed849e876586bccc22138dbc43f7e4de8",
    2: "2a825f26f8b56b2612e1d3fed70a2bd35d8ecea123a7a1f0c3dc47612ec26331",
    3: "9f36d72b7d7dcd5938a651eae5348458074bde1fd310b258bad550f4939f8990",
}


def _mixed_stream_digest(seed: int, calls: int = 6000) -> str:
    """sha256 of the outputs of a scripted interleaving of scalar and vector draws.

    A separate Python script RNG picks each call, so single uniforms and
    odd vector sizes shift where the next normal's pair starts.
    """
    r = RngHandle(seed)
    script = random.Random(seed)
    h = hashlib.sha256()
    for _ in range(calls):
        p = script.random()
        if p < 0.2:
            out = r.random()
        elif p < 0.45:
            out = r.normal()
        elif p < 0.57:
            out = r.exponential(2.5 if script.random() < 0.5 else 0.75)
        elif p < 0.67:
            out = r.gamma(0.5)
        elif p < 0.77:
            out = r.gamma(2.5)
        elif p < 0.88:
            out = r.beta(0.5, 1.5) if script.random() < 0.5 else r.beta(1.0, 3.0)
        else:
            size = script.randint(1, 300)
            q = script.random()
            if q < 0.3:
                out = r.random(size)
            elif q < 0.6:
                out = r.normal(size)
            elif q < 0.8:
                out = r.gamma(0.5 if q < 0.7 else 2.5, size)
            else:
                out = r.exponential(1.5, size)
        h.update(np.asarray(out, dtype="<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("seed", sorted(MIXED_STREAM_SHA256))
def test_mixed_variate_stream_frozen(seed):
    # pins every algorithm and the order in which scalar and vector calls
    # consume the uniform stream, across many refills of any internal buffer
    assert _mixed_stream_digest(seed) == MIXED_STREAM_SHA256[seed]


def test_vector_draw_continues_scalar_stream():
    # random, normal and exponential use a known number of uniforms, so a
    # vector draw after them must read the next uniforms of the raw stream
    for seed in (1, 2, 3):
        ref = RngHandle(seed).random(20000)
        r = RngHandle(seed)
        used = 0
        for size in (3, 1, 100, 257, 2, 500, 64, 1000):
            for j in range(size % 7 + 5):
                if j % 3 == 0:
                    assert r.random() == ref[used]
                    used += 1
                elif j % 3 == 1:
                    r.normal()
                    used += 2
                else:
                    r.exponential(3.0)
                    used += 1
            assert r.random(size).tolist() == ref[used:used + size].tolist()
            used += size
            u1, u2 = ref[used:used + size], ref[used + size:used + 2 * size]
            z = np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * math.pi * u2)
            assert r.normal(size).tolist() == z.tolist()
            used += 2 * size
        assert r.random() == ref[used]


def test_block_terms_equal_size_one_results():
    # scalar normals and exponentials are read from terms computed over a
    # whole block; the seeded streams stay byte-identical only if numpy gives
    # the same doubles there as on size-1 arrays, so any mismatch must fail
    u = RngHandle(11).random(4096)
    expo, normals = samplers._block_terms(u)
    assert len(expo) == 4096 and len(normals) == 4095
    bad = []
    for i in range(4096):
        one = u[i:i + 1]
        if expo[i] != (-np.log1p(-one))[0]:
            bad.append(("exponential", i))
        if i < 4095 and normals[i] != (np.sqrt(-2.0 * np.log1p(-one))
                                       * np.cos(2.0 * math.pi * u[i + 1:i + 2]))[0]:
            bad.append(("normal", i))
    assert bad == [], f"{len(bad)} block terms differ from size-1 results: {bad[:5]}"


def test_scalar_block_starts_lazily_and_stays_small():
    # uniform-only and vector callers never pay for a block's terms; once
    # scalar normals start, blocks double from BLOCK_START up to BLOCK_CAP
    r = RngHandle(4)
    r.random()
    r.random(7)
    r.gamma(0.5, size=20)
    assert r._u == []
    r.normal()
    assert len(r._u) == samplers.BLOCK_START
    for _ in range(5000):
        r.normal()
        assert len(r._u) <= samplers.BLOCK_CAP + 1
    # a scalar uniform after the block is used up draws directly
    block = r._u
    r.random(len(block) - r._i)
    r.random()
    assert r._u is block and r._i == len(block)


def test_rng_rejects_bad_seed():
    with pytest.raises(ParameterError):
        RngHandle(1.5)


def test_gamma_beta_moments():
    r = RngHandle(3)
    g = r.gamma(2.5, size=20000)
    assert g.mean() == pytest.approx(2.5, abs=4 * 2.5 ** 0.5 / 20000 ** 0.5)
    b = r.beta(2.0, 3.0, size=20000)
    assert b.mean() == pytest.approx(0.4, abs=0.01)
    assert (0 < b).all() and (b < 1).all()


# ---------------------------------------------------------------------------
# partition samplers

def test_crp_trivial_and_frozen():
    assert crp_sample(ExtParams.two_param(0, 1), 1, RngHandle(7)) == canonicalize([[1]])
    pi = crp_sample(ExtParams.two_param(0, 1), 5, RngHandle(7))
    assert pi.blocks == ((1,), (2, 5), (3,), (4,))


@pytest.mark.parametrize(
    "params",
    [
        ExtParams.two_param(0, 1),
        ExtParams.two_param(Fraction(1, 2), Fraction(1, 2)),
        ExtParams.coupon(3),
    ],
    ids=str,
)
def test_crp_matches_eppf_law(params):
    n, count = 4, 4000
    partitions = enumerate_partitions(n)
    index = {pi: i for i, pi in enumerate(partitions)}
    probs = [eppf(params, pi.block_sizes()) for pi in partitions]
    rng = RngHandle(2024)
    counts = np.zeros(len(partitions), dtype=np.int64)
    for _ in range(count):
        counts[index[crp_sample(params, n, rng)]] += 1
    stat, dof, pval = chi_square(counts, probs)
    assert pval > 1e-3


def test_crp_assignments_matches_sequential_law():
    params = ExtParams.two_param(Fraction(1, 2), Fraction(1, 2))
    n, count = 4, 4000
    words = crp_assignments(params, n, count, RngHandle(5))
    assert words.shape == (count, n)
    assert (words[:, 0] == 0).all()
    partitions = enumerate_partitions(n)
    probs = [eppf(params, pi.block_sizes()) for pi in partitions]
    index = {pi.assignment_word(): i for i, pi in enumerate(partitions)}
    counts = np.zeros(len(partitions), dtype=np.int64)
    for w in words + 1:
        counts[index[tuple(int(v) for v in w)]] += 1
    stat, dof, pval = chi_square(counts, probs)
    assert pval > 1e-3


def test_crp_respects_block_bounds():
    rng = RngHandle(9)
    for params in (ExtParams.coupon(2), ExtParams.neg_alpha(-1, 2)):
        for _ in range(200):
            assert crp_sample(params, 6, rng).k <= 2


def test_gem_sample_terminating_ranges_are_exact():
    rf, fv = gem_sample(ExtParams.coupon(4), RngHandle(1))
    assert rf.terminated and fv.residual == 0
    assert fv.entries == (0.25, 0.25, 0.25, 0.25)
    rf, fv = gem_sample(ExtParams.neg_alpha(-1, 3), RngHandle(1))
    assert rf.terminated and len(fv.entries) == 3
    assert sum(fv.entries) == pytest.approx(1.0, abs=1e-12)


def test_gem_sample_truncation_contract(monkeypatch):
    rf, fv = gem_sample(ExtParams.two_param(Fraction(1, 2), Fraction(1, 2)), RngHandle(4), eps=1e-3)
    assert 0 <= fv.residual <= 1e-3
    assert (list(fv.entries), fv.residual) == core.break_sticks(rf.fractions)
    monkeypatch.setattr(core, "STICK_BUDGET", 30)
    with pytest.raises(ConvergenceError):
        # residual decays like k**-1 here; 30 sticks cannot reach 1e-6
        gem_sample(ExtParams.two_param(Fraction(1, 2), Fraction(1, 2)), RngHandle(4), eps=1e-6)
    for eps in (0.0, 1.0):
        with pytest.raises(ParameterError):
            gem_sample(ExtParams.two_param(Fraction(1, 2), Fraction(1, 2)), RngHandle(4), eps=eps)


# sha256 of dumps((rf.to_json(), fv.to_json())) for seeds 1, 2, 3, recorded
# from the per-stick stick_fraction_law implementation
GEM_GOLDEN = {
    "1/2,1/2 eps=1e-3": (ExtParams.two_param(Fraction(1, 2), Fraction(1, 2)), 1e-3, (
        "fd654f7c1cf3479e571fa17280b5e34b5a941a544211416eb911726dbc8377c7",
        "688f25f34f984d4cffa1c4fa38e3f473508539d981b180ef5e65c6c8e1084723",
        "44c751a3718cd92b9d1745fca89b5f488e224391ef8692746365898ff4496a30",
    )),
    "int 0,1": (ExtParams.two_param(0, 1), None, (
        "778b3633a421564f130291eb53793bba03f64ab9a2934f256491734ceda41cd5",
        "18ad049f7b1c3e1970284d8c2f178042aa28e463e765def530c3fd94495e2e6b",
        "0e0aa3af7e83f40824aa1414f6fd5c3474b474751b96e3ffb526ec5d6e4e04ff",
    )),
    "1/3,1/7": (ExtParams.two_param(Fraction(1, 3), Fraction(1, 7)), None, (
        "40e44ba64c24d724042db4bd8b33a28374013cd6a8c171a32db4bbcc2482c3da",
        "0b2ab552fb984772679c2ef411a55d9d9334f299a652010f92f8e042efe082a1",
        "cc08ef5bb2c9ef07e502e609278f549562e62e0bcf796d3b895dd9817bd57338",
    )),
    "0.25,0.5 eps=1e-6": (ExtParams.two_param(0.25, 0.5), 1e-6, (
        "301610d87510d6894049f8ee690f0d6184f865fcb93e0f1c01abf1422b419a5d",
        "847e0c1bb6e89da5c54fb1a87e64a3d868b3f083bd7881d56146bb4adea52c6b",
        "3bdcaa524a185edd20e75def05dd15bd1f472fbce58b394ffc551bcfc42af2b2",
    )),
    "neg_alpha(-1,3)": (ExtParams.neg_alpha(-1, 3), None, (
        "8fb5c5e445762c7c1d2e00ff888f441abb8bb1ceb9337b343a83321af88d1b28",
        "481b3bb2904a00d78a7cdd09a046abac9e826b57d478cedc27735d3bc92e09a9",
        "cfc942413db7a17336ad291a9802440f68b559232ecb45be21d98dfd82ae4a33",
    )),
    "coupon(4)": (ExtParams.coupon(4), None, (
        "5bb9d626d37a2d9c18a5978eabd31cf475077827d7a5789f4d8fadd47d8f1362",
    ) * 3),
}


@pytest.mark.parametrize("point", sorted(GEM_GOLDEN))
def test_gem_sample_golden(point):
    params, eps, digests = GEM_GOLDEN[point]
    kwargs = {} if eps is None else {"eps": eps}
    for seed, digest in zip((1, 2, 3), digests):
        rf, fv = gem_sample(params, RngHandle(seed), **kwargs)
        text = core.dumps((rf.to_json(), fv.to_json()))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (point, seed)


@pytest.mark.parametrize(
    ("args", "digest"),
    [
        (("sample", "--model", "gem", "--alpha", "1/2", "--theta", "1/2", "--eps", "1e-3",
          "--seed", "1", "--count", "3"),
         "69a3ecae33de6c55fad699dccb1fa1a27b57cd6d7901da04b1c5512f48613c6e"),
        (("regen-set", "--model", "ordered", "--alpha", "1/2", "--theta", "1/2", "--eps", "1e-3",
          "--seed", "1"),
         "fa0261e9af1ffd98d18216640b699c1da1216104e4017db203a669e31478e143"),
    ],
)
def test_gem_cli_golden(capsys, args, digest):
    assert cli.main(list(args)) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert hashlib.sha256(out.out.encode()).hexdigest() == digest


HH = ExtParams.two_param(Fraction(1, 2), Fraction(1, 2))
SIZE_CALLS = {
    "leftmost n=0": lambda r: regen.leftmost_deletion_counts(HH, 0, 10, 1e-3, r),
    "leftmost n=-1": lambda r: regen.leftmost_deletion_counts(HH, -1, 10, 1e-3, r),
    "leftmost count=-5": lambda r: regen.leftmost_deletion_counts(HH, 5, -5, 1e-3, r),
    "crp n=0": lambda r: crp_assignments(HH, 0, 10, r),
    "crp count=-1": lambda r: crp_assignments(HH, 4, -1, r),
    "perms count=-1": lambda r: size_biased_perms([0.5, 0.5], -1, r),
    "xi k=0": lambda r: xi_arrangements(0, 1, 10, r),
    "xi count=-1": lambda r: xi_arrangements(3, 1, -1, r),
    "xi xi=-1": lambda r: xi_arrangements(3, -1, 10, r),
    "xi xi=nan": lambda r: xi_arrangements(3, math.nan, 10, r),
    "fractions count=-1": lambda r: stick_fraction_matrix(HH, 3, -1, r),
}


@pytest.mark.parametrize("label", SIZE_CALLS)
def test_vectorized_samplers_reject_bad_sizes(label):
    with pytest.raises(ParameterError, match=r"need (n|k|count|xi) >= [01], got"):
        SIZE_CALLS[label](RngHandle(0))


def test_size_biased_perms_rejects_empty_weights():
    with pytest.raises(ParameterError, match="need at least one weight"):
        size_biased_perms([], 3, RngHandle(0))


WEIGHTED_CALLS = {
    "tau_biased_perm": lambda x, r: tau_biased_perm(x, Fraction(1, 4), r),
    "size_biased_perms": lambda x, r: size_biased_perms(x, 2, r),
    "tau_biased_pick": lambda x, r: tau_biased_pick(x, Fraction(1, 4), r),
}


@pytest.mark.parametrize("label", WEIGHTED_CALLS)
@pytest.mark.parametrize("x", [[math.nan], [math.nan, 0.5], [0.5, math.inf], [-0.5, 0.5]])
def test_weighted_samplers_reject_nonfinite_and_negative_weights(label, x):
    with pytest.raises(ParameterError, match="is not a finite nonnegative number"):
        WEIGHTED_CALLS[label](x, RngHandle(0))


def test_vectorized_samplers_allow_zero_count():
    assert (regen.leftmost_deletion_counts(HH, 5, 0, 1e-3, RngHandle(0)) == 0).all()
    assert crp_assignments(HH, 4, 0, RngHandle(0)).shape == (0, 4)
    assert xi_arrangements(3, 1, 0, RngHandle(0)).shape == (0, 3)
    assert stick_fraction_matrix(HH, 3, 0, RngHandle(0)).shape == (0, 3)
    assert size_biased_perms([0.5, 0.5], 0, RngHandle(0)).shape == (0, 2)


def test_stick_fraction_matrix_moments():
    # W_i ~ beta(1 - alpha, theta + i alpha); compare first two moments at 4 SE
    params = ExtParams.two_param(0.5, 0.5)
    count = 20000
    mat = stick_fraction_matrix(params, 3, count, RngHandle(8))
    for i in range(1, 4):
        a, b = 0.5, 0.5 + 0.5 * i
        w = mat[:, i - 1]
        mean = a / (a + b)
        var = a * b / ((a + b) ** 2 * (a + b + 1))
        assert w.mean() == pytest.approx(mean, abs=4 * (var / count) ** 0.5)
        m2 = a * (a + 1) / ((a + b) * (a + b + 1))
        se2 = ((w ** 2).var() / count) ** 0.5
        assert (w ** 2).mean() == pytest.approx(m2, abs=4 * se2 + 1e-12)


def test_paintbox_degenerate_and_dust():
    whole = FrequencyVector((1,))
    assert paintbox_sample(whole, 5, RngHandle(3)).k == 1
    alldust = FrequencyVector((), dust=1)
    pi = paintbox_sample(alldust, 5, RngHandle(3))
    assert pi.k == 5  # dust points are singletons
    iv = IntervalSet.from_lengths([Fraction(1, 2)], residual=Fraction(1, 2))
    seen = {paintbox_sample(iv, 2, RngHandle(s)).k for s in range(40)}
    assert seen == {1, 2}


def test_paintbox_matches_eppf_law():
    # paintbox over exact GEM frequencies reproduces the partition law
    params = ExtParams.two_param(0, 1)
    n, count = 4, 3000
    partitions = enumerate_partitions(n)
    probs = [eppf(params, pi.block_sizes()) for pi in partitions]
    index = {pi: i for i, pi in enumerate(partitions)}
    rng = RngHandle(77)
    counts = np.zeros(len(partitions), dtype=np.int64)
    for _ in range(count):
        _, fv = gem_sample(params, rng, eps=1e-9)
        counts[index[paintbox_sample(fv, n, rng)]] += 1
    stat, dof, pval = chi_square(counts, probs)
    assert pval > 1e-3


# ---------------------------------------------------------------------------
# biased picks

@pytest.mark.parametrize(
    ("x", "tau", "law"),
    [
        ((1, 3), 0, [Fraction(1, 4), Fraction(3, 4)]),
        ((1, 3), 1, [Fraction(3, 4), Fraction(1, 4)]),
        ((1, 3), Fraction(1, 2), [Fraction(1, 2), Fraction(1, 2)]),
        ((2, 3, 5), 0, [Fraction(1, 5), Fraction(3, 10), Fraction(1, 2)]),
    ],
)
def test_tau_pick_law_values(x, tau, law):
    assert tau_pick_law(x, tau) == law


def test_tau_pick_law_rejects():
    with pytest.raises(ParameterError):
        tau_pick_law((1, 0), Fraction(1, 2))
    with pytest.raises(ParameterError):
        tau_pick_law((1, 2), 2)


@pytest.mark.parametrize(("x", "tau"), [
    # the float total is inf: the law read [nan, nan] and every pick fell to the last index
    ((1e308, 1e308), 0),
    ((1e308, 1e308, 1e308), Fraction(1, 2)),
    ((1.7e308, 1e308), 1),
    # a finite sum whose total s (1 - tau + tau (k - 1)) is inf: the law read zeros
    ((1e308, 1e307, 1e307), 1),
    # an exact weight past the float range meeting a float: OverflowError before
    ((10 ** 400, 1), 0.5),
    ((10 ** 400, 1.0), Fraction(1, 2)),
])
def test_tau_pick_rejects_a_total_past_the_float_range(x, tau):
    with pytest.raises(ParameterError):
        tau_pick_law(x, tau)
    with pytest.raises(ParameterError):
        tau_biased_perm(x, tau, RngHandle(1))


def test_tau_pick_law_keeps_exact_weights_past_the_float_range():
    assert tau_pick_law((10 ** 400, 10 ** 400), 0) == [Fraction(1, 2), Fraction(1, 2)]
    # and float weights whose total stays in range
    assert tau_pick_law((1e307, 1e307), 0) == [0.5, 0.5]


@pytest.mark.parametrize("x", [[1e308] * 3, [1.7e308, 1e308], [10 ** 400, 1]])
def test_size_biased_perms_reject_weights_past_the_float_range(x):
    # [1e308] * 3 warned of an overflow in _pick_rows and raised IndexError before
    with pytest.raises(ParameterError):
        size_biased_perms(x, 4, RngHandle(1))


def test_tau_perm_probability_frozen_and_normalized():
    assert tau_perm_probability((1, 2), Fraction(1, 4), (1, 2)) == Fraction(5, 12)
    x = (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))
    for tau in (0, Fraction(1, 4), 1):
        assert sum(tau_perm_law(x, tau).values()) == 1


def test_tau_biased_perm_matches_exact_law():
    x = (1, 2, 4)
    tau = Fraction(1, 4)
    law = tau_perm_law(x, tau)
    perms, probs = list(law), list(law.values())
    index = {p: i for i, p in enumerate(perms)}
    rng = RngHandle(31)
    counts = np.zeros(len(perms), dtype=np.int64)
    for _ in range(4000):
        counts[index[tau_biased_perm(x, tau, rng)]] += 1
    stat, dof, pval = chi_square(counts, probs)
    assert pval > 1e-3


def test_tau_biased_pick_is_first_step_of_perm():
    x = (1, 2, 4)
    rng = RngHandle(55)
    law = tau_pick_law(x, Fraction(1, 2))
    assert law == [Fraction(1, 3)] * 3
    draws = [tau_biased_pick(x, Fraction(1, 2), rng) for _ in range(3000)]
    for j in (1, 2, 3):
        assert draws.count(j) / 3000 == pytest.approx(1 / 3, abs=0.035)


def test_size_biased_perms_match_tau_zero():
    x = (0.2, 0.3, 0.5)
    law = tau_perm_law(x, 0)
    perms, probs = list(law), list(law.values())
    index = {p: i for i, p in enumerate(perms)}
    draws = size_biased_perms(x, 5000, RngHandle(17))
    counts = np.zeros(len(perms), dtype=np.int64)
    for row in draws:
        counts[index[tuple(int(v) for v in row)]] += 1
    stat, dof, pval = chi_square(counts, probs)
    assert pval > 1e-3


# ---------------------------------------------------------------------------
# xi-biased orders

def test_arrangement_from_ranks():
    # rank r_j inserts element j before the r-th oldest position
    assert arrangement_from_ranks((1,)) == (1,)
    assert arrangement_from_ranks((1, 2, 3, 2)) == (1, 4, 2, 3)


def test_xi_order_frozen_and_bounds():
    order = xi_order(4, 2, RngHandle(11))
    assert order.ranks == (1, 2, 3, 2)
    assert order.arrangement == (1, 4, 2, 3)
    assert xi_order(5, math.inf, RngHandle(0)).arrangement == (1, 2, 3, 4, 5)
    last = xi_order(5, 0, RngHandle(0)).arrangement[-1]
    assert last == 1  # xi = 0 pins element 1 rightmost


@pytest.mark.parametrize(
    ("xi", "arrangement", "prob"),
    [
        (2, (1, 2), Fraction(2, 3)),
        (2, (2, 1), Fraction(1, 3)),
        (3, (2, 1), Fraction(1, 4)),
        (1, (3, 1, 2), Fraction(1, 6)),
        (0, (2, 3, 1), Fraction(1, 2)),
        (0, (1, 2, 3), 0),
    ],
)
def test_order_probability_frozen(xi, arrangement, prob):
    assert order_probability(xi, arrangement) == prob


@pytest.mark.parametrize("xi", [Fraction(1, 2), 1, 2, 3])
def test_order_probability_normalizes(xi):
    import itertools

    for k in (2, 3, 4):
        total = sum(order_probability(xi, p) for p in itertools.permutations(range(1, k + 1)))
        assert total == 1


def test_xi_order_matches_exact_law():
    import itertools

    xi = 2
    perms = list(itertools.permutations((1, 2, 3)))
    probs = [order_probability(xi, p) for p in perms]
    index = {p: i for i, p in enumerate(perms)}
    rng = RngHandle(23)
    counts = np.zeros(len(perms), dtype=np.int64)
    for _ in range(4000):
        counts[index[xi_order(3, xi, rng).arrangement]] += 1
    stat, dof, pval = chi_square(counts, probs)
    assert pval > 1e-3


def test_xi_arrangements_matches_object_path_law():
    import itertools

    xi = Fraction(1, 2)
    perms = list(itertools.permutations((1, 2, 3, 4)))
    probs = [order_probability(xi, p) for p in perms]
    index = {p: i for i, p in enumerate(perms)}
    rows = xi_arrangements(4, xi, 6000, RngHandle(29))
    counts = np.zeros(len(perms), dtype=np.int64)
    for row in rows:
        counts[index[tuple(int(v) for v in row)]] += 1
    stat, dof, pval = chi_square(counts, probs)
    assert pval > 1e-3


@pytest.mark.parametrize(
    ("arrangement", "records"),
    [((1, 2, 3), 3), ((2, 3, 1), 1), ((3, 2, 1), 1), ((2, 1, 3), 2), ((1,), 1)],
)
def test_right_record_count(arrangement, records):
    assert right_record_count(arrangement) == records


# sha256 of dumps(stick_fraction_matrix(params, k, 50, RngHandle(9)).tolist()),
# recorded from the per-stick stick_fraction_law implementation
FRACTION_MATRIX_GOLDEN = {
    "1/3,1/7": (ExtParams.two_param(Fraction(1, 3), Fraction(1, 7)), 4,
                "4d623d7d100ae56769a7add984bcedb81d8a1189cf5cb5d7a17400ede31905b9"),
    "0.25,0.5": (ExtParams.two_param(0.25, 0.5), 4,
                 "2a93b73d7294fd3acf0bab6af9ec7ff8c6181b6ca744e7c8c1f4268b7bb4abc4"),
    "neg_alpha(-1,3)": (ExtParams.neg_alpha(-1, 3), 3,
                        "218befe79f725736a4a2a6f706d8b9699e473eca6f7bd6e264dcf3d3edf2bc87"),
    "coupon(4)": (ExtParams.coupon(4), 4,
                  "91b03842d24084cff05fc1ee7790eadba1b7fe892fe7eba0532d8e007244eced"),
}


def test_stick_fraction_matrix_ends_at_the_last_stick():
    for params, m in ((ExtParams.neg_alpha(-1, 3), 3), (ExtParams.coupon(4), 4)):
        assert stick_fraction_matrix(params, m, 2, RngHandle(0))[:, -1].tolist() == [1.0, 1.0]
        with pytest.raises(ParameterError):
            stick_fraction_matrix(params, m + 1, 2, RngHandle(0))


@pytest.mark.parametrize("point", sorted(FRACTION_MATRIX_GOLDEN))
def test_stick_fraction_matrix_golden(point):
    params, k, digest = FRACTION_MATRIX_GOLDEN[point]
    text = core.dumps(stick_fraction_matrix(params, k, 50, RngHandle(9)).tolist())
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# bulk samplers: seeded bytes and the scalar references

def _array_digest(out) -> str:
    return hashlib.sha256(core.dumps(np.asarray(out).tolist()).encode()).hexdigest()


# sha256 of dumps(xi_arrangements(k, xi, 400, RngHandle(31)).tolist()), recorded
# from the implementation that re-gathered the prefix for every insertion
XI_ARRANGEMENTS_GOLDEN = {
    (1, 0): "214a3edb407e163fb3a4224dbdc9b1227eac650902ef40dedcf082e1a2a38c85",
    (1, Fraction(1, 4)): "214a3edb407e163fb3a4224dbdc9b1227eac650902ef40dedcf082e1a2a38c85",
    (1, 3): "214a3edb407e163fb3a4224dbdc9b1227eac650902ef40dedcf082e1a2a38c85",
    (5, 0): "6d821c605e6ae4da7ebfdd818c7aca415cb61190be9a8fb28a90bb15dfc51692",
    (5, Fraction(1, 4)): "c7424596e31c3a1d236d0c8c90ced3e8405c23e1b02ff55d9bfa8a70e9196bb0",
    (5, 3): "6d4f2b504b8681fc507c967da6181f6cb89c494c59f0a3a8ce23b9bce77437d9",
    (8, 0): "d1c2b6de15536e441e55fb5a1631165f4fafeb5c53fa319a7a00a563dd48b375",
    (8, Fraction(1, 4)): "996f56490942163a8062264055474761cf202234ca65528eb89e125e1a01dc7f",
    (8, 3): "3bffddefa6127835226291d4215cdc0b762cacc5a79ca32c32cf8e8dbac2d84a",
}


@pytest.mark.parametrize("point", list(XI_ARRANGEMENTS_GOLDEN), ids=str)
def test_xi_arrangements_golden(point):
    k, xi = point
    assert _array_digest(xi_arrangements(k, xi, 400, RngHandle(31))) == XI_ARRANGEMENTS_GOLDEN[point]


# sha256 of dumps(size_biased_perms(x, 2000, RngHandle(37)).tolist()), recorded
# from the implementation with a cumsum(axis=1) pick; "tiny" holds weights
# that vanish next to their neighbours in the running sums
SIZE_BIASED_PERMS_GOLDEN = {
    "criterion 06": (tuple(Fraction(i, 36) for i in range(1, 9)),
                     "81d9b81810ffef2f7d4cbb5f57ebfa844e6509fb07d66edc2c7635ea21d017ba"),
    "tiny": ((0.25, 1e-300, 0.5, 1e-300, 0.125),
             "7a7605483faaa9e282bfd09e18f3909b1ab7a91422ee0012b00bb137850777d5"),
}


@pytest.mark.parametrize("label", sorted(SIZE_BIASED_PERMS_GOLDEN))
def test_size_biased_perms_golden(label):
    x, digest = SIZE_BIASED_PERMS_GOLDEN[label]
    assert _array_digest(size_biased_perms(x, 2000, RngHandle(37))) == digest


# sha256 of dumps(crp_assignments(params, n, 1000, RngHandle(41)).tolist()),
# recorded from the implementation with a cumsum(axis=1) pick
CRP_ASSIGNMENTS_GOLDEN = {
    "1/2,1/2 n=6": (ExtParams.two_param(Fraction(1, 2), Fraction(1, 2)), 6,
                    "cd7d74c270e55a85f516c7fb44a4d76324071295994e180f30d40f2064f2c1ce"),
    "coupon(4) n=7": (ExtParams.coupon(4), 7,
                      "9f640c14ae73014e9941d583a8096fd3407c02f0f24fc922d573081ab859e9e1"),
    "0.9,0.01 n=12": (ExtParams.two_param(0.9, 0.01), 12,
                      "c2cf6fabaa5ad5a5c8c9b15762f7160792f16a7a91b941026ae49a0c0d6cfa67"),
}


@pytest.mark.parametrize("label", sorted(CRP_ASSIGNMENTS_GOLDEN))
def test_crp_assignments_golden(label):
    params, n, digest = CRP_ASSIGNMENTS_GOLDEN[label]
    assert _array_digest(crp_assignments(params, n, 1000, RngHandle(41))) == digest


# sha256 of dumps(RngHandle(43).gamma(shape, 2000).tolist()), recorded from the
# implementation that evaluated the squeeze on every proposal; "mixed" draws
# 1800 variates whose shapes cycle through the six others
GAMMA_SHAPES = (1e-3, 0.5, 0.999, 1, 1.5, 300)
VECTOR_GAMMA_GOLDEN = {
    1e-3: "d48f4203a4dfb62106e24b0cd968669ad5c0cc2dc0376c62491c1eb3d11ab573",
    0.5: "15383c72a2a857fd8e58b55f7071afce2eb1d51ba3d1387677ba122016ccb861",
    0.999: "ab61bd6fc9ab41f03cd925edac2fb998b3323913b1cdebaf9034242192272709",
    1: "fc300a5500f8a0bbc5dfeabbd1c6485bae2392b04866fc76ca5e9cdba3c8b15c",
    1.5: "345d516f804742474f16be4c5f1668dfb384b9d5ff841432a4e4d09b79400579",
    300: "0f37d4550d4ac370a2f5b00007a5e8a0501e3beff5cfb2c49402bbbdafffb480",
    "mixed": "ef4653aec90d681b87980776637c7cbda856e69166c39da2dd447bad0c5fda75",
}


@pytest.mark.parametrize("shape", list(VECTOR_GAMMA_GOLDEN), ids=str)
def test_vector_gamma_golden(shape):
    if shape == "mixed":
        out = RngHandle(43).gamma(np.tile(GAMMA_SHAPES, 300), 1800)
    else:
        out = RngHandle(43).gamma(shape, 2000)
    assert _array_digest(out) == VECTOR_GAMMA_GOLDEN[shape]


def _left_to_right_sum(row) -> float:
    # not sum(): from Python 3.12 it compensates float round-off
    acc = 0.0
    for v in row:
        acc += v
    return acc


def test_pick_returns_none_past_the_total():
    # the leftover 1 - sum(x) is the chance of no pick, as bulk_delete reads it
    x = (0.5, 0.25)
    assert [samplers._pick(x, u) for u in (0.0, 0.49, 0.5, 0.74, 0.75, 0.99)] == [0, 0, 1, 1, None, None]
    assert samplers._pick((), 0.0) is None


def test_pick_rows_is_pick_row_by_row():
    # weights over many scales, zero entries and a whole zero column; each
    # row must pick what the scalar _pick picks with the twin handle's uniform
    gen = np.random.default_rng(5)
    for s in range(60):
        rows, k = int(gen.integers(1, 50)), int(gen.integers(2, 10))
        w = gen.random((rows, k)) * 10.0 ** gen.integers(-300, 4, size=(rows, k))
        w[gen.random((rows, k)) < 0.4] = 0.0
        zero = int(gen.integers(k))
        w[:, zero] = 0.0
        keep = (zero + 1 + gen.integers(k - 1, size=rows)) % k
        w[np.arange(rows), keep] += gen.random(rows) + 1e-3
        u = RngHandle(s).random(rows)
        want = [samplers._pick(row, ui * _left_to_right_sum(row))
                for row, ui in zip(w.tolist(), u.tolist())]
        assert samplers._pick_rows(w, RngHandle(s)).tolist() == want, s


@pytest.mark.parametrize(("k", "xi"), [(1, 2), (2, 0), (5, 0), (6, Fraction(1, 4)), (7, 1), (8, 3)])
def test_xi_arrangements_replay_their_ranks(k, xi):
    # the ranks come from the same uniforms by xi_order's rule, and each row
    # must be the arrangement that replaying them gives
    count, xif = 300, float(xi)
    rows = xi_arrangements(k, xi, count, RngHandle(k))
    twin = RngHandle(k)
    ranks = [[1] for _ in range(count)]
    for j in range(2, k + 1):
        for r, v in zip(ranks, (twin.random(count) * (j - 1 + xif)).tolist()):
            r.append(j if v < xif else 1 + min(int(v - xif), j - 2))
    assert [tuple(row) for row in rows.tolist()] == [arrangement_from_ranks(r) for r in ranks]


def test_squeeze_power_on_a_subset_equals_the_whole_array():
    # the vector gamma evaluates x ** 4 only at the proposals the log test
    # rejects; its output stays byte-identical only if numpy's power gives
    # the same doubles on a gathered subset as on the whole array
    x = RngHandle(12).normal(4099)
    for sub in (np.flatnonzero(x > 1.3), np.arange(1, 4099, 7), np.array([5]), np.arange(4099)):
        assert ((x[sub] ** 4) == (x ** 4)[sub]).all()


# ---------------------------------------------------------------------------
# the scalar object path against its earlier formulations, kept here as the
# references: a per-seat word turned into a partition, a per-step xi
# conversion, and a gamma built from normal() and a block-uniform read

def _crp_by_word(params, n, rng):
    word, sizes = [1], [1]
    for i in range(1, n):
        k = len(sizes)
        if params.kind == core.COUPON:
            weights = [1.0] * k + [float(params.m - k)]
            total = float(params.m)
        else:
            alpha, theta = float(params.alpha), float(params.theta)
            weights = [s - alpha for s in sizes] + [theta + k * alpha]
            total = i + theta
        pick = samplers._pick(weights, rng.random() * total)
        if pick is None or pick == k:
            pick = k
            sizes.append(1)
        else:
            sizes[pick] += 1
        word.append(pick + 1)
    return core.partition_from_assignment(word)


def _xi_order_per_step(k, xi, rng):
    ranks = [1]
    for j in range(2, k + 1):
        if math.isinf(xi):
            ranks.append(j)
            continue
        u = rng.random() * (j - 1 + float(xi))
        ranks.append(j if u < float(xi) else 1 + min(int(u - float(xi)), j - 2))
    return samplers.XiOrder(k, tuple(ranks), arrangement_from_ranks(ranks))


def _block_uniform(r):
    i = r._i
    if i >= len(r._u):
        i = r._refill(i)
    r._i = i + 1
    return r._u[i]


def _gamma_by_calls(r, a):
    boost = 1.0
    if a < 1.0:
        boost = (1.0 - _block_uniform(r)) ** (1.0 / a)
        a = a + 1.0
    d = a - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        x = r.normal()
        v = (1.0 + c * x) ** 3
        if v <= 0.0:
            continue
        u = _block_uniform(r)
        if u < 1.0 - 0.0331 * x ** 4:
            return boost * d * v
        if u > 0.0 and math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v)):
            return boost * d * v


@pytest.mark.parametrize(
    "params",
    [
        ExtParams.two_param(Fraction(1, 2), Fraction(1, 2)),
        ExtParams.two_param(0.3, 1.7),
        ExtParams.two_param(0, Fraction(3, 2)),
        ExtParams.two_param(0.0, 0.25),
        ExtParams.neg_alpha(-1, 3),
        ExtParams.neg_alpha(-0.5, 4),
        ExtParams.coupon(4),
        ExtParams.coupon(1),
    ],
    ids=str,
)
def test_crp_sample_matches_the_word_formulation(params):
    # the same partitions from the same uniforms, and the stream left where
    # the reference leaves it
    for seed in range(200):
        r, twin = RngHandle(seed), RngHandle(seed)
        for n in range(1, 13):
            assert crp_sample(params, n, r) == _crp_by_word(params, n, twin), (seed, n)
        assert r.random() == twin.random()


@pytest.mark.parametrize("xi", [0, Fraction(1, 4), 1, 2.5, math.inf], ids=repr)
def test_xi_order_matches_the_per_step_formulation(xi):
    for seed in range(100):
        r, twin = RngHandle(seed), RngHandle(seed)
        for k in range(1, 10):
            assert xi_order(k, xi, r) == _xi_order_per_step(k, xi, twin), (seed, k)
        assert r.random() == twin.random()


SCALAR_GAMMA_SHAPES = (1e-3, 0.5, 1.0, 7.0, 300.0)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_scalar_gamma_and_beta_match_normal_and_block_uniform_reads(seed):
    # scalar gammas and betas of every shape between vector draws and
    # scalar random() calls, so that refills and leftover blocks of every
    # length are crossed; each output, each refill and the final stream
    # must agree
    r, twin = RngHandle(seed), RngHandle(seed)
    script = random.Random(seed)
    for step in range(4000):
        p = script.random()
        if p < 0.4:
            a = script.choice(SCALAR_GAMMA_SHAPES)
            assert r.gamma(a) == _gamma_by_calls(twin, a), step
        elif p < 0.6:
            a, b = script.choice(SCALAR_GAMMA_SHAPES), script.choice(SCALAR_GAMMA_SHAPES[1:])
            x, y = _gamma_by_calls(twin, a), _gamma_by_calls(twin, b)
            assert r.beta(a, b) == x / (x + y), step
        elif p < 0.75:
            assert r.random() == twin.random()
        elif p < 0.85:
            assert r.normal() == twin.normal()
        else:
            size, method = script.randint(1, 40), script.choice(("random", "normal", "gamma"))
            args = (script.choice(SCALAR_GAMMA_SHAPES),) if method == "gamma" else ()
            want = getattr(twin, method)(*args, size=size)
            assert getattr(r, method)(*args, size=size).tolist() == want.tolist(), step
        # the block is refilled at the same reads
        assert (r._i, len(r._u)) == (twin._i, len(twin._u)), step
    assert (r._i, r._u) == (twin._i, twin._u)
    assert r.random(5).tolist() == twin.random(5).tolist()
