"""The benchmark's workloads: the op list of one pass and the checks on its outputs.

An op is one public call into partition_lab with fixed inputs.  Each op
carries a check that returns None when the output is right and a short
reason when it is not.  Ops listed with ``known`` hit a defect of the
library that is documented in perfbench/README.md; they still count as
failed, but they do not make the run incorrect.  Any other failure does.

Monte Carlo ops also feed pooled samples into end-of-run statistical
tests (see ``Workload.final_checks``).
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np
from scipy.stats import beta as beta_law

from partition_lab import cli
from partition_lab.core import ExtParams, IntervalSet, SetPartition

core = importlib.import_module("partition_lab.core")
deletion = importlib.import_module("partition_lab.deletion")
eppf_mod = importlib.import_module("partition_lab.eppf")
oracle = importlib.import_module("partition_lab.oracle")
regen = importlib.import_module("partition_lab.regen")
samplers = importlib.import_module("partition_lab.samplers")

HALF = Fraction(1, 2)
HH = ExtParams.two_param(HALF, HALF)
THIRD_SEVENTH = ExtParams.two_param(Fraction(1, 3), Fraction(1, 7))
VERIFY_GRID = cli._VERIFY_GRID
EWENS_2 = ExtParams.two_param(0, 2)
FAMILY_ALPHA = 1e-3  # family-wise level of a run's statistical tests

# Seed-era float defect: rising factorials overflow for n >= 172.
OVERFLOW_N = 172
KNOWN_OVERFLOW = "float rising_factorial overflows from n=172"
KNOWN_DERIVED = "derived_eppf((150,)) cannot reach tol=1e-6 within its term budget"

# README CLI examples and their exact output bytes.
README_CLI = {
    "eppf": (["eppf", "--alpha", "0", "--theta", "1", "--lambda", "2,1"], "1/6\n"),
    "eppf-json": (
        ["eppf", "--alpha", "0", "--theta", "1", "--lambda", "2,1", "--format", "json"],
        '{"parts":[2,1],"value":{"den":6,"num":1}}\n',
    ),
    "sample": (
        ["sample", "--model", "crp", "--alpha", "0", "--theta", "1", "--n", "5",
         "--count", "2", "--seed", "7"],
        '{"blocks":[[1],[2,5],[3],[4]],"n":5}\n{"blocks":[[1,2,4],[3],[5]],"n":5}\n',
    ),
    "decrement": (
        ["decrement", "--alpha", "1/2", "--theta", "1/2", "--n-max", "3", "--format", "csv"],
        "n,m,q\n1,1,1.0\n2,1,0.6666666666666666\n2,2,0.3333333333333333\n"
        "3,1,0.6\n3,2,0.2\n3,3,0.2\n",
    ),
    "phi": (
        ["phi", "--atoms", "1/2:1", "--n-max", "2", "--format", "csv"],
        "n,m,phi_nm,q\n1,1,0.5,1.0\n2,1,0.5,0.6666666666666666\n"
        "2,2,0.25,0.3333333333333333\n",
    ),
    # The README elides the middle rows; its first row and residual line
    # are the first and last lines here.
    "regen-set": (
        ["regen-set", "--model", "stick", "--theta", "1", "--eps", "0.01", "--seed", "3",
         "--format", "csv"],
        "left,right\n"
        "0.0,0.25589926451213096\n"
        "0.25589926451213096,0.8247786464205031\n"
        "0.8247786464205031,0.8848288829974034\n"
        "0.8848288829974034,0.9604945198693089\n"
        "0.9604945198693089,0.9606369109391264\n"
        "0.9606369109391264,0.9821744931964742\n"
        "0.9821744931964742,0.9891504188859751\n"
        "0.9891504188859751,0.9932238438785023\n"
        "# residual,0.0067761561214978805\n",
    ),
    "order": (
        ["order", "--x", "1/2,1/3,1/6", "--tau", "1/4", "--count", "2", "--seed", "1"],
        '{"perm":[2,3,1]}\n{"perm":[3,1,2]}\n',
    ),
    "verify": (
        ["verify", "--suite", "deletion", "--alpha", "1/2", "--theta", "1/2", "--n", "6"],
        '{"check":"deletion_characterization","deviation":0.0,"n":6,'
        '"params":"two_param(1/2, 1/2)","pass":true}\n'
        '{"check":"tau_regeneration","deviation":0.0,"n":6,'
        '"params":"two_param(1/2, 1/2)","pass":true}\n'
        '{"checks":2,"failures":0}\n',
    ),
}


@dataclass
class Op:
    """One public call; ``fn`` receives the previous op's result."""

    cls: str
    fn: Callable[[object], object]
    check: Callable[[object], str | None]
    known: str | None = None


def run_cli(argv: list[str]) -> tuple[int, str]:
    """In-process cli.main with stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def expect_bytes(expected: str) -> Callable[[object], str | None]:
    def check(out):
        rc, text = out
        if rc != 0:
            return f"exit code {rc}"
        if text != expected:
            at = next((i for i, (a, b) in enumerate(zip(text, expected)) if a != b),
                      min(len(text), len(expected)))
            return f"output differs from README bytes at offset {at}"
        return None
    return check


def expect_zero(value) -> str | None:
    return None if value == 0 else f"deviation {value} != 0"


def rel_error(value: float, exact: Fraction) -> float:
    """|value - exact| / |exact|, in exact arithmetic; 0 when both are 0."""
    if exact == 0:
        return 0.0 if value == 0 else math.inf
    return float(abs(Fraction(value) - exact) / abs(exact))


def float_matches(value, exact: Fraction, tol: float) -> str | None:
    """A float output against its exact value.

    It must be finite.  Where the exact value is a normal double it must
    agree to ``tol`` relative; below the double range any finite value
    at most the smallest normal double is accepted.
    """
    value = float(value)
    if not math.isfinite(value):
        return f"{value} where the exact value is {float(exact):.6g}"
    if abs(exact) < Fraction(2.2250738585072014e-308):
        return None if abs(value) <= 2.2250738585072014e-308 else f"{value} for an underflowing value"
    err = rel_error(value, exact)
    return None if err <= tol else f"{value} vs exact {float(exact):.17g} (rel {err:.2e})"


def exact_twin(params: ExtParams) -> ExtParams:
    """The same parameters as exact rationals (floats convert without rounding)."""
    return ExtParams.two_param(Fraction(params.alpha), Fraction(params.theta))


def chi_square_p(observed, probs) -> float | None:
    """Pearson p-value, or None when too few samples leave fewer than two bins."""
    if np.sum(observed) < 5 / max(float(p) for p in probs):
        return None
    return oracle.chi_square(observed, probs)[2]


class Workload:
    """A closed loop of ops: one client, each op issued after the last returns."""

    name = ""
    min_passes = 3

    def __init__(self, seed: int):
        self.seed = seed

    def pass_ops(self, k: int) -> list[Op]:
        raise NotImplementedError

    def warmup_ops(self) -> list[Op]:
        return self.pass_ops(-1)

    def order(self, units: list[list[Op]]) -> list[Op]:
        """Ops in a seeded order, the same in every pass; a unit's ops stay together.

        Mixing short ops in among long ones spreads each class over the
        pass, so a change in host speed during a pass touches every class.
        """
        random.Random(self.seed).shuffle(units)
        return [op for unit in units for op in unit]

    def final_checks(self) -> list[tuple[str, float | None, str]]:
        """(name, p-value or None when the run drew too few samples, detail) per test."""
        return []


# ---------------------------------------------------------------------------
# exact

def _compositions(n: int):
    for total in range(1, n + 1):
        yield from deletion._compositions(total)


class Exact(Workload):
    name = "exact"
    min_passes = 2

    def pass_ops(self, k: int) -> list[Op]:
        n7, n8, n_dec, k_leem, k_xi = (7, 8, 100, 5, 6) if k >= 0 else (4, 4, 8, 3, 3)
        units: list[list[Op]] = []

        def law_check(law):
            return expect_zero(law.total() - 1)

        for p in VERIFY_GRID:
            units.append([Op("exact_law.n7", lambda _, p=p: oracle.exact_law(p, n7), law_check)])
            units.append([Op("deletion_law_check.n7",
                             lambda _, p=p: oracle.deletion_law_check(p, n7), expect_zero)])
            if p.kind == core.TWO_PARAM and p.theta >= 0:
                units.append([Op("tau_regen_check.n7",
                                 lambda _, p=p: oracle.tau_regen_check(p, n7), expect_zero)])
            # Not at Ewens theta=2, whose EPPF has the form of theta=1's: with
            # 798 ops a pass, op_tail_ms is the p98, the 16th slowest op, amid
            # ops of about 70 ms.  With all 925 it was the 19th, at a gap
            # between 67 and 52 ms, and jumped across it from run to run.
            for parts in _compositions(n7) if p != EWENS_2 else ():
                units.append([Op("addition_residual",
                                 lambda _, p=p, c=parts: eppf_mod.addition_residual(p, c),
                                 expect_zero)])
        units.append([Op("exact_law.n8", lambda _: oracle.exact_law(HH, n8), law_check)])
        units.append([Op("deletion_law_check.n8",
                         lambda _: oracle.deletion_law_check(ExtParams.coupon(4), n8), expect_zero)])
        units.append([Op("tau_regen_check.n8",
                         lambda _: oracle.tau_regen_check(ExtParams.two_param(0, 1), n8),
                         expect_zero)])

        def rows_sum_to_one(mat):
            bad = [n for n, s in enumerate(mat.row_sums(), start=1) if s != 1]
            return f"rows {bad[:3]} do not sum to 1" if bad else None

        def equals_kernel_route(mat):
            return None if mat == kernel_route[0] else "phi route != kernel route"

        kernel_route: list = [None]

        def dec(_):
            kernel_route[0] = deletion.decrement_matrix(THIRD_SEVENTH, n_dec)
            return kernel_route[0]

        measure = regen.LevyImageMeasure.alpha_theta(THIRD_SEVENTH.alpha, THIRD_SEVENTH.theta)
        units.append([
            Op("decrement_matrix", dec, rows_sum_to_one),
            Op("decrement_from_phi", lambda _: regen.decrement_from_phi(measure, n_dec),
               equals_kernel_route),
        ])
        x = tuple(Fraction(i, k_leem * (k_leem + 1) // 2) for i in range(1, k_leem + 1))
        for tau in (0, 1):
            units.append([Op("leem_check", lambda _, t=tau: oracle.leem_check(x, t), expect_zero)])
        for xi in (HALF, 1, 2, 3):
            units.append([Op("xi_order_enumeration_residual",
                             lambda _, v=xi: oracle.xi_order_enumeration_residual(k_xi, v),
                             expect_zero)])
        for key in ("eppf", "eppf-json", "decrement", "phi", "verify"):
            argv, expected = README_CLI[key]
            units.append([Op(f"cli.{key}", lambda _, a=argv: run_cli(a), expect_bytes(expected))])
        if k >= 0:
            units.append([Op("cli.verify-grid", lambda _: run_cli(["verify"]), verify_all_pass)])
        return self.order(units)


def verify_all_pass(out) -> str | None:
    rc, text = out
    lines = [ln for ln in text.splitlines() if ln]
    if rc != 0 or lines[-1] != '{"checks":%d,"failures":0}' % (len(lines) - 1):
        return f"exit code {rc}, summary {lines[-1] if lines else ''}"
    bad = [ln for ln in lines[:-1] if '"deviation":0.0,' not in ln or '"pass":true' not in ln]
    return f"{len(bad)} checks with nonzero deviation" if bad else None


# ---------------------------------------------------------------------------
# float

# criterion 11's documented caps for the first-colour tail
TAIL_CAPS = (10**9, 10**5, 10**9, 10**9, 10**13, 3 * 10**5, 200)


class Float(Workload):
    name = "float"
    min_passes = 3

    def __init__(self, seed: int):
        super().__init__(seed)
        rnd = random.Random(seed)
        self.compositions = []
        # At most 4 parts keeps every exact value inside the double range,
        # so whether an op fails depends on n alone and not on the seed.
        for n in [n for n in range(8, 401, 8) for _ in range(2)]:
            k = rnd.randint(1, 4)
            cuts = sorted(rnd.sample(range(1, n), k - 1))
            self.compositions.append(tuple(b - a for a, b in zip([0] + cuts, cuts + [n])))
        self.spots = [(n, rnd.randint(1, n)) for n in (rnd.randint(1, 300) for _ in range(12))]
        self.cli_spots = [(n, rnd.randint(1, n)) for n in (rnd.randint(1, 200) for _ in range(8))]
        self._exact: dict = {}

    def exact(self, fn, *args):
        """Exact reference values, computed once per run outside the timed ops."""
        key = (fn.__name__,) + args
        if key not in self._exact:
            self._exact[key] = fn(*args)
        return self._exact[key]

    def matrix_check(self, params: ExtParams, n_max: int, spots):
        twin = exact_twin(params)

        def check(mat):
            bad_rows = [n for n in range(1, n_max + 1)
                        if not all(math.isfinite(float(v)) for v in mat.row(n))]
            if bad_rows:
                return f"{len(bad_rows)} of {n_max} rows non-finite from n={bad_rows[0]}"
            for n, m in spots:
                if n <= n_max:
                    why = float_matches(mat.value(n, m),
                                        self.exact(deletion.decrement_entry, twin, n, m), 1e-9)
                    if why:
                        return f"q({n},{m}): {why}"
            return None
        return check

    def eppf_check(self, params: ExtParams, parts):
        return lambda v: float_matches(v, self.exact(eppf_mod.eppf, exact_twin(params), parts), 1e-9)

    def pass_ops(self, k: int) -> list[Op]:
        n_max = 300 if k >= 0 else 20
        ops = []
        for params in (ExtParams.two_param(0.3, 0.5), THIRD_SEVENTH.as_float()):
            measure = regen.LevyImageMeasure.alpha_theta(params.alpha, params.theta)
            ops.append(Op("decrement_matrix.n300", lambda _, p=params: deletion.decrement_matrix(p, n_max),
                          self.matrix_check(params, n_max, self.spots), KNOWN_OVERFLOW))
            ops.append(Op("decrement_from_phi.n300", lambda _, m=measure: regen.decrement_from_phi(m, n_max),
                          self.matrix_check(params, n_max, self.spots), KNOWN_OVERFLOW))
        fh = HH.as_float()
        for params in (fh, THIRD_SEVENTH.as_float()):
            for parts in ((300,), (100, 100, 100)):
                ops.append(Op("eppf.n300", lambda _, p=params, c=parts: eppf_mod.eppf(p, c),
                              self.eppf_check(params, parts), KNOWN_OVERFLOW))
        pf = THIRD_SEVENTH.as_float()
        for parts in self.compositions if k >= 0 else self.compositions[:3]:
            ops.append(Op("eppf.random", lambda _, c=parts: eppf_mod.eppf(pf, c),
                          self.eppf_check(pf, parts),
                          KNOWN_OVERFLOW if sum(parts) >= OVERFLOW_N else None))
        for mu in ((2, 1), (5, 3, 2), (40,), (150,)) if k >= 0 else ((2, 1),):
            # the series is summed to tol=1e-6 of the total, so that is the bar
            ops.append(Op("derived_eppf", lambda _, m=mu: eppf_mod.derived_eppf(fh, m, tol=1e-6),
                          lambda v, m=mu: float_matches(
                              v, self.exact(eppf_mod.eppf, HH.shifted(), m), 1.01e-6),
                          KNOWN_DERIVED if mu == (150,) else None))
        for params, cap in zip(VERIFY_GRID, TAIL_CAPS):
            pf_ = params.as_float()
            for n in range(1, 7):
                ops.append(Op("first_color_tail.cap", lambda _, p=pf_, n=n, c=cap:
                              eppf_mod.first_color_tail(p, n, c), tail_below_bound))
            for n in (2, 4):
                ops.append(Op("first_color_tail.50",
                              lambda _, p=pf_, n=n: eppf_mod.first_color_tail(p, n, 50),
                              lambda v, p=params, n=n: float_matches(
                                  v, self.exact(eppf_mod.first_color_tail, p, n, 50), 1e-9)))
        argv = ["decrement", "--alpha", "0.3", "--theta", "0.5", "--n-max", str(min(n_max, 200))]
        ops.append(Op("cli.decrement-float", lambda _: run_cli(argv),
                      self.csv_check(ExtParams.two_param(0.3, 0.5)), KNOWN_OVERFLOW))
        return self.order([[op] for op in ops])

    def csv_check(self, params: ExtParams):
        twin = exact_twin(params)

        def check(out):
            rc, text = out
            if rc != 0:
                return f"exit code {rc}"
            rows = {}
            nonfinite = set()
            for line in text.splitlines()[1:]:
                n, m, q = line.split(",")
                rows[int(n), int(m)] = float(q)
                if not math.isfinite(float(q)):
                    nonfinite.add(int(n))
            if nonfinite:
                return f"{len(nonfinite)} rows print non-finite q from n={min(nonfinite)}"
            for n, m in self.cli_spots:
                if (n, m) in rows:
                    why = float_matches(rows[n, m], self.exact(deletion.decrement_entry, twin, n, m), 1e-9)
                    if why:
                        return f"q({n},{m}): {why}"
            return None
        return check


def tail_below_bound(v) -> str | None:
    v = float(v)
    return None if math.isfinite(v) and 0.0 <= v <= 1e-8 else f"tail {v} not in [0, 1e-8]"


# ---------------------------------------------------------------------------
# Monte Carlo helpers

def decrement_row(params: ExtParams, n: int) -> list[float]:
    return [float(v) for v in deletion.decrement_matrix(params, n).row(n)]


def partition_law(params: ExtParams, n: int) -> dict[SetPartition, float]:
    return {pi: float(eppf_mod.eppf(params, pi.block_sizes()))
            for pi in oracle.enumerate_partitions(n)}


class MonteCarlo(Workload):
    """Ops draw from independent streams: RngHandle(seed).spawn(op number)."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.root = samplers.RngHandle(seed)
        self.samples: dict[str, list] = {}
        self._counter = 0

    def rng(self):
        self._counter += 1
        return self.root.spawn(self._counter)

    def keep(self, key: str, value) -> None:
        self.samples.setdefault(key, []).append(value)


def is_permutation(row, k: int) -> bool:
    return sorted(int(v) for v in row) == list(range(1, k + 1))


def right_record_counts(rows: np.ndarray) -> np.ndarray:
    """samplers.right_record_count of each row of arrangements, vectorized."""
    pos = np.argsort(rows, axis=1)  # pos[:, e - 1] is the position of element e
    best = np.maximum.accumulate(pos, axis=1)
    return 1 + (pos[:, 1:] > best[:, :-1]).sum(axis=1)


def record_count_law(k: int, xi: float) -> list[float]:
    """P(right record count = r), r = 1..k: c(k, r) xi^r / (xi)_k."""
    c = [1.0]  # unsigned Stirling numbers of the first kind, row by row
    for j in range(k):
        c = [0.0] + c
        c = [c[r] + (j * c[r + 1] if r + 1 < len(c) else 0.0) for r in range(len(c))]
    poch = math.prod(xi + i for i in range(k))
    return [c[r] * xi ** r / poch for r in range(1, k + 1)]


# ---------------------------------------------------------------------------
# mc-bulk

WEIGHTS8 = tuple(Fraction(i, 36) for i in range(1, 9))
LEFTMOST_POINTS = {
    "1/2,1/2": HH,
    "xi=0": ExtParams.two_param(HALF, 0),
    "xi=inf": ExtParams.two_param(0, 1),
}


class McBulk(MonteCarlo):
    name = "mc-bulk"
    crp_law = None

    def pass_ops(self, k: int) -> list[Op]:
        # 100 ops of a few milliseconds to a few tens, so op_tail_ms can be a p90
        full = k >= 0
        ops = []
        reps = {"1/2,1/2": 256, "xi=0": 256, "xi=inf": 1024}
        for label, params in LEFTMOST_POINTS.items():
            for _ in range(12 if full else 1):
                count = reps[label] if full else 16
                ops.append(Op(f"leftmost_deletion_counts.{label}",
                              lambda _, p=params, c=count, r=self.rng():
                              regen.leftmost_deletion_counts(p, 10, c, 4e-3, r),
                              self.counts_check(label, count)))
        rows = 5000 if full else 8
        for _ in range(16 if full else 1):
            ops.append(Op("crp_assignments", lambda _, r=self.rng():
                          samplers.crp_assignments(HH, 6, rows, r), self.crp_check))
            ops.append(Op("size_biased_perms", lambda _, r=self.rng():
                          samplers.size_biased_perms(WEIGHTS8, rows, r), self.perm_check))
            ops.append(Op("xi_arrangements", lambda _, r=self.rng():
                          samplers.xi_arrangements(8, 3, rows, r), self.arrangement_check))
            ops.append(Op("stick_fraction_matrix", lambda _, r=self.rng():
                          samplers.stick_fraction_matrix(HH, 3, rows, r), self.fraction_check))
        return self.order([[op] for op in ops])

    def tally(self, key: str, counts: np.ndarray) -> None:
        """Pool counts as they arrive, so the benchmark's memory stays flat."""
        self.samples[key] = self.samples.get(key, 0) + counts

    def counts_check(self, label: str, count: int):
        def check(counts):
            counts = np.asarray(counts)
            if counts.shape != (11,) or counts[0] != 0 or counts.sum() != count:
                return f"counts {counts.tolist()} do not cover {count} replicates"
            self.tally(label, counts)
            return None
        return check

    def crp_check(self, words):
        if words[:, 0].any() or (words > np.arange(6)[None, :]).any():
            return "labels are not in appearance order"
        if self.crp_law is None:
            self.crp_law = partition_law(HH, 6)
            codes = [(np.array(pi.assignment_word()) - 1) @ (6 ** np.arange(6)) for pi in self.crp_law]
            self.crp_cell = np.full(6 ** 6, -1)
            self.crp_cell[codes] = np.arange(len(codes))
        self.tally("crp", np.bincount(self.crp_cell[words @ (6 ** np.arange(6))],
                                      minlength=len(self.crp_law)))
        return None

    def perm_check(self, rows):
        if not (np.sort(rows, axis=1) == np.arange(1, 9)[None, :]).all():
            return "a row is not a permutation of 1..8"
        self.tally("sbp", np.bincount((rows[:, 0] - 1) * 8 + rows[:, 1] - 1, minlength=64))
        return None

    def arrangement_check(self, rows):
        if not (np.sort(rows, axis=1) == np.arange(1, 9)[None, :]).all():
            return "a row is not an arrangement of 1..8"
        self.tally("xi", np.bincount(right_record_counts(rows) - 1, minlength=8))
        return None

    def fraction_check(self, w):
        if not ((w > 0) & (w < 1)).all():
            return "stick fraction outside (0, 1)"
        deciles = []
        for i in range(3):
            law = eppf_mod.stick_fraction_law(HH, i + 1)
            u = beta_law.cdf(w[:, i], float(law.a), float(law.b))
            deciles.append(np.bincount(np.minimum((u * 10).astype(int), 9), minlength=10))
        self.tally("sfm", np.array(deciles))
        return None

    def final_checks(self):
        out = []
        for label, params in LEFTMOST_POINTS.items():
            counts = self.samples[label]
            out.append((f"leftmost_deletion_counts.{label} vs q(10, .)",
                        chi_square_p(counts[1:], decrement_row(params, 10)),
                        f"{int(counts.sum())} replicates"))
        counts = self.samples["crp"]
        out.append(("crp_assignments vs eppf", chi_square_p(counts, list(self.crp_law.values())),
                    f"{counts.sum()} partitions"))
        x = [float(v) for v in WEIGHTS8]
        probs = [x[i] * x[j] / (1.0 - x[i]) if i != j else 0.0 for i in range(8) for j in range(8)]
        counts = self.samples["sbp"]
        out.append(("size_biased_perms first two picks", chi_square_p(counts, probs),
                    f"{counts.sum()} permutations"))
        counts = self.samples["xi"]
        out.append(("xi_arrangements record count", chi_square_p(counts, record_count_law(8, 3.0)),
                    f"{counts.sum()} arrangements"))
        for i, counts in enumerate(self.samples["sfm"]):
            out.append((f"stick_fraction_matrix W{i + 1} deciles", chi_square_p(counts, [0.1] * 10),
                        f"{counts.sum()} rows"))
        return out


# ---------------------------------------------------------------------------
# mc-object

QUARTER_HALF = ExtParams.two_param(0.25, 0.5)
TAU_X = (HALF, Fraction(1, 3), Fraction(1, 6))


def set_check(eps: float):
    def check(iv):
        if isinstance(iv, tuple):
            iv = iv[1]
        if not isinstance(iv, IntervalSet) or not iv.residual <= eps:
            return f"residual {getattr(iv, 'residual', None)} above eps={eps}"
        return None
    return check


def first3(iv: IntervalSet) -> list[float]:
    lengths = [r - l for (l, r) in iv.intervals[:3]]
    return lengths + [0.0] * (3 - len(lengths))


class McObject(MonteCarlo):
    name = "mc-object"

    def pass_ops(self, k: int) -> list[Op]:
        full = k >= 0
        units = []
        for _ in range(100 if full else 2):
            units.append([Op("compound_poisson_set", lambda _, r=self.rng():
                             regen.compound_poisson_set(1.0, 1e-6, r), self.keep_set("cps", 1e-6))])
            units.append([Op("stick_breaking_set", lambda _, r=self.rng():
                             regen.stick_breaking_set(1.0, 1e-6, r), self.keep_set("sbs", 1e-6))])
        for _ in range(8 if full else 1):
            r = self.rng()
            units.append([
                Op("crossbreed_set", lambda _, r=r: regen.crossbreed_set(0.5, 0.5, 1e-3, r),
                   set_check(1e-3)),
                Op("leftmost_delete.crossbreed", lambda iv, r=r: regen.leftmost_delete(iv, 10, r),
                   self.deleted_check("crossbreed", 10)),
            ])
        # 24 exact GEM draws, the slowest class, so the p99 of op_tail_ms
        # (15 of ~1530 ops beyond) falls inside one class and not at its edge
        for _ in range(24 if full else 1):
            r = self.rng()
            units.append([
                Op("gem_sample.exact", lambda _, r=r: samplers.gem_sample(HH, r, eps=1e-3),
                   gem_check(1e-3)),
                Op("paintbox_sample", lambda g, r=r: samplers.paintbox_sample(g[1], 6, r),
                   self.partition_check("paintbox", 6)),
            ])
        for _ in range(60 if full else 1):
            r = self.rng()
            units.append([
                Op("gem_sample.float", lambda _, r=r: samplers.gem_sample(QUARTER_HALF, r, eps=1e-6),
                   gem_check(1e-6)),
                Op("ordered_arrangement", lambda g, r=r: regen.ordered_arrangement(g[1], 2, r),
                   set_check(1e-6)),
                Op("leftmost_delete.ordered", lambda iv, r=r: regen.leftmost_delete(iv, 10, r),
                   self.deleted_check("ordered", 10)),
            ])
        # crp_sample's latency is unimodal; with these counts the median op of
        # a pass lies well inside that class, so op_p50_ms cannot jump between classes
        for _ in range(100 if full else 1):
            units.append([Op("tau_biased_perm", lambda _, r=self.rng():
                             samplers.tau_biased_perm(TAU_X, Fraction(1, 4), r), self.tau_check)])
            for _ in range(4):
                units.append([Op("xi_order", lambda _, r=self.rng(): samplers.xi_order(5, 2, r),
                                 self.xi_check)])
            for _ in range(6):
                units.append([Op("crp_sample", lambda _, r=self.rng(): samplers.crp_sample(HH, 5, r),
                                 self.partition_check("crp", 5))])
        for key in ("sample", "regen-set", "order"):
            argv, expected = README_CLI[key]
            units.append([Op(f"cli.{key}", lambda _, a=argv: run_cli(a), expect_bytes(expected))])
        return self.order(units)

    def keep_set(self, key: str, eps: float):
        base = set_check(eps)

        def check(iv):
            why = base(iv)
            if why is None:
                self.keep(key, first3(iv[1] if isinstance(iv, tuple) else iv))
            return why
        return check

    def deleted_check(self, key: str, n: int):
        def check(out):
            size, rest = out
            if not (1 <= size <= n and rest.n == n - size):
                return f"deleted size {size} with remainder of {rest.n}"
            self.keep(key, size)
            return None
        return check

    def partition_check(self, key: str, n: int):
        def check(pi):
            if not (isinstance(pi, SetPartition) and pi.n == n):
                return f"not a partition of [{n}]"
            self.keep(key, pi)
            return None
        return check

    def tau_check(self, perm):
        if not is_permutation(perm, 3):
            return f"{perm} is not a permutation"
        self.keep("tau", tuple(perm))
        return None

    def xi_check(self, order):
        if samplers.arrangement_from_ranks(order.ranks) != order.arrangement:
            return "arrangement does not replay its ranks"
        self.keep("xi", order.arrangement)
        return None

    def final_checks(self):
        out = []
        a = np.array(self.samples.get("cps", []))
        b = np.array(self.samples.get("sbs", []))
        for j in range(3):
            out.append((f"compound vs stick sets, length {j + 1} (KS)",
                        oracle.ks_two_sample(a[:, j], b[:, j])[1], f"{len(a)} + {len(b)} sets"))
        for key, params in (("crossbreed", HH), ("ordered", exact_twin(QUARTER_HALF))):
            sizes = self.samples.get(key, [])
            out.append((f"leftmost_delete.{key} sizes vs q(10, .)", chi_square_p(
                np.bincount(sizes, minlength=11)[1:], decrement_row(params, 10)),
                f"{len(sizes)} deletions"))
        for key, params, n in (("crp", HH, 5), ("paintbox", HH, 6)):
            law = partition_law(params, n)
            drawn = self.samples.get(key, [])
            if key == "paintbox":  # few draws: pool partitions by block count
                probs = [0.0] * n
                for pi, p in law.items():
                    probs[pi.k - 1] += p
                counts = np.bincount([pi.k - 1 for pi in drawn], minlength=n)
            else:
                probs = list(law.values())
                index = {pi: i for i, pi in enumerate(law)}
                counts = np.bincount([index[pi] for pi in drawn], minlength=len(law))
            out.append((f"{key}_sample vs eppf", chi_square_p(counts, probs), f"{len(drawn)} partitions"))
        perms = [tuple(p) for p in itertools.permutations((1, 2, 3))]
        index = {p: i for i, p in enumerate(perms)}
        drawn = self.samples.get("tau", [])
        out.append(("tau_biased_perm vs exact law", chi_square_p(
            np.bincount([index[p] for p in drawn], minlength=6),
            [samplers.tau_perm_probability(TAU_X, Fraction(1, 4), p) for p in perms]),
            f"{len(drawn)} permutations"))
        arrs = [tuple(p) for p in itertools.permutations(range(1, 6))]
        index = {p: i for i, p in enumerate(arrs)}
        drawn = self.samples.get("xi", [])
        out.append(("xi_order vs order_probability", chi_square_p(
            np.bincount([index[p] for p in drawn], minlength=len(arrs)),
            [samplers.order_probability(2, p) for p in arrs]), f"{len(drawn)} orders"))
        return out


def gem_check(eps: float):
    def check(out):
        _, freq = out
        total = sum(float(p) for p in freq.entries) + float(freq.residual)
        if abs(total - 1.0) > 1e-9 or float(freq.residual) > eps:
            return f"frequencies sum to {total} with residual {float(freq.residual)}"
        return None
    return check


WORKLOADS = {w.name: w for w in (Exact, Float, McBulk, McObject)}
