"""The benchmark's own tests: negative controls for its checks, tracing, compare.

    python3 -m pytest -q perfbench
"""

import math
import re
from pathlib import Path

import run

workloads = run.import_library()
import compare  # noqa: E402
import tracing  # noqa: E402

README = Path(run.ROOT, "README.md").read_text()


def run_ops(ops):
    runner = run.Runner()
    runner.run_pass(ops)
    attempted, failed, unexpected = runner.totals()
    return runner, failed / attempted, unexpected


def replace_op(ops, cls, fn):
    """The op list with the first op of class ``cls`` computing fn(original output)."""
    i = next(i for i, op in enumerate(ops) if op.cls == cls)
    op = ops[i]
    ops[i] = workloads.Op(op.cls, lambda prev, f=op.fn: fn(f(prev)), op.check, op.known)
    return ops


def test_clean_pass_has_no_failures():
    for name in ("exact", "mc-object"):
        _, ratio, unexpected = run_ops(workloads.WORKLOADS[name](1).warmup_ops())
        assert ratio == 0 and unexpected == 0


def test_perturbed_decrement_row_is_counted():
    def perturb(mat):
        rows = list(mat.rows)
        rows[4] = (rows[4][0] + workloads.Fraction(1, 10**6),) + rows[4][1:]
        return type(mat)(mat.n_max, tuple(rows))

    ops = replace_op(workloads.WORKLOADS["exact"](1).warmup_ops(), "decrement_from_phi", perturb)
    runner, ratio, unexpected = run_ops(ops)
    assert runner.classes["decrement_from_phi"]["failed"] == 1
    assert ratio == 1 / len(ops) and unexpected == 1


def test_perturbed_float_row_is_counted():
    wl = workloads.WORKLOADS["float"](1)
    wl.spots = [(5, 2)]

    def perturb(mat):
        rows = list(mat.rows)
        rows[4] = rows[4][:1] + (rows[4][1] * (1 + 1e-7),) + rows[4][2:]
        return type(mat)(mat.n_max, tuple(rows))

    ops = replace_op(wl.warmup_ops(), "decrement_matrix.n300", perturb)
    runner, ratio, _ = run_ops(ops)
    assert "q(5,2)" in runner.classes["decrement_matrix.n300"]["reason"]
    assert ratio > 0


def test_nan_is_counted():
    ops = replace_op(workloads.WORKLOADS["float"](1).warmup_ops(), "eppf.random", lambda v: math.nan)
    runner, ratio, unexpected = run_ops(ops)
    assert runner.classes["eppf.random"]["failed"] == 1
    assert unexpected == 1 and ratio > 0


def test_wrong_cli_byte_is_counted():
    def flip(out):
        rc, text = out
        return rc, text[:-2] + chr(ord(text[-2]) ^ 1) + text[-1]

    for name, cls in (("exact", "cli.decrement"), ("mc-object", "cli.order")):
        ops = replace_op(workloads.WORKLOADS[name](1).warmup_ops(), cls, flip)
        runner, ratio, unexpected = run_ops(ops)
        assert runner.classes[cls]["failed"] == 1
        assert unexpected == 1 and ratio == 1 / len(ops)


def test_known_defects_fail_as_known():
    runner, ratio, unexpected = run_ops(workloads.WORKLOADS["float"](1).pass_ops(0))
    assert unexpected == 0 and ratio > 0
    assert runner.classes["decrement_matrix.n300"]["reason"] == \
        "129 of 300 rows non-finite from n=172"


def test_chi_square_rejects_a_perturbed_row():
    wl = workloads.WORKLOADS["mc-bulk"](1)
    for _ in range(4):
        run_ops(wl.pass_ops(0))
    row = workloads.decrement_row(workloads.HH, 10)
    counts = wl.samples["1/2,1/2"]
    assert workloads.chi_square_p(counts[1:], row) > 1e-4
    shifted = [row[0] - 0.02, row[1] + 0.02] + row[2:]
    assert workloads.chi_square_p(counts[1:], shifted) < 1e-4
    assert all(p > 1e-4 for _, p, _ in wl.final_checks())


def test_record_counts_match_the_library():
    rows = workloads.samplers.xi_arrangements(8, 3, 200, workloads.samplers.RngHandle(5))
    assert workloads.right_record_counts(rows).tolist() == \
        [workloads.samplers.right_record_count(r) for r in rows]


def test_cli_bytes_match_readme():
    for key, (argv, expected) in workloads.README_CLI.items():
        block = re.search(r"\$ partition-lab " + re.escape(" ".join(argv)) + r"\n(.*?)\n(?:\n|```)",
                          README, re.S).group(1).splitlines()
        lines = expected.splitlines()
        if "..." in block:  # the README elides the middle of long outputs
            cut = block.index("...")
            assert lines[:cut] == block[:cut] and lines[-1] == block[-1]
        else:
            assert lines == block


def test_tracing_records_layers_and_restores():
    core = workloads.core
    original = core.canonicalize
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert core.canonicalize is not original
        workloads.oracle.deletion_law_check(workloads.HH, 4)
        workloads.samplers.RngHandle(1).beta(0.5, 1.5, size=8)
    finally:
        tracer.uninstall()
    assert core.canonicalize is original
    m = tracing.layer_metrics(tracer.spans, 1)
    assert m["core.set_partitions"] > 0 and m["oracle.partitions_enumerated"] > 0
    assert m["samplers.vector_variates"] == 8
    assert m["samplers.gamma_normals_per_accept"] >= 1
    total = sum(s[4] - s[3] for s in tracer.spans if s[5] == -1) / 1e9
    assert abs(sum(v for k, v in m.items() if k.endswith(".self_s")) - total) < 1e-6


def test_betas_per_replicate_counts_only_criterion_point():
    def betas(labels):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for label in labels:
                workloads.regen.leftmost_deletion_counts(
                    workloads.LEFTMOST_POINTS[label], 10, 16, 4e-3, workloads.samplers.RngHandle(3))
        finally:
            tracer.uninstall()
        return tracing.layer_metrics(tracer.spans, 1)["regen.betas_per_replicate"]

    alone = betas(["1/2,1/2"])
    assert alone > 0 and betas(["1/2,1/2", "xi=inf", "xi=0"]) == alone


def test_compare_verdicts():
    def recs(values, metric="wall_s"):
        return [{"workload": "w", "trace": 0, "seed": i,
                 "end_to_end": {metric: {"value": v, "unit": "s"}}} for i, v in enumerate(values)]

    spec = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}],
            "per_layer": []}
    base = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]

    def v(change):
        rows, _ = compare.compare(recs(base), recs(change), spec)
        return rows[0][-1]

    assert v([x * 0.8 for x in base]) == "improved"
    assert v([x * 1.2 for x in base]) == "worse"
    assert v([x * 1.01 for x in base]) == "no-worse"
    assert v([0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 1.0, 1.0, 0.8, 1.2]) == "unresolved"


def test_each_op_is_scaled_by_the_probes_around_it():
    w, ref = run.PROBE_EVERY_S, run.REFERENCE_PROBE_S
    runner = run.Runner()
    runner.probes = [(0.0, 2 * ref), (1.0, ref), (1.0 + 3 * w / 4, 4 * ref), (2.0, 8 * ref)]
    runner.latencies = [0.5, 0.001]
    runner.spans = [(0.01, 0.99), (1.0 + w / 4, 1.0 + w / 4 + 0.001)]
    long_op, short_op = runner.scaled()
    assert math.isclose(long_op, 0.5 / 1.5)  # the probes just before and just after it
    assert math.isclose(short_op, 0.001 / 2.5)  # not the probe a second later


def test_an_op_just_past_the_window_keeps_the_last_probe():
    runner = run.Runner()
    runner.probes = [(0.0, 2 * run.REFERENCE_PROBE_S)]
    runner.latencies = [0.001]
    runner.spans = [(run.PROBE_EVERY_S + 1e-6, run.PROBE_EVERY_S + 0.001)]
    assert math.isclose(runner.scaled()[0], 0.0005)
