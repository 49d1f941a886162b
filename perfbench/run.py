"""Benchmark for partition_lab: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 20 --trace 0

Run from the repository root.  The library is imported from ./src in this
process, which is the single client of a closed loop: each op is issued
after the previous one returns.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics from spans.  ``--workload all``
runs every workload in turn, each in its own process, and prints one table.
The last line of standard output is a JSON object with the keys correct,
attempted, failed and metrics; the full record (provenance, per-op-class
table, statistical checks, output digests) goes to perfbench/results/ or
``--out``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# metric names and units come from BENCHMARK.json, the single copy of both
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])
TAIL_LADDER = (50, 75, 90, 95, 98, 99, 99.5, 99.9)
SETUP_PROBES = 5
# The host's speed drifts with the load of other tenants, by up to 2x,
# and no clock leaves that out.  So a fixed loop, the speed probe, is timed
# between ops (outside their timers), at most PROBE_EVERY_S apart, and each
# op's time is divided by the host factor around it: the mean time of the
# probes from PROBE_EVERY_S before the op to PROBE_EVERY_S after it, over
# the probe's time on the quiet reference host.  setup_s is divided by the
# run's host factor, its raw op time over its scaled op time.
PROBE_EVERY_S = 0.02
REFERENCE_PROBE_S = 3.0e-4
IMPORT_MODULES = (
    "partition_lab", "partition_lab.core", "partition_lab.eppf", "partition_lab.samplers",
    "partition_lab.deletion", "partition_lab.regen", "partition_lab.oracle",
    "partition_lab.cli", "scipy.stats",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None, help="directory for the full result record")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_library():
    """Put ./src first on the path and import the benchmark modules from it."""
    if not (SRC / "partition_lab" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC}/partition_lab not found; run from a checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH))
    import partition_lab
    if Path(partition_lab.__file__).resolve().parent != SRC / "partition_lab":
        raise SystemExit(f"error: partition_lab imported from {partition_lab.__file__}")
    import workloads
    return workloads


# ---------------------------------------------------------------------------
# set-up time, measured in fresh processes

def setup_probe(workload: str, seed: int) -> None:
    workloads = import_library()
    workloads.WORKLOADS[workload](seed).pass_ops(0)
    print(time.monotonic())


def speed_probe() -> float:
    """Seconds for a fixed pure-Python loop, timed with the collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    s, d, x = 0, {}, Fraction(1, 3)
    for i in range(2000):
        s += i * i % 7
        d[i & 63] = s
    for i in range(20):
        x = x * Fraction(i + 1, i + 2) + 1
    dt = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return dt


def measure_setup(workload: str, seed: int, importtime: bool):
    """Seconds from spawning a fresh interpreter until the inputs are built.

    Both ends read CLOCK_MONOTONIC, which all processes share on Linux.
    Returns the times and the median import time of each module.
    """
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += [str(Path(__file__).resolve()), "--setup-probe", "--workload", workload,
            "--seed", str(seed)]
    times, imports = [], {}
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr[-2000:]}")
        times.append(float(proc.stdout.split()[-1]) - t0)
        for line in proc.stderr.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cumulative, name = line[len("import time:"):].split("|")
                if name.strip() in IMPORT_MODULES:
                    imports.setdefault(name.strip(), []).append(int(cumulative) / 1e3)
    return times, {name: statistics.median(v) for name, v in imports.items()}


# ---------------------------------------------------------------------------
# running ops

def _feed(h, x) -> None:
    """Hash a canonical byte form of an op's output (arrays by dtype, shape and bytes)."""
    import numpy as np
    if isinstance(x, np.ndarray):
        h.update(f"{x.dtype.str}{x.shape}".encode())
        h.update(np.ascontiguousarray(x).tobytes())
    elif isinstance(x, (tuple, list)):
        h.update(b"(")
        for y in x:
            _feed(h, y)
        h.update(b")")
    else:
        h.update(repr(x).encode())


class Runner:
    """Times ops one at a time and keeps per-op-class outcomes."""

    def __init__(self):
        self.tracer = None
        self.classes: dict[str, dict] = {}
        self.latencies: list[float] = []  # every untraced op's time
        self.spans: list[tuple[float, float]] = []  # the same ops' start and end
        self.pass_ends: list[int] = []  # len(latencies) after each untraced pass
        self.probes: list[tuple[float, float]] = []  # (start, seconds) of each speed probe
        self.digests: dict[str, "hashlib._Hash"] = {}
        self.ops_run = 0

    def run_pass(self, ops, record: bool = True, digest: bool = False) -> float:
        """Run one pass back to back; returns the summed op time.

        Each output is checked as soon as its op's timer stops and then
        dropped, except the last one, which a chained op takes as input.
        So peak memory counts no outputs the benchmark holds on to.
        """
        total, prev = 0.0, None
        timed = record and self.tracer is None
        for op in ops:
            if self.tracer is not None:
                self.tracer.op_id = self.ops_run
            if timed:
                self.probe()
            self.ops_run += 1
            t0 = time.perf_counter()
            try:
                out, why = op.fn(prev), None
            except Exception as exc:  # an op that raises is a failed op
                out, why = None, f"raised {type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            dt = t1 - t0
            total += dt
            if why is None:
                why = self.check(op, out)
            if record:
                self.record(op, dt, why)
            if timed:
                self.latencies.append(dt)
                self.spans.append((t0, t1))
            if digest:
                _feed(self.digests.setdefault(op.cls, hashlib.sha256()), why if out is None else out)
            prev = out
        if timed:
            self.probe()
            self.pass_ends.append(len(self.latencies))
        return total

    def probe(self) -> None:
        """Time a speed probe unless the last one started less than PROBE_EVERY_S ago."""
        t = time.perf_counter()
        if not self.probes or t - self.probes[-1][0] >= PROBE_EVERY_S:
            self.probes.append((t, speed_probe()))

    def scaled(self) -> list[float]:
        """Each untraced op's time divided by the host factor around it."""
        starts = [t for t, _ in self.probes]
        out = []
        for dt, (t0, t1) in zip(self.latencies, self.spans):
            # the window starts no later than the last probe before the op
            lo = min(bisect.bisect_left(starts, t0 - PROBE_EVERY_S), bisect.bisect_right(starts, t0) - 1)
            near = self.probes[lo:bisect.bisect_right(starts, t1 + PROBE_EVERY_S)]
            out.append(dt * REFERENCE_PROBE_S / statistics.fmean(s for _, s in near))
        return out

    def check(self, op, out) -> str | None:
        """The op's check, with tracing paused so reference values leave no spans."""
        if self.tracer is not None:
            self.tracer.paused = True
        try:
            return op.check(out)
        except Exception as exc:
            return f"check raised {type(exc).__name__}: {exc}"
        finally:
            if self.tracer is not None:
                self.tracer.paused = False

    def record(self, op, dt: float, why: str | None) -> None:
        c = self.classes.setdefault(op.cls, {"attempted": 0, "failed": 0, "unexpected": 0,
                                             "known": None, "reason": None, "ms": []})
        c["attempted"] += 1
        c["ms"].append(dt * 1e3)
        if why is not None:
            c["failed"] += 1
            if op.known is None:
                if not c["unexpected"]:
                    c["reason"] = why  # an unexpected reason outranks a known one
                c["unexpected"] += 1
            else:
                c["known"] = op.known
                c["reason"] = c["reason"] or why

    def totals(self) -> tuple[int, int, int]:
        cs = self.classes.values()
        return (sum(c["attempted"] for c in cs), sum(c["failed"] for c in cs),
                sum(c["unexpected"] for c in cs))


def timed_passes(runner: Runner, wl, budget: float) -> list[float]:
    """Untraced passes, at least the workload's minimum, until the next would end past ``budget``."""
    times: list[float] = []
    start = time.perf_counter()
    while len(times) < wl.min_passes or (time.perf_counter() - start) + statistics.median(times) <= budget:
        k = len(times)
        times.append(runner.run_pass(wl.pass_ops(k), digest=(k == 0)))
    return times


def traced_passes(runner: Runner, wl, budget: float, tracer) -> tuple[list[float], list[float]]:
    """Untraced and traced passes in turn, at least two of each, within ``budget``.

    Taking them in turn lets drift in the host's speed touch both sides
    alike, so the ratio of their means is the cost of tracing.
    """
    times: tuple[list[float], list[float]] = ([], [])
    start = time.perf_counter()
    k = 0
    while (min(map(len, times)) < 2
           or (time.perf_counter() - start) + statistics.median(times[k % 2]) <= budget):
        if k % 2:
            runner.tracer = tracer
            tracer.install()
        try:
            times[k % 2].append(runner.run_pass(wl.pass_ops(k), digest=(k == 0)))
        finally:
            if k % 2:
                tracer.uninstall()
                runner.tracer = None
        k += 1
    return times


def tail_percentile(ops_per_pass: int) -> float:
    """Highest ladder percentile with at least 10 of a pass's ops beyond it.

    It depends only on the op list, so a faster program that fits more
    passes into a run reports the same percentile.
    """
    return max((p for p in TAIL_LADDER if ops_per_pass * (100 - p) >= 1000 - 1e-9),
               default=TAIL_LADDER[0])


def provenance(seed: int) -> dict:
    import numpy
    import scipy
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "seed": seed,
    }


def run_workload(args) -> dict:
    workloads = import_library()
    setup_times, import_ms = measure_setup(args.workload, args.seed, importtime=bool(args.trace))
    wl = workloads.WORKLOADS[args.workload](args.seed)
    runner = Runner()
    runner.run_pass(wl.warmup_ops(), record=False)
    speed_probe()  # the first call in a process is slower
    tracer, layer, traced = None, {}, []
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        untraced, traced = traced_passes(runner, wl, args.seconds, tracer)
        layer = tracing.layer_metrics(tracer.spans, len(traced))
        layer["trace.overhead_ratio"] = statistics.fmean(traced) / statistics.fmean(untraced)
        for name in IMPORT_MODULES:
            layer[f"{name}.import_ms"] = import_ms.get(name, 0.0)
    else:
        untraced = timed_passes(runner, wl, args.seconds)
    checks = []
    finals = wl.final_checks()
    for name, p, detail in finals:
        threshold = workloads.FAMILY_ALPHA / len(finals)
        checks.append({"name": name, "p": p, "threshold": threshold,
                       "pass": None if p is None else p > threshold, "detail": detail})
    attempted, failed, unexpected = runner.totals()
    ops_per_pass = len(runner.latencies) // len(untraced)
    pct = tail_percentile(ops_per_pass)
    import numpy as np
    lat = np.asarray(runner.latencies)
    scaled = np.asarray(runner.scaled())
    raw = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.fmean(untraced),
        "op_p50_ms": float(np.percentile(lat, 50)) * 1e3,
        "op_tail_ms": float(np.percentile(lat, pct)) * 1e3,
    }
    factor = lat.sum() / scaled.sum()  # the run's host factor
    e2e = {
        "setup_s": raw["setup_s"] / factor,
        "wall_s": statistics.fmean(float(part.sum()) for part in np.split(scaled, runner.pass_ends[:-1])),
        "op_p50_ms": float(np.percentile(scaled, 50)) * 1e3,
        "op_tail_ms": float(np.percentile(scaled, pct)) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (attempted - failed) / attempted,
    }
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": unexpected == 0 and all(c["pass"] is not False for c in checks),
        "attempted": attempted,
        "failed": failed,
        "end_to_end": {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()},
        "per_layer": {k: {"value": layer[k], "unit": u} for k, u in PER_LAYER.items() if args.trace},
        "fail_ratio": failed / attempted,
        "tail": {"percentile": pct, "ops_per_pass": ops_per_pass,
                 "ops_beyond": int((scaled > np.percentile(scaled, pct)).sum()), "ops_timed": int(scaled.size)},
        "raw": raw,
        "host": {"factor": factor, "probes": len(runner.probes)},
        "passes": {"untraced_s": untraced, "traced_s": traced},
        "setup_s": setup_times,
        "op_classes": {
            cls: {"attempted": c["attempted"], "failed": c["failed"], "unexpected": c["unexpected"],
                  "known_defect": c["known"], "reason": c["reason"],
                  "p50_ms": statistics.median(c["ms"]),
                  "sha256": runner.digests[cls].hexdigest() if cls in runner.digests else None}
            for cls, c in runner.classes.items()
        },
        "checks": checks,
        "provenance": provenance(args.seed),
        "_tracer": tracer,
    }


def report(rec: dict, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = (f"{rec['workload']}-seed{rec['seed']}-trace{rec['trace']}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    tracer = rec.pop("_tracer")
    if tracer is not None:
        tracer.write(out_dir / f"{stem}.spans.csv")
    (out_dir / f"{stem}.json").write_text(json.dumps(rec, indent=1) + "\n")
    print(f"workload {rec['workload']}  seed {rec['seed']}  trace {rec['trace']}  "
          f"nproc {rec['provenance']['nproc']}  commit {rec['provenance']['commit']}")
    section = "per_layer" if rec["trace"] else "end_to_end"
    for name, m in rec[section].items():
        extra = ""
        if name == "op_tail_ms":
            t = rec["tail"]
            extra = (f"  (p{t['percentile']:g} of {t['ops_per_pass']} ops per pass, "
                     f"{t['ops_beyond']} beyond; {t['ops_timed']} ops timed)")
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}{extra}")
    if not rec["trace"]:
        print(f"  time metrics are scaled by the host factor, {rec['host']['factor']:.4f} over the run "
              f"({rec['host']['probes']} speed probes); the record keeps the raw values")
    print(f"  fail_ratio {rec['fail_ratio']:.4f} ({rec['failed']} of {rec['attempted']} ops failed)")
    for cls, c in rec["op_classes"].items():
        if c["failed"]:
            tag = (f"{c['unexpected']} UNEXPECTED" if c["unexpected"]
                   else f"known: {c['known_defect']}")
            print(f"    {cls:28s} {c['failed']:5d}/{c['attempted']:<5d} {tag} | {c['reason']}")
    for c in rec["checks"]:
        if c["pass"] is None:
            print(f"  check skip (too few samples) {c['name']} ({c['detail']})")
        else:
            print(f"  check {'ok  ' if c['pass'] else 'FAIL'} p={c['p']:.3g} > {c['threshold']:.1e}  "
                  f"{c['name']} ({c['detail']})")
    print(f"  record: {out_dir / (stem + '.json')}")


def run_all(args) -> dict:
    """Each workload in its own process; metrics are keyed workload.metric."""
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", args.out]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(proc.returncode)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        out["correct"] = out["correct"] and res["correct"]
        out["attempted"] += res["attempted"]
        out["failed"] += res["failed"]
        out["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        result = run_all(args)
    else:
        rec = run_workload(args)
        report(rec, Path(args.out) if args.out else BENCH / "results")
        result = {k: rec[k] for k in ("correct", "attempted", "failed")}
        result["metrics"] = rec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
