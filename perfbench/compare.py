"""Compare benchmark runs of a parent commit and a change, per (metric, workload).

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result records (``*.json``) that run.py wrote with
``--out``.  Runs pair up by seed (by order when the seeds differ).  For
every end-to-end metric of BENCHMARK.json and every workload it prints each
side's median and quartiles, the pairs the change won, lost and tied, and
a verdict:

- worse: the change's median is worse than the parent's by more than the bound;
- improved: the change won at least 9 of 10 pairs and the medians differ by
  more than the parent's own quartile distance;
- unresolved: either side's quartile distance exceeds the bound, unless every
  change run is better than every parent run;
- no-worse: otherwise.

Per-layer metrics from traced records are listed with medians only.  The
exit code is 1 when any verdict is worse or unresolved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def load(directory: Path) -> list[dict]:
    return [json.loads(f.read_text()) for f in sorted(directory.glob("*.json"))]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    by_seed = {r["seed"]: r for r in change}
    if all(r["seed"] in by_seed for r in parent):
        return [(r, by_seed[r["seed"]]) for r in parent]
    return list(zip(parent, change))


def verdict(p_vals, c_vals, won, n_pairs, bound, higher_is_better) -> str:
    sign = 1 if higher_is_better else -1
    p1, pm, p3 = quartiles(p_vals)
    c1, cm, c3 = quartiles(c_vals)
    if sign * (cm - pm) < -bound * abs(pm):
        return "worse"
    if n_pairs and won >= 0.9 * n_pairs and sign * (cm - pm) > p3 - p1:
        return "improved"
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    all_better = all(sign * (c - p) > 0 for c in c_vals for p in p_vals)
    if spread > bound and not all_better:
        return "unresolved"
    return "no-worse"


def compare(parent: list[dict], change: list[dict], spec: dict) -> tuple[list[list[str]], bool]:
    rows, ok = [], True
    workloads = sorted({r["workload"] for r in parent} & {r["workload"] for r in change})
    for wl in workloads:
        for trace, section, metrics in ((0, "end_to_end", spec["end_to_end"]),
                                        (1, "per_layer", spec["per_layer"])):
            p_runs = [r for r in parent if r["workload"] == wl and r["trace"] == trace]
            c_runs = [r for r in change if r["workload"] == wl and r["trace"] == trace]
            if not p_runs or not c_runs:
                continue
            matched = pairs(p_runs, c_runs)
            for m in metrics:
                name = m["name"]
                p_vals = [r[section][name]["value"] for r in p_runs]
                c_vals = [r[section][name]["value"] for r in c_runs]
                higher = m["better"] == "higher"
                won = lost = 0
                for p, c in matched:
                    d = c[section][name]["value"] - p[section][name]["value"]
                    if d != 0:
                        won += (d > 0) == higher
                        lost += (d > 0) != higher
                if "bound" in m:
                    v = verdict(p_vals, c_vals, won, len(matched), m["bound"], higher)
                    ok = ok and v not in ("worse", "unresolved")
                else:
                    v = "-"
                fmt = lambda q: f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"  # noqa: E731
                rows.append([wl, name, m["unit"], fmt(quartiles(p_vals)), fmt(quartiles(c_vals)),
                             f"{won}/{lost}/{len(matched) - won - lost}", v])
    return rows, ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    rows, ok = compare(load(args.parent), load(args.change), SPEC)
    header = ["workload", "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]",
              "won/lost/tied", "verdict"]
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
