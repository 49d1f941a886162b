"""Spans around partition_lab's public functions, recorded from outside the library.

``Tracer.install`` wraps every function exported by partition_lab/__init__.py
(except the two hot scalar helpers), the RngHandle variate methods,
IntervalSet.locate and cli.main, and rebinds each wrapper in every
partition_lab.* namespace that holds the original, so calls between
modules are traced too.  ``uninstall`` restores the originals.

A span is (id, name, layer, start_ns, end_ns, parent id, op id, units);
units is the work the call did (variates drawn, rows, replicates,
partitions), read from its arguments or result after the span's end time
was taken, or None when the call raised.
"""

from __future__ import annotations

import inspect
import itertools
import math
import sys
import threading
import time
from collections import defaultdict
from fractions import Fraction

import partition_lab
import partition_lab.cli  # noqa: F401  (install wraps cli.main)
from partition_lab.core import IntervalSet
from partition_lab.samplers import RngHandle

UNTRACED = {"rising_factorial", "exact_div"}  # too hot: cost lands in the caller
RNG_METHODS = ("random", "normal", "exponential", "gamma", "beta")
LAYERS = ("core", "eppf", "samplers", "deletion", "regen", "oracle", "cli")
SET_BUILDERS = ("compound_poisson_set", "stick_breaking_set", "crossbreed_set")
# (alpha, theta) of criterion 10, the only point regen.betas_per_replicate counts
BETAS_POINT = (Fraction(1, 2), Fraction(1, 2))


def _size(args, kwargs, pos):
    """(variates drawn, whether it was a scalar call)."""
    size = kwargs.get("size", args[pos] if len(args) > pos else None)
    return (1, True) if size is None else (int(size), False)


def _units(name, args, kwargs, result):
    """Work done by one call, for the per-unit metrics."""
    if name in ("random", "normal", "exponential"):
        return _size(args, kwargs, {"random": 1, "normal": 1, "exponential": 2}[name])
    if name == "gamma":
        return _size(args, kwargs, 2)
    if name == "beta":
        return _size(args, kwargs, 3)
    if name == "decrement_matrix":
        nonfinite = sum(1 for row in result.rows for v in row if not math.isfinite(float(v)))
        return (result.n_max, nonfinite)
    if name == "decrement_from_phi":
        return result.n_max
    if name == "exact_law":
        return len(result.probs)
    if name == "enumerate_partitions":
        return len(result)
    if name == "leftmost_deletion_counts":
        params = kwargs.get("params", args[0])
        return (int(kwargs.get("count", args[2])), (params.alpha, params.theta) == BETAS_POINT)
    return 1


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op_id = -1
        self.paused = False  # set while the benchmark checks outputs
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, layer: str):
        spans, ids, perf = self.spans, self._ids, time.perf_counter_ns

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            stack = self._stack()
            # a verify worker thread's first span hangs under the main thread's span
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else -1)
            sid = next(ids)
            stack.append(sid)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((sid, name, layer, t0, perf(), parent, self.op_id, None))
                stack.pop()
                raise
            t1 = perf()
            stack.pop()
            spans.append((sid, name, layer, t0, t1, parent, self.op_id,
                          _units(name, args, kwargs, result)))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "partition_lab" or key.startswith("partition_lab.")]
        targets = {}
        for name in partition_lab.__all__:
            obj = getattr(partition_lab, name)
            if inspect.isfunction(obj) and name not in UNTRACED:
                targets[id(obj)] = (obj, name, obj.__module__.rsplit(".", 1)[-1])
        cli = sys.modules["partition_lab.cli"]
        targets[id(cli.main)] = (cli.main, "main", "cli")
        wrappers = {key: self.wrap(fn, name, layer) for key, (fn, name, layer) in targets.items()}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and value is targets[id(value)][0]:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        for cls, names, layer in ((RngHandle, RNG_METHODS, "samplers"),
                                  (IntervalSet, ("locate",), "core")):
            for name in names:
                fn = cls.__dict__[name]
                self._saved.append((cls, name, fn))
                setattr(cls, name, self.wrap(fn, name, layer))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,name,layer,start_ns,end_ns,parent,op,units\n")
            for s in sorted(self.spans):
                units = s[7][0] if isinstance(s[7], tuple) else s[7]
                fh.write(f"{s[0]},{s[1]},{s[2]},{s[3]},{s[4]},{s[5]},{s[6]},{units}\n")


def _covered(intervals) -> int:
    """Total length of the union of (start, end) intervals."""
    total, end = 0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def layer_metrics(spans, passes: int) -> dict[str, float]:
    """Per-layer metrics from spans; counts are per traced pass."""
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s[5]].append((s[3], s[4]))
    self_ns = defaultdict(int)
    for s in spans:
        self_ns[s[2]] += (s[4] - s[3]) - _covered(children.get(s[0], ()))

    def parent_name(s):
        p = by_id.get(s[5])
        return p[1] if p else None

    def ancestor(s, name):
        while s is not None:
            s = by_id.get(s[5])
            if s is not None and s[1] == name:
                return s
        return None

    calls = defaultdict(int)
    incl_ns = defaultdict(int)
    units = defaultdict(int)
    for s in spans:
        calls[s[1]] += 1
        incl_ns[s[1]] += s[4] - s[3]
    scalar = vector = scalar_ns = vector_ns = 0
    gamma_out = gamma_normals = 0
    nonfinite = set_ns = sets = 0
    point_betas = partitions = 0
    for s in spans:
        name, u = s[1], s[7]
        if u is None:  # the call raised; its time counts, its work does not
            continue
        if name in RNG_METHODS:
            u, is_scalar = u
            if parent_name(s) not in RNG_METHODS:
                if is_scalar:
                    scalar += 1
                    scalar_ns += s[4] - s[3]
                else:
                    vector += u
                    vector_ns += s[4] - s[3]
            if name == "gamma":
                gamma_out += u
            if name == "normal" and parent_name(s) == "gamma":
                gamma_normals += u
            if name == "beta":
                call = ancestor(s, "leftmost_deletion_counts")
                if call is not None and call[7] is not None and call[7][1]:
                    point_betas += u
        elif name == "decrement_matrix":
            nonfinite += u[1]
            units["decrement_rows"] += u[0]
        elif name == "decrement_from_phi":
            units["phi_rows"] += u
        elif name in ("exact_law", "enumerate_partitions"):
            partitions += u
        elif name == "leftmost_deletion_counts":
            units["replicates"] += u[0]
            units["point_replicates"] += u[0] if u[1] else 0
        if name in SET_BUILDERS:
            sets += 1
            set_ns += s[4] - s[3]

    def per(n_ns, count, scale):
        return n_ns / count / scale if count else 0.0

    passes = max(passes, 1)
    m = {f"{layer}.self_s": self_ns[layer] / 1e9 / passes for layer in LAYERS if layer != "cli"}
    m.update({
        "core.set_partitions": calls["canonicalize"] / passes,
        "core.locate_calls": calls["locate"] / passes,
        "eppf.eppf_calls": calls["eppf"] / passes,
        "eppf.eppf_us_per_call": per(incl_ns["eppf"], calls["eppf"], 1e3),
        "eppf.stick_fraction_law_calls": calls["stick_fraction_law"] / passes,
        "eppf.derived_eppf_ms_per_call": per(incl_ns["derived_eppf"], calls["derived_eppf"], 1e6),
        "samplers.scalar_variates": scalar / passes,
        "samplers.scalar_us_per_variate": per(scalar_ns, scalar, 1e3),
        "samplers.vector_variates": vector / passes,
        "samplers.vector_ns_per_variate": per(vector_ns, vector, 1),
        "samplers.gamma_normals_per_accept": gamma_normals / gamma_out if gamma_out else 0.0,
        "deletion.decrement_ms_per_row": per(incl_ns["decrement_matrix"], units["decrement_rows"], 1e6),
        "deletion.nonfinite_entries": nonfinite / passes,
        "regen.betas_per_replicate": (point_betas / units["point_replicates"]
                                      if units["point_replicates"] else 0.0),
        "regen.us_per_replicate": per(incl_ns["leftmost_deletion_counts"], units["replicates"], 1e3),
        "regen.us_per_set": per(set_ns, sets, 1e3),
        "regen.phi_ms_per_row": per(incl_ns["decrement_from_phi"], units["phi_rows"], 1e6),
        "oracle.partitions_enumerated": partitions / passes,
        "oracle.us_per_partition": per(incl_ns["exact_law"] + incl_ns["enumerate_partitions"],
                                       partitions, 1e3),
        "cli.main_ms": per(incl_ns["main"], calls["main"], 1e6),
    })
    return m

