"""Command line interface.

Subcommands: sample, eppf, decrement, phi, regen-set, order, verify.
`verify` runs the suites of the table _VERIFY_SUITES, which maps each
suite name (eppf, deletion, regen, order, leem) to its checks; `--suite
all` runs every suite in that order.
Exit codes: 0 on success, 1 when a verification suite reports a
failure or stdout is closed before the output is written, 2 on usage
errors, among them `decrement` and `phi` with --n-max, and `verify` with
--n, above MAX_N_MAX, which are rejected before any work; so is `verify`
with --n above oracle.MAX_TYPE_N (20) when the eppf or deletion suite
runs, as those sum over the integer partitions of n.  _emit
writes the whole output in one write, so under `| head` the code
depends on timing: 0 if the write began before the reader closed the
pipe, 1 if the reader was already gone.  All randomized commands take
--seed and produce byte-identical output for identical arguments.
Rational arguments ("1/2", "2") select exact arithmetic; decimals
float.  JSON encodes exact values as {"num": ..., "den": ...}; CSV
always prints floats with a '.' decimal point.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction

from . import core, deletion, oracle, regen, samplers
from .core import ExtParams, ParameterError, dumps, parse_scalar, scalar_to_json
from .eppf import addition_residual, eppf

# decrement and phi print n_max (n_max + 1) / 2 entries, and the verify
# suite regen builds both routes to --n; a larger --n-max or --n exits 2
# before any work.  Both routes are tested to this size.
MAX_N_MAX = 2000


def _add_params_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=str, default=None, help="alpha in [0,1) or < 0 with --m")
    p.add_argument("--theta", type=str, default=None, help="theta > -alpha")
    p.add_argument("--m", type=int, default=None, help="block bound for alpha < 0")
    p.add_argument("--coupon", type=int, default=None, help="m-colour coupon model")


def _params_from_args(ns: argparse.Namespace) -> ExtParams:
    if ns.coupon is not None:
        return ExtParams.coupon(ns.coupon)
    if ns.alpha is None:
        raise ParameterError("pass --alpha/--theta, --alpha/--m, or --coupon")
    alpha = parse_scalar(ns.alpha)
    if alpha < 0:
        if ns.m is None:
            raise ParameterError("alpha < 0 needs --m")
        return ExtParams.neg_alpha(alpha, ns.m)
    if ns.theta is None:
        raise ParameterError("pass --theta with --alpha >= 0")
    return ExtParams.two_param(alpha, parse_scalar(ns.theta))


def _parse_parts(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ParameterError(f"cannot parse parts {text!r}")


def _emit(lines: list[str], out: str | None) -> None:
    payload = "\n".join(lines) + "\n" if lines else ""  # --count 0 prints nothing
    if out is None:
        sys.stdout.write(payload)
    else:
        with open(out, "w") as fh:
            fh.write(payload)


def _fmt_float(x) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# subcommands

def _cmd_eppf(ns: argparse.Namespace) -> int:
    params = _params_from_args(ns)
    value = eppf(params, _parse_parts(ns.parts))
    if ns.format == "json":
        _emit([dumps({"parts": list(_parse_parts(ns.parts)), "value": scalar_to_json(value)})], ns.out)
    else:
        _emit([str(value)], ns.out)
    return 0


def _cmd_sample(ns: argparse.Namespace) -> int:
    core.check_size("--count", ns.count, 0)
    params = _params_from_args(ns)
    rng = samplers.RngHandle(ns.seed)
    lines = []
    for _ in range(ns.count):
        if ns.model == "crp":
            pi = samplers.crp_sample(params, ns.n, rng)
            lines.append(dumps(pi.to_json()))
        elif ns.model == "gem":
            _, freq = samplers.gem_sample(params, rng, eps=ns.eps)
            lines.append(dumps(freq.to_json()))
        else:
            _, freq = samplers.gem_sample(params, rng, eps=ns.eps)
            pi = samplers.paintbox_sample(freq, ns.n, rng)
            lines.append(dumps(pi.to_json()))
    _emit(lines, ns.out)
    return 0


def _check_n_max(flag: str, value: int, why: str) -> None:
    if value > MAX_N_MAX:
        raise ParameterError(f"need {flag} <= {MAX_N_MAX}, got {value} ({why})")


def _cmd_decrement(ns: argparse.Namespace) -> int:
    _check_n_max("--n-max", ns.n_max, "the output grows as n_max**2")
    params = _params_from_args(ns)
    matrix = deletion.decrement_matrix(params, ns.n_max)
    lines = []
    if ns.format == "json":
        lines.append(dumps(matrix.to_json()))
    else:
        lines.append("n,m,q")
        lines += [
            f"{n},{m},{float(q)!r}" for n, row in enumerate(matrix.rows, 1) for m, q in enumerate(row, 1)
        ]
    _emit(lines, ns.out)
    return 0


def _parse_atoms(text: str) -> regen.LevyImageMeasure:
    atoms = []
    for chunk in text.split(","):
        u, _, w = chunk.partition(":")
        atoms.append((parse_scalar(u), parse_scalar(w)))
    return regen.LevyImageMeasure.finite_atoms(atoms)


def _cmd_phi(ns: argparse.Namespace) -> int:
    _check_n_max("--n-max", ns.n_max, "the output grows as n_max**2")
    if ns.atoms is not None:
        measure = _parse_atoms(ns.atoms)
    else:
        if ns.alpha is None or ns.theta is None:
            raise ParameterError("pass --alpha/--theta or --atoms")
        measure = regen.LevyImageMeasure.alpha_theta(parse_scalar(ns.alpha), parse_scalar(ns.theta))
        # a theta past the float range exits 2 before the matrix is built
        core.float_param("--theta", measure.theta)
    matrix = regen.decrement_from_phi(measure, ns.n_max)
    lines = []
    if ns.format == "json":
        payload = {
            "measure": measure.to_json(),
            "phi": [
                {
                    "n": n,
                    "phi_n": core.float_param("phi_n", regen.laplace_exponent(measure, n)),
                    "q": [scalar_to_json(v) for v in matrix.row(n)],
                }
                for n in range(1, ns.n_max + 1)
            ],
        }
        lines.append(dumps(payload))
    else:
        lines.append("n,m,phi_nm,q")
        lines += [
            f"{n},{m},{core.float_param('phi(n, m)', regen.phi_nm(measure, n, m))!r},{float(q)!r}"
            for n, row in enumerate(matrix.rows, 1)
            for m, q in enumerate(row, 1)
        ]
    _emit(lines, ns.out)
    return 0


def _float_arg(name: str, text: str) -> float:
    """--name as a float; a value past the float range is a usage error."""
    return core.float_param(f"--{name}", parse_scalar(text))


def _cmd_regen_set(ns: argparse.Namespace) -> int:
    if ns.model != "ordered" and ns.theta is None:
        raise ParameterError(f"pass --theta with --model {ns.model}")
    if ns.model == "crossbreed" and ns.alpha is None:
        raise ParameterError("pass --alpha with --model crossbreed")
    rng = samplers.RngHandle(ns.seed)
    if ns.model == "stick":
        iv = regen.stick_breaking_set(_float_arg("theta", ns.theta), ns.eps, rng)
    elif ns.model == "compound":
        _, iv = regen.compound_poisson_set(_float_arg("theta", ns.theta), ns.eps, rng)
    elif ns.model == "crossbreed":
        iv = regen.crossbreed_set(
            _float_arg("alpha", ns.alpha), _float_arg("theta", ns.theta), ns.eps, rng
        )
    else:  # ordered
        params = _params_from_args(ns)
        xi = parse_scalar(ns.xi) if ns.xi is not None else params.xi()
        _, freq = samplers.gem_sample(params, rng, eps=ns.eps)
        iv = regen.ordered_arrangement(freq, xi, rng)
    if ns.format == "json":
        _emit([dumps(iv.to_json())], ns.out)
    else:
        lines = ["left,right"]
        for (l, r) in iv.intervals:
            lines.append(f"{_fmt_float(l)},{_fmt_float(r)}")
        lines.append(f"# residual,{_fmt_float(iv.residual)}")
        _emit(lines, ns.out)
    return 0


def _cmd_order(ns: argparse.Namespace) -> int:
    core.check_size("--count", ns.count, 0)
    rng = samplers.RngHandle(ns.seed)
    lines = []
    if ns.x is not None:
        x = [parse_scalar(v) for v in ns.x.split(",")]
        tau = parse_scalar(ns.tau) if ns.tau is not None else 0
        for _ in range(ns.count):
            perm = samplers.tau_biased_perm(x, tau, rng)
            lines.append(dumps({"perm": list(perm)}))
    else:
        if ns.k is None:
            raise ParameterError("pass --k with --xi orders, or --x for pick orders")
        xi = parse_scalar(ns.xi) if ns.xi is not None else 1
        for _ in range(ns.count):
            order = samplers.xi_order(ns.k, xi, rng)
            lines.append(dumps({"arrangement": list(order.arrangement), "ranks": list(order.ranks)}))
    _emit(lines, ns.out)
    return 0


_VERIFY_GRID = (
    ExtParams.two_param(0, 1),
    ExtParams.two_param(0, 2),
    ExtParams.two_param(Fraction(1, 2), Fraction(1, 2)),
    ExtParams.two_param(Fraction(1, 3), Fraction(2, 3)),
    ExtParams.two_param(Fraction(2, 3), 0),
    ExtParams.neg_alpha(-1, 3),
    ExtParams.coupon(4),
)


def _params_label(params: ExtParams) -> str:
    if params.kind == core.COUPON:
        return f"coupon({params.m})"
    if params.kind == core.NEG_ALPHA:
        return f"neg_alpha({params.alpha}, m={params.m})"
    return f"two_param({params.alpha}, {params.theta})"


def _decrement_gap(params: ExtParams, n: int):
    direct = deletion.decrement_matrix(params, n)
    measure = regen.LevyImageMeasure.alpha_theta(params.alpha, params.theta)
    via_phi = regen.decrement_from_phi(measure, n)
    return max(
        abs(direct.value(nn, m) - via_phi.value(nn, m))
        for nn in range(1, n + 1)
        for m in range(1, nn + 1)
    )


def _kernel_points(grid: tuple[ExtParams, ...]) -> list[ExtParams]:
    """The two-parameter points with theta >= 0, where tau = alpha/(alpha + theta) is in [0, 1]
    and the alpha-theta image measure exists."""
    return [p for p in grid if p.kind == core.TWO_PARAM and p.theta >= 0]


# Each suite maps (n, grid) to its tasks in output order, each task being
# (check name, params label, n used, deviation thunk).  `--suite all`
# runs every suite in table order.
_VERIFY_SUITES = {
    "eppf": lambda n, grid: [
        task
        for p in grid
        for task in (
            ("eppf_normalization", _params_label(p), n, lambda p=p: abs(oracle.eppf_total(p, n) - 1)),
            (
                "eppf_addition",
                _params_label(p),
                min(n, 6),
                lambda p=p: max(
                    abs(addition_residual(p, parts))
                    for size in range(1, min(n, 6) + 1)
                    for parts in deletion._compositions(size)
                ),
            ),
        )
    ],
    "deletion": lambda n, grid: [
        ("deletion_characterization", _params_label(p), n, lambda p=p: oracle.deletion_law_check(p, n))
        for p in grid
    ] + [
        ("tau_regeneration", _params_label(p), n, lambda p=p: oracle.tau_regen_check(p, n))
        for p in _kernel_points(grid)
    ],
    "regen": lambda n, grid: [
        ("decrement_vs_phi", _params_label(p), n, lambda p=p: _decrement_gap(p, n))
        for p in _kernel_points(grid)
    ],
    "order": lambda n, grid: [
        ("xi_order_enumeration", f"xi={xi}", min(n, 6),
         lambda xi=xi: oracle.xi_order_enumeration_residual(min(n, 6), xi))
        for xi in (Fraction(1, 2), 1, 2, 3)
    ],
    "leem": lambda n, grid: [
        ("pick_order_identity", f"tau={tau}", 4, lambda tau=tau: oracle.leem_check((1, 2, 3, 4), tau))
        for tau in (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1)
    ],
}


def _cmd_verify(ns: argparse.Namespace) -> int:
    core.check_size("--n", ns.n, 1)  # the leem suite fixes k = 4 and never reads n
    _check_n_max("--n", ns.n, "the regen suite builds two decrement matrices to n")
    if ns.suite in ("all", "eppf", "deletion") and ns.n > oracle.MAX_TYPE_N:
        raise ParameterError(f"need --n <= {oracle.MAX_TYPE_N} with the eppf and deletion suites, "
                             f"got {ns.n} (they sum over the integer partitions of n)")
    if not 0 <= ns.tol < math.inf:  # a negative or nan --tol fails every float check
        raise ParameterError(f"need finite --tol >= 0, got {ns.tol}")
    if ns.alpha is not None or ns.coupon is not None:
        grid: tuple[ExtParams, ...] = (_params_from_args(ns),)
    else:
        grid = _VERIFY_GRID
    tasks = [
        task
        for suite, build in _VERIFY_SUITES.items()
        if ns.suite in ("all", suite)
        for task in build(ns.n, grid)
    ]
    if not tasks:
        raise ParameterError("no checks match the requested suite and parameters")
    lines = []
    failures = 0
    for name, label, n_used, check in tasks:
        dev = check()
        ok = dev == 0 if ns.exact else float(abs(dev)) <= ns.tol
        failures += 0 if ok else 1
        lines.append(
            dumps(
                {
                    "check": name,
                    "params": label,
                    "n": n_used,
                    "deviation": float(dev),
                    "pass": bool(ok),
                }
            )
        )
    lines.append(dumps({"checks": len(tasks), "failures": failures}))
    _emit(lines, ns.out)
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="partition-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eppf", help="evaluate the partition probability of one composition")
    _add_params_args(p)
    p.add_argument(
        "--lambda", "--parts", dest="parts", required=True,
        help="comma separated block sizes, e.g. 2,1",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_eppf)

    p = sub.add_parser("sample", help="draw partitions or frequencies")
    _add_params_args(p)
    p.add_argument("--model", choices=("crp", "gem", "paintbox"), required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--eps", type=float, default=1e-4, help="gem truncation; the residual shrinks like k**(-(1-alpha)/alpha), so tight values are only affordable at small alpha")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("decrement", help="decrement matrix rows q(n, m)")
    _add_params_args(p)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_decrement)

    p = sub.add_parser("phi", help="binomial integrals and q(n, m) of an image Levy measure")
    p.add_argument("--alpha", default=None)
    p.add_argument("--theta", default=None)
    p.add_argument("--atoms", default=None, help="u:w pairs, comma separated")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_phi)

    p = sub.add_parser("regen-set", help="sample a regenerative interval set")
    _add_params_args(p)
    p.add_argument("--model", choices=("stick", "compound", "crossbreed", "ordered"), required=True)
    p.add_argument("--xi", default=None, help="arrangement bias for --model ordered")
    p.add_argument("--eps", type=float, default=1e-4)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_regen_set)

    p = sub.add_parser("order", help="sample xi-biased orders or tau-biased pick orders")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--xi", default=None)
    p.add_argument("--x", default=None, help="weights for the tau-biased pick order")
    p.add_argument("--tau", default=None)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("verify", help="run exact consistency suites")
    _add_params_args(p)
    p.add_argument("--suite", choices=("all", *_VERIFY_SUITES), default="all")
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--exact", action="store_true", help="require literal zero deviations")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        rc = ns.func(ns)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # The reader closed the pipe early (`| head`).  Point stdout at
        # devnull so the interpreter's flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except (
        ParameterError,
        core.ConvergenceError,
        core.MalformedPartitionError,
        core.UnsupportedKernelError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
