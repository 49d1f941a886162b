"""Command line interface: golden outputs, exit codes, determinism."""

import hashlib
import json
import math
import subprocess
import sys
import time

import pytest

from partition_lab.cli import MAX_N_MAX, main


def run(capsys, *args):
    rc = main(list(args))
    out = capsys.readouterr()
    return rc, out.out, out.err


# ---------------------------------------------------------------------------
# eppf

@pytest.mark.parametrize(
    ("args", "line"),
    [
        (("--alpha", "0", "--theta", "1", "--lambda", "2,1"), "1/6"),
        (("--alpha", "1/2", "--theta", "1/2", "--lambda", "2"), "1/3"),
        (("--alpha", "-1", "--m", "3", "--lambda", "2,1"), "1/5"),
        # decimal parameters switch to float arithmetic, also where the value is 1
        (("--alpha", "0.5", "--theta", "0.5", "--lambda", "2"), "0.3333333333333333"),
        (("--alpha", "0.5", "--theta", "0.5", "--lambda", "1"), "1.0"),
    ],
)
def test_eppf_text(capsys, args, line):
    rc, out, err = run(capsys, "eppf", *args)
    assert rc == 0 and err == ""
    assert out == line + "\n"


def test_float_eppf_text_is_finite_past_171(capsys):
    rc, out, err = run(capsys, "eppf", "--alpha", "0.5", "--theta", "0.5", "--lambda", "300")
    assert rc == 0 and err == ""
    assert float(out) == pytest.approx(0.0016694490818030050, rel=1e-12, abs=0)


@pytest.mark.parametrize(("args", "value"), [
    (("--theta", "1e20", "--lambda", "40"), 0.0),
    (("--theta", "1e20", "--lambda", "100,100"), 0.0),
    (("--theta", "1e300", "--lambda", "2,1"), 5e-301),
])
def test_float_eppf_text_at_large_theta(capsys, args, value):
    # the log route's lgamma(theta + n) - lgamma(theta) cancelled here: it
    # printed 1.8e45 and 5.0e299 and raised OverflowError on 100,100
    rc, out, err = run(capsys, "eppf", "--alpha", "0.5", *args)
    assert rc == 0 and err == ""
    assert float(out) == pytest.approx(value, rel=1e-12, abs=0)


def test_eppf_json(capsys):
    rc, out, _ = run(capsys, "eppf", "--alpha", "0", "--theta", "1", "--lambda", "2,1", "--format", "json")
    assert rc == 0
    assert out == '{"parts":[2,1],"value":{"den":6,"num":1}}\n'
    rc, out, _ = run(capsys, "eppf", "--coupon", "4", "--lambda", "1,1", "--format", "json")
    assert json.loads(out) == {"parts": [1, 1], "value": {"den": 4, "num": 3}}
    rc, out, _ = run(capsys, "eppf", "--alpha", "0.5", "--theta", "0.5", "--lambda", "1", "--format", "json")
    assert out == '{"parts":[1],"value":1.0}\n'


def test_float_decrement_json_has_no_exact_entries(capsys):
    rc, out, _ = run(capsys, "decrement", "--alpha", "0.3", "--theta", "0.5", "--n-max", "2",
                     "--format", "json")
    assert rc == 0
    assert out == '{"n_max":2,"rows":[[1.0],[0.5333333333333333,0.4666666666666666]]}\n'


def test_eppf_out_file(capsys, tmp_path):
    target = tmp_path / "val.txt"
    rc, out, _ = run(capsys, "eppf", "--alpha", "0", "--theta", "1", "--lambda", "2,1", "--out", str(target))
    assert rc == 0 and out == ""
    assert target.read_text() == "1/6\n"


# ---------------------------------------------------------------------------
# sample / regen-set / order

def test_sample_crp_deterministic(capsys):
    args = ("sample", "--model", "crp", "--alpha", "0", "--theta", "1",
            "--n", "5", "--count", "2", "--seed", "7")
    rc, first, _ = run(capsys, *args)
    assert rc == 0
    assert first.splitlines()[0] == '{"blocks":[[1],[2,5],[3],[4]],"n":5}'
    rc, second, _ = run(capsys, *args)
    assert second == first  # byte-identical rerun
    for line in first.splitlines():
        rec = json.loads(line)
        assert rec["n"] == 5
        assert sorted(e for b in rec["blocks"] for e in b) == [1, 2, 3, 4, 5]


@pytest.mark.parametrize(
    ("args", "stdout"),
    [
        (("sample", "--model", "crp", "--alpha", "0", "--theta", "1", "--n", "5",
          "--count", "2", "--seed", "7"),
         '{"blocks":[[1],[2,5],[3],[4]],"n":5}\n'
         '{"blocks":[[1,2,4],[3],[5]],"n":5}\n'),
        (("sample", "--model", "gem", "--alpha", "1/4", "--theta", "1/2", "--eps", "0.01",
          "--count", "2", "--seed", "11"),
         '{"dust":0.0,"entries":[0.09395664738982426,0.019400934502954766,'
         '0.011492989005204969,0.13048634360807537,0.6539115473909521,'
         '0.019633753951113494,0.009431148478020214,0.04710199898229197,'
         '0.009608613070473745],"residual":0.0049760236210890174}\n'
         '{"dust":0.0,"entries":[0.8361819349185331,0.07473461051192616,'
         '0.07349978785221427,0.002225653096960574,0.0010241977046984052,'
         '0.002783246926122671],"residual":0.009550568989544837}\n'),
        (("sample", "--model", "gem", "--alpha", "-1", "--m", "3", "--seed", "1"),
         '{"dust":0.0,"entries":[0.8307256831328045,0.057660742126816225,'
         '0.11161357474037929],"residual":0.0}\n'),
        (("regen-set", "--model", "crossbreed", "--alpha", "1/4", "--theta", "1",
          "--eps", "0.2", "--seed", "3", "--format", "csv"),
         "left,right\n"
         "0.0,0.17806025719493\n"
         "0.17806025719493,0.24386660971961563\n"
         "0.24386660971961563,0.25362432874861757\n"
         "0.25589926451213096,0.8230743323818798\n"
         "0.8247786464205031,0.8257930576170767\n"
         "0.8257930576170767,0.8260356705002173\n"
         "0.8260356705002173,0.8310504161247041\n"
         "0.8310504161247041,0.8321091495336638\n"
         "0.8321091495336638,0.8779593154638236\n"
         "0.8779593154638236,0.879342840113477\n"
         "0.8848288829974034,0.8950874421433039\n"
         "0.8950874421433039,0.9602420228386362\n"
         "# residual,0.049223269847426865\n"),
        (("order", "--x", "1/2,1/3,1/6", "--tau", "1/4", "--count", "2", "--seed", "1"),
         '{"perm":[2,3,1]}\n{"perm":[3,1,2]}\n'),
    ],
    ids=["sample-crp", "sample-gem", "sample-gem-terminated", "regen-set-crossbreed", "order-tau"],
)
def test_seeded_stdout_frozen(capsys, args, stdout):
    rc, out, err = run(capsys, *args)
    assert rc == 0 and err == ""
    assert out == stdout


def test_decrement_csv(capsys):
    rc, out, _ = run(capsys, "decrement", "--alpha", "1/2", "--theta", "1/2",
                     "--n-max", "3", "--format", "csv")
    assert rc == 0
    assert out.splitlines() == [
        "n,m,q",
        "1,1,1.0",
        "2,1,0.6666666666666666",
        "2,2,0.3333333333333333",
        "3,1,0.6",
        "3,2,0.2",
        "3,3,0.2",
    ]


def test_float_decrement_csv_is_finite(capsys):
    rc, out, _ = run(capsys, "decrement", "--alpha", "0.3", "--theta", "0.5", "--n-max", "200")
    assert rc == 0
    assert len(out.splitlines()) == 1 + 200 * 201 // 2
    assert "nan" not in out and "inf" not in out


# theta = 1e300 overflows the recurrences' float products to inf; the
# rows reach 0 without a warning on stderr
_OVERFLOWING_ROWS = {
    "decrement": "n,m,q\n1,1,1.0\n2,1,1.0\n2,2,6.999999999999999e-301\n3,1,1.0\n3,2,0.0\n"
                 "3,3,0.0\n4,1,1.0\n4,2,0.0\n4,3,0.0\n4,4,0.0\n",
    # phi(n, 1) = n Gamma(0.7) theta^-0.7 to within 1e-13; the rest underflow
    "phi": "n,m,phi_nm,q\n1,1,1.2980553326476818e-210,1.0\n2,1,2.5961106652953635e-210,1.0\n"
           "2,2,0.0,6.999999999999999e-301\n3,1,3.894165997943045e-210,1.0\n3,2,0.0,0.0\n"
           "3,3,0.0,0.0\n4,1,5.192221330590727e-210,1.0\n4,2,0.0,0.0\n4,3,0.0,0.0\n4,4,0.0,0.0\n",
}


@pytest.mark.parametrize("command", list(_OVERFLOWING_ROWS))
def test_overflowing_float_rows_print_quietly(command):
    proc = subprocess.run(
        [sys.executable, "-m", "partition_lab.cli", command,
         "--alpha", "0.3", "--theta", "1e300", "--n-max", "4"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == _OVERFLOWING_ROWS[command]


def test_phi_csv_atoms(capsys):
    rc, out, _ = run(capsys, "phi", "--atoms", "1/2:1", "--n-max", "2", "--format", "csv")
    assert rc == 0
    assert out.splitlines() == [
        "n,m,phi_nm,q",
        "1,1,0.5,1.0",
        "2,1,0.5,0.6666666666666666",
        "2,2,0.25,0.3333333333333333",
    ]


def test_regen_set_formats(capsys):
    rc, out, _ = run(capsys, "regen-set", "--model", "stick", "--theta", "1",
                     "--eps", "0.01", "--seed", "3", "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "left,right"
    assert lines[-1].startswith("# residual,")
    assert 0 < float(lines[-1].split(",")[1]) <= 0.01
    prev = 0.0
    for line in lines[1:-1]:
        left, right = map(float, line.split(","))
        assert prev <= left < right <= 1.0
        prev = right
    rc, out, _ = run(capsys, "regen-set", "--model", "ordered", "--alpha", "1/2",
                     "--theta", "1/2", "--xi", "1", "--eps", "0.01", "--seed", "3",
                     "--format", "json")
    rec = json.loads(out)
    assert set(rec) == {"intervals", "residual"}
    assert 0 <= rec["residual"] <= 0.01


def test_order_commands(capsys):
    rc, out, _ = run(capsys, "order", "--k", "3", "--xi", "2", "--count", "2", "--seed", "1")
    assert rc == 0
    first = json.loads(out.splitlines()[0])
    assert sorted(first["arrangement"]) == [1, 2, 3]
    assert len(first["ranks"]) == 3
    rc, out, _ = run(capsys, "order", "--x", "1/2,1/3,1/6", "--tau", "1/4",
                     "--count", "2", "--seed", "1")
    assert rc == 0
    assert json.loads(out.splitlines()[0]) == {"perm": [2, 3, 1]}


# ---------------------------------------------------------------------------
# verify

def test_verify_pass(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "deletion", "--alpha", "1/2",
                     "--theta", "1/2", "--n", "5")
    assert rc == 0
    lines = [json.loads(s) for s in out.splitlines()]
    summary = lines[-1]
    assert summary == {"checks": 2, "failures": 0}
    for rec in lines[:-1]:
        assert set(rec) == {"check", "params", "n", "deviation", "pass"}
        assert rec["pass"] is True
        assert rec["deviation"] == 0.0


def test_verify_float_params_fail_exact(capsys):
    # float arithmetic leaves ulp-size deviations, so --exact must report them
    rc, out, _ = run(capsys, "verify", "--suite", "eppf", "--alpha", "0.5",
                     "--theta", "0.5", "--n", "5", "--exact")
    assert rc == 1
    summary = json.loads(out.splitlines()[-1])
    assert summary["failures"] > 0


def test_verify_leem_suite(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "leem", "--n", "4")
    assert rc == 0
    assert json.loads(out.splitlines()[-1])["failures"] == 0


@pytest.mark.parametrize(
    ("args", "digest"),
    [
        # the default grid at n = 6, as the benchmark's verify-grid op runs it
        ((), "09f7b5babd4350de8ae0ceccf73e4cdcf00449b8f46d42d78e6cdb8cc58c01a4"),
        (("--n", "7"), "1e28c9ad384054873396a9abe3fe847d849e40b28a0b804c44ef71934a281a47"),
        # the type walk's bound, as CI pins them
        (("--suite", "eppf", "--n", "20", "--exact"),
         "5f819c0fcc713df4730e3c3854649af60a07a77f228029cf10ce8fb1e691fe45"),
        (("--suite", "deletion", "--n", "20", "--exact"),
         "41e2a9f5edff97ce61622ed985f5941d99cea539ae6f8895d5aee232d34a88a1"),
    ],
    ids=["n6", "n7", "eppf-n20", "deletion-n20"],
)
def test_verify_stdout_frozen(capsys, args, digest):
    rc, out, err = run(capsys, "verify", *args)
    assert rc == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


VERIFY_SUITES = {
    "eppf": ("eppf_normalization", "eppf_addition"),
    "deletion": ("deletion_characterization", "tau_regeneration"),
    "regen": ("decrement_vs_phi",),
    "order": ("xi_order_enumeration",),
    "leem": ("pick_order_identity",),
}


def test_verify_suites_split_the_full_run(capsys):
    _, out, _ = run(capsys, "verify", "--n", "5")
    full = out.splitlines()[:-1]
    assert {json.loads(line)["check"] for line in full} == {
        check for checks in VERIFY_SUITES.values() for check in checks
    }
    for suite, checks in VERIFY_SUITES.items():
        rc, out, _ = run(capsys, "verify", "--suite", suite, "--n", "5")
        assert rc == 0
        assert out.splitlines()[:-1] == [line for line in full if json.loads(line)["check"] in checks]


def test_verify_empty_selection_is_usage_error(capsys):
    rc, out, err = run(capsys, "verify", "--suite", "regen", "--coupon", "4")
    assert rc == 2
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# failure modes

@pytest.mark.parametrize(
    "args",
    [
        ("eppf", "--alpha", "2", "--theta", "1", "--lambda", "2,1"),
        ("eppf", "--alpha", "0", "--theta", "1", "--lambda", "0,1"),
        ("eppf", "--alpha", "1/0", "--theta", "1", "--lambda", "2"),
        ("decrement", "--coupon", "4", "--n-max", "3"),
        ("sample", "--model", "gem", "--alpha", "1/2", "--theta", "1/2", "--eps", "0", "--seed", "1"),
        ("sample", "--model", "crp", "--alpha", "0", "--theta", "1", "--count", "-1", "--seed", "1"),
        ("order", "--k", "3", "--count", "-1", "--seed", "1"),
        ("order", "--x", "nan,1/2", "--tau", "1/4", "--count", "2", "--seed", "1"),
        # infinite parameters: nan output before, or the whole stick budget
        ("eppf", "--alpha", "0.25", "--theta", "inf", "--lambda", "2"),
        ("eppf", "--alpha", "0", "--theta", "inf", "--lambda", "1,1"),
        ("decrement", "--alpha", "0.25", "--theta", "inf", "--n-max", "3"),
        ("phi", "--alpha", "0.5", "--theta", "inf", "--n-max", "2"),
        ("phi", "--atoms", "1/2:1,1:inf", "--n-max", "2"),
        ("sample", "--model", "gem", "--alpha", "0.25", "--theta", "inf", "--eps", "1e-3", "--seed", "1"),
        ("regen-set", "--model", "stick", "--theta", "inf", "--eps", "1e-3", "--seed", "1"),
        # a missing parameter: parse_scalar(None) raised AttributeError before
        ("regen-set", "--model", "stick", "--seed", "1"),
        ("regen-set", "--model", "compound", "--seed", "1"),
        ("regen-set", "--model", "crossbreed", "--theta", "1", "--seed", "1"),
        ("regen-set", "--model", "crossbreed", "--alpha", "1/2", "--seed", "1"),
        # integer parameters past the float range: OverflowError tracebacks before
        ("regen-set", "--model", "stick", "--theta", "1" + "0" * 400, "--eps", "1e-3", "--seed", "1"),
        ("regen-set", "--model", "compound", "--theta", "1" + "0" * 400, "--eps", "1e-6", "--seed", "1"),
        ("regen-set", "--model", "crossbreed", "--alpha", "1/2", "--theta", "1" + "0" * 400,
         "--eps", "1e-3", "--seed", "1"),
        # a float alpha with an exact theta past the float range: OverflowError tracebacks before
        ("eppf", "--alpha", "0.3", "--theta", "1" + "0" * 400, "--lambda", "2,1"),
        ("decrement", "--alpha", "0.3", "--theta", "1" + "0" * 400, "--n-max", "3"),
        ("phi", "--alpha", "0.3", "--theta", "1" + "0" * 400, "--n-max", "3"),
        ("phi", "--alpha", "0.3", "--theta", "1" + "0" * 400 + "/3", "--n-max", "3"),
        ("verify", "--alpha", "0.3", "--theta", "1" + "0" * 400, "--n", "3"),
        # tau-biased pick weights whose float sum is past the float range:
        # printed {"perm":[2,1]} every time before, though the law is uniform
        ("order", "--x", "1e308,1e308", "--tau", "0", "--count", "4", "--seed", "1"),
        ("order", "--x", "1" + "0" * 400 + ",1", "--tau", "0.5", "--count", "1", "--seed", "1"),
        # an atom weight past the float range: phi values print as floats
        ("phi", "--atoms", "1/2:1" + "0" * 400, "--n-max", "3"),
        ("phi", "--atoms", "1/2:1" + "0" * 400, "--n-max", "3", "--format", "json"),
        # the leem suite never reads --n, so only the up-front size check rejects it
        ("verify", "--suite", "leem", "--n", "0"),
        ("verify", "--suite", "leem", "--n", "-5"),
        # before any suite runs: these marked every float check failed and exited 1
        ("verify", "--suite", "leem", "--tol", "-1"),
        ("verify", "--suite", "leem", "--tol", "nan"),
        ("verify", "--suite", "leem", "--tol", "inf"),
    ],
)
def test_domain_errors_exit_2(capsys, args):
    rc, out, err = run(capsys, *args)
    assert rc == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("form", ["csv", "json"])
def test_phi_runs_with_an_exact_theta_past_the_float_range(capsys, form):
    # phi(1) = B(2/3, 1 + theta) = Gamma(2/3) theta^(-2/3) (1 + O(1/theta)),
    # theta = 10^400; the phi(n, m) with m >= 2 underflow to 0.0
    rc, out, err = run(capsys, "phi", "--alpha", "1/3", "--theta", "1" + "0" * 400, "--n-max", "3",
                       "--format", form)
    assert rc == 0 and not err
    if form == "json":
        phi = [row["phi_n"] for row in json.loads(out)["phi"]]
    else:
        phi = [float(line.split(",")[2]) for line in out.splitlines()[1:]]
    assert phi[0] == pytest.approx(2.91735866309473e-267, rel=1e-12)
    assert all(math.isfinite(v) for v in phi)


@pytest.mark.parametrize("command", ["eppf", "decrement", "phi", "verify"])
def test_float_alpha_with_exact_theta_inside_the_float_range_runs(capsys, command):
    size = {"eppf": ("--lambda", "2,1"), "verify": ("--n", "3")}.get(command, ("--n-max", "3"))
    rc, out, err = run(capsys, command, "--alpha", "0.3", "--theta", str(10 ** 19), *size)
    assert rc == 0 and out and not err


@pytest.mark.parametrize(
    "args",
    [
        ("decrement", "--alpha", "0.3", "--theta", "0.5"),
        ("phi", "--alpha", "1/3", "--theta", "0.5"),
        ("phi", "--atoms", "1/2:1"),
        # the bound is checked before the parameters, so nothing is built
        ("decrement", "--coupon", "4"),
        # --n: the regen suite builds both routes to n, and ran for minutes at 2001
        ("verify", "--suite", "regen"),
    ],
)
def test_n_max_past_the_bound_exits_2(capsys, args):
    assert MAX_N_MAX >= 2000  # both routes are tested to n_max = 2000
    flag = "--n" if args[0] == "verify" else "--n-max"
    for n_max in (MAX_N_MAX + 1, 10**9):
        rc, out, err = run(capsys, *args, flag, str(n_max))
        assert rc == 2 and out == ""
        assert err.startswith(f"error: need {flag} <= {MAX_N_MAX}, got {n_max}")


@pytest.mark.parametrize("suite", [(), ("--suite", "all"), ("--suite", "eppf"), ("--suite", "deletion")],
                         ids=lambda a: a[-1] if a else "default")
def test_verify_type_suites_past_their_bound_exit_2(capsys, suite):
    # the eppf and deletion suites sum over the integer partitions of n <= 20
    rc, out, err = run(capsys, "verify", *suite, "--n", "21")
    assert rc == 2 and out == ""
    assert err.startswith("error: need --n <= 20") and "got 21" in err


def test_verify_other_suites_keep_the_n_max_bound(capsys):
    for suite in ("regen", "order", "leem"):
        rc, out, err = run(capsys, "verify", "--suite", suite, "--n", "21")
        assert rc == 0 and err == ""
        assert json.loads(out.splitlines()[-1])["failures"] == 0


def test_hopeless_compound_set_exits_2_at_once(capsys):
    # it drew jumps until the 10**7-jump budget ran out, about 16 s
    start = time.perf_counter()
    rc, out, err = run(capsys, "regen-set", "--model", "compound", "--theta", "1e308",
                       "--eps", "1e-6", "--seed", "1")
    assert time.perf_counter() - start < 1
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "past the budget" in err


def test_compound_set_expecting_more_jumps_than_the_budget_exits_2_at_once(capsys):
    # theta ln(1/eps) ~ 1.38e7 lies below twice the 10**7-jump budget, so this
    # ran the whole jump loop before it exited 2
    start = time.perf_counter()
    rc, out, err = run(capsys, "regen-set", "--model", "compound", "--theta", "1e6",
                       "--eps", "1e-6", "--seed", "1")
    assert time.perf_counter() - start < 2
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "past the budget" in err


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["eppf", "--alpha", "0", "--theta", "1"])  # missing --lambda
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nosuchcmd"])
    assert exc.value.code == 2


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from partition_lab.cli import main; sys.exit(main(sys.argv[1:]))",
         "eppf", "--alpha", "0", "--theta", "1", "--lambda", "2,1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1/6\n"


def test_closed_stdout_exits_1_without_traceback():
    # the reader is gone before the first write, as with `| head` on a
    # slow command
    proc = subprocess.Popen(
        [sys.executable, "-m", "partition_lab.cli",
         "decrement", "--alpha", "1/2", "--theta", "1/2", "--n-max", "200"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    assert proc.wait(timeout=60) == 1
    assert proc.stderr.read() == b""
    proc.stderr.close()
