import ast
import errno
import functools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from truncpoisson.chain import HomologyReport, TwistParams
from truncpoisson.cli import main, twist_value
from truncpoisson.checks import CheckResult
from truncpoisson.reporting import ReportBundle

from twist_grammar import TWIST_ENTRIES, mismatches

SCHEMA_PATH = Path(__file__).resolve().parent.parent / "docs" / "report-schema.json"
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_subprocess(argv, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "truncpoisson", *argv],
        capture_output=True,
        text=True,
        env=full_env,
    )


@functools.cache
def schema_validator():
    import jsonschema

    schema = json.loads(SCHEMA_PATH.read_text())
    jsonschema.Draft7Validator.check_schema(schema)
    return jsonschema.Draft7Validator(schema)


def validate_envelope(envelope):
    schema_validator().validate(envelope)


def test_cohomology_json_output(capsys):
    code, out, _ = run_cli(capsys, ["cohomology", "-a", "3", "-b", "4", "--format", "json"])
    assert code == 0
    env = json.loads(out)
    validate_envelope(env)
    assert env["payload"]["dims"] == [2, 2, 1]
    degrees = {d["degree"]: d for d in env["payload"]["degrees"]}
    assert degrees[0]["representatives"] == ["1", "X^2*Y^3"]
    assert degrees[1]["representatives"] == ["d_{1,0}", "d'_{0,1}"]
    assert degrees[2]["representatives"] == ["f_{1,1}"]
    assert degrees[3]["dimension"] == 0


def test_homology_trivial_2_2(capsys):
    code, out, _ = run_cli(capsys, ["homology", "-a", "2", "-b", "2", "--twist", "trivial"])
    assert code == 0
    env = json.loads(out)
    validate_envelope(env)
    assert env["payload"]["dims"] == [3, 2, 0]
    assert env["payload"]["twist"] == {"kind": "trivial", "alpha": "0", "beta": "0"}


def test_homology_explicit_twist_rationals(capsys):
    code, out, _ = run_cli(
        capsys, ["homology", "-a", "3", "-b", "3", "--twist", "1/2,-3/4"]
    )
    assert code == 0
    env = json.loads(out)
    validate_envelope(env)
    assert env["payload"]["twist"] == {"kind": "explicit", "alpha": "1/2", "beta": "-3/4"}


def test_homology_nakayama_matches_cohomology(capsys):
    code, out, _ = run_cli(capsys, ["homology", "-a", "4", "-b", "3", "--twist", "nakayama"])
    assert code == 0
    env = json.loads(out)
    assert env["payload"]["dims"] == [2, 2, 1]
    names = {v["name"]: v["pass"] for v in env["verification"]}
    assert names["twisted_duality_dims"]


def test_ring_json(capsys):
    code, out, _ = run_cli(capsys, ["ring", "-a", "2", "-b", "2"])
    assert code == 0
    env = json.loads(out)
    validate_envelope(env)
    assert env["payload"]["matches_reference"] is True
    assert env["payload"]["basis"] == ["1", "t", "v", "w", "m"]
    # v * w lands on m with coefficient 1
    assert env["payload"]["products"][2][3] == ["0", "0", "0", "0", "1"]
    assert env["payload"]["products"][3][2] == ["0", "0", "0", "0", "-1"]


def test_duality_json(capsys):
    code, out, _ = run_cli(capsys, ["duality", "-a", "4", "-b", "5"])
    assert code == 0
    env = json.loads(out)
    validate_envelope(env)
    assert env["payload"]["nakayama_duality_holds"] is True
    assert env["payload"]["poincare_duality_fails"] is True


def test_verify_smallest_instance(capsys):
    code, out, _ = run_cli(capsys, ["verify", "-a", "2", "-b", "2"])
    assert code == 0
    env = json.loads(out)
    validate_envelope(env)
    assert env["payload"]["checks_passed"] == env["payload"]["checks_total"]
    assert all(v["pass"] for v in env["verification"])


def test_sweep_cohomology_rows(capsys):
    code, out, _ = run_cli(capsys, ["sweep", "-a", "2..4", "-b", "2..4"])
    assert code == 0
    env = json.loads(out)
    validate_envelope(env)
    rows = env["payload"]["rows"]
    assert len(rows) == 9
    assert [(r["a"], r["b"]) for r in rows] == [
        (a, b) for a in range(2, 5) for b in range(2, 5)
    ]
    assert all((r["h0"], r["h1"], r["h2"]) == (2, 2, 1) for r in rows)
    assert all(r["theorem_checks"] == "pass" for r in rows)


def test_sweep_trivial_homology_trace_column(capsys):
    code, out, _ = run_cli(
        capsys,
        ["sweep", "-a", "2..5", "-b", "2..5", "--kind", "homology", "--twist", "trivial"],
    )
    assert code == 0
    env = json.loads(out)
    for r in env["payload"]["rows"]:
        assert r["h0"] == r["a"] + r["b"] - 1
        assert r["theorem_checks"] == "pass"


def test_sweep_csv_shape(capsys):
    code, out, _ = run_cli(
        capsys, ["sweep", "-a", "2..3", "-b", "2..3", "--format", "csv"]
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "a,b,h0,h1,h2,euler,theorem_checks"
    assert len(lines) == 5


def test_markdown_output(capsys):
    code, out, _ = run_cli(capsys, ["cohomology", "-a", "2", "-b", "2", "--format", "markdown"])
    assert code == 0
    assert out.startswith("# truncpoisson cohomology (a=2, b=2)")
    assert "| degree | dimension |" in out
    assert "- [x] dims_match_theory" in out


def test_no_representatives_flag(capsys):
    code, out, _ = run_cli(
        capsys, ["cohomology", "-a", "2", "-b", "2", "--no-representatives"]
    )
    assert code == 0
    env = json.loads(out)
    assert all(d["representatives"] == [] for d in env["payload"]["degrees"])


def test_usage_error_small_a(capsys):
    code, out, err = run_cli(capsys, ["cohomology", "-a", "1", "-b", "4"])
    assert code == 2
    assert "a,b ≥ 2" in err


def test_usage_error_bad_twist(capsys):
    code, out, err = run_cli(capsys, ["homology", "-a", "2", "-b", "2", "--twist", "sideways"])
    assert code == 2
    assert "twist" in err


def test_usage_error_sweep_cap(capsys):
    code, out, err = run_cli(capsys, ["sweep", "-a", "2..40", "-b", "2..3"])
    assert code == 2
    assert "resource limit" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["homology", "-a", "2", "-b", "2", "--twist=1e5000,0"],
        ["sweep", "-a", "2..3", "-b", "2", "--kind", "homology", "--twist=1e5000,0"],
        ["homology", "-a", "2", "-b", "2", "--twist=0,1e-4300"],
        ["homology", "-a", "2", "-b", "2", "--twist=1e999999999999,0"],
        ["homology", "-a", "2", "-b", "2", f"--twist={'1' * 3000}.{'1' * 3000},0"],
        ["sweep", "-a", "2", "-b", "2", "--kind", "homology", f"--twist=0,0.{'0' * 4299}1"],
    ],
)
def test_usage_error_twist_past_digit_limit(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert "4300 digits" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "entry, value",
    [
        ("1e3", Fraction(1000)),
        ("0.25", Fraction(1, 4)),
        ("-.5E+2", Fraction(-50)),
        ("3/2", Fraction(3, 2)),
        ("-7/21", Fraction(-1, 3)),
        ("1e4299", Fraction(10**4299)),
        ("0.5e4300", Fraction(5 * 10**4299)),
        ("5e-4300", Fraction(1, 2 * 10**4299)),
        ("0e999999999999", Fraction(0)),
    ],
)
def test_twist_entries_within_digit_limit_keep_their_value(entry, value):
    assert twist_value(f"{entry},{entry}") == ("explicit", TwistParams(value, value))


@pytest.mark.parametrize("entry, value", TWIST_ENTRIES, ids=repr)
def test_twist_entries_take_the_3_12_grammar_on_every_python(entry, value):
    assert mismatches(entry, value) == []


@pytest.mark.parametrize("twist, alpha, beta", [("1_0,2", "10", "2"), ("1 / 2,3", "1/2", "3")])
def test_homology_answers_underscores_and_spaced_slashes(capsys, twist, alpha, beta):
    code, out, _ = run_cli(capsys, ["homology", "-a", "3", "-b", "3", f"--twist={twist}"])
    assert code == 0
    assert json.loads(out)["payload"]["twist"] == {"kind": "explicit", "alpha": alpha, "beta": beta}


@pytest.mark.parametrize(
    "argv",
    [
        ["cohomology", "-a", "1000000000", "-b", "2"],
        ["homology", "-a", "2", "-b", "180001", "--twist", "nakayama"],
        ["ring", "-a", "601", "-b", "600"],
        ["duality", "-a", "600", "-b", "601"],
        ["verify", "-a", "51", "-b", "50"],
        ["verify", "-a", "2", "-b", "1251"],
    ],
)
def test_usage_error_instance_size_caps(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert "resource limit" in err


def test_size_caps_admit_products_up_to_the_cap(capsys, monkeypatch):
    import truncpoisson.cli as cli

    monkeypatch.setattr(cli, "INSTANCE_MAX_AB", 12)
    monkeypatch.setattr(cli, "VERIFY_MAX_AB", 6)
    assert run_cli(capsys, ["ring", "-a", "3", "-b", "4"])[0] == 0
    assert run_cli(capsys, ["ring", "-a", "3", "-b", "5"])[0] == 2
    assert run_cli(capsys, ["verify", "-a", "2", "-b", "3"])[0] == 0
    assert run_cli(capsys, ["verify", "-a", "3", "-b", "3"])[0] == 2
    assert run_cli(capsys, ["sweep", "-a", "2..5", "-b", "2..5"])[0] == 0


def test_usage_error_missing_command(capsys):
    code, out, err = run_cli(capsys, [])
    assert code == 2


def test_exit_code_one_on_failed_check():
    bundle = ReportBundle(
        "verify",
        {"a": 2, "b": 2},
        {},
        ("check", "status", "detail"),
        (),
        (CheckResult("synthetic", False, "forced failure"),),
    )
    assert bundle.exit_code == 1


def test_verify_deterministic_bytes():
    first = run_subprocess(["verify", "-a", "2", "-b", "3"])
    second = run_subprocess(["verify", "-a", "2", "-b", "3"])
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout  # nonempty


def test_sweep_deterministic_bytes():
    args = ["sweep", "-a", "2..5", "-b", "2..5", "--kind", "homology", "--twist", "nakayama"]
    one = run_subprocess(args)
    two = run_subprocess(args)
    assert one.returncode == two.returncode == 0
    assert one.stdout == two.stdout


def test_json_rationals_are_strings_not_floats(capsys):
    code, out, _ = run_cli(capsys, ["ring", "-a", "3", "-b", "3"])
    env = json.loads(out)
    flat = [c for row in env["payload"]["products"] for entry in row for c in entry]
    assert all(isinstance(c, str) for c in flat)
    assert "." not in "".join(flat)


def test_verify_markdown_has_single_check_listing(capsys):
    code, out, _ = run_cli(capsys, ["verify", "-a", "2", "-b", "2", "--format", "markdown"])
    assert code == 0
    # the table is the check list; no duplicated verification section below it
    assert "Verification:" not in out
    assert out.count("delta_complex") == 1


def test_homology_no_representatives(capsys):
    code, out, _ = run_cli(
        capsys, ["homology", "-a", "3", "-b", "3", "--no-representatives"]
    )
    assert code == 0
    env = json.loads(out)
    assert all(d["representatives"] == [] for d in env["payload"]["degrees"])


def test_duality_csv_shape(capsys):
    code, out, _ = run_cli(capsys, ["duality", "-a", "2", "-b", "3", "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("degree,cohomology_dim,nakayama_homology_dim")
    assert len(lines) == 4


def test_single_value_sweep_range(capsys):
    code, out, _ = run_cli(capsys, ["sweep", "-a", "3", "-b", "2..3"])
    assert code == 0
    env = json.loads(out)
    assert [(r["a"], r["b"]) for r in env["payload"]["rows"]] == [(3, 2), (3, 3)]


def test_large_instance_answers_without_dense_elimination(capsys):
    # dense elimination would build 10^4 x 2*10^4 rational matrices here
    ab = ["-a", "100", "-b", "100"]
    for argv in (
        ["cohomology", *ab],
        ["homology", *ab, "--twist", "trivial"],
        ["homology", *ab, "--twist", "nakayama"],
        ["ring", *ab],
        ["duality", *ab],
    ):
        code, out, _ = run_cli(capsys, argv)
        assert code == 0, argv
        payload = json.loads(out)["payload"]
        if argv[0] == "cohomology" or argv[-1] == "nakayama":
            assert payload["dims"] == [2, 2, 1]
        elif argv[0] == "homology":
            assert payload["dims"][0] == 199
        elif argv[0] == "ring":
            assert payload["matches_reference"] is True
        elif argv[0] == "duality":
            assert [c["cohomology_dim"] for c in payload["comparisons"]] == [2, 2, 1]
            assert payload["nakayama_duality_holds"] is True


AB = ["-a", "4", "-b", "5"]
# Every command, and homology at each kind of twist.
COMMAND_ARGVS = (
    ["cohomology", *AB],
    ["homology", *AB, "--twist", "trivial"],
    ["homology", *AB, "--twist", "nakayama"],
    ["homology", *AB, "--twist=-1,2"],
    ["ring", *AB],
    ["duality", *AB],
    ["sweep", "-a", "2..4", "-b", "2..4"],
    ["sweep", "-a", "2..4", "-b", "2..4", "--kind", "homology", "--twist", "nakayama"],
    ["verify", *AB],
)


def test_no_command_constructs_a_dense_matrix(capsys, monkeypatch):
    from truncpoisson.linalg import Matrix

    def refuse(*args, **kwargs):
        raise AssertionError("a command built a dense Matrix")

    # every way of building a Matrix ends in _Value._make
    monkeypatch.setattr(Matrix, "_make", classmethod(refuse))
    for argv in COMMAND_ARGVS:
        code, _, _ = run_cli(capsys, argv)
        assert code == 0, argv


# argparse, gettext, locale, typing, json and csv cost start-up that the command line does not need.
WATCHED_MODULES = (
    "truncpoisson.linalg", "truncpoisson.checks", "json", "csv", "typing", "argparse", "gettext", "locale",
)
# Runs one command in this interpreter and reports, on stderr, its exit code,
# the watched modules loaded before the package and those loaded after it.
LOADS_PROBE = f"""
import sys
watched = {WATCHED_MODULES!r}
before = sorted(m for m in watched if m in sys.modules)
from truncpoisson.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
print(repr((code, before, sorted(m for m in watched if m in sys.modules and m not in before))), file=sys.stderr)
"""


@pytest.mark.parametrize("argv", COMMAND_ARGVS, ids=" ".join)
def test_each_command_loads_only_the_modules_it_runs(argv):
    # a fresh interpreter per run; -S keeps site-specific start-up imports out
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for fmt in ("json", "csv", "markdown"):
        proc = subprocess.run(
            [sys.executable, "-S", "-c", LOADS_PROBE, *argv, "--format", fmt],
            capture_output=True, text=True, env=env,
        )
        code, before, loaded = ast.literal_eval(proc.stderr.strip().splitlines()[-1])
        assert code == 0 and proc.stdout, (argv, fmt, proc.stderr)
        wanted = {"truncpoisson.checks"} if argv[0] == "verify" else set()
        assert set(loaded) == wanted - set(before), (argv, fmt)


@pytest.mark.parametrize("code", ["build_parser()", "main(['--help'])", "main(['sweep', '-h'])", "main(['ring', '-a', '1'])"])
def test_parser_alone_loads_no_watched_module(code):
    probe = f"""
import sys
watched = {WATCHED_MODULES!r}
before = set(m for m in watched if m in sys.modules)
from truncpoisson.cli import build_parser, main
{code}
print(repr(sorted(m for m in watched if m in sys.modules and m not in before)), file=sys.stderr)
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env)
    assert ast.literal_eval(proc.stderr.strip().splitlines()[-1]) == [], (code, proc.stderr)


@pytest.mark.parametrize("argv", [["--twist=1,1"], ["--twist", "trivial"], ["--kind", "cohomology", "--twist=1,0"]])
def test_usage_error_twist_on_cohomology_sweep(capsys, argv):
    code, out, err = run_cli(capsys, ["sweep", "-a", "2..3", "-b", "2", *argv])
    assert code == 2
    assert out == ""
    assert err == "truncpoisson sweep: error: --twist applies only to --kind homology\n"


def _homology_breaking_euler(p, t, include_reps=True):
    return HomologyReport(p, t, (2, 1, 1), (0, 0), ((), (), ()))


@pytest.mark.parametrize(
    "builder, error, argv",
    [
        ("verify_bundle", RuntimeError("cocycle normalization failed\nto reach the normal form"), ["verify"]),
        ("ring_bundle", RuntimeError("cup table violates graded commutativity"), ["ring"]),
        ("cohomology_bundle", MemoryError(), ["cohomology"]),
        ("sweep_bundle", MemoryError(), ["sweep"]),
        ("reporting.homology", RuntimeError("homology dims (2, 1, 1) break the Euler identity"), ["homology"]),
        ("verify_bundle", ValueError("input derivation is not a cocycle"), ["verify"]),
        ("duality_bundle", KeyError((2, 3)), ["duality"]),
        ("cohomology_bundle", ZeroDivisionError(), ["cohomology"]),
    ],
)
def test_internal_errors_exit_3_with_one_stderr_line(capsys, monkeypatch, builder, error, argv):
    import truncpoisson.cli as cli

    def fail(*args, **kwargs):
        raise error

    if builder == "reporting.homology":  # the engine itself raises, from the record's self-check
        monkeypatch.setattr("truncpoisson.reporting.homology", _homology_breaking_euler)
    else:
        monkeypatch.setattr(cli, builder, fail)
    code, out, err = run_cli(capsys, [*argv, "-a", "3", "-b", "4"])
    assert code == cli.EXIT_INTERNAL_ERROR == 3
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("truncpoisson: internal error: ")
    assert "Traceback" not in err
    if isinstance(error, MemoryError):
        assert "out of memory" in err
    elif isinstance(error, RuntimeError):
        assert " ".join(str(error).split()) in err
    else:  # any other exception is named by its type
        assert err == f"truncpoisson: internal error: {type(error).__name__}{': ' * bool(str(error))}{error}\n"


def test_a_crashing_check_exits_3_and_a_wrong_cocycle_test_fails_its_row(capsys, monkeypatch):
    """A check that raises ends verify with exit 3 and one stderr line, not a traceback and exit 1;
    a wrong closed-form cocycle test is a failed check: a fail row and exit 1."""
    import truncpoisson.checks as checks
    import truncpoisson.cochain as cochain

    def refuse(p, dx, dy):
        raise ValueError("input derivation is not a cocycle")

    monkeypatch.setattr(checks, "_normalize", refuse)
    code, out, err = run_cli(capsys, ["verify", "-a", "3", "-b", "3"])
    assert (code, out) == (3, "")
    assert err == "truncpoisson: internal error: ValueError: input derivation is not a cocycle\n"
    monkeypatch.undo()

    for module in (checks, cochain):
        monkeypatch.setattr(module, "_is_cocycle", lambda p, dx, dy: False)
    code, out, err = run_cli(capsys, ["verify", "-a", "3", "-b", "3", "--format", "csv"])
    assert (code, err) == (1, "")
    failed = [row.split(",")[0] for row in out.splitlines() if ",fail," in row]
    assert failed == ["cocycle_predicate_matches_kernel"]


class FullDisk:
    """A stdout whose every write fails as on a full disk."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def flush(self):
        pass


def test_failed_stdout_write_exits_3_with_one_stderr_line(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", FullDisk())
    code = main(["homology", "-a", "2", "-b", "5"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.count("\n") == 1 and err.startswith("truncpoisson: internal error: cannot write output: ")
    assert os.strerror(errno.ENOSPC) in err


# The process entry point (cli.run) ends with os._exit right after flushing;
# its output must be what cli.main writes, to a pipe read to EOF as well.  The
# child runs with buffered stdout (no PYTHONUNBUFFERED), so a missed flush shows.
BUFFERED_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
EXIT_PATH_ARGVS = [
    *([*argv, "--format", fmt] for argv in COMMAND_ARGVS for fmt in ("json", "csv", "markdown")),
    ["homology", "-a", "2", "-b", "20000", "--format", "csv"],
    ["ring", "-a", "1", "-b", "3"],
    ["sweep", "--help"],
]


@pytest.mark.parametrize("argv", EXIT_PATH_ARGVS, ids=" ".join)
def test_process_exit_keeps_the_output_of_main(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    proc = subprocess.run([sys.executable, "-m", "truncpoisson", *argv], capture_output=True, env=BUFFERED_ENV)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())


@pytest.mark.parametrize("sink", [
    pytest.param("/dev/full", marks=pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")),
    "closed pipe",
])
@pytest.mark.parametrize("argv", [["homology", "-a", "2", "-b", "20000"], ["sweep", "--help"]])
def test_failed_output_exits_3_with_one_stderr_line(sink, argv):
    # a full device fails each write with ENOSPC; a pipe whose read end is closed, with EPIPE
    if sink == "/dev/full":
        write_end = os.open(sink, os.O_WRONLY)
    else:
        read_end, write_end = os.pipe()
        os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "truncpoisson", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=BUFFERED_ENV,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 3 and proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stderr.startswith("truncpoisson: internal error: cannot write output: ")
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


@pytest.mark.parametrize("closed_fd, argv", [
    (2, ["cohomology", "-a", "3", "-b", "3"]),
    (2, ["sweep", "--help"]),
    (1, ["cohomology", "-a", "1", "-b", "4"]),
])
def test_process_started_with_a_closed_std_stream_keeps_the_exit_of_main(capsys, closed_fd, argv):
    # Python sets sys.stdout or sys.stderr to None when it starts with fd 1 or fd 2 closed;
    # the process entry point must still exit with main's code and write main's other stream
    code, out, err = run_cli(capsys, argv)
    proc = subprocess.run(
        [sys.executable, "-m", "truncpoisson", *argv],
        capture_output=True, env=BUFFERED_ENV, preexec_fn=lambda: os.close(closed_fd),
    )
    assert proc.returncode == code, proc.stderr
    assert (proc.stdout, proc.stderr)[2 - closed_fd] == (out, err)[2 - closed_fd].encode()


def test_profiled_run_exits_normally_and_writes_the_profile(capsys):
    # cProfile registers as sys.setprofile before Python 3.12 and as a sys.monitoring tool after
    argv = ["cohomology", "-a", "3", "-b", "3"]
    _, out, _ = run_cli(capsys, argv)
    profiled = [sys.executable, "-m", "cProfile", "-m", "truncpoisson", *argv]
    proc = subprocess.run(profiled, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(out) and "function calls" in proc.stdout[len(out):]
