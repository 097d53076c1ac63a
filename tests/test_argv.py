"""The table-driven argv parser of cli against the argparse oracle.

oracles.build_parser() is the argparse command line that cli used before,
verbatim.  Valid argv's (every command, every perfbench op, the README
examples) are mutated: long-option prefixes, "=" and glued forms, split
forms, repeats, dropped and inserted tokens, values that start with "-",
unicode digits and junk twists.  Both parsers must accept the same argv's
with the same values, and reject the rest with the same message; every
rejection through cli.main exits 2 with one stderr line and no stdout.
Every accepted argv within a size budget also runs through cli.main: it
answers in its format, or exits 2 with one stderr line at a size cap.
"""

import contextlib
import csv
import functools
import io
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from test_cli import COMMAND_ARGVS
from test_formats import markdown_table
from truncpoisson import cli

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH_ARGVS = [key.split() for key in json.loads((ROOT / "perfbench" / "digests.json").read_text())["digests"]]
README_ARGVS = [line.split()[1:] for line in (ROOT / "README.md").read_text().splitlines() if line.startswith("truncpoisson ")]
# Seeds just past each size cap, so that mutants reach cli.main's cap path: most
# mutations keep the size, and most that change it keep the product past the cap.
CAP_SEEDS = [
    ["homology", "-a", "2", "-b", str(cli.INSTANCE_MAX_AB // 2 + 1), "--twist=-1,2"],
    ["cohomology", "-a", "601", "-b", "600", "--format=csv"],
    ["verify", "-a", "51", "-b", "50", "--format", "markdown"],
]
SEEDS = [list(argv) for argv in COMMAND_ARGVS] + PERFBENCH_ARGVS + README_ARGVS + CAP_SEEDS
FIELDS = ("command", "a", "b", "format", "twist", "kind", "no_representatives")
ORACLE = oracles.build_parser()

# Tokens that a mutation writes: option-like tokens, values starting with "-",
# unicode digits, junk twists and ranges, and tokens holding a line break.
JUNK = (
    "-1", "-3", "-1,2", "-1/2,3", "-1, 2", "-x", "-", "--", "---", "-٣", "-1.5", "-.5", "-1e3",
    "-h", "-hh", "-ha", "-hx", "-a", "-b", "-b5", "-a=", "--=x", "--help", "--h", "--foo", "--foo=1",
    "--format", "--form=csv", "--format=xml", "--kind", "--kind=homology", "--no-rep", "--no-rep=1",
    "--twist", "--tw=nakayama", "--twist=-1,2", "cohomology", "sweep", "verify", "x", "", " ",
    "2", "7", "１２", "٣", "1_0", "2..4", "3..2", "2..40", "2..", "1/0,0", "nan,0", "inf,1",
    "1e5000,0", "0e999999999999,1", "1,2,3", " 1 , 2 ", "a,b", "nakayama", "x\ny", "--x\ny",
)
DIGITS = ("０１２３４５６７８９", "٠١٢٣٤٥٦٧٨٩")
MUTATIONS = ("prefix", "join", "split", "repeat", "drop", "insert", "replace", "digits")


def mutate(seed, steps):
    """Apply each step (mutation, position, junk token) to a copy of seed."""
    argv = list(seed)
    for kind, at, junk in steps:
        i = at % (len(argv) + 1)
        tok = argv[i] if i < len(argv) else ""
        if kind == "prefix" and tok.startswith("--") and len(tok) > 3:
            argv[i] = tok[: 3 + at % (len(tok) - 2)]
        elif kind == "join" and tok.startswith("-") and i + 1 < len(argv):
            argv[i : i + 2] = [tok + "=" * (at % 2) + argv[i + 1]]
        elif kind == "split" and "=" in tok:
            argv[i : i + 1] = tok.split("=", 1)
        elif kind == "repeat" and tok.startswith("-"):
            argv += argv[i : i + 1 + (i + 1 < len(argv) and not argv[i + 1].startswith("-"))]
        elif kind == "drop" and tok:
            del argv[i]
        elif kind == "insert":
            argv.insert(i, junk)
        elif kind == "replace" and i < len(argv):
            argv[i] = junk
        elif kind == "digits":
            argv[i : i + 1] = [tok.translate(str.maketrans("0123456789", DIGITS[at % 2]))] if tok else []
    return argv


def oracle(argv):
    """argparse's answer: (exit code, the FIELDS or None, the error text or None)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            ns = ORACLE.parse_args(argv)
        except SystemExit as e:
            text = err.getvalue()
            return e.code, None, text[text.index("\ntruncpoisson") + 1 : -1] if e.code else None
    return 0, tuple(getattr(ns, f, None) for f in FIELDS), None


def table_parse(argv):
    """The table parser's answer, in the oracle's terms."""
    try:
        ns = cli._parse(cli.build_parser(), argv)
    except cli._Exit as e:
        code, text = e.args
        return code, None, text if code else None
    return 0, tuple(getattr(ns, f, None) for f in FIELDS), None


def _plain(text):
    """An error line with argparse's choice lists unquoted, as Python 3.12.8+ prints them."""
    text = text and text.replace("\n", "\\n").replace("\r", "\\r")
    return text and re.sub(r"\(choose from .*\)$", lambda m: m[0].replace("'", ""), text)


# Three corners of argparse's grammar changed after Python 3.12.1: a short flag glued to
# others ("-hx" prints help), a "--" before the command, and when an ambiguous long prefix
# ("--=x") is reported.  The table keeps the grammar of argparse as shipped with Python 3.10
# to 3.12.1.  Under an argparse that differs at one of these corners, an argv that reaches it
# is held to the usage-error contract only; every other argv is still compared.
CORNERS = (
    (["-hx"], lambda argv: any(t.startswith("-h") and len(t) > 2 for t in argv)),
    (["--", "ring", "-a", "2", "-b", "2"], lambda argv: "--" in argv),
    (["ring", "-a", "--=x"], lambda argv: any(t.startswith("--=") for t in argv)),
)
DRIFTED = [reaches for probe, reaches in CORNERS if oracle(probe) != table_parse(probe)]


def check_argv(argv):
    want, got = oracle(argv), table_parse(argv)
    if any(reaches(argv) for reaches in DRIFTED):
        assert got[0] in (0, 2), argv
    elif any(re.fullmatch(r"-[^-]=?--|--[^=]+=--", t) for t in argv):
        # argparse drops an explicit "--" value (-a=--, -a--, --kind=--) to an
        # empty list, which the argparse command line crashed on or misread;
        # the table parser reads "--" as the value and rejects it
        assert got[0] == 2, argv
    else:
        assert (want[0], want[1], _plain(want[2])) == (got[0], got[1], _plain(got[2])), argv
    if got[0] != 0 or got[1] is None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code == got[0], argv
        if code:
            assert out.getvalue() == "" and err.getvalue() == got[2] + "\n", argv
            assert err.getvalue().count("\n") == 1 and "\r" not in err.getvalue(), argv
        else:
            assert out.getvalue().startswith("usage: truncpoisson") and err.getvalue() == "", argv


STEPS = st.lists(st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 40), st.sampled_from(JUNK)), max_size=4)


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(SEEDS), STEPS)
def test_table_parser_agrees_with_argparse(seed, steps):
    check_argv(mutate(seed, steps))


# verify_bundle memoised per size, as in test_digests: a mutant most often
# keeps its seed's size and changes only how it is asked
MEMOISED_VERIFY = functools.lru_cache(maxsize=None)(cli.verify_bundle)


def _refuse(args):
    raise AssertionError("an argv past a size cap reached the engine")


def check_run(argv):
    """An argv that the parser accepts answers in its format, or is refused at a cap (exit 2).

    Returns whether cli.main refused argv at a size cap.
    """
    code, fields, _ = table_parse(argv)
    if code or fields is None:
        return False
    command, a, b, fmt = fields[:4]
    budget, cap = (400, cli.VERIFY_MAX_AB) if command == "verify" else (5000, cli.INSTANCE_MAX_AB)
    past_cap = command != "sweep" and a * b > cap
    if command != "sweep" and budget < a * b <= cap:
        return False  # argv's between this budget and the cap are skipped, to keep the test near 5 s
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), pytest.MonkeyPatch.context() as mp:
        if past_cap:  # refused before any work, or the test stops here
            mp.setattr(cli, "_bundle", _refuse)
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in out + err, argv
    assert ("error: resource limit:" in err) == past_cap, argv
    if code == 2:
        assert out == "" and err.count("\n") == 1 and err.endswith("\n"), argv
        assert past_cap or "--twist applies only to --kind homology" in err, argv
        return past_cap
    assert (code, err) == (0, ""), argv
    if fmt == "json":
        assert json.loads(out)["command"] == command, argv
    elif fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) > 1 and all(len(row) == len(rows[0]) for row in rows), argv
    else:
        assert out.startswith(f"# truncpoisson {command} ("), argv
        headers, rows = markdown_table(out)
        assert rows and all(len(row) == len(headers) for row in rows), argv
    return False


@settings(max_examples=1500, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(SEEDS), STEPS)
def test_accepted_argvs_run_to_an_answer(seed, steps):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "verify_bundle", MEMOISED_VERIFY)
        check_run(mutate(seed, steps))


@pytest.mark.parametrize("kind", MUTATIONS)
def test_mutants_of_seeds_past_a_cap_reach_the_cap(kind):
    # every single-step mutant of kind, at every position, with every junk token
    steps = [(kind, at, junk) for at in range(len(max(CAP_SEEDS, key=len)) + 1) for junk in JUNK]
    mutants = sorted({tuple(mutate(seed, [step])) for seed in CAP_SEEDS for step in steps})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "verify_bundle", MEMOISED_VERIFY)
        refused = [check_run(list(argv)) for argv in mutants]
    assert any(refused), kind


@pytest.mark.parametrize(
    "argv",
    [
        ["cohomology", "-a5", "-b=3", "--form", "csv", "--no-rep"],
        ["cohomology", "-a", "2", "-b", "2", "-a", "3"],
        ["homology", "-a", "2", "-b", "2", "--twist", "-1,2"],
        ["homology", "-a", "2", "-b", "2", "--twist", "-1, 2"],
        ["cohomology", "-a", "-٣", "-b", "2"],
        ["cohomology", "-a", "2", "-b", "2", "--=x"],
        ["cohomology", "-ha", "5"],
        ["cohomology", "-hx"],
        ["cohomology", "--", "-a", "2", "-b", "2"],
        ["cohomology", "-a", "2", "-b", "2", "--"],
        ["--"],
        ["--foo", "cohomology", "-a", "2", "-b", "2"],
        ["cohomology", "-a", "2", "-b", "2", "x\ny"],
        ["-h"],
        ["sweep", "--help"],
        [],
    ],
    ids=repr,
)
def test_table_parser_agrees_with_argparse_on_corner_cases(argv):
    check_argv(argv)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cohomology", "-a=--", "-b", "2"], "truncpoisson cohomology: error: argument -a: not an integer: '--'"),
        (["ring", "-a", "4", "-b--", "5"], "truncpoisson ring: error: argument -b: not an integer: '--'"),
        (["sweep", "-a", "2", "-b", "2", "--kind=--"],
         "truncpoisson sweep: error: argument --kind: invalid choice: '--' (choose from 'cohomology', 'homology')"),
    ],
)
def test_explicit_double_dash_value_is_a_usage_error(argv, message):
    # argparse (3.10 to 3.12.1) turns such a value into [], and the argparse command line then
    # crashed with a traceback or, for --kind, ran a homology sweep
    assert table_parse(argv) == (2, None, message)
