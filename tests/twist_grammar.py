"""The --twist entry grammar, one table for every supported Python.

Each entry is either accepted with its value or refused (None) by
cli.twist_value, as alpha and as beta.  The grammar is that of Python
3.12's fractions.Fraction, on 3.10 and 3.11 too.  tests/test_cli.py runs the
table under pytest; this file replays it on an interpreter without pytest:

    PYTHONPATH=src python3.10 tests/twist_grammar.py
"""

import sys
from fractions import Fraction

from truncpoisson.cli import twist_value

TWIST_ENTRIES = [
    ("7", Fraction(7)),
    (" 7 ", Fraction(7)),
    ("-3/4", Fraction(-3, 4)),
    (".5", Fraction(1, 2)),
    ("1.", Fraction(1)),
    ("-.5E+2", Fraction(-50)),
    # '_' between two digits: Python 3.11 and later
    ("1_0", Fraction(10)),
    ("1_000/3", Fraction(1000, 3)),
    ("2/1_0", Fraction(1, 5)),
    ("1.2_5", Fraction(5, 4)),
    ("1e1_0", Fraction(10**10)),
    ("-1_2.5_0e+0_1", Fraction(-125)),
    # whitespace around '/': Python 3.12 and later
    ("1 / 2", Fraction(1, 2)),
    ("1/ 2", Fraction(1, 2)),
    ("1 /2", Fraction(1, 2)),
    ("-3\t/\t4", Fraction(-3, 4)),
    ("1_0 / 4", Fraction(5, 2)),
    # refused on every version
    ("", None),
    ("one", None),
    ("1/0", None),
    ("1__0", None),
    ("_10", None),
    ("10_", None),
    ("1_/2", None),
    ("1/_2", None),
    ("1 / _2", None),
    ("1_.5", None),
    ("1._5", None),
    ("1e_5", None),
    ("1e5_", None),
    ("1e1__0", None),
    ("- 1", None),
    ("1 2", None),
    ("1 .5", None),
    ("1e 5", None),
    ("1/2/3", None),
    ("1 / 2 / 3", None),
    ("1.5/2", None),
    ("1.5 / 2", None),
    ("1/2e3", None),
    ("/2", None),
    (" / 2", None),
    ("1/", None),
    ("1 / ", None),
    ("1.d", None),
]


def twist_answer(text: str):
    """(alpha, beta) of the twist text, or None where twist_value refuses it."""
    try:
        t = twist_value(text)[1]
    except ValueError:
        return None
    return (t.alpha, t.beta)


def mismatches(entry: str, value) -> list[str]:
    """What twist_value does otherwise than the table says for entry as alpha and as beta."""
    wrong = []
    for text, want in ((f"{entry},0", (value, 0)), (f"0,{entry}", (0, value))):
        want = None if value is None else want
        got = twist_answer(text)
        if got != want:
            wrong.append(f"{text!r}: got {got}, want {want}")
    return wrong


if __name__ == "__main__":
    wrong = [line for entry, value in TWIST_ENTRIES for line in mismatches(entry, value)]
    for line in wrong:
        print(line)
    print(f"Python {sys.version.split()[0]}: {len(TWIST_ENTRIES)} entries, {len(wrong)} mismatches")
    sys.exit(1 if wrong else 0)
