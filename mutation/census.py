"""A mutation census: every one-token flip of a module, each run against the tests.

Run from the repository root (standard library and pytest only):

    python mutation/census.py src/truncpoisson/reporting.py

It walks the module's syntax tree and flips one thing at a time: each + and
- into the other (+= and -= too), * into +, a comparison into its opposite
(< and <=, > and >=, == and !=, in and not in, is and is not), and into or
and back, a not or a unary minus dropped, an int constant plus one.
Docstrings and other strings are left alone.  First run.py's
baseline_fault checks that all of tests/ (Tier-1) imports and passes on an
unedited copy of src/.  Then each flip is applied to a copy of src/ by
run.py's copy_src and run by its run_tests against SUBSET, stopping at the
first failure; a run cut at run.py's TIMEOUT_S counts as killed.  The
survivors then run against all of tests/.  The report, one row per flip
with its verdicts and the reason for each survivor that EXPLAINED accounts
for, replaces the module's section of mutation/CENSUS.md.  The census stays out of CI and
Tier-1: it takes minutes per module.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from mutants import ROOT
from run import KILLED, baseline_fault, copy_src, run_tests

SUBSET = [
    "tests/test_digests.py",
    "tests/test_verify_digests.py",
    "tests/test_cli.py",
    "tests/test_formats.py",
    "tests/test_properties.py",
    "tests/test_records.py",
    "tests/test_acceptance.py",
]
JOBS = 2  # mutants run at a time

# Survivors of all of Tier-1 on Python 3.11, keyed by (module, function, stripped source line, flip):
# why each may stay.
_DIMS = "cannot change an output: the dims are always (2, 2, 1), and HomologyReport enforces Euler = 1"
_JOIN = "equivalent: str - raises TypeError, and the per-element path writes the same bytes"
_SIGN = "equivalent: the kernel's sign is 1 or -1 and is read only as sign > 0"
_NONZERO = "equivalent: the coefficient's numerator n is a nonzero int, so n < 0, n <= 0 and n < 1 agree"
_EXPONENT_ONE = "equivalent: the == 1 branch before it has taken the exponent 1"
EXPLAINED = {
    ("reporting.py", "cohomology_bundle", "euler = dims[0] - dims[1] + dims[2]", "0 -> 1"): _DIMS,
    ("reporting.py", "duality_bundle", "rep.euler_cochain == 1 and rep.euler_chain == 1,", "and -> or"): _DIMS,
    ("reporting.py", "_json_value", "body = ('\",' + inner + '\"').join(x)", "+ -> - #1"): _JOIN,
    ("reporting.py", "_json_value", "body = ('\",' + inner + '\"').join(x)", "+ -> - #2"): _JOIN,
    ("algebra.py", "_frac",
     "if abs(exp) > TWIST_MAX_DIGITS + value.numerator.bit_length() + value.denominator.bit_length():", "> -> >="):
        "equivalent: with the exponent's size equal to the bound, the scaled value still has more than "
        "TWIST_MAX_DIGITS digits in its numerator or denominator, and the final check raises the same OverflowError",
    ("algebra.py", "__sub__", "_multiply_into(out, self.params, {(0, 0): 1}, other.coeffs, -1)", "1 -> 2 #2"): _SIGN,
    ("algebra.py", "_multiply_into",
     "def _multiply_into(out: dict, p: TruncParams, u: Mapping, v: Mapping, sign: int = 1):", "1 -> 2"): _SIGN,
    ("algebra.py", "_multiply_into", "out[key] = term if sign > 0 else -term", "> -> >="): _SIGN,
    ("algebra.py", "_multiply_into",
     "elif term := old + term if sign > 0 else old - term:  # one operation where old is present", "> -> >="): _SIGN,
    ("algebra.py", "_render_monomial", "elif i > 1:", "> -> >="): _EXPONENT_ONE,
    ("algebra.py", "_render_monomial", "elif j > 1:", "> -> >="): _EXPONENT_ONE,
    ("algebra.py", "_render_sum", 'chunks.append(f"- {body}" if n < 0 else f"+ {body}")', "< -> <="): _NONZERO,
    ("algebra.py", "_render_sum", 'chunks.append(f"- {body}" if n < 0 else f"+ {body}")', "0 -> 1"): _NONZERO,
    ("algebra.py", "_render_sum", 'chunks.append(f"-{body}" if n < 0 else body)', "< -> <="): _NONZERO,
    ("algebra.py", "_render_sum", 'chunks.append(f"-{body}" if n < 0 else body)', "0 -> 1"): _NONZERO,
    ("reporting.py", "to_csv", 'if "\\r" not in text and "\\0" not in text:', "and -> or"):
        "equivalent on 3.11 and 3.12, whose csv.writer writes a lone CR or NUL as the hand writer does; "
        "test_to_csv_quoting_and_empty_rows kills it on 3.10 (NUL row) and 3.13 (CR row)",
}

_FLIPS = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "+"), ast.And: ("and", "or"), ast.Or: ("or", "and")}
_COMPARE_FLIPS = {
    ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="), ast.In: ("in", "not in"), ast.NotIn: ("not in", "in"),
    ast.Is: ("is", "is not"), ast.IsNot: ("is not", "is"),
}
# each operator as it appears in the gap between two operands; a lone * is not half of **
_TOKEN = {
    "+": r"\+", "-": r"-", "*": r"(?<!\*)\*(?!\*)", "and": r"\band\b", "or": r"\bor\b",
    "<": r"<(?!=)", "<=": r"<=", ">": r">(?!=)", ">=": r">=", "==": r"==", "!=": r"!=",
    "in": r"(?<!not )\bin\b", "not in": r"\bnot\s+in\b", "is": r"\bis\b(?!\s+not\b)", "is not": r"\bis\s+not\b",
    "+=": r"\+=", "-=": r"-=",
}


class Source:
    """A module's text with byte offsets for the (line, column) positions that ast reports."""

    def __init__(self, text: str):
        self.text = text
        self.data = text.encode()
        self.starts = [0]
        for line in self.data.splitlines(keepends=True):
            self.starts.append(self.starts[-1] + len(line))

    def offset(self, line: int, col: int) -> int:
        return self.starts[line - 1] + col

    def start(self, node) -> int:
        return self.offset(node.lineno, node.col_offset)

    def end(self, node) -> int:
        return self.offset(node.end_lineno, node.end_col_offset)

    def line_of(self, at: int) -> int:
        return next(i for i, s in enumerate(self.starts) if s > at)


def _in_gap(src: Source, lo: int, hi: int, old: str) -> tuple[int, int]:
    """The span of the operator old between two operands, comments blanked out."""
    gap = re.sub(rb"#[^\n]*", lambda m: b" " * len(m[0]), src.data[lo:hi]).decode()
    m = re.search(_TOKEN[old], gap)
    if m is None:
        raise ValueError(f"no {old!r} in {gap!r}")
    return lo + len(gap[: m.start()].encode()), lo + len(gap[: m.end()].encode())


def flips(text: str):
    """(start, end, old, new) byte spans of every flip in the module text, in source order."""
    src, found = Source(text), []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.BinOp) and type(node.op) in _FLIPS:
            old, new = _FLIPS[type(node.op)]
            found.append((*_in_gap(src, src.end(node.left), src.start(node.right), old), old, new))
        elif isinstance(node, ast.AugAssign) and type(node.op) in (ast.Add, ast.Sub):
            old, new = _FLIPS[type(node.op)]
            lo, hi = _in_gap(src, src.end(node.target), src.start(node.value), old + "=")
            found.append((lo, hi, old + "=", new + "="))
        elif isinstance(node, ast.BoolOp):
            old, new = _FLIPS[type(node.op)]
            for left, right in zip(node.values, node.values[1:]):
                found.append((*_in_gap(src, src.end(left), src.start(right), old), old, new))
        elif isinstance(node, ast.Compare):
            for op, left, right in zip(node.ops, [node.left, *node.comparators], node.comparators):
                old, new = _COMPARE_FLIPS[type(op)]
                found.append((*_in_gap(src, src.end(left), src.start(right), old), old, new))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.Not, ast.USub)):
            lo = src.start(node)
            old = re.match(rb"not\b\s*|-\s*", src.data[lo:])[0]
            found.append((lo, lo + len(old), old.decode(), ""))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found.append((src.start(node), src.end(node), src.data[src.start(node):src.end(node)].decode(),
                          str(node.value + 1)))
    return src, sorted(found)


def describe(module: str, src: Source, spans) -> list[dict]:
    """One record per flip: its function, line, stripped line text and flip text, and the mutated source."""
    rows, seen = [], {}
    tree = ast.parse(src.text)
    original = ast.dump(tree)
    scopes = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    for lo, hi, old, new in spans:
        line = src.line_of(lo)
        inner = [n for n in scopes if n.lineno <= line <= n.end_lineno]
        function = max(inner, key=lambda n: n.lineno).name if inner else ""
        code = src.data[src.starts[line - 1]:src.starts[line]].decode().strip()
        flip = f"{old.strip() or old} -> {new.strip() or '(dropped)'}"
        key = (line, flip)
        seen[key] = seen.get(key, 0) + 1
        mutated = (src.data[:lo] + new.encode() + src.data[hi:]).decode()
        if ast.dump(ast.parse(mutated)) == original:
            raise ValueError(f"line {line}: {flip} changes nothing")
        rows.append({"module": module, "function": function, "line": line, "code": code, "flip": flip,
                     "nth": seen[key], "mutated": mutated})
    for row in rows:  # number the flips that repeat on one line
        if seen[(row["line"], row["flip"])] > 1:
            row["flip"] += f" #{row['nth']}"
    return rows


def verdict(row: dict, tests: list) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        src = copy_src(Path(tmp))
        (src / "truncpoisson" / row["module"]).write_text(row["mutated"])
        code = run_tests(src, tests)
    return "killed" if code in KILLED else "survived" if code == 0 else f"pytest exit {code}"


def section(module: str, rows: list) -> str:
    """The report's section on one module: how it ran, the counts, and a row per flip."""
    left = [r for r in rows if r["tier1"] != "killed"]
    by_subset = sum(r["subset"] == "killed" for r in rows)
    lines = [
        f"## `{module}`",
        "",
        f"`python mutation/census.py src/truncpoisson/{module}` on Python {sys.version.split()[0]}.",
        f"Each flip ran first against {', '.join(f'`{t}`' for t in SUBSET)} (with `-x`),",
        "and each survivor then against all of `tests/` (Tier-1).",
        f"{len(rows)} flips: {by_subset} killed by the subset, {len(rows) - len(left) - by_subset} more by Tier-1;",
        f"{len(left)} survive Tier-1, {sum(not r['reason'] for r in left)} of them unexplained.",
        "",
        "| Line | Function | Code | Flip | Subset | Tier-1 | Reason |",
        "| --- | --- | --- | --- | --- | --- | --- |",
    ]
    for r in rows:
        code = r["code"].replace("|", "\\|")
        tier1 = "" if r["subset"] == "killed" else r["tier1"]
        reason = r["reason"] or ("**unexplained**" if r["tier1"] != "killed" else "")
        lines.append(
            f"| {r['line']} | `{r['function']}` | `{code}` | `{r['flip']}` | {r['subset']} | {tier1} | {reason} |"
        )
    return "\n".join(lines)


def write_report(sections: dict):
    """Replace the sections of the modules just run in CENSUS.md, keeping the others."""
    path = ROOT / "mutation" / "CENSUS.md"
    kept = path.read_text().split("\n## ")[1:] if path.exists() else []
    for chunk in kept:
        sections.setdefault(chunk.split("`")[1], "## " + chunk.strip())
    intro = "# Mutation census\n\nWritten by `mutation/census.py`: one section per module, each row one flip.\n"
    path.write_text("\n\n".join([intro.rstrip(), *(sections[m] for m in sorted(sections))]) + "\n")


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="+", help="module files under src/truncpoisson/")
    args = parser.parse_args(argv)
    rows = []
    for path in args.modules:
        module = Path(path).name
        rows += describe(module, *flips((ROOT / "src" / "truncpoisson" / module).read_text()))
    keys = [(r["module"], r["function"], r["code"], r["flip"]) for r in rows]
    ambiguous = [key for key in EXPLAINED if keys.count(key) > 1]
    if ambiguous:
        raise SystemExit(f"EXPLAINED names more than one flip: {ambiguous}")
    fault = baseline_fault(["tests"])
    if fault:
        raise SystemExit(fault)
    with ThreadPoolExecutor(JOBS) as pool:
        for row, first in zip(rows, pool.map(lambda r: verdict(r, SUBSET), rows)):
            row["subset"] = row["tier1"] = first
        left = [r for r in rows if r["subset"] != "killed"]
        for row, full in zip(left, pool.map(lambda r: verdict(r, ["tests"]), left)):
            row["tier1"] = full
    for row, key in zip(rows, keys):
        row["reason"] = EXPLAINED.get(key, "") if row["tier1"] != "killed" else ""
        print(f"{row['module']}:{row['line']}  {row['flip']:<16} {row['subset']:<10} {row['tier1']}")
    modules = dict.fromkeys(r["module"] for r in rows)
    write_report({m: section(m, [r for r in rows if r["module"] == m]) for m in modules})
    return 1 if any(r["tier1"] != "killed" and not r["reason"] for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
