"""The CSV and markdown tables agree with the JSON records of the same report.

Each table row is the JSON record's values in header order, with a list
joined by "; " (for cohomology, homology, duality and sweep), or a pair of
basis labels followed by the five coordinates of their product (for ring).
Every report runs through cli.main once per format and the three stdouts are
compared: csv read with csv.reader, markdown read off its "| ... |" lines.
"""

import contextlib
import csv
import io
import json

import pytest

from test_cli import validate_envelope
from truncpoisson import TruncParams, cli
from truncpoisson.reporting import cohomology_bundle, render

SIZES = [["-a", str(a), "-b", str(b)] for a in range(2, 7) for b in range(2, 7)]
TWISTS = (["--twist", "trivial"], ["--twist", "nakayama"], ["--twist=-1,2"], ["--twist", "1/2,-3/4"])
INSTANCE_VARIANTS = (
    ["cohomology"],
    ["cohomology", "--no-representatives"],
    *(["homology", *t, *reps] for t in TWISTS for reps in ([], ["--no-representatives"])),
    ["duality"],
    ["ring"],
)
SWEEPS = (
    ["sweep", "-a", "2..6", "-b", "2..6"],
    ["sweep", "-a", "2..6", "-b", "2..6", "--kind", "homology"],
    *(["sweep", "-a", "2..6", "-b", "2..6", "--kind", "homology", *t] for t in TWISTS[1:]),
)
# the payload key holding the records that the table is read off
RECORDS = {"cohomology": "degrees", "homology": "degrees", "duality": "comparisons", "sweep": "rows"}


def outputs(argv):
    """stdout of argv in each format, with exit code 0 and nothing on stderr."""
    out = {}
    for fmt in ("json", "csv", "markdown"):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([*argv, "--format", fmt])
        assert (code, stderr.getvalue()) == (0, ""), (argv, fmt)
        out[fmt] = stdout.getvalue()
    return out


def markdown_table(text):
    """(headers, rows) of the one table in a markdown report, every cell a string."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| "))
    assert lines[start + 1].replace(" --- ", "").strip("|") == ""
    cells = []
    for line in lines[start:]:
        if not line:
            break
        assert line.startswith("| ") and line.endswith(" |"), line
        cells.append(tuple(line[2:-2].split(" | ")))
    return cells[0], cells[2:]


def cell(value):
    return "; ".join(value) if isinstance(value, list) else str(value)


def check_formats_agree(argv):
    out = outputs(argv)
    envelope = json.loads(out["json"])
    validate_envelope(envelope)
    payload = envelope["payload"]
    csv_headers, *csv_rows = (tuple(row) for row in csv.reader(io.StringIO(out["csv"])))
    md_headers, md_rows = markdown_table(out["markdown"])
    assert csv_headers == md_headers
    if argv[0] == "ring":
        labels = payload["basis"]
        expected = [
            (left, right, *payload["products"][i][j]) for i, left in enumerate(labels) for j, right in enumerate(labels)
        ]
    else:
        expected = [tuple(cell(record[h]) for h in csv_headers) for record in payload[RECORDS[argv[0]]]]
    assert csv_rows == expected, argv
    assert md_rows == expected, argv


@pytest.mark.parametrize("variant", INSTANCE_VARIANTS, ids=" ".join)
def test_tables_are_the_json_records(variant):
    for size in SIZES:
        check_formats_agree([variant[0], *size, *variant[1:]])


@pytest.mark.parametrize("argv", SWEEPS, ids=" ".join)
def test_sweep_tables_are_the_json_records(argv):
    check_formats_agree(argv)


def test_render_refuses_a_format_it_does_not_write():
    with pytest.raises(ValueError, match="^unknown format 'xml'$"):
        render(cohomology_bundle(TruncParams(2, 3)), "xml")
