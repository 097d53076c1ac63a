"""Cost contracts: how each command's work grows with its input, counted without a clock.

A sys.settrace hook counts the line events that each module of the package
runs while cli.main answers one argv in this process.  The count is the same
on every run of the same argv, whatever the host's load, so the tests can
assert each command's growth class over size ladders, not wall times:

    cohomology, ring, duality, homology --no-representatives   the same count at every size
    homology (with representatives)                            linear in h0 + h1 + h2
    sweep                                                      linear in its cells
    verify                                                     at most 4.4x per 4x step in a*b

Each command runs once untraced first, so that the imports and caches of a
first call are not counted.  Any tracer already set (a coverage run's) is
put back after each count.
"""

import contextlib
import io
import os
import sys
from collections import Counter

import pytest

from truncpoisson import TruncParams, TwistParams, cli, homology

PACKAGE = os.path.dirname(cli.__file__) + os.sep


def run(argv: list) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv


def line_events(argv: list) -> Counter:
    """The line events of each package module, by file name, while cli.main answers argv."""
    counts = Counter()

    def count(frame, event, arg):
        if event == "line":
            counts[frame.f_code.co_filename] += 1
        return count

    def enter(frame, event, arg):
        return count if frame.f_code.co_filename.startswith(PACKAGE) else None

    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        run(argv)
    finally:
        sys.settrace(previous)
    return Counter({os.path.basename(path): n for path, n in counts.items()})


def ladder(command: list, sizes) -> list:
    """The per-module line events of command at each (a, b) or (a range, b range), warmed at the first."""
    argvs = [[*command, "-a", str(a), "-b", str(b)] for a, b in sizes]
    run(argvs[0])
    return [line_events(argv) for argv in argvs]


def assert_linear(sizes: list, counts: list):
    """The counts grow by the same amount per unit of size, to 10%, on each step of the ladder."""
    totals = [sum(c.values()) for c in counts]
    slopes = [(t1 - t0) / (n1 - n0) for n0, n1, t0, t1 in zip(sizes, sizes[1:], totals, totals[1:])]
    assert all(0.9 <= s1 / s0 <= 1.1 for s0, s1 in zip(slopes, slopes[1:])), (sizes, totals)


@pytest.mark.parametrize(
    "command", [["cohomology"], ["ring"], ["duality"], ["homology", "--no-representatives"]], ids=" ".join
)
def test_closed_form_commands_cost_the_same_at_every_size(command):
    counts = ladder(command, [(4, 4), (8, 8), (16, 16)])
    assert counts[0] == counts[1] == counts[2], counts


def test_homology_grows_linearly_in_its_representatives():
    sizes = [(2, 25), (2, 100), (2, 400)]
    counts = ladder(["homology"], sizes)
    classes = [sum(homology(TruncParams(a, b), TwistParams.trivial(), include_reps=False).dims) for a, b in sizes]
    assert_linear(classes, counts)


@pytest.mark.parametrize("kind", ["cohomology", "homology"])
def test_sweep_grows_linearly_in_its_cells(kind):
    highs = [4, 8, 16]
    counts = ladder(["sweep", "--kind", kind], [(f"2..{n}", f"2..{n}") for n in highs])
    assert_linear([(n - 1) ** 2 for n in highs], counts)


def test_verify_grows_at_most_linearly_in_ab():
    # both sizes sample their Jacobi triples (a*b > JACOBI_FULL_LIMIT); below that all n^3 are run
    counts = ladder(["verify"], [(6, 6), (12, 12)])
    totals = [sum(c.values()) for c in counts]
    assert totals[1] <= 4.4 * totals[0], totals
