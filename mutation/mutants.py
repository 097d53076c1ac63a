"""The mutation gate's table: named source mutants and the tests that must kill each.

A mutant is one exact edit of one file under src/: an old string that
occurs there exactly once, the new string that replaces it, and the pytest
node ids that must fail on the edited copy.  run.py applies each edit to a
copy of src/ and runs its tests there; test_mutation.py checks only that
every old string still occurs once, so a change to a mutated line must
update this table in the same change.

Run from the repository root:

    python -m pytest mutation       # the table still matches the source (cheap)
    python mutation/run.py          # every mutant is killed (the full gate)
"""

from __future__ import annotations

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COCHAIN = "src/truncpoisson/cochain.py"
CHAIN = "src/truncpoisson/chain.py"

RING_IDENTITIES = "tests/test_cochain.py::test_ring_table_identities"
BLOCK_EVALUATION = "tests/test_blocks.py::test_closed_form_homology_equals_block_evaluation"
DENSE_AT_RATIONAL_TWISTS = "tests/test_blocks.py::test_closed_form_homology_equals_dense_at_rational_twists"
NO_BLOCK_SCAN = "tests/test_blocks.py::test_no_command_scans_all_weight_blocks"

# (name, file, old, new, tests)
MUTANTS = (
    # ring_table's reduction of a product to class coordinates
    (
        "ring_table keeps degree-0 terms off 1 and the top monomial",
        COCHAIN,
        "coords = None if stray else (",
        "coords = (",
        ["tests/test_cochain.py::test_ring_table_rejects_a_product_outside_the_span"],
    ),
    (
        "ring_table swaps the v and w slots",
        COCHAIN,
        "coords = solved and (0, 0, solved[0], solved[1], 0)",
        "coords = solved and (0, 0, solved[1], solved[0], 0)",
        [RING_IDENTITIES],
    ),
    # the arithmetic that Derivation and Biderivation share
    (
        "_Cochain.__sub__ adds",
        COCHAIN,
        "*map(AlgebraElement.__sub__, self._parts(), other._parts())",
        "*map(AlgebraElement.__add__, self._parts(), other._parts())",
        ["tests/test_cochain.py::test_cochain_arithmetic_is_component_wise"],
    ),
    (
        "cup's degree-0 action drops x",
        COCHAIN,
        "*(multiply(x, u) for u in y._parts())",
        "*(u for u in y._parts())",
        [RING_IDENTITIES],
    ),
    # homology's closed form: the row, the column and the interior weight
    (
        "homology's row carries classes when alpha = 0",
        CHAIN,
        "row = p.b - 1 if not t.beta else 0",
        "row = p.b - 1 if not t.alpha else 0",
        [BLOCK_EVALUATION, DENSE_AT_RATIONAL_TWISTS],
    ),
    (
        "homology's column carries classes when beta = 0",
        CHAIN,
        "column = p.a - 1 if not t.alpha else 0",
        "column = p.a - 1 if not t.beta else 0",
        [BLOCK_EVALUATION, DENSE_AT_RATIONAL_TWISTS],
    ),
    (
        "homology's interior weight may sit on the row",
        CHAIN,
        "0 < ki < p.a and 0 < li < p.b",
        "0 <= ki < p.a and 0 < li < p.b",
        [BLOCK_EVALUATION],
    ),
    # cohomology's closed-form ranks
    (
        "cohomology's rank delta_0 is ab - 1",
        COCHAIN,
        "rank0 = p.dim - 2",
        "rank0 = p.dim - 1",
        ["tests/test_cochain.py::test_cohomology_dimensions_and_reps", NO_BLOCK_SCAN],
    ),
    (
        "cohomology's rank delta_1 is (a-1)(b-1)",
        COCHAIN,
        "rank1 = (p.a - 1) * (p.b - 1) - 1",
        "rank1 = (p.a - 1) * (p.b - 1)",
        ["tests/test_cochain.py::test_cohomology_dimensions_and_reps", NO_BLOCK_SCAN],
    ),
)


def stale_entries() -> list[str]:
    """What no longer matches the source or the tests: each a line naming the mutant."""
    problems = []
    names = [m[0] for m in MUTANTS]
    problems += [f"{name}: named twice" for name in sorted(set(names)) if names.count(name) > 1]
    for name, file, old, new, tests in MUTANTS:
        count = (ROOT / file).read_text().count(old)
        if count != 1:
            problems.append(f"{name}: old string occurs {count} times in {file}")
        if old == new:
            problems.append(f"{name}: the edit changes nothing")
        if not tests:
            problems.append(f"{name}: no test is named to kill it")
        for node in tests:
            path, _, function = node.partition("::")
            test_file = ROOT / path
            if not (test_file.is_file() and f"def {function}(" in test_file.read_text()):
                problems.append(f"{name}: no test {node}")
    return problems
