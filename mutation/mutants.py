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

mutation/census.py is the wider, slower survey behind this table: every
one-token flip of a module, reported in mutation/CENSUS.md.
"""

from __future__ import annotations

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ALGEBRA = "src/truncpoisson/algebra.py"
CHAIN = "src/truncpoisson/chain.py"
CHECKS = "src/truncpoisson/checks.py"
CLI = "src/truncpoisson/cli.py"
COCHAIN = "src/truncpoisson/cochain.py"
REPORTING = "src/truncpoisson/reporting.py"

RING_IDENTITIES = "tests/test_cochain.py::test_ring_table_identities"
BLOCK_EVALUATION = "tests/test_blocks.py::test_closed_form_homology_equals_block_evaluation"
DENSE_AT_RATIONAL_TWISTS = "tests/test_blocks.py::test_closed_form_homology_equals_dense_at_rational_twists"
NO_BLOCK_SCAN = "tests/test_blocks.py::test_no_command_scans_all_weight_blocks"
# verify's csv at 11 sizes: a mutant that a sampled check catches exits 1 there
VERIFY_DIGESTS = "tests/test_verify_digests.py::test_verify_csv_digest"
FORM_KEYS = "tests/test_chain.py::test_chain_element_refuses_every_key_off_its_basis"
COCHAIN_REFUSALS = "tests/test_cochain.py::test_cochain_constructors_refuse_other_parameters_and_the_wrong_terms"

# (name, file, old, new, tests)
MUTANTS = (
    # the cochain constructors' refusals
    (
        "Derivation refuses only values that both carry other parameters",
        COCHAIN,
        "if dx.params != params or dy.params != params:",
        "if dx.params != params and dy.params != params:",
        [COCHAIN_REFUSALS],
    ),
    (
        "Biderivation refuses only a constant term",
        COCHAIN,
        "if any(i == 0 or j == 0 for (i, j) in value.coeffs):",
        "if any(i == 0 and j == 0 for (i, j) in value.coeffs):",
        [COCHAIN_REFUSALS],
    ),
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
    # the form-basis test behind ChainElement's constructor: a bound loosened by one, a shape test by or
    (
        "a degree-1 dY key may reach Y^(b-1)",
        CHAIN,
        "else (p.a, p.b - 1)",
        "else (p.a, p.b)",
        [FORM_KEYS],
    ),
    (
        "a degree-2 key may reach X^(a-1)",
        CHAIN,
        "else (p.a - 1, p.b - 1)",
        "else (p.a, p.b - 1)",
        [FORM_KEYS],
    ),
    (
        "a degree-2 key may reach Y^(b-1)",
        CHAIN,
        "else (p.a - 1, p.b - 1)",
        "else (p.a - 1, p.b)",
        [FORM_KEYS],
    ),
    (
        "a degree-1 key needs only one of its shape tests",
        CHAIN,
        "isinstance(key, tuple) and len(key) == 3 and key[2] in (DX, DY)",
        "isinstance(key, tuple) or len(key) == 3 or key[2] in (DX, DY)",
        [FORM_KEYS],
    ),
    (
        "a degree-0 or degree-2 key needs only one of its shape tests",
        CHAIN,
        "elif isinstance(key, tuple) and len(key) == 2:",
        "elif isinstance(key, tuple) or len(key) == 2:",
        [FORM_KEYS],
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
    (
        "cohomology walks every monomial",
        COCHAIN,
        "rank0 = p.dim - 2",
        "rank0 = sum(1 for _ in p.monomials()) - 2",
        ["tests/test_cost.py::test_closed_form_commands_cost_the_same_at_every_size"],
    ),
    # the element kernels, which verify's checks run on int maps
    (
        "_bracket_into's structure constant gains + i*k",
        ALGEBRA,
        "(0, -j, i), c)",
        "(0, -j + i, i), c)",
        [VERIFY_DIGESTS, "tests/test_properties.py::test_bracket_matches_leibniz_oracle"],
    ),
    # the constructor's truncation: X^a = 0 and Y^b = 0
    (
        "AlgebraElement keeps a key at the X bound",
        ALGEBRA,
        "if c and i < a and j < b:",
        "if c and i <= a and j < b:",
        ["tests/test_algebra.py::test_element_truncates_a_key_at_its_bound_away"],
    ),
    (
        "AlgebraElement keeps a key at the Y bound",
        ALGEBRA,
        "if c and i < a and j < b:",
        "if c and i < a and j <= b:",
        ["tests/test_algebra.py::test_element_truncates_a_key_at_its_bound_away"],
    ),
    (
        "_shift_into keeps a cancelled key",
        ALGEBRA,
        "if old is not None and not (term := old + term):\n                del out[key]",
        "if old is not None and not (term := old + term):\n                out[key] = term",
        [
            "tests/test_properties.py::test_sum_and_difference_match_dict_reference",
            "tests/test_cochain.py::test_cochain_arithmetic_is_component_wise",
        ],
    ),
    # the differentials' shifts
    (
        "_boundary1_into drops the scale against X",
        CHAIN,
        "_shift_into(out, p, z_dx, (1, 0), (-alpha, 0, -scale))",
        "_shift_into(out, p, z_dx, (1, 0), (-alpha, 0, -1))",
        [VERIFY_DIGESTS, "tests/test_properties.py::test_boundary_kernel_at_scale_is_scaled_boundary"],
    ),
    (
        "_delta1_into drops its shift of d(Y)",
        COCHAIN,
        "    _shift_into(value, p, dy, (1, 0), (-1, 0, 1))\n",
        "",
        [VERIFY_DIGESTS, "tests/test_cochain.py::test_delta1_kernel_matches_generator_oracle"],
    ),
    (
        "_cocycle_maps negates delta_0's value on Y",
        COCHAIN,
        "_bracket_into(dy, p, {(0, 1): 1}, m)",
        "_bracket_into(dy, p, {(0, 1): -1}, m)",
        [VERIFY_DIGESTS, "tests/test_cochain.py::test_hamiltonian_matches_generator_oracle"],
    ),
    # verify's checks and the normalization kernel
    (
        "the boundary check evaluates only its first two twists",
        CHECKS,
        "for twist in scaled)",
        "for twist in scaled[:2])",
        ["tests/test_chain.py::test_boundary_check_evaluates_its_rational_twists_at_their_scale"],
    ),
    (
        "_spot_twist scales alpha by its own denominator",
        CHECKS,
        "return n1 * d2, n2 * d1, d1 * d2",
        "return n1 * d1, n2 * d1, d1 * d2",
        ["tests/test_cochain.py::test_verify_draws_keep_the_randint_and_choice_streams"],
    ),
    (
        "_normalize skips its block test",
        COCHAIN,
        "if x * f != y * e:",
        "if False:",
        [VERIFY_DIGESTS, "tests/test_cochain.py::test_normalize_rejects_non_cocycle"],
    ),
    (
        "_normalize swaps its block test's entries",
        COCHAIN,
        "if x * f != y * e:",
        "if x * e != y * f:",
        [
            VERIFY_DIGESTS,
            "tests/test_cochain.py::test_normalize_rejects_non_cocycle",
            "tests/test_cochain.py::test_normalize_gives_an_int_cocycle_its_fractional_potential",
        ],
    ),
    # the records and the command's imports
    (
        "_Record takes a record's fields in reverse order",
        ALGEBRA,
        "cls._fields = tuple(cls.__annotations__)",
        "cls._fields = tuple(reversed(cls.__annotations__))",
        [
            "tests/test_records.py::test_a_record_may_call_super_and_name_its_class",
            "tests/test_records.py::test_records_are_tuples_with_named_fields",
        ],
    ),
    # the twist, one value from the command line to the report
    (
        "resolve_twist computes the trivial twist for nakayama",
        REPORTING,
        "        return TwistParams.nakayama(p)\n",
        "        return TwistParams.trivial()\n",
        ["tests/test_cli.py::test_homology_nakayama_matches_cohomology", "tests/test_digests.py::test_recorded_digest"],
    ),
    (
        "twist_dict names an explicit twist trivial",
        REPORTING,
        'twist, t = "explicit", twist',
        'twist, t = "trivial", twist',
        ["tests/test_cli.py::test_homology_explicit_twist_rationals"],
    ),
    # a sweep row is its instance's report
    (
        "a sweep row ignores its instance verdict",
        REPORTING,
        '"pass" if bundle.exit_code == 0 else "fail"',
        '"pass"',
        [
            "tests/test_cli.py::test_a_degree_3_class_fails_every_cohomology_sweep_row",
            "tests/test_cli.py::test_a_wrong_degree_2_cohomology_fails_every_nakayama_sweep_row",
        ],
    ),
    (
        "unrecognized arguments show 11 tokens",
        CLI,
        "unknown[:10]",
        "unknown[:11]",
        [
            "tests/test_cli.py::test_usage_error_shortens_a_long_token",
            "tests/test_cli.py::test_unrecognized_arguments_show_the_first_10_tokens_and_the_count",
        ],
    ),
    (
        "cli imports json",
        CLI,
        "import gc\n",
        "import gc\nimport json\n",
        ["tests/test_cli.py::test_each_command_loads_only_the_modules_it_runs"],
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
