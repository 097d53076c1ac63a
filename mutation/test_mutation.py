"""The mutation table and the census's explanations still match the source, and run.py judges soundly.

The cheap half of the gate (run.py is the full one):

    python -m pytest mutation
"""

import census
from census import EXPLAINED, describe, flips, run
from mutants import ROOT, stale_entries


def test_every_old_string_occurs_once_and_every_killer_exists():
    assert stale_entries() == []


def test_every_census_explanation_names_exactly_one_current_flip():
    # a reason whose code is gone would match nothing, and no census run would report it
    keys = []
    for module in sorted({key[0] for key in EXPLAINED}):
        rows = describe(module, *flips((ROOT / "src" / "truncpoisson" / module).read_text()))
        keys += [(r["module"], r["function"], r["code"], r["flip"]) for r in rows]
    assert [key for key in EXPLAINED if keys.count(key) != 1] == []


def test_a_test_run_past_the_timeout_is_cut_and_counts_as_killed(tmp_path, monkeypatch):
    # a mutant such as `i + 1` -> `i - 1` in an argument loop never ends; the census must not hang on it
    (tmp_path / "test_endless.py").write_text("def test_endless():\n    while True:\n        pass\n")
    monkeypatch.setattr(run, "TIMEOUT_S", 3)
    code = run.run_tests(tmp_path, [str(tmp_path / "test_endless.py")])
    assert code == run.TIMED_OUT and code in run.KILLED


def test_a_baseline_whose_tests_fail_is_refused(tmp_path):
    # else every flip would read as killed
    (tmp_path / "test_broken.py").write_text("def test_broken():\n    assert False\n")
    assert run.baseline_fault([str(tmp_path / "test_broken.py")]) == "the named tests fail on the unedited source"
    assert run.baseline_fault(["tests/test_records.py"]) == ""


def test_the_census_writes_each_module_before_it_judges_the_next(tmp_path, monkeypatch, capsys):
    # a run cut short keeps the modules it finished; no flip runs pytest here
    report = tmp_path / "CENSUS.md"
    seen = []

    def fake_verdict(row, tests):
        written = report.read_text() if report.exists() else ""
        seen.append((row["module"], "## `linalg.py`" in written))
        return "survived" if tests == census.SUBSET else "killed"

    monkeypatch.setattr(census, "REPORT", report)
    monkeypatch.setattr(census, "verdict", fake_verdict)
    monkeypatch.setattr(run, "baseline_fault", lambda tests: "")
    assert census.main(["src/truncpoisson/linalg.py", "src/truncpoisson/chain.py"]) == 0
    modules = [module for module, _ in seen]
    first = modules.index("chain.py")
    assert first > 0 and set(modules[first:]) == {"chain.py"}
    assert seen == [(module, module == "chain.py") for module in modules]
    assert len(capsys.readouterr().out.splitlines()) == len(seen) // 2
    text = report.read_text()
    assert text.index("## `chain.py`") < text.index("## `linalg.py`")
