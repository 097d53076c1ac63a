"""The mutation table still matches the source, and run.py judges only on a sound baseline and never hangs.

The cheap half of the gate (run.py is the full one):

    python -m pytest mutation
"""

import importlib.util
from pathlib import Path

from mutants import stale_entries

# by path, under its own name: perfbench/ has a run.py too, and both suites may run in one session
_spec = importlib.util.spec_from_file_location("mutation_run", Path(__file__).with_name("run.py"))
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


def test_every_old_string_occurs_once_and_every_killer_exists():
    assert stale_entries() == []


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
