"""The mutation gate: every mutant of mutants.MUTANTS must fail the tests named to kill it.

Run from the repository root (standard library and pytest only):

    python mutation/run.py

It first checks the table against the source and runs every named test on
an unedited copy of src/, which must pass and must be the copy that the
tests import.  Then, for each mutant, it copies src/ to a temporary
directory, applies the one edit there and runs the mutant's tests with
PYTHONPATH on the copy.  The checkout is never edited.  The exit code is 0
when every mutant is killed and 1 when one survives, its old string no
longer occurs exactly once, or the unedited copy fails.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from mutants import MUTANTS, ROOT, stale_entries


def copy_src(into: Path) -> Path:
    shutil.copytree(ROOT / "src", into / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return into / "src"


def run_tests(src: Path, tests: list) -> int:
    """pytest's exit code on the tests, with the package imported from src."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def imported_from(src: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-c", "import truncpoisson; print(truncpoisson.__file__)"]
    return subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True).stdout.strip()


def main() -> int:
    problems = stale_entries()
    if problems:
        print("\n".join(problems))
        return 1
    every_test = sorted({node for *_, tests in MUTANTS for node in tests})
    with tempfile.TemporaryDirectory() as tmp:
        src = copy_src(Path(tmp))
        if not imported_from(src).startswith(str(src)):
            print(f"the tests do not import the copy in {src}")
            return 1
        if run_tests(src, every_test):
            print("the named tests fail on the unedited source")
            return 1
    survivors = []
    for name, file, old, new, tests in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            src = copy_src(Path(tmp))
            target = src / Path(file).relative_to("src")
            target.write_text(target.read_text().replace(old, new))
            code = run_tests(src, tests)
        # 1: a test failed; any other code (passed, no tests, usage error) leaves the mutant alive
        verdict = "killed" if code == 1 else f"SURVIVED (pytest exit {code})"
        print(f"{verdict:<28}{name}")
        if code != 1:
            survivors.append(name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
