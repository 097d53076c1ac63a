"""The mutation table still matches the source: the cheap half of the gate (run.py is the full one).

    python -m pytest mutation
"""

from mutants import stale_entries


def test_every_old_string_occurs_once_and_every_killer_exists():
    assert stale_entries() == []

