"""Every op recorded in perfbench/digests.json, replayed in process.

Each op's argv goes through cli.main; its stdout must hash to the recorded
sha256 and it must exit 0.  The file is only read here (re-record it with
perfbench/record_digests.py).  verify_bundle is memoised for the module, so
each verify size is computed once for its three formats.
"""

import functools
import hashlib
import json
from pathlib import Path

import pytest

import truncpoisson.cli as cli

DIGESTS = json.loads((Path(__file__).parent.parent / "perfbench" / "digests.json").read_text())["digests"]


@pytest.fixture(scope="module", autouse=True)
def memoised_verify():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "verify_bundle", functools.lru_cache(maxsize=None)(cli.verify_bundle))
        yield


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_recorded_digest(capsys, key):
    code = cli.main(key.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DIGESTS[key]
