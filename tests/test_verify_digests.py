"""verify's csv stdout, pinned by sha256 at sizes the perfbench deck does not replay.

tests/test_digests.py replays perfbench/digests.json, whose verify ops are
the 6..10 sizes.  These pins add every Jacobi path and the cap: 2x2, 3x3 and
5x6 have dim <= JACOBI_FULL_LIMIT, so every monomial triple runs; 2x16 and
16x2 are just past the limit and sample; 11x11 (dim 121) is the largest
square whose bracket table has dim^2 <= 3 * JACOBI_SAMPLES entries, and
11x12 and 12x11 (dim 132) are past that switch, so they bracket each
sampled pair; 2x1250, 1250x2 and 50x50 are at VERIFY_MAX_AB.  The 11x11,
11x12 and 12x11 pins were recorded with the per-pair memo that the table
replaced, so they hold both paths to its bytes.  The csv names neither a
nor b and each detail it prints is the same under (a, b) -> (b, a), so a
size and its transpose share a digest, while each runs every check in its
own orientation.  Each op goes through cli.main and must exit 0.
"""

import hashlib

import pytest

import truncpoisson.cli as cli
from truncpoisson.checks import JACOBI_FULL_LIMIT, JACOBI_SAMPLES

PINS = {
    (2, 2): "450968633c4879d2a20b8ee3b2eee9b6c21ea2c822ba85d889c4064b7ecf1537",
    (3, 3): "11e6012eaf27980f294cea0bf257fa2efd9aed87a2c86a7109d6088c9eaae962",
    (5, 6): "410927aae6f2f4c4b57c3936bae7c5c72e416edfa1ded139fafc8061438def40",
    (2, 16): "3273a71fdc146ad74299265f7b52f174432be9e0ecf4c53e849c3cec0f499e64",
    (16, 2): "3273a71fdc146ad74299265f7b52f174432be9e0ecf4c53e849c3cec0f499e64",
    (11, 11): "9c513930602ca9d8dada4431aa3451e821ce7b0cc654fab6f7bc6b8a4af5584a",
    (11, 12): "ed63b822554823b5edbe07e35c6889901e32c241c6e839bd1e89d48c0e5a6e7f",
    (12, 11): "ed63b822554823b5edbe07e35c6889901e32c241c6e839bd1e89d48c0e5a6e7f",
    (2, 1250): "64a29b81f6ce939aaa53339518cbb8ba28619d4851f97bb414f61ebe5905a49f",
    (1250, 2): "64a29b81f6ce939aaa53339518cbb8ba28619d4851f97bb414f61ebe5905a49f",
    (50, 50): "930ea26914e673f76f06d6faebac56a48bfe4910c4a020a8af22be3d8ff23437",
}


def test_pins_cover_both_jacobi_paths_and_the_cap():
    dims = sorted(a * b for a, b in PINS)
    assert dims[2] == JACOBI_FULL_LIMIT < dims[3] == JACOBI_FULL_LIMIT + 2
    assert dims[-2] == dims[-1] == cli.VERIFY_MAX_AB
    # one pin on each side of the Jacobi check's switch from its table to per-pair brackets
    assert 11 * 11 in dims and 11 * 12 in dims
    assert (11 * 11) ** 2 <= 3 * JACOBI_SAMPLES < (11 * 12) ** 2


@pytest.mark.parametrize("a, b", sorted(PINS))
def test_verify_csv_digest(capsys, a, b):
    code = cli.main(["verify", "-a", str(a), "-b", str(b), "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINS[(a, b)]
