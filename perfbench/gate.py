"""Correctness gate applied to every op's output.

An op passes when it exits 0, its stdout satisfies the paper's invariants
(parsed from whichever format it was rendered in) and the sha256 of its
stdout equals the digest recorded for that op.  The invariants are checked
here, independently of the package: they are what the paper proves, not
what the code reports about itself.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

from workloads import Op

DIGESTS_PATH = Path(__file__).with_name("digests.json")

COHOMOLOGY_DIMS = [2, 2, 1]
RING_LABELS = ("1", "t", "v", "w", "m")
N_VERIFY_CHECKS = 10


def reference_ring() -> list[list[list[int]]]:
    """Cup table of C[U]/(U^2) x_C C<V,W>/(V^2, VW+WV, W^2) over (1, t, v, w, m)."""
    n = len(RING_LABELS)

    def unit(k, s=1):
        return [s if i == k else 0 for i in range(n)]

    table = [[[0] * n for _ in range(n)] for _ in range(n)]
    for k in range(n):
        table[0][k] = unit(k)
        table[k][0] = unit(k)
    table[2][3] = unit(4)
    table[3][2] = unit(4, -1)
    return table


def load_digests() -> dict[str, str]:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _table(fmt: str, text: str) -> list[dict[str, str]]:
    """Rows of the csv or markdown table as dicts keyed by header."""
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(text)))
    lines = [ln for ln in text.splitlines() if ln.startswith("|")]
    cells = [[c.strip() for c in ln.strip()[1:-1].split("|")] for ln in lines]
    header, body = cells[0], cells[2:]  # cells[1] is the --- separator
    return [dict(zip(header, row)) for row in body]


def _facts(op: Op, text: str) -> dict:
    """The quantities the invariants speak about, from any output format."""
    if op.fmt == "json":
        doc = json.loads(text)
        payload = doc["payload"]
        facts = {"checks_failed": [c["name"] for c in doc["verification"] if not c["pass"]]}
        if op.command in ("cohomology", "homology"):
            facts["dims"] = [d["dimension"] for d in payload["degrees"]]
        elif op.command == "ring":
            facts["products"] = [[[int(c) for c in e] for e in row] for row in payload["products"]]
            facts["matches_reference"] = payload["matches_reference"]
        elif op.command == "duality":
            facts["comparisons"] = [
                (c["cohomology_dim"], c["nakayama_homology_dim"], c["trivial_homology_dim"],
                 c["nakayama_match"], c["poincare_match"])
                for c in payload["comparisons"]
            ]
        elif op.command == "verify":
            facts["verify"] = (payload["checks_passed"], payload["checks_total"])
        elif op.command == "sweep":
            facts["rows"] = [
                (r["a"], r["b"], r["h0"], r["h1"], r["h2"], r["theorem_checks"])
                for r in payload["rows"]
            ]
        return facts

    rows = _table(op.fmt, text)
    facts = {"checks_failed": []}
    if op.fmt == "markdown":
        facts["checks_failed"] = [
            ln for ln in text.splitlines() if ln.startswith("- [ ]")
        ]
    if op.command in ("cohomology", "homology"):
        facts["dims"] = [int(r["dimension"]) for r in rows]
    elif op.command == "ring":
        products = [[None] * len(RING_LABELS) for _ in RING_LABELS]
        for r in rows:
            i, j = RING_LABELS.index(r["left"]), RING_LABELS.index(r["right"])
            products[i][j] = [int(r["c_" + lab]) for lab in RING_LABELS]
        facts["products"] = products
    elif op.command == "duality":
        facts["comparisons"] = [
            (int(r["cohomology_dim"]), int(r["nakayama_homology_dim"]),
             int(r["trivial_homology_dim"]), r["nakayama_match"] == "True",
             r["poincare_match"] == "True")
            for r in rows
        ]
    elif op.command == "verify":
        passed = sum(1 for r in rows if r["status"] == "pass")
        facts["verify"] = (passed, len(rows))
    elif op.command == "sweep":
        facts["rows"] = [
            (int(r["a"]), int(r["b"]), int(r["h0"]), int(r["h1"]), int(r["h2"]),
             r["theorem_checks"])
            for r in rows
        ]
    return facts


def _euler(dims) -> int:
    return dims[0] - dims[1] + dims[2]


def _homology_problems(twist: str | None, a: int, b: int, dims) -> list[str]:
    out = []
    if _euler(dims) != 1:
        out.append(f"euler characteristic of {dims} is not 1")
    if twist == "trivial" and dims[0] != a + b - 1:
        out.append(f"trivial twist h0 {dims[0]} != a+b-1 = {a + b - 1}")
    if twist == "nakayama" and list(dims) != COHOMOLOGY_DIMS:
        out.append(f"nakayama twist dims {dims} != {COHOMOLOGY_DIMS}")
    return out


def invariant_problems(op: Op, text: str) -> list[str]:
    """Violations of the paper's invariants in one op's stdout (empty when none)."""
    try:
        facts = _facts(op, text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unparseable {op.fmt} output: {exc!r}"]
    out = [f"check failed: {name}" for name in facts["checks_failed"]]
    if op.command == "cohomology":
        dims = facts["dims"]
        if dims[:3] != COHOMOLOGY_DIMS or any(dims[3:]):
            out.append(f"cohomology dims {dims} != {COHOMOLOGY_DIMS} then zero")
    elif op.command == "homology":
        (a, b), = op.instances
        out += _homology_problems(op.twist, a, b, facts["dims"])
    elif op.command == "ring":
        if facts["products"] != reference_ring():
            out.append("cup table differs from the reference ring")
        if facts.get("matches_reference") is False:
            out.append("matches_reference is false")
    elif op.command == "duality":
        (a, b), = op.instances
        comps = facts["comparisons"]
        co = [c[0] for c in comps]
        nak = [c[1] for c in comps]
        triv = [c[2] for c in comps][::-1]  # row k holds trivial degree 2-k
        if co != COHOMOLOGY_DIMS or nak != COHOMOLOGY_DIMS:
            out.append(f"cohomology {co} / nakayama homology {nak} != {COHOMOLOGY_DIMS}")
        out += _homology_problems("trivial", a, b, triv)
        if not all(c[3] for c in comps) or all(c[4] for c in comps):
            out.append("nakayama duality must hold and naive poincare duality must fail")
    elif op.command == "verify":
        passed, total = facts["verify"]
        if passed != total or total != N_VERIFY_CHECKS:
            out.append(f"verify passed {passed} of {total} checks, expected {N_VERIFY_CHECKS}")
    elif op.command == "sweep":
        rows = facts["rows"]
        if [(r[0], r[1]) for r in rows] != list(op.instances):
            out.append("sweep rows do not cover the requested grid in order")
        for a, b, h0, h1, h2, status in rows:
            dims = [h0, h1, h2]
            if status != "pass":
                out.append(f"sweep row ({a},{b}) is {status}")
            if op.sweep_kind == "cohomology":
                if dims != COHOMOLOGY_DIMS:
                    out.append(f"sweep row ({a},{b}) cohomology dims {dims}")
            else:
                out += _homology_problems(op.twist, a, b, dims)
    return out


def op_problems(op: Op, returncode: int, stdout: bytes, digests: dict[str, str]) -> list[str]:
    """Everything wrong with one finished op: exit code, invariants, digest."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    out = invariant_problems(op, stdout.decode("utf-8", errors="replace"))
    expected = digests.get(op.key)
    if expected is None:
        out.append("no recorded digest for this op")
    elif sha256(stdout) != expected:
        out.append("stdout digest differs from the recorded one")
    return out
