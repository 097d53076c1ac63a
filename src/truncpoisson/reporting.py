"""Report assembly and serialization for the command-line surface.

Every command produces a ReportBundle: a JSON-ready envelope (the stable
machine contract), a flat table (the CSV/markdown view) and a list of named
pass/fail checks.  Serialization is deterministic: fixed key order, fixed row
order, rationals rendered as "p/q" strings, never floats, no timestamps.
The renderers import json or csv, and verify_bundle the checks, when called,
so a command loads only the modules it runs.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .algebra import AlgebraElement, TruncParams, render_element
from .chain import ChainElement, TwistParams, duality_report, homology
from .cochain import Biderivation, Derivation, cohomology, cup, ring_table

SCHEMA_VERSION = "1.0"

THEORY_COHOMOLOGY_DIMS = (2, 2, 1)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


class ReportBundle(NamedTuple):
    command: str
    params: dict
    payload: dict
    headers: tuple[str, ...]
    rows: tuple[tuple, ...]
    verification: tuple[CheckResult, ...]

    @property
    def exit_code(self) -> int:
        return 0 if all(c.passed for c in self.verification) else 1

    def envelope(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "params": self.params,
            "payload": self.payload,
            "verification": [
                {"name": c.name, "pass": c.passed, "detail": c.detail}
                for c in self.verification
            ],
        }


def label_for(cochain) -> str:
    if isinstance(cochain, AlgebraElement):
        return render_element(cochain)
    if isinstance(cochain, (Derivation, Biderivation)):
        return cochain.label()
    if isinstance(cochain, ChainElement):
        return cochain.render()
    raise TypeError(f"unlabelable object {cochain!r}")


def twist_dict(kind: str, t: Optional[TwistParams]) -> dict:
    out = {"kind": kind}
    if t is not None:
        out["alpha"] = str(t.alpha)
        out["beta"] = str(t.beta)
    return out


def resolve_twist(kind: str, explicit: Optional[TwistParams], p: TruncParams) -> TwistParams:
    if kind == "trivial":
        return TwistParams.trivial()
    if kind == "nakayama":
        return TwistParams.nakayama(p)
    if explicit is None:
        raise ValueError("explicit twist requires parameters")
    return explicit


def cohomology_bundle(p: TruncParams, include_reps: bool = True) -> ReportBundle:
    reports = [cohomology(p, k, include_reps) for k in range(4)]
    dims = tuple(r.dimension for r in reports[:3])
    degrees = []
    rows = []
    for r in reports:
        reps = [label_for(x) for x in r.representatives]
        degrees.append(
            {
                "degree": r.degree,
                "dimension": r.dimension,
                "cocycle_dim": r.cocycle_dim,
                "coboundary_rank": r.coboundary_rank,
                "representatives": reps,
            }
        )
        rows.append((r.degree, r.dimension, r.cocycle_dim, r.coboundary_rank, "; ".join(reps)))
    euler = dims[0] - dims[1] + dims[2]
    payload = {
        "dims": list(dims),
        "euler_characteristic": euler,
        "degrees": degrees,
    }
    checks = (
        CheckResult("dims_match_theory", dims == THEORY_COHOMOLOGY_DIMS, f"dims {dims}"),
        CheckResult("higher_degrees_vanish", reports[3].dimension == 0, "degree 3 is zero"),
        CheckResult("euler_characteristic", euler == 1, f"euler {euler}"),
    )
    return ReportBundle(
        "cohomology",
        {"a": p.a, "b": p.b},
        payload,
        ("degree", "dimension", "cocycle_dim", "coboundary_rank", "representatives"),
        tuple(rows),
        checks,
    )


def homology_bundle(
    p: TruncParams, twist_kind: str, explicit: Optional[TwistParams] = None, include_reps: bool = True
) -> ReportBundle:
    t = resolve_twist(twist_kind, explicit, p)
    rep = homology(p, t, include_reps)
    h0, h1, h2 = rep.dims
    euler = h0 - h1 + h2
    degrees = []
    rows = []
    for k in range(3):
        reps = [x.render() for x in rep.representatives[k]] if include_reps else []
        degrees.append({"degree": k, "dimension": rep.dims[k], "representatives": reps})
        rows.append((k, rep.dims[k], "; ".join(reps)))
    payload = {
        "twist": twist_dict(twist_kind, t),
        "dims": list(rep.dims),
        "ranks": {"boundary1": rep.ranks[0], "boundary2": rep.ranks[1]},
        "euler_characteristic": euler,
        "degrees": degrees,
    }
    checks = [CheckResult("euler_characteristic", euler == 1, f"euler {euler}")]
    if twist_kind == "trivial":
        checks.append(
            CheckResult("trace_dimension", h0 == p.a + p.b - 1, f"h0 = {h0} vs a+b-1 = {p.a + p.b - 1}")
        )
    elif twist_kind == "nakayama":
        codims = tuple(cohomology(p, k, include_reps=False).dimension for k in range(3))
        checks.append(
            CheckResult("twisted_duality_dims", rep.dims == codims, f"{rep.dims} vs {codims}")
        )
    return ReportBundle(
        "homology",
        {"a": p.a, "b": p.b, "twist": twist_dict(twist_kind, t)},
        payload,
        ("degree", "dimension", "representatives"),
        tuple(rows),
        tuple(checks),
    )


def ring_bundle(p: TruncParams) -> ReportBundle:
    table = ring_table(p)
    d10 = Derivation.basis_d(p, 1, 0)
    d01 = Derivation.basis_dprime(p, 0, 1)
    f11 = Biderivation.basis_f(p, 1, 1)
    products = [
        [[str(c) for c in entry] for entry in row] for row in table.products
    ]
    payload = {
        "basis": list(table.basis_labels),
        "degrees": list(table.degrees),
        "class_representatives": {
            "1": "1",
            "t": render_element(AlgebraElement.monomial(p, p.a - 1, p.b - 1)),
            "v": d10.label(),
            "w": d01.label(),
            "m": f11.label(),
        },
        "products": products,
        "matches_reference": table.matches_reference(),
    }
    rows = []
    for i, left in enumerate(table.basis_labels):
        for j, right in enumerate(table.basis_labels):
            rows.append((left, right) + tuple(str(c) for c in table.products[i][j]))
    checks = (
        CheckResult("matches_reference_ring", table.matches_reference(), "5x5 table"),
        CheckResult(
            "d10_cup_d01_is_f11", cup(d10, d01) == f11, "cochain-level product"
        ),
    )
    return ReportBundle(
        "ring",
        {"a": p.a, "b": p.b},
        payload,
        ("left", "right", "c_1", "c_t", "c_v", "c_w", "c_m"),
        tuple(rows),
        checks,
    )


def duality_bundle(p: TruncParams) -> ReportBundle:
    rep = duality_report(p)
    comparisons = []
    rows = []
    for c in rep.comparisons:
        comparisons.append(
            {
                "degree": c.degree,
                "cohomology_dim": c.cohomology_dim,
                "nakayama_homology_dim": c.nakayama_homology_dim,
                "nakayama_match": c.nakayama_match,
                "complement_degree": c.complement_degree,
                "trivial_homology_dim": c.trivial_homology_dim,
                "poincare_match": c.poincare_match,
            }
        )
        rows.append(
            (
                c.degree,
                c.cohomology_dim,
                c.nakayama_homology_dim,
                c.nakayama_match,
                c.trivial_homology_dim,
                c.poincare_match,
            )
        )
    payload = {
        "comparisons": comparisons,
        "euler_cochain": rep.euler_cochain,
        "euler_chain": rep.euler_chain,
        "nakayama_duality_holds": rep.nakayama_duality_holds,
        "poincare_duality_fails": rep.poincare_duality_fails,
    }
    checks = (
        CheckResult("nakayama_duality_holds", rep.nakayama_duality_holds, "degreewise dims"),
        CheckResult("poincare_duality_fails", rep.poincare_duality_fails, "naive pairing mismatch"),
        CheckResult(
            "euler_characteristics_equal_1",
            rep.euler_cochain == 1 and rep.euler_chain == 1,
            f"cochain {rep.euler_cochain}, chain {rep.euler_chain}",
        ),
    )
    return ReportBundle(
        "duality",
        {"a": p.a, "b": p.b},
        payload,
        (
            "degree",
            "cohomology_dim",
            "nakayama_homology_dim",
            "nakayama_match",
            "trivial_homology_dim",
            "poincare_match",
        ),
        tuple(rows),
        checks,
    )


def _sweep_row(kind: str, a: int, b: int, twist_kind: str, explicit: Optional[TwistParams]):
    p = TruncParams(a, b)
    if kind == "cohomology":
        dims = tuple(cohomology(p, k, include_reps=False).dimension for k in range(3))
        ok = dims == THEORY_COHOMOLOGY_DIMS
    else:
        t = resolve_twist(twist_kind, explicit, p)
        dims = homology(p, t, include_reps=False).dims
        if twist_kind == "trivial":
            ok = dims[0] == a + b - 1
        elif twist_kind == "nakayama":
            ok = dims == THEORY_COHOMOLOGY_DIMS
        else:
            ok = True
    euler = dims[0] - dims[1] + dims[2]
    ok = ok and euler == 1
    return (a, b, dims[0], dims[1], dims[2], euler, "pass" if ok else "fail")


def sweep_bundle(
    kind: str,
    a_range: tuple[int, int],
    b_range: tuple[int, int],
    twist_kind: str = "trivial",
    explicit: Optional[TwistParams] = None,
) -> ReportBundle:
    rows = [
        _sweep_row(kind, a, b, twist_kind, explicit)
        for a in range(a_range[0], a_range[1] + 1)
        for b in range(b_range[0], b_range[1] + 1)
    ]
    params = {
        "kind": kind,
        "a_range": list(a_range),
        "b_range": list(b_range),
    }
    if kind == "homology":
        params["twist"] = twist_dict(twist_kind, explicit)
    payload = {
        "rows": [
            {
                "a": r[0],
                "b": r[1],
                "h0": r[2],
                "h1": r[3],
                "h2": r[4],
                "euler": r[5],
                "theorem_checks": r[6],
            }
            for r in rows
        ]
    }
    n_fail = sum(1 for r in rows if r[6] != "pass")
    checks = (
        CheckResult("all_rows_pass", n_fail == 0, f"{len(rows)} rows, {n_fail} failing"),
    )
    return ReportBundle(
        "sweep",
        params,
        payload,
        ("a", "b", "h0", "h1", "h2", "euler", "theorem_checks"),
        tuple(rows),
        checks,
    )


def verify_bundle(p: TruncParams) -> ReportBundle:
    from .checks import run_verify  # only verify loads the checks and random

    results = tuple(run_verify(p))
    passed = sum(1 for c in results if c.passed)
    payload = {"checks_total": len(results), "checks_passed": passed}
    rows = tuple((c.name, "pass" if c.passed else "fail", c.detail) for c in results)
    return ReportBundle(
        "verify",
        {"a": p.a, "b": p.b},
        payload,
        ("check", "status", "detail"),
        rows,
        results,
    )


# Serialization.

def to_json(bundle: ReportBundle) -> str:
    import json

    return json.dumps(bundle.envelope(), indent=2) + "\n"


def to_csv(bundle: ReportBundle) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(bundle.headers)
    for row in bundle.rows:
        writer.writerow(row)
    return buf.getvalue()


def to_markdown(bundle: ReportBundle) -> str:
    def fmt_params(d: dict) -> str:
        bits = []
        for k, v in d.items():
            if isinstance(v, dict):
                v = "(" + ", ".join(f"{kk}={vv}" for kk, vv in v.items()) + ")"
            bits.append(f"{k}={v}")
        return ", ".join(bits)

    lines = [f"# truncpoisson {bundle.command} ({fmt_params(bundle.params)})", ""]
    lines.append("| " + " | ".join(bundle.headers) + " |")
    lines.append("|" + "|".join([" --- "] * len(bundle.headers)) + "|")
    for row in bundle.rows:
        lines.append("| " + " | ".join(str(x) for x in row) + " |")
    lines.append("")
    if bundle.command != "verify":  # for verify the table already is the check list
        lines.append("Verification:")
        for c in bundle.verification:
            mark = "x" if c.passed else " "
            lines.append(f"- [{mark}] {c.name}: {c.detail}")
        lines.append("")
    return "\n".join(lines)


def render(bundle: ReportBundle, fmt: str) -> str:
    if fmt == "json":
        return to_json(bundle)
    if fmt == "csv":
        return to_csv(bundle)
    if fmt == "markdown":
        return to_markdown(bundle)
    raise ValueError(f"unknown format {fmt!r}")
