"""Report assembly and serialization for the command-line surface.

Every command produces a ReportBundle: a JSON-ready envelope (the stable
machine contract), the records of its table and a list of named pass/fail
checks.  The CSV/markdown table of every command is read off its records
when it is rendered (ReportBundle.rows), so each fact is stated once and a
JSON render builds no table.  A sweep row is read off its instance's
report, verdict included.  Serialization is deterministic: fixed key
order, fixed row order, rationals rendered as "p/q" strings, never floats,
no timestamps.
The JSON and CSV writers produce json.dumps(envelope, indent=2) and
csv.writer(lineterminator="\n") bytes themselves, and import json or csv
only for a value they do not cover; verify_bundle imports the checks when
called.  So a command loads only the modules it runs.
"""

from __future__ import annotations

from .algebra import AlgebraElement, TruncParams, _Record, render_element
from .chain import DegreeComparison, TwistParams, duality_report, homology
from .cochain import _class_representatives, cohomology, cup, ring_table

SCHEMA_VERSION = "1.0"

THEORY_COHOMOLOGY_DIMS = (2, 2, 1)


class CheckResult(_Record):
    __slots__ = ()
    name: str
    passed: bool
    detail: str


class ReportBundle(_Record):
    __slots__ = ()
    command: str
    params: dict
    payload: dict
    headers: tuple[str, ...]
    records: list[dict]
    verification: tuple[CheckResult, ...]

    @property
    def rows(self) -> tuple[tuple, ...]:
        """The table: each record's values in header order, a list joined by "; "."""
        return tuple(
            tuple("; ".join(v) if isinstance(v, list) else v for v in map(record.__getitem__, self.headers))
            for record in self.records
        )

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
    return cochain.label()


def twist_dict(twist: str | TwistParams, t: TwistParams | None = None) -> dict:
    """The report's twist: its kind (the name, or "explicit"), with alpha and beta of t or the explicit twist."""
    if isinstance(twist, TwistParams):
        twist, t = "explicit", twist
    out = {"kind": twist}
    if t is not None:
        out["alpha"] = str(t.alpha)
        out["beta"] = str(t.beta)
    return out


def resolve_twist(twist: str | TwistParams, p: TruncParams) -> TwistParams:
    """The twist "trivial", "nakayama" (the Nakayama twist (1-b, a-1) at p) or a TwistParams, as a TwistParams."""
    if isinstance(twist, TwistParams):
        return twist
    if twist == "trivial":
        return TwistParams.trivial()
    if twist == "nakayama":
        return TwistParams.nakayama(p)
    raise ValueError(f"twist must be 'trivial', 'nakayama' or a TwistParams; got {twist!r}")


def cohomology_bundle(p: TruncParams, include_reps: bool = True) -> ReportBundle:
    reports = [cohomology(p, k, include_reps) for k in range(4)]
    dims = tuple(r.dimension for r in reports[:3])
    degrees = [
        {
            "degree": r.degree,
            "dimension": r.dimension,
            "cocycle_dim": r.cocycle_dim,
            "coboundary_rank": r.coboundary_rank,
            "representatives": [label_for(x) for x in r.representatives],
        }
        for r in reports
    ]
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
    headers = ("degree", "dimension", "cocycle_dim", "coboundary_rank", "representatives")
    return ReportBundle("cohomology", {"a": p.a, "b": p.b}, payload, headers, degrees, checks)


def homology_bundle(
    p: TruncParams, twist: str | TwistParams = "trivial", include_reps: bool = True
) -> ReportBundle:
    t = resolve_twist(twist, p)
    rep = homology(p, t, include_reps)
    h0, h1, h2 = rep.dims
    euler = h0 - h1 + h2
    degrees = [
        {
            "degree": k,
            "dimension": rep.dims[k],
            "representatives": [x.render() for x in rep.representatives[k]] if include_reps else [],
        }
        for k in range(3)
    ]
    twist_info = twist_dict(twist, t)
    payload = {
        "twist": twist_info,
        "dims": list(rep.dims),
        "ranks": {"boundary1": rep.ranks[0], "boundary2": rep.ranks[1]},
        "euler_characteristic": euler,
        "degrees": degrees,
    }
    checks = [CheckResult("euler_characteristic", euler == 1, f"euler {euler}")]
    if twist == "trivial":
        checks.append(
            CheckResult("trace_dimension", h0 == p.a + p.b - 1, f"h0 = {h0} vs a+b-1 = {p.a + p.b - 1}")
        )
    elif twist == "nakayama":
        codims = tuple(cohomology(p, k, include_reps=False).dimension for k in range(3))
        checks.append(
            CheckResult("twisted_duality_dims", rep.dims == codims, f"{rep.dims} vs {codims}")
        )
    params = {"a": p.a, "b": p.b, "twist": twist_info}
    headers = ("degree", "dimension", "representatives")
    return ReportBundle("homology", params, payload, headers, degrees, tuple(checks))


def ring_bundle(p: TruncParams) -> ReportBundle:
    table = ring_table(p)
    labels = table.basis_labels
    reps = _class_representatives(p)
    products = [[[str(c) for c in entry] for entry in row] for row in table.products]
    matches = table.matches_reference()
    payload = {
        "basis": list(labels),
        "degrees": list(table.degrees),
        "class_representatives": {label: label_for(x) for label, x in zip(labels, reps)},
        "products": products,
        "matches_reference": matches,
    }
    _, _, v, w, m = reps
    checks = (
        CheckResult("matches_reference_ring", matches, "5x5 table"),
        CheckResult("d10_cup_d01_is_f11", cup(v, w) == m, "cochain-level product"),
    )
    headers = ("left", "right", "c_1", "c_t", "c_v", "c_w", "c_m")
    records = [
        dict(zip(headers, (left, right, *products[i][j])))
        for i, left in enumerate(labels)
        for j, right in enumerate(labels)
    ]
    return ReportBundle("ring", {"a": p.a, "b": p.b}, payload, headers, records, checks)


def duality_bundle(p: TruncParams) -> ReportBundle:
    rep = duality_report(p)
    comparisons = [c._asdict() for c in rep.comparisons]
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
    headers = tuple(f for f in DegreeComparison._fields if f != "complement_degree")
    return ReportBundle("duality", {"a": p.a, "b": p.b}, payload, headers, comparisons, checks)


_SWEEP_HEADERS = ("a", "b", "h0", "h1", "h2", "euler", "theorem_checks")


def _sweep_row(kind: str, a: int, b: int, twist: str | TwistParams) -> dict:
    """The instance's row: its report's dims and Euler characteristic, and "pass" when its report passes."""
    p = TruncParams(a, b)
    bundle = cohomology_bundle(p, False) if kind == "cohomology" else homology_bundle(p, twist, False)
    payload, verdict = bundle.payload, "pass" if bundle.exit_code == 0 else "fail"
    return dict(zip(_SWEEP_HEADERS, (a, b, *payload["dims"], payload["euler_characteristic"], verdict)))


def sweep_bundle(
    kind: str,
    a_range: tuple[int, int],
    b_range: tuple[int, int],
    twist: str | TwistParams = "trivial",
) -> ReportBundle:
    records = [
        _sweep_row(kind, a, b, twist)
        for a in range(a_range[0], a_range[1] + 1)
        for b in range(b_range[0], b_range[1] + 1)
    ]
    params = {
        "kind": kind,
        "a_range": list(a_range),
        "b_range": list(b_range),
    }
    if kind == "homology":
        params["twist"] = twist_dict(twist)
    n_fail = sum(1 for r in records if r["theorem_checks"] != "pass")
    checks = (
        CheckResult("all_rows_pass", n_fail == 0, f"{len(records)} rows, {n_fail} failing"),
    )
    payload = {"rows": records}
    return ReportBundle("sweep", params, payload, _SWEEP_HEADERS, records, checks)


def verify_bundle(p: TruncParams) -> ReportBundle:
    from .checks import run_verify  # only verify loads the checks and random

    results = tuple(run_verify(p))
    passed = sum(1 for c in results if c.passed)
    payload = {"checks_total": len(results), "checks_passed": passed}
    records = [{"check": c.name, "status": "pass" if c.passed else "fail", "detail": c.detail} for c in results]
    return ReportBundle("verify", {"a": p.a, "b": p.b}, payload, ("check", "status", "detail"), records, results)


# Serialization.

def _json_value(x, nl: str, strings: list) -> str:
    """x as json.dumps(x, indent=2) writes it at the line break nl, its strings unescaped.

    Every string written, keys included, is appended to strings: the text is
    json's only when all of them are printable ASCII without '"' or '\\'.  A
    leaf that is not a str, int, bool or None raises TypeError.
    """
    if isinstance(x, str):
        strings.append(x)
        return '"' + x + '"'
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    inner = nl + "  "
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        try:  # a list of strings, such as the representatives, in one join
            body = ('",' + inner + '"').join(x)
        except TypeError:
            return "[" + ",".join([inner + _json_value(v, inner, strings) for v in x]) + nl + "]"
        strings += x
        return "[" + inner + '"' + body + '"' + nl + "]"
    if isinstance(x, dict):
        if not x:
            return "{}"
        strings += x
        items = [inner + '"' + k + '": ' + _json_value(v, inner, strings) for k, v in x.items()]
        return "{" + ",".join(items) + nl + "}"
    raise TypeError(type(x).__name__)


def to_json(bundle: ReportBundle) -> str:
    """The envelope as json.dumps(envelope, indent=2) writes it, with json imported only when needed.

    The writer covers str, int, bool and None leaves, str keys and the
    strings json writes unescaped; anything else goes to json.dumps itself,
    so its bytes and its errors stay json's.
    """
    envelope = bundle.envelope()
    strings: list = []
    try:
        text = _json_value(envelope, "\n", strings)
    except TypeError:  # a value json writes its own way, or refuses
        pass
    else:
        plain = "".join(strings)
        if plain.isascii() and plain.isprintable() and '"' not in plain and "\\" not in plain:
            return text + "\n"
    import json

    return json.dumps(envelope, indent=2) + "\n"


def _csv_field(x) -> str:
    s = "" if x is None else str(x)
    if '"' in s:
        return '"' + s.replace('"', '""') + '"'
    if "," in s or "\n" in s:
        return '"' + s + '"'
    return s


def to_csv(bundle: ReportBundle) -> str:
    """The table as csv.writer(lineterminator="\\n") writes it, with csv imported only when needed.

    A field is quoted when it holds a comma, a quote or a line feed, and a
    row of one empty field is written '""'.  csv's handling of CR and NUL
    differs between Python versions, so a table with either goes to csv.
    """
    table = (bundle.headers, *bundle.rows)
    lines = [",".join(map(_csv_field, row)) or ('""' if row else "") for row in table]
    text = "\n".join(lines) + "\n"
    if "\r" not in text and "\0" not in text:
        return text
    import csv
    import io

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(table)
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
