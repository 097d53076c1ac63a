"""The package's surface and immutable records: value semantics, validation, import cost."""

import ast
import importlib
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType

import pytest

import truncpoisson
from truncpoisson import (
    AlgebraElement,
    Biderivation,
    ChainElement,
    CheckResult,
    CohomologyReport,
    Derivation,
    DualityReport,
    EulerDims,
    HomologyReport,
    NormalizedCocycle,
    RingTable,
    TruncParams,
    TwistParams,
    cohomology,
    duality_report,
    euler_dims,
    hamiltonian,
    homology,
    normalize_one_cocycle,
    ring_table,
)
from truncpoisson.algebra import _Record
from truncpoisson.chain import DegreeComparison
from truncpoisson.linalg import Matrix, RrefResult, SubspaceBasis, rref
from truncpoisson.reporting import ReportBundle, ring_bundle

# the package under test, which need not be the checkout's src/ (the mutation gate tests a copy)
SRC = Path(truncpoisson.__file__).resolve().parents[1]
P = TruncParams(3, 4)


# A record declared as the package's are, with a checking __new__ that calls
# super().__new__ and a method that names its class through __class__.
class Interval(_Record):
    __slots__ = ()
    lo: int
    hi: int

    def __new__(cls, lo, hi):
        if lo > hi:
            raise ValueError("empty interval")
        return super().__new__(cls, lo, hi)

    def widened(self):
        return __class__(self.lo - 1, self.hi + 1)


# (factory building a fresh instance, one of its fields, whether its fields are hashable)
RECORDS = {
    "TruncParams": (lambda: TruncParams(3, 4), "a", True),
    "TwistParams": (lambda: TwistParams(Fraction(1, 2), -3), "beta", True),
    "EulerDims": (lambda: euler_dims(P), "chi1", True),
    "HomologyReport": (lambda: HomologyReport(P, TwistParams(0, 0), (2, 1, 0), (10, 6), ((), (), ())), "dims", True),
    "DegreeComparison": (lambda: duality_report(P).comparisons[1], "nakayama_match", True),
    "DualityReport": (lambda: duality_report(P), "euler_chain", True),
    "CohomologyReport": (lambda: cohomology(P, 3), "dimension", True),
    "NormalizedCocycle": (lambda: normalize_one_cocycle(hamiltonian(AlgebraElement.monomial(P, 1, 1))), "c10", False),
    "RingTable": (lambda: ring_table(P), "products", True),
    "RrefResult": (lambda: rref(Matrix.from_rows([[1, 2], [2, 4]])), "rank", False),
    "CheckResult": (lambda: CheckResult("euler", True, "euler 1"), "passed", True),
    # payload and params are dicts, so a bundle has never been hashable
    "ReportBundle": (lambda: ring_bundle(P), "records", False),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable_values(name):
    factory, field, hashable = RECORDS[name]
    x, y = factory(), factory()
    assert type(x).__name__ == name
    assert x is not y and x == y and not x != y
    if hashable:
        assert hash(x) == hash(y)
    with pytest.raises(AttributeError):
        setattr(x, field, getattr(y, field))
    with pytest.raises(AttributeError):
        x.extra = 1
    assert x == y


RECORD_FIELDS = {
    EulerDims: ("chi0", "chi1", "chi2"),
    HomologyReport: ("params", "twist", "dims", "ranks", "representatives"),
    DegreeComparison: (
        "degree", "cohomology_dim", "nakayama_homology_dim", "nakayama_match", "complement_degree",
        "trivial_homology_dim", "poincare_match",
    ),
    DualityReport: (
        "params", "comparisons", "euler_cochain", "euler_chain", "nakayama_duality_holds", "poincare_duality_fails",
    ),
    CohomologyReport: ("params", "degree", "dimension", "representatives", "coboundary_rank", "cocycle_dim"),
    NormalizedCocycle: ("c10", "c01", "potential"),
    RingTable: ("params", "basis_labels", "degrees", "products"),
    CheckResult: ("name", "passed", "detail"),
    ReportBundle: ("command", "params", "payload", "headers", "records", "verification"),
    RrefResult: ("reduced", "pivots", "rank"),
}


@pytest.mark.parametrize("name", [name for name in RECORDS if name not in ("TruncParams", "TwistParams")])
def test_records_are_tuples_with_named_fields(name):
    x = RECORDS[name][0]()
    cls = type(x)
    fields = RECORD_FIELDS[cls]
    assert isinstance(x, tuple) and x == tuple(x) and tuple(x) == x
    assert cls._fields == fields and len(x) == len(fields)
    assert tuple(getattr(x, f) for f in fields) == tuple(x)
    assert x._asdict() == dict(zip(fields, x)) and list(x._asdict()) == list(fields)
    assert cls(**x._asdict()) == x and cls(*x) == x
    last = fields[-1]
    replaced = x._replace(**{last: "new"})
    assert type(replaced) is cls and replaced[:-1] == x[:-1] and replaced[-1] == "new" and x[-1] != "new"
    with pytest.raises(ValueError):
        x._replace(no_such_field=1)
    back = pickle.loads(pickle.dumps(x))
    assert type(back) is cls and back == x
    assert repr(x) == f"{name}(" + ", ".join(f"{f}={v!r}" for f, v in zip(fields, x)) + ")"


def test_a_record_may_call_super_and_name_its_class():
    x = Interval(1, 3)
    assert Interval._fields == ("lo", "hi") and Interval.__doc__ == "Interval(lo, hi)"
    assert x == (1, 3) and (1, 3) == x and (x.lo, x.hi) == (1, 3) and Interval(hi=3, lo=1) == x
    assert type(x.widened()) is Interval and x.widened() == (0, 4)
    back = pickle.loads(pickle.dumps(x))
    assert type(back) is Interval and back == x
    with pytest.raises(AttributeError):
        x.extra = 1
    with pytest.raises(AttributeError):
        x.lo = 0
    with pytest.raises(ValueError, match="empty"):
        Interval(3, 1)


# (factory building a fresh instance, one of its fields, the coefficient maps it holds)
VALUES = {
    "TruncParams": (lambda: TruncParams(3, 4), "a", lambda v: []),
    "TwistParams": (lambda: TwistParams(Fraction(1, 2), -3), "alpha", lambda v: []),
    "AlgebraElement": (lambda: AlgebraElement(P, {(1, 1): 1, (0, 2): Fraction(-1, 2)}), "coeffs", lambda v: [v.coeffs]),
    "ChainElement": (lambda: ChainElement(P, 1, {(0, 1, "dX"): 2, (1, 0, "dY"): -1}), "degree",
                     lambda v: [v.coeffs]),
    "Derivation": (lambda: hamiltonian(AlgebraElement.monomial(P, 1, 1)), "dx", lambda v: [v.dx.coeffs, v.dy.coeffs]),
    "Biderivation": (lambda: Biderivation.basis_f(P, 1, 2), "value", lambda v: [v.value.coeffs]),
    "Matrix": (lambda: Matrix.from_rows([[1, 2], [3, Fraction(1, 4)]]), "data", lambda v: []),
    "SubspaceBasis": (lambda: SubspaceBasis.from_vectors(3, [[1, 2, 0], [2, 4, 1]]), "vectors", lambda v: []),
}


@pytest.mark.parametrize("name", VALUES)
def test_values_refuse_writes_and_pickle_by_their_fields(name):
    factory, field, maps = VALUES[name]
    x, y = factory(), factory()
    cls = type(x)
    assert cls.__name__ == name and x is not y and x == y
    refused = f"^{name} is immutable$"
    with pytest.raises(AttributeError, match=refused):
        setattr(x, field, getattr(y, field))
    with pytest.raises(AttributeError, match=refused):
        x.extra = 1
    with pytest.raises(AttributeError, match=refused):
        delattr(x, field)
    assert x == y
    fields = tuple(getattr(x, f) for f in cls.__slots__)
    assert x != fields and fields != x
    back = pickle.loads(pickle.dumps(x))
    assert type(back) is cls and back == x
    assert [dict(m) for m in maps(back)] == [dict(m) for m in maps(x)]
    for m in maps(back):
        assert type(m) is MappingProxyType
    if maps(x):
        # an element's coefficient map is a read-only view, so elements are unhashable
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(y) == hash(back)


def test_reports_holding_elements_pickle_whole():
    reports = (homology(P, TwistParams(0, 0)), cohomology(P, 1), cohomology(P, 2), ring_table(P))
    for report in reports:
        back = pickle.loads(pickle.dumps(report))
        assert type(back) is type(report) and back == report
    assert any(homology(P, TwistParams(0, 0)).representatives)


def test_record_reprs_name_their_fields():
    assert repr(TruncParams(2, 3)) == "TruncParams(a=2, b=3)"
    assert repr(TwistParams(1, Fraction(-3, 4))) == "TwistParams(alpha=1, beta=Fraction(-3, 4))"
    assert repr(CheckResult("x", False, "d")) == "CheckResult(name='x', passed=False, detail='d')"
    assert repr(cohomology(P, 3)).startswith("CohomologyReport(params=TruncParams(a=3, b=4), degree=3,")


def test_parameter_types_are_strict_values():
    p = TruncParams(2, 3)
    assert p != (2, 3) and (2, 3) != p
    assert p != TwistParams(2, 3)
    assert TwistParams(2, 3) != (Fraction(2), Fraction(3))
    assert p == TruncParams(a=2, b=3) and p != TruncParams(3, 2)
    assert {p: 1}[TruncParams(2, 3)] == 1
    with pytest.raises(AttributeError):
        del p.a
    with pytest.raises(AttributeError):
        del TwistParams(0, 0).alpha
    for value in (p, TwistParams(Fraction(1, 2), -3)):
        assert pickle.loads(pickle.dumps(value)) == value


def test_record_validation_still_raises():
    with pytest.raises(ValueError, match="a,b ≥ 2"):
        TruncParams(1, 4)
    with pytest.raises(ValueError, match="a,b ≥ 2"):
        TruncParams(3, 0)
    t = TwistParams(1, "-3/4")
    assert (type(t.alpha), type(t.beta)) == (int, Fraction)
    assert (t.alpha, t.beta) == (1, Fraction(-3, 4))
    with pytest.raises(ValueError):
        TwistParams("one", 0)
    with pytest.raises(RuntimeError, match="Euler identity"):
        HomologyReport(P, TwistParams(0, 0), (2, 1, 1), (0, 0), ((), (), ()))
    assert homology(P, TwistParams(0, 0)).dims == (6, 5, 0)
    with pytest.raises(TypeError, match=r"^EulerDims\(\) missing argument 'chi2'$"):
        EulerDims(1, chi1=2)
    with pytest.raises(TypeError, match=r"^EulerDims\(\) got unexpected arguments \['chi3', 'chi4'\]$"):
        EulerDims(1, 2, chi4=0, chi2=1, chi3=0)
    for args in [(1, 2), (1, 2, 1, 0)]:
        with pytest.raises(TypeError, match=rf"^EulerDims\(\) takes 3 arguments \({len(args)} given\)$"):
            EulerDims(*args)
    assert EulerDims(1, chi2=1, chi1=2) == EulerDims(1, 2, 1) == (1, 2, 1)


def test_cli_import_leaves_out_dataclasses():
    # -S keeps site-specific start-up imports out of the measurement
    code = "import sys, truncpoisson.cli; print('dataclasses' in sys.modules, 'typing' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, check=True
    ).stdout
    assert out == "False False\n"


PUBLIC_NAMES = {
    "algebra": "AlgebraElement EulerDims TruncParams bracket euler_dims multiply render_element",
    "chain": "ChainElement DualityReport HomologyReport TwistParams duality_report homology omega_dims",
    "checks": "CheckResult run_verify",
    "cochain": "Biderivation CohomologyReport Derivation NormalizedCocycle RingTable cohomology cup "
    "fibre_product_table hamiltonian is_poisson_derivation normalize_one_cocycle ring_table",
}


def test_package_names_resolve_to_their_modules_objects():
    expected = {name: module for module, names in PUBLIC_NAMES.items() for name in names.split()}
    assert truncpoisson.__all__ == sorted(expected)
    assert truncpoisson.__version__ == "0.1.0"
    for name, module in expected.items():
        assert getattr(truncpoisson, name) is getattr(importlib.import_module(f"truncpoisson.{module}"), name)
    namespace = {}
    exec("from truncpoisson import *", namespace)
    assert all(namespace[name] is getattr(truncpoisson, name) for name in expected)
    with pytest.raises(AttributeError, match="no_such_name"):
        truncpoisson.no_such_name
    assert not hasattr(truncpoisson, "_frac")


def test_dense_reference_is_importable_but_not_exported():
    assert importlib.import_module("truncpoisson.linalg").Matrix is Matrix
    with pytest.raises(ImportError, match="Matrix"):
        exec("from truncpoisson import Matrix", {})


def test_no_package_module_imports_linalg():
    # ast.walk reaches function bodies and TYPE_CHECKING blocks too
    for path in sorted((SRC / "truncpoisson").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""] + [f"{node.module or ''}.{alias.name}" for alias in node.names]
            else:
                continue
            assert not any("linalg" in module.split(".") for module in modules), (path.name, node.lineno)


def test_package_runs_from_src_alone(tmp_path):
    # src is the whole path (-S drops the site directories) and the cwd is empty, so no test module is reachable
    code = (
        "import truncpoisson, truncpoisson.cli as cli; "
        "[getattr(truncpoisson, name) for name in truncpoisson.__all__]; "
        "raise SystemExit(cli.main(['cohomology', '-a', '3', '-b', '3']))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, cwd=tmp_path
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert json.loads(proc.stdout)["payload"]["dims"] == [2, 2, 1]
