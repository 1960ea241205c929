"""Every item of a check is tested and graded by ``CheckResult``.

The checks build their defects and hand them to the runner: ``test`` runs
the zero test, ``positive`` the point certificate of a Gram matrix,
``corollary`` and ``agreement`` grade an item from items already recorded.
These guards read the source: no module of the checks imports or names the
zero test, or imports the certificates.  The agreement grading is tested on
hand-made routes, and one derivative array serves each metric of a run.
"""

import ast
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from ggwb.calculus import ChartManifold, MetricField
from ggwb.poly import Gaussian
from ggwb.symexpr import ZeroPolicy, is_zero
from ggwb.verdict import CheckResult, Verdict, VerdictKind, Witness
from ggwb.workbench import load_builtin, run_checks

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ggwb"
ZERO_TESTS = {"is_zero", "is_zero_all"}
CERTIFICATES = {"numeric", "positivity_witness"}


def _check_modules() -> list:
    return [PACKAGE / "hypersurface.py", *sorted((PACKAGE / "structures").glob("*.py")),
            *sorted((PACKAGE / "workbench").glob("*.py"))]


def test_no_check_module_imports_or_names_the_zero_test():
    found = []
    for path in _check_modules():
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ([a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                     else [node.id] if isinstance(node, ast.Name)
                     else [node.attr] if isinstance(node, ast.Attribute) else [])
            found += [(path.name, n) for n in names if n in ZERO_TESTS]
    assert found == []


def test_no_check_module_imports_the_certificates():
    found = []
    for path in _check_modules():
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                names = [*(node.module or "").split("."), *(a.name for a in node.names)]
            elif isinstance(node, ast.Import):
                names = [part for a in node.names for part in a.name.split(".")]
            else:
                continue
            found += [(path.name, n) for n in names if n in CERTIFICATES]
    assert found == []


# -- agreement grading ---------------------------------------------------------


def _failed(value) -> Verdict:
    return Verdict.failed(witness=Witness((("x", Fraction(1, 2)),), value))


def _grade(a: Verdict, b: Verdict) -> Verdict:
    out = CheckResult("routes")
    out.agreement("a <=> b", ("(a)", a), ("(b)", b))
    return out.subverdict("a <=> b")


@pytest.mark.parametrize("a,b,kind", [
    (Verdict.proved(), Verdict.proved(), VerdictKind.PROVED),
    (Verdict.proved(), Verdict.numeric(), VerdictKind.NUMERIC),
    (Verdict.numeric(), Verdict.proved(), VerdictKind.NUMERIC),
    (Verdict.numeric(), Verdict.numeric(), VerdictKind.NUMERIC),
    (_failed(Fraction(-1)), _failed(Fraction(3, 7)), VerdictKind.PROVED),
    (_failed(Fraction(-1)), _failed(1.5e-3), VerdictKind.NUMERIC),
    (_failed(2.5e-3), _failed(1.5e-3), VerdictKind.NUMERIC),
    (_failed(Fraction(-1)), Verdict.failed(detail="no witness"), VerdictKind.NUMERIC),
    (_failed(Gaussian(1, -2)), _failed(Gaussian(Fraction(1, 3), 5)), VerdictKind.PROVED),
    (_failed(Fraction(-1)), _failed(Gaussian(0, 1)), VerdictKind.PROVED),
    (_failed(Gaussian(1, -2)), _failed(1 - 2j), VerdictKind.NUMERIC),
], ids=["proved", "numeric-b", "numeric-a", "numeric-both", "failed-exact",
        "failed-one-float", "failed-floats", "failed-no-witness", "failed-gaussians",
        "failed-rational-and-gaussian", "failed-gaussian-and-complex"])
def test_routes_that_agree_give_no_more_than_their_evidence(a, b, kind):
    v = _grade(a, b)
    assert v.kind is kind
    assert v.witness is None and v.detail == ""


@pytest.mark.parametrize("a_fails", [True, False])
def test_routes_that_disagree_fail_with_both_verdicts_and_the_witness(a_fails):
    bad = _failed(Fraction(-1))
    a, b = (bad, Verdict.numeric()) if a_fails else (Verdict.numeric(), bad)
    v = _grade(a, b)
    assert v.kind is VerdictKind.FAILED
    assert v.witness == bad.witness
    assert v.detail == (f"(a) says {a.kind.value}, (b) says {b.kind.value}")


def test_an_exact_q_i_witness_keeps_its_value_and_prints_as_a_complex():
    """The zero test keeps an exact Q(i) residual as a Gaussian, so the
    agreement grading can read it as exact; reports print it as before."""
    chart = ChartManifold("R2", ["x", "y"])
    v = is_zero(chart.scalar("x") + chart.i * chart.scalar("y"), ZeroPolicy())
    point = dict(v.witness.point)
    assert v.witness.value == Gaussian(point["x"], point["y"])
    text = f"{float(point['x']):.12e}{float(point['y']):+.12e}j"
    assert v.witness.as_dict()["value"] == text and f"residual {text}" in str(v.witness)
    assert Witness((), Gaussian(Fraction(1, 3), Fraction(-2, 7))).as_dict()["value"] == (
        "3.333333333333e-01-2.857142857143e-01j")


def test_agreement_returns_the_verdict_it_records():
    out = CheckResult("routes")
    v = out.agreement("a <=> b", ("(a)", Verdict.proved()), ("(b)", Verdict.numeric()))
    assert out.items == [("a <=> b", v)]


def test_require_names_the_failed_items():
    from ggwb.errors import StructureError

    out = CheckResult("demo")
    out.add("holds", Verdict.proved())
    out.add("breaks", _failed(Fraction(2)))
    with pytest.raises(StructureError) as err:
        out.require("demo data is not a structure")
    assert [label for label, _ in err.value.failures] == ["breaks"]
    assert CheckResult("fine").require("never raised").items == []


# -- one derivative array per metric ------------------------------------------------


@pytest.mark.parametrize("name", ["S1", "S2", "S5"])
def test_each_metric_is_differentiated_once(monkeypatch, name):
    """A spy on ``calculus._partials``, in every module that binds it,
    counts the calls per metric: the connection, the (CrVpm) closed forms
    and the zeta/rho column formulas read one array."""
    from ggwb import calculus

    partials, calls = calculus._partials, Counter()

    def counted(t):
        if isinstance(t, MetricField):
            calls[id(t)] += 1
        return partials(t)

    for modname, module in list(sys.modules.items()):
        if modname.startswith("ggwb"):
            for attr, val in list(vars(module).items()):
                if val is partials:
                    monkeypatch.setattr(module, attr, counted)
    run_checks(load_builtin(name, 0))
    assert calls and set(calls.values()) == {1}
