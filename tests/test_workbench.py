import json
import os
import sys
import time
from pathlib import Path

import pytest

from ggwb import calculus, symexpr
from ggwb.errors import PolicyError, ScenarioError
from ggwb.poly import exponents
from ggwb.verdict import VerdictKind
from ggwb.workbench import (
    Report,
    builtin_names,
    emit_report,
    load_builtin,
    load_scenario,
    run_checks,
)
from ggwb.workbench import scenario as scenario_mod
from ggwb.workbench.checks import CHECKS, resolve_alias
from ggwb.workbench.cli import main


def _tiny_scenario(**overrides):
    doc = {
        "name": "tiny",
        "chart": {"name": "R3", "coords": ["x", "y", "z"]},
        "fields": {
            "F": {"kind": "endo", "matrix": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]]},
            "Z": {"kind": "vector", "components": ["0", "0", "1"]},
            "xi": {"kind": "oneform", "components": ["0", "0", "1"]},
            "g": {"kind": "metric", "matrix": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
        },
        "structures": [
            {"name": "ac", "type": "almost_contact", "F": "F", "Z": "Z", "xi": "xi", "metric": "g"}
        ],
        "checks": ["almost_contact", "normal"],
        "policy": {"samples": 8, "seed": 0},
    }
    doc.update(overrides)
    return doc


# -- loading and validation ---------------------------------------------------


def test_builtin_names_and_aliases():
    assert "S1-flat-cosymplectic" in builtin_names()
    assert load_builtin("S6a").name == "S4-sphere-in-C2"
    with pytest.raises(ScenarioError):
        load_builtin("S99")


def test_load_scenario_dict():
    sc = load_scenario(_tiny_scenario())
    assert sc.name == "tiny"
    assert [r.check for r in sc.checks] == ["almost_contact", "normal"]


def test_syntax_error_carries_line_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n "name": "x",\n "chart": }\n')
    with pytest.raises(ScenarioError) as err:
        load_scenario(bad)
    assert "line 3" in str(err.value)


def test_dimension_mismatch_carries_field_path():
    doc = _tiny_scenario()
    doc["fields"]["xi"]["components"] = ["0", "1"]
    with pytest.raises(ScenarioError) as err:
        load_scenario(doc)
    assert "$.fields.xi.components" in str(err.value)
    assert "needs 3 components" in str(err.value)


def test_unknown_symbol_in_expression():
    doc = _tiny_scenario()
    doc["fields"]["Z"]["components"] = ["0", "0", "w"]
    with pytest.raises(ScenarioError) as err:
        load_scenario(doc)
    assert "unknown symbol 'w'" in str(err.value)


def test_unknown_references():
    doc = _tiny_scenario()
    doc["structures"][0]["metric"] = "nope"
    with pytest.raises(ScenarioError) as err:
        load_scenario(doc)
    assert "$.structures[0].metric" in str(err.value)
    doc = _tiny_scenario(checks=["no_such_check"])
    with pytest.raises(ScenarioError):
        load_scenario(doc)


def test_check_aliases_resolve():
    assert resolve_alias("normaltotal") == "normal21"
    assert resolve_alias("indbin1") == "binormal"
    assert resolve_alias("eqptans3") == "hyp_CRFK"
    assert resolve_alias("nonsense") is None
    sc = load_scenario(_tiny_scenario(checks=["almcont"]))
    assert sc.checks[0].check == "almost_contact"


# -- running ---------------------------------------------------------------------


def test_run_checks_tiny():
    report = run_checks(load_scenario(_tiny_scenario()))
    assert report.overall == "pass"
    assert report.exit_code() == 0
    assert all(r.result.verdict.is_proved for r in report.runs)


def test_invalid_structure_data_fails_its_check():
    doc = _tiny_scenario()
    doc["fields"]["xi"]["components"] = ["0", "0", "2"]  # xi(Z) = 2
    doc["structures"].append({"name": "t21", "type": "two_one", "classical": "ac"})
    doc["checks"] = [{"check": "two_one", "structure": "t21"}]
    report = run_checks(load_scenario(doc))
    assert report.overall == "fail"
    assert report.exit_code() == 1


def test_structure_build_error_surfaces_as_failed():
    doc = _tiny_scenario()
    # F is not gamma-skew, so the quadruple constructor rejects it
    doc["fields"]["F"]["matrix"] = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    doc["structures"] = [
        {"name": "quad", "type": "quadruple", "gamma": "g", "F_plus": "F", "F_minus": "F"}
    ]
    doc["checks"] = ["gen_F"]
    report = run_checks(load_scenario(doc))
    assert report.overall == "fail"
    labels = [lbl for lbl, _ in report.runs[0].result.items]
    assert any("Fmetric" in lbl for lbl in labels)


def test_skipped_with_reason():
    doc = _tiny_scenario()
    # sasakian needs a metric two_one; give a bare (metric-free) lift
    del doc["structures"][0]["metric"]
    doc["structures"].append({"name": "t21", "type": "two_one", "classical": "ac"})
    doc["checks"] = [{"check": "sasakian", "structure": "t21"}]
    report = run_checks(load_scenario(doc))
    assert report.runs[0].result.skipped is not None
    assert report.exit_code() == 0  # skips do not fail the run


def test_ambiguous_binding_rejected():
    doc = _tiny_scenario()
    doc["structures"].append(
        {"name": "ac2", "type": "almost_contact", "F": "F", "Z": "Z", "xi": "xi"}
    )
    with pytest.raises(ScenarioError) as err:
        run_checks(load_scenario(doc))
    assert "ambiguous" in str(err.value)


# -- reports -----------------------------------------------------------------------


def test_report_json_roundtrip_and_determinism():
    sc1 = load_scenario(_tiny_scenario())
    sc2 = load_scenario(_tiny_scenario())
    j1 = emit_report(run_checks(sc1), "json")
    j2 = emit_report(run_checks(sc2), "json")
    assert j1 == j2
    doc = json.loads(j1)
    assert doc["schema"] == 2
    assert doc["overall"] == "pass"
    assert doc["checks"][0]["check"] == "almost_contact"


def test_report_text_format():
    report = run_checks(load_scenario(_tiny_scenario()))
    text = emit_report(report, "text")
    assert "[almost_contact @ ac] Proved" in text
    assert "overall: pass" in text


def test_report_witness_serialization(s3, pol):
    doc = _tiny_scenario()
    doc["fields"]["F"]["matrix"] = [["0", "-exp(-z)", "0"], ["exp(z)", "0", "0"], ["0", "0", "0"]]
    doc["fields"]["g"]["matrix"] = [["exp(z)", "0", "0"], ["0", "exp(-z)", "0"], ["0", "0", "1"]]
    report = run_checks(load_scenario(doc))
    assert report.overall == "fail"
    payload = json.loads(emit_report(report, "json"))
    witnesses = [
        item["witness"]
        for check in payload["checks"]
        for item in check.get("items", [])
        if "witness" in item
    ]
    assert witnesses
    # witness points are rational strings
    assert all("/" in v or v.lstrip("-").isdigit() for v in witnesses[0]["point"].values())


# -- CLI ---------------------------------------------------------------------------


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in builtin_names():
        assert name in out


def test_cli_check_pass_and_fail(capsys):
    code = main(["check", "S1", "--check", "normal", "--samples", "8"])
    assert code == 0
    code = main(["check", "S3", "--check", "normal", "--samples", "8"])
    assert code == 1
    out = capsys.readouterr().out
    assert "Failed" in out


def test_cli_config_errors(capsys):
    assert main(["check", "does-not-exist"]) == 2
    assert main(["check", "S1", "--check", "bogus"]) == 2
    err = capsys.readouterr().err
    assert "ggwb: error" in err


@pytest.mark.parametrize("policy,where", [
    ({"samples": 8, "max_passes": 2}, "$.policy.max_passes"),
    (5, "$.policy"),
    ({"samples": 0}, "$.policy.samples"),
    ({"samples": -3}, "$.policy.samples"),
    ({"max_resample": -1}, "$.policy.max_resample"),
    ({"tol": -1}, "$.policy.tol"),
    ({"tol": "nan"}, "$.policy.tol"),
    ({"tol": "inf"}, "$.policy.tol"),
    ({"samples": 8.9, "seed": 2.7, "max_resample": True}, "$.policy.samples"),
    ({"seed": 2.7}, "$.policy.seed"),
    ({"max_resample": True}, "$.policy.max_resample"),
    ({"samples": "8", "tol": "1e-3"}, "$.policy.samples"),
    ({"tol": "1e-3"}, "$.policy.tol"),
    ({"tol": True}, "$.policy.tol"),
    ({"tol": 10 ** 400}, "$.policy.tol"),
    ([], "$.policy"),
    (0, "$.policy"),
])
def test_cli_rejects_bad_policy(tmp_path, capsys, policy, where):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(_tiny_scenario(policy=policy)))
    assert main(["check", str(path)]) == 2
    assert f"{where}:" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--samples", "0"), ("--tol", "nan"), ("--tol", "-1")])
def test_cli_rejects_a_bad_policy_flag(capsys, flag, value):
    """A sample count below 1 would pass every nonzero residual (S3's Failed
    items would read NumericallySupported), and a negative or NaN tolerance
    would fail every numeric zero: the flag is a configuration error."""
    assert main(["check", "S3", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flag[2:]} must be" in captured.err and value in captured.err


def test_zero_policy_checks_its_ranges():
    for bad in ({"samples": 0}, {"max_resample": -1}, {"tol": float("nan")}, {"tol": -1e-9},
                {"samples": 2.5}, {"seed": True}, {"max_resample": "1"}, {"tol": "1e-3"},
                {"tol": False}, {"tol": 10 ** 400}):
        with pytest.raises(PolicyError) as info:
            symexpr.ZeroPolicy(**bad)
        assert info.value.key == next(iter(bad))
    assert symexpr.ZeroPolicy(samples=1, max_resample=0, tol=0.0).samples == 1
    assert repr(symexpr.ZeroPolicy(tol=1).tol) == "1.0"  # the report prints repr(tol)


def test_cli_check_at_structure(capsys):
    code = main(["check", "S1", "--check", "gen_metric@G", "--samples", "8"])
    assert code == 0


def test_cli_scenario_file(tmp_path, capsys):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(_tiny_scenario()))
    assert main(["check", str(path), "--samples", "8"]) == 0


def test_cli_env_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GGWB_SEED", "123")
    path = tmp_path / "tiny.json"
    doc = _tiny_scenario()
    del doc["policy"]["seed"]
    path.write_text(json.dumps(doc))
    assert main(["check", str(path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["policy"]["seed"] == 123
    monkeypatch.setenv("GGWB_SEED", "not-an-int")
    assert main(["check", str(path)]) == 2


def test_cli_json_byte_identical(capsys):
    assert main(["check", "S2", "--seed", "7", "--format", "json", "--samples", "8",
                 "--check", "normal", "--check", "normal21"]) == 0
    first = capsys.readouterr().out
    assert main(["check", "S2", "--seed", "7", "--format", "json", "--samples", "8",
                 "--check", "normal", "--check", "normal21"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_failed_item_keeps_its_detail_in_reports():
    from ggwb.symexpr import ZeroPolicy
    from ggwb.verdict import CheckResult, Verdict
    from ggwb.workbench.checks import CheckRun

    res = CheckResult("demo")
    res.add("rank", Verdict.failed(detail="corank = 1"))
    res.add("identity", Verdict.proved())
    report = Report("demo", ZeroPolicy(), [CheckRun("demo", "s", res, 0.0)])
    items = report.as_dict()["checks"][0]["items"]
    assert items[0]["detail"] == "corank = 1"
    assert "detail" not in items[1]
    assert "rank: Failed  (corank = 1)" in report.to_text()


def test_binormal_reuses_the_scenario_normal21_result(monkeypatch):
    from ggwb.structures import twoone

    calls = []
    original = twoone.check_normal_21

    def counted(s, policy):
        calls.append(s.name)
        return original(s, policy)

    # every ggwb module that binds the function calls the counted one
    for modname, mod in list(sys.modules.items()):
        if modname.startswith("ggwb"):
            for attr, val in list(vars(mod).items()):
                if val is original:
                    monkeypatch.setattr(mod, attr, counted)
    sc = load_builtin("S1", 0)
    wanted = [r.check for r in sc.checks]
    assert wanted.index("normal21") < wanted.index("binormal")
    report = run_checks(sc)
    # normal21 of the structure runs once; binormal adds only the companion
    assert len(calls) == 2
    by_name = {r.check: r.result for r in report.runs}
    assert by_name["binormal"].ok and by_name["normal21"].ok


# -- size bounds of scenario expressions ---------------------------------------


def _s1_with_xi(component) -> dict:
    doc = json.loads(
        (Path(__file__).parents[1] / "src/ggwb/workbench/builtin/s1.json").read_text())
    doc["fields"]["xi"]["components"] = ["0", "0", component]
    doc["checks"] = ["almost_contact"]
    return doc


def test_cli_rejects_an_oversized_power_fast(tmp_path, capsys):
    """S1 with xi = (0, 0, (x+y+z+1)^60) loaded (39,711 terms) and then ran
    almost_contact past a minute; the degree bound stops it at load."""
    path = tmp_path / "big.json"
    path.write_text(json.dumps(_s1_with_xi("(x+y+z+1)^60")))
    t0 = time.perf_counter()
    assert main(["check", str(path)]) == 2
    assert time.perf_counter() - t0 < 2
    err = capsys.readouterr().err
    assert "$.fields.xi.components[2]:" in err
    assert f"exceeds the bound {scenario_mod.MAX_DEGREE}" in err


@pytest.mark.parametrize("text,digits", [
    ("1" * 5000, 5000),  # sympy's Rational raised TypeError on the literal
    ("2^(10^5)", 100000),  # 30,103 digits loaded, then the report could not print them
])
def test_cli_rejects_a_hostile_number_fast(tmp_path, capsys, text, digits):
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(_s1_with_xi(text)))
    t0 = time.perf_counter()
    assert main(["check", str(path)]) == 2
    assert time.perf_counter() - t0 < 2
    err = capsys.readouterr().err
    assert "$.fields.xi.components[2]:" in err
    assert f"up to {digits} digits exceeds the bound {symexpr.MAX_DIGITS}" in err


def test_cli_rejects_an_exponent_past_the_packed_width_with_its_path(tmp_path, capsys):
    """exp(40000) is the 40000th power of the generator of exp(1): past the
    packed exponent width, it raised ExprError, and the CLI exited 2 without
    the JSON path."""
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(_s1_with_xi("exp(40000)")))
    t0 = time.perf_counter()
    assert main(["check", str(path)]) == 2
    assert time.perf_counter() - t0 < 2
    err = capsys.readouterr().err
    assert "$.fields.xi.components[2]: an exponent exceeds" in err


@pytest.mark.parametrize("m", [9, 12])
@pytest.mark.parametrize("where", ["chart", "domain"])
def test_cli_rejects_a_chart_past_the_dimension_bound_fast(tmp_path, capsys, m, where):
    """A flat metric on 9 coordinates exited 2 after 2.1 s with a contraction
    arity error, and on 12 still ran at 100 s: the determinant built m!
    permutations.  The bound keeps M x R within calculus.MAX_DET."""
    coords = [f"x{k}" for k in range(1, m + 1)]
    if where == "chart":
        identity = [["1" if i == j else "0" for j in range(m)] for i in range(m)]
        doc = _tiny_scenario(chart={"name": f"R{m}", "coords": coords},
                             fields={"g": {"kind": "metric", "matrix": identity}},
                             structures=[], checks=[])
        path_in_doc = "$.charts[0].coords"
    else:
        doc = json.loads(
            (Path(__file__).parents[1] / "src/ggwb/workbench/builtin/s4.json").read_text())
        doc["structures"][0]["domain"]["coords"] = coords
        path_in_doc = "$.structures[0].domain.coords"
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    t0 = time.perf_counter()
    assert main(["check", str(path)]) == 2
    assert time.perf_counter() - t0 < 1
    err = capsys.readouterr().err
    assert f"{path_in_doc}: {m} coordinates exceed the bound {scenario_mod.MAX_DIM}" in err
    assert scenario_mod.MAX_DIM + 1 <= calculus.MAX_DET


@pytest.mark.parametrize("name", ["x-1", "sin", "exp", "I", "1x", "x y"])
@pytest.mark.parametrize("where", ["chart", "domain"])
def test_cli_rejects_a_coordinate_name_outside_the_grammar(tmp_path, capsys, name, where):
    """A coordinate named 'x-1' loaded, and the text 'x-1' then meant x
    minus 1; a function name or I cannot name a coordinate either."""
    if where == "chart":
        doc = _tiny_scenario(chart={"name": "R3", "coords": ["x", "y", name]},
                             fields={}, structures=[], checks=[])
        path_in_doc = "$.charts[0].coords"
    else:
        doc = json.loads(
            (Path(__file__).parents[1] / "src/ggwb/workbench/builtin/s4.json").read_text())
        doc["structures"][0]["domain"]["coords"] = ["a", "b", name]
        path_in_doc = "$.structures[0].domain.coords"
    path = tmp_path / "names.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{path_in_doc}: a coordinate name is an identifier" in err
    assert repr(name) in err


@pytest.mark.parametrize("text,what", [
    ("((x+1)^20)^20", "degree"),  # the inner power, 20, estimated before it expands
    ("x/((x+y+z+1)^40)", "degree"),  # a divisor, before its zero test converts it
    ("(x+y+z+1)^6", "terms"),  # degree 6, 84 terms
])
def test_scenario_size_bounds_name_the_json_path(text, what):
    t0 = time.perf_counter()
    with pytest.raises(ScenarioError) as exc:
        load_scenario(_s1_with_xi(text))
    assert time.perf_counter() - t0 < 2
    assert exc.value.where == "$.fields.xi.components[2]"
    bound = scenario_mod.MAX_DEGREE if what == "degree" else scenario_mod.MAX_TERMS
    assert f"the bound {bound}" in str(exc.value)


@pytest.mark.parametrize("value,message", [
    (float("inf"), "Infinity is not an expression string or a number"),
    (float("-inf"), "-Infinity is not an expression string or a number"),
    (float("nan"), "NaN is not an expression string or a number"),
    (True, "true is not an expression string or a number"),
    (False, "false is not an expression string or a number"),
    (10**400, "up to 401 digits exceeds the bound"),  # float() of it overflowed
])
def test_non_finite_and_boolean_components_name_the_json_path(value, message):
    """Python's json reads Infinity, -Infinity and NaN; int() of them raised
    OverflowError or ValueError at load, and true/false loaded as 1/0."""
    with pytest.raises(ScenarioError) as exc:
        load_scenario(_s1_with_xi(value))
    assert exc.value.where == "$.fields.xi.components[2]"
    assert message in str(exc.value)


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan"), True])
def test_cli_rejects_a_non_finite_component(tmp_path, capsys, value):
    path = tmp_path / "nonfinite.json"
    path.write_text(json.dumps(_s1_with_xi(value)))
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"$.fields.xi.components[2]: {json.dumps(value)} is not" in err


def _degree(rf) -> int:
    """The total degree of a field element: the larger of its numerator's
    and its denominator's."""
    return max(sum(exponents(m, rf.field.n)) for p in (rf.numer, rf.denom) for m in p)


def test_degree_bound_comes_before_any_conversion(monkeypatch):
    """The parser estimates the degree on its grammar tree before it forms a
    field element for a power or a product: neither the oversized power nor
    the oversized divisor or product is built."""
    formed = []
    pow_, op_ = symexpr._pow, symexpr._op

    def recording_pow(rf, n):
        formed.append(pow_(rf, n))
        return formed[-1]

    def recording_op(op, a, b):
        formed.append(op_(op, a, b))
        return formed[-1]

    monkeypatch.setattr(symexpr, "_pow", recording_pow)
    monkeypatch.setattr(symexpr, "_op", recording_op)
    for text in ("((x+1)^20)^20", "x/((x+y+z+1)^40)", "(x+y+1)^7*(x+y+1)^7"):
        with pytest.raises(ScenarioError):
            load_scenario(_s1_with_xi(text))
    # (x+y+1)^7 is formed, and nothing over the bound
    assert max(map(_degree, formed)) == 7


@pytest.mark.parametrize("text,message", [
    # sympy folded x^13/x to x^12 and exp(x)^13 to exp(13*x) before it estimated
    ("x^13/x", f"degree estimate 13 exceeds the bound {scenario_mod.MAX_DEGREE} (at position 1)"),
    ("exp(x)^13", f"degree estimate 13 exceeds the bound {scenario_mod.MAX_DEGREE} (at position 6)"),
    ("10^20*x*10^20", f"up to 40 digits exceeds the bound {symexpr.MAX_DIGITS} (at position 2)"),
    # two 21-digit literals; the coefficient of the value, or of an atom's
    # argument, has 41 digits
    ("1" + "0" * 20 + "*x*1" + "0" * 20,
     f"up to 41 digits exceeds the bound {symexpr.MAX_DIGITS} (at position 0)"),
    ("y + exp(1" + "0" * 20 + "*x*1" + "0" * 20 + ")",
     f"up to 41 digits exceeds the bound {symexpr.MAX_DIGITS} (at position 4)"),
    ("0^-1", "division by zero (at position 1)"),
])
def test_the_bounds_are_read_on_the_grammar_tree(text, message):
    with pytest.raises(ScenarioError) as exc:
        load_scenario(_s1_with_xi(text))
    assert exc.value.where == "$.fields.xi.components[2]"
    assert message in str(exc.value)


def test_size_bounds_leave_headroom_over_the_builtins(monkeypatch):
    """Every builtin still loads under a third of the degree bound and a
    quarter of the term and digit bounds (degree 3, 8 terms and 2-digit
    numbers at most today)."""
    monkeypatch.setattr(scenario_mod, "MAX_DEGREE", scenario_mod.MAX_DEGREE // 3)
    monkeypatch.setattr(scenario_mod, "MAX_TERMS", scenario_mod.MAX_TERMS // 4)
    monkeypatch.setattr(symexpr, "MAX_DIGITS", symexpr.MAX_DIGITS // 4)
    for name in builtin_names():
        load_builtin(name)
