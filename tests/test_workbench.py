import json
import os

import pytest

from ggwb.errors import ScenarioError
from ggwb.verdict import VerdictKind
from ggwb.workbench import (
    Report,
    builtin_names,
    emit_report,
    load_builtin,
    load_scenario,
    run_checks,
)
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
    assert doc["schema"] == 1
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
    from ggwb.workbench import checks as checks_mod

    calls = []
    original = twoone.check_normal_21

    def counted(s, policy):
        calls.append(s.name)
        return original(s, policy)

    monkeypatch.setattr(twoone, "check_normal_21", counted)
    monkeypatch.setattr(checks_mod, "check_normal_21", counted)
    sc = load_builtin("S1", 0)
    wanted = [r.check for r in sc.checks]
    assert wanted.index("normal21") < wanted.index("binormal")
    report = run_checks(sc)
    # normal21 of the structure runs once; binormal adds only the companion
    assert len(calls) == 2
    by_name = {r.check: r.result for r in report.runs}
    assert by_name["binormal"].ok and by_name["normal21"].ok
