import json
from pathlib import Path

import pytest

from enrichkit.cli import Builder, main, parse_spec, run
from enrichkit.errors import ParseError, SchemaViolation, UnresolvedReference

SPECS = Path(__file__).resolve().parent.parent / "demos" / "specs"


def test_parse_boolean_chain():
    spec = parse_spec(SPECS / "boolean_chain.json")
    assert list(spec.monoidal) == ["bool_and"]
    assert list(spec.enriched) == ["chain2"]
    builder = Builder(spec)
    A = builder.enriched("chain2")
    assert A.n_objects == 2


def test_parse_rejects_undeclared_hom_object(tmp_path):
    raw = json.loads((SPECS / "boolean_chain.json").read_text())
    raw["enriched"]["chain2"]["hom"][0][2] = "ghost"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    with pytest.raises(UnresolvedReference):
        parse_spec(bad)


def test_parse_rejects_undeclared_morphism(tmp_path):
    raw = json.loads((SPECS / "boolean_chain.json").read_text())
    raw["categories"]["bool2"]["compose"][0][0] = "ghost"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    with pytest.raises(UnresolvedReference):
        parse_spec(bad)


def test_empty_file_is_schema_violation(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    with pytest.raises(SchemaViolation):
        parse_spec(empty)


def test_missing_version_field(tmp_path):
    f = tmp_path / "nover.json"
    f.write_text("{}")
    with pytest.raises(SchemaViolation):
        parse_spec(f)


def test_malformed_json_is_parse_error(tmp_path):
    f = tmp_path / "broken.json"
    f.write_text("{ not json")
    with pytest.raises(ParseError) as exc:
        parse_spec(f)
    assert ":" in str(exc.value)  # line/column position


def test_yoneda_command_on_boolean_chain():
    spec = parse_spec(SPECS / "boolean_chain.json")
    report = run("yoneda", spec)
    assert report.failure_count == 0
    lemma = next(r for r in report.records if r.check == "yoneda.lemma")
    assert lemma.details["presheaves"] == 3


def test_yoneda_command_on_s3_pair():
    spec = parse_spec(SPECS / "s3_pair.json")
    report = run("yoneda", spec)
    assert report.failure_count == 0
    lemma = next(r for r in report.records if r.check == "yoneda.lemma")
    assert lemma.details["presheaves"] == 6


def test_validate_command_reports_corruption():
    spec = parse_spec(SPECS / "corrupted_assoc.json")
    report = run("validate", spec)
    assert report.failure_count == 1
    rec = report.records[0]
    assert rec.verdict == "fail"
    assert any("AssociativityViolation" in w for w in rec.witnesses)


def test_presheaves_command():
    spec = parse_spec(SPECS / "c3_loop.json")
    report = run("presheaves", spec)
    assert report.records[0].details["count"] == 3


def test_wcolim_command_apex_cards():
    spec = parse_spec(SPECS / "wcolim_demo.json")
    report = run("wcolim", spec)
    cards = {r.instance: r.details["apex_card"] for r in report.records}
    assert cards["Wterm*Fswap"] == 1
    assert cards["Wyb*Farr"] == 3  # co-Yoneda: colim_{Y(b)} F ≅ F(b)
    assert report.failure_count == 0


def test_universal_command():
    spec = parse_spec(SPECS / "wcolim_demo.json")
    report = run("universal", spec)
    assert report.failure_count == 0


def test_machine_reports_byte_identical():
    spec = parse_spec(SPECS / "boolean_chain.json")
    a = run("yoneda", spec, {"seed": 5}).to_machine_json()
    b = run("yoneda", spec, {"seed": 5}).to_machine_json()
    assert a.encode() == b.encode()


def test_fuzz_reports_byte_identical():
    a = run("fuzz", None, {"seed": 13}).to_machine_json()
    b = run("fuzz", None, {"seed": 13}).to_machine_json()
    assert a.encode() == b.encode()
    payload = json.loads(a)
    assert payload["summary"]["failed"] == 0
    exp = [c for c in payload["checks"]
           if c["check"] == "fuzz.unit_automatism"][0]
    assert "no pass/fail threshold" in exp["details"]["note"]


def test_machine_report_nulls_timing():
    spec = parse_spec(SPECS / "boolean_chain.json")
    payload = json.loads(run("yoneda", spec).to_machine_json())
    assert all(c["timing_ms"] is None for c in payload["checks"])


def test_exit_codes(tmp_path, capsys):
    ok = main(["--spec", str(SPECS / "boolean_chain.json"), "--check", "yoneda"])
    assert ok == 0
    fail = main(["--spec", str(SPECS / "corrupted_assoc.json"),
                 "--check", "validate"])
    assert fail == 1
    missing = main(["--spec", str(tmp_path / "nope.json")])
    assert missing == 2
    nospec = main(["--check", "yoneda"])
    assert nospec == 2
    capped = main(["--spec", str(SPECS / "s3_pair.json"), "--check",
                   "presheaves", "--max-size", "2"])
    assert capped == 3
    capsys.readouterr()


def test_report_file_written(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["--spec", str(SPECS / "boolean_chain.json"),
                 "--check", "yoneda", "--format", "machine",
                 "--report", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert out.read_text() == captured.out


def test_exit_zero_iff_zero_failures():
    spec_ok = parse_spec(SPECS / "boolean_chain.json")
    spec_bad = parse_spec(SPECS / "corrupted_assoc.json")
    assert run("validate", spec_ok).failure_count == 0
    assert run("validate", spec_bad).failure_count > 0


def test_enriched_over_finset_base_in_spec(tmp_path):
    # an enriched declaration over the finite-sets base carries
    # cardinalities and function tables instead of names
    raw = {
        "enrichkit-spec": 1,
        "monoidal": {"FS": {"carrier": "finset-product"}},
        "enriched": {"E": {
            "base": "FS",
            "objects": ["x"],
            "hom": [["x", "x", 1]],
            "unit": [["x", [0]]],
            "comp": [["x", "x", "x", [0]]],
        }},
    }
    f = tmp_path / "fs.json"
    f.write_text(json.dumps(raw))
    spec = parse_spec(f)
    A = Builder(spec).enriched("E")
    assert A.hom(0, 0).card == 1


def test_weight_schema_violations(tmp_path):
    raw = json.loads((SPECS / "wcolim_demo.json").read_text())
    raw["weights"]["Wterm"]["values"]["p"] = "one"
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(raw))
    with pytest.raises(SchemaViolation):
        parse_spec(f)
    raw["weights"]["Wterm"]["values"] = {"p": 1}
    f.write_text(json.dumps(raw))
    with pytest.raises(SchemaViolation):
        parse_spec(f)  # missing cardinality for q


@pytest.mark.parametrize("entry", [["r0", "r0"], ["r0", "r0", ["r0"]]])
def test_malformed_compose_entry_exits_2(tmp_path, capsys, entry):
    raw = json.loads((SPECS / "corrupted_assoc.json").read_text())
    raw["categories"]["c3bad"]["compose"][0] = entry
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(raw))
    with pytest.raises(SchemaViolation):
        parse_spec(f)
    assert main(["--spec", str(f), "--check", "validate"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("section, name, key", [
    ("monoidal", "bool_and", "tensor_ob"), ("monoidal", "bool_and", "tensor_mor"),
    ("enriched", "chain2", "hom"), ("enriched", "chain2", "unit"),
    ("enriched", "chain2", "comp"),
])
def test_short_table_entries_are_schema_violations(tmp_path, section, name, key):
    raw = json.loads((SPECS / "boolean_chain.json").read_text())
    raw[section][name][key][0] = raw[section][name][key][0][:-1]
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(raw))
    with pytest.raises(SchemaViolation):
        parse_spec(f)


def test_objects_given_as_string_is_schema_violation(tmp_path, capsys):
    raw = json.loads((SPECS / "corrupted_assoc.json").read_text())
    raw["categories"]["c3bad"]["objects"] = "*"
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(raw))
    with pytest.raises(SchemaViolation):
        parse_spec(f)
    assert main(["--spec", str(f), "--check", "validate"]) == 2
    capsys.readouterr()
