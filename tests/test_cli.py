import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_finset_enriched_missing_hom_is_a_failed_record(tmp_path):
    # comp tables over finite sets are typed by hom: a missing hom cell is
    # named by the validator, not a crash while building the tables
    raw = {
        "enrichkit-spec": 1,
        "monoidal": {"FS": {"carrier": "finset-product"}},
        "enriched": {"E": {
            "base": "FS",
            "objects": ["x", "y"],
            "hom": [["x", "x", 1], ["x", "y", 1], ["y", "y", 1]],
            "unit": [["x", [0]], ["y", [0]]],
            "comp": [["x", "y", "x", []]],
        }},
    }
    f = tmp_path / "fs.json"
    f.write_text(json.dumps(raw))
    report = run("validate", parse_spec(f))
    assert report.records[-1].witnesses == ["MissingComposite: hom('y', 'x') missing"]


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


def module_and_presheaf_spec():
    """boolean_chain plus the base acting on its own carrier and the
    representable presheaf Y(b) on chain2."""
    raw = json.loads((SPECS / "boolean_chain.json").read_text())
    mon = raw["monoidal"]["bool_and"]
    raw["modules"] = {"self2": {"base": "bool_and", "carrier": "bool2",
                                "act_ob": mon["tensor_ob"],
                                "act_mor": mon["tensor_mor"]}}
    comp = raw["enriched"]["chain2"]["comp"]
    raw["presheaves"] = {"Yb": {
        "source": "chain2",
        "values": [["a", "1"], ["b", "1"]],
        "action": [[x, y, m] for x, y, z, m in comp if z == "b"]}}
    return raw


def test_module_and_presheaf_spec_validates(tmp_path, capsys):
    f = tmp_path / "ok.json"
    f.write_text(json.dumps(module_and_presheaf_spec()))
    assert main(["--spec", str(f), "--check", "validate"]) == 0
    out = capsys.readouterr().out
    assert "validate.module [self2]" in out and "validate.presheaf [Yb]" in out


@pytest.mark.parametrize("section, name, key, value", [
    ("modules", "self2", "act_ob", [["0", "0"]]),
    ("modules", "self2", "act_ob", "000"),
    ("modules", "self2", "act_mor", [["id_0", "id_0", 0]]),
    ("presheaves", "Yb", "values", [["a"], ["b", "1"]]),
    ("presheaves", "Yb", "action", [["a", "a"]]),
    ("presheaves", "Yb", "values", [["a", "1"]]),
    ("presheaves", "Yb", "values", [["a", "1"], ["b", "1"], ["a", "0"]]),
    ("presheaves", "Yb", "note", "an unknown key"),
    ("modules", "self2", "self", 1),
])
def test_malformed_module_and_presheaf_entries_exit_2(tmp_path, capsys, section,
                                                      name, key, value):
    raw = module_and_presheaf_spec()
    raw[section][name][key] = value
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(raw))
    with pytest.raises(SchemaViolation):
        parse_spec(f)
    assert main(["--spec", str(f), "--check", "validate"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def _morphism_name_list(raw):
    raw["categories"]["bool2"]["morphisms"][2]["name"] = ["le01"]


def _presheaf_value(raw):
    raw["presheaves"]["Yb"]["values"][0][0] = "ghost"


def _presheaf_action_base_morphism(raw):
    raw["presheaves"]["Yb"]["action"][0][2] = "ghost"


def _module_act_ob_base_object(raw):
    # act_ob is the monoidal tensor_ob list itself: replace it, not mutate it
    module = raw["modules"]["self2"]
    module["act_ob"] = [["ghost", "0", "0"]] + module["act_ob"][1:]


@pytest.mark.parametrize("mutate, error", [
    (lambda raw: raw.update(modules={"M": 3}), SchemaViolation),
    (lambda raw: raw["monoidal"].update(bool_and=5), SchemaViolation),
    (_morphism_name_list, SchemaViolation),
    (_presheaf_value, UnresolvedReference),
    (_presheaf_action_base_morphism, UnresolvedReference),
    (_module_act_ob_base_object, UnresolvedReference),
])
def test_malformed_declarations_exit_2(tmp_path, capsys, mutate, error):
    raw = module_and_presheaf_spec()
    mutate(raw)
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(raw))
    with pytest.raises(error):
        parse_spec(f)
    assert main(["--spec", str(f), "--check", "validate"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_presheaf_over_finset_base_is_schema_violation(tmp_path):
    raw = json.loads((SPECS / "boolean_chain.json").read_text())
    raw["monoidal"]["FS"] = {"carrier": "finset-product"}
    raw["enriched"]["E"] = {"base": "FS", "objects": ["x"], "hom": [["x", "x", 1]],
                            "unit": [["x", [0]]], "comp": [["x", "x", "x", [0]]]}
    raw["presheaves"] = {"P": {"source": "E", "values": [["x", "1"]],
                               "action": [["x", "x", "id_1"]]}}
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(raw))
    with pytest.raises(SchemaViolation):
        parse_spec(f)


@pytest.mark.parametrize("mutate", [
    lambda raw: raw["categories"]["Apar"].update(compose=[]),
    lambda raw: raw["weights"]["Wterm"]["values"].update(p=7),
])
def test_wcolim_weight_failure_is_a_record(tmp_path, capsys, mutate):
    # the weight is built inside its check record: a weight or source
    # category that fails validation is that record's verdict
    raw = json.loads((SPECS / "wcolim_demo.json").read_text())
    mutate(raw)
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(raw))
    assert main(["--spec", str(f), "--check", "wcolim", "--format", "machine"]) == 1
    payload = json.loads(capsys.readouterr().out)
    verdicts = {c["instance"]: c["verdict"] for c in payload["checks"]}
    assert verdicts["Wterm*Fswap"] != "pass" and verdicts["Wyb*Farr"] == "pass"


@pytest.mark.parametrize("mutate", [
    lambda raw: raw.update({"enrichkit-spec": True}),
    lambda raw: raw.update({"enrichkit-spec": 1.0}),
    lambda raw: raw["weights"]["Wterm"].update(values={"p": True, "q": True}),
    lambda raw: raw["mfunctors"]["Fswap"]["phi"][0].__setitem__(2, [False, True]),
], ids=["version-true", "version-float", "weight-values-true", "phi-booleans"])
def test_json_booleans_and_floats_are_not_integers(tmp_path, capsys, mutate):
    # True == 1 and 1.0 == 1 in Python, but a spec integer must be a JSON integer
    raw = json.loads((SPECS / "wcolim_demo.json").read_text())
    mutate(raw)
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(raw))
    with pytest.raises(SchemaViolation):
        parse_spec(f)
    assert main(["--spec", str(f), "--check", "validate"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_duplicate_enriched_object_names_fail_validation(tmp_path):
    # both names resolve to one object; the validator says so instead of
    # reporting a hom cell the spec declares as missing
    raw = json.loads((SPECS / "boolean_chain.json").read_text())
    raw["enriched"]["chain2"].update(
        objects=["a", "a"], hom=[["a", "a", "1"]], unit=[["a", "id_1"]],
        comp=[["a", "a", "a", "id_1"]])
    f = tmp_path / "dup.json"
    f.write_text(json.dumps(raw))
    record = run("validate", parse_spec(f)).records[-1]
    assert (record.check, record.verdict) == ("validate.enriched", "fail")
    assert record.witnesses == ["DanglingReference: duplicate object name"]


def _finset_enriched_spec():
    # the walking arrow x -> y ingested into finite sets by hand
    return {
        "enrichkit-spec": 1,
        "monoidal": {"FS": {"carrier": "finset-product"}},
        "enriched": {"E": {
            "base": "FS",
            "objects": ["x", "y"],
            "hom": [["x", "x", 1], ["x", "y", 1], ["y", "x", 0], ["y", "y", 1]],
            "unit": [["x", [0]], ["y", [0]]],
            "comp": [["x", "x", "x", [0]], ["x", "x", "y", [0]], ["x", "y", "x", []],
                     ["x", "y", "y", [0]], ["y", "x", "x", []], ["y", "x", "y", []],
                     ["y", "y", "x", []], ["y", "y", "y", [0]]],
        }},
    }


@pytest.mark.parametrize("spec, section, mutate, check, witness", [
    pytest.param(
        "wcolim_demo", "weight",
        lambda raw: raw["weights"]["Wterm"]["values"].update(p=7),
        "TypeMismatch: action component has wrong dom/cod", {"x": "p", "y": "p"},
        id="weight-value"),
    pytest.param(
        "wcolim_demo", "weight",
        lambda raw: raw["weights"]["Wyb"]["action"][1].__setitem__(2, [0, 0, 0]),
        "TypeMismatch: action component has wrong dom/cod", {"x": "a", "y": "b"},
        id="weight-table"),
    pytest.param(
        "wcolim_demo", "mfunctor",
        lambda raw: raw["mfunctors"]["Fswap"]["phi"][1].__setitem__(2, [0, 1]),
        "TypeMismatch: action component has wrong dom/cod", {"x": "p", "y": "q"},
        id="mfunctor-table"),
    pytest.param(
        "wcolim_demo", "mfunctor",
        lambda raw: raw["mfunctors"]["Fswap"]["phi"][0].__setitem__(2, [0, 2]),
        "TypeMismatch: action component has wrong dom/cod", {"x": "p", "y": "p"},
        id="mfunctor-range"),
    pytest.param(
        None, "enriched",
        lambda raw: raw["enriched"]["E"]["unit"][1].__setitem__(1, [0, 0]),
        "TypeMismatch: unit of 'y' is not a morphism 1 -> hom(x, x)", {"x": "y"},
        id="enriched-unit"),
    pytest.param(
        None, "enriched",
        lambda raw: raw["enriched"]["E"]["comp"][0].__setitem__(3, []),
        "TypeMismatch: comp('x', 'x', 'x') has wrong dom/cod",
        {"x": "x", "y": "x", "z": "x"},
        id="enriched-comp"),
])
def test_mistyped_function_tables_fail_their_record(tmp_path, spec, section, mutate,
                                                    check, witness):
    # a function table that is not a map of the declared type fails its
    # validation record with the validator's typing witness, not an error
    raw = (json.loads((SPECS / f"{spec}.json").read_text()) if spec
           else _finset_enriched_spec())
    f = tmp_path / "ok.json"
    f.write_text(json.dumps(raw))
    assert run("validate", parse_spec(f)).failure_count == 0
    mutate(raw)
    f.write_text(json.dumps(raw))
    failed = [r for r in run("validate", parse_spec(f)).records if r.verdict != "pass"]
    assert [(r.check, r.verdict, r.witnesses) for r in failed] == [
        (f"validate.{section}", "fail", [check])]
    assert failed[0].details == {"witness": witness}


def _node_paths(node, path=()):
    """The path of every node below the root of a JSON value."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from _node_paths(child, path + (key,))


# the shipped specs plus module_and_presheaf_spec(), round-tripped through
# JSON so that no two nodes are one list
MUTATED_SPECS = {f.stem: json.loads(f.read_text()) for f in sorted(SPECS.glob("*.json"))}
MUTATED_SPECS["module_and_presheaf"] = json.loads(json.dumps(module_and_presheaf_spec()))
MUTATION_SITES = [(name, path) for name, raw in MUTATED_SPECS.items()
                  for path in _node_paths(raw)]


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(site=st.sampled_from(MUTATION_SITES),
       value=st.sampled_from(["ghost", 7, [], None, {}]))
def test_mutated_specs_never_crash(site, value):
    # one node of a spec replaced by a wrong value: an exit code, never a
    # traceback, and exit 2 prints exactly one error line
    name, path = site
    raw = copy.deepcopy(MUTATED_SPECS[name])
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    checks = ["validate", "wcolim"] if name == "wcolim_demo" else ["validate"]
    with tempfile.TemporaryDirectory() as tmp:
        f = Path(tmp) / "spec.json"
        f.write_text(json.dumps(raw))
        for check in checks:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["--spec", str(f), "--check", check])
            assert code in (0, 1, 2, 3)
            if code == 2:
                assert err.getvalue().startswith("error:")
                assert err.getvalue().count("\n") == 1


@pytest.mark.parametrize("spec", ["boolean_chain", "s3_pair", "c3_loop"])
def test_yoneda_command_enumerates_each_presheaf_category_once(spec, monkeypatch):
    from enrichkit import cli

    calls = []
    enumerate_presheaves = cli.enumerate_presheaves

    def counting(A, caps):
        calls.append(A.name)
        return enumerate_presheaves(A, caps)

    monkeypatch.setattr(cli, "enumerate_presheaves", counting)
    parsed = parse_spec(SPECS / f"{spec}.json")
    report = run("yoneda", parsed)
    assert report.failure_count == 0
    assert calls == list(parsed.enriched)


@pytest.mark.parametrize("spec, section, name, key, row, witness", [
    ("boolean_chain", "monoidal", "bool_and", "tensor_ob", ["0", "0", "1"],
     {"a": "0", "b": "0"}),
    ("boolean_chain", "monoidal", "bool_and", "tensor_mor", ["id_0", "id_0", "id_1"],
     {"f": "id_0", "g": "id_0"}),
    ("boolean_chain", "enriched", "chain2", "hom", ["a", "b", "0"], {"x": "a", "y": "b"}),
    ("boolean_chain", "enriched", "chain2", "unit", ["a", "id_0"], {"x": "a"}),
    ("boolean_chain", "enriched", "chain2", "comp", ["a", "b", "a", "id_0"],
     {"x": "a", "y": "b", "z": "a"}),
    (None, "enriched", "E", "comp", ["x", "x", "y", []], {"x": "x", "y": "x", "z": "y"}),
    ("module", "module", "self2", "act_ob", ["1", "1", "0"], {"m": "1", "b": "1"}),
    ("module", "module", "self2", "act_mor", ["id_1", "le01", "id_0"],
     {"u": "id_1", "h": "le01"}),
    ("module", "presheaf", "Yb", "action", ["b", "a", "id_0"], {"x": "b", "y": "a"}),
    ("wcolim_demo", "mfunctor", "Fswap", "phi", ["p", "q", [1, 0, 0, 1]],
     {"x": "p", "y": "q"}),
    ("wcolim_demo", "weight", "Wterm", "action", ["q", "q", [0, 0]], {"x": "q", "y": "q"}),
])
def test_conflicting_rows_fail_their_record(tmp_path, spec, section, name, key, row,
                                            witness):
    # two rows giving one cell different values fail like conflicting compose
    # entries, whichever comes last; a repeated identical row is accepted.  A
    # declaration built on the failing one fails with one line naming it.
    sections = {"monoidal": "monoidal", "enriched": "enriched", "module": "modules",
                "presheaf": "presheaves", "mfunctor": "mfunctors", "weight": "weights"}
    raw = (module_and_presheaf_spec() if spec == "module"
           else json.loads((SPECS / f"{spec}.json").read_text()) if spec
           else _finset_enriched_spec())
    decl = raw[sections[section]][name]
    f = tmp_path / "spec.json"
    decl[key] = decl[key] + decl[key][:1]
    f.write_text(json.dumps(raw))
    assert run("validate", parse_spec(f)).failure_count == 0
    # first, so that a reader where the last row wins keeps the valid value
    decl[key] = [row] + decl[key]
    f.write_text(json.dumps(raw))
    failed = [r for r in run("validate", parse_spec(f)).records if r.verdict != "pass"]
    cell = ", ".join(map(repr, witness.values()))
    assert failed[0].check == f"validate.{section}"
    assert [(r.verdict, r.witnesses) for r in failed] == [
        ("fail", [f"IllTypedComposite: conflicting {key} entries for ({cell})"])] + [
        ("fail", [f"DanglingReference: built on {section} {name!r}, which failed"])
    ] * (len(failed) - 1)
    assert failed[0].details == {"witness": witness}
    assert all(r.details == {"witness": {section: name}} for r in failed[1:])
    assert main(["--spec", str(f), "--check", "validate"]) == 1


def test_a_failed_declaration_is_built_once(tmp_path, monkeypatch):
    # both yoneda records ask for chain2; the second meets the kept failure,
    # which names chain2's own cell as the first did
    from enrichkit import cli

    raw = json.loads((SPECS / "boolean_chain.json").read_text())
    raw["enriched"]["chain2"]["hom"].insert(0, ["a", "b", "0"])
    f = tmp_path / "spec.json"
    f.write_text(json.dumps(raw))
    tables = []
    cells = cli._cells
    monkeypatch.setattr(cli, "_cells",
                        lambda rows, what, *rest: tables.append(what) or cells(rows, what, *rest))
    report = run("yoneda", parse_spec(f))
    assert tables.count("hom") == 1
    assert [(r.check, r.witnesses) for r in report.records] == [
        (check, ["IllTypedComposite: conflicting hom entries for ('a', 'b')"])
        for check in ("yoneda.lemma", "yoneda.fully_faithful")]


def test_fuzz_under_a_small_cap_is_a_resource_error(capsys):
    # every presheaf enumeration of the sampler exceeds a cap of 0
    assert main(["--check", "fuzz", "--max-size", "0"]) == 3
    out = capsys.readouterr().out
    assert "RESOURCE CAP: SizeBound: presheaf value-map search space" in out


def test_spec_that_is_not_utf8_exits_2(tmp_path, capsys):
    f = tmp_path / "latin1.json"
    f.write_bytes('{"enrichkit-spec": 1, "categories": {"\xe9": {}}}'.encode("latin-1"))
    with pytest.raises(ParseError, match="not UTF-8"):
        parse_spec(f)
    assert main(["--spec", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_unwritable_report_path_exits_2(tmp_path, capsys):
    out = tmp_path / "no-such-dir" / "report.json"
    assert main(["--spec", str(SPECS / "boolean_chain.json"), "--report", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(out) in err and err.count("\n") == 1


@pytest.mark.parametrize("unit, witnesses", [
    ([], []),
    ([0], ["TypeMismatch: unit of 'x' is not a morphism 1 -> hom(x, x)"]),
])
def test_unit_over_the_coproduct_base_is_typed_from_its_unit(tmp_path, unit, witnesses):
    # under the coproduct the unit object is the empty set, so a unit is the
    # empty map 0 -> hom(x, x); one object with hom(x, x) = 1 is then lawful
    raw = {"enrichkit-spec": 1,
           "monoidal": {"FS": {"carrier": "finset-coproduct"}},
           "enriched": {"E": {"base": "FS", "objects": ["x"], "hom": [["x", "x", 1]],
                              "unit": [["x", unit]],
                              "comp": [["x", "x", "x", [0, 0]]]}}}
    f = tmp_path / "coproduct.json"
    f.write_text(json.dumps(raw))
    record = run("validate", parse_spec(f)).records[-1]
    assert (record.check, record.witnesses) == ("validate.enriched", witnesses)


@pytest.mark.parametrize("check", ["validate", "yoneda", "fuzz"])
def test_negative_max_size_exits_2_before_the_spec_is_read(tmp_path, capsys, check):
    # the spec does not exist, so only a check made before reading it can
    # name --max-size
    args = ["--check", check, "--max-size", "-5", "--spec", str(tmp_path / "none.json")]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --max-size") and captured.err.count("\n") == 1
