"""Batch front end: parse spec files, run checks, emit deterministic reports.

Spec files are UTF-8 JSON with a required ``"enrichkit-spec": 1`` version
field and named sections (categories, monoidal, enriched, modules,
mfunctors, presheaves, weights) cross-referencing each other by name.
Reports come in two formats: human (with wall-clock timings) and machine
(canonical JSON, timings nulled so identical inputs give identical bytes).

Exit codes: 0 success, 1 check failures, 2 input errors, 3 resource caps.
"""

import argparse
import json
import random
import sys
import time
from dataclasses import asdict, dataclass, field

from . import finset
from .caps import DEFAULT_CAPS, scaled
from .corpus import CorpusSampler, terminal_weight
from .enriched import mcat_from_fincat, validate_mcat
from .errors import (
    EnrichKitError,
    Overflow,
    ParseError,
    SchemaViolation,
    SizeBound,
    UnresolvedReference,
    ValidationError,
)
from .fincat import validate_fincat
from .finset import SkMap, SkSet
from .mfunctor import measure_unit_automatism, validate_mfun_et
from .monoidal import (
    finset_coproduct_monoidal,
    finset_product_monoidal,
    validate_monoidal,
)
from .presheaf import (
    check_fully_faithful,
    check_yoneda_lemma,
    enumerate_presheaves,
    validate_presheaf,
)
from .tensored import base_as_module, validate_module
from .wcolim import (
    FinSetModule,
    canonical_presentation,
    check_equivalence,
    check_universal,
    sample_probes,
    weighted_colimit,
)

COMMANDS = ("validate", "presheaves", "yoneda", "wcolim", "universal", "fuzz")
BUILTIN_CARRIERS = ("finset-product", "finset-coproduct")
SECTIONS = ("categories", "monoidal", "enriched", "modules",
            "mfunctors", "presheaves", "weights")


@dataclass
class SpecFile:
    path: str
    categories: dict
    monoidal: dict
    enriched: dict
    modules: dict
    mfunctors: dict
    presheaves: dict
    weights: dict


def parse_spec(path) -> SpecFile:
    """Read, schema-check and name-resolve a spec file.

    Semantic validation (axiom checking) is left to the ``validate``
    command so violations become report content rather than parse errors.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    if not text.strip():
        raise SchemaViolation(f"{path}: missing required 'enrichkit-spec' version field")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    if not isinstance(raw, dict):
        raise SchemaViolation(f"{path}: top level must be an object")
    if raw.get("enrichkit-spec") != 1:
        raise SchemaViolation(f"{path}: missing required 'enrichkit-spec' version field")
    for key in raw:
        if key != "enrichkit-spec" and key not in SECTIONS:
            raise SchemaViolation(f"{path}: unknown section {key!r}")
    sections = {}
    for key in SECTIONS:
        sec = raw.get(key, {})
        if not isinstance(sec, dict):
            raise SchemaViolation(f"{path}: section {key!r} must be an object")
        sections[key] = sec
    spec = SpecFile(str(path), *[sections[k] for k in SECTIONS])
    _resolve_references(spec)
    return spec


def _resolve_references(spec: SpecFile):
    for name, decl in spec.categories.items():
        _require_keys(name, decl, {"objects", "morphisms", "compose"}, {"identity"})
        obs = set(_names(name, decl, "objects"))
        mor_names = set()
        for m in _entries(name, decl, "morphisms"):
            mname, d, c = _mor_decl(name, m)
            mor_names.add(mname)
            for o in (d, c):
                if o not in obs:
                    raise UnresolvedReference(
                        f"category {name!r}: morphism {mname!r} references "
                        f"undeclared object {o!r}")
        for entry in _tuples(name, decl, "compose", 3):
            for mn in entry:
                if mn not in mor_names:
                    raise UnresolvedReference(
                        f"category {name!r}: compose references undeclared "
                        f"morphism {mn!r}")
    for name, decl in spec.monoidal.items():
        carrier = decl.get("carrier")
        if carrier in BUILTIN_CARRIERS:
            continue
        if carrier not in spec.categories:
            raise UnresolvedReference(
                f"monoidal {name!r}: undeclared carrier {carrier!r}")
        _require_keys(name, decl, {"carrier", "unit", "tensor_ob", "tensor_mor"}, set())
        obs = set(spec.categories[carrier]["objects"])
        mors = {_mor_decl(carrier, m)[0] for m in spec.categories[carrier]["morphisms"]}
        if decl["unit"] not in obs:
            raise UnresolvedReference(
                f"monoidal {name!r}: undeclared unit object {decl['unit']!r}")
        for a, b, ab in _tuples(name, decl, "tensor_ob", 3):
            for o in (a, b, ab):
                if o not in obs:
                    raise UnresolvedReference(
                        f"monoidal {name!r}: tensor_ob references undeclared "
                        f"object {o!r}")
        for u, v, uv in _tuples(name, decl, "tensor_mor", 3):
            for mn in (u, v, uv):
                if mn not in mors:
                    raise UnresolvedReference(
                        f"monoidal {name!r}: tensor_mor references undeclared "
                        f"morphism {mn!r}")
    for name, decl in spec.enriched.items():
        _require_keys(name, decl, {"base", "objects", "hom", "unit", "comp"}, set())
        base = decl["base"]
        if base not in spec.monoidal:
            raise UnresolvedReference(f"enriched {name!r}: undeclared base {base!r}")
        carrier = spec.monoidal[base].get("carrier")
        base_obs, base_mors = _carrier_names(spec, carrier)
        obs = set(_names(name, decl, "objects"))
        for x, y, ob in _tuples(name, decl, "hom", 3, 2):
            if x not in obs or y not in obs:
                raise UnresolvedReference(
                    f"enriched {name!r}: hom entry names undeclared object")
            if base_obs is not None and (not isinstance(ob, str)
                                         or ob not in base_obs):
                raise UnresolvedReference(
                    f"enriched {name!r}: hom entry names undeclared base "
                    f"object {ob!r}")
            if base_obs is None and (not isinstance(ob, int) or ob < 0):
                raise SchemaViolation(
                    f"enriched {name!r}: hom over a finite-sets base must "
                    f"give a non-negative cardinality, got {ob!r}")
        for x, mor in _tuples(name, decl, "unit", 2, 1):
            if x not in obs:
                raise UnresolvedReference(
                    f"enriched {name!r}: unit entry names undeclared object {x!r}")
            if base_mors is not None and (not isinstance(mor, str)
                                          or mor not in base_mors):
                raise UnresolvedReference(
                    f"enriched {name!r}: unit entry names undeclared base "
                    f"morphism {mor!r}")
            if base_mors is None and not _int_table(mor):
                raise SchemaViolation(
                    f"enriched {name!r}: unit over a finite-sets base must "
                    f"be a function table")
        for x, y, z, mor in _tuples(name, decl, "comp", 4, 3):
            if x not in obs or y not in obs or z not in obs:
                raise UnresolvedReference(
                    f"enriched {name!r}: comp entry names undeclared object")
            if base_mors is not None and (not isinstance(mor, str)
                                          or mor not in base_mors):
                raise UnresolvedReference(
                    f"enriched {name!r}: comp entry names undeclared base "
                    f"morphism {mor!r}")
            if base_mors is None and not _int_table(mor):
                raise SchemaViolation(
                    f"enriched {name!r}: comp over a finite-sets base must "
                    f"be a function table")
    for name, decl in spec.modules.items():
        if decl.get("base") not in spec.monoidal:
            raise UnresolvedReference(
                f"module {name!r}: undeclared base {decl.get('base')!r}")
        if not decl.get("self"):
            if decl.get("carrier") not in spec.categories:
                raise UnresolvedReference(
                    f"module {name!r}: undeclared carrier {decl.get('carrier')!r}")
            _tuples(name, decl, "act_ob", 3)
            _tuples(name, decl, "act_mor", 3)
    for name, decl in spec.mfunctors.items():
        if decl.get("source") not in spec.categories:
            raise UnresolvedReference(
                f"mfunctor {name!r}: undeclared source {decl.get('source')!r}")
        if decl.get("target") != "finset":
            raise UnresolvedReference(
                f"mfunctor {name!r}: target must be 'finset'")
        _check_finset_valued(name, decl, "ob_map", "phi",
                             spec.categories[decl["source"]]["objects"])
    for name, decl in spec.presheaves.items():
        if decl.get("source") not in spec.enriched:
            raise UnresolvedReference(
                f"presheaf {name!r}: undeclared source {decl.get('source')!r}")
        _tuples(name, decl, "values", 2)
        _tuples(name, decl, "action", 3)
    for name, decl in spec.weights.items():
        if decl.get("source") not in spec.categories:
            raise UnresolvedReference(
                f"weight {name!r}: undeclared source {decl.get('source')!r}")
        _check_finset_valued(name, decl, "values", "action",
                             spec.categories[decl["source"]]["objects"])


def _entries(name, decl, key):
    value = decl.get(key)
    if not isinstance(value, list):
        raise SchemaViolation(f"declaration {name!r}: {key} must be a list")
    return value


def _names(name, decl, key):
    value = _entries(name, decl, key)
    if not all(isinstance(v, str) for v in value):
        raise SchemaViolation(f"declaration {name!r}: {key} must be a list of names")
    return value


def _tuples(name, decl, key, arity, n_names=None):
    """decl[key] as a list of arity-element lists whose first n_names
    (default: all) elements are names."""
    value = _entries(name, decl, key)
    n_names = arity if n_names is None else n_names
    for entry in value:
        if (not isinstance(entry, list) or len(entry) != arity
                or not all(isinstance(v, str) for v in entry[:n_names])):
            raise SchemaViolation(
                f"declaration {name!r}: malformed {key} entry {entry!r}")
    return value


def _int_table(value):
    return (isinstance(value, (list, tuple))
            and all(isinstance(v, int) for v in value))


def _check_finset_valued(name, decl, values_key, tables_key, objects):
    values = decl.get(values_key)
    if not isinstance(values, dict) or set(values) != set(objects):
        raise SchemaViolation(
            f"declaration {name!r}: {values_key} must give a cardinality "
            f"for every object of the source")
    for o, card in values.items():
        if not isinstance(card, int) or card < 0:
            raise SchemaViolation(
                f"declaration {name!r}: cardinality for {o!r} must be a "
                f"non-negative integer")
    for entry in decl.get(tables_key, ()):
        if (not isinstance(entry, (list, tuple)) or len(entry) != 3
                or entry[0] not in objects or entry[1] not in objects
                or not isinstance(entry[2], (list, tuple))
                or not all(isinstance(v, int) for v in entry[2])):
            raise SchemaViolation(
                f"declaration {name!r}: malformed {tables_key} entry {entry!r}")


def _require_keys(name, decl, required, optional):
    if not isinstance(decl, dict):
        raise SchemaViolation(f"declaration {name!r} must be an object")
    missing = required - set(decl)
    if missing:
        raise SchemaViolation(f"declaration {name!r} lacks {sorted(missing)}")
    extra = set(decl) - required - optional
    if extra:
        raise SchemaViolation(f"declaration {name!r} has unknown keys {sorted(extra)}")


def _mor_decl(catname, m):
    if isinstance(m, dict):
        try:
            return m["name"], m["dom"], m["cod"]
        except KeyError as exc:
            raise SchemaViolation(
                f"category {catname!r}: morphism lacks {exc.args[0]!r}")
    if isinstance(m, (list, tuple)) and len(m) == 3:
        return m[0], m[1], m[2]
    raise SchemaViolation(f"category {catname!r}: malformed morphism {m!r}")


def _carrier_names(spec, carrier):
    if carrier in BUILTIN_CARRIERS:
        return None, None  # cardinalities, not names
    decl = spec.categories[carrier]
    return (set(decl["objects"]),
            {_mor_decl(carrier, m)[0] for m in decl["morphisms"]})


class Builder:
    """Builds validated objects from a parsed spec, with caching."""

    def __init__(self, spec: SpecFile, caps=DEFAULT_CAPS):
        self.spec = spec
        self.caps = caps
        self._cache = {}

    def _memo(self, kind, name, make):
        key = (kind, name)
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def category(self, name):
        decl = self.spec.categories[name]

        def make():
            morphisms = [_mor_decl(name, m) for m in decl["morphisms"]]
            return validate_fincat(decl["objects"], morphisms, decl["compose"],
                                   decl.get("identity"), name=name, caps=self.caps)

        return self._memo("category", name, make)

    def monoidal(self, name):
        decl = self.spec.monoidal[name]

        def make():
            carrier = decl["carrier"]
            if carrier == "finset-product":
                return finset_product_monoidal(self.caps)
            if carrier == "finset-coproduct":
                return finset_coproduct_monoidal(self.caps)
            return validate_monoidal(self.category(carrier), decl["unit"],
                                     decl["tensor_ob"], decl["tensor_mor"],
                                     name=name, caps=self.caps)

        return self._memo("monoidal", name, make)

    def enriched(self, name):
        decl = self.spec.enriched[name]

        def make():
            base = self.monoidal(decl["base"])
            objects = list(decl["objects"])
            idx = {o: i for i, o in enumerate(objects)}
            if base.is_finite:
                carrier = base.carrier
                hom = {(idx[x], idx[y]): carrier.obj(ob)
                       for x, y, ob in decl["hom"]}
                unit = {idx[x]: carrier.mor(m) for x, m in decl["unit"]}
                comp = {(idx[x], idx[y], idx[z]): carrier.mor(m)
                        for x, y, z, m in decl["comp"]}
            else:
                hom = {(idx[x], idx[y]): SkSet(ob) for x, y, ob in decl["hom"]}
                unit = {idx[x]: SkMap(SkSet(1), hom[(idx[x], idx[x])], tuple(m))
                        for x, m in decl["unit"]}
                comp = {}
                for x, y, z, m in decl["comp"]:
                    dom = base.tensor_ob(hom[(idx[y], idx[z])], hom[(idx[x], idx[y])])
                    comp[(idx[x], idx[y], idx[z])] = SkMap(
                        dom, hom[(idx[x], idx[z])], tuple(m))
            return validate_mcat(base, objects, hom, unit, comp,
                                 name=name, caps=self.caps)

        return self._memo("enriched", name, make)

    def module(self, name):
        decl = self.spec.modules[name]

        def make():
            base = self.monoidal(decl["base"])
            if decl.get("self"):
                return base_as_module(base)
            carrier = self.category(decl["carrier"])
            bc = base.carrier
            act_ob = {(bc.obj(m), carrier.obj(c)): carrier.obj(c2)
                      for m, c, c2 in decl["act_ob"]}
            act_mor = {(bc.mor(u), carrier.mor(h)): carrier.mor(h2)
                       for u, h, h2 in decl["act_mor"]}
            return validate_module(base, carrier, act_ob, act_mor,
                                   name=name, caps=self.caps)

        return self._memo("module", name, make)

    def ingested(self, catname):
        return self._memo("ingested", catname,
                          lambda: mcat_from_fincat(self.category(catname), self.caps))

    def mfunctor(self, name):
        decl = self.spec.mfunctors[name]

        def make():
            A = self.ingested(decl["source"])
            B = FinSetModule(self.caps)
            idx = {o: i for i, o in enumerate(A.objects)}
            ob_map = [None] * A.n_objects
            for o, card in decl["ob_map"].items():
                ob_map[idx[o]] = SkSet(card)
            phi = {}
            for x, y, table in decl["phi"]:
                dom = finset.product(A.hom(idx[x], idx[y]), ob_map[idx[x]], self.caps)
                phi[(idx[x], idx[y])] = SkMap(dom, ob_map[idx[y]], tuple(table))
            return validate_mfun_et(A, B, ob_map, phi, name=name, caps=self.caps)

        return self._memo("mfunctor", name, make)

    def presheaf(self, name):
        decl = self.spec.presheaves[name]

        def make():
            A = self.enriched(decl["source"])
            base = A.base
            idx = {o: i for i, o in enumerate(A.objects)}
            values = [None] * A.n_objects
            for x, ob in decl["values"]:
                values[idx[x]] = base.carrier.obj(ob)
            action = {(idx[x], idx[y]): base.carrier.mor(m)
                      for x, y, m in decl["action"]}
            return validate_presheaf(A, values, action)

        return self._memo("presheaf", name, make)

    def weight(self, name):
        decl = self.spec.weights[name]

        def make():
            A = self.ingested(decl["source"])
            idx = {o: i for i, o in enumerate(A.objects)}
            values = [None] * A.n_objects
            for o, card in decl["values"].items():
                values[idx[o]] = SkSet(card)
            action = {}
            for x, y, table in decl["action"]:
                dom = finset.product(values[idx[y]], A.hom(idx[x], idx[y]), self.caps)
                action[(idx[x], idx[y])] = SkMap(dom, values[idx[x]], tuple(table))
            return validate_presheaf(A, values, action)

        return self._memo("weight", name, make)


# --- report ------------------------------------------------------------------

@dataclass
class CheckRecord:
    check: str
    instance: str
    verdict: str
    witnesses: list = field(default_factory=list)
    timing_ms: float = 0.0
    details: dict = field(default_factory=dict)


@dataclass
class Report:
    command: str
    spec: str
    seed: int
    records: list = field(default_factory=list)
    resource_error: str = ""

    @property
    def failure_count(self):
        return sum(1 for r in self.records if r.verdict != "pass")

    def to_machine_json(self) -> str:
        payload = {
            "enrichkit-report": 1,
            "command": self.command,
            "spec": self.spec,
            "seed": self.seed,
            "checks": [
                {
                    "check": r.check,
                    "instance": r.instance,
                    "verdict": r.verdict,
                    "witnesses": r.witnesses,
                    "timing_ms": None,
                    "details": r.details,
                }
                for r in self.records
            ],
            "summary": {
                "total": len(self.records),
                "passed": len(self.records) - self.failure_count,
                "failed": self.failure_count,
            },
        }
        if self.resource_error:
            payload["resource_error"] = self.resource_error
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"

    def to_human(self) -> str:
        lines = [f"enrichkit {self.command} — spec: {self.spec or '(none)'} "
                 f"seed: {self.seed}"]
        for r in self.records:
            mark = "PASS" if r.verdict == "pass" else r.verdict.upper()
            extra = f" {r.details}" if r.details else ""
            wit = f" witnesses: {r.witnesses}" if r.witnesses else ""
            lines.append(f"  {mark:5s} {r.check} [{r.instance}]"
                         f" ({r.timing_ms:.1f} ms){extra}{wit}")
        if self.resource_error:
            lines.append(f"  RESOURCE CAP: {self.resource_error}")
        lines.append(f"summary: {len(self.records)} checks, "
                     f"{self.failure_count} failed")
        return "\n".join(lines) + "\n"


def _run_record(report, check, instance, fn):
    t0 = time.perf_counter()
    try:
        verdict, witnesses, details = fn()
    except (SizeBound, Overflow):
        raise
    except ValidationError as exc:
        verdict = "fail"
        witnesses = [f"{type(exc).__name__}: {exc}"]
        details = {"witness": {k: str(v) for k, v in sorted(exc.witness.items())}}
    except EnrichKitError as exc:
        verdict = "error"
        witnesses = [f"{type(exc).__name__}: {exc}"]
        details = {}
    record = CheckRecord(check, instance, verdict, witnesses,
                         (time.perf_counter() - t0) * 1000.0, details)
    report.records.append(record)
    return record


def run(command, spec, options=None) -> Report:
    """Dispatch a check suite over a parsed spec file.

    options: dict with optional keys seed, max_size.
    """
    options = options or {}
    seed = options.get("seed", 0)
    caps = scaled(DEFAULT_CAPS, options.get("max_size"))
    report = Report(command, spec.path if spec else "", seed)
    builder = Builder(spec, caps) if spec else None
    try:
        if command == "validate":
            _cmd_validate(report, builder)
        elif command == "presheaves":
            _cmd_presheaves(report, builder)
        elif command == "yoneda":
            _cmd_yoneda(report, builder)
        elif command == "wcolim":
            _cmd_wcolim(report, builder, seed)
        elif command == "universal":
            _cmd_universal(report, builder, seed)
        elif command == "fuzz":
            _cmd_fuzz(report, builder, seed, caps)
        else:
            raise ParseError(f"unknown command {command!r}")
    except (SizeBound, Overflow) as exc:
        report.resource_error = f"{type(exc).__name__}: {exc}"
    return report


def _ok(details=None):
    return "pass", [], details or {}


def _cmd_validate(report, builder):
    spec = builder.spec
    for name in spec.categories:
        _run_record(report, "validate.category", name,
                    lambda name=name: _ok(_cat_details(builder.category(name))))
    for name in spec.monoidal:
        _run_record(report, "validate.monoidal", name,
                    lambda name=name: (builder.monoidal(name), _ok())[1])
    for name in spec.enriched:
        _run_record(report, "validate.enriched", name,
                    lambda name=name: (builder.enriched(name), _ok())[1])
    for name in spec.modules:
        _run_record(report, "validate.module", name,
                    lambda name=name: (builder.module(name), _ok())[1])
    for name in spec.mfunctors:
        _run_record(report, "validate.mfunctor", name,
                    lambda name=name: (builder.mfunctor(name), _ok())[1])
    for name in spec.presheaves:
        _run_record(report, "validate.presheaf", name,
                    lambda name=name: (builder.presheaf(name), _ok())[1])
    for name in spec.weights:
        _run_record(report, "validate.weight", name,
                    lambda name=name: (builder.weight(name), _ok())[1])


def _cat_details(cat):
    return {"objects": cat.n_objects, "morphisms": cat.n_morphisms}


def _cmd_presheaves(report, builder):
    for name in builder.spec.enriched:
        def check(name=name):
            pscat = enumerate_presheaves(builder.enriched(name), builder.caps)
            values = [[builder.enriched(name).base.obj_name(v) for v in p.values]
                      for p in pscat.presheaves]
            return _ok({"count": len(pscat.presheaves),
                        "morphisms": len(pscat.morphisms),
                        "values": values})

        _run_record(report, "presheaves.enumerate", name, check)


def _cmd_yoneda(report, builder):
    for name in builder.spec.enriched:
        def lemma(name=name):
            pscat = enumerate_presheaves(builder.enriched(name), builder.caps)
            rep = check_yoneda_lemma(pscat)
            verdict = "pass" if rep.passed else "fail"
            return verdict, [str(f) for f in rep.failures], {
                "presheaves": len(pscat.presheaves),
                "bijections": rep.checked,
            }

        _run_record(report, "yoneda.lemma", name, lemma)

        def faithful(name=name):
            pscat = enumerate_presheaves(builder.enriched(name), builder.caps)
            rep = check_fully_faithful(pscat, builder.caps)
            verdict = "pass" if rep.passed else "fail"
            return verdict, [str(f) for f in rep.failures], {
                "bijections": rep.checked,
                "hom_objects": [list(map(str, rec)) for rec in rep.hom_objects],
            }

        _run_record(report, "yoneda.fully_faithful", name, faithful)


def _weights_for(builder, source):
    return [(wname, builder.weight(wname))
            for wname, wdecl in builder.spec.weights.items()
            if wdecl["source"] == source]


def _cmd_wcolim(report, builder, seed):
    for fname, fdecl in builder.spec.mfunctors.items():
        for wname, W in _weights_for(builder, fdecl["source"]):
            def check(fname=fname, W=W, wname=wname):
                F = builder.mfunctor(fname)
                B = F.target
                wc = weighted_colimit(W, F, B)
                rng = random.Random(seed)
                probes = sample_probes(wc, rng, 20, B)
                rep = check_universal(wc, probes, B)
                verdict = "pass" if rep.passed else "fail"
                return verdict, [str(f) for f in rep.failures], {
                    "apex_card": wc.apex.card,
                    "probes": rep.probes,
                    "jointly_surjective": rep.jointly_surjective,
                }

            _run_record(report, "wcolim.universal", f"{wname}*{fname}", check)


def _cmd_universal(report, builder, seed):
    for fname, fdecl in builder.spec.mfunctors.items():
        def check(fname=fname, fdecl=fdecl):
            F = builder.mfunctor(fname)
            A = builder.ingested(fdecl["source"])
            weights = [w for _, w in _weights_for(builder, fdecl["source"])]
            if not weights:
                weights = [terminal_weight(A)]
            rep = check_equivalence([(A, F, weights)], seed=seed, caps=builder.caps)
            verdict = "pass" if rep.passed else "fail"
            return verdict, [str(f) for f in rep.failures], {"checks": rep.checks}

        _run_record(report, "universal.equivalence", fname, check)


def _cmd_fuzz(report, builder, seed, caps):
    sampler = CorpusSampler(seed, caps)
    unit_totals = [0, 0]  # square-only candidates, unit-law violations
    for i in range(25):
        def check(i=i):
            M = sampler.random_monoidal()
            A, pscat = sampler.random_mcat(M)
            rep = check_yoneda_lemma(pscat)
            ff = check_fully_faithful(pscat, caps)
            cand, viol, _ = measure_unit_automatism(A, base_as_module(M), caps)
            unit_totals[0] += cand
            unit_totals[1] += viol
            verdict = "pass" if rep.passed and ff.passed else "fail"
            return verdict, [str(f) for f in rep.failures + ff.failures], {
                "base": M.name,
                "objects": A.n_objects,
                "presheaves": len(pscat.presheaves),
            }

        _run_record(report, "fuzz.yoneda", f"instance{i}", check)

    for i in range(8):
        def check(i=i):
            C = sampler.random_fincat()
            A = mcat_from_fincat(C, caps)
            W = sampler.random_presheaf(A)
            F = sampler.random_diagram(A)
            wc = weighted_colimit(W, F)
            rng = random.Random(seed * 1000 + i)
            rep = check_universal(wc, sample_probes(wc, rng, 20))
            pres = canonical_presentation(W, caps)
            verdict = "pass" if rep.passed and pres.passed else "fail"
            fails = [str(f) for f in rep.failures + pres.failures]
            return verdict, fails, {"category": C.name, "apex_card": wc.apex.card}

        _run_record(report, "fuzz.wcolim", f"instance{i}", check)

    report.records.append(CheckRecord(
        "fuzz.unit_automatism", "corpus", "pass", [],
        0.0,
        {"note": "experiment: no pass/fail threshold",
         "square_only_candidates": unit_totals[0],
         "unit_law_violations": unit_totals[1],
         "mcat_acceptance_rate": round(sampler.mcat_stats.acceptance_rate, 4),
         "presheaf_samples": asdict(sampler.presheaf_stats),
         "diagram_samples": asdict(sampler.diagram_stats)}))


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="enrichkit",
        description="Finite-model checks for enriched category theory")
    ap.add_argument("--spec", help="path to a spec file (JSON)")
    ap.add_argument("--check", default="validate", choices=COMMANDS,
                    help="which check suite to run")
    ap.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    ap.add_argument("--max-size", type=int, default=None,
                    help="override the search-space cap")
    ap.add_argument("--report", help="write the machine-readable report here")
    ap.add_argument("--format", default="human", choices=("human", "machine"),
                    help="stdout format")
    args = ap.parse_args(argv)

    if args.check != "fuzz" and not args.spec:
        print("error: --spec is required for this check", file=sys.stderr)
        return 2
    try:
        spec = parse_spec(args.spec) if args.spec else None
    except (ParseError, SchemaViolation, UnresolvedReference) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report = run(args.check, spec,
                 {"seed": args.seed, "max_size": args.max_size})

    if args.format == "machine":
        sys.stdout.write(report.to_machine_json())
    else:
        sys.stdout.write(report.to_human())
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report.to_machine_json())
    if report.resource_error:
        return 3
    return 0 if report.failure_count == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
