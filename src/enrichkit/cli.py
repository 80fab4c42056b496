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
from types import SimpleNamespace

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
    TypeMismatch,
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
# Section -> declaration kind, in dependency order: a section refers only to
# the sections before it.  The kind names the reader, the Builder method and
# the ``validate.<kind>`` check.
SECTIONS = {"categories": "category", "monoidal": "monoidal",
            "enriched": "enriched", "modules": "module",
            "mfunctors": "mfunctor", "presheaves": "presheaf",
            "weights": "weight"}


@dataclass
class SpecFile:
    """Resolved declarations, name-keyed in declaration order per section."""
    path: str
    categories: dict
    monoidal: dict
    enriched: dict
    modules: dict
    mfunctors: dict
    presheaves: dict
    weights: dict


def parse_spec(path) -> SpecFile:
    """Read a spec file and resolve every declaration once.

    Each declaration's keys, shapes and names are checked by its kind's
    reader, which stores the rows, names and cardinalities its validator
    takes.  Semantic validation (axiom checking) is left to the
    ``validate`` command so violations become report content rather than
    parse errors.
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
    spec = SpecFile(str(path), *({} for _ in SECTIONS))
    reader = _Reader(spec)
    for section, kind in SECTIONS.items():
        decls = raw.get(section, {})
        if not isinstance(decls, dict):
            raise SchemaViolation(f"{path}: section {section!r} must be an object")
        resolved = getattr(spec, section)
        for name, decl in decls.items():
            resolved[name] = getattr(reader, kind)(name, decl)
    return spec


def _is_name(v):
    return isinstance(v, str)


def _is_card(v):
    return isinstance(v, int) and v >= 0


def _is_table(v):
    return isinstance(v, list) and all(isinstance(i, int) for i in v)


def _index(objects):
    return {o: i for i, o in enumerate(objects)}


def _object_with_keys(where, raw, keys, optional=()):
    if not isinstance(raw, dict):
        raise SchemaViolation(f"{where} must be an object")
    missing = [k for k in keys if k not in raw]
    if missing:
        raise SchemaViolation(f"{where} lacks {missing}")
    extra = sorted(set(raw) - set(keys) - set(optional))
    if extra:
        raise SchemaViolation(f"{where} has unknown keys {extra}")
    return raw


class _Decl:
    """One declaration: an object with exactly the given keys, read key by
    key.  Each value read has a column: a set of declared names (a dict
    resolves each name to its value, such as an object index) or a
    predicate on the JSON value."""

    def __init__(self, kind, name, raw, keys, optional=()):
        self.where = f"{kind} {name!r}"
        self.raw = _object_with_keys(self.where, raw, keys, optional)

    def value(self, key, column):
        value = self.raw[key]
        return self._cell(key, value, value, column)

    def names(self, key):
        """A list of names being declared."""
        return [self._cell(key, v, v, _is_name) for v in self._list(key)]

    def rows(self, key, *columns, fields=()):
        """A list of entries, one value per column, as tuples.  With
        ``fields`` an entry may also be an object with exactly those keys."""
        out = []
        for entry in self._list(key):
            row = entry
            if fields and isinstance(entry, dict):
                row = [_object_with_keys(f"{self.where}: {key} entry", entry,
                                         fields)[f] for f in fields]
            if not isinstance(row, list) or len(row) != len(columns):
                raise SchemaViolation(f"{self.where}: malformed {key} entry {entry!r}")
            out.append(tuple(self._cell(key, entry, v, col)
                             for v, col in zip(row, columns)))
        return out

    def map(self, key, names, column, total=True):
        """An object from names in ``names`` to values; ``total`` demands
        one value for every name."""
        value = self.raw[key]
        if not isinstance(value, dict):
            raise SchemaViolation(f"{self.where}: {key} must be an object")
        out = {self._cell(key, k, k, names): self._cell(key, value, v, column)
               for k, v in value.items()}
        if total and len(out) != len(names):
            raise SchemaViolation(
                f"{self.where}: {key} must give a value for every object of the source")
        return out

    def _list(self, key):
        value = self.raw[key]
        if not isinstance(value, list):
            raise SchemaViolation(f"{self.where}: {key} must be a list")
        return value

    def _cell(self, key, entry, value, column):
        if callable(column):
            if column(value):
                return value
            raise SchemaViolation(f"{self.where}: malformed {key} entry {entry!r}")
        if not isinstance(value, str):
            raise SchemaViolation(
                f"{self.where}: {key} entry {entry!r} has {value!r} where a name belongs")
        if value not in column:
            raise UnresolvedReference(f"{self.where}: {key} names undeclared {value!r}")
        return column[value] if isinstance(column, dict) else value


class _Reader:
    """One reader per declaration kind.  Each checks a declaration against
    the sections read before it and returns the resolved declaration:
    source objects as indices, base and carrier cells as names."""

    def __init__(self, spec: SpecFile):
        self.spec = spec

    def _table_names(self, d, base):
        names = self.spec.monoidal[base].names
        if names is None:
            raise SchemaViolation(f"{d.where}: base {base!r} must have a table carrier")
        return names

    def category(self, name, raw):
        d = _Decl("category", name, raw, ("objects", "morphisms", "compose"),
                  ("identity",))
        objects = d.names("objects")
        obs = set(objects)
        morphisms = d.rows("morphisms", _is_name, obs, obs,
                           fields=("name", "dom", "cod"))
        mors = {m for m, _, _ in morphisms}
        return SimpleNamespace(
            objects=objects, morphisms=morphisms, names=(obs, mors),
            compose=d.rows("compose", mors, mors, mors),
            identity=d.map("identity", obs, mors, total=False)
            if "identity" in d.raw else None)

    def monoidal(self, name, raw):
        if isinstance(raw, dict) and raw.get("carrier") in BUILTIN_CARRIERS:
            _Decl("monoidal", name, raw, ("carrier",))
            return SimpleNamespace(carrier=raw["carrier"], names=None)
        d = _Decl("monoidal", name, raw, ("carrier", "unit", "tensor_ob", "tensor_mor"))
        carrier = d.value("carrier", self.spec.categories.keys())
        obs, mors = names = self.spec.categories[carrier].names
        return SimpleNamespace(
            carrier=carrier, names=names, unit=d.value("unit", obs),
            tensor_ob=d.rows("tensor_ob", obs, obs, obs),
            tensor_mor=d.rows("tensor_mor", mors, mors, mors))

    def enriched(self, name, raw):
        d = _Decl("enriched", name, raw, ("base", "objects", "hom", "unit", "comp"))
        base = d.value("base", self.spec.monoidal.keys())
        objects = d.names("objects")
        idx = _index(objects)
        # over finite sets: cardinalities and function tables, not names
        ob, mor = self.spec.monoidal[base].names or (_is_card, _is_table)
        return SimpleNamespace(
            base=base, objects=objects, index=idx,
            hom=d.rows("hom", idx, idx, ob), unit=d.rows("unit", idx, mor),
            comp=d.rows("comp", idx, idx, idx, mor))

    def module(self, name, raw):
        if isinstance(raw, dict) and raw.get("self") is True:
            d = _Decl("module", name, raw, ("base", "self"))
            return SimpleNamespace(base=d.value("base", self.spec.monoidal.keys()),
                                   carrier=None)
        d = _Decl("module", name, raw, ("base", "carrier", "act_ob", "act_mor"),
                  ("self",))
        if "self" in d.raw:
            d.value("self", lambda v: v is False)
        base = d.value("base", self.spec.monoidal.keys())
        bobs, bmors = self._table_names(d, base)
        carrier = d.value("carrier", self.spec.categories.keys())
        obs, mors = self.spec.categories[carrier].names
        return SimpleNamespace(
            base=base, carrier=carrier,
            act_ob=d.rows("act_ob", bobs, obs, obs),
            act_mor=d.rows("act_mor", bmors, mors, mors))

    def mfunctor(self, name, raw):
        d = _Decl("mfunctor", name, raw, ("source", "target", "ob_map", "phi"))
        source = d.value("source", self.spec.categories.keys())
        d.value("target", {"finset"})
        idx = _index(self.spec.categories[source].objects)
        return SimpleNamespace(source=source, ob_map=d.map("ob_map", idx, _is_card),
                               phi=d.rows("phi", idx, idx, _is_table))

    def presheaf(self, name, raw):
        d = _Decl("presheaf", name, raw, ("source", "values", "action"))
        source = d.value("source", self.spec.enriched.keys())
        A = self.spec.enriched[source]
        obs, mors = self._table_names(d, A.base)
        values = dict(d.rows("values", A.index, obs))
        if len(values) != len(d.raw["values"]) or len(values) != len(A.index):
            raise SchemaViolation(
                f"{d.where}: values must name every object of the source exactly once")
        return SimpleNamespace(source=source, values=values,
                               action=d.rows("action", A.index, A.index, mors))

    def weight(self, name, raw):
        d = _Decl("weight", name, raw, ("source", "values", "action"))
        source = d.value("source", self.spec.categories.keys())
        idx = _index(self.spec.categories[source].objects)
        return SimpleNamespace(source=source, values=d.map("values", idx, _is_card),
                               action=d.rows("action", idx, idx, _is_table))


def _built(section):
    """A Builder method over one section: ``make(self, decl, name)`` runs
    on the resolved declaration, once per name that builds."""
    def wrap(make):
        def method(self, name):
            key = (make.__name__, name)
            if key not in self._cache:
                self._cache[key] = make(self, getattr(self.spec, section)[name], name)
            return self._cache[key]
        return method
    return wrap


def _table_map(dom, cod, table, message, witness):
    """The map dom -> cod with a spec's function table.  A table of another
    length or with an entry outside cod fails as the validator's typing
    check would: a TypeMismatch naming the declaration's cell."""
    if len(table) != dom.card or not all(0 <= v < cod.card for v in table):
        raise TypeMismatch(message, witness=witness)
    return SkMap(dom, cod, tuple(table))


class Builder:
    """Builds validated objects from a parsed spec, with caching."""

    def __init__(self, spec: SpecFile, caps=DEFAULT_CAPS):
        self.spec = spec
        self.caps = caps
        self._cache = {}

    @_built("categories")
    def category(self, decl, name):
        return validate_fincat(decl.objects, decl.morphisms, decl.compose,
                               decl.identity, name=name, caps=self.caps)

    @_built("categories")
    def ingested(self, decl, name):
        return mcat_from_fincat(self.category(name), self.caps)

    @_built("monoidal")
    def monoidal(self, decl, name):
        if decl.carrier == "finset-product":
            return finset_product_monoidal(self.caps)
        if decl.carrier == "finset-coproduct":
            return finset_coproduct_monoidal(self.caps)
        return validate_monoidal(self.category(decl.carrier), decl.unit,
                                 decl.tensor_ob, decl.tensor_mor, name=name)

    @_built("enriched")
    def enriched(self, decl, name):
        base = self.monoidal(decl.base)
        if base.is_finite:
            carrier = base.carrier
            hom = {(x, y): carrier.obj(ob) for x, y, ob in decl.hom}
            unit = {x: carrier.mor(m) for x, m in decl.unit}
            comp = {(x, y, z): carrier.mor(m) for x, y, z, m in decl.comp}
        else:
            hom = {(x, y): SkSet(ob) for x, y, ob in decl.hom}
            unit, comp = {}, {}
            # the tables are typed by hom: when a hom cell is missing, the
            # validator names it before reading them
            if len(hom) == len(decl.objects) ** 2:
                obs = decl.objects
                unit = {x: _table_map(
                            SkSet(1), hom[(x, x)], m,
                            f"unit of {obs[x]!r} is not a morphism 1 -> hom(x, x)",
                            {"x": obs[x]})
                        for x, m in decl.unit}
                comp = {(x, y, z): _table_map(
                            base.tensor_ob(hom[(y, z)], hom[(x, y)]), hom[(x, z)], m,
                            f"comp({obs[x]!r}, {obs[y]!r}, {obs[z]!r}) has wrong dom/cod",
                            {"x": obs[x], "y": obs[y], "z": obs[z]})
                        for x, y, z, m in decl.comp}
        return validate_mcat(base, decl.objects, hom, unit, comp, name=name)

    @_built("enriched")
    def presheaf_category(self, decl, name):
        return enumerate_presheaves(self.enriched(name), self.caps)

    @_built("modules")
    def module(self, decl, name):
        base = self.monoidal(decl.base)
        if decl.carrier is None:
            return base_as_module(base)
        carrier, bc = self.category(decl.carrier), base.carrier
        act_ob = {(bc.obj(m), carrier.obj(c)): carrier.obj(c2)
                  for m, c, c2 in decl.act_ob}
        act_mor = {(bc.mor(u), carrier.mor(h)): carrier.mor(h2)
                   for u, h, h2 in decl.act_mor}
        return validate_module(base, carrier, act_ob, act_mor, name=name)

    @_built("mfunctors")
    def mfunctor(self, decl, name):
        A = self.ingested(decl.source)
        ob_map = [SkSet(decl.ob_map[x]) for x in range(A.n_objects)]
        phi = {(x, y): _table_map(finset.product(A.hom(x, y), ob_map[x], self.caps),
                                  ob_map[y], table, "action component has wrong dom/cod",
                                  A.cell_names((x, y)))
               for x, y, table in decl.phi}
        return validate_mfun_et(A, FinSetModule(self.caps), ob_map, phi, name=name)

    @_built("presheaves")
    def presheaf(self, decl, name):
        A = self.enriched(decl.source)
        carrier = A.base.carrier
        values = [carrier.obj(decl.values[x]) for x in range(A.n_objects)]
        action = {(x, y): carrier.mor(m) for x, y, m in decl.action}
        return validate_presheaf(A, values, action)

    @_built("weights")
    def weight(self, decl, name):
        A = self.ingested(decl.source)
        values = [SkSet(decl.values[x]) for x in range(A.n_objects)]
        action = {(x, y): _table_map(finset.product(values[y], A.hom(x, y), self.caps),
                                     values[x], table, "action component has wrong dom/cod",
                                     A.cell_names((x, y)))
                  for x, y, table in decl.action}
        return validate_presheaf(A, values, action)


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
            _cmd_universal(report, builder)
        elif command == "fuzz":
            _cmd_fuzz(report, seed, caps)
        else:
            raise ParseError(f"unknown command {command!r}")
    except (SizeBound, Overflow) as exc:
        report.resource_error = f"{type(exc).__name__}: {exc}"
    return report


def _ok(details=None):
    return "pass", [], details or {}


def _cmd_validate(report, builder):
    for section, kind in SECTIONS.items():
        for name in getattr(builder.spec, section):
            def check(kind=kind, name=name):
                built = getattr(builder, kind)(name)
                return _ok(_cat_details(built) if kind == "category" else None)

            _run_record(report, f"validate.{kind}", name, check)


def _cat_details(cat):
    return {"objects": cat.n_objects, "morphisms": cat.n_morphisms}


def _cmd_presheaves(report, builder):
    for name in builder.spec.enriched:
        def check(name=name):
            pscat = builder.presheaf_category(name)
            values = [[builder.enriched(name).base.obj_name(v) for v in p.values]
                      for p in pscat.presheaves]
            return _ok({"count": len(pscat.presheaves),
                        "morphisms": len(pscat.morphisms),
                        "values": values})

        _run_record(report, "presheaves.enumerate", name, check)


def _cmd_yoneda(report, builder):
    for name in builder.spec.enriched:
        def lemma(name=name):
            pscat = builder.presheaf_category(name)
            rep = check_yoneda_lemma(pscat)
            verdict = "pass" if rep.passed else "fail"
            return verdict, [str(f) for f in rep.failures], {
                "presheaves": len(pscat.presheaves),
                "bijections": rep.checked,
            }

        _run_record(report, "yoneda.lemma", name, lemma)

        def faithful(name=name):
            pscat = builder.presheaf_category(name)
            rep = check_fully_faithful(pscat)
            verdict = "pass" if rep.passed else "fail"
            return verdict, [str(f) for f in rep.failures], {
                "bijections": rep.checked,
                "hom_objects": [list(map(str, rec)) for rec in rep.hom_objects],
            }

        _run_record(report, "yoneda.fully_faithful", name, faithful)


def _weights_on(spec, source):
    return [wname for wname, wdecl in spec.weights.items() if wdecl.source == source]


def _cmd_wcolim(report, builder, seed):
    for fname, fdecl in builder.spec.mfunctors.items():
        for wname in _weights_on(builder.spec, fdecl.source):
            def check(fname=fname, wname=wname):
                W = builder.weight(wname)
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


def _cmd_universal(report, builder):
    for fname, fdecl in builder.spec.mfunctors.items():
        def check(fname=fname, fdecl=fdecl):
            F = builder.mfunctor(fname)
            A = builder.ingested(fdecl.source)
            weights = [builder.weight(w) for w in _weights_on(builder.spec, fdecl.source)]
            if not weights:
                weights = [terminal_weight(A)]
            rep = check_equivalence([(A, F, weights)], caps=builder.caps)
            verdict = "pass" if rep.passed else "fail"
            return verdict, [str(f) for f in rep.failures], {"checks": rep.checks}

        _run_record(report, "universal.equivalence", fname, check)


def _cmd_fuzz(report, seed, caps):
    sampler = CorpusSampler(seed, caps)
    unit_totals = [0, 0]  # square-only candidates, unit-law violations
    for i in range(25):
        def check(i=i):
            M = sampler.random_monoidal()
            A, pscat = sampler.random_mcat(M)
            rep = check_yoneda_lemma(pscat)
            ff = check_fully_faithful(pscat)
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
