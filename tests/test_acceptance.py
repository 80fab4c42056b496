"""Acceptance suite: one test per criterion, one printed verdict line each.

Every tolerance is pinned here: the structural checks demand zero failures,
the timed corpora must finish inside 60 seconds, and the unit-automatism
experiment reports a count with no pass/fail threshold (the printed line
states that explicitly).
"""

import random
import time

from enrichkit import finset
from enrichkit.cli import parse_spec, run
from enrichkit.corpus import (
    CorpusSampler,
    idempotent_unit_instance,
    shipped_yoneda_corpus,
    swap_instance,
    terminal_weight,
    z2_two_object_mcat,
)
from enrichkit.enriched import mcat_from_fincat, validate_mcat
from enrichkit.errors import (
    AssociativityViolation,
    BifunctorialityViolation,
    CocycleViolation,
    CompatibilityViolation,
    EnrichedAssociativityViolation,
    ModuleLawViolation,
)
from enrichkit.fincat import fin_functor, loop_cat, monoid_cat
from enrichkit.mfunctor import (
    measure_unit_automatism,
    validate_mfun_et,
    validate_mfun_tt,
)
from enrichkit.monoidal import loop_monoidal, validate_monoidal
from enrichkit.presheaf import (
    check_fully_faithful,
    check_yoneda_lemma,
    enumerate_presheaves,
    yoneda_presheaf,
)
from enrichkit.tensored import base_as_module, validate_module
from enrichkit.wcolim import (
    canonical_presentation,
    check_equivalence,
    check_universal,
    ext,
    sample_probes,
    weighted_colimit,
)

SEED = 20240601
RANDOM_YONEDA_INSTANCES = 100
RANDOM_COLIMIT_INSTANCES = 20
TIME_BUDGET_S = 60.0

_random_yoneda_cache = []


def _verdict(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    return ok


def _random_yoneda_corpus():
    """The seeded random (M, A) corpus, shared across criteria 1, 2 and 8."""
    if not _random_yoneda_cache:
        sampler = CorpusSampler(SEED)
        instances = []
        for _ in range(RANDOM_YONEDA_INSTANCES):
            M = sampler.random_monoidal()
            A, pscat = sampler.random_mcat(M)
            instances.append((M, A, pscat))
        _random_yoneda_cache.append((sampler, instances))
    return _random_yoneda_cache[0]


def test_criterion_1_yoneda_lemma():
    t0 = time.monotonic()
    failures = 0
    checked = 0
    shipped_counts = {}
    for name, A in shipped_yoneda_corpus():
        pscat = enumerate_presheaves(A)
        shipped_counts[name] = len(pscat.presheaves)
        rep = check_yoneda_lemma(pscat)
        failures += len(rep.failures)
        checked += rep.checked
    _, instances = _random_yoneda_corpus()
    for _, _, pscat in instances:
        rep = check_yoneda_lemma(pscat)
        failures += len(rep.failures)
        checked += rep.checked
    elapsed = time.monotonic() - t0
    ok = (failures == 0
          and shipped_counts["bool-chain2"] == 3
          and shipped_counts["s3-pair"] == 6
          and len(instances) >= 100
          and elapsed <= TIME_BUDGET_S)
    assert _verdict(
        1, ok,
        f"Yoneda lemma: {checked} bijections on 3 shipped + "
        f"{len(instances)} random instances, {failures} failures, "
        f"{elapsed:.1f}s")


def test_criterion_2_fully_faithful():
    failures = 0
    checked = 0
    exact_shipped = True
    for name, A in shipped_yoneda_corpus():
        rep = check_fully_faithful(enumerate_presheaves(A))
        failures += len(rep.failures)
        checked += rep.checked
        exact_shipped &= all(rec[3] for rec in rep.hom_objects)
        failures += sum(0 if rec[4] else 1 for rec in rep.hom_objects)
    _, instances = _random_yoneda_corpus()
    for _, _, pscat in instances:
        rep = check_fully_faithful(pscat)
        failures += len(rep.failures)
        checked += rep.checked
        for rec in rep.hom_objects:
            # hom(x, y) itself must represent, and the first representing
            # object found must be isomorphic to it
            if not rec[4] or not rec[5]:
                failures += 1
    ok = failures == 0 and exact_shipped
    assert _verdict(
        2, ok,
        f"fully faithful Yoneda: {checked} bijections, hom-object recovery "
        f"exact on shipped corpus, {failures} failures")


def test_criterion_3_weighted_colimits():
    t0 = time.monotonic()
    failures = []
    A, W, F = swap_instance()
    wc = weighted_colimit(W, F)
    if wc.apex.card != 1:
        failures.append("swap apex != 1")
    sampler = CorpusSampler(SEED + 1)
    rng = random.Random(SEED + 2)
    for i in range(RANDOM_COLIMIT_INSTANCES):
        A = mcat_from_fincat(sampler.random_fincat())
        F = sampler.random_diagram(A)
        G = ext(F)
        for x in range(A.n_objects):
            wcx = G.colimit(yoneda_presheaf(A, x))
            legs = tuple(F.phi[(z, x)] for z in range(A.n_objects))
            from enrichkit.wcolim import mediate
            mu = mediate(wcx, legs, F.ob_map[x], G.module)
            if mu is None or not finset.is_bijection(mu):
                failures.append(f"co-Yoneda failed at instance {i}")
        Wr = sampler.random_presheaf(A)
        wcr = weighted_colimit(Wr, F)
        rep = check_universal(wcr, sample_probes(wcr, rng, 20))
        if not rep.passed:
            failures.append(f"universality failed at instance {i}")
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed <= TIME_BUDGET_S
    assert _verdict(
        3, ok,
        f"weighted colimits: swap apex 1, co-Yoneda + universality on "
        f"{RANDOM_COLIMIT_INSTANCES} random instances with 20 probes each, "
        f"{len(failures)} failures, {elapsed:.1f}s")


def test_criterion_4_canonical_presentation():
    sampler = CorpusSampler(SEED + 3)
    failures = 0
    for _ in range(RANDOM_COLIMIT_INSTANCES):
        A = mcat_from_fincat(sampler.random_fincat())
        F = sampler.random_presheaf(A)
        rep = canonical_presentation(F)
        if not rep.passed:
            failures += 1
    ok = failures == 0
    assert _verdict(
        4, ok,
        f"canonical presentation: natural isomorphism found pointwise on "
        f"{RANDOM_COLIMIT_INSTANCES}/{RANDOM_COLIMIT_INSTANCES + failures} "
        f"random presheaves")


def test_criterion_5_ext_res_equivalence():
    sampler = CorpusSampler(SEED + 4)
    entries = []
    A, W, F = swap_instance()
    entries.append((A, F, [W]))
    for _ in range(RANDOM_COLIMIT_INSTANCES):
        Ar = mcat_from_fincat(sampler.random_fincat())
        Fr = sampler.random_diagram(Ar)
        entries.append((Ar, Fr, [sampler.random_presheaf(Ar),
                                 terminal_weight(Ar)]))
    rep = check_equivalence(entries)
    ok = rep.passed
    assert _verdict(
        5, ok,
        f"Ext/Res equivalence: {rep.checks} checks over {rep.instances} "
        f"instances (round trips, sampled non-representable weights, "
        f"coproduct/coequalizer preservation), {len(rep.failures)} failures")


def test_criterion_6_validator_sharpness():
    caught = 0
    # (a) category associativity: corrupted cyclic-monoid table
    mult = {(f"r{g}", f"r{f}"): f"r{(g + f) % 3}"
            for g in range(3) for f in range(3)}
    mult[("r1", "r2")] = "r1"
    try:
        monoid_cat(["r0", "r1", "r2"], mult)
    except AssociativityViolation as exc:
        if exc.witness == {"h": "r1", "g": "r1", "f": "r1"}:
            caught += 1
    # (b) monoidal bifunctoriality: corrupted Z2 tensor cell
    try:
        validate_monoidal(loop_cat(2), "*", [("*", "*", "*")],
                          [("r0", "r0", "r0"), ("r0", "r1", "r1"),
                           ("r1", "r0", "r1"), ("r1", "r1", "r1")])
    except BifunctorialityViolation as exc:
        if set(exc.witness) == {"g", "g'", "f", "f'"}:
            caught += 1
    # (c) enriched associativity: corrupted composition over the Z2 base
    Az = z2_two_object_mcat()
    comp = dict(Az._comp)
    comp[(0, 1, 0)] = 1
    try:
        validate_mcat(Az.base, Az.objects, Az._hom, Az._unit, comp)
    except EnrichedAssociativityViolation as exc:
        if set(exc.witness) == {"w", "x", "y", "z"}:
            caught += 1
    # (d) module law: corrupted self-action of discrete S3
    from tests.test_tensored import s3_self_module_tables

    M, c, act_ob, act_mor = s3_self_module_tables()
    act_ob[(c.obj("s12"), c.obj("s13"))] = c.obj("e")
    try:
        validate_module(M, M.carrier, act_ob, act_mor)
    except ModuleLawViolation as exc:
        if set(exc.witness) == {"m", "n", "b"}:
            caught += 1
    # (e) structure-map cocycle: flipped component on the Z2 module
    Mz = loop_monoidal(2)
    mod = base_as_module(Mz)
    f = fin_functor(Mz.carrier, Mz.carrier, (0,), (0, 1))
    try:
        validate_mfun_tt(mod, mod, f, {(0, 0): Mz.carrier.mor("r1")})
    except CocycleViolation as exc:
        if exc.witness == {"m": "*", "n": "*", "a": "*"}:
            caught += 1
    # (f) functor compatibility square: corrupted action component
    phi = {(x, y): 0 for x in range(2) for y in range(2)}
    phi[(0, 1)] = 1
    try:
        validate_mfun_et(Az, base_as_module(Az.base), (0, 0), phi)
    except CompatibilityViolation as exc:
        if exc.witness == {"x": "x", "y": "y", "z": "x"}:
            caught += 1
    ok = caught == 6
    assert _verdict(6, ok, f"validator sharpness: {caught}/6 single-cell "
                           f"mutations caught with correct witnesses")


def test_criterion_7_determinism(tmp_path):
    a = run("fuzz", None, {"seed": 2024}).to_machine_json().encode()
    b = run("fuzz", None, {"seed": 2024}).to_machine_json().encode()
    import pathlib

    specs = pathlib.Path(__file__).resolve().parent.parent / "demos" / "specs"
    spec = parse_spec(specs / "boolean_chain.json")
    c = run("yoneda", spec, {"seed": 7}).to_machine_json().encode()
    d = run("yoneda", spec, {"seed": 7}).to_machine_json().encode()
    ok = a == b and c == d
    assert _verdict(
        7, ok,
        f"determinism: fuzz and yoneda machine reports byte-identical "
        f"across two invocations ({len(a)} and {len(c)} bytes)")


def test_criterion_8_unit_automatism_experiment():
    # experiment, not a pass/fail threshold: count action assignments that
    # satisfy the compatibility square but violate the unit law
    candidates = 0
    violations = 0
    _, instances = _random_yoneda_corpus()
    for M, A, _ in instances:
        c, v, _ = measure_unit_automatism(A, base_as_module(M))
        candidates += c
        violations += v
    # the designed separating instance: an idempotent endomorphism target
    Ai, Bi = idempotent_unit_instance()
    ci, vi, _ = measure_unit_automatism(Ai, Bi)
    mechanism_works = vi == 1 and ci == 2
    assert _verdict(
        8, mechanism_works,
        f"unit-automatism experiment (no pass/fail threshold): on the "
        f"{len(instances)}-instance random corpus {candidates} "
        f"square-only candidates, {violations} unit-law violations; the "
        f"designed idempotent-target instance yields {vi}/{ci} violations, "
        f"so the square alone does not force the unit law in general")
