"""The support of an enriched category and the law cells it discharges.

A law cell whose domain tensors a null hom-object (the empty set under the
finite-set product) compares two maps out of an initial object, so the law
tables keep only the cells over ``MCat.support`` and
``MCat.support_triples``.  The references below keep the full n³ and n²
tables: the brute-force scans of ``tests/test_fastpaths.py`` in each
validator's documented order, and the morphism squares over every pair.
"""

import itertools

import pytest

from enrichkit import enriched, finset
from enrichkit.corpus import CorpusSampler, terminal_weight, z2_two_object_mcat
from enrichkit.enriched import mcat_from_fincat, opposite_mcat, validate_mcat
from enrichkit.errors import CompatibilityViolation, UnitActionViolation
from enrichkit.fincat import chain_cat, discrete_cat, loop_cat, parallel_pair, walking_arrow
from enrichkit.finset import SkSet
from enrichkit.mfunctor import (
    check_mfun_mor,
    mfun_et_laws,
    mfun_square_laws,
    validate_mfun_et,
)
from enrichkit.monoidal import (
    boolean_monoidal,
    chain_meet_monoidal,
    finset_coproduct_monoidal,
    finset_product_monoidal,
    loop_monoidal,
    opposite_monoidal,
)
from enrichkit.presheaf import (
    check_presheaf_mor,
    presheaf_laws,
    presheaf_square_laws,
    presheaf_to_mfun_et,
    validate_presheaf,
    yoneda_presheaf,
)
from enrichkit.tensored import base_as_module
from enrichkit.wcolim import FinSetModule, hom_diagram, structure_presheaf_mor
from tests.test_fastpaths import brute_mfun_et_failure, brute_presheaf_failure, outcome
from tests.test_reduced_checks import chain_mcat


# --- instances ---------------------------------------------------------------

def categories_with_empty_homs():
    """Finite-set-enriched categories with an empty hom-set: the walking
    arrow, the chains on 3 and 4 objects, and the other random_fincat
    shapes that have one (the parallel pair and two discrete objects)."""
    return [mcat_from_fincat(c) for c in
            (walking_arrow(), chain_cat(3), chain_cat(4), parallel_pair(),
             discrete_cat(["d0", "d1"]))]


def codiscrete(k, n):
    """The codiscrete n-object category over Z_k, every composite r0: the
    codiscrete rungs of the presheaf ladder."""
    c = loop_monoidal(k).carrier
    xs = range(n)
    return validate_mcat(
        loop_monoidal(k), [f"x{i}" for i in xs],
        {(x, y): c.obj("*") for x in xs for y in xs}, {x: c.mor("r0") for x in xs},
        {(x, y, z): c.mor("r0") for x in xs for y in xs for z in xs},
        name=f"codiscrete{n}/k{k}")


def presheaves(A):
    """The representables, the terminal weight and seeded random draws."""
    ys = [validate_presheaf(A, p.values, p.action)
          for p in (yoneda_presheaf(A, z) for z in range(A.n_objects))]
    return ys + [terminal_weight(A)] + [CorpusSampler(s).random_presheaf(A)
                                        for s in range(4)]


def diagrams(A):
    """The covariant hom functors and seeded random draws into finite sets."""
    return ([hom_diagram(A, w) for w in range(A.n_objects)]
            + [CorpusSampler(s).random_diagram(A) for s in range(4)])


def identity_components(values):
    return tuple(finset.identity(v) for v in values)


def component_mutations(components, src_values, tgt_values):
    """Every typed single-component mutation of a component tuple."""
    for x, c in enumerate(components):
        for other in finset.all_maps(src_values[x], tgt_values[x]):
            if other != c:
                yield components[:x] + (other,) + components[x + 1:]


# --- full-table references ---------------------------------------------------

def full_presheaf_squares(f, g, t):
    """check_presheaf_mor's square witnesses over every pair (x, y)."""
    A = f.source
    base = A.base
    return [{**A.cell_names((x, y)), "kind": "square"}
            for x, y in itertools.product(range(A.n_objects), repeat=2)
            if base.compose(g.action[(x, y)],
                            base.tensor_mor(t[y], base.id_of(A.hom(x, y))))
            != base.compose(t[x], f.action[(x, y)])]


def full_mfun_squares(f, g, t):
    """check_mfun_mor's square witnesses over every pair (x, y)."""
    A, T = f.source, f.target
    return [{**A.cell_names((x, y)), "kind": "square"}
            for x, y in itertools.product(range(A.n_objects), repeat=2)
            if T.compose(g.phi[(x, y)], T.act_mor(A.base.id_of(A.hom(x, y)), t[x]))
            != T.compose(t[y], f.phi[(x, y)])]


# --- the pruned tables against the full tables -------------------------------

def test_pruned_presheaf_tables_match_full_tables_on_every_mutation():
    kinds = set()
    squares = 0
    for A in categories_with_empty_homs():
        n = A.n_objects
        assert len(A.support) < n * n
        assert len(presheaf_laws(A, [SkSet(1)] * n)[1]) < n ** 3
        ps = presheaves(A)
        for p in ps:
            for slot, a in p.action.items():
                for other in finset.all_maps(a.dom, a.cod):
                    if other == a:
                        continue
                    mutated = {**p.action, slot: other}
                    want = brute_presheaf_failure(A, p.values, mutated)
                    assert outcome(validate_presheaf, A, p.values, mutated) == want
                    kinds.add(want and want[0])
        morphisms = [(p, p, identity_components(p.values)) for p in ps]
        morphisms += [(t.source, t.target, t.components)
                      for t in (structure_presheaf_mor(A, x, y) for x, y in A.support)]
        for f, g, comps in morphisms:
            assert check_presheaf_mor(f, g, comps) == []
            for mutated in component_mutations(comps, f.values, g.values):
                want = full_presheaf_squares(f, g, mutated)
                assert check_presheaf_mor(f, g, mutated) == want
                squares += bool(want)
    assert len(kinds) == 3 and squares > 0, kinds


def test_pruned_functor_tables_match_full_tables_on_every_mutation():
    kinds = set()
    squares = 0
    for A in categories_with_empty_homs():
        n = A.n_objects
        B = FinSetModule()
        assert len(mfun_et_laws(A, B, [SkSet(1)] * n)[0]) < n ** 3
        for F in diagrams(A):
            for slot, a in F.phi.items():
                for other in finset.all_maps(a.dom, a.cod):
                    if other == a:
                        continue
                    mutated = {**F.phi, slot: other}
                    want = brute_mfun_et_failure(A, B, F.ob_map, mutated)
                    assert outcome(validate_mfun_et, A, B, F.ob_map, mutated) == want
                    kinds.add(want and want[0])
            comps = identity_components(F.ob_map)
            assert check_mfun_mor(F, F, comps) == []
            for mutated in component_mutations(comps, F.ob_map, F.ob_map):
                want = full_mfun_squares(F, F, mutated)
                assert check_mfun_mor(F, F, mutated) == want
                squares += bool(want)
    assert len(kinds) == 3 and squares > 0, kinds


# --- cell counts and the null decision ---------------------------------------

def table_sizes(A, T, values, ob_map, p, F):
    """(presheaf compat, functor square, presheaf unit, functor unit,
    presheaf-morphism square, functor-morphism square) cell counts."""
    unit, compat = presheaf_laws(A, values)
    square, funit = mfun_et_laws(A, T, ob_map)
    return (len(compat), len(square), len(unit), len(funit),
            len(presheaf_square_laws(p, p)), len(mfun_square_laws(F, F)))


def test_chain8_tables_hold_only_the_cells_over_the_support():
    A = mcat_from_fincat(chain_cat(8))
    ones = [SkSet(1)] * 8
    assert A.support == tuple((x, y) for x in range(8) for y in range(x, 8))
    assert A.support_triples == tuple(
        c for c in itertools.product(range(8), repeat=3) if c[0] <= c[1] <= c[2])
    sizes = table_sizes(A, FinSetModule(), ones, ones, terminal_weight(A),
                        hom_diagram(A, 0))
    assert sizes == (120, 120, 8, 8, 36, 36)
    unit, compat = presheaf_laws(A, ones)
    assert [cell for _, _, cell in compat] == list(A.support_triples)
    assert [needed for needed, _, _ in compat] == [
        ((x, y), (y, z), (x, z)) for x, y, z in A.support_triples]


@pytest.mark.parametrize("make", [lambda: codiscrete(3, 3), lambda: codiscrete(4, 3),
                                  z2_two_object_mcat])
def test_codiscrete_rungs_and_z2_pair_keep_every_cell(make):
    A = make()
    n = A.n_objects
    T = base_as_module(A.base)
    r0 = A.base.carrier.mor("r0")
    p = validate_presheaf(A, [0] * n, {xy: r0 for xy in itertools.product(range(n), repeat=2)})
    F = validate_mfun_et(A, T, [0] * n, p.action)
    assert A.support == tuple(itertools.product(range(n), repeat=2))
    assert table_sizes(A, T, p.values, F.ob_map, p, F) == (n ** 3, n ** 3, n, n, n * n, n * n)


def test_null_objects_are_the_empty_set_under_product_only():
    product = finset_product_monoidal()
    sets = [SkSet(c) for c in range(4)]
    for base in (product, opposite_monoidal(product)):
        assert [base.is_null(s) for s in sets] == [True, False, False, False]
    coproduct = finset_coproduct_monoidal()
    for base in (coproduct, opposite_monoidal(coproduct)):
        assert not any(base.is_null(s) for s in sets)
    for base in (boolean_monoidal(), chain_meet_monoidal(3), loop_monoidal(2)):
        assert not any(base.is_null(m) for m in base.objects())
    # so the bottom of a chain-meet ladder rung keeps its pairs (its law
    # tables are empty for thinness instead)
    for k, n in ((3, 4), (4, 5)):
        R = chain_mcat(k, n)
        assert len(R.support) == n * n and len(R.support_triples) == n ** 3


# --- value semantics ---------------------------------------------------------

def test_support_is_a_value_and_equality_ignores_it():
    for make in (walking_arrow, parallel_pair, lambda: chain_cat(4)):
        A, A2 = mcat_from_fincat(make()), mcat_from_fincat(make())
        assert A is not A2 and A == A2 and hash(A) == hash(A2)
        assert (A.support, A.support_triples) == (A2.support, A2.support_triples)
        op = opposite_mcat(A)
        assert op.support == tuple(sorted((y, x) for x, y in A.support))
        back = opposite_mcat(op)
        assert back == A and hash(back) == hash(A)
        assert (back.support, back.support_triples) == (A.support, A.support_triples)
        # the support is derived: equality and hash do not read it
        A2.support, A2.support_triples = (), ()
        assert A == A2 and hash(A) == hash(A2)


# --- rule C: the generator slice against the full tables ----------------------

def rule_c_categories():
    """The finite-set-enriched loop3, parallel pair and chain3 and their
    opposites, built afresh so each computes its own generators."""
    cats = [mcat_from_fincat(c) for c in (loop_cat(3), parallel_pair(), chain_cat(3))]
    return [A for a in cats for A in (a, opposite_mcat(a))]


def hom_functors(A):
    """The covariant hom functors hom(w, -) into the base acting on itself,
    over either tensor order, and the maps hom(w, -) -> hom(v, -) given by
    restriction along each point of hom(v, w)."""
    base = A.base
    T = base_as_module(base)
    xs = range(A.n_objects)
    fs = [validate_mfun_et(A, T, [A.hom(w, x) for x in xs],
                           {(x, y): A.comp(w, x, y) for x in xs for y in xs})
          for w in xs]
    mors = [(fs[w], fs[v], tuple(base.compose(A.comp(v, w, x),
                                              base.tensor_mor(base.id_of(A.hom(w, x)), pt))
                                 for x in xs))
            for v in xs for w in xs for pt in base.hom(base.unit, A.hom(v, w))]
    return fs, mors


def rule_c_cases(A):
    """(label, validator outcome, full-table outcome) for every typed
    single-cell mutation of the presheaves and diagrams on A and of the
    components of morphisms between them; lazy, so a caller can stop at the
    first disagreement."""
    op = opposite_mcat(A)
    ps = presheaves(A)
    fs, fmors = hom_functors(A)
    fs += [presheaf_to_mfun_et(p, A) for p in presheaves(op)[-2:]]
    if A.base == FinSetModule().base:
        fs += [CorpusSampler(s).random_diagram(A) for s in range(2)]
    for p in ps:
        for slot, a in p.action.items():
            for other in finset.all_maps(a.dom, a.cod):
                if other != a:
                    mutated = {**p.action, slot: other}
                    yield ("presheaf", outcome(validate_presheaf, A, p.values, mutated),
                           brute_presheaf_failure(A, p.values, mutated))
    for F in fs:
        T = F.target
        for slot, a in F.phi.items():
            for other in finset.all_maps(a.dom, a.cod):
                if other != a:
                    mutated = {**F.phi, slot: other}
                    yield ("functor", outcome(validate_mfun_et, A, T, F.ob_map, mutated),
                           brute_mfun_et_failure(A, T, F.ob_map, mutated))
    pmors = [(p, p, identity_components(p.values)) for p in ps]
    pmors += [(t.source, t.target, t.components)
              for t in (structure_presheaf_mor(A, x, y) for x, y in A.support)]
    fmors += [(F, F, identity_components(F.ob_map)) for F in fs]
    for mors, check, full in ((pmors, check_presheaf_mor, full_presheaf_squares),
                              (fmors, check_mfun_mor, full_mfun_squares)):
        for f, g, comps in mors:
            ends = (f.values, g.values) if check is check_presheaf_mor else (f.ob_map, g.ob_map)
            yield ("square", check(f, g, comps), full(f, g, comps))
            for mutated in component_mutations(comps, *ends):
                yield ("square", check(f, g, mutated), full(f, g, mutated))


def test_generator_slice_gives_the_full_scan_verdict_on_every_mutation():
    kinds = set()
    outside = 0
    for A in rule_c_categories():
        pairs = A.generator_pairs()
        for label, got, want in rule_c_cases(A):
            assert got == want, (A, label)
            if label == "square":
                kinds.add(("square", bool(want)))
                continue
            kinds.add(want and want[0])
            # a first witness outside the generator slice comes from the rerun
            if want and len(want[1]) == 3:
                outside += tuple(A.objects.index(want[1][k]) for k in "yz") not in pairs
    assert {None, UnitActionViolation, CompatibilityViolation} < kinds
    assert {("square", True), ("square", False)} < kinds
    assert outside > 0


def test_a_dropped_generator_is_caught_by_the_mutation_guard(monkeypatch):
    # rule C with one generator left out of S is unsound; the cases above
    # must show it on some instance
    generating = enriched._generating_elements
    caught = []
    for index in range(2):
        monkeypatch.setattr(enriched, "_generating_elements",
                            lambda A: generating(A)[:index] + generating(A)[index + 1:])
        caught += [A for A in rule_c_categories() if len(generating(A)) > index
                   and any(got != want for _, got, want in rule_c_cases(A))]
    monkeypatch.undo()
    assert caught
