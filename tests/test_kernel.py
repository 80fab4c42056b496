"""The index kernel of fincat against the name boundary, the order in which
the boundary reports defects, and the size caps of family categories.

Derived categories (presheaf and functor categories) are built on indices
and validated by ``validate_rows``; spec and table input goes through
``validate_fincat``.  Both must give equal categories on the same tables
and raise the same error on the same defect.
"""

import pytest

from enrichkit.caps import Caps
from enrichkit.corpus import boolean_chain_mcat, s3_monoidal, z2_two_object_mcat
from enrichkit.enriched import opposite_mcat, validate_mcat
from enrichkit.errors import (
    AssociativityViolation,
    DanglingReference,
    EnrichKitError,
    IllTypedComposite,
    MissingComposite,
    SizeBound,
    UnitViolation,
)
from enrichkit.fincat import family_category, loop_cat, validate_fincat, validate_rows
from enrichkit.mfunctor import enumerate_mfun_et
from enrichkit.monoidal import boolean_monoidal, opposite_monoidal
from enrichkit.presheaf import enumerate_presheaves
from enrichkit.tensored import base_as_module
from tests.test_fastpaths import shipped_categories
from tests.test_reduced_checks import chain_mcat, ladder_rungs


# --- tables read back through the public interface ---------------------------

def into(cat, x):
    return [f for f in range(cat.n_morphisms) if cat.cod(f) == x]


def by_cod(cat):
    """Per object the morphisms into it, and per morphism its place there."""
    groups = [into(cat, x) for x in range(cat.n_objects)]
    return groups, [groups[cat.cod(f)].index(f) for f in range(cat.n_morphisms)]


def rows_of(cat):
    """Per morphism g, g∘f over the morphisms f into dom g, in index order."""
    return [[cat.compose(g, f) for f in into(cat, cat.dom(g))]
            for g in range(cat.n_morphisms)]


def named_tables(cat, rows, identity):
    """The tables of ``validate_fincat`` that name the same data; a missing
    composite (None) has no entry."""
    name = cat.mor_name
    morphisms = [(name(m), cat.obj_name(cat.dom(m)), cat.obj_name(cat.cod(m)))
                 for m in range(cat.n_morphisms)]
    compose = [(name(g), name(f), name(r))
               for g in range(cat.n_morphisms)
               for f, r in zip(into(cat, cat.dom(g)), rows[g]) if r is not None]
    ident = {cat.obj_name(x): name(m) for x, m in enumerate(identity)}
    return list(cat.objects), morphisms, compose, ident


def outcome(build):
    try:
        build()
    except EnrichKitError as exc:
        return type(exc), str(exc), exc.witness
    return None


def enumerated_functor_categories():
    """The functor categories of tests/test_mfunctor.py."""
    B = boolean_monoidal()
    A = boolean_chain_mcat()
    Aop = opposite_mcat(A)
    M = s3_monoidal()
    e = M.carrier.obj("e")
    one = validate_mcat(M, ["*"], {(0, 0): e}, {0: M.id_of(e)}, {(0, 0, 0): M.id_of(e)})
    return [enumerate_mfun_et(validate_mcat(B, [], {}, {}, {}), base_as_module(B)),
            enumerate_mfun_et(Aop, base_as_module(opposite_monoidal(Aop.base))),
            enumerate_mfun_et(one, base_as_module(M)),
            enumerate_mfun_et(A, base_as_module(A.base))]


# --- the kernel and the name boundary agree ----------------------------------

def test_kernel_and_name_path_give_equal_categories():
    cats = (shipped_categories() + [p.fincat for p in ladder_rungs()]
            + [c.fincat for c in enumerated_functor_categories()])
    for cat in cats:
        objects, morphisms, compose, identity = named_tables(
            cat, rows_of(cat), cat.identity)
        named = validate_fincat(objects, morphisms, compose, identity, name=cat.name)
        assert named == cat and cat == named, cat.name
        assert hash(named) == hash(cat), cat.name
        assert list(named.composable_pairs()) == list(cat.composable_pairs())
        assert named.generators() == cat.generators(), cat.name
        assert named.thin == cat.thin
        for x in range(cat.n_objects):
            assert named.obj_name(x) == cat.obj_name(x)
            assert named.obj(cat.obj_name(x)) == cat.obj(cat.obj_name(x)) == x
            for y in range(cat.n_objects):
                assert named.hom(x, y) == cat.hom(x, y)
        for m in range(cat.n_morphisms):
            assert named.mor_name(m) == cat.mor_name(m)
            assert named.mor(cat.mor_name(m)) == cat.mor(cat.mor_name(m)) == m
        # Inferring the identities from the rows finds the declared ones.
        assert validate_fincat(objects, morphisms, compose) == cat


def test_derived_morphism_names_are_prefix_and_index():
    pscat = enumerate_presheaves(chain_mcat(3, 4))
    cat = pscat.fincat
    assert cat.n_morphisms == 105 and len(cat.mor_names) == 105
    assert [cat.mor_name(m) for m in (0, 17, 104)] == ["p0", "p17", "p104"]
    assert cat.mor("p17") == 17
    for bad in ("p105", "p017", "q1", "p", 17):
        with pytest.raises(EnrichKitError):
            cat.mor(bad)


# --- a defect in the rows is reported as in the named tables -----------------

def corruptions(cat):
    """(rows, identity) with one defect each: an ill-typed composite, a
    missing one, a typed composite changed (a unit or associativity cell),
    and a changed identity."""
    rows, ident = rows_of(cat), list(cat.identity)
    pairs = list(cat.composable_pairs())
    non_id = [(g, f) for g, f in pairs
              if not cat.is_identity(g) and not cat.is_identity(f)]

    def changed(g, f, value):
        out = [list(r) for r in rows]
        out[g][into(cat, cat.dom(g)).index(f)] = value
        return out, ident

    g, f = pairs[len(pairs) // 2]
    wrong = next(m for m in range(cat.n_morphisms)
                 if (cat.dom(m), cat.cod(m)) != (cat.dom(f), cat.cod(g)))
    yield changed(g, f, wrong)
    yield changed(g, f, None)
    for g, f in non_id:
        for other in cat.hom(cat.dom(f), cat.cod(g)):
            if other != cat.compose(g, f):
                yield changed(g, f, other)
                break
    x = cat.n_objects - 1
    for m in range(cat.n_morphisms):
        if m != ident[x] and (cat.dom(m) == x or cat.cod(m) == x):
            yield rows, ident[:x] + [m] + ident[x + 1:]
            break


def test_kernel_mutations_raise_what_the_name_path_raises():
    cats = [enumerate_presheaves(z2_two_object_mcat()).fincat,
            enumerate_presheaves(chain_mcat(3, 4)).fincat]
    kinds = set()
    for cat in cats:
        for rows, ident in corruptions(cat):
            got = outcome(lambda: validate_rows(
                cat.name, cat.objects, cat.mor_names, cat.mor_dom, cat.mor_cod,
                by_cod(cat), rows, ident))
            want = outcome(lambda: validate_fincat(*named_tables(cat, rows, ident)))
            assert got is not None and got == want, cat.name
            kinds.add(got[0])
    assert kinds == {IllTypedComposite, MissingComposite, UnitViolation,
                     AssociativityViolation}


# --- the name boundary reports the first defect in table order --------------

ARROW_OBJECTS = ["a", "b"]
ARROW_MORPHISMS = [("id_a", "a", "a"), ("id_b", "b", "b"), ("u", "a", "b")]
ARROW_COMPOSE = [("id_a", "id_a", "id_a"), ("id_b", "id_b", "id_b"),
                 ("u", "id_a", "u"), ("id_b", "u", "u")]


def arrow_outcome(compose, identity=None):
    return outcome(lambda: validate_fincat(ARROW_OBJECTS, ARROW_MORPHISMS, compose,
                                           identity, name="arrow"))


def test_boundary_reports_two_defects_in_table_order():
    # An ill-typed entry comes before a dangling name in a later entry.
    assert arrow_outcome([("u", "id_a", "id_b")] + ARROW_COMPOSE[1:3]
                         + [("id_b", "u", "w")]) == (
        IllTypedComposite, "compose('u', 'id_a') = 'id_b' has wrong dom/cod",
        {"g": "u", "f": "id_a", "value": "id_b"})
    # Two ill-typed entries: the first in the table, not in (f, g) scan
    # order, where (u, id_a) comes first.
    assert arrow_outcome(ARROW_COMPOSE[:2] + [("id_b", "u", "id_a"),
                                              ("u", "id_a", "id_b")]) == (
        IllTypedComposite, "compose('id_b', 'u') = 'id_a' has wrong dom/cod",
        {"g": "id_b", "f": "u", "value": "id_a"})
    # A missing composite comes before a dangling identity name.
    assert arrow_outcome(ARROW_COMPOSE[:3], {"a": "id_a", "b": "nope"}) == (
        MissingComposite, "no composite for ('id_b', 'u')", {"g": "id_b", "f": "u"})
    assert arrow_outcome(ARROW_COMPOSE, {"a": "id_a", "b": "nope"}) == (
        DanglingReference, "identity table: unknown morphism 'nope'", {})
    # Declared identities are checked in the order of the identity table.
    assert arrow_outcome(ARROW_COMPOSE, {"b": "u", "a": "u"}) == (
        UnitViolation, "declared identity 'u' is not an endomorphism of 'b'",
        {"object": "b", "morphism": "u"})


# --- size caps before the work -----------------------------------------------

def counting_family(caps, n_objects=1, width=3):
    """family_category over Z_5 with one square law per pair that holds and
    counts its evaluations: one per morphism found."""
    calls = []

    def laws(f, g):
        return [(tuple(range(width)), lambda t, cell: calls.append(cell) or True, (f, g))]

    try:
        family_category(loop_cat(5), list(range(n_objects)), lambda f: (0,) * width,
                        laws, "presheaf-morphism", "F", "p", "P", caps)
    except SizeBound as exc:
        return str(exc), len(calls)
    return None, len(calls)


def test_family_category_checks_the_morphism_cap_at_each_morphism():
    assert counting_family(Caps(max_morphisms=125)) == (None, 125)
    assert counting_family(Caps(max_morphisms=7)) == (
        "presheaf-morphism count exceeds cap 7", 8)


def test_family_category_checks_the_object_cap_before_searching():
    assert counting_family(Caps(max_objects=2), n_objects=3) == (
        "3 objects exceeds cap 2", 0)


def test_enumerations_stop_at_the_caps():
    A = chain_mcat(3, 4)   # 15 presheaves, 105 morphisms
    with pytest.raises(SizeBound, match="^15 objects exceeds cap 14$"):
        enumerate_presheaves(A, Caps(max_objects=14))
    with pytest.raises(SizeBound, match="^presheaf-morphism count exceeds cap 104$"):
        enumerate_presheaves(A, Caps(max_morphisms=104))
    assert len(enumerate_presheaves(A, Caps(max_morphisms=105)).morphisms) == 105
    B = boolean_chain_mcat()
    T = base_as_module(B.base)
    n = len(enumerate_mfun_et(B, T).morphisms)
    with pytest.raises(SizeBound, match=f"^functor-morphism count exceeds cap {n - 1}$"):
        enumerate_mfun_et(B, T, Caps(max_morphisms=n - 1))
