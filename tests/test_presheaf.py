import functools

import pytest
from hypothesis import given, settings, strategies as st

from enrichkit.corpus import (
    CorpusSampler,
    boolean_chain_mcat,
    c3_one_object_mcat,
    s3_two_object_mcat,
    z2_two_object_mcat,
)
from enrichkit.enriched import mcat_from_fincat, opposite_mcat, validate_mcat
from enrichkit.errors import InternalError
from enrichkit.fincat import chain_cat, loop_cat, parallel_pair, walking_arrow
from enrichkit.mfunctor import MFunET, mfun_et_laws, mfun_square_laws, validate_mfun_et
from enrichkit.monoidal import boolean_monoidal
from enrichkit.presheaf import (
    Presheaf,
    check_fully_faithful,
    check_yoneda_lemma,
    enumerate_presheaves,
    mfun_et_to_presheaf,
    presheaf_laws,
    presheaf_square_laws,
    presheaf_to_mfun_et,
    tensor_presheaf,
    validate_presheaf,
    yoneda,
    yoneda_presheaf,
)
from enrichkit.search import failures
from enrichkit.tensored import base_as_module
from tests.test_support import codiscrete, presheaves


def bool_names(A, p):
    return tuple(A.base.carrier.obj_name(v) for v in p.values)


def test_chain_has_three_presheaves():
    A = boolean_chain_mcat()
    pscat = enumerate_presheaves(A)
    assert [bool_names(A, p) for p in pscat.presheaves] == [
        ("0", "0"), ("1", "0"), ("1", "1")]


def test_chain_morphisms_form_three_chain():
    A = boolean_chain_mcat()
    pscat = enumerate_presheaves(A)
    assert len(pscat.morphisms) == 6  # three identities plus the chain order
    order = {(pscat._index[m.source], pscat._index[m.target])
             for m in pscat.morphisms}
    assert order == {(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)}


def test_s3_pair_has_six_presheaves_identity_mors_only():
    A = s3_two_object_mcat()
    pscat = enumerate_presheaves(A)
    assert len(pscat.presheaves) == 6
    assert len(pscat.morphisms) == 6
    assert all(m.source == m.target for m in pscat.morphisms)


def test_c3_loop_has_three_presheaves():
    pscat = enumerate_presheaves(c3_one_object_mcat())
    assert len(pscat.presheaves) == 3


def test_empty_mcat_presheaf_category_is_terminal():
    A = validate_mcat(boolean_monoidal(), [], {}, {}, {})
    pscat = enumerate_presheaves(A)
    assert len(pscat.presheaves) == 1
    assert len(pscat.morphisms) == 1
    fc = pscat.fincat
    assert fc.n_objects == 1 and fc.n_morphisms == 1


def test_tensor_by_unit_is_identity():
    A = boolean_chain_mcat()
    pscat = enumerate_presheaves(A)
    for p in pscat.presheaves:
        assert tensor_presheaf(A.base.unit, p) == p


def test_tensor_by_zero_is_constant_zero():
    A = boolean_chain_mcat()
    zero = A.base.carrier.obj("0")
    pscat = enumerate_presheaves(A)
    for p in pscat.presheaves:
        q = tensor_presheaf(zero, p)
        assert all(v == zero for v in q.values)


def test_tensor_module_law_on_the_nose():
    A = boolean_chain_mcat()
    B = A.base
    pscat = enumerate_presheaves(A)
    for m in B.objects():
        for n in B.objects():
            for p in pscat.presheaves:
                assert (tensor_presheaf(m, tensor_presheaf(n, p))
                        == tensor_presheaf(B.tensor_ob(m, n), p))


def test_enumeration_closed_under_tensor():
    for A in [boolean_chain_mcat(), s3_two_object_mcat(), c3_one_object_mcat()]:
        pscat = enumerate_presheaves(A)
        for m in A.base.objects():
            for p in pscat.presheaves:
                pscat.index_of(tensor_presheaf(m, p))  # raises if absent


def test_yoneda_values_chain():
    A = boolean_chain_mcat()
    pscat = enumerate_presheaves(A)
    Y = yoneda(pscat)
    assert bool_names(A, pscat.presheaves[Y.ob_map[0]]) == ("1", "0")
    assert bool_names(A, pscat.presheaves[Y.ob_map[1]]) == ("1", "1")


def test_yoneda_values_s3_pair():
    A = s3_two_object_mcat()
    pscat = enumerate_presheaves(A)
    Y = yoneda(pscat)
    names = tuple(A.base.carrier.obj_name(v)
                  for v in pscat.presheaves[Y.ob_map[0]].values)
    assert names == ("e", "s12")


def test_yoneda_one_object_unit_hom_is_unit_presheaf():
    B = boolean_monoidal()
    one = B.carrier.obj("1")
    A = validate_mcat(B, ["*"], {(0, 0): one}, {0: B.carrier.mor("id_1")},
                      {(0, 0, 0): B.carrier.mor("id_1")})
    pscat = enumerate_presheaves(A)
    Y = yoneda(pscat)
    assert pscat.presheaves[Y.ob_map[0]].values == (one,)


def test_yoneda_revalidates_as_mfun_et():
    # cross-module consistency: the embedding passes the functor validator
    A = boolean_chain_mcat()
    pscat = enumerate_presheaves(A)
    Y = yoneda(pscat)
    validate_mfun_et(A, pscat.as_module(), Y.ob_map, Y.phi)


def test_yoneda_lemma_shipped_corpus():
    for A in [boolean_chain_mcat(), s3_two_object_mcat(), c3_one_object_mcat()]:
        rep = check_yoneda_lemma(enumerate_presheaves(A))
        assert rep.passed and rep.checked > 0


def test_yoneda_lemma_chain_specific_counts():
    # F = (1, 0), x = b: hom(m, F(b)=0) against maps m ⊗ Y(b) -> F;
    # both sides empty at m = 1 and singletons at m = 0
    A = boolean_chain_mcat()
    B = A.base
    pscat = enumerate_presheaves(A)
    F = pscat.presheaves[1]
    assert bool_names(A, F) == ("1", "0")
    yb = pscat.index_of(yoneda_presheaf(A, 1))
    module = pscat.as_module()
    zero, one = B.carrier.obj("0"), B.carrier.obj("1")
    for m, expected in [(zero, 1), (one, 0)]:
        lhs = B.hom(m, F.values[1])
        rhs = pscat.mors_between(module.act_ob(m, yb), 1)
        assert len(lhs) == len(rhs) == expected


def test_yoneda_lemma_s3_singleton_or_empty():
    A = s3_two_object_mcat()
    B = A.base
    pscat = enumerate_presheaves(A)
    module = pscat.as_module()
    for iF, F in enumerate(pscat.presheaves):
        for x in range(A.n_objects):
            yx = pscat.index_of(yoneda_presheaf(A, x))
            for m in B.objects():
                lhs = B.hom(m, F.values[x])
                rhs = pscat.mors_between(module.act_ob(m, yx), iF)
                expected = 1 if m == F.values[x] else 0
                assert len(lhs) == len(rhs) == expected


def test_fully_faithful_shipped_corpus():
    for A in [boolean_chain_mcat(), s3_two_object_mcat(), c3_one_object_mcat()]:
        rep = check_fully_faithful(enumerate_presheaves(A))
        assert rep.passed
        # recovery is exact on these instances
        assert all(rec[3] for rec in rep.hom_objects)


def test_fully_faithful_s3_cross_hom():
    A = s3_two_object_mcat()
    rep = check_fully_faithful(enumerate_presheaves(A))
    rec = {(r[0], r[1]): r[2] for r in rep.hom_objects}
    assert rec[("x", "y")] == "s12"
    assert rec[("x", "x")] == "e"


def test_op_dictionary_round_trips_bit_exactly():
    for A in [boolean_chain_mcat(), s3_two_object_mcat(), c3_one_object_mcat()]:
        Aop = opposite_mcat(A)
        pscat = enumerate_presheaves(A)
        for p in pscat.presheaves:
            g = presheaf_to_mfun_et(p, Aop)
            assert mfun_et_to_presheaf(g, A) == p


def test_presheaf_validation_rejects_corrupted_action():
    A = s3_two_object_mcat()
    pscat = enumerate_presheaves(A)
    p = pscat.presheaves[0]
    bad = dict(p.action)
    c = A.base.carrier
    # retarget one action component at another identity; in a discrete
    # base this breaks typing or the square, never silently passes
    bad[(0, 1)] = c.id_of(c.obj("r123"))
    with pytest.raises(Exception):
        validate_presheaf(A, p.values, bad)


def test_missing_presheaf_lookup_is_internal_error():
    A = boolean_chain_mcat()
    pscat = enumerate_presheaves(A)
    with pytest.raises(InternalError):
        # a presheaf over a structurally different source is never enumerated
        pscat.index_of(yoneda_presheaf(opposite_mcat(A), 0))


def test_presheaf_lookup_is_structural_across_op_op():
    A = boolean_chain_mcat()
    pscat = enumerate_presheaves(A)
    AA = opposite_mcat(opposite_mcat(A))
    assert AA is not A and AA == A and hash(AA) == hash(A)
    for z in range(A.n_objects):
        assert pscat.index_of(yoneda_presheaf(AA, z)) == \
            pscat.index_of(yoneda_presheaf(A, z))
    assert pscat.index_of(yoneda_presheaf(boolean_chain_mcat(), 0)) == \
        pscat.index_of(yoneda_presheaf(A, 0))


SHIPPED_BASES = [boolean_chain_mcat, s3_two_object_mcat, c3_one_object_mcat,
                 z2_two_object_mcat]


@functools.cache
def _pscat(k):
    return enumerate_presheaves(SHIPPED_BASES[k]())


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, len(SHIPPED_BASES) - 1), st.integers(0, 10 ** 6))
def test_op_op_presheaf_is_interchangeable(k, i):
    # P rebuilt over op(op(A)), a distinct but equal source, is P for
    # equality, hashing and lookup
    pscat = _pscat(k)
    P = pscat.presheaves[i % len(pscat.presheaves)]
    AA = opposite_mcat(opposite_mcat(pscat.source))
    Q = validate_presheaf(AA, P.values, P.action)
    assert Q.source is AA and AA is not pscat.source
    assert Q == P and P == Q and hash(Q) == hash(P)
    assert pscat.index_of(Q) == pscat.index_of(P)


def test_yoneda_lemma_random_instances():
    sampler = CorpusSampler(17)
    for _ in range(20):
        M = sampler.random_monoidal()
        A, pscat = sampler.random_mcat(M)
        rep = check_yoneda_lemma(pscat)
        assert rep.passed, (M.name, A.objects, rep.failures)


def test_tensor_presheaf_passes_invariants():
    for A in [boolean_chain_mcat(), s3_two_object_mcat()]:
        pscat = enumerate_presheaves(A)
        for m in A.base.objects():
            for p in pscat.presheaves:
                q = tensor_presheaf(m, p)
                assert validate_presheaf(A, q.values, q.action) == q


# --- the presheaf reading and the functor reading of the laws ---------------

def non_thin_sources():
    """(A, presheaves): finite-set-enriched categories (the product is not
    symmetric on the nose) with the representables, the terminal weight and
    seeded random draws; categories over loop bases with their complete
    enumeration."""
    over_sets = [mcat_from_fincat(c) for c in
                 (walking_arrow(), parallel_pair(), chain_cat(3), loop_cat(3))]
    over_loops = [z2_two_object_mcat(), codiscrete(3, 2)]
    return ([(A, presheaves(A)) for A in over_sets]
            + [(A, enumerate_presheaves(A).presheaves) for A in over_loops])


def test_presheaf_laws_fail_the_cells_the_op_functor_laws_fail():
    # every single-cell change of every action within its hom-set, read as a
    # presheaf on A and as a functor on op(A) into the opposite base acting
    # on itself (phi as presheaf_to_mfun_et translates it): (x, y, z) fails
    # in one reading iff (z, y, x) fails in the other, and (x, y) iff (y, x);
    # the morphism squares are compared from the presheaf to its change and
    # on every single-component change of its identity
    seen = {"unit": 0, "compat": 0, "square": 0}
    for A, ps in non_thin_sources():
        Aop = opposite_mcat(A)
        T = base_as_module(Aop.base)
        base, n = A.base, A.n_objects

        def op(f):
            return MFunET(Aop, T, f.values, {(u, v): f.action[(v, u)]
                                             for u in range(n) for v in range(n)})

        def squares_agree(f, g, opf, opg, t):
            cells = set(failures(presheaf_square_laws(f, g), t))
            assert cells == {c[::-1] for c in failures(mfun_square_laws(opf, opg), t)}
            seen["square"] += bool(cells)

        for p in ps:
            unit, compat = presheaf_laws(A, p.values)
            op_compat, op_unit = mfun_et_laws(Aop, T, p.values)
            ids = tuple(base.id_of(v) for v in p.values)
            opp = op(p)
            for x, v in enumerate(p.values):
                for c in base.hom(v, v):
                    squares_agree(p, p, opp, opp, ids[:x] + (c,) + ids[x + 1:])
            for slot, a in p.action.items():
                for other in base.hom(base.dom(a), base.cod(a)):
                    q = Presheaf(A, p.values, {**p.action, slot: other})
                    opq = op(q)
                    cells = set(failures(unit, q.action))
                    assert cells == set(failures(op_unit, opq.phi))
                    seen["unit"] += bool(cells)
                    cells = set(failures(compat, q.action))
                    assert cells == {c[::-1] for c in failures(op_compat, opq.phi)}
                    seen["compat"] += bool(cells)
                    squares_agree(p, q, opp, opq, ids)
    assert all(seen.values()), seen
