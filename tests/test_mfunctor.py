import pytest

from enrichkit.enriched import opposite_mcat, validate_mcat
from enrichkit.errors import (
    CocycleViolation,
    CompatibilityViolation,
    NaturalityViolation,
    UnitActionViolation,
)
from enrichkit.fincat import fin_functor, validate_fincat
from enrichkit.mfunctor import (
    check_mfun_mor,
    enumerate_mfun_et,
    measure_unit_automatism,
    validate_mfun_et,
    validate_mfun_tt,
)
from enrichkit.monoidal import boolean_monoidal, loop_monoidal, opposite_monoidal
from enrichkit.presheaf import enumerate_presheaves
from enrichkit.tensored import base_as_module
from instances import (
    boolean_chain_mcat,
    idempotent_unit_instance,
    mfun_et_to_presheaf,
    s3_monoidal,
    z2_two_object_mcat,
)


def test_identity_mfun_tt_valid():
    for M in [boolean_monoidal(), s3_monoidal(), loop_monoidal(3)]:
        mod = base_as_module(M)
        c = M.carrier
        functor = fin_functor(c, c, range(c.n_objects), range(c.n_morphisms))
        sigma = {(m, a): c.id_of(mod.act_ob(m, a)) for m in M.objects() for a in M.objects()}
        tt = validate_mfun_tt(mod, mod, functor, sigma)
        assert all(M.carrier.is_iso(s) for s in tt.sigma.values())


def test_left_multiplication_has_no_identity_structure_on_s3():
    # f = s12 · (-) on the discrete S3 module over itself: the candidate
    # identity components would need s12·m·a = m·s12·a, which fails at
    # m = s13, a = e, so the components are ill-typed there
    M = s3_monoidal()
    mod = base_as_module(M)
    c = M.carrier
    s12 = c.obj("s12")
    ob_map = tuple(M.tensor_ob(s12, a) for a in M.objects())
    mor_map = tuple(c.id_of(ob_map[c.dom(h)]) for h in M.morphisms())
    f = fin_functor(c, c, ob_map, mor_map)
    sigma = {(m, a): c.id_of(f.ob_map[mod.act_ob(m, a)])
             for m in M.objects() for a in M.objects()}
    with pytest.raises(NaturalityViolation):
        validate_mfun_tt(mod, mod, f, sigma)
    # the specific witness pair exists
    s13, e = c.obj("s13"), c.obj("e")
    assert M.tensor_ob(s12, M.tensor_ob(s13, e)) != M.tensor_ob(s13, M.tensor_ob(s12, e))


def test_tensoring_by_fixed_object_on_commutative_base():
    # on the Boolean base, f = (-) ∧ m0 with identity structure maps is a
    # module functor; checked over all 2·2·2 triples by the validator
    B = boolean_monoidal()
    mod = base_as_module(B)
    c = B.carrier
    for m0 in B.objects():
        ob_map = tuple(B.tensor_ob(a, m0) for a in B.objects())
        mor_map = tuple(B.tensor_mor(h, c.id_of(m0)) for h in B.morphisms())
        f = fin_functor(c, c, ob_map, mor_map)
        sigma = {(m, a): c.id_of(mod.act_ob(m, ob_map[a]))
                 for m in B.objects() for a in B.objects()}
        validate_mfun_tt(mod, mod, f, sigma)


def test_mutation_cocycle_detected():
    # identity functor on the Z2 loop module with the single structure
    # component flipped to r1: naturality still commutes (Z2 is abelian)
    # but the cocycle forces sigma = sigma∘sigma
    M = loop_monoidal(2)
    mod = base_as_module(M)
    c = M.carrier
    f = fin_functor(c, c, (0,), (0, 1))
    sigma = {(0, 0): c.mor("r1")}
    with pytest.raises(CocycleViolation) as exc:
        validate_mfun_tt(mod, mod, f, sigma)
    assert exc.value.witness == {"m": "*", "n": "*", "a": "*"}


def test_one_object_unit_hom_mfun_et():
    B = boolean_monoidal()
    one = B.carrier.obj("1")
    A = validate_mcat(B, ["*"], {(0, 0): one}, {0: B.carrier.mor("id_1")},
                      {(0, 0, 0): B.carrier.mor("id_1")})
    mod = base_as_module(B)
    for b in B.objects():
        phi = {(0, 0): B.carrier.id_of(mod.act_ob(one, b))}
        validate_mfun_et(A, mod, (b,), phi)


def test_mutation_compatibility_square_detected():
    # all-zero functor from the Z2 pair into the Z2 module; corrupting
    # phi(x, y) breaks the square at the triple (x, y, x)
    A = z2_two_object_mcat()
    mod = base_as_module(A.base)
    r0, r1 = 0, 1
    phi = {(x, y): r0 for x in range(2) for y in range(2)}
    validate_mfun_et(A, mod, (0, 0), phi)
    bad = dict(phi)
    bad[(0, 1)] = r1
    with pytest.raises(CompatibilityViolation) as exc:
        validate_mfun_et(A, mod, (0, 0), bad)
    assert exc.value.witness == {"x": "x", "y": "y", "z": "x"}


def test_mutation_unit_action_detected():
    # corrupt the diagonal action component: the square survives but the
    # unit law fails -- use the one-object instance where the square
    # allows both choices
    A, B = idempotent_unit_instance()
    z = B.carrier.mor("z")
    with pytest.raises(UnitActionViolation):
        validate_mfun_et(A, B, (0,), {(0, 0): z})


def test_enumerate_empty_source():
    B = boolean_monoidal()
    A = validate_mcat(B, [], {}, {}, {})
    cat = enumerate_mfun_et(A, base_as_module(B))
    assert len(cat.functors) == 1
    assert len(cat.morphisms) == 1
    assert cat.fincat.n_objects == 1 and cat.fincat.n_morphisms == 1


def test_enumerate_chain_matches_presheaves_on_opposite_chain():
    # functors from the 2-chain into the base-as-module correspond to
    # presheaves on the opposite chain through the op-dictionary
    A = boolean_chain_mcat()
    Aop = opposite_mcat(A)
    target = base_as_module(opposite_monoidal(Aop.base))
    cat = enumerate_mfun_et(Aop, target)
    pscat = enumerate_presheaves(A)
    assert len(cat.functors) == len(pscat.presheaves) == 3
    translated = {mfun_et_to_presheaf(g, A) for g in cat.functors}
    assert translated == set(pscat.presheaves)


def test_enumerate_one_object_s3():
    M = s3_monoidal()
    e = M.carrier.obj("e")
    A = validate_mcat(M, ["*"], {(0, 0): e}, {0: M.id_of(e)},
                      {(0, 0, 0): M.id_of(e)})
    cat = enumerate_mfun_et(A, base_as_module(M))
    assert len(cat.functors) == 6
    # no non-identity morphisms on a discrete base
    assert len(cat.morphisms) == 6
    assert all(m.source_index == m.target_index for m in cat.morphisms)


def test_functor_category_is_valid_fincat():
    A = boolean_chain_mcat()
    cat = enumerate_mfun_et(A, base_as_module(A.base))
    # re-validate from raw tables
    fc = cat.fincat
    morphisms = [(fc.mor_name(m), fc.obj_name(fc.dom(m)), fc.obj_name(fc.cod(m)))
                 for m in range(fc.n_morphisms)]
    compose = [(fc.mor_name(g), fc.mor_name(f), fc.mor_name(fc.compose(g, f)))
               for g, f in fc.composable_pairs()]
    assert validate_fincat([fc.obj_name(x) for x in range(fc.n_objects)],
                           morphisms, compose) == fc


def test_mfun_mor_check():
    A = boolean_chain_mcat()
    cat = enumerate_mfun_et(A, base_as_module(A.base))
    for m in cat.morphisms:
        f, g = cat.functors[m.source_index], cat.functors[m.target_index]
        assert check_mfun_mor(f, g, m.components) == []


def test_unit_automatism_counterexample_counted():
    # the idempotent target admits a square-only candidate that fails the
    # unit law; the measurement must see exactly one
    A, B = idempotent_unit_instance()
    candidates, violations, witnesses = measure_unit_automatism(A, B)
    assert candidates == 2
    assert violations == 1
    assert witnesses[0]["x"] == "*"


def test_unit_automatism_zero_on_boolean_chain():
    A = boolean_chain_mcat()
    candidates, violations, _ = measure_unit_automatism(A, base_as_module(A.base))
    assert candidates >= 3
    assert violations == 0


def test_mfun_et_value_semantics():
    """Equal functors built separately are one value: equal, same hash, one
    set entry, whatever their names."""
    def build(name):
        A = boolean_chain_mcat()
        return validate_mfun_et(A, base_as_module(A.base),
                                [A.hom(0, 0), A.hom(0, 1)],
                                {(x, y): A.comp(0, x, y)
                                 for x in range(2) for y in range(2)},
                                name=name)

    f, g = build("f"), build("g")
    assert f is not g and f == g
    assert hash(f) == hash(g)
    assert len({f, g}) == 1
