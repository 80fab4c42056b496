import pytest

from enrichkit.corpus import boolean_on_chain3_module, s3_monoidal, s3_mult
from enrichkit.errors import ModuleLawViolation
from enrichkit.monoidal import boolean_monoidal
from enrichkit.tensored import (
    base_as_module,
    hom_object,
    hom_object_all,
    validate_module,
)


def s3_self_module_tables():
    M = s3_monoidal()
    c = M.carrier
    act_ob = {(m, b): M.tensor_ob(m, b) for m in M.objects() for b in M.objects()}
    act_mor = {(u, h): c.id_of(act_ob[(c.dom(u), c.dom(h))])
               for u in M.morphisms() for h in M.morphisms()}
    return M, c, act_ob, act_mor


def test_boolean_acting_on_itself_valid():
    B = boolean_monoidal()
    mod = base_as_module(B)
    one, zero = B.carrier.obj("1"), B.carrier.obj("0")
    assert mod.act_ob(one, zero) == zero
    assert mod.act_ob(one, one) == one


def test_boolean_on_chain3_module_valid():
    mod = boolean_on_chain3_module()
    one, zero = 1, 0
    for b in range(3):
        assert mod.act_ob(one, b) == b
        assert mod.act_ob(zero, b) == 0


def test_hom_object_boolean_self():
    B = boolean_monoidal()
    mod = base_as_module(B)
    one, zero = B.carrier.obj("1"), B.carrier.obj("0")
    h, _ = hom_object(mod, one, zero)
    assert h == zero  # m ∧ 1 <= 0 exactly when m = 0
    h, _ = hom_object(mod, zero, zero)
    assert h == one  # m ∧ 0 <= 0 always, so the top represents


def test_hom_object_s3_division():
    M = s3_monoidal()
    mod = base_as_module(M)
    c = M.carrier
    mult = s3_mult()
    elems = ["e", "s12", "s13", "s23", "r123", "r132"]
    inverse = {a: next(b for b in elems if mult[(a, b)] == "e") for a in elems}
    for g in elems:
        for k in elems:
            h, _ = hom_object(mod, c.obj(g), c.obj(k))
            # unique solution of m·g = k in a group: m = k·g^{-1}
            assert c.obj_name(h) == mult[(k, inverse[g])]


def test_hom_object_bijection_is_natural():
    # Naturality of the bijection in m is the interchange law with
    # h = h' = id_x, which tensored.check_action decides for every validated
    # base and module.  The Boolean base is closed, so x => y represents
    # every pair.
    B = boolean_monoidal()
    mod = base_as_module(B)
    for x in B.objects():
        for y in B.objects():
            h, u = hom_object(mod, x, y)
            assert h == (B.unit if x <= y else y)
            assert u in mod.hom(mod.act_ob(h, x), y)


def test_hom_object_candidates_pairwise_isomorphic():
    # codiscrete two-object base: both objects represent everything that
    # is representable, and they are isomorphic
    from enrichkit.fincat import validate_fincat
    from enrichkit.monoidal import validate_monoidal

    cod = validate_fincat(
        ["a", "b"],
        [("id_a", "a", "a"), ("id_b", "b", "b"),
         ("ab", "a", "b"), ("ba", "b", "a")],
        [("id_a", "id_a", "id_a"), ("id_b", "id_b", "id_b"),
         ("ab", "id_a", "ab"), ("id_b", "ab", "ab"),
         ("ba", "id_b", "ba"), ("id_a", "ba", "ba"),
         ("ba", "ab", "id_a"), ("ab", "ba", "id_b")])
    names = {(0, 0): "id_a", (1, 1): "id_b", (0, 1): "ab", (1, 0): "ba"}
    tensor_ob = [("a", "a", "a"), ("a", "b", "a"), ("b", "a", "a"),
                 ("b", "b", "b")]
    ends = {"id_a": (0, 0), "id_b": (1, 1), "ab": (0, 1), "ba": (1, 0)}
    tensor_mor = []
    for un, (du, cu) in ends.items():
        for vn, (dv, cv) in ends.items():
            tensor_mor.append((un, vn, names[(min(du, dv), min(cu, cv))]))
    M = validate_monoidal(cod, "b", tensor_ob, tensor_mor)
    mod = base_as_module(M)
    reps = hom_object_all(mod, 0, 0)
    assert len(reps) == 2  # both objects represent
    (h1, _), (h2, _) = reps
    assert any(cod.is_iso(m) for m in cod.hom(h1, h2))


def test_mutation_module_law_detected():
    M, c, act_ob, act_mor = s3_self_module_tables()
    s12, s13 = c.obj("s12"), c.obj("s13")
    corrupted = dict(act_ob)
    corrupted[(s12, s13)] = c.obj("e")  # true value is r132
    with pytest.raises(ModuleLawViolation) as exc:
        validate_module(M, M.carrier, corrupted, act_mor)
    w = exc.value.witness
    # independent recomputation at the witness
    mult = s3_mult()
    m, n, b = w["m"], w["n"], w["b"]
    def act(g, a):
        if (g, a) == ("s12", "s13"):
            return "e"
        return mult[(g, a)]
    assert act(m, act(n, b)) != act(mult[(m, n)], b)


def test_s3_self_module_valid_without_mutation():
    M, c, act_ob, act_mor = s3_self_module_tables()
    mod = validate_module(M, M.carrier, act_ob, act_mor)
    assert mod.act_ob(c.obj("s12"), c.obj("s13")) == c.obj("r132")
