import pytest

from enrichkit.corpus import c3_monoidal
from enrichkit.errors import (
    AssociativityViolation,
    BifunctorialityViolation,
    UnitViolation,
)
from enrichkit.fincat import loop_cat
from enrichkit.monoidal import (
    boolean_monoidal,
    chain_meet_monoidal,
    discrete_monoid_monoidal,
    finset_coproduct_monoidal,
    finset_product_monoidal,
    loop_monoidal,
    opposite_monoidal,
    validate_monoidal,
)
from instances import check_monoidal_probes, s3_monoidal, s3_mult


def test_boolean_meet_valid():
    B = boolean_monoidal()
    zero, one = B.carrier.obj("0"), B.carrier.obj("1")
    assert B.unit == one
    assert B.tensor_ob(one, zero) == zero
    assert B.tensor_ob(zero, zero) == zero


def test_s3_valid_and_noncommutative():
    M = s3_monoidal()
    c = M.carrier
    s12, s13 = c.obj("s12"), c.obj("s13")
    left = M.tensor_ob(s12, s13)
    right = M.tensor_ob(s13, s12)
    assert c.obj_name(left) == "r132"
    assert c.obj_name(right) == "r123"
    assert left != right


def test_s3_table_is_a_group_table():
    mult = s3_mult()
    elems = sorted({a for a, _ in mult})
    for a in elems:
        assert mult[("e", a)] == a and mult[(a, "e")] == a
        assert any(mult[(a, b)] == "e" for b in elems)
    for a in elems:
        for b in elems:
            for c in elems:
                assert mult[(mult[(a, b)], c)] == mult[(a, mult[(b, c)])]


def test_finset_instances_valid_on_probes():
    assert check_monoidal_probes(finset_product_monoidal(), max_card=4,
                                 mor_samples=4) > 0
    assert check_monoidal_probes(finset_coproduct_monoidal(), max_card=4,
                                 mor_samples=4) > 0


def test_opposite_boolean_is_identical():
    B = boolean_monoidal()
    assert opposite_monoidal(B) == B


def test_opposite_s3_is_transposed_table():
    M = s3_monoidal()
    Mop = opposite_monoidal(M)
    c = M.carrier
    for a in M.objects():
        for b in M.objects():
            assert Mop.tensor_ob(a, b) == M.tensor_ob(b, a)
    # genuinely different from M somewhere, S3 being non-abelian
    assert any(Mop.tensor_ob(a, b) != M.tensor_ob(a, b)
               for a in M.objects() for b in M.objects())


def test_opposite_is_involution():
    for M in [boolean_monoidal(), s3_monoidal(), c3_monoidal(),
              loop_monoidal(3), chain_meet_monoidal(3),
              finset_product_monoidal(), finset_coproduct_monoidal()]:
        assert opposite_monoidal(opposite_monoidal(M)) == M


def test_opposite_finset_flips_morphism_tensor():
    from enrichkit.finset import SkMap, SkSet

    FS = finset_product_monoidal()
    FSop = opposite_monoidal(FS)
    f = SkMap(SkSet(2), SkSet(2), (1, 0))
    g = SkMap(SkSet(3), SkSet(3), (1, 2, 0))
    assert FSop.tensor_mor(f, g) == FS.tensor_mor(g, f)
    assert FSop.tensor_ob(SkSet(2), SkSet(3)) == SkSet(6)


def test_shipped_instances_all_validate():
    # constructors already run the exhaustive check; reaching here means
    # zero violations were found
    for M in [boolean_monoidal(), s3_monoidal(), c3_monoidal(),
              loop_monoidal(2), loop_monoidal(4), chain_meet_monoidal(3)]:
        assert M.is_finite


def test_mutation_bifunctoriality_detected():
    # Z2 one-object base; corrupt the tensor cell (r1, r1) from r0 to r1.
    # Unit cells and tensor-of-identities stay intact, so the interchange
    # law is the first axiom that can notice.
    carrier = loop_cat(2)
    tensor_ob = [("*", "*", "*")]
    tensor_mor = [("r0", "r0", "r0"), ("r0", "r1", "r1"),
                  ("r1", "r0", "r1"), ("r1", "r1", "r1")]
    with pytest.raises(BifunctorialityViolation) as exc:
        validate_monoidal(carrier, "*", tensor_ob, tensor_mor)
    w = exc.value.witness
    # independent recomputation at the reported witness
    t = {("r0", "r0"): 0, ("r0", "r1"): 1, ("r1", "r0"): 1, ("r1", "r1"): 1}
    lhs = t[(("r0", "r1")[(int(w["g"][1]) + int(w["g'"][1])) % 2],
             ("r0", "r1")[(int(w["f"][1]) + int(w["f'"][1])) % 2])]
    rhs = (t[(w["g"], w["f"])] + t[(w["g'"], w["f'"])]) % 2
    assert lhs != rhs


def test_mutation_unit_detected():
    # corrupting a unit-row tensor cell breaks strict unitality
    carrier = loop_cat(2)
    tensor_mor = [("r0", "r0", "r0"), ("r0", "r1", "r0"),
                  ("r1", "r0", "r1"), ("r1", "r1", "r0")]
    with pytest.raises(UnitViolation):
        validate_monoidal(carrier, "*", [("*", "*", "*")], tensor_mor)


def test_mutation_object_associativity_detected():
    # three-element discrete carrier with a non-associative object tensor
    mult = {("e", "e"): "e", ("e", "a"): "a", ("e", "b"): "b",
            ("a", "e"): "a", ("b", "e"): "b",
            ("a", "a"): "e", ("a", "b"): "a",
            ("b", "a"): "b", ("b", "b"): "e"}
    # oracle: (a·a)·b = b but a·(a·b) = a·a = e
    assert mult[(mult[("a", "a")], "b")] != mult[("a", mult[("a", "b")])]
    with pytest.raises(AssociativityViolation):
        discrete_monoid_monoidal(["e", "a", "b"], mult, "e")


def test_opposite_finset_valid_on_probes():
    FSop = opposite_monoidal(finset_product_monoidal())
    assert check_monoidal_probes(FSop, max_card=3, mor_samples=4) > 0
    FCop = opposite_monoidal(finset_coproduct_monoidal())
    assert check_monoidal_probes(FCop, max_card=3, mor_samples=4) > 0
