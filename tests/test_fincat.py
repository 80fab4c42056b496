import itertools

import pytest

from enrichkit.caps import Caps
from enrichkit.errors import (
    AssociativityViolation,
    DanglingReference,
    IllTypedComposite,
    MissingComposite,
    SizeBound,
    UnitViolation,
)
from enrichkit.fincat import (
    chain_cat,
    discrete_cat,
    enumerate_functors,
    family_category,
    loop_cat,
    monoid_cat,
    parallel_pair,
    terminal_cat,
    validate_fincat,
    walking_arrow,
)


def c3_mult(corrupt=None):
    mult = {(f"r{g}", f"r{f}"): f"r{(g + f) % 3}" for g in range(3) for f in range(3)}
    if corrupt:
        mult[corrupt[0]] = corrupt[1]
    return mult


def test_terminal_category_valid():
    t = terminal_cat()
    assert t.n_objects == 1 and t.n_morphisms == 1
    assert t.compose(0, 0) == 0


def test_walking_arrow_valid():
    w = walking_arrow()
    assert w.n_morphisms == 3
    u = w.mor("u")
    assert w.dom(u) == w.obj("a") and w.cod(u) == w.obj("b")


def test_identity_inference_matches_declaration():
    w = walking_arrow()
    explicit = validate_fincat(
        ["a", "b"],
        [("id_a", "a", "a"), ("id_b", "b", "b"), ("u", "a", "b")],
        [("id_a", "id_a", "id_a"), ("id_b", "id_b", "id_b"),
         ("u", "id_a", "u"), ("id_b", "u", "u")],
        identity={"a": "id_a", "b": "id_b"})
    assert explicit.identity == w.identity


def test_corrupted_c3_reports_offending_triple():
    # corrupt the cell (r1, r2); unit cells stay intact, so the checker
    # must blame associativity, not units
    with pytest.raises(AssociativityViolation) as exc:
        monoid_cat(["r0", "r1", "r2"], c3_mult(corrupt=(("r1", "r2"), "r1")))
    witness = exc.value.witness
    # oracle: scanning composable triples in (f, g, h) order, the first
    # failure of h∘(g∘f) = (h∘g)∘f in the corrupted table is (r1, r1, r1)
    assert witness == {"h": "r1", "g": "r1", "f": "r1"}
    # independent recomputation of the reported triple
    comp = {(g, f): (g + f) % 3 for g in range(3) for f in range(3)}
    comp[(1, 2)] = 1
    assert comp[(1, comp[(1, 1)])] != comp[(comp[(1, 1)], 1)]


def test_all_failing_triples_of_corrupted_c3():
    # oracle: exhaustive scan of the corrupted table
    comp = {(g, f): (g + f) % 3 for g in range(3) for f in range(3)}
    comp[(1, 2)] = 1
    fails = [(h, g, f)
             for f in range(3) for g in range(3) for h in range(3)
             if comp[(h, comp[(g, f)])] != comp[(comp[(h, g)], f)]]
    assert (1, 1, 1) in fails and len(fails) == 6


def test_missing_composite():
    with pytest.raises(MissingComposite):
        validate_fincat(["a"], [("id_a", "a", "a"), ("e", "a", "a")],
                        [("id_a", "id_a", "id_a"), ("e", "id_a", "e"),
                         ("id_a", "e", "e")],
                        identity={"a": "id_a"})


def test_dangling_reference():
    with pytest.raises(DanglingReference):
        validate_fincat(["a"], [("id_a", "a", "b")], [], identity={"a": "id_a"})


def test_duplicate_morphism_name():
    with pytest.raises(DanglingReference) as exc:
        validate_fincat(["a"], [("id_a", "a", "a"), ("f", "a", "a"),
                                ("g", "a", "a"), ("f", "a", "a"),
                                ("g", "a", "a")],
                        [], identity={"a": "id_a"})
    assert str(exc.value) == "duplicate morphism name 'f'"


def test_hash_is_structural_and_stable():
    c, d = chain_cat(3), chain_cat(3)
    assert c is not d and c == d
    assert hash(c) == hash(d) == hash(c)
    assert len({c, d, loop_cat(3)}) == 2


def test_ill_typed_composite():
    with pytest.raises(IllTypedComposite):
        validate_fincat(
            ["a", "b"],
            [("id_a", "a", "a"), ("id_b", "b", "b"), ("u", "a", "b")],
            [("id_a", "id_a", "id_a"), ("id_b", "id_b", "id_b"),
             ("u", "id_a", "id_a"), ("id_b", "u", "u")],
            identity={"a": "id_a", "b": "id_b"})


def test_unit_violation():
    # z absorbs, so declaring it the identity breaks the unit law
    with pytest.raises(UnitViolation):
        validate_fincat(["a"], [("e", "a", "a"), ("z", "a", "a")],
                        [("e", "e", "e"), ("e", "z", "z"),
                         ("z", "e", "z"), ("z", "z", "z")],
                        identity={"a": "z"})


def test_enumerate_functors_from_point():
    fs = enumerate_functors(terminal_cat(), walking_arrow())
    assert len(fs) == 2
    assert [f.ob_map for f in fs] == [(0,), (1,)]


def test_enumerate_functors_to_point():
    assert len(enumerate_functors(walking_arrow(), terminal_cat())) == 1


def test_enumerate_functors_arrow_to_arrow():
    # 4 object maps, of which a->b, b->a has no image for the arrow
    fs = enumerate_functors(walking_arrow(), walking_arrow())
    assert len(fs) == 3
    assert [f.ob_map for f in fs] == [(0, 0), (0, 1), (1, 1)]


def test_enumerate_functors_size_bound():
    with pytest.raises(SizeBound):
        enumerate_functors(chain_cat(3), chain_cat(3), Caps(max_search=2))


def test_functor_closure_under_composition():
    cats = [walking_arrow(), chain_cat(3), parallel_pair()]
    for C, D, E in itertools.permutations(cats, 3):
        cd = enumerate_functors(C, D)
        de = enumerate_functors(D, E)
        ce = enumerate_functors(C, E)
        keys = {(f.ob_map, f.mor_map) for f in ce}
        for f in cd:
            for g in de:
                gf = (tuple(g.ob_map[x] for x in f.ob_map),
                      tuple(g.mor_map[m] for m in f.mor_map))
                assert gf in keys


def test_loop_cat_is_cyclic_monoid():
    c3 = loop_cat(3)
    r1, r2 = c3.mor("r1"), c3.mor("r2")
    assert c3.compose(r1, r2) == c3.mor("r0")
    assert c3.compose(r1, r1) == r2


def test_seeded_poset_and_monoid_round_trip():
    # generated categories validate with zero associativity failures by
    # construction; re-validating their raw tables must succeed
    for cat in [chain_cat(4), loop_cat(5), discrete_cat(["u", "v", "w"])]:
        morphisms = [(cat.mor_name(m), cat.obj_name(cat.dom(m)),
                      cat.obj_name(cat.cod(m))) for m in range(cat.n_morphisms)]
        compose = [(cat.mor_name(g), cat.mor_name(f),
                    cat.mor_name(cat.compose(g, f)))
                   for g, f in cat.composable_pairs()]
        again = validate_fincat([cat.obj_name(x) for x in range(cat.n_objects)],
                                morphisms, compose)
        assert again == cat


def test_family_category_caps_each_pair_before_searching():
    # one object with two components in Z_5 and no laws: 25 morphisms,
    # composed componentwise, and a search space of 25 for the one pair
    Z5 = loop_cat(5)
    args = (Z5, ["f"], lambda f: (0, 0), lambda f, g: [], "presheaf-morphism",
            "F", "p", "P")
    with pytest.raises(SizeBound, match="presheaf-morphism search space 25 exceeds cap 24"):
        family_category(*args, Caps(max_search=24))
    cat, mors = family_category(*args, Caps(max_search=25))
    assert mors == [(0, 0, (a, b)) for a in range(5) for b in range(5)]
    assert cat.n_morphisms == 25 and cat.mor_name(cat.id_of(0)) == "p0"
    assert cat.compose(7, 8) == mors.index((0, 0, (Z5.compose(1, 1), Z5.compose(2, 3))))
