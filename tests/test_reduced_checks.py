"""The per-structure law decisions of validate_fincat, validate_module and
the four law tables: a thin carrier discharges its law cells, and a
non-thin category or module is checked on its generators.

The references below are written independently of the library: a full
cell-by-cell scan in each validator's documented order, the right-nested
closure of a generating set, and the presheaf and functor laws written out
as direct equations.  Every scan walks the composable pairs of the
unmutated table, which a typed mutation does not change.
"""

import itertools
import random

from enrichkit.corpus import (
    S3_ELEMENTS,
    boolean_chain_mcat,
    c3_mult,
    idempotent_unit_instance,
    s3_mult,
    z2_two_object_mcat,
)
from enrichkit.enriched import mcat_from_fincat, validate_mcat
from enrichkit.errors import (
    AssociativityViolation,
    BifunctorialityViolation,
    ModuleLawViolation,
    UnitActionViolation,
    UnitViolation,
)
from enrichkit.fincat import loop_cat, monoid_cat, validate_fincat, walking_arrow
from enrichkit.mfunctor import enumerate_mfun_et, mfun_et_laws, mfun_square_laws
from enrichkit.monoidal import (
    boolean_monoidal,
    chain_meet_monoidal,
    discrete_monoid_monoidal,
    loop_monoidal,
)
from enrichkit.presheaf import enumerate_presheaves, presheaf_laws, presheaf_square_laws
from enrichkit.tensored import base_as_module, validate_module
from enrichkit.wcolim import FinSetModule, PresheafModule
from tests.test_fastpaths import codiscrete_pscat, shipped_categories


# --- instances ---------------------------------------------------------------

def chain_mcat(k, n):
    """The n-chain over the k-chain meet base: hom(x, y) is the top when
    x <= y and the bottom otherwise."""
    base = chain_meet_monoidal(k)
    c = base.carrier
    xs = range(n)
    hom = {(x, y): (k - 1 if x <= y else 0) for x in xs for y in xs}
    comp = {(x, y, z): c.hom(min(hom[(y, z)], hom[(x, y)]), hom[(x, z)])[0]
            for x in xs for y in xs for z in xs}
    return validate_mcat(base, [f"x{i}" for i in xs], hom,
                         {x: c.id_of(k - 1) for x in xs}, comp,
                         name=f"chain{n}/k{k}")


def ladder_rungs():
    """P_M(A) of the presheaf-ladder rungs."""
    return ([enumerate_presheaves(chain_mcat(k, n)) for k, n in ((3, 4), (4, 4), (4, 5))]
            + [codiscrete_pscat(3, 3), codiscrete_pscat(4, 3)])


def zero_monoid():
    """{e, z, a} with z absorbing and a∘a = e.  Its generators are z and
    a, and composing with z forgets its argument, so a cell can be seen
    by the rows of a alone."""
    mult = {("e", x): x for x in "eza"} | {(x, "e"): x for x in "eza"}
    mult |= {("z", x): "z" for x in "za"} | {(x, "z"): "z" for x in "za"}
    return monoid_cat(["e", "z", "a"], mult | {("a", "a"): "e"}, name="Z2+0")


def monoid_categories():
    """The non-thin one-object monoids of the corpus and the shipped specs:
    Z_2..Z_4 (the loop bases), S3, C3 and the idempotent monoid; and Z2 with
    a zero adjoined."""
    return [loop_cat(2), loop_cat(3), loop_cat(4),
            monoid_cat(S3_ELEMENTS, s3_mult(), name="S3"),
            monoid_cat(["e", "g", "g2"], c3_mult(), name="C3"),
            idempotent_unit_instance()[1].carrier, zero_monoid()]


def small_pscats():
    """P_M(A) over Z_2 and Z_3 with few enough cells for every mutation."""
    return [enumerate_presheaves(z2_two_object_mcat()), codiscrete_pscat(3, 2),
            codiscrete_pscat(2, 3)]


def out_of(cat):
    return {x: [m for m in range(cat.n_morphisms) if cat.dom(m) == x]
            for x in range(cat.n_objects)}


def pairs(cat):
    """Composable (g, f) in (f, g) scan order."""
    out = out_of(cat)
    return [(g, f) for f in range(cat.n_morphisms) for g in out[cat.cod(f)]]


# --- full scans --------------------------------------------------------------

def full_scan_fincat(cat, comp):
    """First unit or associativity failure of a typed, total table, over
    every composable triple in (f, g, h) order."""
    name, out = cat.mor_name, out_of(cat)
    for f in range(cat.n_morphisms):
        if comp[(cat.id_of(cat.cod(f)), f)] != f:
            return UnitViolation, {"morphism": name(f), "side": "left"}
        if comp[(f, cat.id_of(cat.dom(f)))] != f:
            return UnitViolation, {"morphism": name(f), "side": "right"}
    for g, f in pairs(cat):
        for h in out[cat.cod(g)]:
            if comp[(h, comp[(g, f)])] != comp[(comp[(h, g)], f)]:
                return AssociativityViolation, {"h": name(h), "g": name(g), "f": name(f)}
    return None


def fincat_outcome(cat, comp):
    morphisms = [(cat.mor_name(m), cat.obj_name(cat.dom(m)), cat.obj_name(cat.cod(m)))
                 for m in range(cat.n_morphisms)]
    identity = {cat.obj_name(x): cat.mor_name(cat.id_of(x)) for x in range(cat.n_objects)}
    compose = [(cat.mor_name(g), cat.mor_name(f), cat.mor_name(gf))
               for (g, f), gf in comp.items()]
    try:
        validate_fincat(cat.objects, morphisms, compose, identity)
    except (UnitViolation, AssociativityViolation) as exc:
        return type(exc), exc.witness
    return None


def composition_mutations(cat):
    """Every typed single-cell mutation (g, f, other) of the compose table."""
    for g, f in pairs(cat):
        for other in cat.hom(cat.dom(f), cat.cod(g)):
            if other != cat.compose(g, f):
                yield g, f, other


def full_scan_module(base, carrier, aob, amor):
    """First failure after the object laws and typing, in validate_module's
    documented order: unit action, identity action, interchange over every
    (u, u') x (h, h'), module law over every (u, v, h)."""
    B = base.carrier
    bname, cname = B.mor_name, carrier.mor_name
    for h in range(carrier.n_morphisms):
        if amor[(B.id_of(base.unit), h)] != h:
            return UnitActionViolation, {"morphism": cname(h)}
    for m in range(B.n_objects):
        for b in range(carrier.n_objects):
            if amor[(B.id_of(m), carrier.id_of(b))] != carrier.id_of(aob[(m, b)]):
                return BifunctorialityViolation, {"m": B.obj_name(m),
                                                  "b": carrier.obj_name(b)}
    carrier_pairs = pairs(carrier)
    for u, up in pairs(B):
        for h, hp in carrier_pairs:
            if (amor[(B.compose(u, up), carrier.compose(h, hp))]
                    != carrier.compose(amor[(u, h)], amor[(up, hp)])):
                return BifunctorialityViolation, {"u": bname(u), "u'": bname(up),
                                                  "h": cname(h), "h'": cname(hp)}
    for u in range(B.n_morphisms):
        for v in range(B.n_morphisms):
            for h in range(carrier.n_morphisms):
                if amor[(u, amor[(v, h)])] != amor[(base.tensor_mor(u, v), h)]:
                    return ModuleLawViolation, {"u": bname(u), "v": bname(v),
                                                "h": cname(h)}
    return None


def module_tables(mod):
    B, C = mod.base.carrier, mod.carrier
    aob = {(m, b): mod.act_ob(m, b)
           for m in range(B.n_objects) for b in range(C.n_objects)}
    amor = {(u, h): mod.act_mor(u, h)
            for u in range(B.n_morphisms) for h in range(C.n_morphisms)}
    return aob, amor


def module_outcome(base, carrier, aob, amor):
    try:
        validate_module(base, carrier, aob, amor)
    except (UnitActionViolation, BifunctorialityViolation, ModuleLawViolation) as exc:
        return type(exc), exc.witness
    return None


def action_mutations(carrier, amor):
    """Every typed single-cell mutation (cell, other) of the action table."""
    for cell, uh in amor.items():
        for other in carrier.hom(carrier.dom(uh), carrier.cod(uh)):
            if other != uh:
                yield cell, other


def z2_on_z3_module():
    """Z2 = {e, s} acting on Z3 with s sending every morphism to r0: each
    action is a functor, so only the module law on morphisms fails."""
    base = discrete_monoid_monoidal(
        ["e", "s"], {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s",
                     ("s", "s"): "e"}, "e")
    carrier = loop_cat(3)
    B = base.carrier
    aob = {(m, 0): 0 for m in range(B.n_objects)}
    amor = {(u, h): h if B.mor_name(u) == "id_e" else carrier.id_of(0)
            for u in range(B.n_morphisms) for h in range(carrier.n_morphisms)}
    return base, carrier, aob, amor


def on_zero_monoid(base, act):
    """The one-object carrier zero_monoid() with act(u, h) = act[u name][h
    name] by names."""
    carrier = zero_monoid()
    B = base.carrier
    aob = {(m, 0): 0 for m in range(B.n_objects)}
    amor = {(u, h): carrier.mor(act[B.mor_name(u)][carrier.mor_name(h)])
            for u in range(B.n_morphisms) for h in range(carrier.n_morphisms)}
    return base, carrier, aob, amor


def zero_monoid_modules():
    """Over zero_monoid(): the discrete Z2 acting trivially (valid; its
    cells are seen by the rows of the carrier generator a alone); Z2 with
    r1 acting as z (interchange fails only on the rows of the base
    generator r1); and the Boolean base with le01 acting as z and 0 as e
    (the module law on morphisms fails only on the row (le01, id_0))."""
    same, to_z, to_e = ({h: h for h in "eza"}, {h: "z" for h in "eza"},
                        {h: "e" for h in "eza"})
    z2 = discrete_monoid_monoidal(
        ["e", "s"], {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s",
                     ("s", "s"): "e"}, "e")
    return [on_zero_monoid(z2, {"id_e": same, "id_s": same}),
            on_zero_monoid(loop_monoidal(2), {"r0": same, "r1": to_z}),
            on_zero_monoid(boolean_monoidal(),
                           {"id_0": to_e, "id_1": same, "le01": to_z})]


def module_instances():
    """(base, carrier, act_ob, act_mor) of non-thin left-tensorings: the
    loop bases acting on themselves, the idempotent module, the presheaf
    modules of small_pscats, the modules over zero_monoid() and a module
    whose only failing law is the module law on morphisms."""
    mods = [base_as_module(loop_monoidal(k)) for k in (2, 3, 4)]
    mods += [idempotent_unit_instance()[1]] + [p.as_module() for p in small_pscats()]
    return ([(m.base, m.carrier, *module_tables(m)) for m in mods]
            + zero_monoid_modules() + [z2_on_z3_module()])


# --- the reduced checks agree with the full scans ----------------------------

def test_reduced_associativity_check_matches_full_scan():
    # Every typed single-cell mutation of the small non-thin tables, and a
    # seeded sample of those of P over the codiscrete 3-object Z3 category.
    big = codiscrete_pscat(3, 3).fincat
    cases = [(cat, list(composition_mutations(cat)))
             for cat in monoid_categories() + [p.fincat for p in small_pscats()]]
    cases.append((big, random.Random(9).sample(list(composition_mutations(big)), 8)))
    kinds = set()
    for cat, mutations in cases:
        assert not cat.thin, cat.name
        comp = {(g, f): cat.compose(g, f) for g, f in pairs(cat)}
        assert fincat_outcome(cat, comp) is None
        for g, f, other in mutations:
            mutated = {**comp, (g, f): other}
            want = full_scan_fincat(cat, mutated)
            assert fincat_outcome(cat, mutated) == want, (cat.name, g, f, other)
            kinds.add(want and want[0])
    assert kinds == {None, UnitViolation, AssociativityViolation}


def test_reduced_module_checks_match_full_scan():
    # Every typed single-cell mutation of the action tables of the small
    # non-thin modules, and a seeded sample of those of P over the
    # codiscrete 3-object Z3 category.
    big = codiscrete_pscat(3, 3).as_module()
    big_tables = module_tables(big)
    cases = [(base, carrier, aob, amor, list(action_mutations(carrier, amor)))
             for base, carrier, aob, amor in module_instances()]
    cases.append((big.base, big.carrier, *big_tables, random.Random(9).sample(
        list(action_mutations(big.carrier, big_tables[1])), 8)))
    kinds = set()
    for base, carrier, aob, amor, mutations in cases:
        assert not carrier.thin
        want = full_scan_module(base, carrier, aob, amor)
        assert module_outcome(base, carrier, aob, amor) == want
        kinds.add(want and want[0])
        for cell, other in mutations:
            mutated = {**amor, cell: other}
            want = full_scan_module(base, carrier, aob, mutated)
            assert module_outcome(base, carrier, aob, mutated) == want, (cell, other)
            kinds.add(want and want[0])
    assert kinds == {None, UnitActionViolation, BifunctorialityViolation,
                     ModuleLawViolation}


# --- thinness and generators -------------------------------------------------

def right_nested_closure(cat, gens):
    """Every s1∘(s2∘(…∘sk)) with each si in gens, the identities included."""
    reached = {cat.id_of(x) for x in range(cat.n_objects)}
    frontier = list(reached)
    while frontier:
        x = frontier.pop()
        for s in gens:
            if cat.dom(s) == cat.cod(x) and cat.compose(s, x) not in reached:
                reached.add(cat.compose(s, x))
                frontier.append(cat.compose(s, x))
    return reached


def test_thin_flag_and_generators_on_shipped_and_ladder_categories():
    rungs = [p.fincat for p in ladder_rungs()]
    small = monoid_categories() + [p.fincat for p in small_pscats()]
    for cat in shipped_categories() + small + rungs:
        homs = [len(cat.hom(x, y)) for x in range(cat.n_objects)
                for y in range(cat.n_objects)]
        assert cat.thin == (max(homs) <= 1), cat.name
        gens = cat.generators()
        assert list(gens) == sorted(set(gens))
        assert right_nested_closure(cat, gens) == set(range(cat.n_morphisms)), cat.name
    assert [r.thin for r in rungs] == [True, True, True, False, False]
    assert [len(r.generators()) for r in rungs[3:]] == [17, 31]
    assert loop_cat(4).generators() == (1,)


def test_generators_are_chosen_greedily_in_index_order():
    # A morphism is a generator exactly when the earlier generators do not
    # reach it.
    for cat in monoid_categories() + [p.fincat for p in small_pscats()]:
        gens = cat.generators()
        for m in range(cat.n_morphisms):
            earlier = [s for s in gens if s < m]
            assert (m in gens) == (m not in right_nested_closure(cat, earlier)), cat.name


def test_bases_and_modules_bind_their_carriers_thinness():
    A = mcat_from_fincat(walking_arrow())
    assert boolean_monoidal().thin and chain_meet_monoidal(3).thin
    assert base_as_module(boolean_monoidal()).thin
    assert not loop_monoidal(3).thin and not base_as_module(loop_monoidal(3)).thin
    assert not A.base.thin and not FinSetModule().thin and not PresheafModule(A).thin
    assert enumerate_presheaves(chain_mcat(3, 2)).as_module().thin


# --- thin carriers discharge their law cells ---------------------------------

def direct_presheaf_failures(A, values, action):
    """The presheaf laws (unit per x, compatibility per (x, y, z)) as direct
    equations; the failing cells."""
    base, xs = A.base, range(A.n_objects)
    out = [(x,) for x in xs
           if base.compose(action[(x, x)], base.tensor_mor(base.id_of(values[x]),
                                                           A.unit(x)))
           != base.id_of(values[x])]
    for x, y, z in itertools.product(xs, repeat=3):
        c1 = base.compose(action[(x, y)], base.tensor_mor(action[(y, z)],
                                                          base.id_of(A.hom(x, y))))
        c2 = base.compose(action[(x, z)], base.tensor_mor(base.id_of(values[z]),
                                                          A.comp(x, y, z)))
        if c1 != c2:
            out.append((x, y, z))
    return out


def direct_functor_failures(A, T, ob_map, phi):
    """The compatibility square per (x, y, z) and the unit action per x of
    an enriched-to-tensored functor as direct equations; the failing cells."""
    xs = range(A.n_objects)
    out = []
    for x, y, z in itertools.product(xs, repeat=3):
        lhs = T.compose(phi[(x, z)], T.act_mor(A.comp(x, y, z), T.id_of(ob_map[x])))
        rhs = T.compose(phi[(y, z)], T.act_mor(A.base.id_of(A.hom(y, z)), phi[(x, y)]))
        if lhs != rhs:
            out.append((x, y, z))
    return out + [(x,) for x in xs
                  if T.compose(phi[(x, x)], T.act_mor(A.unit(x), T.id_of(ob_map[x])))
                  != T.id_of(ob_map[x])]


def typed_tables(objects, n, slot_hom):
    """(values, table) for every value map and every typed table;
    slot_hom(values, x, y) is the hom-set of slot (x, y)."""
    cells = list(itertools.product(range(n), repeat=2))
    for values in itertools.product(objects, repeat=n):
        choices = [slot_hom(values, x, y) for x, y in cells]
        for picks in itertools.product(*choices):
            yield values, dict(zip(cells, picks))


def test_law_tables_are_empty_over_thin_carriers_and_the_laws_hold():
    # Over the Boolean and chain3-meet bases and the module P(chain3-meet),
    # every type-correct table satisfies the direct law equations, so the
    # empty law tables discharge nothing that could fail.
    enriched = [boolean_chain_mcat(), chain_mcat(3, 2), chain_mcat(3, 3)]
    checked = 0
    for A in enriched:
        base = A.base
        assert base.thin
        for values, action in typed_tables(
                base.objects(), A.n_objects,
                lambda v, x, y: base.hom(base.tensor_ob(v[y], A.hom(x, y)), v[x])):
            assert presheaf_laws(A, values) == ([], [])
            assert direct_presheaf_failures(A, values, action) == []
            checked += 1
        pscat = enumerate_presheaves(A)
        targets = [base_as_module(base)] + ([pscat.as_module()] if A.n_objects == 2 else [])
        for T in targets:
            assert T.thin
            for ob_map, phi in typed_tables(
                    range(T.carrier.n_objects), A.n_objects,
                    lambda v, x, y: T.hom(T.act_ob(A.hom(x, y), v[x]), v[y])):
                assert mfun_et_laws(A, T, ob_map) == ([], [])
                assert direct_functor_failures(A, T, ob_map, phi) == []
                checked += 1
        ps = pscat.presheaves
        assert all(presheaf_square_laws(f, g) == [] for f in ps for g in ps)
        fs = enumerate_mfun_et(A, base_as_module(base)).functors
        assert all(mfun_square_laws(f, g) == [] for f in fs for g in fs)
    assert checked > 50


def test_typed_mutations_of_thin_tables_change_nothing():
    # Over a thin carrier each cell has one typed value, so the only typed
    # single-cell mutation of a composition or action table is the table
    # itself, and the full scans find no failure there.
    modules = [base_as_module(boolean_monoidal()), base_as_module(chain_meet_monoidal(3)),
               enumerate_presheaves(chain_mcat(3, 2)).as_module()]
    for mod in modules:
        cat = mod.carrier
        assert cat.thin
        comp = {(g, f): cat.compose(g, f) for g, f in pairs(cat)}
        assert all(other == comp[(g, f)] for g, f in pairs(cat)
                   for other in cat.hom(cat.dom(f), cat.cod(g)))
        assert full_scan_fincat(cat, comp) is None
        aob, amor = module_tables(mod)
        assert list(action_mutations(cat, amor)) == []
        assert full_scan_module(mod.base, cat, aob, amor) is None
