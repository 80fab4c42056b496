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
    c3_monoidal,
    c3_mult,
)
from enrichkit.enriched import mcat_from_fincat, validate_mcat
from enrichkit.errors import (
    AssociativityViolation,
    BifunctorialityViolation,
    IllTypedComposite,
    MissingComposite,
    ModuleLawViolation,
    UnitActionViolation,
    UnitViolation,
    ValidationError,
)
from enrichkit.fincat import loop_cat, monoid_cat, validate_fincat, walking_arrow
from enrichkit.mfunctor import enumerate_mfun_et, mfun_square_laws
from enrichkit.monoidal import (
    boolean_monoidal,
    chain_meet_monoidal,
    discrete_monoid_monoidal,
    loop_monoidal,
    opposite_monoidal,
    validate_monoidal,
)
from enrichkit.presheaf import enumerate_presheaves, presheaf_square_laws
from enrichkit.tensored import base_as_module, validate_module
from enrichkit.wcolim import FinSetModule, PresheafModule
from instances import (
    S3_ELEMENTS,
    boolean_chain_mcat,
    idempotent_unit_instance,
    mfun_et_laws,
    presheaf_laws,
    s3_monoidal,
    s3_mult,
    z2_two_object_mcat,
)
from test_fastpaths import codiscrete_pscat, shipped_categories


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


def full_scan_monoidal(carrier, unit, tensor_ob, tensor_mor):
    """(error, message, witness) of the first failure of strict monoidal
    tables given by names, or None: unit and associativity on objects,
    typing, the unit on morphisms, identities, interchange over every pair
    of composable pairs and associativity over every triple of morphisms."""
    oname, mname = carrier.obj_name, carrier.mor_name
    u = carrier.obj(unit)
    tob = {(carrier.obj(a), carrier.obj(b)): carrier.obj(ab) for a, b, ab in tensor_ob}
    tmor = {(carrier.mor(f), carrier.mor(g)): carrier.mor(fg) for f, g, fg in tensor_mor}
    n, m = carrier.n_objects, carrier.n_morphisms
    for a in range(n):
        for b in range(n):
            if (a, b) not in tob:
                return (MissingComposite, f"tensor_ob missing ({oname(a)!r}, {oname(b)!r})",
                        {"a": oname(a), "b": oname(b)})
    for a in range(n):
        if tob[(u, a)] != a or tob[(a, u)] != a:
            return (UnitViolation, f"tensor with unit is not the identity on {oname(a)!r}",
                    {"object": oname(a)})
    for a, b, c in itertools.product(range(n), repeat=3):
        if tob[(tob[(a, b)], c)] != tob[(a, tob[(b, c)])]:
            return (AssociativityViolation, "object tensor is not strictly associative",
                    {"a": oname(a), "b": oname(b), "c": oname(c)})
    for f in range(m):
        for g in range(m):
            if (f, g) not in tmor:
                return (MissingComposite, f"tensor_mor missing ({mname(f)!r}, {mname(g)!r})",
                        {"f": mname(f), "g": mname(g)})
            fg = tmor[(f, g)]
            if (carrier.dom(fg) != tob[(carrier.dom(f), carrier.dom(g))]
                    or carrier.cod(fg) != tob[(carrier.cod(f), carrier.cod(g))]):
                return (IllTypedComposite,
                        f"tensor_mor({mname(f)!r}, {mname(g)!r}) has wrong dom/cod",
                        {"f": mname(f), "g": mname(g)})
    id_u = carrier.id_of(u)
    for f in range(m):
        if tmor[(id_u, f)] != f or tmor[(f, id_u)] != f:
            return (UnitViolation,
                    f"tensor with id of unit is not the identity on {mname(f)!r}",
                    {"morphism": mname(f)})
    for a in range(n):
        for b in range(n):
            if tmor[(carrier.id_of(a), carrier.id_of(b))] != carrier.id_of(tob[(a, b)]):
                return (BifunctorialityViolation, "tensor of identities is not the identity",
                        {"a": oname(a), "b": oname(b)})
    for g, gp in pairs(carrier):
        for f, fp in pairs(carrier):
            if (tmor[(carrier.compose(g, gp), carrier.compose(f, fp))]
                    != carrier.compose(tmor[(g, f)], tmor[(gp, fp)])):
                return (BifunctorialityViolation, "interchange law fails",
                        {"g": mname(g), "g'": mname(gp), "f": mname(f), "f'": mname(fp)})
    for f, g, h in itertools.product(range(m), repeat=3):
        if tmor[(tmor[(f, g)], h)] != tmor[(f, tmor[(g, h)])]:
            return (AssociativityViolation, "morphism tensor is not strictly associative",
                    {"f": mname(f), "g": mname(g), "h": mname(h)})
    return None


def monoidal_outcome(carrier, unit, tensor_ob, tensor_mor):
    try:
        validate_monoidal(carrier, unit, tensor_ob, tensor_mor)
    except ValidationError as exc:
        return type(exc), str(exc), exc.witness
    return None


def monoidal_tables(M):
    """(carrier, unit, tensor_ob, tensor_mor) of M, by names."""
    c = M.carrier
    on, mn = c.obj_name, c.mor_name
    return (c, on(M.unit),
            [(on(a), on(b), on(M.tensor_ob(a, b))) for a in M.objects() for b in M.objects()],
            [(mn(f), mn(g), mn(M.tensor_mor(f, g)))
             for f in M.morphisms() for g in M.morphisms()])


def random_discrete_monoid(rng, n):
    """A discrete monoid on n elements with unit m0: uniform tables with a
    forced unit row and column, rejected until associative."""
    xs = range(n)
    while True:
        t = {(a, b): (b if a == 0 else a if b == 0 else rng.randrange(n))
             for a in xs for b in xs}
        if all(t[(t[(a, b)], c)] == t[(a, t[(b, c)])] for a in xs for b in xs for c in xs):
            return discrete_monoid_monoidal(
                [f"m{a}" for a in xs], {(f"m{a}", f"m{b}"): f"m{v}" for (a, b), v in t.items()},
                "m0", name=f"random{n}")


def product_monoidal(M, N):
    """M × N with the componentwise composition, tensor and unit: a
    non-thin base with a non-unit object that has a non-identity
    endomorphism when M = loop_monoidal(k) and N = boolean_monoidal()."""
    cm, cn = M.carrier, N.carrier

    def ob(x, y):
        return f"{cm.obj_name(x)},{cn.obj_name(y)}"

    def mor(u, v):
        return f"{cm.mor_name(u)},{cn.mor_name(v)}"

    def mors(c):
        return range(c.n_morphisms)

    carrier = validate_fincat(
        [ob(x, y) for x in M.objects() for y in N.objects()],
        [(mor(u, v), ob(cm.dom(u), cn.dom(v)), ob(cm.cod(u), cn.cod(v)))
         for u in mors(cm) for v in mors(cn)],
        [(mor(g, h), mor(f, k), mor(cm.compose(g, f), cn.compose(h, k)))
         for g, f in pairs(cm) for h, k in pairs(cn)], name=f"{M.name}x{N.name}")
    return validate_monoidal(
        carrier, ob(M.unit, N.unit),
        [(ob(a, b), ob(c, d), ob(M.tensor_ob(a, c), N.tensor_ob(b, d)))
         for a in M.objects() for b in N.objects() for c in M.objects() for d in N.objects()],
        [(mor(u, v), mor(w, z), mor(M.tensor_mor(u, w), N.tensor_mor(v, z)))
         for u in mors(cm) for v in mors(cn) for w in mors(cm) for z in mors(cn)])


def monoidal_bases():
    rng = random.Random(18)
    return ([boolean_monoidal(), chain_meet_monoidal(3), chain_meet_monoidal(4)]
            + [loop_monoidal(k) for k in (2, 3, 4)]
            + [s3_monoidal(), c3_monoidal(), opposite_monoidal(s3_monoidal())]
            + [random_discrete_monoid(rng, n) for n in (2, 3, 3, 4)]
            + [product_monoidal(loop_monoidal(2), boolean_monoidal())])


def tensor_mutations(carrier, unit, tensor_ob, tensor_mor):
    """Every deleted cell, every changed cell of either table and every
    other unit, as (table, index, value); value None deletes the cell."""
    objs, mors = carrier.objects, carrier.mor_names
    for table, rows, names in (("ob", tensor_ob, objs), ("mor", tensor_mor, mors)):
        for i, row in enumerate(rows):
            yield table, i, None
            yield from ((table, i, v) for v in names if v != row[2])
    yield from (("unit", None, v) for v in objs if v != unit)


def typed(carrier, tensor_mor, mutations):
    """The changes of tensor_mor cells to a morphism of the same type."""
    def ends(name):
        return carrier.dom(carrier.mor(name)), carrier.cod(carrier.mor(name))
    return [(table, i, v) for table, i, v in mutations
            if table == "mor" and v is not None and ends(v) == ends(tensor_mor[i][2])]


def mutated(tables, mutations):
    """The tables with each mutation applied in turn; a later one wins."""
    carrier, unit, tensor_ob, tensor_mor = tables
    given = {"ob": tensor_ob, "mor": tensor_mor}
    rows = {"ob": list(tensor_ob), "mor": list(tensor_mor)}
    for table, i, v in mutations:
        if table == "unit":
            unit = v
        else:
            rows[table][i] = None if v is None else given[table][i][:2] + (v,)
    return (carrier, unit, [r for r in rows["ob"] if r is not None],
            [r for r in rows["mor"] if r is not None])


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


def test_validate_monoidal_matches_the_full_scan():
    # Every single mutation of 14 bases, and 300 seeded double mutations of
    # each (half of them two typed changes of tensor_mor, which get past
    # the typing check): the base acting on itself through check_action
    # raises exactly what the exhaustive loops find first.
    rng = random.Random(18)
    kinds = set()
    inputs = 0
    for M in monoidal_bases():
        tables = monoidal_tables(M)
        assert monoidal_outcome(*tables) is None and full_scan_monoidal(*tables) is None
        singles = list(tensor_mutations(*tables))
        retyped = typed(tables[0], tables[3], singles)
        pools = [singles, retyped if len(retyped) > 1 else singles]
        doubles = [rng.sample(pools[k % 2], 2) for k in range(300)]
        for mutations in [[s] for s in singles] + doubles:
            case = mutated(tables, mutations)
            want = full_scan_monoidal(*case)
            assert monoidal_outcome(*case) == want, (M.name, mutations)
            kinds.add(want and want[0])
            inputs += 1
    assert inputs > 5000
    assert kinds == {None, MissingComposite, UnitViolation, AssociativityViolation,
                     IllTypedComposite, BifunctorialityViolation}


def test_right_unit_is_checked_with_the_left_one_per_object():
    # chain3-meet with 0 ∧ 2 = 1 (the right unit fails at 0) and 2 ∧ 1 = 0
    # (the left unit fails at 1): the first failing object is 0.
    tables = monoidal_tables(chain_meet_monoidal(3))
    tensor_ob = tables[2]
    case = mutated(tables, [("ob", tensor_ob.index(("0", "2", "0")), "1"),
                            ("ob", tensor_ob.index(("2", "1", "1")), "0")])
    want = (UnitViolation, "tensor with unit is not the identity on '0'", {"object": "0"})
    assert full_scan_monoidal(*case) == want
    assert monoidal_outcome(*case) == want


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
