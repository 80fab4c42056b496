"""The row-at-a-time law checks of validate_fincat and validate_module, and
the law tables behind validate_presheaf and validate_mfun_et, must raise
exactly what a plain cell-by-cell scan raises.

The references below are written independently of the library: they walk
every morphism pair in O(M²) declaration order and compare one equation at
a time, in the scan order the validators document.
"""

import itertools
from pathlib import Path

import pytest

from enrichkit.cli import Builder, parse_spec
from enrichkit.corpus import CorpusSampler
from enrichkit.enriched import validate_mcat
from enrichkit.errors import (
    AssociativityViolation,
    BifunctorialityViolation,
    CompatibilityViolation,
    ModuleLawViolation,
    TypeMismatch,
    UnitActionViolation,
    UnitViolation,
)
from enrichkit.fincat import (
    chain_cat,
    discrete_cat,
    loop_cat,
    parallel_pair,
    terminal_cat,
    validate_fincat,
    walking_arrow,
)
from enrichkit.mfunctor import check_mfun_mor, enumerate_mfun_et, validate_mfun_et
from enrichkit.monoidal import (
    boolean_monoidal,
    chain_meet_monoidal,
    discrete_monoid_monoidal,
    loop_monoidal,
    validate_monoidal,
)
from enrichkit.presheaf import check_presheaf_mor, enumerate_presheaves, validate_presheaf
from enrichkit.tensored import base_as_module, validate_module
from instances import (
    boolean_chain_mcat,
    idempotent_unit_instance,
    s3_monoidal,
    z2_two_object_mcat,
)

SPECS = Path(__file__).resolve().parent.parent / "demos" / "specs"


def brute_pairs(cat):
    return [(g, f) for f in range(cat.n_morphisms) for g in range(cat.n_morphisms)
            if cat.dom(g) == cat.cod(f)]


def codiscrete_pscat(k=3, n=2):
    """P_M(A) of the codiscrete n-object category over Z_k, every composite
    r0.  Its hom-sets have several morphisms, so a single table cell can be
    changed without breaking typing (a thin category such as the presheaves
    on a chain over a meet base has no such cell)."""
    base = loop_monoidal(k)
    c = base.carrier
    xs = range(n)
    A = validate_mcat(
        base, [f"x{i}" for i in xs],
        {(x, y): c.obj("*") for x in xs for y in xs},
        {x: c.mor("r0") for x in xs},
        {(x, y, z): c.mor("r0") for x in xs for y in xs for z in xs},
        name=f"codiscrete{n}")
    return enumerate_presheaves(A)


def shipped_categories():
    cats = [terminal_cat(), walking_arrow(), parallel_pair(), chain_cat(4),
            discrete_cat("abc"), loop_cat(3)]
    cats += [M.carrier for M in (boolean_monoidal(), chain_meet_monoidal(3),
                                 loop_monoidal(4), s3_monoidal())]
    for spec in sorted(SPECS.glob("*.json")):
        builder = Builder(parse_spec(spec))
        for name in builder.spec.categories:
            try:
                cats.append(builder.category(name))
            except AssociativityViolation:
                pass  # corrupted_assoc ships a deliberately broken table
    A = boolean_chain_mcat()
    cats.append(enumerate_presheaves(A).fincat)
    cats.append(enumerate_mfun_et(A, base_as_module(A.base)).fincat)
    cats.append(codiscrete_pscat().fincat)
    return cats


def test_composable_pairs_match_brute_force_order():
    for cat in shipped_categories():
        assert list(cat.composable_pairs()) == brute_pairs(cat), cat.name


# --- validate_fincat ---------------------------------------------------------

def fincat_tables(cat):
    objects = list(cat.objects)
    morphisms = [(cat.mor_name(m), cat.obj_name(cat.dom(m)), cat.obj_name(cat.cod(m)))
                 for m in range(cat.n_morphisms)]
    comp = {(g, f): cat.compose(g, f) for g, f in brute_pairs(cat)}
    identity = {cat.obj_name(x): cat.mor_name(cat.id_of(x))
                for x in range(cat.n_objects)}
    return objects, morphisms, comp, identity


def brute_fincat_failure(cat, comp):
    """First unit or associativity failure of a typed, total table."""
    name = cat.mor_name
    for f in range(cat.n_morphisms):
        if comp[(cat.id_of(cat.cod(f)), f)] != f:
            return UnitViolation, {"morphism": name(f), "side": "left"}
        if comp[(f, cat.id_of(cat.dom(f)))] != f:
            return UnitViolation, {"morphism": name(f), "side": "right"}
    for g, f in brute_pairs(cat):
        for h in range(cat.n_morphisms):
            if (cat.dom(h) == cat.cod(g)
                    and comp[(h, comp[(g, f)])] != comp[(comp[(h, g)], f)]):
                return AssociativityViolation, {"h": name(h), "g": name(g), "f": name(f)}
    return None


def fincat_outcome(objects, morphisms, comp, identity, cat):
    compose = [(cat.mor_name(g), cat.mor_name(f), cat.mor_name(gf))
               for (g, f), gf in comp.items()]
    try:
        validate_fincat(objects, morphisms, compose, identity)
    except (UnitViolation, AssociativityViolation) as exc:
        return type(exc), exc.witness
    return None


def test_single_cell_composition_mutations_raise_brute_force_witness():
    cat = codiscrete_pscat().fincat
    objects, morphisms, comp, identity = fincat_tables(cat)
    failures = 0
    for g, f in brute_pairs(cat)[::5]:
        for other in cat.hom(cat.dom(f), cat.cod(g)):
            if other == comp[(g, f)]:
                continue
            mutated = dict(comp)
            mutated[(g, f)] = other
            want = brute_fincat_failure(cat, mutated)
            assert fincat_outcome(objects, morphisms, mutated, identity, cat) == want
            failures += want is not None
    assert failures
    assert fincat_outcome(objects, morphisms, comp, identity, cat) is None


# --- validate_module ---------------------------------------------------------

def brute_module_failure(base, carrier, aob, amor):
    """First failure after the object laws and typing, in the validator's
    documented order: unit action, identity action, interchange, module law."""
    B = base.carrier
    bname, cname = base.mor_name, carrier.mor_name
    for h in range(carrier.n_morphisms):
        if amor[(B.id_of(base.unit), h)] != h:
            return UnitActionViolation, {"morphism": cname(h)}
    for m in range(B.n_objects):
        for b in range(carrier.n_objects):
            if amor[(B.id_of(m), carrier.id_of(b))] != carrier.id_of(aob[(m, b)]):
                return BifunctorialityViolation, {"m": base.obj_name(m),
                                                  "b": carrier.obj_name(b)}
    for u, up in brute_pairs(B):
        for h, hp in brute_pairs(carrier):
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


def module_outcome(base, carrier, aob, amor):
    try:
        validate_module(base, carrier, aob, amor)
    except (UnitActionViolation, BifunctorialityViolation, ModuleLawViolation) as exc:
        return type(exc), exc.witness
    return None


def test_single_cell_action_mutations_raise_brute_force_witness():
    pscat = codiscrete_pscat()
    module = pscat.as_module()
    base, carrier = pscat.source.base, pscat.fincat
    B = base.carrier
    aob = {(m, b): module.act_ob(m, b)
           for m in range(B.n_objects) for b in range(carrier.n_objects)}
    amor = {(u, h): module.act_mor(u, h)
            for u in range(B.n_morphisms) for h in range(carrier.n_morphisms)}
    kinds = set()
    for (u, h), uh in amor.items():
        for other in carrier.hom(carrier.dom(uh), carrier.cod(uh)):
            if other == uh:
                continue
            mutated = dict(amor)
            mutated[(u, h)] = other
            want = brute_module_failure(base, carrier, aob, mutated)
            assert module_outcome(base, carrier, aob, mutated) == want
            if want is not None:
                kinds.add(want[0])
    assert BifunctorialityViolation in kinds
    assert module_outcome(base, carrier, aob, amor) is None


def test_module_law_row_check_raises_brute_force_witness():
    # Z2 = {e, s} acting on Z3 with s sending every morphism to r0: each
    # action is a functor, so only the module law on morphisms can fail.
    base = discrete_monoid_monoidal(
        ["e", "s"], {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s",
                     ("s", "s"): "e"}, "e")
    carrier = loop_cat(3)
    B = base.carrier
    aob = {(m, 0): 0 for m in range(B.n_objects)}
    amor = {(u, h): h if B.mor_name(u) == "id_e" else carrier.id_of(0)
            for u in range(B.n_morphisms) for h in range(carrier.n_morphisms)}
    want = brute_module_failure(base, carrier, aob, amor)
    assert want == (ModuleLawViolation, {"u": "id_s", "v": "id_s", "h": "r1"})
    assert module_outcome(base, carrier, aob, amor) == want


def test_module_law_witness_off_the_generator_rows():
    # The 3-chain under meet, its morphisms declared le01, le12, le02, then
    # the identities: greedily S = {le01, le12}, and le02 = le12∘le01 lies
    # outside S.  Z2 acts by h -> a(u) + h with a(le01) = a(le02) = 1 and
    # a(le12) = 0, so each action is a functor and only the module law on
    # morphisms fails.  Its first failing row in the full scan, (le01, le01),
    # has no identity in it, so no generator row names it.
    names = {(0, 1): "le01", (1, 2): "le12", (0, 2): "le02",
             (0, 0): "id_0", (1, 1): "id_1", (2, 2): "id_2"}
    chain = validate_fincat(
        ["0", "1", "2"], [(n, str(i), str(j)) for (i, j), n in names.items()],
        [(names[(j, k)], names[(i, j)], names[(i, k)])
         for i in range(3) for j in range(i, 3) for k in range(j, 3)])
    base = validate_monoidal(
        chain, "2",
        [(str(a), str(b), str(min(a, b))) for a in range(3) for b in range(3)],
        [(un, vn, names[(min(du, dv), min(cu, cv))])
         for (du, cu), un in names.items() for (dv, cv), vn in names.items()])
    B = base.carrier
    assert [B.mor_name(s) for s in B.generators()] == ["le01", "le12"]
    carrier = loop_cat(2)
    shift = {"le01": 1, "le02": 1}
    aob = {(m, 0): 0 for m in range(B.n_objects)}
    amor = {(u, h): (shift.get(B.mor_name(u), 0) + h) % 2
            for u in range(B.n_morphisms) for h in range(carrier.n_morphisms)}
    want = brute_module_failure(base, carrier, aob, amor)
    assert want == (ModuleLawViolation, {"u": "le01", "v": "le01", "h": "r0"})
    assert module_outcome(base, carrier, aob, amor) == want


# --- validate_presheaf / validate_mfun_et on the shared law tables -----------

def law_instances():
    return [boolean_chain_mcat(), z2_two_object_mcat()]


def brute_presheaf_failure(A, values, action):
    """First failure in validate_presheaf's documented order: typing per
    (x, y), the unit action per x, compatibility per (x, y, z)."""
    base, n, name = A.base, A.n_objects, A.obj_name
    for x in range(n):
        for y in range(n):
            a = action[(x, y)]
            if (base.dom(a) != base.tensor_ob(values[y], A.hom(x, y))
                    or base.cod(a) != values[x]):
                return TypeMismatch, {"x": name(x), "y": name(y)}
    for x in range(n):
        e = base.compose(action[(x, x)],
                         base.tensor_mor(base.id_of(values[x]), A.unit(x)))
        if e != base.id_of(values[x]):
            return UnitActionViolation, {"x": name(x)}
    for x in range(n):
        for y in range(n):
            for z in range(n):
                c1 = base.compose(action[(x, y)], base.tensor_mor(
                    action[(y, z)], base.id_of(A.hom(x, y))))
                c2 = base.compose(action[(x, z)], base.tensor_mor(
                    base.id_of(values[z]), A.comp(x, y, z)))
                if c1 != c2:
                    return CompatibilityViolation, {"x": name(x), "y": name(y),
                                                    "z": name(z)}
    return None


def brute_mfun_et_failure(A, T, ob_map, phi):
    """First failure in validate_mfun_et's documented order: typing per
    (x, y), the compatibility square per (x, y, z), the unit action per x."""
    base, n, name = A.base, A.n_objects, A.obj_name
    for x in range(n):
        for y in range(n):
            p = phi[(x, y)]
            if (T.dom(p) != T.act_ob(A.hom(x, y), ob_map[x])
                    or T.cod(p) != ob_map[y]):
                return TypeMismatch, {"x": name(x), "y": name(y)}
    for x in range(n):
        for y in range(n):
            for z in range(n):
                lhs = T.compose(phi[(x, z)], T.act_mor(A.comp(x, y, z),
                                                       T.id_of(ob_map[x])))
                rhs = T.compose(phi[(y, z)], T.act_mor(base.id_of(A.hom(y, z)),
                                                       phi[(x, y)]))
                if lhs != rhs:
                    return CompatibilityViolation, {"x": name(x), "y": name(y),
                                                    "z": name(z)}
    for x in range(n):
        e = T.compose(phi[(x, x)], T.act_mor(A.unit(x), T.id_of(ob_map[x])))
        if e != T.id_of(ob_map[x]):
            return UnitActionViolation, {"x": name(x)}
    return None


def outcome(validate, *args):
    try:
        validate(*args)
    except (TypeMismatch, UnitActionViolation, CompatibilityViolation) as exc:
        return type(exc), exc.witness
    return None


def test_single_cell_presheaf_mutations_raise_brute_force_witness():
    kinds = set()
    for A in law_instances():
        for p in enumerate_presheaves(A).presheaves:
            for cell in p.action:
                for other in range(A.base.carrier.n_morphisms):
                    if other == p.action[cell]:
                        continue
                    mutated = {**p.action, cell: other}
                    want = brute_presheaf_failure(A, p.values, mutated)
                    assert outcome(validate_presheaf, A, p.values, mutated) == want
                    kinds.add(want and want[0])
    assert {UnitActionViolation, CompatibilityViolation} <= kinds


def test_single_cell_phi_mutations_raise_brute_force_witness():
    # The idempotent instance has a cell where only the unit law fails.
    kinds = set()
    targets = [(A, base_as_module(A.base)) for A in law_instances()]
    for A, T in targets + [idempotent_unit_instance()]:
        for F in enumerate_mfun_et(A, T).functors:
            for cell in F.phi:
                for other in range(T.carrier.n_morphisms):
                    if other == F.phi[cell]:
                        continue
                    mutated = {**F.phi, cell: other}
                    want = brute_mfun_et_failure(A, T, F.ob_map, mutated)
                    assert outcome(validate_mfun_et, A, T, F.ob_map, mutated) == want
                    kinds.add(want and want[0])
    assert {UnitActionViolation, CompatibilityViolation} <= kinds


def test_missing_action_slot_is_named_in_slot_order():
    # a dropped slot is named; a mistyped slot before it is named first
    # (over the one-object Z2 base every map is typed, so that part needs
    # the Boolean chain)
    ordered = 0
    for A in law_instances():
        T = base_as_module(A.base)
        p = enumerate_presheaves(A).presheaves[0]
        F = enumerate_mfun_et(A, T).functors[0]
        for validate, args, table in ((validate_presheaf, (A, p.values), p.action),
                                      (validate_mfun_et, (A, T, F.ob_map), F.phi)):
            slots = list(table)
            for cell in slots:
                partial = {k: v for k, v in table.items() if k != cell}
                with pytest.raises(TypeMismatch, match="missing action component") as exc:
                    validate(*args, partial)
                assert exc.value.witness == A.cell_names(cell)
            first, last = slots[0], slots[-1]
            mistyped = next((m for m in range(T.carrier.n_morphisms)
                             if T.carrier.dom(m) != T.carrier.dom(table[first])), None)
            if mistyped is None:
                continue
            partial = {k: v for k, v in table.items() if k != last}
            with pytest.raises(TypeMismatch, match="wrong dom/cod") as exc:
                validate(*args, {**partial, first: mistyped})
            assert exc.value.witness == A.cell_names(first)
            ordered += 1
    assert ordered == 2


# --- enumerated presheaf and functor categories ------------------------------

def brute_families(n_values, n_objects, slots, valid):
    """Every (values, table) with a value in range(n_values) per object and
    one entry per slot drawn from all type-correct maps, kept when valid.
    slots(values) is [(slot, maps)]."""
    out = []
    for values in itertools.product(range(n_values), repeat=n_objects):
        keys, choices = zip(*slots(values)) if n_objects else ((), ())
        for picks in itertools.product(*choices):
            table = dict(zip(keys, picks))
            if valid(values, table):
                out.append((values, table))
    return out


def brute_presheaves(A):
    base, n = A.base, A.n_objects
    return brute_families(
        base.carrier.n_objects, n,
        lambda v: [((x, y), base.hom(base.tensor_ob(v[y], A.hom(x, y)), v[x]))
                   for x in range(n) for y in range(n)],
        lambda v, a: brute_presheaf_failure(A, v, a) is None)


def brute_functors(A, T):
    n = A.n_objects
    return brute_families(
        T.carrier.n_objects, n,
        lambda v: [((x, y), T.hom(T.act_ob(A.hom(x, y), v[x]), v[y]))
                   for x in range(n) for y in range(n)],
        lambda v, phi: brute_mfun_et_failure(A, T, v, phi) is None)


def presheaf_square(A, f, g, t, x, y):
    """g(x,y) ∘ (t_y ⊗ id) = t_x ∘ f(x,y) for (values, action) pairs f, g."""
    base = A.base
    lhs = base.compose(g[1][(x, y)], base.tensor_mor(t[y], base.id_of(A.hom(x, y))))
    return lhs == base.compose(t[x], f[1][(x, y)])


def functor_square(A, T, f, g, t, x, y):
    """g(x,y) ∘ act(id, t_x) = t_y ∘ f(x,y) for (ob_map, phi) pairs f, g."""
    lhs = T.compose(g[1][(x, y)], T.act_mor(A.base.id_of(A.hom(x, y)), t[x]))
    return lhs == T.compose(t[y], f[1][(x, y)])


def brute_morphisms(A, cat, objs, square):
    n = A.n_objects
    cells = [(x, y) for x in range(n) for y in range(n)]
    return [(i, j, t) for i, f in enumerate(objs) for j, g in enumerate(objs)
            for t in itertools.product(*[cat.hom(a, b) for a, b in zip(f[0], g[0])])
            if all(square(f, g, t, x, y) for x, y in cells)]


def brute_mor_witnesses(A, cat, f, g, t, square):
    """The ill-typed components, else the failing squares, in scan order."""
    n, name = A.n_objects, A.obj_name
    ill = [{"x": name(x), "kind": "ill-typed"} for x in range(n)
           if cat.dom(t[x]) != f[0][x] or cat.cod(t[x]) != g[0][x]]
    return ill or [{"x": name(x), "y": name(y), "kind": "square"}
                   for x in range(n) for y in range(n) if not square(f, g, t, x, y)]


def morphism_mutations(cat, t):
    for x, c in enumerate(t):
        for other in range(cat.n_morphisms):
            if other != c:
                yield t[:x] + (other,) + t[x + 1:]


def family_key(values, table):
    return tuple(values), tuple(sorted(table.items()))


def family_instances():
    """The shipped law instances and seeded random enriched categories.  The
    sampled ones are over thin bases or have one object over Z_k, where a
    typed mutation of a morphism is again a morphism; the codiscrete Z2
    pair reaches the square witnesses."""
    out = law_instances()
    for seed in range(40):
        sampler = CorpusSampler(seed)
        out.append(sampler.random_mcat(sampler.random_monoidal())[0])
    return out


def test_enumerated_categories_match_brute_force_tables():
    # Each law is evaluated as a direct equation on every type-correct table,
    # without the search engine or the law tables.  The objects and the
    # morphisms agree in enumeration order, and so does the witness list of
    # every single-component mutation of a morphism.
    kinds = {"presheaf": set(), "functor": set()}
    for k, A in enumerate(family_instances()):
        pscat = enumerate_presheaves(A)
        base, carrier = A.base, A.base.carrier
        T = base_as_module(base)
        fcat = enumerate_mfun_et(A, T)
        cases = [
            ("presheaf", carrier,
             [(p.values, p.action) for p in pscat.presheaves], brute_presheaves(A),
             [(pscat.index_of(m.source), pscat.index_of(m.target), m.components)
              for m in pscat.morphisms],
             lambda f, g, t, x, y: presheaf_square(A, f, g, t, x, y),
             lambda i, j, t: check_presheaf_mor(pscat.presheaves[i],
                                                pscat.presheaves[j], t)),
            ("functor", T.carrier,
             [(F.ob_map, F.phi) for F in fcat.functors], brute_functors(A, T),
             [(m.source_index, m.target_index, m.components) for m in fcat.morphisms],
             lambda f, g, t, x, y: functor_square(A, T, f, g, t, x, y),
             lambda i, j, t: check_mfun_mor(fcat.functors[i], fcat.functors[j], t)),
        ]
        for kind, cat, objs, brute_objs, mors, square, check in cases:
            assert ([family_key(*o) for o in objs]
                    == [family_key(*o) for o in brute_objs]), (k, kind)
            assert mors == brute_morphisms(A, cat, brute_objs, square), (k, kind)
            for i, j, t in mors:
                for mutated in morphism_mutations(cat, t):
                    witnesses = brute_mor_witnesses(A, cat, objs[i], objs[j],
                                                    mutated, square)
                    assert check(i, j, mutated) == witnesses, (k, kind)
                    kinds[kind].update(w["kind"] for w in witnesses)
    assert kinds == {"presheaf": {"ill-typed", "square"},
                     "functor": {"ill-typed", "square"}}
