"""The row-at-a-time law checks of validate_fincat and validate_module must
raise exactly what a plain cell-by-cell scan raises.

The references below are written independently of the library: they walk
every morphism pair in O(M²) declaration order and compare one equation at
a time, in the scan order the validators document.
"""

from pathlib import Path

from enrichkit.cli import Builder, parse_spec
from enrichkit.corpus import boolean_chain_mcat, s3_monoidal
from enrichkit.enriched import validate_mcat
from enrichkit.errors import (
    AssociativityViolation,
    BifunctorialityViolation,
    ModuleLawViolation,
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
from enrichkit.mfunctor import enumerate_mfun_et
from enrichkit.monoidal import (
    boolean_monoidal,
    chain_meet_monoidal,
    discrete_monoid_monoidal,
    loop_monoidal,
)
from enrichkit.presheaf import enumerate_presheaves
from enrichkit.tensored import base_as_module, validate_module

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
