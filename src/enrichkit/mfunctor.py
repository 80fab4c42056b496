"""The two species of structure-preserving functor over a monoidal base.

``MFunTT`` goes between two left-tensored categories: an ordinary functor of
carriers plus an explicit structure isomorphism, natural in both variables
and satisfying the cocycle compatibility for iterated actions.

``MFunET`` goes from an enriched category to a left-tensored one: an object
map plus action maps act(hom(x,y), f(x)) -> f(y) whose compatibility square
commutes for every object triple.  The unit-action law is enforced here and
measured separately (see ``measure_unit_automatism``): in a strict finite
model the compatibility square alone does not force it.

Such a functor is a covariant family of action maps.  A presheaf is the
contravariant family t[(x, y)]: values[y] ⊗ hom(x, y) -> values[x] into the
base acting on itself from the right, a right action being a left action of
the reversed base.  The slot types, the unit and compatibility laws, the
morphism square and the enumeration's plan loop are stated once for both
readings (``action_type``, ``action_laws``, ``action_square_laws``,
``action_families``); the presheaf layer and the corpus sampler read them
contravariantly.  Over a pointwise base the validators first scan the
generator slice of these tables (rule C, ``enriched.MCat``:
``generator_laws``, ``generator_squares``) and the full tables only when
the slice fails; the tables and the searches keep every support cell.
"""

from dataclasses import dataclass
from functools import cache

from .caps import Caps, DEFAULT_CAPS
from .errors import (
    CocycleViolation,
    CompatibilityViolation,
    NaturalityViolation,
    ShapeMismatch,
    SizeBound,
    UnitActionViolation,
)
from .fincat import FinCat, FinFunctor, family_category, fin_functor
from .search import backtrack, bounded_plans, check_family, failures, mor_failures


class MFunTT:
    """Validated tensored-to-tensored functor; construct via validate_mfun_tt."""

    def __init__(self, source, target, functor, sigma):
        self.source = source
        self.target = target
        self.functor = functor
        self.sigma = dict(sigma)


class MFunET:
    """Validated enriched-to-tensored functor; construct via validate_mfun_et.

    Equality and hash are structural over (source, ob_map, phi); the name
    and the target are ignored."""

    def __init__(self, source, target, ob_map, phi, name=""):
        self.source = source
        self.target = target
        self.ob_map = tuple(ob_map)
        self.phi = dict(phi)
        self.name = name
        self._hash = hash((source, self.ob_map, frozenset(self.phi.items())))

    def __eq__(self, other):
        if not isinstance(other, MFunET):
            return NotImplemented
        return (self.source == other.source and self.ob_map == other.ob_map
                and self.phi == other.phi)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"MFunET({self.name or self.ob_map!r})"


@dataclass(frozen=True)
class MFunMor:
    source_index: int
    target_index: int
    components: tuple


def validate_mfun_tt(source, target, functor: FinFunctor, sigma) -> MFunTT:
    """Check naturality in both variables and the cocycle compatibility.

    sigma: {(m, a): target-carrier morphism f(act(m,a)) -> act(m, f(a))},
    keyed by base object x source-carrier object; every component must be
    invertible.
    """
    if source.base != target.base:
        raise ShapeMismatch("source and target are tensored over different bases")
    base = source.base
    A, B = source.carrier, target.carrier
    sigma = dict(sigma)

    for m in base.objects():
        for a in range(A.n_objects):
            if (m, a) not in sigma:
                raise NaturalityViolation(
                    "missing structure component",
                    witness={"m": base.obj_name(m), "a": A.obj_name(a)})
            s = sigma[(m, a)]
            want_dom = functor.ob_map[source.act_ob(m, a)]
            want_cod = target.act_ob(m, functor.ob_map[a])
            if B.dom(s) != want_dom or B.cod(s) != want_cod:
                raise NaturalityViolation(
                    "structure component has wrong dom/cod",
                    witness={"m": base.obj_name(m), "a": A.obj_name(a),
                             "kind": "ill-typed"})
            if not B.is_iso(s):
                raise NaturalityViolation(
                    "structure component is not invertible",
                    witness={"m": base.obj_name(m), "a": A.obj_name(a),
                             "kind": "not-invertible"})

    # naturality in both variables over every pair (base mor, carrier mor)
    for u in base.morphisms():
        for h in range(A.n_morphisms):
            m, mp = base.dom(u), base.cod(u)
            a, ap = A.dom(h), A.cod(h)
            lhs = B.compose(sigma[(mp, ap)], functor.mor_map[source.act_mor(u, h)])
            rhs = B.compose(target.act_mor(u, functor.mor_map[h]), sigma[(m, a)])
            if lhs != rhs:
                raise NaturalityViolation(
                    "naturality square fails",
                    witness={"u": base.mor_name(u), "h": A.mor_name(h)})

    # cocycle: sigma_{m⊗n, a} = act(m, sigma_{n,a}) ∘ sigma_{m, act(n,a)}
    for m in base.objects():
        for n_ in base.objects():
            for a in range(A.n_objects):
                lhs = sigma[(base.tensor_ob(m, n_), a)]
                rhs = B.compose(target.act_mor(base.id_of(m), sigma[(n_, a)]),
                                sigma[(m, source.act_ob(n_, a))])
                if lhs != rhs:
                    raise CocycleViolation(
                        "cocycle compatibility fails",
                        witness={"m": base.obj_name(m), "n": base.obj_name(n_),
                                 "a": A.obj_name(a)})

    return MFunTT(source, target, functor, sigma)


def validate_mfun_et(source, target, ob_map, phi, name="",
                     caps: Caps = DEFAULT_CAPS) -> MFunET:
    """Check the compatibility square for all triples and the unit action.

    phi: {(x, y): target morphism act(hom(x,y), f(x)) -> f(y)}.
    ``caps`` is accepted because ``bench/workloads.py`` passes it; it is not read.
    """
    if source.base != target.base:
        raise ShapeMismatch("enriched source and tensored target disagree on the base")
    ob_map = tuple(ob_map)
    phi = dict(phi)
    unit, compat = action_laws(source, target, ob_map, False)
    check_family(target, action_slots(source, target, ob_map, False), phi, (
        (CompatibilityViolation, "compatibility square fails", compat),
        (UnitActionViolation, "unit action is not the identity", unit)),
        source.cell_names, generator_laws(source, target, ob_map, False, unit, compat))
    return MFunET(source, target, ob_map, phi, name=name)


def mfun_et_laws(source, target, ob_map):
    """The functor laws as two law tables (compat, unit): ``action_laws``
    read covariantly."""
    unit, compat = action_laws(source, target, ob_map, False)
    return compat, unit


def mfun_square_laws(f: MFunET, g: MFunET):
    """The morphism square per (x, y): ``action_square_laws`` read
    covariantly."""
    return action_square_laws(f.source, f.target, False)(f.phi, g.phi)


def check_mfun_mor(f: MFunET, g: MFunET, components):
    """Witness list for the morphism square; empty means valid."""
    laws = mfun_square_laws(f, g)
    return mor_failures(f.source, f.target, f.ob_map, g.ob_map, laws, components,
                        generator_squares(f.source, laws))


# --- families of action maps: t[(x, y)]: act(hom(x, y), values[s]) -> values[e]
# with (s, e) = (x, y), or (y, x) for a contravariant family (``contra``)

def action_type(source, target, values, slot, contra):
    """(dom, cod) of the action map in ``slot`` = (x, y):
    act(hom(x, y), values[s]) -> values[e]."""
    x, y = slot
    s, e = (y, x) if contra else slot
    return target.act_ob(source.hom(x, y), values[s]), values[e]


def action_slots(source, target, values, contra):
    """(slot, (dom, cod)) per action slot (x, y), in slot order."""
    xs = range(source.n_objects)
    return (((x, y), action_type(source, target, values, (x, y), contra))
            for x in xs for y in xs)


def action_cands(source, target, values, contra):
    """The type-correct action maps per slot, in slot order."""
    return {slot: target.hom(dom, cod)
            for slot, (dom, cod) in action_slots(source, target, values, contra)}


def action_laws(source, target, values, contra):
    """The laws of a family of action maps with value map ``values``
    (Kelly 1982, §1.2): the unit action per x, then compatibility per
    (x, y, z).  Returned as two law tables (unit, compat) over the action
    slots (x, y); both are empty over a thin target, where the two sides of
    each law share a hom-set once the actions are typed.  Cells with an
    initial hom factor are discharged: compatibility is a pair of maps out
    of act(hom(y, z) ⊗ hom(x, y), values[start]), so it runs over
    ``source.support_triples`` only.

    Compatibility compares t[(x, z)] ∘ act(comp(x, y, z), id) with the
    chain of two actions out of values[start].  A covariant chain starts at
    x and acts by hom(x, y) first; a contravariant one starts at z and acts
    by hom(y, z) first, as a right action applies the right factor of
    hom(y, z) ⊗ hom(x, y) last.

    The parts of a cell that do not depend on the actions are computed at
    the point of the law where the cell first needs them and then kept by
    the table: a search pays for them once per cell, and a validator meets
    any error they raise (``Overflow``) at the same cell and step as the law
    itself."""
    if target.thin:
        return [], []
    base = source.base
    xs = range(source.n_objects)

    @cache
    def value_id(x):
        return target.id_of(values[x])

    kept = {}  # per cell, the parts that do not depend on the actions

    def unit_law(t, cell):
        x, = cell
        side = kept.get(cell)
        if side is None:
            side = kept[cell] = target.act_mor(source.unit(x), value_id(x))
        return target.compose(t[(x, x)], side) == value_id(x)

    def compat_law(t, cell):
        parts = kept.get(cell)
        if parts is None:
            x, y, z = cell
            first, second, start = ((y, z), (x, y), z) if contra else ((x, y), (y, z), x)
            side = target.act_mor(source.comp(x, y, z), value_id(start))
            parts = kept[cell] = ((x, z), side, first, second,
                                  base.id_of(source.hom(*second)))
        xz, side, first, second, id_second = parts
        return (target.compose(t[xz], side)
                == target.compose(t[second], target.act_mor(id_second, t[first])))

    return ([(((x, x),), unit_law, (x,)) for x in xs],
            [(((x, y), (y, z), (x, z)), compat_law, (x, y, z))
             for x, y, z in source.support_triples])


def action_square_laws(source, target, contra):
    """laws(f, g): the morphism square g[(x, y)] ∘ act(id, t[s]) = t[e] ∘
    f[(x, y)] per (x, y) between the action maps f and g, as a law table
    over the component slots x; empty over a thin target.  The square is a
    pair of maps out of act(hom(x, y), values[s]), so it runs over
    ``source.support`` only: cells with an initial hom factor are
    discharged.  The ends and hom identities of the cells are found once,
    for every pair of families."""
    if target.thin:
        return lambda f, g: []
    base = source.base
    parts = {(x, y): ((y, x) if contra else (x, y), base.id_of(source.hom(x, y)))
             for x, y in source.support}

    def laws(f, g):
        def square(t, cell):
            (s, e), id_hom = parts[cell]
            return (target.compose(g[cell], target.act_mor(id_hom, t[s]))
                    == target.compose(t[e], f[cell]))

        return [(cell, square, cell) for cell in source.support]

    return laws


def generator_laws(source, target, values, contra, unit, compat):
    """Rule C (``enriched.MCat``) for a validator: the unit cells and the
    compatibility cells (x, y, z) whose hom(y, z) meets the generators,
    which hold only if every cell does; None where the rule does not
    apply.  A check without the unit cells must not use it.

    Each cell outside the slice keeps a law that only builds
    act(hom(y, z) ⊗ hom(x, y), values[start]); every other object its law
    builds has that size or is a slot type, which the typing check has
    built.  A cell whose law would raise ``Overflow`` so raises here, and
    the validator meets that error in the full scan, as without the rule."""
    pairs = source.generator_pairs()
    if pairs is None:
        return None
    dom = source.base.dom

    def fits(t, cell):
        x, y, z = cell
        target.act_ob(dom(source.comp(x, y, z)), values[z if contra else x])
        return True

    return unit + [law if law[2][1:] in pairs else (law[0], fits, law[2])
                   for law in compat]


def generator_squares(source, squares):
    """Rule C for a morphism square between two validated families: the
    cells (x, y) whose hom(x, y) meets the generators; None where the rule
    does not apply.  A square builds only act(hom(x, y), values[s]) of
    either family, the domains of its two components, so a cell outside
    the slice raises no ``Overflow`` that the slice misses."""
    pairs = source.generator_pairs()
    if pairs is None:
        return None
    return [law for law in squares if law[2] in pairs]


def action_families(source, target, contra, caps, check_unit):
    """All (values, t, unit laws) with t satisfying compatibility, in lex
    order of (value map, action choices): the plan loop of both
    enumerations.  The unit laws are enforced only when check_unit is set,
    and returned either way.  They go first: the unit law fixes t on the
    unit slice before any compatibility cell is built, and the solutions do
    not depend on the order of the laws.  Every compatibility cell is
    searched: rule C needs the unit cells."""
    for values, cands in bounded_plans(
            range(target.carrier.n_objects), source.n_objects,
            lambda values: action_cands(source, target, values, contra), caps,
            "presheaf" if contra else "functor"):
        unit, compat = action_laws(source, target, values, contra)
        for t in backtrack(cands, unit + compat if check_unit else compat):
            yield values, t, unit


class MFunCategory:
    """The enumerated functor category, with its FinCat presentation."""

    def __init__(self, source, target, functors, morphisms, fincat):
        self.source = source
        self.target = target
        self.functors = tuple(functors)
        self.morphisms = tuple(morphisms)
        self.fincat = fincat

    def mors_between(self, i, j):
        return self.fincat.hom(i, j)


def enumerate_mfun_et(source, target, caps: Caps = DEFAULT_CAPS) -> MFunCategory:
    """Complete duplicate-free list of enriched-to-tensored functors in
    lexicographic order, with the full morphism tables between entries,
    packaged as a validated FinCat."""
    if not isinstance(target.carrier, FinCat):
        raise SizeBound("enumeration needs a finite target carrier")
    functors = [
        MFunET(source, target, ob_map, phi, name=f"G{k}")
        for k, (ob_map, phi, _) in enumerate(
            action_families(source, target, False, caps, True))
    ]

    square_laws = action_square_laws(source, target, False)
    fincat, mors = family_category(
        target.carrier, functors, lambda f: f.ob_map,
        lambda f, g: square_laws(f.phi, g.phi),
        "functor-morphism", "G", "t", "FunCat", caps)
    return MFunCategory(source, target, functors,
                        [MFunMor(i, j, comps) for i, j, comps in mors], fincat)


def measure_unit_automatism(source, target, caps: Caps = DEFAULT_CAPS):
    """Experiment for the open question on automatic unit constraints.

    Enumerates all (ob_map, phi) satisfying only the compatibility square
    and counts how many violate the unit-action law.  Returns
    (candidates, violations, witnesses).  The search has no unit cells, so
    it keeps every compatibility cell: rule C (``enriched.MCat``) would
    admit more candidates without them.
    """
    candidates = 0
    violations = 0
    witnesses = []
    for ob_map, phi, unit in action_families(source, target, False, caps, False):
        candidates += 1
        cell = next(failures(unit, phi), None)
        if cell is not None:
            violations += 1
            witnesses.append({"ob_map": tuple(target.obj_name(v) for v in ob_map),
                              "x": source.obj_name(cell[0])})
    return candidates, violations, witnesses


def identity_mfun_tt(module) -> MFunTT:
    """The identity functor of a finite module with identity structure maps."""
    carrier = module.carrier
    functor = fin_functor(carrier, carrier,
                          tuple(range(carrier.n_objects)),
                          tuple(range(carrier.n_morphisms)))
    sigma = {(m, a): carrier.id_of(module.act_ob(m, a))
             for m in module.base.objects() for a in range(carrier.n_objects)}
    return validate_mfun_tt(module, module, functor, sigma)
