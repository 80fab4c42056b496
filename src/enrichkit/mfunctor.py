"""The two species of structure-preserving functor over a monoidal base.

``MFunTT`` goes between two left-tensored categories: an ordinary functor of
carriers plus an explicit structure isomorphism, natural in both variables
and satisfying the cocycle compatibility for iterated actions.

``MFunET`` goes from an enriched category to a left-tensored one: an object
map plus action maps act(hom(x,y), f(x)) -> f(y) whose compatibility square
commutes for every object triple.  The unit-action law is enforced here and
measured separately (see ``measure_unit_automatism``): in a strict finite
model the compatibility square alone does not force it.
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
    compat, unit = mfun_et_laws(source, target, ob_map)
    check_family(target, mfun_et_slots(source, target, ob_map), phi, (
        (CompatibilityViolation, "compatibility square fails", compat),
        (UnitActionViolation, "unit action is not the identity", unit)),
        source.cell_names)
    return MFunET(source, target, ob_map, phi, name=name)


def mfun_et_laws(source, target, ob_map):
    """The laws of an enriched-to-tensored functor with object map ``ob_map``
    (Kelly 1982, §1.2): the compatibility square per (x, y, z), then the
    unit action per x.  Returned as two law tables (compat, unit) over the
    action slots (x, y); both are empty over a thin target, where the two
    sides of each law share a hom-set once the actions are typed.  Cells
    with an initial hom factor are discharged: the square is a pair of maps
    out of act(hom(y, z) ⊗ hom(x, y), ob_map[x]), so it runs over
    ``source.support_triples`` only.

    The parts of a cell that do not depend on phi are computed at the point
    of the law where the cell first needs them and then kept by the table:
    a search pays for them once per cell, and a validator meets any error
    they raise (``Overflow``) at the same cell and step as the law itself."""
    if target.thin:
        return [], []
    base = source.base
    xs = range(source.n_objects)

    @cache
    def ob_id(x):
        return target.id_of(ob_map[x])

    @cache
    def hom_id(y, z):
        return base.id_of(source.hom(y, z))

    sides = {}  # per cell: act(comp(x, y, z), id) or act(unit(x), id)

    def square(phi, cell):
        x, y, z = cell
        side = sides.get(cell)
        if side is None:
            side = sides[cell] = target.act_mor(source.comp(x, y, z), ob_id(x))
        lhs = target.compose(phi[(x, z)], side)
        rhs = target.compose(phi[(y, z)], target.act_mor(hom_id(y, z), phi[(x, y)]))
        return lhs == rhs

    def unit_law(phi, cell):
        x, = cell
        side = sides.get(cell)
        if side is None:
            side = sides[cell] = target.act_mor(source.unit(x), ob_id(x))
        return target.compose(phi[(x, x)], side) == ob_id(x)

    return ([(((x, y), (y, z), (x, z)), square, (x, y, z))
             for x, y, z in source.support_triples],
            [(((x, x),), unit_law, (x,)) for x in xs])


def mfun_square_laws(f: MFunET, g: MFunET):
    """The morphism square g(x,y) ∘ act(id, t_x) = t_y ∘ f(x,y) per (x, y),
    as a law table over the component slots x; empty over a thin target.
    The square is a pair of maps out of act(hom(x, y), f(x)), so it runs
    over ``source.support`` only: cells with an initial hom factor are
    discharged."""
    source, target = f.source, f.target
    if target.thin:
        return []
    base = source.base

    def square(t, cell):
        x, y = cell
        lhs = target.compose(g.phi[cell],
                             target.act_mor(base.id_of(source.hom(x, y)), t[x]))
        return lhs == target.compose(t[y], f.phi[cell])

    return [((x, y), square, (x, y)) for x, y in source.support]


def check_mfun_mor(f: MFunET, g: MFunET, components):
    """Witness list for the morphism square; empty means valid."""
    return mor_failures(f.source, f.target, f.ob_map, g.ob_map,
                        mfun_square_laws(f, g), components)


def mfun_et_slots(source, target, ob_map):
    """(slot, (dom, cod)) per action slot (x, y), in slot order: the action
    map act(hom(x,y), ob_map[x]) -> ob_map[y]."""
    xs = range(source.n_objects)
    return (((x, y), (target.act_ob(source.hom(x, y), ob_map[x]), ob_map[y]))
            for x in xs for y in xs)


def mfun_et_cands(source, target, ob_map):
    """The type-correct action maps per slot, in slot order."""
    return {slot: target.hom(dom, cod)
            for slot, (dom, cod) in mfun_et_slots(source, target, ob_map)}


def _et_assignments(source, target, caps, check_unit):
    """All (ob_map, phi, unit laws) with phi satisfying the compatibility
    square, in lex order; the unit laws are enforced only when check_unit
    is set, and returned either way.  They go first: the unit law fixes phi
    on the unit slice before any square is built, and the solutions do not
    depend on the order of the laws."""
    for ob_map, cands in bounded_plans(
            range(target.carrier.n_objects), source.n_objects,
            lambda ob_map: mfun_et_cands(source, target, ob_map), caps, "functor"):
        compat, unit = mfun_et_laws(source, target, ob_map)
        for phi in backtrack(cands, unit + compat if check_unit else compat):
            yield ob_map, phi, unit


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
        for k, (ob_map, phi, _) in enumerate(_et_assignments(source, target, caps, True))
    ]

    fincat, mors = family_category(
        target.carrier, functors, lambda f: f.ob_map, mfun_square_laws,
        "functor-morphism", "G", "t", "FunCat", caps)
    return MFunCategory(source, target, functors,
                        [MFunMor(i, j, comps) for i, j, comps in mors], fincat)


def measure_unit_automatism(source, target, caps: Caps = DEFAULT_CAPS):
    """Experiment for the open question on automatic unit constraints.

    Enumerates all (ob_map, phi) satisfying only the compatibility square
    and counts how many violate the unit-action law.  Returns
    (candidates, violations, witnesses).
    """
    candidates = 0
    violations = 0
    witnesses = []
    for ob_map, phi, unit in _et_assignments(source, target, caps, check_unit=False):
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
