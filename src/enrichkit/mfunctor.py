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

import itertools
from dataclasses import dataclass

from .caps import Caps, DEFAULT_CAPS
from .errors import (
    CocycleViolation,
    CompatibilityViolation,
    NaturalityViolation,
    ShapeMismatch,
    SizeBound,
    TypeMismatch,
    UnitActionViolation,
)
from .fincat import FinCat, FinFunctor, component_category, fin_functor
from .search import backtrack, guard_space, search_space


class MFunTT:
    """Validated tensored-to-tensored functor; construct via validate_mfun_tt."""

    def __init__(self, source, target, functor, sigma):
        self.source = source
        self.target = target
        self.functor = functor
        self.sigma = dict(sigma)


class MFunET:
    """Validated enriched-to-tensored functor; construct via validate_mfun_et."""

    def __init__(self, source, target, ob_map, phi, name=""):
        self.source = source
        self.target = target
        self.ob_map = tuple(ob_map)
        self.phi = dict(phi)
        self.name = name

    def value(self, x):
        return self.ob_map[x]

    def __eq__(self, other):
        if not isinstance(other, MFunET):
            return NotImplemented
        return (self.source == other.source and self.ob_map == other.ob_map
                and self.phi == other.phi)

    def __repr__(self):
        return f"MFunET({self.name or self.ob_map!r})"


@dataclass(frozen=True)
class MFunMor:
    source_index: int
    target_index: int
    components: tuple


def validate_mfun_tt(source, target, functor: FinFunctor, sigma,
                     caps: Caps = DEFAULT_CAPS) -> MFunTT:
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
                     caps: Caps = DEFAULT_CAPS, check_unit=True) -> MFunET:
    """Check the compatibility square for all triples and the unit action.

    phi: {(x, y): target morphism act(hom(x,y), f(x)) -> f(y)}.
    """
    if source.base != target.base:
        raise ShapeMismatch("enriched source and tensored target disagree on the base")
    base = source.base
    n = source.n_objects
    ob_map = tuple(ob_map)
    phi = dict(phi)

    for x in range(n):
        for y in range(n):
            if (x, y) not in phi:
                raise TypeMismatch(
                    "missing action component",
                    witness={"x": source.obj_name(x), "y": source.obj_name(y)})
            p = phi[(x, y)]
            want_dom = target.act_ob(source.hom(x, y), ob_map[x])
            if target.dom(p) != want_dom or target.cod(p) != ob_map[y]:
                raise TypeMismatch(
                    "action component has wrong dom/cod",
                    witness={"x": source.obj_name(x), "y": source.obj_name(y)})

    for x in range(n):
        for y in range(n):
            for z in range(n):
                lhs = target.compose(
                    phi[(x, z)],
                    target.act_mor(source.comp(x, y, z), target.id_of(ob_map[x])))
                rhs = target.compose(
                    phi[(y, z)],
                    target.act_mor(base.id_of(source.hom(y, z)), phi[(x, y)]))
                if lhs != rhs:
                    raise CompatibilityViolation(
                        "compatibility square fails",
                        witness={"x": source.obj_name(x), "y": source.obj_name(y),
                                 "z": source.obj_name(z)})

    if check_unit:
        for x in range(n):
            e = target.compose(phi[(x, x)],
                               target.act_mor(source.unit(x), target.id_of(ob_map[x])))
            if e != target.id_of(ob_map[x]):
                raise UnitActionViolation(
                    "unit action is not the identity",
                    witness={"x": source.obj_name(x)})

    return MFunET(source, target, ob_map, phi, name=name)


def check_mfun_mor(f: MFunET, g: MFunET, components):
    """Compatibility of a component family with the two action structures.
    Returns a list of failure witnesses (empty = valid)."""
    target = f.target
    base = f.source.base
    n = f.source.n_objects
    fails = []
    for x in range(n):
        c = components[x]
        if target.dom(c) != f.ob_map[x] or target.cod(c) != g.ob_map[x]:
            fails.append({"x": f.source.obj_name(x), "kind": "ill-typed"})
    if fails:
        return fails
    for x in range(n):
        for y in range(n):
            lhs = target.compose(
                g.phi[(x, y)],
                target.act_mor(base.id_of(f.source.hom(x, y)), components[x]))
            rhs = target.compose(components[y], f.phi[(x, y)])
            if lhs != rhs:
                fails.append({"x": f.source.obj_name(x),
                              "y": f.source.obj_name(y), "kind": "square"})
    return fails


def _et_assignments(source, target, caps, check_unit):
    """All (ob_map, phi) satisfying the compatibility square, in lex order;
    the unit law is included only when check_unit is set."""
    base = source.base
    carrier = target.carrier
    n = source.n_objects
    pairs = [(x, y) for x in range(n) for y in range(n)]

    total = 0
    plans = []
    n_obs = carrier.n_objects ** n if n else 1
    guard_space(n_obs, caps, "functor object-map")
    for ob_map in itertools.product(range(carrier.n_objects), repeat=n):
        cands = {}
        for (x, y) in pairs:
            cands[(x, y)] = list(target.hom(
                target.act_ob(source.hom(x, y), ob_map[x]), ob_map[y]))
        total += max(search_space(pairs, cands), 1)
        guard_space(total, caps, "functor action-map")
        plans.append((ob_map, cands))

    for ob_map, cands in plans:
        constraints = []
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    needed = {(x, y), (y, z), (x, z)}

                    def square(asg, x=x, y=y, z=z):
                        lhs = target.compose(
                            asg[(x, z)],
                            target.act_mor(source.comp(x, y, z),
                                           target.id_of(ob_map[x])))
                        rhs = target.compose(
                            asg[(y, z)],
                            target.act_mor(base.id_of(source.hom(y, z)),
                                           asg[(x, y)]))
                        return lhs == rhs

                    constraints.append((needed, square))
        if check_unit:
            for x in range(n):
                def unit_law(asg, x=x):
                    e = target.compose(
                        asg[(x, x)],
                        target.act_mor(source.unit(x), target.id_of(ob_map[x])))
                    return e == target.id_of(ob_map[x])

                constraints.append(({(x, x)}, unit_law))
        for phi in backtrack(pairs, cands, constraints):
            yield ob_map, phi


class MFunCategory:
    """The enumerated functor category, with its FinCat presentation."""

    def __init__(self, source, target, functors, morphisms, fincat):
        self.source = source
        self.target = target
        self.functors = tuple(functors)
        self.morphisms = tuple(morphisms)
        self.fincat = fincat
        self._mor_by_pair = {}
        for k, mor in enumerate(self.morphisms):
            self._mor_by_pair.setdefault((mor.source_index, mor.target_index), []).append(k)

    def mors_between(self, i, j):
        return tuple(self._mor_by_pair.get((i, j), ()))


def enumerate_mfun_et(source, target, caps: Caps = DEFAULT_CAPS) -> MFunCategory:
    """Complete duplicate-free list of enriched-to-tensored functors in
    lexicographic order, with the full morphism tables between entries,
    packaged as a validated FinCat."""
    if not isinstance(target.carrier, FinCat):
        raise SizeBound("enumeration needs a finite target carrier")
    functors = [
        MFunET(source, target, ob_map, phi, name=f"G{k}")
        for k, (ob_map, phi) in enumerate(_et_assignments(source, target, caps, True))
    ]

    mors = []
    for i, f in enumerate(functors):
        for j, g in enumerate(functors):
            for comps in _mor_assignments(f, g, caps):
                mors.append(MFunMor(i, j, comps))

    fincat = component_category(
        len(functors), [(m.source_index, m.target_index, m.components) for m in mors],
        [tuple(target.id_of(v) for v in f.ob_map) for f in functors],
        target.carrier, "G", "t", "FunCat", caps)
    return MFunCategory(source, target, functors, mors, fincat)


def _mor_assignments(f: MFunET, g: MFunET, caps):
    target = f.target
    base = f.source.base
    n = f.source.n_objects
    slots = list(range(n))
    cands = {x: list(target.hom(f.ob_map[x], g.ob_map[x])) for x in slots}
    guard_space(max(search_space(slots, cands), 1), caps, "functor-morphism")
    constraints = []
    for x in range(n):
        for y in range(n):
            def square(asg, x=x, y=y):
                lhs = target.compose(
                    g.phi[(x, y)],
                    target.act_mor(base.id_of(f.source.hom(x, y)), asg[x]))
                rhs = target.compose(asg[y], f.phi[(x, y)])
                return lhs == rhs

            constraints.append(({x, y}, square))
    for asg in backtrack(slots, cands, constraints):
        yield tuple(asg[x] for x in slots)


def measure_unit_automatism(source, target, caps: Caps = DEFAULT_CAPS):
    """Experiment for the open question on automatic unit constraints.

    Enumerates all (ob_map, phi) satisfying only the compatibility square
    and counts how many violate the unit-action law.  Returns
    (candidates, violations, witnesses).
    """
    candidates = 0
    violations = 0
    witnesses = []
    for ob_map, phi in _et_assignments(source, target, caps, check_unit=False):
        candidates += 1
        for x in range(source.n_objects):
            e = target.compose(
                phi[(x, x)],
                target.act_mor(source.unit(x), target.id_of(ob_map[x])))
            if e != target.id_of(ob_map[x]):
                violations += 1
                witnesses.append({"ob_map": tuple(target.obj_name(v) for v in ob_map),
                                  "x": source.obj_name(x)})
                break
    return candidates, violations, witnesses


def identity_mfun_tt(module, caps: Caps = DEFAULT_CAPS) -> MFunTT:
    """The identity functor of a finite module with identity structure maps."""
    carrier = module.carrier
    functor = fin_functor(carrier, carrier,
                          tuple(range(carrier.n_objects)),
                          tuple(range(carrier.n_morphisms)))
    sigma = {(m, a): carrier.id_of(module.act_ob(m, a))
             for m in module.base.objects() for a in range(carrier.n_objects)}
    return validate_mfun_tt(module, module, functor, sigma, caps)
