"""Finite categories as explicit object/morphism/composition tables.

A ``FinCat`` is the trusted kernel of the whole engine: it is fully
validated at construction (totality, typing, unit laws, associativity over
every composable triple) and downstream modules never re-check.  Object and
morphism identifiers are opaque strings at the boundary, interned to dense
integer indices internally; every enumeration follows declaration order, so
reports are byte-identical across runs.
"""

from dataclasses import dataclass

from .caps import Caps, DEFAULT_CAPS
from .errors import (
    AssociativityViolation,
    DanglingReference,
    FunctorLawViolation,
    IllTypedComposite,
    MissingComposite,
    ShapeMismatch,
    SizeBound,
    UnitViolation,
)
from .search import backtrack, bounded_plans, failures


class FinCat:
    """A validated finite category.  Construct via ``validate_fincat``.

    Objects and morphisms are addressed by dense integer indices; names are
    kept for reports.  ``compose(g, f)`` means "g after f".
    """

    def __init__(self, name, objects, mor_names, mor_dom, mor_cod, identity, compose):
        self.name = name
        self.objects = tuple(objects)
        self.mor_names = tuple(mor_names)
        self.mor_dom = tuple(mor_dom)
        self.mor_cod = tuple(mor_cod)
        self.identity = tuple(identity)
        self._compose = dict(compose)
        self._obj_index = {n: i for i, n in enumerate(self.objects)}
        self._mor_index = {n: i for i, n in enumerate(self.mor_names)}
        hom = {}
        for m in range(len(self.mor_names)):
            hom.setdefault((self.mor_dom[m], self.mor_cod[m]), []).append(m)
        self._hom = {k: tuple(v) for k, v in hom.items()}
        self._by_dom = _group_by_dom(len(self.objects), self.mor_dom)

    @property
    def n_objects(self):
        return len(self.objects)

    @property
    def n_morphisms(self):
        return len(self.mor_names)

    def obj(self, name):
        if name not in self._obj_index:
            raise DanglingReference(f"unknown object {name!r} in {self.name!r}")
        return self._obj_index[name]

    def mor(self, name):
        if name not in self._mor_index:
            raise DanglingReference(f"unknown morphism {name!r} in {self.name!r}")
        return self._mor_index[name]

    def obj_name(self, x):
        return self.objects[x]

    def mor_name(self, m):
        return self.mor_names[m]

    def dom(self, m):
        return self.mor_dom[m]

    def cod(self, m):
        return self.mor_cod[m]

    def id_of(self, x):
        return self.identity[x]

    def is_identity(self, m):
        d = self.mor_dom[m]
        return self.mor_cod[m] == d and self.identity[d] == m

    def compose(self, g, f):
        """g after f; the pair must be composable."""
        return self._compose[(g, f)]

    def compose_all(self, gs, fs):
        """[g∘f for g, f in zip(gs, fs)]; every pair must be composable."""
        return list(map(self._compose.__getitem__, zip(gs, fs)))

    def hom(self, x, y):
        return self._hom.get((x, y), ())

    def inverses(self, m):
        """All two-sided inverses of m (empty tuple when m is not iso)."""
        out = []
        for w in self.hom(self.mor_cod[m], self.mor_dom[m]):
            if (self.compose(w, m) == self.identity[self.mor_dom[m]]
                    and self.compose(m, w) == self.identity[self.mor_cod[m]]):
                out.append(w)
        return tuple(out)

    def is_iso(self, m):
        return bool(self.inverses(m))

    def composable_pairs(self):
        """All (g, f) with dom(g) = cod(f), in (f, g) scan order."""
        for f in range(self.n_morphisms):
            for g in self._by_dom[self.mor_cod[f]]:
                yield g, f

    def __eq__(self, other):
        if not isinstance(other, FinCat):
            return NotImplemented
        return (self.objects == other.objects
                and self.mor_names == other.mor_names
                and self.mor_dom == other.mor_dom
                and self.mor_cod == other.mor_cod
                and self.identity == other.identity
                and self._compose == other._compose)

    def __hash__(self):
        return hash((self.objects, self.mor_names, self.mor_dom, self.mor_cod,
                     self.identity, tuple(sorted(self._compose.items()))))

    def __repr__(self):
        return (f"FinCat({self.name!r}, {self.n_objects} objects, "
                f"{self.n_morphisms} morphisms)")


class Carried:
    """Category structure delegated to ``self.carrier``: the monoidal bases
    and the left-tensored categories are categories through their carrier."""

    def id_of(self, x):
        return self.carrier.id_of(x)

    def compose(self, g, f):
        return self.carrier.compose(g, f)

    def dom(self, m):
        return self.carrier.dom(m)

    def cod(self, m):
        return self.carrier.cod(m)

    def hom(self, x, y):
        return self.carrier.hom(x, y)

    def is_iso(self, m):
        return self.carrier.is_iso(m)

    def inverses(self, m):
        return self.carrier.inverses(m)

    def obj_name(self, x):
        return self.carrier.obj_name(x)

    def mor_name(self, m):
        return self.carrier.mor_name(m)


def validate_fincat(objects, morphisms, compose, identity=None, name="",
                    caps: Caps = DEFAULT_CAPS) -> FinCat:
    """Validate raw tables and intern them into a FinCat.

    objects:   list of object names.
    morphisms: list of (name, dom, cod) triples.
    compose:   list of (g, f, g_after_f) morphism-name triples, total on
               composable pairs.
    identity:  optional {object: morphism} map; inferred from the compose
               table when omitted.
    """
    objects = list(objects)
    if len(objects) > caps.max_objects:
        raise SizeBound(f"{len(objects)} objects exceeds cap {caps.max_objects}")
    if len(set(objects)) != len(objects):
        raise DanglingReference("duplicate object name")
    obj_index = {n: i for i, n in enumerate(objects)}

    mor_names, mor_dom, mor_cod = [], [], []
    for entry in morphisms:
        mname, d, c = entry
        if mname in mor_names:
            raise DanglingReference(f"duplicate morphism name {mname!r}")
        if d not in obj_index:
            raise DanglingReference(f"morphism {mname!r}: unknown dom {d!r}")
        if c not in obj_index:
            raise DanglingReference(f"morphism {mname!r}: unknown cod {c!r}")
        mor_names.append(mname)
        mor_dom.append(obj_index[d])
        mor_cod.append(obj_index[c])
    if len(mor_names) > caps.max_morphisms:
        raise SizeBound(f"{len(mor_names)} morphisms exceeds cap {caps.max_morphisms}")
    mor_index = {n: i for i, n in enumerate(mor_names)}

    comp = {}
    for g, f, gf in compose:
        for n in (g, f, gf):
            if n not in mor_index:
                raise DanglingReference(f"compose table references unknown morphism {n!r}")
        gi, fi, ri = mor_index[g], mor_index[f], mor_index[gf]
        if mor_dom[gi] != mor_cod[fi]:
            raise IllTypedComposite(
                f"compose entry ({g!r}, {f!r}) is not a composable pair",
                witness={"g": g, "f": f})
        if (gi, fi) in comp and comp[(gi, fi)] != ri:
            raise IllTypedComposite(
                f"conflicting compose entries for ({g!r}, {f!r})",
                witness={"g": g, "f": f})
        if mor_dom[ri] != mor_dom[fi] or mor_cod[ri] != mor_cod[gi]:
            raise IllTypedComposite(
                f"compose({g!r}, {f!r}) = {gf!r} has wrong dom/cod",
                witness={"g": g, "f": f, "value": gf})
        comp[(gi, fi)] = ri

    # Totality before anything that reads the table.
    by_dom = _group_by_dom(len(objects), mor_dom)
    for f in range(len(mor_names)):
        for g in by_dom[mor_cod[f]]:
            if (g, f) not in comp:
                raise MissingComposite(
                    f"no composite for ({mor_names[g]!r}, {mor_names[f]!r})",
                    witness={"g": mor_names[g], "f": mor_names[f]})

    if identity is not None:
        ident = [None] * len(objects)
        for oname, mname in dict(identity).items():
            if oname not in obj_index:
                raise DanglingReference(f"identity table: unknown object {oname!r}")
            if mname not in mor_index:
                raise DanglingReference(f"identity table: unknown morphism {mname!r}")
            m = mor_index[mname]
            x = obj_index[oname]
            if mor_dom[m] != x or mor_cod[m] != x:
                raise UnitViolation(
                    f"declared identity {mname!r} is not an endomorphism of {oname!r}",
                    witness={"object": oname, "morphism": mname})
            ident[x] = m
        missing = [objects[x] for x in range(len(objects)) if ident[x] is None]
        if missing:
            raise UnitViolation(f"no identity declared for {missing[0]!r}",
                                witness={"object": missing[0]})
    else:
        ident = _infer_identities(objects, mor_names, mor_dom, mor_cod, comp)

    # Unit laws.
    for f in range(len(mor_names)):
        if comp[(ident[mor_cod[f]], f)] != f:
            raise UnitViolation(
                f"id∘{mor_names[f]!r} differs from {mor_names[f]!r}",
                witness={"morphism": mor_names[f], "side": "left"})
        if comp[(f, ident[mor_dom[f]])] != f:
            raise UnitViolation(
                f"{mor_names[f]!r}∘id differs from {mor_names[f]!r}",
                witness={"morphism": mor_names[f], "side": "right"})

    # Associativity over every composable triple, (f, g, h) scan order.  Per
    # composable pair the row h∘(g∘f) over every h out of cod g is compared
    # at once with the row (h∘g)∘f; a differing row is rescanned to name the
    # first failing h.
    post = [[comp[(h, m)] for h in by_dom[mor_cod[m]]]
            for m in range(len(mor_names))]
    for f in range(len(mor_names)):
        pre = {x: comp[(x, f)] for x in by_dom[mor_cod[f]]}
        for g, gf in pre.items():
            if post[gf] == list(map(pre.__getitem__, post[g])):
                continue
            for h in by_dom[mor_cod[g]]:
                if comp[(h, gf)] != comp[(comp[(h, g)], f)]:
                    raise AssociativityViolation(
                        f"(h∘g)∘f ≠ h∘(g∘f) for h={mor_names[h]!r}, "
                        f"g={mor_names[g]!r}, f={mor_names[f]!r}",
                        witness={"h": mor_names[h], "g": mor_names[g],
                                 "f": mor_names[f]})

    return FinCat(name, objects, mor_names, mor_dom, mor_cod, ident, comp)


def component_category(n_objects, morphisms, identities, carrier: FinCat,
                       obj_prefix, mor_prefix, name, caps: Caps = DEFAULT_CAPS) -> FinCat:
    """The validated category of component tuples: objects 0..n_objects-1,
    morphisms families of carrier morphisms composed componentwise.

    morphisms:  (source index, target index, component tuple) per morphism,
                each listed once.
    identities: the identity component tuple of each object.
    Objects and morphisms are named by prefix and index, so reports on the
    result are deterministic.
    """
    obj_names = [f"{obj_prefix}{i}" for i in range(n_objects)]
    mor_names = [f"{mor_prefix}{k}" for k in range(len(morphisms))]
    lookup = {m: k for k, m in enumerate(morphisms)}
    identity = {obj_names[i]: mor_names[lookup[(i, i, idc)]]
                for i, idc in enumerate(identities)}
    into = [[] for _ in range(n_objects)]
    for k, (_, j, _) in enumerate(morphisms):
        into[j].append(k)
    compose = []
    for k2, (i2, j2, c2) in enumerate(morphisms):
        for k1 in into[i2]:
            i1, _, c1 = morphisms[k1]
            gf = lookup[(i1, j2, tuple(carrier.compose_all(c2, c1)))]
            compose.append((mor_names[k2], mor_names[k1], mor_names[gf]))
    mor_decls = [(mor_names[k], obj_names[i], obj_names[j])
                 for k, (i, j, _) in enumerate(morphisms)]
    return validate_fincat(obj_names, mor_decls, compose, identity,
                           name=name, caps=caps)


def _group_by_dom(n_objects, mor_dom):
    """Per object, the morphisms out of it in declaration order."""
    by_dom = [[] for _ in range(n_objects)]
    for m, d in enumerate(mor_dom):
        by_dom[d].append(m)
    return tuple(tuple(ms) for ms in by_dom)


def _infer_identities(objects, mor_names, mor_dom, mor_cod, comp):
    """Find, per object, the unique endomorphism acting neutrally."""
    ident = []
    for x in range(len(objects)):
        found = []
        for e in range(len(mor_names)):
            if mor_dom[e] != x or mor_cod[e] != x:
                continue
            neutral = all(comp[(e, f)] == f
                          for f in range(len(mor_names)) if mor_cod[f] == x)
            neutral = neutral and all(comp[(g, e)] == g
                                      for g in range(len(mor_names)) if mor_dom[g] == x)
            if neutral:
                found.append(e)
        if not found:
            raise UnitViolation(f"no identity found for object {objects[x]!r}",
                                witness={"object": objects[x]})
        ident.append(found[0])
    return ident


@dataclass(frozen=True)
class FinFunctor:
    source: FinCat
    target: FinCat
    ob_map: tuple
    mor_map: tuple

    def apply_ob(self, x):
        return self.ob_map[x]

    def apply_mor(self, m):
        return self.mor_map[m]


def fin_functor(source: FinCat, target: FinCat, ob_map, mor_map) -> FinFunctor:
    """Validate a raw functor: endpoints, identities, composition."""
    ob_map = tuple(ob_map)
    mor_map = tuple(mor_map)
    if len(ob_map) != source.n_objects or len(mor_map) != source.n_morphisms:
        raise FunctorLawViolation("ob_map/mor_map length mismatch")
    for m in range(source.n_morphisms):
        fm = mor_map[m]
        if (target.dom(fm) != ob_map[source.dom(m)]
                or target.cod(fm) != ob_map[source.cod(m)]):
            raise FunctorLawViolation(
                f"image of {source.mor_name(m)!r} has wrong endpoints",
                witness={"morphism": source.mor_name(m)})
    for x in range(source.n_objects):
        if mor_map[source.id_of(x)] != target.id_of(ob_map[x]):
            raise FunctorLawViolation(
                f"identity of {source.obj_name(x)!r} not preserved",
                witness={"object": source.obj_name(x)})
    for g, f in failures(functor_laws(source, target), mor_map):
        g, f = source.mor_name(g), source.mor_name(f)
        raise FunctorLawViolation(f"composition not preserved on ({g!r}, {f!r})",
                                  witness={"g": g, "f": f})
    return FinFunctor(source, target, ob_map, mor_map)


def functor_laws(source: FinCat, target: FinCat):
    """Preservation of composition per composable pair (g, f), as a law
    table over the morphism slots of a functor's mor_map."""
    def law(F, cell):
        g, f = cell
        return F[source.compose(g, f)] == target.compose(F[g], F[f])

    return [((g, f, source.compose(g, f)), law, (g, f))
            for g, f in source.composable_pairs()]


def compose_functors(g: FinFunctor, f: FinFunctor) -> FinFunctor:
    if f.target != g.source:
        raise ShapeMismatch("functors are not composable")
    return FinFunctor(f.source, g.target,
                      tuple(g.ob_map[x] for x in f.ob_map),
                      tuple(g.mor_map[m] for m in f.mor_map))


def enumerate_functors(source: FinCat, target: FinCat,
                       caps: Caps = DEFAULT_CAPS):
    """The complete, duplicate-free list of functors source -> target,
    in lexicographic order of (ob_map, mor_map).

    The slots are the morphisms; an identity has its one candidate, the
    identity of its image, so the choices are the other morphisms."""
    def mor_cands(ob_map):
        return {m: ([target.id_of(ob_map[source.dom(m)])] if source.is_identity(m)
                    else target.hom(ob_map[source.dom(m)], ob_map[source.cod(m)]))
                for m in range(source.n_morphisms)}

    laws = functor_laws(source, target)
    return [FinFunctor(source, target, ob_map,
                       tuple(asg[m] for m in range(source.n_morphisms)))
            for ob_map, cands in bounded_plans(range(target.n_objects),
                                               source.n_objects, mor_cands,
                                               caps, "functor")
            for asg in backtrack(cands, laws)]


@dataclass(frozen=True)
class NatIso:
    source: FinFunctor
    target: FinFunctor
    components: tuple


@dataclass(frozen=True)
class NatIsoVerdict:
    ok: bool
    noninvertible: tuple
    failing_squares: tuple


def check_nat_iso(t: NatIso) -> NatIsoVerdict:
    """Componentwise invertibility plus every naturality square.

    Failures are verdict content, never exceptions: the verdict lists each
    non-invertible component and each failing square.
    """
    F, G = t.source, t.target
    if F.source != G.source or F.target != G.target:
        raise ShapeMismatch("the two functors must share source and target")
    C, D = F.source, F.target
    noninv = []
    failing = []
    for x in range(C.n_objects):
        c = t.components[x]
        if D.dom(c) != F.ob_map[x] or D.cod(c) != G.ob_map[x]:
            noninv.append((C.obj_name(x), D.mor_name(c), "ill-typed"))
            continue
        if not D.is_iso(c):
            noninv.append((C.obj_name(x), D.mor_name(c), "not invertible"))
    for m in range(C.n_morphisms):
        a, b = C.dom(m), C.cod(m)
        ca, cb = t.components[a], t.components[b]
        if (D.dom(ca) != F.ob_map[a] or D.cod(ca) != G.ob_map[a]
                or D.dom(cb) != F.ob_map[b] or D.cod(cb) != G.ob_map[b]):
            continue  # already reported as ill-typed
        lhs = D.compose(cb, F.mor_map[m])
        rhs = D.compose(G.mor_map[m], ca)
        if lhs != rhs:
            failing.append((C.mor_name(m), D.mor_name(lhs), D.mor_name(rhs)))
    return NatIsoVerdict(not noninv and not failing, tuple(noninv), tuple(failing))


# --- standard small categories used across the test corpus ----------------

def terminal_cat() -> FinCat:
    return validate_fincat(["*"], [("id", "*", "*")], [("id", "id", "id")],
                           name="terminal")


def walking_arrow() -> FinCat:
    return validate_fincat(
        ["a", "b"],
        [("id_a", "a", "a"), ("id_b", "b", "b"), ("u", "a", "b")],
        [("id_a", "id_a", "id_a"), ("id_b", "id_b", "id_b"),
         ("u", "id_a", "u"), ("id_b", "u", "u")],
        name="arrow")


def parallel_pair() -> FinCat:
    return validate_fincat(
        ["p", "q"],
        [("id_p", "p", "p"), ("id_q", "q", "q"), ("u", "p", "q"), ("v", "p", "q")],
        [("id_p", "id_p", "id_p"), ("id_q", "id_q", "id_q"),
         ("u", "id_p", "u"), ("id_q", "u", "u"),
         ("v", "id_p", "v"), ("id_q", "v", "v")],
        name="parallel_pair")


def chain_cat(n: int) -> FinCat:
    """The poset 0 <= 1 <= ... <= n-1 as a category."""
    objects = [str(i) for i in range(n)]
    morphisms = [(f"le{i}{j}" if i != j else f"id_{i}", str(i), str(j))
                 for i in range(n) for j in range(i, n)]
    mname = {(i, j): (f"le{i}{j}" if i != j else f"id_{i}")
             for i in range(n) for j in range(i, n)}
    compose = []
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                compose.append((mname[(j, k)], mname[(i, j)], mname[(i, k)]))
    return validate_fincat(objects, morphisms, compose, name=f"chain{n}")


def discrete_cat(names) -> FinCat:
    names = list(names)
    return validate_fincat(
        names,
        [(f"id_{n}", n, n) for n in names],
        [(f"id_{n}", f"id_{n}", f"id_{n}") for n in names],
        name="discrete")


def monoid_cat(element_names, mult, name="monoid") -> FinCat:
    """One-object category from a monoid multiplication table.

    mult maps (g, f) element names to an element name; the first element
    listed must be the unit.
    """
    elems = list(element_names)
    morphisms = [(e, "*", "*") for e in elems]
    compose = [(g, f, mult[(g, f)]) for g in elems for f in elems]
    return validate_fincat(["*"], morphisms, compose, name=name)


def loop_cat(k: int) -> FinCat:
    """The cyclic monoid Z_k as a one-object category (r0 is the identity)."""
    elems = [f"r{i}" for i in range(k)]
    mult = {(f"r{g}", f"r{f}"): f"r{(g + f) % k}" for g in range(k) for f in range(k)}
    return monoid_cat(elems, mult, name=f"loop{k}")
