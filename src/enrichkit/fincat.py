"""Finite categories as explicit object/morphism/composition tables.

A ``FinCat`` is the trusted kernel of the whole engine: it is fully
validated at construction (totality, typing, unit laws, associativity) and
downstream modules never re-check.  Associativity is decided per category,
never per cell: a thin category (every hom-set has at most one element)
satisfies it by typing alone, and otherwise it is checked with the middle
morphism ranging over a generating set only (Light's test, Clifford &
Preston, *The Algebraic Theory of Semigroups* I, 1961, §1.2).  Object and
morphism identifiers are opaque strings at the boundary, interned to dense
integer indices internally; every enumeration follows declaration order, so
reports are byte-identical across runs.
"""

from dataclasses import dataclass
from itertools import repeat

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
from .search import backtrack, bounded_plans, failures, guard_space, search_space


class FinCat:
    """A validated finite category.  Construct via ``validate_fincat``.

    Objects and morphisms are addressed by dense integer indices; names are
    kept for reports.  ``compose(g, f)`` means "g after f".  ``thin`` is
    true when every hom-set has at most one element, so any two parallel
    morphisms are equal.
    """

    def __init__(self, name, objects, mor_names, mor_dom, mor_cod, identity, compose,
                 generators=None):
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
        self.thin = len(self._hom) == len(self.mor_names)
        self._by_dom = _group_by_dom(len(self.objects), self.mor_dom)
        self._generators = generators
        self._hash = None

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

    def is_iso(self, m):
        d, c = self.mor_dom[m], self.mor_cod[m]
        return any(self.compose(w, m) == self.identity[d]
                   and self.compose(m, w) == self.identity[c]
                   for w in self.hom(c, d))

    def generators(self):
        """The generating set S, chosen greedily in index order: a morphism
        joins S when it is not yet a right-nested composite s1∘(s2∘(…∘sk))
        of earlier members of S and identities.  Every morphism is such a
        composite of S and the identities."""
        if self._generators is None:
            self._generators = _generators(self.n_objects, self.mor_dom, self.mor_cod,
                                           self.identity, self._compose)
        return self._generators

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
        # Computed on first use: presheaf categories are large and rarely hashed.
        if self._hash is None:
            self._hash = hash((self.objects, self.mor_names, self.mor_dom,
                               self.mor_cod, self.identity,
                               tuple(sorted(self._compose.items()))))
        return self._hash

    def __repr__(self):
        return (f"FinCat({self.name!r}, {self.n_objects} objects, "
                f"{self.n_morphisms} morphisms)")


CATEGORY_OPS = ("id_of", "compose", "dom", "cod", "hom", "is_iso",
                "obj_name", "mor_name", "thin")


def bind_carrier(obj, carrier):
    """Make obj a category through carrier: set ``obj.carrier`` and bind
    the carrier's category operations and its ``thin`` flag onto obj.  The
    monoidal bases and the left-tensored categories call this at
    construction."""
    obj.carrier = carrier
    for op in CATEGORY_OPS:
        setattr(obj, op, getattr(carrier, op))


def validate_fincat(objects, morphisms, compose, identity=None, name="",
                    caps: Caps = DEFAULT_CAPS) -> FinCat:
    """Validate raw tables and intern them into a FinCat.

    objects:   list of object names.
    morphisms: list of (name, dom, cod) triples.
    compose:   list of (g, f, g_after_f) morphism-name triples, total on
               composable pairs.
    identity:  optional {object: morphism} map; inferred from the compose
               table when omitted.

    Checks run in order: names and typing, totality, identities, the unit
    laws, associativity.  Associativity over a thin input holds by typing,
    as both sides of each triple lie in one hom-set.  Otherwise it is
    checked for the middle morphisms g in the generating set S only: the
    middles that pass are closed under the table's composition, identities
    pass by the unit laws, and S generates every morphism.  On a mismatch
    the full scan over every composable triple runs, so the witness is the
    first failing triple in (f, g, h) scan order.
    """
    objects = list(objects)
    if len(objects) > caps.max_objects:
        raise SizeBound(f"{len(objects)} objects exceeds cap {caps.max_objects}")
    if len(set(objects)) != len(objects):
        raise DanglingReference("duplicate object name")
    obj_index = {n: i for i, n in enumerate(objects)}

    mor_names, mor_dom, mor_cod = [], [], []
    mor_index = {}
    for entry in morphisms:
        mname, d, c = entry
        if mname in mor_index:
            raise DanglingReference(f"duplicate morphism name {mname!r}")
        if d not in obj_index:
            raise DanglingReference(f"morphism {mname!r}: unknown dom {d!r}")
        if c not in obj_index:
            raise DanglingReference(f"morphism {mname!r}: unknown cod {c!r}")
        mor_index[mname] = len(mor_names)
        mor_names.append(mname)
        mor_dom.append(obj_index[d])
        mor_cod.append(obj_index[c])
    if len(mor_names) > caps.max_morphisms:
        raise SizeBound(f"{len(mor_names)} morphisms exceeds cap {caps.max_morphisms}")

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

    # Associativity (see the docstring): per composable pair (g, f) the row
    # h∘(g∘f) over every h out of cod g is compared at once with the row
    # (h∘g)∘f, for the middles g in S; a failing table is rescanned over
    # every middle to name the first failing triple.
    thin = len(set(zip(mor_dom, mor_cod))) == len(mor_names)
    gens = None
    if not thin:
        gens = _generators(len(objects), mor_dom, mor_cod, ident, comp)
        post = [list(map(comp.__getitem__, zip(by_dom[mor_cod[m]], repeat(m))))
                for m in range(len(mor_names))]
        if _first_assoc_row(comp, mor_cod, post, _group_by_dom(
                len(objects), mor_dom, gens)) is not None:
            g, f = _first_assoc_row(comp, mor_cod, post, by_dom)
            h = next(h for h in by_dom[mor_cod[g]]
                     if comp[(h, comp[(g, f)])] != comp[(comp[(h, g)], f)])
            raise AssociativityViolation(
                f"(h∘g)∘f ≠ h∘(g∘f) for h={mor_names[h]!r}, "
                f"g={mor_names[g]!r}, f={mor_names[f]!r}",
                witness={"h": mor_names[h], "g": mor_names[g], "f": mor_names[f]})

    return FinCat(name, objects, mor_names, mor_dom, mor_cod, ident, comp, gens)


def _first_assoc_row(comp, mor_cod, post, middles):
    """The first composable pair (g, f), in (f, g) scan order and with g in
    ``middles`` (per object, the middles out of it), whose associativity
    row differs; None if none.  post[m] is the row h∘m over h out of cod m."""
    for f, c in enumerate(mor_cod):
        for g in middles[c]:
            if post[comp[(g, f)]] != list(map(comp.__getitem__, zip(post[g], repeat(f)))):
                return g, f
    return None


def _generators(n_objects, mor_dom, mor_cod, ident, comp):
    """Greedy generating set in index order (see ``FinCat.generators``).
    The reached set starts at the identities and is closed under s∘x for s
    in S; each (s, x) pair is composed once, so the cost is O(|S|·M)."""
    reached = [False] * len(mor_dom)
    into = [[] for _ in range(n_objects)]   # reached morphisms by codomain
    out = [[] for _ in range(n_objects)]    # generators by domain
    for i in ident:
        reached[i] = True
        into[mor_cod[i]].append(i)
    gens = []
    for m in range(len(mor_dom)):
        if reached[m]:
            continue
        gens.append(m)
        out[mor_dom[m]].append(m)
        work = [(m, x) for x in into[mor_dom[m]]]
        while work:
            s, x = work.pop()
            y = comp[(s, x)]
            if not reached[y]:
                reached[y] = True
                into[mor_cod[y]].append(y)
                work.extend((t, y) for t in out[mor_cod[y]])
    return tuple(gens)


def family_category(cat: FinCat, objs, values, square_laws, what, obj_prefix,
                    mor_prefix, name, caps: Caps = DEFAULT_CAPS):
    """(validated FinCat, [(i, j, components)]): morphisms objs[i] -> objs[j]
    are the tuples of ``cat`` morphisms values(f)[x] -> values(g)[x] passing
    square_laws(f, g), composed componentwise; each pair's search space is
    capped (as ``what``) before it is searched.  Objects and morphisms are
    named by prefix and index, so reports on the result are deterministic.
    """
    morphisms, into = [], [[] for _ in objs]
    for i, f in enumerate(objs):
        for j, g in enumerate(objs):
            cands = {x: list(cat.hom(a, b))
                     for x, (a, b) in enumerate(zip(values(f), values(g)))}
            guard_space(max(search_space(cands), 1), caps, what)
            for asg in backtrack(cands, square_laws(f, g)):
                into[j].append(len(morphisms))
                morphisms.append((i, j, tuple(asg[x] for x in cands)))

    obj_names = [f"{obj_prefix}{i}" for i in range(len(objs))]
    mor_names = [f"{mor_prefix}{k}" for k in range(len(morphisms))]
    lookup = {m: k for k, m in enumerate(morphisms)}
    identity = {obj_names[i]: mor_names[lookup[(i, i, tuple(map(cat.id_of, values(f))))]]
                for i, f in enumerate(objs)}
    # One row of composites g∘f per g, over every f into dom g: the f's are
    # kept as columns (sources, names, x-th components), so each row takes
    # one compose_all per component instead of one call per composite.
    width = len(values(objs[0])) if objs else 0
    cols = [([morphisms[k][0] for k in ks], [mor_names[k] for k in ks],
             [[morphisms[k][2][x] for k in ks] for x in range(width)])
            for ks in into]
    compose = []
    for k2, (i2, j2, c2) in enumerate(morphisms):
        srcs, names, comps = cols[i2]
        gfs = zip(*map(cat.compose_all, map(repeat, c2), comps)) if width else repeat(())
        keys = zip(srcs, repeat(j2), gfs)
        compose.extend(zip(repeat(mor_names[k2]), names,
                           map(mor_names.__getitem__, map(lookup.__getitem__, keys))))
    mor_decls = [(mor_names[k], obj_names[i], obj_names[j])
                 for k, (i, j, _) in enumerate(morphisms)]
    return validate_fincat(obj_names, mor_decls, compose, identity,
                           name=name, caps=caps), morphisms


def _group_by_dom(n_objects, mor_dom, mors=None):
    """Per object, the morphisms out of it (of ``mors`` when given) in
    declaration order."""
    by_dom = [[] for _ in range(n_objects)]
    for m in range(len(mor_dom)) if mors is None else mors:
        by_dom[mor_dom[m]].append(m)
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
