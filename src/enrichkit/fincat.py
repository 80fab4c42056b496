"""Finite categories as explicit object/morphism/composition tables.

A ``FinCat`` is the trusted kernel of the whole engine: it is fully
validated at construction (typing, totality, unit laws, associativity) and
downstream modules never re-check.  Validation has two parts that run as
one check sequence:

- the name boundary (``validate_fincat``) takes spec and table input.  It
  interns object and morphism names to dense integer indices and rejects
  duplicates, dangling references and defective compose and identity
  entries, in table order;
- the index kernel (``validate_rows``) checks typing, totality, the
  identities, the unit laws and associativity on indices.  Derived
  categories (``family_category``) are built on indices and enter here
  directly, without a round trip through names.

Composition is stored as one dense row per morphism g: its composites g∘f
with the morphisms f into dom g, in declaration order.  Associativity is
decided per category, never per cell: a thin category (every hom-set has
at most one element) satisfies it by typing alone, and otherwise it is
checked with the middle morphism ranging over a generating set only
(Light's test, Clifford & Preston, *The Algebraic Theory of Semigroups* I,
1961, §1.2).  Names are for reports; a derived category names its
objects and morphisms by a prefix and their index.  Every enumeration
follows declaration order, so reports are byte-identical across runs.
"""

from dataclasses import dataclass
from itertools import repeat
from operator import getitem

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
    """A validated finite category.  Construct via ``validate_fincat`` or
    ``validate_rows``.

    Objects and morphisms are addressed by dense integer indices; names are
    kept for reports.  ``compose(g, f)`` means "g after f" and reads
    ``rows[g][pos[f]]``, where pos[f] is the place of f among the morphisms
    into its codomain (``by_cod`` is the pair (into, pos) of ``_group``
    over the codomains).  ``thin`` is true when every hom-set has at most
    one element, so any two parallel morphisms are equal.
    """

    def __init__(self, name, objects, mor_names, mor_dom, mor_cod, by_cod, rows):
        self.name = name
        self.objects = tuple(objects)
        self.mor_names = tuple(mor_names)
        self.mor_dom = tuple(mor_dom)
        self.mor_cod = tuple(mor_cod)
        self.identity = None     # set by validate_rows
        self._rows = rows
        self._obj_index = {n: i for i, n in enumerate(self.objects)}
        self._mor_index = {n: i for i, n in enumerate(self.mor_names)}
        self._into, self._pos = by_cod
        self._by_dom = _group(len(self.objects), self.mor_dom)[0]
        hom = {}
        for m, key in enumerate(zip(self.mor_dom, self.mor_cod)):
            hom.setdefault(key, []).append(m)
        self._hom = {k: tuple(v) for k, v in hom.items()}
        self.thin = len(self._hom) == len(self.mor_dom)
        self._generators = None
        self._hash = None

    @property
    def n_objects(self):
        return len(self.objects)

    @property
    def n_morphisms(self):
        return len(self.mor_dom)

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
        return self._rows[g][self._pos[f]]

    def compose_all(self, gs, fs):
        """[g∘f for g, f in zip(gs, fs)]; every pair must be composable."""
        return list(map(getitem, map(self._rows.__getitem__, gs),
                        map(self._pos.__getitem__, fs)))

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
            self._generators = _generators(self)
        return self._generators

    def composable_pairs(self):
        """All (g, f) with dom(g) = cod(f), in (f, g) scan order."""
        for f in range(self.n_morphisms):
            for g in self._by_dom[self.mor_cod[f]]:
                yield g, f

    def __eq__(self, other):
        if not isinstance(other, FinCat):
            return NotImplemented
        return self is other or (
            self.objects == other.objects
            and self.mor_names == other.mor_names
            and self.mor_dom == other.mor_dom
            and self.mor_cod == other.mor_cod
            and self.identity == other.identity
            and self._rows == other._rows)

    def __hash__(self):
        # Computed on first use: presheaf categories are large and rarely hashed.
        if self._hash is None:
            self._hash = hash((self.objects, self.mor_names, self.mor_dom,
                               self.mor_cod, self.identity,
                               tuple(map(tuple, self._rows))))
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
    """The name boundary: validate raw tables, intern their names and hand
    the index tables to the kernel (``validate_rows``).

    objects:   list of object names.
    morphisms: list of (name, dom, cod) triples.
    compose:   list of (g, f, g_after_f) morphism-name triples, total on
               composable pairs.
    identity:  optional {object: morphism} map; inferred from the compose
               table when omitted.

    This part checks, in order: the size caps and duplicate or dangling
    names; per compose entry in table order, its names, that it is a
    composable pair, that it agrees with an earlier entry and that its
    value has the right dom/cod; totality; per declared identity in table
    order, its names and that it is an endomorphism of its object.  The
    kernel checks the rest, so a table with several defects reports the
    first in this order.
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

    by_cod = into, pos = _group(len(objects), mor_cod)
    rows = [[None] * len(into[d]) for d in mor_dom]
    for g, f, gf in compose:
        for n in (g, f, gf):
            if n not in mor_index:
                raise DanglingReference(f"compose table references unknown morphism {n!r}")
        gi, fi, ri = mor_index[g], mor_index[f], mor_index[gf]
        if mor_dom[gi] != mor_cod[fi]:
            raise IllTypedComposite(
                f"compose entry ({g!r}, {f!r}) is not a composable pair",
                witness={"g": g, "f": f})
        row, p = rows[gi], pos[fi]
        if row[p] is not None and row[p] != ri:
            raise IllTypedComposite(
                f"conflicting compose entries for ({g!r}, {f!r})",
                witness={"g": g, "f": f})
        if mor_dom[ri] != mor_dom[fi] or mor_cod[ri] != mor_cod[gi]:
            raise _ill_typed(g, f, gf)
        row[p] = ri
    if any(None in row for row in rows):
        raise _missing(rows, pos, _group(len(objects), mor_dom)[0], mor_cod,
                       mor_names.__getitem__)

    ident = None
    if identity is not None:
        ident = [None] * len(objects)
        for oname, mname in dict(identity).items():
            if oname not in obj_index:
                raise DanglingReference(f"identity table: unknown object {oname!r}")
            if mname not in mor_index:
                raise DanglingReference(f"identity table: unknown morphism {mname!r}")
            m, x = mor_index[mname], obj_index[oname]
            if mor_dom[m] != x or mor_cod[m] != x:
                raise _not_endo(oname, mname)
            ident[x] = m
    return validate_rows(name, objects, mor_names, mor_dom, mor_cod, by_cod, rows, ident)


def validate_rows(name, objects, mor_names, mor_dom, mor_cod, by_cod, rows,
                  identity=None) -> FinCat:
    """The index kernel: check composition rows and return the FinCat.

    objects:   object names, one per object index.
    mor_names: morphism names, one per morphism index.
    mor_dom, mor_cod: the object index of each morphism's endpoints.
    by_cod:    ``_group(len(objects), mor_cod)``: per object the morphisms
               into it, and per morphism its place among them.
    rows:      per morphism g, the list of composites g∘f over the
               morphisms f into dom g, in index order; None where a
               composite is missing.  Kept as the category's storage.
    identity:  the identity per object (None where none is declared), or
               None to infer each from the rows.

    Checks run in order: typing, totality, identities (object order), the
    unit laws (morphism order), associativity; typing and totality name
    their first failing cell in (f, g) scan order of the composable pairs.
    Associativity over a thin input holds by typing, as both sides of each
    triple lie in one hom-set.  Otherwise it is checked for the middle
    morphisms g in the generating set S only: the middles that pass are
    closed under composition, identities pass by the unit laws, and S
    generates every morphism.  On a mismatch every middle is checked, and
    the witness is the first failing triple in (f, g, h) scan order.
    """
    cat = FinCat(name, objects, mor_names, mor_dom, mor_cod, by_cod, rows)
    name_of, mor_dom, mor_cod = cat.mor_name, cat.mor_dom, cat.mor_cod
    into, pos = by_cod

    # Typing and totality: each row is compared at once with the endpoints
    # its composites must have, coded as dom·n + cod per morphism, and only
    # a bad row is rescanned cell by cell.
    n = len(objects)
    code = [d * n + c for d, c in zip(mor_dom, mor_cod)]
    want = {(d, c): [mor_dom[f] * n + c for f in into[d]] for d, c in cat._hom}
    bad = [g for g, row in enumerate(rows) if None in row
           or list(map(code.__getitem__, row)) != want[mor_dom[g], mor_cod[g]]]
    if bad:
        bad = set(bad)
        for g, f in cat.composable_pairs():
            if g not in bad:
                continue
            r = rows[g][pos[f]]
            if r is not None and (mor_dom[r] != mor_dom[f] or mor_cod[r] != mor_cod[g]):
                raise _ill_typed(name_of(g), name_of(f), name_of(r))
        raise _missing(rows, pos, cat._by_dom, mor_cod, name_of)

    if identity is None:
        identity = _infer_identities(cat, objects)
    for x, m in enumerate(identity):
        if m is not None and (mor_dom[m] != x or mor_cod[m] != x):
            raise _not_endo(objects[x], name_of(m))
    if None in identity:
        missing = objects[identity.index(None)]
        raise UnitViolation(f"no identity declared for {missing!r}",
                            witness={"object": missing})
    cat.identity = ident = tuple(identity)

    # Unit laws.
    for f in range(len(mor_dom)):
        if rows[ident[mor_cod[f]]][pos[f]] != f:
            raise UnitViolation(
                f"id∘{name_of(f)!r} differs from {name_of(f)!r}",
                witness={"morphism": name_of(f), "side": "left"})
        if rows[f][pos[ident[mor_dom[f]]]] != f:
            raise UnitViolation(
                f"{name_of(f)!r}∘id differs from {name_of(f)!r}",
                witness={"morphism": name_of(f), "side": "right"})

    if not cat.thin and next(_assoc_failures(cat, cat.generators()), None):
        f, g, h = min(_assoc_failures(cat, range(len(mor_dom))))
        raise AssociativityViolation(
            f"(h∘g)∘f ≠ h∘(g∘f) for h={name_of(h)!r}, g={name_of(g)!r}, f={name_of(f)!r}",
            witness={"h": name_of(h), "g": name_of(g), "f": name_of(f)})
    return cat


def _ill_typed(g, f, gf):
    return IllTypedComposite(f"compose({g!r}, {f!r}) = {gf!r} has wrong dom/cod",
                             witness={"g": g, "f": f, "value": gf})


def _missing(rows, pos, by_dom, mor_cod, name_of):
    """The MissingComposite naming the first composable pair (g, f) without
    a composite, in (f, g) scan order; the rows must have one."""
    g, f = next((g, f) for f, c in enumerate(mor_cod) for g in by_dom[c]
                if rows[g][pos[f]] is None)
    return MissingComposite(f"no composite for ({name_of(g)!r}, {name_of(f)!r})",
                            witness={"g": name_of(g), "f": name_of(f)})


def _not_endo(oname, mname):
    return UnitViolation(f"declared identity {mname!r} is not an endomorphism of {oname!r}",
                         witness={"object": oname, "morphism": mname})


def _assoc_failures(cat, middles):
    """(f, g, h) per pair of a middle g in ``middles`` and an h out of
    cod g for which h∘(g∘f) ≠ (h∘g)∘f for some f, with f the first such.
    Both sides are compared as one row over every f into dom g: the row
    of h read at the places of the row of g, against the row of h∘g."""
    rows, pos, into = cat._rows, cat._pos, cat._into
    for g in middles:
        at = list(map(pos.__getitem__, rows[g]))
        for h in cat._by_dom[cat.mor_cod[g]]:
            row_h = rows[h]
            lhs, rhs = list(map(row_h.__getitem__, at)), rows[row_h[pos[g]]]
            if lhs != rhs:
                k = next(k for k, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
                yield into[cat.mor_dom[g]][k], g, h


def _generators(cat):
    """Greedy generating set in index order (see ``FinCat.generators``).
    The reached set starts at the identities and is closed under s∘x for s
    in S; each (s, x) pair is composed once, so the cost is O(|S|·M)."""
    rows, pos, mor_dom, mor_cod = cat._rows, cat._pos, cat.mor_dom, cat.mor_cod
    reached = [False] * len(mor_dom)
    into = [[] for _ in range(cat.n_objects)]   # reached morphisms by codomain
    out = [[] for _ in range(cat.n_objects)]    # generators by domain
    for i in cat.identity:
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
            y = rows[s][pos[x]]
            if not reached[y]:
                reached[y] = True
                into[mor_cod[y]].append(y)
                work.extend((t, y) for t in out[mor_cod[y]])
    return tuple(gens)


class Family(list):
    """The morphisms (i, j, components) of a family category, in index
    order; ``keys`` maps each (i, j, *components) to its index."""

    def __init__(self):
        super().__init__()
        self.keys = {}

    def add(self, i, j, components):
        self.keys[(i, j, *components)] = len(self)
        self.append((i, j, components))


def family_category(cat: FinCat, objs, values, square_laws, what, obj_prefix,
                    mor_prefix, name, caps: Caps = DEFAULT_CAPS):
    """(validated FinCat, Family): morphisms objs[i] -> objs[j] are the
    tuples of ``cat`` morphisms values(f)[x] -> values(g)[x] passing
    square_laws(f, g), composed componentwise.  The object cap is checked
    before any search, each pair's search space (as ``what``) before it is
    searched, and the morphism cap at each morphism found.  Objects and
    morphisms are named by prefix and index, so reports on the result are
    deterministic.
    """
    if len(objs) > caps.max_objects:
        raise SizeBound(f"{len(objs)} objects exceeds cap {caps.max_objects}")
    family = Family()
    for i, f in enumerate(objs):
        for j, g in enumerate(objs):
            cands = {x: list(cat.hom(a, b))
                     for x, (a, b) in enumerate(zip(values(f), values(g)))}
            guard_space(max(search_space(cands), 1), caps, what)
            for asg in backtrack(cands, square_laws(f, g)):
                if len(family) == caps.max_morphisms:
                    raise SizeBound(f"{what} count exceeds cap {caps.max_morphisms}")
                family.add(i, j, tuple(asg[x] for x in cands))

    # The row of g: i -> j over the morphisms f into i, in index order.
    # They are kept as columns per object i: their sources, then per
    # component x the places of their x-th components in the rows of
    # ``cat``.  So a row reads one ``cat`` row per component and looks each
    # composite up by its key (source, j, *components).
    mor_dom, mor_cod = [i for i, _, _ in family], [j for _, j, _ in family]
    width = len(values(objs[0])) if objs else 0
    by_cod = _group(len(objs), mor_cod)
    cols = [([family[k][0] for k in ks],
             *([cat._pos[family[k][2][x]] for k in ks] for x in range(width)))
            for ks in by_cod[0]]
    rows = []
    for i, j, comps in family:
        srcs, *places = cols[i]
        gfs = [map(cat._rows[c].__getitem__, at) for c, at in zip(comps, places)]
        rows.append(list(map(family.keys.get, zip(srcs, repeat(j), *gfs))))
    identity = [family.keys.get((i, i, *map(cat.id_of, values(f))))
                for i, f in enumerate(objs)]
    return validate_rows(name, [f"{obj_prefix}{i}" for i in range(len(objs))],
                         [f"{mor_prefix}{k}" for k in range(len(family))],
                         mor_dom, mor_cod, by_cod, rows, identity), family


def _group(n_objects, ends):
    """(groups, places): per object the morphisms whose end (dom or cod, as
    ``ends`` lists them) it is, in index order, and per morphism its place
    in its group."""
    groups, places = [[] for _ in range(n_objects)], []
    for m, x in enumerate(ends):
        places.append(len(groups[x]))
        groups[x].append(m)
    return groups, places


def _infer_identities(cat, objects):
    """Per object, the first endomorphism acting neutrally."""
    rows, pos, into = cat._rows, cat._pos, cat._into
    ident = []
    for x, oname in enumerate(objects):
        e = next((e for e in cat.hom(x, x) if rows[e] == into[x]
                  and all(rows[g][pos[e]] == g for g in cat._by_dom[x])), None)
        if e is None:
            raise UnitViolation(f"no identity found for object {oname!r}",
                                witness={"object": oname})
        ident.append(e)
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
