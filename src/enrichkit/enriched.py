"""Categories enriched over a strict monoidal base.

An ``MCat`` stores hom-objects of the base plus unit and composition
morphisms; both enriched axioms are checked exhaustively over all object
triples and quadruples.  Because the base is strict, the unparenthesized
triple tensor is well defined and every axiom is a plain equality of base
morphisms.

A locally finite ordinary category embeds as a category enriched over
skeletal finite sets (``mcat_from_fincat``); that is how the cocomplete
base of the colimit layer enters.
"""

from .caps import Caps, DEFAULT_CAPS
from .errors import (
    DanglingReference,
    EnrichedAssociativityViolation,
    EnrichedUnitViolation,
    MissingComposite,
    TypeMismatch,
)
from .fincat import FinCat
from .finset import SkMap, SkSet
from .monoidal import finset_product_monoidal, opposite_monoidal


class MCat:
    """A validated enriched category.  Construct via ``validate_mcat``.

    Equality and hash are structural (the name is ignored); the hash is
    computed once here because presheaf keys hash their source.
    """

    def __init__(self, base, objects, hom, unit, comp, name=""):
        self.base = base
        self.objects = tuple(objects)
        self._hom = dict(hom)
        self._unit = dict(unit)
        self._comp = dict(comp)
        self.name = name
        self._hash = hash((base, self.objects, frozenset(self._hom.items()),
                           frozenset(self._unit.items()),
                           frozenset(self._comp.items())))

    @property
    def n_objects(self):
        return len(self.objects)

    def obj_name(self, x):
        return self.objects[x]

    def cell_names(self, cell):
        """Witness dict {"x": ..., "y": ..., "z": ...} naming a law cell."""
        return {k: self.objects[o] for k, o in zip("xyz", cell)}

    def hom(self, x, y):
        return self._hom[(x, y)]

    def unit(self, x):
        return self._unit[x]

    def comp(self, x, y, z):
        """The composition morphism hom(y,z) ⊗ hom(x,y) -> hom(x,z)."""
        return self._comp[(x, y, z)]

    def __eq__(self, other):
        if not isinstance(other, MCat):
            return NotImplemented
        return (self.base == other.base and self.objects == other.objects
                and self._hom == other._hom and self._unit == other._unit
                and self._comp == other._comp)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"MCat({self.name!r}, {self.n_objects} objects over {self.base!r})"


def validate_mcat(base, objects, hom, unit, comp, name="",
                  caps: Caps = DEFAULT_CAPS) -> MCat:
    """Check both enriched axioms exhaustively.

    hom:  {(x, y): base object} on object indices 0..n-1.
    unit: {x: base morphism 1 -> hom(x, x)}.
    comp: {(x, y, z): base morphism hom(y, z) ⊗ hom(x, y) -> hom(x, z)}.
    ``caps`` is accepted because ``bench/workloads.py`` passes it; it is not read.
    """
    objects = tuple(objects)
    if len(set(objects)) != len(objects):
        raise DanglingReference("duplicate object name")
    n = len(objects)
    hom = dict(hom)
    unit = dict(unit)
    comp = dict(comp)

    for x in range(n):
        for y in range(n):
            if (x, y) not in hom:
                raise MissingComposite(f"hom({objects[x]!r}, {objects[y]!r}) missing",
                                       witness={"x": objects[x], "y": objects[y]})
    for x in range(n):
        if x not in unit:
            raise MissingComposite(f"unit for {objects[x]!r} missing",
                                   witness={"x": objects[x]})
        u = unit[x]
        if base.dom(u) != base.unit or base.cod(u) != hom[(x, x)]:
            raise TypeMismatch(
                f"unit of {objects[x]!r} is not a morphism 1 -> hom(x, x)",
                witness={"x": objects[x]})
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if (x, y, z) not in comp:
                    raise MissingComposite(
                        f"comp({objects[x]!r}, {objects[y]!r}, {objects[z]!r}) missing",
                        witness={"x": objects[x], "y": objects[y], "z": objects[z]})
                c = comp[(x, y, z)]
                want_dom = base.tensor_ob(hom[(y, z)], hom[(x, y)])
                if base.dom(c) != want_dom or base.cod(c) != hom[(x, z)]:
                    raise TypeMismatch(
                        f"comp({objects[x]!r}, {objects[y]!r}, {objects[z]!r}) "
                        "has wrong dom/cod",
                        witness={"x": objects[x], "y": objects[y], "z": objects[z]})

    # unit laws: comp ∘ (unit(y) ⊗ id) = id = comp ∘ (id ⊗ unit(x))
    for x in range(n):
        for y in range(n):
            h = hom[(x, y)]
            left = base.compose(comp[(x, y, y)], base.tensor_mor(unit[y], base.id_of(h)))
            if left != base.id_of(h):
                raise EnrichedUnitViolation(
                    f"left unit law fails at ({objects[x]!r}, {objects[y]!r})",
                    witness={"x": objects[x], "y": objects[y], "side": "left"})
            right = base.compose(comp[(x, x, y)], base.tensor_mor(base.id_of(h), unit[x]))
            if right != base.id_of(h):
                raise EnrichedUnitViolation(
                    f"right unit law fails at ({objects[x]!r}, {objects[y]!r})",
                    witness={"x": objects[x], "y": objects[y], "side": "right"})

    # associativity over every quadruple (w, x, y, z)
    for w in range(n):
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    id_wx = base.id_of(hom[(w, x)])
                    id_yz = base.id_of(hom[(y, z)])
                    lhs = base.compose(comp[(w, x, z)],
                                       base.tensor_mor(comp[(x, y, z)], id_wx))
                    rhs = base.compose(comp[(w, y, z)],
                                       base.tensor_mor(id_yz, comp[(w, x, y)]))
                    if lhs != rhs:
                        raise EnrichedAssociativityViolation(
                            f"associativity fails at ({objects[w]!r}, {objects[x]!r}, "
                            f"{objects[y]!r}, {objects[z]!r})",
                            witness={"w": objects[w], "x": objects[x],
                                     "y": objects[y], "z": objects[z]})

    return MCat(base, objects, hom, unit, comp, name=name)


def opposite_mcat(a: MCat) -> MCat:
    """Enriched over the opposite base: hom swapped, comp re-read."""
    base_op = opposite_monoidal(a.base)
    n = a.n_objects
    hom = {(x, y): a.hom(y, x) for x in range(n) for y in range(n)}
    unit = {x: a.unit(x) for x in range(n)}
    comp = {(x, y, z): a.comp(z, y, x)
            for x in range(n) for y in range(n) for z in range(n)}
    return validate_mcat(base_op, a.objects, hom, unit, comp,
                         name=a.name + "-op" if a.name else "")


def mcat_from_fincat(c: FinCat, caps: Caps = DEFAULT_CAPS) -> MCat:
    """Ingest a locally finite ordinary category as enriched over finite sets.

    hom(x, y) is the cardinality of Hom_C(x, y); elements are numbered in
    declaration order of C's morphisms, so composition tables are canonical.
    """
    from . import finset

    base = finset_product_monoidal(caps)
    n = c.n_objects
    hom = {}
    pos = {}
    for x in range(n):
        for y in range(n):
            ms = c.hom(x, y)
            hom[(x, y)] = SkSet(len(ms))
            for k, m in enumerate(ms):
                pos[m] = k
    unit = {x: SkMap(SkSet(1), hom[(x, x)], (pos[c.id_of(x)],)) for x in range(n)}
    comp = {}
    for x in range(n):
        for y in range(n):
            for z in range(n):
                hyz, hxy = hom[(y, z)], hom[(x, y)]
                table = []
                for g in c.hom(y, z):
                    for f in c.hom(x, y):
                        table.append(pos[c.compose(g, f)])
                comp[(x, y, z)] = SkMap(finset.product(hyz, hxy, caps),
                                        hom[(x, z)], tuple(table))
    return validate_mcat(base, c.objects, hom, unit, comp,
                         name=c.name + "-enr" if c.name else "")
