"""Skeletal finite sets: the computable cocomplete base.

Objects are bare cardinalities (the set {0, ..., card-1}), maps are lookup
tables.  The chosen product encoding pair(i, j) = i*|Y| + j makes the
cartesian structure associative and unital as plain integer arithmetic, so
no associator bookkeeping exists anywhere downstream.  Coequalizers go
through union-find with minimal-element representatives and classes
renumbered by increasing representative, which pins a canonical choice
among isomorphic quotients.

Values are canonical where they are small.  The kernel constructors return
one shared ``SkSet`` per cardinality below ``INTERN_LIMIT``, and one shared
identity and one shared map out of the empty set for each of those sets,
each built on first use; ``compose`` and ``product_map`` return that shared
empty map whenever their domain is empty.  No operation is memoized.  A
``SkMap`` computes its hash once, at construction, and compares by
identity, then hash, then table and codomain.  A ``SkSet``/``SkMap`` built
directly is equal to, and hashes like, the shared one.

The kernel builds a map without the range scan only where its table is in
range by construction (``_made``; the public ``SkMap(...)``, and with it
every spec, builder, sampler and probe path, keeps the check).  The
argument, once per call site:

- ``compose``: the entries are entries of g's table, so below |cod g|;
- ``product_map``: a·|cod g| + b with a < |cod f| and b < |cod g| is below
  |cod f|·|cod g|;
- ``copair``: the entries are entries of maps into the shared codomain;
- ``injection``: ``range(off, off + |part|)`` ends at most at the total;
- ``coproduct_map``: the k-th offset plus an entry of a map into the k-th
  codomain is below the sum of the codomains;
- ``coequalizer``: the entries number the classes, below their count;
- ``factor_through_coequalizer``: the entries are entries of h's table,
  and a class that no element reaches is refused;
- ``Maps.__getitem__``: the entries are digits in base |y|.

Each such table is built with one entry per element of its domain.

Hom-sets are lazy.  ``hom_maps`` checks the size of x -> y against the cap
and returns a ``Maps`` sequence that builds a map only when it is read, by
index or by iteration in lexicographic table order.  A seeded draw
(``corpus.CorpusSampler``) shuffles the indices of such a sequence and reads
maps in that order, so it builds only the maps its search reaches.
"""

from collections.abc import Sequence
from dataclasses import dataclass, field
import itertools
import operator

from .caps import Caps, DEFAULT_CAPS
from .errors import Overflow, ShapeMismatch, SizeBound

# Cardinalities below this bound get one shared set, identity and empty map.
INTERN_LIMIT = 64


@dataclass(frozen=True, order=True)
class SkSet:
    card: int

    def __post_init__(self):
        if self.card < 0:
            raise ShapeMismatch("negative cardinality")

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is self.__class__:
            return self.card == other.card
        return NotImplemented


@dataclass(frozen=True, order=True, slots=True)
class SkMap:
    dom: SkSet
    cod: SkSet
    table: tuple
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        table = self.table
        if len(table) != self.dom.card:
            raise ShapeMismatch("table length differs from dom cardinality")
        if table and (min(table) < 0 or max(table) >= self.cod.card):
            raise ShapeMismatch("table entry out of codomain range")
        # A tuple's hash depends only on its items' hashes, and an SkSet
        # hashes as the 1-tuple of its card, so this is hash((dom, cod, table)).
        object.__setattr__(self, "_hash", hash(((self.dom.card,), (self.cod.card,), table)))

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._hash == other._hash and self.table == other.table
                and self.cod == other.cod)

    def __hash__(self):
        return self._hash

    def __call__(self, i):
        return self.table[i]


_new = object.__new__
_set_dom, _set_cod = SkMap.dom.__set__, SkMap.cod.__set__
_set_table, _set_hash = SkMap.table.__set__, SkMap._hash.__set__


def _made(dom, cod, table):
    """``SkMap(dom, cod, table)`` without the length and range scan, for a
    table that is in range by construction (the module docstring names each
    call site and its argument); same fields, same hash."""
    m = _new(SkMap)
    _set_dom(m, dom)
    _set_cod(m, cod)
    _set_table(m, table)
    _set_hash(m, hash(((dom.card,), (cod.card,), table)))
    return m


# The shared values by cardinality, each built on first use.  The slots are
# filled in place, never rebound, so every holder of these lists sees them.
_SETS = [None] * INTERN_LIMIT
_IDENTITIES = [None] * INTERN_LIMIT
_EMPTY_MAPS = [None] * INTERN_LIMIT


def _skset(card):
    if card >= INTERN_LIMIT:
        return SkSet(card)
    x = _SETS[card]
    if x is None:
        x = _SETS[card] = SkSet(card)
    return x


def initial_map(x: SkSet) -> SkMap:
    """The unique map from the empty set to x."""
    if x.card >= INTERN_LIMIT:
        return SkMap(_skset(0), x, ())
    m = _EMPTY_MAPS[x.card]
    if m is None:
        m = _EMPTY_MAPS[x.card] = SkMap(_skset(0), _skset(x.card), ())
    return m


def identity(x: SkSet) -> SkMap:
    if x.card >= INTERN_LIMIT:
        return SkMap(x, x, tuple(range(x.card)))
    m = _IDENTITIES[x.card]
    if m is None:
        x = _skset(x.card)
        m = _IDENTITIES[x.card] = SkMap(x, x, tuple(range(x.card)))
    return m


def compose(g: SkMap, f: SkMap) -> SkMap:
    """g after f."""
    if f.cod is not g.dom and f.cod != g.dom:
        raise ShapeMismatch(f"cannot compose {g} after {f}")
    if not f.table:
        return initial_map(g.cod)
    # entries of g's table
    return _made(f.dom, g.cod, tuple(map(g.table.__getitem__, f.table)))


def is_bijection(f: SkMap) -> bool:
    return f.dom.card == f.cod.card and len(set(f.table)) == f.dom.card


def inverse(f: SkMap) -> SkMap:
    if not is_bijection(f):
        raise ShapeMismatch("map is not a bijection")
    inv = [0] * f.cod.card
    for i, v in enumerate(f.table):
        inv[v] = i
    return SkMap(f.cod, f.dom, tuple(inv))


# --- product ---------------------------------------------------------------

def product(x: SkSet, y: SkSet, caps: Caps = DEFAULT_CAPS) -> SkSet:
    card = x.card * y.card
    if card > caps.max_card:
        raise Overflow(f"product cardinality {card} exceeds cap {caps.max_card}")
    return _skset(card)


def pair(i: int, j: int, y: SkSet) -> int:
    return i * y.card + j


def unpair(p: int, y: SkSet):
    return divmod(p, y.card)


def product_map(f: SkMap, g: SkMap, caps: Caps = DEFAULT_CAPS) -> SkMap:
    """f x g on the pair encoding (f acts on the left factor)."""
    dom = product(f.dom, g.dom, caps)
    cod = product(f.cod, g.cod, caps)
    if not dom.card:
        return initial_map(cod)
    n, gt = g.cod.card, g.table
    # a·|cod g| + b with a < |cod f| and b < |cod g|
    return _made(dom, cod, tuple([a * n + b for a in f.table for b in gt]))


# --- coproduct --------------------------------------------------------------

def coproduct(parts, caps: Caps = DEFAULT_CAPS) -> SkSet:
    card = sum(p.card for p in parts)
    if card > caps.max_card:
        raise Overflow(f"coproduct cardinality {card} exceeds cap {caps.max_card}")
    return _skset(card)


def offsets(parts):
    out = []
    acc = 0
    for p in parts:
        out.append(acc)
        acc += p.card
    return out


def injection(parts, k: int, caps: Caps = DEFAULT_CAPS) -> SkMap:
    total = coproduct(parts, caps)
    off = offsets(parts)[k]
    # range(off, off + |part|) ends at most at the total
    return _made(parts[k], total, tuple(range(off, off + parts[k].card)))


def copair(parts, maps, caps: Caps = DEFAULT_CAPS) -> SkMap:
    """The unique map out of the coproduct restricting to each given map."""
    if len(parts) != len(maps):
        raise ShapeMismatch("copair: parts/maps length mismatch")
    cods = {m.cod for m in maps}
    if len(cods) > 1:
        raise ShapeMismatch("copair: maps do not share a codomain")
    for p, m in zip(parts, maps):
        if m.dom != p:
            raise ShapeMismatch("copair: map domain differs from its part")
    cod = maps[0].cod if maps else _skset(0)
    table = tuple(v for m in maps for v in m.table)
    # entries of maps into the shared codomain
    return _made(coproduct(parts, caps), cod, table)


def coproduct_map(fs, caps: Caps = DEFAULT_CAPS) -> SkMap:
    doms = [f.dom for f in fs]
    cods = [f.cod for f in fs]
    out_off = offsets(cods)
    table = tuple(out_off[k] + v for k, f in enumerate(fs) for v in f.table)
    # the k-th offset plus an entry of a map into the k-th codomain
    return _made(coproduct(doms, caps), coproduct(cods, caps), table)


# --- coequalizer ------------------------------------------------------------

def coequalizer(f: SkMap, g: SkMap):
    """Canonical coequalizer of a parallel pair: (quotient, projection).

    Union-find keeps the minimal element of each class as representative;
    classes are numbered in increasing order of representative, so the first
    occurrence of each class index in the projection table is its
    representative.
    """
    if f.dom != g.dom or f.cod != g.cod:
        raise ShapeMismatch("coequalizer arguments must be parallel")
    parent = list(range(f.cod.card))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for x in range(f.dom.card):
        a, b = find(f.table[x]), find(g.table[x])
        if a != b:
            if a < b:
                parent[b] = a
            else:
                parent[a] = b

    reps = sorted({find(i) for i in range(f.cod.card)})
    index = {r: k for k, r in enumerate(reps)}
    # the entries number the classes
    proj = _made(f.cod, _skset(len(reps)), tuple(index[find(i)] for i in range(f.cod.card)))
    return proj.cod, proj


def factor_through_coequalizer(proj: SkMap, h: SkMap):
    """The unique u with u∘proj = h, or None when h is not constant on classes."""
    if h.dom != proj.dom:
        raise ShapeMismatch("factor: map does not start at the coequalized object")
    table = [None] * proj.cod.card
    for i in range(proj.dom.card):
        c = proj.table[i]
        if table[c] is None:
            table[c] = h.table[i]
        elif table[c] != h.table[i]:
            return None
    if None in table:
        raise ShapeMismatch("factor: the projection is not onto")
    # entries of h's table, one per class
    return _made(proj.cod, h.cod, tuple(table))


# --- hom enumeration --------------------------------------------------------

def count_maps(x: SkSet, y: SkSet) -> int:
    if x.card == 0:
        return 1
    return y.card ** x.card


def all_maps(x: SkSet, y: SkSet):
    """All maps x -> y in lexicographic table order."""
    for table in itertools.product(range(y.card), repeat=x.card):
        yield SkMap(x, y, table)


class Maps(Sequence):
    """All maps x -> y in lexicographic table order, as a sequence that
    builds each map when it is read: ``len`` is ``count_maps(x, y)``, item
    i is the map whose table spells i in base |y|, most significant entry
    first, and iteration is ``all_maps(x, y)``."""

    __slots__ = ("dom", "cod", "_len", "_powers")

    def __init__(self, x: SkSet, y: SkSet):
        self.dom = x
        self.cod = y
        self._len = count_maps(x, y)
        self._powers = [y.card ** k for k in range(x.card - 1, -1, -1)]

    def __len__(self):
        return self._len

    def __getitem__(self, i):
        i = operator.index(i)
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("map index out of range")
        base = self.cod.card
        # digits in base |y|
        return _made(self.dom, self.cod, tuple([i // p % base for p in self._powers]))

    def __iter__(self):
        return all_maps(self.dom, self.cod)


def hom_maps(x: SkSet, y: SkSet, caps: Caps = DEFAULT_CAPS) -> Maps:
    """The hom-set x -> y as a lazy ``Maps`` sequence; its size is checked
    against the cap before any map is built."""
    n = count_maps(x, y)
    if n > caps.max_search:
        raise SizeBound(f"{n} maps from {x} to {y} exceeds cap {caps.max_search}")
    return Maps(x, y)


class SkSetCat:
    """Skeletal finite sets packaged with the carrier interface the
    monoidal/enriched layers expect.  Objects are not enumerable; a hom-set
    is a lazy ``Maps`` sequence, capped by ``max_search``."""

    thin = False

    def __init__(self, caps: Caps = DEFAULT_CAPS):
        self.caps = caps

    def id_of(self, x):
        return identity(x)

    def compose(self, g, f):
        return compose(g, f)

    def dom(self, m):
        return m.dom

    def cod(self, m):
        return m.cod

    def hom(self, x, y):
        return hom_maps(x, y, self.caps)

    def is_iso(self, m):
        return is_bijection(m)

    def obj_name(self, x):
        return f"card{x.card}"

    def mor_name(self, m):
        return f"{list(m.table)}:{m.dom.card}->{m.cod.card}"

    def __eq__(self, other):
        return isinstance(other, SkSetCat)

    def __hash__(self):
        return hash("SkSetCat")
