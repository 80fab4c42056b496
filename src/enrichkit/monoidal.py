"""Strict monoidal structures on finite and computable carriers.

Only strict structures are representable: associativity and unit laws must
hold as table equalities, which is what lets every later check compare
morphisms with ``==`` instead of chasing coherence isomorphisms.  The
opposite structure swaps the tensor arguments and is an involution on the
nose.

Both backends are categories through their carrier (``bind_carrier``) and
add ``unit``, ``tensor_ob`` and ``tensor_mor``; the finite one also lists
``objects()`` and ``morphisms()``.  Downstream code only calls these, so
enriched categories, modules and presheaves work identically over finite
tables and over skeletal finite sets.
"""

import itertools

from . import finset
from .caps import Caps, DEFAULT_CAPS
from .errors import (
    AssociativityViolation,
    BifunctorialityViolation,
    DanglingReference,
    IllTypedComposite,
    MissingComposite,
    UnitViolation,
)
from .fincat import FinCat, bind_carrier, discrete_cat, validate_fincat
from .finset import SkSet, SkSetCat


class MonStr:
    """Table-backed strict monoidal structure on a finite carrier."""

    is_finite = True

    def __init__(self, carrier: FinCat, unit, tensor_ob_table, tensor_mor_table, name=""):
        bind_carrier(self, carrier)
        self.unit = unit
        self._tob = dict(tensor_ob_table)
        self._tmor = dict(tensor_mor_table)
        self.name = name or carrier.name
        self._hash = None

    def objects(self):
        return range(self.carrier.n_objects)

    def morphisms(self):
        return range(self.carrier.n_morphisms)

    def tensor_ob(self, a, b):
        return self._tob[(a, b)]

    def tensor_mor(self, u, v):
        return self._tmor[(u, v)]

    def __eq__(self, other):
        if isinstance(other, SkSetMonStr):
            return False
        if not isinstance(other, MonStr):
            return NotImplemented
        return (self.carrier == other.carrier and self.unit == other.unit
                and self._tob == other._tob and self._tmor == other._tmor)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.carrier, self.unit,
                               tuple(sorted(self._tob.items())),
                               tuple(sorted(self._tmor.items()))))
        return self._hash

    def __repr__(self):
        return f"MonStr({self.name!r})"


class SkSetMonStr:
    """Skeletal finite sets under product or coproduct.

    The opposite structure only flips the tensor argument order; objects are
    unchanged (cardinalities commute), morphism tables are re-encoded.
    """

    is_finite = False

    def __init__(self, kind="product", flipped=False, caps: Caps = DEFAULT_CAPS):
        if kind not in ("product", "coproduct"):
            raise DanglingReference(f"unknown finset tensor kind {kind!r}")
        self.kind = kind
        self.flipped = flipped
        self.caps = caps
        bind_carrier(self, SkSetCat(caps))
        self.unit = SkSet(1) if kind == "product" else SkSet(0)
        self.name = f"finset-{kind}" + ("-op" if flipped else "")

    def tensor_ob(self, a, b):
        # |a×b| = |b×a| and |a+b| = |b+a|: flipping changes only tensor_mor
        if self.kind == "product":
            return finset.product(a, b, self.caps)
        return finset.coproduct([a, b], self.caps)

    def tensor_mor(self, u, v):
        if self.flipped:
            u, v = v, u
        if self.kind == "product":
            return finset.product_map(u, v, self.caps)
        return finset.coproduct_map([u, v], self.caps)

    def probe_objects(self, max_card=3):
        return [SkSet(c) for c in range(max_card + 1)]

    def __eq__(self, other):
        if not isinstance(other, SkSetMonStr):
            return False if isinstance(other, MonStr) else NotImplemented
        return self.kind == other.kind and self.flipped == other.flipped

    def __hash__(self):
        return hash((self.kind, self.flipped))

    def __repr__(self):
        return f"SkSetMonStr({self.name!r})"


def validate_monoidal(carrier: FinCat, unit, tensor_ob, tensor_mor, name="") -> MonStr:
    """Exhaustively validate strict monoidal tables over a finite carrier.

    unit, tensor_ob and tensor_mor use names; every violation names a
    witness cell.
    """
    u = carrier.obj(unit)
    tob = {}
    for a, b, ab in tensor_ob:
        tob[(carrier.obj(a), carrier.obj(b))] = carrier.obj(ab)
    tmor = {}
    for f, g, fg in tensor_mor:
        tmor[(carrier.mor(f), carrier.mor(g))] = carrier.mor(fg)

    n, m = carrier.n_objects, carrier.n_morphisms
    for a in range(n):
        for b in range(n):
            if (a, b) not in tob:
                raise MissingComposite(
                    f"tensor_ob missing ({carrier.obj_name(a)!r}, {carrier.obj_name(b)!r})",
                    witness={"a": carrier.obj_name(a), "b": carrier.obj_name(b)})

    # strict unit / associativity on objects first: the object table is the
    # skeleton everything else is typed against.
    for a in range(n):
        if tob[(u, a)] != a or tob[(a, u)] != a:
            raise UnitViolation(
                f"tensor with unit is not the identity on {carrier.obj_name(a)!r}",
                witness={"object": carrier.obj_name(a)})
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if tob[(tob[(a, b)], c)] != tob[(a, tob[(b, c)])]:
                    raise AssociativityViolation(
                        "object tensor is not strictly associative",
                        witness={"a": carrier.obj_name(a), "b": carrier.obj_name(b),
                                 "c": carrier.obj_name(c)})

    for f in range(m):
        for g in range(m):
            if (f, g) not in tmor:
                raise MissingComposite(
                    f"tensor_mor missing ({carrier.mor_name(f)!r}, {carrier.mor_name(g)!r})",
                    witness={"f": carrier.mor_name(f), "g": carrier.mor_name(g)})
            fg = tmor[(f, g)]
            if (carrier.dom(fg) != tob[(carrier.dom(f), carrier.dom(g))]
                    or carrier.cod(fg) != tob[(carrier.cod(f), carrier.cod(g))]):
                raise IllTypedComposite(
                    f"tensor_mor({carrier.mor_name(f)!r}, {carrier.mor_name(g)!r}) "
                    "has wrong dom/cod",
                    witness={"f": carrier.mor_name(f), "g": carrier.mor_name(g)})

    id_u = carrier.id_of(u)
    for f in range(m):
        if tmor[(id_u, f)] != f or tmor[(f, id_u)] != f:
            raise UnitViolation(
                f"tensor with id of unit is not the identity on {carrier.mor_name(f)!r}",
                witness={"morphism": carrier.mor_name(f)})

    for a in range(n):
        for b in range(n):
            if tmor[(carrier.id_of(a), carrier.id_of(b))] != carrier.id_of(tob[(a, b)]):
                raise BifunctorialityViolation(
                    "tensor of identities is not the identity",
                    witness={"a": carrier.obj_name(a), "b": carrier.obj_name(b)})

    pairs = list(carrier.composable_pairs())
    for g, gp in pairs:
        for f, fp in pairs:
            lhs = tmor[(carrier.compose(g, gp), carrier.compose(f, fp))]
            rhs = carrier.compose(tmor[(g, f)], tmor[(gp, fp)])
            if lhs != rhs:
                raise BifunctorialityViolation(
                    "interchange law fails",
                    witness={"g": carrier.mor_name(g), "g'": carrier.mor_name(gp),
                             "f": carrier.mor_name(f), "f'": carrier.mor_name(fp)})

    for f in range(m):
        for g in range(m):
            for h in range(m):
                if tmor[(tmor[(f, g)], h)] != tmor[(f, tmor[(g, h)])]:
                    raise AssociativityViolation(
                        "morphism tensor is not strictly associative",
                        witness={"f": carrier.mor_name(f), "g": carrier.mor_name(g),
                                 "h": carrier.mor_name(h)})

    return MonStr(carrier, u, tob, tmor, name=name)


def check_monoidal_probes(M: SkSetMonStr, max_card=3, mor_samples=8):
    """Probe-set validation of a computable monoidal structure.

    Returns the number of probe equations checked; raises on a violation.
    """
    obs = M.probe_objects(max_card)
    checked = 0
    for a in obs:
        if M.tensor_ob(M.unit, a) != a or M.tensor_ob(a, M.unit) != a:
            raise UnitViolation("unit law fails on probe",
                                witness={"object": M.carrier.obj_name(a)})
        checked += 1
    for a in obs:
        for b in obs:
            for c in obs:
                if M.tensor_ob(M.tensor_ob(a, b), c) != M.tensor_ob(a, M.tensor_ob(b, c)):
                    raise AssociativityViolation("object probe fails", witness={})
                checked += 1
    mors = []
    for a in obs:
        for b in obs:
            maps = list(itertools.islice(finset.all_maps(a, b), mor_samples))
            mors.extend(maps)
    for u in mors:
        for v in mors:
            uv = M.tensor_mor(u, v)
            if (uv.dom != M.tensor_ob(u.dom, v.dom)
                    or uv.cod != M.tensor_ob(u.cod, v.cod)):
                raise IllTypedComposite("morphism tensor probe ill-typed", witness={})
            checked += 1
    for u in mors[:mor_samples]:
        for v in mors[:mor_samples]:
            for w in mors[:mor_samples]:
                lhs = M.tensor_mor(M.tensor_mor(u, v), w)
                rhs = M.tensor_mor(u, M.tensor_mor(v, w))
                if lhs != rhs:
                    raise AssociativityViolation("morphism tensor probe fails", witness={})
                checked += 1
    # interchange on composable probe pairs
    for a in obs:
        for b in obs:
            for c in obs:
                fs = list(itertools.islice(finset.all_maps(a, b), 3))
                gs = list(itertools.islice(finset.all_maps(b, c), 3))
                for f in fs:
                    for g in gs:
                        for fp in fs:
                            for gp in gs:
                                lhs = M.tensor_mor(finset.compose(g, f), finset.compose(gp, fp))
                                rhs = finset.compose(M.tensor_mor(g, gp), M.tensor_mor(f, fp))
                                if lhs != rhs:
                                    raise BifunctorialityViolation(
                                        "interchange probe fails", witness={})
                                checked += 1
    return checked


def opposite_monoidal(M):
    """Same carrier, arguments of the tensor swapped; revalidated."""
    if isinstance(M, SkSetMonStr):
        return SkSetMonStr(M.kind, not M.flipped, M.caps)
    carrier = M.carrier
    tob = [(carrier.obj_name(b), carrier.obj_name(a), carrier.obj_name(ab))
           for (a, b), ab in M._tob.items()]
    tmor = [(carrier.mor_name(v), carrier.mor_name(u), carrier.mor_name(uv))
            for (u, v), uv in M._tmor.items()]
    return validate_monoidal(carrier, carrier.obj_name(M.unit), tob, tmor,
                             name=M.name + "-op")


# --- shipped instances ------------------------------------------------------

def boolean_monoidal() -> MonStr:
    """The Boolean poset 2 = {0 <= 1} with tensor ∧ and unit 1."""
    carrier = validate_fincat(
        ["0", "1"],
        [("id_0", "0", "0"), ("id_1", "1", "1"), ("le01", "0", "1")],
        [("id_0", "id_0", "id_0"), ("id_1", "id_1", "id_1"),
         ("le01", "id_0", "le01"), ("id_1", "le01", "le01")],
        name="bool")
    mname = {(0, 0): "id_0", (1, 1): "id_1", (0, 1): "le01"}

    def meet_mor(u, v):
        du, cu = u
        dv, cv = v
        return mname[(min(du, dv), min(cu, cv))]

    ends = {"id_0": (0, 0), "id_1": (1, 1), "le01": (0, 1)}
    tensor_ob = [(str(a), str(b), str(min(a, b))) for a in (0, 1) for b in (0, 1)]
    tensor_mor = [(u, v, meet_mor(ends[u], ends[v]))
                  for u in ends for v in ends]
    return validate_monoidal(carrier, "1", tensor_ob, tensor_mor, name="bool-and")


def discrete_monoid_monoidal(element_names, mult, unit_name, name="") -> MonStr:
    """Discrete category on a monoid: tensor is the multiplication table."""
    elems = list(element_names)
    carrier = discrete_cat(elems)
    tensor_ob = [(a, b, mult[(a, b)]) for a in elems for b in elems]
    tensor_mor = [(f"id_{a}", f"id_{b}", f"id_{mult[(a, b)]}")
                  for a in elems for b in elems]
    return validate_monoidal(carrier, unit_name, tensor_ob, tensor_mor,
                             name=name or "discrete-monoid")


def loop_monoidal(k: int, name="") -> MonStr:
    """Z_k as a one-object strict monoidal category: tensor = composition.

    By the interchange law this is the only monoidal structure a one-object
    carrier admits, and it forces the monoid to be commutative.
    """
    from .fincat import loop_cat
    carrier = loop_cat(k)
    tensor_ob = [("*", "*", "*")]
    tensor_mor = [(f"r{a}", f"r{b}", f"r{(a + b) % k}")
                  for a in range(k) for b in range(k)]
    return validate_monoidal(carrier, "*", tensor_ob, tensor_mor,
                             name=name or f"loop{k}")


def chain_meet_monoidal(n: int) -> MonStr:
    """The chain poset 0 <= ... <= n-1 with tensor = min and unit = top."""
    from .fincat import chain_cat
    carrier = chain_cat(n)
    mname = {(i, j): (f"le{i}{j}" if i != j else f"id_{i}")
             for i in range(n) for j in range(i, n)}
    tensor_ob = [(str(a), str(b), str(min(a, b))) for a in range(n) for b in range(n)]
    tensor_mor = []
    for (du, cu), un in mname.items():
        for (dv, cv), vn in mname.items():
            tensor_mor.append((un, vn, mname[(min(du, dv), min(cu, cv))]))
    return validate_monoidal(carrier, str(n - 1), tensor_ob, tensor_mor,
                             name=f"chain{n}-meet")


def finset_product_monoidal(caps: Caps = DEFAULT_CAPS) -> SkSetMonStr:
    return SkSetMonStr("product", False, caps)


def finset_coproduct_monoidal(caps: Caps = DEFAULT_CAPS) -> SkSetMonStr:
    return SkSetMonStr("coproduct", False, caps)
