"""Left-tensored categories: strict unital modules over a monoidal base.

Unitality is demanded on the nose, so the automatic-unit arguments of the
functor layer are checkable as equalities.  ``hom_object`` searches the
finite base for an object representing m -> Hom(m ⊗ x, y); when the functor
is not representable it returns None rather than failing.

A left-tensored category is a category through its carrier
(``bind_carrier``) plus its ``base`` and the action ``act_ob``/``act_mor``;
the validators and the functor layer only use these.
"""

import itertools

from .errors import (
    BifunctorialityViolation,
    IllTypedComposite,
    MissingComposite,
    ModuleLawViolation,
    UnitActionViolation,
)
from .fincat import FinCat, bind_carrier


class TableModule:
    """Finite module from explicit action tables; construct via validate_module."""

    def __init__(self, base, carrier, act_ob_table, act_mor_table, name=""):
        self.base = base
        bind_carrier(self, carrier)
        self._aob = dict(act_ob_table)
        self._amor = dict(act_mor_table)
        self.name = name

    def act_ob(self, m, b):
        return self._aob[(m, b)]

    def act_mor(self, u, h):
        return self._amor[(u, h)]

    def __repr__(self):
        return f"TableModule({self.name!r})"


class TensorModule:
    """The base acting on itself by its own tensor."""

    def __init__(self, base):
        self.base = base
        bind_carrier(self, base.carrier)
        self.act_ob = base.tensor_ob
        self.act_mor = base.tensor_mor
        self.name = base.name + "-self"

    def __repr__(self):
        return f"TensorModule({self.name!r})"


def base_as_module(base) -> TensorModule:
    """M as a left module over itself; laws are the monoidal axioms."""
    return TensorModule(base)


def validate_module(base, carrier: FinCat, act_ob, act_mor, name="") -> TableModule:
    """Exhaustive validation of a finite module.

    Object-level laws are checked before morphism-level typing, so a
    corrupted object cell is diagnosed as the module-law failure it is
    rather than as collateral typing damage.  Then come the unit action on
    morphisms, the action of identities, interchange and the module law on
    morphisms.  The last two are decided per module, never per cell:

    - over a thin carrier both hold by typing, as each pair of sides lies
      in one hom-set;
    - otherwise interchange is checked for a in {(s, id_x) : s in S_base}
      ∪ {(id_m, t) : t in S_carrier} (``FinCat.generators``) against every
      composable b, and the module law on the rows (u, v) of S_base and
      identities with at most one non-identity.  The a that pass are
      closed under composition in M × C, and functors that agree on
      generators agree everywhere (Mac Lane, CWM §II.7).

    On a mismatch the full scan runs, so the witness is the first failing
    cell in the documented scan order.
    """
    aob = dict(act_ob)
    amor = dict(act_mor)
    nb, mb = base.carrier.n_objects, base.carrier.n_morphisms
    nc, mc = carrier.n_objects, carrier.n_morphisms

    for m in range(nb):
        for b in range(nc):
            if (m, b) not in aob:
                raise MissingComposite(
                    f"act_ob missing ({base.obj_name(m)!r}, {carrier.obj_name(b)!r})",
                    witness={"m": base.obj_name(m), "b": carrier.obj_name(b)})

    for b in range(nc):
        if aob[(base.unit, b)] != b:
            raise UnitActionViolation(
                f"unit does not act as identity on {carrier.obj_name(b)!r}",
                witness={"object": carrier.obj_name(b)})
    for m in range(nb):
        for n_ in range(nb):
            for b in range(nc):
                if aob[(m, aob[(n_, b)])] != aob[(base.tensor_ob(m, n_), b)]:
                    raise ModuleLawViolation(
                        "module law fails on objects",
                        witness={"m": base.obj_name(m), "n": base.obj_name(n_),
                                 "b": carrier.obj_name(b)})

    for u in range(mb):
        for h in range(mc):
            if (u, h) not in amor:
                raise MissingComposite(
                    f"act_mor missing ({base.mor_name(u)!r}, {carrier.mor_name(h)!r})",
                    witness={"u": base.mor_name(u), "h": carrier.mor_name(h)})
            uh = amor[(u, h)]
            want_dom = aob[(base.dom(u), carrier.dom(h))]
            want_cod = aob[(base.cod(u), carrier.cod(h))]
            if carrier.dom(uh) != want_dom or carrier.cod(uh) != want_cod:
                raise IllTypedComposite(
                    f"act_mor({base.mor_name(u)!r}, {carrier.mor_name(h)!r}) "
                    "has wrong dom/cod",
                    witness={"u": base.mor_name(u), "h": carrier.mor_name(h)})

    for h in range(mc):
        if amor[(base.id_of(base.unit), h)] != h:
            raise UnitActionViolation(
                f"id of unit does not act as identity on {carrier.mor_name(h)!r}",
                witness={"morphism": carrier.mor_name(h)})

    for m in range(nb):
        for b in range(nc):
            if amor[(base.id_of(m), carrier.id_of(b))] != carrier.id_of(aob[(m, b)]):
                raise BifunctorialityViolation(
                    "action of identities is not the identity",
                    witness={"m": base.obj_name(m), "b": carrier.obj_name(b)})

    # Interchange over (u, u') x (h, h') composable pairs, then the module
    # law on morphisms over (u, v, h), each compared one row at a time (per
    # base pair, over a list of carrier cells at once).  Over a thin carrier
    # both hold by typing; otherwise the generator rows decide, and only a
    # failing module pays for the full scan that names the first failing
    # cell.  The typing check above makes every composite looked up exist.
    B = base.carrier
    if not carrier.thin:
        act = [[amor[(u, h)] for h in range(mc)] for u in range(mb)]
        S_base = set(B.generators())
        ids = {B.id_of(m) for m in range(nb)}

        def interchange_rows(carr_pairs):
            """holds(u, up): the interchange row of (u, up) over carr_pairs."""
            hs = [h for h, _ in carr_pairs]
            hps = [hp for _, hp in carr_pairs]
            h_hps = carrier.compose_all(hs, hps)

            def holds(u, up):
                lhs = list(map(act[B.compose(u, up)].__getitem__, h_hps))
                return lhs == carrier.compose_all(map(act[u].__getitem__, hs),
                                                  map(act[up].__getitem__, hps))
            return holds

        base_pairs = list(B.composable_pairs())
        after_ids = interchange_rows(
            [(carrier.id_of(carrier.cod(hp)), hp) for hp in range(mc)])
        after_gens = interchange_rows(
            [(t, hp) for t in carrier.generators() for x in range(nc)
             for hp in carrier.hom(x, carrier.dom(t))])
        if not (all(after_ids(u, up) for u, up in base_pairs if u in S_base)
                and all(after_gens(u, up) for u, up in base_pairs if u in ids)):
            carr_pairs = list(carrier.composable_pairs())
            full = interchange_rows(carr_pairs)
            u, up = next((u, up) for u, up in base_pairs if not full(u, up))
            for h, hp in carr_pairs:
                if (amor[(B.compose(u, up), carrier.compose(h, hp))]
                        != carrier.compose(amor[(u, h)], amor[(up, hp)])):
                    raise BifunctorialityViolation(
                        "interchange law fails for the action",
                        witness={"u": base.mor_name(u), "u'": base.mor_name(up),
                                 "h": carrier.mor_name(h), "h'": carrier.mor_name(hp)})

        def module_row(u, v):
            return list(map(act[u].__getitem__, act[v])) == act[base.tensor_mor(u, v)]

        gens = S_base | ids
        if not all(module_row(u, v) for u in gens for v in gens
                   if u in ids or v in ids):
            u, v = next((u, v) for u in range(mb) for v in range(mb)
                        if not module_row(u, v))
            for h in range(mc):
                if amor[(u, amor[(v, h)])] != amor[(base.tensor_mor(u, v), h)]:
                    raise ModuleLawViolation(
                        "module law fails on morphisms",
                        witness={"u": base.mor_name(u), "v": base.mor_name(v),
                                 "h": carrier.mor_name(h)})

    return TableModule(base, carrier, aob, amor, name=name)


def check_module_probes(mod, max_card=3):
    """Probe validation for modules over the finite-sets base."""
    from . import finset

    obs = mod.base.probe_objects(max_card)
    checked = 0
    for m in obs:
        for b in obs:
            if mod.act_ob(mod.base.unit, b) != b:
                raise UnitActionViolation("unit probe fails", witness={})
            for n_ in obs:
                if mod.act_ob(m, mod.act_ob(n_, b)) != mod.act_ob(mod.base.tensor_ob(m, n_), b):
                    raise ModuleLawViolation("object probe fails", witness={})
                checked += 1
    mors = []
    for a in obs[:3]:
        for b in obs[:3]:
            mors.extend(itertools.islice(finset.all_maps(a, b), 4))
    for u in mors:
        for v in mors:
            for h in mors[:6]:
                lhs = mod.act_mor(u, mod.act_mor(v, h))
                rhs = mod.act_mor(mod.base.tensor_mor(u, v), h)
                if lhs != rhs:
                    raise ModuleLawViolation("morphism probe fails", witness={})
                checked += 1
    return checked


def hom_object(mod, x, y):
    """First representing object (declaration order) for m -> Hom(m⊗x, y).

    Returns (h, universal map act(h, x) -> y) or None.  Universality means
    composition with the universal map bijects Hom_base(m, h) with
    Hom_carrier(act(m, x), y) for every base object m.
    """
    found = hom_object_all(mod, x, y)
    return found[0] if found else None


def hom_object_all(mod, x, y):
    """All representing objects with one universal map each."""
    base = mod.base
    out = []
    for h in base.objects():
        for u in mod.hom(mod.act_ob(h, x), y):
            if _is_universal(mod, x, y, h, u):
                out.append((h, u))
                break
    return out


def _is_universal(mod, x, y, h, u):
    base = mod.base
    id_x = mod.id_of(x)
    for m in base.objects():
        lhs = list(base.hom(m, h))
        images = [mod.compose(u, mod.act_mor(t, id_x)) for t in lhs]
        target = list(mod.hom(mod.act_ob(m, x), y))
        if len(set(images)) != len(images) or sorted(images) != sorted(target):
            return False
    return True


def check_hom_object_naturality(mod, x, y, h, u):
    """Naturality of the representing bijection in m, over every base morphism.

    This holds automatically from bifunctoriality of the action; the check
    exists to catch broken action tables.
    """
    base = mod.base
    id_x = mod.id_of(x)
    for v in base.morphisms():
        m, mp = base.dom(v), base.cod(v)
        for t in base.hom(mp, h):
            lhs = mod.compose(u, mod.act_mor(base.compose(t, v), id_x))
            rhs = mod.compose(mod.compose(u, mod.act_mor(t, id_x)),
                              mod.act_mor(v, id_x))
            if lhs != rhs:
                return False
    return True
