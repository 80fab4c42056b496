"""Left-tensored categories: strict unital modules over a monoidal base.

Unitality is demanded on the nose, so the automatic-unit arguments of the
functor layer are checkable as equalities.  ``represents`` is the one check
that a map act(h, x) -> y is universal at a base object m: the Yoneda lemma,
full faithfulness and ``hom_object_all`` all decide it there.
``hom_object_all`` searches the finite base for the objects representing
m -> Hom(m ⊗ x, y); when the functor is not representable it returns no
object rather than failing.

A left-tensored category is a category through its carrier
(``bind_carrier``) plus its ``base`` and the action ``act_ob``/``act_mor``;
the validators and the functor layer only use these.
"""

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


class RightTensorModule:
    """The base acting on itself from the right, act(m, a) = a ⊗ m: a left
    action of the reversed base (Kelly 1982, §1.2; Janelidze and Kelly,
    TAC 9, 2001).  A presheaf is a contravariant family of action maps
    into it (``mfunctor.action_laws``)."""

    def __init__(self, base):
        self.base = base
        bind_carrier(self, base.carrier)
        tensor_ob, tensor_mor = base.tensor_ob, base.tensor_mor
        self.act_ob = lambda m, a: tensor_ob(a, m)
        self.act_mor = lambda u, h: tensor_mor(h, u)


# Per law of an action: the error it raises, its message (formatted with
# the witness names) and the witness keys.
_MODULE_LAWS = {
    "missing_ob": (MissingComposite, "act_ob missing ({!r}, {!r})", "m b"),
    "unit_ob": (UnitActionViolation, "unit does not act as identity on {!r}", "object"),
    "assoc_ob": (ModuleLawViolation, "module law fails on objects", "m n b"),
    "missing_mor": (MissingComposite, "act_mor missing ({!r}, {!r})", "u h"),
    "typing": (IllTypedComposite, "act_mor({!r}, {!r}) has wrong dom/cod", "u h"),
    "unit_mor": (UnitActionViolation, "id of unit does not act as identity on {!r}",
                 "morphism"),
    "identity": (BifunctorialityViolation, "action of identities is not the identity", "m b"),
    "interchange": (BifunctorialityViolation, "interchange law fails for the action",
                    "u u' h h'"),
    "assoc_mor": (ModuleLawViolation, "module law fails on morphisms", "u v h"),
}


def validate_module(base, carrier: FinCat, act_ob, act_mor, name="") -> TableModule:
    """Exhaustive validation of a finite module (see ``check_action``)."""
    aob = dict(act_ob)
    amor = dict(act_mor)
    check_action(base, carrier, aob, amor, _MODULE_LAWS)
    return TableModule(base, carrier, aob, amor, name=name)


def check_action(base, carrier, aob, amor, laws, two_sided=False):
    """The strict action laws of base on carrier, checked on index tables.

    ``laws`` maps each law to (error class, message, witness keys separated
    by spaces).  With ``two_sided`` the unit must also act from the right,
    a ⊗ I = a, in the same loop as from the left: the base acting on itself
    (carrier = base.carrier, act = ⊗), whose laws are the strict monoidal
    ones.

    Object-level laws are checked before morphism-level typing, so a
    corrupted object cell is diagnosed as the law failure it is rather
    than as collateral typing damage.  Then come the unit action on
    morphisms, the action of identities, interchange and the module law on
    morphisms.  The last two are decided per action, never per cell:

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
    def fail(law, *names):
        error, message, keys = laws[law]
        raise error(message.format(*names), witness=dict(zip(keys.split(), names)))

    nb, mb = base.carrier.n_objects, base.carrier.n_morphisms
    nc, mc = carrier.n_objects, carrier.n_morphisms

    for m in range(nb):
        for b in range(nc):
            if (m, b) not in aob:
                fail("missing_ob", base.obj_name(m), carrier.obj_name(b))

    for b in range(nc):
        if aob[(base.unit, b)] != b or (two_sided and aob[(b, base.unit)] != b):
            fail("unit_ob", carrier.obj_name(b))
    for m in range(nb):
        for n_ in range(nb):
            for b in range(nc):
                if aob[(m, aob[(n_, b)])] != aob[(base.tensor_ob(m, n_), b)]:
                    fail("assoc_ob", base.obj_name(m), base.obj_name(n_),
                         carrier.obj_name(b))

    for u in range(mb):
        for h in range(mc):
            if (u, h) not in amor:
                fail("missing_mor", base.mor_name(u), carrier.mor_name(h))
            uh = amor[(u, h)]
            want_dom = aob[(base.dom(u), carrier.dom(h))]
            want_cod = aob[(base.cod(u), carrier.cod(h))]
            if carrier.dom(uh) != want_dom or carrier.cod(uh) != want_cod:
                fail("typing", base.mor_name(u), carrier.mor_name(h))

    id_unit = base.id_of(base.unit)
    for h in range(mc):
        if amor[(id_unit, h)] != h or (two_sided and amor[(h, id_unit)] != h):
            fail("unit_mor", carrier.mor_name(h))

    for m in range(nb):
        for b in range(nc):
            if amor[(base.id_of(m), carrier.id_of(b))] != carrier.id_of(aob[(m, b)]):
                fail("identity", base.obj_name(m), carrier.obj_name(b))

    # Interchange over (u, u') x (h, h') composable pairs, then the module
    # law on morphisms over (u, v, h), each compared one row at a time (per
    # base pair, over a list of carrier cells at once).  Over a thin carrier
    # both hold by typing; otherwise the generator rows decide, and only a
    # failing action pays for the full scan that names the first failing
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
                    fail("interchange", base.mor_name(u), base.mor_name(up),
                         carrier.mor_name(h), carrier.mor_name(hp))

        def module_row(u, v):
            return list(map(act[u].__getitem__, act[v])) == act[base.tensor_mor(u, v)]

        gens = S_base | ids
        if not all(module_row(u, v) for u in gens for v in gens
                   if u in ids or v in ids):
            u, v = next((u, v) for u in range(mb) for v in range(mb)
                        if not module_row(u, v))
            for h in range(mc):
                if amor[(u, amor[(v, h)])] != amor[(base.tensor_mor(u, v), h)]:
                    fail("assoc_mor", base.mor_name(u), base.mor_name(v),
                         carrier.mor_name(h))


def hom_object_all(mod, x, y):
    """All representing objects for m -> Hom(m⊗x, y), in declaration order,
    with one universal map act(h, x) -> y each: the first u that
    ``represents`` the functor at every base object m."""
    base = mod.base
    out = []
    for h in base.objects():
        for u in mod.hom(mod.act_ob(h, x), y):
            if all(represents(mod, x, y, h, u, m)[0] is None for m in base.objects()):
                out.append((h, u))
                break
    return out


def represents(mod, x, y, h, u, m):
    """Whether composition with u: act(h, x) -> y, t -> u ∘ act(t, id_x),
    bijects Hom_base(m, h) with Hom(act(m, x), y): the failure kind (None,
    "not-injective" or "not-onto") and the images, in the order of
    Hom_base(m, h).

    Over a base that need not be closed, the enriched Yoneda lemma and full
    faithfulness are this statement (Kelly 1982, ch. 1): F(x) represents
    m -> Hom(m ⊗ Y(x), F) with F's action as u, and hom(x, y) the same at
    F = Y(y) (``presheaf.check_yoneda_lemma``, ``check_fully_faithful``).
    """
    id_x = mod.id_of(x)
    images = [mod.compose(u, mod.act_mor(t, id_x)) for t in mod.base.hom(m, h)]
    distinct = set(images)
    if len(distinct) != len(images):
        return "not-injective", images
    if distinct != set(mod.hom(mod.act_ob(m, x), y)):
        return "not-onto", images
    return None, images
