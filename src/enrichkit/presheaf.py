"""Presheaves valued in the base, their enumeration, and the Yoneda checks.

A presheaf is stored in unfolded form: values f(x) in the base plus action
maps f(y) ⊗ hom(x,y) -> f(x) using the base's own tensor.  The translation
to a functor out of the opposite enriched category over the opposite base
is a dictionary the tests check (``presheaf_to_mfun_et`` in
``tests/instances.py``), not the storage format: the unfolded form is what
the Yoneda maps and the colimit layer consume, and keeping it primary
avoids double-op bookkeeping, which is the main foot-gun of the subject.

The laws are not restated here.  The unfolded form is a contravariant
family of action maps into the base acting on itself from the right,
act(m, a) = a ⊗ m (``tensored.RightTensorModule``).  Its slot types, unit
and compatibility laws, morphism square and enumeration loop are the ones
``mfunctor`` states for functors, read with the ends of each slot swapped.

Over a finite base the whole presheaf category is enumerated, returned as a
validated FinCat together with its left-tensoring, on which the Yoneda
lemma and full faithfulness are checked as representability: F(x)
represents m -> Hom(m ⊗ Y(x), F) with F's action as the universal map
(``tensored.represents``).  Over the finite-sets base presheaves stay
structured values (see the colimit layer).
"""

from dataclasses import dataclass

from .caps import Caps, DEFAULT_CAPS
from .errors import (
    CompatibilityViolation,
    InternalError,
    SizeBound,
    UnitActionViolation,
)
from .enriched import MCat
from .mfunctor import (
    MFunET,
    action_families,
    action_laws,
    action_slots,
    action_square_laws,
    generator_laws,
    generator_squares,
    validate_mfun_et,
)
from .search import check_family, mor_failures
from .tensored import RightTensorModule, hom_object_all, represents, validate_module
from .fincat import family_category


class Presheaf:
    """values: base object per source object; action: {(x, y): base morphism
    values[y] ⊗ hom(x,y) -> values[x]}.  Construct via validate_presheaf.

    Equality is structural, the source included, so presheaves built on
    equal but distinct source objects are interchangeable."""

    def __init__(self, source: MCat, values, action):
        self.source = source
        self.values = tuple(values)
        self.action = dict(action)
        self._key = (source, self.values, tuple(sorted(self.action.items())))
        self._hash = hash(self._key)

    def __eq__(self, other):
        if not isinstance(other, Presheaf):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Presheaf({self.values!r})"


@dataclass(frozen=True)
class PresheafMor:
    source: Presheaf
    target: Presheaf
    components: tuple


def validate_presheaf(source: MCat, values, action) -> Presheaf:
    """Typing, the unit action, and the compatibility law for all triples."""
    values = tuple(values)
    action = dict(action)
    target = RightTensorModule(source.base)
    unit, compat = action_laws(source, target, values, True)
    check_family(target, action_slots(source, target, values, True), action, (
        (UnitActionViolation, "presheaf unit action is not the identity", unit),
        (CompatibilityViolation, "presheaf compatibility fails", compat)),
        source.cell_names, generator_laws(source, target, values, True, unit, compat))
    return Presheaf(source, values, action)


def check_presheaf_mor(f: Presheaf, g: Presheaf, components):
    """Witness list for the morphism square; empty means valid."""
    laws = presheaf_square_laws(f, g)
    return mor_failures(f.source, f.source.base, f.values, g.values, laws, components,
                        generator_squares(f.source, laws))


def presheaf_square_laws(f: Presheaf, g: Presheaf):
    """The morphism square g(x,y) ∘ (t_y ⊗ id) = t_x ∘ f(x,y) per (x, y):
    ``action_square_laws`` read contravariantly."""
    square_laws = action_square_laws(f.source, RightTensorModule(f.source.base), True)
    return square_laws(f.action, g.action)


def tensor_presheaf(m, f: Presheaf) -> Presheaf:
    """m ⊗ f: values tensored on the left, actions tensored with id_m.

    Strict associativity of the base makes the new actions well typed.
    """
    base = f.source.base
    values = tuple(base.tensor_ob(m, v) for v in f.values)
    action = {k: base.tensor_mor(base.id_of(m), a) for k, a in f.action.items()}
    return Presheaf(f.source, values, action)


def yoneda_presheaf(source: MCat, z) -> Presheaf:
    """Y(z): values hom(-, z), actions given by composition."""
    n = source.n_objects
    values = tuple(source.hom(w, z) for w in range(n))
    action = {(x, y): source.comp(x, y, z) for x in range(n) for y in range(n)}
    return Presheaf(source, values, action)


# --- the enumerated presheaf category over a finite base --------------------

class PresheafCategory:
    """Complete enumeration of P_M(A): presheaves in lexicographic order of
    (value assignment, action choices), all morphisms, a validated FinCat
    presentation, and the left-tensoring by the base.  ``family`` is the
    ``fincat.Family`` of (i, j, components) per morphism index, which also
    looks a morphism up by its components."""

    def __init__(self, source, presheaves, family, fincat):
        self.source = source
        self.presheaves = tuple(presheaves)
        self.morphisms = tuple(PresheafMor(self.presheaves[i], self.presheaves[j], comps)
                               for i, j, comps in family)
        self.fincat = fincat
        self._family = family
        self._index = {p: i for i, p in enumerate(self.presheaves)}
        self._module = None

    def index_of(self, p: Presheaf):
        if p not in self._index:
            raise InternalError("presheaf missing from a complete enumeration")
        return self._index[p]

    def mor_index(self, i, j, components):
        k = self._family.keys.get((i, j, *components))
        if k is None:
            raise InternalError("presheaf morphism missing from a complete enumeration")
        return k

    def as_module(self):
        """The left-tensoring of the enumerated category, as a validated
        finite module over the base: u ⊗ t has the components of t
        tensored through one row of tensor_mor(u, -) per base morphism u."""
        if self._module is None:
            base = self.source.base
            ps = range(len(self.presheaves))
            aob = {(m, i): self.index_of(tensor_presheaf(m, self.presheaves[i]))
                   for m in base.objects() for i in ps}
            amor = {}
            for u in base.morphisms():
                tensor_u = [base.tensor_mor(u, c) for c in base.morphisms()]
                src = [aob[(base.dom(u), i)] for i in ps]
                tgt = [aob[(base.cod(u), j)] for j in ps]
                for k, (i, j, comps) in enumerate(self._family):
                    amor[(u, k)] = self.mor_index(src[i], tgt[j],
                                                  map(tensor_u.__getitem__, comps))
            self._module = validate_module(base, self.fincat, aob, amor,
                                           name=f"P({self.source.name})")
        return self._module


def enumerate_presheaves(source: MCat, caps: Caps = DEFAULT_CAPS) -> PresheafCategory:
    """All presheaves (value maps x action choices passing the laws), all
    morphisms between them, with identities and composition."""
    base = source.base
    if not base.is_finite:
        raise SizeBound("presheaf enumeration needs a finite base")
    target = RightTensorModule(base)
    presheaves = [Presheaf(source, values, action) for values, action, _
                  in action_families(source, target, True, caps, True)]
    square_laws = action_square_laws(source, target, True)
    fincat, family = family_category(
        base.carrier, presheaves, lambda p: p.values,
        lambda f, g: square_laws(f.action, g.action),
        "presheaf-morphism", "F", "p", f"P({source.name})", caps)
    return PresheafCategory(source, presheaves, family, fincat)


def yoneda(pscat: PresheafCategory, caps: Caps = DEFAULT_CAPS) -> MFunET:
    """The Yoneda embedding of A into its enumerated presheaf category,
    revalidated as an enriched-to-tensored functor: its structure map
    hom(x, y) ⊗ Y(x) -> Y(y) is the action of Y(y) at x.
    ``caps`` is accepted because ``bench/workloads.py`` passes it; it is not read."""
    source = pscat.source
    module = pscat.as_module()
    n = source.n_objects
    ob_map = [pscat.index_of(yoneda_presheaf(source, z)) for z in range(n)]
    phi = {(x, y): _action_mor(pscat, module, ob_map, ob_map[y], x)
           for x in range(n) for y in range(n)}
    return validate_mfun_et(source, module, ob_map, phi, name="Yoneda")


def _action_mor(pscat, module, ys, iF, x):
    """The action F(x) ⊗ Y(x) -> F of F, the iF-th presheaf, as a morphism
    of the enumerated category, looked up by its components
    F.action[(z, x)]; it is natural by the compatibility law."""
    F = pscat.presheaves[iF]
    comps = tuple(F.action[(z, x)] for z in range(pscat.source.n_objects))
    return pscat.mor_index(module.act_ob(F.values[x], ys[x]), iF, comps)


# --- Yoneda lemma and full faithfulness -------------------------------------

@dataclass(frozen=True)
class BijectionReport:
    checked: int
    failures: tuple

    @property
    def passed(self):
        return not self.failures


def _backward_map(pscat, x, m, components):
    """alpha~ = (m -> m ⊗ hom(x,x) -> F(x)), the proof's inverse."""
    source = pscat.source
    base = source.base
    return base.compose(components[x],
                        base.tensor_mor(base.id_of(m), source.unit(x)))


def check_yoneda_lemma(pscat: PresheafCategory) -> BijectionReport:
    """For every presheaf F, object x and base object m, verify that
    alpha -> F-action ∘ (alpha ⊗ id) bijects Hom(m, F(x)) with
    Hom(m ⊗ Y(x), F) (``tensored.represents``, with F's action as the
    universal map) and that the proof's explicit inverse undoes it.  That
    round trip reads the components of each image, so the module's action
    is checked against the base's own arithmetic; the other round trip
    follows, as a left inverse of a bijection is two-sided.  Failures
    falsify the implementation, not the lemma."""
    source = pscat.source
    base = source.base
    checked = 0
    failures = []
    ys = [pscat.index_of(yoneda_presheaf(source, x)) for x in range(source.n_objects)]
    module = pscat.as_module()
    for iF, F in enumerate(pscat.presheaves):
        for x in range(source.n_objects):
            u = _action_mor(pscat, module, ys, iF, x)
            for m in base.objects():
                checked += 1
                kind, images = represents(module, ys[x], iF, F.values[x], u, m)
                if kind is None and any(
                        _backward_map(pscat, x, m, pscat.morphisms[k].components) != a
                        for a, k in zip(base.hom(m, F.values[x]), images)):
                    kind = "round-trip-forward"
                if kind:
                    failures.append({"F": f"F{iF}", "x": source.obj_name(x),
                                     "m": base.obj_name(m), "kind": kind})
    return BijectionReport(checked, tuple(failures))


@dataclass(frozen=True)
class FullyFaithfulReport:
    checked: int
    failures: tuple
    hom_objects: tuple  # (x, y, found, exact, present, isomorphic)

    @property
    def passed(self):
        return (not self.failures
                and all(rec[3] or rec[5] for rec in self.hom_objects)
                and all(rec[4] for rec in self.hom_objects))


def check_fully_faithful(pscat: PresheafCategory,
                         caps: Caps = DEFAULT_CAPS) -> FullyFaithfulReport:
    """The Yoneda bijection with F = Y(y) for all (m, x, y), that is,
    hom(x, y) represents m -> Hom(m ⊗ Y(x), Y(y)) with Y's structure map as
    the universal map (``tensored.represents``), plus recovery of hom(x, y)
    by the representing-object search on the enumerated presheaf category.
    ``caps`` is accepted because ``bench/workloads.py`` passes it; it is not read."""
    source = pscat.source
    base = source.base
    checked = 0
    failures = []
    hom_records = []
    ys = [pscat.index_of(yoneda_presheaf(source, x)) for x in range(source.n_objects)]
    module = pscat.as_module()

    for x in range(source.n_objects):
        for y in range(source.n_objects):
            expected = source.hom(x, y)
            u = _action_mor(pscat, module, ys, ys[y], x)
            for m in base.objects():
                checked += 1
                kind = represents(module, ys[x], ys[y], expected, u, m)[0]
                if kind:
                    failures.append({"x": source.obj_name(x), "y": source.obj_name(y),
                                     "m": base.obj_name(m), "kind": kind})
            hs = [h for h, _ in hom_object_all(module, ys[x], ys[y])]
            found = hs[0] if hs else None
            exact = found == expected
            present = expected in hs
            isomorphic = exact or (found is not None and _objects_isomorphic(
                base, found, expected))
            hom_records.append((source.obj_name(x), source.obj_name(y),
                                None if found is None else base.obj_name(found),
                                exact, present, isomorphic))
    return FullyFaithfulReport(checked, tuple(failures), tuple(hom_records))


def _objects_isomorphic(base, a, b):
    return any(base.is_iso(f) for f in base.hom(a, b))
