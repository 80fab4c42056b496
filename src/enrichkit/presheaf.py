"""Presheaves valued in the base, their enumeration, and the Yoneda checks.

A presheaf is stored in unfolded form: values f(x) in the base plus action
maps f(y) ⊗ hom(x,y) -> f(x) using the base's own tensor.  The translation
to a functor out of the opposite enriched category over the opposite base
is a tested dictionary (``presheaf_to_mfun_et``), not the storage format:
the unfolded form is what the Yoneda maps and the colimit layer consume,
and keeping it primary avoids double-op bookkeeping, which is the main
foot-gun of the subject.

The laws are not restated here.  The unfolded form is a contravariant
family of action maps into the base acting on itself from the right,
act(m, a) = a ⊗ m (``tensored.RightTensorModule``).  Its slot types, unit
and compatibility laws, morphism square and enumeration loop are the ones
``mfunctor`` states for functors, read with the ends of each slot swapped.

Over a finite base the whole presheaf category is enumerated, returned as a
validated FinCat together with its left-tensoring.  Over the finite-sets
base presheaves stay structured values (see the colimit layer).
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
from .tensored import RightTensorModule, base_as_module, validate_module
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


def presheaf_laws(source: MCat, values):
    """The presheaf laws as two law tables (unit, compat): ``action_laws``
    read contravariantly."""
    return action_laws(source, RightTensorModule(source.base), values, True)


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

    def mors_between(self, i, j):
        return self.fincat.hom(i, j)

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
    revalidated as an enriched-to-tensored functor.
    ``caps`` is accepted because ``bench/workloads.py`` passes it; it is not read."""
    source = pscat.source
    module = pscat.as_module()
    n = source.n_objects
    ob_map = []
    for z in range(n):
        ob_map.append(pscat.index_of(yoneda_presheaf(source, z)))
    phi = {}
    for x in range(n):
        for y in range(n):
            comps = tuple(source.comp(w, x, y) for w in range(n))
            phi[(x, y)] = pscat.mor_index(
                module.act_ob(source.hom(x, y), ob_map[x]), ob_map[y], comps)
    return validate_mfun_et(source, module, ob_map, phi, name="Yoneda")


# --- Yoneda lemma and full faithfulness -------------------------------------

@dataclass(frozen=True)
class BijectionReport:
    checked: int
    failures: tuple

    @property
    def passed(self):
        return not self.failures


def _forward_map(pscat, F: Presheaf, x, alpha):
    """eq. (F-action) ∘ (alpha ⊗ id): the presheaf map m ⊗ Y(x) -> F
    induced by alpha: m -> F(x), given by its component tuple."""
    source = pscat.source
    base = source.base
    return tuple(
        base.compose(F.action[(z, x)],
                     base.tensor_mor(alpha, base.id_of(source.hom(z, x))))
        for z in range(source.n_objects))


def _backward_map(pscat, x, m, components):
    """alpha~ = (m -> m ⊗ hom(x,x) -> F(x)), the proof's inverse."""
    source = pscat.source
    base = source.base
    return base.compose(components[x],
                        base.tensor_mor(base.id_of(m), source.unit(x)))


def _bijection(pscat, module, ys, iF, x, m):
    """The Yoneda map alpha -> F-action ∘ (alpha ⊗ id) from Hom(m, F(x)) to
    Hom(m ⊗ Y(x), F) for F the iF-th presheaf: (lhs, images, the component
    tuples of the target hom-set, failure kind or None)."""
    F = pscat.presheaves[iF]
    lhs = list(pscat.source.base.hom(m, F.values[x]))
    rhs_comps = {pscat.morphisms[k].components
                 for k in pscat.mors_between(module.act_ob(m, ys[x]), iF)}
    images = [_forward_map(pscat, F, x, a) for a in lhs]
    kind = None
    if len(set(images)) != len(images):
        kind = "not-injective"
    elif set(images) != rhs_comps:
        kind = "not-onto"
    return lhs, images, rhs_comps, kind


def check_yoneda_lemma(pscat: PresheafCategory) -> BijectionReport:
    """For every presheaf F, object x and base object m, verify that
    alpha -> (F-action ∘ (alpha ⊗ id)) bijects Hom(m, F(x)) with
    Hom(m ⊗ Y(x), F), with the proof's explicit inverse, both round trips
    included.  Failures falsify the implementation, not the lemma."""
    source = pscat.source
    base = source.base
    checked = 0
    failures = []
    ys = [pscat.index_of(yoneda_presheaf(source, x)) for x in range(source.n_objects)]
    module = pscat.as_module()
    for iF, F in enumerate(pscat.presheaves):
        for x in range(source.n_objects):
            for m in base.objects():
                checked += 1
                lhs, images, rhs_comps, kind = _bijection(pscat, module, ys, iF, x, m)
                witness = {"F": f"F{iF}", "x": source.obj_name(x),
                           "m": base.obj_name(m)}
                if kind:
                    failures.append({**witness, "kind": kind})
                    continue
                ok = all(_backward_map(pscat, x, m, img) == a
                         for a, img in zip(lhs, images))
                if not ok:
                    failures.append({**witness, "kind": "round-trip-forward"})
                    continue
                ok = all(_forward_map(pscat, F, x, _backward_map(pscat, x, m, comps))
                         == comps for comps in rhs_comps)
                if not ok:
                    failures.append({**witness, "kind": "round-trip-backward"})
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
    """The Yoneda bijection with F = Y(y) for all (m, x, y), plus recovery
    of hom(x, y) by the representing-object search on the enumerated
    presheaf category.
    ``caps`` is accepted because ``bench/workloads.py`` passes it; it is not read."""
    from .tensored import hom_object_all

    source = pscat.source
    base = source.base
    checked = 0
    failures = []
    ys = [pscat.index_of(yoneda_presheaf(source, x)) for x in range(source.n_objects)]
    module = pscat.as_module()

    for x in range(source.n_objects):
        for y in range(source.n_objects):
            for m in base.objects():
                checked += 1
                kind = _bijection(pscat, module, ys, ys[y], x, m)[3]
                if kind:
                    failures.append({"x": source.obj_name(x), "y": source.obj_name(y),
                                     "m": base.obj_name(m), "kind": kind})

    hom_records = []
    for x in range(source.n_objects):
        for y in range(source.n_objects):
            all_reps = hom_object_all(module, ys[x], ys[y])
            hs = [h for h, _ in all_reps]
            found = hs[0] if hs else None
            expected = source.hom(x, y)
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


# --- the op-dictionary -------------------------------------------------------

def presheaf_to_mfun_et(f: Presheaf, source_op: MCat) -> MFunET:
    """A presheaf on A is exactly a functor from A-op (over the opposite
    base) to the base acting on itself through the opposite tensor.

    source_op must be opposite_mcat(f.source); it is passed in so the
    round trip lands on the caller's instances.
    """
    target = base_as_module(source_op.base)
    n = f.source.n_objects
    phi = {(u, v): f.action[(v, u)] for u in range(n) for v in range(n)}
    return validate_mfun_et(source_op, target, f.values, phi)


def mfun_et_to_presheaf(g: MFunET, source: MCat) -> Presheaf:
    """Inverse dictionary; source must be the category g's source is the
    opposite of."""
    n = source.n_objects
    action = {(x, y): g.phi[(y, x)] for x in range(n) for y in range(n)}
    return validate_presheaf(source, g.ob_map, action)
