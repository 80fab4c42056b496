"""Weighted colimits in a cocomplete left-tensored category, and Ext/Res.

A weighted colimit is computed by its coproduct-and-coequalizer
presentation (Kelly 1982, §3.3-3.4): the relation object sums
act(W(y) ⊗ hom(x,y), F(x)) over the pairs of ``A.support``, mapped into the
sum of act(W(x), F(x)) by the weight-action side and the diagram-action
side.  A pair with a null hom is left out: a tensor or action by a null
object is initial (``is_null``; the tensor preserves colimits, Kelly 1982,
§1.2), so its summand has no element and adds nothing to either map.  For
the same reason ``res`` gives such a pair the map out of the initial
object instead of going through the tensor comparison.

Over a pointwise base (rule C, ``enriched.MCat``) the sum runs over the
generator pairs only, the pairs whose hom meets the generators S.  An
element h = s∘h' with s in S relates (W(h)(w), a) to (w, F(h)(a)) through
(W(s)(w), F(h')(a)), by the relation of h' and then that of s, and an
identity relates an element to itself; so the generator relations
generate the same equivalence as all of them, and the canonical
coequalizer, the apex, the legs and every mediator are the same.  W and F
must satisfy their laws, as validated values do.  The relation object is
smaller, so under a ``max_card`` between its size and the full one's the
colimit is now built where the full presentation raised ``Overflow``.  By
the same induction ``canonical_presentation`` checks naturality at the
points of S, and at every point only on a failure (its docstring gives
the argument).

``Ext`` memoizes what it builds: the colimit per weight, the map per weight
morphism (``on_mor``) and the tensor comparison per (m, W), which ``res``
asks for once per y in the support of x.

What the checks build from A alone, whatever the diagram, is built once
per ``MCat`` and kept on it (``MCat.derived``): the Yoneda presheaves, the
structure maps hom(x,y) ⊗ Y(x) -> Y(y) over the support, each self-checked
once when built, the hom diagrams hom(w, -) per caps, and the presheaf
module of ``check_equivalence`` with its sampled weights.  ``res``,
``round_trip_components``, ``canonical_presentation`` and
``check_equivalence`` read them there, so repeated checks over one category
share them, and they die with the category.

The generic functions use only two interfaces.  A base provides the
category operations bound from its carrier (``id_of``, ``compose``,
``dom``, ``cod``, ``hom``, ``is_iso``, ``obj_name``, ``mor_name``) plus
``unit``, ``tensor_ob`` and ``tensor_mor``.  A cocomplete target provides
the same category operations and its ``base``, and adds
``act_ob``/``act_mor``, ``coproduct``, ``copair``, ``coequalizer``,
``factor``, ``inverse`` (of a map ``is_iso`` accepts) and
``jointly_surjective(maps, target)``, which asks whether the maps are
jointly epimorphic: in finite sets that is joint surjectivity, and in
presheaves it holds pointwise.  There is one finite-set target, finite sets
acting on themselves; the presheaf module over an ingested finite category
is its pointwise lift.  Coequalizers are canonical (union-find, minimal
representatives), so identical inputs produce identical tables.

Colimit-preserving functors out of a presheaf category exist only in the
intensional normal form ``Ext(F)``: a value evaluable on weights, weight
morphisms and tensors.  ``res`` recovers the generating functor, and
``check_equivalence`` tests the round trips and colimit preservation that
make the pair an equivalence at desk scale.
"""

import random
from dataclasses import dataclass

from . import enriched, finset
from .caps import Caps, DEFAULT_CAPS
from .enriched import MCat
from .errors import InternalError, ShapeMismatch
from .finset import SkMap, SkSet
from .mfunctor import MFunET, check_mfun_mor, validate_mfun_et
from .monoidal import finset_product_monoidal
from .presheaf import (
    Presheaf,
    PresheafMor,
    check_presheaf_mor,
    tensor_presheaf,
    validate_presheaf,
    yoneda_presheaf,
)
from .tensored import TensorModule


class FinSetModule(TensorModule):
    """Skeletal finite sets acting on themselves by product, with the
    colimit calculus the weighted-colimit machinery needs."""

    def __init__(self, caps: Caps = DEFAULT_CAPS):
        super().__init__(finset_product_monoidal(caps))
        self.caps = caps

    def coproduct(self, objs):
        total = finset.coproduct(objs, self.caps)
        injs = [finset.injection(objs, k, self.caps) for k in range(len(objs))]
        return total, injs

    def copair(self, objs, maps, cod):
        if not objs and not maps:
            return finset.initial_map(cod)
        h = finset.copair(objs, maps, self.caps)
        if h.cod != cod:
            raise ShapeMismatch("copair: maps do not land in cod")
        return h

    def coequalizer(self, f, g):
        return finset.coequalizer(f, g)

    def factor(self, proj, h):
        return finset.factor_through_coequalizer(proj, h)

    def inverse(self, h):
        return finset.inverse(h)

    def jointly_surjective(self, maps, target):
        covered = set()
        for m in maps:
            covered.update(m.table)
        return len(covered) == target.card


class PresheafModule:
    """P of an ingested finite category, left-tensored over finite sets:
    the pointwise lift of the finite-set target ``sets``, which computes
    every component.  It adds the induced actions and the revalidation of
    what it builds.  Each coproduct is built once and kept by its summands."""

    thin = False

    def __init__(self, mcat: MCat, caps: Caps = DEFAULT_CAPS):
        self.sets = FinSetModule(caps)
        if mcat.base != self.sets.base:
            raise ShapeMismatch("presheaf module needs the finite-sets base")
        self.mcat = mcat
        self.base = mcat.base
        self.name = f"P({mcat.name})"
        self._coproducts = {}

    # -- carrier-style operations
    def id_of(self, p: Presheaf):
        return PresheafMor(p, p, tuple(map(self.sets.id_of, p.values)))

    def compose(self, g: PresheafMor, f: PresheafMor):
        if f.target != g.source:
            raise ShapeMismatch("presheaf morphisms are not composable")
        return PresheafMor(f.source, g.target,
                           tuple(map(self.sets.compose, g.components, f.components)))

    def dom(self, t):
        return t.source

    def cod(self, t):
        return t.target

    def is_iso(self, t):
        return all(map(self.sets.is_iso, t.components))

    def inverse(self, t):
        return PresheafMor(t.target, t.source, tuple(map(self.sets.inverse, t.components)))

    def obj_name(self, p):
        return f"({','.join(str(v.card) for v in p.values)})"

    def mor_name(self, t):
        return "presheaf-mor"

    # -- tensoring
    def act_ob(self, m, p):
        return tensor_presheaf(m, p)

    def act_mor(self, u: SkMap, t: PresheafMor):
        return PresheafMor(self.act_ob(u.dom, t.source),
                           self.act_ob(u.cod, t.target),
                           tuple(self.sets.act_mor(u, c) for c in t.components))

    # -- pointwise colimits
    def coproduct(self, objs):
        objs = tuple(objs)
        if objs in self._coproducts:
            return self._coproducts[objs]
        A = self.mcat
        n = A.n_objects
        sums = [self.sets.coproduct([p.values[x] for p in objs]) for x in range(n)]
        # (Σ P_i(y)) × hom(x,y) is Σ (P_i(y) × hom(x,y)) in summand order on
        # the pair encoding, so the action is the coproduct of the actions.
        action = {(x, y): finset.coproduct_map([p.action[(x, y)] for p in objs],
                                               self.sets.caps)
                  for x in range(n) for y in range(n)}
        total = validate_presheaf(A, [v for v, _ in sums], action)
        injs = tuple(_presheaf_mor(p, total, tuple(ins[i] for _, ins in sums))
                     for i, p in enumerate(objs))
        self._coproducts[objs] = total, injs
        return self._coproducts[objs]

    def copair(self, objs, maps, cod):
        comps = tuple(self.sets.copair([p.values[x] for p in objs],
                                       [m.components[x] for m in maps], cod.values[x])
                      for x in range(self.mcat.n_objects))
        return _presheaf_mor(self.coproduct(objs)[0], cod, comps)

    def coequalizer(self, f: PresheafMor, g: PresheafMor):
        A = self.mcat
        n = A.n_objects
        G = f.target
        projs = tuple(self.sets.coequalizer(f.components[x], g.components[x])[1]
                      for x in range(n))
        # × hom(x,y) preserves the coequalizer, and factor picks the minimal
        # representative of each class, as the canonical coequalizer does.
        action = {}
        for x in range(n):
            for y in range(n):
                u = self.sets.factor(
                    self.sets.act_mor(projs[y], self.sets.id_of(A.hom(x, y))),
                    self.sets.compose(projs[x], G.action[(x, y)]))
                if u is None:
                    raise InternalError("coequalizer action not well defined")
                action[(x, y)] = u
        Q = validate_presheaf(A, [p.cod for p in projs], action)
        return Q, _presheaf_mor(G, Q, projs)

    def factor(self, proj: PresheafMor, h: PresheafMor):
        comps = []
        for pc, hc in zip(proj.components, h.components):
            u = self.sets.factor(pc, hc)
            if u is None:
                return None
            comps.append(u)
        return _presheaf_mor(proj.target, h.target, tuple(comps))

    def jointly_surjective(self, maps, target):
        return all(self.sets.jointly_surjective([m.components[x] for m in maps],
                                                target.values[x])
                   for x in range(self.mcat.n_objects))


def _presheaf_mor(src, tgt, comps):
    """The presheaf morphism src -> tgt with components comps, once the
    self-check has found that they form one."""
    if check_presheaf_mor(src, tgt, comps):
        raise InternalError("constructed family is not a presheaf morphism")
    return PresheafMor(src, tgt, comps)


# --- weighted colimits -------------------------------------------------------

@dataclass(frozen=True)
class WCocone:
    weight: Presheaf
    diagram: MFunET
    apex: object
    legs: tuple


@dataclass(frozen=True)
class PresentationWitness:
    """The presentation of a weighted colimit: the summands act(W(x), F(x))
    with their injections, the relation parts act(W(y) ⊗ hom(x,y), F(x))
    per pair (x, y) of ``A.support`` (a null pair adds an initial summand
    and is left out; over a pointwise base only the generator pairs of
    ``A.generator_pairs`` are kept, rule C), the two maps out of their sum,
    and the projection onto the coequalizer, which is the full relation's."""
    summands: tuple
    injections: tuple
    relation_parts: tuple
    left_map: object
    right_map: object
    proj: object


@dataclass(frozen=True)
class WColimit:
    cocone: WCocone
    witness: PresentationWitness

    @property
    def apex(self):
        return self.cocone.apex


def weighted_colimit(W: Presheaf, F: MFunET, B=None) -> WColimit:
    """colim_W(F) via coequalizer( Σ act(W(y)⊗hom(x,y), F(x)) ⇉ Σ act(W(x), F(x)) ),
    the two maps being the weight-action side and the diagram-action side."""
    if B is None:
        B = F.target
    A = F.source
    if W.source != A:
        raise ShapeMismatch("weight and diagram live over different categories")
    n = A.n_objects
    base = A.base

    summands = [B.act_ob(W.values[x], F.ob_map[x]) for x in range(n)]
    S, injs = B.coproduct(summands)

    # a pair with a null hom gives an initial summand (``is_null``): it adds
    # no element to the relation object and nothing to d0 or d1; over a
    # pointwise base the generator pairs generate the same relation (rule C)
    gens = A.generator_pairs()
    pairs = A.support if gens is None else [xy for xy in A.support if xy in gens]
    rel_parts = []
    left_legs = []
    right_legs = []
    for x, y in pairs:
        whom = base.tensor_ob(W.values[y], A.hom(x, y))
        rel_parts.append(B.act_ob(whom, F.ob_map[x]))
        # weight side: act(W.action, id) then include at x
        left_legs.append(B.compose(injs[x],
                                   B.act_mor(W.action[(x, y)], B.id_of(F.ob_map[x]))))
        # diagram side: act(id_{W(y)}, phi) then include at y
        right_legs.append(B.compose(injs[y],
                                    B.act_mor(base.id_of(W.values[y]), F.phi[(x, y)])))
    d0 = B.copair(rel_parts, left_legs, S)
    d1 = B.copair(rel_parts, right_legs, S)
    Z, proj = B.coequalizer(d0, d1)
    legs = tuple(B.compose(proj, injs[x]) for x in range(n))
    cocone = WCocone(W, F, Z, legs)
    witness = PresentationWitness(tuple(summands), tuple(injs), tuple(rel_parts),
                                  d0, d1, proj)
    return WColimit(cocone, witness)


def mediate(wc: WColimit, probe_legs, probe_apex, B):
    """The unique map from the colimit commuting with the legs, or None
    when the probe legs do not form a cocone."""
    w = wc.witness
    h = B.copair(w.summands, list(probe_legs), probe_apex)
    if B.compose(h, w.left_map) != B.compose(h, w.right_map):
        return None
    u = B.factor(w.proj, h)
    if u is None:
        raise InternalError("coequalizing map failed to factor")
    return u


@dataclass(frozen=True)
class UniversalReport:
    probes: int
    failures: tuple
    jointly_surjective: bool

    @property
    def passed(self):
        return not self.failures and self.jointly_surjective


def check_universal(wc: WColimit, probes, B=None) -> UniversalReport:
    """Each probe cocone must factor through exactly one mediator.  The legs
    being jointly epimorphic (``jointly_surjective``: jointly surjective in
    finite sets, pointwise in presheaves) makes it unique whenever it exists."""
    if B is None:
        B = wc.cocone.diagram.target
    failures = []
    count = 0
    for probe in probes:
        count += 1
        u = mediate(wc, probe.legs, probe.apex, B)
        if u is None:
            failures.append({"probe": count, "kind": "no-mediator"})
            continue
        for x, leg in enumerate(wc.cocone.legs):
            if B.compose(u, leg) != probe.legs[x]:
                failures.append({"probe": count, "kind": "leg-mismatch", "x": x})
                break
    surj = B.jointly_surjective(wc.cocone.legs, wc.apex)
    return UniversalReport(count, tuple(failures), surj)


def sample_probes(wc: WColimit, rng: random.Random, count, B=None):
    """Probe cocones obtained by post-composing the colimit legs with
    random maps out of the apex (finite-sets targets only)."""
    if B is None:
        B = wc.cocone.diagram.target
    Z = wc.apex
    out = [WCocone(wc.cocone.weight, wc.cocone.diagram, Z, wc.cocone.legs)]
    collapse = SkMap(Z, SkSet(1), tuple(0 for _ in range(Z.card)))
    out.append(WCocone(wc.cocone.weight, wc.cocone.diagram, collapse.cod,
                       tuple(B.compose(collapse, leg) for leg in wc.cocone.legs)))
    while len(out) < count:
        t = SkSet(rng.randrange(1, 5))
        g = SkMap(Z, t, tuple(rng.randrange(t.card) for _ in range(Z.card)))
        out.append(WCocone(wc.cocone.weight, wc.cocone.diagram, t,
                           tuple(B.compose(g, leg) for leg in wc.cocone.legs)))
    return out[:count]


# --- canonical presentation ---------------------------------------------------

def hom_diagram(A: MCat, w, caps: Caps = DEFAULT_CAPS) -> MFunET:
    """The covariant hom functor x -> hom(w, x) into finite sets, validated
    once per ``A`` and caps (``MCat.derived``)."""
    return A.derived(_hom_diagram, w, caps)


def _hom_diagram(A: MCat, w, caps: Caps) -> MFunET:
    B = FinSetModule(caps)
    n = A.n_objects
    ob_map = tuple(A.hom(w, x) for x in range(n))
    phi = {(x, y): A.comp(w, x, y) for x in range(n) for y in range(n)}
    return validate_mfun_et(A, B, ob_map, phi, name=f"hom({A.obj_name(w)},-)")


def _restrict(base, action, left, pt):
    """action ∘ (id_left ⊗ pt): a map out of left ⊗ r restricted along a
    point pt: 1 -> r of its right argument."""
    return base.compose(action, base.tensor_mor(base.id_of(left), pt))


@dataclass(frozen=True)
class PresentationReport:
    points: int
    failures: tuple

    @property
    def passed(self):
        return not self.failures


def canonical_presentation(F: Presheaf, caps: Caps = DEFAULT_CAPS) -> PresentationReport:
    """Verify F = colim_F(Y) pointwise: at each object w, the weighted
    colimit of x -> hom(w, x) with weight F is naturally isomorphic to F(w),
    via the mediator of the canonical cocone built from F's own actions.

    Naturality at a point u of hom(w', w) compares Z(u) and F(u), where
    r_u is restriction along u, g -> g∘u, Z(u) the map colim_w -> colim_w'
    it induces and F(u) F's action at u.  Over a ``pointwise`` base
    (rule C) it is checked at the points u in S first
    (``enriched._generating_elements``, read once per category), and at
    every point, in order, on any failure, so the failures are the full
    scan's.  S suffices, by induction on the word of u:

    - for u = s∘f, r_u = r_f∘r_s;
    - Z(u) = Z(f)∘Z(s), because both mediate the same cocone and mediators
      are unique (the legs are jointly surjective);
    - F(u) = F(f)∘F(s) for a validated F;
    - so naturality at s and at f gives it at u, and at an identity point
      both Z and F are identities, where it holds trivially."""
    A = F.source
    base = A.base
    B = FinSetModule(caps)
    n = A.n_objects
    failures = []
    colimits = []
    comparisons = []
    for w in range(n):
        G = hom_diagram(A, w, caps)
        wc = weighted_colimit(F, G, B)
        legs = tuple(F.action[(w, x)] for x in range(n))
        beta = mediate(wc, legs, F.values[w], B)
        colimits.append(wc)
        comparisons.append(beta)
        if beta is None or not B.is_iso(beta):
            failures.append({"w": A.obj_name(w), "kind": "not-bijective"})
    if failures:
        return PresentationReport(n, tuple(failures))

    ids = [base.id_of(v) for v in F.values]

    def points(wp, w):
        # the points of hom(w', w) in order, so a point's index is its u
        return base.hom(base.unit, A.hom(wp, w))

    def natural(w, wp, pt):
        # restriction along the point on the colimit side and on F
        zmap = _induced(colimits[w], colimits[wp], ids,
                        [_restrict(base, A.comp(wp, w, x), A.hom(w, x), pt)
                         for x in range(n)], B)
        fmap = _restrict(base, F.action[(wp, w)], F.values[w], pt)
        return B.compose(comparisons[wp], zmap) == B.compose(fmap, comparisons[w])

    if base.pointwise and all(natural(w, wp, points(wp, w)[u])
                              for wp, w, u in enriched._generating_elements(A)):
        return PresentationReport(n, ())
    for w in range(n):
        for wp in range(n):
            for u, pt in enumerate(points(wp, w)):
                if not natural(w, wp, pt):
                    failures.append({"w": A.obj_name(w), "w'": A.obj_name(wp),
                                     "u": u, "kind": "naturality"})
    return PresentationReport(n, tuple(failures))


# --- Ext / Res ----------------------------------------------------------------

class Ext:
    """The intensional colimit-preserving functor W -> colim_W(F).

    Evaluation is memoized per weight, which together with uniqueness of
    mediators makes the action on weight morphisms functorial on the nose.
    """

    def __init__(self, diagram: MFunET, module=None):
        self.diagram = diagram
        self.module = module if module is not None else diagram.target
        self._colimits = {}
        self._mors = {}
        self._comparisons = {}

    def colimit(self, W: Presheaf) -> WColimit:
        if W not in self._colimits:
            self._colimits[W] = weighted_colimit(W, self.diagram, self.module)
        return self._colimits[W]

    def apex(self, W: Presheaf):
        return self.colimit(W).apex

    def on_mor(self, t: PresheafMor):
        """The mediating morphism Ext(F)(t): colim_{src} -> colim_{tgt}."""
        if t not in self._mors:
            B = self.module
            u = _induced(self.colimit(t.source), self.colimit(t.target),
                         t.components, [B.id_of(v) for v in self.diagram.ob_map], B)
            if u is None:
                raise InternalError("weight morphism did not induce a cocone")
            self._mors[t] = u
        return self._mors[t]

    def tensor_comparison(self, m, W: Presheaf):
        """The canonical map colim_{m⊗W}(F) -> act(m, colim_W(F)); an
        isomorphism because the tensor preserves colimits in each argument."""
        return self._tensor_comparison(m, W, tensor_presheaf(m, W))

    def _tensor_comparison(self, m, W: Presheaf, mW: Presheaf):
        """``tensor_comparison`` with m ⊗ W given, memoized per (m, W)."""
        if (m, W) not in self._comparisons:
            B = self.module
            F = self.diagram
            src = self.colimit(mW)
            base_wc = self.colimit(W)
            legs = tuple(B.act_mor(F.source.base.id_of(m), base_wc.cocone.legs[x])
                         for x in range(F.source.n_objects))
            u = mediate(src, legs, B.act_ob(m, base_wc.apex), B)
            if u is None:
                raise InternalError("tensor comparison cocone failed")
            self._comparisons[(m, W)] = u
        return self._comparisons[(m, W)]


def ext(F: MFunET, module=None) -> Ext:
    return Ext(F, module)


def structure_presheaf_mor(A: MCat, x, y) -> PresheafMor:
    """The canonical map hom(x,y) ⊗ Y(x) -> Y(y) with components given by
    composition, built and self-checked once per ``A`` (``MCat.derived``)."""
    return A.derived(_structure_mor, x, y)


def _structure_mor(A: MCat, x, y) -> PresheafMor:
    m, yx = A.hom(x, y), A.derived(yoneda_presheaf, x)
    # the base is strict, so unit ⊗ Y(x) is Y(x) itself
    src = yx if m == A.base.unit else tensor_presheaf(m, yx)
    return _presheaf_mor(src, A.derived(yoneda_presheaf, y),
                         tuple(A.comp(w, x, y) for w in range(A.n_objects)))


def res(G: Ext) -> MFunET:
    """Restriction along the Yoneda embedding: ob_map x -> G(Y(x)), actions
    from G applied to the structure maps, through the tensor comparison.
    Over a pair with a null hom the action is out of act(hom(x,y), G(Y(x))),
    which is initial (``is_null``), so it is the map out of the empty sum."""
    A = G.diagram.source
    B = G.module
    n = A.n_objects
    ys = [A.derived(yoneda_presheaf, x) for x in range(n)]
    ob_map = tuple(G.apex(yx) for yx in ys)
    phi = {}
    for x in range(n):
        for y in range(n):
            if y not in A.succ[x]:
                phi[(x, y)] = B.copair([], [], ob_map[y])
                continue
            # hom(x,y) ⊗ Y(x) is both the structure map's source and the
            # weight whose colimit the tensor comparison starts from
            c = structure_presheaf_mor(A, x, y)
            cmp = G._tensor_comparison(A.hom(x, y), ys[x], c.source)
            if not B.is_iso(cmp):
                raise InternalError("tensor comparison is not invertible")
            phi[(x, y)] = B.compose(G.on_mor(c), B.inverse(cmp))
    return validate_mfun_et(A, B, ob_map, phi, name="Res")


def round_trip_components(F: MFunET, G: Ext = None):
    """Mediators colim_{Y(x)}(F) -> F(x) assembled from the canonical
    cocones; the co-Yoneda witnesses for res(ext(F)) ≅ F."""
    if G is None:
        G = ext(F)
    A = F.source
    B = G.module
    comps = []
    for x in range(A.n_objects):
        wc = G.colimit(A.derived(yoneda_presheaf, x))
        legs = tuple(F.phi[(z, x)] for z in range(A.n_objects))
        mu = mediate(wc, legs, F.ob_map[x], B)
        if mu is None:
            raise InternalError("co-Yoneda cocone failed to mediate")
        comps.append(mu)
    return tuple(comps)


@dataclass(frozen=True)
class EquivalenceReport:
    instances: int
    checks: int
    failures: tuple

    @property
    def passed(self):
        return not self.failures


def check_round_trip(F: MFunET, G: Ext = None):
    """res(G) ≅ F via an explicit invertible functor morphism, for G the
    given ``ext(F)`` (built when none is given); returns (res(G), the
    witnesses, failures)."""
    if G is None:
        G = ext(F)
    B = G.module
    Fp = res(G)
    mu = round_trip_components(F, G)
    failures = []
    for x, c in enumerate(mu):
        if not B.is_iso(c):
            failures.append({"x": F.source.obj_name(x), "kind": "not-iso"})
    if not failures:
        fails = check_mfun_mor(Fp, F, mu)
        failures.extend({"kind": "square", **f} for f in fails)
        inv = tuple(B.inverse(c) for c in mu)
        fails = check_mfun_mor(F, Fp, inv)
        failures.extend({"kind": "inverse-square", **f} for f in fails)
    return Fp, mu, failures


def check_equivalence(entries, caps: Caps = DEFAULT_CAPS) -> EquivalenceReport:
    """Theorem-level properties on a corpus of (A, F, weights):

    (i) res∘ext ≅ id via explicit invertible morphisms;
    (ii) ext(res(ext F)) agrees with ext F on sampled weights, including
         non-representable ones, naturally in the weight;
    (iii) ext F preserves coproducts and coequalizers of weights computed
         pointwise in the presheaf category.
    """
    entries = list(entries)
    checks = 0
    failures = []
    for A, F, weights in entries:
        G = ext(F)
        B = G.module
        Fp, mu, fails = check_round_trip(F, G)
        checks += 1
        failures.extend(fails)
        Gp = ext(Fp, B)
        PM, pair, quotient = A.derived(_weight_samples, caps)

        # assemble sampled weights: given ones, plus coproducts of
        # representables and quotient weights
        sampled = list(weights)
        sample_mors = []
        if pair:
            co, injs = pair
            sampled.append(co)
            sample_mors.extend(injs)
        if quotient:
            injs2, Q, q = quotient
            sampled.append(Q)
            sample_mors.append(q)

        for W in sampled:
            checks += 1
            cmp = _comparison(G, Gp, mu, W, B)
            if cmp is None or not B.is_iso(cmp):
                failures.append({"kind": "ext-res-not-iso", "W": PM.obj_name(W)})
        for t in sample_mors:
            checks += 1
            lhs = B.compose(_comparison(G, Gp, mu, t.target, B), Gp.on_mor(t))
            rhs = B.compose(G.on_mor(t), _comparison(G, Gp, mu, t.source, B))
            if lhs != rhs:
                failures.append({"kind": "ext-res-not-natural"})

        # (iii) preservation of the sampled coproduct and coequalizer
        if pair:
            apexes = [G.apex(i.source) for i in injs]
            can = B.copair(apexes, [G.on_mor(i) for i in injs], G.apex(co))
            checks += 1
            if not B.is_iso(can):
                failures.append({"kind": "coproduct-not-preserved"})
        if quotient:
            _, p = B.coequalizer(G.on_mor(injs2[0]), G.on_mor(injs2[1]))
            med = B.factor(p, G.on_mor(q))
            checks += 1
            if med is None or not B.is_iso(med):
                failures.append({"kind": "coequalizer-not-preserved"})
    return EquivalenceReport(len(entries), checks, tuple(failures))


def _weight_samples(A: MCat, caps: Caps):
    """check_equivalence's presheaf module over A with its sampled weights:
    (module, (Y(0)+Y(1), its injections) or None, (the injections of
    Y(0)+Y(0), their coequalizer Q, the quotient map) or None)."""
    PM = PresheafModule(A, caps)
    ys = [A.derived(yoneda_presheaf, x) for x in range(min(A.n_objects, 2))]
    pair = PM.coproduct(ys) if len(ys) == 2 else None
    quotient = None
    if ys:
        _, injs2 = PM.coproduct([ys[0], ys[0]])
        quotient = (injs2, *PM.coequalizer(*injs2))
    return PM, pair, quotient


def _comparison(G: Ext, Gp: Ext, mu, W: Presheaf, B):
    """colim_W(res ext F) -> colim_W(F) induced by the round-trip witnesses."""
    return _induced(Gp.colimit(W), G.colimit(W),
                    [W.source.base.id_of(v) for v in W.values], mu, B)


def _induced(src: WColimit, tgt: WColimit, t, mu, B):
    """The map src -> tgt between colimits induced by the legs
    tgt.leg_x ∘ act(t_x, mu_x), or None when they form no cocone."""
    legs = tuple(B.compose(leg, B.act_mor(tx, mx))
                 for leg, tx, mx in zip(tgt.cocone.legs, t, mu))
    return mediate(src, legs, tgt.apex, B)
