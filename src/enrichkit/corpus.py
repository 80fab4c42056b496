"""Shipped test instances and the seeded random corpus.

The shipped instances are the ones the acceptance checks name: the Boolean
2-chain, a two-object category enriched in the discrete symmetric group S3
(a genuinely non-symmetric base), a one-object category over discrete C3,
small Z_k one-object bases for mutation tests, and the idempotent-target
instance that separates the compatibility square from the unit-action law.

Random bases and enriched categories are rejection sampled from uniformly
drawn type-correct tables.  Random presheaves and diagrams are drawn by
randomized backtracking over the shared law tables (``presheaf_laws``,
``mfun_et_laws``).  Every emitted structure passes its validator; attempts,
acceptances and fallbacks are *reported*, never assumed.
"""

import random
from dataclasses import dataclass

from . import finset
from .caps import Caps, DEFAULT_CAPS
from .enriched import MCat, mcat_from_fincat, validate_mcat
from .errors import EnrichKitError, SizeBound
from .fincat import (
    chain_cat,
    discrete_cat,
    loop_cat,
    monoid_cat,
    parallel_pair,
    terminal_cat,
    walking_arrow,
)
from .finset import SkMap, SkSet
from .mfunctor import MFunET, mfun_et_cands, mfun_et_laws, validate_mfun_et
from .monoidal import (
    boolean_monoidal,
    chain_meet_monoidal,
    discrete_monoid_monoidal,
    loop_monoidal,
)
from .presheaf import Presheaf, presheaf_cands, presheaf_laws, validate_presheaf
from .search import backtrack
from .tensored import validate_module
from .wcolim import FinSetModule


PRESHEAF_BUDGET = 400  # random enriched categories with more are rejected
MAX_CARD = 3  # random presheaf and diagram values have cards 1..MAX_CARD

S3_ELEMENTS = ["e", "s12", "s13", "s23", "r123", "r132"]
S3_TABLE_ROWS = {
    "e": ["e", "s12", "s13", "s23", "r123", "r132"],
    "s12": ["s12", "e", "r132", "r123", "s23", "s13"],
    "s13": ["s13", "r123", "e", "r132", "s12", "s23"],
    "s23": ["s23", "r132", "r123", "e", "s13", "s12"],
    "r123": ["r123", "s13", "s23", "s12", "r132", "e"],
    "r132": ["r132", "s23", "s12", "s13", "e", "r123"],
}


def s3_mult():
    return {(g, h): S3_TABLE_ROWS[g][S3_ELEMENTS.index(h)]
            for g in S3_ELEMENTS for h in S3_ELEMENTS}


def s3_monoidal():
    return discrete_monoid_monoidal(S3_ELEMENTS, s3_mult(), "e", name="discrete-S3")


def c3_mult():
    elems = ["e", "g", "g2"]
    return {(elems[a], elems[b]): elems[(a + b) % 3] for a in range(3) for b in range(3)}


def c3_monoidal():
    return discrete_monoid_monoidal(["e", "g", "g2"], c3_mult(), "e", name="discrete-C3")


def boolean_chain_mcat():
    """The 2-chain a <= b enriched over the Boolean base."""
    B = boolean_monoidal()
    bc = B.carrier
    one, zero = bc.obj("1"), bc.obj("0")
    hom = {(0, 0): one, (0, 1): one, (1, 1): one, (1, 0): zero}
    unit = {0: bc.mor("id_1"), 1: bc.mor("id_1")}
    names = {(zero, zero): "id_0", (one, one): "id_1", (zero, one): "le01"}
    comp = {}
    for x in range(2):
        for y in range(2):
            for z in range(2):
                d = B.tensor_ob(hom[(y, z)], hom[(x, y)])
                comp[(x, y, z)] = bc.mor(names[(d, hom[(x, z)])])
    return validate_mcat(B, ["a", "b"], hom, unit, comp, name="bool-chain2")


def s3_two_object_mcat(cross="s12"):
    """Two objects with hom(x,y) = hom(y,x) = a transposition, diag = e."""
    M = s3_monoidal()
    mc = M.carrier
    e = mc.obj("e")
    c = mc.obj(cross)
    hom = {(0, 0): e, (1, 1): e, (0, 1): c, (1, 0): c}
    unit = {0: mc.id_of(e), 1: mc.id_of(e)}
    comp = {}
    for x in range(2):
        for y in range(2):
            for z in range(2):
                comp[(x, y, z)] = mc.id_of(M.tensor_ob(hom[(y, z)], hom[(x, y)]))
    return validate_mcat(M, ["x", "y"], hom, unit, comp, name="s3-pair")


def c3_one_object_mcat():
    """One object over discrete C3 with hom = e."""
    M = c3_monoidal()
    mc = M.carrier
    e = mc.obj("e")
    return validate_mcat(M, ["*"], {(0, 0): e}, {0: mc.id_of(e)},
                         {(0, 0, 0): mc.id_of(e)}, name="c3-loop")


def z2_two_object_mcat():
    """Two objects over the one-object Z2 base, all structure maps r0."""
    M = loop_monoidal(2)
    r0 = M.carrier.mor("r0")
    hom = {(x, y): 0 for x in range(2) for y in range(2)}
    unit = {0: r0, 1: r0}
    comp = {(x, y, z): r0 for x in range(2) for y in range(2) for z in range(2)}
    return validate_mcat(M, ["x", "y"], hom, unit, comp, name="z2-pair")


def idempotent_unit_instance():
    """A one-object enriched category over the trivial base, and a module
    whose carrier has a non-identity idempotent endomorphism.

    The compatibility square alone admits the idempotent as an action map;
    only the unit law rules it out.  This is the separating instance for
    the unit-automatism experiment.
    """
    M = loop_monoidal(1)
    A = validate_mcat(M, ["*"], {(0, 0): 0}, {0: 0}, {(0, 0, 0): 0},
                      name="unit-probe")
    idem = monoid_cat(["e", "z"], {("e", "e"): "e", ("e", "z"): "z",
                                   ("z", "e"): "z", ("z", "z"): "z"},
                      name="idempotent")
    act_ob = {(0, 0): 0}
    act_mor = {(0, h): h for h in range(idem.n_morphisms)}
    B = validate_module(M, idem, act_ob, act_mor, name="idempotent-module")
    return A, B


def boolean_on_chain3_module():
    """The Boolean base acting on the 3-chain: act(m, b) = b if m = 1 else 0."""
    M = boolean_monoidal()
    C = chain_cat(3)
    act_ob = {}
    for m in range(2):
        for b in range(3):
            act_ob[(m, b)] = b if m == 1 else 0
    mor_ends = {h: (C.dom(h), C.cod(h)) for h in range(C.n_morphisms)}
    chain_mor = {}
    for h, (d, c) in mor_ends.items():
        chain_mor[(d, c)] = h
    act_mor = {}
    for u in range(M.carrier.n_morphisms):
        for h in range(C.n_morphisms):
            d = act_ob[(M.dom(u), C.dom(h))]
            c = act_ob[(M.cod(u), C.cod(h))]
            act_mor[(u, h)] = chain_mor[(d, c)]
    return validate_module(M, C, act_ob, act_mor, name="bool-on-chain3")


def swap_instance(caps: Caps = DEFAULT_CAPS):
    """The parallel-pair category with the identity/swap diagram and the
    terminal weight; its conical colimit has one element."""
    A = mcat_from_fincat(parallel_pair(), caps)
    B = FinSetModule(caps)
    tw = terminal_weight(A)
    vals = [SkSet(2), SkSet(2)]
    phi = {
        (0, 0): SkMap(finset.product(SkSet(1), SkSet(2)), SkSet(2), (0, 1)),
        (1, 1): SkMap(finset.product(SkSet(1), SkSet(2)), SkSet(2), (0, 1)),
        (0, 1): SkMap(finset.product(SkSet(2), SkSet(2)), SkSet(2), (0, 1, 1, 0)),
        (1, 0): SkMap(finset.product(SkSet(0), SkSet(2)), SkSet(2), ()),
    }
    F = validate_mfun_et(A, B, vals, phi, name="swap-diagram")
    return A, tw, F


def terminal_weight(A: MCat) -> Presheaf:
    """The weight with every value a singleton: each action is the one map
    into a point."""
    values = [SkSet(1)] * A.n_objects
    action = {slot: maps[0] for slot, maps in presheaf_cands(A, values).items()}
    return validate_presheaf(A, values, action)


def shipped_yoneda_corpus():
    """(name, MCat) pairs for the Yoneda acceptance checks."""
    return [
        ("bool-chain2", boolean_chain_mcat()),
        ("s3-pair", s3_two_object_mcat()),
        ("c3-loop", c3_one_object_mcat()),
    ]


# --- random corpus -----------------------------------------------------------

@dataclass
class SampleStats:
    attempts: int = 0
    accepted: int = 0
    fallbacks: int = 0

    @property
    def acceptance_rate(self):
        return self.accepted / self.attempts if self.attempts else 0.0


class CorpusSampler:
    """Seeded generator for bases, enriched categories, presheaves and
    diagrams, all within the desk-scale bounds of the acceptance checks."""

    def __init__(self, seed: int, caps: Caps = DEFAULT_CAPS):
        self.rng = random.Random(seed)
        self.caps = caps
        self.mcat_stats = SampleStats()
        self.presheaf_stats = SampleStats()
        self.diagram_stats = SampleStats()

    # -- monoidal bases
    def random_monoidal(self):
        pick = self.rng.randrange(6)
        if pick == 0:
            return boolean_monoidal()
        if pick == 1:
            return chain_meet_monoidal(3)
        if pick == 2:
            return loop_monoidal(self.rng.choice([2, 3, 4]))
        if pick == 3:
            return self._random_discrete_monoid(2)
        if pick == 4:
            return self._random_discrete_monoid(3)
        return c3_monoidal()

    def _random_discrete_monoid(self, n):
        """Uniform raw tables with forced unit row/column, rejected until
        associative."""
        elems = [f"m{i}" for i in range(n)]
        while True:
            table = {}
            for a in range(n):
                table[(0, a)] = a
                table[(a, 0)] = a
            for a in range(1, n):
                for b in range(1, n):
                    table[(a, b)] = self.rng.randrange(n)
            if all(table[(table[(a, b)], c)] == table[(a, table[(b, c)])]
                   for a in range(n) for b in range(n) for c in range(n)):
                mult = {(elems[a], elems[b]): elems[table[(a, b)]]
                        for a in range(n) for b in range(n)}
                return discrete_monoid_monoidal(elems, mult, elems[0],
                                                name=f"random-monoid{n}")

    # -- enriched categories
    def random_mcat(self, M):
        """Rejection sampling over hom/unit/comp tables; returns the
        accepted MCat together with its presheaf enumeration.

        Choices are drawn uniformly from the type-correct candidates (a
        diagonal hom must admit a unit, a composable pair must admit some
        composition morphism); everything else is left to the validator.
        """
        from .presheaf import enumerate_presheaves

        unit_ok = [h for h in M.objects() if M.hom(M.unit, h)]
        while True:
            self.mcat_stats.attempts += 1
            n = self.rng.choice([1, 1, 2, 2, 2, 3])
            hom = {}
            ok = True
            for x in range(n):
                hom[(x, x)] = self.rng.choice(unit_ok)
            for x in range(n):
                for y in range(n):
                    if x != y:
                        hom[(x, y)] = self.rng.choice(list(M.objects()))
            unit = {}
            for x in range(n):
                cands = M.hom(M.unit, hom[(x, x)])
                unit[x] = self.rng.choice(list(cands))
            comp = {}
            for x in range(n):
                for y in range(n):
                    for z in range(n):
                        cands = M.hom(M.tensor_ob(hom[(y, z)], hom[(x, y)]),
                                      hom[(x, z)])
                        if not cands:
                            ok = False
                            break
                        comp[(x, y, z)] = self.rng.choice(list(cands))
                    if not ok:
                        break
                if not ok:
                    break
            if not ok:
                continue
            try:
                A = validate_mcat(M, [f"a{i}" for i in range(n)], hom, unit, comp,
                                  name="random-mcat")
            except EnrichKitError:
                continue
            try:
                pscat = enumerate_presheaves(A, self.caps)
            except SizeBound:
                continue
            if len(pscat.presheaves) > PRESHEAF_BUDGET:
                continue
            self.mcat_stats.accepted += 1
            return A, pscat

    # -- ordinary categories for the colimit layer
    def random_fincat(self):
        pick = self.rng.randrange(7)
        if pick == 0:
            return terminal_cat()
        if pick == 1:
            return walking_arrow()
        if pick == 2:
            return parallel_pair()
        if pick == 3:
            return chain_cat(3)
        if pick == 4:
            return discrete_cat(["d0", "d1"])
        if pick == 5:
            return loop_cat(2)
        return loop_cat(3)

    def random_presheaf(self, A: MCat):
        """Random presheaf; the terminal weight when no draw succeeds."""
        def problem(values):
            unit, compat = presheaf_laws(A, values)
            return presheaf_cands(A, values), unit + compat

        found = self._draw(A, problem, self.presheaf_stats)
        if found is None:
            return terminal_weight(A)
        return validate_presheaf(A, *found)

    def random_diagram(self, A: MCat) -> MFunET:
        """Random enriched-to-tensored functor into finite sets; when no
        draw succeeds, the terminal diagram (each action the one map into a
        point)."""
        B = FinSetModule(self.caps)

        def problem(vals):
            compat, unit = mfun_et_laws(A, B, vals)
            return mfun_et_cands(A, B, vals), compat + unit

        found = self._draw(A, problem, self.diagram_stats)
        if found is not None:
            return validate_mfun_et(A, B, *found, name="random-diagram")
        vals = [SkSet(1)] * A.n_objects
        phi = {slot: maps[0] for slot, maps in mfun_et_cands(A, B, vals).items()}
        return validate_mfun_et(A, B, vals, phi, name="terminal-diagram")

    def _draw(self, A, problem, stats):
        """Up to 64 attempts: value cards drawn uniformly in 1..MAX_CARD,
        then the first solution of problem(values) = (candidates per slot,
        law table), each slot's candidates shuffled once, in slot order.
        Returns (values, actions), or None after counting a fallback."""
        for _ in range(64):
            stats.attempts += 1
            values = [SkSet(self.rng.randrange(1, MAX_CARD + 1))
                      for _ in range(A.n_objects)]
            cands, laws = problem(values)
            for slot_cands in cands.values():
                self.rng.shuffle(slot_cands)
            actions = next(backtrack(cands, laws), None)
            if actions is not None:
                stats.accepted += 1
                return values, actions
        stats.fallbacks += 1
        return None
