"""The seeded random corpus and the terminal family.

The shipped instances are the spec files (README "Shipped corpus"), which
the installed package does not read.  Two instances are built here: discrete
C3, one of the bases the sampler draws, and the identity/swap diagram that
the colimit demos read (``swap_instance``).

Random bases and enriched categories are rejection sampled from uniformly
drawn type-correct tables.  A random presheaf or diagram needs a category
enriched in finite sets under the product (a ``pointwise`` base): an
ordinary category with rule C's generating set S (``enriched.MCat``).  A
functor out of it is determined by the images of S (Mac Lane, CWM §II.7-8;
Kelly 1982, §1.2), so a draw shuffles the index order of each image's lazy
hom-set (``finset.Maps``) and extends the first lawful tuple of images by
composition.  An accepted draw is lawful because rule C's slice of the laws
of a family of action maps holds (``mfunctor.generator_laws``), and the
validator runs again on the result.  The terminal weight and the terminal
diagram are the family with every value a point (``terminal_family``).
Attempts, acceptances and fallbacks are *reported*, never assumed.
"""

import random
from dataclasses import dataclass

from . import enriched, finset
from .caps import Caps, DEFAULT_CAPS
from .enriched import MCat, mcat_from_fincat, mcat_slots, slot_type, validate_mcat
from .errors import ShapeMismatch, ValidationError
from .fincat import (
    chain_cat,
    discrete_cat,
    loop_cat,
    parallel_pair,
    terminal_cat,
    walking_arrow,
)
from .finset import SkMap, SkSet
from .mfunctor import (
    MFunET,
    action_cands,
    action_laws,
    action_slots,
    generator_laws,
    validate_mfun_et,
)
from .monoidal import (
    boolean_monoidal,
    chain_meet_monoidal,
    discrete_monoid_monoidal,
    loop_monoidal,
)
from .presheaf import Presheaf, enumerate_presheaves, validate_presheaf
from .search import all_hold, backtrack
from .tensored import RightTensorModule
from .wcolim import FinSetModule


PRESHEAF_BUDGET = 400  # random enriched categories with more are rejected
MAX_CARD = 3  # random presheaf and diagram values have cards 1..MAX_CARD


def c3_mult():
    elems = ["e", "g", "g2"]
    return {(elems[a], elems[b]): elems[(a + b) % 3] for a in range(3) for b in range(3)}


def c3_monoidal():
    return discrete_monoid_monoidal(["e", "g", "g2"], c3_mult(), "e", name="discrete-C3")


def swap_instance():
    """The parallel-pair category with the identity/swap diagram and the
    terminal weight; its conical colimit has one element."""
    A = mcat_from_fincat(parallel_pair())
    B = FinSetModule()
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
    """The weight with every value a singleton (``terminal_family``)."""
    return validate_presheaf(A, *terminal_family(A, RightTensorModule(A.base), True))


def terminal_family(A: MCat, target, contra):
    """(values, actions) of the family of action maps into ``target`` with
    every value a singleton: each action is the one map into a point.
    Over a table base a singleton is no object, so the base is refused."""
    if A.base.is_finite:
        raise ShapeMismatch(f"the terminal family needs a finite-set base, not {A.base.name!r}")
    values = [SkSet(1)] * A.n_objects
    cands = action_cands(A, target, values, contra)
    return values, {slot: maps[0] for slot, maps in cands.items()}


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
        return [boolean_monoidal, lambda: chain_meet_monoidal(3),
                lambda: loop_monoidal(self.rng.choice([2, 3, 4])),
                lambda: self._random_discrete_monoid(2),
                lambda: self._random_discrete_monoid(3), c3_monoidal][self.rng.randrange(6)]()

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

        Choices are drawn uniformly: the homs (a diagonal one must admit a
        unit), then per slot of ``mcat_slots`` a morphism of its
        ``slot_type`` (a slot with none rejects the attempt); the laws are
        left to the validator.  An enumeration over the caps raises SizeBound.
        """
        unit_ok = [h for h in M.objects() if M.hom(M.unit, h)]
        while True:
            self.mcat_stats.attempts += 1
            n = self.rng.choice([1, 1, 2, 2, 2, 3])
            hom = {(x, x): self.rng.choice(unit_ok) for x in range(n)}
            hom.update({(x, y): self.rng.choice(list(M.objects()))
                        for x in range(n) for y in range(n) if x != y})
            drawn = {}
            for slot in mcat_slots(n):
                cands = M.hom(*slot_type(M, hom, slot))
                if not cands:
                    break
                drawn[slot] = self.rng.choice(cands)
            else:
                unit = {x: drawn.pop(x) for x in range(n)}
                try:
                    A = validate_mcat(M, [f"a{i}" for i in range(n)], hom, unit, drawn,
                                      name="random-mcat")
                except ValidationError:
                    continue
                pscat = enumerate_presheaves(A, self.caps)
                if len(pscat.presheaves) <= PRESHEAF_BUDGET:
                    self.mcat_stats.accepted += 1
                    return A, pscat

    # -- ordinary categories for the colimit layer
    def random_fincat(self):
        return [terminal_cat, walking_arrow, parallel_pair, lambda: chain_cat(3),
                lambda: discrete_cat(["d0", "d1"]), lambda: loop_cat(2),
                lambda: loop_cat(3)][self.rng.randrange(7)]()

    def random_presheaf(self, A: MCat):
        """Random presheaf; the terminal weight when no draw succeeds."""
        found = self._draw(A, RightTensorModule(A.base), True, self.presheaf_stats)
        if found is None:
            return terminal_weight(A)
        return validate_presheaf(A, *found)

    def random_diagram(self, A: MCat) -> MFunET:
        """Random enriched-to-tensored functor into finite sets; when no
        draw succeeds, the terminal diagram (``terminal_family``)."""
        B = FinSetModule(self.caps)
        found = self._draw(A, B, False, self.diagram_stats)
        if found is not None:
            return validate_mfun_et(A, B, *found, name="random-diagram")
        return validate_mfun_et(A, B, *terminal_family(A, B, False),
                                name="terminal-diagram")

    def _draw(self, A, target, contra, stats):
        """Up to 64 attempts: value cards drawn uniformly in 1..MAX_CARD,
        then per generator s: x -> y of S, in its order, the index order of
        its image's hom-set values[x] -> values[y] (reversed for a presheaf)
        shuffled once, and the first tuple of images whose extension passes
        rule C's slice of ``action_laws`` (``generator_laws``); the search
        stops there, so the last family built is the accepted one.  The
        extension sends identities to identities and each s∘f (read from
        ``enriched.element_table``) to F(s)∘F(f), or F(f)∘F(s) for a
        presheaf, at the first word reaching it (a word that disagrees fails
        a generator cell), and fails when S misses an element.  An action map
        is built from its restrictions act(p, id) to the points p of its hom.
        Returns (values, actions), or None after counting a fallback."""
        if not A.base.pointwise:
            raise ShapeMismatch(f"random draws need a pointwise base, not {A.base.name!r}")
        elements, index, ids, after = enriched.element_table(A)
        gens = [elements.index(s) for s in enriched._generating_elements(A)]
        out = [[s for s in gens if elements[s][0] == x] for x in range(A.n_objects)]
        ends = {g: elements[g][1::-1] if contra else elements[g][:2] for g in gens}
        for _ in range(64):
            stats.attempts += 1
            values = [SkSet(self.rng.randrange(1, MAX_CARD + 1))
                      for _ in range(A.n_objects)]
            images = {g: target.hom(*(values[o] for o in ends[g])) for g in gens}
            orders, built = {g: list(range(len(maps))) for g, maps in images.items()}, []
            for order in orders.values():
                self.rng.shuffle(order)
            laws = generator_laws(A, target, values, contra,
                                  *action_laws(A, target, values, contra))

            def extends(choice, _):
                image = {s: images[s][i] for s, i in choice.items()}
                F = [None] * len(elements)
                for x, e in enumerate(ids):
                    F[e] = target.id_of(values[x])
                work = list(ids)
                while work:
                    f = work.pop()
                    for s in out[elements[f][1]]:
                        e = after[s][f]
                        if F[e] is None:
                            F[e] = (target.compose(F[f], image[s]) if contra
                                    else target.compose(image[s], F[f]))
                            work.append(e)
                if None in F:
                    return False
                t = {}
                for slot, (dom, cod) in action_slots(A, target, values, contra):
                    table = [0] * dom.card
                    start = target.id_of(values[slot[1] if contra else slot[0]])
                    for p, e in index.get(slot, {}).items():
                        for i, v in zip(target.act_mor(p, start).table, F[e].table):
                            table[i] = v
                    t[slot] = SkMap(dom, cod, tuple(table))
                built.append(t)
                return all_hold(laws, t)

            if next(backtrack(orders, [(tuple(gens), extends, None)]), None) is not None:
                stats.accepted += 1
                return values, built[-1]
        stats.fallbacks += 1
        return None
