"""The seeded sampler's draws against the materialise-and-shuffle reference.

The reference builds every candidate map of a slot as a list, shuffles that
list and takes the first lawful assignment with the compatibility laws
before the unit laws.  The sampler shuffles an index order over a lazy
hom-set and searches the unit laws first.  Both must give the same draw and
leave the rng in the same state.
"""

import random
from functools import cache

from enrichkit import finset
from enrichkit.corpus import MAX_CARD, CorpusSampler, terminal_weight
from enrichkit.enriched import mcat_from_fincat
from enrichkit.fincat import (
    chain_cat,
    discrete_cat,
    loop_cat,
    parallel_pair,
    terminal_cat,
    walking_arrow,
)
from enrichkit.finset import SkSet
from enrichkit.mfunctor import mfun_et_laws, mfun_et_slots
from enrichkit.presheaf import presheaf_laws, presheaf_slots
from enrichkit.search import backtrack
from enrichkit.wcolim import FinSetModule

SHAPES = [terminal_cat(), walking_arrow(), parallel_pair(), chain_cat(3),
          discrete_cat(["d0", "d1"]), loop_cat(2), loop_cat(3)]


@cache
def all_maps(dom, cod):
    return tuple(finset.all_maps(dom, cod))


def reference_draw(rng, A, problem):
    """(values, actions) or None, as the sampler drew before its candidates
    became lazy: problem(values) = (slots, (compat, unit))."""
    for _ in range(64):
        values = [SkSet(rng.randrange(1, MAX_CARD + 1)) for _ in range(A.n_objects)]
        slots, (compat, unit) = problem(values)
        cands = {slot: list(all_maps(dom, cod)) for slot, (dom, cod) in slots}
        for maps in cands.values():
            rng.shuffle(maps)
        actions = next(backtrack(cands, compat + unit), None)
        if actions is not None:
            return tuple(values), actions
    return None


def test_random_fincat_draws_only_the_listed_shapes():
    sampler = CorpusSampler(0)
    drawn = {sampler.random_fincat().name for _ in range(200)}
    assert drawn == {C.name for C in SHAPES}


def test_draws_match_the_materialised_reference():
    B = FinSetModule()
    for C in SHAPES:
        A = mcat_from_fincat(C)

        def presheaf_problem(values):
            unit, compat = presheaf_laws(A, values)
            return presheaf_slots(A, values), (compat, unit)

        def diagram_problem(values):
            return mfun_et_slots(A, B, values), mfun_et_laws(A, B, values)

        for seed in range(30):
            sampler = CorpusSampler(seed)
            rng = random.Random(seed)

            W = sampler.random_presheaf(A)
            ref = reference_draw(rng, A, presheaf_problem)
            if ref is None:
                assert W == terminal_weight(A)
            else:
                assert (W.values, W.action) == ref, (C.name, seed)
            assert sampler.rng.getstate() == rng.getstate()

            F = sampler.random_diagram(A)
            ref = reference_draw(rng, A, diagram_problem)
            if ref is None:
                assert F.name == "terminal-diagram"
            else:
                assert (F.ob_map, F.phi) == ref, (C.name, seed)
            assert sampler.rng.getstate() == rng.getstate()
