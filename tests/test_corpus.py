"""The seeded sampler's draws against an independent reference.

The reference materialises the maps of each generator image of rule C's
set S as a list, shuffles that list and tries the tuples of images in
lexicographic order.  It extends a tuple by composing in the ordinary
category itself (``FinCat.compose``, read backwards for a presheaf), lays
out each action map's table by hand and decides the tuple with the
brute-force full scans of ``tests/test_fastpaths.py``.  The sampler
shuffles index orders over lazy hom-sets, extends through the base and
accepts on rule C's slice of the laws.  Both must give the same draw and
leave the rng in the same state, over the ``random_fincat`` shapes and
their opposites (finite sets with the tensor flipped).
"""

import itertools
import random
from functools import cache

import pytest

from enrichkit import finset
from enrichkit.corpus import (
    MAX_CARD,
    CorpusSampler,
    SampleStats,
    terminal_weight,
    z2_two_object_mcat,
)
from enrichkit.enriched import _generating_elements, mcat_from_fincat, opposite_mcat
from enrichkit.errors import ShapeMismatch
from enrichkit.fincat import (
    chain_cat,
    discrete_cat,
    loop_cat,
    parallel_pair,
    terminal_cat,
    walking_arrow,
)
from enrichkit.finset import SkMap, SkSet
from enrichkit.wcolim import FinSetModule
from tests.test_fastpaths import brute_mfun_et_failure, brute_presheaf_failure

SHAPES = [terminal_cat(), walking_arrow(), parallel_pair(), chain_cat(3),
          discrete_cat(["d0", "d1"]), loop_cat(2), loop_cat(3)]


@cache
def all_maps(dom, cod):
    return tuple(finset.all_maps(dom, cod))


class Underlying:
    """The ordinary category whose k-th morphism x -> y is the element
    (x, y, k) of A = mcat_from_fincat(C), or of opposite_mcat(A): then C
    read backwards."""

    def __init__(self, C, op):
        self.C, self.op = C, op

    def hom(self, x, y):
        return self.C.hom(y, x) if self.op else self.C.hom(x, y)

    def ends(self, m):
        ends = (self.C.dom(m), self.C.cod(m))
        return ends[::-1] if self.op else ends

    def compose(self, g, f):
        return self.C.compose(f, g) if self.op else self.C.compose(g, f)


def extend(D, values, gens, images, contra):
    """{morphism: map} from the images of the generators, closed under
    s∘f (images composed backwards for a presheaf); None when some
    morphism is not reached."""
    F = {D.C.id_of(x): finset.identity(v) for x, v in enumerate(values)}
    work = list(F)
    while work:
        f = work.pop()
        for s, image in zip(gens, images):
            if D.ends(s)[0] != D.ends(f)[1]:
                continue
            e = D.compose(s, f)
            if e not in F:
                F[e] = finset.compose(F[f], image) if contra else finset.compose(image, F[f])
                work.append(e)
    return F if len(F) == D.C.n_morphisms else None


def action_tables(A, D, values, F, contra):
    """The action maps with F(m) at the points of their homs: for a diagram
    hom(x, y) × values[x] -> values[y] at (k, v); for a presheaf
    values[y] ⊗ hom(x, y) -> values[x] at (v, k), which the flipped tensor
    of an opposite lays out as (k, v)."""
    out = {}
    for x in range(A.n_objects):
        for y in range(A.n_objects):
            ms = D.hom(x, y)
            s, e = (values[y], values[x]) if contra else (values[x], values[y])
            table = [0] * (len(ms) * s.card)
            for k, m in enumerate(ms):
                for v in range(s.card):
                    at = v * len(ms) + k if contra and not A.base.flipped else k * s.card + v
                    table[at] = F[m].table[v]
            out[(x, y)] = SkMap(SkSet(len(table)), e, tuple(table))
    return out


def reference_draw(rng, A, D, contra):
    """(values, actions) or None: up to 64 attempts, each drawing value
    cards, then shuffling a list of every map of each generator's image in
    the order of S and taking the first tuple whose extension passes the
    brute-force scan."""
    gens = [D.hom(x, y)[k] for x, y, k in _generating_elements(A)]
    B = FinSetModule()
    for _ in range(64):
        values = [SkSet(rng.randrange(1, MAX_CARD + 1)) for _ in range(A.n_objects)]
        lists = []
        for s in gens:
            x, y = D.ends(s)
            maps = list(all_maps(*((values[y], values[x]) if contra
                                   else (values[x], values[y]))))
            rng.shuffle(maps)
            lists.append(maps)
        for images in itertools.product(*lists):
            F = extend(D, values, gens, images, contra)
            if F is None:
                continue
            actions = action_tables(A, D, values, F, contra)
            failure = (brute_presheaf_failure(A, values, actions) if contra
                       else brute_mfun_et_failure(A, B, values, actions))
            if failure is None:
                return values, actions
    return None


def test_random_fincat_draws_only_the_listed_shapes():
    sampler = CorpusSampler(0)
    drawn = {sampler.random_fincat().name for _ in range(200)}
    assert drawn == {C.name for C in SHAPES}


def test_draws_match_the_materialised_reference():
    fallbacks = 0
    for C in SHAPES:
        for op in (False, True):
            A = mcat_from_fincat(C)
            A = opposite_mcat(A) if op else A
            D = Underlying(C, op)
            for seed in range(30):
                sampler = CorpusSampler(seed)
                rng = random.Random(seed)

                W = sampler.random_presheaf(A)
                ref = reference_draw(rng, A, D, True)
                if ref is None:
                    fallbacks += 1
                    assert W == terminal_weight(A)
                else:
                    assert (list(W.values), W.action) == ref, (C.name, op, seed)
                assert sampler.rng.getstate() == rng.getstate()
                if op:
                    continue  # a diagram into finite sets needs the unflipped base

                F = sampler.random_diagram(A)
                ref = reference_draw(rng, A, D, False)
                if ref is None:
                    fallbacks += 1
                    assert F.name == "terminal-diagram"
                else:
                    assert (list(F.ob_map), F.phi) == ref, (C.name, seed)
                assert sampler.rng.getstate() == rng.getstate()
    assert fallbacks == 0


@pytest.mark.parametrize("n", [8, 12])
def test_long_chain_draws_accept_at_once_reading_one_map_per_generator(monkeypatch, n):
    A = mcat_from_fincat(chain_cat(n))
    assert len(_generating_elements(A)) == n - 1
    reads = []
    getitem = finset.Maps.__getitem__
    monkeypatch.setattr(finset.Maps, "__getitem__",
                        lambda maps, i: reads.append(i) or getitem(maps, i))
    sampler = CorpusSampler(3)
    sampler.random_presheaf(A)
    assert 0 < len(reads) <= n - 1
    reads.clear()
    sampler.random_diagram(A)
    assert 0 < len(reads) <= n - 1
    assert sampler.presheaf_stats == sampler.diagram_stats == SampleStats(1, 1, 0)


def test_draws_over_a_base_that_is_not_pointwise_raise_one_line():
    A = z2_two_object_mcat()
    for draw in (CorpusSampler(0).random_presheaf, CorpusSampler(0).random_diagram):
        with pytest.raises(ShapeMismatch) as exc:
            draw(A)
        assert str(exc.value) and "\n" not in str(exc.value)
