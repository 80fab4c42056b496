"""The weight side of the colimit checks, built once per enriched category,
and the null pairs that the colimit layer discharges.

The full presentation over every pair (x, y) is kept here as the reference
that the pruned one must reproduce."""

import dataclasses
import gc
import itertools
import weakref
from collections import Counter

import pytest

from enrichkit import wcolim
from enrichkit.caps import DEFAULT_CAPS
from enrichkit.corpus import CorpusSampler, terminal_weight
from enrichkit.enriched import mcat_from_fincat, opposite_mcat
from enrichkit.fincat import chain_cat, discrete_cat, loop_cat, parallel_pair, walking_arrow
from enrichkit.mfunctor import validate_mfun_et
from enrichkit.presheaf import tensor_presheaf, validate_presheaf, yoneda_presheaf
from enrichkit.wcolim import (
    FinSetModule,
    PresheafModule,
    canonical_presentation,
    check_equivalence,
    ext,
    hom_diagram,
    res,
    structure_presheaf_mor,
    weighted_colimit,
)


def run_checks(A, W, F):
    """Two check_equivalence and two canonical_presentation calls."""
    return [check_equivalence([(A, F, [W])]), canonical_presentation(W),
            check_equivalence([(A, F, [W])]), canonical_presentation(W)]


def rebuilt(A2, W, F):
    """W and F over a structurally equal category A2."""
    return (validate_presheaf(A2, W.values, W.action),
            validate_mfun_et(A2, FinSetModule(), F.ob_map, F.phi))


def structure_key(A, x, y):
    """(source, target, components) of the structure map hom(x,y) ⊗ Y(x) ->
    Y(y), built here without the colimit layer."""
    return (tensor_presheaf(A.hom(x, y), yoneda_presheaf(A, x)), yoneda_presheaf(A, y),
            tuple(A.comp(w, x, y) for w in range(A.n_objects)))


def same_value(a, b):
    """Equality of kept values; a presheaf module is compared by its category."""
    if isinstance(a, PresheafModule):
        return isinstance(b, PresheafModule) and a.mcat == b.mcat
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(same_value, a, b))
    return a == b


def test_weight_side_is_built_and_checked_once_per_category(monkeypatch):
    A = mcat_from_fincat(chain_cat(3))
    sampler = CorpusSampler(5)
    W, F = sampler.random_presheaf(A), sampler.random_diagram(A)
    checked = Counter()
    validated = Counter()
    check_presheaf_mor = wcolim.check_presheaf_mor
    validate = wcolim.validate_mfun_et

    def counting_check(f, g, comps):
        checked[(f, g, comps)] += 1
        return check_presheaf_mor(f, g, comps)

    def counting_validate(*args, name="", **kwargs):
        validated[name] += 1
        return validate(*args, name=name, **kwargs)

    monkeypatch.setattr(wcolim, "check_presheaf_mor", counting_check)
    monkeypatch.setattr(wcolim, "validate_mfun_et", counting_validate)
    reports = run_checks(A, W, F)
    monkeypatch.undo()

    assert reports[0] == reports[2] and reports[1] == reports[3]
    assert reports[0].passed and reports[1].passed
    # every presheaf morphism the layer builds is self-checked once; the
    # structure maps are exactly those over the support
    assert set(checked.values()) == {1}
    pairs = list(itertools.product(range(3), repeat=2))
    assert [xy for xy in pairs if structure_key(A, *xy) in checked] == list(A.support)
    assert len(A.support) < len(pairs)
    assert validated == {"hom(0,-)": 1, "hom(1,-)": 1, "hom(2,-)": 1, "Res": 2}
    for x, y in A.support:
        assert structure_presheaf_mor(A, x, y) is structure_presheaf_mor(A, x, y)
    for w in range(3):
        assert hom_diagram(A, w) is hom_diagram(A, w)
        assert structure_presheaf_mor(A, w, w).target is A.derived(yoneda_presheaf, w)

    # a structurally equal category keeps its own values and gives the same
    # reports
    for A2 in (mcat_from_fincat(chain_cat(3)), opposite_mcat(opposite_mcat(A))):
        assert A2 == A and A2 is not A
        assert run_checks(A2, *rebuilt(A2, W, F)) == reports
        assert A2.derived(yoneda_presheaf, 0) is not A.derived(yoneda_presheaf, 0)

    # nothing kept was changed by its users: each value equals a fresh build
    fresh = mcat_from_fincat(chain_cat(3))
    kept = A._derived
    assert {build for build, *_ in kept} == {
        wcolim._hom_diagram, wcolim._structure_mor, wcolim._weight_samples, yoneda_presheaf}
    for (build, *args), value in kept.items():
        assert same_value(value, build(fresh, *args)), build

    # the values die with their category: no reference is kept elsewhere
    ref = weakref.ref(A)
    del A, W, F, kept, value, checked, reports, sampler
    gc.collect()
    assert ref() is None


def test_weight_samples_are_kept_per_caps():
    A = mcat_from_fincat(walking_arrow())
    big = dataclasses.replace(DEFAULT_CAPS, max_card=2 * DEFAULT_CAPS.max_card)
    first = A.derived(wcolim._weight_samples, DEFAULT_CAPS)
    assert A.derived(wcolim._weight_samples, DEFAULT_CAPS) is first
    assert A.derived(wcolim._weight_samples, big) is not first
    assert hom_diagram(A, 0, big) is not hom_diagram(A, 0)


# --- the null pairs against the full presentation ----------------------------

def full_weighted_colimit(W, F, B):
    """(apex, legs, d0, d1, proj) of the presentation summed over every pair
    (x, y), a null hom included."""
    A = F.source
    base = A.base
    n = A.n_objects
    S, injs = B.coproduct([B.act_ob(W.values[x], F.ob_map[x]) for x in range(n)])
    parts, left, right = [], [], []
    for x, y in itertools.product(range(n), repeat=2):
        parts.append(B.act_ob(base.tensor_ob(W.values[y], A.hom(x, y)), F.ob_map[x]))
        left.append(B.compose(injs[x], B.act_mor(W.action[(x, y)], B.id_of(F.ob_map[x]))))
        right.append(B.compose(injs[y], B.act_mor(base.id_of(W.values[y]), F.phi[(x, y)])))
    d0 = B.copair(parts, left, S)
    d1 = B.copair(parts, right, S)
    Z, proj = B.coequalizer(d0, d1)
    return Z, tuple(B.compose(proj, i) for i in injs), d0, d1, proj


def full_res_phi(G):
    """res(G)'s actions through the tensor comparison at every pair, a null
    hom included."""
    A = G.diagram.source
    B = G.module
    phi = {}
    for x, y in itertools.product(range(A.n_objects), repeat=2):
        m, Y = A.hom(x, y), yoneda_presheaf(A, x)
        cmp = G.tensor_comparison(m, Y, tensor_presheaf(m, Y))
        c = wcolim._presheaf_mor(*structure_key(A, x, y))
        phi[(x, y)] = B.compose(G.on_mor(c), B.inverse(cmp))
    return phi


def yoneda_diagram(A):
    """The Yoneda embedding as a diagram into the presheaf module."""
    PM = PresheafModule(A)
    xs = range(A.n_objects)
    return validate_mfun_et(A, PM, [yoneda_presheaf(A, x) for x in xs],
                            {(x, y): wcolim._presheaf_mor(*structure_key(A, x, y))
                             for x in xs for y in xs})


NAMED = {"arrow": walking_arrow, "parallel": parallel_pair, "chain3": lambda: chain_cat(3),
         "chain4": lambda: chain_cat(4), "chain5": lambda: chain_cat(5),
         "discrete2": lambda: discrete_cat(["d0", "d1"]), "loop3": lambda: loop_cat(3)}
CASES = [(name, 0) for name in NAMED] + [("random", seed) for seed in range(40)]


@pytest.mark.parametrize("name, seed", CASES)
def test_discharged_pairs_give_the_full_presentation(name, seed):
    sampler = CorpusSampler(seed)
    A = mcat_from_fincat(sampler.random_fincat() if name == "random" else NAMED[name]())
    if name == "loop3":
        assert len(A.support) == A.n_objects ** 2
    weights = [terminal_weight(A), sampler.random_presheaf(A)]
    diagrams = [sampler.random_diagram(A), hom_diagram(A, 0)]
    if A.n_objects <= 3:
        diagrams.append(yoneda_diagram(A))
    for F in diagrams:
        B = F.target
        G = ext(F)
        for W in weights:
            wc = weighted_colimit(W, F, B)
            w = wc.witness
            apex, legs, full_d0, full_d1, proj = full_weighted_colimit(W, F, B)
            assert (wc.apex, wc.cocone.legs, w.proj) == (apex, legs, proj)
            # the generator relations generate every relation (rule C)
            assert B.compose(w.proj, full_d0) == B.compose(w.proj, full_d1)
            assert len(w.relation_parts) == len(A.generator_pairs())
        assert res(G).phi == full_res_phi(G)


# the distinct pairs (hom(x, y), x) over the support: chain4 has 10 pairs
# and 4 of them, the parallel pair 3 and 3, loop3 1 and 1
@pytest.mark.parametrize("name, comparisons", [("chain4", 4), ("parallel", 3), ("loop3", 1)])
def test_res_builds_each_tensor_comparison_once(name, comparisons, monkeypatch):
    # res asks for the comparison of (hom(x, y), Y(x)) once per y; Ext keeps
    # it per (m, W), so it is mediated once per distinct pair
    A = mcat_from_fincat(NAMED[name]())
    F = CorpusSampler(1).random_diagram(A)
    G = ext(F)
    mediated = []
    mediate = wcolim.mediate

    def counting(*args):
        mediated.append(args[0])
        return mediate(*args)

    monkeypatch.setattr(wcolim, "mediate", counting)
    phi = res(G).phi
    monkeypatch.undo()
    keys = {(A.hom(x, y), x) for x, y in A.support}
    # one mediator per structure map (Ext.on_mor) and one per comparison
    assert len(keys) == comparisons
    assert len(mediated) == len(A.support) + comparisons
    assert set(G._comparisons) == {(m, yoneda_presheaf(A, x)) for m, x in keys}
    fresh = ext(F)
    for (m, W), u in G._comparisons.items():
        assert u == fresh.tensor_comparison(m, W, tensor_presheaf(m, W))
    assert phi == full_res_phi(fresh)
