import dis
import inspect
import itertools
import random
import types

import pytest
from hypothesis import given, settings, strategies as st

from enrichkit import finset
from enrichkit.corpus import (
    CorpusSampler,
    swap_instance,
    terminal_weight,
)
from enrichkit.enriched import mcat_from_fincat, opposite_mcat, validate_mcat
from enrichkit.finset import SkMap, SkSet
from enrichkit import wcolim
from enrichkit.errors import InternalError, ShapeMismatch
from enrichkit.fincat import (
    chain_cat,
    loop_cat,
    parallel_pair,
    terminal_cat,
    walking_arrow,
)
from enrichkit.mfunctor import check_mfun_mor, validate_mfun_et
from enrichkit.monoidal import boolean_monoidal
from enrichkit.presheaf import (
    PresheafMor,
    tensor_presheaf,
    validate_presheaf,
    yoneda_presheaf,
)
from enrichkit.wcolim import (
    FinSetModule,
    PresheafModule,
    canonical_presentation,
    check_equivalence,
    check_round_trip,
    check_universal,
    ext,
    mediate,
    res,
    round_trip_components,
    sample_probes,
    weighted_colimit,
)
from instances import boolean_chain_mcat


def arrow_diagram(fa=2, fb=3, table=(0, 2)):
    """A functor from the walking arrow into finite sets."""
    A = mcat_from_fincat(walking_arrow())
    B = FinSetModule()
    vals = [SkSet(fa), SkSet(fb)]
    phi = {
        (0, 0): SkMap(finset.product(SkSet(1), SkSet(fa)), SkSet(fa),
                      tuple(range(fa))),
        (1, 1): SkMap(finset.product(SkSet(1), SkSet(fb)), SkSet(fb),
                      tuple(range(fb))),
        (0, 1): SkMap(finset.product(SkSet(1), SkSet(fa)), SkSet(fb), table),
        (1, 0): SkMap(finset.product(SkSet(0), SkSet(fb)), SkSet(fa), ()),
    }
    return A, validate_mfun_et(A, B, vals, phi), B


def test_trivial_hom_gives_product():
    A = mcat_from_fincat(terminal_cat())
    B = FinSetModule()
    W = validate_presheaf(A, [SkSet(2)],
                          {(0, 0): SkMap(SkSet(2), SkSet(2), (0, 1))})
    F = validate_mfun_et(A, B, [SkSet(3)],
                         {(0, 0): SkMap(SkSet(3), SkSet(3), (0, 1, 2))})
    wc = weighted_colimit(W, F, B)
    assert wc.apex.card == 6
    # the two parallel maps in the presentation coincide
    assert wc.witness.left_map == wc.witness.right_map


def test_swap_example_collapses_to_point():
    # oracle: union-find glues 0~1 in F(q) via identity and swap, and both
    # elements of F(p) map onto that class
    A, W, F = swap_instance()
    wc = weighted_colimit(W, F)
    assert wc.apex.card == 1


def test_identity_probe_mediates_identically():
    A, W, F = swap_instance()
    wc = weighted_colimit(W, F)
    u = mediate(wc, wc.cocone.legs, wc.apex, F.target)
    assert u == finset.identity(wc.apex)


def test_collapse_probe_mediator_is_collapse():
    A, F2, B = arrow_diagram()
    W = terminal_weight(A)
    wc = weighted_colimit(W, F2, B)
    collapse = SkMap(wc.apex, SkSet(1), tuple(0 for _ in range(wc.apex.card)))
    probe = tuple(finset.compose(collapse, leg) for leg in wc.cocone.legs)
    assert mediate(wc, probe, SkSet(1), B) == collapse


def test_random_postcompositions_recovered():
    A, F2, B = arrow_diagram()
    W = yoneda_presheaf(A, 1)
    wc = weighted_colimit(W, F2, B)
    rng = random.Random(3)
    for _ in range(20):
        t = SkSet(rng.randrange(1, 5))
        g = SkMap(wc.apex, t, tuple(rng.randrange(t.card)
                                    for _ in range(wc.apex.card)))
        probe = tuple(finset.compose(g, leg) for leg in wc.cocone.legs)
        assert mediate(wc, probe, t, B) == g


def test_check_universal_reports_zero_failures():
    A, W, F = swap_instance()
    wc = weighted_colimit(W, F)
    rep = check_universal(wc, sample_probes(wc, random.Random(11), 20))
    assert rep.passed and rep.probes == 20


def test_legs_jointly_surjective():
    sampler = CorpusSampler(23)
    for _ in range(10):
        A = mcat_from_fincat(sampler.random_fincat())
        W = sampler.random_presheaf(A)
        F = sampler.random_diagram(A)
        wc = weighted_colimit(W, F)
        assert F.target.jointly_surjective(wc.cocone.legs, wc.apex)


def test_co_yoneda_ext_on_representables():
    A, F2, B = arrow_diagram()
    G = ext(F2)
    for x in range(A.n_objects):
        mu = round_trip_components(F2, G)[x]
        assert finset.is_bijection(mu)
        assert mu.dom == G.apex(yoneda_presheaf(A, x))
        assert mu.cod == F2.ob_map[x]


def test_ext_on_tensor_weights():
    # Ext(F)(m ⊗ Y(x)) ≅ act(m, F(x)) through the canonical comparison
    A, F2, B = arrow_diagram()
    G = ext(F2)
    for x in range(A.n_objects):
        Y = yoneda_presheaf(A, x)
        for card in range(1, 4):
            m = SkSet(card)
            cmp = G.tensor_comparison(m, Y, tensor_presheaf(m, Y))
            assert finset.is_bijection(cmp)
            assert cmp.dom == G.apex(tensor_presheaf(m, Y))
            assert cmp.cod.card == m.card * G.apex(Y).card


def test_ext_identity_mor_is_identity():
    A, F2, B = arrow_diagram()
    G = ext(F2)
    PM = PresheafModule(A)
    W = yoneda_presheaf(A, 0)
    ident = PM.id_of(W)
    assert G.on_mor(ident) == finset.identity(G.apex(W))


def test_ext_functorial_on_composable_mors():
    A, F2, B = arrow_diagram()
    PM = PresheafModule(A)
    G = ext(F2)
    ys = [yoneda_presheaf(A, x) for x in range(2)]
    _, injs2 = PM.coproduct([ys[0], ys[0]])
    Q, q = PM.coequalizer(injs2[0], injs2[1])
    comp = PM.compose(q, injs2[0])
    assert G.on_mor(comp) == finset.compose(G.on_mor(q), G.on_mor(injs2[0]))


def _diagram_map(W, src_wc, tgt_wc, comps, B):
    legs = tuple(
        finset.compose(tgt_wc.cocone.legs[x],
                       B.act_mor(finset.identity(W.values[x]), comps[x]))
        for x in range(len(comps)))
    return mediate(src_wc, legs, tgt_wc.apex, B)


def test_wcolim_functorial_in_diagram():
    # morphisms of diagrams induce mediators that compose correctly,
    # including a non-identity component family
    A, F2, B = arrow_diagram(2, 3, (0, 2))
    W = terminal_weight(A)
    wc2 = weighted_colimit(W, F2, B)
    ident = tuple(finset.identity(F2.ob_map[x]) for x in range(A.n_objects))
    assert _diagram_map(W, wc2, wc2, ident, B) == finset.identity(wc2.apex)
    # t: F2 -> F2 with t_a = id, t_b collapsing the unreached element 1
    comps = (finset.identity(SkSet(2)), SkMap(SkSet(3), SkSet(3), (0, 0, 2)))
    assert check_mfun_mor(F2, F2, comps) == []
    u = _diagram_map(W, wc2, wc2, comps, B)
    uu = finset.compose(u, u)
    double = tuple(finset.compose(c, c) for c in comps)
    assert check_mfun_mor(F2, F2, double) == []
    assert uu == _diagram_map(W, wc2, wc2, double, B)


def test_canonical_presentation_terminal():
    A = mcat_from_fincat(terminal_cat())
    F = validate_presheaf(A, [SkSet(3)],
                          {(0, 0): SkMap(SkSet(3), SkSet(3), (0, 1, 2))})
    assert canonical_presentation(F).passed


def test_canonical_presentation_representable_on_arrow():
    A = mcat_from_fincat(walking_arrow())
    F = yoneda_presheaf(A, 1)
    assert tuple(v.card for v in F.values) == (1, 1)
    assert canonical_presentation(F).passed


def test_canonical_presentation_random():
    sampler = CorpusSampler(29)
    for _ in range(20):
        A = mcat_from_fincat(sampler.random_fincat())
        F = sampler.random_presheaf(A)
        rep = canonical_presentation(F)
        assert rep.passed, (A.name, [v.card for v in F.values], rep.failures)


def test_res_ext_round_trip():
    A, F2, B = arrow_diagram()
    Fp, mu, fails = check_round_trip(F2)
    assert fails == []
    assert all(finset.is_bijection(c) for c in mu)


def test_res_of_ext_of_yoneda_is_yoneda():
    # B = the pointwise presheaf module; the Yoneda embedding lands there
    # and res(ext(Y)) must be isomorphic to Y itself
    A = mcat_from_fincat(walking_arrow())
    PM = PresheafModule(A)
    n = A.n_objects
    ob_map = tuple(yoneda_presheaf(A, x) for x in range(n))
    phi = {}
    for x in range(n):
        for y in range(n):
            from enrichkit.wcolim import structure_presheaf_mor
            phi[(x, y)] = structure_presheaf_mor(A, x, y)
    Y = validate_mfun_et(A, PM, ob_map, phi, name="Yoneda-pointwise")
    G = ext(Y, PM)
    Yp = res(G)
    mu = round_trip_components(Y, G)
    assert all(PM.is_iso(c) for c in mu)
    assert check_mfun_mor(Yp, Y, mu) == []


def test_res_on_empty_source_is_empty():
    B = boolean_monoidal()
    from enrichkit.monoidal import finset_product_monoidal

    A = validate_mcat(finset_product_monoidal(), [], {}, {}, {})
    F = validate_mfun_et(A, FinSetModule(), (), {})
    G = ext(F)
    assert res(G).ob_map == ()


def test_check_equivalence_arrow_instance():
    A, F2, B = arrow_diagram()
    W = terminal_weight(A)
    rep = check_equivalence([(A, F2, [W])])
    assert rep.passed and rep.checks > 0


def test_coproduct_of_representables_two_routes():
    # ext(F)(Y(a) ⊔ Y(b)) has the cardinality of F(a) ⊔ F(b)
    A, F2, B = arrow_diagram()
    PM = PresheafModule(A)
    ys = [yoneda_presheaf(A, x) for x in range(2)]
    co, _ = PM.coproduct(ys)
    G = ext(F2)
    assert G.apex(co).card == F2.ob_map[0].card + F2.ob_map[1].card


def test_terminal_weight_two_routes_match():
    # the conical apex through check_equivalence machinery matches the
    # direct weighted_colimit computation
    A, W, F = swap_instance()
    direct = weighted_colimit(W, F).apex
    assert ext(F).apex(W) == direct
    assert direct.card == 1


def test_quotient_weight_universal():
    A, F2, B = arrow_diagram()
    PM = PresheafModule(A)
    y0 = yoneda_presheaf(A, 0)
    _, injs = PM.coproduct([y0, y0])
    Q, q = PM.coequalizer(injs[0], injs[1])
    # the quotient weight is a genuine presheaf and ext evaluates on it
    G = ext(F2)
    _, p = B.coequalizer(G.on_mor(injs[0]), G.on_mor(injs[1]))
    med = B.factor(p, G.on_mor(q))
    assert med is not None and finset.is_bijection(med)


def test_check_equivalence_random_corpus():
    sampler = CorpusSampler(31)
    entries = []
    for _ in range(5):
        A = mcat_from_fincat(sampler.random_fincat())
        F = sampler.random_diagram(A)
        entries.append((A, F, [sampler.random_presheaf(A)]))
    rep = check_equivalence(entries)
    assert rep.passed, rep.failures


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([walking_arrow, parallel_pair, lambda: chain_cat(3)]),
       st.integers(0, 2 ** 32 - 1))
def test_ext_shares_colimits_across_op_op(make_cat, seed):
    # a weight rebuilt over op(op(A)) is the same memo key for Ext: one
    # colimit object serves both
    A = mcat_from_fincat(make_cat())
    sampler = CorpusSampler(seed)
    W = sampler.random_presheaf(A)
    G = ext(sampler.random_diagram(A))
    AA = opposite_mcat(opposite_mcat(A))
    V = validate_presheaf(AA, W.values, W.action)
    assert V.source is AA and V == W and hash(V) == hash(W)
    assert G.colimit(V) is G.colimit(W)


# --- presheaf colimit tables against element-by-element references ----------

def reference_coproduct_action(A, objs):
    """The action of Σ objs built one element of (Σ P_i(y)) × hom(x,y) at a
    time: locate its summand, act there, shift into the sum."""
    n = A.n_objects
    parts = [[p.values[x] for p in objs] for x in range(n)]
    action = {}
    for x in range(n):
        for y in range(n):
            h = A.hom(x, y)
            offs_x, offs_y = finset.offsets(parts[x]), finset.offsets(parts[y])
            table = []
            for pel in range(sum(v.card for v in parts[y]) * h.card):
                s, hel = divmod(pel, h.card)
                # the last summand starting at or before s holds it
                i = max(k for k in range(len(objs)) if offs_y[k] <= s)
                local = (s - offs_y[i]) * h.card + hel
                table.append(offs_x[i] + objs[i].action[(x, y)].table[local])
            action[(x, y)] = table
    return action


def reference_coequalizer_action(A, G, projs):
    """The action induced on the quotients projs of G, read at the minimal
    representative of each class; raises InternalError when another
    representative acts differently."""
    n = A.n_objects
    action = {}
    for x in range(n):
        for y in range(n):
            h = A.hom(x, y)
            reps = [projs[y].table.index(c) for c in range(projs[y].cod.card)]
            act = G.action[(x, y)].table
            table = [projs[x].table[act[reps[c] * h.card + hel]]
                     for c in range(len(reps)) for hel in range(h.card)]
            for gel in range(G.values[y].card):
                for hel in range(h.card):
                    got = projs[x].table[act[gel * h.card + hel]]
                    if got != table[projs[y].table[gel] * h.card + hel]:
                        raise InternalError("coequalizer action not well defined")
            action[(x, y)] = table
    return action


def tables(P):
    return {xy: list(a.table) for xy, a in P.action.items()}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 32 - 1), st.lists(st.integers(0, 7), max_size=3))
def test_presheaf_colimit_tables_match_reference(seed, picks):
    # summands drawn with repetition from two random presheaves and the
    # representables, whose values include empty sets wherever a hom-set is
    # empty
    sampler = CorpusSampler(seed)
    A = mcat_from_fincat(sampler.random_fincat())
    pool = [sampler.random_presheaf(A), sampler.random_presheaf(A)]
    pool += [yoneda_presheaf(A, x) for x in range(A.n_objects)]
    objs = [pool[k % len(pool)] for k in picks]
    PM = PresheafModule(A)
    total, _ = PM.coproduct(objs)
    assert tables(total) == reference_coproduct_action(A, objs)

    P = objs[0] if objs else pool[0]
    G, injs = PM.coproduct([P, P])
    Q, q = PM.coequalizer(injs[0], injs[1])
    assert tables(Q) == reference_coequalizer_action(A, G, q.components)


def test_coequalizer_action_self_check():
    # over Z_3 acting on itself, identifying 0 with 1 is not a congruence
    A = mcat_from_fincat(loop_cat(3))
    Y = yoneda_presheaf(A, 0)
    three = Y.values[0]
    f = PresheafMor(Y, Y, (SkMap(three, three, (0, 0, 0)),))
    g = PresheafMor(Y, Y, (SkMap(three, three, (0, 0, 1)),))
    with pytest.raises(InternalError, match="coequalizer action not well defined"):
        PresheafModule(A).coequalizer(f, g)


def test_coequalizer_of_hand_built_pairs_matches_reference():
    # every ordered pair of component maps Y(*) -> Y(*) over Z_3, natural
    # or not: the quotient fails exactly when the reference fails, and
    # otherwise has the reference's action
    A = mcat_from_fincat(loop_cat(3))
    Y = yoneda_presheaf(A, 0)
    PM = PresheafModule(A)
    maps = list(finset.all_maps(Y.values[0], Y.values[0]))
    raised = 0
    for a, b in itertools.product(maps, repeat=2):
        f, g = PresheafMor(Y, Y, (a,)), PresheafMor(Y, Y, (b,))
        proj = finset.coequalizer(a, b)[1]
        try:
            want = reference_coequalizer_action(A, Y, (proj,))
        except InternalError:
            want = None
        try:
            Q, q = PM.coequalizer(f, g)
        except InternalError as exc:
            assert str(exc) == "coequalizer action not well defined"
            assert want is None
            raised += 1
        else:
            assert q.components == (proj,) and tables(Q) == want
    # the three partitions with one two-element class, reached by the
    # pairs whose relation generates one of them
    assert raised == 294


# --- the generic colimit layer speaks only through its interfaces ------------

GENERIC = (wcolim.weighted_colimit, wcolim.mediate, wcolim.check_universal,
           wcolim.canonical_presentation, wcolim.res,
           wcolim.round_trip_components, wcolim.check_round_trip,
           wcolim.check_equivalence, wcolim._comparison,
           *[f for f in vars(wcolim.Ext).values() if inspect.isfunction(f)])
EXEMPT = {"FinSetModule", "PresheafModule", "sample_probes"}


def _global_names(code):
    """Every name a code object and its nested code objects look up."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _global_names(const)
    return names


def test_generic_colimit_layer_names_no_finite_set_operation():
    # follows the wcolim helpers the generic functions call, so a leak
    # cannot hide one call deeper
    seen = set()
    todo = list(GENERIC)
    while todo:
        fn = todo.pop()
        if fn in seen:
            continue
        seen.add(fn)
        for name in _global_names(fn.__code__):
            if name in EXEMPT:
                continue
            assert name != "finset", fn.__qualname__
            value = getattr(wcolim, name, None)
            assert getattr(value, "__module__", None) != "enrichkit.finset", (
                fn.__qualname__, name)
            if inspect.isfunction(value) and value.__module__ == wcolim.__name__:
                todo.append(value)


def test_presheaf_module_builds_each_coproduct_once(monkeypatch):
    # weighted_colimit needs the summand coproduct and the relation
    # coproduct once each (copair reuses them for both legs), then one
    # quotient; a following mediate builds and validates nothing new.
    A = mcat_from_fincat(walking_arrow())
    PM = PresheafModule(A)
    n = A.n_objects
    phi = {(x, y): wcolim.structure_presheaf_mor(A, x, y)
           for x in range(n) for y in range(n)}
    Y = validate_mfun_et(A, PM, [yoneda_presheaf(A, x) for x in range(n)], phi)
    W = terminal_weight(A)
    calls = {"validate": 0, "coproduct_map": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(wcolim, "validate_presheaf",
                        counting("validate", wcolim.validate_presheaf))
    # a coproduct build makes one coproduct_map per action slot (x, y)
    monkeypatch.setattr(finset, "coproduct_map",
                        counting("coproduct_map", finset.coproduct_map))
    wc = weighted_colimit(W, Y, PM)
    assert calls == {"validate": 3, "coproduct_map": 2 * n ** 2}
    calls.update(validate=0, coproduct_map=0)
    assert mediate(wc, wc.cocone.legs, wc.apex, PM) is not None
    assert calls == {"validate": 0, "coproduct_map": 0}


# --- the presheaf module is the finite-set target, pointwise -----------------

@pytest.mark.parametrize("make_cat, seed", [(walking_arrow, 0), (parallel_pair, 1),
                                            (lambda: loop_cat(2), 2)],
                         ids=["arrow", "parallel", "loop2"])
def test_presheaf_module_agrees_with_finite_sets_pointwise(make_cat, seed):
    # every component of every operation is what the finite-set target gives
    # on that component; `seen` records that the rare paths were reached
    A = mcat_from_fincat(make_cat())
    PM, S = PresheafModule(A), FinSetModule()
    xs = range(A.n_objects)
    sampler = CorpusSampler(seed)
    pool = ([yoneda_presheaf(A, x) for x in range(A.n_objects)] + [terminal_weight(A)]
            + [sampler.random_presheaf(A) for _ in range(2)])
    mors = [wcolim.structure_presheaf_mor(A, x, y) for x in xs for y in xs]
    seen = set()

    def covers(maps, target):
        return all(S.jointly_surjective([m.components[x] for m in maps], target.values[x])
                   for x in xs)

    for P, Q in itertools.product(pool, repeat=2):
        PQ, injs = PM.coproduct([P, Q])
        for x in xs:
            total, s_injs = S.coproduct([P.values[x], Q.values[x]])
            assert PQ.values[x] == total
            assert [i.components[x] for i in injs] == s_injs
        assert PM.copair([P, Q], list(injs), PQ) == PM.id_of(PQ)
        for maps in (list(injs), [injs[0]], [injs[1]]):
            got = PM.jointly_surjective(maps, PQ)
            assert got == covers(maps, PQ)
            seen.add(("covered", got))
        empty = PM.copair([], [], P)
        assert (empty.source, empty.target) == (PM.coproduct([])[0], P)
        assert empty.components == tuple(S.copair([], [], v) for v in P.values)
        mors.extend(injs)

    for P in pool:
        PP, (i0, i1) = PM.coproduct([P, P])
        swap = PM.copair([P, P], [i1, i0], PP)
        assert swap.components == tuple(
            S.copair([P.values[x]] * 2, [i1.components[x], i0.components[x]], PP.values[x])
            for x in xs)
        assert PM.id_of(PP).components == tuple(map(S.id_of, PP.values))
        assert PM.compose(swap, i0).components == tuple(
            map(S.compose, swap.components, i0.components))
        assert PM.compose(swap, i0) == i1
        inv = PM.inverse(swap)
        assert inv.components == tuple(map(S.inverse, swap.components))
        assert PM.compose(inv, swap) == PM.id_of(PP)
        if PM.is_iso(swap) and swap != PM.id_of(PP):
            seen.add("non-identity iso")

        Qt, q = PM.coequalizer(i0, i1)
        for x in xs:
            quotient, proj = S.coequalizer(i0.components[x], i1.components[x])
            assert (Qt.values[x], q.components[x]) == (quotient, proj)
        for h in (PM.compose(q, swap), PM.id_of(PP)):
            comps = tuple(map(S.factor, q.components, h.components))
            u = PM.factor(q, h)
            if None in comps:
                assert u is None
                seen.add("factor-none")
            else:
                assert (u.source, u.target, u.components) == (Qt, h.target, comps)

        for u in (S.id_of(SkSet(2)), SkMap(SkSet(2), SkSet(1), (0, 0))):
            t = PM.act_mor(u, swap)
            assert (t.source, t.target) == (PM.act_ob(u.dom, PP), PM.act_ob(u.cod, PP))
            assert t.components == tuple(S.act_mor(u, c) for c in swap.components)
        mors += [swap, inv, q]

    for t in mors:
        assert PM.is_iso(t) == all(map(S.is_iso, t.components))
        got = PM.jointly_surjective([t], t.target)
        assert got == covers([t], t.target)
        if not got and S.jointly_surjective([t.components[0]], t.target.values[0]):
            seen.add("uncovered after the first object")

    want = {("covered", True), ("covered", False), "non-identity iso", "factor-none"}
    if A.n_objects > 1:
        want.add("uncovered after the first object")
    assert seen == want

    Y = pool[0]
    _, (j0, _) = PM.coproduct([Y, Y])
    with pytest.raises(ShapeMismatch, match="not composable"):
        PM.compose(j0, j0)
    with pytest.raises(ShapeMismatch, match="finite-sets base"):
        PresheafModule(boolean_chain_mcat())


def _global_loads(code):
    """(attributes loaded from the global finset, other global names) of a
    code object and its nested code objects."""
    instrs = list(dis.get_instructions(code))
    attrs, names = set(), set()
    for ins, nxt in zip(instrs, instrs[1:]):
        if ins.opname == "LOAD_GLOBAL":
            if ins.argval == "finset":
                attrs.add(nxt.argval)
            else:
                names.add(ins.argval)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            a, n = _global_loads(const)
            attrs |= a
            names |= n
    return attrs, names


def test_presheaf_module_reaches_finset_only_for_coproduct_actions():
    # every component goes through the finite-set target; the coproduct's
    # action is one coproduct_map per slot, which the build counter above
    # counts.  Follows the wcolim helpers the methods call.
    seen = set()
    todo = [f for f in vars(PresheafModule).values() if inspect.isfunction(f)]
    while todo:
        fn = todo.pop()
        if fn in seen:
            continue
        seen.add(fn)
        attrs, names = _global_loads(fn.__code__)
        assert attrs <= {"coproduct_map"}, (fn.__qualname__, attrs)
        for name in names:
            value = getattr(wcolim, name, None)
            assert getattr(value, "__module__", None) != "enrichkit.finset", (
                fn.__qualname__, name)
            if inspect.isfunction(value) and value.__module__ == wcolim.__name__:
                todo.append(value)


def test_finset_copair_with_parts_and_no_maps_is_a_length_mismatch():
    # the empty copair is the map out of an empty coproduct; parts with no
    # maps are a mismatch, as in finset.copair
    B = FinSetModule()
    assert B.copair([], [], SkSet(3)) == finset.initial_map(SkSet(3))
    with pytest.raises(ShapeMismatch, match="length mismatch"):
        B.copair([SkSet(2)], [], SkSet(3))
    with pytest.raises(ShapeMismatch, match="length mismatch"):
        B.copair([], [finset.identity(SkSet(1))], SkSet(1))


def test_finset_copair_rejects_maps_landing_outside_cod():
    B = FinSetModule()
    parts = [SkSet(1), SkSet(2)]
    maps = [SkMap(SkSet(1), SkSet(2), (1,)), SkMap(SkSet(2), SkSet(2), (0, 0))]
    assert B.copair(parts, maps, SkSet(2)) == SkMap(SkSet(3), SkSet(2), (1, 0, 0))
    with pytest.raises(ShapeMismatch, match="cod"):
        B.copair(parts, maps, SkSet(3))
