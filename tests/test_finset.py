import inspect
import itertools
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from enrichkit import finset
from enrichkit.caps import Caps
from enrichkit.corpus import CorpusSampler
from enrichkit.enriched import mcat_from_fincat
from enrichkit.fincat import chain_cat, parallel_pair
from enrichkit.errors import Overflow, ShapeMismatch, SizeBound
from enrichkit.finset import SkMap, SkSet
from enrichkit.wcolim import (
    canonical_presentation,
    check_equivalence,
    check_universal,
    sample_probes,
    weighted_colimit,
)


def test_product_cards_and_pairing():
    assert finset.product(SkSet(2), SkSet(3)).card == 6
    assert finset.pair(1, 2, SkSet(3)) == 5


def test_product_unit_is_strict():
    for n in range(5):
        assert finset.product(SkSet(1), SkSet(n)).card == n
        for j in range(n):
            assert finset.pair(0, j, SkSet(n)) == j
            assert finset.pair(j, 0, SkSet(1)) == j


def test_pairing_associativity_exhaustive_222():
    y, z = SkSet(2), SkSet(2)
    yz = finset.product(y, z)
    for i, j, k in itertools.product(range(2), repeat=3):
        left = finset.pair(finset.pair(i, j, y), k, z)
        right = finset.pair(i, finset.pair(j, k, z), yz)
        assert left == right


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5),
       st.data())
def test_pairing_associativity_random(cx, cy, cz, data):
    i = data.draw(st.integers(0, cx - 1))
    j = data.draw(st.integers(0, cy - 1))
    k = data.draw(st.integers(0, cz - 1))
    y, z = SkSet(cy), SkSet(cz)
    yz = finset.product(y, z)
    assert (finset.pair(finset.pair(i, j, y), k, z)
            == finset.pair(i, finset.pair(j, k, z), yz))


def test_product_map_respects_projections():
    f = SkMap(SkSet(2), SkSet(3), (2, 0))
    g = SkMap(SkSet(3), SkSet(2), (1, 1, 0))
    fg = finset.product_map(f, g)
    for i in range(2):
        for j in range(3):
            p = finset.pair(i, j, g.dom)
            a, b = finset.unpair(fg.table[p], g.cod)
            assert a == f.table[i] and b == g.table[j]


def test_overflow_cap():
    with pytest.raises(Overflow):
        finset.product(SkSet(2000), SkSet(2000), Caps(max_card=10**6))


def test_coproduct_offsets():
    assert finset.coproduct([SkSet(2), SkSet(3)]).card == 5
    inj2 = finset.injection([SkSet(2), SkSet(3)], 1)
    assert inj2.table == (2, 3, 4)


def test_coproduct_empty_is_initial():
    assert finset.coproduct([]).card == 0


def test_coproduct_singletons():
    parts = [SkSet(1)] * 3
    assert finset.coproduct(parts).card == 3
    for k in range(3):
        assert finset.injection(parts, k).table == (k,)


def test_coequalizer_equal_maps_is_identity():
    f = SkMap(SkSet(3), SkSet(4), (0, 2, 3))
    q, proj = finset.coequalizer(f, f)
    assert q.card == 4
    assert proj.table == (0, 1, 2, 3)


def test_coequalizer_collapses_pair():
    f = SkMap(SkSet(1), SkSet(2), (0,))
    g = SkMap(SkSet(1), SkSet(2), (1,))
    q, proj = finset.coequalizer(f, g)
    assert q.card == 1
    assert proj.table == (0, 0)


def test_coequalizer_chain_of_unions():
    # unions {0~1, 1~2} collapse a 3-element set to a point
    f = SkMap(SkSet(2), SkSet(3), (0, 1))
    g = SkMap(SkSet(2), SkSet(3), (1, 2))
    q, proj = finset.coequalizer(f, g)
    assert q.card == 1
    assert proj.table == (0, 0, 0)


def test_coequalizer_canonical_renumbering():
    # classes {0,3} and {1,2}: representatives 0 and 1, in that order
    f = SkMap(SkSet(2), SkSet(4), (0, 1))
    g = SkMap(SkSet(2), SkSet(4), (3, 2))
    q, proj = finset.coequalizer(f, g)
    assert q.card == 2
    assert proj.table == (0, 1, 1, 0)


def test_coequalizer_universal_property_exhaustive():
    # all parallel pairs with dom, cod of card <= 3, all candidates h into
    # targets of card <= 3: a factorization through proj exists iff
    # h∘f = h∘g, and it is unique
    for dc in range(3):
        for cc in range(1, 4):
            dom, cod = SkSet(dc), SkSet(cc)
            for f in finset.all_maps(dom, cod):
                for g in finset.all_maps(dom, cod):
                    q, proj = finset.coequalizer(f, g)
                    for tc in range(1, 4):
                        t = SkSet(tc)
                        for h in finset.all_maps(cod, t):
                            u = finset.factor_through_coequalizer(proj, h)
                            coeq = finset.compose(h, f) == finset.compose(h, g)
                            assert (u is not None) == coeq
                            if u is not None:
                                assert finset.compose(u, proj) == h
                                others = [v for v in finset.all_maps(q, t)
                                          if finset.compose(v, proj) == h]
                                assert others == [u]


def test_product_distributes_over_coproduct_left_argument_identity():
    # under pair(i, j) = i*|Y| + j the canonical bijection
    # (Y ⊔ Z) x X -> (Y x X) ⊔ (Z x X) is the identity on encodings
    for cy, cz, cx in itertools.product(range(4), repeat=3):
        y, z, x = SkSet(cy), SkSet(cz), SkSet(cx)
        yz = finset.coproduct([y, z])
        off = cy * cx
        for j in range(cy):
            for i in range(cx):
                assert finset.pair(j, i, x) == finset.pair(j, i, x)
        for k in range(cz):
            for i in range(cx):
                assert finset.pair(cy + k, i, x) == off + finset.pair(k, i, x)


def test_product_distributes_over_coproduct_right_argument_bijection():
    # with the coproduct in the right tensor argument the comparison is a
    # bijection but not the identity encoding in general
    x, y, z = SkSet(2), SkSet(3), SkSet(2)
    yz = finset.coproduct([y, z])
    lhs = finset.product(x, yz)
    rhs = finset.coproduct([finset.product(x, y), finset.product(x, z)])
    assert lhs == rhs  # same cardinality

    def canonical(p):
        i, s = finset.unpair(p, yz)
        if s < y.card:
            return finset.pair(i, s, y)
        return x.card * y.card + finset.pair(i, s - y.card, z)

    images = [canonical(p) for p in range(lhs.card)]
    assert sorted(images) == list(range(rhs.card))
    assert images != list(range(lhs.card))


def test_determinism_byte_identical_tables():
    f = SkMap(SkSet(3), SkSet(3), (1, 1, 0))
    g = SkMap(SkSet(3), SkSet(3), (2, 0, 0))
    r1 = finset.coequalizer(f, g)
    r2 = finset.coequalizer(f, g)
    assert r1 == r2
    assert finset.product_map(f, g) == finset.product_map(f, g)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 4), st.integers(1, 5), st.data())
def test_coequalizer_universal_random(dc, cc, data):
    dom, cod = SkSet(dc), SkSet(cc)
    draw_map = lambda d, c: SkMap(d, c, tuple(
        data.draw(st.integers(0, c.card - 1)) for _ in range(d.card)))
    f = draw_map(dom, cod)
    g = draw_map(dom, cod)
    q, proj = finset.coequalizer(f, g)
    assert finset.compose(proj, f) == finset.compose(proj, g)
    t = SkSet(data.draw(st.integers(1, 4)))
    h = draw_map(cod, t)
    u = finset.factor_through_coequalizer(proj, h)
    assert (u is not None) == (finset.compose(h, f) == finset.compose(h, g))


def test_shape_mismatch_errors():
    with pytest.raises(ShapeMismatch):
        finset.compose(SkMap(SkSet(2), SkSet(2), (0, 1)),
                       SkMap(SkSet(2), SkSet(3), (0, 1)))
    with pytest.raises(ShapeMismatch):
        finset.coequalizer(SkMap(SkSet(1), SkSet(2), (0,)),
                           SkMap(SkSet(1), SkSet(3), (0,)))
    with pytest.raises(ShapeMismatch):
        SkMap(SkSet(2), SkSet(2), (0, 2))


# --- the kernel against tuple arithmetic ---------------------------------------

def tables(dom, cod):
    """Strategy: function tables dom -> cod as tuples."""
    if cod == 0:
        return st.just(()) if dom == 0 else st.nothing()
    return st.lists(st.integers(0, cod - 1), min_size=dom, max_size=dom).map(tuple)


def fresh(dom, cod, table):
    """A map built directly, never taken from the kernel's shared values."""
    return SkMap(SkSet(dom), SkSet(cod), tuple(table))


def assert_same(got, dom, cod, table):
    want = fresh(dom, cod, table)
    assert (got.dom.card, got.cod.card, got.table) == (dom, cod, tuple(table))
    assert got == want and want == got
    assert hash(got) == hash(want) == hash((want.dom, want.cod, want.table))


def naive_coequalizer(f, g, cod):
    """Classes by repeated merging of sets, numbered by least element."""
    classes = [{i} for i in range(cod)]
    for a, b in zip(f, g):
        ca = next(c for c in classes if a in c)
        cb = next(c for c in classes if b in c)
        if ca is not cb:
            classes.remove(cb)
            ca |= cb
    classes.sort(key=min)
    return len(classes), tuple(next(k for k, c in enumerate(classes) if i in c)
                               for i in range(cod))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_kernel_matches_tuple_arithmetic(data):
    card = st.integers(0, 4)
    a, b, c, d = (data.draw(card) for _ in range(4))
    f_t = data.draw(tables(a, b))
    g_t = data.draw(tables(b, c))
    h_t = data.draw(tables(c, d))
    f, g, h = fresh(a, b, f_t), fresh(b, c, g_t), fresh(c, d, h_t)

    assert_same(finset.identity(SkSet(a)), a, a, range(a))
    assert_same(finset.compose(g, f), a, c, [g_t[i] for i in f_t])
    assert_same(finset.compose(finset.identity(SkSet(b)), f), a, b, f_t)
    assert_same(finset.product_map(f, h), a * c, b * d,
                [i * d + j for i, j in itertools.product(f_t, h_t)])
    assert_same(finset.coproduct_map([f, h]), a + c, b + d,
                list(f_t) + [b + j for j in h_t])
    parts = [SkSet(a), SkSet(c)]
    assert_same(finset.injection(parts, 0), a, a + c, range(a))
    assert_same(finset.injection(parts, 1), c, a + c, range(a, a + c))
    k_t = data.draw(tables(c, b))
    assert_same(finset.copair(parts, [f, fresh(c, b, k_t)]), a + c, b,
                list(f_t) + list(k_t))

    f2_t = data.draw(tables(a, b))
    n, proj = naive_coequalizer(f_t, f2_t, b)
    q, got = finset.coequalizer(f, fresh(a, b, f2_t))
    assert q == SkSet(n) and hash(q) == hash(SkSet(n))
    assert_same(got, b, n, proj)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 4), st.integers(1, 4), st.data())
def test_malformed_tables_raise_the_same_messages(dom, cod, data):
    length = data.draw(st.integers(0, 5).filter(lambda k: k != dom))
    with pytest.raises(ShapeMismatch, match="^table length differs from dom cardinality$"):
        SkMap(SkSet(dom), SkSet(cod), tuple(range(length)))
    if dom:
        table = list(data.draw(tables(dom, cod)))
        table[data.draw(st.integers(0, dom - 1))] = data.draw(
            st.one_of(st.integers(-5, -1), st.integers(cod, cod + 5)))
        with pytest.raises(ShapeMismatch, match="^table entry out of codomain range$"):
            SkMap(SkSet(dom), SkSet(cod), tuple(table))


def test_empty_domains_still_check_shape_and_caps():
    empty = finset.initial_map(SkSet(5))
    assert empty.dom == SkSet(0) and empty.table == ()
    big = finset.identity(SkSet(3))
    with pytest.raises(Overflow):
        finset.product_map(empty, big, Caps(max_card=10))
    with pytest.raises(Overflow):
        finset.product_map(big, empty, Caps(max_card=10))
    with pytest.raises(Overflow):
        finset.coproduct_map([empty, empty, empty], Caps(max_card=10))
    with pytest.raises(ShapeMismatch, match="^cannot compose"):
        finset.compose(big, empty)
    # the same maps pass under a cap they fit
    assert finset.product_map(empty, big).cod == SkSet(15)
    assert finset.compose(big, finset.initial_map(SkSet(3))).cod == SkSet(3)


def test_equality_does_not_rest_on_the_hash():
    f = SkMap(SkSet(1), SkSet(2), (0,))
    g = SkMap(SkSet(1), SkSet(3), (0,))
    h = SkMap(SkSet(1), SkSet(2), (1,))
    assert f != g and f != h
    # force a collision: the tables and codomains still decide
    for other in (g, h):
        object.__setattr__(other, "_hash", hash(f))
        assert f != other and other != f


def test_large_cards_are_not_interned():
    n = finset.INTERN_LIMIT + 1
    assert finset.product(SkSet(n), SkSet(1)) == SkSet(n)
    assert_same(finset.identity(SkSet(n)), n, n, range(n))
    assert_same(finset.initial_map(SkSet(n)), 0, n, ())


def test_public_functions_are_plain_functions():
    # the benchmark counts calls per finset function by wrapping each plain
    # function; a decorated one (lru_cache, say) would read zero calls
    public = {name: value for name, value in vars(finset).items()
              if not name.startswith("_") and callable(value)
              and not inspect.isclass(value)
              and getattr(value, "__module__", None) == finset.__name__}
    assert {"compose", "product_map", "coequalizer", "identity"} <= set(public)
    assert [name for name, value in public.items()
            if not inspect.isfunction(value)] == []


def test_hom_maps_is_a_lazy_sequence_in_all_maps_order():
    for a in range(4):
        for b in range(4):
            x, y = SkSet(a), SkSet(b)
            eager = list(finset.all_maps(x, y))
            lazy = finset.hom_maps(x, y)
            assert len(lazy) == len(eager) == finset.count_maps(x, y)
            assert [lazy[i] for i in range(len(lazy))] == eager
            assert list(lazy) == eager and list(lazy) == eager  # re-iterable
            assert [lazy[-1 - i] for i in range(len(lazy))] == eager[::-1]
            for i in (len(eager), -len(eager) - 1, 10 ** 6):
                with pytest.raises(IndexError):
                    lazy[i]


def test_hom_maps_checks_the_cap_before_building_a_map(monkeypatch):
    def no_map(*args):
        raise AssertionError("a map was built")

    monkeypatch.setattr(finset, "SkMap", no_map)
    with pytest.raises(SizeBound):
        finset.hom_maps(SkSet(3), SkSet(3), Caps(max_search=26))
    with pytest.raises(SizeBound):
        finset.hom_maps(SkSet(40), SkSet(40))
    assert len(finset.hom_maps(SkSet(3), SkSet(3), Caps(max_search=27))) == 27


# --- maps built without the range scan ----------------------------------------

# the kernel functions that build through ``finset._made``, as its module
# docstring names them
MADE_SITES = {"compose", "product_map", "copair", "injection", "coproduct_map",
              "coequalizer", "factor_through_coequalizer", "__getitem__"}


def colimit_run():
    """Seeded draws, a weighted colimit, its universal property, the
    canonical presentation and the Ext/Res checks on fresh categories, as a
    list of results that ends with the error raised, if any."""
    out = []
    try:
        for seed, C in ((3, chain_cat(4)), (5, parallel_pair())):
            A = mcat_from_fincat(C)
            sampler = CorpusSampler(seed)
            W, F = sampler.random_presheaf(A), sampler.random_diagram(A)
            out += [W, F, sampler.presheaf_stats, sampler.diagram_stats]
            wc = weighted_colimit(W, F)
            out += [wc, check_universal(wc, sample_probes(wc, random.Random(seed), 10)),
                    canonical_presentation(W), check_equivalence([(A, F, [W])])]
    except Exception as e:  # an error, of any kind, is part of the result
        out.append((type(e), str(e)))
    return out


def test_maps_built_unchecked_are_the_checked_ones(monkeypatch):
    # every table ``_made`` takes is in range by construction: with the
    # checking constructor in its place every result is the same
    reached = set()

    def checked(dom, cod, table):
        reached.add(sys._getframe(1).f_code.co_name)
        return SkMap(dom, cod, table)

    made = colimit_run()
    monkeypatch.setattr(finset, "_made", checked)
    assert colimit_run() == made
    assert reached == MADE_SITES
    assert not isinstance(made[-1], tuple)


def test_factor_refuses_a_projection_that_is_not_onto():
    # a class that no element reaches would leave its entry unset
    proj = SkMap(SkSet(2), SkSet(3), (0, 2))
    h = SkMap(SkSet(2), SkSet(2), (1, 0))
    with pytest.raises(ShapeMismatch, match="not onto"):
        finset.factor_through_coequalizer(proj, h)
    assert finset.factor_through_coequalizer(SkMap(SkSet(2), SkSet(2), (1, 0)), h) \
        == SkMap(SkSet(2), SkSet(2), (0, 1))
