"""Rule C: the generating set of a finite-set-enriched category and the
cells the validators and the colimit presentation evaluate on it.

The brute-force closure below reads composition from the ingested finite
category itself (reversed for an opposite), not from the enriched tables,
and composes right-nested words s∘r with s in S until nothing new appears.
"""

import itertools
import random
from pathlib import Path

import pytest

from enrichkit import enriched, mfunctor, presheaf, wcolim
from enrichkit.cli import Builder, parse_spec
from enrichkit.caps import Caps
from enrichkit.corpus import CorpusSampler, terminal_weight
from enrichkit.enriched import _generating_elements, mcat_from_fincat, opposite_mcat
from enrichkit.fincat import (
    chain_cat,
    discrete_cat,
    loop_cat,
    parallel_pair,
    terminal_cat,
    validate_fincat,
    walking_arrow,
)
from enrichkit.errors import CompatibilityViolation, Overflow
from enrichkit.finset import SkMap, SkSet
from enrichkit.mfunctor import (
    check_mfun_mor,
    measure_unit_automatism,
    validate_mfun_et,
)
from enrichkit.monoidal import (
    boolean_monoidal,
    finset_coproduct_monoidal,
    opposite_monoidal,
)
from enrichkit.presheaf import check_presheaf_mor, validate_presheaf
from enrichkit.tensored import RightTensorModule
from enrichkit.wcolim import (
    FinSetModule,
    canonical_presentation,
    hom_diagram,
    weighted_colimit,
)
from test_fastpaths import brute_mfun_et_failure
from test_support import codiscrete, identity_components

NAMED = {"chain8": lambda: chain_cat(8), "chain3": lambda: chain_cat(3),
         "arrow": walking_arrow, "parallel": parallel_pair,
         "loop3": lambda: loop_cat(3), "discrete": lambda: discrete_cat(["d0", "d1"])}

# (|S|, generator pairs) per category; the opposite has the pairs reversed
PINNED = {
    "chain8": (7, [(i, i + 1) for i in range(7)]),
    "chain3": (2, [(0, 1), (1, 2)]),
    "arrow": (1, [(0, 1)]),
    "parallel": (2, [(0, 1)]),
    "loop3": (1, [(0, 0)]),
    "discrete": (0, []),
}


@pytest.mark.parametrize("name", sorted(NAMED))
def test_generator_sets_are_pinned(name):
    size, pairs = PINNED[name]
    A = mcat_from_fincat(NAMED[name]())
    assert len(_generating_elements(A)) == size
    assert sorted(A.generator_pairs()) == pairs
    op = opposite_mcat(A)
    assert len(_generating_elements(op)) == size
    assert sorted(op.generator_pairs()) == sorted((y, x) for x, y in pairs)
    assert A.generator_pairs() <= set(A.support)


def test_generators_of_the_chain_and_the_loop_are_the_steps():
    # chain8: the seven steps le(i, i+1); loop3: r1, element 1 of hom(*, *)
    def generators(c):
        return _generating_elements(mcat_from_fincat(c))

    assert generators(chain_cat(8)) == tuple((i, i + 1, 0) for i in range(7))
    assert generators(loop_cat(3)) == ((0, 0, 1),)
    assert generators(parallel_pair()) == ((0, 1, 0), (0, 1, 1))


def test_rule_c_does_not_apply_off_the_finite_set_product():
    coproduct = finset_coproduct_monoidal()
    assert not any(base.pointwise for base in
                   (coproduct, opposite_monoidal(coproduct), boolean_monoidal()))
    A = codiscrete(3, 2)  # over the table base Z_3
    assert A.generator_pairs() is None


def closure_covers(c, gens, flipped):
    """Whether the right-nested words over gens and the identities reach
    every morphism of c (of its opposite when flipped), composed by c's
    own table."""
    def morphism(x, y, k):
        return c.hom(y, x)[k] if flipped else c.hom(x, y)[k]

    def after(s, r):  # s∘r in the (opposite) category
        return c.compose(r, s) if flipped else c.compose(s, r)

    def src(m):
        return c.cod(m) if flipped else c.dom(m)

    def dst(m):
        return c.dom(m) if flipped else c.cod(m)

    S = [morphism(*e) for e in gens]
    reached = {c.id_of(x) for x in range(c.n_objects)}
    while True:
        new = {after(s, r) for s in S for r in reached if dst(r) == src(s)} - reached
        if not new:
            return reached == set(range(c.n_morphisms))
        reached |= new


def fincat_instances():
    named = [(name, make()) for name, make in sorted(NAMED.items())]
    return named + [(f"random{s}", CorpusSampler(s).random_fincat()) for s in range(40)]


@pytest.mark.parametrize("name, c", fincat_instances())
def test_every_element_is_a_right_nested_word_in_the_generators(name, c):
    A = mcat_from_fincat(c)
    for cat, flipped in ((A, False), (opposite_mcat(A), True)):
        gens = _generating_elements(cat)
        assert closure_covers(c, gens, flipped), (name, flipped)
        # no generator is an identity, and none repeats
        assert len(set(gens)) == len(gens)
        assert not any(x == y and c.hom(x, x)[k] == c.id_of(x) for x, y, k in gens)


# --- evaluated cells on chain_cat(8) ------------------------------------------

def counted(counter, laws, kind):
    """The law table with each predicate counting its calls under kind."""
    def wrap(pred):
        def pred_counted(m, cell):
            counter[kind] = counter.get(kind, 0) + 1
            return pred(m, cell)
        return pred_counted
    return [(needed, wrap(pred), cell) for needed, pred, cell in laws]


@pytest.fixture
def cells(monkeypatch):
    """Counts of the unit, compatibility and square cells the validators
    evaluate, read from the predicates of the shared law tables."""
    counter = {}
    laws, squares = mfunctor.action_laws, mfunctor.action_square_laws

    def action_laws(*args):
        unit, compat = laws(*args)
        return counted(counter, unit, "unit"), counted(counter, compat, "compat")

    def action_square_laws(*args):
        square_laws = squares(*args)
        return lambda f, g: counted(counter, square_laws(f, g), "square")

    for module in (mfunctor, presheaf):
        monkeypatch.setattr(module, "action_laws", action_laws)
        monkeypatch.setattr(module, "action_square_laws", action_square_laws)
    return counter


def test_chain8_validators_evaluate_the_generator_cells_only(cells):
    A = mcat_from_fincat(chain_cat(8))
    W, F = terminal_weight(A), hom_diagram(A, 0)
    assert (len(A.support_triples), len(A.support)) == (120, 36)
    cells.clear()
    validate_presheaf(A, W.values, W.action)
    assert cells == {"unit": 8, "compat": 28}
    cells.clear()
    validate_mfun_et(A, F.target, F.ob_map, F.phi)
    assert cells == {"unit": 8, "compat": 28}
    cells.clear()
    assert check_presheaf_mor(W, W, identity_components(W.values)) == []
    assert cells == {"square": 7}
    cells.clear()
    assert check_mfun_mor(F, F, identity_components(F.ob_map)) == []
    assert cells == {"square": 7}


def test_a_failing_generator_scan_reruns_the_full_scan(cells):
    # a diagram on chain3 whose action of id_1 is constant: the generator
    # scan fails at the unit cell of 1, and the full scan, compatibility
    # first, names (0, 1, 1), a cell outside the generator slice
    A = mcat_from_fincat(chain_cat(3))
    two = SkSet(2)
    phi = {(x, y): SkMap(SkSet(2 * A.hom(x, y).card), two,
                         (0, 1) if x <= y else ())
           for x in range(3) for y in range(3)}
    phi[(1, 1)] = SkMap(two, two, (0, 0))
    with pytest.raises(CompatibilityViolation) as exc:
        validate_mfun_et(A, FinSetModule(), [two] * 3, phi)
    assert exc.value.witness == {"x": "0", "y": "1", "z": "1"}
    assert (1, 1) not in A.generator_pairs()
    # the unit cells 0 and 1 of the generator scan, then the full scan's
    # compatibility cells up to the witness
    assert cells == {"unit": 2, "compat": 4}


def test_chain8_colimit_sums_the_generator_pairs_only():
    A = mcat_from_fincat(chain_cat(8))
    W, F = terminal_weight(A), hom_diagram(A, 0)
    wc = weighted_colimit(W, F, F.target)
    assert len(wc.witness.relation_parts) == 7 < len(A.support) == 36


# --- the unit-free search keeps every cell ------------------------------------

def compat_only_families(A, T, value_objects, keep):
    """(candidates, failures) over every value map and action choice whose
    compatibility cells (x, y, z) with keep(y, z) all hold, by brute force;
    a failure is any verdict of the full scan ``brute_mfun_et_failure``,
    which with every cell kept is a unit violation."""
    n = A.n_objects
    slots = list(itertools.product(range(n), repeat=2))
    candidates = violations = 0
    for ob_map in itertools.product(value_objects, repeat=n):
        cands = [T.hom(T.act_ob(A.hom(x, y), ob_map[x]), ob_map[y]) for x, y in slots]
        for choice in itertools.product(*cands):
            phi = dict(zip(slots, choice))
            if not all(_compat(A, T, ob_map, phi, c) for c in
                       itertools.product(range(n), repeat=3) if keep(*c[1:])):
                continue
            candidates += 1
            violations += brute_mfun_et_failure(A, T, ob_map, phi) is not None
    return candidates, violations


def _compat(A, T, ob_map, phi, cell):
    x, y, z = cell
    lhs = T.compose(phi[(x, z)], T.act_mor(A.comp(x, y, z), T.id_of(ob_map[x])))
    rhs = T.compose(phi[(y, z)], T.act_mor(A.base.id_of(A.hom(y, z)), phi[(x, y)]))
    return lhs == rhs


class SmallSets(FinSetModule):
    """Finite sets acting on themselves by product, with a finite carrier
    that lists the value objects by index, as a table module's carrier
    does: the index i stands for SETS[i]."""

    SETS = (SkSet(1), SkSet(2))

    def __init__(self):
        super().__init__()
        self.carrier = type("Carrier", (), {"n_objects": len(self.SETS)})

        def ob(a):
            return self.SETS[a] if isinstance(a, int) else a

        act_ob, hom, id_of, obj_name = self.act_ob, self.hom, self.id_of, self.obj_name
        self.act_ob = lambda m, a: act_ob(m, ob(a))
        self.hom = lambda a, b: hom(ob(a), ob(b))
        self.id_of = lambda a: id_of(ob(a))
        self.obj_name = lambda a: obj_name(ob(a))


@pytest.mark.parametrize("make", [lambda: loop_cat(2), walking_arrow])
def test_unit_automatism_over_finite_sets_searches_every_cell(make):
    A = mcat_from_fincat(make())
    candidates, violations, witnesses = measure_unit_automatism(A, SmallSets())
    assert (candidates, violations) == compat_only_families(
        A, FinSetModule(), SmallSets.SETS, lambda y, z: True)
    assert len(witnesses) == violations > 0


def test_generator_cells_without_the_unit_cells_admit_more():
    # why the unit-free search keeps every cell: on the walking arrow the
    # generator slice without the unit law lets non-idempotent actions of
    # the identities through
    A = mcat_from_fincat(walking_arrow())
    pairs = A.generator_pairs()
    values = [SkSet(1), SkSet(2)]
    full = compat_only_families(A, FinSetModule(), values, lambda y, z: True)
    pruned = compat_only_families(A, FinSetModule(), values,
                                  lambda y, z: (y, z) in pairs)
    assert pruned[0] > full[0]


# --- a cap between the generator slice and the full tables --------------------

def capped_category(caps):
    """x -> y -> u -> z with two parallel steps each, where the two steps
    y -> u followed by x -> y both compose to one c: x -> u.  hom(y, z) has
    four elements, all composites, so no cell (-, y, z) is in the
    generator slice, and the cell (x, y, z) has the largest tensor,
    hom(y, z) ⊗ hom(x, y), of eight elements."""
    steps = {"f": ("x", "y"), "g": ("y", "u"), "h": ("u", "z")}
    morphisms = [(f"id_{o}", o, o) for o in "xyuz"]
    morphisms += [(f"{s}{i}", *ends) for s, ends in steps.items() for i in (1, 2)]
    morphisms += [("c", "x", "u"), ("d1", "x", "z"), ("d2", "x", "z")]
    morphisms += [(f"k{i}{j}", "y", "z") for i in (1, 2) for j in (1, 2)]
    compose = {(f"g{j}", f"f{i}", "c") for i in (1, 2) for j in (1, 2)}
    compose |= {(f"h{i}", f"g{j}", f"k{i}{j}") for i in (1, 2) for j in (1, 2)}
    compose |= {(f"h{i}", "c", f"d{i}") for i in (1, 2)}
    compose |= {(f"k{i}{j}", f"f{k}", f"d{i}") for i in (1, 2) for j in (1, 2)
                for k in (1, 2)}
    compose |= {(f"id_{cod}", m, m) for m, _, cod in morphisms}
    compose |= {(m, f"id_{dom}", m) for m, dom, _ in morphisms}
    return mcat_from_fincat(validate_fincat(list("xyuz"), morphisms, sorted(compose)), caps)


def constant_family(A, target, card, contra):
    """Every value a card-element set v and every action the projection
    act(hom(x, y), v) -> act(1, v) = v."""
    v, point = SkSet(card), SkSet(1)
    return [v] * A.n_objects, {
        (x, y): target.act_mor(SkMap(A.hom(x, y), point, (0,) * A.hom(x, y).card),
                               target.id_of(v))
        for x in range(A.n_objects) for y in range(A.n_objects)}


@pytest.mark.parametrize("contra", [True, False])
def test_a_capped_cell_outside_the_slice_still_overflows(contra):
    # with two-element values the law of (x, y, z) builds a set of 16
    # elements; every cell of the generator slice and every slot type stays
    # within 8, so only that cell overflows at max_card 15, as in the full
    # scan
    for caps, overflows in ((Caps(max_card=15), True), (Caps(), False)):
        A = capped_category(caps)
        x, y, z = (A.objects.index(o) for o in "xyz")
        assert (y, z) not in A.generator_pairs()
        if contra:
            target = RightTensorModule(A.base)
            values, action = constant_family(A, target, 2, True)
            run = lambda: validate_presheaf(A, values, action)
        else:
            target = FinSetModule(caps)
            values, action = constant_family(A, target, 2, False)
            run = lambda: validate_mfun_et(A, target, values, action)
        if overflows:
            with pytest.raises(Overflow, match="product cardinality 16 exceeds cap 15"):
                run()
        else:
            run()


def test_a_capped_colimit_sums_the_generator_relations_only():
    # the relation object over the generator pairs has 24 elements and the
    # full one 68: under max_card 30 the colimit is built where the full
    # presentation would raise Overflow, and it is the uncapped one
    wcs = []
    for caps in (Caps(max_card=30), Caps()):
        A = capped_category(caps)
        W = validate_presheaf(A, *constant_family(A, RightTensorModule(A.base), 2, True))
        B = FinSetModule(caps)
        F = validate_mfun_et(A, B, *constant_family(A, B, 2, False))
        wcs.append(weighted_colimit(W, F, B))
    full = sum(2 * A.hom(x, y).card * 2 for x, y in A.support)
    assert (sum(p.card for p in wcs[0].witness.relation_parts), full) == (24, 68)
    assert (wcs[0].apex, wcs[0].witness.proj) == (wcs[1].apex, wcs[1].witness.proj)


# --- the canonical presentation's naturality on the generators ----------------

SPECS = Path(__file__).resolve().parent.parent / "demos" / "specs"
# the shapes random_fincat draws
SHAPES = [terminal_cat, walking_arrow, parallel_pair, lambda: chain_cat(3),
          lambda: discrete_cat(["d0", "d1"]), lambda: loop_cat(2), lambda: loop_cat(3)]


def opposite_fincat(c):
    """The opposite of an ordinary finite category, as a FinCat of its own
    (``opposite_mcat`` flips the base instead, which the presentation's
    finite-set target does not take)."""
    ms = range(c.n_morphisms)
    return validate_fincat(
        c.objects, [(c.mor_names[m], c.objects[c.cod(m)], c.objects[c.dom(m)]) for m in ms],
        [(c.mor_names[f], c.mor_names[g], c.mor_names[c.compose(g, f)])
         for g in ms for f in ms if c.dom(g) == c.cod(f)], name=f"{c.name}-op")


def chain_weight(n, rng, cards=None):
    """A weight on chain_cat(n) drawn as the colimit-chain benchmark draws
    one: cards in 1..4 and a random map W(i+1) -> W(i) per step, composed
    along x <= y."""
    A = mcat_from_fincat(chain_cat(n))
    cards = cards or [rng.randint(1, 4) for _ in range(n)]
    steps = [[rng.randrange(cards[i]) for _ in range(cards[i + 1])] for i in range(n - 1)]
    values = [SkSet(c) for c in cards]
    action = {}
    for x, y in itertools.product(range(n), repeat=2):
        table = []
        for a in range(cards[y] if x <= y else 0):
            for i in range(y - 1, x - 1, -1):
                a = steps[i][a]
            table.append(a)
        action[(x, y)] = SkMap(SkSet(len(table)), values[x], tuple(table))
    return validate_presheaf(A, values, action)


def presentation_scans(W, monkeypatch):
    """(report, naturality points evaluated) of canonical_presentation(W),
    then of the full scan: the same call with the base's ``pointwise`` off,
    where S must not be read."""
    runs = []
    with monkeypatch.context() as m:
        induced = wcolim._induced

        def counting(*args):
            runs[-1][1] += 1
            return induced(*args)

        def run():
            runs.append([None, 0])
            runs[-1][0] = canonical_presentation(W)

        m.setattr(wcolim, "_induced", counting)
        run()
        m.setattr(W.source.base, "pointwise", False)
        m.setattr(enriched, "_generating_elements", None)
        run()
    return runs


def assert_slice_is_the_full_scan(W, monkeypatch):
    A = W.source
    (got, sliced), (want, full) = presentation_scans(W, monkeypatch)
    assert got == want and got.passed
    # the full scan meets every point of every hom, the slice those of S
    assert full == sum(A.hom(x, y).card for x, y in itertools.product(range(A.n_objects), repeat=2))
    assert sliced == len(_generating_elements(A)) <= full


def test_presentation_slice_on_the_shipped_weights(monkeypatch):
    weights = []
    for path in sorted(SPECS.glob("*.json")):
        spec = parse_spec(path)
        weights += [Builder(spec).weight(name) for name in spec.weights]
    assert len(weights) >= 2
    for W in weights:
        assert_slice_is_the_full_scan(W, monkeypatch)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_presentation_slice_on_seeded_chain_weights(n, monkeypatch):
    rng = random.Random(n)
    for _ in range(3):
        assert_slice_is_the_full_scan(chain_weight(n, rng), monkeypatch)


@pytest.mark.parametrize("index", range(len(SHAPES)))
@pytest.mark.parametrize("op", [False, True])
def test_presentation_slice_on_the_sampler_shapes(index, op, monkeypatch):
    c = SHAPES[index]()
    A = mcat_from_fincat(opposite_fincat(c) if op else c)
    for seed in range(3):
        sampler = CorpusSampler(seed)
        for W in (terminal_weight(A), sampler.random_presheaf(A)):
            assert_slice_is_the_full_scan(W, monkeypatch)


def corrupted_at(monkeypatch, W, wp, w):
    """Shift every entry of F's action restricted to the point of
    hom(w', w), so naturality fails there and only there."""
    restrict, action = wcolim._restrict, W.action[(wp, w)]

    def corrupt(base, act, left, pt):
        m = restrict(base, act, left, pt)
        if act is not action:
            return m
        return SkMap(m.dom, m.cod, tuple((v + 1) % m.cod.card for v in m.table))

    monkeypatch.setattr(wcolim, "_restrict", corrupt)


def test_a_corrupted_generator_point_gives_the_full_scans_witnesses(monkeypatch):
    W = chain_weight(5, random.Random(0), cards=[2, 3, 2, 3, 2])
    corrupted_at(monkeypatch, W, 1, 2)
    assert (1, 2, 0) in _generating_elements(W.source)
    (got, sliced), (want, full) = presentation_scans(W, monkeypatch)
    assert got == want
    assert got.failures == ({"w": "2", "w'": "1", "u": 0, "kind": "naturality"},)
    # the slice failed at its point, so the full scan ran after it
    assert sliced > full


def test_the_slice_reads_naturality_at_the_generators_only(monkeypatch):
    # a corruption off S goes unseen by the slice: the induction needs F's
    # laws, which a validated weight satisfies and the corruption breaks
    W = chain_weight(5, random.Random(0), cards=[2, 3, 2, 3, 2])
    corrupted_at(monkeypatch, W, 1, 3)
    (got, _), (want, _) = presentation_scans(W, monkeypatch)
    assert got.passed
    assert want.failures == ({"w": "3", "w'": "1", "u": 0, "kind": "naturality"},)
