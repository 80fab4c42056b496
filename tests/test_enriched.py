import pytest

from enrichkit.corpus import (
    CorpusSampler,
    SampleStats,
    boolean_chain_mcat,
    c3_one_object_mcat,
    s3_monoidal,
    s3_two_object_mcat,
    z2_two_object_mcat,
)
from enrichkit.enriched import mcat_from_fincat, opposite_mcat, validate_mcat
from enrichkit.errors import (
    DanglingReference,
    EnrichedAssociativityViolation,
    EnrichedUnitViolation,
    TypeMismatch,
)
from enrichkit.fincat import parallel_pair, terminal_cat, validate_fincat, walking_arrow
from enrichkit.monoidal import boolean_monoidal, loop_monoidal, opposite_monoidal


def test_one_object_over_s3_valid():
    A = c3_one_object_mcat()
    assert A.n_objects == 1
    M = s3_monoidal()
    e = M.carrier.obj("e")
    B = validate_mcat(M, ["*"], {(0, 0): e}, {0: M.id_of(e)},
                      {(0, 0, 0): M.id_of(e)})
    assert B.hom(0, 0) == e


def test_duplicate_object_names_rejected():
    # the tables are complete over indices, so only the names are at fault
    A = boolean_chain_mcat()
    n = A.n_objects
    hom = {(x, y): A.hom(x, y) for x in range(n) for y in range(n)}
    unit = {x: A.unit(x) for x in range(n)}
    comp = {(x, y, z): A.comp(x, y, z)
            for x in range(n) for y in range(n) for z in range(n)}
    assert validate_mcat(A.base, A.objects, hom, unit, comp) == A
    with pytest.raises(DanglingReference, match="^duplicate object name$"):
        validate_mcat(A.base, [A.objects[0]] * n, hom, unit, comp)


def test_boolean_chain_valid():
    A = boolean_chain_mcat()
    B = A.base
    one, zero = B.carrier.obj("1"), B.carrier.obj("0")
    assert A.hom(0, 0) == one and A.hom(0, 1) == one
    assert A.hom(1, 0) == zero and A.hom(1, 1) == one


def test_s3_pair_valid_and_s13_cross_is_ill_typed():
    A = s3_two_object_mcat()
    M = A.base
    c = M.carrier
    assert A.hom(0, 1) == c.obj("s12")
    # changing hom(y, x) to s13 leaves no well-typed composition for
    # (x, y, x): s13 · s12 = r123 differs from hom(x, x) = e, and in a
    # discrete base the only morphisms are identities
    e, s12, s13 = c.obj("e"), c.obj("s12"), c.obj("s13")
    hom = {(0, 0): e, (1, 1): e, (0, 1): s12, (1, 0): s13}
    assert c.obj_name(M.tensor_ob(s13, s12)) == "r123"
    unit = {0: c.id_of(e), 1: c.id_of(e)}
    comp = {}
    for x in range(2):
        for y in range(2):
            for z in range(2):
                comp[(x, y, z)] = c.id_of(M.tensor_ob(hom[(y, z)], hom[(x, y)]))
    with pytest.raises(TypeMismatch):
        validate_mcat(M, ["x", "y"], hom, unit, comp)


def test_opposite_boolean_chain_reverses_order():
    A = boolean_chain_mcat()
    Aop = opposite_mcat(A)
    # hom_{op}(x, y) = hom(y, x)
    zero = A.base.carrier.obj("0")
    one = A.base.carrier.obj("1")
    assert Aop.hom(0, 1) == zero and Aop.hom(1, 0) == one
    assert Aop.base == opposite_monoidal(A.base)


def test_opposite_is_involution_on_the_nose():
    for A in [boolean_chain_mcat(), s3_two_object_mcat(), c3_one_object_mcat(),
              z2_two_object_mcat()]:
        assert opposite_mcat(opposite_mcat(A)) == A


def test_opposite_of_one_object_s3_is_itself():
    A = c3_one_object_mcat()
    assert opposite_mcat(A)._hom == A._hom
    assert opposite_mcat(A)._comp == A._comp


def test_empty_mcat_valid():
    A = validate_mcat(boolean_monoidal(), [], {}, {}, {})
    assert A.n_objects == 0
    assert opposite_mcat(A).n_objects == 0


def test_random_mcats_validate_and_op_round_trips():
    sampler = CorpusSampler(5)
    for _ in range(15):
        M = sampler.random_monoidal()
        A, _ = sampler.random_mcat(M)
        Aop = opposite_mcat(A)  # revalidates over the opposite base
        assert opposite_mcat(Aop) == A
    assert sampler.mcat_stats.accepted == 15
    assert 0 < sampler.mcat_stats.acceptance_rate <= 1


def test_generator_soundness_reports_rate():
    sampler = CorpusSampler(9)
    M = sampler.random_monoidal()
    A, _ = sampler.random_mcat(M)
    # emitted structures re-validate from raw tables
    again = validate_mcat(A.base, A.objects, A._hom, A._unit, A._comp)
    assert again == A
    assert sampler.mcat_stats.attempts >= sampler.mcat_stats.accepted


class AlternatingCards:
    """Stub rng: value cards alternate 1, 2, 1, 2, ...; shuffling is the
    identity."""

    def __init__(self):
        self.calls = 0

    def randrange(self, start, stop):
        self.calls += 1
        return 1 if self.calls % 2 else 2

    def shuffle(self, items):
        pass


def test_sampler_fallbacks_are_not_counted_as_accepted():
    # In the codiscrete category a <-> b every presheaf or diagram has
    # isomorphic values, so cards (1, 2) on every attempt admit none.
    C = validate_fincat(
        ["a", "b"], [("id_a", "a", "a"), ("id_b", "b", "b"),
                     ("u", "a", "b"), ("v", "b", "a")],
        [("id_a", "id_a", "id_a"), ("id_b", "id_b", "id_b"), ("u", "id_a", "u"),
         ("id_b", "u", "u"), ("v", "id_b", "v"), ("id_a", "v", "v"),
         ("v", "u", "id_a"), ("u", "v", "id_b")],
        identity={"a": "id_a", "b": "id_b"}, name="codiscrete2")
    A = mcat_from_fincat(C)
    sampler = CorpusSampler(0)
    sampler.rng = AlternatingCards()
    W = sampler.random_presheaf(A)
    assert [v.card for v in W.values] == [1, 1]
    assert sampler.presheaf_stats == SampleStats(attempts=64, accepted=0, fallbacks=1)
    F = sampler.random_diagram(A)
    assert F.name == "terminal-diagram"
    assert sampler.diagram_stats == SampleStats(attempts=64, accepted=0, fallbacks=1)


def test_mutation_enriched_associativity_detected():
    # two objects over the Z2 loop base, all structure maps r0; corrupt
    # comp(x, y, x) to r1
    A = z2_two_object_mcat()
    M = A.base
    comp = dict(A._comp)
    comp[(0, 1, 0)] = 1  # morphism index of r1
    with pytest.raises(EnrichedAssociativityViolation) as exc:
        validate_mcat(M, A.objects, A._hom, A._unit, comp)
    w = exc.value.witness
    # independent recomputation: in Z2 the two composites differ by
    # c(w,x,z) + c(x,y,z) vs c(w,y,z) + c(w,x,y)
    idx = {"x": 0, "y": 1}
    q = (idx[w["w"]], idx[w["x"]], idx[w["y"]], idx[w["z"]])
    lhs = (comp[(q[0], q[1], q[3])] + comp[(q[1], q[2], q[3])]) % 2
    rhs = (comp[(q[0], q[2], q[3])] + comp[(q[0], q[1], q[2])]) % 2
    assert lhs != rhs


def test_mutation_enriched_unit_detected():
    A = z2_two_object_mcat()
    unit = dict(A._unit)
    unit[0] = 1  # morphism index of r1
    with pytest.raises(EnrichedUnitViolation) as exc:
        validate_mcat(A.base, A.objects, A._hom, unit, A._comp)
    assert exc.value.witness["x"] == "x"


def test_mcat_from_fincat_matches_hom_cardinalities():
    for C in [terminal_cat(), walking_arrow(), parallel_pair()]:
        A = mcat_from_fincat(C)
        for x in range(C.n_objects):
            for y in range(C.n_objects):
                assert A.hom(x, y).card == len(C.hom(x, y))


def test_mcat_from_fincat_unit_points_at_identity():
    C = parallel_pair()
    A = mcat_from_fincat(C)
    for x in range(C.n_objects):
        pos = A.unit(x).table[0]
        assert C.hom(x, x)[pos] == C.id_of(x)


def test_loop_base_unit_comp_constraint():
    # over the Z2 loop base a one-object enriched category must satisfy
    # comp + unit = 0; the two solutions validate, mixed choices fail
    M = loop_monoidal(2)
    for u, c in [(0, 0), (1, 1)]:
        validate_mcat(M, ["*"], {(0, 0): 0}, {0: u}, {(0, 0, 0): c})
    for u, c in [(0, 1), (1, 0)]:
        with pytest.raises(EnrichedUnitViolation):
            validate_mcat(M, ["*"], {(0, 0): 0}, {0: u}, {(0, 0, 0): c})
