"""The enriched axioms as law tables, against the loop validator they replace.

``loop_validate_mcat`` is the validator as it was written before the slot
types and law tables of ``enrichkit.enriched`` existed: nested loops over
every object pair, triple and quadruple.  It stays here as the brute-force
reference: on every single-cell change of the structure maps the table
version must raise the same error class with the same message and witness.
``rejection_mcat`` is the sampler's rejection loop as it was written then;
the sampler must draw the same instances with the same statistics.
"""

import itertools

import pytest

from enrichkit import finset
from enrichkit.cli import Builder, parse_spec
from enrichkit.corpus import (
    PRESHEAF_BUDGET,
    CorpusSampler,
)
from enrichkit.enriched import (
    MCat,
    mcat_from_fincat,
    mcat_laws,
    mcat_slots,
    opposite_mcat,
    slot_type,
    validate_mcat,
)
from enrichkit.errors import (
    DanglingReference,
    EnrichedAssociativityViolation,
    EnrichedUnitViolation,
    EnrichKitError,
    MissingComposite,
    SizeBound,
    TypeMismatch,
    ValidationError,
)
from enrichkit.fincat import chain_cat, loop_cat, parallel_pair, walking_arrow
from enrichkit.finset import SkSet
from enrichkit.presheaf import enumerate_presheaves
from instances import (
    boolean_chain_mcat,
    c3_one_object_mcat,
    idempotent_unit_instance,
    s3_monoidal,
    s3_two_object_mcat,
    z2_two_object_mcat,
)
from test_cli import SPECS


# --- the references ----------------------------------------------------------

def loop_validate_mcat(base, objects, hom, unit, comp, name=""):
    objects = tuple(objects)
    if len(set(objects)) != len(objects):
        raise DanglingReference("duplicate object name")
    n = len(objects)
    hom = dict(hom)
    unit = dict(unit)
    comp = dict(comp)

    for x in range(n):
        for y in range(n):
            if (x, y) not in hom:
                raise MissingComposite(f"hom({objects[x]!r}, {objects[y]!r}) missing",
                                       witness={"x": objects[x], "y": objects[y]})
    for x in range(n):
        if x not in unit:
            raise MissingComposite(f"unit for {objects[x]!r} missing",
                                   witness={"x": objects[x]})
        u = unit[x]
        if base.dom(u) != base.unit or base.cod(u) != hom[(x, x)]:
            raise TypeMismatch(
                f"unit of {objects[x]!r} is not a morphism 1 -> hom(x, x)",
                witness={"x": objects[x]})
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if (x, y, z) not in comp:
                    raise MissingComposite(
                        f"comp({objects[x]!r}, {objects[y]!r}, {objects[z]!r}) missing",
                        witness={"x": objects[x], "y": objects[y], "z": objects[z]})
                c = comp[(x, y, z)]
                want_dom = base.tensor_ob(hom[(y, z)], hom[(x, y)])
                if base.dom(c) != want_dom or base.cod(c) != hom[(x, z)]:
                    raise TypeMismatch(
                        f"comp({objects[x]!r}, {objects[y]!r}, {objects[z]!r}) "
                        "has wrong dom/cod",
                        witness={"x": objects[x], "y": objects[y], "z": objects[z]})

    for x in range(n):
        for y in range(n):
            h = hom[(x, y)]
            left = base.compose(comp[(x, y, y)], base.tensor_mor(unit[y], base.id_of(h)))
            if left != base.id_of(h):
                raise EnrichedUnitViolation(
                    f"left unit law fails at ({objects[x]!r}, {objects[y]!r})",
                    witness={"x": objects[x], "y": objects[y], "side": "left"})
            right = base.compose(comp[(x, x, y)], base.tensor_mor(base.id_of(h), unit[x]))
            if right != base.id_of(h):
                raise EnrichedUnitViolation(
                    f"right unit law fails at ({objects[x]!r}, {objects[y]!r})",
                    witness={"x": objects[x], "y": objects[y], "side": "right"})

    for w in range(n):
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    id_wx = base.id_of(hom[(w, x)])
                    id_yz = base.id_of(hom[(y, z)])
                    lhs = base.compose(comp[(w, x, z)],
                                       base.tensor_mor(comp[(x, y, z)], id_wx))
                    rhs = base.compose(comp[(w, y, z)],
                                       base.tensor_mor(id_yz, comp[(w, x, y)]))
                    if lhs != rhs:
                        raise EnrichedAssociativityViolation(
                            f"associativity fails at ({objects[w]!r}, {objects[x]!r}, "
                            f"{objects[y]!r}, {objects[z]!r})",
                            witness={"w": objects[w], "x": objects[x],
                                     "y": objects[y], "z": objects[z]})

    return MCat(base, objects, hom, unit, comp, name=name)


def rejection_mcat(sampler, M):
    unit_ok = [h for h in M.objects() if M.hom(M.unit, h)]
    while True:
        sampler.mcat_stats.attempts += 1
        n = sampler.rng.choice([1, 1, 2, 2, 2, 3])
        hom = {}
        ok = True
        for x in range(n):
            hom[(x, x)] = sampler.rng.choice(unit_ok)
        for x in range(n):
            for y in range(n):
                if x != y:
                    hom[(x, y)] = sampler.rng.choice(list(M.objects()))
        unit = {}
        for x in range(n):
            cands = M.hom(M.unit, hom[(x, x)])
            unit[x] = sampler.rng.choice(list(cands))
        comp = {}
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    cands = M.hom(M.tensor_ob(hom[(y, z)], hom[(x, y)]),
                                  hom[(x, z)])
                    if not cands:
                        ok = False
                        break
                    comp[(x, y, z)] = sampler.rng.choice(list(cands))
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            continue
        try:
            A = loop_validate_mcat(M, [f"a{i}" for i in range(n)], hom, unit, comp,
                                   name="random-mcat")
        except EnrichKitError:
            continue
        try:
            pscat = enumerate_presheaves(A, sampler.caps)
        except SizeBound:
            continue
        if len(pscat.presheaves) > PRESHEAF_BUDGET:
            continue
        sampler.mcat_stats.accepted += 1
        return A, pscat


# --- instances and mutations -------------------------------------------------

def shipped():
    """The corpus instances and the enriched categories of the demo specs."""
    out = [boolean_chain_mcat(), s3_two_object_mcat(), c3_one_object_mcat(),
           z2_two_object_mcat(), idempotent_unit_instance()[0]]
    for stem in ("boolean_chain", "s3_pair", "c3_loop"):
        builder = Builder(parse_spec(SPECS / f"{stem}.json"))
        out += [builder.enriched(name) for name in builder.spec.enriched]
    return out


def s3_torsor_mcat():
    """Three objects over discrete S3 with hom(x, y) = h_y h_x⁻¹ for
    h = (e, s12, r123), every structure map an identity.  The tensor of S3
    does not commute on these hom-objects, so typing a composition as
    hom(x, y) ⊗ hom(y, z) instead of hom(y, z) ⊗ hom(x, y) fails here."""
    M = s3_monoidal()
    c = M.carrier
    h = [c.obj(g) for g in ("e", "s12", "r123")]
    inv = {a: next(b for b in M.objects() if M.tensor_ob(a, b) == M.unit)
           for a in M.objects()}
    xs = range(3)
    hom = {(x, y): M.tensor_ob(h[y], inv[h[x]]) for x in xs for y in xs}
    assert M.tensor_ob(hom[(0, 1)], hom[(1, 2)]) != M.tensor_ob(hom[(1, 2)], hom[(0, 1)])
    comp = {(x, y, z): c.id_of(M.tensor_ob(hom[(y, z)], hom[(x, y)]))
            for x, y, z in itertools.product(xs, repeat=3)}
    return validate_mcat(M, ["x", "y", "z"], hom, {x: c.id_of(M.unit) for x in xs}, comp,
                         name="s3-torsor")


def oracle_instances():
    cats = shipped() + [s3_torsor_mcat()] + [
        mcat_from_fincat(C) for C in (walking_arrow(), chain_cat(3), parallel_pair(),
                                      loop_cat(3))]
    return cats + [opposite_mcat(A) for A in cats]


def mistyped_candidates(base, dom, cod):
    """Morphisms of the base of another type than dom -> cod: every one of a
    table base, one map between each pair of small sets otherwise."""
    if base.is_finite:
        return [m for m in base.morphisms() if (base.dom(m), base.cod(m)) != (dom, cod)]
    return [next(iter(finset.all_maps(SkSet(k), SkSet(j))))
            for k in range(3) for j in range(1, 3) if (k, j) != (dom.card, cod.card)]


def mutations(A):
    """(kind, hom, unit, comp) for every single-cell change of A's tables:
    each missing hom cell, then per structure-map slot the slot missing,
    every other morphism of its type, and morphisms of other types."""
    base, n = A.base, A.n_objects
    hom, unit, comp = dict(A._hom), dict(A._unit), dict(A._comp)
    for xy in hom:
        yield "missing", {k: v for k, v in hom.items() if k != xy}, unit, comp
    for slot in mcat_slots(n):
        table = unit if isinstance(slot, int) else comp

        def put(value, slot=slot, table=table):
            changed = {k: v for k, v in table.items() if k != slot}
            if value is not None:
                changed[slot] = value
            return (changed, comp) if table is unit else (unit, changed)

        yield ("missing", hom, *put(None))
        dom, cod = slot_type(base, hom, slot)
        for m in base.hom(dom, cod):
            if m != table[slot]:
                yield ("typed", hom, *put(m))
        for m in mistyped_candidates(base, dom, cod):
            yield ("mistyped", hom, *put(m))


def outcome(validate, A, hom, unit, comp):
    try:
        return validate(A.base, A.objects, hom, unit, comp, A.name)
    except ValidationError as exc:
        return type(exc), str(exc), exc.witness


# --- the tables against the loops --------------------------------------------

def test_tables_match_the_loop_validator_on_every_single_cell_change():
    seen = {}
    for A in oracle_instances():
        assert outcome(validate_mcat, A, A._hom, A._unit, A._comp) == A
        for kind, hom, unit, comp in mutations(A):
            want = outcome(loop_validate_mcat, A, hom, unit, comp)
            got = outcome(validate_mcat, A, hom, unit, comp)
            assert got == want, (A.name, kind, got, want)
            if isinstance(want, tuple):
                seen.setdefault(kind, set()).add(want[0])
    assert seen["missing"] == {MissingComposite}
    assert seen["mistyped"] == {TypeMismatch}
    assert seen["typed"] == {EnrichedUnitViolation, EnrichedAssociativityViolation}


# --- cell counts -------------------------------------------------------------

def law_sizes(A):
    unit, assoc = mcat_laws(A)
    return len(unit), len(assoc)


def test_chain8_keeps_the_cells_over_the_support():
    A = mcat_from_fincat(chain_cat(8))
    unit, assoc = mcat_laws(A)
    assert (len(unit), len(assoc)) == (72, 330)
    assert [cell for _, _, cell in unit] == [
        (x, y, side) for x, y in A.support for side in ("left", "right")]
    assert [cell for _, _, cell in assoc] == [
        q for q in itertools.product(range(8), repeat=4) if q == tuple(sorted(q))]


def test_z2_pair_keeps_every_cell_and_thin_bases_none():
    assert law_sizes(z2_two_object_mcat()) == (8, 16)
    for A in (boolean_chain_mcat(), s3_two_object_mcat()):
        assert A.base.thin and law_sizes(A) == (0, 0)


# --- the sampler -------------------------------------------------------------

@pytest.mark.parametrize("seed", range(30))
def test_sampler_draws_what_the_rejection_loop_drew(seed):
    sampler, reference = CorpusSampler(seed), CorpusSampler(seed)
    for _ in range(3):
        M = sampler.random_monoidal()
        assert reference.random_monoidal() == M
        A, pscat = sampler.random_mcat(M)
        B, ref_pscat = rejection_mcat(reference, M)
        assert (A, A.name) == (B, B.name)
        assert pscat.presheaves == ref_pscat.presheaves
        assert sampler.mcat_stats == reference.mcat_stats
        assert sampler.rng.getstate() == reference.rng.getstate()
