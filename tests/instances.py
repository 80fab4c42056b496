"""Instances and readings that only the tests use.

The shipped instances are the spec files in ``demos/specs`` (README
"Shipped corpus"), read through ``cli.parse_spec`` and ``cli.Builder``.
Each call parses and builds afresh, so it returns a new object equal to the
one before.  The rest are small fixtures, the one-line readings of the
presheaf and functor laws, the op-dictionary between presheaves and
functors out of the opposite category, the Yoneda map by the paper's
formula, and a sampled oracle for the finite-set bases.
"""

import itertools
from pathlib import Path

from enrichkit import finset
from enrichkit.cli import Builder, parse_spec
from enrichkit.enriched import MCat, validate_mcat
from enrichkit.errors import (
    AssociativityViolation,
    BifunctorialityViolation,
    IllTypedComposite,
    UnitViolation,
)
from enrichkit.fincat import chain_cat, monoid_cat
from enrichkit.finset import SkSet
from enrichkit.mfunctor import MFunET, action_laws, validate_mfun_et
from enrichkit.monoidal import SkSetMonStr, boolean_monoidal, loop_monoidal
from enrichkit.presheaf import Presheaf, validate_presheaf
from enrichkit.tensored import RightTensorModule, base_as_module, validate_module

SPECS = Path(__file__).resolve().parent.parent / "demos" / "specs"


def shipped(spec_file):
    """A fresh Builder over a freshly parsed shipped spec."""
    return Builder(parse_spec(SPECS / spec_file))


# --- the shipped instances --------------------------------------------------

def boolean_chain_mcat():
    """The 2-chain a <= b enriched over the Boolean base."""
    return shipped("boolean_chain.json").enriched("chain2")


def s3_two_object_mcat():
    """Two objects with hom(x,y) = hom(y,x) = s12, diag = e, over discrete S3."""
    return shipped("s3_pair.json").enriched("pair")


def c3_one_object_mcat():
    """One object over discrete C3 with hom = e."""
    return shipped("c3_loop.json").enriched("loop")


def s3_monoidal():
    return shipped("s3_pair.json").monoidal("s3_mul")


S3_ELEMENTS = list(shipped("s3_pair.json").category("s3").objects)


def s3_mult():
    return {(g, h): gh
            for g, h, gh in parse_spec(SPECS / "s3_pair.json").monoidal["s3_mul"].tensor_ob}


def shipped_yoneda_corpus():
    """(name, MCat) pairs for the Yoneda acceptance checks."""
    return [
        ("bool-chain2", boolean_chain_mcat()),
        ("s3-pair", s3_two_object_mcat()),
        ("c3-loop", c3_one_object_mcat()),
    ]


# --- fixtures ---------------------------------------------------------------

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
    act_ob = {(m, b): b if m == 1 else 0 for m in range(2) for b in range(3)}
    chain_mor = {(C.dom(h), C.cod(h)): h for h in range(C.n_morphisms)}
    act_mor = {(u, h): chain_mor[(act_ob[(M.dom(u), C.dom(h))], act_ob[(M.cod(u), C.cod(h))])]
               for u in range(M.carrier.n_morphisms) for h in range(C.n_morphisms)}
    return validate_module(M, C, act_ob, act_mor, name="bool-on-chain3")


# --- the laws as law tables -------------------------------------------------

def presheaf_laws(source: MCat, values):
    """The presheaf laws as two law tables (unit, compat): ``action_laws``
    read contravariantly."""
    return action_laws(source, RightTensorModule(source.base), values, True)


def mfun_et_laws(source, target, ob_map):
    """The functor laws as two law tables (compat, unit): ``action_laws``
    read covariantly."""
    unit, compat = action_laws(source, target, ob_map, False)
    return compat, unit


# --- the op-dictionary ------------------------------------------------------

def presheaf_to_mfun_et(f: Presheaf, source_op: MCat) -> MFunET:
    """A presheaf on A is exactly a functor from A-op (over the opposite
    base) to the base acting on itself through the opposite tensor.

    source_op must be opposite_mcat(f.source); it is passed in so the
    round trip lands on the caller's instances.
    """
    target = base_as_module(source_op.base)
    n = f.source.n_objects
    phi = {(u, v): f.action[(v, u)] for u in range(n) for v in range(n)}
    return validate_mfun_et(source_op, target, f.values, phi)


def mfun_et_to_presheaf(g: MFunET, source: MCat) -> Presheaf:
    """Inverse dictionary; source must be the category g's source is the
    opposite of."""
    n = source.n_objects
    action = {(x, y): g.phi[(y, x)] for x in range(n) for y in range(n)}
    return validate_presheaf(source, g.ob_map, action)


# --- the Yoneda map by the paper's formula ----------------------------------

def forward_map(pscat, F: Presheaf, x, alpha):
    """F-action ∘ (alpha ⊗ id): the component tuple of the presheaf map
    m ⊗ Y(x) -> F induced by alpha: m -> F(x), computed in the base alone
    (the oracle for the images of ``tensored.represents`` in a presheaf
    category)."""
    source = pscat.source
    base = source.base
    return tuple(
        base.compose(F.action[(z, x)],
                     base.tensor_mor(alpha, base.id_of(source.hom(z, x))))
        for z in range(source.n_objects))


# --- a sampled oracle for the finite-set bases ------------------------------

def check_monoidal_probes(M: SkSetMonStr, max_card=3, mor_samples=8):
    """Probe-set validation of a computable monoidal structure.

    Returns the number of probe equations checked; raises on a violation.
    """
    obs = [SkSet(c) for c in range(max_card + 1)]
    checked = 0
    for a in obs:
        if M.tensor_ob(M.unit, a) != a or M.tensor_ob(a, M.unit) != a:
            raise UnitViolation("unit law fails on probe",
                                witness={"object": M.carrier.obj_name(a)})
        checked += 1
    for a in obs:
        for b in obs:
            for c in obs:
                if M.tensor_ob(M.tensor_ob(a, b), c) != M.tensor_ob(a, M.tensor_ob(b, c)):
                    raise AssociativityViolation("object probe fails", witness={})
                checked += 1
    mors = []
    for a in obs:
        for b in obs:
            maps = list(itertools.islice(finset.all_maps(a, b), mor_samples))
            mors.extend(maps)
    for u in mors:
        for v in mors:
            uv = M.tensor_mor(u, v)
            if (uv.dom != M.tensor_ob(u.dom, v.dom)
                    or uv.cod != M.tensor_ob(u.cod, v.cod)):
                raise IllTypedComposite("morphism tensor probe ill-typed", witness={})
            checked += 1
    for u in mors[:mor_samples]:
        for v in mors[:mor_samples]:
            for w in mors[:mor_samples]:
                lhs = M.tensor_mor(M.tensor_mor(u, v), w)
                rhs = M.tensor_mor(u, M.tensor_mor(v, w))
                if lhs != rhs:
                    raise AssociativityViolation("morphism tensor probe fails", witness={})
                checked += 1
    # interchange on composable probe pairs
    for a in obs:
        for b in obs:
            for c in obs:
                fs = list(itertools.islice(finset.all_maps(a, b), 3))
                gs = list(itertools.islice(finset.all_maps(b, c), 3))
                for f in fs:
                    for g in gs:
                        for fp in fs:
                            for gp in gs:
                                lhs = M.tensor_mor(finset.compose(g, f), finset.compose(gp, fp))
                                rhs = finset.compose(M.tensor_mor(g, gp), M.tensor_mor(f, fp))
                                if lhs != rhs:
                                    raise BifunctorialityViolation(
                                        "interchange probe fails", witness={})
                                checked += 1
    return checked
