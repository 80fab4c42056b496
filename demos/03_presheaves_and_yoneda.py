"""Enriched presheaf categories and the mechanical Yoneda lemma.

The 2-chain over the Boolean base has exactly three presheaves; the Yoneda
embedding lands on two of them, and the representing-object search recovers
every hom-object of the chain from the presheaf category alone.

Run:  python demos/03_presheaves_and_yoneda.py
"""

from pathlib import Path

from enrichkit.cli import Builder, parse_spec
from enrichkit.presheaf import (
    check_fully_faithful,
    check_yoneda_lemma,
    enumerate_presheaves,
    yoneda,
)

SPECS = Path(__file__).resolve().parent / "specs"

for spec_file, name in [("boolean_chain.json", "chain2"), ("s3_pair.json", "pair")]:
    A = Builder(parse_spec(SPECS / spec_file)).enriched(name)
    base = A.base
    print(f"== {A.name} over {base.name} ==")
    pscat = enumerate_presheaves(A)
    print(f"  {len(pscat.presheaves)} presheaves, "
          f"{len(pscat.morphisms)} morphisms")
    for i, p in enumerate(pscat.presheaves):
        names = tuple(base.obj_name(v) for v in p.values)
        print(f"    F{i}: values {names}")

    Y = yoneda(pscat)
    for x in range(A.n_objects):
        print(f"  Y({A.obj_name(x)}) = F{Y.ob_map[x]}")

    lemma = check_yoneda_lemma(pscat)
    print(f"  Yoneda lemma: {lemma.checked} bijections verified, "
          f"{len(lemma.failures)} failures")

    ff = check_fully_faithful(pscat)
    print(f"  full faithfulness: {ff.checked} bijections, "
          f"{len(ff.failures)} failures")
    for x, y, found, exact, present, iso in ff.hom_objects:
        print(f"    hom_object(Y({x}), Y({y})) = {found} "
              f"(exact recovery: {exact})")
    print()
