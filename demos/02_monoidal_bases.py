"""Strict monoidal bases: posetal, non-symmetric, and cocomplete instances,
with the opposite construction.

Run:  python demos/02_monoidal_bases.py
"""

from pathlib import Path

from enrichkit.cli import Builder, parse_spec
from enrichkit.finset import SkMap, SkSet
from enrichkit.monoidal import boolean_monoidal, finset_product_monoidal, opposite_monoidal

SPECS = Path(__file__).resolve().parent / "specs"

print("== the Boolean poset with meet ==")
B = boolean_monoidal()
for a in B.objects():
    for b in B.objects():
        print(f"  {B.obj_name(a)} ∧ {B.obj_name(b)} = "
              f"{B.obj_name(B.tensor_ob(a, b))}")
print("opposite equals itself (commutative):", opposite_monoidal(B) == B)

print("\n== discrete S3: a genuinely non-symmetric base ==")
M = Builder(parse_spec(SPECS / "s3_pair.json")).monoidal("s3_mul")
c = M.carrier
s12, s13 = c.obj("s12"), c.obj("s13")
print("  s12·s13 =", c.obj_name(M.tensor_ob(s12, s13)))
print("  s13·s12 =", c.obj_name(M.tensor_ob(s13, s12)))
Mop = opposite_monoidal(M)
print("  opposite flips them:", c.obj_name(Mop.tensor_ob(s12, s13)))
print("  op∘op is the identity on the tables:",
      opposite_monoidal(Mop) == M)

print("\n== skeletal finite sets: strict by the pairing encoding ==")
FS = finset_product_monoidal()
x, y, z = SkSet(2), SkSet(3), SkSet(2)
assert FS.tensor_ob(FS.tensor_ob(x, y), z) == FS.tensor_ob(x, FS.tensor_ob(y, z))
print("  (2 x 3) x 2 == 2 x (3 x 2) on the nose:",
      FS.tensor_ob(x, FS.tensor_ob(y, z)))
swap = SkMap(SkSet(2), SkSet(2), (1, 0))
rot = SkMap(SkSet(3), SkSet(3), (1, 2, 0))
print("  (swap ⊗ rot) table:", FS.tensor_mor(swap, rot).table)
