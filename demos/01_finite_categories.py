"""Finite categories as explicit tables: validation and functor enumeration.

Run:  python demos/01_finite_categories.py
"""

from enrichkit.errors import AssociativityViolation
from enrichkit.fincat import (
    enumerate_functors,
    monoid_cat,
    terminal_cat,
    walking_arrow,
)

print("== categories from tables ==")
point = terminal_cat()
arrow = walking_arrow()
print(f"point: {point}")
print(f"walking arrow: {arrow}")

print("\n== exhaustive functor enumeration ==")
print("point -> arrow:", len(enumerate_functors(point, arrow)), "functors")
print("arrow -> point:", len(enumerate_functors(arrow, point)), "functor")
fs = enumerate_functors(arrow, arrow)
print("arrow -> arrow:", len(fs), "functors with object maps",
      [f.ob_map for f in fs])

print("\n== a corrupted composition table is caught with a witness ==")
mult = {(f"r{g}", f"r{f}"): f"r{(g + f) % 3}" for g in range(3) for f in range(3)}
mult[("r1", "r2")] = "r1"  # the true composite is r0
try:
    monoid_cat(["r0", "r1", "r2"], mult)
except AssociativityViolation as exc:
    print("caught:", exc)
    print("witness triple:", exc.witness)
