"""Second opinions without certificates.

The oracle never trusts the certifier: factor-degree patterns modulo many
primes shrink the set of degrees a factor could have, and bounded searches
either exhibit an exact factorization or stay silent.  Sound by design -
"irreducible" only when the degree sets leave no room, "reducible" only
with a verified witness in hand.
"""

from laguerrecert import (build_instance, format_poly, oracle_verdict,
                          parse_poly, primitive_part, search_reducible_witness,
                          verify_witness)

phi = parse_poly("x^2 - x + 17")

print("verdict on the base itself:")
v = oracle_verdict(phi, 50)
print(f"  {format_poly(phi)}: {v.kind}, possible degrees "
      f"{sorted(v.degree_set.possible)}")

f = (phi + 2) * (phi + 6)
v = oracle_verdict(f, 50)
print("\nverdict on (phi+2)(phi+6), expanded:")
print(f"  {format_poly(f)}: {v.kind}")
print(f"  witness: ({format_poly(v.witness.g)}) * ({format_poly(v.witness.h)})")
print(f"  verified exactly: {verify_witness(f, v.witness)}")

print("\nsearching the (m=2, parameter 2) family for a reducible member:")
inst, w = search_reducible_witness(2, 2, phi, 1)
print(f"  found multipliers a_m={inst.a_m}, "
      f"a=({', '.join(format_poly(p) for p in inst.a_parts)})")
print(f"  f = {format_poly(inst.f)}")
print(f"    = ({format_poly(w.g)}) * ({format_poly(w.h)}) * {w.c}")

print("\nthe same search at (m=3, parameter 0) comes up empty, as it must:")
print("  result:", search_reducible_witness(3, 0, phi, 1))

print("\na disguised square from a single level with a_0 = x - 17:")
inst = build_instance(1, 0, 1, [parse_poly("x - 17")], phi)
v = oracle_verdict(primitive_part(inst.f), 50)
print(f"  f = {format_poly(inst.f)}: {v.kind}, "
      f"witness ({format_poly(v.witness.g)}) * ({format_poly(v.witness.h)})")
