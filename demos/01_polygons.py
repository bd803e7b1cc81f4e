"""Expansion polygons in five minutes.

Any integer polynomial expands uniquely in powers of a monic base phi with
remainders of smaller degree.  Attaching to each part its minimal p-adic
coefficient valuation gives a cloud of points whose lower boundary - the
valuation polygon - controls how the polynomial can factor.  This script
builds a few polygons, prints their exact rational slopes, and shows that
the monotone-chain construction agrees with the brute-force pairwise
definition.
"""

from laguerrecert import (bruteforce_lower_hull, build_polygon, parse_poly,
                          phi_expand, rightmost_slope)

f = parse_poly("x^2 + 8x + 12")
base = parse_poly("x")
parts = phi_expand(f, base)
print(f"f = {f}")
print("parts in powers of x:", [str(part) for part in parts])

polygon = build_polygon(parts, 2)
print("points (leading part at abscissa 0):", polygon.points)
print("vertices:", polygon.vertices)
print("slopes:", [str(s) for s in polygon.slopes])
print("rightmost slope:", rightmost_slope(polygon))
print()

# a richer example: shifted products around x^2 - x + 17
phi = parse_poly("x^2 - x + 17")
g = (phi + 50) * (phi + 20) * (phi + 8)
parts = phi_expand(g, phi)
print(f"g = (phi+50)(phi+20)(phi+8) over phi = {phi}")
for p in (2, 5):
    polygon = build_polygon(parts, p)
    print(f"  p = {p}: vertices {polygon.vertices}, "
          f"slopes {[str(s) for s in polygon.slopes]}")
    brute = bruteforce_lower_hull(polygon.points)
    assert brute.vertices == polygon.vertices
print("monotone-chain construction matches the brute-force lower hull on both")
