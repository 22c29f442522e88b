#!/usr/bin/env python3
"""
Monoids of module classes cut out by a designated dimension vector.

Over the two-simple path algebra with one arrow, fix (m, n) and keep only
the modules whose dimension vector is a multiple of it.  The resulting
graded monoid has min(m,n)+1 atoms, and its shape splits into two cases:
for m != n everything above grade one collapses onto a single chain,
while for m = n the powers of the projective atom run along their own
chain that never meets the rest - a compact failure of cancellation.
"""
from jhp_lab import grothendieck, monoid

for m, n in ((1, 1), (2, 1), (2, 2)):
    src = grothendieck.a2_designated(m, n)
    pres = grothendieck.presentation_of(src)
    atoms = monoid.atoms(pres)
    print(f"== designated dimension vector ({m},{n})")
    print("   atoms:", ", ".join(a.pretty(pres) for a in atoms))
    step = m + n
    counts = [
        len(monoid.stratum_classes(pres, N * step).classes)
        for N in range(0, 4)
    ]
    print("   class counts per stratum:", counts)
    certificate = monoid.cancellativity_scan(pres, 2 * step)
    if certificate:
        a, x, y = (pres.format_word(w) for w in certificate)
        print(f"   not cancellative: [{a}]+[{x}] = [{a}]+[{y}] but [{x}] != [{y}]")
    else:
        print(f"   no cancellation failure up to grade {2 * step}")
    print("   Cayley quiver up to three steps:")
    for line in monoid.cayley_quiver(pres, 3 * step).splitlines():
        if "->" in line:
            print("    " + line.strip())
    print()
