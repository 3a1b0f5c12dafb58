"""Run every inequality check over the map gallery and print one table.

The same checks back the `harmonicdisk verify` subcommand; here they
are driven as a library, with one row per verified inequality.

Run from the repository root:

    python3 demos/05_verify_gallery.py
"""

from harmonicdisk.gallery import gallery_map, gallery_names
from harmonicdisk.theorems import (check_prop1, schwarz_radial_check,
                                   thm4_ratio, thm5_bound)

rows = []
for name in gallery_names():
    m = gallery_map(name)
    reps = []
    reps += check_prop1(m, radii=(0.3, 0.6, 0.9))
    reps += thm4_ratio(m, r_list=(0.1, 0.3, 0.6))
    reps += thm5_bound(m, n_max=4)
    reps += schwarz_radial_check(m, r_grid=32)
    for r in reps:
        rows.append((name, r.name, r.holds, r.margin))

width = max(len(r[0]) for r in rows)
cwidth = max(len(r[1]) for r in rows)
print(f"{'map':<{width}}  {'check':<{cwidth}}  verdict  margin")
for name, check, holds, margin in rows:
    verdict = "holds" if holds else "VIOLATED"
    print(f"{name:<{width}}  {check:<{cwidth}}  {verdict:<8} {margin:+.3e}")

n_bad = sum(1 for r in rows if not r[2])
print(f"\n{len(rows)} checks, {n_bad} violations")

# equality cases are visible in the margins: the identity meets the
# length-area sandwich exactly, and stretch maps attain the first-mode
# bound, so those margins sit at rounding level rather than at zero
ident_margins = [abs(r[3]) for r in rows if r[0] == "identity"
                 and r[1] in ("prop1_lower", "prop1_upper")]
print(f"identity sandwich margins all below {max(ident_margins):.1e}")
