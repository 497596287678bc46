#!/usr/bin/env python3
"""Emit the 6x6 gallery of planar polytope pictures on three letters.

For every ordered pair (cell p, point q) with a nonzero restriction,
writes an SVG showing the Euler polytope at q (blue) and the polytope
of the restricted class (violet), projected to the sum-zero plane.

Usage: python3 scripts/newton_gallery.py [outdir]
"""

import itertools
import pathlib
import sys

sys.path.insert(0, "src")

from mcclass.axioms import orbit_local_data
from mcclass.combi import Permutation
from mcclass.newton import project_sum_zero, render_svg
from mcclass.weightfn import TorusSpecialization, full_flag_table_recursive


def main(outdir="newton_gallery"):
    out = pathlib.Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    spec = TorusSpecialization.standard(3)
    perms = [Permutation(p) for p in itertools.permutations((1, 2, 3))]
    rows = full_flag_table_recursive(3)
    written = 0
    for p in perms:
        for q in perms:
            val = rows[p][q]
            ek = orbit_local_data(q.to_index_tuple()).ek_normal(spec)
            layers = []
            if not ek.is_zero():
                layers.append(("ek-polygon", project_sum_zero(sorted(ek.support()))))
            if not val.is_zero():
                layers.append(("class-polygon", project_sum_zero(sorted(val.support()))))
            if not layers:
                continue
            name = f"cell_{''.join(map(str, p.word))}_at_{''.join(map(str, q.word))}.svg"
            (out / name).write_text(render_svg(layers), encoding="utf-8")
            written += 1
    print(f"wrote {written} pictures to {out}/")


if __name__ == "__main__":
    main(*sys.argv[1:])
