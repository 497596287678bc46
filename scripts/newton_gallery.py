#!/usr/bin/env python3
"""Emit the 6x6 gallery of planar polytope pictures on three letters.

For every ordered pair (cell p, point q), writes the picture of
`mcclass newton --n 3 --pair p:q`: the Euler polytope at q (blue) and,
where the restriction is nonzero, the polytope of the restricted class
(violet), projected to the sum-zero plane.

Usage: python3 scripts/newton_gallery.py [outdir]
"""

import itertools
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from mcclass.cli import main as mcclass_main


def main(outdir="newton_gallery"):
    out = pathlib.Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    words = list(itertools.permutations("123"))
    written = 0
    for p in words:
        for q in words:
            path = out / f"cell_{''.join(p)}_at_{''.join(q)}.svg"
            code = mcclass_main(["newton", "--n", "3", "--pair",
                                 f"{','.join(p)}:{','.join(q)}", "--svg", str(path)])
            written += code == 0
    print(f"wrote {written} pictures to {out}/")


if __name__ == "__main__":
    main(*sys.argv[1:])
