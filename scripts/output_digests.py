#!/usr/bin/env python3
"""Print `md5 exit command` for a fixed list of CLI calls.

    PYTHONPATH=src python scripts/output_digests.py > digests.txt

Each call runs in this process through mcclass.cli.main; the digest is
the md5 of what it writes to stdout.  Two trees whose outputs should be
byte-identical give identical listings, so a `diff` of the two listings
is the check.  The list holds the golden commands, global weight
functions, restricted tables, axioms, expansions, conjectures, the
bundled interpolation outputs and interpolation on the rank
stratifications of Hom(C^2, C^4) and Hom(C^3, C^3), whose orbit data
tests/oracles.py generates into a temporary file for the run; it takes
about 55 s on one core of a 2-vCPU Xeon.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from mcclass.cli import main

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))
from oracles import hom_orbit_data  # noqa: E402

HOMS = ((2, 4), (3, 3))

KINDS = ("plain", "modified", "segre")

COMMANDS = [
    # the golden commands
    "expand --n 3 --all --jobs 1",
    "axioms --n 2 --format json --jobs 1",
    "limit --cocharacter 1,0,0 --cocharacter=-1,0,0 --cocharacter=-1,2,0",
    *(f"weight --mu {mu} --all --restrict --kind {kind} --format json --jobs 1"
      for mu, kind in [("2,1", "modified"), ("2,2", "modified"), ("1,2", "plain"),
                       ("2,1", "segre"), ("1,1,1", "segre")]),
    *(f"weight --mu 2,1 --all --restrict --kind {kind}" for kind in KINDS),
    "newton --n 3 --pair 2,3,1:3,2,1 --format svg",
    # global weight functions
    *(f"weight --mu {mu} --all --kind {kind}{fmt}"
      for mu in ("1,2,1", "1,1,2") for kind in KINDS for fmt in ("", " --format json")),
    # restricted tables, axioms, expansions and conjectures at n = 4
    *(f"weight --mu 1,1,1,1 --all --restrict --kind {kind}" for kind in KINDS),
    "axioms --n 4 --format json",
    "expand --n 4 --all",
    "expand --n 4 --all --nonequivariant --format json",
    "conjectures --n 4 --format json",
    # the packed row walk (the plain (1,1,1,2) table re-measures its digits)
    # and the packed expansion walk at n = 5
    "weight --mu 1,1,1,2 --all --restrict --kind plain",
    "weight --mu 1,1,1,1,1 --all --restrict --kind modified --format json",
    "expand --n 5 --p 1,2,3,4,5",
    # the bundled interpolation outputs
    *(f"interpolate --target {target} --mode {mode}{fmt}"
      for target in ("omega0", "omega1", "omega2") for mode in ("fundamental", "csm")
      for fmt in ("", " --format json")),
    # generated rank stratifications; {hom_m_n} stands for the data file
    *(f"interpolate --data {{hom_{m}_{n}}} --target omega{k} --mode {mode}{fmt}"
      for m, n in HOMS for k in range(m + 1) for mode in ("fundamental", "csm")
      for fmt in ("", " --format json")),
]


def digest(command: str) -> tuple:
    """(md5 of stdout, exit code) of one CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(command.split())
    return hashlib.md5(out.getvalue().encode("utf-8")).hexdigest(), code


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for m, n in HOMS:
            files[f"hom_{m}_{n}"] = path = os.path.join(tmp, f"hom_{m}_{n}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(hom_orbit_data(m, n), fh)
        for command in COMMANDS:
            md5, code = digest(command.format(**files))
            print(md5, code, command, flush=True)
