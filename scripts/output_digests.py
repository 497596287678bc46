#!/usr/bin/env python3
"""Print `md5 exit command` for a fixed list of CLI calls.

    PYTHONPATH=src python scripts/output_digests.py > digests.txt

Each call runs in this process through mcclass.cli.main; the digest is
the md5 of what it writes to stdout.  Two trees whose outputs should be
byte-identical give identical listings, so a `diff` of the two listings
is the check.  The list holds the golden commands, global weight
functions, restricted tables, axioms, expansions, conjectures and the
bundled interpolation outputs; it takes about a minute on one core.
"""

import contextlib
import hashlib
import io

from mcclass.cli import main

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
]


def digest(command: str) -> tuple:
    """(md5 of stdout, exit code) of one CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(command.split())
    return hashlib.md5(out.getvalue().encode("utf-8")).hexdigest(), code


if __name__ == "__main__":
    for command in COMMANDS:
        md5, code = digest(command)
        print(md5, code, command, flush=True)
