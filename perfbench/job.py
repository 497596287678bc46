"""Run one benchmark job in a fresh interpreter and print its record.

    PYTHONPATH=src python3 perfbench/job.py --workload fl4-conjectures --item 0 [--trace]

A job is what one invocation of an mcclass subcommand computes, called
through the same library functions the subcommand calls, with jobs=1,
from a freshly built state.  The last line of standard output is one
JSON object: wall and CPU seconds of the job (imports excluded), the
process's peak resident set, the job's output in plain JSON for the
independent checks in checks.py, and with --trace the spans recorded
around the calls into each module.

Spans are recorded from this file only: each wraps a module's public
function as the calling module sees it, by rebinding that name in the
calling module.  Nothing is patched unless --trace is given.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

# Each workload's round: the fixed list of jobs that a run repeats whole.
ROUNDS = {
    "fl4-axioms": [4],
    "fl4-conjectures": [4],
    "fl5-noneq": [(1, 2, 3, 4, 5), (1, 3, 2, 4, 5)],
    "quiver-csm": ["omega0", "omega1", "omega2"],
}

# The modules each workload's subcommand imports before it computes.
SUBCOMMAND_MODULES = {
    "fl4-axioms": ("mcclass.cli", "mcclass.axioms"),
    "fl4-conjectures": ("mcclass.cli", "mcclass.expand"),
    "fl5-noneq": ("mcclass.cli", "mcclass.expand"),
    "quiver-csm": ("mcclass.cli", "mcclass.interp"),
}


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class Tracer:
    """Spans kept in memory as [name id, parent index, start ns, end ns]."""

    def __init__(self):
        self.names: list = []
        self.spans: list = []
        self.stack: list = [-1]
        self.counters: dict = {}
        self.solver_systems: list = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def span(self, name: str, fn, on_result=None):
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            rec = [nid, stack[-1], clock(), 0]
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[3] = clock()
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def count(self, name: str, fn):
        counters = self.counters
        counters.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def bump(self, name: str, by: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + by


def install_spans(tracer: Tracer) -> None:
    import mcclass.axioms as axioms
    import mcclass.expand as expand
    import mcclass.newton as newton
    import mcclass.ring as ring
    import mcclass.weightfn as weightfn

    mul = tracer.span("ring.mul", ring.LaurentPoly.__mul__)
    ring.LaurentPoly.__mul__ = mul
    ring.LaurentPoly.__rmul__ = mul

    divide = tracer.span("ring.exact_divide", ring.exact_divide)
    for module in (weightfn, expand, axioms):
        module.exact_divide = divide

    def note_zero(args, result):
        if result.is_zero():
            tracer.bump("weightfn.restriction_direct.zero")

    weightfn.restriction_direct = tracer.span(
        "weightfn.restriction_direct", weightfn.restriction_direct, note_zero)

    table = tracer.span("weightfn.recursive_table", weightfn.full_flag_table_recursive)
    weightfn.full_flag_table_recursive = table
    expand.full_flag_table_recursive = table
    weightfn.descent_step = tracer.count("weightfn.descent_step.calls",
                                         weightfn.descent_step)

    expand.structure_sheaf_rows = tracer.span("expand.basis_rows",
                                              expand.structure_sheaf_rows)
    expand.expand_by_solve = tracer.span("expand.solve", expand.expand_by_solve)
    expand.substitute_s_delta = tracer.span("expand.s_delta", expand.substitute_s_delta)

    axioms.check_smallness_strict = tracer.span("axioms.smallness",
                                                axioms.check_smallness_strict)
    for name in ("check_normalization", "check_support", "check_divisibility",
                 "check_additivity", "check_segre_consistency"):
        setattr(axioms, name, tracer.span("axioms.other_checks", getattr(axioms, name)))

    newton.contains_point = tracer.span("newton.contains_point", newton.contains_point)


# ---------------------------------------------------------------------------
# Jobs: each returns a thunk that turns the result into plain JSON, so
# that serialization stays outside the timed region.
# ---------------------------------------------------------------------------


def _poly_terms(p) -> list:
    return [[list(e), list(c)] for e, c in p.sorted_terms()]


def _expansions_json(expansions) -> list:
    return [{"p": list(e.p.word),
             "coeffs": [{"w": list(w.word), "terms": _poly_terms(c)}
                        for w, c in e.sorted_items()]}
            for e in expansions]


def _report_json(report) -> list:
    return [{"pair": list(e.pair), "check": e.check, "pass": e.ok}
            for e in report.entries]


def job_axioms(n, tracer):
    """axioms --n n"""
    from mcclass.axioms import run_axiom_suite
    report = run_axiom_suite(n, jobs=1)
    return lambda: {"entries": _report_json(report)}


def job_conjectures(n, tracer):
    """conjectures --n n (all three reports)"""
    from mcclass.expand import (Expander, check_log_concavity, check_s_delta_signs,
                                check_sign_conjecture)
    expander = Expander(n, jobs=1)
    reports = [check_sign_conjecture(n, expander),
               check_log_concavity(n, jobs=1),
               check_s_delta_signs(n, expander)]
    return lambda: {"reports": [_report_json(r) for r in reports],
                    "expansions": _expansions_json(expander.expansions.values())}


def job_expand_nonequivariant(word, tracer):
    """expand --n 5 --p <word> --nonequivariant"""
    from mcclass.combi import Permutation
    from mcclass.expand import Expander, specialize_nonequivariant
    from mcclass.weightfn import TorusSpecialization
    n = len(word)
    ex = Expander(n, TorusSpecialization.one_parameter(n), jobs=1)
    e = ex.expand(Permutation(word))
    printed = specialize_nonequivariant(e)
    return lambda: {"expansions": _expansions_json([e]),
                    "specialized": [{"w": list(w.word), "y": list(c)}
                                    for w, c in sorted(printed.items(),
                                                       key=lambda kv: kv[0].word)]}


def job_csm(target, tracer):
    """interpolate --mode csm --target <target> (bundled A2 quiver)"""
    from importlib.resources import files

    from mcclass.interp import OrbitProblem, solve_csm, solve_unique_fractions
    solver = solve_unique_fractions
    if tracer is not None:
        solver = tracer.span("interp.solver", solver,
                             lambda args, result: tracer.solver_systems.append(args))
        solve_csm = tracer.span("interp.build", solve_csm)
    data = files("mcclass.data").joinpath("a2quiver.json").read_text(encoding="utf-8")
    problem = OrbitProblem.from_json(json.loads(data))
    sol = solve_csm(problem, target, solver=solver)
    return lambda: {"target": target,
                    "csm": [list(t) for t in sol.expansion.coeffs],
                    "fundamental": [list(t) for t in sol.fundamental.coeffs],
                    "lowest_matches_fundamental": sol.lowest_matches_fundamental}


JOBS = {
    "fl4-axioms": job_axioms,
    "fl4-conjectures": job_conjectures,
    "fl5-noneq": job_expand_nonequivariant,
    "quiver-csm": job_csm,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(JOBS))
    ap.add_argument("--item", type=int, required=True,
                    help="index of the job in the workload's round")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    for module in SUBCOMMAND_MODULES[args.workload]:
        __import__(module)
    tracer = None
    run = JOBS[args.workload]
    if args.trace:
        tracer = Tracer()
        install_spans(tracer)
        run = tracer.span("job", run)
    item = ROUNDS[args.workload][args.item]

    t0, c0 = time.perf_counter(), time.process_time()
    output = run(item, tracer)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    record = {"wall_s": wall, "cpu_s": cpu, "rss_kb": rss_kb, "output": output()}
    if tracer is not None:
        for rows, rhs in tracer.solver_systems:
            tracer.bump("interp.system.rows", len(rows))
            tracer.bump("interp.system.distinct_rows",
                        len({tuple(r) + (b,) for r, b in zip(rows, rhs)}))
            tracer.bump("interp.system.cols", len(rows[0]) if rows else 0)
        record["names"] = tracer.names
        record["spans"] = tracer.spans
        record["counters"] = tracer.counters
    sys.stdout.write(json.dumps(record, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
