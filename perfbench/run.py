"""End-to-end and per-layer benchmark of the mcclass subcommands.

    python3 perfbench/run.py --workload fl4-conjectures --seed 1 --seconds 8 --trace 0

Runs from the root of a source checkout and imports the program from
src/.  A run repeats whole rounds of the workload's fixed job list
(job.ROUNDS) until --seconds have passed, one job at a time, each in a
fresh interpreter with jobs=1.  Every output is checked by checks.py
outside the timed region, and the checks are self-tested on corrupted
copies of the run's own outputs.

--trace 0 prints the end-to-end metrics of BENCHMARK.json: median job
wall and CPU time, median peak resident set of the job's process, and
the median time from starting an interpreter until the subcommand's
modules are imported.  --trace 1 adds one traced round after the
untraced ones and prints the per-layer metrics of that round.

The inputs are fixed by n, the chosen cells and the bundled quiver
data; --seed is accepted and recorded but changes no input.  The last
line of standard output is the result object; it is also written to
perfbench/out/, with the spans of a traced round.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from checks import check_round, self_test
from job import ROUNDS, SUBCOMMAND_MODULES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 9
JOB_TIMEOUT_S = 170


def child_env() -> dict:
    """The program from src/, with its bytecode cached under perfbench/out/
    as an installed package would have it, whatever the caller's settings."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(OUT, "pycache")
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(workload: str) -> float:
    """Median seconds from spawning an interpreter until the subcommand's
    modules are imported; one unmeasured spawn first fills the bytecode
    cache, which users do not pay for on every invocation."""
    code = ("import time\nimport " + ", ".join(SUBCOMMAND_MODULES[workload])
            + "\nprint(time.clock_gettime(time.CLOCK_MONOTONIC))")
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=JOB_TIMEOUT_S,
                              check=True)
        if k:
            samples.append(float(done.stdout.split()[-1]) - t0)
    return statistics.median(samples)


def run_job(workload: str, item: int, trace: bool):
    """The job's record, or None when the job failed."""
    cmd = [sys.executable, os.path.join(HERE, "job.py"),
           "--workload", workload, "--item", str(item)] + (["--trace"] if trace else [])
    try:
        done = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"job {workload}[{item}] timed out", file=sys.stderr)
        return None
    if done.returncode != 0:
        print(f"job {workload}[{item}] exited {done.returncode}:\n{done.stderr}",
              file=sys.stderr)
        return None
    return json.loads(done.stdout.splitlines()[-1])


def run_round(workload: str, trace: bool) -> list:
    return [run_job(workload, item, trace) for item in range(len(ROUNDS[workload]))]


def layer_totals(records: list) -> dict:
    """Per-layer figures summed over records: X.calls is the number of
    spans named X, X.s their self time (duration minus the child spans
    inside them), and every counter as counted."""
    totals: dict = {}
    for rec in records:
        names, spans = rec["names"], rec["spans"]
        child_ns = [0] * len(spans)
        for name_id, parent, start, end in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for (name_id, _parent, start, end), inner in zip(spans, child_ns):
            name = names[name_id]
            totals[name + ".calls"] = totals.get(name + ".calls", 0) + 1
            totals[name + ".s"] = totals.get(name + ".s", 0.0) + (end - start - inner) / 1e9
        for name, value in rec["counters"].items():
            totals[name] = totals.get(name, 0) + value
    return totals


def write_out(name: str, obj) -> None:
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(obj, fh, separators=(",", ":"))
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(ROUNDS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mcclass", "__init__.py")):
        print(f"error: no mcclass sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    setup_s = None if args.trace else measure_setup(args.workload)
    rounds = []
    start = time.monotonic()
    while not rounds or time.monotonic() - start < args.seconds:
        rounds.append(run_round(args.workload, trace=False))
    traced = run_round(args.workload, trace=True) if args.trace else None

    records = [r for rnd in rounds + [traced or []] for r in rnd]
    attempted = len(records)
    failed = sum(1 for r in records if r is None)
    problems = []
    checked = [rnd for rnd in rounds + [traced or []] if rnd and None not in rnd]
    for rnd in checked:
        problems += check_round(args.workload, [r["output"] for r in rnd])
    for problem in sorted(set(problems)):
        print(f"check failed: {problem}", file=sys.stderr)
    if checked:
        missed = self_test(args.workload, [r["output"] for r in checked[0]])
        if missed:
            print(f"self-test failed: the checks accept {', '.join(missed)}", file=sys.stderr)
            return 3

    untraced = [r for rnd in rounds for r in rnd if r is not None]
    if not untraced or (traced is not None and None in traced):
        print("error: no untraced job completed, or a traced one failed", file=sys.stderr)
        return 1
    if args.trace:
        totals = layer_totals(traced)
        totals["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - statistics.median(r["wall_s"] for r in untraced))
        metrics = {m["name"]: {"value": totals.get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
        write_out(f"trace-{args.workload}.json",
                  {"workload": args.workload, "seed": args.seed,
                   "jobs": [{k: r[k] for k in ("wall_s", "names", "spans", "counters")}
                            for r in traced]})
    else:
        values = {"job_s": statistics.median(r["wall_s"] for r in untraced),
                  "job_cpu_s": statistics.median(r["cpu_s"] for r in untraced),
                  "peak_rss_mb": statistics.median(r["rss_kb"] / 1024 for r in untraced),
                  "setup_s": setup_s}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    write_out(f"result-{args.workload}-trace{args.trace}.json",
              {"seed": args.seed, "seconds": args.seconds, "jobs": len(untraced),
               **result})
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
