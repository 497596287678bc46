"""The benchmark's jobs run against the package as it stands.

perfbench/job.py calls the library by name and keyword (run_axiom_suite
and Expander with jobs=, the conjecture wrappers, an Expander on the
one-parameter torus, solve_csm), and with --trace install_spans reads
every name it wraps.  One job of each workload, and one traced job, run
here in their own interpreters, so that renaming or deleting one of
those names fails this test rather than the benchmark.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload, trace", [
    ("fl4-axioms", False), ("fl4-conjectures", False), ("fl5-noneq", False),
    ("quiver-csm", False), ("quiver-csm", True)],
    ids=["fl4-axioms", "fl4-conjectures", "fl5-noneq", "quiver-csm", "quiver-csm-traced"])
def test_benchmark_job_runs(workload, trace):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, "perfbench/job.py", "--workload", workload, "--item", "0"]
    done = subprocess.run(cmd + (["--trace"] if trace else []), cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    record = json.loads(done.stdout.splitlines()[-1])
    assert "output" in record
    if trace:
        assert record["names"] and record["spans"]
