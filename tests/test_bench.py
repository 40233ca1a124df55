"""The benchmark's own checks, run as tests.

`bench/run.py --self-test` proves that the benchmark catches a wrong
reference and that tracing sees every layer on the `dims` path; one
worker pass per workload checks every job against its golden reference
and its oracles.  Each runs in a fresh interpreter, as the benchmark
runs it."""

import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _python(*args):
    return subprocess.run([sys.executable, *map(str, args)], cwd=BENCH.parent,
                          capture_output=True, text=True, timeout=300)


def test_benchmark_self_test_passes():
    done = _python(BENCH / "run.py", "--self-test")
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "self-test passed"


@pytest.mark.parametrize("workload", ["tables", "hard_cells", "xi"])
def test_one_worker_pass_checks_out(workload):
    done = _python(BENCH / "worker.py", "--workload", workload, "--seed", 1,
                   "--t-spawn", repr(perf_counter()))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["failures"] == {}
    assert result["wrappers_after"] == 0
    assert len(result["jobs"]) > 0
