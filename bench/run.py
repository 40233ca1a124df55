"""The moulde benchmark: one command that checks and measures a workload.

  python3 bench/run.py --workload tables --seed 1 --seconds 30 --trace 0
  python3 bench/run.py --self-test

Workloads (see `workloads.py`):
  tables      the paper's dimension tables, one `moulde dims` row per job
  hard_cells  solve_ls(10,4), solve_ls(15,3), solve_lkv(10,4), solve_vkrv(8)
  xi          w_krv_gate, verify_xi_image, krv_section, linearity of xi

A run repeats passes over the workload's jobs for `--seconds`, at
least MIN_PASSES times.  Every pass is a fresh interpreter
(`worker.py`) that sets up, runs each job once and exits; processes run
one at a time, so no cache or heap of the package outlives a pass and
peak memory belongs to one workload.

Timings are in seconds at the reference speed of `speed.py`: other
tenants of a shared machine slow a whole run down by up to 2x, so
each job's latency is scaled by how fast a fixed reference loop ran
around and during it.  A job's latency is the median over the run's
passes; `wall_s` is the sum over the workload's jobs, the time of one
pass.  Set-up is measured in every pass process (plus set-up-only
processes up to SETUP_SAMPLES) and reported as the median.  The raw
wall-clock figures are kept beside them in the record.

`--trace 0` prints the end-to-end metrics of untraced passes.
`--trace 1` makes one untraced and one traced pass and prints the
per-layer metrics, including the tracing overhead.  Every job is
checked against its reference and oracles; the last line of standard
output is one JSON object, and the exit code is 1 when any job failed
and 2 when the benchmark could not run.  The full record (job
latencies, quartiles, spans of the traced pass, machine) is written
to `.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("tables", "hard_cells", "xi")
MIN_PASSES = 2
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
END_TO_END = ("wall_s", "job_p50_s", "job_tail_s", "peak_rss_mib",
              "setup_s")


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.deadline = perf_counter() + DEADLINE_S

    def spawn(self, *extra):
        env = dict(os.environ, PYTHONHASHSEED="0")
        env.pop("MOULDE_THREADS", None)
        remaining = self.deadline - perf_counter()
        if remaining <= 0:
            raise BenchError("time budget of %.0f s spent" % DEADLINE_S)
        cmd = [sys.executable, str(BENCH / "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed)]
        cmd += list(extra) + ["--t-spawn", repr(perf_counter())]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, text=True,
                                  capture_output=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError("a pass ran past the time budget")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError("worker exited %d:\n%s"
                             % (proc.returncode, proc.stderr[-2000:]))
        return json.loads(lines[-1])


def summary(values):
    """Sample count, median and quartiles."""
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"samples": len(values), "median": statistics.median(values),
            "q1": q[0], "q3": q[2]}


def tail(values):
    """The highest percentile with at least ten samples beyond it; the
    maximum when there are too few samples for that."""
    s = sorted(values)
    if len(s) > 10:
        return s[-11], 100.0 * (len(s) - 10) / len(s), 10
    return s[-1], 100.0, 0


def end_to_end(passes, setups):
    per_job = {}
    for p in passes:
        for job_id, raw, ref in p["jobs"]:
            per_job.setdefault(job_id, []).append((ref, raw))
    lat = [statistics.median(ref for ref, _ in v) for v in per_job.values()]
    raw = [statistics.median(r for _, r in v) for v in per_job.values()]
    value, pct, beyond = tail(lat)
    return {
        "wall_s": (sum(lat), "s", {
            "passes": len(passes), "raw_s": sum(raw),
            "raw_pass_wall_s": summary([p["wall_s"] for p in passes])}),
        "job_p50_s": (statistics.median(lat), "s", dict(
            summary(lat), raw_s=statistics.median(raw))),
        "job_tail_s": (value, "s", {"samples": len(lat), "percentile": pct,
                                    "samples_beyond": beyond}),
        "setup_s": (statistics.median(r for r, _ in setups), "s", dict(
            summary([r for r, _ in setups]),
            raw_s=statistics.median(r for _, r in setups))),
    }


def failures(passes):
    return ["pass %d %s: %s" % (i, job_id, err)
            for i, p in enumerate(passes)
            for job_id, err in p["failures"].items()]


def attempted(passes):
    return sum(len(p["jobs"]) for p in passes)


def git_commit():
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = ROOT / ".git" / ref
            if path.exists():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return head
    except OSError:
        return "unknown (not a git checkout)"


def machine():
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "git_commit": git_commit()}


def measure(workload, seed, seconds, trace):
    runner = Runner(workload, seed)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "machine": machine()}
    problems = []
    if trace:
        plain = runner.spawn()
        traced = runner.spawn("--trace")
        passes = [plain, traced]
        metrics = {k: (v[0], v[1], None)
                   for k, v in traced["layers"].items()}
        metrics["trace.overhead_ratio"] = (
            sum(j[2] for j in traced["jobs"])
            / sum(j[2] for j in plain["jobs"]), "ratio", None)
        if not traced["restored"] or traced["wrappers_while_traced"] == 0:
            problems.append("tracing wrappers were not installed and "
                            "removed cleanly")
        record["spans"] = {"fields": ["id", "parent", "job", "name",
                                      "start_s", "end_s"],
                           "spans": traced.pop("spans")}
    else:
        passes, t0 = [], perf_counter()
        while len(passes) < MIN_PASSES or perf_counter() - t0 < seconds:
            passes.append(runner.spawn())
        probes = [runner.spawn("--setup-only")
                  for _ in range(SETUP_SAMPLES - len(passes))]
        metrics = end_to_end(passes, [(p["setup_ref_s"], p["setup_s"])
                                      for p in passes + probes])
        metrics["peak_rss_mib"] = (max(p["peak_rss_mib"] for p in passes),
                                   "MiB", {"samples": len(passes)})
        metrics = {k: metrics[k] for k in END_TO_END}
    if any(p["wrappers_after"] for p in passes):
        problems.append("a tracing wrapper was left in the package")
    failed = failures(passes)
    record.update(
        attempted=attempted(passes), failed=len(failed), failures=failed,
        fail_ratio=len(failed) / attempted(passes), problems=problems,
        metrics={k: dict({"value": v, "unit": u}, **(extra or {}))
                 for k, (v, u, extra) in metrics.items()},
        passes=[{k: p[k] for k in ("setup_s", "wall_s", "peak_rss_mib",
                                   "jobs")} for p in passes])
    return record


def report(record):
    print("moulde benchmark: workload=%s seed=%d trace=%d python=%s "
          "nproc=%d commit=%s" % (
              record["workload"], record["seed"], record["trace"],
              record["machine"]["python"], record["machine"]["nproc"],
              record["machine"]["git_commit"][:12]))
    for name, m in record["metrics"].items():
        extra = ", ".join("%s=%s" % (k, _fmt(v)) for k, v in m.items()
                          if k not in ("value", "unit"))
        print("  %-28s %14s %-6s %s" % (name, _fmt(m["value"]), m["unit"],
                                        extra))
    print("  %-28s %14s %-6s attempted=%d failed=%d" % (
        "fail_ratio", _fmt(record["fail_ratio"]), "ratio",
        record["attempted"], record["failed"]))
    for line in record["failures"] + record["problems"]:
        print("  FAILED " + line.splitlines()[-1])


def _fmt(v):
    return "%.6g" % v if isinstance(v, float) else str(v)


def write_record(record):
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / ("%s-seed%d-trace%d.json" % (
        record["workload"], record["seed"], record["trace"]))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    return path


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if args.self_test:
        import selftest
        return selftest.main()
    if not args.workload:
        ap.error("--workload is required")
    # on SIGTERM, unwind so that subprocess.run kills and reaps the pass
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        record = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as e:
        print("benchmark could not run: %s" % e, file=sys.stderr)
        return 2
    report(record)
    print("  record: %s" % write_record(record).relative_to(ROOT))
    correct = not record["failures"] and not record["problems"]
    print(json.dumps({
        "correct": correct, "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in record["metrics"].items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
