"""One measured process: set up, run one pass of a workload, check it.

Started by `run.py` in a fresh interpreter for every pass, so neither
the package's caches nor the heap left by one pass reach the next.
Prints one JSON object on its last line of standard output.

  python3 bench/worker.py --workload xi --seed 1 --t-spawn <perf_counter>
      [--trace] [--setup-only] [--only JOB ...] [--corrupt-reference JOB]

`--t-spawn` is the parent's `time.perf_counter()` just before it
started this process; set-up time is measured from there to the first
timed job (interpreter start, imports, input generation, references,
cache warming).  `--only` and `--corrupt-reference` serve the
self-test.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import moulde
    where = Path(moulde.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError("moulde imported from %s, not from %s"
                          % (where, ROOT / "src"))


def normal_json(value):
    return json.loads(json.dumps(value))


def check_outputs(jobs, outputs, errors, refs):
    """Failure text per job id (absent: the job passed)."""
    failures = {}
    for job in jobs:
        if job.id in errors:
            failures[job.id] = errors[job.id]
            continue
        out = outputs[job.id]
        try:
            if job.digest is not None:
                if job.id not in refs:
                    failures[job.id] = "no reference"
                    continue
                if normal_json(job.digest(out)) != refs[job.id]:
                    failures[job.id] = "differs from the reference"
                    continue
            if job.oracle is not None:
                err = job.oracle(out, outputs)
                if err:
                    failures[job.id] = err
        except Exception as e:  # a broken output fails its job only
            failures[job.id] = "check raised %s: %s" % (type(e).__name__, e)
    return failures


def main(argv=None):
    try:
        return _main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _main(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--only", nargs="*")
    ap.add_argument("--corrupt-reference")
    args = ap.parse_args(argv)

    import speed
    import tracer as tracing
    tracer = tracing.Tracer() if args.trace else None
    speedo = speed.Speedometer(tracer.exclude if tracer else None)
    speedo.start()
    first_sample = speedo.mark()
    _import_package()
    import workloads

    with open(BENCH / "golden" / ("%s.json" % args.workload)) as fh:
        refs = json.load(fh)
    if args.corrupt_reference:
        refs[args.corrupt_reference] = "deliberately wrong reference"

    if tracer:
        # layer shares are of the traced time, set-up included
        traced_from = perf_counter()
        tracer.install()
        tracer.job = "setup"
        setup_span = tracer.open_span("setup")
    jobs = workloads.build(args.workload, args.seed)
    if args.only:
        jobs = [j for j in jobs if j.id in args.only]
    if tracer:
        tracer.close_span(setup_span)

    t_first = perf_counter()
    result = {"setup_s": t_first - args.t_spawn - speedo.cost_s}
    result["setup_ref_s"] = result["setup_s"] * speedo.factor(
        first_sample, speedo.mark())
    if args.setup_only:
        result["peak_rss_mib"] = _peak_rss_mib()
        print(json.dumps(result))
        return 0

    outputs, errors, latency, latency_ref = {}, {}, {}, {}
    for job in jobs:
        if tracer:
            tracer.job = job.id
            sid = tracer.open_span("job")
        before = speedo.mark()
        cost = speedo.cost_s
        t0 = perf_counter()
        try:
            outputs[job.id] = job.run()
        except Exception:
            errors[job.id] = traceback.format_exc(limit=-3)
        # the sampling done inside the job is not the job's time
        latency[job.id] = perf_counter() - t0 - (speedo.cost_s - cost)
        if tracer:
            tracer.close_span(sid)
        latency_ref[job.id] = latency[job.id] * speedo.factor(
            before, speedo.mark())
    result["wall_s"] = perf_counter() - t_first
    result["jobs"] = [[j.id, latency[j.id], latency_ref[j.id]] for j in jobs]

    if tracer:
        busy = perf_counter() - traced_from
        result["layers"] = {k: list(v) for k, v in
                            tracing.layer_metrics(tracer, busy).items()}
        result["spans"] = tracer.spans
        result["patched_slots"] = len(tracer.undo)
        result["wrappers_while_traced"] = tracing.find_wrappers()
        result["restored"] = tracer.uninstall()
    # checked once any wrappers are gone, outside the timed region
    result["failures"] = check_outputs(jobs, outputs, errors, refs)
    result["peak_rss_mib"] = _peak_rss_mib()
    result["wrappers_after"] = tracing.find_wrappers()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
