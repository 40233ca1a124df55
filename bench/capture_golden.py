"""Write the reference outputs in `bench/golden/` from the package as it
stands.  Every oracle must pass first, so a wrong answer is never kept.

  python3 bench/capture_golden.py [workload ...]

Re-capture only in a change that is meant to alter outputs, and say so.
"""

from __future__ import annotations

import json
import sys

import worker


def capture(name):
    import workloads

    jobs = workloads.build(name, 0)
    outputs = {j.id: j.run() for j in jobs}
    refs = {j.id: worker.normal_json(j.digest(outputs[j.id]))
            for j in sorted(jobs, key=lambda j: j.id) if j.digest is not None}
    failures = worker.check_outputs(jobs, outputs, {}, refs)
    if failures:
        raise SystemExit("oracle failures, nothing written: %s" % failures)
    path = worker.BENCH / "golden" / ("%s.json" % name)
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %d references to %s" % (len(refs), path))


def main(argv):
    worker._import_package()
    import workloads
    for name in argv or workloads.WORKLOADS:
        capture(name)


if __name__ == "__main__":
    main(sys.argv[1:])
