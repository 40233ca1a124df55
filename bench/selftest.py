"""Self-test of the benchmark itself: `python3 bench/run.py --self-test`.

Shows, on a few cheap `tables` jobs, that
  * a deliberately wrong reference makes fail_ratio > 0 and the run
    exit nonzero, so the checks cannot pass vacuously;
  * an untraced pass installs no wrapper;
  * a traced pass patches every layer, then leaves every patched slot
    holding its original object, and its counts repeat exactly;
  * the Broadhurst-Kreimer oracle gives the predicted dimensions;
  * the metric names match BENCHMARK.json.
"""

from __future__ import annotations

import json

import run
import worker

JOBS = ["dims:%s:n=%d" % (s, n) for s in ("ls", "lkv", "krv_ell", "ds_ell")
        for n in (7, 8)]
WRONG = "dims:ls:n=8"

# Broadhurst-Kreimer predictions as listed in ROADMAP.md (nonzero cells,
# depth >= 2, n <= 20); depth 1 is 1 at every odd n >= 3.
BK_LISTED = {
    2: {8: 1, 10: 1, 12: 1, 14: 2, 16: 2, 18: 2, 20: 3},
    3: {11: 1, 13: 2, 15: 2, 17: 4, 19: 5},
    4: {12: 1, 14: 1, 16: 3, 18: 5, 20: 7},
}


def _counts(layers):
    return {k: v[0] for k, v in layers.items()
            if v[1] in ("count", "bits") or k.endswith("_ratio")}


def main():
    runner = run.Runner("tables", 0)
    results = []

    def expect(name, ok, detail=""):
        results.append(ok)
        print("%s  %s%s" % ("PASS" if ok else "FAIL", name,
                            "  (%s)" % detail if detail else ""))

    wrong = runner.spawn("--only", *JOBS, "--corrupt-reference", WRONG)
    failed = run.failures([wrong])
    ratio = len(failed) / run.attempted([wrong])
    expect("wrong reference is caught", ratio > 0
           and list(wrong["failures"]) == [WRONG],
           "fail_ratio=%.3f, failed=%s" % (ratio, list(wrong["failures"])))

    plain = runner.spawn("--only", *JOBS)
    expect("correct references pass", not plain["failures"],
           str(plain["failures"]))
    expect("untraced pass installs no wrapper",
           plain["wrappers_after"] == 0 and "layers" not in plain)

    traced = [runner.spawn("--only", *JOBS, "--trace") for _ in range(2)]
    t = traced[0]
    expect("traced pass patches the package",
           t["patched_slots"] > 50 and t["wrappers_while_traced"] > 50,
           "%d slots" % t["patched_slots"])
    expect("every patched slot holds its original again",
           all(x["restored"] and x["wrappers_after"] == 0 for x in traced))
    expect("traced pass checks out", not any(x["failures"] for x in traced))
    a, b = _counts(traced[0]["layers"]), _counts(traced[1]["layers"])
    expect("layer counts repeat exactly", a == b,
           str({k: (a[k], b.get(k)) for k in a if a[k] != b.get(k)}))
    busy = [layer for layer in ("poly", "linalg", "words", "mould", "spaces",
                                "cli")
            if t["layers"][layer + ".share"][0] <= 0]
    expect("every layer on the dims path is seen", not busy, str(busy))

    worker._import_package()
    import workloads
    bk = workloads.BK
    listed = {(n, r): v for r, row in BK_LISTED.items() for n, v in row.items()}
    listed.update({(n, 1): 1 for n in range(3, 21, 2)})
    expect("Broadhurst-Kreimer oracle matches the listed predictions",
           all(bk[k] == listed.get(k, 0) for k in bk))

    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    layer_names = set(t["layers"]) | {"trace.overhead_ratio"}
    expect("metric names match BENCHMARK.json",
           [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
           and {m["name"] for m in spec["per_layer"]} == layer_names
           and [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS))
    print("self-test %s" % ("passed" if all(results) else "FAILED"))
    return 0 if all(results) else 1
