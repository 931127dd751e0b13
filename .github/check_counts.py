"""Diffs exact counts of a benchmark pass against BENCH_counts.json.

usage: check_counts.py RESULTS BENCH_counts.json NAME...

RESULTS is the benchmark's stdout; its result lines come last, one per
workload, in the order ingest, trickle, query_aged, mixed_2t. Only the three
single-writer workloads are compared: mixed_2t's client thread makes its
counts depend on scheduling. Each NAME must equal the pinned value
`<workload>.<NAME>` exactly.
"""
import json
import sys

results_path, counts_path, *names = sys.argv[1:]
results = [json.loads(l) for l in open(results_path) if l.startswith('{"correct"')]
want = {
    k: v
    for k, v in json.load(open(counts_path))["metrics"].items()
    if k.split(".", 1)[1] in names
}
got = {
    f"{workload}.{name}": result["metrics"][name]["value"]
    for workload, result in zip(["ingest", "trickle", "query_aged"], results)
    for name in names
}
if got != want:
    moved = {
        k: (want.get(k), got.get(k))
        for k in want.keys() | got.keys()
        if want.get(k) != got.get(k)
    }
    sys.exit(f"counts differ from {counts_path} (want, got): {moved}")
