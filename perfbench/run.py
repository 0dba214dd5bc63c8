#!/usr/bin/env python3
"""End-to-end benchmark of `tcsm replay`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the program and the harness from source (into `.bench_build/`),
generates the workload for the seed (perfbench/workloads.py), replays it
for S seconds in whole rounds, checks every round's outputs
(perfbench/checks.py), and prints as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json; with --trace 1 they are the
per-layer ledger of a traced run. One operation is one query's match
stream over one replay round.
"""
import argparse
import json
import statistics
import sys

sys.dont_write_bytecode = True

import checks  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402


def harness_args(manifest, seconds, trace):
    args = ["--stream=" + manifest["stream"],
            "--queries=" + ",".join(manifest["queries"]),
            "--window=%d" % manifest["window"],
            "--seconds=%g" % seconds]
    if trace and manifest["plain_queries"]:
        args.append("--plain-queries=" + ",".join(manifest["plain_queries"]))
    if trace:
        args.append("--parallel-threads=%d" % manifest["parallel_threads"])
    return args


def end_to_end(out, rss_bytes):
    """The end-to-end metrics of a measure run.

    Throughput is all events of the run over all replay time, and the
    latency percentiles come from one histogram of every arrival batch of
    every round, so each metric covers the whole run. Set-up time and the
    accounted peak are medians over the rounds, so a cold first open does
    not count."""
    rounds = out["rounds"]

    def per_round(key):
        return [r[key] for r in rounds]

    harness.log("rounds=%d, arrival-latency samples=%d" %
                (len(rounds), out["latency_samples"]))
    return {
        "events_per_sec": {
            "value": sum(per_round("events")) /
                     (sum(per_round("elapsed_ms")) / 1e3),
            "unit": "events/s"},
        "arrival_latency_p50_us": {"value": out["latency_p50_us"],
                                   "unit": "us"},
        "arrival_latency_p99_us": {"value": out["latency_p99_us"],
                                   "unit": "us"},
        "peak_bytes": {"value": statistics.median(per_round("peak_bytes")),
                       "unit": "bytes"},
        "peak_rss_bytes": {"value": rss_bytes, "unit": "bytes"},
        "setup_s": {"value": statistics.median(per_round("setup_ms")) / 1e3,
                    "unit": "s"},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        harness.build()
        manifest = workloads.generate(args.workload, args.seed)
        expected = checks.expected_counts(manifest)
        self_test_failures = checks.self_test(harness.OUT)
        mode = "trace" if args.trace else "measure"
        text, rss = harness.run_output(
            [harness.HARNESS, mode] +
            harness_args(manifest, args.seconds, args.trace))
        out = json.loads(text.strip().splitlines()[-1])
    except (harness.BenchError, OSError, ValueError) as e:
        harness.log("run: %s" % e)
        return 1

    attempted = failed = 0
    for rnd in out["rounds"]:
        attempted += len(rnd["queries"])
        failed += len(checks.check_round(rnd, expected))
    for f in self_test_failures:
        harness.log("checker self-test failed: %s" % f)
    if failed:
        harness.log("%d of %d operations failed their checks" %
                    (failed, attempted))
    metrics = out["metrics"] if args.trace else end_to_end(out, rss)
    for name, m in metrics.items():
        print("%-28s %16.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": failed == 0 and not self_test_failures,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
