#!/usr/bin/env python3
"""Makes a workload's reference counts anew and compares engines.

    python3 perfbench/reference.py --workload NAME --seed N
        [--engines tcm,symbi,local] [--limit-s 600]

replays every query of the workload, one query at a time, with
`tcsm replay --engine=E --json` for each engine (TCM, SymBi-post,
LocalEnum; the baselines share neither TCM's filter nor its pruning), and
prints per-query counts and times next to the expected counts the
benchmark checks against. It exits non-zero when a finished engine
disagrees with the expected counts. LocalEnum can take minutes on
netflow_search.
"""
import argparse
import json
import subprocess
import sys

sys.dont_write_bytecode = True

import checks  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402


def replay(manifest, query, engine, limit_s):
    """One `tcsm replay --json` of one query; returns its summary line.
    Exit code 3 means the time limit stopped the replay."""
    cmd = [harness.TCSM, "replay", manifest["stream"], query,
           "--window=%d" % manifest["window"], "--engine=" + engine,
           "--limit_ms=%d" % (limit_s * 1e3), "--json"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True)
    if proc.returncode not in (0, 3):
        raise harness.BenchError("command failed (%d): %s" %
                                 (proc.returncode, " ".join(cmd)))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--engines", default="tcm,symbi,local")
    ap.add_argument("--limit-s", type=float, default=600,
                    help="per-query time limit of each engine")
    args = ap.parse_args()
    try:
        harness.build()
        manifest = workloads.generate(args.workload, args.seed)
        expected = checks.expected_counts(manifest)
        disagree = 0
        print("%-10s %-8s %10s %14s %14s %s" %
              ("query", "engine", "ms", "occurred", "expired", "verdict"))
        for i, query in enumerate(manifest["queries"]):
            for engine in args.engines.split(","):
                r = replay(manifest, query, engine, args.limit_s)
                q = r["queries"][0]
                if not r["completed"]:
                    verdict = "unfinished"
                elif (q["occurred"], q["expired"]) == tuple(expected[i]):
                    verdict = "agrees"
                else:
                    verdict = "DISAGREES with expected %s" % (expected[i],)
                    disagree += 1
                print("%-10s %-8s %10.1f %14d %14d %s" %
                      (query.rsplit("/", 1)[-1], engine, r["elapsed_ms"],
                       q["occurred"], q["expired"], verdict), flush=True)
    except harness.BenchError as e:
        harness.log("reference: %s" % e)
        return 1
    return 1 if disagree else 0


if __name__ == "__main__":
    sys.exit(main())
