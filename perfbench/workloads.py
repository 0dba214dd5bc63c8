#!/usr/bin/env python3
"""Seeded workload generator of the benchmark.

    python3 perfbench/workloads.py --seed 1 [--workload NAME]

writes each workload's stream and queries to
`.bench_build/work/<workload>/seed-<seed>/` and prints the manifest paths.
Streams come from `tcsm gen`, generated queries from `tcsm gen-query`;
the program sees only these files. The same seed gives the same files.

netflow_search and fanout replay one fixed input each, whatever the seed:
the stream of `tcsm gen ... --seed=1` and the queries listed, with their
reference counts, in `<workload>.json`, which
`python3 perfbench/workloads.py --pick <workload>` wrote once. Their
arrival-latency tail depends on which queries are replayed by up to 2x,
more than any bound of the benchmark allows, and random-walk queries have
heavy-tailed cost (README.md, "Workloads"). label_churn and absence take
their stream from the seed.
"""
import argparse
import json
import os
import sys

sys.dont_write_bytecode = True

import harness  # noqa: E402

# Every parameter of a workload. README.md explains the choices.
WORKLOADS = {
    "netflow_search": {
        "gen": ["netflow", "--window=1000", "--format=binary"],
        "window": 1000,
        # Queries chosen once by --pick and committed: on the stream of
        # stream_seed, the first `count` candidates whose TCM search visits
        # between tcm_min_nodes and tcm_max_nodes nodes and which the
        # reference engine, sharing neither the TC filter nor the pruning,
        # finishes within max_nodes search nodes and max_calls sink calls.
        "picked": {
            "file": "netflow_search.json", "stream_seed": 1, "size": 9,
            "density": 0.5, "candidates": 400, "count": 8,
            "tcm_min_nodes": 150_000, "tcm_max_nodes": 350_000,
            "reference": "symbi",
            "max_nodes": 10_000_000, "max_calls": 10_000_000,
        },
    },
    "label_churn": {
        "gen": ["random", "--vertices=500", "--edges=120000", "--vlabels=1",
                "--elabels=400", "--window=200"],
        "window": 200,
        "fixed_query": "t 2 1 undirected\nv 0 0\nv 1 0\ne 0 0 1 226\n",
        "check": "label_churn",
    },
    "fanout": {
        "gen": ["random", "--vertices=4000", "--edges=60000", "--vlabels=8",
                "--elabels=4", "--parallel=2", "--coalesce=8",
                "--window=250", "--format=binary"],
        "window": 250,
        # Every workload replays serially; the traced run of this one also
        # replays at 2 threads (exec.parallel_*). On a shared machine the
        # parallel path is too unsteady to carry the end-to-end metrics
        # (README.md).
        "parallel_threads": 2,
        "picked": {
            "file": "fanout.json", "stream_seed": 1, "size": 4,
            "density": 0.5, "candidates": 64, "count": 16,
            "tcm_min_nodes": 0, "tcm_max_nodes": 2_000_000,
            "reference": "local",
            "max_nodes": 20_000_000, "max_calls": 20_000_000,
        },
    },
    "absence": {
        "gen": ["random", "--vertices=300", "--edges=60000", "--elabels=2",
                "--directed", "--window=2000", "--format=binary"],
        "window": 2000,
        # Edge label 0 from u0 to u1, and no label-1 edge back from u1 to
        # u0 within 1900 time units of the completion.
        "fixed_query": "t 2 1 directed\nv 0 0\nv 1 0\ne 0 0 1 0\n"
                       "n 1 0 1 1900\n",
        "check": "absence",
        "absence_delta": 1900,
    },
}


def workdir(name, seed):
    return os.path.join(harness.WORK, name, "seed-%d" % seed)


def _screen(stream, window, cands, engine, max_nodes, max_calls):
    """Runs the harness's screen mode over `cands`; returns its verdict on
    each, in order."""
    out, _ = harness.run_output(
        [harness.HARNESS, "screen", "--stream=" + stream,
         "--window=%d" % window, "--candidates=" + ",".join(cands),
         "--engine=" + engine, "--max-nodes=%d" % max_nodes,
         "--max-calls=%d" % max_calls])
    return json.loads(out.strip().splitlines()[-1])["candidates"]


def _gen_query(stream, path, q, window, seed):
    harness.run_checked(
        [harness.TCSM, "gen-query", stream, path, "--size=%d" % q["size"],
         "--density=%g" % q["density"], "--window=%d" % window,
         "--seed=%d" % seed], quiet=True)


def _gen_stream(spec, path, seed):
    harness.run_checked([harness.TCSM, "gen"] + spec["gen"][:1] + [path] +
                        spec["gen"][1:] + ["--seed=%d" % seed])


def _candidates(spec, q, d, stream, stream_seed, keep):
    """Generates candidates in chunks, candidate i with gen-query seed
    stream_seed * 1000 + i, and passes each chunk to `keep`, which returns
    the screen's entries of the ones it keeps. Returns the first `count`
    kept, in candidate order, each with its gen-query seed."""
    kept = []
    chunk = 16
    for first in range(0, q["candidates"], chunk):
        seeds = {}
        for i in range(first, min(first + chunk, q["candidates"])):
            path = os.path.join(d, "cand-%03d.tq" % i)
            seeds[path] = stream_seed * 1000 + i
            _gen_query(stream, path, q, spec["window"], seeds[path])
        kept += [dict(c, seed=seeds[c["query"]]) for c in keep(list(seeds))]
        if len(kept) >= q["count"]:
            return kept[:q["count"]]
    raise harness.BenchError(
        "stream seed %d: %d of %d candidate queries pass the screen, %d "
        "needed" % (stream_seed, len(kept), q["candidates"], q["count"]))


def pick(name):
    """Chooses the committed queries of a `picked` workload (once, by hand;
    the benchmark never runs this) and writes them to its file."""
    spec = WORKLOADS[name]
    q = spec["picked"]
    stream_seed = q["stream_seed"]
    d = os.path.join(harness.WORK, "pick", name)
    os.makedirs(d, exist_ok=True)
    stream = os.path.join(d, "stream.tel")
    _gen_stream(spec, stream, stream_seed)

    def keep(cands):
        tcm = [c for c in _screen(stream, spec["window"], cands, "tcm",
                                  q["tcm_max_nodes"], q["max_calls"])
               if c["finished"] and c["nodes"] >= q["tcm_min_nodes"]]
        nodes = {c["query"]: c["nodes"] for c in tcm}
        ref = _screen(stream, spec["window"], list(nodes), q["reference"],
                      q["max_nodes"], q["max_calls"]) if tcm else []
        return [dict(c, tcm_nodes=nodes[c["query"]]) for c in ref
                if c["finished"]]

    kept = _candidates(spec, q, d, stream, stream_seed, keep)
    params = {k: v for k, v in q.items() if k != "file"}
    with open(os.path.join(harness.HERE, q["file"]), "w") as f:
        json.dump({"workload": name, "params": params, "queries": [
            {"seed": c["seed"],
             "occurred": c["occurred"], "expired": c["expired"],
             "tcm_nodes": c["tcm_nodes"]} for c in kept]}, f, indent=1)
        f.write("\n")


def _picked(spec):
    with open(os.path.join(harness.HERE, spec["picked"]["file"])) as f:
        return json.load(f)


def generate(name, seed):
    """Writes one workload for `seed` and returns its manifest. A finished
    earlier generation with the same parameters is reused."""
    spec = WORKLOADS[name]
    picked = _picked(spec) if "picked" in spec else None
    d = workdir(name, seed)
    manifest_path = os.path.join(d, "manifest.json")
    if os.path.isfile(manifest_path):
        manifest = _resolve(d, manifest_path)
        if manifest.get("spec") == spec and manifest.get("picked") == picked:
            return manifest
    os.makedirs(d, exist_ok=True)
    stream = os.path.join(d, "stream.tel")
    _gen_stream(spec, stream,
                picked["params"]["stream_seed"] if picked else seed)
    manifest = {"workload": name, "seed": seed, "spec": spec,
                "picked": picked, "stream": stream,
                "window": spec["window"],
                "parallel_threads": spec.get("parallel_threads", 1),
                "queries": [], "plain_queries": [], "reference": None}
    if "fixed_query" in spec:
        path = os.path.join(d, "query.tq")
        with open(path, "w") as f:
            f.write(spec["fixed_query"])
        manifest["queries"] = [path]
        manifest["check"] = spec["check"]
        if spec["check"] == "absence":
            # The same query without its absence predicate, for the traced
            # run's absence.cost_ms.
            plain = os.path.join(d, "query_plain.tq")
            with open(plain, "w") as f:
                f.write("".join(line + "\n" for line in
                                spec["fixed_query"].splitlines()
                                if not line.startswith("n ")))
            manifest["plain_queries"] = [plain]
            manifest["absence_delta"] = spec["absence_delta"]
        if "--format=binary" in spec["gen"]:
            # The checkers read text; convert keeps the stream record for
            # record.
            text = os.path.join(d, "stream.text.tel")
            harness.run_checked([harness.TCSM, "convert", stream, text,
                                 "--format=text"])
            manifest["check_stream"] = text
        else:
            manifest["check_stream"] = stream
    else:
        q = spec["picked"]
        for i, c in enumerate(picked["queries"]):
            path = os.path.join(d, "query-%d.tq" % i)
            _gen_query(stream, path, q, spec["window"], c["seed"])
            manifest["queries"].append(path)
        manifest["check"] = "reference"
        manifest["reference"] = {
            "engine": q["reference"],
            "counts": [[c["occurred"], c["expired"]]
                       for c in picked["queries"]]}

    for key in FILE_KEYS:
        if key in manifest:
            manifest[key] = os.path.basename(manifest[key])
    for key in LIST_KEYS:
        manifest[key] = [os.path.basename(p) for p in manifest[key]]
    tmp = manifest_path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1)
    os.replace(tmp, manifest_path)  # a manifest marks a finished generation
    return _resolve(d, manifest_path)


# Manifest entries naming files of the workload directory; the manifest
# stores them relative to it.
FILE_KEYS = ("stream", "check_stream")
LIST_KEYS = ("queries", "plain_queries")


def _resolve(d, manifest_path):
    with open(manifest_path) as f:
        manifest = json.load(f)
    for key in FILE_KEYS:
        if key in manifest:
            manifest[key] = os.path.join(d, manifest[key])
    for key in LIST_KEYS:
        manifest[key] = [os.path.join(d, p) for p in manifest[key]]
    return manifest


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--pick", choices=sorted(
        n for n, spec in WORKLOADS.items() if "picked" in spec),
        help="choose the committed queries of this workload anew")
    args = ap.parse_args()
    try:
        harness.build()
        if args.pick:
            pick(args.pick)
            return 0
        for name in [args.workload] if args.workload else list(WORKLOADS):
            generate(name, args.seed)
            print(os.path.join(workdir(name, args.seed), "manifest.json"))
    except harness.BenchError as e:
        harness.log("workloads: %s" % e)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
