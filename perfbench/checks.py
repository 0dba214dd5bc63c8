#!/usr/bin/env python3
"""Independent correctness checks of the benchmark's replays.

No check compares against an earlier TCM output. Expected counts come
from the stream file itself (label_churn, absence) or from a reference
engine that shares neither TCM's filter nor its pruning (netflow_search,
fanout; computed when the workload is generated).

    python3 perfbench/checks.py --self-test

shows that every checker rejects a count that is off by one.
"""
import bisect
import os
import sys
from collections import defaultdict

sys.dont_write_bytecode = True


def read_text_arrivals(path):
    """Yields (src, dst, ts, label) of every arrival of a text `.tel`
    stream, in file order. Self loops are kept; callers decide."""
    with open(path) as f:
        for line in f:
            if not line.startswith("e "):
                continue
            _, src, dst, ts, *rest = line.split()
            yield int(src), int(dst), int(ts), int(rest[0]) if rest else 0


def label_churn_expected(stream, label=226):
    """The single-edge undirected query `e 0 0 1 <label>` over one vertex
    label matches every arrival of that label between distinct vertices
    twice (once per orientation), both when it occurs and when it
    expires."""
    n = sum(1 for s, d, _, lab in read_text_arrivals(stream)
            if lab == label and s != d)
    return 2 * n, 2 * n


def absence_expected(stream, delta):
    """Brute force for `e 0 0 1 0` + `n 1 0 1 <delta>` on a directed
    stream: label-0 arrivals a->b at time T (a != b) with no label-1
    arrival b->a whose timestamp lies in [T, T + delta]."""
    label1 = defaultdict(list)  # (src, dst) -> sorted timestamps
    triggers = []
    for s, d, ts, lab in read_text_arrivals(stream):
        if s == d:
            continue  # self loops never reach the program
        if lab == 1:
            label1[(s, d)].append(ts)
        elif lab == 0:
            triggers.append((s, d, ts))
    n = 0
    for a, b, t in triggers:
        back = label1.get((b, a), ())
        i = bisect.bisect_left(back, t)
        if i == len(back) or back[i] > t + delta:
            n += 1
    return n, n


def check_round(rnd, expected):
    """Returns the list of failed query indices of one replay round.

    `rnd` is one round as the harness prints it; `expected` is a list of
    (occurred, expired) per query, or None where no reference exists.
    Every query fails when the round itself is broken: it did not
    complete, events are not twice the arrivals, or edges are still live
    at the end of the stream."""
    queries = rnd["queries"]
    round_ok = (rnd["completed"] and rnd["events"] == 2 * rnd["arrivals"]
                and rnd["live_end"] == 0)
    failed = []
    for i, (occ, exp) in enumerate(queries):
        ok = round_ok and occ == exp
        if expected is not None:
            ok = ok and (occ, exp) == tuple(expected[i])
        if not ok:
            failed.append(i)
    return failed


def expected_counts(manifest):
    """Per-query expected (occurred, expired) for a workload manifest."""
    kind = manifest["check"]
    if kind == "reference":
        return [tuple(c) for c in manifest["reference"]["counts"]]
    if kind == "label_churn":
        return [label_churn_expected(manifest["check_stream"])]
    if kind == "absence":
        return [absence_expected(manifest["check_stream"],
                                 manifest["absence_delta"])]
    raise ValueError("unknown check " + kind)


def self_test(outdir):
    """Each checker must reject a count that is off by one. Returns the
    list of checkers that did not."""
    stream = os.path.join(outdir, "selftest.tel")
    with open(stream, "w") as f:
        # a->b label 0 at 10 is spoilt by b->a label 1 at 15; c->d label 0
        # at 12 is not (its reverse edge comes at 30 > 12 + 10).
        f.write("tel 1 directed vertices=5\n"
                "e 0 1 10 0\ne 1 0 15 1\ne 2 3 12 0\ne 3 2 30 1\n"
                "e 4 4 31 226\ne 0 2 32 226\ne 1 3 33 7\n")
    bad = []
    if absence_expected(stream, 10) != (1, 1):
        bad.append("absence brute force")
    if label_churn_expected(stream) != (2, 2):
        bad.append("label_churn count")
    good = {"completed": True, "events": 14, "arrivals": 7, "live_end": 0,
            "queries": [[5, 5], [3, 3]]}
    expected = [(5, 5), (3, 3)]
    if check_round(good, expected):
        bad.append("check_round accepts a correct round")
    for q in range(2):
        for k in range(2):
            for delta in (-1, 1):
                rnd = {**good, "queries": [list(c) for c in good["queries"]]}
                rnd["queries"][q][k] += delta
                if q not in check_round(rnd, expected):
                    bad.append("check_round misses count %+d" % delta)
    for key, delta in (("events", 1), ("events", -1), ("arrivals", 1),
                       ("live_end", 1)):
        rnd = {**good, key: good[key] + delta}
        if check_round(rnd, expected) != [0, 1]:
            bad.append("check_round misses %s %+d" % (key, delta))
    if check_round({**good, "completed": False}, expected) != [0, 1]:
        bad.append("check_round misses an incomplete round")
    return sorted(set(bad))


def main():
    if sys.argv[1:] != ["--self-test"]:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    import harness
    os.makedirs(harness.OUT, exist_ok=True)
    bad = self_test(harness.OUT)
    for b in bad:
        print("FAIL", b)
    print("self-test", "failed" if bad else "passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
