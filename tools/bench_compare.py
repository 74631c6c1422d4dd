#!/usr/bin/env python3
"""Compare perfbench runs of a parent commit and a change.

    python3 tools/bench_compare.py RUNS.jsonl [RUNS.jsonl ...]
    python3 tools/bench_compare.py --selftest

Each input line is one perfbench run:

    {"pair": 3, "side": "parent" | "change", "workload": "kle_offline",
     "seed": 5, "result": <last stdout line of perfbench/run.py>}

Runs are grouped by (workload, seed): pairs are numbered within one seed,
so two seeds may share pair numbers, and a second run with the same
(workload, seed, pair, side) is an error. The output is a Markdown table with
one row per workload, seed and metric: each side's median and q1-q3, how many pairs the change wins (ties count for
neither side), the relative change of the medians, failed/attempted
operations per side, and a verdict against the bounds in BENCHMARK.json:

  regression    the change's median is worse than the parent's by more than
                the bound, or a larger share of its operations failed;
  gain          at least 10 pairs ran, the change wins at least 9 of every
                10 of them, and the medians differ by more than the parent's
                interquartile range;
  unresolved    either side's interquartile range exceeds the bound (relative
                to its median) and not every change run beats every parent
                run;
  within bound  otherwise.

Per-layer metrics (traced runs) have no bound; their rows read "-". A
metric that reads 0 in every run of both sides is left out. The script only
reads BENCHMARK.json and the run files.

A run line may also carry "host_steal_pct": the share of the host's CPU
time that other tenants took while the run ran. Under the table, a second
table gives each side's median and maximum of it per workload, so a
verdict read on a host whose CPU was being stolen shows as such. Runs
without the field are left out of it, and it changes no verdict.
"""

import argparse
import json
import os
import sys

DEFAULT_SPEC = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            os.pardir, "BENCHMARK.json")


def quantile(sorted_values, p):
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_values) - 1) * p
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return (sorted_values[lo]
            + (sorted_values[hi] - sorted_values[lo]) * (pos - lo))


def summary(values):
    s = sorted(values)
    return quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)


FIELDS = ("pair", "side", "workload", "seed", "result")


def load_runs(paths):
    runs = []
    for path in paths:
        with open(path) as f:
            for number, line in enumerate(f, 1):
                if not line.strip():
                    continue
                run = json.loads(line)
                missing = [k for k in FIELDS if k not in run]
                if missing:
                    raise ValueError("%s:%d: missing %s"
                                     % (path, number, ", ".join(missing)))
                if run["side"] not in ("parent", "change"):
                    raise ValueError("%s:%d: side must be parent or change"
                                     % (path, number))
                runs.append(run)
    return runs


def group_runs(runs):
    """{(workload, seed): {side: {pair: result}}}."""
    groups = {}
    for r in runs:
        sides = groups.setdefault((r["workload"], r["seed"]),
                                  {"parent": {}, "change": {}})
        if r["pair"] in sides[r["side"]]:
            raise ValueError("duplicate run: workload %s, seed %s, pair %s, "
                             "side %s" % (r["workload"], r["seed"], r["pair"],
                                          r["side"]))
        sides[r["side"]][r["pair"]] = r["result"]
    return groups


def compare(runs, spec):
    """Returns one row dict per (workload, seed, metric) in the runs."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    rows = []
    for (workload, seed), sides in sorted(group_runs(runs).items()):
        ops = {side: (sum(r["failed"] for r in results.values()),
                      sum(r["attempted"] for r in results.values()))
               for side, results in sides.items()}
        names = {n for results in sides.values()
                 for r in results.values() for n in r["metrics"]}
        for name in [n for n in bounds if n in names] + \
                [n for n in layers if n in names]:
            meta = bounds.get(name) or layers[name]
            higher = meta["better"] == "higher"
            values = {side: {pair: r["metrics"][name]["value"]
                             for pair, r in results.items()
                             if name in r["metrics"]}
                      for side, results in sides.items()}
            if not values["parent"] or not values["change"]:
                continue
            if not any(values["parent"].values()) and \
                    not any(values["change"].values()):
                continue  # the workload does not exercise this metric
            p = summary(values["parent"].values())
            c = summary(values["change"].values())
            pairs = sorted(set(values["parent"]) & set(values["change"]))

            def better(a, b):
                return a > b if higher else a < b

            wins = sum(better(values["change"][k], values["parent"][k])
                       for k in pairs)
            rel = (c[1] - p[1]) / p[1] if p[1] else 0.0
            row = {"workload": workload, "seed": seed, "metric": name,
                   "unit": meta["unit"],
                   "parent": p, "change": c, "wins": wins,
                   "pairs": len(pairs), "rel": rel,
                   "ops_parent": ops["parent"], "ops_change": ops["change"],
                   "verdict": "-"}
            if name in bounds:
                row["verdict"] = verdict(row, meta["bound"], higher,
                                         values["parent"].values(),
                                         values["change"].values())
            rows.append(row)
    return rows


def verdict(row, bound, higher, parent_values, change_values):
    p, c = row["parent"], row["change"]
    worse = -row["rel"] if higher else row["rel"]
    (pf, pa), (cf, ca) = row["ops_parent"], row["ops_change"]
    if worse > bound or (ca and cf / ca > (pf / pa if pa else 0.0)):
        return "regression"
    gap = c[1] - p[1] if higher else p[1] - c[1]
    if row["pairs"] >= 10 and 10 * row["wins"] >= 9 * row["pairs"] and \
            gap > p[2] - p[0]:
        return "gain"
    spread = max((s[2] - s[0]) / abs(s[1]) if s[1] else 0.0 for s in (p, c))
    every = (min(change_values) > max(parent_values) if higher
             else max(change_values) < min(parent_values))
    if spread > bound and not every:
        return "unresolved"
    return "within bound"


def steal(runs):
    """{workload: {side: (median, max) or None}} of the runs'
    host_steal_pct; runs without the field are left out."""
    values = {}
    for r in runs:
        sides = values.setdefault(r["workload"], {"parent": [], "change": []})
        if "host_steal_pct" in r:
            sides[r["side"]].append(r["host_steal_pct"])
    return {workload: {side: (summary(v)[1], max(v)) if v else None
                       for side, v in sides.items()}
            for workload, sides in values.items()}


def fmt(x):
    return "%.4g" % x


def render(rows):
    out = ["| workload | seed | metric | parent median (q1-q3)"
           " | change median (q1-q3) | change wins | median shift"
           " | failed/attempted parent | failed/attempted change | verdict |",
           "|---|---|---|---|---|---|---|---|---|---|"]
    for r in rows:
        p, c = r["parent"], r["change"]
        out.append("| %s | %s | %s (%s) | %s (%s-%s) | %s (%s-%s) | %d/%d "
                   "| %+.1f%% | %d/%d | %d/%d | %s |" % (
                       r["workload"], r["seed"], r["metric"], r["unit"],
                       fmt(p[1]), fmt(p[0]), fmt(p[2]),
                       fmt(c[1]), fmt(c[0]), fmt(c[2]),
                       r["wins"], r["pairs"], 100.0 * r["rel"],
                       r["ops_parent"][0], r["ops_parent"][1],
                       r["ops_change"][0], r["ops_change"][1], r["verdict"]))
    return "\n".join(out)


def render_steal(table):
    """The steal table, or "" when no run carries host_steal_pct."""
    rows = [(w, sides) for w, sides in sorted(table.items())
            if any(sides.values())]
    if not rows:
        return ""
    out = ["", "Host CPU steal during the runs (host_steal_pct, %):", "",
           "| workload | parent median | parent max | change median"
           " | change max |",
           "|---|---|---|---|---|"]
    for workload, sides in rows:
        cells = []
        for side in ("parent", "change"):
            cells += [fmt(x) for x in sides[side]] if sides[side] \
                else ["-", "-"]
        out.append("| %s | %s |" % (workload, " | ".join(cells)))
    return "\n".join(out)


def selftest():
    spec = {"end_to_end": [
                {"name": "op_ms", "unit": "ms", "better": "lower",
                 "bound": 0.24},
                {"name": "ops_per_s", "unit": "1/s", "better": "higher",
                 "bound": 0.24}],
            "per_layer": [
                {"name": "linalg.lanczos_s", "unit": "s", "better": "lower"}]}

    def run(pair, side, workload, op_ms, failed=0, layer=None, seed=5,
            steal_pct=None):
        metrics = {"op_ms": {"value": op_ms, "unit": "ms"},
                   "ops_per_s": {"value": 1000.0 / op_ms, "unit": "1/s"}}
        if layer is not None:
            metrics["linalg.lanczos_s"] = {"value": layer, "unit": "s"}
        record = {"pair": pair, "side": side, "workload": workload,
                  "seed": seed,
                  "result": {"correct": failed == 0, "attempted": 10,
                             "failed": failed, "metrics": metrics}}
        if steal_pct is not None:
            record["host_steal_pct"] = steal_pct
        return record

    runs = []
    for k in range(10):
        # Faster in 9 of 10 pairs, by far more than the parent's spread.
        runs.append(run(k, "parent", "fast", 100.0 + k, layer=0.5))
        runs.append(run(k, "change", "fast", 60.0 + k if k else 200.0,
                        layer=0.3))
        # 40% slower: past the 24% bound. Both sides carry the host's CPU
        # steal, one change run at 40%.
        runs.append(run(k, "parent", "slow", 100.0, steal_pct=0.1 * k))
        runs.append(run(k, "change", "slow", 140.0,
                        steal_pct=40.0 if k == 2 else 1.0))
        # Same median, spread wider than the bound.
        runs.append(run(k, "parent", "noisy", 60.0 if k % 2 else 140.0))
        runs.append(run(k, "change", "noisy", 140.0 if k % 2 else 60.0))
        # Same values, but the change fails an operation.
        runs.append(run(k, "parent", "steady", 100.0))
        runs.append(run(k, "change", "steady", 100.0, failed=int(k == 3)))
        # A small, tight change: neither a gain nor a regression.
        runs.append(run(k, "parent", "flat", 100.0))
        runs.append(run(k, "change", "flat", 101.0))
        # Faster in every pair, but too few pairs to claim a gain.
        if k < 5:
            runs.append(run(k, "parent", "few", 100.0 + k))
            runs.append(run(k, "change", "few", 50.0 + k))
        # A second seed of "fast" reuses pairs 0-2 and is 40% slower: it
        # must neither overwrite seed 5's pairs nor leak into its counts.
        if k < 3:
            runs.append(run(k, "parent", "fast", 100.0, failed=1, seed=6))
            runs.append(run(k, "change", "fast", 140.0, seed=6))
    rows = {(r["workload"], r["seed"], r["metric"]): r
            for r in compare(runs, spec)}
    expect = {("fast", 5, "op_ms"): "gain", ("fast", 5, "ops_per_s"): "gain",
              ("fast", 6, "op_ms"): "regression",
              ("slow", 5, "op_ms"): "regression",
              ("slow", 5, "ops_per_s"): "regression",
              ("noisy", 5, "op_ms"): "unresolved",
              ("steady", 5, "op_ms"): "regression",
              ("flat", 5, "op_ms"): "within bound",
              ("few", 5, "op_ms"): "within bound",
              ("fast", 5, "linalg.lanczos_s"): "-"}
    ok = True
    for key, want in expect.items():
        got = rows[key]["verdict"]
        if got != want:
            sys.stderr.write("selftest: %s: %s, expected %s\n"
                             % (key, got, want))
            ok = False
    for key, want in (((5, "op_ms"), (9, 10, (0, 100), (0, 100), 104.5)),
                      ((6, "op_ms"), (0, 3, (3, 30), (0, 30), 100.0))):
        r = rows[("fast",) + key]
        got = (r["wins"], r["pairs"], r["ops_parent"], r["ops_change"],
               r["parent"][1])
        if got != want:
            sys.stderr.write("selftest: fast %r counts %r, expected %r\n"
                             % (key, got, want))
            ok = False
    # Only "slow" carries host_steal_pct; "fast" has no row in the table.
    stolen = steal(runs)
    want_steal = {"parent": (0.45, 0.9), "change": (1.0, 40.0)}
    for side, (median, peak) in want_steal.items():
        got = stolen["slow"][side]
        if got is None or abs(got[0] - median) > 1e-12 or got[1] != peak:
            sys.stderr.write("selftest: slow %s steal %r, expected %r\n"
                             % (side, got, (median, peak)))
            ok = False
    text = render_steal(stolen)
    if stolen["fast"] != {"parent": None, "change": None} or \
            "| slow | 0.45 | 0.9 | 1 | 40 |" not in text or "fast" in text:
        sys.stderr.write("selftest: steal table\n%s\n" % text)
        ok = False
    if render_steal(steal([r for r in runs if r["workload"] == "fast"])):
        sys.stderr.write("selftest: steal table without host_steal_pct\n")
        ok = False
    try:
        compare(runs + [run(4, "change", "fast", 61.0)], spec)
        sys.stderr.write("selftest: duplicate run accepted\n")
        ok = False
    except ValueError:
        pass
    if abs(quantile([1.0, 2.0, 3.0, 4.0], 0.25) - 1.75) > 1e-12:
        sys.stderr.write("selftest: quantile interpolation\n")
        ok = False
    render(list(rows.values()))
    print("bench_compare selftest: %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs", nargs="*", help="JSON-lines run files")
    parser.add_argument("--benchmark", default=DEFAULT_SPEC,
                        help="BENCHMARK.json with the metric bounds")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if not args.runs:
        parser.error("give at least one run file")
    with open(args.benchmark) as f:
        spec = json.load(f)
    try:
        runs = load_runs(args.runs)
        rows = compare(runs, spec)
    except ValueError as e:
        sys.stderr.write("bench_compare: %s\n" % e)
        return 2
    print(render(rows))
    steal_table = render_steal(steal(runs))
    if steal_table:
        print(steal_table)
    return 0


if __name__ == "__main__":
    sys.exit(main())
