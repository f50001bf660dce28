#!/usr/bin/env python3
"""Checks for the RSTI benchmark, run from the repository root.

  python3 perfbench/check.py spread [--runs N] [--seed0 S] [--workloads a,b]
      Runs each workload N times (seeds S, S+1, ...) with --trace 0 and
      prints, per end-to-end metric, the median and the spread: the
      distance between the first and third quartile over the median, as
      statistics.quantiles(values, n=4) gives them. A spread above a third
      of the metric's bound is flagged.

  python3 perfbench/check.py self
      The benchmark's self-check. Validates BENCHMARK.json, runs every
      workload twice with the same seed (trace 0 and trace 1) and requires
      the deterministic metrics to repeat bit-exactly, every workload to
      emit exactly the metrics BENCHMARK.json names for the mode, and
      fig9-sweep's cfg geomeans and Pearson coefficient to equal
      rsti_bench's Fig9::measure() exactly (--cross-check).
"""

import json
import re
import statistics
import subprocess
import sys
import time

SPEC = json.load(open("BENCHMARK.json"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# Metrics that are functions of the code and the seed alone. The counts of
# serve-zipf's traced run cover a timed stretch of traffic, so only its
# attribution profile and attack cells are fixed.
DETERMINISTIC = re.compile(
    r"^(overhead_pct\..*|attacks_detected|attacks\..*|vm\.cycles_split\..*"
    r"|vm\.pearson_sites_overhead)$"
)
DETERMINISTIC_FIXED_PASS = re.compile(
    r"^(core\.(opt|dyn_auths|dyn_signs)\..*|core\.static_sites|vm\.opclass\..*|pac\.ops)$"
)


def run(workload, seed, trace, extra=()):
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace), *extra,
    ]
    t0 = time.time()
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    print(f"  {workload} seed {seed} trace {trace}: {time.time() - t0:.1f}s "
          f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}",
          flush=True)
    return result


def validate_spec():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= len(SPEC["paths"]) <= 16 and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [w["name"] for w in SPEC["workloads"]]
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"], w
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25, m
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert m["better"] in ("lower", "higher") and UNIT.match(m["unit"]), m
        names.append(m["name"])
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names)), "names must be unique"
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def self_check():
    validate_spec()
    declared = {0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
                1: {m["name"]: m["unit"] for m in SPEC["per_layer"]}}
    ok = True
    for w in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            extra = ("--cross-check",) if (w, trace) == ("fig9-sweep", 0) else ()
            a, b = run(w, 7, trace, extra), run(w, 7, trace)
            for r in (a, b):
                ok &= r["correct"] and r["failed"] == 0
                got = {k: v["unit"] for k, v in r["metrics"].items()}
                if got != declared[trace]:
                    print(f"FAIL {w} trace {trace}: metrics differ from BENCHMARK.json: "
                          f"{sorted(set(got.items()) ^ set(declared[trace].items()))}")
                    ok = False
            for k in a["metrics"]:
                fixed = DETERMINISTIC.match(k) or (
                    w != "serve-zipf" and DETERMINISTIC_FIXED_PASS.match(k))
                if fixed and a["metrics"][k]["value"] != b["metrics"].get(k, {}).get("value"):
                    print(f"FAIL {w}: {k} not deterministic: {a['metrics'][k]} vs {b['metrics'].get(k)}")
                    ok = False
    print("self-check:", "PASS" if ok else "FAIL")
    return ok


def spread(runs, seed0, workloads):
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    worst = True
    for w in workloads:
        values = {}
        for i in range(runs):
            r = run(w, seed0 + i, 0)
            worst &= r["correct"] and r["failed"] == 0
            for k, v in r["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        for k, vs in sorted(values.items()):
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            s = (q3 - q1) / med if med else float("inf")
            flag = "" if k == "setup_s" or s <= bounds[k] / 3 else "  <-- above bound/3"
            if k != "setup_s" and s > bounds[k]:
                flag, worst = "  <-- ABOVE BOUND", False
            print(f"{w:13s} {k:24s} median {med:12.6g}  spread {s:7.4f}  bound {bounds[k]}{flag}")
            print(f"{'':13s} {'':24s} values {' '.join(f'{v:.6g}' for v in vs)}")
    return worst


def main():
    args = sys.argv[1:]
    if not args or args[0] not in ("spread", "self"):
        sys.exit(__doc__)
    if args[0] == "self":
        sys.exit(0 if self_check() else 1)
    opts = dict(zip(args[1::2], args[2::2]))
    workloads = opts.get("--workloads")
    workloads = workloads.split(",") if workloads else [w["name"] for w in SPEC["workloads"]]
    ok = spread(int(opts.get("--runs", 10)), int(opts.get("--seed0", 1)), workloads)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
