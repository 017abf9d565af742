"""Run-to-run spread of the end-to-end metrics, the way acceptance judges it.

    python3 perfbench/spread.py [--first-seed 100]

Runs run.py for ten seeds from --first-seed, once per (seed, workload) with
BENCHMARK.json's run_seconds, interleaving the workloads so host drift
spreads over all of them, one run at a time.  For each workload and
metric it prints the median, the quartiles of
`statistics.quantiles(values, n=4)`, and their distance as a share of the
median, next to the metric's bound from BENCHMARK.json.  Every run must
report `correct`.  The summary goes to .perfbench/spread-<first seed>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = 10


def spread(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=100)
    args = parser.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {w: {} for w in WORKLOADS}
    ok = True
    for i in range(RUNS):
        seed = args.first_seed + i
        for w in WORKLOADS:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
            if proc.returncode != 0:
                print(f"{w} seed {seed}: exit {proc.returncode} {proc.stderr[-500:]}")
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            line = " ".join(f"{k}={m['value']:.5g}" for k, m in result["metrics"].items())
            print(f"{w} seed {seed} correct={result['correct']} {line}", flush=True)
            for k, m in result["metrics"].items():
                values[w].setdefault(k, []).append(m["value"])
    summary = {}
    for w in WORKLOADS:
        summary[w] = {}
        for k, vals in values[w].items():
            if len(vals) < 2:
                continue
            s = spread(vals)
            s["bound"] = bounds.get(k)
            summary[w][k] = s
            print(f"{w:11s} {k:12s} median {s['median']:.5g}  q1 {s['q1']:.5g}  q3 {s['q3']:.5g}"
                  f"  iqr/median {s['iqr_share']:.4f}  bound {s['bound']}")
    os.makedirs(".perfbench", exist_ok=True)
    with open(os.path.join(".perfbench", f"spread-{args.first_seed}.json"), "w") as fh:
        json.dump({"values": values, "summary": summary}, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
