"""twistlab benchmark: time to a full exact verdict, and memory to reach it.

    python3 perfbench/run.py --workload fund-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload doubled-n6 --seed 1 --seconds 30 --trace 1

All three workloads, ten seeds each, with their spread over seeds:

    python3 perfbench/spread.py

Run from the repository root; twistlab is imported from ./src.  Workloads
(see workloads.py): fund-sweep, doubled-n6, core-tiny.  The seed fixes the
carrier splits alpha and, for core-tiny, the case seed.

Each pass runs in a fresh child interpreter, one at a time, for about
--seconds (at least one pass).  Every pass is gated: its check rows (name,
passed, residual, dims and the number of Tally comparisons made) must equal
the committed rows of reference.json for the seed's inputs, in which every
check passed with residual 0; and in fund-sweep every dump reloads and dumps
back byte-identical.

--trace 0 prints the end-to-end metrics: setup_s (median of several spawns,
spawn to ready-to-run), verify_s (median pass time), peak_rss_mb (median of
the passes' peak resident memory) and checks (per pass).  Both times are in
host-speed reference seconds (hostspeed.py), because this code runs on shared
hosts whose speed swings up to 2x within seconds; the raw wall times are
printed beside them and kept in the record.

--trace 1 runs one untraced and one traced pass and prints the per-layer
metrics of spans.py, trace.overhead_ratio and host.calib_s (the median
duration of hostspeed.probe over both passes).  Failed checks
over attempted checks is the fail ratio, reported as the result's `failed`
and `attempted`.  The last stdout line is the JSON result;
the full record, with host facts and every pass, goes to .perfbench/.
"""

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, expected_rows, load_reference, score_pass, workload_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = ".perfbench"
SETUP_PROBES = 17
RUN_LIMIT_S = 170.0  # a run must end within 180 s

END_TO_END = (("setup_s", "s"), ("verify_s", "s"), ("peak_rss_mb", "MB"), ("checks", "count"))

PER_LAYER_UNITS = {
    "calls": "count", "madds": "count", "out_nnz": "count", "matmuls": "count",
    "peak_nnz": "count", "peak_dim": "dim", "bytes": "bytes",
    "s": "s", "self_s": "s", "calib_s": "s",
}


class StructuralError(RuntimeError):
    """The benchmark cannot run here at all (no program, broken child)."""


def host_facts(backend: str) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "rational_backend": backend,
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": importlib.util.find_spec("numpy") is not None,
        "scipy": importlib.util.find_spec("scipy") is not None,
    }


def spawn(spec: dict, timeout: float) -> dict:
    """Run child.py once and return its JSON outcome (or an error record)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    spec = dict(spec, spawn_t=time.monotonic())
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, json.dumps(spec)],
            capture_output=True, text=True, timeout=max(timeout, 1.0), env=env,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"pass exceeded {timeout:.0f} s", "wall_s": time.monotonic() - t0}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"child exit {proc.returncode}: {proc.stderr.strip()[-2000:]}",
                "wall_s": time.monotonic() - t0}
    out = json.loads(lines[-1])
    out["wall_s"] = time.monotonic() - t0
    return out


def unit_of(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    return PER_LAYER_UNITS[name.rsplit(".", 1)[-1]]


def gate(passes: list, expected: list) -> tuple:
    """(attempted, failed) checks over passes; see score_pass."""
    attempted = failed = 0
    for p in passes:
        a, f = score_pass(p, expected)
        attempted += a
        failed += f
    return attempted, failed


def measure(workload: str, seed: int, seconds: float, trace: bool, work_dir: str, t_run: float):
    base = {"workload": workload, "seed": seed, "work_dir": work_dir, "trace": False}

    def remaining():
        return RUN_LIMIT_S - (time.monotonic() - t_run)

    warm = spawn(dict(base, mode="setup"), remaining())  # fills bytecode caches
    if warm.get("error"):
        raise StructuralError(warm["error"])
    record = {"backend": warm["backend"]}

    if trace:
        plain = spawn(dict(base, mode="pass"), remaining())
        traced = spawn(dict(base, mode="pass", trace=True), remaining())
        passes = [plain, traced]
    else:
        probes = []
        for _ in range(SETUP_PROBES):
            probe = spawn(dict(base, mode="setup"), remaining())
            if probe.get("error"):
                raise StructuralError(probe["error"])
            probes.append(probe)
        passes = []
        t0 = time.monotonic()
        while True:
            passes.append(spawn(dict(base, mode="pass"), remaining()))
            typical = statistics.median(p["wall_s"] for p in passes)
            elapsed = time.monotonic() - t0
            if elapsed + typical > seconds or typical * 1.5 > remaining():
                break
        probes.extend(p for p in passes if "setup_s" in p)
        record["setup_s"] = [p["setup_s"] for p in probes]
        record["setup_wall_s"] = [p["setup_wall_s"] for p in probes]
    record["passes"] = passes
    return record


def summarize(trace: bool, record: dict, expected: list) -> dict:
    passes = record["passes"]
    attempted, failed = gate(passes, expected)
    timed = [p for p in passes if "verify_s" in p]
    if not timed:
        raise StructuralError(passes[0].get("error", "no pass ran"))
    metrics = {}
    if trace:
        plain, traced = passes
        for p in passes:
            if "verify_s" not in p:
                raise StructuralError(p.get("error", "a pass reported no time"))
        if "layers" not in traced:
            raise StructuralError(traced.get("error", "traced pass reported no layers"))
        for name, value in traced["layers"].items():
            metrics[name] = {"value": value, "unit": unit_of(name)}
        metrics["trace.overhead_ratio"] = {
            "value": traced["verify_s"] / plain["verify_s"], "unit": "ratio"}
        metrics["host.calib_s"] = {
            "value": statistics.median(p["probe_s"] for p in passes), "unit": "s"}
    else:
        values = {
            "setup_s": statistics.median(record["setup_s"]),
            "verify_s": statistics.median(p["verify_s"] for p in timed),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in timed),
            "checks": max(len(p.get("checks") or []) for p in passes),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t_run = time.monotonic()

    if not os.path.isfile(os.path.join("src", "twistlab", "__init__.py")):
        print("no twistlab sources under ./src; run from the repository root", file=sys.stderr)
        return 2
    expected = expected_rows(args.workload, args.seed, load_reference())
    work_dir = os.path.abspath(OUT_DIR)
    os.makedirs(work_dir, exist_ok=True)
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace), work_dir, t_run)
        result = summarize(bool(args.trace), record, expected)
    except StructuralError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    host = host_facts(record["backend"])
    record.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        inputs=workload_inputs(args.workload, args.seed), host=host, result=result,
    )
    path = os.path.join(work_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload} seed {args.seed}: {len(record['passes'])} passes, "
          f"{len(expected)} reference checks")
    print("host " + " ".join(f"{k}={v}" for k, v in host.items()))
    for p in record["passes"]:
        if p.get("error"):
            print(f"pass error: {p['error']}")
        elif p.get("checks") != expected:
            print("pass rows differ from perfbench/reference.json")
    print(f"fail_ratio {result['failed'] / result['attempted']} "
          f"({result['failed']}/{result['attempted']} checks)")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']} {m['unit']}")
    walls = [p["verify_wall_s"] for p in record["passes"] if "verify_wall_s" in p]
    line = f"wall seconds, not gated: verify {statistics.median(walls)}"
    if "setup_wall_s" in record:
        line += f" setup {statistics.median(record['setup_wall_s'])}"
    print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
