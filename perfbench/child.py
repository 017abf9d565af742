"""One benchmark pass, or one set-up probe, in a fresh interpreter.

    python3 perfbench/child.py SPEC_JSON

Run from the repository root.  SPEC_JSON holds the workload, seed, mode
("setup" or "pass"), whether to trace, the scratch directory, and the
monotonic time at which the parent spawned this process; set-up time runs
from that moment until the pass is ready to start.  Both set-up and pass
times are reported in wall seconds (`*_wall_s`) and in host-speed reference
seconds (see hostspeed.py).  The last line of standard output is one JSON
object with the outcome.

Only what set-up itself needs is imported before the set-up time is taken;
the harness's other imports wait until the pass starts.
"""

import json
import os
import resource
import sys
import time

from hostspeed import Sampler
from workloads import check_rows, workload_inputs

SETUP_PERIOD_S = 0.005
PASS_PERIOD_S = 0.05


def count_comparisons(tally_cls) -> dict:
    """Count Tally.equal and Tally.nonzero calls per check name, patched on the class."""
    counts = {}
    for attr in ("equal", "nonzero"):

        def counted(self, *args, _original=getattr(tally_cls, attr)):
            counts[self.name] = counts.get(self.name, 0) + 1
            return _original(self, *args)

        setattr(tally_cls, attr, counted)
    return counts


def run_pass(twistlab, inputs, dump_dir):
    """Drive twistlab through its public entry points; return (reports, error)."""
    import contextlib
    import io
    import traceback

    outputs = []
    try:
        for argv in inputs.get("verify", ()):
            if dump_dir is not None:
                argv = argv + ["--dump-dir", dump_dir]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = twistlab.cli.main(argv)
            if rc not in (0, 1):
                return outputs, f"twistlab {' '.join(argv)} exited {rc}"
            outputs.append(buf.getvalue())
        if "core" in inputs:
            outputs.append(twistlab.core_property_checks(*inputs["core"]))
    except Exception:  # a raising pass is scored as failed, not a crashed benchmark
        return outputs, traceback.format_exc(limit=-3)
    return outputs, None


def rows_of(outputs, comparisons) -> list:
    checks = []
    for out in outputs:
        if isinstance(out, str):
            checks.extend(json.loads(out)["checks"])
        else:
            checks.extend(
                {"name": r.name, "passed": r.passed, "residual_nnz": r.residual_nnz, "dims": r.dims}
                for r in out
            )
    return check_rows(checks, comparisons)


def dumps_round_trip(report, dump_dir) -> tuple:
    """(files, all ok): each dump reloads and dumps back byte-identical."""
    names = sorted(os.listdir(dump_dir))
    again = os.path.join(dump_dir, "again.tmp")
    ok = bool(names)
    for name in names:
        path = os.path.join(dump_dir, name)
        report.dump_matrix(report.load_matrix(path), again)
        with open(path, "rb") as a, open(again, "rb") as b:
            ok = ok and a.read() == b.read()
    return len(names), ok


def main(argv):
    sampler = Sampler()
    sampler.start(SETUP_PERIOD_S)
    try:
        return run(json.loads(argv[1]), sampler)
    finally:
        sampler.stop()


def run(spec, sampler):
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import twistlab
    import twistlab.cli
    import twistlab.report
    from twistlab.rationals import FAST_BACKEND

    inputs = workload_inputs(spec["workload"], spec["seed"])
    setup_wall = time.monotonic() - spec["spawn_t"]
    result = {
        "setup_wall_s": setup_wall,
        "setup_s": sampler.reference_seconds(setup_wall, (0, 0.0)),
        "backend": "gmpy2" if FAST_BACKEND else "fractions",
    }
    if spec["mode"] == "setup":
        return result
    import shutil
    import tempfile

    comparisons = count_comparisons(twistlab.hopf.Tally)
    work_dir = spec["work_dir"]
    dump_dir = tempfile.mkdtemp(dir=work_dir) if inputs.get("dump") else None
    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    sampler.start(PASS_PERIOD_S)
    since = sampler.mark()
    t0 = time.perf_counter()
    outputs, error = run_pass(twistlab, inputs, dump_dir)
    wall = time.perf_counter() - t0
    sampler.stop()
    result["verify_wall_s"] = wall
    result["verify_s"] = sampler.reference_seconds(wall, since)
    result["probe_s"] = sampler.median_probe(since)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        spans_path = os.path.join(work_dir, f"spans-{spec['workload']}-seed{spec['seed']}.bin")
        tracer.write_spans(spans_path)
        result["spans"] = spans_path
    result["error"] = error
    try:
        result["checks"] = rows_of(outputs, comparisons)
    except (ValueError, KeyError) as exc:
        result["error"] = error or f"unreadable report: {exc!r}"
    if dump_dir is not None:
        try:
            result["dump_files"], result["dumps_ok"] = dumps_round_trip(twistlab.report, dump_dir)
        except (OSError, ValueError) as exc:
            result["dumps_ok"] = False
            result["error"] = result["error"] or f"dump round trip: {exc!r}"
        finally:
            shutil.rmtree(dump_dir, ignore_errors=True)
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv)))
