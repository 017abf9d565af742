#!/usr/bin/env python3
"""Re-run the axioms, costructure tables, and state tables in the doubled
witness representation (dimension N^2) and compare verdicts against the
fundamental run.  A kernel coincidence in the fundamental representation
would show up here as a verdict flip.

Usage: python scripts/witness_robustness.py [N]
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from twistlab.report import WITNESSES, SuiteConfig, run_suite

SUITES = ("twist-axioms", "chain", "nine-states")


def main() -> int:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    verdicts = {}
    for witness in WITNESSES:
        t0 = time.perf_counter()
        rep = run_suite(SuiteConfig(n=n, suites=SUITES, witness=witness))
        verdicts[witness] = {r.name: r.passed for r in rep.results}
        print(f"{witness}: {rep.passed} passed / {rep.failed} failed "
              f"({time.perf_counter() - t0:.1f}s)")
    # the factor-wise chain checks only run at the fundamental witness
    shared = sorted(set(verdicts["fundamental"]) & set(verdicts["doubled"]))
    flips = [name for name in shared
             if verdicts["fundamental"][name] != verdicts["doubled"][name]]
    if flips:
        print("VERDICT FLIPS:")
        for name in flips:
            print(f"  {name}")
        return 1
    print(f"identical verdicts on all {len(shared)} shared checks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
