#!/usr/bin/env python3
"""Run every suite at N=6 and N=7 and write text + JSON reports.

Usage: python scripts/run_full_verification.py [outdir]
Exit code 0 iff every check passed.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from twistlab.report import SUITE_NAMES, SuiteConfig, emit_report, run_suite


def main() -> int:
    outdir = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path("reports")
    outdir.mkdir(parents=True, exist_ok=True)
    ok = True
    for n in (6, 7):
        cfg = SuiteConfig(n=n, suites=SUITE_NAMES)
        rep = run_suite(cfg)
        ok = ok and rep.all_passed()
        text = emit_report(rep, "text")
        sys.stdout.write(f"== N={n} ==\n{text}")
        (outdir / f"verification_N{n}.txt").write_text(text)
        (outdir / f"verification_N{n}.json").write_text(emit_report(rep, "json"))
    print(f"reports written to {outdir}/")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
