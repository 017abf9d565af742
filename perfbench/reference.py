"""Write reference.json: the check rows every benchmark pass must reproduce.

    python3 perfbench/reference.py

Run from the repository root.  It runs the program in ./src in-process,
counting Tally comparisons the way child.py does, and refuses to record a
check that failed or left a residual.  A change to the program that rightly
renames a check or changes its dims or its number of comparisons rewrites
this file in the same change, so the difference shows in its diff.

fund-sweep: for each N, one single-alpha run per alpha of ALPHA_POOL; rows
that every alpha shares are `common`, the others belong to their alpha.
doubled-n6: one run per alpha.  core-tiny: one run, which must give the same
rows at two more case seeds.
"""

import json
import os
import sys

from child import count_comparisons, rows_of, run_pass
from workloads import ALPHA_POOL, CORE_CASES, FUND_NS, REFERENCE, doubled_argv, fund_argv


def checked_rows(twistlab, counts, inputs) -> list:
    counts.clear()
    outputs, error = run_pass(twistlab, inputs, None)
    if error:
        sys.exit(f"{inputs}: {error}")
    rows = rows_of(outputs, counts)
    failing = [r for r in rows if not r[1] or r[2] != 0]
    if failing:
        sys.exit(f"{inputs}: refusing to record failing checks {failing}")
    return rows


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import twistlab
    import twistlab.cli

    counts = count_comparisons(twistlab.hopf.Tally)
    out = {"fund-sweep": {}, "doubled-n6": {}}
    for n in FUND_NS:
        by_alpha = {
            a: checked_rows(twistlab, counts, {"verify": [fund_argv(n, a)]}) for a in ALPHA_POOL
        }
        common = [r for r in by_alpha[ALPHA_POOL[0]] if all(r in rows for rows in by_alpha.values())]
        own = {a: [r for r in rows if r not in common] for a, rows in by_alpha.items()}
        out["fund-sweep"][str(n)] = {"common": common, "alpha": own}
        print(f"fund-sweep N={n}: {len(common)} common rows, "
              f"{sorted({len(v) for v in own.values()})} per alpha", flush=True)
    for a in ALPHA_POOL:
        out["doubled-n6"][a] = checked_rows(twistlab, counts, {"verify": [doubled_argv(a)]})
        print(f"doubled-n6 alpha={a}: {len(out['doubled-n6'][a])} rows", flush=True)
    core = [checked_rows(twistlab, counts, {"core": [CORE_CASES, s]}) for s in (1, 2, 3)]
    if core[1:] != core[:-1]:
        sys.exit(f"core-tiny rows depend on the case seed: {core}")
    out["core-tiny"] = core[0]
    with open(REFERENCE, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
