"""Workload definitions, seeded inputs and the per-pass correctness gate.

Why these three workloads:

* fund-sweep: everyday full verification in the fundamental witness.  Small
  operands, but the same factors are re-exponentiated many times, so it
  exercises orchestration, factor materialization and the residual compare.
* doubled-n6: the 46,656-dim three-leg cocycles and 1296-dim state tables
  of the doubled witness.  Big operands, little repetition; this is where a
  faster sparse kernel must show.
* core-tiny: the randomized exact-core laws on 2..5-dim matrices, so per-call
  fixed cost dominates.  A kernel that adds conversion cost per call wins on
  doubled-n6 and loses here.
"""

import json
import os
import random

WORKLOADS = ("fund-sweep", "doubled-n6", "core-tiny")

# Bounded-height rationals the seed chooses carrier splits from.
ALPHA_POOL = ("0", "1/3", "1/2", "2/5", "2/3", "3/5", "1/4", "3/4", "1/5", "4/5")

# Every suite but `core`; frozen here so the workload cannot drift with the program.
FUND_SUITES = (
    "twist-axioms", "chain", "nine-states", "diagram",
    "rmatrix", "antipode", "matreshka", "transitions",
)
FUND_NS = (6, 7, 8)
FUND_ALPHAS = 4
DOUBLED_SUITES = ("twist-axioms", "nine-states")
CORE_CASES = 20000
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def alphas(seed: int, count: int) -> list:
    """`count` distinct carrier splits from ALPHA_POOL, fixed by the seed."""
    return random.Random(f"twistlab-alpha-{seed}").sample(ALPHA_POOL, count)


def fund_argv(n: int, alpha_arg: str) -> list:
    return ["verify", "--n", str(n), "--suites", ",".join(FUND_SUITES),
            "--alpha", alpha_arg, "--format", "json"]


def doubled_argv(alpha: str) -> list:
    return ["verify", "--witness", "doubled", "--n", "6", "--suites", ",".join(DOUBLED_SUITES),
            "--r", "3", "--alpha", alpha, "--format", "json"]


def workload_inputs(name: str, seed: int) -> dict:
    """The inputs one pass of `name` runs, generated from the seed alone.

    `verify` lists CLI argument vectors (each gets `--dump-dir` when `dump`
    is set); `core` is the (cases, seed) of a core_property_checks call.
    """
    if name == "fund-sweep":
        alpha_arg = ",".join(alphas(seed, FUND_ALPHAS))
        return {"verify": [fund_argv(n, alpha_arg) for n in FUND_NS], "dump": True}
    if name == "doubled-n6":
        return {"verify": [doubled_argv(alphas(seed, 1)[0])], "dump": False}
    if name == "core-tiny":
        return {"core": [CORE_CASES, seed]}
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def check_rows(checks, comparisons) -> list:
    """Sorted [name, passed, residual_nnz, dims, comparisons] rows of report dicts.

    `comparisons` maps a check name to the Tally.equal and Tally.nonzero
    calls made under it, so a check that compares less reads differently.
    """
    return sorted(
        [c["name"], bool(c["passed"]), int(c["residual_nnz"]), int(c["dims"]),
         comparisons.get(c["name"], 0)]
        for c in checks
    )


def expected_rows(name: str, seed: int, reference: dict) -> list:
    """The rows a pass of `name` at `seed` must reproduce, from reference.json.

    Only twist-axioms depends on alpha, so fund-sweep is stored per N as the
    rows every alpha shares plus each alpha's own rows; doubled-n6 per alpha;
    core-tiny once, since its rows do not depend on the case seed.
    """
    if name == "fund-sweep":
        rows = []
        for n in FUND_NS:
            part = reference[name][str(n)]
            rows += part["common"]
            for alpha in alphas(seed, FUND_ALPHAS):
                rows += part["alpha"][alpha]
        return sorted(rows)
    if name == "doubled-n6":
        return sorted(reference[name][alphas(seed, 1)[0]])
    return sorted(reference[name])


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def score_pass(outcome: dict, expected: list):
    """(attempted, failed) checks of one pass outcome.

    `expected` are the reference rows, in which every check passed with
    residual 0.  A pass is clean when it did not raise, its dumps (if any)
    round-tripped, and its rows equal `expected`; any other pass counts every
    one of its checks, and at least the expected number, as failed.
    """
    rows = outcome.get("checks") or []
    attempted = max(len(rows), len(expected), 1)
    if outcome.get("error") or not outcome.get("dumps_ok", True) or rows != expected:
        return attempted, attempted
    return attempted, 0
