"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every comparison is exact (residual_nnz == 0); there are no
tolerances anywhere.
"""

import time

from twistlab.expr import delta_morphism, fundamental_morphism, gen, mul, scal, sigma_power
from twistlab.hopf import (
    TwistedCoalgebra,
    antipode_checks,
    coassociativity_check,
    cocycle_check,
    counit_check,
    r_matrix_checks,
    verify_dragging,
)
from twistlab.rationals import rat
from twistlab.report import core_property_checks
from twistlab.roots import carrier_generators, cartan_element
from twistlab.states import (
    STATE_IDS,
    heisenberg_pair_generators,
    two_jordanian_table_check,
    verify_diagram,
    verify_matreshka,
    verify_state,
)
from twistlab.twists import (
    chain_twist,
    extended_twist_generic,
    jordanian_factor,
    sequence,
)

ALPHAS = (rat(0), rat(1, 3), rat(1, 2), rat(2, 5))


def _record(num: int, label: str, results) -> None:
    ok = all(r.passed for r in results)
    residual = sum(r.residual_nnz for r in results)
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2} {status} {label} "
          f"(checks={len(results)}, residual={residual})")
    assert ok, [r for r in results if not r.passed]


def _criterion1_twists():
    for n in range(2, 7):
        yield sequence(jordanian_factor(n, 1)), n
    for n in (3, 6):
        for alpha in ALPHAS:
            yield extended_twist_generic(n, 2 if n == 3 else 3, alpha), n
    for n in (6, 7):
        yield chain_twist(n, 1), n
    yield chain_twist(8, 3), 8


def test_criterion_01_twist_axioms():
    t0 = time.perf_counter()
    results = []
    for seq, n in _criterion1_twists():
        f = fundamental_morphism(n)
        results.append(cocycle_check(seq, f))
        results.append(counit_check(seq, f))
    elapsed = time.perf_counter() - t0
    _record(1, f"twist axioms, fundamental witness ({elapsed:.1f}s)", results)
    assert elapsed < 60.0


def _costructure_results(n, witness):
    results = []
    r = 2 if n == 3 else 3
    one = scal(1)
    for alpha in ALPHAS:
        beta = 1 - alpha
        h, a, b, e = carrier_generators(n, r, alpha)
        co = TwistedCoalgebra(extended_twist_generic(n, r, alpha), witness)
        lines = {
            "H": (h, [(h, sigma_power(-1, 1, n)), (one, h),
                      (mul(scal(-1), a), mul(b, sigma_power(-(beta + 1), 1, n)))]),
            "A": (a, [(a, sigma_power(-beta, 1, n)), (one, a)]),
            "B": (b, [(b, sigma_power(beta, 1, n)), (sigma_power(1, 1, n), b)]),
            "E": (e, [(e, sigma_power(1, 1, n)), (one, e)]),
        }
        from twistlab.hopf import Tally

        tally = Tally(f"costructure[a={alpha},N={n}]")
        for _label, (x, pairs) in lines.items():
            tally.equal(co.coproduct(x), co.expected(pairs))
        results.append(tally.result())
    return results


def test_criterion_02_extended_costructure():
    results = _costructure_results(3, fundamental_morphism(3)) + \
        _costructure_results(6, fundamental_morphism(6))
    _record(2, "deformed costructure of the extended twist", results)


def test_criterion_03_two_jordanian_table():
    results = [two_jordanian_table_check(fundamental_morphism(n)) for n in (7, 6)]
    _record(3, "2-Jordanian table, N=7 and N=6, all columns", results)


def test_criterion_04_nine_states():
    results = []
    for n in (6, 7):
        for r in range(3, n - 1):
            for sid in STATE_IDS:
                results.append(verify_state(sid, r, fundamental_morphism(n)))
    _record(4, "nine deformed costructures, N=6 and 7, all r", results)


def test_criterion_05_diagram():
    results = []
    for n in (6, 7):
        for r in range(3, n - 1):
            results.append(verify_diagram(r, fundamental_morphism(n)))
    _record(5, "diagram edges, squares, and commutation asymmetry", results)


def test_criterion_06_dragging():
    results = [verify_dragging(fundamental_morphism(n)) for n in (6, 7)]
    _record(6, "dragging identity and commuting shortcut", results)


def test_criterion_07_matreshka():
    results = [verify_matreshka(fundamental_morphism(n)) for n in (6, 7, 8)]
    _record(7, "matreshka effect on the nested block", results)


def test_criterion_08_r_matrices():
    results = []
    for seq, n in _criterion1_twists():
        if n <= 6:
            results.append(r_matrix_checks(seq, fundamental_morphism(n)))
    _record(8, "Yang-Baxter and triangularity for all N<=6 twists", results)


def test_criterion_09_antipode():
    results = []
    for n in (2, 3):
        gens = [cartan_element(n, 1, n), gen(1, n)]
        results.append(
            antipode_checks(sequence(jordanian_factor(n, 1)), gens, fundamental_morphism(n))
        )
    gens = list(carrier_generators(3, 2, rat(1, 2)))
    results.append(
        antipode_checks(extended_twist_generic(3, 2, rat(1, 2)), gens, fundamental_morphism(3))
    )
    _record(9, "twisted antipode axiom, Jordanian and extended", results)


def test_criterion_10_coassociativity():
    n = 6
    seq = chain_twist(n, 1)
    results = []
    for r in (3, 4):
        gens = list(heisenberg_pair_generators(n, r).values())
        results.append(coassociativity_check(seq, gens, fundamental_morphism(n)))
    _record(10, "coassociativity of the 2-chain coproduct", results)


def test_criterion_11_witness_robustness():
    n = 6
    f = fundamental_morphism(n)
    doubled = delta_morphism(f, f)
    results = []
    # criterion 1 items at N=6, doubled legs
    seqs = [sequence(jordanian_factor(n, 1))]
    seqs += [extended_twist_generic(n, 3, alpha) for alpha in ALPHAS]
    seqs += [chain_twist(n, 1)]
    for seq in seqs:
        results.append(cocycle_check(seq, witness=doubled))
        results.append(counit_check(seq, witness=doubled))
    # criterion 2 at N=6
    results += _costructure_results(n, witness=doubled)
    # criterion 3 at N=6
    results.append(two_jordanian_table_check(doubled))
    # criterion 4 at N=6
    for r in (3, 4):
        for sid in STATE_IDS:
            results.append(verify_state(sid, r, doubled))
    _record(11, "criteria 1-4 re-run in the doubled witness", results)


def test_criterion_12_core_properties():
    results = core_property_checks(cases=1000, seed=20240801)
    total = 1000
    _record(12, f"exact-core invariants on {total} randomized cases", results)
