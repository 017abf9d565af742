"""Tests of the benchmark itself:  python3 -m pytest perfbench  (from the repo root)."""

import json
import os
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# The per-layer metric names the benchmark promises, spelled out.
PER_LAYER = {
    "exact.matmul.calls", "exact.matmul.self_s", "exact.matmul.madds",
    "exact.matmul.out_nnz", "exact.matmul.int64_safe_ratio",
    "exact.add.calls", "exact.add.self_s", "exact.kron.calls", "exact.kron.self_s",
    "exact.peak_nnz", "exact.peak_dim",
    "exact.analytic_apply.calls", "exact.analytic_apply.self_s", "exact.analytic_apply.matmuls",
    "exact.nilpotency_index.self_s", "exact.nilpotency_index.matmuls",
    "twists.materialize_factor.calls", "twists.materialize_factor.s",
    "twists.materialize_factor.distinct_ratio",
    "twists.materialize.calls", "twists.materialize.s",
    "hopf.TwistedCoalgebra.calls", "hopf.TwistedCoalgebra.s",
    "hopf.Tally.equal.calls", "hopf.Tally.equal.s", "hopf.Tally.equal.equal_ratio",
    "expr.eval_expr.calls", "expr.eval_expr.s", "expr.eval_expr.hit_ratio",
    "expr.eval_tensor_pairs.s",
    "hopf.cocycle_check.s", "hopf.counit_check.s", "hopf.r_matrix_checks.s",
    "hopf.antipode_checks.s", "hopf.coassociativity_check.s", "hopf.verify_dragging.s",
    "hopf.coproduct.s",
    "states.verify_state.s", "states.verify_diagram.s", "states.expected_entry.s",
    "states.two_jordanian_table_check.s", "states.verify_matreshka.s",
    "states.verify_transition_schemes.s",
    "report.run_suite.s", "report.emit_report.s", "report.dump_matrix.s",
    "report.core_property_checks.s", "report.dump_matrix.bytes",
    "trace.overhead_ratio", "host.calib_s",
}


def row(name, passed=True, residual=0, dims=4, comparisons=1):
    return [name, passed, residual, dims, comparisons]


# -- report parser ------------------------------------------------------------

REFERENCE_ROWS = [row("a"), row("b"), row("c")]


def test_clean_pass_matches_the_reference():
    assert workloads.score_pass({"checks": REFERENCE_ROWS}, REFERENCE_ROWS) == (3, 0)


def test_failed_check_fails_the_whole_pass():
    rows = [row("a"), row("b", passed=False, residual=3), row("c")]
    assert workloads.score_pass({"checks": rows}, REFERENCE_ROWS) == (3, 3)


def test_nonzero_residual_counts_even_when_marked_passed():
    rows = [row("a", residual=1), row("b"), row("c")]
    assert workloads.score_pass({"checks": rows}, REFERENCE_ROWS) == (3, 3)


def test_raising_pass_counts_every_expected_check_as_failed():
    assert workloads.score_pass({"error": "NotNilpotent"}, [row(str(i)) for i in range(56)]) == (56, 56)
    assert workloads.score_pass({"error": "boom"}, []) == (1, 1)


def test_fewer_comparisons_changed_dims_or_broken_dump_fail_the_pass():
    fewer = [row("a"), row("b", comparisons=0), row("c")]
    assert workloads.score_pass({"checks": fewer}, REFERENCE_ROWS) == (3, 3)
    wider = [row("a"), row("b", dims=8), row("c")]
    assert workloads.score_pass({"checks": wider}, REFERENCE_ROWS) == (3, 3)
    broken = {"checks": REFERENCE_ROWS, "dumps_ok": False}
    assert workloads.score_pass(broken, REFERENCE_ROWS) == (3, 3)


def test_gate_scores_a_raising_pass_against_the_clean_ones():
    good = {"checks": REFERENCE_ROWS}
    assert run.gate([good, {"error": "raised"}, good], REFERENCE_ROWS) == (9, 3)


def test_check_rows_are_sorted_typed_and_carry_comparisons():
    checks = [
        {"name": "z", "passed": True, "residual_nnz": 0, "dims": 6, "elapsed": 0.1},
        {"name": "a", "passed": False, "residual_nnz": 2, "dims": 36, "elapsed": 0.2},
    ]
    assert workloads.check_rows(checks, {"z": 7}) == [["a", False, 2, 36, 0], ["z", True, 0, 6, 7]]


def test_comparisons_are_counted_per_check_name():
    import child
    from twistlab import hopf
    from twistlab.exact import SparseMatrix

    class Tally(hopf.Tally):
        pass

    counts = child.count_comparisons(Tally)
    t = Tally("x")
    t.equal(SparseMatrix.identity(2), SparseMatrix.identity(2))
    t.nonzero(SparseMatrix.identity(2))
    Tally("y").equal(SparseMatrix.identity(2), SparseMatrix.zero(2))
    assert counts == {"x": 2, "y": 1}
    assert t.result().passed


# -- reference rows -----------------------------------------------------------


def test_reference_covers_every_input_the_seed_can_pick():
    ref = workloads.load_reference()
    for n in workloads.FUND_NS:
        assert set(ref["fund-sweep"][str(n)]["alpha"]) == set(workloads.ALPHA_POOL)
    assert set(ref["doubled-n6"]) == set(workloads.ALPHA_POOL)
    for seed in range(5):
        for name in workloads.WORKLOADS:
            rows = workloads.expected_rows(name, seed, ref)
            assert rows and all(passed and residual == 0 for _n, passed, residual, *_ in rows)


def test_reference_rows_assemble_a_multi_alpha_run():
    import child
    import twistlab
    import twistlab.cli

    ref = workloads.load_reference()["fund-sweep"]["6"]
    picked = ["1/3", "3/4"]
    tally = twistlab.hopf.Tally
    originals = {attr: vars(tally)[attr] for attr in ("equal", "nonzero")}
    counts = child.count_comparisons(tally)
    try:
        outputs, error = child.run_pass(
            twistlab, {"verify": [workloads.fund_argv(6, ",".join(picked))]}, None)
    finally:
        for attr, original in originals.items():
            setattr(tally, attr, original)
    assert error is None
    expected = sorted(ref["common"] + ref["alpha"][picked[0]] + ref["alpha"][picked[1]])
    assert child.rows_of(outputs, counts) == expected


# -- seeded inputs --------------------------------------------------------------


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_fixes_the_inputs(name):
    assert workloads.workload_inputs(name, 7) == workloads.workload_inputs(name, 7)


def test_seed_picks_distinct_alphas_from_the_pool():
    seen = set()
    for seed in range(20):
        picked = workloads.alphas(seed, workloads.FUND_ALPHAS)
        assert len(set(picked)) == workloads.FUND_ALPHAS
        assert set(picked) <= set(workloads.ALPHA_POOL)
        seen.add(tuple(picked))
    assert len(seen) > 1


def test_core_cases_follow_the_seed():
    from twistlab import core_property_checks

    assert workloads.workload_inputs("core-tiny", 11) == {"core": [workloads.CORE_CASES, 11]}

    def rows(seed):
        return [(r.name, r.passed, r.residual_nnz, r.dims) for r in core_property_checks(40, seed)]

    assert rows(11) == rows(11)


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError):
        workloads.workload_inputs("nope", 1)


# -- metric names -------------------------------------------------------------


def test_per_layer_names_are_exactly_the_promised_set():
    emitted = set(spans.Tracer().layer_metrics()) | {"trace.overhead_ratio", "host.calib_s"}
    assert emitted == PER_LAYER


def test_benchmark_json_lists_the_emitted_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {m["name"] for m in bench["per_layer"]} == PER_LAYER
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    for m in bench["per_layer"]:
        assert run.unit_of(m["name"]) == m["unit"], m["name"]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


# -- tracer -------------------------------------------------------------------


def test_tracer_replaces_every_binding_and_restores_them():
    import twistlab  # noqa: F401
    import twistlab.cli  # noqa: F401
    from twistlab import exact, hopf, report

    original_kron = exact.kron
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert hopf.kron is not original_kron and report.kron is hopf.kron
        cfg = report.SuiteConfig(n=3, suites=("twist-axioms",), alpha_values=(0,))
        rep = report.run_suite(cfg)
    finally:
        tracer.uninstall()
    assert hopf.kron is original_kron and exact.kron is original_kron
    assert rep.all_passed()
    layers = tracer.layer_metrics()
    assert layers["exact.matmul.calls"] > 0
    assert layers["hopf.cocycle_check.s"] > 0
    assert layers["report.run_suite.s"] >= layers["hopf.cocycle_check.s"]
    assert 0 < layers["twists.materialize_factor.distinct_ratio"] <= 1


def test_tracer_self_check_fails_on_a_binding_it_cannot_replace():
    from twistlab import exact

    holder = types.ModuleType("twistlab._holder_probe")
    holder.Holder = type("Holder", (), {"kron": exact.kron})
    sys.modules[holder.__name__] = holder
    try:
        with pytest.raises(spans.TraceInstallError, match="Holder.kron"):
            spans.Tracer().install()
        assert exact.kron is holder.Holder.__dict__["kron"]  # rolled back
    finally:
        del sys.modules[holder.__name__]


def test_spans_round_trip(tmp_path):
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    path = tmp_path / "spans.bin"
    tracer.write_spans(str(path))
    back = spans.read_spans(str(path))
    assert back["names"] == ["inner", "outer"]
    assert list(back["parent"]) == [-1, 0]
    assert back["end"][1] <= back["end"][0]


# -- host-speed normalization -------------------------------------------------


def test_reference_seconds_drop_probe_time_and_scale_by_host_speed():
    ref = hostspeed.PROBE_REF_S
    sampler = hostspeed.Sampler()
    sampler.samples = [2 * ref] * 4  # the host ran at half the reference speed
    sampler.spent = sum(sampler.samples)
    assert sampler.reference_seconds(10.0 + sampler.spent, (0, 0.0)) == pytest.approx(5.0)
    since = sampler.mark()
    sampler.samples.append(ref)
    sampler.spent += ref
    assert sampler.reference_seconds(1.0 + ref, since) == pytest.approx(1.0)


def test_median_probe_reads_the_window_since_the_mark():
    sampler = hostspeed.Sampler()
    sampler.samples = [9.0, 1.0, 3.0, 2.0]
    assert sampler.median_probe((1, 0.0)) == 2.0
    assert sampler.median_probe((0, 0.0)) == 3.0


def test_sampler_ticks_during_work_and_stops():
    sampler = hostspeed.Sampler()
    sampler.start(0.005)
    try:
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            hostspeed.probe()
    finally:
        sampler.stop()
    ticks = len(sampler.samples)
    assert ticks >= 5
    time.sleep(0.02)
    assert len(sampler.samples) == ticks
