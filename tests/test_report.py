import gc
import json
import weakref

import pytest

from twistlab import hopf
from twistlab.errors import ConfigInvalid
from twistlab.exact import SparseMatrix, kron
from twistlab.expr import Morphism, delta_morphism, eval_expr
from twistlab.hopf import Tally
from twistlab.rationals import rat
from twistlab.report import (
    SUITE_NAMES,
    SUITES,
    WITNESSES,
    SuiteConfig,
    config_from_dict,
    core_property_checks,
    dump_matrix,
    emit_report,
    load_matrix,
    run_suite,
)


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        SuiteConfig(n=1, suites=("core",)).validate()
    with pytest.raises(ConfigInvalid):
        SuiteConfig(n=6, suites=("bogus",)).validate()
    with pytest.raises(ConfigInvalid):
        SuiteConfig(n=5, suites=("nine-states",)).validate()
    with pytest.raises(ConfigInvalid):
        SuiteConfig(n=3, suites=("matreshka",)).validate()
    with pytest.raises(ConfigInvalid):
        SuiteConfig(n=6, suites=("core",), witness="triple").validate()
    SuiteConfig(n=6, suites=("core", "diagram"), r_values=(3, 4)).validate()


def test_dump_dir_writes_named_twists(tmp_path):
    cfg = SuiteConfig(n=3, suites=("rmatrix",), alpha_values=(rat(1, 2),),
                      dump_dir=str(tmp_path))
    rep = run_suite(cfg)
    assert rep.all_passed()
    files = sorted(p.name for p in tmp_path.iterdir())
    assert any(name.startswith("jordanian") for name in files)
    for p in tmp_path.iterdir():
        m = load_matrix(str(p))
        assert m.dim == 9


def test_core_property_checks_pass():
    results = core_property_checks(cases=80, seed=7)
    assert len(results) == 4
    assert all(r.passed for r in results)


def test_run_suite_small():
    cfg = SuiteConfig(n=3, suites=("twist-axioms", "rmatrix", "antipode"),
                      alpha_values=(rat(1, 2), rat(1, 3)))
    rep = run_suite(cfg)
    assert rep.all_passed()
    names = [r.name for r in rep.results]
    assert names == sorted(names)
    assert any(name.startswith("cocycle[") for name in names)


def test_report_formats():
    cfg = SuiteConfig(n=3, suites=("rmatrix",), alpha_values=(rat(1, 2),))
    rep = run_suite(cfg)
    text = emit_report(rep)
    assert "PASS rmatrix" in text
    assert f"{rep.passed} passed / 0 failed" in text
    cfg.output = "json"
    payload = json.loads(emit_report(rep))
    assert payload["summary"]["failed"] == 0
    assert payload["config"]["n"] == 3
    assert payload["config"]["alpha_values"] == ["1/2"]
    for check in payload["checks"]:
        assert set(check) == {"name", "passed", "residual_nnz", "dims", "elapsed"}


def test_empty_report_is_valid_json():
    from twistlab.report import SuiteReport

    cfg = SuiteConfig(n=6, suites=("core",), output="json")
    payload = json.loads(emit_report(SuiteReport(cfg, [])))
    assert payload["checks"] == []
    assert payload["summary"] == {"total": 0, "passed": 0, "failed": 0, "elapsed": 0.0}


def test_report_determinism():
    cfg = SuiteConfig(n=3, suites=("twist-axioms",), alpha_values=(rat(1, 3),))
    a = run_suite(cfg).to_dict()
    b = run_suite(cfg).to_dict()
    strip = lambda d: [
        {k: v for k, v in chk.items() if k != "elapsed"} for chk in d["checks"]
    ]
    assert strip(a) == strip(b)
    assert a["summary"]["total"] == b["summary"]["total"]


def test_dump_round_trip(tmp_path):
    m = kron(
        SparseMatrix.from_entries(2, {(1, 2): rat(3, 7)}),
        SparseMatrix.identity(2),
    )
    path = tmp_path / "m.mat"
    dump_matrix(m, str(path))
    assert load_matrix(str(path)) == m


def test_config_from_dict():
    cfg = config_from_dict(
        {"n": 6, "suites": ["core"], "alpha_values": ["1/3", "0"], "witness": "doubled"}
    )
    assert cfg.n == 6
    assert cfg.alpha_values == (rat(1, 3), rat(0))
    assert cfg.witness == "doubled"
    with pytest.raises(ConfigInvalid):
        config_from_dict({"suites": ["core"]})


# Tally.equal plus Tally.nonzero calls per suite at N = 6, r = 3, alpha = 1/3
# in the fundamental witness; a change that drops or adds a comparison
# must update this table on purpose.
SUITE_COMPARISONS = {
    "twist-axioms": 12, "chain": 22, "nine-states": 84, "diagram": 115,
    "rmatrix": 6, "antipode": 14, "matreshka": 19, "transitions": 58,
}


def test_comparison_table_covers_every_suite_but_core():
    assert set(SUITE_COMPARISONS) == set(SUITE_NAMES) - {"core"}


@pytest.mark.parametrize("suite,count", sorted(SUITE_COMPARISONS.items()))
def test_comparisons_per_suite(suite, count, monkeypatch):
    calls = []

    def counted(original):
        def method(self, *args):
            calls.append(args)
            return original(self, *args)
        return method

    for name in ("equal", "nonzero"):
        monkeypatch.setattr(Tally, name, counted(getattr(Tally, name)))
    cfg = SuiteConfig(n=6, suites=(suite,), r_values=(3,), alpha_values=(rat(1, 3),))
    report = run_suite(cfg)
    assert all(res.passed for res in report.results)
    assert len(calls) == count


# doubled diagram is left out: about 58 s at N = 6, almost all of it in the
# asymmetry lift (ROADMAP item 7); the part of it that fails is
# test_hopf.py::test_dragging_fails_in_the_doubled_witness
LEFT_OUT = {("diagram", "doubled")}


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_every_suite_runs_the_same_checks_in_every_witness(suite):
    min_n, _ = SUITES[suite]
    names = {}
    for witness in WITNESSES:
        if (suite, witness) in LEFT_OUT:
            continue
        # r must lie in 3..N-2; the suites that read it start at N = 6
        cfg = SuiteConfig(n=min_n, suites=(suite,), r_values=(3,) if min_n >= 5 else (),
                          witness=witness)
        report = run_suite(cfg)
        assert [r.name for r in report.results if not r.passed] == []
        names[witness] = [r.name for r in report.results]
    assert all(got == names["fundamental"] for got in names.values())


def test_a_suite_named_twice_runs_once():
    strip = lambda rep: [
        {k: v for k, v in chk.items() if k != "elapsed"} for chk in rep.to_dict()["checks"]
    ]
    once = run_suite(SuiteConfig(n=4, suites=("chain",)))
    twice = run_suite(SuiteConfig(n=4, suites=("chain", "chain")))
    assert len(once.results) == 7
    assert strip(twice) == strip(once)


# -- one coproduct per witness -------------------------------------------------


def _rows(rep) -> list:
    return [{k: v for k, v in chk.items() if k != "elapsed"} for chk in rep.to_dict()["checks"]]


def test_a_doubled_run_builds_one_coproduct(monkeypatch):
    w_name = "delta[fund(4),fund(4)]"
    dw_name = f"delta[{w_name},{w_name}]"
    deltas, dws, built = [], [], []

    init = hopf.TwistedCoalgebra.__init__

    def spy_coalgebra(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.right is self.witness:
            deltas.append(self.delta)

    parts_in = hopf._parts_in

    def spy_parts(kernel, seq, w, dw):
        if dw.name == dw_name:  # not a base-twisted D_F
            dws.append(dw)
        return parts_in(kernel, seq, w, dw)

    morphism = Morphism.__init__

    def spy_morphism(self, n, dim, gen_image, name=""):
        if name == dw_name:
            def gen_image(i, j, image=gen_image):
                built.append((i, j))
                return image(i, j)
        morphism(self, n, dim, gen_image, name)

    monkeypatch.setattr(hopf.TwistedCoalgebra, "__init__", spy_coalgebra)
    monkeypatch.setattr(hopf, "_parts_in", spy_parts)
    monkeypatch.setattr(Morphism, "__init__", spy_morphism)
    rep = run_suite(SuiteConfig(n=4, suites=("twist-axioms", "chain"), witness="doubled"))
    assert rep.all_passed()
    assert len(deltas) >= 2 and dws
    assert all(d is dws[0] for d in deltas + dws)
    assert built and len(built) == len(set(built))


def test_a_run_frees_its_witness(monkeypatch):
    for witness, build in list(WITNESSES.items()):
        refs = []

        def kept(n, build=build):
            w = build(n)
            refs.append(weakref.ref(w))
            return w

        monkeypatch.setitem(WITNESSES, witness, kept)
        gc.disable()
        try:
            # only reference counting frees here: a cycle through the witness
            # would keep it and its caches alive
            run_suite(SuiteConfig(n=4, suites=("twist-axioms", "chain"), witness=witness))
            assert len(refs) == 1 and refs[0]() is None, witness
        finally:
            gc.enable()


# (witness, N, suites left out, whether the second run widens) of the
# shared-witness runs; core reads no witness, and doubled rmatrix at N = 5
# evaluates no coproduct image
SHARED_RUNS = [
    ("fundamental", 6, {"core"}, False),
    ("doubled", 4, {"core"}, True),
    ("doubled", 5, {"core", "rmatrix"}, False),
]


@pytest.mark.parametrize("witness, n, left_out, wide", SHARED_RUNS,
                         ids=["fundamental-6", "doubled-4", "doubled-5"])
def test_a_shared_coproduct_changes_no_row_and_no_matrix(witness, n, left_out, wide,
                                                         monkeypatch):
    suites = tuple(s for s, (need, _) in SUITES.items()
                   if need <= n and s not in left_out and (s, witness) not in LEFT_OUT)
    cfg = SuiteConfig(n=n, suites=suites, r_values=(3,) if n >= 5 else (), witness=witness)
    fresh = _rows(run_suite(cfg))

    shared = WITNESSES[witness](n)
    monkeypatch.setitem(WITNESSES, witness, lambda _: shared)
    assert _rows(run_suite(cfg)) == fresh
    if wide:
        packed = pytest.importorskip("twistlab.packed")
        # every packed operation of the second run widens to Python ints, over
        # the images the first run left in the shared coproduct
        monkeypatch.setattr(packed, "INT64_MAX", 2 ** 10)
        widened = []
        init = packed.Packed.__init__

        def spy(self, dim, keys, vals, den=1):
            widened.append(vals.dtype == object)
            init(self, dim, keys, vals, den)

        monkeypatch.setattr(packed.Packed, "__init__", spy)
    assert _rows(run_suite(cfg)) == fresh
    if wide:
        assert any(widened)

    held = delta_morphism(shared, shared)._cache
    new = WITNESSES[witness](n)
    new_delta = delta_morphism(new, new)
    assert held
    for key, value in held.items():
        if key == "I":
            assert value == new_delta.identity
        elif isinstance(key, tuple):
            assert value == new_delta.gen(*key)
        else:
            assert value == eval_expr(key, new_delta), key
