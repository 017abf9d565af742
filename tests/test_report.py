import collections
import gc
import json
import random
import weakref

import pytest

from twistlab import exact, expr, hopf, report
from twistlab.errors import ConfigInvalid
from twistlab.exact import AnalyticFnSpec, SparseMatrix, kron
from twistlab.expr import (
    Morphism,
    coproduct_morphism,
    delta_morphism,
    doubled_morphism,
    eval_expr,
    eval_tensor_pairs,
)
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
from twistlab.states import STATES, Combinator
from twistlab.twists import TwistFactor, TwistSequence, materialize_factor


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


def _reference_matrix(rng, dim):
    """Reference for _random_matrix: each entry a Fraction, through from_entries."""
    entries = {}
    for _ in range(rng.randint(1, 2 * dim)):
        i, j = rng.randint(1, dim), rng.randint(1, dim)
        entries[(i, j)] = rat(rng.randint(-4, 4), rng.randint(1, 4))
    return SparseMatrix.from_entries(dim, entries)


def _reference_nilpotent(rng, dim):
    """Reference for _random_nilpotent: Fraction entries, then the product P m P^T."""
    entries = {}
    for _ in range(rng.randint(1, 2 * dim)):
        i = rng.randint(1, dim - 1)
        j = rng.randint(i + 1, dim)
        entries[(i, j)] = rat(rng.randint(-4, 4), rng.randint(1, 4))
    m = SparseMatrix.from_entries(dim, entries)
    perm = list(range(1, dim + 1))
    rng.shuffle(perm)
    p = SparseMatrix.from_entries(dim, {(perm[i - 1], i): 1 for i in range(1, dim + 1)})
    return p * m * p.transpose()


@pytest.mark.parametrize("built, reference", [
    (report._random_matrix, _reference_matrix),
    (report._random_nilpotent, _reference_nilpotent),
])
def test_random_cases_equal_their_fraction_built_references(built, reference):
    # the same rng calls in the same order give the same canonical (dim, den, rows)
    for seed in range(200):
        for dim in range(2, 6):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            m, ref = built(rng, dim), reference(ref_rng, dim)
            assert (m.dim, m.den, m.rows) == (ref.dim, ref.den, ref.rows), (seed, dim)
            assert rng.random() == ref_rng.random(), (seed, dim)


def _reference_polynomials(rng, m):
    """Reference for _random_polynomials: sums of Fraction-scaled powers."""
    a = b = SparseMatrix.zero(m.dim)
    power = m
    for _ in range(rng.randint(1, 3)):
        a = a + power.scale(rat(rng.randint(-3, 3), rng.randint(1, 3)))
        b = b + power.scale(rat(rng.randint(-3, 3), rng.randint(1, 3)))
        power = power * m
    return a, b


def test_random_polynomials_equal_their_fraction_built_references():
    # the coefficients go over den 6 * m.den^3, not the sums' lcm, so values are compared
    for seed in range(200):
        for dim in range(2, 6):
            m = report._random_nilpotent(random.Random(seed), dim)
            rng, ref_rng = random.Random(seed), random.Random(seed)
            assert report._random_polynomials(rng, m) == _reference_polynomials(ref_rng, m)
            assert rng.random() == ref_rng.random(), (seed, dim)


@pytest.mark.parametrize("width", range(1, 14))
def test_randint_draws_what_random_randint_draws(width):
    # a width that is not a power of two (1, 3, 5, 6, 7, 9, ...) makes CPython's
    # _randbelow redraw getrandbits, and _randint must redraw with it
    for seed in range(200):
        rng, ref = random.Random(seed), random.Random(seed)
        for a in (-6, 0, 1, 2):
            b = a + width - 1
            assert [report._randint(rng, a, b) for _ in range(6)] == [
                ref.randint(a, b) for _ in range(6)
            ], (seed, a)
        assert rng.random() == ref.random(), seed


@pytest.mark.parametrize("dim", range(2, 6))
def test_nilpotent_permutation_is_random_shuffles(monkeypatch, dim):
    # the entries _random_nilpotent hands on, relabeled by the permutation it
    # drew, against the same draws through randint and shuffle
    handed = []
    monkeypatch.setattr(report, "_case", lambda d, entries, perm: handed.append(
        [(perm[i - 1], perm[j - 1], v) for i, j, v in entries]))
    for seed in range(200):
        rng, ref = random.Random(seed), random.Random(seed)
        report._random_nilpotent(rng, dim)
        entries = []
        for _ in range(ref.randint(1, 2 * dim)):
            i = ref.randint(1, dim - 1)
            j = ref.randint(i + 1, dim)
            entries.append((i, j, ref.randint(-4, 4) * (12 // ref.randint(1, 4))))
        perm = list(range(1, dim + 1))
        ref.shuffle(perm)
        assert handed.pop() == [(perm[i - 1], perm[j - 1], v) for i, j, v in entries], seed
        assert rng.random() == ref.random(), seed


def test_core_checks_never_draw_through_random_randint(monkeypatch):
    # randint, randrange and shuffle cost about a third of core-tiny's time
    def refuse(*args):
        raise AssertionError("a case was drawn through random.Random's slow path")

    for name in ("randint", "randrange", "shuffle"):
        monkeypatch.setattr(random.Random, name, refuse)
    got = core_property_checks(400, 3)
    assert [(r.name, r.passed) for r in got] == [
        ("core[mixed-product]", True), ("core[exp-log-roundtrip]", True),
        ("core[pow1p-inverse]", True), ("core[exp-additivity]", True),
    ]


def _kron_right_transposed(a, b):
    return exact.kron(a, b.transpose())


def _series_without_m2(numerators):
    # c_2 = 0 in every series
    def without_m2(spec, terms):
        nums, q = numerators(spec, terms)
        return nums[:1] + (0,) * (terms > 1) + nums[2:], q
    return without_m2


def _pow1p_halved_k1(numerators):
    # c_1 / 2 in every pow1p series: the other numerators double over den 2q
    def halved(spec, terms):
        nums, q = numerators(spec, terms)
        if spec.kind != "pow1p" or not terms:
            return nums, q
        return nums[:1] + tuple(2 * n for n in nums[1:]), 2 * q
    return halved


# (law, residual) of core_property_checks(400, 3) per deliberately broken kernel
@pytest.mark.parametrize("target, name, broken, residuals", [
    (report, "kron", lambda _: _kron_right_transposed, (489, 0, 0, 0)),
    (AnalyticFnSpec, "numerators", _series_without_m2, (0, 9, 58, 50)),
    (AnalyticFnSpec, "numerators", _pow1p_halved_k1, (0, 0, 58, 0)),
])
def test_core_laws_catch_a_broken_kernel(monkeypatch, target, name, broken, residuals):
    laws = ["core[mixed-product]", "core[exp-log-roundtrip]",
            "core[pow1p-inverse]", "core[exp-additivity]"]
    clean = core_property_checks(400, 3)
    assert [(r.name, r.residual_nnz) for r in clean] == [(law, 0) for law in laws]
    # the table memo sits under the patched method, so the mutant takes effect
    monkeypatch.setattr(target, name, broken(getattr(target, name)))
    got = core_property_checks(400, 3)
    assert [(r.name, r.residual_nnz) for r in got] == list(zip(laws, residuals))
    assert [r.passed for r in got] == [res == 0 for res in residuals]


@pytest.mark.parametrize("cases", [-1, 0, 1, 3])
def test_core_checks_refuse_fewer_than_four_cases(cases):
    # with cases // 4 == 0 three laws would compare nothing and still pass
    with pytest.raises(ValueError):
        core_property_checks(cases, 3)


def test_every_core_law_compares_at_four_cases(monkeypatch):
    counts = {}
    equal = Tally.equal

    def counted(self, a, b):
        counts[self.name] = counts.get(self.name, 0) + 1
        return equal(self, a, b)

    monkeypatch.setattr(Tally, "equal", counted)
    got = core_property_checks(4, 3)
    assert all(r.passed for r in got)
    assert counts == {"core[mixed-product]": 1, "core[exp-log-roundtrip]": 1,
                      "core[pow1p-inverse]": 1, "core[exp-additivity]": 2}


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


# doubled diagram is left out: 1.7-2.0 s and 354 MB at N = 6 (3.3-3.9 s and
# 542 MB in the e_i x e_j basis, BENCH_34.json), most of it in the asymmetry
# lift, and its dragging row fails (ROADMAP item 7); that part is
# test_hopf.py::test_dragging_fails_in_the_doubled_witness, and
# test_the_doubled_witness_reports_what_its_e_i_e_j_basis_does runs it
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
    w_name = "doubled(4)"
    dw_name = f"delta[{w_name},{w_name}]"
    deltas, dws, built = [], [], []

    init = hopf.TwistedCoalgebra.__init__

    def spy_coalgebra(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.right is self.witness:
            deltas.append(self.delta)

    parts_in = hopf._parts_in

    def spy_parts(seq, w, dw):
        if dw.name == dw_name:  # not a base-twisted D_F
            dws.append(dw)
        return parts_in(seq, w, dw)

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


# (N, suites, whether E0J1J0's E_{r,N} entry is the wrong one of
# test_states.py::test_a_failing_compare_records_nothing, the failing rows)
BASIS_RUNS = [
    (4, None, False, []),
    (5, None, False, []),
    (6, ("twist-axioms", "nine-states", "diagram"), False,
     [["dragging[E0~,N=6]", False, 168, 1296, 15]]),
    (6, ("nine-states",), True, [["state[E0J1J0,N=6,r=3]", False, 144, 1296, 8]]),
]


@pytest.mark.parametrize("n, suites, wrong, failing", BASIS_RUNS,
                         ids=["n4", "n5", "n6", "n6-wrong-entry"])
def test_the_doubled_witness_reports_what_its_e_i_e_j_basis_does(n, suites, wrong, failing,
                                                                 monkeypatch):
    # every suite at N = 4 and 5; each row's name, verdict, residual and dims,
    # and its count of Tally compares, in doubled_morphism's basis and in
    # coproduct_morphism's, the same representation in e_i x e_j
    if wrong:
        labels, entries = STATES["E0J1J0"]
        wrong_entries = {**entries, "ern": ((1, Combinator("Pplus", i=1)),)}
        monkeypatch.setitem(STATES, "E0J1J0", (labels, wrong_entries))
    compares = collections.Counter()

    def counted(original):
        def method(self, *args):
            compares[self.name] += 1
            return original(self, *args)
        return method

    for name in ("equal", "nonzero"):
        monkeypatch.setattr(Tally, name, counted(getattr(Tally, name)))
    suites = suites or tuple(s for s, (need, _) in SUITES.items() if need <= n)
    cfg = SuiteConfig(n=n, suites=suites, r_values=(3,) if n >= 5 else (),
                      alpha_values=(rat(1, 3), rat(1, 2)), witness="doubled")
    rows = {}
    for build in (doubled_morphism, coproduct_morphism):
        monkeypatch.setitem(WITNESSES, "doubled", build)
        compares.clear()
        rows[build] = [[r.name, r.passed, r.residual_nnz, r.dims, compares[r.name]]
                       for r in run_suite(cfg).results]
    assert rows[doubled_morphism] == rows[coproduct_morphism]
    assert [row for row in rows[doubled_morphism] if not row[1]] == failing


def test_a_run_frees_its_witness(monkeypatch):
    builds = dict(WITNESSES)
    runs = [SuiteConfig(n=4, suites=("twist-axioms", "chain"), witness=w) for w in builds]
    # the doubled coproduct at N = 6 has 1,296 dims, so its images are built in packed.py
    runs.append(SuiteConfig(n=6, suites=("nine-states",), r_values=(3,), witness="doubled"))
    for cfg in runs:
        refs = []

        def kept(n, build=builds[cfg.witness]):
            w = build(n)
            refs.append(weakref.ref(w))
            return w

        monkeypatch.setitem(WITNESSES, cfg.witness, kept)
        gc.disable()
        try:
            # only reference counting frees here: a cycle through the witness
            # would keep it and its caches alive
            run_suite(cfg)
            assert len(refs) == 1 and refs[0]() is None, (cfg.witness, cfg.n)
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
    held = delta_morphism(shared, shared)._cache
    # every value the first run kept, with a copy of what it stores: a caller
    # that mutated a shared part would change it under the second run
    first = {key: (value, _stored(value)) for key, value in held.items()}
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
    for key, (value, stored) in first.items():
        assert held[key] is value and _stored(value) == stored, key

    new = WITNESSES[witness](n)
    new_delta = delta_morphism(new, new)
    kinds = set()
    for key, value in held.items():
        if key == "I":
            assert value == new_delta.identity
        elif isinstance(key, TwistSequence):
            kinds.add("record")
            co = hopf.TwistedCoalgebra(key, new)
            for x, entry in value.items():
                assert entry == co.coproduct(x), (key, x)
        elif isinstance(key, TwistFactor):
            kinds.add("factor part")
            assert value == materialize_factor(key, new, new), key
        elif isinstance(key, tuple) and isinstance(key[0], tuple):
            kinds.add("table entry")
            assert value == eval_tensor_pairs(key, new, new), key
        elif isinstance(key, tuple):
            assert value == new_delta.gen(*key)
        else:
            kinds.add("image")
            assert value == eval_expr(key, new_delta), key
    # the state tables, and so their records, start at N = 6
    assert kinds == {"factor part", "table entry", "image"} | ({"record"} if n >= 6 else set())


def _stored(m):
    """A copy of every field a SparseMatrix or Packed matrix stores, or of
    every entry of a twist's dict of proven coproducts."""
    if isinstance(m, dict):
        return {x: _stored(entry) for x, entry in m.items()}
    if isinstance(m, SparseMatrix):
        return m.dim, m.den, {i: dict(row) for i, row in m.rows.items()}
    return m.dim, m.den, str(m.keys.dtype), m.keys.tolist(), str(m.vals.dtype), m.vals.tolist()


# (N, suites) of the runs whose doubled witness is built under a floor of N^2
# dims, so its own images are packed as well as every space built over it
PACKED_WITNESS_RUNS = [
    (3, ("twist-axioms", "rmatrix", "antipode", "transitions")),
    (4, ("twist-axioms", "chain", "rmatrix", "antipode", "matreshka", "transitions")),
    (6, ("nine-states",)),
]


@pytest.mark.parametrize("n, suites", PACKED_WITNESS_RUNS, ids=["n3", "n4", "n6"])
def test_a_packed_doubled_witness_gives_the_default_rows_and_dumps(n, suites, tmp_path,
                                                                    monkeypatch):
    packed = pytest.importorskip("twistlab.packed")
    runs = {}
    for floor in (expr.PACKED_FLOOR, n * n):
        monkeypatch.setattr(expr, "PACKED_FLOOR", floor)
        assert isinstance(WITNESSES["doubled"](n).gen(1, 2), packed.Packed) == (floor == n * n)
        out = tmp_path / str(floor)
        cfg = SuiteConfig(n=n, suites=suites, r_values=(3,) if n >= 6 else (),
                          witness="doubled", dump_dir=None if n >= 6 else str(out))
        rows = _rows(run_suite(cfg))
        assert rows and all(row["passed"] for row in rows)
        dumps = {p.name: p.read_bytes() for p in out.iterdir()} if cfg.dump_dir else {}
        runs[floor] = rows, dumps
    assert runs[n * n] == runs[expr.PACKED_FLOOR]
