import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from twistlab import exact as exact_kernel, expr
from twistlab.errors import DimensionMismatch, NotApplicable
from twistlab.exact import SparseMatrix, kron
from twistlab.expr import (
    PACKED_FLOOR,
    add,
    contragredient_morphism,
    coproduct_morphism,
    delta_morphism,
    doubled_morphism,
    eval_expr,
    fundamental_morphism,
    gen,
    kernel_for,
    mul,
    scal,
    sigma_power,
)
from twistlab.hopf import (
    Tally,
    TwistedCoalgebra,
    _antipode_contraction,
    _parts_in,
    antipode_checks,
    coassociativity_check,
    cocycle_check,
    counit_check,
    r_matrix_checks,
    twist_antipode_correction,
    verify_dragging,
)
from twistlab.rationals import rat
from twistlab.report import SuiteConfig, run_suite
from twistlab.roots import carrier_generators, cartan_element
from twistlab.states import STATE_IDS, costructure_table, heisenberg_pair_generators
from twistlab.twists import (
    chain_twist,
    extended_twist_generic,
    extension_factor,
    external_factor,
    generic_extension_factor,
    jordanian_factor,
    materialize,
    nilpotent_part,
    sequence,
    twist_factor,
)


def jordanian(n):
    return sequence(jordanian_factor(n, 1))


def test_cocycle_jordanian_small():
    for n in (2, 3, 4):
        res = cocycle_check(jordanian(n), fundamental_morphism(n))
        assert res.passed, res


def test_cocycle_extended_generic():
    res = cocycle_check(extended_twist_generic(3, 2, rat(1, 3)), fundamental_morphism(3))
    assert res.passed


@settings(max_examples=25, deadline=None)
@given(st.fractions(min_value=-3, max_value=3, max_denominator=5))
def test_cocycle_extended_any_rational_alpha(alpha):
    seq = extended_twist_generic(3, 2, rat(alpha))
    f3 = fundamental_morphism(3)
    assert cocycle_check(seq, f3).passed
    assert counit_check(seq, f3).passed


def test_cocycle_fails_for_bare_extension():
    res = cocycle_check(
        sequence(generic_extension_factor(3, 2, rat(1, 2))), fundamental_morphism(3)
    )
    assert not res.passed
    assert res.residual_nnz > 0


def _failing_cocycles(n):
    """An extension without its Jordanian, and a Jordanian followed by an
    extension whose sigma power is -1 instead of -1/2."""
    wrong = twist_factor(
        f"E'(1,2,{n})", n, [(gen(1, 2), mul(gen(2, n), sigma_power(-1, 1, n)))]
    )
    return {
        "bare": sequence(extension_factor(n, 1, 2)),
        "wrong-power": sequence(jordanian_factor(n, 1), wrong),
    }


@pytest.mark.parametrize("witness, twist, residual, dims", [
    ("fundamental", "bare", 2, 64),
    ("fundamental", "wrong-power", 2, 64),
    ("doubled", "bare", 1541, 4096),
    ("doubled", "wrong-power", 1509, 4096),
])
def test_cocycle_residual_is_that_of_the_whole_products(witness, twist, residual, dims):
    # the check compares nilpotent parts, (1 + x) - (1 + y) = x - y, so its
    # residual is the nnz of F12 (D x id)(F) - F23 (id x D)(F) built whole
    f = fundamental_morphism(4)
    w = f if witness == "fundamental" else delta_morphism(f, f)
    seq = _failing_cocycles(4)[twist]
    res = cocycle_check(seq, witness=w)
    assert (res.passed, res.residual_nnz, res.dims) == (False, residual, dims)
    ident = SparseMatrix.identity(w.dim)
    dw = delta_morphism(w, w)
    f2 = materialize(seq, w, w)
    lhs = kron(f2, ident) * materialize(seq, dw, w)
    rhs = kron(ident, f2) * materialize(seq, w, dw)
    assert (lhs - rhs).nnz == residual


@pytest.mark.parametrize("witness, twist, residual, dims", [
    ("fundamental", "bare", 4, 64),
    ("fundamental", "wrong-power", 5, 64),
    ("doubled", "bare", 3016, 4096),
    ("doubled", "wrong-power", 3528, 4096),
])
def test_coassociativity_fails_for_a_non_cocycle(witness, twist, residual, dims):
    f = fundamental_morphism(4)
    w = f if witness == "fundamental" else delta_morphism(f, f)
    gens = [gen(1, 2), gen(1, 4), gen(2, 4), cartan_element(4, 1, 4)]
    res = coassociativity_check(_failing_cocycles(4)[twist], gens, witness=w)
    assert (res.passed, res.residual_nnz, res.dims) == (False, residual, dims)


# Doubled witness at N = 5: 15,625-dim three-leg spaces, above expr.PACKED_FLOOR.
# The residuals are those the Python kernel gives.
THREE_LEG_N5 = [
    ("cocycle", "bare", 2765),
    ("cocycle", "wrong-power", 2717),
    ("cocycle", "jordanian", 0),
    ("coassoc", "bare", 5490),
    ("coassoc", "wrong-power", 6490),
    ("coassoc", "jordanian", 0),
    ("rmatrix", "bare", 9941),
    ("rmatrix", "wrong-power", 2436),
    ("rmatrix", "jordanian", 0),
]


def _three_leg_n5(check, twist):
    w = coproduct_morphism(5)
    seq = jordanian(5) if twist == "jordanian" else _failing_cocycles(5)[twist]
    if check == "cocycle":
        res = cocycle_check(seq, w)
    elif check == "rmatrix":
        res = r_matrix_checks(seq, w)
    else:
        gens = [gen(1, 2), gen(1, 5), gen(2, 5), cartan_element(5, 1, 5)]
        res = coassociativity_check(seq, gens, w)
    return [res.passed, res.residual_nnz, res.dims]


def _widened(packed, monkeypatch) -> list:
    """A list that gets the nnz of each Packed matrix formed with Python-int numerators."""
    wide = []
    init = packed.Packed.__init__

    def spy(self, dim, keys, vals, den=1):
        if vals.dtype == object:
            wide.append(len(vals))
        init(self, dim, keys, vals, den)

    monkeypatch.setattr(packed.Packed, "__init__", spy)
    return wide


@pytest.mark.parametrize("limit", [None, 2 ** 10], ids=["int64", "forced-fallback"])
@pytest.mark.parametrize("check, twist, residual", THREE_LEG_N5)
def test_three_leg_checks_above_the_packed_floor(check, twist, residual, limit, monkeypatch):
    packed = pytest.importorskip("twistlab.packed")

    # the kernels whose kron, called as kernel.kron, formed a three-leg matrix
    used = set()
    for kernel in (exact_kernel, packed):
        def spy(a, b, kron=kernel.kron, name=kernel.__name__.rsplit(".", 1)[-1]):
            out = kron(a, b)
            if out.dim == 15625:
                used.add(name)
            return out

        monkeypatch.setattr(kernel, "kron", spy)
    wide = _widened(packed, monkeypatch)
    if limit is not None:
        # no case can finish within 2^10, so the packed run goes on in Python ints
        monkeypatch.setattr(packed, "INT64_MAX", limit)
    assert _three_leg_n5(check, twist) == [residual == 0, residual, 15625]
    assert used == {"packed"}
    assert bool(wide) == (limit is not None)


# Doubled witness at N = 6, r = 3: the nine states and the 2-Jordanian block
# on 1,296-dim two-leg spaces, above expr.PACKED_FLOOR, as [name, passed,
# residual, dims, comparisons] in report order.  The rows are those the Python
# kernel gives.
NINE_STATES_N6 = [["2jordanian[N=6]", True, 0, 1296, 12]] + [
    [f"state[{sid},N=6,r=3]", True, 0, 1296, 8] for sid in sorted(STATE_IDS)
]


def _doubled_n6_rows(suites):
    """[name, passed, residual, dims, comparisons] of the suites in the doubled
    witness at N = 6, r = 3; comparisons counts Tally.equal and Tally.nonzero."""
    counts = {}
    equal, nonzero = Tally.equal, Tally.nonzero

    def counted(method):
        def count(self, *args):
            counts[self.name] = counts.get(self.name, 0) + 1
            # the verdict is passed on: a table check records what it proved
            return method(self, *args)
        return count

    Tally.equal, Tally.nonzero = counted(equal), counted(nonzero)
    try:
        report = run_suite(SuiteConfig(n=6, suites=tuple(suites), r_values=(3,),
                                       witness="doubled"))
    finally:
        Tally.equal, Tally.nonzero = equal, nonzero
    return [[r.name, r.passed, r.residual_nnz, r.dims, counts.get(r.name, 0)]
            for r in report.results]


def _nine_states_n6():
    return _doubled_n6_rows(["nine-states"])


@pytest.mark.parametrize("limit", [None, 2 ** 10], ids=["int64", "forced-fallback"])
def test_two_leg_state_checks_above_the_packed_floor(limit, monkeypatch):
    packed = pytest.importorskip("twistlab.packed")

    used = []
    init = TwistedCoalgebra.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        used.append(self.kernel.__name__.rsplit(".", 1)[-1])

    monkeypatch.setattr(TwistedCoalgebra, "__init__", spy)
    wide = _widened(packed, monkeypatch)
    if limit is not None:
        # F cannot be built within 2^10, so each check goes on in Python ints
        # from its first product
        monkeypatch.setattr(packed, "INT64_MAX", limit)
    assert _nine_states_n6() == NINE_STATES_N6
    assert used == ["packed"] * len(NINE_STATES_N6)
    assert bool(wide) == (limit is not None)


def test_kernel_for_picks_packed_only_where_its_keys_fit():
    packed = pytest.importorskip("twistlab.packed")
    assert kernel_for(PACKED_FLOOR - 1) is exact_kernel
    assert kernel_for(PACKED_FLOOR) is packed
    assert kernel_for(2 ** 31) is packed
    # keys (row - 1) * dim + (col - 1) of a 2^32-dim space would pass 2^63 - 1
    assert kernel_for(2 ** 32) is exact_kernel


def _without_numpy(code: str):
    """The JSON of the last line `code` prints, run with numpy blocked and
    this directory importable."""
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(here, "..", "src"), here, env.get("PYTHONPATH", "")])
    code = "import sys\nsys.modules['numpy'] = None\n" + code
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=240)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


def test_three_leg_checks_without_numpy():
    code = (
        "import json\n"
        "from test_hopf import THREE_LEG_N5, _three_leg_n5, _nine_states_n6\n"
        "rows = [[c, t, *_three_leg_n5(c, t)] for c, t, _ in THREE_LEG_N5]\n"
        "print(json.dumps([rows, _nine_states_n6(), 'twistlab.packed' in sys.modules]))\n"
    )
    rows, states, imported = _without_numpy(code)
    assert not imported
    assert rows == [[c, t, r == 0, r, 15625] for c, t, r in THREE_LEG_N5]
    assert states == NINE_STATES_N6


# Doubled witness at N = 6, r = 3: the suites whose coalgebras are twisted
# over the 1,296-dim coproduct, rows as in NINE_STATES_N6.  The rows are
# those the Python kernel gives.
COPRODUCT_SUITES = ["antipode", "rmatrix", "matreshka", "transitions"]
COPRODUCT_SUITES_N6 = [
    ["antipode[Eg(r=3,b=1/2)*Jg(a=1/2),N=6]", True, 0, 36, 9],
    ["antipode[J(1,6),N=6]", True, 0, 36, 5],
    ["matreshka[N=6]", True, 0, 1296, 19],
    ["rmatrix[E(2,4,5)*E(2,3,5)*J(2,5)*E(1,5,6)*E(1,4,6)*E(1,3,6)*E(1,2,6)*J(1,6),N=6]",
     True, 0, 46656, 2],
    ["rmatrix[Eg(r=3,b=1/2)*Jg(a=1/2),N=6]", True, 0, 46656, 2],
    ["rmatrix[J(1,6),N=6]", True, 0, 46656, 2],
    ["transitions[N=6]", True, 0, 1296, 18],
]


def test_coproduct_suites_agree_in_every_kernel(monkeypatch):
    packed = pytest.importorskip("twistlab.packed")
    code = (
        "import json\n"
        "from test_hopf import COPRODUCT_SUITES, _doubled_n6_rows\n"
        "rows = _doubled_n6_rows(COPRODUCT_SUITES)\n"
        "print(json.dumps([rows, 'twistlab.packed' in sys.modules]))\n"
    )
    rows, imported = _without_numpy(code)
    assert not imported
    assert rows == COPRODUCT_SUITES_N6

    used = set()
    init = TwistedCoalgebra.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        used.add(self.kernel.__name__.rsplit(".", 1)[-1])

    monkeypatch.setattr(TwistedCoalgebra, "__init__", spy)
    assert _doubled_n6_rows(COPRODUCT_SUITES) == COPRODUCT_SUITES_N6
    assert used == {"packed"}
    # every operation goes on in Python ints from its first product
    wide = _widened(packed, monkeypatch)
    monkeypatch.setattr(packed, "INT64_MAX", 2 ** 10)
    assert _doubled_n6_rows(COPRODUCT_SUITES) == COPRODUCT_SUITES_N6
    assert wide


@pytest.mark.parametrize("kernel", ["exact", "packed"])
def test_a_twist_is_built_only_in_legs_of_its_own_n(kernel, monkeypatch):
    # a twist of gl(6) evaluated in gl(7) legs is some matrix, but not that twist
    if kernel == "exact":
        # the doubled coproduct at N = 7 has 2,401 dims
        monkeypatch.setattr(expr, "PACKED_FLOOR", 2402)
    else:
        pytest.importorskip("twistlab.packed")
    seq = sequence(jordanian_factor(6, 1))
    f7 = fundamental_morphism(7)
    with pytest.raises(DimensionMismatch):
        cocycle_check(seq, f7)
    with pytest.raises(DimensionMismatch):
        counit_check(seq, f7)
    with pytest.raises(DimensionMismatch):
        TwistedCoalgebra(costructure_table("J1J0", 6, 3).twist_recipe, coproduct_morphism(7))


def test_cocycle_extension_over_jordanian_base():
    base = sequence(jordanian_factor(3, 1))
    ext = sequence(generic_extension_factor(3, 2, rat(1, 2)))
    assert cocycle_check(ext, fundamental_morphism(3), base=base).passed


def test_counit_checks():
    f6 = fundamental_morphism(6)
    assert counit_check(jordanian(6), f6).passed
    assert counit_check(chain_twist(6, 1), f6).passed
    assert counit_check(sequence(external_factor(6, "E0tilde")), f6).passed
    assert counit_check(sequence(external_factor(6, "E1tilde")), f6).passed


def test_counit_check_catches_a_right_leg_with_nonzero_counit():
    # (id x eps) exp(E_13 x 1) = exp(E_13) = 1 + E_13: one stray entry
    bad = sequence(twist_factor("bad", 3, [(gen(1, 3), scal(1))]))
    res = counit_check(bad, fundamental_morphism(3))
    assert not res.passed
    assert res.residual_nnz == 1
    assert res.dims == 3


def test_tally_equal_counts_differing_entries():
    a = SparseMatrix.from_entries(3, {(1, 1): 1, (1, 2): 2, (3, 3): 1})
    b = SparseMatrix.from_entries(3, {(1, 1): 1, (1, 2): 3, (2, 2): 1})
    tally = Tally("t")
    tally.equal(a, a)
    assert tally.residual == 0
    tally.equal(a, b)
    # (1,2) differs in value, (2,2) and (3,3) are stored on one side only
    assert tally.residual == 3
    assert tally.dims == 3
    with pytest.raises(DimensionMismatch):
        tally.equal(SparseMatrix.identity(2), SparseMatrix.identity(3))


def test_tally_equal_returns_its_verdict():
    a = SparseMatrix.from_entries(3, {(1, 1): rat(1, 2), (2, 3): 1})
    same = SparseMatrix(3, {1: {1: 2}, 2: {3: 4}}, 4)  # a's value over another den
    b = SparseMatrix.from_entries(3, {(1, 1): rat(1, 2)})
    tally = Tally("t")
    assert tally.equal(a, a) is True
    assert tally.equal(a, same) is True
    assert tally.residual == 0
    assert tally.equal(a, b) is False
    assert tally.residual == 1


@pytest.mark.parametrize("witness", ["fundamental", "doubled"])
def test_conjugation_through_the_nilpotent_part_is_f_m_f_inverse(witness):
    # (m + (F - 1) m) F^-1 against the plain product F m F^-1, in exact.py
    # for the fundamental witness and in packed.py for the doubled one
    if witness == "doubled":
        pytest.importorskip("twistlab.packed")
    w = (fundamental_morphism if witness == "fundamental" else coproduct_morphism)(6)
    d = w.dim ** 2
    # dense in the 36-dim fundamental coproduct; in the 1,296-dim doubled
    # one every 37th entry of each row, which still meets every column
    step = 1 if witness == "fundamental" else 37
    rng = random.Random(30)
    dense = SparseMatrix.from_entries(d, {
        (i, j): rng.choice([-3, -1, 1, 2, rat(1, 2)])
        for i in range(1, d + 1) for j in range(1 + i % step, d + 1, step)
    })
    gens = heisenberg_pair_generators(6, 3).values()
    for sid in STATE_IDS:
        co = TwistedCoalgebra(costructure_table(sid, 6, 3).twist_recipe, w)
        assert co.kernel is kernel_for(d)
        assert co.f_mat == co.part + SparseMatrix.identity(d)
        for m in [eval_expr(g, co.delta) for g in gens] + [SparseMatrix.zero(d), dense]:
            assert co.conjugate(m) == co.f_mat * m * co.f_inv, sid


def test_twisted_coproduct_jordanian_e():
    n = 2
    seq = jordanian(n)
    co = TwistedCoalgebra(seq, fundamental_morphism(n))
    e = gen(1, n)
    got = co.coproduct(e)
    expected = co.expected([(e, sigma_power(1, 1, n)), (scal(1), e)])
    assert got == expected


def test_twisted_coproduct_scalar_is_identity():
    co = TwistedCoalgebra(chain_twist(6, 1), fundamental_morphism(6))
    assert co.coproduct(scal(1)) == SparseMatrix.identity(36)


@pytest.mark.parametrize("n,r", [(3, 2), (6, 3)])
@pytest.mark.parametrize("alpha", [rat(1, 3), rat(2, 5), rat(1, 2), rat(0)])
def test_extended_costructure_lines(n, r, alpha):
    beta = 1 - alpha
    h, a, b, e = carrier_generators(n, r, alpha)
    co = TwistedCoalgebra(extended_twist_generic(n, r, alpha), fundamental_morphism(n))
    one = scal(1)
    cases = {
        "H": (h, [(h, sigma_power(-1, 1, n)), (one, h),
                  (mul(scal(-1), a), mul(b, sigma_power(-(beta + 1), 1, n)))]),
        "A": (a, [(a, sigma_power(-beta, 1, n)), (one, a)]),
        "B": (b, [(b, sigma_power(beta, 1, n)), (sigma_power(1, 1, n), b)]),
        "E": (e, [(e, sigma_power(1, 1, n)), (one, e)]),
    }
    for label, (x, pairs) in cases.items():
        assert co.coproduct(x) == co.expected(pairs), (label, alpha)


def test_twisted_coproduct_multiplicative():
    co = TwistedCoalgebra(extended_twist_generic(3, 2, rat(1, 2)), fundamental_morphism(3))
    pairs = [(gen(1, 2), gen(2, 3)), (gen(1, 3), gen(3, 3)), (gen(1, 1), gen(1, 2))]
    for x, y in pairs:
        assert co.coproduct(mul(x, y)) == co.coproduct(x) * co.coproduct(y)


def test_twisted_coalgebra_on_mixed_legs():
    f3 = fundamental_morphism(3)
    dual = contragredient_morphism(f3)
    seq = extended_twist_generic(3, 2, rat(1, 2))
    co = TwistedCoalgebra(seq, dual, f3)
    assert co.f_mat * co.f_inv == SparseMatrix.identity(9)
    assert co.f_mat != TwistedCoalgebra(seq, f3).f_mat
    plain = delta_morphism(dual, f3)
    h, a, b, e = carrier_generators(3, 2, rat(1, 2))
    for x in (h, a, b, e):
        assert co.coproduct(x) == co.conjugate(eval_expr(x, plain))
    assert co.expected([(e, scal(1)), (scal(1), e)]) == eval_expr(e, plain)
    assert co.coproduct(mul(a, b)) == co.coproduct(a) * co.coproduct(b)


def test_r_matrix_trivial_twist():
    res = r_matrix_checks(sequence(n=2), fundamental_morphism(2))
    assert res.passed


def test_r_matrix_jordanian_2():
    assert r_matrix_checks(jordanian(2), fundamental_morphism(2)).passed


def test_r_matrix_extended_3():
    assert r_matrix_checks(extended_twist_generic(3, 2, rat(1, 3)), fundamental_morphism(3)).passed


def test_antipode_trivial_twist():
    f2 = fundamental_morphism(2)
    assert twist_antipode_correction(sequence(n=2), f2) == SparseMatrix.identity(2)
    gens = [gen(1, 2), cartan_element(2, 1, 2)]
    assert antipode_checks(sequence(n=2), gens, f2).passed


def test_antipode_jordanian_2():
    gens = [cartan_element(2, 1, 2), gen(1, 2)]
    res = antipode_checks(jordanian(2), gens, fundamental_morphism(2))
    assert res.passed, res


def test_antipode_correction_value_jordanian_2():
    # v = 1 - H E = 1 - e12/2 in the fundamental of gl(2)
    f2 = fundamental_morphism(2)
    v = twist_antipode_correction(jordanian(2), f2)
    assert v == SparseMatrix.from_entries(2, {(1, 1): 1, (2, 2): 1, (1, 2): rat(-1, 2)})


def test_antipode_extended_3():
    h, a, b, e = carrier_generators(3, 2, rat(1, 2))
    res = antipode_checks(
        extended_twist_generic(3, 2, rat(1, 2)), [h, a, b, e], fundamental_morphism(3)
    )
    assert res.passed, res


def test_antipode_counit_side_on_elements_with_nonzero_counit():
    # every element the suites pass has counit 0; these have eps = 3/2 and 2
    xs = [add(scal(rat(3, 2)), gen(1, 3)), scal(2)]
    res = antipode_checks(sequence(jordanian_factor(3, 1)), xs, fundamental_morphism(3))
    assert res.passed, res


def test_antipode_rejects_non_nilpotent_expansion():
    from twistlab.errors import NotNilpotent, TwistlabError

    h = cartan_element(2, 1, 2)
    # exp(H x H) is not unipotent in (w*, w), so F^-1 has no finite series
    bad = sequence(twist_factor("HH", 2, [(h, h)]))
    with pytest.raises(NotNilpotent):
        antipode_checks(bad, [gen(1, 2)], fundamental_morphism(2))
    assert issubclass(NotNilpotent, TwistlabError)


def test_antipode_rejects_a_v_that_is_not_unipotent():
    from twistlab.errors import NotNilpotent

    # exp(E21 x E12) gives v = diag(1, 0): v - 1 is not nilpotent, so the
    # series for v^-1 has no finite sum
    bad = sequence(twist_factor("X", 2, [(gen(2, 1), gen(1, 2))]))
    assert twist_antipode_correction(bad, fundamental_morphism(2)) == \
        SparseMatrix.from_entries(2, {(1, 1): 1})
    with pytest.raises(NotNilpotent):
        antipode_checks(bad, [gen(1, 2)], fundamental_morphism(2))


@pytest.mark.parametrize("witness", [fundamental_morphism, coproduct_morphism])
def test_v_u_compare_sees_a_wrong_v(witness):
    # u = m(S x id)(F^-1) of E1J1J0; only its own v = m(id x S)(F) inverts it
    w = witness(6)
    wdual = contragredient_morphism(w)
    d = w.dim

    def v_of(seq):
        return _antipode_contraction(TwistedCoalgebra(seq, w, wdual).f_mat, d, 2)

    recipe = costructure_table("E1J1J0", 6, 3).twist_recipe
    u = _antipode_contraction(TwistedCoalgebra(recipe, wdual, w).f_inv, d, 1)
    ident = SparseMatrix.identity(d)

    def residual(v):
        tally = Tally("v u = 1")
        tally.equal(v * u, ident)
        return tally.residual

    assert residual(v_of(recipe)) == 0
    wrong = {
        "E0J1J0": v_of(costructure_table("E0J1J0", 6, 3).twist_recipe),
        "J1J0": v_of(costructure_table("J1J0", 6, 3).twist_recipe),
        "1": ident,
    }
    expected = {fundamental_morphism: {"E0J1J0": 2, "J1J0": 1, "1": 2},
                coproduct_morphism: {"E0J1J0": 31, "J1J0": 14, "1": 27}}[witness]
    assert {name: residual(v) for name, v in wrong.items()} == expected


@pytest.mark.parametrize("n", [6, 7])
def test_antipode_of_every_state_twist_and_the_deepest_chain(n):
    w = fundamental_morphism(n)
    gens = list(heisenberg_pair_generators(n, 3).values())
    twists = [costructure_table(sid, n, 3).twist_recipe for sid in STATE_IDS]
    for seq in twists + [chain_twist(n, (n - 2) // 2)]:
        res = antipode_checks(seq, gens, w)
        assert res.passed, res


def test_antipode_of_the_deepest_chain_in_the_doubled_witness():
    gens = list(heisenberg_pair_generators(6, 3).values())
    res = antipode_checks(chain_twist(6, 2), gens, coproduct_morphism(6))
    assert res.passed, res


def test_dragging_identity():
    assert verify_dragging(fundamental_morphism(6)).passed
    with pytest.raises(NotApplicable):
        verify_dragging(fundamental_morphism(5))


@pytest.mark.parametrize("witness", [doubled_morphism, coproduct_morphism])
def test_a_failing_three_leg_cocycle_has_one_residual_in_either_basis(witness):
    # this word of J(1,6), J(2,5), E(1,3,6) and E1~ is not a twist (ROADMAP
    # item 8); its difference, counted in the e_i x e_j basis, is the same
    # whichever basis the witness is written in
    seq = sequence(jordanian_factor(6, 1), jordanian_factor(6, 2),
                   extension_factor(6, 1, 3), external_factor(6, "E1tilde"))
    res = cocycle_check(seq, witness(6))
    assert [res.passed, res.residual_nnz, res.dims] == [False, 8562, 46656]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 7: the second-row extensions E(2,r,N-1) do not commute with "
    "J(2,N-1), E(1,2,N) and E(1,N-1,N); the fundamental witness hides it"))
def test_dragging_fails_in_the_doubled_witness():
    assert verify_dragging(coproduct_morphism(6)).passed


def test_coassociativity_extended():
    h, a, b, e = carrier_generators(3, 2, rat(1, 3))
    res = coassociativity_check(
        extended_twist_generic(3, 2, rat(1, 3)), [h, a, b, e], fundamental_morphism(3)
    )
    assert res.passed


def test_external_composites_are_twists():
    f6 = fundamental_morphism(6)
    base = sequence(jordanian_factor(6, 1), jordanian_factor(6, 2))
    for which in ("E0tilde", "E1tilde"):
        composite = base.then(external_factor(6, which))
        assert cocycle_check(composite, f6).passed, which
        assert cocycle_check(sequence(external_factor(6, which)), f6, base=base).passed


def test_corner_factors_drag_to_second_external():
    # J0-conjugation of E'(2,1,N-1) E'(2,N,N-1), the two corner factors of
    # the second row's maximal constituent set {1} + [3, N-2] + {N}, is the
    # second external factor E1~, mirroring the first dragging identity
    from twistlab.expr import fundamental_morphism, gen, mul, sigma_power
    from twistlab.twists import materialize_factor, twist_factor

    n = 6
    w = fundamental_morphism(n)
    j0 = TwistedCoalgebra(sequence(jordanian_factor(n, 1)), w)

    def corner(r):
        right = mul(gen(r, n - 1), sigma_power(rat(-1, 2), 2, n - 1))
        return twist_factor(f"E'(2,{r},{n - 1})", n, [(gen(2, r), right)])

    ident = SparseMatrix.identity(n * n)
    lhs = j0.conjugate(
        (materialize_factor(corner(1), w, w) + ident)
        * (materialize_factor(corner(n), w, w) + ident)
    )
    rhs = materialize_factor(external_factor(n, "E1tilde"), w, w) + ident
    assert lhs == rhs


def test_the_doubled_witness_stores_fewer_entries_than_its_e_i_e_j_basis():
    # J1J0 E0~'s F - 1 in two witness legs and G - 1 = F12 (D x id)(F) - 1 in three
    n = 6
    seq = sequence(jordanian_factor(n, 1), jordanian_factor(n, 2),
                   external_factor(n, "E0tilde"))
    stored = {}
    for build in (doubled_morphism, coproduct_morphism):
        w = build(n)
        lhs, _ = _parts_in(seq, w, delta_morphism(w, w))
        stored[build] = nilpotent_part(seq, w, w).reduced().nnz, lhs.reduced().nnz
    assert stored == {doubled_morphism: (667, 81157), coproduct_morphism: (896, 121897)}
