import random
from contextlib import contextmanager
from fractions import Fraction
from math import factorial, gcd, lcm

import pytest
from hypothesis import example, given, strategies as st

from twistlab import exact

from twistlab.errors import DimensionMismatch, NotNilpotent
from twistlab.exact import (
    EXP,
    EXPM1,
    LOG1P,
    SparseMatrix,
    analytic_apply,
    dump_matrix_text,
    kron,
    nilpotency_index,
    parse_matrix_text,
    pow1p,
    swap_matrix,
    unipotent_product,
)
from twistlab.hopf import Tally, _antipode_contraction
from twistlab.rationals import binomial_general, rat


def unit(dim, i, j, v=1):
    return SparseMatrix.unit(dim, i, j, v)


I2 = SparseMatrix.identity(2)
E12 = unit(2, 1, 2)
H2 = SparseMatrix.from_entries(2, {(1, 1): rat(1, 2), (2, 2): rat(-1, 2)})


def test_kron_elementary():
    m = kron(E12, E12)
    assert m.dim == 4
    assert m == unit(4, 1, 4)


def test_kron_identity():
    assert kron(I2, I2) == SparseMatrix.identity(4)


def test_kron_h_tensor_e():
    m = kron(H2, E12)
    assert m == SparseMatrix.from_entries(
        4, {(1, 2): rat(1, 2), (3, 4): rat(-1, 2)}
    )


def test_nilpotency_small():
    assert nilpotency_index(E12) == 2
    assert nilpotency_index(SparseMatrix.zero(3)) == 1
    with pytest.raises(NotNilpotent):
        nilpotency_index(I2)


def test_exp_of_h_tensor_e():
    arg = kron(H2, E12)
    assert analytic_apply(EXP, arg) == SparseMatrix.identity(4) + arg


def test_log1p_of_square_zero():
    assert analytic_apply(LOG1P, E12) == E12


def test_pow1p_truncates():
    e13 = unit(3, 1, 3)
    expected = SparseMatrix.identity(3) + e13.scale(rat(-1, 2))
    assert analytic_apply(pow1p(rat(-1, 2)), e13) == expected


def test_analytic_rejects_non_nilpotent():
    with pytest.raises(NotNilpotent):
        analytic_apply(EXP, I2)


def full_shift(d):
    return SparseMatrix.from_entries(d, {(i, i + 1): 1 for i in range(1, d)})


@pytest.mark.parametrize("d", range(2, 7))
def test_power_chain_on_full_shift(d, monkeypatch):
    shift = full_shift(d)
    # shift^(d-1) has the single entry (1, d), so d is the first zero power
    assert nilpotency_index(shift) == d
    # shift^k has ones on the k-th superdiagonal
    expected = SparseMatrix.from_entries(
        d, {(i, j): rat(1, factorial(j - i)) for i in range(1, d + 1) for j in range(i, d + 1)}
    )
    products = []
    matmul = SparseMatrix.__mul__

    def counted(a, b):
        if isinstance(b, SparseMatrix):
            products.append((a.dim, b.dim))
        return matmul(a, b)

    monkeypatch.setattr(SparseMatrix, "__mul__", counted)
    got = analytic_apply(EXP, shift)
    monkeypatch.undo()
    assert got == expected
    assert len(products) == d - 1


@pytest.mark.parametrize("m, k", [
    (SparseMatrix.unit(1, 1, 1, rat(-2, 3)), 1),
    (SparseMatrix.from_entries(4, {(1, 2): 1, (2, 3): 1, (3, 4): 1, (4, 1): 1}), 4),
    (I2, 2),
], ids=["nonzero-1x1", "4-cycle", "identity-2"])
def test_non_nilpotent_is_rejected(m, k):
    # the message names the first power at the bound m^dim = 0 that is not zero
    message = rf"^m\^{k} != 0 for dim {m.dim}$"
    with pytest.raises(NotNilpotent, match=message):
        nilpotency_index(m)
    with pytest.raises(NotNilpotent, match=message):
        analytic_apply(LOG1P, m)


def test_swap_conjugation():
    p = swap_matrix(2)
    assert p * p == SparseMatrix.identity(4)
    assert p * kron(E12, H2) * p == kron(H2, E12)


def test_scalar_product_is_a_type_error():
    # `*` is the matrix product only; scale() is the one scaling path
    for scalar in (2, rat(1, 2)):
        with pytest.raises(TypeError):
            I2 * scalar
        with pytest.raises(TypeError):
            scalar * I2


def test_dump_round_trip_examples():
    assert dump_matrix_text(I2) == "dim 2\n1 1 1 1\n2 2 1 1\n"
    assert dump_matrix_text(SparseMatrix.zero(3)) == "dim 3\n"
    m = kron(H2, E12)
    assert parse_matrix_text(dump_matrix_text(m)) == m


# -- randomized invariants --------------------------------------------------

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def square_matrices(draw, dim=3):
    entries = draw(
        st.dictionaries(
            st.tuples(st.integers(1, dim), st.integers(1, dim)),
            rationals,
            max_size=6,
        )
    )
    return SparseMatrix.from_entries(dim, entries)


@st.composite
def nilpotent_matrices(draw, dim=4):
    entries = draw(
        st.dictionaries(
            st.tuples(st.integers(1, dim), st.integers(1, dim)),
            rationals,
            max_size=6,
        )
    )
    upper = {(i, j): v for (i, j), v in entries.items() if i < j}
    return SparseMatrix.from_entries(dim, upper)


@given(square_matrices(), square_matrices(), square_matrices(), square_matrices())
def test_mixed_product_law(a, b, c, d):
    assert kron(a, b) * kron(c, d) == kron(a * c, b * d)


@given(nilpotent_matrices())
def test_exp_log_round_trip(m):
    assert analytic_apply(EXP, analytic_apply(LOG1P, m)) == SparseMatrix.identity(m.dim) + m


@given(nilpotent_matrices(), st.fractions(min_value=-3, max_value=3, max_denominator=3))
def test_pow1p_inverse_law(m, q):
    lhs = analytic_apply(pow1p(q), m) * analytic_apply(pow1p(-q), m)
    assert lhs == SparseMatrix.identity(m.dim)


@given(nilpotent_matrices(), st.lists(rationals, min_size=1, max_size=3),
       st.lists(rationals, min_size=1, max_size=3))
def test_exp_additive_on_commuting(m, coeffs_a, coeffs_b):
    # polynomials in one nilpotent commute and stay nilpotent
    a = SparseMatrix.zero(m.dim)
    b = SparseMatrix.zero(m.dim)
    p = m
    for ca, cb in zip(coeffs_a, coeffs_b):
        a = a + p.scale(ca)
        b = b + p.scale(cb)
        p = p * m
    assert a * b == b * a
    assert analytic_apply(EXP, a + b) == analytic_apply(EXP, a) * analytic_apply(EXP, b)


@given(nilpotent_matrices(), st.fractions(min_value=-2, max_value=2, max_denominator=3))
def test_pow1p_is_exp_of_scaled_log(m, q):
    lhs = analytic_apply(EXP, analytic_apply(LOG1P, m).scale(q))
    assert lhs == analytic_apply(pow1p(q), m)


@given(square_matrices())
def test_no_stored_zeros_and_reduced(m):
    for _, _, v in m.entries():
        assert v != 0
        assert v.denominator > 0


# -- (den, int numerators) canonical form ------------------------------------


def assert_well_formed(m):
    """What every kernel output keeps: int den >= 1, nonzero int numerators,
    no empty rows, and den 1 for the zero matrix."""
    values = [v for row in m.rows.values() for v in row.values()]
    assert type(m.den) is int and m.den >= 1
    assert all(m.rows.values()), "empty row stored"
    assert all(type(v) is int and v != 0 for v in values)
    if not values:
        assert m.den == 1


def assert_canonical(m):
    assert_well_formed(m)
    values = [v for row in m.rows.values() for v in row.values()]
    if values:
        assert gcd(m.den, *values) == 1


# a dict-of-Fraction reference for every kernel, independent of exact.py

def as_fractions(m):
    return {(i, j): Fraction(v, m.den) for i, row in m.rows.items() for j, v in row.items()}


def nonzero(d):
    return {k: v for k, v in d.items() if v != 0}


def ref_add(a, b, sign=1):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + sign * v
    return nonzero(out)


def ref_mul(a, b):
    out = {}
    for (i, k), x in a.items():
        for (k2, j), y in b.items():
            if k == k2:
                out[(i, j)] = out.get((i, j), 0) + x * y
    return nonzero(out)


def ref_kron(a, b, db):
    return {
        ((i - 1) * db + k, (j - 1) * db + l): x * y
        for (i, j), x in a.items()
        for (k, l), y in b.items()
    }


# A and B mix rows of one entry with longer rows
A = SparseMatrix(4, {1: {2: 1}, 2: {3: -3}, 3: {1: 2, 4: 5}, 4: {4: 7}}, 2)
B = SparseMatrix(4, {2: {1: 1, 3: -1}, 3: {3: 5}, 1: {1: 3, 2: 1, 4: -1}}, 3)


# rows of one entry: a == 1, a != 1 (negative too), a missing row of b, and
# mixed with longer rows
@example(A, B, rat(1, 2))
@example(B, A, rat(-1))
@example(SparseMatrix(4, {1: {2: 1}, 2: {3: 1}}, 1), B, rat(2))
@example(SparseMatrix(4, {1: {2: -1}, 3: {3: -2}, 4: {1: 9}}, 5), B, rat(3))
@example(SparseMatrix(4, {4: {4: 1}, 1: {4: -1}}, 1), B, rat(1))
@example(A, SparseMatrix.identity(4), rat(1))
@example(SparseMatrix.identity(4), A, rat(1))
@example(swap_matrix(2), A, rat(-3, 4))
@given(square_matrices(), square_matrices(), rationals)
def test_kernels_are_canonical_and_match_fraction_reference(a, b, q):
    fa, fb = as_fractions(a), as_fractions(b)
    cases = [
        (a + b, ref_add(fa, fb)),
        (a - b, ref_add(fa, fb, -1)),
        (a * b, ref_mul(fa, fb)),
        (a.scale(q), nonzero({k: q * v for k, v in fa.items()})),
        (kron(a, b), ref_kron(fa, fb, b.dim)),
        (a.transpose(), {(j, i): v for (i, j), v in fa.items()}),
        (-a, {k: -v for k, v in fa.items()}),
    ]
    for got, want in cases:
        assert_well_formed(got)
        assert_canonical(got.reduced())
        assert as_fractions(got) == want
        assert {(i, j): v for i, j, v in got.entries()} == want
    assert all(a[i, j] == fa.get((i, j), 0) for i in range(1, 4) for j in range(1, 4))


@given(square_matrices(), rationals)
def test_construction_paths_agree(m, q):
    assert_canonical(m)
    assert m.scale(2).scale(rat(1, 2)) == m
    assert m + m == m.scale(2)
    assert m - m == SparseMatrix.zero(m.dim)
    assert (m - m).den == 1
    assert m * SparseMatrix.identity(m.dim) == m
    assert SparseMatrix.from_entries(m.dim, {(i, j): v for i, j, v in m.entries()}) == m
    assert parse_matrix_text(dump_matrix_text(m)) == m
    if q != 0:
        assert m.scale(q).scale(1 / q) == m


def test_kernels_run_on_ints_only(monkeypatch):
    a = SparseMatrix.from_entries(2, {(1, 1): rat(1, 2), (1, 2): rat(-3, 2), (2, 2): 1})
    b = SparseMatrix.from_entries(2, {(1, 1): rat(2, 3), (2, 1): rat(1, 3), (2, 2): rat(-1, 3)})
    assert (a.den, b.den) == (2, 3)

    def no_rational(*args):
        raise AssertionError("a Rational was built inside a matrix kernel")

    monkeypatch.setattr(exact, "rat", no_rational)
    ab = kron(a, b)
    results = [
        a * b, b * a, a + b, a - b, b - b, ab,
        kron(ab, I2), kron(I2, ab),
    ]
    assert a * b != b * a
    assert a + b == b + a
    tally = Tally("ints")
    tally.equal(a * b, b * a)
    tally.equal(ab, kron(a, b))
    assert tally.residual > 0
    for m in results:
        assert all(type(v) is int for row in m.rows.values() for v in row.values())
        assert_canonical(m)


# -- in-place series and single-term rows ------------------------------------

SERIES = [EXP, LOG1P] + [pow1p(q) for q in (rat(-3, 2), rat(-1), rat(1, 3), rat(2))]


def series_coeff(fn, k):
    if fn.kind in ("exp", "expm1"):
        return rat(1, factorial(k))
    if fn.kind == "log1p":
        return rat((-1) ** (k + 1), k)
    return binomial_general(fn.exponent, k)


def streaming_series(fn, m):
    """The series summed one new matrix per term: out + c_k * m^k."""
    out = SparseMatrix.identity(m.dim) if fn.has_identity_term else SparseMatrix.zero(m.dim)
    power, k = m, 1
    while not power.is_zero():
        c = series_coeff(fn, k)
        if c != 0:
            out = out + power.scale(c)
        power, k = power * m, k + 1
    return out


@pytest.mark.parametrize("fn", [
    EXP, EXPM1, LOG1P,
    *(pow1p(q) for q in (rat(-3, 2), rat(-1), rat(0), rat(1, 3), rat(2), rat(5))),
])
def test_series_coefficients_equal_their_closed_forms(fn):
    for k in range(1, 9):
        if fn.kind in ("exp", "expm1"):
            closed = Fraction(1, factorial(k))
        elif fn.kind == "log1p":
            closed = Fraction((-1) ** (k + 1), k)
        else:
            # C(q, k) = q(q-1)...(q-k+1)/k!: zero for an integer q >= 0 once k > q
            closed = Fraction(1)
            for j in range(k):
                closed *= (fn.exponent - j) / (j + 1)
        assert fn.coefficient(k) == closed, (fn, k)
        assert fn.coefficient(k) == closed, (fn, k)  # again, the same value


def test_separately_built_specs_share_their_coefficients():
    a, b = pow1p(rat(1, 3)), pow1p(rat(1, 3))
    assert a is not b and a == b
    for k in range(1, 9):
        assert a.numerators(k) is b.numerators(k)  # one memo entry per (value, K)


def test_clear_memos_empties_the_series_tables():
    tables = [fn.numerators(4) for fn in (EXP, LOG1P, pow1p(rat(0)), pow1p(rat(-1, 2)))]
    assert pow1p(rat(-1, 2)).numerators(4) is tables[-1]
    exact.clear_memos()
    again = [fn.numerators(4) for fn in (EXP, LOG1P, pow1p(rat(0)), pow1p(rat(-1, 2)))]
    assert again == tables and all(a is not t for a, t in zip(again, tables))


@pytest.mark.parametrize("fn", [
    EXP, EXPM1, LOG1P, *(pow1p(q) for q in (rat(-3, 2), rat(0), rat(2))),
])
def test_series_table_is_the_coefficients_over_one_den(fn):
    assert fn.numerators(0) == ((), 1)
    for terms in range(1, 8):
        nums, q = fn.numerators(terms)
        cs = [fn.coefficient(k) for k in range(1, terms + 1)]
        assert q == lcm(1, *(c.denominator for c in cs))
        assert [Fraction(n, q) for n in nums] == cs
        assert fn.numerators(terms) is fn.numerators(terms)  # from the memo


@pytest.mark.parametrize("build", [
    lambda: rat(0.1),
    lambda: rat(1.0),
    lambda: rat(1, 2.0),
    lambda: rat(True),
    lambda: rat(1, True),
    lambda: SparseMatrix.from_entries(2, {(1, 1): 0.1}),
    lambda: SparseMatrix.from_entries(2, {(1, 2): False}),
    lambda: SparseMatrix.unit(2, 1, 2, 0.5),
    lambda: I2.scale(0.5),
    lambda: I2.scale(True),
])
def test_floats_and_bools_are_refused(build):
    # 0.1 would otherwise enter as 3602879701896397/36028797018963968
    with pytest.raises(TypeError):
        build()


@st.composite
def sized_nilpotents(draw):
    return draw(nilpotent_matrices(dim=draw(st.integers(2, 5))))


# scaled full shifts: the term denominators grow term by term (1, 2, 6, 24
# for exp; 1, 2, 3, 4 for log1p), so the stored sum is rescaled in place
@example(full_shift(5), EXP)
@example(full_shift(5).scale(rat(-3, 4)), LOG1P)
@example(full_shift(5).scale(rat(1, 2)), pow1p(rat(1, 3)))
@example(full_shift(5).scale(rat(-3, 4)), pow1p(rat(-3, 2)))
@given(sized_nilpotents(), st.sampled_from(SERIES))
def test_series_matches_streaming_sum(m, fn):
    got = analytic_apply(fn, m)
    assert_well_formed(got)
    assert_canonical(got.reduced())
    assert got == streaming_series(fn, m)


ALL_SERIES = SERIES + [EXPM1]


def inflated(m, f):
    """m's value over den f * m.den: gcd(den, numerators) is f, not 1."""
    return SparseMatrix(m.dim, {i: {j: f * v for j, v in r.items()} for i, r in m.rows.items()},
                        f * m.den)


@example(full_shift(5).scale(rat(1, 2)), EXPM1, 6)
@given(sized_nilpotents(), st.sampled_from(ALL_SERIES), st.integers(2, 12))
def test_series_over_a_den_that_is_not_canonical(m, fn, f):
    wide = inflated(m, f)
    got = analytic_apply(fn, wide)
    assert_well_formed(got)
    assert got == streaming_series(fn, m) == streaming_series(fn, wide)


@pytest.mark.parametrize("fn", ALL_SERIES)
@pytest.mark.parametrize("dim", [1, 3])
def test_series_of_zero_has_no_terms(fn, dim):
    got = analytic_apply(fn, SparseMatrix.zero(dim))
    assert_well_formed(got)
    assert got == streaming_series(fn, SparseMatrix.zero(dim))
    ones = SparseMatrix.identity(dim).rows if fn.has_identity_term else {}
    assert (got.rows, got.den) == (ones, 1)


@example(full_shift(5).scale(rat(-3, 4)), LOG1P)
@given(sized_nilpotents(), st.sampled_from(ALL_SERIES))
def test_series_reads_a_chain_it_is_handed(m, fn):
    chain = exact._powers(m)
    products = []
    matmul = SparseMatrix.__mul__

    def counted(a, b):
        products.append(b)
        return matmul(a, b)

    SparseMatrix.__mul__ = counted
    try:
        got = analytic_apply(fn, m, chain)
    finally:
        SparseMatrix.__mul__ = matmul
    assert not products  # no power is formed again
    assert_well_formed(got)
    assert got == streaming_series(fn, m)


@example(full_shift(5))
@example(full_shift(5).scale(rat(-3, 4)))
@given(sized_nilpotents())
def test_expm1_is_exp_without_its_constant_term(m):
    got = analytic_apply(EXPM1, m)
    assert_well_formed(got)
    assert got + SparseMatrix.identity(m.dim) == analytic_apply(EXP, m)


# -- unipotent products (1 + a)(1 + b) - 1 -------------------------------------

E12_3 = unit(3, 1, 2)
B3 = SparseMatrix(3, {1: {2: 1, 3: -1}, 3: {3: 5}}, 3)


# ab = 0 over different dens (the zero product has den 1, so its den must not
# be the result's), a + b + ab = 0, and a zero operand on either side
@example(E12_3.scale(rat(1, 2)), E12_3.scale(rat(1, 3)))
@example(E12_3, -E12_3)
@example(SparseMatrix.zero(3), B3)
@example(B3, SparseMatrix.zero(3))
@given(square_matrices(), square_matrices())
def test_unipotent_product_matches_fraction_reference(a, b):
    fa, fb = as_fractions(a), as_fractions(b)
    got = unipotent_product(a, b)
    assert_well_formed(got)
    assert as_fractions(got) == ref_add(ref_add(ref_mul(fa, fb), fa), fb)
    ident = SparseMatrix.identity(a.dim)
    assert got == (ident + a) * (ident + b) - ident


def test_unipotent_product_den_edge_cases():
    half, third = E12_3.scale(rat(1, 2)), E12_3.scale(rat(1, 3))
    assert unipotent_product(half, third) == E12_3.scale(rat(5, 6))
    zero = unipotent_product(E12_3, -E12_3)
    assert zero.is_zero() and zero.den == 1
    assert unipotent_product(SparseMatrix.zero(3), half) == half
    assert unipotent_product(third, SparseMatrix.zero(3)) == third


def test_single_term_row_products_do_not_alias_their_operand():
    a = SparseMatrix.identity(3)
    b = SparseMatrix.from_entries(3, {(1, 2): rat(1, 2), (2, 3): 1})
    got = a * b
    assert got == b
    assert all(got.rows[i] is not b.rows[i] for i in got.rows)


# -- deferred reduction: == compares values, held matrices are canonical -----


def test_equality_across_denominators():
    doubled = SparseMatrix(2, {1: {1: 2}, 2: {2: 2}}, 2)
    assert doubled.den == 2  # stored as given
    assert doubled == SparseMatrix.identity(2)
    assert SparseMatrix.identity(2) == doubled
    assert doubled.reduced().den == 1
    assert SparseMatrix(2, {1: {1: 1}}, 2) != SparseMatrix(2, {1: {1: 1}, 2: {2: 1}}, 2)
    assert SparseMatrix(2, {1: {1: 1}}, 2) != SparseMatrix(2, {1: {1: 1}}, 3)
    assert SparseMatrix(2, {}, 5).den == 1
    # the same value over different dens leaves no residual
    tally = Tally("dens")
    tally.equal(SparseMatrix(2, {1: {2: 3}}, 6), SparseMatrix.unit(2, 1, 2, rat(1, 2)))
    tally.equal(kron(H2, H2), kron(H2.scale(2), H2.scale(2)).scale(rat(1, 4)))
    assert tally.residual == 0
    tally.equal(SparseMatrix(2, {1: {2: 3}}, 6), SparseMatrix(2, {1: {2: 3}}, 5))
    assert tally.residual == 1


def test_held_matrices_are_canonical():
    from twistlab.expr import Morphism, gen, mul, sigma_power
    from twistlab.hopf import TwistedCoalgebra
    from twistlab.twists import chain_twist, materialize

    seq = chain_twist(6, 1)
    w = Morphism(6, 6, lambda i, j: SparseMatrix(6, {i: {j: 2}}, 2), name="unreduced")
    forward = materialize(seq, w, w)
    co = TwistedCoalgebra(seq, w)
    assert_canonical(forward)
    assert_canonical(co.f_inv)
    assert forward * co.f_inv == SparseMatrix.identity(36)
    for x in (gen(1, 6), mul(gen(2, 3), sigma_power(rat(-1, 2), 1, 6))):
        co.coproduct(x)
    for phi in (w, co.delta):
        assert phi._cache
        for value in phi._cache.values():
            assert_canonical(value)


@pytest.mark.parametrize("cancel", [False, True], ids=["generic", "zero-row"])
@pytest.mark.parametrize("leg", [1, 2])
@pytest.mark.parametrize("d", [2, 3])
def test_antipode_contraction_matches_its_reference(d, leg, cancel):
    # on g = sum kron(a, c), leg 1 contracts to sum a^T c and leg 2 to sum a c^T
    rng = random.Random(f"contraction-{d}-{leg}")

    def rand():
        return SparseMatrix.from_entries(d, {
            (i, j): rat(rng.randint(-4, 4), rng.randint(1, 3))
            for i in range(1, d + 1) for j in range(1, d + 1)
        })

    def reference(a, c):
        return a.transpose() * c if leg == 1 else a * c.transpose()

    pairs = [(rand(), rand()) for _ in range(3)]
    want = SparseMatrix.zero(d)
    for a, c in pairs:
        want = want + reference(a, c)
    if cancel:
        # one more term, e11 x c, whose contraction is minus row 1 of the rest
        assert 1 in want.rows
        row1 = -SparseMatrix(d, {1: dict(want.rows[1])}, want.den)
        pairs.append((SparseMatrix.unit(d, 1, 1), row1 if leg == 1 else row1.transpose()))
        want = want + reference(*pairs[-1])
        assert 1 not in want.rows and want.rows
    g = SparseMatrix.zero(d * d)
    for a, c in pairs:
        g = g + kron(a, c)
    got = _antipode_contraction(g, d, leg)
    assert got == want
    assert_canonical(got)
    if packed is not None:
        # a Packed g is contracted as its SparseMatrix, to the same canonical matrix
        got = _antipode_contraction(packed.pack(g), d, leg)
        assert isinstance(got, SparseMatrix) and got == want
        assert_canonical(got)


# -- the int64 kernel of the three-leg spaces (packed.py) ---------------------

try:
    from twistlab import packed
except ImportError:  # numpy is an optional extra
    packed = None

needs_numpy = pytest.mark.skipif(packed is None, reason="numpy is not installed")


def unpacked(m, dtype="int64"):
    """The SparseMatrix of a kernel result, checked to be a well-formed Packed
    whose numerators are int64 (or Python ints, for dtype object)."""
    assert isinstance(m, packed.Packed)
    assert m.keys.dtype == "int64" and m.vals.dtype == dtype
    assert (m.keys[1:] > m.keys[:-1]).all(), "keys not strictly ascending"
    got = m.to_sparse()
    assert_well_formed(got)
    assert (got.dim, got.nnz) == (m.dim, m.nnz)
    return got


def rescaled(m, k):
    """The same value as m over den k * m.den."""
    return SparseMatrix(m.dim, {i: {j: k * v for j, v in r.items()} for i, r in m.rows.items()},
                        k * m.den)


def widened(m, k=2 ** 63 + 1):
    """m's value as a Packed matrix with Python-int numerators, over den k * m.den."""
    p = packed.pack(m)
    return packed.Packed(p.dim, p.keys, p.vals.astype(object) * k, p.den * k)


@needs_numpy
@example(A, B)
@example(B, SparseMatrix.zero(4))
@example(SparseMatrix.zero(4), A)
@given(square_matrices(), square_matrices())
def test_packed_ops_equal_their_sparse_counterparts(a, b):
    # int64 operands, then wide ones whose every result stays in Python ints
    for pa, pb, dtype in ((packed.pack(a), packed.pack(b), "int64"),
                          (widened(a), widened(b), object)):
        assert unpacked(pa, dtype) == a
        cases = [
            (pa + pb, a + b),
            (pa + b, a + b),
            (pa * pb, a * b),
            (pa * b, a * b),
            (packed.kron(pa, b), kron(a, b)),
            (packed.unipotent_product(pa, pb), unipotent_product(a, b)),
            (pa.reduced(), a.reduced()),
        ]
        for got, want in cases:
            assert as_fractions(unpacked(got, dtype)) == as_fractions(want)
            assert got == packed.pack(want)
        assert (pa == pb) == (a == b) == (as_fractions(a) == as_fractions(b))
        assert (pa != pb) == (a != b)
        assert pa == a
        if a != b:
            assert (pa - pb).nnz == (a - b).nnz
    assert packed.pack(a).den == a.den
    assert as_fractions(unpacked(packed.kron(a, b))) == as_fractions(kron(a, b))


@needs_numpy
@example(full_shift(5).scale(rat(-3, 4)), EXPM1)
@example(full_shift(5).scale(rat(1, 2)), pow1p(-1))
@given(sized_nilpotents(), st.sampled_from(SERIES + [EXPM1]))
def test_packed_series_equal_analytic_apply(m, fn):
    want = as_fractions(analytic_apply(fn, m))
    assert as_fractions(unpacked(packed.analytic_apply(fn, m))) == want
    assert as_fractions(unpacked(packed.analytic_apply(fn, widened(m)), object)) == want


@needs_numpy
def test_packed_ops_reject_what_exact_rejects():
    with pytest.raises(NotNilpotent):
        packed.analytic_apply(EXPM1, SparseMatrix.from_entries(2, {(1, 2): 1, (2, 1): 1}))
    for op in (lambda a, b: a + b, lambda a, b: a * b, packed.unipotent_product):
        with pytest.raises(DimensionMismatch):
            op(packed.pack(A), packed.pack(E12))


@needs_numpy
@given(square_matrices(), square_matrices(), st.integers(2, 9), st.integers(2, 9))
def test_packed_equality_cross_multiplies(a, b, k, l):
    # the same values over other dens, and different values over them
    for x, y in ((a, b), (a, a), (b, b)):
        want = as_fractions(x) == as_fractions(y)
        assert (rescaled(x, k) == rescaled(y, l)) == want
        assert (packed.pack(rescaled(x, k)) == packed.pack(rescaled(y, l))) == want


@needs_numpy
def test_packed_ops_widen_only_after_reducing():
    big = 2 ** 40
    # value 3/2 stored over 2^41: the product bound fails until the 2^40 is divided out
    a = SparseMatrix(3, {1: {2: 3 * big}, 2: {3: -big}}, 2 * big)
    for got, want in ((packed.pack(a) * packed.pack(a), a * a),
                      (packed.unipotent_product(a, a), unipotent_product(a, a)),
                      (packed.kron(a, a), kron(a, a))):
        assert unpacked(got) == want
    assert packed.pack(a) == packed.pack(a.reduced())
    # numerators coprime to the den: nothing divides out, so the kernel goes on
    # in Python ints
    odd = SparseMatrix(3, {1: {2: big + 1}, 2: {3: big - 1}}, 2 * big)
    wide = SparseMatrix(3, {1: {2: 2 ** 63 + 1}}, 2)
    for got, want in ((packed.pack(odd) * packed.pack(odd), odd * odd),
                      (packed.unipotent_product(odd, odd), unipotent_product(odd, odd)),
                      (packed.kron(odd, odd), kron(odd, odd)),
                      (packed.pack(odd) + packed.pack(wide), odd + wide),
                      (packed.pack(wide), wide)):
        assert unpacked(got, object) == want
    # a compare whose cross products leave int64 is taken in Python ints too
    near = SparseMatrix(3, {1: {2: big + 3}, 2: {3: big - 1}}, 3 ** 25)
    p_odd, p_near = packed.pack(odd), packed.pack(near)
    assert packed._cross_bound(p_odd, p_near) > packed.INT64_MAX
    assert p_odd != p_near
    assert p_odd == packed.pack(odd)
    # a zero operand is not scaled: numpy refuses a factor outside int64 even
    # for an empty array
    tiny = SparseMatrix(3, {1: {2: 1}}, 3 ** 50)
    assert unpacked(packed.pack(SparseMatrix.zero(3)) + tiny) == tiny
    assert unpacked(packed.unipotent_product(SparseMatrix.zero(3), tiny)) == tiny
    with pytest.raises(OverflowError):  # keys row * dim + col would wrap
        packed.pack(SparseMatrix(2 ** 32))


@needs_numpy
@example(A, B, 3)
@given(square_matrices(), square_matrices(), st.integers(2, 9))
def test_products_and_compares_take_either_order(a, b, k):
    # a SparseMatrix beside a Packed one, on either side, over different dens
    pa, pb = packed.pack(a), packed.pack(b)
    a_k, b_k = rescaled(a, k), rescaled(b, k)
    for got in (a_k * pb, pa * b_k):
        assert as_fractions(unpacked(got)) == as_fractions(a * b)
    assert a_k == pa and pa == a_k
    assert not (a_k != pa or pa != a_k)
    assert (b_k == pa) == (pa == b_k) == (a == b)


@needs_numpy
def test_sums_and_compares_take_either_order():
    one, zero = SparseMatrix.identity(4), packed.pack(SparseMatrix.zero(4))
    for lhs, rhs in ((one, zero), (zero, one)):
        tally = Tally("t")
        tally.equal(lhs, rhs)
        assert tally.residual == 4
        assert lhs + rhs == one
        assert (lhs - rhs).nnz == 4


@needs_numpy
@pytest.mark.parametrize("limit", [None, 2 ** 10], ids=["int64", "forced-wide"])
def test_differences_stay_packed(limit, monkeypatch):
    # numerators past 2^10 over different dens, with one entry cancelling, so
    # a limit of 2^10 takes every difference in Python ints
    a = SparseMatrix.from_entries(3, {(1, 2): 2000, (2, 3): rat(-7, 3), (3, 1): 5})
    b = SparseMatrix.from_entries(3, {(1, 2): 1999, (2, 2): rat(1, 2), (3, 1): 5})
    if limit is not None:
        monkeypatch.setattr(packed, "INT64_MAX", limit)
    want = as_fractions(a - b)
    for got in (packed.pack(a) - b, a - packed.pack(b), packed.pack(a) - packed.pack(b)):
        assert as_fractions(unpacked(got, "int64" if limit is None else object)) == want


@contextmanager
def shuffled_terms(seed):
    """packed._summed given its term arrays in a random order, not as runs."""
    summed, rng = packed._summed, packed.np.random.default_rng(seed)

    def shuffled(dim, keys, vals, den):
        order = rng.permutation(len(keys))
        return summed(dim, keys[order], vals[order], den)

    packed._summed = shuffled
    try:
        yield
    finally:
        packed._summed = summed


def same_arrays(x, y):
    assert (x.dim, x.den) == (y.dim, y.den)
    assert x.keys.dtype == y.keys.dtype and x.vals.dtype == y.vals.dtype
    assert packed.np.array_equal(x.keys, y.keys) and packed.np.array_equal(x.vals, y.vals)


@needs_numpy
@given(st.lists(st.tuples(st.integers(0, 15), st.integers(-3, 3)), max_size=40),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_packed_sums_do_not_depend_on_term_order(terms, wide, seed):
    # the terms of one 4 x 4 matrix over den 6, repeated keys summed
    np = packed.np
    scale = 2 ** 63 + 1 if wide else 1
    keys = np.array([k for k, _ in terms], dtype=np.int64)
    vals = np.array([v * scale for _, v in terms], dtype=object if wide else np.int64)
    want: dict = {}
    for k, v in terms:
        want[divmod(k, 4)] = want.get(divmod(k, 4), 0) + Fraction(v, 6)
    order = np.argsort(keys, kind="stable")
    got = packed._summed(4, keys[order], vals[order], 6 * scale)
    with shuffled_terms(seed):
        same_arrays(packed._summed(4, keys, vals, 6 * scale), got)
    assert as_fractions(unpacked(got, object if wide else "int64")) == \
        {(i + 1, j + 1): v for (i, j), v in nonzero(want).items()}


nilpotent_pairs = st.integers(2, 5).flatmap(
    lambda d: st.tuples(nilpotent_matrices(dim=d), nilpotent_matrices(dim=d)))


@needs_numpy
@example((full_shift(5).scale(rat(-3, 4)), full_shift(5)), EXPM1, 0)
@given(nilpotent_pairs, st.sampled_from(SERIES + [EXPM1]), st.integers(0, 2 ** 32 - 1))
def test_packed_kernels_do_not_depend_on_term_order(pair, fn, seed):
    # a sum, a unipotent product and a series, int64 then widened, each built
    # from its runs and from the same terms shuffled, and each against exact.py
    a, b = pair
    want = [a + b, unipotent_product(a, b), analytic_apply(fn, a)]
    for pa, pb, dtype in ((packed.pack(a), packed.pack(b), "int64"),
                          (widened(a), widened(b), object)):
        ops = (lambda: pa + pb, lambda: packed.unipotent_product(pa, pb),
               lambda: packed.analytic_apply(fn, pa))
        for op, exact_result in zip(ops, want):
            got = op()
            with shuffled_terms(seed):
                same_arrays(op(), got)
            assert as_fractions(unpacked(got, dtype)) == as_fractions(exact_result)
