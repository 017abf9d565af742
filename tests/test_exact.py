from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from twistlab import exact

from twistlab.errors import LegOutOfRange, NotNilpotent
from twistlab.exact import (
    EXP,
    LOG1P,
    SparseMatrix,
    analytic_apply,
    dump_matrix_text,
    embed_leg,
    embed_pair,
    kron,
    nilpotency_index,
    parse_matrix_text,
    pow1p,
    swap_matrix,
)
from twistlab.hopf import Tally
from twistlab.rationals import factorial, rat


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


@pytest.mark.parametrize("m", [
    SparseMatrix.unit(1, 1, 1, rat(-2, 3)),
    SparseMatrix.from_entries(4, {(1, 2): 1, (2, 3): 1, (3, 4): 1, (4, 1): 1}),
], ids=["nonzero-1x1", "4-cycle"])
def test_non_nilpotent_is_rejected(m):
    with pytest.raises(NotNilpotent):
        nilpotency_index(m)
    with pytest.raises(NotNilpotent):
        analytic_apply(LOG1P, m)


def test_embed_leg():
    assert embed_leg(E12, 1, 2) == kron(E12, I2)
    assert embed_leg(E12, 2, 2) == kron(I2, E12)
    with pytest.raises(LegOutOfRange):
        embed_leg(E12, 3, 2)


def test_embed_pair_13_matches_permuted_23():
    # moving leg 1 to leg 2 with the flip on legs (1,2) turns R12 into R21 etc.
    m = kron(E12, H2) + kron(H2, H2)
    direct = embed_pair(m, 2, (1, 3))
    p12 = kron(swap_matrix(2), I2)
    assert p12 * embed_pair(m, 2, (2, 3)) * p12 == direct


def test_swap_conjugation():
    p = swap_matrix(2)
    assert p * p == SparseMatrix.identity(4)
    assert p * kron(E12, H2) * p == kron(H2, E12)


def test_inverse_small():
    m = SparseMatrix.from_entries(2, {(1, 1): 1, (1, 2): rat(1, 2), (2, 2): 1})
    assert m * m.inverse() == I2
    assert m.inverse() * m == I2


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


def assert_canonical(m):
    values = [v for row in m.rows.values() for v in row.values()]
    assert type(m.den) is int and m.den >= 1
    assert all(m.rows.values()), "empty row stored"
    assert all(type(v) is int and v != 0 for v in values)
    if values:
        assert gcd(m.den, *values) == 1
    else:
        assert m.den == 1


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
        assert_canonical(got)
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
        embed_pair(ab, 2, (1, 2)), embed_pair(ab, 2, (2, 3)), embed_pair(ab, 2, (1, 3)),
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
