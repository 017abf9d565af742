import pytest

from twistlab import twists
from twistlab.errors import IndexOutOfRange, NotApplicable
from twistlab.exact import SparseMatrix, kron
from twistlab.expr import (
    add,
    delta_morphism,
    eval_expr,
    fundamental_morphism,
    gen,
    mul,
    scal,
    sigma,
    zero_morphism,
)
from twistlab.rationals import rat
from twistlab.roots import carrier_column, cartan_element
from twistlab.twists import (
    alternative_chain,
    chain_twist,
    extended_twist_generic,
    extension_factor,
    external_factor,
    generic_extension_factor,
    generic_jordanian_factor,
    jordanian_factor,
    materialize,
    materialize_factor,
    sequence,
    twist_factor,
)


def unit(dim, i, j, v=1):
    return SparseMatrix.unit(dim, i, j, v)


def test_jordanian_2_materialized():
    f2 = fundamental_morphism(2)
    m = materialize(sequence(jordanian_factor(2, 1)), f2, f2)
    h = SparseMatrix.from_entries(2, {(1, 1): rat(1, 2), (2, 2): rat(-1, 2)})
    assert m == SparseMatrix.identity(4) + kron(h, unit(2, 1, 2))


def test_jordanian_6_unipotent():
    f6 = fundamental_morphism(6)
    m = materialize(sequence(jordanian_factor(6, 1)), f6, f6)
    off = m - SparseMatrix.identity(36)
    assert not off.is_zero()
    assert (off * off).is_zero()


def test_jordanian_bad_step():
    with pytest.raises(IndexOutOfRange):
        jordanian_factor(6, 4)


def test_extension_3_materialized():
    f3 = fundamental_morphism(3)
    m = materialize(sequence(extension_factor(3, 1, 2)), f3, f3)
    assert m == SparseMatrix.identity(9) + kron(unit(3, 1, 2), unit(3, 2, 3))


@pytest.mark.parametrize("inverse", [False, True])
def test_materialize_factor_is_the_nilpotent_part(inverse):
    f6 = fundamental_morphism(6)
    doubled = delta_morphism(f6, f6)
    factors = [
        jordanian_factor(6, 1), extension_factor(6, 1, 3), external_factor(6, "E0tilde"),
        generic_jordanian_factor(6, 3, rat(1, 3)), generic_extension_factor(6, 3, rat(1, 3)),
    ]
    for f in factors:
        for left, right in ((f6, f6), (doubled, f6)):
            ident = SparseMatrix.identity(left.dim * right.dim)
            whole = materialize(sequence(f), left, right, inverse=inverse)
            assert materialize_factor(f, left, right, inverse=inverse) == whole - ident


def test_extension_terms_shape():
    fac = extension_factor(6, 1, 3)
    ((left, right),) = fac.terms
    f6 = fundamental_morphism(6)
    assert eval_expr(left, f6) == unit(6, 1, 3)
    # right leg is E_36 (1 + E_16)^{-1/2} = e36 exactly in the fundamental
    assert eval_expr(right, f6) == unit(6, 3, 6)
    assert eval_expr(left, zero_morphism(6)).is_zero()


def test_twist_factor_rejects_a_left_leg_with_nonzero_counit():
    for left in (add(scal(1), gen(1, 2)), scal(rat(1, 2))):
        with pytest.raises(ValueError, match="bad: left leg has nonzero counit"):
            twist_factor("bad", 3, [(left, sigma(1, 3))])
    h = cartan_element(3, 1, 3)
    assert twist_factor("J", 3, [(h, sigma(1, 3))]).terms == ((h, sigma(1, 3)),)


def test_extension_bad_indices():
    with pytest.raises(IndexOutOfRange):
        extension_factor(6, 1, 6)


@pytest.mark.parametrize("n", range(3, 9))
def test_generic_factors_at_one_half_are_the_canonical_ones(n):
    # the transition schemes check the canonical scheme as the alpha = 1/2 pass
    r = carrier_column(n)
    half = rat(1, 2)
    assert generic_jordanian_factor(n, r, half).terms == jordanian_factor(n, 1).terms
    assert generic_extension_factor(n, r, half).terms == extension_factor(n, 1, r).terms


def test_chain_factor_order_n6():
    seq = chain_twist(6, 1)
    assert [f.name for f in seq.factors] == [
        "J(1,6)", "E(1,2,6)", "E(1,3,6)", "E(1,4,6)", "E(1,5,6)",
        "J(2,5)", "E(2,3,5)", "E(2,4,5)",
    ]


def test_chain_degenerate_cases():
    assert [f.name for f in chain_twist(4, 1).factors] == [
        "J(1,4)", "E(1,2,4)", "E(1,3,4)", "J(2,3)",
    ]
    assert [f.name for f in chain_twist(2, 0).factors] == ["J(1,2)"]


def test_materialize_empty_is_identity():
    f2 = fundamental_morphism(2)
    assert materialize(sequence(n=2), f2, f2) == SparseMatrix.identity(4)


def test_materialize_inverse_exact():
    f6 = fundamental_morphism(6)
    seq = chain_twist(6, 1)
    m = materialize(seq, f6, f6)
    m_inv = materialize(seq, f6, f6, inverse=True)
    ident = SparseMatrix.identity(36)
    assert m * m_inv == ident
    assert m_inv * m == ident


def test_extended_generic_carrier_orders():
    for alpha in (rat(1, 2), rat(1, 3), rat(0)):
        seq = extended_twist_generic(3, 2, alpha)
        assert len(seq.factors) == 2
        assert seq.factors[0].name.startswith("Jg")


def test_external_factor_shapes():
    fac = external_factor(6, "E0tilde")
    assert len(fac.terms) == 2
    f6 = fundamental_morphism(6)
    # quadratic piece E_15 H_25 shows up in the first leg image
    first_leg = eval_expr(fac.terms[0][0], f6)
    expected = (
        unit(6, 1, 2)
        + unit(6, 1, 5, rat(1, 2))
        + eval_expr(mul(gen(1, 5), gen(2, 2)), f6).scale(rat(1, 2))
        - eval_expr(mul(gen(1, 5), gen(5, 5)), f6).scale(rat(1, 2))
    )
    assert first_leg == expected
    fac1 = external_factor(6, "E1tilde")
    assert len(fac1.terms) == 2
    with pytest.raises(NotApplicable):
        external_factor(5, "E0tilde")


def test_alternative_chain_structure():
    seq = alternative_chain(6)
    names = [f.name for f in seq.factors]
    assert names[0] == "J(2,5)"
    assert "E'(2,1,5)" in names and "E'(2,6,5)" in names
    assert "J(1,6)" in names


def test_materialize_makes_one_product_per_extra_factor(monkeypatch):
    f5 = fundamental_morphism(5)
    chain = chain_twist(5, 1).factors
    identity = SparseMatrix.identity(25)
    # the product from the identity, one factor at a time, as the reference
    forward_ref, inverse_ref = [identity], [identity]
    for f in chain:
        forward_ref.append((materialize_factor(f, f5, f5) + identity) * forward_ref[-1])
        inverse_part = materialize_factor(f, f5, f5, inverse=True)
        inverse_ref.append(inverse_ref[-1] * (inverse_part + identity))

    products = []
    counting = [True]
    matmul = SparseMatrix.__mul__
    factor = twists.materialize_factor

    def counted(a, b):
        if counting[0]:
            products.append((a.dim, b.dim))
        return matmul(a, b)

    def uncounted_factor(*args, **kwargs):
        # the series inside a factor exponential makes products of its own
        counting[0] = False
        try:
            return factor(*args, **kwargs)
        finally:
            counting[0] = True

    monkeypatch.setattr(SparseMatrix, "__mul__", counted)
    monkeypatch.setattr(twists, "materialize_factor", uncounted_factor)
    got = {}
    for k in range(len(chain) + 1):
        seq = sequence(*chain[:k], n=5)
        for inverse in (False, True):
            products.clear()
            got[k, inverse] = materialize(seq, f5, f5, inverse=inverse)
            assert len(products) == max(k - 1, 0), (k, inverse)
    monkeypatch.undo()
    assert got[0, False] == got[0, True] == identity
    for k in range(len(chain) + 1):
        assert got[k, False] == forward_ref[k]
        assert got[k, True] == inverse_ref[k]
        assert got[k, False] * got[k, True] == identity
