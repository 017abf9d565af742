import hashlib

import pytest

from twistlab import exact, twists
from twistlab.cli import DUMPABLE, build_parser, main
from twistlab.errors import IndexOutOfRange, NotApplicable, NotNilpotent
from twistlab.exact import EXP, EXPM1, SparseMatrix, analytic_apply, dump_matrix_text, kron
from twistlab.expr import (
    add,
    contragredient_morphism,
    coproduct_morphism,
    delta_morphism,
    eval_expr,
    eval_tensor_pairs,
    fundamental_morphism,
    gen,
    in_standard_basis,
    mul,
    scal,
    sigma,
    sigma_exponential,
    sigma_power,
    zero_morphism,
)
from twistlab.hopf import TwistedCoalgebra, cocycle_check
from twistlab.rationals import HALF, rat
from twistlab.report import WITNESSES, dump_witness
from twistlab.roots import carrier_column, cartan_element
from twistlab.states import costructure_table
from twistlab.twists import (
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


def reversed_factor_inverse(seq, left, right):
    """F^-1 as the reversed product of the factors' exp(-argument), in exact.py."""
    out = SparseMatrix.identity(left.dim * right.dim)
    for f in seq.factors:
        out = out * analytic_apply(EXP, -eval_tensor_pairs(f.terms, left, right, kernel=exact))
    return out


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
    # F - 1 of a one-factor twist is its part exp(argument) - 1, and the
    # series inverse gives F^-1 - 1 = exp(-argument) - 1
    f6 = fundamental_morphism(6)
    doubled = delta_morphism(f6, f6)
    factors = [
        jordanian_factor(6, 1), extension_factor(6, 1, 3), external_factor(6, "E0tilde"),
        generic_jordanian_factor(6, 3, rat(1, 3)), generic_extension_factor(6, 3, rat(1, 3)),
    ]
    for f in factors:
        for left, right in ((f6, f6), (doubled, f6)):
            ident = SparseMatrix.identity(left.dim * right.dim)
            co = TwistedCoalgebra(sequence(f), left, right)
            if inverse:
                arg = eval_tensor_pairs(f.terms, left, right)
                assert co.f_inv - ident == analytic_apply(EXPM1, -arg)
            else:
                assert materialize_factor(f, left, right) == co.f_mat - ident


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


@pytest.mark.parametrize("build, args", [
    (gen, (1, 6)),
    (sigma_power, (HALF, 1, 6)),
    (jordanian_factor, (6, 1)),
    (extension_factor, (6, 1, 3)),
    (external_factor, (6, "E0tilde")),
    (external_factor, (6, "E1tilde")),
    (sigma, (1, 6)),
], ids=lambda v: getattr(v, "__name__", None))
def test_a_memoized_builder_returns_one_object_per_request(build, args):
    assert build(*args) is build(*args)


@pytest.mark.parametrize("build", [
    generic_jordanian_factor, generic_extension_factor, extended_twist_generic,
], ids=lambda v: v.__name__)
def test_a_generic_builder_is_memoized_until_the_memos_are_cleared(build):
    kept = build(6, 3, rat(1, 3))
    assert build(6, 3, rat(1, 3)) is kept
    assert build(6, 3, rat(2, 5)) != kept
    exact.clear_memos()
    again = build(6, 3, rat(1, 3))
    assert again == kept and again is not kept


def test_memoized_builders_tell_equal_arguments_of_other_types_apart():
    # 1/2 == 0.5 and 1 == True, but no builder takes a float or a bool for a rational
    half = sigma_power(HALF, 1, 6)
    sigma_power(1, 1, 6), jordanian_factor(6, 1)
    assert sigma_power(rat(1, 2), 1, 6) is half  # equal values of one type share it
    for bad in (0.5, True):
        with pytest.raises(TypeError, match="rat takes no float or bool"):
            sigma_power(bad, 1, 6)
    assert jordanian_factor(6, True).name == "J(True,6)"
    assert jordanian_factor(6, 1).name == "J(1,6)"
    # no builder takes an unhashable argument, so one is refused
    for bad in (lambda: sigma_power([1], 1, 6), lambda: gen([1], 6)):
        with pytest.raises(TypeError, match="unhashable type: 'list'"):
            bad()
    # a keyword request is kept too
    assert sigma_power(coefficient=HALF, i=1, j=6) is sigma_power(coefficient=HALF, i=1, j=6)


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
    m_inv = TwistedCoalgebra(seq, f6).f_inv
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


def written_e1tilde_terms(n):
    """E1~'s terms as they were written out before theta derived them from E0~'s."""
    first = add(gen(2, 1), mul(scal(HALF), gen(2, n)), mul(gen(2, n), cartan_element(n, 1, n)))
    term1 = (first, mul(gen(1, n - 1), mul(sigma_power(-HALF, 1, n), sigma_power(-HALF, 2, n - 1))))
    term2 = (gen(2, n),
             mul(gen(n, n - 1), mul(sigma_power(HALF, 1, n), sigma_power(-HALF, 2, n - 1))))
    return (term1, term2)


def external_body(n, a, b, c, d):
    """external_factor's one body over the indices (a, b, c, d)."""
    first = add(gen(a, b), mul(scal(HALF), gen(a, c)), mul(gen(a, c), cartan_element(n, b, c)))
    return twist_factor("E~", n, [
        (first, mul(gen(b, d), sigma_exponential((-HALF, a, d), (-HALF, b, c)))),
        (gen(a, c), mul(gen(c, d), sigma_exponential((-HALF, a, d), (HALF, b, c)))),
    ])


def test_e1tilde_is_e0tilde_over_the_mirrored_indices():
    for n in range(6, 12):
        e0, e1 = external_factor(n, "E0tilde"), external_factor(n, "E1tilde")
        assert (e0.name, e1.name) == ("E0~", "E1~")
        # the same tree as the written-out builder, not only the same value
        assert e1.terms == written_e1tilde_terms(n)
        assert e0.terms == external_body(n, 1, 2, n - 1, n).terms
        assert e1.terms == external_body(n, 2, 1, n, n - 1).terms
    # the sigma factors come in index order whatever order they are given in
    swapped = sigma_exponential((HALF, 2, 5), (-HALF, 1, 6))
    assert swapped == mul(sigma_power(-HALF, 1, 6), sigma_power(HALF, 2, 5))
    with pytest.raises(ValueError, match="unknown external factor"):
        external_factor(6, "E2tilde")


def test_half_of_theta_on_e0tilde_fails_the_cocycle():
    # the rows alone or the columns alone swapped is no twist after J0 J1
    n = 6
    base = sequence(jordanian_factor(n, 1), jordanian_factor(n, 2))
    w = fundamental_morphism(n)
    got = {idx: cocycle_check(base.then(external_body(n, *idx)), w).residual_nnz
           for idx in ((1, 2, 5, 6), (2, 1, 6, 5), (2, 1, 5, 6), (1, 2, 6, 5))}
    assert got == {(1, 2, 5, 6): 0, (2, 1, 6, 5): 0, (2, 1, 5, 6): 24, (1, 2, 6, 5): 24}


def test_materialize_makes_one_product_per_extra_factor(monkeypatch):
    f5 = fundamental_morphism(5)
    chain = chain_twist(5, 1).factors
    identity = SparseMatrix.identity(25)
    # the product from the identity, one factor at a time, as the reference
    forward_ref = [identity]
    for f in chain:
        forward_ref.append((materialize_factor(f, f5, f5) + identity) * forward_ref[-1])

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
    got = []
    for k in range(len(chain) + 1):
        products.clear()
        got.append(materialize(sequence(*chain[:k], n=5), f5, f5))
        assert len(products) == max(k - 1, 0), k
    monkeypatch.undo()
    assert got == forward_ref


def _chain_prefixes():
    f5 = fundamental_morphism(5)
    chain = chain_twist(5, 1).factors
    return [(sequence(*chain[:k], n=5), f5, f5) for k in range(len(chain) + 1)]


def _state_in_mixed_doubled_legs():
    doubled = coproduct_morphism(6)
    recipe = costructure_table("E1E0E1tJ1J0", 6, 3).twist_recipe
    return [
        (recipe, doubled, fundamental_morphism(6)),
        (recipe, contragredient_morphism(doubled), doubled),
    ]


@pytest.mark.parametrize("cases", [_chain_prefixes, _state_in_mixed_doubled_legs],
                         ids=["chain-prefixes", "state-mixed-doubled"])
def test_series_inverse_is_the_reversed_product_of_factor_inverses(cases):
    for seq, left, right in cases():
        ident = SparseMatrix.identity(left.dim * right.dim)
        co = TwistedCoalgebra(seq, left, right)
        assert co.f_inv == reversed_factor_inverse(seq, left, right), seq.name
        assert co.f_mat * co.f_inv == ident
        assert co.f_inv * co.f_mat == ident


def test_series_inverse_needs_a_unipotent_twist():
    # each factor is unipotent, but exp(E12 x E12) exp(E21 x E21) is not:
    # F - 1 is not nilpotent, so F has no finite-series inverse
    fa = twist_factor("a", 2, [(gen(1, 2), gen(1, 2))])
    fb = twist_factor("b", 2, [(gen(2, 1), gen(2, 1))])
    f2 = fundamental_morphism(2)
    for f in (fa, fb):
        TwistedCoalgebra(sequence(f), f2)
    with pytest.raises(NotNilpotent):
        TwistedCoalgebra(sequence(fa, fb), f2)


# sha256 of dump_matrix_text of F and of F^-1 at N = 6, per (witness, twist)
# of `twistlab dump`; F is what `dump` writes
DUMP_HASHES = {
    ("fundamental", "jordanian"): (
        "f9af5f1529772e57f81bc87206e7665d5e743d1d39ac77e942df3758839685ac",
        "4119be27a672614fc246bc31afcba5f344838163d2ad1c80d8d9be000c0a5fc1",
    ),
    ("fundamental", "extended"): (
        "fe9f8ffb6a08c6efc61ca5e436b6e7e666a815edb1893986c32abc8d708f49bc",
        "ddec03a754866d0479b46b6f32e5256ea33816b9946b02e3dd413879a73d7ebf",
    ),
    ("fundamental", "chain"): (
        "727dcda74cd6bbbafec5204c9163436b261892ace46b1aaada47e741d2ed14d8",
        "3f416e4297a6a6b3bcd5643570c461ca2bcf7308f8a53704d1680ea9bdf80ea3",
    ),
    ("fundamental", "external0"): (
        "fe9a163dfe730ea96ecd339bf94f2beb503992b91b14f106520247f459c25177",
        "26c3b48ab71d1be417daddd59f741dfdc1b44a11bd76d01f0b05f86f5dea3c28",
    ),
    ("fundamental", "external1"): (
        "e00e889d1463db7142d630191ed04e85d7f47d8e8bac2c2b9a358da1ac09d3bb",
        "a980e57c5d266bfb2d1274d9bc302ad75818ec73debf170075f1b231763df35f",
    ),
    ("doubled", "jordanian"): (
        "0e53dedb09a28754e79305e38a746a4e1210a6ac1eb9d2d65be6ddf8a7216dc4",
        "0a8a52598c4a0570b59d957072b28bfe000cf3e22cc1f297c8a2cbfeab06ae79",
    ),
    ("doubled", "extended"): (
        "5af39112f9146880fe2566641ada7ec710cf9158e8021e3354a77f636015e020",
        "654fdf0cdbc50e95d14bf0f2e338938f11d910691680f2f19923d88010c48aaf",
    ),
    ("doubled", "chain"): (
        "36f3d8f18438d09bc8b7d3f7ec220256039915a9ae1ff2faa6a6d5c43bb402e3",
        "b79bf43395f69bfe0fd55039a76933b35f6e77b23e165d85b337c9c39433c293",
    ),
    ("doubled", "external0"): (
        "8b3b48bf6558bed5d6319f954b8150f38d5163c8c9fb6e76308ef93f872e9e64",
        "d73bbb81353944381c66e2f7fc31978aeb8c04399b4972b67ec833ecfb4da020",
    ),
    ("doubled", "external1"): (
        "49cac72a988947c4a03a0004f1a5c83bb1a119c5e5c4a9d264cceee8fda20106",
        "b64e86e9784b5aaba888fcda7c47c3d928b5779fbf33818d963e7e68dcedcf26",
    ),
}


def test_dumped_twists_and_their_inverses_keep_their_bytes(tmp_path):
    # what `twistlab dump --twist <name> --n 6 --witness <w>` writes, default
    # options, and F^-1 in the legs it was written in
    n = 6
    parse = build_parser().parse_args
    sha = lambda text: hashlib.sha256(text.encode()).hexdigest()
    got = {}
    for wname, build in WITNESSES.items():
        w = build(n)
        for name, make in DUMPABLE.items():
            argv = ["dump", "--twist", name, "--n", str(n), "--witness", wname]
            path = tmp_path / f"{wname}-{name}.mat"
            assert main([*argv, "--out", str(path)]) == 0
            seq = make(parse([*argv, "--out", "-"]))
            co = TwistedCoalgebra(seq, dump_witness(w))
            assert path.read_text() == dump_matrix_text(co.f_mat)
            # the F the checks build, in the witness's own basis, is that matrix
            assert in_standard_basis(TwistedCoalgebra(seq, w).f_mat, w) == co.f_mat
            got[wname, name] = sha(path.read_text()), sha(dump_matrix_text(co.f_inv))
    assert got == DUMP_HASHES
