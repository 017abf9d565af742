import ast
import importlib
import inspect
import pathlib
import pkgutil
import re
import sys
from functools import reduce

import pytest
from hypothesis import given, strategies as st

import twistlab
from twistlab import exact, expr, hopf
from twistlab.errors import DimensionMismatch, IndexOutOfRange
from twistlab.exact import EXP, SparseMatrix, analytic_apply, kron, pow1p, LOG1P
from twistlab.expr import (
    Fn,
    add,
    contragredient_morphism,
    coproduct_morphism,
    delta_morphism,
    doubled_morphism,
    eval_expr,
    eval_tensor_pairs,
    fundamental_morphism,
    gen,
    in_standard_basis,
    mul,
    scal,
    sigma,
    sigma_power,
    sym_alt_basis,
    zero_morphism,
)
from twistlab.rationals import HALF, rat
from twistlab.roots import cartan_element
from twistlab.twists import external_factor


def unit(dim, i, j, v=1):
    return SparseMatrix.unit(dim, i, j, v)


def counit(e):
    return eval_expr(e, zero_morphism(6))[1, 1]


def antipode(e, phi):
    return eval_expr(e, contragredient_morphism(phi)).transpose()


def test_fundamental_images():
    f2 = fundamental_morphism(2)
    assert eval_expr(gen(1, 2), f2) == unit(2, 1, 2)
    f3 = fundamental_morphism(3)
    assert eval_expr(gen(3, 3), f3) == unit(3, 3, 3)
    with pytest.raises(IndexOutOfRange):
        fundamental_morphism(1)
    with pytest.raises(IndexOutOfRange):
        eval_expr(gen(1, 5), fundamental_morphism(3))


def test_eval_fn_pow():
    f3 = fundamental_morphism(3)
    got = eval_expr(sigma_power(rat(-1, 2), 1, 3), f3)
    assert got == SparseMatrix.identity(3) + unit(3, 1, 3, rat(-1, 2))


def test_eval_product_is_matrix_product():
    f3 = fundamental_morphism(3)
    assert eval_expr(mul(gen(1, 2), gen(2, 3)), f3) == unit(3, 1, 3)


def test_coproduct_primitive():
    d = coproduct_morphism(2)
    i2 = SparseMatrix.identity(2)
    assert eval_expr(gen(1, 2), d) == kron(unit(2, 1, 2), i2) + kron(i2, unit(2, 1, 2))


def test_coproduct_of_square():
    # (E x 1 + 1 x E)^2 = 2 E x E when E^2 = 0
    d = coproduct_morphism(2)
    e = unit(2, 1, 2)
    got = eval_expr(mul(gen(1, 2), gen(1, 2)), d)
    assert got == kron(e, e).scale(2)


def test_coproduct_commutes_with_fn():
    d = coproduct_morphism(2)
    image = eval_expr(gen(1, 2), d)
    assert eval_expr(sigma(1, 2), d) == analytic_apply(LOG1P, image)


def test_counit_values():
    assert counit(gen(1, 5)) == 0
    assert counit(Fn(pow1p(rat(-1, 2)), gen(1, 6))) == 1
    assert counit(scal(rat(3, 2))) == rat(3, 2)
    assert counit(mul(scal(2), gen(1, 2))) == 0
    assert counit(sigma(1, 2)) == 0


def test_counit_matches_zero_morphism():
    cases = [
        (gen(1, 2), 0),
        (scal(rat(3, 2)), rat(3, 2)),
        (add(scal(1), mul(scal(rat(-2, 3)), gen(2, 2), gen(1, 2))), 1),
        (Fn(pow1p(rat(1, 2)), gen(1, 3)), 1),
        (mul(sigma_power(rat(-1, 2), 1, 3), scal(4)), 4),
    ]
    z = zero_morphism(3)
    for e, c in cases:
        assert eval_expr(e, z) == SparseMatrix.identity(1).scale(c)


def test_antipode_on_generator_and_product():
    f2 = fundamental_morphism(2)
    assert antipode(gen(1, 2), f2) == unit(2, 1, 2, -1)
    f3 = fundamental_morphism(3)
    # S(E12 E23) = E23 E12 = 0 in the fundamental of gl(3)
    assert antipode(mul(gen(1, 2), gen(2, 3)), f3).is_zero()


def test_antipode_of_pow_series():
    f3 = fundamental_morphism(3)
    got = antipode(Fn(pow1p(rat(-1, 2)), gen(1, 3)), f3)
    assert got == SparseMatrix.identity(3) + unit(3, 1, 3, rat(1, 2))


def test_antipode_is_antimorphism():
    a = add(gen(1, 2), mul(scal(rat(1, 2)), gen(2, 3)))
    b = mul(gen(1, 1), gen(1, 3))
    # both sides vanish in the fundamental; under the coproduct they do not
    for phi in (fundamental_morphism(3), coproduct_morphism(3)):
        lhs = antipode(mul(a, b), phi)
        assert lhs == antipode(b, phi) * antipode(a, phi)
    assert not lhs.is_zero()


def test_coassociativity_of_morphisms():
    f = fundamental_morphism(3)
    d = delta_morphism(f, f)
    left = delta_morphism(d, f)
    right = delta_morphism(f, d)
    for e in [gen(1, 3), mul(gen(1, 2), gen(2, 3)), sigma(1, 3),
              add(gen(1, 1), mul(scal(rat(2, 5)), gen(1, 3), gen(3, 3)))]:
        assert eval_expr(e, left) == eval_expr(e, right)


def test_contragredient_realizes_antipode():
    f = fundamental_morphism(3)
    d = coproduct_morphism(3)
    # S(E12 E23) = E23 E12, which differs from E12 E23 under the coproduct
    reversed_product = eval_expr(mul(gen(2, 3), gen(1, 2)), d)
    assert antipode(mul(gen(1, 2), gen(2, 3)), d) == reversed_product
    assert reversed_product != eval_expr(mul(gen(1, 2), gen(2, 3)), d)
    # S(sigma13) = log(1 - E13) = -E13, since E13^2 = 0 in the fundamental
    assert antipode(sigma(1, 3), f) == unit(3, 1, 3, -1)
    # S(1 - E13/2) = 1 + E13/2
    got = antipode(add(scal(1), mul(scal(rat(-1, 2)), gen(1, 3))), f)
    assert got == SparseMatrix.identity(3) + unit(3, 1, 3, rat(1, 2))


def test_eval_tensor_pairs():
    f2 = fundamental_morphism(2)
    got = eval_tensor_pairs([(gen(1, 2), scal(1)), (scal(1), gen(1, 2))], f2, f2)
    assert got == eval_expr(gen(1, 2), coproduct_morphism(2))


@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
def test_morphism_property_on_products(i, j, k, l):
    f3 = fundamental_morphism(3)
    a, b = gen(i, j), gen(k, l)
    assert eval_expr(mul(a, b), f3) == eval_expr(a, f3) * eval_expr(b, f3)
    d = delta_morphism(f3, f3)
    assert eval_expr(mul(a, b), d) == eval_expr(a, d) * eval_expr(b, d)



def test_a_node_keeps_its_hash(monkeypatch):
    from fractions import Fraction

    def build():
        return add(mul(scal(rat(-1, 2)), gen(1, 3)), sigma_power(rat(1, 3), 2, 3))

    tree, again = build(), build()
    assert tree == again and hash(tree) == hash(again) and tree is not again
    assert tree != add(mul(scal(rat(1, 2)), gen(1, 3)), sigma_power(rat(1, 3), 2, 3))
    assert gen(1, 3) != scal(1) and gen(1, 3) != (1, 3)
    # a cache lookup hashes the stored node hash alone, never a subtree or a Fraction
    cache = {tree: "value"}

    def rehash(self):
        raise AssertionError("a stored hash was recomputed")

    monkeypatch.setattr(Fraction, "__hash__", rehash)
    assert cache[again] == "value"
    assert eval_expr(again, zero_morphism(3)) == eval_expr(tree, zero_morphism(3))


def test_a_large_morphism_holds_every_image_packed(monkeypatch):
    # the doubled witness's coproduct at N = 6: 1,296 dims, above PACKED_FLOOR
    packed = pytest.importorskip("twistlab.packed")
    (quadratic, _), _ = external_factor(6, "E0tilde").terms
    exprs = [
        gen(1, 6),
        sigma(1, 6),
        sigma_power(-HALF, 1, 6),
        cartan_element(6, 2, 5),  # a Sum
        mul(gen(3, 6), sigma_power(-HALF, 1, 6)),  # a Prod
        quadratic,  # E0~'s first leg: E_12 + E_15 / 2 + E_15 H_25
    ]

    def images():
        w = coproduct_morphism(6)
        dw = delta_morphism(w, w)
        return dw, [eval_expr(e, dw) for e in exprs]

    dw, got = images()
    for e, m in zip(exprs, got):
        assert isinstance(m, packed.Packed) and dw._cache[e] is m
    # the same trees with numpy blocked: kernel_for cannot import packed.py
    monkeypatch.delattr(twistlab, "packed")
    monkeypatch.setitem(sys.modules, "twistlab.packed", None)
    dw, want = images()
    assert all(isinstance(m, SparseMatrix) for m in want)
    for m, ref in zip(got, want):
        assert list(m.entries()) == list(ref.entries()) and ref.rows


def test_clear_memos_empties_every_process_wide_memo(monkeypatch):
    # the series tables are held by every spec built before (EXP among
    # them), and the leaf builders and zero_morphism keep what they built
    half = pow1p(HALF)
    assert half.numerators(3) == ((8, -2, 1), 16) and EXP.numerators(3) == ((6, 3, 1), 6)
    leaf, eps = sigma(1, 6), zero_morphism(6)
    monkeypatch.setattr(exact, "binomial_general", lambda q, k: rat(k))
    monkeypatch.setattr(exact, "factorial", lambda k: 1)
    try:
        assert pow1p(HALF).numerators(3) == ((8, -2, 1), 16)
        expr.clear_memos()
        assert pow1p(HALF).numerators(3) == ((1, 2, 3), 1) == half.numerators(3)
        assert EXP.numerators(3) == ((1, 1, 1), 1)
        assert sigma(1, 6) is not leaf and zero_morphism(6) is not eps
    finally:
        monkeypatch.undo()
        expr.clear_memos()
    assert half.numerators(3) == ((8, -2, 1), 16) and EXP.numerators(3) == ((6, 3, 1), 6)
    assert sigma(1, 6) == leaf


def _own_callables(module):
    # (name, callable) for each function and method the module defines
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member
        elif callable(obj):
            yield name, obj


def test_no_function_but_eval_tensor_pairs_takes_a_kernel():
    # each space picks its own kernel (kernel_for); the one override sums the
    # diagram's four-leg arguments in one leg's kernel
    pytest.importorskip("numpy")
    takes_kernel = set()
    for info in pkgutil.iter_modules(twistlab.__path__):
        module = importlib.import_module(f"twistlab.{info.name}")
        for name, fn in _own_callables(module):
            if "kernel" in inspect.signature(fn).parameters:
                takes_kernel.add(f"{info.name}.{name}")
    assert takes_kernel == {"expr.eval_tensor_pairs"}


def test_no_module_but_expr_reads_a_morphisms_store():
    # a morphism's cache and its kept coproduct are read and written through
    # expr's accessors alone (eval_expr, kept_in_legs, kept_dict, ...)
    readers = {path.name for path in pathlib.Path(twistlab.__file__).parent.glob("*.py")
               if re.search(r"\._(cache|delta)\b", path.read_text())}
    assert readers == {"expr.py"}


def test_only_the_antipode_contraction_copies_a_packed_matrix_out():
    # a failing compare's difference and its map back to the e_i x e_j basis
    # stay in their space's kernel; packed.py defines to_sparse and never calls it
    sources = {path.name: path.read_text()
               for path in pathlib.Path(twistlab.__file__).parent.glob("*.py")}
    calls = {name: len(re.findall(r"\.to_sparse\(\)", text)) for name, text in sources.items()}
    contraction = inspect.getsource(hopf._antipode_contraction)
    assert {name for name, count in calls.items() if count} == {"hopf.py"}
    assert calls["hopf.py"] == len(re.findall(r"\.to_sparse\(\)", contraction)) == 1
    assert "def to_sparse(self)" in sources["packed.py"]


def test_packed_proves_int64_in_its_primitives_alone():
    # every int64 bound is proven by a call to _fitting in one of six
    # primitives; a sum, a difference, a commutator and a series go through total
    tree = ast.parse((pathlib.Path(twistlab.__file__).parent / "packed.py").read_text())
    callers = set()

    def visit(node, function):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_fitting":
            callers.add(function)
        for child in ast.iter_child_nodes(node):
            visit(child, child.name if isinstance(child, ast.FunctionDef) else function)

    visit(tree, None)
    assert callers == {"__eq__", "__mul__", "scale", "total", "kron", "unipotent_product"}


def test_packed_is_the_only_module_that_imports_numpy():
    # packed.py loads numpy with one BLAS thread; an import anywhere else could
    # load it first, with OpenBLAS's whole thread pool
    importers = set()
    for path in pathlib.Path(twistlab.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.add(path.name)
    assert importers == {"packed.py"}


# -- the doubled witness's Sym^2 V + Lambda^2 V basis ----------------------------


@pytest.mark.parametrize("n", [2, 4, 7])
def test_the_sym_alt_basis_inverts(n):
    b, b_inv = sym_alt_basis(n)
    assert b_inv * b == SparseMatrix.identity(n * n) == b * b_inv
    assert {v for _, _, v in b.entries()} == {1, -1}
    assert {v for _, _, v in b_inv.entries()} == {1, HALF, -HALF}


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_every_doubled_image_keeps_sym2_and_lambda2_apart(n):
    w, std = doubled_morphism(n), coproduct_morphism(n)
    sym = n * (n + 1) // 2  # indices 1..sym span Sym^2 V, the rest Lambda^2 V
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            m = w.gen(i, j)
            assert all((row <= sym) == (col <= sym) for row, col, _ in m.entries()), (i, j)
            assert in_standard_basis(m, w) == std.gen(i, j), (i, j)
    assert w.standard.name == std.name and std.standard is None


def test_an_operator_on_k_legs_maps_back_leg_by_leg():
    w, std = doubled_morphism(3), coproduct_morphism(3)
    args = [(1, 2), (3, 1), (2, 2), (2, 3)]
    # four legs have 6,561 dims, so the map is taken in packed.py where numpy is
    for legs in (1, 2, 3, 4):
        got = in_standard_basis(reduce(kron, [w.gen(*a) for a in args[:legs]]), w)
        assert got == reduce(kron, [std.gen(*a) for a in args[:legs]]), legs
        # the map stays in the kernel of the operator's space
        assert type(got) is type(expr.kernel_for(got.dim).identity(1)), legs
    # a difference that is no operator on the witness's legs is refused
    with pytest.raises(DimensionMismatch):
        in_standard_basis(SparseMatrix.identity(10), w)
    # a witness in the e_i x e_j basis already gives the operator back as it is
    m = std.gen(1, 2)
    assert in_standard_basis(m, std) is m
