"""Symbolic elements of U(gl(N)) and their evaluation under algebra morphisms.

Expression trees stay unsimplified (only nested sums/products are flattened);
all meaning comes from evaluation.  A Morphism assigns a matrix to each
generator E_ij and extends structurally, so the same tree can be evaluated in
the fundamental representation, under a coproduct (two legs), under the
contragredient, or any composition of those.  Fn nodes denote analytic
functions of 1 + subexpression: sigma = log(1+E), e^{-b*sigma} = (1+E)^{-b}.

eval_expr is the one interpreter of a tree.  The Hopf maps of U(gl(N)) are
morphisms it evaluates under: the coproduct is delta_morphism, the counit is
zero_morphism (a 1x1 matrix, eps(x) times the identity), and the antipode is
contragredient_morphism followed by a transpose, w(S(x)) = w*(x)^T.
"""

from dataclasses import dataclass
from functools import cache
from typing import Callable, Tuple, Union

from . import exact
from .errors import IndexOutOfRange
from .exact import AnalyticFnSpec, SparseMatrix, analytic_apply, kron
from .rationals import Rational, rat

Expr = Union["Gen", "Scalar", "Sum", "Prod", "Fn"]


def _hash_once(node) -> int:
    """A tree node's hash, computed on first use and then kept.

    Nodes key every Morphism's cache of evaluated expressions.  The hash a
    dataclass generates rehashes the node's whole subtree on each lookup, and
    a Scalar's Fraction runs a modular pow for it; a kept hash costs one dict
    read, and hashing a new node reads its children's kept hashes.  Most
    nodes are built and never hashed, so none is hashed at construction.
    """
    fields = vars(node)
    h = fields.get("_hash")
    if h is None:
        # the instance dict holds the fields alone until the hash joins them
        h = fields["_hash"] = hash(tuple(fields.values()))
    return h


@dataclass(frozen=True)
class Gen:
    i: int
    j: int
    __hash__ = _hash_once


@dataclass(frozen=True)
class Scalar:
    value: Rational
    __hash__ = _hash_once


@dataclass(frozen=True)
class Sum:
    terms: Tuple[Expr, ...]
    __hash__ = _hash_once


@dataclass(frozen=True)
class Prod:
    factors: Tuple[Expr, ...]
    __hash__ = _hash_once


@dataclass(frozen=True)
class Fn:
    fn: AnalyticFnSpec
    arg: Expr
    __hash__ = _hash_once


def gen(i: int, j: int) -> Gen:
    return Gen(i, j)


def scal(value) -> Scalar:
    return Scalar(rat(value) if not isinstance(value, Rational) else value)


ONE_EXPR = scal(1)


def add(*terms: Expr) -> Expr:
    flat = []
    for t in terms:
        if isinstance(t, Sum):
            flat.extend(t.terms)
        else:
            flat.append(t)
    if len(flat) == 1:
        return flat[0]
    return Sum(tuple(flat))


def mul(*factors: Expr) -> Expr:
    flat = []
    for f in factors:
        if isinstance(f, Prod):
            flat.extend(f.factors)
        else:
            flat.append(f)
    if not flat:
        return ONE_EXPR
    if len(flat) == 1:
        return flat[0]
    return Prod(tuple(flat))


def sigma(i: int, j: int) -> Fn:
    """sigma_{ij} = log(1 + E_ij)."""
    return Fn(AnalyticFnSpec("log1p"), Gen(i, j))


def sigma_power(coefficient, i: int, j: int) -> Fn:
    """e^{c * sigma_{ij}} = (1 + E_ij)^c."""
    return Fn(AnalyticFnSpec("pow1p", rat(coefficient)), Gen(i, j))


def sigma_exponential(*terms) -> Expr:
    """e^{sum of c * sigma_{ij}} as a product of (1+E_ij)^c factors.

    Valid whenever the E_ij involved commute, which holds for every
    exponent appearing in the costructure tables.
    """
    return mul(*[sigma_power(c, i, j) for (c, i, j) in terms])


class Morphism:
    """Algebra morphism U(gl(N)) -> End(V), given on generators."""

    def __init__(self, n: int, dim: int, gen_image: Callable[[int, int], SparseMatrix], name: str = ""):
        self.n = n
        self.dim = dim
        self.name = name
        self._gen_image = gen_image
        self._cache: dict = {}

    def gen(self, i: int, j: int) -> SparseMatrix:
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexOutOfRange(f"E_{i},{j} outside gl({self.n})")
        key = (i, j)
        got = self._cache.get(key)
        if got is None:
            got = self._gen_image(i, j).reduced()
            self._cache[key] = got
        return got

    @property
    def identity(self) -> SparseMatrix:
        got = self._cache.get("I")
        if got is None:
            got = SparseMatrix.identity(self.dim)
            self._cache["I"] = got
        return got

    def __repr__(self) -> str:
        return f"Morphism({self.name or '?'}, n={self.n}, dim={self.dim})"


def fundamental_morphism(n: int) -> Morphism:
    if n < 2:
        raise IndexOutOfRange("fundamental representation needs N >= 2")
    return Morphism(n, n, lambda i, j: SparseMatrix.unit(n, i, j), name=f"fund({n})")


@cache
def zero_morphism(n: int) -> Morphism:
    """Sends every generator to 0 in dim 1; realizes the counit.

    One morphism per n, so its cache of evaluated expressions is shared by
    every caller (morphisms are immutable by convention).
    """
    return Morphism(n, 1, lambda i, j: SparseMatrix.zero(1), name=f"zero({n})")


def delta_morphism(left: Morphism, right: Morphism) -> Morphism:
    """x -> left(x) x 1 + 1 x right(x); the coproduct with chosen leg images."""
    if left.n != right.n:
        raise IndexOutOfRange("coproduct legs must share N")
    il, ir = left.identity, right.identity

    def image(i, j):
        return kron(left.gen(i, j), ir) + kron(il, right.gen(i, j))

    return Morphism(left.n, left.dim * right.dim, image, name=f"delta[{left.name},{right.name}]")


def coproduct_morphism(n: int) -> Morphism:
    """Undeformed coproduct on the fundamental legs (also the doubled witness)."""
    f = fundamental_morphism(n)
    return delta_morphism(f, f)


def contragredient_morphism(base: Morphism) -> Morphism:
    """Dual representation x -> -base(x)^T; composing with transpose gives S."""
    return Morphism(
        base.n,
        base.dim,
        lambda i, j: -base.gen(i, j).transpose(),
        name=f"dual[{base.name}]",
    )


def eval_expr(e: Expr, phi: Morphism) -> SparseMatrix:
    cached = phi._cache.get(e)
    if cached is not None:
        return cached
    if isinstance(e, Gen):
        out = phi.gen(e.i, e.j)
    elif isinstance(e, Scalar):
        out = phi.identity.scale(e.value)
    elif isinstance(e, Sum):
        out = SparseMatrix.zero(phi.dim)
        for t in e.terms:
            out = out + eval_expr(t, phi)
    elif isinstance(e, Prod):
        out = phi.identity
        for f in e.factors:
            out = out * eval_expr(f, phi)
    elif isinstance(e, Fn):
        out = analytic_apply(e.fn, eval_expr(e.arg, phi))
    else:
        raise TypeError(f"not an expression: {e!r}")
    out = phi._cache[e] = out.reduced()
    return out


def eval_tensor_pairs(pairs, left: Morphism, right: Morphism, kernel=exact):
    """Sum of kron(eval(a), eval(b)) over two-leg terms (a, b).

    The legs are evaluated in exact.py; the krons and the sum are taken in
    `kernel` (exact.py, or packed.py, whose matrices add a SparseMatrix on
    their right).
    """
    out = SparseMatrix.zero(left.dim * right.dim)
    for a, b in pairs:
        out = kernel.kron(eval_expr(a, left), eval_expr(b, right)) + out
    return out
