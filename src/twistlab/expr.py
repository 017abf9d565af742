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

Each Morphism evaluates in the kernel kernel_for picks for its dim: exact.py,
or packed.py, which builds and keeps a large one's every image in numpy arrays.
A build in two or more legs takes the kernel of the space it is built in,
kernel_for of the product of the legs' dims, so no caller picks a kernel.

The leaf builders gen, sigma and sigma_power are memoized (exact.memoized,
re-exported here with clear_memos): each distinct leaf is built once per
process, so equal requests get the identical node, with its hash kept, and
every Morphism cache lookup of a tree holding it hits on identity.  They are
pure: a leaf is an immutable tree fixed by the arguments alone.  twists.py's
factor builders, states.py's generator map and coblock terms and exact.py's
series tables are memoized the same way.  A memo keeps what its builder
returned under the code as it was then, so code that patches anything a
builder reads (roots.cartan_element as twists.py reads it, pow1p, ...) calls
clear_memos() after patching it and again after restoring it.
"""

from dataclasses import dataclass
from functools import reduce
from operator import add as _plus, mul as _times
from typing import Callable, Tuple, Union

from . import exact
from .errors import IndexOutOfRange
from .exact import LOG1P, AnalyticFnSpec, SparseMatrix, clear_memos, memoized, pow1p
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


@memoized
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
    if not flat:
        return scal(0)
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


@memoized
def sigma(i: int, j: int) -> Fn:
    """sigma_{ij} = log(1 + E_ij)."""
    return Fn(LOG1P, gen(i, j))


@memoized
def sigma_power(coefficient, i: int, j: int) -> Fn:
    """e^{c * sigma_{ij}} = (1 + E_ij)^c."""
    return Fn(pow1p(coefficient), gen(i, j))


def sigma_exponential(*terms) -> Expr:
    """e^{sum of c * sigma_{ij}} as a product of (1+E_ij)^c factors.

    Valid whenever the E_ij involved commute, which holds for every
    exponent appearing in the costructure tables.
    """
    return mul(*[sigma_power(c, i, j) for (c, i, j) in terms])


# A space of this many dims or more is built in packed.py: in the doubled
# witness its coproduct from N = 6 (1,296 dims) and the three-leg spaces from
# N = 4 (4,096); in the fundamental one the three-leg spaces from N = 11
# (1,331) and the coproduct from N = 35, so fund-sweep never imports numpy.
PACKED_FLOOR = 1_200


def kernel_for(dim: int):
    """The kernel a space of `dim` dims is built in.

    This is the one place a kernel is chosen.  From PACKED_FLOOR dims on it
    is packed.py, and numpy is imported only here; below it, without numpy,
    or where packed.py's int64 keys cannot index the space, it is exact.py.
    Either kernel is exact on any input (packed.py widens to Python ints
    where int64 would not hold), and packed.py takes SparseMatrix operands.
    """
    if dim >= PACKED_FLOOR:
        try:
            from . import packed
        except ImportError:  # numpy is an optional extra
            return exact
        if dim * dim <= packed.KEY_MAX:
            return packed
    return exact


def _cached_images(cache: dict, gen_image: Callable[[int, int], SparseMatrix]):
    """(i, j) -> gen_image(i, j) in canonical form, kept in `cache` under (i, j).

    It holds the cache and the image function, not the Morphism they belong
    to, so a coproduct can read its legs' generators without keeping the legs
    alive (see delta_morphism).
    """
    def gen(i: int, j: int) -> SparseMatrix:
        got = cache.get((i, j))
        if got is None:
            got = cache[(i, j)] = gen_image(i, j).reduced()
        return got

    return gen


class Morphism:
    """Algebra morphism U(gl(N)) -> End(V), given on generators, in kernel_for(dim)."""

    def __init__(self, n: int, dim: int, gen_image: Callable[[int, int], SparseMatrix], name: str = ""):
        self.n = n
        self.dim = dim
        self.name = name
        self.kernel = kernel_for(dim)
        self._cache: dict = {}
        self._gen = _cached_images(self._cache, gen_image)
        self._delta = None  # delta_morphism(self, self), once built

    def gen(self, i: int, j: int) -> SparseMatrix:
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexOutOfRange(f"E_{i},{j} outside gl({self.n})")
        return self._gen(i, j)

    @property
    def identity(self) -> SparseMatrix:
        got = self._cache.get("I")
        if got is None:
            got = self._cache["I"] = self.kernel.identity(self.dim)
        return got

    def __repr__(self) -> str:
        return f"Morphism({self.name or '?'}, n={self.n}, dim={self.dim})"


def fundamental_morphism(n: int) -> Morphism:
    if n < 2:
        raise IndexOutOfRange("fundamental representation needs N >= 2")
    return Morphism(n, n, lambda i, j: SparseMatrix.unit(n, i, j), name=f"fund({n})")


@memoized
def zero_morphism(n: int) -> Morphism:
    """Sends every generator to 0 in dim 1; realizes the counit.

    One morphism per n, so its cache of evaluated expressions is shared by
    every caller (morphisms are immutable by convention).
    """
    return Morphism(n, 1, lambda i, j: SparseMatrix.zero(1), name=f"zero({n})")


def delta_morphism(left: Morphism, right: Morphism) -> Morphism:
    """x -> left(x) x 1 + 1 x right(x); the coproduct with chosen leg images.

    The coproduct of a witness, both legs the same morphism, is built once
    and kept on it, so every check in that witness reads one cache of
    evaluated images.  Its image function holds the legs' generator caches,
    not the legs: a witness and its coproduct form no reference cycle, and
    both are freed with the last reference to the witness.  Mixed legs build
    a new morphism on each call.  The images are built in the coproduct's
    own kernel, from the legs' images in theirs.
    """
    if left.n != right.n:
        raise IndexOutOfRange("coproduct legs must share N")
    if left is right and left._delta is not None:
        return left._delta
    il, ir = left.identity, right.identity
    gen_l, gen_r = left._gen, right._gen
    kernel = kernel_for(left.dim * right.dim)

    def image(i, j):
        return kernel.kron(gen_l(i, j), ir) + kernel.kron(il, gen_r(i, j))

    out = Morphism(left.n, left.dim * right.dim, image, name=f"delta[{left.name},{right.name}]")
    if left is right:
        left._delta = out
    return out


def kept_in_legs(left: Morphism, right: Morphism, key, build):
    """build() in the two legs (left, right), kept under `key` beside their coproduct.

    A value is kept only in a witness's own two legs (left is right) whose
    coproduct delta_morphism(left, left) is already kept; build() must make
    it in that coproduct's kernel, so each key has one kernel.  It goes into
    the coproduct's cache of evaluated images, in canonical form, and is
    freed with it; every other pair of legs (mixed, three- or four-leg)
    builds it on each call.  Callers never mutate what comes back.
    """
    delta = left._delta if left is right else None
    if delta is None:
        return build()
    got = delta._cache.get(key)
    if got is None:
        got = delta._cache[key] = build().reduced()
    return got


def coproduct_morphism(n: int) -> Morphism:
    """Undeformed coproduct on the fundamental legs (also the doubled witness)."""
    f = fundamental_morphism(n)
    return delta_morphism(f, f)


def contragredient_morphism(base: Morphism) -> Morphism:
    """Dual representation x -> -base(x)^T; composing with transpose gives S."""
    return Morphism(
        base.n,
        base.dim,
        lambda i, j: base.gen(i, j).transpose().scale(-1),
        name=f"dual[{base.name}]",
    )


def eval_expr(e: Expr, phi: Morphism):
    """e under phi, in phi's kernel: a SparseMatrix, or a Packed one."""
    cached = phi._cache.get(e)
    if cached is not None:
        return cached
    if isinstance(e, Gen):
        out = phi.gen(e.i, e.j)
    elif isinstance(e, Scalar):
        out = phi.identity.scale(e.value)
    elif isinstance(e, Sum):
        out = reduce(_plus, [eval_expr(t, phi) for t in e.terms])
    elif isinstance(e, Prod):
        out = reduce(_times, [eval_expr(f, phi) for f in e.factors])
    elif isinstance(e, Fn):
        out = phi.kernel.analytic_apply(e.fn, eval_expr(e.arg, phi))
    else:
        raise TypeError(f"not an expression: {e!r}")
    out = phi._cache[e] = out.reduced()
    return out


def eval_tensor_pairs(pairs, left: Morphism, right: Morphism, *, kernel=None):
    """Sum of kron(eval(a), eval(b)) over two-leg terms (a, b).

    Each leg is evaluated in its own morphism's kernel; the krons and the sum
    are taken in the kernel of the legs' space, or in `kernel`, which must be
    packed.py when a leg's is.
    """
    kernel = kernel or kernel_for(left.dim * right.dim)
    out = SparseMatrix.zero(left.dim * right.dim)
    for a, b in pairs:
        out = kernel.kron(eval_expr(a, left), eval_expr(b, right)) + out
    return out
