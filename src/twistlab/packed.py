"""Exact sparse matrices in numpy arrays, for the large spaces of the doubled witness.

A `Packed` matrix holds the same value as a `SparseMatrix`: int numerators
over one positive Python-int denominator `den`.  The nonzero entries are two
numpy arrays, their int64 keys (row - 1) * dim + (col - 1) in ascending
order and their numerators.  Operations take `SparseMatrix` operands too
and pack them first.

Numerators are int64 wherever that is proven safe.  int64 cannot grow, so
before any array arithmetic each operation proves from Python ints that
every value it will form fits: a product entry is a sum of at most (max row
nnz of a) terms of at most max|a| * max|b| each, and a sum's entries are
bounded by the same kind of sum of scaled maxima.  Every partial sum is
bounded by the sum of the absolute values of its terms, so one bound covers
the whole reduction.  When the bound fails the operation divides each
operand by gcd(den, numerators) and proves it again; when it still fails it
goes on in the same arrays with the numerators cast to Python ints (numpy's
object dtype), whose sorts, sums, products and compares are exact.  Packing
a SparseMatrix is checked by numpy itself, which refuses a Python int
outside int64, and takes the same three steps.  No float is formed
anywhere: sums are taken by sorting the keys and `np.add.reduceat`.  The
terms arrive as runs already in key order (a product's terms per entry of
a, a sum's operands, a series' powers, a kron's pairs per entry of a), so
the sort is numpy's stable one, timsort for int64 keys, which merges runs
instead of sorting from scratch.

numpy is imported with this module, and only expr.kernel_for imports it,
for the spaces that reach expr.PACKED_FLOOR dims: every Morphism that large
(in the doubled witness its coproduct from N = 6 and the three-leg
morphisms from N = 4) keeps its generator images and every evaluated
expression here, and each coalgebra twisted over such a coproduct and each
three-leg check builds its matrices here.

Every operation, subtraction included (a - b is a + (-1) b), returns a
Packed matrix.  The one exit to a SparseMatrix is to_sparse, which only
hopf._antipode_contraction calls.
"""

from itertools import chain
from math import gcd, lcm

import numpy as np

from .errors import DimensionMismatch
from .exact import SparseMatrix, _powers
from .rationals import rat

INT64_MAX = 2 ** 63 - 1  # the numerator bound
KEY_MAX = 2 ** 63 - 1  # keys stay int64: expr.kernel_for sends larger spaces to exact.py


class Packed:
    """Square exact sparse matrix: numerators vals[t] at keys[t], over den."""

    __slots__ = ("dim", "keys", "vals", "den")

    def __init__(self, dim: int, keys, vals, den: int = 1):
        if dim * dim > KEY_MAX:
            raise OverflowError(f"keys of dim {dim} do not fit int64")
        self.dim = dim
        self.keys = keys
        self.vals = vals
        self.den = den if len(keys) else 1

    @property
    def nnz(self) -> int:
        return len(self.keys)

    def is_zero(self) -> bool:
        return not len(self.keys)

    @property
    def top(self) -> int:
        """max |numerator|, as a Python int (0 for the zero matrix)."""
        return max(int(self.vals.max()), -int(self.vals.min())) if len(self.vals) else 0

    @property
    def widest(self) -> int:
        """The most entries in one row."""
        if not len(self.keys):
            return 0
        return int(np.bincount(self.keys // self.dim).max())

    def reduced(self) -> "Packed":
        """The same value with gcd(den, every numerator) divided out."""
        if self.den == 1:
            return self
        g = gcd(self.den, int(np.gcd.reduce(self.vals)))
        if g == 1:
            return self
        return Packed(self.dim, self.keys, self.vals // g, self.den // g)

    def to_sparse(self) -> SparseMatrix:
        rows: dict = {}
        r, c = np.divmod(self.keys, self.dim)
        for i, j, v in zip((r + 1).tolist(), (c + 1).tolist(), self.vals.tolist()):
            rows.setdefault(i, {})[j] = v
        return SparseMatrix(self.dim, rows, self.den)

    def entries(self):
        # in key order, which is SparseMatrix.entries' order, and with no dict built
        r, c = np.divmod(self.keys, self.dim)
        for i, j, v in zip((r + 1).tolist(), (c + 1).tolist(), self.vals.tolist()):
            yield i, j, rat(v, self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Packed, SparseMatrix)):
            return NotImplemented
        other = pack(other)
        if self.dim != other.dim or not np.array_equal(self.keys, other.keys):
            return False
        a, b = _fitting(_cross_bound, self, other)
        fa, fb = _cross(a, b)
        return np.array_equal(a.vals * fa, b.vals * fb)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Packed(dim={self.dim}, nnz={self.nnz})"

    def __add__(self, other) -> "Packed":
        a, b = _fitting(_sum_bound, *_same_dim(self, other))
        den = lcm(a.den, b.den)
        vals = (_times(a.vals, den // a.den), _times(b.vals, den // b.den))
        return _summed(a.dim, np.concatenate((a.keys, b.keys)), np.concatenate(vals), den)

    __radd__ = __add__

    def __sub__(self, other) -> "Packed":
        return self + pack(other).scale(-1)

    def __rsub__(self, other) -> "Packed":
        return pack(other) + self.scale(-1)

    def __mul__(self, other) -> "Packed":
        if not isinstance(other, (Packed, SparseMatrix)):
            return NotImplemented
        a, b = _fitting(lambda a, b: a.top * b.top * a.widest, *_same_dim(self, other))
        return _summed(a.dim, *_terms(a, b), a.den * b.den)

    def __rmul__(self, other) -> "Packed":
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return pack(other) * self

    def scale(self, q) -> "Packed":
        q = rat(q)
        if not q:
            return Packed(self.dim, self.keys[:0], self.vals[:0])
        (m,) = _fitting(lambda m: m.top * abs(q.numerator), self)
        return Packed(m.dim, m.keys, _times(m.vals, q.numerator), m.den * q.denominator)

    def commutator(self, other) -> "Packed":
        return self * other + (other * self).scale(-1)

    def transpose(self) -> "Packed":
        rows, cols = np.divmod(self.keys, self.dim)
        keys = cols * self.dim + rows
        order = np.argsort(keys, kind="stable")
        return Packed(self.dim, keys[order], self.vals[order], self.den)


def _same_dim(a, b) -> tuple:
    """Both operands of a sum or product, packed."""
    a, b = pack(a), pack(b)
    if a.dim != b.dim:
        raise DimensionMismatch(f"dim {a.dim} vs {b.dim}")
    return a, b


def _cross(a: Packed, b: Packed) -> tuple:
    """(db / g, da / g) with g = gcd(da, db): a / da == b / db iff a * db/g == b * da/g."""
    g = gcd(a.den, b.den)
    return b.den // g, a.den // g


def _cross_bound(a: Packed, b: Packed) -> int:
    fa, fb = _cross(a, b)
    return max(a.top * fa, b.top * fb)


def _sum_bound(a: Packed, b: Packed) -> int:
    den = lcm(a.den, b.den)
    return a.top * (den // a.den) + b.top * (den // b.den)


def _fitting(bound, *operands) -> tuple:
    """The operands, reduced if need be, once bound(*operands) fits int64;
    when even the reduced ones do not fit, those with Python-int numerators."""
    if bound(*operands) <= INT64_MAX:
        return operands
    operands = tuple(m.reduced() for m in operands)
    if bound(*operands) <= INT64_MAX:
        return operands
    return tuple(Packed(m.dim, m.keys, m.vals.astype(object), m.den) for m in operands)


def _times(vals, k: int):
    """vals * k; an empty array is returned as it is, since numpy refuses a
    Python int k outside int64 even when there is nothing to scale."""
    return vals * k if len(vals) else vals


def _summed(dim: int, keys, vals, den: int) -> Packed:
    """The matrix whose entry at each key is the sum of its terms, zeros dropped.

    Callers pass arrays that nothing else holds, so each unsorted array is
    freed as soon as its sorted copy exists; that sets the peak memory of the
    largest products.
    """
    if not len(keys):
        return Packed(dim, keys, vals)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    vals = vals[order]
    del order
    first = np.empty(len(keys), dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    sums = np.add.reduceat(vals, starts)
    keep = sums != 0
    return Packed(dim, keys[starts][keep], sums[keep], den)


def _terms(a: Packed, b: Packed) -> tuple:
    """(keys, vals) of every term a_ik b_kj of the product, not yet summed.

    b's keys are sorted, so row k of b is the slice starts[k]:starts[k + 1]
    of its arrays; each entry of a is repeated once per entry of that row.
    """
    d = a.dim
    starts = np.zeros(d + 1, dtype=np.int64)
    np.cumsum(np.bincount(b.keys // d, minlength=d), out=starts[1:])
    rows, cols = np.divmod(a.keys, d)
    lo = starts[cols]
    counts = starts[cols + 1] - lo
    ends = np.cumsum(counts)
    # position in b of each term: its entry's row start plus its offset in the row
    pos = np.arange(ends[-1] if len(ends) else 0) + np.repeat(lo - ends + counts, counts)
    keys = np.repeat(rows * d, counts) + b.keys[pos] % d
    vals = np.repeat(a.vals, counts) * b.vals[pos]
    return keys, vals


def pack(m) -> Packed:
    """A SparseMatrix as a Packed matrix (a Packed one as it is).

    numpy refuses a Python int that does not fit int64 (OverflowError), so
    the conversion is checked entry by entry; the reduced form is tried
    next, and Python-int numerators last.
    """
    if isinstance(m, Packed):
        return m
    try:
        return _from_sparse(m, np.int64)
    except OverflowError:
        m = m.reduced()
    try:
        return _from_sparse(m, np.int64)
    except OverflowError:
        return _from_sparse(m, object)


def _from_sparse(m: SparseMatrix, dtype) -> Packed:
    d = m.dim
    lengths = np.fromiter(map(len, m.rows.values()), np.int64, len(m.rows))
    nnz = int(lengths.sum())
    rows = np.repeat(np.fromiter(m.rows, np.int64, len(m.rows)), lengths)
    cols = np.fromiter(chain.from_iterable(m.rows.values()), np.int64, nnz)
    vals = np.fromiter(chain.from_iterable(map(dict.values, m.rows.values())), dtype, nnz)
    keys = (rows - 1) * d + cols - 1
    order = np.argsort(keys, kind="stable")
    return Packed(d, keys[order], vals[order], m.den)


def identity(dim: int) -> Packed:
    return Packed(dim, np.arange(dim, dtype=np.int64) * (dim + 1), np.ones(dim, dtype=np.int64))


def kron(a, b) -> Packed:
    """Kronecker product; tensor index (p, q) maps to (p-1)*b.dim + q."""
    a, b = _fitting(lambda a, b: a.top * b.top, pack(a), pack(b))
    db = b.dim
    dim = a.dim * db
    ra, ca = np.divmod(a.keys, a.dim)
    rb, cb = np.divmod(b.keys, db)
    # built in place: one array of keys for all pairs of entries, not four
    keys = ra[:, None] * db + rb
    keys *= dim
    keys += (ca * db)[:, None]
    keys += cb
    keys = keys.ravel()
    vals = (a.vals[:, None] * b.vals).ravel()
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    return Packed(dim, keys, vals[order], a.den * b.den)


def unipotent_product(a, b) -> Packed:
    """(1 + a)(1 + b) - 1 = ab + a * b.den + b * a.den over a.den * b.den, in one reduce."""
    a, b = _fitting(
        lambda a, b: a.top * b.top * a.widest + a.top * b.den + b.top * a.den, *_same_dim(a, b)
    )
    keys, vals = _terms(a, b)
    return _summed(a.dim, np.concatenate((keys, a.keys, b.keys)),
                   np.concatenate((vals, _times(a.vals, b.den), _times(b.vals, a.den))),
                   a.den * b.den)


def analytic_apply(fn, m) -> Packed:
    """The finite series fn(m) of a nilpotent m (see exact.analytic_apply), in one reduce.

    Every power m^k is formed first; the terms c_k m^k, c_k = n_k / q from
    fn's table in lowest terms, then go into one concatenation over the lcm
    of their dens.  Each term takes its power's own den rather than m.den^k,
    since _fitting may reduce a power.
    """
    m = pack(m)
    powers = _powers(m)
    nums, q = fn.numerators(len(powers))
    terms = []  # (numerator, den) of c_k in lowest terms, and m^k
    for n, p in zip(nums, powers):
        if n:
            g = gcd(n, q)
            terms.append((n // g, q // g, p))

    def scaled(*powers):
        """(den, the numerator factor of each term over den)."""
        den = lcm(1, *(p.den * c for (_, c, _), p in zip(terms, powers)))
        return den, [n * (den // (p.den * c)) for (n, c, _), p in zip(terms, powers)]

    def bound(*powers):
        den, factors = scaled(*powers)
        return den * fn.has_identity_term + sum(abs(f) * p.top for f, p in zip(factors, powers))

    powers = _fitting(bound, *(p for _, _, p in terms))
    den, factors = scaled(*powers)
    keys = [p.keys for p in powers]
    vals = [p.vals * f for f, p in zip(factors, powers)]
    if fn.has_identity_term:
        keys.append(np.arange(m.dim, dtype=np.int64) * (m.dim + 1))
        # den fits int64 unless the powers were widened; the identity follows them
        vals.append(np.full(m.dim, den, dtype=(vals[0] if vals else m.vals).dtype))
    if not keys:
        return Packed(m.dim, m.keys[:0], m.vals[:0])
    return _summed(m.dim, np.concatenate(keys), np.concatenate(vals), den)
