"""Sparse exact linear algebra over the rationals.

Square matrices with 1-based indices.  A matrix is one positive int
denominator `den` and row-major nested dicts of int numerators, so entry
(i, j) is rows[i][j] / den.  Kernels store no zeros and no empty rows, and
the zero matrix has den == 1, but they do not divide out common factors:
a product's den is the product of its operands' dens.  The canonical form
(gcd(den, every numerator) == 1) is reached by `reduced()`, and only the
matrices that are held (materialized twists, cached expression values and
generator images) are reduced.  `==` compares values: equal dens compare
numerators directly, different dens compare the supports and then
a * (db / g) with b * (da / g), g = gcd(da, db), so "residual" checks are
exact and no numerator is divided.

Product, sum and Kronecker product run on Python ints (which cannot
overflow); Rationals are taken or returned only at the boundaries:
from_entries, scale, indexing, entries() and the dump format.  Large
spaces (from the doubled witness's 1,296-dim coproduct on: its images, the
coalgebras twisted over it, and the three-leg checks) are built instead in
packed.py's numpy arrays, in int64 wherever a bound proves it safe and in
Python ints elsewhere (see expr.kernel_for).
Also here: analytic functions (exp, exp - 1, log(1+m), (1+m)^q) of
nilpotent matrices as finite series.  A series of K terms reads its
coefficients as one int table, numerators over one den q_K, and is summed
in place over the den q_K * m.den^K, known before the first term since
m^k has den m.den^k.  There is no generic matrix inverse: every inverse
the package needs is of the form 1 + nilpotent and is taken as the series
(1+m)^-1.
Unipotent elements 1 + a are carried as their nilpotent part a (EXPM1 gives
exp(m) - 1), and `unipotent_product` multiplies two of them as
(1 + a)(1 + b) - 1 = ab + a + b, so no identity is built or multiplied.

Also here: the one registry of process-wide memos, which `memoized` adds a
builder to and `clear_memos` empties (expr.py re-exports both).
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from math import factorial, gcd, lcm
from typing import Iterator, Optional

from .errors import DimensionMismatch, NotNilpotent
from .rationals import Rational, ZERO, binomial_general, rat


_MEMOIZED = []  # every memoized builder, emptied by clear_memos


def memoized(build):
    """build, each result kept under its arguments and built once per process.

    Only for a pure builder of an immutable value: equal requests then get
    the identical object.  The key holds each argument's type beside its
    value (lru_cache's typed keys), so arguments equal across types (1/2 and
    0.5, 1 and True) never share a result and each call returns or raises
    what build itself would.  A call that raises keeps nothing; an
    unhashable argument raises TypeError.
    """
    kept = lru_cache(maxsize=None, typed=True)(build)
    _MEMOIZED.append(kept)
    return kept


def clear_memos():
    """Empty every process-wide memo, one per memoized builder."""
    for kept in _MEMOIZED:
        kept.cache_clear()


@dataclass(frozen=True)
class AnalyticFnSpec:
    """One of exp(m), exp(m) - 1, log(1+m), (1+m)^q; q rational, only for pow1p."""

    kind: str  # "exp" | "expm1" | "log1p" | "pow1p"
    exponent: Optional[Rational] = None

    def __post_init__(self):
        if self.kind not in ("exp", "expm1", "log1p", "pow1p"):
            raise ValueError(f"unknown analytic kind {self.kind!r}")
        if (self.kind == "pow1p") != (self.exponent is not None):
            raise ValueError("pow1p takes an exponent, exp/expm1/log1p do not")

    @property
    def has_identity_term(self) -> bool:
        """exp and pow1p start at 1; expm1 and log1p have no constant term."""
        return self.kind in ("exp", "pow1p")

    def coefficient(self, k: int) -> Rational:
        """c_k, the coefficient of m^k (k >= 1) in the series."""
        return (rat(1, factorial(k)) if self.kind in ("exp", "expm1")
                else rat((-1) ** (k + 1), k) if self.kind == "log1p"
                else binomial_general(self.exponent, k))

    def numerators(self, terms: int) -> tuple:
        """((n_1, ..., n_K), q_K) with c_k = n_k / q_K, q_K the lcm of c_1..c_K's dens.

        K = terms; K = 0 gives ((), 1).  Built once per (value, K) by _series_table.
        """
        q = self.exponent
        if q is None:  # not `if not q`: pow1p(0) has the exponent 0
            return _series_table(self.kind, None, None, terms)
        return _series_table(self.kind, q.numerator, q.denominator, terms)


@memoized
def _series_table(kind: str, num: Optional[int], den: Optional[int], terms: int) -> tuple:
    """AnalyticFnSpec(kind, num / den).numerators(terms), keyed by ints, which
    hash far faster than pow1p's Fraction: a spec is built per call."""
    fn = AnalyticFnSpec(kind, None if num is None else rat(num, den))
    cs = [fn.coefficient(k) for k in range(1, terms + 1)]
    q = lcm(1, *(c.denominator for c in cs))
    return tuple(c.numerator * (q // c.denominator) for c in cs), q


EXP = AnalyticFnSpec("exp")
EXPM1 = AnalyticFnSpec("expm1")
LOG1P = AnalyticFnSpec("log1p")


def pow1p(exponent) -> AnalyticFnSpec:
    return AnalyticFnSpec("pow1p", rat(exponent))


def _reduced(rows: dict, den: int):
    """The canonical (rows, den): gcd(den, numerators) divided out."""
    if den == 1 or not rows:
        return rows, 1
    g = gcd(den, *chain.from_iterable(map(dict.values, rows.values())))
    if g == 1:
        return rows, den
    return {i: {j: v // g for j, v in r.items()} for i, r in rows.items()}, den // g


def _add_into(rows: dict, other: dict, factor: int):
    """rows += factor * other on numerators, in place, storing no zeros."""
    for i, orow in other.items():
        row = rows.get(i)
        if row is None:
            rows[i] = dict(orow) if factor == 1 else {j: factor * v for j, v in orow.items()}
            continue
        for j, v in orow.items():
            s = row.get(j, 0) + factor * v
            if s:
                row[j] = s
            else:
                del row[j]
        if not row:
            del rows[i]


class SparseMatrix:
    """Square sparse rational matrix; immutable by convention.

    Entry (i, j) is rows[i][j] / den: `rows` maps row -> col -> nonzero int
    numerator and `den` is one positive int for the whole matrix.  The
    constructor stores both as given (the zero matrix gets den 1); reduced()
    returns the canonical form, and == compares values whatever the dens.
    """

    __slots__ = ("dim", "den", "rows")

    def __init__(self, dim: int, rows=None, den: int = 1):
        self.dim = dim
        self.rows = rows if rows is not None else {}
        self.den = den if self.rows else 1

    def reduced(self) -> "SparseMatrix":
        """The canonical form: gcd(den, every numerator) == 1."""
        rows, den = _reduced(self.rows, self.den)
        return self if den == self.den else SparseMatrix(self.dim, rows, den)

    # -- construction -----------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "SparseMatrix":
        return cls(dim)

    @classmethod
    def identity(cls, dim: int) -> "SparseMatrix":
        return cls(dim, {i: {i: 1} for i in range(1, dim + 1)})

    @classmethod
    def from_entries(cls, dim: int, entries) -> "SparseMatrix":
        if isinstance(entries, dict):
            entries = entries.items()
        values: dict = {}
        for (i, j), value in entries:
            if not (1 <= i <= dim and 1 <= j <= dim):
                raise IndexError(f"entry ({i},{j}) outside 1..{dim}")
            q = rat(value) if not isinstance(value, Rational) else value
            if q != 0:
                values.setdefault(i, {})[j] = q
        den = lcm(1, *(q.denominator for row in values.values() for q in row.values()))
        rows = {
            i: {j: q.numerator * (den // q.denominator) for j, q in row.items()}
            for i, row in values.items()
        }
        return cls(dim, rows, den)

    @classmethod
    def unit(cls, dim: int, i: int, j: int, value=1) -> "SparseMatrix":
        return cls.from_entries(dim, {(i, j): value})

    # -- inspection -------------------------------------------------------

    def __getitem__(self, key) -> Rational:
        i, j = key
        v = self.rows.get(i, {}).get(j)
        return ZERO if v is None else rat(v, self.den)

    @property
    def nnz(self) -> int:
        return sum(len(r) for r in self.rows.values())

    def is_zero(self) -> bool:
        return not self.rows

    def entries(self) -> Iterator[tuple]:
        """Yield (row, col, Rational value), rows ascending then cols ascending."""
        den = self.den
        for i in sorted(self.rows):
            row = self.rows[i]
            for j in sorted(row):
                yield i, j, rat(row[j], den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        if self.dim != other.dim:
            return False
        if self.den == other.den:
            # equal values over one den have equal numerators
            return self.rows == other.rows
        rows, orows = self.rows, other.rows
        if rows.keys() != orows.keys() or any(
            row.keys() != orows[i].keys() for i, row in rows.items()
        ):
            return False
        # a / da == b / db  <=>  a * (db / g) == b * (da / g), with g = gcd(da, db)
        g = gcd(self.den, other.den)
        fa, fb = other.den // g, self.den // g
        for i, row in rows.items():
            orow = orows[i]
            for j, v in row.items():
                if v * fa != orow[j] * fb:
                    return False
        return True

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"SparseMatrix(dim={self.dim}, nnz={self.nnz})"

    # -- ring operations --------------------------------------------------

    def _require_same_dim(self, other: "SparseMatrix"):
        if self.dim != other.dim:
            raise DimensionMismatch(f"dim {self.dim} vs {other.dim}")

    def _plus(self, other: "SparseMatrix", sign: int) -> "SparseMatrix":
        """self + sign * other, both rescaled to the lcm of the denominators."""
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        self._require_same_dim(other)
        den = lcm(self.den, other.den)
        rows: dict = {}
        _add_into(rows, self.rows, den // self.den)
        _add_into(rows, other.rows, sign * (den // other.den))
        return SparseMatrix(self.dim, rows, den)

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        return self._plus(other, 1)

    def __sub__(self, other: "SparseMatrix") -> "SparseMatrix":
        return self._plus(other, -1)

    def __neg__(self) -> "SparseMatrix":
        return SparseMatrix(
            self.dim, {i: {j: -v for j, v in r.items()} for i, r in self.rows.items()}, self.den
        )

    def scale(self, q) -> "SparseMatrix":
        q = rat(q) if not isinstance(q, Rational) else q
        if q == 0:
            return SparseMatrix(self.dim)
        num = q.numerator
        return SparseMatrix(
            self.dim,
            {i: {j: num * v for j, v in r.items()} for i, r in self.rows.items()},
            self.den * q.denominator,
        )

    def __mul__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        self._require_same_dim(other)
        orows = other.rows
        rows: dict = {}
        for i, arow in self.rows.items():
            if len(arow) == 1:
                # One term: the row is a*brow, and products of nonzero ints are nonzero.
                ((k, a),) = arow.items()
                brow = orows.get(k)
                if brow is not None:
                    rows[i] = dict(brow) if a == 1 else {j: a * b for j, b in brow.items()}
                continue
            acc: dict = {}
            get = acc.get
            for k, a in arow.items():
                brow = orows.get(k)
                if brow is None:
                    continue
                if a == 1:
                    for j, b in brow.items():
                        acc[j] = get(j, 0) + b
                else:
                    for j, b in brow.items():
                        acc[j] = get(j, 0) + a * b
            row = {j: v for j, v in acc.items() if v}
            if row:
                rows[i] = row
        return SparseMatrix(self.dim, rows, self.den * other.den)

    def transpose(self) -> "SparseMatrix":
        rows: dict = {}
        for i, r in self.rows.items():
            for j, v in r.items():
                rows.setdefault(j, {})[i] = v
        return SparseMatrix(self.dim, rows, self.den)

    def commutator(self, other: "SparseMatrix") -> "SparseMatrix":
        return self * other - other * self


identity = SparseMatrix.identity  # each kernel module has one, as Morphism.identity reads it


def unipotent_product(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """(1 + a)(1 + b) - 1 = ab + a + b, over the den a.den * b.den.

    a and b are nilpotent parts; the sum goes into the product's fresh rows
    in place.  A zero product comes back with den 1, so its den is not used.
    """
    rows = (a * b).rows
    _add_into(rows, a.rows, b.den)
    _add_into(rows, b.rows, a.den)
    return SparseMatrix(a.dim, rows, a.den * b.den)


# -- tensor kernels -------------------------------------------------------


def kron(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """Kronecker product; tensor index (p, q) maps to (p-1)*b.dim + q."""
    db = b.dim
    rows: dict = {}
    for i, arow in a.rows.items():
        base_i = (i - 1) * db
        for k, brow in b.rows.items():
            row = rows.setdefault(base_i + k, {})
            for j, va in arow.items():
                base_j = (j - 1) * db
                if va == 1:
                    for l, vb in brow.items():
                        row[base_j + l] = vb
                else:
                    for l, vb in brow.items():
                        row[base_j + l] = va * vb
    return SparseMatrix(a.dim * b.dim, rows, a.den * b.den)


def swap_matrix(d: int) -> SparseMatrix:
    """Flip operator P on V x V with P(x x y) = y x x."""
    rows = {}
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            rows[(i - 1) * d + j] = {(j - 1) * d + i: 1}
    return SparseMatrix(d * d, rows)


# -- nilpotency and analytic series ---------------------------------------


def _powers(m) -> list:
    """[m, m^2, ..., the last nonzero power], one product per step.

    A nilpotent m of dimension d has m^d = 0, so a nonzero m^d proves that
    m is not nilpotent.
    """
    chain, power = [], m
    while not power.is_zero():
        if len(chain) + 1 >= m.dim:
            raise NotNilpotent(f"m^{len(chain) + 1} != 0 for dim {m.dim}")
        chain.append(power)
        power = power * m
    return chain


def nilpotency_index(m: SparseMatrix) -> int:
    """Smallest k with m^k = 0; raises NotNilpotent if there is none."""
    return 1 + len(_powers(m))


def analytic_apply(fn: AnalyticFnSpec, m: SparseMatrix,
                   powers: Optional[list] = None) -> SparseMatrix:
    """Finite-series value of fn on a nilpotent matrix, exactly.

    `powers` is m's chain [m, ..., m^K] as _powers builds it, when the caller
    has it already.  A product never reduces, so m^k has den d^k with
    d = m.den, and with fn's table c_k = n_k / q_K the sum's den is
    q_K * d^K: term k goes in as n_k * d^(K-k) times m^k's numerators.  The
    rows start from the identity (numerators q_K * d^K) for exp and pow1p and
    empty for expm1 and log1p, which have no constant term.
    """
    if powers is None:
        powers = _powers(m)
    nums, q = fn.numerators(len(powers))
    d = m.den
    den = q * d ** len(powers)
    rows: dict = {i: {i: den} for i in range(1, m.dim + 1)} if fn.has_identity_term else {}
    scale = den // (q * d)  # d^(K-k), from k = 1
    for n, power in zip(nums, powers):
        if n:
            _add_into(rows, power.rows, n * scale)
        scale //= d
    return SparseMatrix(m.dim, rows, den)


# -- dump format -----------------------------------------------------------


def dump_matrix_lines(m: SparseMatrix) -> Iterator[str]:
    """The dump's lines, each ending in a newline: "dim <d>" then "row col num den" per entry."""
    yield f"dim {m.dim}\n"
    for i, j, v in m.entries():
        yield f"{i} {j} {v.numerator} {v.denominator}\n"


def dump_matrix_text(m: SparseMatrix) -> str:
    """Plain-text dump, the join of dump_matrix_lines."""
    return "".join(dump_matrix_lines(m))


def parse_matrix_text(text: str) -> SparseMatrix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("dim "):
        raise ValueError("dump must start with 'dim <d>'")
    dim = int(lines[0].split()[1])
    entries = {}
    for ln in lines[1:]:
        i, j, num, den = ln.split()
        entries[(int(i), int(j))] = rat(int(num), int(den))
    return SparseMatrix.from_entries(dim, entries)
