"""Sparse exact linear algebra over the rationals.

Square matrices with 1-based indices.  A matrix is one positive int
denominator `den` and row-major nested dicts of int numerators, so entry
(i, j) is rows[i][j] / den.  The form is canonical: no stored zeros,
gcd(den, every numerator) == 1, and the zero matrix has den == 1.  Equal
matrices therefore have equal (dim, den, rows), equality is a dict
comparison, and "residual" checks are exact by construction.

Product, sum, Kronecker product and the leg embeddings run on Python ints
only (which cannot overflow); Rationals are taken or returned only at the
boundaries: from_entries, scale, indexing, entries(), the dump format and
the small-dimension inverse.  Also here: analytic functions (exp, log(1+m),
(1+m)^q) of nilpotent matrices as finite series.
"""

from dataclasses import dataclass
from itertools import chain
from math import gcd, lcm
from typing import Iterator, Optional

from .errors import DimensionMismatch, LegOutOfRange, NotNilpotent
from .rationals import Rational, ZERO, ONE, binomial_general, factorial, rat


@dataclass(frozen=True)
class AnalyticFnSpec:
    """One of exp(m), log(1+m), (1+m)^q; q rational, only for pow1p."""

    kind: str  # "exp" | "log1p" | "pow1p"
    exponent: Optional[Rational] = None

    def __post_init__(self):
        if self.kind not in ("exp", "log1p", "pow1p"):
            raise ValueError(f"unknown analytic kind {self.kind!r}")
        if (self.kind == "pow1p") != (self.exponent is not None):
            raise ValueError("pow1p takes an exponent, exp/log1p do not")


EXP = AnalyticFnSpec("exp")
LOG1P = AnalyticFnSpec("log1p")


def pow1p(exponent) -> AnalyticFnSpec:
    return AnalyticFnSpec("pow1p", rat(exponent))


def _reduced(rows: dict, den: int):
    """The canonical (rows, den): gcd(den, numerators) divided out, zero has den 1."""
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
    constructor reduces to the canonical form, so every kernel only has to
    avoid storing zeros.
    """

    __slots__ = ("dim", "den", "rows")

    def __init__(self, dim: int, rows=None, den: int = 1):
        self.dim = dim
        self.rows, self.den = _reduced(rows if rows is not None else {}, den)

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
        return self.dim == other.dim and self.den == other.den and self.rows == other.rows

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"SparseMatrix(dim={self.dim}, nnz={self.nnz})"

    # -- ring operations --------------------------------------------------

    def _require_same_dim(self, other: "SparseMatrix"):
        if self.dim != other.dim:
            raise DimensionMismatch(f"dim {self.dim} vs {other.dim}")

    def _plus(self, other: "SparseMatrix", sign: int) -> "SparseMatrix":
        """self + sign * other, both rescaled to the lcm of the denominators."""
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

    def __rmul__(self, q) -> "SparseMatrix":
        return self.scale(q)

    def __mul__(self, other):
        if not isinstance(other, SparseMatrix):
            return self.scale(other)
        self._require_same_dim(other)
        orows = other.rows
        rows: dict = {}
        for i, arow in self.rows.items():
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

    def inverse(self) -> "SparseMatrix":
        """Exact Gauss-Jordan inverse; intended for small dimensions."""
        d = self.dim
        a = [[self[i, j] for j in range(1, d + 1)] for i in range(1, d + 1)]
        inv = [[ONE if i == j else ZERO for j in range(d)] for i in range(d)]
        for col in range(d):
            pivot = next((r for r in range(col, d) if a[r][col] != 0), None)
            if pivot is None:
                raise ZeroDivisionError("matrix is singular")
            if pivot != col:
                a[col], a[pivot] = a[pivot], a[col]
                inv[col], inv[pivot] = inv[pivot], inv[col]
            p = a[col][col]
            if p != 1:
                a[col] = [x / p for x in a[col]]
                inv[col] = [x / p for x in inv[col]]
            for r in range(d):
                if r != col and a[r][col] != 0:
                    f = a[r][col]
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                    inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
        return SparseMatrix.from_entries(
            d, {(i + 1, j + 1): inv[i][j] for i in range(d) for j in range(d)}
        )


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


def embed_leg(m: SparseMatrix, leg: int, legs: int) -> SparseMatrix:
    """I x ... x m x ... x I with m at position `leg`; all legs of m.dim."""
    if not 1 <= leg <= legs:
        raise LegOutOfRange(f"leg {leg} outside 1..{legs}")
    d = m.dim
    out = m
    for _ in range(leg - 1):
        out = kron(SparseMatrix.identity(d), out)
    for _ in range(legs - leg):
        out = kron(out, SparseMatrix.identity(d))
    return out


def embed_pair(m: SparseMatrix, d: int, legs: tuple) -> SparseMatrix:
    """Place a two-leg operator m (dim d*d) on the given legs of a 3-fold space."""
    i, j = legs
    if (i, j) == (1, 2):
        return kron(m, SparseMatrix.identity(d))
    if (i, j) == (2, 3):
        return kron(SparseMatrix.identity(d), m)
    if (i, j) != (1, 3):
        raise LegOutOfRange(f"unsupported leg pair {legs}")
    rows: dict = {}
    for ab, row in m.rows.items():
        a, b_ = divmod(ab - 1, d)
        for cd, v in row.items():
            c, e = divmod(cd - 1, d)
            for k in range(d):
                r = (a * d + k) * d + b_ + 1
                rows.setdefault(r, {})[(c * d + k) * d + e + 1] = v
    return SparseMatrix(d ** 3, rows, m.den)


def swap_matrix(d: int) -> SparseMatrix:
    """Flip operator P on V x V with P(x x y) = y x x."""
    rows = {}
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            rows[(i - 1) * d + j] = {(j - 1) * d + i: 1}
    return SparseMatrix(d * d, rows)


# -- nilpotency and analytic series ---------------------------------------


def _powers(m: SparseMatrix) -> Iterator[SparseMatrix]:
    """Yield m, m^2, ... up to the last nonzero power, one product per step.

    A nilpotent m of dimension d has m^d = 0, so a nonzero m^d proves that
    m is not nilpotent.
    """
    power, k = m, 1
    while not power.is_zero():
        if k >= m.dim:
            raise NotNilpotent(f"m^{k} != 0 for dim {m.dim}")
        yield power
        power = power * m
        k += 1


def nilpotency_index(m: SparseMatrix) -> int:
    """Smallest k with m^k = 0; raises NotNilpotent if there is none."""
    return 1 + sum(1 for _ in _powers(m))


def analytic_apply(fn: AnalyticFnSpec, m: SparseMatrix) -> SparseMatrix:
    """Finite-series value of fn on a nilpotent matrix, exactly."""
    if fn.kind == "exp":
        coeff = lambda k: rat(1, factorial(k))
    elif fn.kind == "log1p":
        coeff = lambda k: rat((-1) ** (k + 1), k)
    else:
        q = fn.exponent
        coeff = lambda k: binomial_general(q, k)
    out = SparseMatrix.zero(m.dim) if fn.kind == "log1p" else SparseMatrix.identity(m.dim)
    for k, power in enumerate(_powers(m), 1):
        c = coeff(k)
        if c != 0:
            out = out + power.scale(c)
    return out


# -- dump format -----------------------------------------------------------


def dump_matrix_text(m: SparseMatrix) -> str:
    """Plain-text dump: "dim <d>" then "row col num den" per entry."""
    lines = [f"dim {m.dim}"]
    for i, j, v in m.entries():
        lines.append(f"{i} {j} {v.numerator} {v.denominator}")
    return "\n".join(lines) + "\n"


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
