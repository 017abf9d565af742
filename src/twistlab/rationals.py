"""Exact rational scalars.

Every number in the package is an arbitrary-precision rational; there is no
floating point anywhere: `rat` raises TypeError on a float or a bool rather
than take its binary value (0.1 is not 1/10).  Scalars are fractions.Fraction,
always reduced with a positive denominator.  They appear wherever a single
number goes in or comes out: coefficients, twist parameters, matrix entries
read out of a SparseMatrix, and the report and dump formats.  Matrix
arithmetic does not use them: exact.py keeps int numerators over one common
denominator.
"""

from fractions import Fraction
from math import factorial

Rational = Fraction
# a single scalar backend; the benchmark reports this flag as its name
FAST_BACKEND = False


def rat(num=0, den=None):
    if isinstance(num, (float, bool)) or isinstance(den, (float, bool)):
        raise TypeError(f"rat takes no float or bool: rat({num!r}, {den!r})")
    if den is None:
        return Fraction(num)
    return Fraction(num, den)


ZERO = rat(0)
ONE = rat(1)
HALF = rat(1, 2)


def rat_str(q) -> str:
    """Stable "num/den" rendering used by the JSON report format."""
    return f"{q.numerator}/{q.denominator}"


def parse_rat(text: str):
    """Parse "num/den" or a bare integer string."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return rat(int(num), int(den))
    return rat(int(text))


def binomial_general(q, k: int):
    """Generalized binomial C(q, k) = q(q-1)...(q-k+1)/k! for rational q."""
    num = ONE
    for j in range(k):
        num *= q - j
    return num / factorial(k)
