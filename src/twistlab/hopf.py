"""Hopf-algebraic verification engine.

Every check materializes both sides of an identity in a faithful
finite-dimensional representation and compares exactly: a pass means the
difference matrix has no stored entries at all.  Every check takes the
witness it runs in as an argument (the fundamental representation of gl(N),
the leg-doubled one, ...); none picks one of its own.
"""

import time
from dataclasses import dataclass

from .errors import NotApplicable
from .exact import SparseMatrix, _add_into, kron, pow1p, swap_matrix
from .expr import (
    Expr,
    Morphism,
    contragredient_morphism,
    delta_morphism,
    eval_expr,
    eval_tensor_pairs,
    gen,
    in_standard_basis,
    kept_in_legs,
    kernel_for,
    zero_morphism,
)
from .twists import (
    TwistSequence,
    extension_factor,
    external_factor,
    jordanian_factor,
    materialize_factor,
    nilpotent_part,
    sequence,
)


@dataclass
class CheckResult:
    """Outcome of one exact identity check; passed iff residual_nnz == 0."""

    name: str
    passed: bool
    residual_nnz: int
    dims: int
    elapsed: float


class Tally:
    """Accumulates residuals for a named group of exact comparisons.

    A residual is counted in the e_i x e_j basis: the compares of a check in
    a witness written in another (expr.doubled_morphism) are on its legs,
    and a failing one's difference is mapped back with expr.in_standard_basis.
    The difference and its map are both taken in the kernel of the compare's
    space, so a failing packed compare is counted in numpy arrays.
    """

    def __init__(self, name: str, *, witness: Morphism = None):
        self.name = name
        self.witness = witness
        self.residual = 0
        self.dims = 0
        self._t0 = time.perf_counter()

    def equal(self, lhs: SparseMatrix, rhs: SparseMatrix) -> bool:
        """Add the entries of lhs - rhs to the residual; True when the sides are equal."""
        # equal sides (the common case) never build a difference matrix
        same = lhs is rhs or lhs == rhs
        if not same:
            diff = lhs - rhs
            if self.witness is not None:
                diff = in_standard_basis(diff, self.witness)
            self.residual += diff.nnz
        self.dims = max(self.dims, lhs.dim)
        return same

    def nonzero(self, m: SparseMatrix):
        # witness checks: the *absence* of entries is the failure
        if m.is_zero():
            self.residual += 1
        self.dims = max(self.dims, m.dim)

    def result(self) -> CheckResult:
        return CheckResult(
            self.name, self.residual == 0, self.residual,
            self.dims, time.perf_counter() - self._t0,
        )


def _unipotent_inverse(part):
    """(1 + part)^-1 in part's space's kernel, as the finite series.

    part must be reduced: every power of the series is a product with it.
    """
    return kernel_for(part.dim).analytic_apply(pow1p(-1), part).reduced()


def _conjugated(part, inverse, m):
    """(1 + part) m inverse, as (m + part m) inverse: the identity is never multiplied."""
    return (part * m + m) * inverse


class TwistedCoalgebra:
    """A twist F materialized once in a pair of legs, with its conjugation.

    The legs are (witness, right); right defaults to the witness.  `part` is
    the nilpotent part F - 1, and f_mat and f_inv are F and F^-1, all three
    reduced and built at construction, so a twist of the wrong gl(N) raises
    DimensionMismatch and one that is not unipotent in those legs raises
    NotNilpotent here: F^-1 is the finite series (1 + (F - 1))^-1.
    conjugate(m) is F m F^-1, taken as (m + (F - 1) m) F^-1, so F's identity
    rows are never multiplied; coproduct(x) is the deformed coproduct
    D_F(x) = F D(x) F^-1 with D(x) evaluated in the same legs by `delta`.  In
    the witness's own legs that is the witness's one coproduct, shared with
    every other check in it.  F, F^-1, every conjugation and `expected` are
    built in the legs' space's kernel, that of `delta`, so in the kernel D(x)
    is evaluated in.  In the witness's own legs each factor part and each
    `expected` entry is built once and kept beside the witness's coproduct
    (expr.kept_in_legs).
    """

    def __init__(self, seq: TwistSequence, witness: Morphism, right: Morphism = None):
        self.witness = witness
        self.right = right if right is not None else witness
        self.delta = delta_morphism(self.witness, self.right)
        self.kernel = self.delta.kernel
        self.part = nilpotent_part(seq, self.witness, self.right).reduced()
        self.f_mat = (self.delta.identity + self.part).reduced()
        self.f_inv = _unipotent_inverse(self.part)

    def conjugate(self, m):
        return _conjugated(self.part, self.f_inv, m)

    def coproduct(self, x: Expr):
        return self.conjugate(eval_expr(x, self.delta))

    def expected(self, pairs):
        """Evaluate a symbolic two-leg sum in the same pair of legs and kernel."""
        return two_leg_sum(pairs, self.witness, self.right)


def two_leg_sum(pairs, left: Morphism, right: Morphism):
    """Sum of a x b over the two-leg terms (a, b), in the legs (left, right).

    It is built in the legs' space's kernel, and in a witness's own two legs
    once, kept beside the witness's coproduct (expr.kept_in_legs).
    """
    pairs = tuple(pairs)
    return kept_in_legs(left, right, pairs, lambda: eval_tensor_pairs(pairs, left, right))


def counit_check(seq: TwistSequence, witness: Morphism) -> CheckResult:
    """(eps x id)(F) = (id x eps)(F) = 1; the zero morphism realizes eps.

    Both sides are compared as nilpotent parts F - 1 against zero, so the
    residual is that of F against the identity.
    """
    eps = zero_morphism(seq.n)
    tally = Tally(f"counit[{seq.name},N={seq.n}]", witness=witness)
    zero = SparseMatrix.zero(witness.dim)
    tally.equal(nilpotent_part(seq, eps, witness), zero)
    tally.equal(nilpotent_part(seq, witness, eps), zero)
    return tally.result()


def _parts_in(seq: TwistSequence, w: Morphism, dw: Morphism):
    """The nilpotent parts G - 1 of F12 (dw x id)(F) and F23 (id x dw)(F).

    dw is the coproduct the twist is applied over, in the witness legs; no
    three-leg identity is built.  F12 and F23 come from F in the witness's
    own two legs, built in their kernel as every coalgebra builds it there.
    """
    kernel = kernel_for(dw.dim * w.dim)
    ident = SparseMatrix.identity(w.dim)
    f2 = nilpotent_part(seq, w, w)
    lhs = kernel.unipotent_product(kernel.kron(f2, ident), nilpotent_part(seq, dw, w))
    rhs = kernel.unipotent_product(kernel.kron(ident, f2), nilpotent_part(seq, w, dw))
    return lhs, rhs


def cocycle_check(
    seq: TwistSequence, witness: Morphism, base: TwistSequence = None
) -> CheckResult:
    """F12 (D_base x id)(F) = F23 (id x D_base)(F) in three witness legs.

    (D_base x id)(F) is F materialized with D_base as its first leg; D_base
    sends each generator to its base-twisted coproduct.  Both sides are
    built as nilpotent parts, (1 + x) - (1 + y) = x - y, so the residual is
    that of the whole products and no three-leg identity is built.
    """
    label = f"cocycle[{seq.name},N={seq.n}]" if base is None else \
        f"cocycle[{seq.name}|{base.name},N={seq.n}]"
    tally = Tally(label, witness=witness)

    if base is not None and base.factors:
        co = TwistedCoalgebra(base, witness)
        dw = Morphism(seq.n, co.delta.dim, lambda i, j: co.coproduct(gen(i, j)),
                      name=f"delta_F[{base.name}]")
    else:
        dw = delta_morphism(witness, witness)
    tally.equal(*_parts_in(seq, witness, dw))
    return tally.result()


def r_matrix_checks(seq: TwistSequence, witness: Morphism) -> CheckResult:
    """R = F21 F^-1: quantum Yang-Baxter plus triangularity R21 R = 1.

    R13 is R12 with legs 2 and 3 swapped, P23 R12 P23; the three-leg
    operators and products are built in kernel_for's kernel.
    """
    d = witness.dim
    tally = Tally(f"rmatrix[{seq.name},N={seq.n}]", witness=witness)
    co = TwistedCoalgebra(seq, witness)
    p = swap_matrix(d)
    r = p * co.f_mat * p * co.f_inv
    r21 = p * r * p
    tally.equal(r21 * r, SparseMatrix.identity(d * d))
    kernel = kernel_for(d ** 3)
    ident = SparseMatrix.identity(d)
    r12 = kernel.kron(r, ident)
    r23 = kernel.kron(ident, r)
    p23 = kernel.kron(ident, p)
    r13 = p23 * r12 * p23
    tally.equal(r12 * r13 * r23, r23 * r13 * r12)
    return tally.result()


def coassociativity_check(seq: TwistSequence, xs, witness: Morphism) -> CheckResult:
    """(D_F x id)D_F = (id x D_F)D_F on the given elements, re-derived.

    D is coassociative, so (D x id)D(x) = (id x D)D(x) is one three-leg
    image, evaluated once; each side conjugates it by its three-leg twist
    G = F12 (D x id)(F) or F23 (id x D)(F) of the cocycle check, through
    G - 1 as TwistedCoalgebra.conjugate does, and each G^-1 is the finite
    series (1 + (G - 1))^-1.
    """
    tally = Tally(f"coassoc[{seq.name},N={seq.n}]", witness=witness)
    dw = delta_morphism(witness, witness)

    parts = [part.reduced() for part in _parts_in(seq, witness, dw)]
    sides = [(part, _unipotent_inverse(part)) for part in parts]
    for x in xs:
        # dw is the witness's shared coproduct, but a morphism caches every
        # image it evaluates, so a three-leg one per element keeps a single
        # three-leg image alive at a time
        image = eval_expr(x, delta_morphism(dw, witness))
        tally.equal(*(_conjugated(part, inverse, image) for part, inverse in sides))
    return tally.result()


# -- twisted antipode -------------------------------------------------------


def _antipode_contraction(g, d: int, leg: int) -> SparseMatrix:
    """m(S x id)(g) for leg 1, m(id x S)(g) for leg 2, that leg of g being in w*.

    S on a w* leg is the transpose, so entry (p, q) of m(S x id)(g) is
    sum_r g[(r, r), (p, q)]: the d rows (r, r) of g, each read as a d x d
    matrix, summed.  m(id x S)(g) is the same contraction of g^T.  A Packed
    g keeps only its entries in those rows (leg 1) or columns (leg 2), the
    0-based indices r * (d + 1), and is contracted as their SparseMatrix.
    The result has the witness's d dims and is reduced, since v is held and
    multiplied by every compare.  w*'s images are written in the dual basis
    of the witness's, so the contraction pairs a basis with its dual and
    gives the same operator in any basis the witness is written in.
    """
    if not isinstance(g, SparseMatrix):
        kept = (g.keys // g.dim if leg == 1 else g.keys % g.dim) % (d + 1) == 0
        g = type(g)(g.dim, g.keys[kept], g.vals[kept], g.den).to_sparse()
    if leg == 2:
        g = g.transpose()
    rows: dict = {}
    for r in range(d):
        block: dict = {}
        for col, v in g.rows.get(r * (d + 1) + 1, {}).items():
            p, q = divmod(col - 1, d)
            block.setdefault(p + 1, {})[q + 1] = v
        _add_into(rows, block, 1)
    return SparseMatrix(d, rows, g.den).reduced()


def twist_antipode_correction(seq: TwistSequence, witness: Morphism) -> SparseMatrix:
    """v = m(id x S)(F) = sum f^(1) S(f^(2)), contracted from F in (witness, w*);
    an F that is not unipotent in those legs raises NotNilpotent."""
    co = TwistedCoalgebra(seq, witness, contragredient_morphism(witness))
    return _antipode_contraction(co.f_mat, witness.dim, 2)


def antipode_checks(seq: TwistSequence, generators, witness: Morphism) -> CheckResult:
    """Axiom m(S_F x id)(D_F x) = eps(x) 1 = m(id x S_F)(D_F x).

    S_F(a) = v S(a) v^-1, and S acts on a leg of D_F(x) evaluated in the
    contragredient representation.  v = m(id x S)(F), as in
    twist_antipode_correction, is checked by v u = 1 with u = m(S x id)(F^-1)
    (v^-1 = u for every Drinfeld twist); u is only compared.  v^-1 is the
    finite series (1 + (v - 1))^-1, so a v - 1 that is not nilpotent raises
    NotNilpotent.  The counit side is x under the zero morphism, a 1x1
    eps(x), times 1.
    """
    wdual = contragredient_morphism(witness)
    eps = zero_morphism(seq.n)
    d = witness.dim
    ident = SparseMatrix.identity(d)
    tally = Tally(f"antipode[{seq.name},N={seq.n}]", witness=witness)

    dual_left = TwistedCoalgebra(seq, wdual, witness)
    dual_right = TwistedCoalgebra(seq, witness, wdual)
    v = _antipode_contraction(dual_right.f_mat, d, 2)
    tally.equal(v * _antipode_contraction(dual_left.f_inv, d, 1), ident)
    v_inv = _unipotent_inverse(v - ident)

    # m(S_F x id)(g) = v m(S x id)((1 x v^-1) g) and
    # m(id x S_F)(g) = m(id x S)(g (v x 1)) v^-1
    left = dual_left.kernel.kron(ident, v_inv)
    right = dual_right.kernel.kron(v, ident)
    for x in generators:
        eps_side = kron(eval_expr(x, eps), ident)
        lhs = v * _antipode_contraction(left * dual_left.coproduct(x), d, 1)
        tally.equal(lhs, eps_side)
        rhs = _antipode_contraction(dual_right.coproduct(x) * right, d, 2) * v_inv
        tally.equal(rhs, eps_side)
    return tally.result()


# -- dragging identity ------------------------------------------------------


def verify_dragging(witness: Morphism) -> CheckResult:
    """J1-conjugation of the corner extensions equals the external factor.

    It also compares each second-row extension E(2,r,N-1) with J1 and every
    extension factor in both orders, though these do not commute in
    U(gl(N))xU(gl(N)): the doubled witness at N = 6 gives residual 168 (the
    strict xfail in tests/test_hopf.py), and the fundamental one passes only
    because both products of all 14 compares are zero there (ROADMAP item 7).
    Factors are taken as their nilpotent parts: F(1 + x)F^-1 = 1 + FxF^-1
    and [1 + a, M] = [a, M], so every residual is that of the whole factors.
    """
    n = witness.n
    if n < 6:
        raise NotApplicable("dragging identity needs N > 5")
    tally = Tally(f"dragging[E0~,N={n}]", witness=witness)

    j1 = TwistedCoalgebra(sequence(jordanian_factor(n, 2)), witness)
    row1 = [materialize_factor(extension_factor(n, 1, r), witness, witness) for r in range(2, n)]
    row2 = [materialize_factor(extension_factor(n, 2, r), witness, witness)
            for r in range(3, n - 1)]
    # row1's ends are the corner extensions E(1,2,N) and E(1,N-1,N)
    lhs = j1.conjugate(j1.kernel.unipotent_product(row1[0], row1[-1]))
    rhs = materialize_factor(external_factor(n, "E0tilde"), witness, witness)
    tally.equal(lhs, rhs)

    for m1 in row2:
        tally.equal(m1 * j1.part, j1.part * m1)
        for m0 in row1 + row2:
            tally.equal(m1 * m0, m0 * m1)
    return tally.result()
