"""Hopf-algebraic verification engine.

Every check materializes both sides of an identity in a faithful
finite-dimensional representation and compares exactly: a pass means the
difference matrix has no stored entries at all.  The default witness is the
fundamental representation of gl(N); any Morphism with the same N (e.g. the
leg-doubled witness) can be substituted.
"""

import time
from dataclasses import dataclass
from itertools import product as iproduct

from .errors import ExpansionOverflow, NotApplicable, NotNilpotent
from .exact import (
    SparseMatrix,
    embed_pair,
    kron,
    nilpotency_index,
    swap_matrix,
)
from .expr import (
    Expr,
    Morphism,
    antipode_eval,
    contragredient_morphism,
    counit_eval,
    delta_morphism,
    eval_expr,
    eval_tensor_pairs,
    fundamental_morphism,
    mul,
    zero_morphism,
)
from .rationals import ONE, rat, factorial
from .twists import (
    TwistSequence,
    extension_factor,
    external_factor,
    jordanian_factor,
    materialize,
    materialize_factor,
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
    """Accumulates residuals for a named group of exact comparisons."""

    def __init__(self, name: str):
        self.name = name
        self.residual = 0
        self.dims = 0
        self._t0 = time.perf_counter()

    def equal(self, lhs: SparseMatrix, rhs: SparseMatrix):
        # equal sides (the common case) never build a difference matrix
        if lhs != rhs:
            self.residual += (lhs - rhs).nnz
        self.dims = max(self.dims, lhs.dim)

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


def default_witness(n: int) -> Morphism:
    return fundamental_morphism(n)


class TwistedCoalgebra:
    """A twist sequence materialized once, with its deformed coproduct."""

    def __init__(self, seq: TwistSequence, witness: Morphism = None):
        self.seq = seq
        self.witness = witness if witness is not None else default_witness(seq.n)
        self.delta = delta_morphism(self.witness, self.witness)
        self.f_mat = materialize(seq, self.witness, self.witness)
        self.f_inv = materialize(seq, self.witness, self.witness, inverse=True)
        self._v = None

    def coproduct(self, x: Expr) -> SparseMatrix:
        return self.f_mat * eval_expr(x, self.delta) * self.f_inv

    def expected(self, pairs) -> SparseMatrix:
        """Evaluate a symbolic two-leg sum in the same pair of legs."""
        return eval_tensor_pairs(pairs, self.witness, self.witness)

    def antipode_correction(self) -> SparseMatrix:
        """v = sum f^(1) S(f^(2)), cached; S_F(a) = v S(a) v^-1."""
        if self._v is None:
            self._v = twist_antipode_correction(self.seq, self.witness)
        return self._v


def twisted_coproduct(seq: TwistSequence, x: Expr, witness: Morphism = None) -> SparseMatrix:
    return TwistedCoalgebra(seq, witness).coproduct(x)


def counit_check(seq: TwistSequence, witness: Morphism = None) -> CheckResult:
    """(eps x id)(F) = (id x eps)(F) = 1; the zero morphism realizes eps."""
    w = witness if witness is not None else default_witness(seq.n)
    eps = zero_morphism(seq.n)
    tally = Tally(f"counit[{seq.name},N={seq.n}]")
    ident = SparseMatrix.identity(w.dim)
    tally.equal(materialize(seq, eps, w), ident)
    tally.equal(materialize(seq, w, eps), ident)
    return tally.result()


def cocycle_check(
    seq: TwistSequence, base: TwistSequence = None, witness: Morphism = None
) -> CheckResult:
    """F12 (D_base x id)(F) = F23 (id x D_base)(F) in three witness legs."""
    w = witness if witness is not None else default_witness(seq.n)
    d = w.dim
    dw = delta_morphism(w, w)
    ident = SparseMatrix.identity(d)
    label = f"cocycle[{seq.name},N={seq.n}]" if base is None else \
        f"cocycle[{seq.name}|{base.name},N={seq.n}]"
    tally = Tally(label)

    f2 = materialize(seq, w, w)
    f12 = kron(f2, ident)
    f23 = kron(ident, f2)
    d1f = materialize(seq, dw, w)
    d2f = materialize(seq, w, dw)
    if base is not None and base.factors:
        b2 = materialize(base, w, w)
        b2i = materialize(base, w, w, inverse=True)
        lhs = f12 * (kron(b2, ident) * d1f * kron(b2i, ident))
        rhs = f23 * (kron(ident, b2) * d2f * kron(ident, b2i))
    else:
        lhs = f12 * d1f
        rhs = f23 * d2f
    tally.equal(lhs, rhs)
    return tally.result()


def r_matrix_checks(seq: TwistSequence, witness: Morphism = None) -> CheckResult:
    """R = F21 F^-1: quantum Yang-Baxter plus triangularity R21 R = 1."""
    w = witness if witness is not None else default_witness(seq.n)
    d = w.dim
    tally = Tally(f"rmatrix[{seq.name},N={seq.n}]")
    f2 = materialize(seq, w, w)
    f_inv = materialize(seq, w, w, inverse=True)
    p = swap_matrix(d)
    r = p * f2 * p * f_inv
    r21 = p * r * p
    tally.equal(r21 * r, SparseMatrix.identity(d * d))
    ident = SparseMatrix.identity(d)
    r12 = kron(r, ident)
    r23 = kron(ident, r)
    r13 = embed_pair(r, d, (1, 3))
    tally.equal(r12 * r13 * r23, r23 * r13 * r12)
    return tally.result()


def coassociativity_check(
    seq: TwistSequence, xs, witness: Morphism = None
) -> CheckResult:
    """(D_F x id)D_F = (id x D_F)D_F on the given elements, re-derived."""
    w = witness if witness is not None else default_witness(seq.n)
    d = w.dim
    dw = delta_morphism(w, w)
    ident = SparseMatrix.identity(d)
    tally = Tally(f"coassoc[{seq.name},N={seq.n}]")

    f2 = materialize(seq, w, w)
    f2i = materialize(seq, w, w, inverse=True)
    left_outer = kron(f2, ident) * materialize(seq, dw, w)
    left_outer_inv = materialize(seq, dw, w, inverse=True) * kron(f2i, ident)
    right_outer = kron(ident, f2) * materialize(seq, w, dw)
    right_outer_inv = materialize(seq, w, dw, inverse=True) * kron(ident, f2i)
    dd_left = delta_morphism(dw, w)
    dd_right = delta_morphism(w, dw)
    for x in xs:
        lhs = left_outer * eval_expr(x, dd_left) * left_outer_inv
        rhs = right_outer * eval_expr(x, dd_right) * right_outer_inv
        tally.equal(lhs, rhs)
    return tally.result()


# -- twisted antipode -------------------------------------------------------


def _partial_transpose(g: SparseMatrix, d: int, leg: int) -> SparseMatrix:
    """Transpose one leg of an operator on V x V (both legs of dim d)."""
    rows: dict = {}
    for rc, row in g.rows.items():
        p, q = divmod(rc - 1, d)
        for cc, v in row.items():
            r, s = divmod(cc - 1, d)
            if leg == 1:
                new_r, new_c = r * d + q + 1, p * d + s + 1
            else:
                new_r, new_c = p * d + s + 1, r * d + q + 1
            rows.setdefault(new_r, {})[new_c] = v
    return SparseMatrix(g.dim, rows, g.den)


def _contract_legs(g: SparseMatrix, d: int) -> SparseMatrix:
    """Multiply the two legs together: C[p,q] = sum_r G[(p,r),(r,q)]."""
    rows: dict = {}
    for rc, row in g.rows.items():
        p, r1 = divmod(rc - 1, d)
        for cc, v in row.items():
            r2, q = divmod(cc - 1, d)
            if r1 == r2:
                dest = rows.setdefault(p + 1, {})
                s = dest.get(q + 1, 0) + v
                if s == 0:
                    dest.pop(q + 1, None)
                else:
                    dest[q + 1] = s
        if not rows.get(p + 1):
            rows.pop(p + 1, None)
    return SparseMatrix(d, rows, g.den)


def _factor_term_expansion(factor, w: Morphism, wdual: Morphism, bound: int):
    """Symbolic exp expansion of one factor as (coeff, left-mon, right-mon).

    The cutoff is the nilpotency index of the factor argument evaluated with
    the contragredient second leg; beyond it every degree contributes zero
    to v, so the truncation is exact.
    """
    karg = eval_tensor_pairs(factor.terms, w, wdual)
    try:
        index = nilpotency_index(karg)
    except NotNilpotent as exc:
        raise ExpansionOverflow(f"{factor.name}: argument not nilpotent in witness") from exc
    if index - 1 > bound:
        raise ExpansionOverflow(f"{factor.name}: degree {index - 1} exceeds bound {bound}")
    terms = []
    for k in range(index):
        coeff = rat(1, factorial(k))
        for combo in iproduct(range(len(factor.terms)), repeat=k):
            us = tuple(factor.terms[a][0] for a in combo)
            ws = tuple(factor.terms[a][1] for a in combo)
            terms.append((coeff, us, ws))
    return terms


def twist_antipode_correction(
    seq: TwistSequence, witness: Morphism = None, bound: int = None
) -> SparseMatrix:
    """v = sum f^(1) S(f^(2)) from the finite multi-index expansion of F."""
    w = witness if witness is not None else default_witness(seq.n)
    wdual = contragredient_morphism(w)
    bound = bound if bound is not None else 2 * seq.n
    combined = [(ONE, (), ())]
    # later factors multiply from the left in F, hence lead the monomials
    for factor in reversed(seq.factors):
        expansion = _factor_term_expansion(factor, w, wdual, bound)
        combined = [
            (c0 * c1, us0 + us1, ws0 + ws1)
            for (c0, us0, ws0) in combined
            for (c1, us1, ws1) in expansion
        ]
    v = SparseMatrix.zero(w.dim)
    for coeff, us, ws in combined:
        term = eval_expr(mul(*us), w) * antipode_eval(mul(*ws), w)
        v = v + term.scale(coeff)
    return v


def antipode_checks(
    seq: TwistSequence, generators, witness: Morphism = None, bound: int = None
) -> CheckResult:
    """Axiom m(S_F x id)(D_F x) = eps(x) 1 = m(id x S_F)(D_F x).

    S_F(a) = v S(a) v^-1.  The first leg of D_F(x) is evaluated in the
    contragredient representation and partially transposed, which realizes
    S exactly on whatever element occupies that leg; v comes from the
    symbolic expansion above and is cross-checked against the same
    contraction applied to F itself.
    """
    w = witness if witness is not None else default_witness(seq.n)
    wdual = contragredient_morphism(w)
    d = w.dim
    ident = SparseMatrix.identity(d)
    tally = Tally(f"antipode[{seq.name},N={seq.n}]")

    v = twist_antipode_correction(seq, w, bound)
    # independent route: contract (id x S)(F) materialized
    g0 = _partial_transpose(materialize(seq, w, wdual), d, 2)
    tally.equal(_contract_legs(g0, d), v)
    v_inv = v.inverse()

    f_dual_left = materialize(seq, wdual, w)
    f_dual_left_inv = materialize(seq, wdual, w, inverse=True)
    f_dual_right = materialize(seq, w, wdual)
    f_dual_right_inv = materialize(seq, w, wdual, inverse=True)
    delta_dual_left = delta_morphism(wdual, w)
    delta_dual_right = delta_morphism(w, wdual)

    for x in generators:
        eps_side = ident.scale(counit_eval(x))
        g = f_dual_left * eval_expr(x, delta_dual_left) * f_dual_left_inv
        sandwich = kron(v, ident) * _partial_transpose(g, d, 1) * kron(v_inv, ident)
        tally.equal(_contract_legs(sandwich, d), eps_side)
        g = f_dual_right * eval_expr(x, delta_dual_right) * f_dual_right_inv
        sandwich = kron(ident, v) * _partial_transpose(g, d, 2) * kron(ident, v_inv)
        tally.equal(_contract_legs(sandwich, d), eps_side)
    return tally.result()


# -- dragging identity ------------------------------------------------------


def verify_dragging(n: int, witness: Morphism = None) -> CheckResult:
    """J1-conjugation of the corner extensions equals the external factor.

    Also confirms the commutation facts the rearrangement relies on: the
    second-row extension commutes with J1 and with every extension factor.
    """
    if n < 6:
        raise NotApplicable("dragging identity needs N > 5")
    w = witness if witness is not None else default_witness(n)
    tally = Tally(f"dragging[E0~,N={n}]")

    j1 = sequence(jordanian_factor(n, 2))
    m_j1 = materialize(j1, w, w)
    m_j1_inv = materialize(j1, w, w, inverse=True)
    m_e02 = materialize_factor(extension_factor(n, 1, 2), w, w)
    m_e0n1 = materialize_factor(extension_factor(n, 1, n - 1), w, w)
    lhs = m_j1 * m_e02 * m_e0n1 * m_j1_inv
    rhs = materialize_factor(external_factor(n, "E0tilde"), w, w)
    tally.equal(lhs, rhs)

    row2 = [materialize_factor(extension_factor(n, 2, r), w, w) for r in range(3, n - 1)]
    row1 = [materialize_factor(extension_factor(n, 1, r), w, w) for r in range(2, n)]
    for m1 in row2:
        tally.equal(m1 * m_j1, m_j1 * m1)
        for m0 in row1 + row2:
            tally.equal(m1 * m0, m0 * m1)
    return tally.result()
