"""Constructors and materialization for every twisting element in scope.

A TwistFactor is exp(sum of left_a x right_a) kept symbolic; a TwistSequence
lists factors in application order (factors[0] acts on the undeformed
algebra first), so the materialized product puts later factors on the left:

    materialize([f0, f1, ..., fk]) = M(fk) ... M(f1) M(f0)

Each factor is 1 + a with a nilpotent, and F is built as its nilpotent part
F - 1: materialize_factor gives a = exp(argument) - 1, and nilpotent_part
folds the parts with (1 + a)(1 + b) - 1 = ab + a + b, so no identity of the
legs' space is built until materialize adds it once.

The factor builders jordanian_factor, extension_factor and external_factor
are memoized (exact.memoized, which expr re-exports): each distinct factor,
its counit validation included, is built once per process, and every cache
keyed by it (the parts kept beside a witness's coproduct) hits on identity.
They are pure: a factor is a frozen tree fixed by (N, k, r) or (N, which),
and its counit is evaluated in zero_morphism, whose images depend on N
alone.  The generic factors, whose carrier split alpha varies per run, are
built on each call.  A factor built from a patched input (cartan_element,
sigma, ...) stays in the memo until clear_memos() empties the registry.
"""

from dataclasses import dataclass
from typing import Tuple

from .errors import DimensionMismatch, IndexOutOfRange, NotApplicable
from .exact import EXPM1, SparseMatrix
from .expr import (
    Expr,
    Morphism,
    add,
    eval_expr,
    eval_tensor_pairs,
    gen,
    kept_in_legs,
    kernel_for,
    memoized,
    mul,
    scal,
    sigma,
    sigma_power,
    sigma_exponential,
    zero_morphism,
)
from .rationals import HALF, rat
from .roots import cartan_element, carrier_generators, chain_plan


@dataclass(frozen=True)
class TwistFactor:
    """exp(sum of left x right) over gl(N)."""

    name: str
    n: int
    terms: Tuple[Tuple[Expr, Expr], ...]


def twist_factor(name: str, n: int, terms) -> TwistFactor:
    terms = tuple(terms)
    eps = zero_morphism(n)
    for left, _ in terms:
        if not eval_expr(left, eps).is_zero():
            raise ValueError(f"{name}: left leg has nonzero counit")
    return TwistFactor(name, n, terms)


@dataclass(frozen=True)
class TwistSequence:
    """Factors in application order; empty sequence is the trivial twist."""

    factors: Tuple[TwistFactor, ...]
    n: int

    @property
    def name(self) -> str:
        return "*".join(f.name for f in reversed(self.factors)) or "1"

    def then(self, *more: TwistFactor) -> "TwistSequence":
        return TwistSequence(self.factors + tuple(more), self.n)


def sequence(*factors: TwistFactor, n: int = None) -> TwistSequence:
    if not factors and n is None:
        raise ValueError("empty sequence needs an explicit n")
    n = n if n is not None else factors[0].n
    if any(f.n != n for f in factors):
        raise IndexOutOfRange("sequence factors must share N")
    return TwistSequence(tuple(factors), n)


# -- the concrete factors ---------------------------------------------------


@memoized
def jordanian_factor(n: int, k: int) -> TwistFactor:
    """Chain-step Jordanian exp(H_{k,N-k+1} x sigma_{k,N-k+1})."""
    top = n - k + 1
    if not (1 <= k <= n and 1 <= top <= n and k < top):
        raise IndexOutOfRange(f"jordanian step k={k} invalid for gl({n})")
    return twist_factor(
        f"J({k},{top})", n, [(cartan_element(n, k, top), sigma(k, top))]
    )


@memoized
def extension_factor(n: int, k: int, r: int) -> TwistFactor:
    """exp(E_{k,r} x E_{r,N-k+1} e^{-sigma_{k,N-k+1}/2}), the canonical beta = 1/2."""
    top = n - k + 1
    if not (1 <= k < r < top <= n):
        raise IndexOutOfRange(f"extension (k={k}, r={r}) invalid for gl({n})")
    right = mul(gen(r, top), sigma_power(-HALF, k, top))
    return twist_factor(f"E({k},{r},{top})", n, [(gen(k, r), right)])


def generic_jordanian_factor(n: int, r: int, alpha) -> TwistFactor:
    """Jordanian on the generic carrier H' = alpha*E_11 - beta*E_NN."""
    h, _, _, _ = carrier_generators(n, r, alpha)
    return twist_factor(f"Jg(a={rat(alpha)})", n, [(h, sigma(1, n))])


def generic_extension_factor(n: int, r: int, alpha) -> TwistFactor:
    """exp(A x B e^{-beta*sigma}) on the generic carrier, beta = 1 - alpha."""
    _, a, b, _ = carrier_generators(n, r, alpha)
    beta = 1 - rat(alpha)
    return twist_factor(
        f"Eg(r={r},b={beta})", n, [(a, mul(b, sigma_power(-beta, 1, n)))]
    )


def extended_twist_generic(n: int, r: int, alpha) -> TwistSequence:
    """Extended Jordanian twist: extension applied after the Jordanian."""
    return sequence(
        generic_jordanian_factor(n, r, alpha), generic_extension_factor(n, r, alpha)
    )


def chain_twist(n: int, p: int) -> TwistSequence:
    """Full chain: per step, Jordanian then every constituent extension."""
    plan = chain_plan(n, p)
    factors = []
    for k, step in enumerate(plan.steps):
        factors.append(jordanian_factor(n, k + 1))
        for root in step.pi_prime:
            factors.append(extension_factor(n, k + 1, root.j))
    return sequence(*factors, n=n)


@memoized
def external_factor(n: int, which: str) -> TwistFactor:
    """External twisting factors for the 2-Jordanian-twisted algebra, N > 5.

    E0tilde couples row 1 to the corner E_{2,N}/E_{N-1,N} pair with a
    quadratic first leg; E1tilde is its image under the renumbering
    (1 <-> 2, N-1 <-> N).
    """
    if n < 6:
        raise NotApplicable("external factors need N > 5")
    if which == "E0tilde":
        first = add(
            gen(1, 2),
            mul(scal(HALF), gen(1, n - 1)),
            mul(gen(1, n - 1), cartan_element(n, 2, n - 1)),
        )
        term1 = (first, mul(gen(2, n), sigma_exponential((-HALF, 1, n), (-HALF, 2, n - 1))))
        term2 = (
            gen(1, n - 1),
            mul(gen(n - 1, n), sigma_exponential((-HALF, 1, n), (HALF, 2, n - 1))),
        )
        return twist_factor("E0~", n, [term1, term2])
    if which == "E1tilde":
        first = add(
            gen(2, 1),
            mul(scal(HALF), gen(2, n)),
            mul(gen(2, n), cartan_element(n, 1, n)),
        )
        term1 = (first, mul(gen(1, n - 1), sigma_exponential((-HALF, 1, n), (-HALF, 2, n - 1))))
        term2 = (
            gen(2, n),
            mul(gen(n, n - 1), sigma_exponential((HALF, 1, n), (-HALF, 2, n - 1))),
        )
        return twist_factor("E1~", n, [term1, term2])
    raise ValueError(f"unknown external factor {which!r}")


# -- materialization --------------------------------------------------------


def materialize_factor(factor: TwistFactor, left: Morphism, right: Morphism, *, kernel=None):
    """The factor's nilpotent part exp(argument) - 1 in the given legs.

    It is built in the kernel of the legs' space (expr.kernel_for), and then
    in a witness's own two legs it is built once and kept beside the
    witness's coproduct (expr.kept_in_legs).  A `kernel` given instead, one
    that the legs' images allow, builds it on each call.
    """
    chosen = kernel or kernel_for(left.dim * right.dim)

    def build():
        return chosen.analytic_apply(
            EXPM1, eval_tensor_pairs(factor.terms, left, right, kernel=chosen))

    return build() if kernel else kept_in_legs(left, right, factor, build)


def nilpotent_part(seq: TwistSequence, left: Morphism, right: Morphism):
    """F - 1, folded from the factors' nilpotent parts, in the legs' space's kernel.

    The legs must be representations of the twist's own gl(N): a twist of
    gl(6) evaluated in gl(7) legs is a well-defined matrix but not that
    twist, so it raises DimensionMismatch.  The fold starts at the first
    factor's part (k factors take k - 1 products; the empty sequence gives
    zero) and puts later factors on the left.  Every twist in scope is
    unipotent in the legs it is used in (F - 1 is nilpotent), which is what
    lets callers invert F as the finite series (1 + (F - 1))^-1.
    """
    if seq.n != left.n or seq.n != right.n:
        raise DimensionMismatch(
            f"{seq.name} is a twist of gl({seq.n}), legs are gl({left.n}) and gl({right.n})"
        )
    if not seq.factors:
        return SparseMatrix.zero(left.dim * right.dim)
    kernel = kernel_for(left.dim * right.dim)
    first, *rest = seq.factors
    out = materialize_factor(first, left, right)
    for f in rest:
        out = kernel.unipotent_product(materialize_factor(f, left, right), out)
    return out


def materialize(seq: TwistSequence, left: Morphism, right: Morphism) -> SparseMatrix:
    """F: the nilpotent part plus the identity.

    The result is held by its callers, so it is returned reduced to
    canonical form.
    """
    dim = left.dim * right.dim
    return (nilpotent_part(seq, left, right) + kernel_for(dim).identity(dim)).reduced()
