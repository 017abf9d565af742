"""gl(N) structural data: roots, Cartan normalization, chain plans.

Roots of sl(N) are written e_i - e_j and identified with the generator E_ij.
A chain step k is seeded by the long root e_{k+1} - e_{N-k} of the nested
sl(N-2k) block; its constituent roots split that root as
(e_{k+1} - e_s) + (e_s - e_{N-k}) over the interior indices s.
"""

from dataclasses import dataclass
from typing import Tuple

from .errors import IndexOutOfRange
from .expr import Expr, add, gen, mul, scal
from .rationals import rat


@dataclass(frozen=True)
class Root:
    """e_i - e_j, i != j; the root of generator E_ij."""

    i: int
    j: int


def cartan_element(n: int, i: int, k: int) -> Expr:
    """H_{i,k} = (E_ii - E_kk)/2, the normalization every twist uses."""
    if not (1 <= i <= n and 1 <= k <= n) or i == k:
        raise IndexOutOfRange(f"H_{i},{k} needs distinct indices in 1..{n}")
    return add(mul(scal(rat(1, 2)), gen(i, i)), mul(scal(rat(-1, 2)), gen(k, k)))


def constituent_roots(n: int, k: int) -> Tuple[Tuple[Root, ...], Tuple[Root, ...]]:
    """Split of the step-k initial root into pairs summing back to it.

    Returns (pi_prime, pi_doubleprime) with pi_prime[m] + pi_doubleprime[m]
    equal to e_{k+1} - e_{N-k}; both empty when the nested block is sl(2) or
    sl(3) (no interior index s).
    """
    if not 0 <= k <= deepest_chain_step(n):
        raise IndexOutOfRange(f"step {k} too deep for gl({n})")
    lo, hi = k + 1, n - k
    prime = tuple(Root(lo, s) for s in range(lo + 1, hi))
    doubleprime = tuple(Root(s, hi) for s in range(lo + 1, hi))
    return prime, doubleprime


@dataclass(frozen=True)
class ChainStep:
    initial_root: Root
    pi_prime: Tuple[Root, ...]
    pi_doubleprime: Tuple[Root, ...]


@dataclass(frozen=True)
class ChainPlan:
    n: int
    steps: Tuple[ChainStep, ...]
    maximal: bool


def deepest_chain_step(n: int) -> int:
    """The last chain step k for gl(N): its nested block sl(N - 2k) is sl(2) or sl(3)."""
    return (n - 2) // 2


def chain_plan(n: int, p: int) -> ChainPlan:
    """Steps 0..p of the twist chain for gl(N); maximal when p cannot grow."""
    if not 0 <= p <= deepest_chain_step(n):
        raise IndexOutOfRange(f"chain depth {p} invalid for gl({n})")
    steps = []
    for k in range(p + 1):
        prime, doubleprime = constituent_roots(n, k)
        steps.append(ChainStep(Root(k + 1, n - k), prime, doubleprime))
    return ChainPlan(n, tuple(steps), maximal=(p == deepest_chain_step(n)))


def carrier_column(n: int) -> int:
    """Default carrier column r: 2 below N = 6, else 3 (the first state column)."""
    return 2 if n < 6 else 3


def carrier_generators(n: int, r: int, alpha) -> Tuple[Expr, Expr, Expr, Expr]:
    """Four-dimensional twist carrier (H', A, B, E) inside gl(N).

    H' = alpha*E_11 - beta*E_NN with beta = 1 - alpha, A = E_1r, B = E_rN,
    E = E_1N; satisfies [H',E]=E, [H',A]=alpha*A, [H',B]=beta*B, [A,B]=E,
    [E,A]=[E,B]=0 for any rational alpha.
    """
    if not 1 < r < n:
        raise IndexOutOfRange(f"carrier needs 1 < r < {n}")
    alpha = rat(alpha)
    beta = 1 - alpha
    h = add(mul(scal(alpha), gen(1, 1)), mul(scal(-beta), gen(n, n)))
    return h, gen(1, r), gen(r, n), gen(1, n)
