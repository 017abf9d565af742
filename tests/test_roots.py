import pytest

from twistlab.errors import IndexOutOfRange
from twistlab.exact import SparseMatrix
from twistlab.expr import eval_expr, fundamental_morphism
from twistlab.rationals import rat
from twistlab.roots import (
    Root,
    carrier_generators,
    cartan_element,
    chain_plan,
    constituent_roots,
)


def test_cartan_element_images():
    f2 = fundamental_morphism(2)
    got = eval_expr(cartan_element(2, 1, 2), f2)
    assert got == SparseMatrix.from_entries(2, {(1, 1): rat(1, 2), (2, 2): rat(-1, 2)})
    f6 = fundamental_morphism(6)
    got6 = eval_expr(cartan_element(6, 1, 6), f6)
    assert got6 == SparseMatrix.from_entries(6, {(1, 1): rat(1, 2), (6, 6): rat(-1, 2)})
    with pytest.raises(IndexOutOfRange):
        cartan_element(3, 2, 2)


def test_constituent_roots_n6():
    prime, doubleprime = constituent_roots(6, 0)
    assert prime == tuple(Root(1, s) for s in (2, 3, 4, 5))
    assert doubleprime == tuple(Root(s, 6) for s in (2, 3, 4, 5))


def test_constituent_roots_empty_for_sl2_step():
    assert constituent_roots(4, 1) == ((), ())


def test_constituent_roots_n7_step1():
    prime, doubleprime = constituent_roots(7, 1)
    assert prime == (Root(2, 3), Root(2, 4), Root(2, 5))
    assert doubleprime == (Root(3, 6), Root(4, 6), Root(5, 6))


def all_roots(n):
    return [Root(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]


def e_vector(n, *roots):
    """Sum of roots in the e-basis as a coordinate list."""
    vec = [0] * (n + 1)
    for r in roots:
        vec[r.i] += 1
        vec[r.j] -= 1
    return vec


def test_constituent_pairs_sum_to_initial_and_close():
    # brute-force over the whole root system: each pair recomposes the
    # initial root, and lambda' + lambda0 is never a root
    for n in range(2, 9):
        root_vectors = [e_vector(n, r) for r in all_roots(n)]
        for k in range((n - 2) // 2 + 1):
            initial = Root(k + 1, n - k)
            prime, doubleprime = constituent_roots(n, k)
            assert len(prime) == len(doubleprime)
            for a, b in zip(prime, doubleprime):
                assert e_vector(n, a, b) == e_vector(n, initial)
                assert e_vector(n, a, initial) not in root_vectors
                assert e_vector(n, b, initial) not in root_vectors


def test_chain_plan_n6():
    plan = chain_plan(6, 1)
    assert [s.initial_root for s in plan.steps] == [Root(1, 6), Root(2, 5)]
    assert not plan.maximal


def test_chain_plan_n4_second_step_empty():
    plan = chain_plan(4, 1)
    assert plan.steps[1].pi_prime == ()
    assert plan.maximal


def test_chain_plan_rejects_deep():
    with pytest.raises(IndexOutOfRange):
        chain_plan(5, 2)


def test_chain_plan_n8_maximal():
    plan = chain_plan(8, 3)
    assert plan.maximal
    assert [len(s.pi_prime) for s in plan.steps] == [6, 4, 2, 0]


def test_carrier_relations():
    # [H,E]=E, [H,A]=alpha A, [H,B]=beta B, [A,B]=E, [E,A]=[E,B]=0
    for n, r in [(3, 2), (6, 3), (7, 5)]:
        f = fundamental_morphism(n)
        for alpha in (rat(0), rat(1, 3), rat(1, 2), rat(2, 5), rat(1)):
            beta = 1 - alpha
            h, a, b, e = (eval_expr(x, f) for x in carrier_generators(n, r, alpha))
            assert h.commutator(e) == e
            assert h.commutator(a) == a.scale(alpha)
            assert h.commutator(b) == b.scale(beta)
            assert a.commutator(b) == e
            assert e.commutator(a).is_zero()
            assert e.commutator(b).is_zero()
