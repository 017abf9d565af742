"""The deformed-costructure tables of the two-row Heisenberg subalgebra.

The coblock combinators abbreviate deformed coproducts; the nine state
tables are plain data and treated as claims, with the conjugated coproduct
as ground truth.  sigma_1 = log(1+E_{1,N}), sigma_2 = log(1+E_{2,N-1});
the S terms carry the column index r, which costructure_table fills in.
"""

from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Mapping, Optional, Tuple

from .errors import IndexOutOfRange, NotApplicable
from .exact import SparseMatrix
from .expr import (
    Expr,
    Morphism,
    delta_morphism,
    eval_expr,
    gen,
    memoized,
    mul,
    scal,
    sigma_power,
)
from .hopf import CheckResult, TwistedCoalgebra, Tally
from .rationals import HALF, rat
from .roots import carrier_column, carrier_generators, cartan_element
from .twists import (
    TwistSequence,
    chain_twist,
    extended_twist_generic,
    extension_factor,
    external_factor,
    generic_jordanian_factor,
    jordanian_factor,
    materialize_factor,
    sequence,
)


@dataclass(frozen=True)
class Combinator:
    """One coblock symbol; i in {1,2} for the indexed kinds, r for S terms."""

    kind: str
    i: Optional[int] = None
    r: Optional[int] = None


@memoized
def combinator_terms(c: Combinator, L: Optional[Expr], n: int):
    """Two-leg expression terms of a coblock symbol applied to L, built once per (c, L, N)."""
    one = scal(1)

    def sig(i, coeff):
        # e^{coeff sigma_{i, N+1-i}}: sigma_1 on (1, N), sigma_2 on (2, N-1)
        return sigma_power(coeff, i, n + 1 - i)

    k = c.kind
    if k == "P0":
        return ((L, one), (one, L))
    if k == "Pplus":
        return ((L, sig(c.i, HALF)), (one, L))
    if k == "Pminus":
        return ((L, sig(c.i, -HALF)), (one, L))
    if k == "R":
        return ((L, sig(c.i, HALF)), (sig(c.i, 1), L))
    if k == "T":
        return ((L, sig(c.i, 1)), (one, L))
    if k == "Tpp":
        return ((L, mul(sig(1, HALF), sig(2, HALF))), (one, L))
    if k == "Tmp":
        return ((L, mul(sig(1, -HALF), sig(2, HALF))), (one, L))
    if k == "Tpm":
        return ((L, mul(sig(1, HALF), sig(2, -HALF))), (one, L))
    if k == "TR":
        return ((L, mul(sig(1, HALF), sig(2, HALF))), (sig(c.i, 1), L))
    # standalone S summands; L is ignored
    r = c.r
    if k == "S1minus":
        return ((mul(scal(-1), gen(1, r)), mul(gen(2, n), sig(1, -HALF))),)
    if k == "S1plus":
        return ((gen(1, n - 1), mul(gen(r, n), sig(1, -HALF), sig(2, HALF))),)
    if k == "S2minus":
        return ((mul(scal(-1), gen(2, r)), mul(gen(1, n - 1), sig(2, -HALF))),)
    if k == "S2plus":
        return ((gen(2, n), mul(gen(r, n - 1), sig(1, HALF), sig(2, -HALF))),)
    raise ValueError(f"unknown combinator kind {k!r}")


# -- the nine states ---------------------------------------------------------

_P1p = Combinator("Pplus", i=1)
_P1m = Combinator("Pminus", i=1)
_P2p = Combinator("Pplus", i=2)
_P2m = Combinator("Pminus", i=2)
_R1 = Combinator("R", i=1)
_R2 = Combinator("R", i=2)
_T1 = Combinator("T", i=1)
_T2 = Combinator("T", i=2)
_Tpp = Combinator("Tpp")
_Tmp = Combinator("Tmp")
_Tpm = Combinator("Tpm")
_TR1 = Combinator("TR", i=1)
_TR2 = Combinator("TR", i=2)
# the S terms get the table's column r in costructure_table
_S1m = Combinator("S1minus")
_S1p = Combinator("S1plus")
_S2m = Combinator("S2minus")
_S2p = Combinator("S2plus")

_CENTER_PLAIN = {"e1n1": ((1, _Tpp),), "e1n": ((1, _T1),),
                 "e2n1": ((1, _T2),), "e2n": ((1, _Tpp),)}
_CENTER_TILDE0 = {"e1n1": ((1, _Tmp),), "e1n": ((1, _T1),),
                  "e2n1": ((1, _T2),), "e2n": ((1, _TR1),)}
_CENTER_TILDE1 = {"e1n1": ((1, _TR2),), "e1n": ((1, _T1),),
                  "e2n1": ((1, _T2),), "e2n": ((1, _Tpm),)}

# The one table of the nine states: id -> (edge labels in application order
# after J0 J1, the eight table entries keyed by generator slot).  An id is its
# labels written right to left, then J1J0.
STATES = {
    "J1J0": ((), {
        "e1r": ((1, _P1p),), "e2r": ((1, _P2p),), **_CENTER_PLAIN,
        "ern1": ((1, _P2p),), "ern": ((1, _P1p),),
    }),
    "E0tJ1J0": (("E0t",), {
        "e1r": ((1, _P1p),), "e2r": ((1, _P2p), (-1, _S1m)), **_CENTER_TILDE0,
        "ern1": ((1, _P2p), (-1, _S1p)), "ern": ((1, _P1p),),
    }),
    "E1tJ1J0": (("E1t",), {
        "e1r": ((1, _P1p), (-1, _S2m)), "e2r": ((1, _P2p),), **_CENTER_TILDE1,
        "ern1": ((1, _P2p),), "ern": ((1, _P1p), (-1, _S2p)),
    }),
    "E0J1J0": (("E0",), {
        "e1r": ((1, _P1m),), "e2r": ((1, _P2p), (1, _S1m)), **_CENTER_PLAIN,
        "ern1": ((1, _P2p), (1, _S1p)), "ern": ((1, _R1),),
    }),
    "E0tE0J1J0": (("E0", "E0t"), {
        "e1r": ((1, _P1m),), "e2r": ((1, _P2p),), **_CENTER_TILDE0,
        "ern1": ((1, _P2p),), "ern": ((1, _R1),),
    }),
    "E1E0E1tJ1J0": (("E1t", "E0", "E1"), {
        "e1r": ((1, _P1m),), "e2r": ((1, _P2m), (1, _S1m)), **_CENTER_TILDE1,
        "ern1": ((1, _R2), (1, _S1p)), "ern": ((1, _R1),),
    }),
    "E1J1J0": (("E1",), {
        "e1r": ((1, _P1p), (1, _S2m)), "e2r": ((1, _P2m),), **_CENTER_PLAIN,
        "ern1": ((1, _R2),), "ern": ((1, _P1p), (1, _S2p)),
    }),
    "E1E0E0tJ1J0": (("E0t", "E0", "E1"), {
        "e1r": ((1, _P1m), (1, _S2m)), "e2r": ((1, _P2m),), **_CENTER_TILDE0,
        "ern1": ((1, _R2),), "ern": ((1, _R1), (1, _S2p)),
    }),
    "E1E1tJ1J0": (("E1t", "E1"), {
        "e1r": ((1, _P1p),), "e2r": ((1, _P2m),), **_CENTER_TILDE1,
        "ern1": ((1, _R2),), "ern": ((1, _P1p),),
    }),
}

STATE_IDS = tuple(STATES)

# edge label -> builder (N, r) -> its twist factor
EDGE_FACTORS = {
    "E0": lambda n, r: extension_factor(n, 1, r),
    "E1": lambda n, r: extension_factor(n, 2, r),
    "E0t": lambda n, r: external_factor(n, "E0tilde"),
    "E1t": lambda n, r: external_factor(n, "E1tilde"),
}


@memoized
def heisenberg_pair_generators(n: int, r: int) -> Mapping[str, Expr]:
    """The eight generators of the single-column block: slot -> E_ij.

    Built once per (N, r) (expr.memoized) and shared by every caller, so
    the mapping is read-only.
    """
    return MappingProxyType({
        "e1r": gen(1, r),
        "e2r": gen(2, r),
        "e1n1": gen(1, n - 1),
        "e1n": gen(1, n),
        "e2n1": gen(2, n - 1),
        "e2n": gen(2, n),
        "ern1": gen(r, n - 1),
        "ern": gen(r, n),
    })


@dataclass(frozen=True)
class CostructureTable:
    state_id: str
    n: int
    r: int
    entries: Tuple[Tuple[str, Tuple[Tuple[int, Combinator], ...]], ...]
    twist_recipe: TwistSequence

    def entry(self, slot: str):
        return dict(self.entries)[slot]


def _require_state_args(n: int, r: int):
    if n <= 5:
        raise NotApplicable("state tables need N > 5")
    if not 3 <= r <= n - 2:
        raise IndexOutOfRange(f"r={r} outside 3..{n - 2}")


def costructure_table(state_id: str, n: int, r: int) -> CostructureTable:
    _require_state_args(n, r)
    if state_id not in STATES:
        raise ValueError(f"unknown state {state_id!r}")
    labels, spec = STATES[state_id]
    entries = tuple(
        (slot, tuple((sign, replace(c, r=r) if c.kind.startswith("S") else c)
                     for sign, c in combs))
        for slot, combs in spec.items()
    )
    recipe = sequence(
        jordanian_factor(n, 1),
        jordanian_factor(n, 2),
        *[EDGE_FACTORS[label](n, r) for label in labels],
    )
    return CostructureTable(state_id, n, r, entries, recipe)


def table_payload(state_id: str, n: int, r: int) -> dict:
    """Structured export of one table: recipe, generators, combinator lists."""
    table = costructure_table(state_id, n, r)
    gens = heisenberg_pair_generators(n, r)
    entries = {}
    for slot, combs in table.entries:
        g = gens[slot]
        parts = []
        for sign, comb in combs:
            part = {"sign": sign, "kind": comb.kind}
            if comb.i is not None:
                part["i"] = comb.i
            if comb.r is not None:
                part["r"] = comb.r
            parts.append(part)
        entries[f"E[{g.i},{g.j}]"] = parts
    return {
        "state_id": state_id,
        "n": n,
        "r": r,
        "twist_recipe": [f.name for f in table.twist_recipe.factors],
        "entries": entries,
    }


def expected_entry(table: CostructureTable, slot: str, co: TwistedCoalgebra):
    """The table's claim for D_F at one slot, evaluated in co's legs and kernel."""
    g = heisenberg_pair_generators(table.n, table.r)[slot]
    return co.expected([
        (a if sign == 1 else mul(scal(sign), a), b)
        for sign, comb in table.entry(slot)
        for a, b in combinator_terms(comb, g, table.n)
    ])


def _table_check(name: str, tables, witness: Morphism) -> CheckResult:
    """D_F(g) against each table's entry, for every generator g the tables
    name, in one coalgebra of their shared twist; each g is compared once."""
    tally = Tally(name)
    co = TwistedCoalgebra(tables[0].twist_recipe, witness)
    seen = set()
    for table in tables:
        for slot, g in heisenberg_pair_generators(table.n, table.r).items():
            # the four slots outside column r are the same at every r
            if g not in seen:
                seen.add(g)
                tally.equal(co.coproduct(g), expected_entry(table, slot, co))
    return tally.result()


def verify_state(state_id: str, r: int, witness: Morphism) -> CheckResult:
    """Exact entry-by-entry comparison of one state table."""
    table = costructure_table(state_id, witness.n, r)
    return _table_check(f"state[{state_id},N={witness.n},r={r}]", [table], witness)


def two_jordanian_table_check(witness: Morphism) -> CheckResult:
    """The full two-row block after the 2-Jordanian twist: J1J0's table at
    every column, each generator compared once."""
    n = witness.n
    if n <= 5:
        raise NotApplicable("the two-row block table needs N > 5")
    tables = [costructure_table("J1J0", n, r) for r in range(3, n - 1)]
    return _table_check(f"2jordanian[N={n}]", tables, witness)


# -- diagram ------------------------------------------------------------------

# (source state, factor label, target state) wherever the target's labels are
# the source's plus that one label: the ten edges of the paper's diagram
DIAGRAM_EDGES = tuple(
    (src, label, dst)
    for src, (src_labels, _) in STATES.items()
    for dst, (dst_labels, _) in STATES.items()
    for label in EDGE_FACTORS
    if label not in src_labels and set(dst_labels) == {*src_labels, label}
)


def verify_diagram(r: int, witness: Morphism) -> CheckResult:
    """Edges reproduce target tables; squares commute; commutation is i=j only.

    The squares are the two-label states, each against its labels applied
    in the other order.  Each state coalgebra and each edge-factor
    coalgebra is built once.
    """
    n = witness.n
    _require_state_args(n, r)
    tally = Tally(f"diagram[N={n},r={r}]")
    gens = heisenberg_pair_generators(n, r)
    squares = [sid for sid, (labels, _) in STATES.items() if len(labels) == 2]

    deformed = {}
    for sid in dict.fromkeys([src for src, _, _ in DIAGRAM_EDGES] + squares):
        co = TwistedCoalgebra(costructure_table(sid, n, r).twist_recipe, witness)
        deformed[sid] = {slot: co.coproduct(g) for slot, g in gens.items()}
    factors = {label: build(n, r) for label, build in EDGE_FACTORS.items()}
    edges = {label: TwistedCoalgebra(sequence(f), witness) for label, f in factors.items()}
    for src, label, dst in DIAGRAM_EDGES:
        dst_table = costructure_table(dst, n, r)
        for slot, _ in dst_table.entries:
            got = edges[label].conjugate(deformed[src][slot])
            tally.equal(got, expected_entry(dst_table, slot, edges[label]))

    base = sequence(jordanian_factor(n, 1), jordanian_factor(n, 2))
    for sid in squares:
        swapped = TwistedCoalgebra(
            base.then(*[factors[label] for label in reversed(STATES[sid][0])]), witness
        )
        for slot, g in gens.items():
            tally.equal(deformed[sid][slot], swapped.coproduct(g))

    # The fundamental representation kills all four commutators, so the
    # asymmetry is witnessed one tensor level up, where [internal, external]
    # vanishes exactly for i = j and is visibly nonzero otherwise.
    # Each factor is 1 + a with a nilpotent, and [1 + a, 1 + b] = [a, b]
    # exactly, so the commutators are taken on the nilpotent parts, in one
    # leg's kernel, not the four-leg space's: in the fundamental witness that
    # space has 1,296 dims from N = 6, but a part only some 170-730 entries
    # up to N = 8, and packed.py would import numpy into every such run.
    deep = delta_morphism(witness, witness)
    part = {label: materialize_factor(f, deep, deep, kernel=deep.kernel)
            for label, f in factors.items()}
    for i in (0, 1):
        for j in (0, 1):
            comm = part[f"E{i}"].commutator(part[f"E{j}t"])
            if i == j:
                tally.equal(comm, SparseMatrix.zero(comm.dim))
            else:
                tally.nonzero(comm)
    return tally.result()


# -- matreshka and transition schemes ----------------------------------------


def verify_matreshka(witness: Morphism) -> CheckResult:
    """After the first chain step the nested block turns primitive again."""
    n = witness.n
    if n < 4:
        raise NotApplicable("matreshka needs N >= 4")
    tally = Tally(f"matreshka[N={n}]")
    co = TwistedCoalgebra(chain_twist(n, 0), witness)
    block = range(2, n)
    xs = [gen(i, j) for i in block for j in block if i != j]
    xs += [cartan_element(n, i, j) for i in block for j in block if i < j]
    for x in xs:
        tally.equal(co.coproduct(x), eval_expr(x, co.delta))
    # outside-block witness: the first row is genuinely deformed
    tally.nonzero(co.coproduct(gen(1, 2)) - eval_expr(gen(1, 2), co.delta))
    return tally.result()


def verify_transition_schemes(witness: Morphism) -> CheckResult:
    """Before/after coproduct patterns of the one-pair and two-row schemes."""
    n = witness.n
    if n < 3:
        raise NotApplicable("transition schemes need N >= 3")
    tally = Tally(f"transitions[N={n}]")
    r = carrier_column(n)
    one = scal(1)

    # the alpha + beta = 1 scheme on the generic carrier; at alpha = 1/2 the
    # generic factors are J(1,N) and E(1,r,N), so that pass is the canonical
    # scheme: primitive -> {P+, T, P+} under the Jordanian, then {P-, T, R}
    for alpha in (HALF, rat(1, 3), rat(2, 5)):
        beta = 1 - alpha
        _, a, b, e = carrier_generators(n, r, alpha)
        co_j = TwistedCoalgebra(sequence(generic_jordanian_factor(n, r, alpha)), witness)
        tally.equal(co_j.coproduct(a), co_j.expected([(a, sigma_power(alpha, 1, n)), (one, a)]))
        tally.equal(co_j.coproduct(b), co_j.expected([(b, sigma_power(beta, 1, n)), (one, b)]))
        tally.equal(co_j.coproduct(e), co_j.expected([(e, sigma_power(1, 1, n)), (one, e)]))
        co_ej = TwistedCoalgebra(extended_twist_generic(n, r, alpha), witness)
        tally.equal(co_ej.coproduct(a), co_ej.expected([(a, sigma_power(-beta, 1, n)), (one, a)]))
        tally.equal(
            co_ej.coproduct(b),
            co_ej.expected([(b, sigma_power(beta, 1, n)), (sigma_power(1, 1, n), b)]),
        )
        tally.equal(co_ej.coproduct(e), co_ej.expected([(e, sigma_power(1, 1, n)), (one, e)]))

    # the states one edge from J1J0 or none, table-wise
    if n >= 6:
        for state_id, (labels, _) in STATES.items():
            if len(labels) > 1:
                continue
            sub = verify_state(state_id, 3, witness)
            tally.residual += sub.residual_nnz
            tally.dims = max(tally.dims, sub.dims)
    return tally.result()
