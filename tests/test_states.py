import inspect
import itertools

import pytest

from twistlab import expr, hopf, states, twists
from twistlab.errors import IndexOutOfRange, NotApplicable
from twistlab.exact import SparseMatrix, kron, nilpotency_index
from twistlab.expr import (
    coproduct_morphism,
    delta_morphism,
    eval_expr,
    eval_tensor_pairs,
    fundamental_morphism,
    gen,
    kept_dict,
    mul,
    scal,
    sigma_power,
)
from twistlab.hopf import TwistedCoalgebra, verify_dragging
from twistlab.rationals import rat
from twistlab.report import SuiteConfig, run_suite
from twistlab.roots import cartan_element
from twistlab.states import (
    Combinator,
    DIAGRAM_EDGES,
    STATE_IDS,
    STATES,
    combinator_terms,
    costructure_table,
    expected_entry,
    heisenberg_pair_generators,
    two_jordanian_table_check,
    verify_diagram,
    verify_matreshka,
    verify_state,
    verify_transition_schemes,
)
from twistlab.twists import (
    extension_factor,
    external_factor,
    jordanian_factor,
    materialize_factor,
    sequence,
)


def unit(dim, i, j, v=1):
    return SparseMatrix.unit(dim, i, j, v)


def combinator_matrix(c, L, witness):
    # the two-leg terms evaluated in both legs, as expected_entry does
    return eval_tensor_pairs(combinator_terms(c, L, witness.n), witness, witness)


def test_combinator_p0():
    got = combinator_matrix(Combinator("P0"), gen(1, 3), fundamental_morphism(6))
    i6 = SparseMatrix.identity(6)
    assert got == kron(unit(6, 1, 3), i6) + kron(i6, unit(6, 1, 3))


def test_combinator_tpp():
    f6 = fundamental_morphism(6)
    got = combinator_matrix(Combinator("Tpp"), gen(1, 5), f6)
    i6 = SparseMatrix.identity(6)
    half = rat(1, 2)
    right = (i6 + unit(6, 1, 6, half)) * (i6 + unit(6, 2, 5, half))
    assert got == kron(unit(6, 1, 5), right) + kron(i6, unit(6, 1, 5))


def test_combinator_s1minus():
    got = combinator_matrix(Combinator("S1minus", r=3), None, fundamental_morphism(6))
    # -E_13 x E_26 e^{-sigma_1/2}; the correction dies in the fundamental
    assert got == kron(unit(6, 1, 3, -1), unit(6, 2, 6))


@pytest.mark.parametrize("witness, n, r", [
    (fundamental_morphism, 6, 3), (fundamental_morphism, 7, 3), (fundamental_morphism, 7, 4),
    (fundamental_morphism, 8, 5), (coproduct_morphism, 6, 3),
], ids=["fundamental-6-3", "fundamental-7-3", "fundamental-7-4", "fundamental-8-5",
        "doubled-6-3"])
def test_heisenberg_block_embeds_in_gl_n(witness, n, r):
    # of the 28 commutators of the eight generators, exactly
    # [E_ir, E_rm] = E_im for i in {1, 2}, m in {N-1, N} are nonzero, and
    # those four E_im are central in the block
    w = witness(n)
    gens = heisenberg_pair_generators(n, r)
    image = {slot: eval_expr(g, w) for slot, g in gens.items()}
    nonzero = {}
    for a, b in itertools.combinations(gens, 2):
        comm = image[a].commutator(image[b])
        if not comm.is_zero():
            nonzero[a, b] = comm
    assert nonzero == {
        ("e1r", "ern1"): image["e1n1"], ("e1r", "ern"): image["e1n"],
        ("e2r", "ern1"): image["e2n1"], ("e2r", "ern"): image["e2n"],
    }
    assert [gens[slot] for slot in ("e1n1", "e1n", "e2n1", "e2n")] == [
        gen(i, m) for i in (1, 2) for m in (n - 1, n)
    ]


def test_costructure_table_entries():
    t = costructure_table("J1J0", 7, 3)
    ((sign, comb),) = t.entry("e1n1")
    assert (sign, comb.kind) == (1, "Tpp")
    t2 = costructure_table("E0J1J0", 6, 3)
    entry = t2.entry("e2r")
    assert [(s, c.kind) for s, c in entry] == [(1, "Pplus"), (1, "S1minus")]
    with pytest.raises(ValueError):
        costructure_table("bogus", 6, 3)


def test_costructure_table_bounds():
    with pytest.raises(NotApplicable):
        costructure_table("J1J0", 5, 3)
    with pytest.raises(IndexOutOfRange):
        costructure_table("J1J0", 6, 5)


def test_verify_state_samples():
    assert verify_state("J1J0", 3, fundamental_morphism(6)).passed
    assert verify_state("E1E0E1tJ1J0", 4, fundamental_morphism(7)).passed
    with pytest.raises(NotApplicable):
        verify_state("J1J0", 3, fundamental_morphism(5))


def test_all_states_n6():
    for sid in STATE_IDS:
        for r in (3, 4):
            res = verify_state(sid, r, fundamental_morphism(6))
            assert res.passed, res


def test_two_jordanian_table():
    assert two_jordanian_table_check(fundamental_morphism(6)).passed
    assert two_jordanian_table_check(fundamental_morphism(7)).passed


def test_locality_of_extensions():
    # applying the r=3 extension leaves r'=4 generators untouched
    n = 6
    base = sequence(jordanian_factor(n, 1), jordanian_factor(n, 2))
    f = fundamental_morphism(n)
    co_before = TwistedCoalgebra(base, f)
    co_after = TwistedCoalgebra(base.then(extension_factor(n, 1, 3)), f)
    untouched = [gen(1, 4), gen(2, 4), gen(4, 5), gen(4, 6),
                 gen(1, 5), gen(1, 6), gen(2, 5), gen(2, 6)]
    for g in untouched:
        assert co_before.coproduct(g) == co_after.coproduct(g)
    touched = [gen(1, 3), gen(3, 6)]
    for g in touched:
        assert co_before.coproduct(g) != co_after.coproduct(g)


def test_diagram_n6():
    res = verify_diagram(3, fundamental_morphism(6))
    assert res.passed, res


@pytest.mark.parametrize("n, r", [(6, 3), (7, 3), (7, 4)])
def test_diagram_commutators_on_nilpotent_parts(n, r):
    # [1 + a, 1 + b] = [a, b]: the diagram's commutators of whole factors equal
    # those of their nilpotent parts, zero exactly for the pairs (Ei, Eit);
    # and the parts a = exp(X) - 1 commute exactly when the nilpotent
    # arguments X do, which verify_diagram compares instead
    deep = delta_morphism(fundamental_morphism(n), fundamental_morphism(n))
    one = SparseMatrix.identity(deep.dim ** 2)
    factors = {
        "E0": extension_factor(n, 1, r), "E1": extension_factor(n, 2, r),
        "E0t": external_factor(n, "E0tilde"), "E1t": external_factor(n, "E1tilde"),
    }
    arg = {label: eval_tensor_pairs(f.terms, deep, deep, kernel=deep.kernel)
           for label, f in factors.items()}
    for x in arg.values():
        assert nilpotency_index(x) == 3
    whole = {label: materialize_factor(f, deep, deep) + one for label, f in factors.items()}
    for i in (0, 1):
        mi = whole[f"E{i}"]
        for j in (0, 1):
            mj = whole[f"E{j}t"]
            comm = (mi - one).commutator(mj - one)
            assert comm == mi * mj - mj * mi
            assert comm.is_zero() == (i == j)
            if i != j:
                assert comm.nnz == (mi * mj - mj * mi).nnz
            assert arg[f"E{i}"].commutator(arg[f"E{j}t"]).is_zero() == comm.is_zero()


def test_diagram_rejects_small_n():
    with pytest.raises(NotApplicable):
        verify_diagram(3, fundamental_morphism(5))


def test_matreshka():
    assert verify_matreshka(fundamental_morphism(6)).passed
    assert verify_matreshka(fundamental_morphism(4)).passed
    with pytest.raises(NotApplicable):
        verify_matreshka(fundamental_morphism(3))


def test_transitions():
    assert verify_transition_schemes(fundamental_morphism(3)).passed
    assert verify_transition_schemes(fundamental_morphism(6)).passed


def test_state_verification_under_doubled_witness():
    f = fundamental_morphism(6)
    doubled = delta_morphism(f, f)
    assert verify_state("E0J1J0", 3, doubled).passed


def test_generator_slots():
    gens = heisenberg_pair_generators(6, 3)
    assert eval_expr(gens["ern"], fundamental_morphism(6)) == unit(6, 3, 6)
    assert len(gens) == 8


# the diagram of the paper: (source state, edge label, target state)
PAPER_EDGES = {
    ("J1J0", "E0t", "E0tJ1J0"),
    ("J1J0", "E1t", "E1tJ1J0"),
    ("J1J0", "E0", "E0J1J0"),
    ("J1J0", "E1", "E1J1J0"),
    ("E0tJ1J0", "E0", "E0tE0J1J0"),
    ("E0J1J0", "E0t", "E0tE0J1J0"),
    ("E1tJ1J0", "E1", "E1E1tJ1J0"),
    ("E1J1J0", "E1t", "E1E1tJ1J0"),
    ("E0tE0J1J0", "E1", "E1E0E0tJ1J0"),
    ("E1E1tJ1J0", "E0", "E1E0E1tJ1J0"),
}


def test_registry_gives_the_papers_diagram():
    assert STATE_IDS == tuple(STATES) and len(STATES) == 9
    assert len(DIAGRAM_EDGES) == 10 and set(DIAGRAM_EDGES) == PAPER_EDGES
    squares = [sid for sid, (labels, _) in STATES.items() if len(labels) == 2]
    assert squares == ["E0tE0J1J0", "E1E1tJ1J0"]
    for sid, (labels, entries) in STATES.items():
        assert sid == "".join(reversed(labels)) + "J1J0"
        assert list(entries) == list(heisenberg_pair_generators(6, 3))


def test_a_wrong_registry_entry_fails_the_state_and_the_diagram(monkeypatch):
    # a clean run first: every memoized builder it reaches is then warm
    assert verify_state("E0J1J0", 3, fundamental_morphism(6)).passed
    labels, entries = STATES["E0J1J0"]
    assert entries["ern"] == ((1, Combinator("R", i=1)),)
    wrong = {**entries, "ern": ((1, Combinator("Pplus", i=1)),)}
    monkeypatch.setitem(STATES, "E0J1J0", (labels, wrong))
    f6 = fundamental_morphism(6)
    assert not verify_state("E0J1J0", 3, f6).passed
    assert not verify_diagram(3, f6).passed


def test_a_failing_compare_records_nothing(monkeypatch):
    labels, entries = STATES["E0J1J0"]
    wrong = {**entries, "ern": ((1, Combinator("Pplus", i=1)),)}
    monkeypatch.setitem(STATES, "E0J1J0", (labels, wrong))
    f6 = fundamental_morphism(6)
    assert not verify_state("E0J1J0", 3, f6).passed
    recipe = costructure_table("E0J1J0", 6, 3).twist_recipe
    proven = kept_dict(f6, recipe)
    recorded = {slot for slot, g in heisenberg_pair_generators(6, 3).items() if g in proven}
    # the seven slots the wrong entry leaves alone were proven, E_{r,N} was not
    assert recorded == set(entries) - {"ern"}
    # the diagram conjugates D_F(E_{r,N}) afresh; its residual is that of a
    # run with no records (pinned from the code before records existed)
    res = verify_diagram(3, f6)
    assert (res.passed, res.residual_nnz, res.dims) == (False, 1, 1296)
    assert gen(3, 6) not in kept_dict(f6, recipe)
    fresh = verify_diagram(3, fundamental_morphism(6))
    assert (fresh.passed, fresh.residual_nnz, fresh.dims) == (False, 1, 1296)


def test_a_record_holds_no_new_matrix_and_belongs_to_one_twist():
    f6 = fundamental_morphism(6)
    assert verify_state("E0J1J0", 3, f6).passed
    table = costructure_table("E0J1J0", 6, 3)
    proven = kept_dict(f6, table.twist_recipe)
    gens = heisenberg_pair_generators(6, 3)
    assert set(proven) == set(gens.values())
    for slot, g in gens.items():
        # the entry the compare was made against, kept once beside the coproduct
        assert proven[g] is expected_entry(table, slot, f6), slot
    assert kept_dict(f6, costructure_table("E1J1J0", 6, 3).twist_recipe) == {}
    # the key is the twist itself, and equals none of the other kinds kept there
    recipe = table.twist_recipe
    assert recipe != (recipe.factors, recipe.n) and recipe != recipe.factors[0]


def test_a_combined_run_conjugates_each_coproduct_once(monkeypatch):
    suites = ("nine-states", "diagram", "transitions")
    recipe_of, conjugated = {}, []
    init, coproduct = TwistedCoalgebra.__init__, TwistedCoalgebra.coproduct

    def spy_init(self, seq, *args):
        recipe_of[self] = seq
        init(self, seq, *args)

    def spy_coproduct(self, x):
        conjugated.append((recipe_of[self], x))
        return coproduct(self, x)

    monkeypatch.setattr(TwistedCoalgebra, "__init__", spy_init)
    monkeypatch.setattr(TwistedCoalgebra, "coproduct", spy_coproduct)
    combined = _rows(run_suite(SuiteConfig(n=6, suites=suites, r_values=(3,))))
    assert all(row[1] for row in combined)
    assert conjugated and len(conjugated) == len(set(conjugated))
    # each state's coalgebra is built once, by its own table check: the
    # diagram and the transitions' re-runs read records, and so does the
    # block check, which builds J1J0's again only for the column r = 4
    built = list(recipe_of.values())
    counts = {sid: built.count(costructure_table(sid, 6, 3).twist_recipe) for sid in STATE_IDS}
    assert counts == {sid: 1 + (sid == "J1J0") for sid in STATE_IDS}
    # a suite run alone builds what it needs and gives the same rows
    for suite in ("diagram", "transitions"):
        alone = _rows(run_suite(SuiteConfig(n=6, suites=(suite,), r_values=(3,))))
        names = {row[0] for row in alone}
        assert alone == [row for row in combined if row[0] in names], suite


def _rows(rep) -> list:
    return [(c.name, c.passed, c.residual_nnz, c.dims) for c in rep.results]


def test_a_patched_builder_input_is_seen_once_the_memos_are_cleared(monkeypatch):
    clean = jordanian_factor(6, 1)
    assert verify_state("J1J0", 3, fundamental_morphism(6)).passed
    # every H twists.py builds doubled: J(1,6) is no longer the Jordanian twist the table claims
    monkeypatch.setattr(twists, "cartan_element", lambda n, i, k: mul(scal(2), cartan_element(n, i, k)))
    try:
        assert jordanian_factor(6, 1) is clean
        expr.clear_memos()
        assert jordanian_factor(6, 1) != clean
        assert not verify_state("J1J0", 3, fundamental_morphism(6)).passed
    finally:
        monkeypatch.undo()
        expr.clear_memos()
    assert jordanian_factor(6, 1) == clean
    assert verify_state("J1J0", 3, fundamental_morphism(6)).passed


def test_the_block_generators_are_one_read_only_map():
    gens = heisenberg_pair_generators(6, 3)
    assert heisenberg_pair_generators(6, 3) is gens
    with pytest.raises(TypeError):
        gens["e1r"] = gen(1, 4)
    with pytest.raises(TypeError):
        del gens["ern"]
    assert len(gens) == 8 and gens["e1r"] is gen(1, 3)


def test_a_flipped_sign_fails_the_same_in_both_kernels(monkeypatch):
    # E0J1J0's e2r entry is P2+ + S1-; with the S term's sign flipped its
    # doubled-witness residual is the nnz of 2 S1-, in int64 and in Python ints
    pytest.importorskip("twistlab.packed")
    labels, entries = STATES["E0J1J0"]
    assert entries["e2r"] == ((1, Combinator("Pplus", i=2)), (1, Combinator("S1minus")))
    flipped = {**entries, "e2r": ((1, Combinator("Pplus", i=2)), (-1, Combinator("S1minus")))}
    monkeypatch.setitem(STATES, "E0J1J0", (labels, flipped))
    rows = []
    for floor in (expr.PACKED_FLOOR, 36 ** 2 + 1):
        monkeypatch.setattr(expr, "PACKED_FLOOR", floor)
        # a fresh witness: its coproduct takes the kernel of the floor it is built under
        w = delta_morphism(fundamental_morphism(6), fundamental_morphism(6))
        res = verify_state("E0J1J0", 3, w)
        rows.append((res.passed, res.residual_nnz, res.dims))
    assert rows == [(False, 168, 1296)] * 2


def test_a_table_wrong_at_sigma_cubed_passes_both_shipped_witnesses(monkeypatch):
    # J1J0's e1n entry T1 as -3 P0 + 3 P1+ + P1-: its right leg agrees with
    # e^sigma through E^2 and differs at E^3 (E = E_{1N}).  E has nilpotency
    # index 2 in V and 3 in V x V, so the fundamental and doubled witnesses
    # cannot see it; in V x V x V, where the index is 4, it fails.  The first
    # two asserts flip once a witness that deep ships.
    labels, entries = STATES["J1J0"]
    assert entries["e1n"] == ((1, Combinator("T", i=1)),)
    mutant = {**entries, "e1n": ((-3, Combinator("P0")), (3, Combinator("Pplus", i=1)),
                                 (1, Combinator("Pminus", i=1)))}
    monkeypatch.setitem(STATES, "J1J0", (labels, mutant))
    assert verify_state("J1J0", 3, fundamental_morphism(6)).passed
    assert verify_state("J1J0", 3, coproduct_morphism(6)).passed
    deeper = delta_morphism(coproduct_morphism(6), fundamental_morphism(6))
    res = verify_state("J1J0", 3, deeper)
    assert (res.passed, res.residual_nnz, res.dims) == (False, 108, 46_656)


def test_diagram_builds_each_coalgebra_once(monkeypatch):
    # seven edge sources (the two squares among them), four edge factors and
    # the two squares' other orders
    built = []
    init = TwistedCoalgebra.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TwistedCoalgebra, "__init__", counting_init)
    assert verify_diagram(3, fundamental_morphism(6)).passed
    assert len(built) == 13


# each check that reads N from its witness, with its name at N = 7 and the
# number of witness legs its largest compare lives in
CHECKS_IN_GL7 = {
    "verify_state": (lambda w: verify_state("J1J0", 3, w), "state[J1J0,N=7,r=3]", 2),
    "two_jordanian_table_check": (two_jordanian_table_check, "2jordanian[N=7]", 2),
    "verify_diagram": (lambda w: verify_diagram(3, w), "diagram[N=7,r=3]", 4),
    "verify_matreshka": (verify_matreshka, "matreshka[N=7]", 2),
    "verify_transition_schemes": (verify_transition_schemes, "transitions[N=7]", 2),
    "verify_dragging": (verify_dragging, "dragging[E0~,N=7]", 2),
}


@pytest.mark.parametrize("check", sorted(CHECKS_IN_GL7))
def test_a_check_takes_n_from_its_witness(check):
    run, name, legs = CHECKS_IN_GL7[check]
    w = fundamental_morphism(7)
    res = run(w)
    assert (res.name, res.dims, res.passed) == (name, w.dim ** legs, True)


def test_combinator_terms_take_their_n():
    # S1minus at r = 3 is -E_13 x E_2N e^{-sigma_1/2}, whose correction dies
    # in the fundamental: at N = 7 its second leg sits in column 7
    w = fundamental_morphism(7)
    got = combinator_matrix(Combinator("S1minus", r=3), None, w)
    assert got == kron(unit(7, 1, 3, -1), unit(7, 2, 7))


def test_equal_requests_get_the_identical_terms():
    c, L = Combinator("R", i=1), gen(1, 3)
    terms = combinator_terms(c, L, 6)
    assert combinator_terms(Combinator("R", i=1), gen(1, 3), 6) is terms
    assert combinator_terms(Combinator("R", i=2), L, 6) is not terms


def test_patched_terms_input_is_seen_once_the_memos_are_cleared(monkeypatch):
    c, L = Combinator("Pplus", i=1), gen(1, 3)
    clean = combinator_terms(c, L, 6)
    assert clean == ((L, sigma_power(rat(1, 2), 1, 6)), (scal(1), L))
    monkeypatch.setattr(states, "HALF", rat(1, 3))
    try:
        assert combinator_terms(c, L, 6) is clean
        expr.clear_memos()
        assert combinator_terms(c, L, 6) == ((L, sigma_power(rat(1, 3), 1, 6)), (scal(1), L))
    finally:
        monkeypatch.undo()
        expr.clear_memos()
    assert combinator_terms(c, L, 6) == clean and combinator_terms(c, L, 6) is not clean


def test_no_public_check_picks_its_own_witness():
    takes_witness = set()
    for module in (hopf, states):
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            params = inspect.signature(obj).parameters
            if "witness" in params:
                takes_witness.add(name)
                if name == "Tally":
                    # not a check: its witness only maps a failing compare's
                    # residual back to e_i x e_j, and the core laws have none
                    assert params["witness"].kind is inspect.Parameter.KEYWORD_ONLY
                    continue
                assert params["witness"].default is inspect.Parameter.empty, name
                assert "n" not in params, name
    assert takes_witness == {
        "Tally", "TwistedCoalgebra", "counit_check", "cocycle_check", "r_matrix_checks",
        "coassociativity_check", "twist_antipode_correction", "antipode_checks",
        "verify_dragging", "verify_state", "expected_entry",
        "two_jordanian_table_check", "verify_diagram", "verify_matreshka",
        "verify_transition_schemes",
    }
    # expected_entry evaluates in the witness's own two legs, as every caller does
    assert list(inspect.signature(states.expected_entry).parameters) == [
        "table", "slot", "witness"]


# -- the mirror theta: 1 <-> 2, N-1 <-> N --------------------------------------

# each state theta derives -> the written state it is the image of
MIRRORED = {"E1tJ1J0": "E0tJ1J0", "E1J1J0": "E0J1J0",
            "E1E1tJ1J0": "E0tE0J1J0", "E1E0E1tJ1J0": "E1E0E0tJ1J0"}


def _c(kind, i=None):
    return Combinator(kind, i=i)


# the four tables as they were written out before theta derived them
WRITTEN_MIRRORS = {
    "E1tJ1J0": (("E1t",), {
        "e1r": ((1, _c("Pplus", 1)), (-1, _c("S2minus"))), "e2r": ((1, _c("Pplus", 2)),),
        "e1n1": ((1, _c("TR", 2)),), "e1n": ((1, _c("T", 1)),),
        "e2n1": ((1, _c("T", 2)),), "e2n": ((1, _c("Tpm")),),
        "ern1": ((1, _c("Pplus", 2)),), "ern": ((1, _c("Pplus", 1)), (-1, _c("S2plus"))),
    }),
    "E1E0E1tJ1J0": (("E1t", "E0", "E1"), {
        "e1r": ((1, _c("Pminus", 1)),), "e2r": ((1, _c("Pminus", 2)), (1, _c("S1minus"))),
        "e1n1": ((1, _c("TR", 2)),), "e1n": ((1, _c("T", 1)),),
        "e2n1": ((1, _c("T", 2)),), "e2n": ((1, _c("Tpm")),),
        "ern1": ((1, _c("R", 2)), (1, _c("S1plus"))), "ern": ((1, _c("R", 1)),),
    }),
    "E1J1J0": (("E1",), {
        "e1r": ((1, _c("Pplus", 1)), (1, _c("S2minus"))), "e2r": ((1, _c("Pminus", 2)),),
        "e1n1": ((1, _c("Tpp")),), "e1n": ((1, _c("T", 1)),),
        "e2n1": ((1, _c("T", 2)),), "e2n": ((1, _c("Tpp")),),
        "ern1": ((1, _c("R", 2)),), "ern": ((1, _c("Pplus", 1)), (1, _c("S2plus"))),
    }),
    "E1E1tJ1J0": (("E1t", "E1"), {
        "e1r": ((1, _c("Pplus", 1)),), "e2r": ((1, _c("Pminus", 2)),),
        "e1n1": ((1, _c("TR", 2)),), "e1n": ((1, _c("T", 1)),),
        "e2n1": ((1, _c("T", 2)),), "e2n": ((1, _c("Tpm")),),
        "ern1": ((1, _c("R", 2)),), "ern": ((1, _c("Pplus", 1)),),
    }),
}


def test_derived_tables_equal_the_written_ones():
    assert STATE_IDS == ("J1J0", "E0tJ1J0", "E1tJ1J0", "E0J1J0", "E0tE0J1J0",
                         "E1E0E1tJ1J0", "E1J1J0", "E1E0E0tJ1J0", "E1E1tJ1J0")
    for sid, (labels, written) in WRITTEN_MIRRORS.items():
        got_labels, entries = STATES[sid]
        assert got_labels == labels
        # entry by entry, in slot order
        assert list(entries.items()) == list(written.items())
        # theta is an involution: the image of the image is the written state
        assert states.mirror_table(entries) == STATES[MIRRORED[sid]][1]


# theta with some of its pairs left out: per derived state, the residual of
# verify_state on the table it gives (fundamental witness, N = 6, r = 3)
PARTIAL_THETAS = {
    "ern and ern1 fixed": (("ern1",), {"E1tJ1J0": 6, "E1J1J0": 8, "E1E1tJ1J0": 6,
                                       "E1E0E1tJ1J0": 10}),
    "no Tmp <-> Tpm": (("Tmp",), {"E1tJ1J0": 2, "E1J1J0": 0, "E1E1tJ1J0": 2,
                                  "E1E0E1tJ1J0": 2}),
    "no S1 <-> S2": (("S1minus", "S1plus"), {"E1tJ1J0": 4, "E1J1J0": 4, "E1E1tJ1J0": 0,
                                             "E1E0E1tJ1J0": 4}),
    "no i -> 3 - i": ((1,), {"E1tJ1J0": 14, "E1J1J0": 14, "E1E1tJ1J0": 16,
                             "E1E0E1tJ1J0": 18}),
    "centre fixed": (("e1n1", "e1n"), {"E1tJ1J0": 8, "E1J1J0": 4, "E1E1tJ1J0": 8,
                                       "E1E0E1tJ1J0": 8}),
}


@pytest.mark.parametrize("partial", sorted(PARTIAL_THETAS))
def test_a_partial_theta_fails_a_derived_table(partial, monkeypatch):
    dropped, residuals = PARTIAL_THETAS[partial]
    monkeypatch.setattr(states, "_THETA", {
        a: b for a, b in states._THETA.items() if a not in dropped and b not in dropped
    })
    for sid, rep in MIRRORED.items():
        monkeypatch.setitem(STATES, sid, (STATES[sid][0], states.mirror_table(STATES[rep][1])))
    w = fundamental_morphism(6)
    assert {sid: verify_state(sid, 3, w).residual_nnz for sid in MIRRORED} == residuals


def test_the_diagram_is_theta_closed():
    label_image = {"E0": "E1", "E1": "E0", "E0t": "E1t", "E1t": "E0t"}
    state_image = {"J1J0": "J1J0", **MIRRORED, **{b: a for a, b in MIRRORED.items()}}
    assert set(state_image) == set(STATES)
    for sid, (labels, _) in STATES.items():
        assert {label_image[x] for x in labels} == set(STATES[state_image[sid]][0])
    image = {(state_image[src], label_image[label], state_image[dst])
             for src, label, dst in DIAGRAM_EDGES}
    assert len(DIAGRAM_EDGES) == 10 and image == set(DIAGRAM_EDGES)
