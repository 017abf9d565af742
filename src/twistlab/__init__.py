"""Exact-arithmetic construction and verification of twist deformations
of U(gl(N)): Jordanian and extended twists, twist chains, the external
factors for the two-row Heisenberg subalgebra, and the checks that every
claimed identity holds with zero residual."""

from .exact import (
    AnalyticFnSpec,
    EXP,
    LOG1P,
    SparseMatrix,
    analytic_apply,
    kron,
    nilpotency_index,
    pow1p,
)
from .expr import (
    Fn,
    Gen,
    Prod,
    Scalar,
    Sum,
    contragredient_morphism,
    coproduct_morphism,
    delta_morphism,
    eval_expr,
    fundamental_morphism,
    gen,
    mul,
    scal,
    add,
    sigma,
    sigma_power,
)
from .hopf import (
    CheckResult,
    TwistedCoalgebra,
    antipode_checks,
    coassociativity_check,
    cocycle_check,
    counit_check,
    r_matrix_checks,
    twist_antipode_correction,
    verify_dragging,
)
from .rationals import Rational, rat, rat_str
from .roots import ChainPlan, Root, carrier_generators, cartan_element, chain_plan, constituent_roots
from .report import SuiteConfig, SuiteReport, core_property_checks, emit_report, run_suite
from .states import (
    Combinator,
    CostructureTable,
    STATE_IDS,
    costructure_table,
    two_jordanian_table_check,
    verify_diagram,
    verify_matreshka,
    verify_state,
    verify_transition_schemes,
)
from .twists import (
    TwistFactor,
    TwistSequence,
    chain_twist,
    extended_twist_generic,
    extension_factor,
    external_factor,
    jordanian_factor,
    materialize,
    sequence,
)
