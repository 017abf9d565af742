"""Suite runner, configuration, and machine/human reports."""

import json
import os
import random
import time
from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import ConfigInvalid
from .exact import (
    EXP,
    LOG1P,
    SparseMatrix,
    analytic_apply,
    dump_matrix_text,
    kron,
    parse_matrix_text,
    pow1p,
)
from .expr import Morphism, delta_morphism, fundamental_morphism, gen
from .hopf import (
    Tally,
    antipode_checks,
    coassociativity_check,
    cocycle_check,
    counit_check,
    r_matrix_checks,
    verify_dragging,
)
from .rationals import parse_rat, rat, rat_str
from .roots import carrier_column, carrier_generators, cartan_element
from .states import (
    STATE_IDS,
    two_jordanian_table_check,
    verify_diagram,
    verify_matreshka,
    verify_state,
    verify_transition_schemes,
)
from .twists import (
    TwistSequence,
    chain_twist,
    extended_twist_generic,
    external_factor,
    jordanian_factor,
    materialize,
    sequence,
)

# every suite with the smallest N it is defined at, in listing order
SUITE_MIN_N = {
    "core": 2,
    "twist-axioms": 3,
    "chain": 4,
    "nine-states": 6,
    "diagram": 6,
    "rmatrix": 3,
    "antipode": 3,
    "matreshka": 4,
    "transitions": 3,
}
SUITE_NAMES = tuple(SUITE_MIN_N)

DEFAULT_ALPHAS = (rat(0), rat(1, 3), rat(1, 2), rat(2, 5))


@dataclass
class SuiteConfig:
    n: int
    suites: Tuple[str, ...]
    r_values: Tuple[int, ...] = ()
    alpha_values: Tuple = DEFAULT_ALPHAS
    witness: str = "fundamental"
    output: str = "text"
    dump_dir: Optional[str] = None

    def validate(self):
        if self.n < 2:
            raise ConfigInvalid(f"N must be >= 2, got {self.n}")
        unknown = [s for s in self.suites if s not in SUITE_NAMES]
        if unknown:
            raise ConfigInvalid(f"unknown suites {unknown}; choose from {SUITE_NAMES}")
        if not self.suites:
            raise ConfigInvalid("no suites requested")
        if not self.alpha_values:
            raise ConfigInvalid("no alpha values")
        # reject instead of silently skipping: every requested check must run
        for name in self.suites:
            need = SUITE_MIN_N[name]
            if self.n < need:
                raise ConfigInvalid(f"suite {name!r} requires N >= {need}")
        if self.witness not in ("fundamental", "doubled"):
            raise ConfigInvalid(f"unknown witness {self.witness!r}")
        if self.output not in ("text", "json"):
            raise ConfigInvalid(f"unknown output format {self.output!r}")
        for r in self.r_values:
            if not 3 <= r <= self.n - 2:
                raise ConfigInvalid(f"r={r} outside 3..{self.n - 2}")

    def effective_r_values(self) -> Tuple[int, ...]:
        if self.r_values:
            return tuple(dict.fromkeys(self.r_values))
        return tuple(range(3, self.n - 1))

    def build_witness(self) -> Morphism:
        f = fundamental_morphism(self.n)
        return f if self.witness == "fundamental" else delta_morphism(f, f)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "suites": list(self.suites),
            "r_values": list(self.effective_r_values()),
            "alpha_values": [rat_str(rat(a)) for a in self.alpha_values],
            "witness": self.witness,
            "output": self.output,
            "dump_dir": self.dump_dir,
        }


@dataclass
class SuiteReport:
    config: SuiteConfig
    results: list
    total_elapsed: float = 0.0

    @property
    def passed(self) -> int:
        return sum(1 for r in self.results if r.passed)

    @property
    def failed(self) -> int:
        return len(self.results) - self.passed

    def all_passed(self) -> bool:
        return self.failed == 0

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "checks": [
                {
                    "name": r.name,
                    "passed": r.passed,
                    "residual_nnz": r.residual_nnz,
                    "dims": r.dims,
                    "elapsed": round(r.elapsed, 6),
                }
                for r in self.results
            ],
            "summary": {
                "total": len(self.results),
                "passed": self.passed,
                "failed": self.failed,
                "elapsed": round(self.total_elapsed, 6),
            },
        }


# -- exact-core randomized invariants ----------------------------------------


def _random_matrix(rng: random.Random, dim: int) -> SparseMatrix:
    entries = {}
    for _ in range(rng.randint(1, 2 * dim)):
        i, j = rng.randint(1, dim), rng.randint(1, dim)
        entries[(i, j)] = rat(rng.randint(-4, 4), rng.randint(1, 4))
    return SparseMatrix.from_entries(dim, entries)


def _random_nilpotent(rng: random.Random, dim: int) -> SparseMatrix:
    entries = {}
    for _ in range(rng.randint(1, 2 * dim)):
        i = rng.randint(1, dim - 1)
        j = rng.randint(i + 1, dim)
        entries[(i, j)] = rat(rng.randint(-4, 4), rng.randint(1, 4))
    m = SparseMatrix.from_entries(dim, entries)
    # permutation similarity keeps nilpotency but leaves the triangle
    perm = list(range(1, dim + 1))
    rng.shuffle(perm)
    p = SparseMatrix.from_entries(dim, {(perm[i - 1], i): 1 for i in range(1, dim + 1)})
    return p * m * p.transpose()


def core_property_checks(cases: int = 1000, seed: int = 20240801) -> list:
    """Randomized exact-core invariants; every case must hold exactly."""
    rng = random.Random(seed)
    per = max(1, cases // 4)
    results = []

    tally = Tally("core[mixed-product]")
    for _ in range(per):
        dim_a, dim_b = rng.randint(2, 4), rng.randint(2, 4)
        a, c = _random_matrix(rng, dim_a), _random_matrix(rng, dim_a)
        b, d = _random_matrix(rng, dim_b), _random_matrix(rng, dim_b)
        tally.equal(kron(a, b) * kron(c, d), kron(a * c, b * d))
    results.append(tally.result())

    tally = Tally("core[exp-log-roundtrip]")
    for _ in range(per):
        m = _random_nilpotent(rng, rng.randint(2, 5))
        got = analytic_apply(EXP, analytic_apply(LOG1P, m))
        tally.equal(got, SparseMatrix.identity(m.dim) + m)
    results.append(tally.result())

    tally = Tally("core[pow1p-inverse]")
    for _ in range(per):
        m = _random_nilpotent(rng, rng.randint(2, 5))
        q = rat(rng.randint(-6, 6), rng.randint(1, 4))
        lhs = analytic_apply(pow1p(q), m) * analytic_apply(pow1p(-q), m)
        tally.equal(lhs, SparseMatrix.identity(m.dim))
    results.append(tally.result())

    tally = Tally("core[exp-additivity]")
    for _ in range(cases - 3 * per):
        m = _random_nilpotent(rng, rng.randint(2, 5))
        a = SparseMatrix.zero(m.dim)
        b = SparseMatrix.zero(m.dim)
        power = m
        for _ in range(rng.randint(1, 3)):
            a = a + power.scale(rat(rng.randint(-3, 3), rng.randint(1, 3)))
            b = b + power.scale(rat(rng.randint(-3, 3), rng.randint(1, 3)))
            power = power * m
        tally.equal(a * b, b * a)
        tally.equal(
            analytic_apply(EXP, a + b), analytic_apply(EXP, a) * analytic_apply(EXP, b)
        )
    results.append(tally.result())
    return results


# -- suite assembly -----------------------------------------------------------


def _axiom_pair(seq: TwistSequence, witness) -> list:
    return [cocycle_check(seq, witness=witness), counit_check(seq, witness=witness)]


def _named_twists(cfg: SuiteConfig) -> dict:
    n = cfg.n
    out = {"jordanian": sequence(jordanian_factor(n, 1))}
    for alpha in cfg.alpha_values:
        out[f"extended(a={rat_str(rat(alpha))})"] = extended_twist_generic(
            n, carrier_column(n), alpha
        )
    if n >= 4:
        out["2chain"] = chain_twist(n, 1)
    p_max = (n - 2) // 2
    if p_max > 1:
        out[f"chain(p={p_max})"] = chain_twist(n, p_max)
    return out


def run_suite(cfg: SuiteConfig) -> SuiteReport:
    """Execute every requested check.

    A check whose identity fails is a result; a check that raises aborts the
    run, and the CLI reports a TwistlabError with exit code 2.
    """
    cfg.validate()
    t0 = time.perf_counter()
    w = cfg.build_witness()
    n = cfg.n
    results = []

    if "core" in cfg.suites:
        results.extend(core_property_checks(cases=200))

    if "twist-axioms" in cfg.suites:
        results.extend(_axiom_pair(sequence(jordanian_factor(n, 1)), w))
        for alpha in cfg.alpha_values:
            seq = extended_twist_generic(n, carrier_column(n), alpha)
            results.extend(_axiom_pair(seq, w))
        if n >= 6:
            base = sequence(jordanian_factor(n, 1), jordanian_factor(n, 2))
            for which in ("E0tilde", "E1tilde"):
                composite = base.then(external_factor(n, which))
                results.extend(_axiom_pair(composite, w))

    if "chain" in cfg.suites:
        two = chain_twist(n, 1)
        results.extend(_axiom_pair(two, w))
        if cfg.witness == "fundamental":
            # factor-by-factor against successively twisted coproducts
            for i, f in enumerate(two.factors):
                base = TwistSequence(two.factors[:i], n)
                results.append(cocycle_check(sequence(f), base=base, witness=w))
        gens = [gen(*pair) for pair in _block_pairs(n)]
        results.append(coassociativity_check(two, gens, witness=w))
        p_max = (n - 2) // 2
        if p_max > 1:
            results.extend(_axiom_pair(chain_twist(n, p_max), w))

    if "nine-states" in cfg.suites:
        results.append(two_jordanian_table_check(n, witness=w))
        for r in cfg.effective_r_values():
            for sid in STATE_IDS:
                results.append(verify_state(sid, n, r, witness=w))

    if "diagram" in cfg.suites:
        results.append(verify_dragging(n, witness=w))
        for r in cfg.effective_r_values():
            results.append(verify_diagram(n, r, witness=w))

    if "rmatrix" in cfg.suites:
        results.append(r_matrix_checks(sequence(jordanian_factor(n, 1)), witness=w))
        results.append(
            r_matrix_checks(extended_twist_generic(n, carrier_column(n), rat(1, 2)), witness=w)
        )
        if n >= 4:
            results.append(r_matrix_checks(chain_twist(n, 1), witness=w))

    if "antipode" in cfg.suites:
        jord_gens = [cartan_element(n, 1, n), gen(1, n)]
        results.append(
            antipode_checks(sequence(jordanian_factor(n, 1)), jord_gens, witness=w)
        )
        ext_gens = list(carrier_generators(n, carrier_column(n), rat(1, 2)))
        results.append(
            antipode_checks(
                extended_twist_generic(n, carrier_column(n), rat(1, 2)), ext_gens, witness=w
            )
        )

    if "matreshka" in cfg.suites:
        results.append(verify_matreshka(n, witness=w))

    if "transitions" in cfg.suites:
        results.append(verify_transition_schemes(n, witness=w))

    if cfg.dump_dir:
        os.makedirs(cfg.dump_dir, exist_ok=True)
        for name, seq in _named_twists(cfg).items():
            path = os.path.join(cfg.dump_dir, f"{_slug(name)}_N{n}.mat")
            dump_matrix(materialize(seq, w, w), path)

    results.sort(key=lambda res: res.name)
    return SuiteReport(cfg, results, time.perf_counter() - t0)


def _block_pairs(n: int):
    if n >= 6:
        return [(1, 3), (2, 3), (1, n - 1), (1, n), (2, n - 1), (2, n), (3, n - 1), (3, n)]
    return [(1, 2), (1, n), (2, n)]


def _slug(name: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in name).strip("_")


# -- emission ------------------------------------------------------------------


def emit_report(rep: SuiteReport, fmt: str = None) -> str:
    fmt = fmt or rep.config.output
    if fmt == "json":
        return json.dumps(rep.to_dict(), indent=2)
    lines = []
    for r in rep.results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status} {r.name} residual={r.residual_nnz}")
    lines.append(f"{rep.passed} passed / {rep.failed} failed")
    return "\n".join(lines) + "\n"


def dump_matrix(m: SparseMatrix, path: str):
    with open(path, "w") as fh:
        fh.write(dump_matrix_text(m))


def load_matrix(path: str) -> SparseMatrix:
    with open(path) as fh:
        return parse_matrix_text(fh.read())


def config_from_dict(data: dict) -> SuiteConfig:
    try:
        # a string would be split into characters below
        for key in ("suites", "r_values", "alpha_values"):
            if key in data and not isinstance(data[key], list):
                raise ConfigInvalid(f"{key!r} must be a list, got {data[key]!r}")
        return SuiteConfig(
            n=int(data["n"]),
            suites=tuple(data["suites"]),
            r_values=tuple(int(r) for r in data.get("r_values", ())),
            alpha_values=tuple(
                parse_rat(str(a)) for a in data.get("alpha_values", DEFAULT_ALPHAS)
            ),
            witness=data.get("witness", "fundamental"),
            output=data.get("output", "text"),
            dump_dir=data.get("dump_dir"),
        )
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigInvalid(f"bad config: {exc}") from exc
