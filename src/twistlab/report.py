"""Suite runner, configuration, and machine/human reports."""

import json
import os
import random
import time
from dataclasses import dataclass, fields
from typing import Optional, Tuple

from .errors import ConfigInvalid
from .exact import (
    EXP,
    LOG1P,
    SparseMatrix,
    _add_into,
    _powers,
    analytic_apply,
    dump_matrix_lines,
    kron,
    parse_matrix_text,
    pow1p,
)
from .expr import Morphism, coproduct_morphism, fundamental_morphism, gen
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
    heisenberg_pair_generators,
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

DEFAULT_ALPHAS = (rat(0), rat(1, 3), rat(1, 2), rat(2, 5))

# witness name -> its representation of gl(N); "doubled" is x -> x(x)1 + 1(x)x
WITNESSES = {"fundamental": fundamental_morphism, "doubled": coproduct_morphism}


@dataclass
class SuiteConfig:
    n: int
    suites: Tuple[str, ...]
    r_values: Optional[Tuple[int, ...]] = None  # None: every column r
    alpha_values: Tuple = DEFAULT_ALPHAS
    witness: str = "fundamental"
    output: str = "text"
    dump_dir: Optional[str] = None

    def validate(self):
        if self.n < 2:
            raise ConfigInvalid(f"N must be >= 2, got {self.n}")
        unknown = [s for s in self.suites if s not in SUITES]
        if unknown:
            raise ConfigInvalid(f"unknown suites {unknown}; choose from {SUITE_NAMES}")
        if not self.suites:
            raise ConfigInvalid("no suites requested")
        if not self.alpha_values:
            raise ConfigInvalid("no alpha values")
        # reject instead of silently skipping: every requested check must run
        for name in self.suites:
            need, _ = SUITES[name]
            if self.n < need:
                raise ConfigInvalid(f"suite {name!r} requires N >= {need}")
        if self.witness not in WITNESSES:
            raise ConfigInvalid(f"unknown witness {self.witness!r}")
        if self.output not in ("text", "json"):
            raise ConfigInvalid(f"unknown output format {self.output!r}")
        if self.dump_dir == "":
            raise ConfigInvalid("dump_dir '' names no directory; leave it out to write no dumps")
        # below N = 5 there is no column r, and [] is every r, as the echo shows
        if self.r_values is not None and not self.r_values and self.n >= 5:
            raise ConfigInvalid("no r values")
        for r in self.r_values or ():
            if not 3 <= r <= self.n - 2:
                raise ConfigInvalid(f"r={r} outside 3..{self.n - 2}")

    def effective_r_values(self) -> Tuple[int, ...]:
        if self.r_values:
            return tuple(dict.fromkeys(self.r_values))
        return tuple(range(3, self.n - 1))

    def effective_alpha_values(self) -> Tuple:
        # by value, so 1/3 and 2/6 are one carrier split
        return tuple(dict.fromkeys(rat(a) for a in self.alpha_values))

    def build_witness(self) -> Morphism:
        return WITNESSES[self.witness](self.n)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "suites": list(self.suites),
            "r_values": list(self.effective_r_values()),
            "alpha_values": [rat_str(a) for a in self.effective_alpha_values()],
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


def _randint(rng: random.Random, a: int, b: int) -> int:
    """rng.randint(a, b), drawn from rng.getrandbits as CPython draws it."""
    n = b - a + 1
    k = n.bit_length()
    while (r := rng.getrandbits(k)) >= n:  # _randbelow's rejection loop
        pass
    return a + r


def _random_matrix(rng: random.Random, dim: int) -> SparseMatrix:
    getrandbits, k = rng.getrandbits, dim.bit_length()
    while (count := getrandbits(k + 1)) >= 2 * dim:  # randint(1, 2 * dim) - 1
        pass
    rows: dict = {}
    for _ in range(count + 1):
        while (i := getrandbits(k)) >= dim:  # randint(1, dim) - 1
            pass
        while (j := getrandbits(k)) >= dim:
            pass
        while (n := getrandbits(4)) >= 9:  # randint(-4, 4) + 4
            pass
        while (d := getrandbits(3)) >= 4:  # randint(1, 4) - 1
            pass
        i, j, v = i + 1, j + 1, (n - 4) * (12 // (d + 1))
        if v:  # as in _case: the last draw at a place is kept, and a 0 clears it
            row = rows.get(i)
            if row is None:
                rows[i] = {j: v}
            else:
                row[j] = v
        elif (row := rows.get(i)) is not None and row.pop(j, 0) and not row:
            del rows[i]
    return SparseMatrix(dim, rows, 12).reduced()


def _case(dim: int, entries, perm) -> SparseMatrix:
    """Each (i, j, n) as n / 12 at (perm[i - 1], perm[j - 1]), the last at a place
    kept, zeros dropped, reduced."""
    rows: dict = {}
    for i, j, v in entries:
        i, j = perm[i - 1], perm[j - 1]
        if v:
            row = rows.get(i)
            if row is None:
                rows[i] = {j: v}
            else:
                row[j] = v
        elif (row := rows.get(i)) is not None and row.pop(j, 0) and not row:
            del rows[i]
    return SparseMatrix(dim, rows, 12).reduced()


def _random_nilpotent(rng: random.Random, dim: int) -> SparseMatrix:
    getrandbits, k = rng.getrandbits, (dim - 1).bit_length()
    while (count := getrandbits(dim.bit_length() + 1)) >= 2 * dim:  # randint(1, 2 * dim) - 1
        pass
    entries = []
    for _ in range(count + 1):
        while (i := getrandbits(k)) >= dim - 1:  # randint(1, dim - 1) - 1
            pass
        span = dim - 1 - i  # randint(i + 2, dim) - (i + 2) below
        while (j := getrandbits(span.bit_length())) >= span:
            pass
        while (n := getrandbits(4)) >= 9:
            pass
        while (d := getrandbits(3)) >= 4:
            pass
        entries.append((i + 1, i + 2 + j, (n - 4) * (12 // (d + 1))))
    # P m P^T keeps nilpotency but leaves the triangle: (i, j) goes to (perm[i - 1], perm[j - 1])
    perm = list(range(1, dim + 1))
    for p in range(dim - 1, 0, -1):  # rng.shuffle(perm)'s Fisher-Yates
        while (j := getrandbits((p + 1).bit_length())) > p:  # randint(0, p)
            pass
        perm[p], perm[j] = perm[j], perm[p]
    return _case(dim, entries, perm)


def _random_polynomials(rng: random.Random, m: SparseMatrix) -> tuple:
    """a, b = the sum over k = 1..K of (n/d) m^k, K in 1..3, n in -3..3, d in 1..3.

    A nonzero m^k has den m.den^k, so both sum in ints over den 6 * m.den^3.
    """
    a, b = {}, {}
    for k in range(1, _randint(rng, 1, 3) + 1):
        power = m if k == 1 else power * m
        for rows in (a, b):
            num = _randint(rng, -3, 3) * (6 // _randint(rng, 1, 3))
            if num:
                _add_into(rows, power.rows, num * m.den ** (3 - k))
    return tuple(SparseMatrix(m.dim, rows, 6 * m.den**3) for rows in (a, b))


def core_property_checks(cases: int = 1000, seed: int = 20240801) -> list:
    """Randomized exact-core invariants; every case must hold exactly.

    Four laws, cases // 4 cases each and the rest for exp-additivity, so
    cases must be at least 4 (ValueError otherwise: a law with no case
    would pass with nothing compared):
    mixed-product (A x B)(C x D) = AC x BD, A, C and B, D of dim 2..4;
    exp-log-roundtrip exp(log(1 + m)) = 1 + m; pow1p-inverse
    (1 + m)^q (1 + m)^-q = 1, q = n/d with n in -6..6, d in 1..4; and
    exp-additivity ab = ba and exp(a + b) = exp(a) exp(b), a and b from
    _random_polynomials.  A matrix has 1..2*dim drawn entries n/d, n in
    -4..4, d in 1..4, the last draw at a place kept; a nilpotent m (dim
    2..5) has them above the diagonal, then a random permutation relabels
    its indices.  Cases are built in ints, n/d as n * (12 // d) over den 12,
    numerator drawn first, each matrix's rows written as it draws (a
    nilpotent's once its permutation is drawn).  The draws are
    random.Random's, bit for bit: CPython's randint(a, b) is
    a + _randbelow(b - a + 1), _randbelow(n) redraws
    getrandbits(n.bit_length()) until it is below n, and shuffle is
    Fisher-Yates from the end; _randint and the case builders' inline loops
    repeat them.  pow1p-inverse builds m's power chain once for both series.
    """
    if cases < 4:
        raise ValueError(f"core_property_checks needs cases >= 4, got {cases}")
    rng = random.Random(seed)
    per = cases // 4
    results = []

    tally = Tally("core[mixed-product]")
    for _ in range(per):
        dim_a, dim_b = _randint(rng, 2, 4), _randint(rng, 2, 4)
        a, c = _random_matrix(rng, dim_a), _random_matrix(rng, dim_a)
        b, d = _random_matrix(rng, dim_b), _random_matrix(rng, dim_b)
        tally.equal(kron(a, b) * kron(c, d), kron(a * c, b * d))
    results.append(tally.result())

    tally = Tally("core[exp-log-roundtrip]")
    for _ in range(per):
        m = _random_nilpotent(rng, _randint(rng, 2, 5))
        got = analytic_apply(EXP, analytic_apply(LOG1P, m))
        tally.equal(got, SparseMatrix.identity(m.dim) + m)
    results.append(tally.result())

    tally = Tally("core[pow1p-inverse]")
    for _ in range(per):
        m = _random_nilpotent(rng, _randint(rng, 2, 5))
        q = rat(_randint(rng, -6, 6), _randint(rng, 1, 4))
        powers = _powers(m)
        lhs = analytic_apply(pow1p(q), m, powers) * analytic_apply(pow1p(-q), m, powers)
        tally.equal(lhs, SparseMatrix.identity(m.dim))
    results.append(tally.result())

    tally = Tally("core[exp-additivity]")
    for _ in range(cases - 3 * per):
        m = _random_nilpotent(rng, _randint(rng, 2, 5))
        a, b = _random_polynomials(rng, m)
        tally.equal(a * b, b * a)
        tally.equal(
            analytic_apply(EXP, a + b), analytic_apply(EXP, a) * analytic_apply(EXP, b)
        )
    results.append(tally.result())
    return results


# -- suite assembly -----------------------------------------------------------


def _axiom_pair(seq: TwistSequence, witness) -> list:
    return [cocycle_check(seq, witness), counit_check(seq, witness)]


def _named_twists(cfg: SuiteConfig) -> dict:
    n = cfg.n
    out = {"jordanian": sequence(jordanian_factor(n, 1))}
    for alpha in cfg.effective_alpha_values():
        out[f"extended(a={rat_str(alpha)})"] = extended_twist_generic(
            n, carrier_column(n), alpha
        )
    if n >= 4:
        out["2chain"] = chain_twist(n, 1)
    p_max = (n - 2) // 2
    if p_max > 1:
        out[f"chain(p={p_max})"] = chain_twist(n, p_max)
    return out


def _twist_axioms(cfg: SuiteConfig, w) -> list:
    n = cfg.n
    results = _axiom_pair(sequence(jordanian_factor(n, 1)), w)
    for alpha in cfg.effective_alpha_values():
        seq = extended_twist_generic(n, carrier_column(n), alpha)
        results.extend(_axiom_pair(seq, w))
    if n >= 6:
        base = sequence(jordanian_factor(n, 1), jordanian_factor(n, 2))
        for which in ("E0tilde", "E1tilde"):
            composite = base.then(external_factor(n, which))
            results.extend(_axiom_pair(composite, w))
    return results


def _chain(cfg: SuiteConfig, w) -> list:
    n = cfg.n
    two = chain_twist(n, 1)
    results = _axiom_pair(two, w)
    # factor-by-factor against successively twisted coproducts
    for i, f in enumerate(two.factors):
        base = TwistSequence(two.factors[:i], n)
        results.append(cocycle_check(sequence(f), w, base=base))
    # the Heisenberg block at column 3, which needs N >= 6; else three carriers
    if n >= 6:
        gens = list(heisenberg_pair_generators(n, 3).values())
    else:
        gens = [gen(1, 2), gen(1, n), gen(2, n)]
    results.append(coassociativity_check(two, gens, w))
    p_max = (n - 2) // 2
    if p_max > 1:
        results.extend(_axiom_pair(chain_twist(n, p_max), w))
    return results


def _rmatrix(cfg: SuiteConfig, w) -> list:
    n = cfg.n
    results = [
        r_matrix_checks(sequence(jordanian_factor(n, 1)), w),
        r_matrix_checks(extended_twist_generic(n, carrier_column(n), rat(1, 2)), w),
    ]
    if n >= 4:
        results.append(r_matrix_checks(chain_twist(n, 1), w))
    return results


def _antipode(cfg: SuiteConfig, w) -> list:
    n = cfg.n
    jord_gens = [cartan_element(n, 1, n), gen(1, n)]
    results = [antipode_checks(sequence(jordanian_factor(n, 1)), jord_gens, w)]
    ext_gens = list(carrier_generators(n, carrier_column(n), rat(1, 2)))
    results.append(
        antipode_checks(extended_twist_generic(n, carrier_column(n), rat(1, 2)), ext_gens, w)
    )
    return results


# suite name -> (smallest N it is defined at, builder (cfg, witness) -> results),
# in listing order; builders call checks by their module-global names, which
# is what a tracer patches
SUITES = {
    "core": (2, lambda cfg, w: core_property_checks(cases=200)),
    "twist-axioms": (3, _twist_axioms),
    "chain": (4, _chain),
    "nine-states": (6, lambda cfg, w: [two_jordanian_table_check(w)] + [
        verify_state(sid, r, w) for r in cfg.effective_r_values() for sid in STATE_IDS
    ]),
    "diagram": (6, lambda cfg, w: [verify_dragging(w)] + [
        verify_diagram(r, w) for r in cfg.effective_r_values()
    ]),
    "rmatrix": (3, _rmatrix),
    "antipode": (3, _antipode),
    "matreshka": (4, lambda cfg, w: [verify_matreshka(w)]),
    "transitions": (3, lambda cfg, w: [verify_transition_schemes(w)]),
}
SUITE_NAMES = tuple(SUITES)


def run_suite(cfg: SuiteConfig) -> SuiteReport:
    """Execute every requested check.

    A check whose identity fails is a result; a check that raises aborts the
    run, and the CLI reports a TwistlabError with exit code 2.
    """
    cfg.validate()
    t0 = time.perf_counter()
    w = cfg.build_witness()
    results = []
    # registry order, so a suite named twice still runs once
    for name, (_, build) in SUITES.items():
        if name in cfg.suites:
            results.extend(build(cfg, w))

    if cfg.dump_dir:
        os.makedirs(cfg.dump_dir, exist_ok=True)
        for name, seq in _named_twists(cfg).items():
            path = os.path.join(cfg.dump_dir, f"{_slug(name)}_N{cfg.n}.mat")
            dump_matrix(materialize(seq, w, w), path)

    results.sort(key=lambda res: res.name)
    return SuiteReport(cfg, results, time.perf_counter() - t0)


def _slug(name: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in name).strip("_")


# -- emission ------------------------------------------------------------------


def emit_report(rep: SuiteReport) -> str:
    if rep.config.output == "json":
        return json.dumps(rep.to_dict(), indent=2)
    lines = []
    for r in rep.results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status} {r.name} residual={r.residual_nnz}")
    lines.append(f"{rep.passed} passed / {rep.failed} failed")
    return "\n".join(lines) + "\n"


def dump_matrix(m: SparseMatrix, path: str):
    with open(path, "w") as fh:
        fh.writelines(dump_matrix_lines(m))


def load_matrix(path: str) -> SparseMatrix:
    with open(path) as fh:
        return parse_matrix_text(fh.read())


def _config_exact(value, key: str, kind: str = "an integer"):
    # int() would truncate 6.7 to 6 and read True as 1; parse_rat would get '0.5'
    if isinstance(value, (bool, float)):
        raise ConfigInvalid(f"{key!r} needs {kind}, got {value!r}")
    return value


def config_from_dict(data: dict) -> SuiteConfig:
    if not isinstance(data, dict):
        raise ConfigInvalid(f"a config is a JSON object, got {data!r}")
    unknown = sorted(set(data) - {f.name for f in fields(SuiteConfig)})
    if unknown:  # the keys are SuiteConfig's fields, as its report's "config" echoes them
        raise ConfigInvalid(f"unknown config keys {unknown}")
    try:
        # a string would be split into characters below
        for key in ("suites", "r_values", "alpha_values"):
            if key in data and not isinstance(data[key], list):
                raise ConfigInvalid(f"{key!r} must be a list, got {data[key]!r}")
        # a list or object entry would reach the SUITES lookup unhashable
        if not all(isinstance(s, str) for s in data.get("suites", ())):
            raise ConfigInvalid(f"'suites' entries must be strings, got {data['suites']!r}")
        # a list would reach the WITNESSES lookup unhashable, a number os.makedirs
        for key in ("witness", "output", "dump_dir"):
            if data.get(key) is not None and not isinstance(data[key], str):
                raise ConfigInvalid(f"{key!r} must be a string, got {data[key]!r}")
        # a key the object leaves out takes SuiteConfig's default
        parsed = {**data, "n": int(_config_exact(data["n"], "n")), "suites": tuple(data["suites"])}
        if "r_values" in data:
            parsed["r_values"] = tuple(int(_config_exact(r, "r_values")) for r in data["r_values"])
        if "alpha_values" in data:
            parsed["alpha_values"] = tuple(
                parse_rat(str(_config_exact(a, "alpha_values", "an integer or a 'p/q' string")))
                for a in data["alpha_values"]
            )
        return SuiteConfig(**parsed)
    except ConfigInvalid:
        raise
    except KeyError as exc:
        raise ConfigInvalid(f"bad config: missing key {exc}") from exc
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigInvalid(f"bad config: {exc}") from exc
