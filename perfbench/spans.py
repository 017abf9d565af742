"""Outside-in span tracer for twistlab's layers.

The tracer wraps the public functions of `exact`, `expr`, `twists`, `hopf`,
`states` and `report` from outside the package, so no file of the program
changes.  Each of those modules binds its own `from .exact import kron`
style names, so a function is replaced in *every* twistlab module that holds
the original object; `SparseMatrix`, `Tally` and `TwistedCoalgebra` methods
are replaced on the class.  `install` ends with a self-check that fails
when any listed name still holds its original somewhere, so no layer can
silently read zero.

Spans are kept in memory as flat arrays (name id, parent index, start, end)
and written out once, at the end, by `write_spans`.  Times are taken on a
clock from which the tracer's own bookkeeping (span records and the
counters below) is subtracted, so per-layer times are not inflated by the
tracer; the wall-clock cost that remains is reported as overhead.
"""

import array
import json
import math
import os
import sys
from time import perf_counter

INT64_MAX = 2 ** 63 - 1

# (span name, module, attribute) for module-level functions.
FUNCTIONS = (
    ("exact.kron", "exact", "kron"),
    ("exact.analytic_apply", "exact", "analytic_apply"),
    ("exact.nilpotency_index", "exact", "nilpotency_index"),
    ("expr.eval_expr", "expr", "eval_expr"),
    ("expr.eval_tensor_pairs", "expr", "eval_tensor_pairs"),
    ("twists.materialize_factor", "twists", "materialize_factor"),
    ("twists.materialize", "twists", "materialize"),
    ("hopf.cocycle_check", "hopf", "cocycle_check"),
    ("hopf.counit_check", "hopf", "counit_check"),
    ("hopf.r_matrix_checks", "hopf", "r_matrix_checks"),
    ("hopf.antipode_checks", "hopf", "antipode_checks"),
    ("hopf.coassociativity_check", "hopf", "coassociativity_check"),
    ("hopf.verify_dragging", "hopf", "verify_dragging"),
    ("states.verify_state", "states", "verify_state"),
    ("states.verify_diagram", "states", "verify_diagram"),
    ("states.expected_entry", "states", "expected_entry"),
    ("states.two_jordanian_table_check", "states", "two_jordanian_table_check"),
    ("states.verify_matreshka", "states", "verify_matreshka"),
    ("states.verify_transition_schemes", "states", "verify_transition_schemes"),
    ("report.run_suite", "report", "run_suite"),
    ("report.emit_report", "report", "emit_report"),
    ("report.dump_matrix", "report", "dump_matrix"),
    ("report.core_property_checks", "report", "core_property_checks"),
)

# (span name, module, class, method) for methods patched on the class.
METHODS = (
    ("exact.matmul", "exact", "SparseMatrix", "__mul__"),
    ("exact.add", "exact", "SparseMatrix", "__add__"),
    ("hopf.TwistedCoalgebra", "hopf", "TwistedCoalgebra", "__init__"),
    ("hopf.coproduct", "hopf", "TwistedCoalgebra", "coproduct"),
    ("hopf.Tally.equal", "hopf", "Tally", "equal"),
)


class TraceInstallError(RuntimeError):
    """A listed name was missing or still held its original after patching."""


def int_form(m):
    """(common denominator, max |numerator| over it, max row nnz) of m."""
    den = 1
    widest = 0
    for row in m.rows.values():
        if len(row) > widest:
            widest = len(row)
        for v in row.values():
            d = v.denominator
            if den % d:
                den = math.lcm(den, d)
    top = 0
    for row in m.rows.values():
        for v in row.values():
            a = abs(v.numerator) * (den // v.denominator)
            if a > top:
                top = a
    return den, top, widest


def int64_safe(a, b) -> bool:
    """True when a*b in common-denominator integer form provably fits int64.

    Every product entry is a sum of at most (max row nnz of a) terms, each
    bounded by max|num a| * max|num b|; the result's denominator is the
    product of the two common denominators.
    """
    den_a, top_a, widest_a = int_form(a)
    den_b, top_b, _ = int_form(b)
    return top_a * top_b * widest_a <= INT64_MAX and den_a * den_b <= INT64_MAX


class Tracer:
    """Span store plus the per-layer counters measured at the same boundaries."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.outer = array.array("b")  # 1 unless nested in a span of the same name
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack = []
        self._depth = []
        self._excluded = 0.0
        self.counters = {
            "exact.matmul.madds": 0,
            "exact.matmul.out_nnz": 0,
            "exact.matmul.int64_safe": 0,
            "exact.peak_nnz": 0,
            "exact.peak_dim": 0,
            "hopf.Tally.equal.equal": 0,
            "report.dump_matrix.bytes": 0,
        }
        self.factor_keys = set()
        self._restore = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def wrap(self, name, fn, after=None):
        """Return fn recorded as span `name`; `after(args, kwargs, out)` adds counters."""
        nid = self._id(name)
        tr = self
        depth = self._depth
        stack = self._stack

        def traced(*args, **kwargs):
            t_in = perf_counter()
            idx = len(tr.start)
            tr.name.append(nid)
            tr.parent.append(stack[-1] if stack else -1)
            tr.outer.append(1 if depth[nid] == 0 else 0)
            depth[nid] += 1
            tr.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            tr._excluded += t0 - t_in
            tr.start.append(t0 - tr._excluded)
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tr.end[idx] = t1 - tr._excluded
                stack.pop()
                depth[nid] -= 1
            if after is not None:
                after(args, kwargs, out)
            tr._excluded += perf_counter() - t1
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- counters -------------------------------------------------------

    def _peak(self, m):
        c = self.counters
        nnz = m.nnz
        if nnz > c["exact.peak_nnz"]:
            c["exact.peak_nnz"] = nnz
        if m.dim > c["exact.peak_dim"]:
            c["exact.peak_dim"] = m.dim

    def _after_matmul(self, args, kwargs, out):
        a, b = args
        orows = b.rows
        madds = 0
        for row in a.rows.values():
            for k in row:
                brow = orows.get(k)
                if brow is not None:
                    madds += len(brow)
        c = self.counters
        c["exact.matmul.madds"] += madds
        c["exact.matmul.out_nnz"] += out.nnz
        c["exact.matmul.int64_safe"] += int64_safe(a, b)
        self._peak(out)

    def _after_peak(self, args, kwargs, out):
        self._peak(out)

    def _after_factor(self, args, kwargs, out):
        factor, left, right = args[:3]
        inverse = bool(args[3] if len(args) > 3 else kwargs.get("inverse", False))
        self.factor_keys.add((factor, left.name, left.dim, right.name, right.dim, inverse))

    def _after_equal(self, args, kwargs, out):
        _tally, lhs, rhs = args
        self.counters["hopf.Tally.equal.equal"] += lhs == rhs

    def _after_dump(self, args, kwargs, out):
        self.counters["report.dump_matrix.bytes"] += os.path.getsize(args[1])

    # -- install / uninstall --------------------------------------------

    def install(self, package_name: str = "twistlab"):
        """Patch every listed layer boundary, then verify nothing was missed."""
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == package_name or name.startswith(package_name + "."))
        }
        try:
            originals = self._patch(modules)
            self._self_check(modules, originals)
        except TraceInstallError:
            self.uninstall()
            raise

    def _patch(self, modules) -> list:
        home = {name.rsplit(".", 1)[-1]: mod for name, mod in modules.items()}
        hooks = {
            "exact.add": self._after_peak,
            "exact.kron": self._after_peak,
            "twists.materialize_factor": self._after_factor,
            "hopf.Tally.equal": self._after_equal,
            "report.dump_matrix": self._after_dump,
        }
        originals = []
        for span, mod_name, attr in FUNCTIONS:
            original = getattr(home.get(mod_name), attr, None)
            if original is None:
                raise TraceInstallError(f"{mod_name}.{attr} not found")
            wrapper = self.wrap(span, original, hooks.get(span))
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))
            originals.append((f"{mod_name}.{attr}", original))
        for span, mod_name, cls_name, attr in METHODS:
            cls = getattr(home.get(mod_name), cls_name, None)
            original = vars(cls).get(attr) if cls is not None else None
            if original is None:
                raise TraceInstallError(f"{mod_name}.{cls_name}.{attr} not found")
            if span == "exact.matmul":
                wrapper = self._matmul_wrapper(cls, original)
            else:
                wrapper = self.wrap(span, original, hooks.get(span))
            setattr(cls, attr, wrapper)
            self._restore.append((cls, attr, original))
            originals.append((f"{mod_name}.{cls_name}.{attr}", original))
        return originals

    def _matmul_wrapper(self, cls, original):
        traced = self.wrap("exact.matmul", original, self._after_matmul)

        def mul(a, b):
            # scalar products share __mul__ but are not matrix products
            if isinstance(b, cls):
                return traced(a, b)
            return original(a, b)

        mul.__wrapped__ = original
        return mul

    def _self_check(self, modules, originals):
        missed = []
        for label, original in originals:
            for mod_name, mod in modules.items():
                for key, value in vars(mod).items():
                    if value is original:
                        missed.append(f"{mod_name}.{key} still holds {label}")
                    elif isinstance(value, type):
                        for attr, member in vars(value).items():
                            if member is original:
                                missed.append(f"{mod_name}.{key}.{attr} still holds {label}")
        if missed:
            raise TraceInstallError("; ".join(missed))

    def uninstall(self):
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    # -- aggregation ----------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metrics, keyed by the names the benchmark emits."""
        count = len(self.start)
        ids = self._ids
        calls = [0] * len(self.names)
        incl = [0.0] * len(self.names)
        selfs = [0.0] * len(self.names)
        child = [0.0] * count
        direct_matmuls = [0] * len(self.names)
        name, parent, outer, start, end = self.name, self.parent, self.outer, self.start, self.end
        matmul_id = ids.get("exact.matmul", -1)
        for i in range(count):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
                if name[i] == matmul_id:
                    direct_matmuls[name[p]] += 1
        childless = [True] * count
        for i in range(count):
            p = parent[i]
            if p >= 0:
                childless[p] = False
        eval_id = ids.get("expr.eval_expr", -1)
        eval_hits = 0
        for i in range(count):
            nid = name[i]
            dur = end[i] - start[i]
            calls[nid] += 1
            selfs[nid] += dur - child[i]
            if outer[i]:
                incl[nid] += dur
            if nid == eval_id and childless[i]:
                eval_hits += 1

        def get(table, span):
            nid = ids.get(span)
            return table[nid] if nid is not None else 0

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counters
        mm_calls = get(calls, "exact.matmul")
        mf_calls = get(calls, "twists.materialize_factor")
        eq_calls = get(calls, "hopf.Tally.equal")
        ev_calls = get(calls, "expr.eval_expr")
        out = {
            "exact.matmul.calls": mm_calls,
            "exact.matmul.self_s": get(selfs, "exact.matmul"),
            "exact.matmul.madds": c["exact.matmul.madds"],
            "exact.matmul.out_nnz": c["exact.matmul.out_nnz"],
            "exact.matmul.int64_safe_ratio": ratio(c["exact.matmul.int64_safe"], mm_calls),
            "exact.add.calls": get(calls, "exact.add"),
            "exact.add.self_s": get(selfs, "exact.add"),
            "exact.kron.calls": get(calls, "exact.kron"),
            "exact.kron.self_s": get(selfs, "exact.kron"),
            "exact.peak_nnz": c["exact.peak_nnz"],
            "exact.peak_dim": c["exact.peak_dim"],
            "exact.analytic_apply.calls": get(calls, "exact.analytic_apply"),
            "exact.analytic_apply.self_s": get(selfs, "exact.analytic_apply"),
            "exact.analytic_apply.matmuls": get(direct_matmuls, "exact.analytic_apply"),
            "exact.nilpotency_index.self_s": get(selfs, "exact.nilpotency_index"),
            "exact.nilpotency_index.matmuls": get(direct_matmuls, "exact.nilpotency_index"),
            "twists.materialize_factor.calls": mf_calls,
            "twists.materialize_factor.s": get(incl, "twists.materialize_factor"),
            "twists.materialize_factor.distinct_ratio": ratio(len(self.factor_keys), mf_calls),
            "twists.materialize.calls": get(calls, "twists.materialize"),
            "twists.materialize.s": get(incl, "twists.materialize"),
            "hopf.TwistedCoalgebra.calls": get(calls, "hopf.TwistedCoalgebra"),
            "hopf.TwistedCoalgebra.s": get(incl, "hopf.TwistedCoalgebra"),
            "hopf.Tally.equal.calls": eq_calls,
            "hopf.Tally.equal.s": get(incl, "hopf.Tally.equal"),
            "hopf.Tally.equal.equal_ratio": ratio(c["hopf.Tally.equal.equal"], eq_calls),
            "expr.eval_expr.calls": ev_calls,
            "expr.eval_expr.s": get(incl, "expr.eval_expr"),
            "expr.eval_expr.hit_ratio": ratio(eval_hits, ev_calls),
            "expr.eval_tensor_pairs.s": get(incl, "expr.eval_tensor_pairs"),
        }
        for span in (
            "hopf.cocycle_check", "hopf.counit_check", "hopf.r_matrix_checks",
            "hopf.antipode_checks", "hopf.coassociativity_check", "hopf.verify_dragging",
            "hopf.coproduct",
            "states.verify_state", "states.verify_diagram", "states.expected_entry",
            "states.two_jordanian_table_check", "states.verify_matreshka",
            "states.verify_transition_schemes",
            "report.run_suite", "report.emit_report", "report.dump_matrix",
            "report.core_property_checks",
        ):
            out[f"{span}.s"] = get(incl, span)
        out["report.dump_matrix.bytes"] = c["report.dump_matrix.bytes"]
        return out

    def write_spans(self, path: str):
        """Write every span: one JSON header line, then the raw arrays."""
        header = {
            "names": self.names,
            "count": len(self.start),
            "arrays": [["name", "i"], ["parent", "i"], ["outer", "b"], ["start", "d"], ["end", "d"]],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for field, _code in header["arrays"]:
                getattr(self, field).tofile(fh)


def read_spans(path: str) -> dict:
    """Inverse of `Tracer.write_spans`: names plus one array per field."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        out = {"names": header["names"]}
        for field, code in header["arrays"]:
            arr = array.array(code)
            arr.fromfile(fh, header["count"])
            out[field] = arr
    return out
