"""Timing wrappers around the public functions of each `leopoldt` layer.

`Tracer.install` rebinds every wrapped function in each `leopoldt` module
that holds a reference to it (so `lfunc`'s calls into `ring` are seen) and
wraps `RingElem.__eq__`, `RingElem.__mul__` and the `coeffs`/`binomial`
properties on the class.  Each call records a span (name, layer, start,
end, parent span, call id); spans stay in memory until `write`.
`uninstall` puts the original objects back.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("padic", "ring", "pseudo", "ratfun", "characters", "lfunc")

TRACED_FUNCTIONS = {
    "padic": ("kappa_exponent", "kappa_exponent_table"),
    "ring": ("op_isotypic", "op_unit_part", "op_leopoldt", "substitute_exp",
             "op_derivative", "invariants", "evaluate"),
    "pseudo": ("apply_leopoldt", "apply_isotypic", "apply_unit_part",
               "apply_derivative", "to_ring", "equal_test"),
    "ratfun": ("sym_poly_criterion", "u_rat", "d_rat", "rat_fp", "compose_inv"),
    "characters": ("bernoulli_chi", "lp_value", "enumerate_even_theta",
                   "characters_mod"),
    "lfunc": ("lambda_sum_cyclotomic", "iwasawa_invariants", "iwasawa_series",
              "g_c_surrogate", "f_chi", "interpolation_selfcheck",
              "not_pseudorational_report"),
}
RING_METHODS = {"eq": "__eq__", "mul": "__mul__"}
RING_PROPERTIES = ("coeffs", "binomial")

# Ring calls whose first argument is the element worked on; their p**m is
# summed into ring.q_sum (the cached property reads are not counted).
Q_SUM_OPERATORS = ("op_isotypic", "op_unit_part", "op_leopoldt", "substitute_exp",
                   "op_derivative", "invariants", "evaluate", "eq", "mul")

# <layer>.<function>.<stat> metrics read off the spans.
SPAN_METRICS = (
    ("ring", "op_isotypic", ("s", "calls")),
    ("ring", "op_unit_part", ("s",)),
    ("ring", "op_leopoldt", ("s",)),
    ("ring", "substitute_exp", ("s",)),
    ("ring", "mul", ("s",)),
    ("ring", "invariants", ("s",)),
    ("ring", "coeffs", ("s", "calls")),
    ("ring", "binomial", ("s",)),
    ("ring", "eq", ("s", "calls")),
    ("ring", "op_derivative", ("s",)),
    ("ring", "evaluate", ("s",)),
    ("lfunc", "g_c_surrogate", ("s", "calls")),
    ("lfunc", "iwasawa_series", ("s", "calls")),
    ("lfunc", "f_chi", ("s",)),
    ("lfunc", "interpolation_selfcheck", ("s",)),
    ("padic", "kappa_exponent_table", ("s",)),
    ("padic", "kappa_exponent", ("s", "calls")),
    ("characters", "bernoulli_chi", ("s", "calls")),
    ("characters", "lp_value", ("s",)),
    ("characters", "enumerate_even_theta", ("s",)),
    ("characters", "characters_mod", ("s",)),
    ("ratfun", "sym_poly_criterion", ("s",)),
    ("ratfun", "u_rat", ("s",)),
    ("ratfun", "d_rat", ("calls",)),
    ("ratfun", "rat_fp", ("s", "calls")),
    ("ratfun", "compose_inv", ("s",)),
    ("pseudo", "apply_leopoldt", ("s",)),
    ("pseudo", "apply_isotypic", ("s",)),
    ("pseudo", "to_ring", ("s",)),
    ("pseudo", "equal_test", ("calls",)),
)
DERIVED_METRICS = (
    ("ring.q_sum", "count"),
    ("lfunc.levels_per_certification", "ratio"),
    ("padic.kappa_exponent_table.hit_ratio", "ratio"),
    ("characters.bernoulli_chi.terms", "count"),
    ("characters.bernoulli_chi.refused", "count"),
    ("pseudo.equal_test.decided_ratio", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage", "ratio"),
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    for layer, fn, stats in SPAN_METRICS:
        for stat in stats:
            units[f"{layer}.{fn}.{stat}"] = "s" if stat == "s" else "count"
    units.update(DERIVED_METRICS)
    return units


# Span fields, in the order they are stored and written.  "work" is p**m of
# the element for a Q_SUM_OPERATORS call and the limit-sum length for a
# bernoulli_chi call that returned; 0 otherwise.
FIELDS = ("name", "layer", "start", "end", "parent", "call_id", "outermost",
          "error", "work")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._restore: list = []
        self.call_id = "setup"

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        spans, stack, depth = self.spans, self._stack, self._depth
        counts_q = name in Q_SUM_OPERATORS
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            outermost = depth[name] == 0
            depth[name] += 1
            stack.append(idx)
            spans.append(None)
            work = 0
            if counts_q and args and hasattr(args[0], "m"):
                work = args[0].p ** args[0].m
            error = None
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                depth[name] -= 1
                if name == "bernoulli_chi" and error is None:
                    work = _limit_sum_terms(*args, **kwargs)
                spans[idx] = (name, layer, t0, t1, parent, tracer.call_id,
                              outermost, error, work)

        return traced

    def install(self) -> None:
        import leopoldt
        from leopoldt.ring import RingElem

        modules = [m for key, m in sys.modules.items()
                   if key == "leopoldt" or key.startswith("leopoldt.")]
        for layer, names in TRACED_FUNCTIONS.items():
            home = getattr(leopoldt, layer)
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(layer, name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, original))
                            setattr(module, attr, wrapper)
        for name, attr in RING_METHODS.items():
            original = RingElem.__dict__[attr]
            self._restore.append((RingElem, attr, original))
            setattr(RingElem, attr, self._wrap("ring", name, original))
        for name in RING_PROPERTIES:
            original = RingElem.__dict__[name]
            self._restore.append((RingElem, name, original))
            setattr(RingElem, name, property(self._wrap("ring", name, original.fget)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- read-out -------------------------------------------------------------

    def metrics(self, traced_seconds: float, kappa_table_info) -> dict[str, float]:
        spans = self.spans
        inclusive: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child_time = [0.0] * len(spans)
        for name, layer, t0, t1, parent, *_ in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        self_s = dict.fromkeys(LAYERS, 0.0)
        q_sum = terms = refused = decided = 0
        levels = 0
        for i, (name, layer, t0, t1, parent, _, outermost, error, work) in enumerate(spans):
            key = f"{layer}.{name}"
            calls[key] += 1
            if outermost:
                inclusive[key] += t1 - t0
            self_s[layer] += (t1 - t0) - child_time[i]
            if name in Q_SUM_OPERATORS and layer == "ring":
                q_sum += work
            if name == "bernoulli_chi":
                terms += work
                refused += error == "ResourceGuardError"
            if name == "equal_test" and error is None:
                decided += 1
            if name == "iwasawa_series" and self._has_ancestor(i, "iwasawa_invariants"):
                levels += 1
        out: dict[str, float] = {f"{layer}.self_s": s for layer, s in self_s.items()}
        for layer, fn, stats in SPAN_METRICS:
            key = f"{layer}.{fn}"
            for stat in stats:
                out[f"{key}.{stat}"] = inclusive[key] if stat == "s" else calls[key]
        hits, misses = kappa_table_info.hits, kappa_table_info.misses
        out["ring.q_sum"] = q_sum
        out["lfunc.levels_per_certification"] = _ratio(
            levels, calls["lfunc.iwasawa_invariants"])
        out["padic.kappa_exponent_table.hit_ratio"] = _ratio(hits, hits + misses)
        out["characters.bernoulli_chi.terms"] = terms
        out["characters.bernoulli_chi.refused"] = refused
        out["pseudo.equal_test.decided_ratio"] = _ratio(
            decided, calls["pseudo.equal_test"])
        out["trace.coverage"] = _ratio(sum(self_s.values()), traced_seconds)
        return out

    def _has_ancestor(self, i: int, name: str) -> bool:
        parent = self.spans[i][4]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][4]
        return False

    def write(self, path) -> None:
        doc = {"fields": FIELDS, "spans": self.spans}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _limit_sum_terms(chi, k, precision, guard=2):
    """d * p**(precision + guard): the length of bernoulli_chi's limit sum."""
    return chi.d * chi.p ** (precision + guard)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
