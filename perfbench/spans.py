"""Per-layer spans and counts, installed from outside the program.

`traced()` replaces each public function of the tropoly modules, and the
methods listed in `_methods()`, with a wrapper that records a span: calls,
inclusive time and self time (the span minus the time of the wrapped
calls made inside it).  A function is replaced in every module namespace
that holds it, so `from .geometry import is_strictly_feasible` in
`canon` is traced as well.  Everything is restored on exit.  Spans are
aggregated per name in memory; nothing is written while the workload
runs.

`layer_metrics()` turns the aggregates into the per-layer metrics named
in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("cli", "polynomial", "geometry", "canon", "variety", "ideals", "univariate")


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = Counter()
        self._stack = []  # [name, time spent in child spans]

    def parent(self):
        return self._stack[-1][0] if self._stack else None

    def wrap(self, name, fn, observe=None):
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - frame[1]
            if observe is not None:
                observe(self, fn, args, kwargs, result)
            return result

        return span


# -- counts read at the layer boundaries -----------------------------------


def _fm(tracer, fn, args, kwargs, result):
    tracer.counts["fm_constraints"] += len(args[0].constraints)
    tracer.counts["fm_feasible"] += bool(result[0])


def _extremal(tracer, fn, args, kwargs, result):
    tracer.counts["extremal_terms_in"] += len(args[0].terms)
    tracer.counts["extremal_terms_out"] += len(result)


def _envelope_query(tracer, fn, args, kwargs, result):
    # `contains` may answer through `value`; count that as one query
    if tracer.parent() != "canon.envelope.contains":
        tracer.counts["envelope_queries"] += 1


def _maxrep(tracer, fn, args, kwargs, result):
    tracer.counts["maxrep_terms"] += len(result.terms)


def _lattice(tracer, fn, args, kwargs, result):
    tracer.counts["lattice_points"] += len(result)


def _divide(tracer, fn, args, kwargs, result):
    tracer.counts["divide_accepted"] += result is not None


def _divides_power(tracer, fn, args, kwargs, result):
    if result is not None:
        tracer.counts["k_reached"] += result[0]
    else:
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        tracer.counts["k_reached"] += bound.arguments["k_max"]


def _cells(tracer, fn, args, kwargs, result):
    tracer.counts["cells_out"] += len(result.cells)


_OBSERVERS = {
    "geometry.is_strictly_feasible": _fm,
    "canon.extremal_monomials": _extremal,
    "canon.envelope.value": _envelope_query,
    "canon.envelope.contains": _envelope_query,
    "canon.RationalPolynomial.max_representative": _maxrep,
    "canon.envelope.lattice": _lattice,
    "canon.divide": _divide,
    "canon.divides_power": _divides_power,
    "variety.variety_cells": _cells,
}


def _methods():
    """(span name, class, attribute) for the methods traced besides the
    public functions.  The envelope class is found through the public API
    (the object `RationalPolynomial.envelope()` returns), not by name."""
    from tropoly.canon import RationalPolynomial, canonicalize
    from tropoly.polynomial import Polynomial

    envelope_type = type(canonicalize(Polynomial.variable(1, 0)).envelope())
    return [
        ("polynomial.mul", Polynomial, "__mul__"),
        ("canon.RationalPolynomial.envelope", RationalPolynomial, "envelope"),
        ("canon.RationalPolynomial.max_representative", RationalPolynomial, "max_representative"),
        ("canon.envelope.value", envelope_type, "value"),
        ("canon.envelope.contains", envelope_type, "contains"),
        ("canon.envelope.lattice", envelope_type, "lattice"),
    ]


def _public_functions(module):
    for attr, value in vars(module).items():
        if (
            not attr.startswith("_")
            and inspect.isfunction(value)
            and value.__module__ == module.__name__
        ):
            yield attr, value


@contextlib.contextmanager
def traced(tracer):
    """Install span wrappers on the tropoly modules for the duration."""
    import tropoly

    modules = [importlib.import_module(f"tropoly.{m}") for m in MODULES]
    namespaces = [tropoly] + modules
    methods = _methods()  # calls the library, so before anything is wrapped
    wrappers = {}
    for short, module in zip(MODULES, modules):
        for attr, fn in _public_functions(module):
            name = f"{short}.{attr}"
            wrappers[id(fn)] = (fn, tracer.wrap(name, fn, _OBSERVERS.get(name)))
    undo = []
    for namespace in namespaces:
        for attr, value in list(vars(namespace).items()):
            if id(value) in wrappers and wrappers[id(value)][0] is value:
                undo.append((namespace, attr, value))
                setattr(namespace, attr, wrappers[id(value)][1])
    for name, cls, attr in methods:
        original = cls.__dict__[attr]
        undo.append((cls, attr, original))
        setattr(cls, attr, tracer.wrap(name, original, _OBSERVERS.get(name)))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# -- per-layer metrics -----------------------------------------------------

# name -> (unit, how to read it from a tracer); `_ms` is self time
def _ms(*spans):
    return lambda t: 1000.0 * sum(t.self_s[s] for s in spans)


def _calls(*spans):
    return lambda t: sum(t.calls[s] for s in spans)


def _count(key):
    return lambda t: t.counts[key]


def _ratio(numerator, denominator):
    return lambda t: numerator(t) / denominator(t) if denominator(t) else 0.0


_PARSE = ("cli.parse_expression", "cli.parse_common", "cli.tokenize")
_ENVELOPE = ("canon.envelope.value", "canon.envelope.contains")

LAYER_METRICS = {
    "cli.commands": ("count", _calls("cli.main")),
    "cli.total_ms": ("ms", lambda t: 1000.0 * t.total_s["cli.main"]),
    "cli.main_ms": ("ms", _ms("cli.main")),
    "cli.build_parser_ms": ("ms", _ms("cli.build_parser")),
    "cli.parse_ms": ("ms", _ms(*_PARSE)),
    "cli.emit_ms": ("ms", _ms("cli.emit")),
    "cli.render_ms": ("ms", _ms("cli.render_variety_svg", "cli.render_graph_dot")),
    "polynomial.mul_calls": ("count", _calls("polynomial.mul")),
    "polynomial.mul_ms": ("ms", _ms("polynomial.mul")),
    "geometry.fm_calls": ("count", _calls("geometry.is_strictly_feasible")),
    "geometry.fm_ms": ("ms", _ms("geometry.is_strictly_feasible")),
    "geometry.fm_constraints": ("count", _count("fm_constraints")),
    "geometry.fm_feasible_ratio": (
        "ratio", _ratio(_count("fm_feasible"), _calls("geometry.is_strictly_feasible"))),
    "geometry.affine_dim_calls": ("count", _calls("geometry.affine_dimension")),
    "geometry.affine_dim_ms": ("ms", _ms("geometry.affine_dimension")),
    "canon.extremal_calls": ("count", _calls("canon.extremal_monomials")),
    "canon.extremal_ms": ("ms", _ms("canon.extremal_monomials")),
    "canon.extremal_ratio": (
        "ratio", _ratio(_count("extremal_terms_out"), _count("extremal_terms_in"))),
    "canon.envelope_build_ms": ("ms", _ms("canon.RationalPolynomial.envelope")),
    "canon.envelope_queries": ("count", _count("envelope_queries")),
    "canon.envelope_ms": ("ms", _ms(*_ENVELOPE)),
    "canon.lattice_ms": ("ms", _ms("canon.envelope.lattice")),
    "canon.lattice_points": ("count", _count("lattice_points")),
    "canon.maxrep_ms": ("ms", _ms("canon.RationalPolynomial.max_representative")),
    "canon.maxrep_terms": ("count", _count("maxrep_terms")),
    "canon.equal_ms": ("ms", _ms("canon.rat_equal")),
    "canon.divide_calls": ("count", _calls("canon.divide")),
    "canon.divide_ms": ("ms", _ms("canon.divide")),
    "canon.divide_accept_ratio": (
        "ratio", _ratio(_count("divide_accepted"), _calls("canon.divide"))),
    "canon.divides_power_ms": ("ms", _ms("canon.divides_power")),
    "canon.k_reached": ("count", _count("k_reached")),
    "variety.cells_calls": ("count", _calls("variety.variety_cells")),
    "variety.cells_ms": ("ms", _ms("variety.variety_cells")),
    "variety.cells_out": ("count", _count("cells_out")),
    "variety.graph_ms": ("ms", _ms("variety.dominance_graph")),
    "variety.included_ms": ("ms", _ms("variety.variety_included")),
    "ideals.congruent_ms": ("ms", _ms("ideals.congruent_mod")),
    "ideals.radical_ms": ("ms", _ms("ideals.radical_member")),
    "univariate.roots_ms": ("ms", _ms("univariate.roots")),
    "univariate.factor_ms": ("ms", _ms("univariate.factor")),
}


def layer_metrics(tracer, passes, time_factor):
    """Every per-layer metric, per pass over the workload's command list;
    times are multiplied by `time_factor`, the run's calibration, and
    ratios are not divided."""
    out = {}
    for name, (unit, read) in LAYER_METRICS.items():
        value = read(tracer)
        if unit == "ms":
            value *= time_factor
        if unit != "ratio":
            value /= passes
        out[name] = {"value": value, "unit": unit}
    return out
