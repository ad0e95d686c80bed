"""Spans around the package's layer functions, recorded from outside.

``Tracer.install`` wraps each function in ``TARGETS`` and rebinds every
module-level name that refers to it (so ``from .piecewise import
feasible_pattern`` in another module is traced too), and wraps the
``PiecewiseFn`` methods on the class.  ``expr.eval_expr`` and ``expr.diff``
recurse through their own module globals; they are left unwrapped inside
``expr``, so a span is one evaluation or derivative of a whole tree.

A span is (name, parent span, start, end) in four arrays kept in memory;
``per_layer`` derives call counts and self time (span time minus the time
of its child spans) from them, and ``save`` writes them out.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (module, attribute, span name)
TARGETS = (
    ("scipy.optimize", "linprog", "scipy.linprog"),
    ("speculus.piecewise", "feasible_pattern", "piecewise.feasible_pattern"),
    ("speculus.piecewise", "interior_point", "piecewise.interior_point"),
    ("speculus.piecewise", "from_expression", "piecewise.from_expression"),
    ("speculus.piecewise", "from_branches", "piecewise.from_branches"),
    ("speculus.piecewise", "pw_add", "piecewise.pw_add"),
    ("speculus.piecewise", "pw_compose_affine", "piecewise.pw_compose_affine"),
    ("speculus.piecewise", "pw_select", "piecewise.pw_select"),
    ("speculus.piecewise", "classify_continuity", "piecewise.classify_continuity"),
    ("speculus.piecewise", "is_proper", "piecewise.is_proper"),
    ("speculus.specular", "partial_field", "specular.partial_field"),
    ("speculus.specular", "specular_field", "specular.specular_field"),
    ("speculus.specular", "s2_membership", "specular.s2_membership"),
    ("speculus.specular", "semi_derivatives", "specular.semi_derivatives"),
    ("speculus.waves", "antiderivative_pw", "waves.antiderivative_pw"),
    ("speculus.waves", "duhamel_term", "waves.duhamel_term"),
    ("speculus.waves", "solve_transport", "waves.solve_transport"),
    ("speculus.waves", "solve_wave_homogeneous", "waves.solve_wave_homogeneous"),
    ("speculus.waves", "solve_wave_halfline", "waves.solve_wave_halfline"),
    ("speculus.waves", "solve_wave_nonhomogeneous", "waves.solve_wave_nonhomogeneous"),
    ("speculus.waves", "wave_operator_fields", "waves.wave_operator_fields"),
    ("speculus.waves", "wave_residual", "waves.wave_residual"),
    ("speculus.waves", "transport_residual", "waves.transport_residual"),
    ("speculus.waves", "hypothesis_h_check", "waves.hypothesis_h_check"),
    ("speculus.expr", "eval_expr", "expr.eval_expr"),
    ("speculus.expr", "diff", "expr.diff"),
    ("speculus.expr", "pin_signs", "expr.pin_signs"),
    ("speculus.expr", "parse", "expr.parse"),
    ("speculus.tangent2d", "tangent_data", "tangent2d.tangent_data"),
    ("speculus.quad", "integrate_triangle", "quad.integrate_triangle"),
    ("speculus.quad", "integrate_1d", "quad.integrate_1d"),
    ("speculus.quad", "adaptive_panel", "quad.adaptive_panel"),
    ("speculus.cli", "load_problem", "cli.load_problem"),
    ("speculus.cli", "write_csv", "cli.write_csv"),
)
METHODS = (
    ("evaluate", "piecewise.PiecewiseFn.evaluate"),
    ("one_sided_limits", "piecewise.PiecewiseFn.one_sided_limits"),
)
# names whose own module calls them recursively; see the module docstring
RECURSIVE = {("speculus.expr", "eval_expr"), ("speculus.expr", "diff")}
SOLVERS = ("waves.solve_transport", "waves.solve_wave_homogeneous",
           "waves.solve_wave_halfline", "waves.solve_wave_nonhomogeneous")


def _closures(field) -> int:
    from speculus.expr import Expr

    return sum(not isinstance(rhs, Expr) for _, rhs in field.branches)


def _count_feasible(c, args, result):
    c["piecewise.feasible_pattern.feasible"] += bool(result)


def _count_expression(c, args, result):
    c["piecewise.from_expression.branches"] += len(result.branches)


def _count_specular_field(c, args, result):
    c["specular.specular_field.kept"] += len(result.branches)
    c["specular.specular_field.patterns"] += 3 ** len(args[0].forms)
    c["specular.closure_branches"] += _closures(result)


def _count_partial_field(c, args, result):
    c["specular.closure_branches"] += _closures(result)


def _count_waves_field(c, args, result):
    c["waves.closure_branches"] += _closures(result)


def _count_rows(c, args, result):
    c["cli.write_csv.rows"] += len(args[0])


# counters read from return values (and arguments) the benchmark can see
HOOKS = {
    "piecewise.feasible_pattern": _count_feasible,
    "piecewise.from_expression": _count_expression,
    "specular.specular_field": _count_specular_field,
    "specular.partial_field": _count_partial_field,
    "waves.antiderivative_pw": _count_waves_field,
    "waves.duhamel_term": _count_waves_field,
    "cli.write_csv": _count_rows,
}
COUNTERS = ("piecewise.feasible_pattern.feasible", "piecewise.from_expression.branches",
            "specular.specular_field.kept", "specular.specular_field.patterns",
            "specular.closure_branches", "waves.closure_branches", "cli.write_csv.rows")

# span names reported with calls and self_s, and with self_s only
CALLS_AND_SELF = (
    "scipy.linprog", "piecewise.feasible_pattern", "piecewise.interior_point",
    "piecewise.from_expression", "piecewise.from_branches", "specular.partial_field",
    "specular.specular_field", "waves.duhamel_term", "piecewise.classify_continuity",
    "piecewise.is_proper", "specular.s2_membership", "waves.wave_operator_fields",
    "piecewise.PiecewiseFn.evaluate", "piecewise.PiecewiseFn.one_sided_limits",
    "expr.eval_expr", "expr.diff", "expr.pin_signs", "expr.parse",
    "specular.semi_derivatives", "tangent2d.tangent_data", "quad.integrate_triangle",
    "quad.integrate_1d", "quad.adaptive_panel", "cli.load_problem",
)
SELF_ONLY = (
    "piecewise.pw_add", "piecewise.pw_compose_affine", "piecewise.pw_select",
    "waves.antiderivative_pw", "waves.solve", "waves.wave_residual",
    "waves.transport_residual", "waves.hypothesis_h_check", "cli.write_csv",
)
M_BUCKETS = (2, 4, 6)


def metric_specs() -> list:
    """(metric, unit, better) for every per-layer metric, in report order."""
    specs = []
    for name in CALLS_AND_SELF:
        specs += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    specs += [(f"{name}.self_s", "s", "lower") for name in SELF_ONLY]
    specs += [
        ("piecewise.feasible_pattern.feasible_ratio", "ratio", "higher"),
        ("piecewise.from_expression.branches", "count", "lower"),
        ("specular.specular_field.kept_ratio", "ratio", "higher"),
        ("specular.closure_branches", "count", "lower"),
        ("waves.closure_branches", "count", "lower"),
        ("cli.write_csv.rows", "count", "higher"),
    ]
    specs += [(f"arrangement.m{m}.op_p50_s", "s", "lower") for m in M_BUCKETS]
    specs += [("trace.overhead", "ratio", "lower")]
    return specs


class Tracer:
    def __init__(self):
        self.names: list = []
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._undo: list = []

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        span_name, parent, start, end, stack = (
            self.span_name, self.parent, self.start, self.end, self.stack)
        clock = time.perf_counter_ns
        hook = HOOKS.get(name)
        counters = self.counters

        def traced(*args, **kwargs):
            i = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def root(self, name: str):
        """A wrapper ``run(fn, *args)`` that calls fn inside a root span; the
        benchmark puts each operation in one."""
        return self._wrap(name, lambda fn, *args: fn(*args))

    def install(self) -> None:
        """Wrap every target that exists; a layer function the package no
        longer has (or scipy, once it is dropped) reports zero."""
        mods = [m for k, m in sys.modules.items() if k == "speculus" or k.startswith("speculus.")]
        for modname, attr, name in TARGETS:
            try:
                home = importlib.import_module(modname)
            except ImportError:
                continue
            orig = getattr(home, attr, None)
            if orig is None:
                continue
            wrapper = self._wrap(name, orig)
            for mod in mods + [home]:
                if (mod.__name__, attr) in RECURSIVE:
                    continue
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, orig))
        from speculus.piecewise import PiecewiseFn

        for attr, name in METHODS:
            orig = PiecewiseFn.__dict__.get(attr)
            if orig is None:
                continue
            setattr(PiecewiseFn, attr, self._wrap(name, orig))
            self._undo.append((PiecewiseFn, attr, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def arrays(self):
        return (np.frombuffer(self.span_name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.int64),
                np.frombuffer(self.end, dtype=np.int64))

    def per_layer(self) -> dict:
        """calls and self_s per span name, and the counters."""
        names, parent, start, end = self.arrays()
        dur = (end - start).astype(np.float64) * 1e-9
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        calls = np.bincount(names, minlength=len(self.names))
        self_s = np.bincount(names, weights=own, minlength=len(self.names))
        out = {}
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + int(calls[k])
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + float(self_s[k])
        out["waves.solve.self_s"] = sum(out.get(f"{s}.self_s", 0.0) for s in SOLVERS)
        c = self.counters
        fp = out.get("piecewise.feasible_pattern.calls", 0)
        out["piecewise.feasible_pattern.feasible_ratio"] = c["piecewise.feasible_pattern.feasible"] / fp if fp else 0.0
        pats = c["specular.specular_field.patterns"]
        out["specular.specular_field.kept_ratio"] = c["specular.specular_field.kept"] / pats if pats else 0.0
        for key in ("piecewise.from_expression.branches", "specular.closure_branches",
                    "waves.closure_branches", "cli.write_csv.rows"):
            out[key] = c[key]
        return out

    def save(self, path: Path) -> None:
        names, parent, start, end = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), name=names, parent=parent,
                            start_ns=start, end_ns=end)
