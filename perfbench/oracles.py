"""Expected results computed without the package under test.

* Solver problems: d'Alembert / transport / half-line reflection formulas
  on the benchmark's own data models, plus the Duhamel term of a force that
  is constant between characteristic lines, integrated exactly in
  characteristic coordinates.
* Derivative reports: sympy derivatives of the branch pinned on each side.
* Quadrature: the dependence triangle clipped by the singular lines, with a
  collapsed Gauss-Legendre rule on each smooth piece.
* Fixtures: report lines and CSV bytes recorded in ``reference.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np

from workloads import Data1D, Sum1D, Sum2D, Wave1D

REFERENCE = Path(__file__).with_name("reference.json")
CSV_HEADER = "x,t,u,ux,ut,residual"
U_TOL = 1e-9          # CSV u column against the formula, relative to 1 + |u|
RESIDUAL_TOL = 1e-8   # residual column off the singular lines
DERIV_TOL = 1e-9      # alpha, beta, specular, relative to 1 + |value|
QUAD_TOL = 1e-8       # integrals, relative to 1 + |value|


class Mismatch(Exception):
    """An output that differs from its expected value."""


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Solver problems


class _CounterexamplePhi:
    """phi of problems/counterexample.prob: x^2/2 + 2x for x > 0 and
    2 e^x - x^2/2 - 2 for x < 0."""

    def __call__(self, x):
        return np.where(x > 0, 0.5 * x * x + 2 * x, 2 * np.exp(x) - 0.5 * x * x - 2)

    def kinks(self) -> set:
        return {0.0}


_FIXTURE_DATA = Data1D(quad_kinks=((1.0, 1.0),), poly=(0.5, 0.0, 0.5))
_FIXTURE_PSI = Data1D(abs_kinks=((1.0, 1.0),), poly=(-1.0, 0.0, 0.0))
FIXTURE_MODELS = {
    "wave_fullline": Wave1D("wave", _FIXTURE_DATA, _FIXTURE_PSI),
    "halfline": Wave1D("wave-halfline", _FIXTURE_DATA, _FIXTURE_PSI),
    "transport_abs": Wave1D("transport", Data1D(abs_kinks=((1.0, 0.0),))),
    "zero": Wave1D("wave", Data1D()),
    "counterexample": Wave1D("wave-nonhomogeneous", _CounterexamplePhi(), Data1D(),
                             force=(0.0, 0.0, ((1, 1, -1.0), (-1, 1, 0.0),
                                               (-1, -1, 1.0), (1, -1, -1.0)))),
}


def _char_area(lo, hi, split, side, vlo, vhi, vsplit, vside):
    """Area in (xi, eta) of {lo <= xi <= eta <= hi} restricted to one side of
    xi = split and one side of eta = vsplit (arrays broadcast)."""
    ulo = np.where(side > 0, np.maximum(lo, split), lo)
    uhi = np.where(side > 0, hi, np.minimum(hi, split))
    wlo = np.where(vside > 0, np.maximum(vlo, vsplit), vlo)
    whi = np.where(vside > 0, vhi, np.minimum(vhi, vsplit))
    ulo, uhi = np.minimum(ulo, uhi), uhi
    wlo, whi = np.minimum(wlo, whi), whi
    # integral over xi in [ulo, uhi] of |[max(wlo, xi), whi]|
    flat_end = np.clip(wlo, ulo, uhi)           # xi below wlo: full height
    area = (flat_end - ulo) * (whi - wlo)
    a, b = np.clip(wlo, ulo, uhi), np.clip(whi, ulo, uhi)
    area += whi * (b - a) - 0.5 * (b * b - a * a)
    return area


def duhamel(force, x, t):
    """0.5 * integral of the force over the dependence triangle of (x, t).

    In xi = y - s, eta = y + s the triangle is x-t <= xi <= eta <= x+t with
    dy ds = dxi deta / 2, and the force is constant on quadrants of
    (xi - a, eta - b)."""
    a, b, values = force
    total = np.zeros_like(x)
    for s1, s2, v in values:
        if v:
            total += v * _char_area(x - t, x + t, a, s1, x - t, x + t, b, s2) / 2
    return 0.5 * total


def solution_u(model: Wave1D, x, t):
    phi = model.phi
    if model.kind == "transport":
        return phi(x - t)
    psi = model.psi
    u = 0.5 * (phi(x + t) + phi(x - t)) + 0.5 * (psi.antiderivative(x + t) - psi.antiderivative(x - t))
    if model.kind == "wave-halfline":
        left = 0.5 * (phi(x + t) - phi(t - x)) + 0.5 * (psi.antiderivative(x + t) - psi.antiderivative(t - x))
        u = np.where(x >= t, u, left)
    if model.force:
        u = u + duhamel(model.force, x, t)
    return u


def line_distance(model: Wave1D, x, t):
    d = np.full_like(x, np.inf)
    for cx, ct, c in model.lines():
        d = np.minimum(d, np.abs(cx * x + ct * t - c) / math.hypot(cx, ct))
    return d


def check_csv(path: Path, model: Wave1D, rows_reported: int) -> tuple:
    """Verify a solve CSV against the model; returns (rows, sha256)."""
    data = path.read_bytes()
    text = data.decode("utf-8")
    lines = text.split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "":
        raise Mismatch("CSV header or final newline wrong")
    table = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:-1]])
    if table.shape != (rows_reported, 6):
        raise Mismatch(f"CSV has shape {table.shape}, report says {rows_reported} rows")
    if model is not None:
        x, t, u, resid = table[:, 0], table[:, 1], table[:, 2], table[:, 5]
        want = solution_u(model, x, t)
        err = np.abs(u - want) / (1.0 + np.abs(want))
        if err.max() > U_TOL:
            k = int(err.argmax())
            raise Mismatch(f"u({x[k]}, {t[k]}) = {u[k]}, formula gives {want[k]}")
        off = line_distance(model, x, t) > 1e-7
        if off.any() and np.abs(resid[off]).max() > RESIDUAL_TOL:
            raise Mismatch(f"residual {np.abs(resid[off]).max()} off the singular lines")
    return len(table), hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# check reports of generated solver problems

_LINE_RE = re.compile(r"^([a-z0-9._-]+) = (.*)$")
_FORM_RE = re.compile(r"^x ([+-]) t = (-?[0-9.e+-]+)$")


def _names_a_line(form: str, model: Wave1D) -> bool:
    """Whether a reported form ``x +- t = c`` is a singular line of the model."""
    m = _FORM_RE.match(form)
    return bool(m) and any(ct == (1.0 if m.group(1) == "+" else -1.0)
                           and abs(c - float(m.group(2))) < 1e-12 for _, ct, c in model.lines())


def check_report(text: str, exit_code: int, model: Wave1D) -> None:
    """Each requested check must report; residual, initial and boundary
    must pass; s2 may fail, but only on lines the solution really has; and
    all.pass and the exit code must agree with the individual verdicts."""
    values = {}
    for line in text.splitlines():
        m = _LINE_RE.match(line.split("  #")[0])
        if not m:
            raise Mismatch(f"unexpected report line {line!r}")
        values[m.group(1)] = m.group(2)
    passes = {k[:-5]: v for k, v in values.items() if k.endswith(".pass")}
    if list(passes) != [*model.checks, "all"]:
        raise Mismatch(f"checks reported {list(passes)}, requested {list(model.checks)}")
    for name in ("residual", "initial", "boundary", "proper"):
        if name in passes and passes[name] != "true":
            raise Mismatch(f"{name}.pass = {passes[name]}")
    if "s2" in passes:
        verdict = values.get("s2.verdict")
        if (verdict == "S2") != (passes["s2"] == "true"):
            raise Mismatch(f"s2.verdict = {verdict} but s2.pass = {passes['s2']}")
        for form in filter(None, values.get("s2.failure_forms", "").split("; ")):
            if not _names_a_line(form, model):
                raise Mismatch(f"s2 failure form {form!r} is not a singular line")
    all_ok = all(v == "true" for k, v in passes.items() if k != "all")
    if passes["all"] != str(all_ok).lower() or exit_code != (0 if all_ok else 1):
        raise Mismatch(f"all.pass = {passes['all']} with exit code {exit_code}")


def solve_report(text: str, exit_code: int, model: Wave1D) -> int:
    """The row count from a solve report; any S2 warning names real lines."""
    lines = text.splitlines()
    m = re.match(r"^wrote (\d+) rows to <out>$", lines[0]) if lines else None
    if exit_code != 0 or not m:
        raise Mismatch(f"solve exit {exit_code}, first line {lines[:1]}")
    for line in lines[1:]:
        w = re.match(r"^warning: solution is not S2 \(verdict ([A-Za-z0-9-]+); failing on (.*)\)$", line)
        if not w:
            raise Mismatch(f"unexpected solve line {line!r}")
        for form in w.group(2).split(", "):
            if not _names_a_line(form, model):
                raise Mismatch(f"S2 warning names {form!r}, not a singular line")
    return int(m.group(1))


# ---------------------------------------------------------------------------
# Derivative reports


def side_signs(model: Sum2D, p, axis: int, direction: int) -> tuple:
    """Sign of each line just off p along the axis (0 when the path stays on
    a line parallel to the axis)."""
    out = []
    for k, (a, b, _) in enumerate(model.lines):
        v = model.line_value(k, p)
        if v != 0:
            out.append(1 if v > 0 else -1)
        else:
            slope = (a, b)[axis]
            out.append(0 if slope == 0 else direction * (1 if slope > 0 else -1))
    return tuple(out)


def _sym_branch(model: Sum2D, signs):
    """The sympy expression of the branch with the given line signs."""
    import sympy as sp

    X = [sp.Symbol(v) for v in model.vars]

    def aff(p, q, r):
        return sp.Rational(Fraction(p)) * X[0] + sp.Rational(Fraction(q)) * X[1] + sp.Rational(Fraction(r))

    total = sp.Integer(0)
    for term in model.terms:
        e = sp.Rational(Fraction(term.coef))
        if term.kink == "abs":
            e *= signs[term.line] * aff(*model.lines[term.line])
        elif term.kink == "sgn":
            e *= signs[term.line]
        func, *pqr = term.factor
        if func == "sqrt":
            e *= sp.sqrt(1 + aff(*pqr) ** 2)
        elif func == "lin":
            e *= aff(*pqr)
        elif func != "one":
            e *= getattr(sp, func)(aff(*pqr))
        total += e
    return total, X


def semi_derivative(model: Sum2D, p, axis: int, direction: int) -> float:
    import sympy as sp

    expr, X = _sym_branch(model, side_signs(model, p, axis, direction))
    d = sp.diff(expr, X[axis])
    at = {X[0]: sp.Rational(Fraction(p[0])), X[1]: sp.Rational(Fraction(p[1]))}
    return float(sp.N(d.subs(at), 30))


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol * (1.0 + abs(want))


def deriv_report(text: str, exit_code: int, point, axis: str, alpha: float, beta: float) -> None:
    values = dict(line.split(" = ", 1) for line in text.splitlines()
                  if " = " in line and not line.startswith("plane:"))
    if exit_code != 0:
        raise Mismatch(f"deriv exit code {exit_code}")
    if values.get("axis") != axis or [float(v) for v in values.get("point", "").split(", ")] != list(point):
        raise Mismatch("deriv report echoes the wrong point or axis")
    got_a, got_b, got_s = (float(values[k]) for k in ("alpha", "beta", "specular"))
    if not (_close(got_a, alpha, DERIV_TOL) and _close(got_b, beta, DERIV_TOL)):
        raise Mismatch(f"alpha, beta = {got_a}, {got_b}; sympy gives {alpha}, {beta}")
    want_s = math.tan(0.5 * (math.atan(alpha) + math.atan(beta)))
    if not _close(got_s, want_s, DERIV_TOL):
        raise Mismatch(f"specular = {got_s}, A(alpha, beta) = {want_s}")


# ---------------------------------------------------------------------------
# Quadrature

_GL_X, _GL_W = np.polynomial.legendre.leggauss(24)
_U, _V = (0.5 * (_GL_X + 1))[:, None], (0.5 * (_GL_X + 1))[None, :]
_WW = (0.25 * _GL_W[:, None] * _GL_W[None, :])


def _clip(poly, a, b, c, sign):
    """Part of a convex polygon where sign * (a x + b y + c) >= 0."""
    out = []
    for i, cur in enumerate(poly):
        nxt = poly[(i + 1) % len(poly)]
        vc = sign * (a * cur[0] + b * cur[1] + c)
        vn = sign * (a * nxt[0] + b * nxt[1] + c)
        if vc >= 0:
            out.append(cur)
        if vc * vn < 0:
            s = vc / (vc - vn)
            out.append((cur[0] + s * (nxt[0] - cur[0]), cur[1] + s * (nxt[1] - cur[1])))
    return out


def _eval_branch(model: Sum2D, signs, x, y):
    total = np.zeros_like(x)
    for term in model.terms:
        e = np.full_like(x, term.coef)
        if term.kink != "none":
            a, b, c = model.lines[term.line]
            e = e * (signs[term.line] * (a * x + b * y + c) if term.kink == "abs" else signs[term.line])
        func, *pqr = term.factor
        if func != "one":
            p, q, r = pqr
            arg = p * x + q * y + r
            e = e * (np.sqrt(1 + arg * arg) if func == "sqrt" else getattr(np, func)(arg))
        total = total + e
    return total


def triangle_integral(model: Sum2D, x0: float, t0: float) -> float:
    """Integral of the model over the dependence triangle of (x0, t0)."""
    from itertools import product

    tri = [(x0 - t0, 0.0), (x0 + t0, 0.0), (x0, t0)]
    total = 0.0
    for signs in product((1, -1), repeat=len(model.lines)):
        poly = tri
        for (a, b, c), s in zip(model.lines, signs):
            poly = _clip(poly, a, b, c, s)
            if len(poly) < 3:
                break
        for k in range(1, len(poly) - 1):
            A, B, C = (np.array(q) for q in (poly[0], poly[k], poly[k + 1]))
            jac = abs((B - A)[0] * (C - B)[1] - (B - A)[1] * (C - B)[0])
            # collapsed map of the unit square onto the triangle ABC
            P = A + _U[..., None] * (B - A) + (_U * _V)[..., None] * (C - B)
            vals = _eval_branch(model, signs, P[..., 0], P[..., 1])
            total += jac * float(np.sum(_WW * _U * vals))
    return total


def line_integral(model: Sum1D, a: float, b: float) -> float:
    nodes = [a] + [d for d in model.kinks() if a < d < b] + [b]
    total = 0.0
    for lo, hi in zip(nodes, nodes[1:]):
        x = 0.5 * (lo + hi) + 0.5 * (hi - lo) * _GL_X
        vals = np.zeros_like(x)
        for coef, d, func, p, r in model.terms:
            f = np.abs(x - d) * coef
            if func != "one":
                f = f * getattr(np, func)(p * x + r)
            vals += f
        total += 0.5 * (hi - lo) * float(np.sum(_GL_W * vals))
    return total


def check_value(got: float, want: float) -> None:
    if not _close(got, want, QUAD_TOL):
        raise Mismatch(f"integral {got}, cubature gives {want}")
