"""Constructive 1D transport/wave solvers in the specular calculus.

Solutions are assembled symbolically as PiecewiseFn fields over (x, t):
data branches are composed with the characteristic substitutions x +/- t,
the velocity integral uses a continuous symbolic antiderivative anchored
at 0, and the nonhomogeneous Duhamel term is folded to exact per-region
quadratics whenever the force is piecewise constant between characteristic
lines (verified by an exact polygon-clipping integral); otherwise it stays
a quadrature-backed closure.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .expr import (
    AffineForm,
    Const,
    Expr,
    add,
    antiderivative,
    eval_expr,
    free_vars,
    mul,
)
from .piecewise import (
    PiecewiseFn,
    classify_continuity,
    feasible_pattern,
    interior_point,
    is_proper,
    line_samples,
    pw_add,
    pw_compose_affine,
    pw_scale,
    pw_select,
)
from .quad import integrate_1d, integrate_triangle
from .specular import (
    partial_field,
    semi_derivative_one_sided,
    semi_derivatives,
    specular_field,
    specular_partial,
    specularly_differentiable_1d,
)

VARS_XT = ("x", "t")
FORM_X = AffineForm((1.0, 0.0), 0.0)
FORM_T = AffineForm((0.0, 1.0), 0.0)
FORM_X_MINUS_T = AffineForm((1.0, -1.0), 0.0)


class SolverPrecondition(Exception):
    """A data-class hypothesis of a solver is violated."""


@dataclass(frozen=True)
class SolutionField:
    u: PiecewiseFn
    provenance: str                # transport | dalembert | halfline | duhamel
    characteristics: tuple         # AffineForms carried by the solution

    def evaluate(self, p):
        return self.u.evaluate(p)


# ---------------------------------------------------------------------------
# 1D data-class checks

def _roots(fn: PiecewiseFn) -> list:
    return sorted(f.offset / f.coeffs[0] for f in fn.forms)


def check_displacement(phi: PiecewiseFn) -> list:
    """S^2-style requirements on the initial displacement: continuity,
    existence of the classical derivative at each singular point, and a
    proper second specular field."""
    problems = []
    if classify_continuity(phi).verdict != "continuous":
        problems.append("initial displacement is discontinuous")
        return problems
    for r in _roots(phi):
        pair = semi_derivatives(phi, (r,), 0)
        if abs(pair.right - pair.left) > 1e-9 * (1 + abs(pair.right) + abs(pair.left)):
            problems.append(f"displacement derivative jumps at x={r}")
    d1 = partial_field(phi, 0)
    ok, _ = is_proper(specular_field(d1, 0))
    if not ok:
        problems.append("second specular field of the displacement is not proper")
    return problems


def check_velocity(psi: PiecewiseFn) -> list:
    problems = []
    ok, _ = is_proper(psi)
    if not ok:
        problems.append("initial velocity is not proper")
    return problems


# ---------------------------------------------------------------------------
# Continuous antiderivative of a 1D piecewise function, anchored at 0

def antiderivative_pw(psi: PiecewiseFn) -> PiecewiseFn:
    if psi.d != 1:
        raise SolverPrecondition("antiderivative_pw expects 1D data")
    roots = _roots(psi)
    n = len(roots)
    var = psi.vars[0]

    def region_pattern(k: int):
        # region k lies between roots[k-1] and roots[k]
        out = []
        for f in psi.forms:
            r = f.offset / f.coeffs[0]
            out.append(1 if bisect.bisect_left(roots, r) < k else -1)
        return tuple(out)

    branch_exprs = []
    for k in range(n + 1):
        rhs = psi.match(region_pattern(k))
        if rhs is None or not isinstance(rhs, Expr):
            branch_exprs = None
            break
        anti = antiderivative(rhs, var)
        if anti is None:
            branch_exprs = None
            break
        branch_exprs.append(anti)

    if branch_exprs is None:
        def closure(x):
            return integrate_1d(psi, 0.0, x)

        table = tuple((region_pattern(k), lambda x, _c=closure: _c(x)) for k in range(n + 1))
        return PiecewiseFn(psi.vars, psi.forms, table, ("specular",) * n)

    # continuity constants, anchored so the antiderivative vanishes at 0
    k0 = bisect.bisect_left(roots, 0.0)
    if k0 < n and roots[k0] == 0.0:
        k0 += 1  # 0 itself is a root: anchor the region just right of it
    consts = [0.0] * (n + 1)
    consts[k0] = -eval_expr(branch_exprs[k0], {var: 0.0})
    for k in range(k0, n):
        left = eval_expr(branch_exprs[k], {var: roots[k]}) + consts[k]
        consts[k + 1] = left - eval_expr(branch_exprs[k + 1], {var: roots[k]})
    for k in range(k0 - 1, -1, -1):
        right = eval_expr(branch_exprs[k + 1], {var: roots[k]}) + consts[k + 1]
        consts[k] = right - eval_expr(branch_exprs[k], {var: roots[k]})

    table = tuple(
        (region_pattern(k), add(branch_exprs[k], Const(consts[k])))
        for k in range(n + 1)
    )
    return PiecewiseFn(psi.vars, psi.forms, table, ("specular",) * len(psi.forms))


# ---------------------------------------------------------------------------
# Solvers

def solve_transport(h: PiecewiseFn) -> SolutionField:
    if h.d != 1:
        raise SolverPrecondition("transport data must be 1D")
    if not specularly_differentiable_1d(h):
        raise SolverPrecondition("transport data is not specularly differentiable")
    u = pw_compose_affine(h, (1.0, -1.0), 0.0, VARS_XT)
    return SolutionField(u, "transport", tuple(u.forms))


def _dalembert_field(phi: PiecewiseFn, psi: PiecewiseFn, domain=()) -> PiecewiseFn:
    Psi = antiderivative_pw(psi)
    A = pw_compose_affine(phi, (1.0, 1.0), 0.0, VARS_XT, domain=domain)
    B = pw_compose_affine(phi, (1.0, -1.0), 0.0, VARS_XT, domain=domain)
    C = pw_compose_affine(Psi, (1.0, 1.0), 0.0, VARS_XT, domain=domain)
    D = pw_compose_affine(Psi, (1.0, -1.0), 0.0, VARS_XT, domain=domain)
    return pw_scale(0.5, pw_add(pw_add(A, B), pw_add(C, D, -1.0)))


def solve_wave_homogeneous(phi: PiecewiseFn, psi: PiecewiseFn) -> SolutionField:
    bad = check_displacement(phi) + check_velocity(psi)
    if bad:
        raise SolverPrecondition("; ".join(bad))
    u = _dalembert_field(phi, psi)
    return SolutionField(u, "dalembert", tuple(u.forms))


def solve_wave_halfline(phi: PiecewiseFn, psi: PiecewiseFn) -> SolutionField:
    bad = check_displacement(phi) + check_velocity(psi)
    if abs(phi.evaluate((0.0,))) > 1e-12 or abs(psi.evaluate((0.0,))) > 1e-12:
        bad.append("half-line compatibility phi(0) = psi(0) = 0 fails")
    if bad:
        raise SolverPrecondition("; ".join(bad))
    dom = ((FORM_X, 1), (FORM_T, 1))
    Psi = antiderivative_pw(psi)
    A = pw_compose_affine(phi, (1.0, 1.0), 0.0, VARS_XT, domain=dom)
    B = pw_compose_affine(phi, (1.0, -1.0), 0.0, VARS_XT, domain=dom)
    Arf = pw_compose_affine(phi, (-1.0, 1.0), 0.0, VARS_XT, domain=dom)  # phi(t-x)
    C = pw_compose_affine(Psi, (1.0, 1.0), 0.0, VARS_XT, domain=dom)
    D = pw_compose_affine(Psi, (1.0, -1.0), 0.0, VARS_XT, domain=dom)
    Crf = pw_compose_affine(Psi, (-1.0, 1.0), 0.0, VARS_XT, domain=dom)  # Psi(t-x)
    u_right = pw_scale(0.5, pw_add(pw_add(A, B), pw_add(C, D, -1.0)))
    u_left = pw_scale(0.5, pw_add(pw_add(A, Arf, -1.0), pw_add(C, Crf, -1.0)))
    u = pw_select(FORM_X_MINUS_T, u_right, u_left)
    return SolutionField(u, "halfline", tuple(u.forms))


def solve_wave_nonhomogeneous(
    phi: PiecewiseFn, psi: PiecewiseFn, f: PiecewiseFn
) -> SolutionField:
    bad = check_displacement(phi) + check_velocity(psi)
    ok, _ = is_proper(f, box=(-8.0, 8.0))
    if not ok:
        bad.append("force is not proper")
    if bad:
        raise SolverPrecondition("; ".join(bad))
    base = _dalembert_field(phi, psi)
    dh = duhamel_term(f)
    u = pw_add(base, dh)
    return SolutionField(u, "duhamel", tuple(u.forms))


# ---------------------------------------------------------------------------
# Duhamel term

def _characteristic_constants(f: PiecewiseFn):
    """Offsets of f's forms when every form is parallel to x - t or x + t;
    None otherwise."""
    out = []
    for form in f.forms:
        c1, c2 = form.coeffs  # normalized, c1 = 1 for any form involving x
        if c1 == 1.0 and abs(abs(c2) - 1.0) <= 1e-12:
            out.append((1.0 if c2 > 0 else -1.0, form.offset))
        else:
            return None
    return out


def _piecewise_constant_values(f: PiecewiseFn):
    """Sign pattern -> constant value of every non-empty open region of f;
    None when some such region has no constant branch."""
    vals = {}
    for pat in itertools.product((1, -1), repeat=len(f.forms)):
        rhs = f.match(pat)
        if rhs is None and not feasible_pattern(f.forms, pat, f.domain, f.d):
            continue  # an empty region needs no branch (as in from_branches)
        if rhs is None or not isinstance(rhs, Expr) or free_vars(rhs):
            return None
        vals[pat] = eval_expr(rhs, {})
    return vals


def _clip(poly, form: AffineForm, sign: int):
    """Sutherland-Hodgman clip keeping sign * l(p) >= 0."""
    if not poly:
        return []
    out = []
    n = len(poly)
    for i in range(n):
        cur, nxt = poly[i], poly[(i + 1) % n]
        vc = sign * form.value(cur)
        vn = sign * form.value(nxt)
        if vc >= 0.0:
            out.append(cur)
        if (vc > 0.0 and vn < 0.0) or (vc < 0.0 and vn > 0.0):
            s = vc / (vc - vn)
            out.append((cur[0] + s * (nxt[0] - cur[0]), cur[1] + s * (nxt[1] - cur[1])))
    return out


def _area(poly) -> float:
    if len(poly) < 3:
        return 0.0
    return 0.5 * abs(
        math.fsum(
            poly[i][0] * poly[(i + 1) % len(poly)][1]
            - poly[(i + 1) % len(poly)][0] * poly[i][1]
            for i in range(len(poly))
        )
    )


def _nearest_region_point(forms, pat, domain, mu: float):
    """The point of minimum l1-norm satisfying s * l(p) >= mu for every
    signed form (region plus domain constraints); None when the LP fails."""
    from scipy.optimize import linprog

    # variables: x, t, ax >= |x|, at >= |t|
    A_ub, b_ub = [], []
    for g, s in list(zip(forms, pat)) + list(domain):
        if s in (None, 0):
            continue
        A_ub.append([-s * c for c in g.coeffs] + [0.0, 0.0])
        b_ub.append(-s * g.offset - mu)
    for k in (0, 1):
        row = [0.0, 0.0, 0.0, 0.0]
        row[k], row[2 + k] = 1.0, -1.0
        A_ub.append(list(row))
        row[k] = -1.0
        A_ub.append(list(row))
        b_ub.extend([0.0, 0.0])
    res = linprog([0.0, 0.0, 1.0, 1.0], A_ub=np.array(A_ub), b_ub=np.array(b_ub),
                  bounds=[(-1e4, 1e4)] * 2 + [(0.0, None)] * 2, method="highs")
    if not res.success:
        return None
    return (float(res.x[0]), float(res.x[1]))


def _duhamel_exact(f: PiecewiseFn, values, x0: float, t0: float) -> float:
    """0.5 * iint_triangle f for piecewise-constant f, by polygon clipping."""
    tri = [(x0 - t0, 0.0), (x0 + t0, 0.0), (x0, t0)]
    total = 0.0
    for pat, v in values.items():
        if v == 0.0:
            continue
        poly = tri
        for form, s in zip(f.forms, pat):
            poly = _clip(poly, form, s)
            if len(poly) < 3:
                break
        total += v * _area(poly)
    return 0.5 * total


def duhamel_term(f: PiecewiseFn) -> PiecewiseFn:
    """The field (x, t) -> 0.5 * iint_{triangle(x,t)} f, with domain t > 0.

    For forces that are piecewise constant between characteristic lines the
    term is an exact per-region quadratic: the folded region structure is
    the arrangement of the apex lines x-t = c, x+t = c over all data
    offsets c, and each region's quadratic is fitted from exact clipped
    areas and re-verified before being accepted."""
    dom = ((FORM_T, 1),)
    chars = _characteristic_constants(f)
    values = _piecewise_constant_values(f) if chars is not None else None

    offsets = sorted({c for _, c in chars}) if chars else []
    folded = []
    for c in offsets:
        for coeffs in ((1.0, -1.0), (1.0, 1.0)):
            form = AffineForm(coeffs, c)
            if not any(form.same_as(g) for g in folded):
                folded.append(form)

    if values is None:
        def closure(x, t):
            return 0.5 * integrate_triangle(f, x, t) if t > 0 else 0.0

        table = (((None,) * len(folded), lambda x, t, _c=closure: _c(x, t)),)
        return PiecewiseFn(VARS_XT, tuple(folded), table,
                           ("specular",) * len(folded), domain=dom)

    from .expr import Var, powi, sub as esub

    branches = []
    for pat in itertools.product((1, -1), repeat=len(folded)):
        found = interior_point(folded, pat, dom, 2)
        if found is None:
            continue
        center, margin = found
        # Unbounded regions can place the max-margin point very far out;
        # re-solve for the region point nearest the origin at a modest
        # margin so the fitted values stay O(1) and round-off in the
        # recovered coefficients does not amplify under extrapolation.
        mu = 0.9 * min(margin, 1.0)
        near = _nearest_region_point(folded, pat, dom, mu)
        if near is not None:
            center = near
        # Stepping by h*sqrt(2) moves each form value by at most 2h, so the
        # whole 3x3 grid stays strictly inside the region for h = mu / 4.
        h = mu / 4.0
        grid = {}
        ok = h >= 1e-3  # sliver regions: differencing would lose precision
        for i in (-1, 0, 1) if ok else ():
            for j in (-1, 0, 1):
                p = (center[0] + i * h, center[1] + j * h)
                if p[1] <= 0 or not all(
                    s * g.value(p) > 0 for g, s in zip(folded, pat)
                ):
                    ok = False
                    break
                grid[(i, j)] = _duhamel_exact(f, values, *p)
            if not ok:
                break
        if ok:
            # Finite differences are exact on quadratics.
            coef = np.array([
                grid[(0, 0)],
                (grid[(1, 0)] - grid[(-1, 0)]) / (2 * h),
                (grid[(0, 1)] - grid[(0, -1)]) / (2 * h),
                (grid[(1, 0)] - 2 * grid[(0, 0)] + grid[(-1, 0)]) / (2 * h * h),
                (grid[(1, 1)] - grid[(1, -1)] - grid[(-1, 1)] + grid[(-1, -1)])
                / (4 * h * h),
                (grid[(0, 1)] - 2 * grid[(0, 0)] + grid[(0, -1)]) / (2 * h * h),
            ])
            # re-verify at off-grid points before accepting the quadratic
            scale = 1.0 + max(abs(v) for v in grid.values())
            for u, v in ((0.37 * h, -0.61 * h), (-0.53 * h, 0.29 * h)):
                p = (center[0] + u, center[1] + v)
                pred = (coef[0] + coef[1] * u + coef[2] * v
                        + coef[3] * u * u + coef[4] * u * v + coef[5] * v * v)
                if abs(pred - _duhamel_exact(f, values, *p)) > 1e-7 * scale:
                    ok = False
                    break
        if not ok:
            def closure(x, t):
                return 0.5 * integrate_triangle(f, x, t) if t > 0 else 0.0

            branches.append((pat, lambda x, t, _c=closure: _c(x, t)))
            continue
        dust = 1e-15 * (1.0 + max(abs(v) for v in grid.values())) / (h * h)
        coef = np.where(np.abs(coef) < dust, 0.0, coef)
        X = esub(Var("x"), Const(center[0]))
        T = esub(Var("t"), Const(center[1]))
        expr = add(
            add(
                add(Const(float(coef[0])), mul(Const(float(coef[1])), X)),
                add(mul(Const(float(coef[2])), T), mul(Const(float(coef[3])), powi(X, 2))),
            ),
            add(mul(Const(float(coef[4])), mul(X, T)), mul(Const(float(coef[5])), powi(T, 2))),
        )
        branches.append((pat, expr))
    return PiecewiseFn(VARS_XT, tuple(folded), tuple(branches),
                       ("specular",) * len(folded), domain=dom)


# ---------------------------------------------------------------------------
# Verification reports

@dataclass
class ResidualReport:
    rows: list       # (point, operator_value, f_value, residual, d2t, d2x)
    max_abs: float


def first_partial_fields(u: PiecewiseFn):
    """(u_x, u_t) as piecewise fields; closure branches are differentiated
    by finite differences."""
    return partial_field(u, 0, numeric=True), partial_field(u, 1, numeric=True)


def wave_operator_fields(ux: PiecewiseFn, ut: PiecewiseFn):
    """(dS_t u_t, dS_x u_x, their difference) as piecewise fields, from the
    first-partial fields of ``first_partial_fields``."""
    wtt = specular_field(ut, 1, numeric=True)
    wxx = specular_field(ux, 0, numeric=True)
    return wtt, wxx, pw_add(wtt, wxx, -1.0)


def wave_residual(sol: SolutionField, f: Optional[PiecewiseFn], points) -> ResidualReport:
    """PDE residual dS_t u_t - dS_x u_x - f at the given points.

    Off the singular lines the operator is evaluated branchwise.  On a
    line the difference field is extended properly: the A-combination of
    its one-sided values (matching how the force stores its own on-line
    values); the per-axis operator values are also reported so on-line
    diagonal entries like A(2, 0) are visible."""
    wtt, wxx, W = wave_operator_fields(*first_partial_fields(sol.u))
    rows = []
    worst = 0.0
    for p in points:
        val = W.evaluate(p)
        fval = f.evaluate(p) if f is not None else 0.0
        resid = val - fval
        rows.append((tuple(p), val, fval, resid, wtt.evaluate(p), wxx.evaluate(p)))
        worst = max(worst, abs(resid))
    return ResidualReport(rows, worst)


def transport_residual(sol: SolutionField, points) -> ResidualReport:
    rows = []
    worst = 0.0
    for p in points:
        val = specular_partial(sol.u, p, 1, numeric=True) + specular_partial(
            sol.u, p, 0, numeric=True
        )
        rows.append((tuple(p), val, 0.0, val, math.nan, math.nan))
        worst = max(worst, abs(val))
    return ResidualReport(rows, worst)


@dataclass
class HypothesisHReport:
    rows: list       # (point, criterion residual or None, note)
    failures: list


def hypothesis_h_check(sol: SolutionField, points=None, box=(-6.0, 6.0), K: int = 9) -> HypothesisHReport:
    """Evaluate the strong-tangent criterion of v = u_t - u_x at on-line
    samples; hypothesis (H) demands a strong specular tangent there."""
    from .tangent2d import CenterMismatch, strong_criterion_residual, tol_crit

    ux, ut = first_partial_fields(sol.u)
    v = pw_add(ut, ux, -1.0)
    if points is None:
        points = []
        for k in range(len(v.forms)):
            points.extend(line_samples(v, k, K=K, box=box))
    rows, failures = [], []
    for p in points:
        try:
            res = strong_criterion_residual(v, p)
        except CenterMismatch as e:
            rows.append((tuple(p), None, f"center mismatch: {e}"))
            failures.append(tuple(p))
            continue
        pair1 = semi_derivatives(v, p, 0, numeric=True)
        pair2 = semi_derivatives(v, p, 1, numeric=True)
        tol = tol_crit(pair1.right, pair1.left, pair2.right, pair2.left)
        rows.append((tuple(p), res, ""))
        if abs(res) > tol:
            failures.append(tuple(p))
    return HypothesisHReport(rows, failures)


def initial_conditions_residual(sol: SolutionField, phi: PiecewiseFn, psi: PiecewiseFn, xs) -> tuple:
    """Max |u(x,0) - phi(x)| and |right t-slope at (x,0) - psi(x)|."""
    worst_u = worst_v = 0.0
    for x in xs:
        p = (float(x), 0.0)
        worst_u = max(worst_u, abs(sol.u.evaluate(p) - phi.evaluate((float(x),))))
        alpha = semi_derivative_one_sided(sol.u, p, 1, +1, numeric=True)
        worst_v = max(worst_v, abs(alpha - psi.evaluate((float(x),))))
    return worst_u, worst_v


def boundary_residual(sol: SolutionField, ts) -> float:
    return max(abs(sol.u.evaluate((0.0, float(t)))) for t in ts)
