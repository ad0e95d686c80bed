"""Constructive 1D transport/wave solvers in the specular calculus.

Solutions are assembled symbolically as PiecewiseFn fields over (x, t):
data branches are composed with the characteristic substitutions x +/- t,
the velocity integral uses a continuous symbolic antiderivative anchored
at 0, and the nonhomogeneous Duhamel term is folded to exact per-region
quadratics whenever the force is piecewise constant between characteristic
lines (verified by an exact polygon-clipping integral).  Where no closed
form exists (a velocity without a symbolic antiderivative, other forces)
the branch is an ``Opaque`` leaf evaluated by quadrature.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .expr import (
    AffineForm,
    Const,
    Var,
    add,
    antiderivative,
    eval_expr,
    free_vars,
    mul,
    opaque,
    powi,
    sub,
)
from .piecewise import (
    PiecewiseFn,
    _edge_samples,
    _meet,
    _sign,
    a_combine,
    classify_continuity,
    evaluate_at,
    is_proper,
    merge_forms,
    pw_add,
    pw_compose_affine,
    pw_scale,
    pw_select,
    regions,
    tol_jump,
)
from .quad import integrate_1d, integrate_triangle
from .specular import (
    partial_field,
    semi_derivative_many,
    semi_derivative_one_sided,
    semi_derivatives,
    specular_field,
    specular_partial,
    specularly_differentiable_1d,
)
from .tangent2d import CenterMismatch, _center_and_pairs, _criterion

VARS_XT = ("x", "t")
FORM_X = AffineForm((1.0, 0.0), 0.0)
FORM_T = AffineForm((0.0, 1.0), 0.0)
FORM_X_MINUS_T = AffineForm((1.0, -1.0), 0.0)


class SolverPrecondition(Exception):
    """A data-class hypothesis of a solver is violated."""


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
        if abs(pair.right - pair.left) > tol_jump(pair.right, pair.left):
            problems.append(f"displacement derivative jumps at x={r}")
    d1 = partial_field(phi, 0)
    ok, _ = is_proper(specular_field(d1, 0))
    if not ok:
        problems.append("second specular field of the displacement is not proper")
    return problems


def check_velocity(psi: PiecewiseFn) -> list:
    return [] if is_proper(psi)[0] else ["initial velocity is not proper"]


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
        anti = antiderivative(rhs, var) if rhs is not None else None
        if anti is None:
            quad = opaque(partial(integrate_1d, psi, 0.0), (Var(var),))
            table = tuple((region_pattern(k), quad) for k in range(n + 1))
            return PiecewiseFn(psi.vars, psi.forms, table, ("specular",) * n)
        branch_exprs.append(anti)

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

def solve_transport(h: PiecewiseFn) -> PiecewiseFn:
    if h.d != 1:
        raise SolverPrecondition("transport data must be 1D")
    if not specularly_differentiable_1d(h):
        raise SolverPrecondition("transport data is not specularly differentiable")
    return pw_compose_affine(h, (1.0, -1.0), 0.0, VARS_XT)


def _dalembert_field(phi: PiecewiseFn, psi: PiecewiseFn) -> PiecewiseFn:
    Psi = antiderivative_pw(psi)
    A = pw_compose_affine(phi, (1.0, 1.0), 0.0, VARS_XT)
    B = pw_compose_affine(phi, (1.0, -1.0), 0.0, VARS_XT)
    C = pw_compose_affine(Psi, (1.0, 1.0), 0.0, VARS_XT)
    D = pw_compose_affine(Psi, (1.0, -1.0), 0.0, VARS_XT)
    return pw_scale(0.5, pw_add(pw_add(A, B), pw_add(C, D, -1.0)))


def solve_wave_homogeneous(phi: PiecewiseFn, psi: PiecewiseFn) -> PiecewiseFn:
    bad = check_displacement(phi) + check_velocity(psi)
    if bad:
        raise SolverPrecondition("; ".join(bad))
    return _dalembert_field(phi, psi)


def solve_wave_halfline(phi: PiecewiseFn, psi: PiecewiseFn) -> PiecewiseFn:
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
    return pw_select(FORM_X_MINUS_T, u_right, u_left)


def solve_wave_nonhomogeneous(
    phi: PiecewiseFn, psi: PiecewiseFn, f: PiecewiseFn
) -> PiecewiseFn:
    bad = check_displacement(phi) + check_velocity(psi)
    ok, _ = is_proper(f)
    if not ok:
        bad.append("force is not proper")
    if bad:
        raise SolverPrecondition("; ".join(bad))
    return pw_add(_dalembert_field(phi, psi), duhamel_term(f))


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
    for pat in regions(f.forms, f.domain, f.d):
        rhs = f.match(pat)
        if rhs is None or free_vars(rhs):
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


def _shrunk_candidates(cons, mu: float) -> list:
    """The crossings of the edge lines of the polygon sign * l(p) >= mu (over
    the signed forms) with each other and with the axes that lie in it.  The
    polygon is non-empty exactly when one does, and the least |x| + |t| over
    it is attained at one of them."""
    lines = [AffineForm(f.coeffs, f.offset + s * mu) for f, s in cons]
    points = [_meet(g, h) for g, h in itertools.combinations(lines + [FORM_X, FORM_T], 2)]
    return [p for p in points
            if p is not None and all(_sign(g, p) != -s for g, (_, s) in zip(lines, cons))]


def _fit_center(cons):
    """(center, mu) of the quadratic fit on the region of the signed forms.
    mu = 0.9 * min(margin, 1), where the margin is the largest common value
    of sign * l(p); below 1 it is reached where three forms are equally
    tight.  The center is the point of least |x| + |t| of the region shrunk
    by mu (the largest x among ties): near the origin the fitted values stay
    O(1), so round-off in the recovered coefficients does not amplify when
    an unbounded region's quadratic is extrapolated."""
    margin = 1.0 if _shrunk_candidates(cons, 1.0) else 0.0
    for tight in itertools.combinations(cons if margin < 1.0 else (), 3):
        a = [[s * c for c in f.coeffs] + [-1.0] for f, s in tight]
        if abs(np.linalg.det(a)) > 1e-12:
            *p, m = np.linalg.solve(a, [s * f.offset for f, s in tight])
            if all(s * f.value(p) >= m - 1e-12 for f, s in cons):
                margin = max(margin, float(m))
    points = _shrunk_candidates(cons, 0.9 * margin)
    norm = min(abs(x) + abs(t) for x, t in points)
    near = [p for p in points if abs(p[0]) + abs(p[1]) <= norm + 1e-12 * (1.0 + norm)]
    return max(near, key=lambda p: p[0]), 0.9 * margin


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


def _duhamel_quadrature(f: PiecewiseFn, x: float, t: float) -> float:
    return 0.5 * integrate_triangle(f, x, t) if t > 0 else 0.0


def duhamel_term(f: PiecewiseFn) -> PiecewiseFn:
    """The field (x, t) -> 0.5 * iint_{triangle(x,t)} f, with domain t > 0.

    For forces that are piecewise constant between characteristic lines the
    term is an exact per-region quadratic: the folded region structure is
    the arrangement of the apex lines x-t = c, x+t = c over all data
    offsets c.  Each region's quadratic is fitted from exact clipped areas
    on a small grid around the region's point nearest the origin
    (``_fit_center``) and re-verified before being accepted."""
    dom = ((FORM_T, 1),)
    chars = _characteristic_constants(f)
    values = _piecewise_constant_values(f) if chars is not None else None

    offsets = sorted({c for _, c in chars}) if chars else []
    folded = merge_forms([[AffineForm((1.0, -1.0), c), AffineForm((1.0, 1.0), c)]
                          for c in offsets])

    quad = opaque(partial(_duhamel_quadrature, f), (Var("x"), Var("t")))
    if values is None:
        table = (((None,) * len(folded), quad),)
        return PiecewiseFn(VARS_XT, tuple(folded), table,
                           ("specular",) * len(folded), domain=dom)

    branches = []
    for pat in regions(folded, dom, 2):
        center, mu = _fit_center(list(zip(folded, pat)) + list(dom))
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
            branches.append((pat, quad))
            continue
        dust = 1e-15 * (1.0 + max(abs(v) for v in grid.values())) / (h * h)
        coef = np.where(np.abs(coef) < dust, 0.0, coef)
        X = sub(Var("x"), Const(center[0]))
        T = sub(Var("t"), Const(center[1]))
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


def wave_operator_fields(u: PiecewiseFn):
    """(dS_t u_t, dS_x u_x, their difference) as piecewise fields."""
    wtt = specular_field(partial_field(u, 1), 1)
    wxx = specular_field(partial_field(u, 0), 0)
    return wtt, wxx, pw_add(wtt, wxx, -1.0)


def wave_residual(u: PiecewiseFn, f: Optional[PiecewiseFn], points) -> ResidualReport:
    """PDE residual dS_t u_t - dS_x u_x - f at the given points.

    Off the singular lines the operator is evaluated branchwise.  On a
    line the difference field is extended properly: the A-combination of
    its one-sided values (matching how the force stores its own on-line
    values); the per-axis operator values are also reported so on-line
    diagonal entries like A(2, 0) are visible."""
    wtt, wxx, W = wave_operator_fields(u)
    points = [tuple(p) for p in points]
    forces = evaluate_at(f, points) if f is not None else itertools.repeat(0.0)
    rows = []
    worst = 0.0
    for p, val, fval, tt, xx in zip(points, evaluate_at(W, points), forces,
                                    evaluate_at(wtt, points), evaluate_at(wxx, points)):
        resid = val - fval
        rows.append((p, val, fval, resid, tt, xx))
        worst = max(worst, abs(resid))
    return ResidualReport(rows, worst)


def transport_operator(u: PiecewiseFn, p) -> float:
    """dS_t u + dS_x u at one point."""
    return specular_partial(u, p, 1) + specular_partial(u, p, 0)


def transport_operator_many(u: PiecewiseFn, cols, partials=None) -> tuple:
    """``transport_operator`` at many points, as (values, covered) with the
    contract of ``PiecewiseFn.evaluate_many``.  Off the lines both one-sided
    slopes along an axis are the partial field's value d there, so the
    specular partial is A(d, d), run per point through ``math``.  partials:
    the (values, covered) of ``partial_field(u, 0)`` and ``(u, 1)`` at
    cols, if the caller has them."""
    if partials is None:
        partials = [partial_field(u, axis).evaluate_many(cols) for axis in (0, 1)]
    (dx, cx), (dt, ct) = partials
    values = np.array([a_combine(a, a) + a_combine(b, b) for a, b in zip(dt.tolist(), dx.tolist())])
    off_lines = (u.sign_matrix(cols) != 0).all(axis=1)
    return values, cx & ct & np.isfinite(dx) & np.isfinite(dt) & off_lines


def transport_residual(u: PiecewiseFn, points) -> ResidualReport:
    points = [tuple(p) for p in points]
    values, covered = transport_operator_many(u, np.reshape(points, (-1, 2)).T)
    rows = []
    worst = 0.0
    for p, val, ok in zip(points, values.tolist(), covered.tolist()):
        if not ok:
            val = transport_operator(u, p)
        rows.append((p, val, 0.0, val, math.nan, math.nan))
        worst = max(worst, abs(val))
    return ResidualReport(rows, worst)


@dataclass
class HypothesisHReport:
    rows: list       # (point, criterion residual or None, note)
    failures: list


def hypothesis_h_check(u: PiecewiseFn) -> HypothesisHReport:
    """Evaluate the strong-tangent criterion of v = u_t - u_x at the edge
    samples of its lines; hypothesis (H) demands a strong specular tangent
    there."""
    v = pw_add(partial_field(u, 1), partial_field(u, 0), -1.0)
    rows, failures = [], []
    for p in (p for line in _edge_samples(v.forms, v.domain, v.d) for p in line):
        try:
            _, pair1, pair2 = _center_and_pairs(v, p)
        except CenterMismatch as e:
            rows.append((tuple(p), None, f"center mismatch: {e}"))
            failures.append(tuple(p))
            continue
        res, tol = _criterion(pair1, pair2)
        rows.append((tuple(p), res, ""))
        if abs(res) > tol:
            failures.append(tuple(p))
    return HypothesisHReport(rows, failures)


def initial_conditions_residual(u: PiecewiseFn, phi: PiecewiseFn, psi: PiecewiseFn, xs) -> tuple:
    """Max |u(x,0) - phi(x)| and |right t-slope at (x,0) - psi(x)|."""
    xs = [(float(x),) for x in xs]
    points = [(x, 0.0) for (x,) in xs]
    psis = evaluate_at(psi, xs)
    slopes, covered = semi_derivative_many(u, np.reshape(points, (-1, 2)).T, 1, +1)
    worst_u = worst_v = 0.0
    for p, u0, phi0, slope, ok in zip(points, evaluate_at(u, points), evaluate_at(phi, xs),
                                      slopes.tolist(), covered.tolist()):
        worst_u = max(worst_u, abs(u0 - phi0))
        alpha = slope if ok else semi_derivative_one_sided(u, p, 1, +1)
        worst_v = max(worst_v, abs(alpha - next(psis)))
    return worst_u, worst_v


def boundary_residual(u: PiecewiseFn, ts) -> float:
    return max(abs(v) for v in evaluate_at(u, [(0.0, float(t)) for t in ts]))
