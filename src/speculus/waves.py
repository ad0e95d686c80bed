"""Constructive 1D transport/wave solvers in the specular calculus.

Solutions are assembled symbolically as PiecewiseFn fields over (x, t):
data branches are composed with the characteristic substitutions x +/- t,
the velocity integral uses a continuous symbolic antiderivative anchored
at 0, and the nonhomogeneous Duhamel term is folded to exact per-region
quadratics whenever the force is piecewise constant between characteristic
lines (verified by an exact polygon-clipping integral).  Where no closed
form exists (a velocity without a symbolic antiderivative, other forces)
each region's branch is an ``Opaque`` leaf evaluated by quadrature, whose
partials (the velocity's branch; the Leibniz rule for the Duhamel term,
taken on a line as the limit from the region) make the derivative fields
of every solution expressions to second order, with no difference
quotient.

The checks of a solution live here too.  ``residual_column`` is the one
PDE residual: ``solve`` writes it as the CSV's residual column and ``check
residual`` prints its largest magnitude.
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
    Expr,
    Var,
    add,
    antiderivative,
    eval_expr,
    find_form,
    free_vars,
    mul,
    opaque,
    powi,
    sub,
    subst,
)
from .piecewise import (
    BranchLookupError,
    PiecewiseFn,
    Points,
    _edge_points,
    _meet,
    _sign,
    a_combine,
    classify_continuity,
    columns,
    filled,
    finite_abs,
    is_proper,
    merge_forms,
    pw_add,
    pw_compose_affine,
    pw_hold,
    pw_scale,
    pw_select,
    regions,
    safe_eval,
)
from .quad import _area, characteristic_integral, clip_cells, integrate_1d, integrate_triangle
from .specular import (
    SemiDerivativePair,
    partial_field,
    semi_derivative_one_sided,
    specular_field,
    specular_partial,
)
from .tangent2d import CenterMismatch, _check_center, _criterion

VARS_XT = ("x", "t")
FORM_X = AffineForm((1.0, 0.0), 0.0)
FORM_T = AffineForm((0.0, 1.0), 0.0)
FORM_X_MINUS_T = AffineForm((1.0, -1.0), 0.0)


class SolverPrecondition(Exception):
    """A data-class hypothesis of a solver is violated."""


# ---------------------------------------------------------------------------
# 1D data-class checks

def _roots(forms) -> list:
    return sorted(f.offset / f.coeffs[0] for f in forms)


def check_displacement(phi: PiecewiseFn) -> list:
    """S^2-style requirements on the initial displacement: continuity,
    existence of the classical derivative at each singular point, and a
    proper second specular field."""
    problems = []
    if classify_continuity(phi).verdict != "continuous":
        problems.append("initial displacement is discontinuous")
        return problems
    d1 = partial_field(phi, 0)
    jumps = [phi.forms[k] for k in classify_continuity(d1).jump_forms]
    problems += [f"displacement derivative jumps at x={r}" for r in _roots(jumps)]
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
    roots = _roots(psi.forms)
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
            # one quadrature leaf per region, whose partial is the region's branch
            quad, table = partial(integrate_1d, psi, 0.0), []
            for pat in map(region_pattern, range(n + 1)):
                rhs = psi.match(pat)
                grads = None if rhs is None else lambda y, rhs=rhs: (subst(rhs, {var: y}),)
                table.append((pat, opaque(quad, (Var(var),), grads)))
            return PiecewiseFn(psi.vars, psi.forms, tuple(table), "specular")
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
    return PiecewiseFn(psi.vars, psi.forms, table, "specular")


# ---------------------------------------------------------------------------
# Solvers

def solve_transport(h: PiecewiseFn) -> PiecewiseFn:
    if h.d != 1:
        raise SolverPrecondition("transport data must be 1D")
    if classify_continuity(h).verdict != "continuous":
        raise SolverPrecondition("transport data is not specularly differentiable")
    return pw_compose_affine(h, (1.0, -1.0), 0.0, VARS_XT)


def _dalembert_field(phi: PiecewiseFn, Psi: PiecewiseFn, back=(1.0, -1.0), sign: float = 1.0,
                     domain: tuple = ()) -> PiecewiseFn:
    """(phi(x+t) + sign*phi(b) + Psi(x+t) - Psi(b)) / 2 with b = back.(x, t):
    d'Alembert's sum, and with back (-1, 1) and sign -1 its odd reflection."""
    A, B, C, D = (pw_compose_affine(h, c, 0.0, VARS_XT, domain=domain)
                  for h, c in ((phi, (1.0, 1.0)), (phi, back), (Psi, (1.0, 1.0)), (Psi, back)))
    return pw_scale(0.5, pw_add(pw_add(A, B, sign), pw_add(C, D, -1.0)))


def solve_wave_homogeneous(phi: PiecewiseFn, psi: PiecewiseFn) -> PiecewiseFn:
    bad = check_displacement(phi) + check_velocity(psi)
    if bad:
        raise SolverPrecondition("; ".join(bad))
    return _dalembert_field(phi, antiderivative_pw(psi))


def solve_wave_halfline(phi: PiecewiseFn, psi: PiecewiseFn) -> PiecewiseFn:
    bad = check_displacement(phi) + check_velocity(psi)
    if abs(phi.evaluate((0.0,))) > 1e-12 or abs(psi.evaluate((0.0,))) > 1e-12:
        bad.append("half-line compatibility phi(0) = psi(0) = 0 fails")
    if bad:
        raise SolverPrecondition("; ".join(bad))
    dom = ((FORM_X, 1), (FORM_T, 1))
    Psi = antiderivative_pw(psi)
    u_right = _dalembert_field(phi, Psi, domain=dom)
    u_left = _dalembert_field(phi, Psi, (-1.0, 1.0), -1.0, dom)
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
    return pw_add(_dalembert_field(phi, antiderivative_pw(psi)), duhamel_term(f))


# ---------------------------------------------------------------------------
# Duhamel term

def _duhamel_lines(f: PiecewiseFn) -> list:
    """The characteristics x -+ t = c through each point in t >= 0 where two
    lines of f, or one and t = 0, meet (on t = 0 first, left to right), then
    f's lines: for characteristic f, x -+ t = c over its offsets c."""
    points = {p for g, h in itertools.combinations(list(f.forms) + [FORM_T], 2)
              if (p := _meet(g, h)) is not None and p[1] >= 0.0}
    return merge_forms([[AffineForm((1.0, -1.0), y - s), AffineForm((1.0, 1.0), y + s)]
                        for y, s in sorted(points, key=lambda p: (p[1] > 0.0, p))] + [f.forms])


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
    cells = dict(clip_cells(f.forms, [(x0 - t0, 0.0), (x0 + t0, 0.0), (x0, t0)]))
    total = 0.0
    for pat, v in values.items():
        if v != 0.0 and pat in cells:
            total += v * _area(cells[pat])
    return 0.5 * total


def _duhamel_quadrature(f: PiecewiseFn, x: float, t: float) -> float:
    return 0.5 * integrate_triangle(f, x, t) if t > 0 else 0.0


def _sgn(v: float) -> int:
    return (v > 0.0) - (v < 0.0)


def _characteristic_slope(g: PiecewiseFn, sigma: float, side, x: float, t: float) -> float:
    """Q_sigma = dP_sigma/dx: the integral of g_y along the path, plus (g
    just before - g just after) * ds_k/du at each line a y + b s = e of g
    that it crosses at s_k(u) = (e - a u) / (b - sigma a), u = x + sigma t.
    These are the crossings of the paths of the region's points near (x,
    t), side(form) being its side of a line: a path end on line k lies on
    the region's side of k or of the characteristic through the start, and
    lines met at one point are crossed in the order of s_k on the region's
    side of the characteristic through it.  0 for t <= 0."""
    if t <= 0.0:
        return 0.0
    u = x + sigma * t
    rates = [b - sigma * a for a, b in (form.coeffs for form in g.forms)]

    def tie() -> int:  # the sign of u' - u in the region
        return side(AffineForm((1.0, sigma), u))

    terms = [characteristic_integral(partial_field(g, 0), sigma, x, t)]
    for k, (form, rate) in enumerate(zip(g.forms, rates)):
        a = form.coeffs[0]  # a line with a = 0 is crossed at an s that x does not move
        if a == 0.0 or (_sign(form, (u, 0.0)) or _sgn(a) * tie()) == (_sign(form, (x, t)) or side(form)):
            continue
        s = min(max((form.offset - a * u) / rate, 0.0), t)
        q = (u - sigma * s, s)
        signs = [_sign(other, q) or (m != k and -_sgn(rates[m]) * tie()
                                     * _sgn(a / rate - other.coeffs[0] / rates[m]))
                 for m, other in enumerate(g.forms)]
        before, after = (eval_expr(g.branch(tuple(signs[:k] + [r] + signs[k + 1:])), dict(zip(g.vars, q)))
                         for r in (-_sgn(rate), _sgn(rate)))
        terms.append((before - after) * (-a / rate))
    return math.fsum(terms)


def _duhamel_leaf(f: PiecewiseFn, lines: list, pat) -> Expr:
    """0.5 * iint_{triangle(x,t)} f on the region of the lines with sign
    pattern pat: a quadrature leaf with the Leibniz partials w_x = (P+ -
    P-)/2, w_t = (P+ + P-)/2.  P_sigma (``characteristic_integral``) is a
    leaf with the partials (Q_sigma, f + sigma Q_sigma), f the region's
    branch of f and Q_sigma (``_characteristic_slope``) a leaf without
    partials.  On the region's boundary each is its limit from the region:
    the lines of f parallel to a path are held on the region's side."""
    def side(form: AffineForm) -> int:
        return pat[find_form(lines, form)]

    f_rhs = f.branch(tuple(map(side, f.forms)))
    along = {}
    for sigma in (1.0, -1.0):
        g = pw_hold(f, {k: side(form) for k, form in enumerate(f.forms)
                        if abs(form.coeffs[1] - sigma * form.coeffs[0]) <= 1e-12})
        along[sigma] = (partial(characteristic_integral, g, sigma),
                        partial(_characteristic_slope, g, sigma, side))

    def along_partials(sigma, x, t):
        if f_rhs is None:
            raise BranchLookupError(f"no branch of the force on the region {pat}")
        q = opaque(along[sigma][1], (x, t))
        return q, add(subst(f_rhs, dict(zip(f.vars, (x, t)))), mul(Const(sigma), q))

    def partials(x, t):
        plus, minus = (opaque(along[sigma][0], (x, t), partial(along_partials, sigma))
                       for sigma in (1.0, -1.0))
        return mul(Const(0.5), sub(plus, minus)), mul(Const(0.5), add(plus, minus))

    return opaque(partial(_duhamel_quadrature, f), (Var("x"), Var("t")), partials)


def _fit_quadratic(f: PiecewiseFn, values, lines: list, pat) -> Optional[Expr]:
    """The Duhamel term of a piecewise-constant f on the region of the lines
    with sign pattern pat as a quadratic, fitted from exact clipped areas on
    a small grid around the region's point nearest the origin
    (``_fit_center``) and re-verified; None for a region too thin to fit."""
    center, mu = _fit_center(list(zip(lines, pat)) + [(FORM_T, 1)])
    # Stepping by h*sqrt(2) moves each form value by at most 2h, so the
    # whole 3x3 grid stays strictly inside the region for h = mu / 4.
    h = mu / 4.0
    cells = {(i, j): (center[0] + i * h, center[1] + j * h) for i in (-1, 0, 1) for j in (-1, 0, 1)}
    # sliver regions (h < 1e-3): differencing would lose precision
    if h < 1e-3 or not all(p[1] > 0 and all(s * g.value(p) > 0 for g, s in zip(lines, pat))
                           for p in cells.values()):
        return None
    grid = {ij: _duhamel_exact(f, values, *p) for ij, p in cells.items()}
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
        pred = (coef[0] + coef[1] * u + coef[2] * v
                + coef[3] * u * u + coef[4] * u * v + coef[5] * v * v)
        if abs(pred - _duhamel_exact(f, values, center[0] + u, center[1] + v)) > 1e-7 * scale:
            return None
    dust = 1e-15 * (1.0 + max(abs(v) for v in grid.values())) / (h * h)
    coef = np.where(np.abs(coef) < dust, 0.0, coef)
    X, T = sub(Var("x"), Const(center[0])), sub(Var("t"), Const(center[1]))
    c = [Const(float(v)) for v in coef]
    return add(add(add(c[0], mul(c[1], X)), add(mul(c[2], T), mul(c[3], powi(X, 2)))),
               add(mul(c[4], mul(X, T)), mul(c[5], powi(T, 2))))


def duhamel_term(f: PiecewiseFn) -> PiecewiseFn:
    """The field (x, t) -> 0.5 * iint_{triangle(x,t)} f, with domain t > 0,
    on the lines ``_duhamel_lines``.  Where the force is piecewise constant
    between characteristic lines each region's branch is an exact quadratic
    (``_fit_quadratic``); elsewhere, and on a region too thin to fit, it is
    a quadrature leaf (``_duhamel_leaf``)."""
    dom = ((FORM_T, 1),)
    folded = _duhamel_lines(f)
    chars = all(g.coeffs[0] == 1.0 and abs(abs(g.coeffs[1]) - 1.0) <= 1e-12 for g in f.forms)
    values = _piecewise_constant_values(f) if chars else None
    branches = []
    for pat in regions(folded, dom, 2):
        quadratic = None if values is None else _fit_quadratic(f, values, folded, pat)
        branches.append((pat, quadratic if quadratic is not None else _duhamel_leaf(f, folded, pat)))
    return PiecewiseFn(VARS_XT, tuple(folded), tuple(branches), "specular", domain=dom)


# ---------------------------------------------------------------------------
# Verification reports

def wave_operator_fields(u: PiecewiseFn):
    """(dS_t u_t, dS_x u_x, their difference) as piecewise fields."""
    wtt = specular_field(partial_field(u, 1), 1)
    wxx = specular_field(partial_field(u, 0), 0)
    return wtt, wxx, pw_add(wtt, wxx, -1.0)


def residual_column(u: PiecewiseFn, kind: str, f: Optional[PiecewiseFn], cols: Points,
                    partials=None) -> tuple:
    """The PDE residual of u at cols, as the (values, covered, scalar)
    column that ``filled`` takes: dS_t u + dS_x u for ``transport``
    (``transport_operator_many``, given the partials it takes); for a wave
    kind W - f, W = dS_t u_t - dS_x u_x, which on a line is the A-combination
    of its one-sided values as f stores its own, covered where both are."""
    if kind == "transport":
        return (*transport_operator_many(u, cols, partials), partial(transport_operator, u))
    W = wave_operator_fields(u)[2]
    values, covered = W.evaluate_many(cols)
    if f is None:
        return values, covered, partial(safe_eval, W)
    fv, fc = f.evaluate_many(cols)
    return values - fv, covered & fc, lambda p: safe_eval(W, p) - safe_eval(f, p)


def residual_max(u: PiecewiseFn, kind: str, f: Optional[PiecewiseFn], points) -> float:
    """The largest |residual| of u at the points, as ``check residual``
    prints it: ``residual_column`` ``filled`` there."""
    cols = columns(points, 2)
    return max(map(finite_abs, filled(cols, [residual_column(u, kind, f, cols)])[0].tolist()), default=0.0)


def transport_operator(u: PiecewiseFn, p) -> float:
    """dS_t u + dS_x u at one point."""
    return specular_partial(u, p, 1) + specular_partial(u, p, 0)


def transport_operator_many(u: PiecewiseFn, cols, partials=None) -> tuple:
    """``transport_operator`` at many points, as (values, covered) with the
    contract of ``PiecewiseFn.evaluate_many``: A(right_t, left_t) +
    A(right_x, left_x) of the ``_slopes`` table, run through ``math`` once
    per distinct bit pattern of its four entries (-0.0 and 0.0 stay apart)
    and indexed back into every point that holds it.  cols as a ``Points``,
    and partials as the caller has them."""
    table, covered = _slopes(u, Points(cols), partials)
    _, first, inverse = np.unique(table.view(np.dtype((np.void, 32))).ravel(),
                                  return_index=True, return_inverse=True)
    distinct = [a_combine(rt, lt) + a_combine(rx, lx) for rx, lx, rt, lt in table[first].tolist()]
    return np.array(distinct, dtype=float)[inverse], covered


def _slopes(u: PiecewiseFn, cols: Points, partials=None) -> tuple:
    """(table, covered): the right and left semi-derivatives of u along x,
    then t, as the own-axis limits of its partial fields (partials: their
    ``evaluate_batch`` at cols with axes (0,) and (1,)).  A point is covered
    where all four are covered and finite and no axis runs along its line,
    since there a field's limit is not the semi-derivative."""
    if partials is None:
        partials = [partial_field(u, axis).evaluate_batch(cols, (axis,), False) for axis in (0, 1)]
    entries = [partials[axis][axis, d] for axis in (0, 1) for d in (1, -1)]
    table = np.column_stack([values for values, _ in entries])
    covered = np.isfinite(table).all(axis=1) & np.logical_and.reduce([ok for _, ok in entries])
    for s, idx in cols.groups(u.forms):
        covered[idx] &= all(0.0 not in u.forms[k].coeffs for k, q in enumerate(s) if q == 0)
    return table, covered


@dataclass
class HypothesisHReport:
    rows: list       # (point, criterion residual or None, note)
    failures: list


def hypothesis_h_check(u: PiecewiseFn) -> HypothesisHReport:
    """Evaluate the strong-tangent criterion of v = u_t - u_x at the edge
    samples of its lines; hypothesis (H) demands a strong specular tangent
    there.  v's ``_slopes`` and the mids of its limits along x and t come
    from batches on the cached edge ``Points``; the points they leave are
    ``filled`` by ``semi_derivative_one_sided`` and ``one_sided_limits``."""
    v = pw_add(partial_field(u, 1), partial_field(u, 0), -1.0)
    cols = _edge_points(v.forms, v.domain, v.d)
    table, good = _slopes(v, cols)
    limits = v.evaluate_batch(cols, (0, 1), False)
    slopes = [(table[:, j], good, partial(semi_derivative_one_sided, v, axis=axis, direction=d))
              for j, (axis, d) in enumerate(itertools.product((0, 1), (1, -1)))]
    mids = [(0.5 * (limits[axis, -1][0] + limits[axis, 1][0]), limits[axis, -1][1] & limits[axis, 1][1],
             lambda p, axis=axis: v.one_sided_limits(p, axis).mid) for axis in (0, 1)]
    rows, failures = [], []
    for x, t, a1, b1, a2, b2, mid1, mid2 in zip(*(c.tolist() for c in (*cols, *filled(cols, slopes + mids)))):
        try:
            _check_center(mid1, mid2)
        except CenterMismatch as e:
            rows.append(((x, t), None, f"center mismatch: {e}"))
            failures.append((x, t))
            continue
        res, tol = _criterion(SemiDerivativePair(a1, b1, 0), SemiDerivativePair(a2, b2, 1))
        rows.append(((x, t), res, ""))
        if finite_abs(res) > tol:
            failures.append((x, t))
    return HypothesisHReport(rows, failures)


def initial_conditions_residual(u: PiecewiseFn, phi: PiecewiseFn, psi: Optional[PiecewiseFn],
                                xs) -> tuple:
    """Max |u(x,0) - phi(x)| and |right t-slope at (x,0) - psi(x)| (None
    without psi).  The slopes are the right t-limits of ``partial_field(u,
    1)`` from one batch, finite where covered, and their scalar is
    ``semi_derivative_one_sided``; the points the batches leave are
    ``filled`` in the order (u, phi, slope, psi)."""
    cols = columns([(float(x), 0.0) for x in xs], 2)
    line = Points(cols[:1])

    def at_x(g: PiecewiseFn) -> tuple:
        return (*g.evaluate_many(line), lambda p: g.evaluate(p[:1]))

    parts = [(*u.evaluate_many(cols), u.evaluate), at_x(phi)]
    if psi is not None:
        slopes, covered = partial_field(u, 1).evaluate_batch(cols, (1,), False)[1, 1]
        parts += [(slopes, covered & np.isfinite(slopes), lambda p: semi_derivative_one_sided(u, p, 1, +1)),
                  at_x(psi)]
    values = filled(cols, parts)
    diffs = np.column_stack([a - b for a, b in zip(values[::2], values[1::2])])
    # finite_abs row by row, so that a non-finite residual raises as in a scalar pass
    worst = np.reshape(list(map(finite_abs, diffs.ravel().tolist())), diffs.shape).max(axis=0, initial=0.0)
    return worst[0].item(), worst[1].item() if psi is not None else None


def boundary_residual(u: PiecewiseFn, ts) -> float:
    cols = columns([(0.0, float(t)) for t in ts], 2)
    return max(map(finite_abs, filled(cols, [(*u.evaluate_many(cols), partial(safe_eval, u))])[0].tolist()))
