"""Specular derivatives: the A-combination, semi-derivatives, derivative
fields, phototangents, FTC conditions and S^2 membership.

The specular derivative at a point combines the right/left semi-derivative
slopes alpha, beta through

    F1:  A(a, b) = (a*b - 1 + sqrt((a^2+1)(b^2+1))) / (a + b)     (a+b != 0)
    F2:  A(a, b) = tan((arctan a + arctan b) / 2)

F2 is total (returns 0 when b = -a) and is the computational definition;
F1 is retained as a cross-check oracle.  Geometrically A is the slope of
the bisector direction between the two tangent rays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .expr import Const, Expr, diff, eval_expr, free_vars, pin_signs
from .piecewise import (
    PiecewiseFn,
    a_combine,
    classify_continuity,
    is_proper,
    line_samples,
    proper_value,
    regions,
)


class SpecularError(Exception):
    pass


# ---------------------------------------------------------------------------
# A-combination (F2 is ``piecewise.a_combine``)

def a_combine_f1(alpha: float, beta: float) -> float:
    """F1 evaluation.  The printed numerator cancels catastrophically when
    alpha + beta is small with alpha*beta < 1; in that regime we use the
    algebraically identical rationalized form
        A = (alpha + beta) / (sqrt((a^2+1)(b^2+1)) + 1 - a*b)
    obtained by multiplying through the conjugate (the difference of the
    two numerators is exactly (alpha+beta)^2)."""
    s = alpha + beta
    if s == 0.0:
        raise ZeroDivisionError("F1 undefined at beta = -alpha")
    root = math.sqrt((alpha * alpha + 1.0) * (beta * beta + 1.0))
    if alpha * beta < 1.0:
        return s / (root + 1.0 - alpha * beta)
    return (alpha * beta - 1.0 + root) / s


# ---------------------------------------------------------------------------
# Semi-derivatives and pointwise specular partials

@dataclass(frozen=True)
class SemiDerivativePair:
    right: float  # alpha_i
    left: float   # beta_i
    axis: int


def _side_slope(u: PiecewiseFn, p, axis: int, direction: int, numeric: bool) -> float:
    rhs = u.adjacent_rhs(p, axis, direction)
    if isinstance(rhs, Expr):
        val = eval_expr(diff(rhs, u.vars[axis]), dict(zip(u.vars, p)))
    elif numeric:
        val = _fd_one_sided(u, p, axis, direction)
    else:
        raise SpecularError(
            "adjacent branch is a numeric closure; pass numeric=True for the "
            "finite-difference fallback"
        )
    if not math.isfinite(val):
        raise SpecularError(f"non-finite semi-derivative at {tuple(p)} axis {axis}")
    return val


def _fd_one_sided(u: PiecewiseFn, p, axis: int, direction: int, h: float = 1e-6) -> float:
    # second-order one-sided stencil anchored at the one-sided limit value
    lim = u.one_sided_limits(p, axis)
    f0 = lim.right if direction > 0 else lim.left
    q1 = list(p)
    q1[axis] += direction * h
    q2 = list(p)
    q2[axis] += direction * 2 * h
    f1 = u.evaluate(tuple(q1))
    f2 = u.evaluate(tuple(q2))
    return direction * (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * h)


def semi_derivative_one_sided(
    u: PiecewiseFn, p, axis: int, direction: int, numeric: bool = False
) -> float:
    """Just one of alpha/beta; usable at domain-boundary points where the
    other side has no branch."""
    return _side_slope(u, p, axis, direction, numeric)


def semi_derivatives(u: PiecewiseFn, p, axis: int, numeric: bool = False) -> SemiDerivativePair:
    return SemiDerivativePair(
        right=_side_slope(u, p, axis, +1, numeric),
        left=_side_slope(u, p, axis, -1, numeric),
        axis=axis,
    )


def specular_partial(u: PiecewiseFn, p, axis: int, numeric: bool = False) -> float:
    pair = semi_derivatives(u, p, axis, numeric=numeric)
    return a_combine(pair.right, pair.left)


# ---------------------------------------------------------------------------
# Derivative fields

def _rhs_for_pattern(u: PiecewiseFn, sv):
    rhs = u.match(sv)
    if rhs is not None:
        return rhs
    if u.source is not None:
        assignment = [(f, sv[k]) for k, f in enumerate(u.forms) if sv[k] != 0]
        return pin_signs(u.source, u.vars, assignment, partial=True)
    return None


def _resolve_parallel_zeros(u: PiecewiseFn, sv):
    """For a sign vector with leftover zeros (forms parallel to the traversal
    axis): if every feasible completion selects the same branch expression,
    the on-line restriction is governed by that common branch exactly."""
    if 0 not in sv:
        return None
    common = None
    for full in regions(u.forms, u.domain, u.d, fixed=sv):
        rhs = _rhs_for_pattern(u, full)
        if rhs is None or not isinstance(rhs, Expr):
            return None
        if common is None:
            common = rhs
        elif rhs != common:
            return None
    return common


def _diff_rhs(u: PiecewiseFn, rhs, axis: int, numeric: bool):
    if isinstance(rhs, Expr):
        return diff(rhs, u.vars[axis])
    if not numeric:
        raise SpecularError("cannot differentiate a closure branch symbolically")
    return None  # caller builds a finite-difference closure


def specular_field(u: PiecewiseFn, axis: int, numeric: bool = False) -> PiecewiseFn:
    """The field p -> specular partial of u along the axis, as a PiecewiseFn
    on the same forms.  Open regions carry the branch derivative; on-line
    patterns carry A(alpha, beta) of the adjacent branch derivatives, folded
    to an exact constant when both are constant and kept as a pointwise
    closure otherwise."""
    m = len(u.forms)
    branches = []
    for pat in regions(u.forms, u.domain, u.d, values=(1, 0, -1)):
        if 0 not in pat:
            rhs = _rhs_for_pattern(u, pat)
            if rhs is None:
                raise SpecularError(f"no branch for open pattern {pat}")
            d = _diff_rhs(u, rhs, axis, numeric)
            if d is None:
                branches.append((pat, _fd_closure(u, axis)))
            else:
                branches.append((pat, d))
            continue
        sp = u.adjacent_sign_vector(pat, axis, +1)
        sm = u.adjacent_sign_vector(pat, axis, -1)
        rp, rm = _rhs_for_pattern(u, sp), _rhs_for_pattern(u, sm)
        if rp is None:
            rp = _resolve_parallel_zeros(u, sp)
        if rm is None:
            rm = _resolve_parallel_zeros(u, sm)

        def _resolvable(sv):
            # Forms parallel to the axis keep their 0 entry; if their
            # on-line values are the proper extension, the one-sided slope
            # is well defined pointwise and a finite-difference closure
            # along the line is sound.
            return any(
                sv[k] == 0 and u.policies[k] == "specular"
                for k in range(len(u.forms))
            )

        if rp is None and not _resolvable(sp):
            raise SpecularError(f"missing adjacent branch for on-line pattern {pat}")
        if rm is None and not _resolvable(sm):
            raise SpecularError(f"missing adjacent branch for on-line pattern {pat}")
        dp = _diff_rhs(u, rp, axis, numeric) if rp is not None else None
        dm = _diff_rhs(u, rm, axis, numeric) if rm is not None else None
        if dp is not None and dm is not None and not free_vars(dp) and not free_vars(dm):
            branches.append((pat, Const(proper_value(eval_expr(dp, {}), eval_expr(dm, {})))))
        else:
            branches.append((pat, _combine_closure(u, axis, dp, dm)))
    return PiecewiseFn(u.vars, u.forms, tuple(branches), ("branch",) * m, domain=u.domain)


def _fd_closure(u: PiecewiseFn, axis: int):
    def closure(*p):
        return specular_partial(u, p, axis, numeric=True)

    return closure


def _combine_closure(u: PiecewiseFn, axis: int, dp, dm):
    def closure(*p):
        alpha = (
            eval_expr(dp, dict(zip(u.vars, p)))
            if dp is not None
            else _fd_one_sided(u, p, axis, +1)
        )
        beta = (
            eval_expr(dm, dict(zip(u.vars, p)))
            if dm is not None
            else _fd_one_sided(u, p, axis, -1)
        )
        return proper_value(alpha, beta)

    return closure


def partial_field(u: PiecewiseFn, axis: int, numeric: bool = False) -> PiecewiseFn:
    """The a.e. classical partial-derivative field, with the specular
    combination of its own one-sided limits supplying on-line values (the
    proper extension); this is the u_x/u_y object of the 2D S^2 check."""
    m = len(u.forms)
    branches = []
    for pat in regions(u.forms, u.domain, u.d):
        rhs = _rhs_for_pattern(u, pat)
        if rhs is None:
            raise SpecularError(f"no branch for open pattern {pat}")
        d = _diff_rhs(u, rhs, axis, numeric)
        branches.append((pat, d if d is not None else _fd_closure(u, axis)))
    return PiecewiseFn(u.vars, u.forms, tuple(branches), ("specular",) * m, domain=u.domain)


# ---------------------------------------------------------------------------
# Odd reflection

def reflect_axis(u: PiecewiseFn, axis: int) -> PiecewiseFn:
    """The function p -> u(p with the given coordinate negated)."""
    from .expr import Neg, Var, normalize_affine, subst

    var = u.vars[axis]
    mapping = {var: Neg(Var(var))}
    new_forms, orient = [], []
    for f in u.forms:
        coeffs = tuple(-c if i == axis else c for i, c in enumerate(f.coeffs))
        form, scale = normalize_affine(coeffs, -f.offset)
        new_forms.append(form)
        orient.append(1 if scale > 0 else -1)

    def map_rhs(rhs):
        if isinstance(rhs, Expr):
            return subst(rhs, mapping)

        def closure(*p, _r=rhs):
            q = list(p)
            q[axis] = -q[axis]
            return u.eval_rhs(_r, q)

        return closure

    branches = []
    for pat, rhs in u.branches:
        new_pat = tuple(
            None if q is None else q * orient[k] for k, q in enumerate(pat)
        )
        branches.append((new_pat, map_rhs(rhs)))
    new_domain = []
    for f, s in u.domain:
        coeffs = tuple(-c if i == axis else c for i, c in enumerate(f.coeffs))
        form, scale = normalize_affine(coeffs, -f.offset)
        new_domain.append((form, s * (1 if scale > 0 else -1)))
    src = subst(u.source, mapping) if isinstance(u.source, Expr) else None
    return PiecewiseFn(u.vars, tuple(new_forms), tuple(branches), u.policies,
                       source=src, domain=tuple(new_domain))


def odd_reflection_check(u: PiecewiseFn, p, axis: int) -> float:
    """|dS_i[u o reflect](p) + dS_i u(p~)| with p~ the reflected point."""
    refl = reflect_axis(u, axis)
    q = list(p)
    q[axis] = -q[axis]
    return abs(specular_partial(refl, p, axis) + specular_partial(u, tuple(q), axis))


# ---------------------------------------------------------------------------
# Phototangent

@dataclass(frozen=True)
class Phototangent:
    anchor: float
    alpha: float   # right slope
    beta: float    # left slope
    left: float    # u(x]
    right: float   # u[x)
    center: float  # u[x]
    continuous: bool

    def __call__(self, y: float) -> float:
        if y > self.anchor:
            return self.right + self.alpha * (y - self.anchor)
        if y < self.anchor:
            return self.left + self.beta * (y - self.anchor)
        return self.center


def phototangent(u: PiecewiseFn, x: float) -> Phototangent:
    if u.d != 1:
        raise SpecularError("phototangent is defined for 1D functions")
    pair = semi_derivatives(u, (x,), 0)
    lim = u.one_sided_limits((x,), 0)
    tol = 1e-9 * (1.0 + abs(lim.left) + abs(lim.right))
    cont = abs(lim.left - lim.right) <= tol and abs(lim.mid - lim.left) <= tol
    return Phototangent(x, pair.right, pair.left, lim.left, lim.right, lim.mid, cont)


def specularly_differentiable_1d(u: PiecewiseFn) -> bool:
    """Phototangent continuity at every singular point (the Lemma's test)."""
    for k, f in enumerate(u.forms):
        x = f.offset / f.coeffs[0]
        if not phototangent(u, x).continuous:
            return False
    return True


# ---------------------------------------------------------------------------
# FTC condition

def ftc_condition_check(f: PiecewiseFn) -> bool:
    """1D: stored value at each singular point equals A(f(x], f[x)) (or 0
    in the zero-sum case)."""
    if f.d != 1:
        raise SpecularError("ftc_condition_check expects a 1D function")
    for form in f.forms:
        x = form.offset / form.coeffs[0]
        lim = f.one_sided_limits((x,), 0)
        expected = proper_value(lim.left, lim.right)
        stored = f.evaluate((x,))
        if abs(stored - expected) > 1e-9 * (1.0 + abs(lim.left) + abs(lim.right)):
            return False
    return True


# ---------------------------------------------------------------------------
# S^2 membership (2D)

@dataclass
class S2Report:
    verdict: str                 # S2 | S1-only | S0-only | fails
    u_continuity: str
    first_proper: dict           # axis -> bool
    second_proper: dict          # (i, j) -> bool for field dS_i (u_xj)
    mixed_continuous: dict       # (i, j) -> bool for the two mixed fields
    symmetry_residual: float
    failure_forms: list          # AffineForms implicated in the failure
    notes: list


def s2_membership(u: PiecewiseFn, box=(-10.0, 10.0), K: int = 17) -> S2Report:
    if u.d != 2:
        raise SpecularError("s2_membership expects a 2D function")
    notes: list = []
    cont = classify_continuity(u, box=box, K=K)
    if cont.verdict != "continuous":
        ok, _ = is_proper(u, box=box, K=K)
        bad = [u.forms[k] for k in cont.jump_forms + cont.indeterminate]
        verdict = "S0-only" if ok else "fails"
        notes.append("u itself is not continuous")
        return S2Report(verdict, cont.verdict, {}, {}, {}, math.inf, bad, notes)

    fields = {0: partial_field(u, 0), 1: partial_field(u, 1)}
    first_proper, failure_forms = {}, []
    for axis, fld in fields.items():
        ok, rep = is_proper(fld, box=box, K=K)
        first_proper[axis] = ok
        if not ok:
            failure_forms.extend(u.forms[k] for k, *_ in rep.violations)

    second = {(i, j): specular_field(fields[j], i) for i in (0, 1) for j in (0, 1)}
    second_proper = {}
    for key, fld in second.items():
        ok, rep = is_proper(fld, box=box, K=K)
        second_proper[key] = ok
        if not ok:
            failure_forms.extend(u.forms[k] for k, *_ in rep.violations)

    mixed_continuous = {}
    for key in ((0, 1), (1, 0)):
        rep = classify_continuity(second[key], box=box, K=K)
        mixed_continuous[key] = rep.verdict == "continuous"
        if not mixed_continuous[key]:
            failure_forms.extend(second[key].forms[k] for k in rep.jump_forms + rep.indeterminate)

    # symmetry residual dS_x u_y vs dS_y u_x over on-line and grid samples
    pts = []
    for k in range(len(u.forms)):
        pts.extend(line_samples(u, k, K=K, box=box))
    lo, hi = box
    j = 1
    while len(pts) < len(u.forms) * K + 25 and j < 2000:
        p = (
            lo + (hi - lo) * math.modf(j * 0.7548776662466927)[0],
            lo + (hi - lo) * math.modf(j * 0.5698402909980532)[0],
        )
        if u.in_domain(p, margin=1e-6):
            pts.append(p)
        j += 1
    residual = 0.0
    for p in pts:
        residual = max(residual, abs(second[(0, 1)].evaluate(p) - second[(1, 0)].evaluate(p)))

    firsts_ok = all(first_proper.values())
    seconds_ok = all(second_proper.values()) and all(mixed_continuous.values())
    if firsts_ok and seconds_ok:
        verdict = "S2"
    elif firsts_ok:
        verdict = "S1-only"
    else:
        ok_u, _ = is_proper(u, box=box, K=K)
        verdict = "S0-only" if ok_u else "fails"
    dedup = []
    for f in failure_forms:
        if not any(f.same_as(g) for g in dedup):
            dedup.append(f)
    return S2Report(verdict, cont.verdict, first_proper, second_proper,
                    mixed_continuous, residual, dedup, notes)
