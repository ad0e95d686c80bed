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
from functools import partial

import numpy as np

from .expr import (
    Neg,
    NotSymbolic,
    Var,
    diff,
    eval_array,
    eval_expr,
    normalize_affine,
    opaque,
    subst,
)
from .piecewise import (
    BranchLookupError,
    PiecewiseFn,
    _edge_samples,
    _faces,
    a_combine,
    classify_continuity,
    evaluate_at,
    is_proper,
    merge_forms,
    proper_value,
    regions,
    tol_jump,
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


def _fd_one_sided(u: PiecewiseFn, axis: int, direction: int, *p: float) -> float:
    # second-order one-sided stencil anchored at the one-sided limit value
    h = 1e-6
    lim = u.one_sided_limits(p, axis)
    f0 = lim.right if direction > 0 else lim.left
    q1 = list(p)
    q1[axis] += direction * h
    q2 = list(p)
    q2[axis] += direction * 2 * h
    f1 = u.evaluate(tuple(q1))
    f2 = u.evaluate(tuple(q2))
    return direction * (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * h)


def semi_derivative_one_sided(u: PiecewiseFn, p, axis: int, direction: int) -> float:
    """Just one of alpha/beta; usable at domain-boundary points where the
    other side has no branch.  A branch with an Opaque leaf is
    differentiated by a one-sided finite difference."""
    sv = u.adjacent_sign_vector(u.sign_vector(p), axis, direction)
    rhs = u.branch(sv)
    if rhs is None:
        raise BranchLookupError(f"no adjacent branch for sign vector {sv}")
    d = _diff_rhs(u, sv, rhs, axis)
    if d is not None:
        val = eval_expr(d, dict(zip(u.vars, p)))
    else:
        val = _fd_one_sided(u, axis, direction, *p)
    if not math.isfinite(val):
        raise SpecularError(f"non-finite semi-derivative at {tuple(p)} axis {axis}")
    return val


def semi_derivative_many(u: PiecewiseFn, cols, axis: int, direction: int) -> tuple:
    """``semi_derivative_one_sided`` at many points (cols: one float array
    per variable) as (values, covered), one ``eval_array`` pass per
    adjacent sign vector.  A point is left to the scalar call, which raises
    the error, where the branch is missing, fails to pin or has an Opaque
    leaf, or where its value is flagged or not finite."""
    values, covered = np.zeros(len(cols[0])), np.zeros(len(cols[0]), dtype=bool)
    groups: dict = {}
    for s, idx in u.pattern_groups(cols):
        groups.setdefault(u.adjacent_sign_vector(s, axis, direction), []).append(idx)
    for sv, parts in groups.items():
        try:
            rhs = u.branch(sv)
            d = None if rhs is None else _diff_rhs(u, sv, rhs, axis)
        except Exception:  # the scalar call raises it again
            continue
        if d is not None:
            idx = np.concatenate(parts)
            bad = np.zeros(len(idx), dtype=bool)
            v = eval_array(d, dict(zip(u.vars, (c[idx] for c in cols))), bad)
            values[idx], covered[idx] = v, ~bad & np.isfinite(v)
    return values, covered


def semi_derivatives(u: PiecewiseFn, p, axis: int) -> SemiDerivativePair:
    return SemiDerivativePair(
        right=semi_derivative_one_sided(u, p, axis, +1),
        left=semi_derivative_one_sided(u, p, axis, -1),
        axis=axis,
    )


def specular_partial(u: PiecewiseFn, p, axis: int) -> float:
    pair = semi_derivatives(u, p, axis)
    return a_combine(pair.right, pair.left)


# ---------------------------------------------------------------------------
# Derivative fields

def _resolve_parallel_zeros(u: PiecewiseFn, sv):
    """For a sign vector with leftover zeros (forms parallel to the traversal
    axis): if every non-empty completion selects the same branch expression,
    the on-line restriction is governed by that common branch exactly."""
    if 0 not in sv:
        return None
    found = {u.branch(full) for full in regions(u.forms, u.domain, u.d, fixed=sv)}
    return found.pop() if len(found) == 1 else None


def _diff_rhs(u: PiecewiseFn, s, rhs, axis: int):
    """The derivative of rhs, the branch of u for the sign vector s; None
    for an Opaque leaf (or no branch), which the caller differentiates by
    finite differences.  Built once per (s, axis), kept in ``u._slopes``,
    through the one ``diff`` memo of u for the axis, so the branches of
    every pattern share the derivatives of their shared subtrees."""
    key = (s, axis)
    if key not in u._slopes:
        try:
            memo = u._memos.setdefault(axis, {})
            u._slopes[key] = None if rhs is None else diff(rhs, u.vars[axis], memo)
        except NotSymbolic:
            u._slopes[key] = None
    return u._slopes[key]


def _fd_partial(u: PiecewiseFn, axis: int, *p: float) -> float:
    return specular_partial(u, p, axis)


def _slope(u: PiecewiseFn, s, rhs, axis: int, fd):
    """The derivative of the branch rhs for the sign vector s, else the
    Opaque leaf fd(*p) of a finite difference."""
    d = _diff_rhs(u, s, rhs, axis)
    return d if d is not None else opaque(fd, tuple(Var(v) for v in u.vars))


def specular_field(u: PiecewiseFn, axis: int) -> PiecewiseFn:
    """The field p -> specular partial of u along the axis, as a PiecewiseFn
    on the same forms.  Open regions carry the branch derivative; on-line
    patterns carry the Opaque leaf proper_value(alpha, beta) of the adjacent
    branch derivatives, which folds to an exact constant when both are
    constant.  Branches with an Opaque leaf are differentiated by finite
    differences.  Built once per function: the field is kept in
    ``u.derived``."""
    key = ("specular", axis)
    if key in u.derived:
        return u.derived[key]
    m = len(u.forms)
    branches = []
    for pat in regions(u.forms, u.domain, u.d, values=(1, 0, -1)):
        if 0 not in pat:
            rhs = u.branch(pat)
            if rhs is None:
                raise SpecularError(f"no branch for open pattern {pat}")
            branches.append((pat, _slope(u, pat, rhs, axis, partial(_fd_partial, u, axis))))
            continue
        sp = u.adjacent_sign_vector(pat, axis, +1)
        sm = u.adjacent_sign_vector(pat, axis, -1)
        rp, rm = u.branch(sp), u.branch(sm)
        if rp is None:
            rp = _resolve_parallel_zeros(u, sp)
        if rm is None:
            rm = _resolve_parallel_zeros(u, sm)
        # Forms parallel to the axis keep their 0 entry; if their on-line
        # values are the proper extension, the one-sided slope is well
        # defined pointwise and a finite difference along the line is sound.
        for r, sv in ((rp, sp), (rm, sm)):
            if r is None and not any(t == 0 and q == "specular" for t, q in zip(sv, u.policies)):
                raise SpecularError(f"missing adjacent branch for on-line pattern {pat}")
        dp = _slope(u, sp, rp, axis, partial(_fd_one_sided, u, axis, +1))
        dm = _slope(u, sm, rm, axis, partial(_fd_one_sided, u, axis, -1))
        branches.append((pat, opaque(proper_value, (dp, dm))))
    return u.derived.setdefault(
        key, PiecewiseFn(u.vars, u.forms, tuple(branches), ("branch",) * m, domain=u.domain))


def partial_field(u: PiecewiseFn, axis: int) -> PiecewiseFn:
    """The a.e. classical partial-derivative field, with the specular
    combination of its own one-sided limits supplying on-line values (the
    proper extension); this is the u_x/u_y object of the 2D S^2 check.
    Branches with an Opaque leaf are differentiated by finite differences.
    Built once per function: the field is kept in ``u.derived``."""
    key = ("partial", axis)
    if key in u.derived:
        return u.derived[key]
    m = len(u.forms)
    branches = []
    for pat in regions(u.forms, u.domain, u.d):
        rhs = u.branch(pat)
        if rhs is None:
            raise SpecularError(f"no branch for open pattern {pat}")
        branches.append((pat, _slope(u, pat, rhs, axis, partial(_fd_partial, u, axis))))
    return u.derived.setdefault(
        key, PiecewiseFn(u.vars, u.forms, tuple(branches), ("specular",) * m, domain=u.domain))


# ---------------------------------------------------------------------------
# Odd reflection

def reflect_axis(u: PiecewiseFn, axis: int) -> PiecewiseFn:
    """The function p -> u(p with the given coordinate negated)."""
    var = u.vars[axis]
    mapping = {var: Neg(Var(var))}

    def flip(f):
        # the reflected line, and the sign of l(reflected p) across it
        coeffs = tuple(-c if i == axis else c for i, c in enumerate(f.coeffs))
        form, scale = normalize_affine(coeffs, -f.offset)
        return form, (1 if scale > 0 else -1)

    flipped = [flip(f) for f in u.forms]
    branches = tuple(
        (tuple(None if q is None else q * t for q, (_, t) in zip(pat, flipped)),
         subst(rhs, mapping))
        for pat, rhs in u.branches
    )
    domain = tuple((g, s * t) for f, s in u.domain for g, t in [flip(f)])
    src = subst(u.source, mapping) if u.source is not None else None
    return PiecewiseFn(u.vars, tuple(g for g, _ in flipped), branches, u.policies,
                       source=src, domain=domain)


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
    tol = tol_jump(lim.left, lim.right)
    cont = abs(lim.left - lim.right) <= tol and abs(lim.mid - lim.left) <= tol
    return Phototangent(x, pair.right, pair.left, lim.left, lim.right, lim.mid, cont)


def specularly_differentiable_1d(u: PiecewiseFn) -> bool:
    """Phototangent continuity at every singular point (the Lemma's test)."""
    return all(phototangent(u, f.offset / f.coeffs[0]).continuous for f in u.forms)


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
        if abs(stored - expected) > tol_jump(lim.left, lim.right):
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


def s2_membership(u: PiecewiseFn) -> S2Report:
    if u.d != 2:
        raise SpecularError("s2_membership expects a 2D function")
    notes: list = []
    cont = classify_continuity(u)
    if cont.verdict != "continuous":
        ok, _ = is_proper(u)
        bad = [u.forms[k] for k in cont.jump_forms + cont.indeterminate]
        verdict = "S0-only" if ok else "fails"
        notes.append("u itself is not continuous")
        return S2Report(verdict, cont.verdict, {}, {}, {}, math.inf, bad, notes)

    fields = {0: partial_field(u, 0), 1: partial_field(u, 1)}
    first_proper, failure_forms = {}, []
    for axis, fld in fields.items():
        ok, rep = is_proper(fld)
        first_proper[axis] = ok
        if not ok:
            failure_forms.extend(u.forms[k] for k, *_ in rep.violations)

    second = {(i, j): specular_field(fields[j], i) for i in (0, 1) for j in (0, 1)}
    second_proper, second_cont = {}, {}
    for key, fld in second.items():
        ok, rep = is_proper(fld)
        second_proper[key], second_cont[key] = ok, rep.continuity
        if not ok:
            failure_forms.extend(u.forms[k] for k, *_ in rep.violations)

    mixed_continuous = {}
    for key in ((0, 1), (1, 0)):
        rep = second_cont[key]
        mixed_continuous[key] = rep.verdict == "continuous"
        if not mixed_continuous[key]:
            failure_forms.extend(second[key].forms[k] for k in rep.jump_forms + rep.indeterminate)

    # symmetry residual dS_x u_y vs dS_y u_x at the edge samples and one
    # witness per cell; every field has the forms and domain of u
    pts = [p for line in _edge_samples(u.forms, u.domain, 2) for p in line]
    pts += [p for pat, p in _faces(u.forms, u.domain, 2).items() if 0 not in pat]
    residual = 0.0
    for a, b in zip(evaluate_at(second[(0, 1)], pts), evaluate_at(second[(1, 0)], pts)):
        residual = max(residual, abs(a - b))

    firsts_ok = all(first_proper.values())
    seconds_ok = all(second_proper.values()) and all(mixed_continuous.values())
    if firsts_ok and seconds_ok:
        verdict = "S2"
    elif firsts_ok:
        verdict = "S1-only"
    else:
        ok_u, _ = is_proper(u)
        verdict = "S0-only" if ok_u else "fails"
    return S2Report(verdict, cont.verdict, first_proper, second_proper,
                    mixed_continuous, residual, merge_forms([failure_forms]), notes)
