"""Specular derivatives: the A-combination, semi-derivatives, derivative
fields, phototangents, FTC conditions and S^2 membership.

The specular derivative at a point combines the right/left semi-derivative
slopes alpha, beta through

    F1:  A(a, b) = (a*b - 1 + sqrt((a^2+1)(b^2+1))) / (a + b)     (a+b != 0)
    F2:  A(a, b) = tan((arctan a + arctan b) / 2)

F2 is total (returns 0 when b = -a) and is the computational definition;
F1 is retained as a cross-check oracle.  Geometrically A is the slope of
the bisector direction between the two tangent rays.

Every one-sided slope is ``PiecewiseFn.limit_slope``: the ``diff`` of what
u takes on that side, the adjacent branch or the ``proper_leaf`` of the
limits across a parallel line of a ``specular`` function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .expr import Neg, Var, eval_expr, normalize_affine, subst
from .piecewise import (
    PiecewiseFn,
    _edge_samples,
    _faces,
    a_combine,
    classify_continuity,
    columns,
    filled,
    is_proper,
    merge_forms,
    pattern_groups,
    proper_leaf,
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


def semi_derivative_one_sided(u: PiecewiseFn, p, axis: int, direction: int) -> float:
    """Just one of alpha/beta: the slope (``limit_slope``) of that side at p;
    usable at domain-boundary points where the other side has no branch."""
    val = eval_expr(u.limit_slope(u.sign_vector(p), axis, direction), dict(zip(u.vars, p)))
    if not math.isfinite(val):
        raise SpecularError(f"non-finite semi-derivative at {tuple(p)} axis {axis}")
    return val


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

def specular_field(u: PiecewiseFn, axis: int) -> PiecewiseFn:
    """The field p -> specular partial of u along the axis, as a PiecewiseFn
    on the same forms.  Open regions carry the branch derivative; on-line
    patterns carry the ``proper_leaf`` of the slopes on either side, which
    folds to an exact constant when both are constant.  Built once per
    function: the field is kept in ``u.derived``."""
    key = ("specular", axis)
    if key in u.derived:
        return u.derived[key]
    branches = []
    for pat in regions(u.forms, u.domain, u.d, values=(1, 0, -1)):
        slope = u.limit_slope(pat, axis, +1)
        branches.append((pat, slope if 0 not in pat else proper_leaf(slope, u.limit_slope(pat, axis, -1))))
    return u.derived.setdefault(
        key, PiecewiseFn(u.vars, u.forms, tuple(branches), "branch", domain=u.domain))


def partial_field(u: PiecewiseFn, axis: int) -> PiecewiseFn:
    """The a.e. classical partial-derivative field, with the specular
    combination of its own one-sided limits supplying on-line values (the
    proper extension); this is the u_x/u_y object of the 2D S^2 check.
    Built once per function: the field is kept in ``u.derived``."""
    key = ("partial", axis)
    if key in u.derived:
        return u.derived[key]
    branches = tuple((pat, u.limit_slope(pat, axis, +1)) for pat in regions(u.forms, u.domain, u.d))
    return u.derived.setdefault(
        key, PiecewiseFn(u.vars, u.forms, branches, "specular", domain=u.domain))


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
    return PiecewiseFn(u.vars, tuple(g for g, _ in flipped), branches, u.policy,
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
    in the zero-sum case), which is ``is_proper`` at the roots."""
    if f.d != 1:
        raise SpecularError("ftc_condition_check expects a 1D function")
    return is_proper(f)[0]


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
    cols = columns(pts, 2)
    groups = pattern_groups(u.forms, cols)
    a, b = filled(cols, [(*second[key].evaluate_batch(cols, (), True, groups)[None], second[key].evaluate)
                         for key in ((0, 1), (1, 0))])
    residual = max([0.0, *abs(a - b).tolist()])

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
