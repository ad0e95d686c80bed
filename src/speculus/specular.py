"""Specular derivatives: semi-derivatives, derivative fields and S^2
membership.

The specular derivative at a point combines the right/left semi-derivative
slopes alpha, beta through

    F1:  A(a, b) = (a*b - 1 + sqrt((a^2+1)(b^2+1))) / (a + b)     (a+b != 0)
    F2:  A(a, b) = tan((arctan a + arctan b) / 2)

F2 is total (returns 0 when b = -a) and is the computational definition
(``piecewise.a_combine``).  Geometrically A is the slope of the bisector
direction between the two tangent rays.

Every one-sided slope is ``PiecewiseFn.limit_slope``: the ``diff`` of what
u takes on that side, the adjacent branch or the ``proper_leaf`` of the
limits across a parallel line of a ``specular`` function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .expr import eval_expr
from .piecewise import (
    PiecewiseFn,
    a_combine,
    classify_continuity,
    is_proper,
    merge_forms,
    proper_leaf,
    regions,
)


class SpecularError(Exception):
    pass


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
# S^2 membership (2D)

@dataclass
class S2Report:
    verdict: str                 # S2 | S1-only | S0-only | fails
    failure_forms: list          # AffineForms implicated in the failure


def s2_membership(u: PiecewiseFn) -> S2Report:
    """The S^2 verdict of a 2D u and the lines it fails on: u continuous,
    its two partial fields proper, their four specular fields proper and
    the two mixed ones continuous.  Each field is judged at the edge
    samples of its own lines (``classify_continuity``, ``is_proper``); no
    other point is evaluated."""
    if u.d != 2:
        raise SpecularError("s2_membership expects a 2D function")
    cont = classify_continuity(u)
    if cont.verdict != "continuous":
        bad = [u.forms[k] for k in cont.jump_forms + cont.indeterminate]
        return S2Report("S0-only" if is_proper(u)[0] else "fails", bad)

    fields = (partial_field(u, 0), partial_field(u, 1))
    firsts = [is_proper(fld) for fld in fields]
    second = {(i, j): specular_field(fields[j], i) for i in (0, 1) for j in (0, 1)}
    seconds = [is_proper(fld) for fld in second.values()]
    failure_forms = [u.forms[k] for ok, rep in firsts + seconds if not ok for k, *_ in rep.violations]
    firsts_ok, seconds_ok = all(ok for ok, _ in firsts), all(ok for ok, _ in seconds)
    for key in ((0, 1), (1, 0)):
        rep = is_proper(second[key])[1].continuity
        if rep.verdict != "continuous":
            seconds_ok = False
            failure_forms.extend(second[key].forms[k] for k in rep.jump_forms + rep.indeterminate)

    if firsts_ok and seconds_ok:
        verdict = "S2"
    elif firsts_ok:
        verdict = "S1-only"
    else:
        verdict = "S0-only" if is_proper(u)[0] else "fails"
    return S2Report(verdict, merge_forms([failure_forms]))
