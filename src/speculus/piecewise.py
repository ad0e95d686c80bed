"""Piecewise-smooth functions on R^1/R^2 with affine singular sets.

A PiecewiseFn is a list of normalized AffineForms (candidate singular
hyperplanes) plus a branch table keyed by sign vectors.  Branch right-hand
sides are Expr trees or plain callables; tables are looked up by
deterministic first match, with None acting as a wildcard entry.

On-line values (points where some form vanishes) are controlled by a per-
form policy:

* ``direct``   - evaluate the source expression with the sgn(0)=0 convention
* ``specular`` - return the A-combination of the one-sided limits (or 0 in
                 the antisymmetric case), which makes the function proper
                 by construction
* ``branch``   - the table carries explicit 0-patterns

The non-empty regions of a sign-pattern arrangement are listed by
``regions``, which decides each pattern with the LP of ``interior_point``.
The A-combination ``a_combine`` and the proper on-line value
``proper_value`` live here so that every layer uses the same rule.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .expr import (
    AffineForm,
    Expr,
    add,
    affine_arguments,
    eval_expr,
    find_form,
    mul,
    normalize_affine,
    pin_signs,
    subst,
    Const,
    Var,
)

TOL_ZERO = 1e-9
GOLDEN = 0.6180339887498949

Rhs = Union[Expr, Callable[..., float]]
Pattern = tuple  # entries in {-1, 0, +1, None}


class PiecewiseError(Exception):
    pass


class CoverageError(PiecewiseError):
    pass


class BranchLookupError(PiecewiseError):
    pass


@dataclass(frozen=True)
class OneSidedLimits:
    left: float   # u(x]_(i), limit from below along axis i
    right: float  # u[x)_(i), limit from above
    mid: float    # u[x]_(i) = (left + right)/2
    axis: int


@dataclass
class ContinuityReport:
    jump_forms: list       # indices of forms carrying a genuine jump
    indeterminate: list    # indices where samples disagree about jumping
    verdict: str           # continuous | piecewise-continuous | not-piecewise-continuous
    samples: dict          # form index -> list of (point, left, right)
    unsampled: list        # forms with no admissible sample point in the box


@dataclass
class ProperReport:
    ok: bool
    continuity: ContinuityReport
    violations: list       # (form index, point, axis, stored, expected)


def tol_jump(left: float, right: float) -> float:
    return 1e-9 * (1.0 + abs(left) + abs(right))


def a_combine(alpha: float, beta: float) -> float:
    """A(alpha, beta) = tan((arctan alpha + arctan beta) / 2) (the F2 form);
    arguments sorted so the result is bitwise symmetric."""
    lo, hi = (alpha, beta) if alpha <= beta else (beta, alpha)
    half = 0.5 * (math.atan(lo) + math.atan(hi))
    return math.tan(half)


def proper_value(left: float, right: float) -> float:
    """The value a proper function must take between one-sided values."""
    if abs(left + right) <= TOL_ZERO:
        return 0.0
    return a_combine(left, right)


@dataclass(frozen=True)
class PiecewiseFn:
    vars: tuple
    forms: tuple                 # tuple[AffineForm, ...]
    branches: tuple              # tuple[(Pattern, Rhs), ...]
    policies: tuple              # per-form, in {'direct', 'specular', 'branch'}
    source: Optional[Expr] = None
    domain: tuple = ()           # ((AffineForm, sign), ...): sign*l(p) > 0 required

    @property
    def d(self) -> int:
        return len(self.vars)

    # -- basic queries ------------------------------------------------------

    def sign_vector(self, p: Sequence[float]) -> Pattern:
        out = []
        for f in self.forms:
            v = f.value(p)
            scale = 1e-12 * (1.0 + abs(f.offset) + sum(abs(c * x) for c, x in zip(f.coeffs, p)))
            out.append(0 if abs(v) <= scale else (1 if v > 0 else -1))
        return tuple(out)

    def match(self, s: Pattern) -> Optional[Rhs]:
        for pat, rhs in self.branches:
            if all(q is None or q == t for q, t in zip(pat, s)):
                return rhs
        return None

    def eval_rhs(self, rhs: Rhs, p: Sequence[float]) -> float:
        if isinstance(rhs, Expr):
            return eval_expr(rhs, dict(zip(self.vars, p)))
        return float(rhs(*p))

    def in_domain(self, p: Sequence[float], margin: float = 0.0) -> bool:
        return all(s * f.value(p) > margin for f, s in self.domain)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, p: Sequence[float]) -> float:
        s = self.sign_vector(p)
        zeros = [k for k, t in enumerate(s) if t == 0]
        if not zeros:
            rhs = self.match(s)
            if rhs is None:
                raise BranchLookupError(f"no branch for sign vector {s} at {tuple(p)}")
            return self.eval_rhs(rhs, p)
        pols = {self.policies[k] for k in zeros}
        if pols == {"branch"}:
            rhs = self.match(s)
            if rhs is None:
                raise BranchLookupError(f"no on-line branch for sign vector {s} at {tuple(p)}")
            return self.eval_rhs(rhs, p)
        if "specular" in pols:
            axis = self.forms[next(k for k in zeros if self.policies[k] == "specular")].primary_axis()
            lim = self.one_sided_limits(p, axis)
            return proper_value(lim.left, lim.right)
        rhs = self.match(s)
        if rhs is not None:
            return self.eval_rhs(rhs, p)
        if self.source is not None:
            return eval_expr(self.source, dict(zip(self.vars, p)))
        raise BranchLookupError(f"no branch or source for sign vector {s} at {tuple(p)}")

    def one_sided_limits(self, p: Sequence[float], axis: int) -> OneSidedLimits:
        s = self.sign_vector(p)
        left = self._adjacent_value(p, s, axis, -1)
        right = self._adjacent_value(p, s, axis, +1)
        return OneSidedLimits(left, right, 0.5 * (left + right), axis)

    def adjacent_sign_vector(self, s: Pattern, axis: int, direction: int) -> Pattern:
        """Sign vector of points p + eps*direction*e_axis: zero entries of
        forms with a_axis != 0 move to direction*sign(a_axis)."""
        out = list(s)
        for k, f in enumerate(self.forms):
            if out[k] == 0 and f.coeffs[axis] != 0.0:
                out[k] = direction * (1 if f.coeffs[axis] > 0 else -1)
        return tuple(out)

    def _adjacent_value(self, p, s, axis, direction) -> float:
        sv = self.adjacent_sign_vector(s, axis, direction)
        rhs = self.match(sv)
        if rhs is not None:
            return self.eval_rhs(rhs, p)
        if self.source is not None:
            # Forms parallel to the axis stay on-line while we approach p,
            # so leave their abs/sgn nodes for the sgn(0)=0 evaluation and
            # pin only the crossing forms.
            assignment = [(f, sv[k]) for k, f in enumerate(self.forms) if sv[k] != 0]
            pinned = pin_signs(self.source, self.vars, assignment, partial=True)
            return eval_expr(pinned, dict(zip(self.vars, p)))
        # The approach path can stay on a parallel form (entry still 0).
        # If that form's on-line values are the proper A-combination, the
        # limit along this axis is the A-combination of the limits across
        # the parallel form, resolved recursively.
        for k, f in enumerate(self.forms):
            if sv[k] == 0 and self.policies[k] == "specular":
                cross = f.primary_axis()
                left = self._adjacent_value(p, sv, cross, -1)
                right = self._adjacent_value(p, sv, cross, +1)
                return proper_value(left, right)
        raise BranchLookupError(f"no adjacent branch for sign vector {sv}")

    def adjacent_rhs(self, p, axis: int, direction: int) -> Rhs:
        """Branch expression (or callable) governing u just off p in the
        given direction along the axis; used for semi-derivatives."""
        s = self.sign_vector(p)
        sv = self.adjacent_sign_vector(s, axis, direction)
        rhs = self.match(sv)
        if rhs is not None:
            return rhs
        if self.source is not None:
            assignment = [(f, sv[k]) for k, f in enumerate(self.forms) if sv[k] != 0]
            return pin_signs(self.source, self.vars, assignment, partial=True)
        raise BranchLookupError(f"no adjacent branch for sign vector {sv}")


# ---------------------------------------------------------------------------
# Construction

def from_expression(e: Expr, vars: Sequence[str], domain: Sequence = ()) -> PiecewiseFn:
    vars = tuple(vars)
    forms = tuple(affine_arguments(e, vars))
    if not forms:
        return PiecewiseFn(vars, (), (((), e),), (), source=e, domain=tuple(domain))
    branches = []
    for pat in itertools.product((1, -1), repeat=len(forms)):
        assignment = list(zip(forms, pat))
        branches.append((tuple(pat), pin_signs(e, vars, assignment)))
    return PiecewiseFn(
        vars,
        forms,
        tuple(branches),
        ("direct",) * len(forms),
        source=e,
        domain=tuple(domain),
    )


def from_branches(
    forms: Sequence[AffineForm],
    table: Sequence,
    vars: Sequence[str],
    policies: Optional[Sequence[str]] = None,
    domain: Sequence = (),
    source: Optional[Expr] = None,
) -> PiecewiseFn:
    vars = tuple(vars)
    forms = tuple(forms)
    branches = []
    for pat, rhs in table:
        pat = tuple(pat)
        if len(pat) != len(forms):
            raise CoverageError(f"pattern {pat} does not match form count {len(forms)}")
        for q in pat:
            if q not in (-1, 0, 1, None):
                raise CoverageError(f"bad pattern entry {q!r}")
        branches.append((pat, rhs))
    u = PiecewiseFn(
        vars,
        forms,
        tuple(branches),
        tuple(policies) if policies is not None else ("specular",) * len(forms),
        source=source,
        domain=tuple(domain),
    )
    for pat in itertools.product((1, -1), repeat=len(forms)):
        if u.match(pat) is None and feasible_pattern(forms, pat, u.domain, len(vars)):
            raise CoverageError(f"no branch covers open-region sign vector {pat}")
    return u


def interior_point(forms: Sequence[AffineForm], pattern: Pattern, domain: Sequence, d: int):
    """A point with sign(l_k(p)) = pattern_k (0 entries as equalities, None
    entries free) that also meets the strict domain constraints, plus the
    margin it keeps from the strict constraints; None when there is none.
    Solved as a small LP maximizing the common margin, capped at 1."""
    from scipy.optimize import linprog

    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for f, s in list(zip(forms, pattern)) + list(domain):
        if s is None:
            continue
        if s == 0:
            A_eq.append(list(f.coeffs) + [0.0])
            b_eq.append(f.offset)
        else:
            A_ub.append([-s * c for c in f.coeffs] + [1.0])
            b_ub.append(-s * f.offset)
    res = linprog(
        [0.0] * d + [-1.0],
        A_ub=np.array(A_ub) if A_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(A_eq) if A_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=[(-1e4, 1e4)] * d + [(None, 1.0)],
        method="highs",
    )
    if not res.success or -res.fun <= 1e-7:
        return None
    return tuple(res.x[:d]), -res.fun


def feasible_pattern(forms: Sequence[AffineForm], pattern: Pattern, domain: Sequence, d: int) -> bool:
    """True when the region of the sign pattern is non-empty."""
    return interior_point(forms, pattern, domain, d) is not None


def regions(forms: Sequence[AffineForm], domain: Sequence, d: int,
            fixed: Pattern = (), values: tuple = (1, -1)):
    """The sign patterns of the non-empty regions, lazily and in
    ``itertools.product`` order.  Nonzero entries of ``fixed`` are held; the
    other entries range over ``values`` (pass (1, 0, -1) to list the on-line
    faces too)."""
    fixed = tuple(fixed) or (0,) * len(forms)
    choices = [(s,) if s else values for s in fixed]
    for pat in itertools.product(*choices):
        if feasible_pattern(forms, pat, domain, d):
            yield pat


# ---------------------------------------------------------------------------
# Line sampling (deterministic low-discrepancy)

def line_samples(
    u: PiecewiseFn,
    k: int,
    K: int = 17,
    box: tuple = (-10.0, 10.0),
    delta: float = 1e-6,
) -> list:
    """Up to K points on form k inside the box, excluding delta-neighborhoods
    of the other forms and respecting the domain constraints."""
    f = u.forms[k]
    lo, hi = box
    if u.d == 1:
        p = (f.offset / f.coeffs[0],)
        if lo <= p[0] <= hi and _admissible(u, k, p, delta):
            return [p]
        return []
    a = np.array(f.coeffs)
    p0 = f.offset * a / float(a @ a)
    direction = np.array([-a[1], a[0]]) / float(np.hypot(a[0], a[1]))
    # parameter range keeping both coordinates inside the box
    tlo, thi = -np.inf, np.inf
    for i in range(2):
        if direction[i] != 0.0:
            t1 = (lo - p0[i]) / direction[i]
            t2 = (hi - p0[i]) / direction[i]
            tlo = max(tlo, min(t1, t2))
            thi = min(thi, max(t1, t2))
        elif not (lo <= p0[i] <= hi):
            return []
    if not (tlo < thi):
        return []
    out = []
    j = 1
    while len(out) < K and j <= 60 * K:
        tau = tlo + (thi - tlo) * math.modf(j * GOLDEN)[0]
        p = tuple(p0 + tau * direction)
        if _admissible(u, k, p, delta):
            out.append(p)
        j += 1
    return out


def _admissible(u: PiecewiseFn, k: int, p, delta: float) -> bool:
    for m, g in enumerate(u.forms):
        if m != k and abs(g.value(p)) <= delta:
            return False
    return u.in_domain(p, margin=delta)


# ---------------------------------------------------------------------------
# Continuity and properness

def classify_continuity(
    u: PiecewiseFn,
    box: tuple = (-10.0, 10.0),
    K: int = 17,
    delta: float = 1e-6,
) -> ContinuityReport:
    jump, indet, unsampled = [], [], []
    samples: dict = {}
    for k, f in enumerate(u.forms):
        pts = line_samples(u, k, K=K, box=box, delta=delta)
        if not pts:
            unsampled.append(k)
            continue
        axis = f.primary_axis()
        rows = []
        n_jump = 0
        for p in pts:
            lim = u.one_sided_limits(p, axis)
            rows.append((p, lim.left, lim.right))
            if abs(lim.left - lim.right) > tol_jump(lim.left, lim.right):
                n_jump += 1
        samples[k] = rows
        if n_jump == len(rows):
            jump.append(k)
        elif n_jump > 0:
            indet.append(k)
    if indet:
        verdict = "not-piecewise-continuous"
    elif jump:
        verdict = "piecewise-continuous"
    else:
        verdict = "continuous"
    return ContinuityReport(jump, indet, verdict, samples, unsampled)


def is_proper(
    u: PiecewiseFn,
    box: tuple = (-10.0, 10.0),
    K: int = 17,
    delta: float = 1e-6,
):
    cont = classify_continuity(u, box=box, K=K, delta=delta)
    violations = []
    for k in range(len(u.forms)):
        for p in line_samples(u, k, K=K, box=box, delta=delta):
            stored = u.evaluate(p)
            for axis in range(u.d):
                lim = u.one_sided_limits(p, axis)
                expected = proper_value(lim.left, lim.right)
                if abs(stored - expected) > 1e-9 * (1.0 + abs(lim.left) + abs(lim.right)):
                    violations.append((k, p, axis, stored, expected))
    ok = cont.verdict != "not-piecewise-continuous" and not violations
    return ok, ProperReport(ok, cont, violations)


# ---------------------------------------------------------------------------
# Algebra on piecewise functions (used by the wave solvers)

def merge_forms(groups: Sequence[Sequence[AffineForm]]) -> list:
    out: list = []
    for forms in groups:
        for f in forms:
            if find_form(out, f) < 0:
                out.append(f)
    return out


def restrict_pattern(u: PiecewiseFn, union_forms: Sequence[AffineForm], pattern: Pattern) -> Pattern:
    out = []
    for f in u.forms:
        i = find_form(union_forms, f)
        out.append(pattern[i])
    return tuple(out)


def _branch_for(u: PiecewiseFn, union_forms, pattern) -> Rhs:
    s = restrict_pattern(u, union_forms, pattern)
    rhs = u.match(s)
    if rhs is None:
        raise BranchLookupError(f"no branch of summand for restricted pattern {s}")
    return rhs


def _combine_rhs(ra: Rhs, rb: Rhs, u: PiecewiseFn, cb: float = 1.0) -> Rhs:
    if isinstance(ra, Expr) and isinstance(rb, Expr):
        return add(ra, mul(Const(cb), rb))

    def closure(*p):
        return u.eval_rhs(ra, p) + cb * u.eval_rhs(rb, p)

    return closure


def pw_add(u: PiecewiseFn, v: PiecewiseFn, cv: float = 1.0) -> PiecewiseFn:
    """u + cv*v on the union of singular forms; on-line policy specular."""
    if u.vars != v.vars:
        raise PiecewiseError("variable mismatch in pw_add")
    forms = merge_forms([u.forms, v.forms])
    domain = _merge_domain(u.domain, v.domain)
    branches = [
        (pat, _combine_rhs(_branch_for(u, forms, pat), _branch_for(v, forms, pat), u, cv))
        for pat in regions(forms, domain, u.d)
    ]
    return PiecewiseFn(u.vars, tuple(forms), tuple(branches),
                       ("specular",) * len(forms), domain=domain)


def pw_scale(c: float, u: PiecewiseFn) -> PiecewiseFn:
    def scale_rhs(rhs: Rhs) -> Rhs:
        if isinstance(rhs, Expr):
            return mul(Const(c), rhs)
        return lambda *p, _r=rhs: c * u.eval_rhs(_r, p)

    branches = tuple((pat, scale_rhs(rhs)) for pat, rhs in u.branches)
    src = mul(Const(c), u.source) if isinstance(u.source, Expr) else None
    return replace(u, branches=branches, source=src)


def _merge_domain(da, db) -> tuple:
    out = list(da)
    for f, s in db:
        if not any(g.same_as(f) and t == s for g, t in out):
            out.append((f, s))
    return tuple(out)


def pw_compose_affine(
    h: PiecewiseFn,
    coeffs: Sequence[float],
    const: float,
    vars2: Sequence[str],
    domain: Sequence = (),
) -> PiecewiseFn:
    """h(a.p + c) for 1D h: a PiecewiseFn over vars2 whose forms are the
    pullbacks of h's singular points."""
    if h.d != 1:
        raise PiecewiseError("pw_compose_affine expects 1D h")
    vars2 = tuple(vars2)
    arg_expr = None
    if all(isinstance(rhs, Expr) for _, rhs in h.branches):
        arg_expr = add(
            add(mul(Const(coeffs[0]), Var(vars2[0])), mul(Const(coeffs[1]), Var(vars2[1]))),
            Const(const),
        )

    comp_forms, scales = [], []
    for f in h.forms:
        root = f.offset / f.coeffs[0]
        form, scale = normalize_affine(tuple(coeffs), const - root)
        comp_forms.append(form)
        scales.append(1 if scale > 0 else -1)

    branches = []
    for pat in itertools.product((1, -1), repeat=len(comp_forms)):
        s1d = tuple(q * s for q, s in zip(pat, scales))
        rhs = h.match(s1d)
        if rhs is None:
            if not feasible_pattern(h.forms, s1d, h.domain, 1):
                continue  # empty 1D sector; its pullback is empty too
            raise BranchLookupError(f"1D branch missing for sign vector {s1d}")
        if isinstance(rhs, Expr) and arg_expr is not None:
            branches.append((pat, subst(rhs, {h.vars[0]: arg_expr})))
        else:
            a0, a1, c0 = coeffs[0], coeffs[1], const

            def closure(*p, _r=rhs):
                return h.eval_rhs(_r, (a0 * p[0] + a1 * p[1] + c0,))

            branches.append((pat, closure))
    return PiecewiseFn(vars2, tuple(comp_forms), tuple(branches),
                       ("specular",) * len(comp_forms), domain=tuple(domain))


def pw_select(form: AffineForm, pos: PiecewiseFn, neg: PiecewiseFn,
              policies_hint: str = "specular") -> PiecewiseFn:
    """Glue two fields along a hyperplane: pos where form > 0, neg below."""
    if pos.vars != neg.vars:
        raise PiecewiseError("variable mismatch in pw_select")
    forms = merge_forms([[form], pos.forms, neg.forms])
    domain = _merge_domain(pos.domain, neg.domain)
    sel = find_form(forms, form)
    branches = [
        (pat, _branch_for(pos if pat[sel] > 0 else neg, forms, pat))
        for pat in regions(forms, domain, pos.d)
    ]
    return PiecewiseFn(pos.vars, tuple(forms), tuple(branches),
                       (policies_hint,) * len(forms), domain=domain)
