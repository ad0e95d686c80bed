"""Verifiers of the paper's criteria that no command runs: the F1 form of
the A-combination, odd reflection, the symmetry of the mixed specular
partials, the fundamental-theorem check and the specular Green identity.
They call the package's own quadrature (``_integrate``, ``_point_values``,
``_edge_breaks``, ``integrate_1d``) and specular fields, so each criterion
still tests the engine."""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from speculus.expr import Neg, Var, normalize_affine, subst
from speculus.piecewise import (
    PiecewiseFn,
    _edge_samples,
    _faces,
    columns,
    filled,
    is_proper,
    merge_forms,
)
from speculus.quad import _edge_breaks, _integrate, _point_values, integrate_1d
from speculus.specular import partial_field, specular_field, specular_partial


# ---------------------------------------------------------------------------
# F1, the oracle for the F2 form ``a_combine``

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
# The mixed partials

def mixed_partial_residual(u: PiecewiseFn) -> float:
    """max |dS_x u_y - dS_y u_x| of a 2D u at the edge samples of its lines
    and one witness per cell: the symmetry of the mixed specular partials."""
    second = {(i, j): specular_field(partial_field(u, j), i) for i, j in ((0, 1), (1, 0))}
    # every field has the forms and domain of u
    pts = [p for line in _edge_samples(u.forms, u.domain, 2) for p in line]
    pts += [p for pat, p in _faces(u.forms, u.domain, 2).items() if 0 not in pat]
    cols = columns(pts, 2)
    a, b = filled(cols, [(*second[key].evaluate_many(cols), second[key].evaluate)
                         for key in ((0, 1), (1, 0))])
    return max([0.0, *abs(a - b).tolist()])


# ---------------------------------------------------------------------------
# Fundamental theorem

def antiderivative_check(f: PiecewiseFn, F: PiecewiseFn, a: float, b: float) -> float:
    """|int_a^b f - (F(b)-F(a))| plus the worst mismatch between the
    specular derivative of F and f at the singular points of f."""
    res = abs(integrate_1d(f, a, b) - (F.evaluate((b,)) - F.evaluate((a,))))
    for form in f.forms:
        s = form.offset / form.coeffs[0]
        res = max(res, abs(specular_partial(F, (s,), 0) - f.evaluate((s,))))
    return res


# ---------------------------------------------------------------------------
# Type III regions and the Green identity

@dataclass(frozen=True)
class TypeIIIRegion:
    """A region that is simultaneously type I (between graphs over x) and
    type II (between graphs over y); boundary traversed counterclockwise."""

    a: float
    b: float
    omega1: Callable[[float], float]  # lower boundary y = omega1(x)
    omega2: Callable[[float], float]  # upper boundary
    c: float
    d: float
    omega3: Callable[[float], float]  # left boundary x = omega3(y)
    omega4: Callable[[float], float]  # right boundary
    rectangle: Optional[tuple] = None  # (a, b, c, d) when axis-aligned

    @classmethod
    def from_rectangle(cls, a: float, b: float, c: float, d: float) -> "TypeIIIRegion":
        return cls(a, b, lambda x: c, lambda x: d, c, d,
                   lambda y: a, lambda y: b, rectangle=(a, b, c, d))

    def spot_check(self) -> bool:
        """The two views describe the same set, to 1e-9, on a 7 x 7 sample grid."""
        n, tol = 7, 1e-9
        for i in range(1, n + 1):
            x = self.a + (self.b - self.a) * i / (n + 1)
            for j in range(1, n + 1):
                y = self.omega1(x) + (self.omega2(x) - self.omega1(x)) * j / (n + 1)
                if not (self.c - tol <= y <= self.d + tol
                        and self.omega3(y) - tol <= x <= self.omega4(y) + tol):
                    return False
        return True


def _edge_integral(f: PiecewiseFn, at: tuple, lo: float, hi: float) -> float:
    """The integral of f from lo to hi along the free coordinate of at."""
    return _integrate(lambda X: _point_values([f], [X if v is None else v for v in at]),
                      _edge_breaks(f.forms, at, lo, hi))


def green_check(P: PiecewiseFn, Q: PiecewiseFn, R: TypeIIIRegion):
    """Verify the specular Green identity

        iint_R (dS_x P - dS_y Q) dx dy  =  oint_{dR} P dy + Q dx

    (the pairing as stated for the specular calculus, not the classical
    curl form).  Returns (lhs, rhs, gap, class_ok) where class_ok records
    whether the specular fields of P and Q are proper (the S^1 hypothesis);
    the computation proceeds either way.  The iterated integral of the
    left side takes one inner integral per outer node, and a curved
    boundary is integrated along its graphs."""
    FP, FQ = specular_field(P, 0), specular_field(Q, 1)
    ok_p, ok_q = is_proper(FP)[0], is_proper(FQ)[0]
    class_ok = ok_p and ok_q

    forms = merge_forms([P.forms, Q.forms])

    # lhs: type I iterated integral with x-splits where lines cross the strip
    xcuts = {R.a, R.b}
    for form in forms:
        a1, a2 = form.coeffs
        if a2 == 0.0:
            x = form.offset / a1
            if R.a < x < R.b:
                xcuts.add(x)
        elif a1 != 0.0 and R.rectangle is not None:
            _, _, c, d = R.rectangle
            for yv in (c, d):
                x = (form.offset - a2 * yv) / a1
                if R.a < x < R.b:
                    xcuts.add(x)

    def columns(X):  # the inner integral over y at each outer node x
        return np.array([_integrate(lambda Y: _point_values([FP, FQ], [x, Y]),
                                    _edge_breaks(forms, (x, None), R.omega1(x), R.omega2(x)))
                         for x in X.flat]).reshape(X.shape)

    lhs = _integrate(columns, sorted(xcuts))

    # rhs: counterclockwise boundary integral of P dy + Q dx
    if R.rectangle is not None:
        a, b, c, d = R.rectangle
        rhs = math.fsum([
            _edge_integral(Q, (None, c), a, b),        # bottom, left to right
            _edge_integral(P, (b, None), c, d),        # right, upward
            -_edge_integral(Q, (None, d), a, b),       # top, right to left
            -_edge_integral(P, (a, None), c, d),       # left, downward
        ])
    else:
        # general type III boundary: Q dx along the type I graphs (the
        # sides x = a, b add nothing to it) and P dy along the type II
        # graphs (nor do y = c, d)
        rhs = (
            integrate_1d(lambda x: Q.evaluate((x, R.omega1(x))), R.a, R.b)
            - integrate_1d(lambda x: Q.evaluate((x, R.omega2(x))), R.a, R.b)
            + integrate_1d(lambda y: P.evaluate((R.omega4(y), y)), R.c, R.d)
            - integrate_1d(lambda y: P.evaluate((R.omega3(y), y)), R.c, R.d)
        )
    return lhs, rhs, abs(lhs - rhs), class_ok
