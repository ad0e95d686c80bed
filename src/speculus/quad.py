"""Integration aware of affine singular structure.

1D integrals split the interval at singular points and integrate each
smooth closed piece with adaptive 15-point Gauss-Legendre panels (dyadic
refinement, absolute+relative tolerance 1e-10, depth cap 30).  The
dependence-triangle integral and the Green's-identity verifier split their
iterated integrals at the closed-form crossings of the singular lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .piecewise import PiecewiseFn, is_proper, merge_forms
from .specular import specular_field, specular_partial

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)

QUAD_TOL = 1e-10
MAX_DEPTH = 30


class QuadratureError(Exception):
    def __init__(self, message, panel=None):
        super().__init__(message)
        self.panel = panel


def _gl15(f: Callable[[float], float], a: float, b: float) -> float:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * math.fsum(
        w * f(mid + half * x) for x, w in zip(_GL_NODES, _GL_WEIGHTS)
    )


def adaptive_panel(f: Callable[[float], float], a: float, b: float,
                   tol: float = QUAD_TOL, max_depth: int = MAX_DEPTH) -> float:
    """Adaptive GL15 over [a, b]; assumes f smooth in the open interval."""
    if a == b:
        return 0.0

    def rec(lo, hi, whole, depth):
        mid = 0.5 * (lo + hi)
        left = _gl15(f, lo, mid)
        right = _gl15(f, mid, hi)
        better = left + right
        if abs(better - whole) <= tol * (1.0 + abs(better)):
            return better
        if depth >= max_depth:
            raise QuadratureError(
                f"quadrature panel [{lo}, {hi}] failed to converge "
                f"(estimate gap {abs(better - whole):.3e})",
                panel=(lo, hi),
            )
        return rec(lo, mid, left, depth + 1) + rec(mid, hi, right, depth + 1)

    return rec(a, b, _gl15(f, a, b), 0)


def singular_points_1d(f: PiecewiseFn, a: float, b: float) -> list:
    lo, hi = min(a, b), max(a, b)
    pts = []
    for form in f.forms:
        r = form.offset / form.coeffs[0]
        if lo < r < hi and not any(abs(r - q) < 1e-12 for q in pts):
            pts.append(r)
    return sorted(pts)


def integrate_1d(f, a: float, b: float, tol: float = QUAD_TOL) -> float:
    """Integral of f over [a, b]; f is a 1D PiecewiseFn, split at its
    singular points, or a plain callable, integrated over [a, b] whole."""
    sign = 1.0
    if a > b:
        a, b, sign = b, a, -1.0
    if isinstance(f, PiecewiseFn):
        if f.d != 1:
            raise QuadratureError("integrate_1d expects a 1D function")
        breaks = singular_points_1d(f, a, b)
        g = lambda x: f.evaluate((x,))
    else:
        breaks = []
        g = f
    nodes = [a] + breaks + [b]
    return sign * math.fsum(
        adaptive_panel(g, lo, hi, tol=tol) for lo, hi in zip(nodes, nodes[1:])
    )


def antiderivative_check(f: PiecewiseFn, F: PiecewiseFn, a: float, b: float) -> float:
    """|int_a^b f - (F(b)-F(a))| plus the worst mismatch between the
    specular derivative of F and f at the singular points of f."""
    res = abs(integrate_1d(f, a, b) - (F.evaluate((b,)) - F.evaluate((a,))))
    for form in f.forms:
        s = form.offset / form.coeffs[0]
        res = max(res, abs(specular_partial(F, (s,), 0) - f.evaluate((s,))))
    return res


# ---------------------------------------------------------------------------
# Dependence triangle

@dataclass(frozen=True)
class DependenceTriangle:
    apex: tuple  # (x0, t0), t0 > 0

    def __post_init__(self):
        if self.apex[1] <= 0.0:
            raise QuadratureError("dependence triangle needs t0 > 0")

    @property
    def base(self) -> tuple:
        x0, t0 = self.apex
        return (x0 - t0, x0 + t0)

    def inner_interval(self, s: float) -> tuple:
        x0, t0 = self.apex
        return (x0 - t0 + s, x0 + t0 - s)


def integrate_triangle(f: PiecewiseFn, x0: float, t0: float, tol: float = QUAD_TOL) -> float:
    """Iterated integral of f over the dependence triangle of (x0, t0):
    outer s in [0, t0], inner y in [x0-t0+s, x0+t0-s].  The outer interval
    is split wherever a singular line of f enters or leaves the inner
    interval (all closed-form roots of linear equations); the inner
    interval is split at the line crossings themselves."""
    if f.d != 2:
        raise QuadratureError("integrate_triangle expects a 2D function")
    tri = DependenceTriangle((x0, t0))

    events = {0.0, t0}
    for form in f.forms:
        a1, a2 = form.coeffs
        b = form.offset
        # crossing of the line with the left/right characteristic edges
        for edge_sign in (+1, -1):
            # y*(s) edge: y = x0 + edge_sign*(t0 - s)... inner bound as a
            # function of s; line a1*y + a2*s = b crosses it where
            # a1*(x0 + edge_sign*(t0 - s)) + a2*s = b
            denom = a2 - a1 * edge_sign
            if denom != 0.0:
                s = (b - a1 * (x0 + edge_sign * t0)) / denom
                if 0.0 < s < t0:
                    events.add(s)
        # horizontal line (a1 == 0): constant-s crossing
        if a1 == 0.0 and a2 != 0.0:
            s = b / a2
            if 0.0 < s < t0:
                events.add(s)
    splits = sorted(events)

    def inner(s: float) -> float:
        ylo, yhi = tri.inner_interval(s)
        cuts = []
        for form in f.forms:
            a1, a2 = form.coeffs
            if a1 != 0.0:
                y = (form.offset - a2 * s) / a1
                if ylo < y < yhi and not any(abs(y - q) < 1e-12 for q in cuts):
                    cuts.append(y)
        nodes = [ylo] + sorted(cuts) + [yhi]
        return math.fsum(
            adaptive_panel(lambda y: f.evaluate((y, s)), lo, hi, tol=tol)
            for lo, hi in zip(nodes, nodes[1:])
        )

    return math.fsum(
        adaptive_panel(inner, lo, hi, tol=tol)
        for lo, hi in zip(splits, splits[1:])
    )


# ---------------------------------------------------------------------------
# Type III regions and the Green's-identity verifier

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

    def spot_check(self, n: int = 7, tol: float = 1e-9) -> bool:
        """The two views describe the same set on a sample grid."""
        for i in range(1, n + 1):
            x = self.a + (self.b - self.a) * i / (n + 1)
            for j in range(1, n + 1):
                y = self.omega1(x) + (self.omega2(x) - self.omega1(x)) * j / (n + 1)
                if not (self.c - tol <= y <= self.d + tol):
                    return False
                if not (self.omega3(y) - tol <= x <= self.omega4(y) + tol):
                    return False
        return True


def _edge_breaks(f: PiecewiseFn, fixed_axis: int, fixed_val: float,
                 lo: float, hi: float) -> list:
    """Breakpoints of f restricted to a segment parallel to the other axis."""
    free_axis = 1 - fixed_axis
    cuts = []
    for form in f.forms:
        cf = form.coeffs[free_axis]
        if cf != 0.0:
            r = (form.offset - form.coeffs[fixed_axis] * fixed_val) / cf
            if lo < r < hi and not any(abs(r - q) < 1e-12 for q in cuts):
                cuts.append(r)
    return sorted(cuts)


def _edge_integral(f: PiecewiseFn, fixed_axis: int, fixed_val: float,
                   lo: float, hi: float, tol: float) -> float:
    if lo == hi:
        return 0.0
    if fixed_axis == 1:
        g = lambda x: f.evaluate((x, fixed_val))
    else:
        g = lambda y: f.evaluate((fixed_val, y))
    nodes = [lo] + _edge_breaks(f, fixed_axis, fixed_val, lo, hi) + [hi]
    return math.fsum(adaptive_panel(g, p, q, tol=tol) for p, q in zip(nodes, nodes[1:]))


def green_check(P: PiecewiseFn, Q: PiecewiseFn, R: TypeIIIRegion,
                tol: float = QUAD_TOL):
    """Verify the specular Green identity

        iint_R (dS_x P - dS_y Q) dx dy  =  oint_{dR} P dy + Q dx

    (the pairing as stated for the specular calculus, not the classical
    curl form).  Returns (lhs, rhs, gap, class_ok) where class_ok records
    whether the specular fields of P and Q are proper (the S^1 hypothesis);
    the computation proceeds either way."""
    FP = specular_field(P, 0)
    FQ = specular_field(Q, 1)
    ok_p, _ = is_proper(FP)
    ok_q, _ = is_proper(FQ)
    class_ok = ok_p and ok_q

    forms = merge_forms([P.forms, Q.forms])

    def integrand(x: float, y: float) -> float:
        return FP.evaluate((x, y)) - FQ.evaluate((x, y))

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

    def column(x: float) -> float:
        ylo, yhi = R.omega1(x), R.omega2(x)
        cuts = []
        for form in forms:
            a1, a2 = form.coeffs
            if a2 != 0.0:
                y = (form.offset - a1 * x) / a2
                if ylo < y < yhi and not any(abs(y - q) < 1e-12 for q in cuts):
                    cuts.append(y)
        nodes = [ylo] + sorted(cuts) + [yhi]
        return math.fsum(
            adaptive_panel(lambda y: integrand(x, y), lo, hi, tol=tol)
            for lo, hi in zip(nodes, nodes[1:])
        )

    xs = sorted(xcuts)
    lhs = math.fsum(adaptive_panel(column, lo, hi, tol=tol) for lo, hi in zip(xs, xs[1:]))

    # rhs: counterclockwise boundary integral of P dy + Q dx
    if R.rectangle is not None:
        a, b, c, d = R.rectangle
        rhs = math.fsum([
            _edge_integral(Q, 1, c, a, b, tol),        # bottom, left to right
            _edge_integral(P, 0, b, c, d, tol),        # right, upward
            -_edge_integral(Q, 1, d, a, b, tol),       # top, right to left
            -_edge_integral(P, 0, a, c, d, tol),       # left, downward
        ])
    else:
        # general type III boundary via the type I graphs; requires smooth
        # omega boundaries, differentiated by central differences
        h = 1e-6

        def om_d(om, x):
            return (om(x + h) - om(x - h)) / (2.0 * h)

        def bottom(x):
            y = R.omega1(x)
            return Q.evaluate((x, y)) + P.evaluate((x, y)) * om_d(R.omega1, x)

        def top(x):
            y = R.omega2(x)
            return Q.evaluate((x, y)) + P.evaluate((x, y)) * om_d(R.omega2, x)

        rhs = (
            adaptive_panel(bottom, R.a, R.b, tol=1e-8)
            - adaptive_panel(top, R.a, R.b, tol=1e-8)
            + _edge_integral(P, 0, R.b, R.omega1(R.b), R.omega2(R.b), tol)
            - _edge_integral(P, 0, R.a, R.omega1(R.a), R.omega2(R.a), tol)
        )
    return lhs, rhs, abs(lhs - rhs), class_ok
