"""Integration aware of affine singular structure.

1D integrals split the interval at singular points and integrate each
smooth closed piece with adaptive 15-point Gauss-Legendre panels (dyadic
refinement to the one tolerance ``QUAD_TOL``, absolute+relative, within
``MAX_DEPTH`` halvings; no call overrides them).  ``adaptive_panel``
refines breadth first, two halves of every live panel per call of a batch
integrand, bitwise as depth-first refinement would: every panel sum is
``half * fsum(w * f)``, a split panel's value is ``left + right``, and an
error is the one depth-first evaluation meets first.  Characteristic edges
and the Green's-identity verifier split at the closed-form crossings of
the singular lines (``_edge_breaks``); the verifier's iterated integral
runs its outer and inner panels in lockstep, one engine call per outer
round, and a curved boundary is integrated along its graphs.

The dependence triangle is integrated cell by cell (``clip_cells``), so a
crossing of two lines inside it is a cell vertex, not a kink inside a
panel: on a cell f is one branch, and each triangle of the cell's fan
takes an 8 x 8 Gauss-Legendre rule on the Duffy-collapsed square (Duffy,
SIAM J. Numer. Anal. 19, 1982), split four ways until its children agree
with it to ``QUAD_TOL`` as a panel's halves must.  A cell is refined in
rounds, one batch call per round for every live triangle (up to
ROUND_PANELS // 8, depth-first order first), and ``einsum`` sums each row
by itself, so a triangle's value does not depend on the batch it shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .expr import AffineForm, eval_array, eval_expr
from .piecewise import BranchLookupError, PiecewiseFn, is_proper, merge_forms
from .specular import specular_field, specular_partial

# Gauss-Legendre nodes and weights on [-1, 1]: ``leggauss(15)`` and
# ``leggauss(8)`` of ``numpy.polynomial.legendre``, bit for bit
_GL_NODES = np.array([
    -0.9879925180204854, -0.9372733924007058, -0.8482065834104272, -0.7244177313601701,
    -0.5709721726085388, -0.3941513470775634, -0.20119409399743451, 0.0,
    0.20119409399743451, 0.3941513470775634, 0.5709721726085388, 0.7244177313601701,
    0.8482065834104272, 0.9372733924007058, 0.9879925180204854])
_GL_WEIGHTS = np.array([
    0.030753241996117203, 0.0703660474881084, 0.10715922046717141, 0.13957067792615444,
    0.16626920581699398, 0.1861610000155622, 0.1984314853271116, 0.2025782419255613,
    0.1984314853271116, 0.1861610000155622, 0.16626920581699398, 0.13957067792615444,
    0.10715922046717141, 0.0703660474881084, 0.030753241996117203])
_GL8_NODES = np.array([
    -0.9602898564975362, -0.7966664774136267, -0.525532409916329, -0.18343464249564978,
    0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362])
_GL8_WEIGHTS = np.array([
    0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166,
    0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706])

# the Duffy map (u, v) -> A + u (B - A) + u v (C - B) of the unit square onto
# a triangle ABC has Jacobian u |det(B - A, C - B)|: its 64 nodes as the
# factors of B - A and C - B, and their weights with the factor u
_DUFFY_U = np.repeat(0.5 * (_GL8_NODES + 1.0), 8)
_DUFFY_UV = _DUFFY_U * np.tile(0.5 * (_GL8_NODES + 1.0), 8)
_DUFFY_W = 0.25 * np.repeat(_GL8_WEIGHTS, 8) * np.tile(_GL8_WEIGHTS, 8) * _DUFFY_U

QUAD_TOL = 1e-10
MAX_DEPTH = 30
# panels refined per round, depth-first order first (triangles: an eighth as
# many, 4 * 64 points each against 2 * 15): an integrand that converges
# nowhere fails after about MAX_DEPTH rounds instead of doubling its live
# panels every round
ROUND_PANELS = 1024


class QuadratureError(Exception):
    def __init__(self, message, panel=None):
        super().__init__(message)
        self.panel = panel


def _lazy_fsum(values, failure=None):
    """What ``math.fsum`` returns or raises over a generator that yields
    values and then raises failure (None: it yields them all).  fsum takes
    one term at a time, so only an intermediate overflow among values comes
    before failure; inf - inf is reported at the end of a sum."""
    if failure is None:
        return math.fsum(values)
    try:
        math.fsum(values)
    except ValueError:
        pass
    raise failure


def _point_values(fns, cols):
    """fns[0] - fns[1] - ... at every point, for PiecewiseFns of one or two
    variables; cols holds one (n, 15) array or one number per variable.
    ``evaluate_many`` covers what it can, and ``evaluate`` takes the other
    points in row order, each function in turn at a point.  Returns
    (values, failure): failure is None, or (flat index, exception) at the
    first point where ``evaluate`` raises, whatever it raises (the engine
    raises it again in depth-first order); later points are left out."""
    shape = next(np.shape(c) for c in cols if np.ndim(c))
    parts = [f.evaluate_many([np.broadcast_to(c, shape).ravel() for c in cols]) for f in fns]
    failure = None
    for i in np.flatnonzero(~np.logical_and.reduce([c for _, c in parts])).tolist():
        p = tuple(c.flat[i] if np.ndim(c) else c for c in cols)
        try:
            for f, (values, covered) in zip(fns, parts):
                if not covered[i]:
                    values[i] = f.evaluate(p)
        except Exception as exc:
            failure = (i, exc)
            break
    total = parts[0][0]
    for values, _ in parts[1:]:
        total = total - values
    return total.reshape(shape), failure


def _callable_values(f, X):
    """f at every entry of X in row order, as ``_point_values`` returns."""
    values = np.zeros(X.shape)
    for i, x in enumerate(X.flat):
        try:
            values.flat[i] = f(x)
        except Exception as exc:
            return values, (i, exc)
    return values, None


def _row_sums(values, half, failure):
    """half[r] * fsum(w * values[r]) for each row up to the first that
    raises, as (sums, exception or None).  A failing point (flat index,
    exception) ends its row's sum there."""
    stop, exc = failure if failure is not None else (values.size, None)
    last = stop // values.shape[1]
    terms = (_GL_WEIGHTS * values[:last + 1]).tolist()
    sums = []
    for r, h in enumerate(half.tolist()):
        try:
            if r == last:
                _lazy_fsum(terms[r][:stop % values.shape[1]], exc)
            sums.append(h * math.fsum(terms[r]))
        except Exception as raised:
            return sums, raised
    return sums, None


def _integrate(g, nodes) -> float:
    """The fsum of the engine's integrals of g over the pieces between nodes."""
    return _lazy_fsum(*adaptive_panel(g, list(zip(nodes, nodes[1:]))))


def _iterated(h, outer_nodes, inner_nodes) -> float:
    """Iterated integral of h(y, s): outer over the pieces between
    outer_nodes, inner over the pieces between inner_nodes(s).  h(Y, S)
    takes (n, 15) arrays of inner and outer coordinates and returns
    (values, failure) as ``_point_values`` does.  The inner pieces of all
    nodes of an outer round go through one engine call."""

    def outer(S, _):
        s_nodes = S.ravel()
        pieces, first = [], []
        for s in s_nodes:
            first.append(len(pieces))
            nodes = inner_nodes(s)
            pieces += zip(nodes, nodes[1:])
        first.append(len(pieces))
        at = np.repeat(s_nodes, np.diff(first))
        values, exc = adaptive_panel(
            lambda Y, own: h(Y, np.broadcast_to(at[own][:, None], Y.shape)), pieces)
        out = np.zeros(len(s_nodes))
        for i, (p, q) in enumerate(zip(first, first[1:])):
            try:
                out[i] = _lazy_fsum(values[p:q], exc if len(values) < q else None)
            except Exception as raised:
                return out.reshape(S.shape), (i, raised)
        return out.reshape(S.shape), None

    return _integrate(outer, outer_nodes)


def adaptive_panel(g, panels):
    """Adaptive GL15 over each (lo, hi) in panels; assumes the integrand is
    smooth in each open interval.

    g(X, owner) is the batch integrand: X is an (n, 15) array of nodes, one
    panel or panel half per row, and owner[r] the index in panels of the
    panel row r refines.  It returns (values, failure) as
    ``_point_values`` does.  Each round takes the live panels in
    depth-first order (at most ROUND_PANELS of them), sums each row as
    ``half * fsum(w * v)``, and tests every panel as depth-first recursion
    does: a panel whose halves agree with its whole to QUAD_TOL keeps
    their sum, one at MAX_DEPTH fails, any other splits in two.  Values
    are then rebuilt bottom up as left + right.

    Returns (values, failure): failure is None, or the exception that
    depth-first refinement of the panels in order raises first, and values
    then holds the panels before the one that raised."""
    # one entry per tree node; kid is the index of the left child (the
    # right one follows it) or -1, and whole is None until evaluated
    lo, hi, whole, depth, owner, kid = [], [], [], [], [], []

    def node(a, b, w, d, j):
        lo.append(a)
        hi.append(b)
        whole.append(w)
        depth.append(d)
        owner.append(j)
        kid.append(-1)
        return len(lo) - 1

    tol, max_depth = QUAD_TOL, MAX_DEPTH  # read once, not per panel
    roots = [node(a, b, None, 0, j) if a != b else None for j, (a, b) in enumerate(panels)]
    live = [n for n in roots if n is not None]
    failure = None
    while live:
        batch, rest = live[:ROUND_PANELS], live[ROUND_PANELS:]
        rows = []
        for n in batch:
            if whole[n] is None:
                rows.append((lo[n], hi[n], owner[n]))
            else:
                mid = 0.5 * (lo[n] + hi[n])
                rows += [(lo[n], mid, owner[n]), (mid, hi[n], owner[n])]
        a, b, row_owner = (np.array(c) for c in zip(*rows))
        half = 0.5 * (b - a)
        values, bad = g((0.5 * (a + b))[:, None] + half[:, None] * _GL_NODES, row_owner)
        sums, exc = _row_sums(values, half, bad)
        live, r = [], 0
        for n in batch:
            need = 1 if whole[n] is None else 2
            if r + need > len(sums):
                failure = (owner[n], exc)
                break
            if need == 1:
                whole[n] = sums[r]
                live.append(n)
                r += 1
                continue
            left, right = sums[r], sums[r + 1]
            r += 2
            better = left + right
            if abs(better - whole[n]) <= tol * (1.0 + abs(better)):
                whole[n] = better
            elif depth[n] >= max_depth:
                failure = (owner[n], QuadratureError(
                    f"quadrature panel [{lo[n]}, {hi[n]}] failed to converge "
                    f"(estimate gap {abs(better - whole[n]):.3e})",
                    panel=(lo[n], hi[n]),
                ))
                break
            else:
                mid = 0.5 * (lo[n] + hi[n])
                kid[n] = node(lo[n], mid, left, depth[n] + 1, owner[n])
                node(mid, hi[n], right, depth[n] + 1, owner[n])
                live += [kid[n], kid[n] + 1]
        else:
            live += rest
    for n in reversed(range(len(lo))):
        if kid[n] >= 0:
            whole[n] = whole[kid[n]] + whole[kid[n] + 1]
    count = len(panels) if failure is None else failure[0]
    values = [0.0 if roots[j] is None else whole[roots[j]] for j in range(count)]
    return values, None if failure is None else failure[1]


def integrate_1d(f, a: float, b: float) -> float:
    """Integral of f over [a, b]; f is a 1D PiecewiseFn, split at its
    singular points, or a plain callable, integrated over [a, b] whole."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise QuadratureError(f"integration bounds [{a}, {b}] are not finite")
    sign = 1.0
    if a > b:
        a, b, sign = b, a, -1.0
    if isinstance(f, PiecewiseFn):
        if f.d != 1:
            raise QuadratureError("integrate_1d expects a 1D function")
        nodes = _edge_breaks(f.forms, (None,), a, b)
        g = lambda X, _: _point_values([f], [X])
    else:
        nodes = [a, b]
        g = lambda X, _: _callable_values(f, X)
    return sign * _integrate(g, nodes)


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

def _clip(poly, form: AffineForm, sign: int):
    """Sutherland-Hodgman clip of the list poly keeping sign * l(p) >= 0."""
    out = []
    for cur, nxt in zip(poly, poly[1:] + poly[:1]):
        vc, vn = sign * form.value(cur), sign * form.value(nxt)
        if vc >= 0.0:
            out.append(cur)
        if (vc > 0.0 and vn < 0.0) or (vc < 0.0 and vn > 0.0):
            s = vc / (vc - vn)
            out.append((cur[0] + s * (nxt[0] - cur[0]), cur[1] + s * (nxt[1] - cur[1])))
    return out


def _area(poly) -> float:
    return 0.5 * abs(math.fsum(p[0] * q[1] - q[0] * p[1] for p, q in zip(poly, poly[1:] + poly[:1])))


def clip_cells(forms, polygon) -> list:
    """(pattern, polygon) for each open sign pattern of the forms whose part
    of the convex polygon keeps three vertices or more, in
    ``itertools.product((1, -1), ...)`` order.  The polygon is clipped by
    each form in turn (``_clip``), so a cell is bitwise what clipping by its
    pattern gives."""
    cells = [((), list(polygon))]
    for form in forms:
        cells = [(pat + (s,), part) for pat, poly in cells for s in (1, -1)
                 if len(part := _clip(poly, form, s)) >= 3]
    return cells


def _refined(g, tris: np.ndarray) -> list:
    """The integrals of g over the triangles (A, B, C) of the (n, 3, 2)
    array tris by the 8 x 8 Duffy rule, split four ways at the edge midpoints
    under ``adaptive_panel``'s test, in rounds: one call g(X, T) at the
    children of the first ROUND_PANELS // 8 live triangles in depth-first
    order, and at those of their wholes not yet taken (all, in the first)."""
    def sums(tris):
        a, b, c = (tris[:, k, :, None] for k in range(3))
        points = a + _DUFFY_U * (b - a) + _DUFFY_UV * (c - b)
        values = g(points[:, 0].ravel(), points[:, 1].ravel()).reshape(len(tris), -1)
        (e1, e2), (h1, h2) = (b - a)[..., 0].T, (c - b)[..., 0].T
        return (np.abs(e1 * h2 - e2 * h1) * np.einsum("ij,j->i", values, _DUFFY_W)).tolist()

    out, wholes, depth = [], [], [0] * len(tris)
    while len(tris):
        head = tris[:ROUND_PANELS // 8]
        ends = np.concatenate([head, 0.5 * (head + head[:, [1, 2, 0]])], axis=1)  # A B C AB BC CA
        kids = ends[:, [[0, 3, 5], [3, 1, 4], [5, 4, 2], [4, 5, 3]]].reshape(-1, 3, 2)
        rows = sums(np.concatenate([head[len(wholes):], kids]))  # wholes not yet taken
        wholes, parts, live = wholes + rows[:-len(kids)], rows[-len(kids):], []
        for i, whole in enumerate(wholes[:len(head)]):
            better = math.fsum(parts[4 * i:4 * i + 4])
            if abs(better - whole) <= QUAD_TOL * (1.0 + abs(better)):
                out.append(better)
            elif depth[i] < MAX_DEPTH:
                live += range(4 * i, 4 * i + 4)
            else:
                corners = tuple(map(tuple, head[i].tolist()))
                raise QuadratureError(f"quadrature triangle {corners} failed to converge "
                                      f"(estimate gap {abs(better - whole):.3e})", panel=corners)
        tris = np.concatenate([kids[live], tris[len(head):]])
        wholes, depth = ([parts[k] for k in live] + wholes[len(head):],
                         [depth[k // 4] + 1 for k in live] + depth[len(head):])
    return out


def integrate_triangle(f: PiecewiseFn, x0: float, t0: float) -> float:
    """Integral of f over the dependence triangle (x0 - t0, 0), (x0 + t0,
    0), (x0, t0), t0 > 0: on each of its ``clip_cells`` f is one branch,
    taken at the nodes by ``eval_array``, and the cell's fan from its first
    vertex is ``_refined``, one ``eval_array`` call per round.  The points
    ``eval_array`` sets aside go through ``eval_expr`` in order, so an error
    is the first met cell by cell, round by round, and in rule order within
    one batch.  The cells' values are summed by ``math.fsum``, so the order
    in which their triangles pass does not change the total."""
    if f.d != 2:
        raise QuadratureError("integrate_triangle expects a 2D function")
    if not (math.isfinite(x0) and math.isfinite(t0)):
        raise QuadratureError(f"dependence triangle of ({x0}, {t0}) is not finite")
    if not t0 > 0.0:
        raise QuadratureError("dependence triangle needs t0 > 0")
    total = []
    for pat, poly in clip_cells(f.forms, [(x0 - t0, 0.0), (x0 + t0, 0.0), (x0, t0)]):
        if _area(poly) == 0.0:  # a cell of rounding only, where f may have no branch
            continue
        if (rhs := f.match(pat)) is None:
            raise BranchLookupError(f"no branch for sign vector {pat} in the dependence "
                                    f"triangle of ({x0}, {t0})")

        def g(X, T, rhs=rhs):
            bad = np.zeros(len(X), dtype=bool)
            values = eval_array(rhs, dict(zip(f.vars, (X, T))), bad)
            for i in np.flatnonzero(bad).tolist():
                values[i] = eval_expr(rhs, dict(zip(f.vars, (X[i], T[i]))))
            return values

        total += _refined(g, np.array([(poly[0], p, q) for p, q in zip(poly[1:], poly[2:])]))
    return math.fsum(total)


def path_crossings(forms, x0: float, t0: float, sigma: float) -> list:
    """The times 0 < s < t0 at which the characteristic y = x0 + sigma *
    (t0 - s) crosses the line of a 2D form: where a1*(x0 + sigma*(t0 - s))
    + a2*s = b.  A line parallel to the path is never crossed."""
    out = []
    for form in forms:
        (a1, a2), b = form.coeffs, form.offset
        denom = a2 - a1 * sigma
        if denom != 0.0:
            s = (b - a1 * (x0 + sigma * t0)) / denom
            if 0.0 < s < t0:
                out.append(s)
    return out


def characteristic_integral(f: PiecewiseFn, sigma: float, x0: float, t0: float) -> float:
    """int_0^t0 f(x0 + sigma * (t0 - s), s) ds for 2D f, along the
    characteristic edge of the dependence triangle of (x0, t0), split at
    its ``path_crossings``; 0 for t0 <= 0."""
    if not (math.isfinite(x0) and math.isfinite(t0)):
        raise QuadratureError(f"characteristic path from ({x0}, {t0}) is not finite")
    if t0 <= 0.0:
        return 0.0
    nodes = [0.0] + sorted(set(path_crossings(f.forms, x0, t0, sigma))) + [t0]
    return _integrate(lambda S, _: _point_values([f], [x0 + sigma * (t0 - S), S]), nodes)


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

    def spot_check(self) -> bool:
        """The two views describe the same set, to 1e-9, on a 7 x 7 sample grid."""
        n, tol = 7, 1e-9
        for i in range(1, n + 1):
            x = self.a + (self.b - self.a) * i / (n + 1)
            for j in range(1, n + 1):
                y = self.omega1(x) + (self.omega2(x) - self.omega1(x)) * j / (n + 1)
                if not (self.c - tol <= y <= self.d + tol):
                    return False
                if not (self.omega3(y) - tol <= x <= self.omega4(y) + tol):
                    return False
        return True


def _edge_breaks(forms, at: tuple, lo: float, hi: float) -> list:
    """lo, the crossings of the forms' zero lines strictly inside the
    segment lo..hi of the line through the coordinates at, whose one None
    is the free coordinate (sorted, 1e-12 apart), hi."""
    free, cuts = at.index(None), []
    fixed = [(k, v) for k, v in enumerate(at) if v is not None]
    for form in forms:
        cf = form.coeffs[free]
        if cf != 0.0:
            r = form.offset
            for k, v in fixed:
                r -= form.coeffs[k] * v
            r /= cf
            if lo < r < hi and not any(abs(r - q) < 1e-12 for q in cuts):
                cuts.append(r)
    return [lo] + sorted(cuts) + [hi]


def _edge_integral(f: PiecewiseFn, at: tuple, lo: float, hi: float) -> float:
    """The integral of f from lo to hi along the free coordinate of at."""
    def g(X, _):
        return _point_values([f], [X if v is None else v for v in at])

    return _integrate(g, _edge_breaks(f.forms, at, lo, hi))


def green_check(P: PiecewiseFn, Q: PiecewiseFn, R: TypeIIIRegion):
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

    def column_nodes(x: float) -> list:
        return _edge_breaks(forms, (x, None), R.omega1(x), R.omega2(x))

    lhs = _iterated(lambda Y, X: _point_values([FP, FQ], [X, Y]), sorted(xcuts), column_nodes)

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
