"""Integration aware of affine singular structure.

One adaptive engine, ``adaptive_panel``, refines every integral.  It takes
two Gauss rules on each cell: on an interval the 15-point Gauss-Legendre
value against a 7-point estimate, and on a triangle a 10 x 10
Gauss-Legendre rule on the Duffy-collapsed square (Duffy, SIAM J. Numer.
Anal. 19, 1982) against the 8 x 8 one.  A cell whose two agree to
``QUAD_TOL`` (absolute+relative) keeps its value; any other is split,
intervals in halves and triangles in quarters, within ``MAX_DEPTH``
splits; no call overrides them.  It refines in rounds of one batch call
each, depth-first order first, and an integral is the ``fsum`` of its
kept values, so it depends neither on the rounds nor on the cells refined
beside it.  An integrand error or a non-finite rule value is raised where
a round meets it.

1D integrals split the interval at singular points first (``_edge_breaks``),
and a characteristic edge at the closed-form crossings of the singular
lines (``path_crossings``).  The dependence triangle is cut into cells
(``clip_cells``), so a crossing of two lines inside it is a cell vertex,
not a kink inside a triangle.  On a cell f is one branch, and the fan
triangles of all cells go through one engine call, each over its cell's branch.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .expr import AffineForm, eval_array, eval_expr
from .piecewise import BranchLookupError, PiecewiseFn, Points, filled

# Gauss-Legendre nodes and weights on [-1, 1]: ``leggauss(n)`` of
# ``numpy.polynomial.legendre`` for n = 15, 10, 8 and 7, bit for bit
_GL_NODES = np.array([-0.9879925180204854, -0.9372733924007058, -0.8482065834104272,
    -0.7244177313601701, -0.5709721726085388, -0.3941513470775634, -0.20119409399743451, 0.0,
    0.20119409399743451, 0.3941513470775634, 0.5709721726085388, 0.7244177313601701,
    0.8482065834104272, 0.9372733924007058, 0.9879925180204854])
_GL_WEIGHTS = np.array([0.030753241996117203, 0.0703660474881084, 0.10715922046717141,
    0.13957067792615444, 0.16626920581699398, 0.1861610000155622, 0.1984314853271116,
    0.2025782419255613, 0.1984314853271116, 0.1861610000155622, 0.16626920581699398,
    0.13957067792615444, 0.10715922046717141, 0.0703660474881084, 0.030753241996117203])
_GL10_NODES = np.array([-0.9739065285171717, -0.8650633666889845, -0.6794095682990244,
    -0.4333953941292472, -0.14887433898163122, 0.14887433898163122, 0.4333953941292472,
    0.6794095682990244, 0.8650633666889845, 0.9739065285171717])
_GL10_WEIGHTS = np.array([0.06667134430868814, 0.1494513491505804, 0.219086362515982,
    0.2692667193099965, 0.2955242247147528, 0.2955242247147528, 0.2692667193099965,
    0.219086362515982, 0.1494513491505804, 0.06667134430868814])
_GL8_NODES = np.array([-0.9602898564975362, -0.7966664774136267, -0.525532409916329,
    -0.18343464249564978, 0.18343464249564978, 0.525532409916329, 0.7966664774136267,
    0.9602898564975362])
_GL8_WEIGHTS = np.array([0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
    0.36268378337836166, 0.36268378337836166, 0.3137066458778869, 0.22238103445337443,
    0.10122853629037706])
_GL7_NODES = np.array([-0.9491079123427586, -0.7415311855993945, -0.4058451513773972, 0.0,
    0.4058451513773972, 0.7415311855993945, 0.9491079123427586])
_GL7_WEIGHTS = np.array([0.12948496616886973, 0.27970539148927687, 0.3818300505051187,
    0.4179591836734693, 0.3818300505051187, 0.27970539148927687, 0.12948496616886973])


def _duffy(nodes, weights):
    """The product rule on the square mapped onto a triangle ABC by (u, v) ->
    A + u (B - A) + u v (C - B), with Jacobian u |det(B - A, C - B)|: its
    nodes' factors u of B - A and u v of C - B, and its weights times u."""
    n, s = len(nodes), 0.5 * (nodes + 1.0)
    u = np.repeat(s, n)
    return u, u * np.tile(s, n), 0.25 * np.repeat(weights, n) * np.tile(weights, n) * u


# estimate nodes first, then the rule's: 7 + 15 on an interval, 64 + 100 on a triangle
_LINE_NODES, _LINE_WEIGHTS = np.concatenate((_GL7_NODES, _GL_NODES)), (_GL7_WEIGHTS, _GL_WEIGHTS)
_DUFFY_U, _DUFFY_UV, _DUFFY_W = zip(_duffy(_GL8_NODES, _GL8_WEIGHTS), _duffy(_GL10_NODES, _GL10_WEIGHTS))
_DUFFY_U, _DUFFY_UV = np.concatenate(_DUFFY_U), np.concatenate(_DUFFY_UV)

QUAD_TOL = 1e-10
MAX_DEPTH = 30
# cells per round, depth-first order first (triangles: an eighth as many, 164
# points each against 22), so an integrand that converges nowhere fails after
# about MAX_DEPTH rounds instead of doubling its live cells every round
ROUND_PANELS = 1024


class QuadratureError(Exception):
    def __init__(self, message, panel=None):
        super().__init__(message)
        self.panel = panel


def _point_values(fns, cols):
    """fns[0] - fns[1] - ... at every point, for PiecewiseFns of one or two
    variables; cols holds one (n, 22) array or one number per variable.
    ``evaluate_many`` covers what it can on one ``Points``, and the points
    it leaves are ``filled``, one column per function."""
    shape = next(np.shape(c) for c in cols if np.ndim(c))
    flat = Points(np.broadcast_to(c, shape).ravel() for c in cols)
    total, *rest = filled(flat, [(*f.evaluate_many(flat), f.evaluate) for f in fns])
    for values in rest:
        total = total - values
    return total.reshape(shape)


def _halves(panel):
    mid = 0.5 * (panel[0] + panel[1])
    return (panel[0], mid), (mid, panel[1])


def _pairs(values, scale, weights):
    """(value, estimate) of each row of values, at a cell's estimate nodes
    and then its rule's, times the row's scale; weights holds the two sets
    in the same order.  ``einsum`` sums each row by itself, so a value does
    not depend on the rows beside it."""
    n = len(weights[0])
    return zip((scale * np.einsum("ij,j->i", values[:, n:], weights[1])).tolist(),
               (scale * np.einsum("ij,j->i", values[:, :n], weights[0])).tolist())


def _integrate(g, nodes) -> float:
    """The integral of g over the pieces between nodes; g takes an (n, 22)
    array of points, one panel per row."""
    def sums(panels, _):
        a, b = np.array(panels).T
        half = 0.5 * (b - a)
        return _pairs(g((0.5 * (a + b))[:, None] + half[:, None] * _LINE_NODES), half,
                      _LINE_WEIGHTS)

    pieces = [(a, b) for a, b in zip(nodes, nodes[1:]) if a != b]
    return math.fsum(adaptive_panel(sums, _halves, pieces, ROUND_PANELS,
                                    lambda p: f"panel [{p[0]}, {p[1]}]"))


def adaptive_panel(sums, split, cells, per_round, label) -> list:
    """The integral over each of cells: the ``fsum`` of the values of its
    accepted pieces.  sums(cells, their input indices) gives each cell's
    (value, estimate) from two rules on it alone; split(cell) its children in order.

    Each round makes one sums call at the first per_round live cells in
    depth-first order.  A cell whose value and estimate agree to QUAD_TOL
    is accepted; a non-finite value or estimate, or a cell at MAX_DEPTH,
    raises QuadratureError named label(cell); any other cell is split.  An
    error of sums is raised where it is met: round by round, and in batch
    order within one."""
    tol, max_depth = QUAD_TOL, MAX_DEPTH  # read once, not per cell
    pieces = [[] for _ in cells]
    live = [(cell, 0, k) for k, cell in enumerate(cells)]  # cell, depth, input index
    while live:
        batch, live = live[:per_round], live[per_round:]
        rules, refined = sums([c for c, _, _ in batch], [k for _, _, k in batch]), []
        for (cell, depth, k), (value, estimate) in zip(batch, rules):
            gap = abs(value - estimate)
            if not math.isfinite(gap):
                raise QuadratureError(f"quadrature {label(cell)} has a non-finite rule value "
                                      f"({value}, estimate {estimate})", panel=cell)
            if gap <= tol * (1.0 + abs(value)):
                pieces[k].append(value)
            elif depth >= max_depth:
                raise QuadratureError(f"quadrature {label(cell)} failed to converge "
                                      f"(estimate gap {gap:.3e})", panel=cell)
            else:
                refined += [(c, depth + 1, k) for c in split(cell)]
        live = refined + live
    return [math.fsum(p) for p in pieces]


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
        g = lambda X: _point_values([f], [X])
    else:
        nodes = [a, b]
        g = lambda X: np.fromiter(map(f, X.flat), float, X.size).reshape(X.shape)
    return sign * _integrate(g, nodes)


# ---------------------------------------------------------------------------
# Dependence triangle

def _clip(poly, form: AffineForm, sign: int):
    """Sutherland-Hodgman clip of the list poly keeping sign * l(p) >= 0."""
    (a, b), c = form.coeffs, form.offset
    vals = [sign * (a * x + b * t - c) for x, t in poly]  # bitwise form.value, as in line_values
    out = []
    for cur, nxt, vc, vn in zip(poly, poly[1:] + poly[:1], vals, vals[1:] + vals[:1]):
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


def _quarters(tri):
    """The four triangles of tri = (A, B, C) split at its edge midpoints."""
    a, b, c = tri
    ab, bc, ca = ((0.5 * (p[0] + q[0]), 0.5 * (p[1] + q[1])) for p, q in ((a, b), (b, c), (c, a)))
    return (a, ab, ca), (ab, b, bc), (ca, bc, c), (bc, ca, ab)


def _duffy_sums(g, tris, keys):
    """The (value, estimate) pairs of the Duffy rules on the triangles (A,
    B, C) of the list tris, from one call g(X, T, keys) at all their nodes."""
    t = np.array(tris).T  # coordinate, vertex, triangle
    a, b, c = (t[:, k, :, None] for k in range(3))
    X, T = a + _DUFFY_U * (b - a) + _DUFFY_UV * (c - b)
    values = g(X.ravel(), T.ravel(), keys).reshape(len(tris), -1)
    (e1, e2), (h1, h2) = (b - a)[..., 0], (c - b)[..., 0]
    return _pairs(values, np.abs(e1 * h2 - e2 * h1), _DUFFY_W)


def integrate_triangle(f: PiecewiseFn, x0: float, t0: float) -> float:
    """Integral of f over the dependence triangle (x0 - t0, 0), (x0 + t0,
    0), (x0, t0), t0 > 0: the fans of all its ``clip_cells``, on each of
    which f is one branch, go through one ``adaptive_panel`` call with the
    Duffy rules, split in quarters.  Each round takes each branch at its
    rows with one ``eval_array`` call and ``filled`` the points it sets
    aside, so an error is the first met round by round, then in batch order."""
    if f.d != 2:
        raise QuadratureError("integrate_triangle expects a 2D function")
    if not (math.isfinite(x0) and math.isfinite(t0)):
        raise QuadratureError(f"dependence triangle of ({x0}, {t0}) is not finite")
    if not t0 > 0.0:
        raise QuadratureError("dependence triangle needs t0 > 0")
    fan, branch = [], []  # the fan triangles of every cell, and the branch of each
    for pat, poly in clip_cells(f.forms, [(x0 - t0, 0.0), (x0 + t0, 0.0), (x0, t0)]):
        if _area(poly) == 0.0:  # a cell of rounding only, where f may have no branch
            continue
        if (rhs := f.match(pat)) is None:
            raise BranchLookupError(f"no branch for sign vector {pat} in the dependence "
                                    f"triangle of ({x0}, {t0})")
        v = [(float(x), float(t)) for x, t in poly]  # a failing triangle's name prints floats
        fan += [(v[0], p, q) for p, q in zip(v[1:], v[2:])]
        branch += [rhs] * (len(v) - 2)

    def on_branch(rhs, X, T):
        bad = np.zeros(len(X), dtype=bool)
        values = eval_array(rhs, dict(zip(f.vars, (X, T))), bad)
        return filled((X, T), [(values, ~bad, lambda p: eval_expr(rhs, dict(zip(f.vars, p))))])[0]

    def g(X, T, keys):  # depth-first order keeps each cell's rows together in a batch
        m, of_row = len(X) // len(keys), [branch[k] for k in keys]
        starts = [i for i in range(len(keys)) if i == 0 or of_row[i] is not of_row[i - 1]]
        return np.concatenate([on_branch(of_row[lo], X[lo * m:hi * m], T[lo * m:hi * m])
                               for lo, hi in zip(starts, starts[1:] + [len(keys)])])

    return math.fsum(adaptive_panel(functools.partial(_duffy_sums, g), _quarters, fan,
                                    ROUND_PANELS // 8, lambda tri: f"triangle {tri}"))


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
    return _integrate(lambda S: _point_values([f], [x0 + sigma * (t0 - S), S]), nodes)

