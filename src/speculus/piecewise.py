"""Piecewise-smooth functions on R^1/R^2 with affine singular sets.

A PiecewiseFn is a list of normalized AffineForms (candidate singular
hyperplanes) plus a branch table keyed by sign vectors.  Branch right-hand
sides are Expr trees (a value with no closed form is an ``Opaque`` leaf);
tables are looked up by deterministic first match, with None acting as a
wildcard entry, and ``branch`` falls back to the source expression.  A
table without a wildcard is looked up in a dict built on first use (the
first of duplicate patterns kept); a table with one is scanned in order.
A function parsed from a formula keeps no table: its branch for a sign
vector is the source with those signs pinned (``pin_signs``), made the
first time ``match`` or ``branch`` asks for it and kept.

On-line values (points where some form vanishes) follow one policy per
function:

* ``direct``   - evaluate the source expression with the sgn(0)=0 convention
* ``specular`` - return the A-combination of the one-sided limits (or 0 in
                 the antisymmetric case), which makes the function proper
                 by construction
* ``branch``   - the table carries explicit 0-patterns

The non-empty faces of a line arrangement are enumerated exactly by
``_faces`` (roots in 1D, line crossings and the points between them in 2D),
and ``regions`` lists their sign patterns.  The checks (continuity,
properness, and through them the S^2 and wave checks) sample every edge
of the same arrangement (``_edge_samples``), with no bounding box, so a
verdict does not move when a problem is translated or rescaled.
The A-combination ``a_combine``, the proper on-line value ``proper_value``
and ``proper_leaf``, the same value of two expressions as an ``Opaque``
leaf that carries its partials, live here so that every layer uses the
same rule.

``evaluate`` defines the value at a point and ``one_sided_value`` a limit
along an axis, each through a node of sign patterns: a branch tree, a pair
of limits to A-combine, or an error; ``limit_slope`` differentiates the
node of a limit, and is every one-sided slope of ``specular``.
``evaluate_batch`` gives the value and the limits along given axes at many
points, on lines too, from the ``pattern_groups`` of the points (a stable
sort of one base-3 code per point, cut where the code changes), which
every field on the same lines shares: one ``eval_array`` pass per distinct
non-constant tree over the groups routed to it, read back by offset, and
``proper_values`` for each pair.  It reports the points it covered,
bitwise as the scalar methods, and never raises; ``filled`` is the one
rule by which every batch site takes the other points.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .expr import (
    ONE,
    AffineForm,
    EvalDomainError,
    Expr,
    add,
    affine_arguments,
    diff,
    div,
    eval_array,
    eval_expr,
    find_form,
    mul,
    normalize_affine,
    opaque,
    pin_signs,
    powi,
    subst,
    Const,
    Var,
)

TOL_ZERO = 1e-9
EDGE_POINTS = 3  # sample points per edge of a line in the checks

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
    unsampled: list        # forms whose line has no edge inside the domain


@dataclass
class ProperReport:
    ok: bool
    continuity: ContinuityReport
    violations: list       # (form index, point, axis, stored, expected)


def _sign(f: AffineForm, p: Sequence[float]) -> int:
    """The sign of l(p); 0 within 1e-12 of the size of the terms of l(p)."""
    v = f.value(p)
    scale = 1e-12 * (1.0 + abs(f.offset) + sum(abs(c * x) for c, x in zip(f.coeffs, p)))
    return 0 if abs(v) <= scale else (1 if v > 0 else -1)


def tol_jump(*values: float) -> float:
    """The tolerance within which values count as agreeing."""
    return 1e-9 * sum(map(abs, values), 1.0)


def finite_abs(v: float) -> float:
    """|v| of a residual; a non-finite v raises, so that it never passes a check."""
    if not math.isfinite(v):
        raise EvalDomainError(f"non-finite residual {v}")
    return abs(v)


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


def proper_values(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``proper_value`` entry by entry, bitwise: the zero-sum test, the
    sort and the half-sum are the same IEEE operations (inf + -inf gives
    nan and an overflow gives inf, without a warning), and atan and tan run
    through ``math``."""
    with np.errstate(invalid="ignore", over="ignore"):
        live, order = ~(np.abs(left + right) <= TOL_ZERO), left <= right
    lo, hi = (np.array(list(map(math.atan, np.where(order, a, b)[live].tolist())))
              for a, b in ((left, right), (right, left)))
    out = np.zeros(len(live))
    out[live] = list(map(math.tan, (0.5 * (lo + hi)).tolist()))
    return out


def proper_leaf(left: Expr, right: Expr) -> Expr:
    """``proper_value`` of two expressions as an Opaque leaf (a Const when
    neither has a free variable) with the partials of A = tan((arctan a +
    arctan b) / 2): dA/da = (1 + A^2) / (2 (1 + a^2)), and the same in b."""
    return opaque(proper_value, (left, right), _proper_partials)


def _proper_partials(left: Expr, right: Expr) -> tuple:
    lift = add(ONE, powi(proper_leaf(left, right), 2))
    return tuple(div(lift, mul(Const(2.0), add(ONE, powi(a, 2)))) for a in (left, right))


def line_values(f: AffineForm, cols: Sequence[np.ndarray]) -> tuple:
    """(l(p), [c * x]) at every point (cols: one coordinate array per
    variable): the products summed left to right, then the offset taken
    off, which for one or two terms is bitwise ``AffineForm.value``."""
    terms = [c * x for c, x in zip(f.coeffs, cols)]
    return sum(terms[1:], terms[0]) - f.offset, terms


def sign_matrix(forms: Sequence[AffineForm], cols: Sequence[np.ndarray],
                bad: Optional[np.ndarray] = None) -> np.ndarray:
    """``_sign`` of each form at every point (cols: one coordinate array per
    variable) as the rows of an int8 matrix.  Each l(p) is ``line_values``
    and the scale of ``_sign`` is summed left to right from the same
    products (``A @ P`` may fuse or reorder the sums).  An entry
    is 0 where l(p) is not finite, and every entry is 0 for more than two
    variables; those rows are set in bad, if given, for the scalar path."""
    cols = [np.asarray(c, dtype=float) for c in cols]
    out = np.zeros((len(cols[0]) if cols else 0, len(forms)), dtype=np.int8)
    bad = np.zeros(len(out), dtype=bool) if bad is None else bad
    if len(cols) > 2:
        bad[:] = True
        return out
    with np.errstate(all="ignore"):
        for k, f in enumerate(forms):
            v, terms = line_values(f, cols)
            scale = 1e-12 * (1.0 + abs(f.offset) + sum(np.abs(t) for t in terms))
            out[:, k] = (v > scale).astype(np.int8) - (v < -scale)
            bad |= ~np.isfinite(v)
    return out


def pattern_groups(forms: Sequence[AffineForm], cols: Sequence[np.ndarray]) -> list:
    """[(pattern, point indices)] for each sign pattern of the forms among
    the points (the bad ones of ``sign_matrix`` left out), each once and its
    indices ascending, in ``np.lexsort`` order: a stable sort of one base-3
    code per point, the last form most significant, cut where the code
    changes.  Codes are int16 (sorted by radix) while 3^m fits, else int64,
    renumbered in order every 20 forms so that they never overflow."""
    bad = np.zeros(len(cols[0]), dtype=bool)
    signs = sign_matrix(forms, cols, bad)
    rows = np.flatnonzero(~bad)
    codes = np.zeros(len(rows), dtype=np.int16 if 3 ** len(forms) <= 32768 else np.int64)
    for j, column in enumerate(signs[rows].T[::-1]):
        if j % 20 == 19:
            codes = np.unique(codes, return_inverse=True)[1]
        codes = codes * 3 + (column + 1)
    order = np.argsort(codes, kind="stable")
    rows, codes = rows[order], codes[order]
    cuts = np.flatnonzero(codes[1:] != codes[:-1]) + 1
    return [(tuple(signs[idx[0]].tolist()), idx) for idx in np.split(rows, cuts)] if len(rows) else []


@dataclass(frozen=True)
class PiecewiseFn:
    vars: tuple
    forms: tuple                 # tuple[AffineForm, ...]
    branches: tuple              # tuple[(Pattern, Expr), ...]
    policy: str                  # on-line values: 'direct', 'specular' or 'branch'
    source: Optional[Expr] = None
    domain: tuple = ()           # ((AffineForm, sign), ...): sign*l(p) > 0 required
    # derivative fields built from this function, keyed by (kind, axis); a
    # copy made by ``replace`` starts empty, equality and hashing ignore it
    derived: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    # kept the same way: the ``limit_slope`` of each (adjacent sign vector,
    # axis), the ``diff`` memo of each axis, the result of ``is_proper``, and
    # the branch table as a dict (False when a pattern has a wildcard)
    _slopes: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _memos: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _proper: Optional[tuple] = field(default=None, init=False, compare=False, repr=False)
    _index: Optional[dict] = field(default=None, init=False, compare=False, repr=False)
    # the source pinned at each sign vector asked for, and the ``pin_signs``
    # memo those pins share
    _pins: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _pin_memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def d(self) -> int:
        return len(self.vars)

    # -- basic queries ------------------------------------------------------

    def sign_vector(self, p: Sequence[float]) -> Pattern:
        """The sign of each form at p; no sign places a coordinate that is
        not finite, so it raises."""
        if not all(map(math.isfinite, p)):
            raise EvalDomainError(f"non-finite point {tuple(p)}")
        return tuple([_sign(f, p) for f in self.forms])

    def match(self, s: Pattern) -> Optional[Expr]:
        if not self.branches and self.source is not None:  # a formula: no table
            return None if 0 in s else self._pin(s, partial=False)
        if self._index is None:  # reversed, so the first of duplicate patterns wins
            index = dict(reversed(self.branches))
            object.__setattr__(self, "_index", False if any(None in pat for pat in index) else index)
        if self._index is not False:
            return self._index.get(s)
        for pat, rhs in self.branches:
            if all(q is None or q == t for q, t in zip(pat, s)):
                return rhs
        return None

    def branch(self, s: Pattern) -> Optional[Expr]:
        """The table branch for the sign vector, else the source with every
        sign pinned; None when there is neither.  A zero entry (a form the
        point stays on) pins sgn(l) and abs(l) to 0, so sgn(0) = 0 holds
        exactly where rounding leaves l(p) off 0."""
        rhs = self.match(s)
        if rhs is not None or self.source is None:
            return rhs
        return self._pin(s, partial=True)

    def _pin(self, s: Pattern, partial: bool) -> Expr:
        """The source pinned at s, made on first request and kept; a sign
        vector is pinned by ``match`` or by ``branch``, never by both."""
        if s not in self._pins:
            self._pins[s] = pin_signs(self.source, self.vars, list(zip(self.forms, s)),
                                      partial, self._pin_memo)
        return self._pins[s]

    def in_domain(self, p: Sequence[float], margin: float = 0.0) -> bool:
        return all(s * f.value(p) > margin for f, s in self.domain)

    # -- evaluation ---------------------------------------------------------

    def _value_node(self, s: Pattern):
        """How a point with sign vector s takes its value: under ``specular``
        on a line, the pair of limits along the primary axis of its first
        zero; else the table branch, which under ``direct`` on a line falls
        back to the pinned source of ``branch``; or None."""
        if 0 in s and self.policy == "specular":
            axis = self.forms[s.index(0)].primary_axis()
            return tuple(self._limit_node(s, axis, d) for d in (-1, 1))
        try:
            return self.branch(s) if 0 in s and self.policy == "direct" else self.match(s)
        except Exception as exc:  # pinning the source failed: raised when evaluated
            return exc

    def _limit_node(self, s: Pattern, axis: int, direction: int):
        """How the limit along the axis from the given side takes its value
        at sign vector s: the adjacent pattern's branch; else, when u is
        ``specular`` and the path stays on a parallel line (entry still 0),
        the pair of limits across it; else the error that the scalar path
        raises."""
        sv = self.adjacent_sign_vector(s, axis, direction)
        try:
            rhs = self.branch(sv)
        except Exception as exc:  # pinning the source failed: raised when evaluated
            return exc
        if rhs is not None:
            return rhs
        if 0 in sv and self.policy == "specular":
            axis = self.forms[sv.index(0)].primary_axis()
            return tuple(self._limit_node(sv, axis, d) for d in (-1, 1))
        return BranchLookupError(f"no adjacent branch for sign vector {sv}")

    def _node_value(self, node, p: Sequence[float]) -> float:
        """A node at p: its branch, ``proper_value`` of a pair, or its error."""
        if isinstance(node, Exception):
            raise node
        if isinstance(node, tuple):
            return proper_value(*(self._node_value(m, p) for m in node))
        return eval_expr(node, dict(zip(self.vars, p)))

    def limit_slope(self, s: Pattern, axis: int, direction: int) -> Expr:
        """The derivative along the axis of what u takes on the given side at
        sign vector s (``_limit_node``: the adjacent branch, or the
        ``proper_leaf`` of a pair of limits), built once per (adjacent sign
        vector, axis) through the axis's one ``diff`` memo.  Raises the
        node's error, or NotSymbolic for an Opaque leaf without partials."""
        def expr(node):
            if isinstance(node, Exception):
                raise node
            return proper_leaf(*map(expr, node)) if isinstance(node, tuple) else node

        key = (self.adjacent_sign_vector(s, axis, direction), axis)
        if key not in self._slopes:
            rhs = expr(self._limit_node(s, axis, direction))
            self._slopes[key] = diff(rhs, self.vars[axis], self._memos.setdefault(axis, {}))
        return self._slopes[key]

    def evaluate(self, p: Sequence[float]) -> float:
        s = self.sign_vector(p)
        node = self._value_node(s)
        if node is None:
            what = ("branch" if 0 not in s else "branch or source" if self.policy == "direct"
                    else "on-line branch")
            raise BranchLookupError(f"no {what} for sign vector {s} at {tuple(p)}")
        return self._node_value(node, p)

    def evaluate_many(self, cols: Sequence[np.ndarray]) -> tuple:
        """``evaluate`` at many points: the (values, covered) of ``evaluate_batch``."""
        return self.evaluate_batch(cols)[None]

    def evaluate_batch(self, cols: Sequence[np.ndarray], axes: Sequence[int] = (),
                       value: bool = True, groups: Optional[list] = None) -> dict:
        """The value (key None, unless value is false) and the left and
        right limits along each axis (keys (axis, -1) and (axis, +1)) at
        many points (cols: one coordinate array per variable), each as
        (values, covered).  The ``pattern_groups`` of the forms at cols
        (groups, if the caller has them) route each request to its node.
        Each distinct branch tree takes one ``eval_array`` pass over the
        concatenation of the distinct groups routed to it (a constant is
        filled in), each request reads its group's slice back, and a pair
        takes ``proper_values``.  A covered point has finite l(p) and a
        value bitwise that of ``evaluate``/``one_sided_value``; ``filled``
        takes the others and raises the errors.  Nothing here raises."""
        cols = [np.asarray(c, dtype=float) for c in cols]
        keys = ([None] if value else []) + [(axis, d) for axis in axes for d in (-1, 1)]
        plan, trees = [], {}
        for s, idx in pattern_groups(self.forms, cols) if groups is None else groups:
            for key in keys:
                node = self._value_node(s) if key is None else self._limit_node(s, *key)
                plan.append((key, idx, node))
                _route(node, idx, trees)
        done = {}
        for k, (rhs, parts) in trees.items():
            offsets = dict(zip(parts, itertools.accumulate((len(i) for i in parts.values()), initial=0)))
            idx = np.concatenate(list(parts.values()))
            bad = np.zeros(len(idx), dtype=bool)
            done[k] = offsets, (np.full(len(idx), rhs.value) if type(rhs) is Const else
                                eval_array(rhs, dict(zip(self.vars, (c[idx] for c in cols))), bad)), bad
        n = len(cols[0])
        out = {key: (np.zeros(n), np.zeros(n, dtype=bool)) for key in keys}
        for key, idx, node in plan:
            out[key][0][idx], out[key][1][idx] = _node_values(node, idx, done)
        return out

    def one_sided_limits(self, p: Sequence[float], axis: int) -> OneSidedLimits:
        s = self.sign_vector(p)
        left = self.one_sided_value(p, s, axis, -1)
        right = self.one_sided_value(p, s, axis, +1)
        return OneSidedLimits(left, right, 0.5 * (left + right), axis)

    def adjacent_sign_vector(self, s: Pattern, axis: int, direction: int) -> Pattern:
        """Sign vector of points p + eps*direction*e_axis: zero entries of
        forms with a_axis != 0 move to direction*sign(a_axis)."""
        out = list(s)
        for k, f in enumerate(self.forms):
            if out[k] == 0 and f.coeffs[axis] != 0.0:
                out[k] = direction * (1 if f.coeffs[axis] > 0 else -1)
        return tuple(out)

    def one_sided_value(self, p, s, axis: int, direction: int) -> float:
        """The limit of u at p (sign vector s) approached along the axis from
        the given side."""
        return self._node_value(self._limit_node(s, axis, direction), p)


def _route(node, idx: np.ndarray, trees: dict) -> None:
    """Add the group's point indices to each branch tree of the node: trees
    are keyed by id, and each keeps its distinct groups by id, in order."""
    if isinstance(node, tuple):
        for m in node:
            _route(m, idx, trees)
    elif isinstance(node, Expr):
        trees.setdefault(id(node), (node, {}))[1].setdefault(id(idx), idx)


def _node_values(node, idx: np.ndarray, done: dict) -> tuple:
    """(values, covered) of a node at a group's point indices: a tree's
    slice at the group's offset, or ``proper_values`` of a pair."""
    if isinstance(node, tuple):
        (a, oa), (b, ob) = (_node_values(m, idx, done) for m in node)
        return proper_values(a, b), oa & ob
    if not isinstance(node, Expr):
        return np.zeros(len(idx)), np.zeros(len(idx), dtype=bool)
    offsets, values, bad = done[id(node)]
    pos = slice(offsets[id(idx)], offsets[id(idx)] + len(idx))
    return values[pos], ~bad[pos]


# ---------------------------------------------------------------------------
# Construction

def from_expression(e: Expr, vars: Sequence[str], domain: Sequence = ()) -> PiecewiseFn:
    """The function of a formula.  With abs/sgn forms it keeps no table:
    ``match`` and ``branch`` pin the source at a sign vector when first
    asked.  Without, its one branch is the formula as parsed."""
    vars = tuple(vars)
    forms = tuple(affine_arguments(e, vars))
    branches = () if forms else (((), e),)
    return PiecewiseFn(vars, forms, branches, "direct", source=e, domain=tuple(domain))


def from_branches(forms: Sequence[AffineForm], table: Sequence, vars: Sequence[str],
                  policy: str = "specular", domain: Sequence = (),
                  source: Optional[Expr] = None) -> PiecewiseFn:
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
    u = PiecewiseFn(vars, forms, tuple(branches), policy, source=source, domain=tuple(domain))
    for pat in regions(forms, u.domain, len(vars)):
        if u.match(pat) is None:
            raise CoverageError(f"no branch covers open-region sign vector {pat}")
    return u


def _meet(f: AffineForm, g: AffineForm):
    """The crossing point of two lines in the plane; None when parallel."""
    (a, b), (c, d) = f.coeffs, g.coeffs
    det = a * d - b * c
    if abs(det) <= 1e-12 * (abs(a * d) + abs(b * c)):
        return None
    return ((f.offset * d - b * g.offset) / det, (a * g.offset - f.offset * c) / det)


def _between(ts: list) -> list:
    """A point below the sorted values, their midpoints, a point above; [0.0] for none."""
    if not ts:
        return [0.0]
    step = 1.0 + (ts[-1] - ts[0])
    return [ts[0] - step] + [0.5 * (a + b) for a, b in zip(ts, ts[1:])] + [ts[-1] + step]


def _plane_witnesses(lines: list) -> list:
    """A point in every face of the arrangement of the lines.  The
    abscissae of all crossings and vertical lines split the plane into
    vertical slabs; on the vertical line through each such abscissa and
    through each slab's middle, take the points on the non-vertical lines
    and those between them.  Every vertex, edge and cell meets one of
    these vertical lines, and there the points between lines reach it."""
    xs = {p[0] for f, g in itertools.combinations(lines, 2) if (p := _meet(f, g))}
    xs = sorted(xs.union(f.offset / f.coeffs[0] for f in lines if f.coeffs[1] == 0.0))
    points = []
    for x in xs + _between(xs):
        ys = sorted({(f.offset - f.coeffs[0] * x) / f.coeffs[1]
                     for f in lines if f.coeffs[1] != 0.0})
        points += [(x, y) for y in ys + _between(ys)]
    return points


@functools.lru_cache(maxsize=1024)
def _faces(forms: tuple, domain: tuple, d: int) -> dict:
    """{sign pattern: witness point} for every non-empty face (cell, edge or
    vertex) of the arrangement of the forms inside the open domain; callers
    share the cached dict and must not change it.  The domain's lines take
    part in the arrangement, and a witness counts only when it meets the
    domain strictly."""
    lines = list(forms) + [f for f, _ in domain]
    if d == 1:
        roots = sorted({f.offset / f.coeffs[0] for f in lines})
        points = [(x,) for x in roots + _between(roots)]
    else:
        points = _plane_witnesses(lines)
    faces: dict = {}
    for p in points:
        if all(_sign(f, p) == s for f, s in domain):
            faces.setdefault(tuple(_sign(f, p) for f in forms), p)
    return faces


def regions(forms: Sequence[AffineForm], domain: Sequence, d: int,
            values: tuple = (1, -1)) -> list:
    """The sign patterns of the non-empty regions, in ``itertools.product``
    order; the entries range over ``values`` (pass (1, 0, -1) to list the
    on-line faces too)."""
    rank = {s: i for i, s in enumerate(values)}
    found = [pat for pat in _faces(tuple(forms), tuple(domain), d) if all(s in rank for s in pat)]
    return sorted(found, key=lambda pat: [rank.get(s, 0) for s in pat])


@functools.lru_cache(maxsize=1024)
def _edge_samples(forms: tuple, domain: tuple, d: int) -> tuple:
    """The sample points on each form's line, one tuple per form.  The
    other forms and the domain lines cut the line into edges; each edge
    gets ``EDGE_POINTS`` points, at equal fractions of a bounded edge and
    at steps of the line's span (1 + the distance between its outer cuts)
    past the last cut of a ray.  A line nothing cuts is cut at its point
    nearest the origin.  A point is kept when it meets the domain strictly
    and lies off every other line.  In 1D the sample is the root.  Callers
    share the cached tuple, as with ``_faces``."""
    lines = list(forms) + [g for g, _ in domain]
    steps = range(1, EDGE_POINTS + 1)
    out = []
    for k, f in enumerate(forms):
        if d == 1:
            pts = [(f.offset / f.coeffs[0],)]
        elif d > 2:
            raise PiecewiseError(f"edge samples need a function of one or two variables, not {d}")
        else:
            # p(t) = foot + t * (-b, a), foot the point nearest the origin
            (a, b), n2 = f.coeffs, f.coeffs[0] ** 2 + f.coeffs[1] ** 2
            foot = (f.offset * a / n2, f.offset * b / n2)
            ts = sorted({(b * (foot[0] - q[0]) + a * (q[1] - foot[1])) / n2
                         for g in lines if g is not f and (q := _meet(f, g))}) or [0.0]
            span = 1.0 + (ts[-1] - ts[0])
            params = [ts[0] - j * span for j in reversed(steps)]
            for lo, hi in zip(ts, ts[1:]):
                params += [lo + (hi - lo) * j / (EDGE_POINTS + 1) for j in steps]
            params += [ts[-1] + j * span for j in steps]
            pts = [(foot[0] - t * b, foot[1] + t * a) for t in params]
        out.append(tuple(p for p in pts
                         if all(_sign(g, p) == s for g, s in domain)
                         and all(_sign(g, p) for m, g in enumerate(forms) if m != k)))
    return tuple(out)


def columns(pts: list, d: int) -> np.ndarray:
    """The d-dimensional points as one coordinate array per variable."""
    return np.array(pts, dtype=float).reshape(-1, d).T


@functools.lru_cache(maxsize=1024)
def _edge_groups(forms: tuple, domain: tuple, d: int) -> tuple:
    """The points of ``_edge_samples`` as read-only ``columns`` and their
    ``pattern_groups``, shared by every field on the same lines."""
    cols = columns([p for pts in _edge_samples(forms, domain, d) for p in pts], d)
    cols.flags.writeable = False
    return cols, pattern_groups(forms, cols)


def filled(cols: Sequence[np.ndarray], columns: Sequence[tuple]) -> list:
    """The values of each column, its uncovered entries filled in place.
    A column is a (values, covered, scalar) triple over the points of cols
    (one coordinate array per variable), as a batch (``evaluate_batch``,
    ``transport_operator_many``, ``eval_array``'s ~bad) gives it, with the
    scalar method that defines its value at a point.  This is the one rule
    for the points a batch leaves: each uncovered entry is scalar(point),
    the point a tuple of Python floats, taken row by row and within a row
    column by column, so the values and the first error raised are those
    of a point-by-point pass.  Nothing uncovered, no scalar call."""
    out = [values for values, _, _ in columns]
    if all(covered.all() for _, covered, _ in columns):
        return out
    holes = ~np.column_stack([covered for _, covered, _ in columns])
    for i in np.flatnonzero(holes.any(axis=1)).tolist():
        p = tuple([float(c[i]) for c in cols])
        for j in np.flatnonzero(holes[i]).tolist():
            out[j][i] = columns[j][2](p)
    return out


def _limit_columns(u: PiecewiseFn, lines: tuple, batch: dict, primary: bool) -> list:
    """The ``filled`` columns of a batch's limits at the edge samples of the
    lines, along each of its axes, asked only where the sample's line has
    that primary axis (primary true) or another one."""
    along = np.repeat([f.primary_axis() for f in u.forms], list(map(len, lines)))
    return [(values, covered | ((along == key[0]) != primary),
             lambda p, key=key: u.one_sided_value(p, u.sign_vector(p), *key))
            for key, (values, covered) in batch.items() if key is not None]


# ---------------------------------------------------------------------------
# Continuity and properness

def classify_continuity(u: PiecewiseFn) -> ContinuityReport:
    lines = _edge_samples(u.forms, u.domain, u.d)
    cols, groups = _edge_groups(u.forms, u.domain, u.d)
    axes = sorted({u.forms[k].primary_axis() for k, pts in enumerate(lines) if pts})
    return _continuity(u, lines, cols, u.evaluate_batch(cols, axes, False, groups))


def _continuity(u: PiecewiseFn, lines: list, cols, batch: dict) -> ContinuityReport:
    """The report from the limits along each form's primary axis at its
    samples, the points the batch leaves ``filled``."""
    jump, indet, unsampled = [], [], []
    samples: dict = {}
    limits = dict(zip(filter(None, batch), (v.tolist() for v in filled(
        cols, _limit_columns(u, lines, batch, True)))))
    at = itertools.count()
    for k, pts in enumerate(lines):
        if not pts:
            unsampled.append(k)
            continue
        left, right = (limits[u.forms[k].primary_axis(), d] for d in (-1, 1))
        rows = [(p, left[i], right[i]) for p, i in zip(pts, at)]
        n_jump = sum(abs(left - right) > tol_jump(left, right) for _, left, right in rows)
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


def is_proper(u: PiecewiseFn):
    """Stored values at the edge samples against the A-combination of the
    limits along each axis (along the primary one, those of the report),
    from one batch for the whole check; the points it leaves are
    ``filled``, per point the value first, then each other axis.  Run once
    per function: the (ok, report) pair is kept, and callers only read it."""
    if u._proper is not None:
        return u._proper
    lines = _edge_samples(u.forms, u.domain, u.d)
    cols, groups = _edge_groups(u.forms, u.domain, u.d)
    batch = u.evaluate_batch(cols, range(u.d), True, groups)
    cont = _continuity(u, lines, cols, batch)
    stored_values, *limits = (v.tolist() for v in filled(
        cols, [(*batch[None], u.evaluate)] + _limit_columns(u, lines, batch, False)))
    at = itertools.count()
    violations = []
    for k, rows in cont.samples.items():
        primary = u.forms[k].primary_axis()
        for (p, a, b), i in zip(rows, at):
            stored = stored_values[i]
            for axis in range(u.d):
                left, right = (a, b) if axis == primary else (limits[2 * axis][i], limits[2 * axis + 1][i])
                expected = proper_value(left, right)
                if abs(stored - expected) > tol_jump(left, right):
                    violations.append((k, p, axis, stored, expected))
    ok = cont.verdict != "not-piecewise-continuous" and not violations
    object.__setattr__(u, "_proper", (ok, ProperReport(ok, cont, violations)))
    return u._proper


# ---------------------------------------------------------------------------
# Algebra on piecewise functions (used by the wave solvers)

def merge_forms(groups: Sequence[Sequence[AffineForm]]) -> list:
    out: list = []
    for forms in groups:
        for f in forms:
            if find_form(out, f) < 0:
                out.append(f)
    return out


def _branch_for(u: PiecewiseFn, places: list, pattern: Pattern) -> Expr:
    """u's branch at a sign pattern of a union of forms; places: the index
    of each of u's forms in the union, found once per summand."""
    s = tuple(pattern[k] for k in places)
    rhs = u.match(s)
    if rhs is None:
        raise BranchLookupError(f"no branch of summand for restricted pattern {s}")
    return rhs


def pw_add(u: PiecewiseFn, v: PiecewiseFn, cv: float = 1.0) -> PiecewiseFn:
    """u + cv*v on the union of singular forms; on-line policy specular."""
    if u.vars != v.vars:
        raise PiecewiseError("variable mismatch in pw_add")
    forms = merge_forms([u.forms, v.forms])
    domain = _merge_domain(u.domain, v.domain)
    pu, pv = ([find_form(forms, f) for f in w.forms] for w in (u, v))
    branches = [(pat, add(_branch_for(u, pu, pat), mul(Const(cv), _branch_for(v, pv, pat))))
                for pat in regions(forms, domain, u.d)]
    return PiecewiseFn(u.vars, tuple(forms), tuple(branches), "specular", domain=domain)


def pw_scale(c: float, u: PiecewiseFn) -> PiecewiseFn:
    branches = tuple((pat, mul(Const(c), rhs)) for pat, rhs in u.branches)
    src = mul(Const(c), u.source) if u.source is not None else None
    return replace(u, branches=branches, source=src)


def _merge_domain(da, db) -> tuple:
    out = list(da)
    for f, s in db:
        if not any(g.same_as(f) and t == s for g, t in out):
            out.append((f, s))
    return tuple(out)


def pw_compose_affine(h: PiecewiseFn, coeffs: Sequence[float], const: float,
                      vars2: Sequence[str], domain: Sequence = ()) -> PiecewiseFn:
    """h(a.p + c) for 1D h: a PiecewiseFn over vars2 whose forms are the
    pullbacks of h's singular points."""
    if h.d != 1:
        raise PiecewiseError("pw_compose_affine expects 1D h")
    vars2 = tuple(vars2)
    arg_expr = add(
        add(mul(Const(coeffs[0]), Var(vars2[0])), mul(Const(coeffs[1]), Var(vars2[1]))),
        Const(const),
    )

    def pull(f: AffineForm):
        # the line of a.p + c = root, and the sign of l(a.p + c) across it
        form, scale = normalize_affine(tuple(coeffs), const - f.offset / f.coeffs[0])
        return form, (1 if scale > 0 else -1)

    comp = [pull(f) for f in h.forms]
    comp_forms = tuple(g for g, _ in comp)
    pulled_domain = tuple((g, s * t) for f, s in h.domain for g, t in [pull(f)])
    branches = []
    for pat in regions(comp_forms, tuple(domain) + pulled_domain, 2):
        s1d = tuple(q * t for q, (_, t) in zip(pat, comp))
        rhs = h.match(s1d)
        if rhs is None:
            raise BranchLookupError(f"1D branch missing for sign vector {s1d}")
        branches.append((pat, subst(rhs, {h.vars[0]: arg_expr})))
    return PiecewiseFn(vars2, comp_forms, tuple(branches), "specular", domain=tuple(domain))


def pw_select(form: AffineForm, pos: PiecewiseFn, neg: PiecewiseFn) -> PiecewiseFn:
    """Glue two fields along a hyperplane: pos where form > 0, neg below."""
    if pos.vars != neg.vars:
        raise PiecewiseError("variable mismatch in pw_select")
    forms = merge_forms([[form], pos.forms, neg.forms])
    domain = _merge_domain(pos.domain, neg.domain)
    sel = find_form(forms, form)
    sides = [(w, [find_form(forms, f) for f in w.forms]) for w in (pos, neg)]
    branches = [(pat, _branch_for(*sides[pat[sel] < 0], pat)) for pat in regions(forms, domain, pos.d)]
    return PiecewiseFn(pos.vars, tuple(forms), tuple(branches), "specular", domain=domain)


def pw_hold(u: PiecewiseFn, held: dict) -> PiecewiseFn:
    """u with the lines of held (form index -> +1/-1) dropped and their signs
    held, so that it keeps that side's branches on those lines too."""
    if not held:
        return u
    keep = [k for k in range(len(u.forms)) if k not in held]
    branches = tuple((tuple(pat[k] for k in keep), rhs) for pat, rhs in u.branches
                     if all(pat[k] in (None, r) for k, r in held.items()))
    source = None if u.source is None else pin_signs(
        u.source, u.vars, [(u.forms[k], r) for k, r in held.items()], partial=True)
    return PiecewiseFn(u.vars, tuple(u.forms[k] for k in keep), branches, u.policy,
                       source=source, domain=u.domain)
