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

On-line values (points where some form vanishes) are controlled by a per-
form policy:

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
The A-combination ``a_combine`` and the proper on-line value
``proper_value`` live here so that every layer uses the same rule.

``evaluate`` defines the value at a point and ``one_sided_value`` a limit
along an axis, each through a node of sign patterns: a branch tree, a pair
of limits to A-combine, or an error.  ``evaluate_batch`` gives the value and
the limits along given axes at many points, on lines too, from one
``pattern_groups`` call and one ``eval_array`` pass per distinct tree, and
reports the points it covered, bitwise as the scalar methods.  It never
raises: the checks call the scalar methods at the other points in the order
of a scalar pass (line by line; per point the value, then each axis), so
the first error is the one a scalar pass raises.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .expr import (
    AffineForm,
    Expr,
    add,
    affine_arguments,
    eval_array,
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
    branches: tuple              # tuple[(Pattern, Expr), ...]
    policies: tuple              # per-form, in {'direct', 'specular', 'branch'}
    source: Optional[Expr] = None
    domain: tuple = ()           # ((AffineForm, sign), ...): sign*l(p) > 0 required
    # derivative fields built from this function, keyed by (kind, axis); a
    # copy made by ``replace`` starts empty, equality and hashing ignore it
    derived: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    # kept the same way: symbolic branch derivatives keyed by (sign vector,
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
        return tuple([_sign(f, p) for f in self.forms])

    def sign_matrix(self, cols: Sequence[np.ndarray], bad: Optional[np.ndarray] = None) -> np.ndarray:
        """The sign_vector of every point as the rows of an int8 matrix;
        cols holds one coordinate array per variable.  Each l(p) and the
        scale of ``_sign`` are summed left to right from elementwise
        products, which for one or two terms is bitwise the correctly
        rounded ``fsum`` of ``AffineForm.value`` (``A @ P`` may fuse or
        reorder the sums).  An entry is 0 where l(p) is not finite, and
        every entry is 0 for more than two variables; those rows are set in
        bad, if given, so that those points take the scalar path."""
        cols = [np.asarray(c, dtype=float) for c in cols]
        out = np.zeros((len(cols[0]) if cols else 0, len(self.forms)), dtype=np.int8)
        bad = np.zeros(len(out), dtype=bool) if bad is None else bad
        if self.d > 2:
            bad[:] = True
            return out
        with np.errstate(all="ignore"):
            for k, f in enumerate(self.forms):
                terms = [c * x for c, x in zip(f.coeffs, cols)]
                v = sum(terms[1:], terms[0]) - f.offset
                scale = 1e-12 * (1.0 + abs(f.offset) + sum(np.abs(t) for t in terms))
                out[:, k] = (v > scale).astype(np.int8) - (v < -scale)
                bad |= ~np.isfinite(v)
        return out

    def pattern_groups(self, cols: Sequence[np.ndarray]):
        """(pattern, point indices) for each sign pattern among the points,
        each pattern once; the bad points of ``sign_matrix`` are left out."""
        bad = np.zeros(len(cols[0]), dtype=bool)
        signs = self.sign_matrix(cols, bad)
        if not self.forms:
            if not bad.all():
                yield (), np.flatnonzero(~bad)
            return
        # a row's bytes as one key: ten times faster than np.unique(axis=0)
        keys = signs.view(np.dtype((np.void, len(self.forms)))).ravel()
        _, first, inv = np.unique(keys, return_index=True, return_inverse=True)
        for k, i in enumerate(first.tolist()):
            idx = np.flatnonzero((inv == k) & ~bad)
            if len(idx):
                yield tuple(signs[i].tolist()), idx

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
        """How a point with sign vector s takes its value: the pair of limits
        along the primary axis of its first ``specular`` zero, else the table
        branch, which under a ``direct`` zero falls back to the pinned source
        of ``branch``, or None."""
        zeros = [k for k, t in enumerate(s) if t == 0]
        spec = [k for k in zeros if self.policies[k] == "specular"]
        if spec:
            return tuple(self._limit_node(s, self.forms[spec[0]].primary_axis(), d) for d in (-1, 1))
        direct = any(self.policies[k] == "direct" for k in zeros)
        try:
            return self.branch(s) if direct else self.match(s)
        except Exception as exc:  # pinning the source failed: raised when evaluated
            return exc

    def _limit_node(self, s: Pattern, axis: int, direction: int):
        """How the limit along the axis from the given side takes its value
        at sign vector s: the adjacent pattern's branch; else, when the path
        stays on a parallel ``specular`` form (entry still 0), the pair of
        limits across it; else the error that the scalar path raises."""
        sv = self.adjacent_sign_vector(s, axis, direction)
        try:
            rhs = self.branch(sv)
        except Exception as exc:  # pinning the source failed: raised when evaluated
            return exc
        if rhs is not None:
            return rhs
        for k, f in enumerate(self.forms):
            if sv[k] == 0 and self.policies[k] == "specular":
                return tuple(self._limit_node(sv, f.primary_axis(), d) for d in (-1, 1))
        return BranchLookupError(f"no adjacent branch for sign vector {sv}")

    def _node_value(self, node, p: Sequence[float]) -> float:
        """A node at p: its branch, ``proper_value`` of a pair, or its error."""
        if isinstance(node, Exception):
            raise node
        if isinstance(node, tuple):
            return proper_value(*(self._node_value(m, p) for m in node))
        return eval_expr(node, dict(zip(self.vars, p)))

    def evaluate(self, p: Sequence[float]) -> float:
        s = self.sign_vector(p)
        node = self._value_node(s)
        if node is None:
            what = ("branch or source" if any(t == 0 and q == "direct" for t, q in zip(s, self.policies))
                    else "on-line branch" if 0 in s else "branch")
            raise BranchLookupError(f"no {what} for sign vector {s} at {tuple(p)}")
        return self._node_value(node, p)

    def evaluate_many(self, cols: Sequence[np.ndarray]) -> tuple:
        """``evaluate`` at many points: the (values, covered) of ``evaluate_batch``."""
        return self.evaluate_batch(cols)[None]

    def evaluate_batch(self, cols: Sequence[np.ndarray], axes: Sequence[int] = (),
                       value: bool = True) -> dict:
        """The value (key None, unless value is false) and the left and
        right limits along each axis (keys (axis, -1) and (axis, +1)) at
        many points (cols: one coordinate array per variable), each as
        (values, covered).  One
        ``pattern_groups`` call routes every request of a sign pattern to its
        node, each distinct branch tree takes one ``eval_array`` pass over
        all the points routed to it, and a pair takes ``proper_value`` per
        point through ``math``.  A covered point has finite l(p) and a value
        bitwise that of ``evaluate``/``one_sided_value``; the scalar methods
        take the others and raise the errors.  Nothing here raises."""
        cols = [np.asarray(c, dtype=float) for c in cols]
        keys = ([None] if value else []) + [(axis, d) for axis in axes for d in (-1, 1)]
        plan, trees = [], {}
        for s, idx in self.pattern_groups(cols):
            for key in keys:
                node = self._value_node(s) if key is None else self._limit_node(s, *key)
                plan.append((key, idx, node))
                _route(node, idx, trees)
        done = {}
        for k, (rhs, parts) in trees.items():
            idx = parts[0] if len(parts) == 1 else np.flatnonzero(np.bincount(np.concatenate(parts)))
            bad = np.zeros(len(idx), dtype=bool)
            done[k] = idx, eval_array(rhs, dict(zip(self.vars, (c[idx] for c in cols))), bad), bad
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
    """Add the point indices to each branch tree of the node, keyed by id."""
    if isinstance(node, tuple):
        for m in node:
            _route(m, idx, trees)
    elif isinstance(node, Expr):
        trees.setdefault(id(node), (node, []))[1].append(idx)


def _node_values(node, idx: np.ndarray, done: dict) -> tuple:
    """(values, covered) of a node at the point indices, from the evaluated trees."""
    if isinstance(node, tuple):
        (a, oa), (b, ob) = (_node_values(m, idx, done) for m in node)
        return np.array([proper_value(x, y) for x, y in zip(a.tolist(), b.tolist())]), oa & ob
    if not isinstance(node, Expr):
        return np.zeros(len(idx)), np.zeros(len(idx), dtype=bool)
    at, values, bad = done[id(node)]  # the tree's sorted point indices, values, failures
    pos = slice(None) if idx is at else np.searchsorted(at, idx)
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
    return PiecewiseFn(vars, forms, branches, ("direct",) * len(forms), source=e, domain=tuple(domain))


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
            fixed: Pattern = (), values: tuple = (1, -1)) -> list:
    """The sign patterns of the non-empty regions, in ``itertools.product``
    order.  Nonzero entries of ``fixed`` are held; the other entries range
    over ``values`` (pass (1, 0, -1) to list the on-line faces too)."""
    fixed = tuple(fixed) or (0,) * len(forms)
    rank = {s: i for i, s in enumerate(values)}
    found = [pat for pat in _faces(tuple(forms), tuple(domain), d)
             if all(s == q if q else s in rank for s, q in zip(pat, fixed))]
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


def evaluate_at(u: PiecewiseFn, pts: list):
    """u.evaluate at each point, in order: one ``evaluate_many`` batch, and
    ``evaluate`` at a point it leaves, once the iteration reaches it."""
    values, covered = u.evaluate_many(np.array(pts, dtype=float).reshape(-1, u.d).T)
    for p, v, ok in zip(pts, values.tolist(), covered.tolist()):
        yield v if ok else u.evaluate(p)


def _line_batch(u: PiecewiseFn, lines: list, axes, value: bool = True) -> dict:
    """``evaluate_batch`` at the points of all lines, as Python lists."""
    cols = np.array([p for pts in lines for p in pts], dtype=float).reshape(-1, u.d).T
    return {key: (v.tolist(), ok.tolist())
            for key, (v, ok) in u.evaluate_batch(cols, axes, value).items()}


def _limits(u: PiecewiseFn, batch: dict, i: int, p, axis: int) -> tuple:
    """(left, right) along the axis at the batch's i-th point p, else ``one_sided_limits``."""
    (left, lc), (right, rc) = batch[axis, -1], batch[axis, 1]
    if lc[i] and rc[i]:
        return left[i], right[i]
    lim = u.one_sided_limits(p, axis)
    return lim.left, lim.right


# ---------------------------------------------------------------------------
# Continuity and properness

def classify_continuity(u: PiecewiseFn) -> ContinuityReport:
    lines = _edge_samples(u.forms, u.domain, u.d)
    axes = sorted({u.forms[k].primary_axis() for k, pts in enumerate(lines) if pts})
    return _continuity(u, lines, _line_batch(u, lines, axes, value=False))


def _continuity(u: PiecewiseFn, lines: list, batch: dict) -> ContinuityReport:
    """The report from the limits along each form's primary axis at its samples."""
    jump, indet, unsampled = [], [], []
    samples: dict = {}
    at = itertools.count()
    for k, pts in enumerate(lines):
        if not pts:
            unsampled.append(k)
            continue
        axis = u.forms[k].primary_axis()
        rows = [(p, *_limits(u, batch, next(at), p, axis)) for p in pts]
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
    from one batch for the whole check; the scalar methods take what it
    left, per point the value first, then each other axis.  Run once per
    function: the (ok, report) pair is kept, and callers only read it."""
    if u._proper is not None:
        return u._proper
    lines = _edge_samples(u.forms, u.domain, u.d)
    batch = _line_batch(u, lines, range(u.d))
    cont = _continuity(u, lines, batch)
    (stored_values, covered), at = batch[None], itertools.count()
    violations = []
    for k, rows in cont.samples.items():
        primary = u.forms[k].primary_axis()
        for p, a, b in rows:
            i = next(at)
            stored = stored_values[i] if covered[i] else u.evaluate(p)
            for axis in range(u.d):
                left, right = (a, b) if axis == primary else _limits(u, batch, i, p, axis)
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


def restrict_pattern(u: PiecewiseFn, union_forms: Sequence[AffineForm], pattern: Pattern) -> Pattern:
    return tuple(pattern[find_form(union_forms, f)] for f in u.forms)


def _branch_for(u: PiecewiseFn, union_forms, pattern) -> Expr:
    s = restrict_pattern(u, union_forms, pattern)
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
    branches = [
        (pat, add(_branch_for(u, forms, pat), mul(Const(cv), _branch_for(v, forms, pat))))
        for pat in regions(forms, domain, u.d)
    ]
    return PiecewiseFn(u.vars, tuple(forms), tuple(branches),
                       ("specular",) * len(forms), domain=domain)


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
    return PiecewiseFn(vars2, comp_forms, tuple(branches),
                       ("specular",) * len(comp_forms), domain=tuple(domain))


def pw_select(form: AffineForm, pos: PiecewiseFn, neg: PiecewiseFn) -> PiecewiseFn:
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
                       ("specular",) * len(forms), domain=domain)
